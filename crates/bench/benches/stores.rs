//! Benchmarks of content-store policies and placement lookups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ccn_sim::store::{ContentStore, FifoStore, LfuStore, LruStore, RandomStore, SlruStore};
use ccn_sim::{ContentId, Placement};
use ccn_zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replays a pre-drawn request stream against a store.
fn churn(store: &mut dyn ContentStore, stream: &[u64]) -> usize {
    for &rank in stream {
        let id = ContentId(rank);
        if store.contains(id) {
            store.on_hit(id);
        } else {
            store.on_data(id);
        }
    }
    store.len()
}

/// The headline hot-path benchmark: a Zipf(0.8) stream of a million
/// operations over a 10^6 catalogue churning a 10^3-entry store.
fn churn_benches(c: &mut Criterion) {
    const CATALOGUE: u64 = 1_000_000;
    const CAPACITY: usize = 1_000;
    const FAST_OPS: usize = 1_000_000;

    let sampler = ZipfSampler::new(0.8, CATALOGUE).expect("valid");
    let mut rng = StdRng::seed_from_u64(2024);
    let mut stream = vec![0u64; FAST_OPS];
    sampler.sample_fill(&mut rng, &mut stream);

    let mut group = c.benchmark_group("stores");
    group.bench_function("lru_churn", |b| {
        b.iter(|| churn(&mut LruStore::new(CAPACITY), black_box(&stream)))
    });
    group.bench_function("lfu_churn", |b| {
        b.iter(|| churn(&mut LfuStore::new(CAPACITY), black_box(&stream)))
    });
    group.finish();
}

fn store_benches(c: &mut Criterion) {
    const CAPACITY: usize = 1_000;
    const STREAM: usize = 10_000;

    type StoreFactory = fn() -> Box<dyn ContentStore>;
    let mut group = c.benchmark_group("store_policies");
    let policies: Vec<(&str, StoreFactory)> = vec![
        ("lru", || Box::new(LruStore::new(CAPACITY))),
        ("lfu", || Box::new(LfuStore::new(CAPACITY))),
        ("fifo", || Box::new(FifoStore::new(CAPACITY))),
        ("random", || Box::new(RandomStore::new(CAPACITY, 7))),
        ("slru", || Box::new(SlruStore::with_total_capacity(CAPACITY))),
    ];
    for (name, factory) in policies {
        group.bench_function(BenchmarkId::new("churn_stream", name), |b| {
            b.iter(|| {
                let mut store = factory();
                for i in 0..STREAM as u64 {
                    // Zipf-ish skew via squaring.
                    let rank = (i * i) % 5_000 + 1;
                    if store.contains(ContentId(rank)) {
                        store.on_hit(ContentId(rank));
                    } else {
                        store.on_data(ContentId(rank));
                    }
                }
                black_box(store.len())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("placement_holder_lookup");
    let schemes: Vec<(&str, Placement)> = vec![
        ("range", Placement::range(1, 100_001, (0..50).collect())),
        ("hash", Placement::hash(1, 100_001, (0..50).collect())),
        ("rendezvous", Placement::rendezvous(1, 100_001, (0..50).collect())),
    ];
    for (name, placement) in schemes {
        group.bench_function(BenchmarkId::new("holder", name), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for rank in 1..1_001u64 {
                    acc += placement
                        .holder(black_box(ContentId(rank * 97 % 100_000 + 1)))
                        .unwrap_or(0);
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, churn_benches, store_benches);
criterion_main!(benches);
