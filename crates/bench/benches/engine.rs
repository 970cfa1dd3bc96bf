//! Benchmarks of the serving engine's sharded-store adapter.
//!
//! Four rungs of the same Zipf churn stream: a raw single-threaded
//! [`LruStore`] (no threads, no queues), a [`ShardedStore`] driven
//! one synchronous round trip per operation (the engine's worst-case
//! per-op coordination cost, kept deliberately visible), the batched
//! pipeline ([`ShardHandle::submit_batch`]) where a run of jobs
//! crosses the ring in one claim and the worker drains in bulk, and
//! the synchronous run ([`ShardHandle::apply_batch`]) which keeps the
//! per-op hit/miss replies: one message and one reply per shard, the
//! verdicts written into the run's own buffer. The gap between the
//! per-op and batched rungs is what batching buys; the gap between
//! `submit_batch` and `apply_batch` is the price of replies.
//!
//! `cargo bench --bench engine -- --regression-smoke` skips the sweep
//! and runs a quick self-asserting check instead: it times per-op vs
//! batched submission and **panics** if batched is not faster. CI runs
//! this as the bench-regression gate (the vendored criterion stand-in
//! performs no statistics, so the comparison lives in this binary).

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ccn_engine::{shard_of, ShardHandle, ShardSpec, ShardedStore};
use ccn_sim::store::{ContentStore, LruStore};
use ccn_sim::ContentId;
use ccn_zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CATALOGUE: u64 = 100_000;
const CAPACITY: usize = 1_000;
const OPS: usize = 8_192;
/// Per-shard ring capacity: large enough that a whole batched run
/// lands in one claim.
const QUEUE: usize = 1_024;

fn zipf_stream(ops: usize) -> Vec<u64> {
    let sampler = ZipfSampler::new(0.8, CATALOGUE).expect("valid");
    let mut rng = StdRng::seed_from_u64(2026);
    let mut stream = vec![0u64; ops];
    sampler.sample_fill(&mut rng, &mut stream);
    stream
}

/// Replays the stream directly against a store the caller owns.
fn churn_direct(store: &mut dyn ContentStore, stream: &[u64]) -> usize {
    let mut hits = 0usize;
    for &rank in stream {
        let id = ContentId(rank);
        if store.contains(id) {
            store.on_hit(id);
            hits += 1;
        } else {
            store.on_data(id);
        }
    }
    hits
}

/// Replays the stream through the shard queues: one synchronous
/// round trip per operation.
fn churn_via_queue(handle: &ShardHandle<u64>, stream: &[u64]) -> usize {
    stream.iter().filter(|&&rank| handle.apply(ContentId(rank))).count()
}

/// The same churn as [`churn_direct`], but run by the shard worker as
/// an asynchronous job.
fn churn_handler(hits: &Arc<AtomicU64>) -> Arc<impl Fn(&mut dyn ContentStore, u64) + Send + Sync> {
    let hits = Arc::clone(hits);
    Arc::new(move |store: &mut dyn ContentStore, rank: u64| {
        let id = ContentId(rank);
        if store.contains(id) {
            store.on_hit(id);
            hits.fetch_add(1, Ordering::Relaxed);
        } else {
            store.on_data(id);
        }
    })
}

/// Groups the stream into per-shard sub-streams (order preserved
/// within each shard), mirroring what the load generator's batching
/// buffers do.
fn group_by_shard(stream: &[u64], shards: usize) -> Vec<Vec<u64>> {
    let mut grouped = vec![Vec::new(); shards];
    for &rank in stream {
        grouped[shard_of(ContentId(rank), shards)].push(rank);
    }
    grouped
}

/// Replays pre-grouped runs through the batched path, then waits for
/// the workers to drain so the measured span covers the full pipeline.
fn churn_batched(handle: &ShardHandle<u64>, by_shard: &[Vec<u64>], batch: usize) {
    let mut scratch = Vec::with_capacity(batch);
    for (shard, stream) in by_shard.iter().enumerate() {
        for chunk in stream.chunks(batch) {
            scratch.extend_from_slice(chunk);
            handle.submit_batch(shard, &mut scratch);
        }
    }
    while handle.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

fn spawn_churn(shards: usize, hits: &Arc<AtomicU64>) -> ShardedStore<u64> {
    let capacity_per_shard = CAPACITY.div_ceil(shards);
    ShardedStore::try_spawn_with(
        ShardSpec::new(shards, QUEUE),
        move |_| Box::new(LruStore::new(capacity_per_shard)),
        churn_handler(hits),
    )
    .expect("shard workers spawn")
}

fn queue_hop_benches(c: &mut Criterion) {
    let stream = zipf_stream(OPS);
    let hits = Arc::new(AtomicU64::new(0));

    let mut group = c.benchmark_group("engine_queue_hop");

    // Baseline: the store alone, no threads, no queues. Steady-state
    // churn (the store persists across iterations) so all rungs
    // measure warm-cache per-op cost rather than cold fills.
    let mut raw = LruStore::new(CAPACITY);
    churn_direct(&mut raw, &stream);
    group.bench_function("lru_direct", |b| b.iter(|| churn_direct(&mut raw, black_box(&stream))));

    // Per-op rung: each operation crosses a bounded queue to a
    // dedicated writer thread and waits for the reply.
    for shards in [1usize, 2, 4] {
        let mut sharded = spawn_churn(shards, &hits);
        let handle = sharded.handle();
        churn_via_queue(&handle, &stream);
        group.bench_function(BenchmarkId::new("lru_sharded", shards), |b| {
            b.iter(|| churn_via_queue(&handle, black_box(&stream)))
        });
        sharded.shutdown();
    }

    // Batched rung: the same stream grouped into per-shard runs, one
    // ring claim per run, bulk drain on the worker side.
    for shards in [1usize, 4] {
        let by_shard = group_by_shard(&stream, shards);
        for batch in [32usize, 256] {
            let mut sharded = spawn_churn(shards, &hits);
            let handle = sharded.handle();
            churn_batched(&handle, &by_shard, batch);
            group.bench_function(
                BenchmarkId::new("lru_sharded_batched", format!("{shards}shard_b{batch}")),
                |b| b.iter(|| churn_batched(&handle, black_box(&by_shard), batch)),
            );
            sharded.shutdown();
        }
    }

    // Synchronous-run rung: batched admission *with* per-op hit/miss
    // replies (apply_batch routes by shard internally).
    let ids: Vec<ContentId> = stream.iter().map(|&rank| ContentId(rank)).collect();
    for shards in [1usize, 4] {
        let mut sharded = spawn_churn(shards, &hits);
        let handle = sharded.handle();
        let mut replies = Vec::new();
        handle.apply_batch(&ids, &mut replies);
        group.bench_function(BenchmarkId::new("lru_sharded_apply_batch", shards), |b| {
            b.iter(|| handle.apply_batch(black_box(&ids), &mut replies))
        });
        sharded.shutdown();
    }

    group.finish();
}

/// Median of `samples` timed runs of `f`, in nanoseconds per op.
fn median_ns_per_op(ops: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            #[allow(clippy::cast_precision_loss)]
            {
                start.elapsed().as_nanos() as f64 / ops as f64
            }
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    timings[samples / 2]
}

/// CI gate: batched submission must beat per-op round trips, or this
/// panics. Quick (a few hundred ms) and self-contained because the
/// vendored criterion stand-in cannot compare runs.
fn regression_smoke() {
    const SMOKE_OPS: usize = 4_096;
    const SAMPLES: usize = 5;
    let stream = zipf_stream(SMOKE_OPS);
    let hits = Arc::new(AtomicU64::new(0));
    let mut sharded = spawn_churn(1, &hits);
    let handle = sharded.handle();

    churn_via_queue(&handle, &stream);
    let per_op = median_ns_per_op(SMOKE_OPS, SAMPLES, || {
        churn_via_queue(&handle, black_box(&stream));
    });

    let by_shard = group_by_shard(&stream, 1);
    churn_batched(&handle, &by_shard, 256);
    let batched = median_ns_per_op(SMOKE_OPS, SAMPLES, || {
        churn_batched(&handle, black_box(&by_shard), 256);
    });

    let ids: Vec<ContentId> = stream.iter().map(|&rank| ContentId(rank)).collect();
    let mut replies = Vec::new();
    handle.apply_batch(&ids, &mut replies);
    let run = median_ns_per_op(SMOKE_OPS, SAMPLES, || {
        handle.apply_batch(black_box(&ids), &mut replies);
    });
    sharded.shutdown();

    println!("regression-smoke per_op      ~{per_op:>10.1} ns/op");
    println!("regression-smoke batched     ~{batched:>10.1} ns/op");
    println!("regression-smoke apply_batch ~{run:>10.1} ns/op");
    println!("regression-smoke reduction    {:.2}x", per_op / batched);
    assert!(
        batched < per_op,
        "batched submission regressed: {batched:.1} ns/op vs per-op {per_op:.1} ns/op"
    );
    assert!(
        run < per_op,
        "apply_batch regressed: {run:.1} ns/op as one run vs {per_op:.1} ns/op as a round \
         trip per op"
    );
    println!("regression-smoke OK: batched pipeline faster than per-op");
}

criterion_group!(benches, queue_hop_benches);

fn main() {
    // `cargo bench --bench engine -- --regression-smoke` runs the CI
    // gate instead of the full sweep.
    if std::env::args().any(|arg| arg == "--regression-smoke") {
        regression_smoke();
        return;
    }
    benches();
}
