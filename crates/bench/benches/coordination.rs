//! Benchmarks of the coordination layer: full provisioning rounds and
//! online exponent re-estimation (the controller's `StreamingFit`
//! over one undecayed batch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use ccn_coord::{Coordinator, CoordinatorConfig};
use ccn_model::ModelParams;
use ccn_zipf::{StreamingFit, ZipfSampler};

fn coordination_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("provisioning_round");
    for n in [10u32, 50, 200] {
        let params = ModelParams::builder()
            .routers(n)
            .capacity(200.0)
            .alpha(0.9)
            .build()
            .expect("valid params");
        let coordinator = Coordinator::new(CoordinatorConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &params, |b, p| {
            b.iter(|| coordinator.provision(black_box(*p)).expect("provisions"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("exponent_mle");
    for &samples in &[1_000usize, 10_000] {
        let sampler = ZipfSampler::new(0.8, 100_000).expect("valid");
        let mut rng = StdRng::seed_from_u64(4);
        let ranks = sampler.sample_many(&mut rng, samples);
        group.bench_with_input(BenchmarkId::from_parameter(samples), &ranks, |b, r| {
            b.iter(|| {
                let mut window = StreamingFit::new(100_000, 1.0).expect("valid window");
                window.observe(black_box(r)).expect("ranks in catalogue");
                window.fit().expect("fits")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, coordination_benches);
criterion_main!(benches);
