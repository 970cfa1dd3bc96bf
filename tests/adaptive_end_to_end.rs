//! Closed-loop test of the adaptive planner against the packet-level
//! simulator: the workload's popularity drifts, the engine's
//! [`Controller`] observes the simulator's request ranks, re-fits the
//! exponent and retargets, and the re-provisioned deployment must beat
//! the stale one on the new workload. The simulator is the runner (it
//! owns the clock and the requests); the controller only plans.

use ccn_suite::engine::{Controller, ControllerConfig};
use ccn_suite::model::{CacheModel, ModelParams};
use ccn_suite::sim::scenario::{steady_state, SteadyStateConfig};
use ccn_suite::sim::OriginConfig;
use ccn_suite::topology::datasets;
use ccn_suite::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 11;
const CATALOGUE: u64 = 5_000;
const CAPACITY: u64 = 100;

/// The level a deployment provisioned for exponent `s` enacts.
fn provisioned_ell(s: f64, alpha: f64) -> f64 {
    let params = ModelParams::builder()
        .zipf_exponent(s)
        .routers(ROUTERS as u32)
        .catalogue(CATALOGUE as f64)
        .capacity(CAPACITY as f64)
        .alpha(alpha)
        .build()
        .expect("valid params");
    CacheModel::new(params).expect("model").optimal_exact().expect("solves").ell_star
}

/// A planner over the simulated fleet, starting from `ell`. With
/// `decay: 1.0` the window never fades, so one observed batch is
/// fitted exactly like a batch MLE over it.
fn controller(ell: f64, alpha: f64) -> Controller {
    let config = ControllerConfig { alpha, decay: 1.0, ..Default::default() };
    Controller::new(ROUTERS, CATALOGUE, CAPACITY, ell, config).expect("initializes")
}

/// Runs the planner's pending epoch chain to its end.
fn drain(controller: &mut Controller) {
    while controller.plan().expect("plans").is_some() {}
}

fn deploy(ell: f64, s_workload: f64) -> f64 {
    let metrics = steady_state(
        datasets::abilene(),
        &SteadyStateConfig {
            zipf_exponent: s_workload,
            catalogue: CATALOGUE,
            capacity: CAPACITY,
            ell,
            rate_per_ms: 0.01,
            horizon_ms: 60_000.0,
            origin: OriginConfig { latency_ms: 50.0, hops: 4, ..Default::default() },
            seed: 5,
        },
    )
    .expect("deployment runs");
    metrics.origin_load()
}

#[test]
fn adaptation_tracks_popularity_drift() {
    // Provisioned for a steep catalogue (s = 1.6, little coordination
    // pays) with a strongly cost-weighted objective...
    let stale_ell = provisioned_ell(1.6, 0.95);
    let mut controller = controller(stale_ell, 0.95);

    // ...then the workload flattens to s = 0.6 (coordination pays a lot).
    let sampler = ZipfSampler::new(0.6, CATALOGUE).expect("valid sampler");
    let mut rng = StdRng::seed_from_u64(31);
    controller.observe(&sampler.sample_many(&mut rng, 30_000));
    drain(&mut controller);
    let report = controller.report();
    assert_eq!(report.retargets, 1, "expected a retarget, got {:?}", report.decisions);
    let estimated_s = report.fitted_s.expect("a retarget carries its fit");
    assert!((estimated_s - 0.6).abs() < 0.05, "estimated {estimated_s}");
    let fresh_ell = controller.current_ell();
    assert!(fresh_ell > stale_ell, "flatter catalogue demands more coordination");

    // The re-provisioned deployment must serve the new workload with
    // strictly less origin traffic than the stale one.
    let stale_load = deploy(stale_ell, 0.6);
    let fresh_load = deploy(fresh_ell, 0.6);
    assert!(
        fresh_load < stale_load,
        "fresh l={fresh_ell:.3} load {fresh_load:.3} vs stale l={stale_ell:.3} load {stale_load:.3}"
    );
}

#[test]
fn no_reprovisioning_on_stationary_workloads() {
    let mut controller = controller(provisioned_ell(0.8, 0.9), 0.9);
    let sampler = ZipfSampler::new(0.8, CATALOGUE).expect("valid sampler");
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..5 {
        controller.observe(&sampler.sample_many(&mut rng, 10_000));
        drain(&mut controller);
    }
    assert_eq!(
        controller.report().retargets,
        0,
        "hysteresis must suppress flapping on stationary input"
    );
}
