//! The closed loop against the *live engine*: under scripted
//! popularity drift (s: 0.7 → 1.1 mid-run) the adaptive controller
//! must re-fit the exponent from its admission-path tap, re-solve the
//! paper's optimum, and walk the serving cluster to the new layout
//! through budgeted incremental config epochs — converging within a
//! few percent of the oracle ℓ* while a statically provisioned twin
//! keeps serving the stale layout.
//!
//! Everything here is synchronous and seeded: load is driven in
//! chunks with one controller tick between chunks, so the test
//! replays identically and every assertion is sharp.

use ccn_suite::engine::load::{drive, OpenLoopConfig};
use ccn_suite::engine::{
    Cluster, ClusterConfig, ClusterController, ControllerConfig, ControllerDecision,
};
use ccn_suite::model::{CacheModel, ModelParams};
use ccn_suite::sim::TierCounts;

const NODES: usize = 3;
const CATALOGUE: u64 = 10_000;
const CAPACITY: u64 = 100;
const ALPHA: f64 = 0.9;
const S_BEFORE: f64 = 0.7;
const S_AFTER: f64 = 1.1;
const BUDGET: u64 = 64;

/// The paper's exact optimum for a known exponent — the oracle the
/// controller is judged against.
fn oracle_ell(s: f64) -> f64 {
    let params = ModelParams::builder()
        .zipf_exponent(s)
        .routers(NODES as u32)
        .catalogue(CATALOGUE as f64)
        .capacity(CAPACITY as f64)
        .alpha(ALPHA)
        .build()
        .expect("valid params");
    CacheModel::new(params).expect("valid model").optimal_exact().expect("solves").ell_star
}

fn cluster_at(ell: f64) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        queue_capacity: 65_536,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell,
        ..ClusterConfig::default()
    })
    .expect("cluster builds")
}

fn load_chunk(s: f64, horizon_ms: f64, seed: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        zipf_s: s,
        rate_per_node_per_ms: 4.0,
        horizon_ms,
        seed,
        ..OpenLoopConfig::default()
    }
}

fn totals(cluster: &Cluster) -> TierCounts {
    let mut sum = TierCounts::default();
    for node in cluster.tier_totals() {
        sum.local += node.local;
        sum.peer += node.peer;
        sum.origin += node.origin;
    }
    sum
}

#[test]
fn adaptive_tracks_drift_while_static_serves_stale_layout() {
    let ell_before = oracle_ell(S_BEFORE);
    let ell_after = oracle_ell(S_AFTER);
    assert!(
        (ell_before - ell_after).abs() > 0.1,
        "drift must move the optimum materially: {ell_before} vs {ell_after}"
    );

    // Both clusters start perfectly provisioned for the pre-drift
    // workload; only one gets a controller.
    let adaptive = cluster_at(ell_before);
    let static_twin = cluster_at(ell_before);
    let mut controller = ClusterController::attach(
        &adaptive,
        ControllerConfig {
            alpha: ALPHA,
            decay: 0.5,
            min_window: 1_000.0,
            hysteresis: 0.05,
            movement_budget: BUDGET,
            sample_every: 1,
            tap_capacity: 8_192,
            ..ControllerConfig::default()
        },
    )
    .expect("controller attaches");

    let mut offered = [0u64; 2];
    let mut shed = [0u64; 2];
    let mut run = |cluster: &Cluster, which: usize, chunk: &OpenLoopConfig| {
        let report = drive(cluster, chunk).expect("drive succeeds").total();
        offered[which] += report.offered;
        shed[which] += report.shed;
    };

    // Phase 1: both clusters serve the workload they were built for.
    let warmup = load_chunk(S_BEFORE, 500.0, 42);
    run(&adaptive, 0, &warmup);
    run(&static_twin, 1, &warmup);
    controller.step(&adaptive).expect("tick");
    assert!(
        (controller.controller().current_ell() - ell_before).abs() <= 0.05 * ell_before,
        "pre-drift the controller must agree with its own provisioning"
    );

    // The drift: popularity concentrates. Load arrives in chunks with
    // one controller tick after each, so the decayed window washes
    // out the old regime deterministically.
    let pre_drift_adaptive = totals(&adaptive);
    let pre_drift_static = totals(&static_twin);
    for chunk_index in 0..12u64 {
        let chunk = load_chunk(S_AFTER, 150.0, 1_000 + chunk_index);
        run(&adaptive, 0, &chunk);
        run(&static_twin, 1, &chunk);
        controller.step(&adaptive).expect("tick");
    }
    controller.drain_chain(&adaptive).expect("chain drains");

    // Headline: the controller converged to within a few percent of
    // the oracle for the *new* exponent; the static twin never moved.
    let converged = controller.controller().current_ell();
    assert!(
        (converged - ell_after).abs() <= 0.05 * ell_after,
        "adaptive ell {converged:.4} not within 5% of oracle {ell_after:.4}"
    );
    assert_eq!(static_twin.config_epoch(), 1, "the static twin must never re-slice");

    let report = controller.report();
    assert!(report.retargets >= 1, "the drift must retarget at least once");
    assert!(
        report.epochs_issued >= 2,
        "a material re-slice must be split into multiple epochs, got {}",
        report.epochs_issued
    );
    assert_eq!(
        adaptive.config_epoch(),
        1 + report.epochs_issued,
        "every issued epoch must have landed on the cluster"
    );
    assert!(report.slices_moved > 0);
    let fitted = report.fitted_s.expect("a fit happened");
    assert!((fitted - S_AFTER).abs() < 0.1, "final fit {fitted} missed s={S_AFTER}");

    // Every incremental epoch respected the movement budget.
    let mut chain_steps = 0u64;
    for decision in &report.decisions {
        if let ControllerDecision::ChainStep { moved_slots, .. } = decision {
            chain_steps += 1;
            assert!(*moved_slots <= BUDGET, "epoch moved {moved_slots} slots over budget {BUDGET}");
        }
    }
    assert_eq!(chain_steps, report.epochs_issued);

    // The differential: post-drift, the adaptive layout's larger
    // local prefix serves the concentrated workload at the d0 tier
    // far more often than the stale layout does — exactly the
    // trade-off the α-weighted objective retargeted for.
    let post_adaptive = totals(&adaptive);
    let post_static = totals(&static_twin);
    let local_fraction = |after: &TierCounts, before: &TierCounts| {
        let local = after.local - before.local;
        let total = after.total() - before.total();
        local as f64 / total as f64
    };
    let adaptive_local = local_fraction(&post_adaptive, &pre_drift_adaptive);
    let static_local = local_fraction(&post_static, &pre_drift_static);
    assert!(
        adaptive_local > static_local + 0.02,
        "adaptive local fraction {adaptive_local:.4} must beat static {static_local:.4}"
    );

    // Conservation, bit-exact, on both clusters — across every config
    // epoch the controller pushed mid-flight.
    let completed = [totals(&adaptive).total(), totals(&static_twin).total()];
    let adaptive_metrics = adaptive.finish();
    let _ = static_twin.finish();
    assert_eq!(
        offered[0],
        completed[0] + shed[0],
        "adaptive cluster lost requests across re-slicing"
    );
    assert_eq!(offered[1], completed[1] + shed[1], "static cluster lost requests");
    assert_eq!(adaptive_metrics.config_epoch, 1 + report.epochs_issued);
}
