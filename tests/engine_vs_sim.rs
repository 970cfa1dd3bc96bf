//! Differential validation: the live serving engine against the
//! discrete-event simulator.
//!
//! Both systems deploy the identical provisioning (same `x` rounding,
//! same contiguous slice assignment) and are fed the identical seeded
//! Zipf/Poisson request stream on Abilene, so every node's per-tier
//! completion counts must be equal: the engine executes concurrently
//! with real queues, but tier attribution under static provisioning is
//! a pure function of (requester, content). Any difference means the
//! engine's escalation path — or the worker that records a completion
//! against its client node — disagrees with the model.

use ccn_engine::load::drive;
use ccn_engine::{Cluster, ClusterConfig, OpenLoopConfig, StorePolicy};
use ccn_sim::scenario::{steady_state, SteadyStateConfig};
use ccn_topology::datasets;

const CATALOGUE: u64 = 5_000;
const CAPACITY: u64 = 100;
const ZIPF_S: f64 = 0.8;
const RATE_PER_MS: f64 = 0.02;
const HORIZON_MS: f64 = 100_000.0;
const SEED: u64 = 42;

/// Completions per node, as `(local, peer, origin)`.
type Split = Vec<(u64, u64, u64)>;

fn sim_split(ell: f64) -> Split {
    let config = SteadyStateConfig {
        zipf_exponent: ZIPF_S,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell,
        rate_per_ms: RATE_PER_MS,
        horizon_ms: HORIZON_MS,
        seed: SEED,
        ..SteadyStateConfig::default()
    };
    let metrics = steady_state(datasets::abilene(), &config).expect("simulation runs");
    metrics.served_per_router.iter().map(|c| (c.local, c.peer, c.origin)).collect()
}

fn engine_split(ell: f64, shards_per_node: usize, batch: usize) -> Split {
    let nodes = datasets::abilene().node_count();
    let cluster = Cluster::new(ClusterConfig {
        nodes,
        shards_per_node,
        // Deep queues: a shed request would perturb the completed
        // multiset relative to the simulator's.
        queue_capacity: 32_768,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell,
        policy: StorePolicy::Provisioned,
        ..ClusterConfig::default()
    })
    .expect("cluster provisions");
    // One generator with the simulator's seed replays the *identical*
    // request stream `steady_state` feeds the DES.
    let load = OpenLoopConfig {
        generators: 1,
        zipf_s: ZIPF_S,
        rate_per_node_per_ms: RATE_PER_MS,
        horizon_ms: HORIZON_MS,
        paced: false,
        seed: SEED,
        batch,
        drift: Vec::new(),
    };
    let report = drive(&cluster, &load).expect("engine serves the workload");
    let _ = cluster.finish();
    let total = report.total();
    assert_eq!(total.shed, 0, "queues sized to never shed this workload");
    assert_eq!(total.offered, total.completed(), "every request accounted");
    report.per_node.iter().map(|l| (l.local, l.peer, l.origin)).collect()
}

fn assert_split_matches(ell: f64, shards_per_node: usize, batch: usize) {
    let sim = sim_split(ell);
    let engine = engine_split(ell, shards_per_node, batch);
    assert_eq!(sim.len(), engine.len(), "node counts differ");
    for (node, (s, e)) in sim.iter().zip(&engine).enumerate() {
        assert_eq!(
            s, e,
            "ell={ell} shards={shards_per_node} batch={batch} node {node}: \
             sim (local, peer, origin) {s:?} vs engine {e:?}"
        );
    }
}

#[test]
fn coordinated_tier_fractions_match_the_simulator() {
    assert_split_matches(0.5, 1, 1);
}

#[test]
fn non_coordinated_tier_fractions_match_the_simulator() {
    assert_split_matches(0.0, 1, 1);
}

#[test]
fn sharded_nodes_preserve_the_tier_split() {
    // Static tier attribution is shard-count invariant; running the
    // same differential with concurrent shards exercises the
    // cross-shard forwarding path under CI.
    assert_split_matches(0.5, 2, 1);
}

#[test]
fn batched_submission_preserves_the_tier_split() {
    // The batched pipeline (runs grouped by shard, one queue claim
    // per run) must match the DES exactly, as the per-op pipeline
    // does — batching may reorder *across* shards but never within
    // one, and tier attribution under static provisioning is
    // order-free.
    assert_split_matches(0.5, 2, 256);
}

#[test]
fn single_shard_engine_runs_are_reproducible() {
    let first = engine_split(0.5, 1, 1);
    let second = engine_split(0.5, 1, 1);
    assert_eq!(first, second, "same seed, same single-shard cluster, different results");
}

#[test]
fn single_shard_batched_runs_are_reproducible_and_match_per_op() {
    let per_op = engine_split(0.5, 1, 1);
    let batched = engine_split(0.5, 1, 128);
    assert_eq!(per_op, batched, "batching changed the completed multiset on a single shard");
}
