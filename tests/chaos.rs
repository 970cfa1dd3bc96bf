//! Chaos invariant harness: the live engine under deterministic
//! fault injection.
//!
//! The engine's failure semantics promise three things (see
//! DESIGN.md §10), and this harness property-tests all of them
//! end-to-end through [`ccn_engine::load::drive`]:
//!
//! 1. **Exact conservation** — `offered == completed + shed`,
//!    bit-exactly, for *every* seeded kill/revive schedule. Dead-mode
//!    workers complete already-admitted jobs at origin, so no fault
//!    timing can lose or double-count a request.
//! 2. **Share isolation** — killing one node mid-run sheds exactly
//!    that node's remaining submissions and leaves every survivor's
//!    local-tier counts bit-identical to the no-fault run: rendezvous
//!    failover re-homes only the victim's HRW share.
//! 3. **Re-convergence** — after a plan-driven revival the cluster's
//!    tier fractions match a never-faulted cluster within the same 2%
//!    differential tolerance the engine-vs-simulator suite enforces.
//!
//! Determinism argument: with one generator, per-op submission
//! (`batch == 1`), one shard per node, and provisioned (static)
//! stores, the global admission-operation counter equals the 1-based
//! index into the single pre-drawn request stream — so an
//! op-scheduled fault perturbs the *same request* in every run, and
//! expected shed counts can be recomputed by replaying
//! [`ccn_sim::workload::zipf_irm`] offline.

use std::time::Duration;

use ccn_engine::load::drive;
use ccn_engine::{
    check_conservation, tier_fractions, Cluster, ClusterConfig, DegradeConfig, EngineMetrics,
    FaultPlan, LoadReport, OpenLoopConfig, ShardPlacement, StorePolicy,
};
use ccn_sim::workload::{self, Request};
use proptest::prelude::*;

const NODES: usize = 3;
const CATALOGUE: u64 = 200;
const CAPACITY: u64 = 30;
const ZIPF_S: f64 = 0.8;
const RATE_PER_MS: f64 = 1.0;
/// The differential tolerance shared with tests/engine_vs_sim.rs.
const TOLERANCE: f64 = 0.02;

fn chaos_config(degrade: DegradeConfig) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        shards_per_node: 1,
        // Deep enough that these workloads never shed for queue-full:
        // every shed below is attributable to a killed node.
        queue_capacity: 8_192,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell: 0.5,
        policy: StorePolicy::Provisioned,
        degrade,
        ..ClusterConfig::default()
    }
}

fn chaos_load(seed: u64, horizon_ms: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        generators: 1,
        zipf_s: ZIPF_S,
        rate_per_node_per_ms: RATE_PER_MS,
        horizon_ms,
        paced: false,
        seed,
        batch: 1,
        drift: Vec::new(),
    }
}

/// Runs one cluster+plan to completion and returns the accounting.
fn run(
    config: ClusterConfig,
    plan: FaultPlan,
    load: &OpenLoopConfig,
) -> (LoadReport, EngineMetrics) {
    let cluster = Cluster::with_faults(config, plan).expect("cluster provisions");
    let report = drive(&cluster, load).expect("engine serves the workload");
    (report, cluster.finish())
}

/// Replays the exact request stream `drive` feeds a single generator:
/// op `i + 1` of the run is `stream[i]`.
fn replay(seed: u64, horizon_ms: f64) -> Vec<Request> {
    let owned: Vec<usize> = (0..NODES).collect();
    workload::zipf_irm(&owned, ZIPF_S, CATALOGUE, RATE_PER_MS, horizon_ms, seed)
        .expect("workload parameters are valid")
}

proptest! {
    /// Invariant 1: exact conservation under every seeded schedule.
    /// A seeded plan alternates kill/revive per node from an MTBF/MTTR
    /// renewal process; whatever the interleaving, every offered
    /// request is completed or shed — never lost, never double-counted
    /// — and each applied transition bumps the routing epoch exactly
    /// once (the health detector stays silent: plan kills bypass it).
    #[test]
    fn seeded_schedules_conserve_every_request(
        seed in 0u64..10_000,
        mtbf_ops in 120u64..600,
        mttr_ops in 40u64..300,
    ) {
        let plan = FaultPlan::seeded(seed, NODES, mtbf_ops, mttr_ops, 1_500);
        let (report, metrics) = run(
            chaos_config(DegradeConfig::default()),
            plan,
            &chaos_load(seed, 400.0),
        );
        let total = report.total();
        prop_assert!(total.offered > 500, "workload too small: {:?}", report);
        prop_assert_eq!(
            total.offered,
            total.completed() + total.shed,
            "conservation violated: {:?}",
            report
        );
        // Queues are deep enough that the only shed cause is a killed
        // node refusing admission.
        prop_assert_eq!(total.shed, metrics.shed_node_down);
        prop_assert_eq!(metrics.health_marked_down, 0, "plan kills must bypass the detector");
        // Seeded plans strictly alternate per node, so every applied
        // transition is an effective liveness change.
        prop_assert_eq!(metrics.routing_epoch, 1 + metrics.fault_log.len() as u64);
        for pair in metrics.fault_log.windows(2) {
            prop_assert!(pair[0].at_op <= pair[1].at_op, "fault log out of order");
            prop_assert!(pair[0].epoch <= pair[1].epoch, "epochs regressed");
        }
    }

    /// Invariant 2: a single mid-run kill moves only the victim's HRW
    /// share. The victim sheds exactly its stream entries at ops >=
    /// the kill trigger (recomputed by offline replay), completes
    /// exactly its pre-kill admissions, and every survivor's
    /// local-tier count is bit-identical to the no-fault baseline —
    /// rendezvous failover never touched a survivor's own share.
    #[test]
    fn single_kill_sheds_exactly_the_victims_share(
        victim in prop::sample::select(vec![0usize, 1, 2]),
        kill_op in 20u64..350,
    ) {
        const SEED: u64 = 4242;
        const HORIZON: f64 = 400.0;
        let load = chaos_load(SEED, HORIZON);
        let (base_report, _) =
            run(chaos_config(DegradeConfig::default()), FaultPlan::none(), &load);
        let baseline = base_report.total();
        prop_assert_eq!(baseline.shed, 0, "baseline must not shed");
        let plan = FaultPlan::none().with_node_outage(victim, kill_op, None);
        let (report, metrics) = run(chaos_config(DegradeConfig::default()), plan, &load);
        let total = report.total();
        prop_assert_eq!(total.offered, baseline.offered);
        prop_assert_eq!(total.offered, total.completed() + total.shed);

        let stream = replay(SEED, HORIZON);
        prop_assert_eq!(stream.len() as u64, total.offered, "replay diverged from drive");
        let victim_total =
            stream.iter().filter(|r| r.router == victim).count() as u64;
        let expected_shed = stream
            .iter()
            .enumerate()
            .filter(|(i, r)| r.router == victim && (i + 1) as u64 >= kill_op)
            .count() as u64;
        prop_assert_eq!(total.shed, expected_shed, "shed is not exactly the victim's tail");
        prop_assert_eq!(metrics.shed_node_down, expected_shed);
        // The victim's pre-kill admissions all completed (dead mode
        // finishes in-flight work at origin instead of losing it).
        let victim_counts = &report.per_node[victim];
        prop_assert_eq!(victim_counts.completed(), victim_total - expected_shed);
        // Survivors' local tier is a pure function of (requester,
        // content): bit-identical to the no-fault run.
        for node in (0..NODES).filter(|&n| n != victim) {
            prop_assert_eq!(
                report.per_node[node].local,
                base_report.per_node[node].local,
                "survivor {}'s local share moved",
                node
            );
        }
        prop_assert_eq!(metrics.routing_epoch, 2, "one effective kill, one epoch bump");
        prop_assert_eq!(metrics.fault_log.len(), 1);
        prop_assert_eq!(metrics.health_marked_down, 0);
    }
}

/// Invariant 3: after a plan-driven kill + revive, the cluster
/// re-converges — a post-revival measurement phase on the faulted
/// cluster matches a never-faulted cluster running the identical
/// phase within the engine-vs-sim 2% differential tolerance (static
/// stores stay warm through the outage and rendezvous failover hands
/// back exactly the old share).
#[test]
fn tier_fractions_reconverge_after_revival() {
    let config = chaos_config(DegradeConfig::default());
    // The revive op sits well past everything phase 1a can offer
    // (~750 ops expected), so the victim is provably still down for
    // all of phase 1a and provably back before phase 1b ends.
    let plan = FaultPlan::none().with_node_outage(1, 50, Some(1_000));
    let cluster = Cluster::with_faults(config.clone(), plan).expect("cluster provisions");

    // Phase 1a (outage): drained end-to-end with the victim dead, so
    // every post-kill request for its share was served by rendezvous
    // survivors or degraded — never by the victim.
    let phase1a = drive(&cluster, &chaos_load(11, 250.0)).expect("phase 1a serves").total();
    assert!(phase1a.offered >= 400, "phase 1a too small: {phase1a:?}");
    assert_eq!(cluster.routing_epoch(), 2, "the kill bumped the epoch; the revive is pending");

    // Phase 1b (recovery): pushes the op counter past the revive.
    let phase1b = drive(&cluster, &chaos_load(13, 250.0)).expect("phase 1b serves").total();
    assert!(phase1a.offered + phase1b.offered >= 1_000, "phases 1a+1b never reached the revive op");
    assert_eq!(cluster.routing_epoch(), 3, "the revive bumped the epoch");

    // Phase 2 (measurement): fresh stream against the revived cluster;
    // its report counts only what phase 2 completed, the turbulent
    // phases differenced out.
    let phase2 = drive(&cluster, &chaos_load(12, 400.0)).expect("phase 2 serves");
    let delta = phase2.total();
    assert_eq!(delta.shed, 0, "no faults are active after revival");
    let metrics = cluster.finish();

    // The same measurement stream against a never-faulted cluster.
    let (base_report, _) = run(config, FaultPlan::none(), &chaos_load(12, 400.0));
    let base = base_report.total();
    assert_eq!(base.offered, delta.offered);
    assert_eq!(base.shed, 0);

    // Compare fractions.
    assert_eq!(delta.completed(), delta.offered, "phase 2 accounting");
    let (post, never) = (tier_fractions(&phase2.per_node), tier_fractions(&base_report.per_node));
    for (tier, df, bf) in
        [("local", post.0, never.0), ("peer", post.1, never.1), ("origin", post.2, never.2)]
    {
        assert!(
            (df - bf).abs() <= TOLERANCE,
            "{tier}: post-revival {df:.4} vs no-fault {bf:.4} beyond {TOLERANCE}"
        );
    }
    // Phase 1a really degraded: post-kill requests for the victim's
    // share were failed over to rendezvous survivors while it was
    // down (guaranteed because phase 1a drained before the revive).
    assert!(metrics.failed_over > 0, "no forward ever failed over during the outage");
    assert_eq!(metrics.fault_log.len(), 2);
}

/// Satellite: epoch transitions landing mid-batch. With the batched
/// pipeline (one fault-clock tick per run) kills and revivals
/// quantize to run boundaries; jobs admitted under epoch N complete
/// (possibly in dead mode) while N+1 lands — conservation stays
/// bit-exact and the run terminates.
#[test]
fn mid_batch_epoch_transitions_stay_conserved() {
    let config = ClusterConfig {
        shards_per_node: 2,
        // Detector off: the dead shard worker below would otherwise
        // feed it race-dependently, making the epoch count flaky.
        degrade: DegradeConfig { timeout_threshold: 0, ..DegradeConfig::default() },
        ..chaos_config(DegradeConfig::default())
    };
    // The worker kill is permanent: under unpaced load a bounded
    // outage window passes in wall-microseconds, so only a kill that
    // lasts to the end of the run guarantees the dead worker is
    // actually handed jobs while down.
    let plan = FaultPlan::none()
        .with_node_outage(1, 100, Some(400))
        .with_node_outage(2, 600, Some(900))
        .with_worker_outage(0, 1, 200, None)
        .with_stall(0, 500, 50);
    let cluster = Cluster::with_faults(config, plan).expect("cluster provisions");
    let load = OpenLoopConfig { batch: 64, ..chaos_load(21, 500.0) };
    let report = drive(&cluster, &load).expect("engine serves the batched workload").total();
    let metrics = cluster.finish();
    assert!(report.offered > 1_000, "workload too small: {report:?}");
    assert_eq!(report.offered, report.completed() + report.shed, "conservation violated");
    assert_eq!(report.shed, metrics.shed_node_down, "only killed nodes shed");
    assert_eq!(metrics.fault_log.len(), 6, "every scheduled transition applied");
    // Four node transitions bump the epoch; the worker fault and the
    // stall are invisible to routing.
    assert_eq!(metrics.routing_epoch, 5);
    assert!(metrics.fault_served > 0, "dead worker completed admitted jobs");
}

/// Thread-per-core placement is invisible to the engine's semantics:
/// placement moves threads, never requests. Two claims, scoped to
/// match what the engine actually guarantees:
///
/// 1. **No-fault bit-exactness** — a pinned run of the deterministic
///    chaos workload produces per-node tier counts bit-identical to
///    the unpinned run (the determinism argument at the top of this
///    file does not care where threads execute).
/// 2. **Fault-schedule conservation** — under a seeded kill/revive
///    schedule a pinned cluster conserves every request, and its
///    offered/shed counts match the unpinned run bit-exactly (shed
///    is decided at admission by the op-pinned fault clock, so it is
///    deterministic; peer-vs-origin attribution of jobs in flight at
///    a kill is timing-dependent in *any* run, pinned or not, and is
///    deliberately not compared here — invariant 2 above scopes its
///    bit-exact claims to survivors' local counts for the same
///    reason).
///
/// Kill/revive flip worker modes without touching thread lifecycle,
/// so pinned workers ride out the whole schedule on their cores.
#[test]
fn placement_leaves_fault_accounting_bit_identical() {
    const SEED: u64 = 77;
    let pinned_config = || ClusterConfig {
        placement: ShardPlacement::new(0, true),
        ..chaos_config(DegradeConfig::default())
    };
    let load = chaos_load(SEED, 400.0);

    // Claim 1: no faults — full bit-exactness under placement.
    let (baseline, base_metrics) =
        run(chaos_config(DegradeConfig::default()), FaultPlan::none(), &load);
    let (calm, _) = run(pinned_config(), FaultPlan::none(), &load);
    assert!(baseline.total().offered > 500, "workload too small: {baseline:?}");
    assert_eq!(calm.total().offered, baseline.total().offered);
    assert_eq!(calm.total(), baseline.total(), "tier totals moved under placement");
    for node in 0..NODES {
        assert_eq!(
            calm.per_node[node], baseline.per_node[node],
            "node {node}'s tier counts moved under placement"
        );
    }
    assert_eq!(base_metrics.pinned_workers, 0, "the unpinned baseline must not pin");

    // Claim 2: seeded kill/revive schedule — conservation and
    // admission-side accounting stay exact under placement.
    let plan = || FaultPlan::seeded(SEED, NODES, 200, 80, 1_500);
    let (unpinned_report, unpinned) = run(chaos_config(DegradeConfig::default()), plan(), &load);
    let (report, metrics) = run(pinned_config(), plan(), &load);
    let (report, unpinned_report) = (report.total(), unpinned_report.total());
    assert!(report.shed > 0, "schedule never shed — the fault plan did not bite");
    assert_eq!(report.offered, unpinned_report.offered);
    assert_eq!(report.shed, unpinned_report.shed, "admission-side shed moved under placement");
    assert_eq!(report.offered, report.completed() + report.shed, "conservation violated");
    assert_eq!(metrics.shed_node_down, unpinned.shed_node_down);
    assert_eq!(metrics.fault_log.len(), unpinned.fault_log.len());
    assert_eq!(metrics.routing_epoch, unpinned.routing_epoch);
    // Every worker pins itself on a pin-enabled placement (or none do,
    // on platforms where the affinity syscall is a no-op).
    assert!(
        metrics.pinned_workers == NODES || metrics.pinned_workers == 0,
        "partial pinning: {}/{NODES}",
        metrics.pinned_workers
    );
}

/// Degradation ladder under a slow node: forwards to it blow the
/// deadline (answered by origin at the holder), the consecutive-
/// timeout detector marks it down, and routing failover takes over —
/// all without breaking conservation.
#[test]
fn slow_node_blows_deadlines_and_is_routed_around() {
    let degrade = DegradeConfig {
        forward_deadline: Duration::from_millis(50),
        timeout_threshold: 4,
        ..DegradeConfig::default()
    };
    // 2 ms per request, never cleared: node 1's backlog pushes every
    // queued forward far past the 50 ms deadline.
    let plan = FaultPlan::none().with_slowdown(1, 2_000, 10, None);
    let (report, metrics) = run(chaos_config(degrade), plan, &chaos_load(31, 150.0));
    let report = report.total();
    assert_eq!(report.offered, report.completed() + report.shed, "conservation violated");
    assert_eq!(report.shed, 0, "a slow node sheds nothing — it degrades");
    assert!(metrics.deadline_expired > 0, "no forward ever expired against the slow node");
    // The deadline budgets the whole local→peer detour, so a slowed
    // node's *outgoing* forwards can blame healthy holders too: at
    // least the slow node is marked down, possibly its framed peers
    // as well.
    assert!(metrics.health_marked_down >= 1, "the detector never fired");
    assert_eq!(metrics.health_revived, 0, "probation window never elapsed");
    assert_eq!(
        metrics.routing_epoch,
        1 + metrics.health_marked_down,
        "each health verdict bumps the epoch exactly once"
    );
    assert_eq!(metrics.fault_log.len(), 1);
}

// ---------------------------------------------------------------------------
// Multi-process wire chaos: the same three invariants, but with the
// cluster split into real OS processes serving length-prefixed TCP
// frames, and the fault a genuine SIGKILL instead of a plan event.
// ---------------------------------------------------------------------------

/// Locates the `ccn` binary next to this test executable, building it
/// on demand (cheap when the workspace is already compiled).
fn ccn_exe() -> std::path::PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let exe = dir.join(format!("ccn{}", std::env::consts::EXE_SUFFIX));
    if exe.exists() {
        return exe;
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["build", "-p", "ccn-cli", "--bin", "ccn"]);
    if dir.ends_with("release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("spawn cargo to build the ccn binary");
    assert!(status.success(), "cargo build -p ccn-cli failed");
    assert!(exe.exists(), "built ccn binary missing at {}", exe.display());
    exe
}

fn wire_spec(seed: u64, horizon_ms: f64) -> ccn_engine::net::WireSpec {
    let mut spec = ccn_engine::net::WireSpec::new(NODES);
    spec.catalogue = CATALOGUE;
    spec.capacity = CAPACITY;
    spec.ell = 0.5;
    // The in-process workload, one lane per node and 64 per frame.
    spec.load = OpenLoopConfig { generators: NODES, batch: 64, ..chaos_load(seed, horizon_ms) };
    // A deliberately non-trivial credit window: frames are in flight
    // on the victim's connection at SIGKILL time, and every request
    // inside them must resolve to shed or completed — never lost.
    // (Conservation below is checked bit-exactly, so a dropped or
    // double-counted in-flight frame fails the run.)
    spec.window = 4;
    spec.wire_batch = 16;
    spec.launch = ccn_engine::net::NodeLaunch::Exe(ccn_exe());
    spec
}

/// SIGKILL one `ccn node` process mid-run, revive it later, and check
/// the wire-tier analogues of the three chaos invariants:
///
/// 1. exact conservation, per node and in total, with the shed
///    confined to the victim — a SIGKILL loses no survivor request;
/// 2. single-share movement — every node's offered count equals the
///    offline `zipf_irm` replay exactly, and each survivor's
///    local-tier count is bit-identical to a never-faulted wire run
///    (its own store and client stream are untouched by a peer's
///    death, so only the victim's HRW share moves);
/// 3. re-convergence — after the revival re-provision, tail-window
///    tier fractions match the clean run within the 2% differential
///    tolerance.
#[test]
fn sigkilled_node_process_sheds_only_its_own_share_and_reconverges() {
    use ccn_engine::net::wire_bench;

    const SEED: u64 = 7;
    // Long enough that the op-5000 revival leaves a judgeable tail
    // even when the pipelined driver races ahead of the re-provision
    // on a loaded single-core host (the windowed wire drains the
    // post-revival stream several times faster than stop-and-wait).
    const HORIZON_MS: f64 = 4_000.0;
    const VICTIM: usize = 1;

    let mut faulted_spec = wire_spec(SEED, HORIZON_MS);
    faulted_spec.faults = FaultPlan::none().with_node_outage(VICTIM, 2_400, Some(5_000));
    let faulted = wire_bench(&faulted_spec).expect("faulted wire run");
    let clean = wire_bench(&wire_spec(SEED, HORIZON_MS)).expect("clean wire run");

    // Invariant 1: conservation, and the shed belongs to the victim.
    let (faulted_ledgers, clean_ledgers) = (&faulted.report.per_node, &clean.report.per_node);
    check_conservation(faulted_ledgers).expect("faulted run conserves");
    check_conservation(clean_ledgers).expect("clean run conserves");
    assert_eq!(clean.report.total().shed, 0, "clean loopback run shed requests");
    assert!(faulted_ledgers[VICTIM].shed > 0, "SIGKILL shed nothing");
    for (node, ledger) in faulted_ledgers.iter().enumerate() {
        if node != VICTIM {
            assert_eq!(ledger.shed, 0, "survivor {node} shed requests");
        }
    }
    assert_eq!(faulted.fault_log.len(), 2, "fault log: {:?}", faulted.fault_log);
    assert_eq!(faulted.epoch, 2, "revival re-provision must bump the config epoch");

    // Invariant 2: offered counts equal the offline replay exactly,
    // and survivors' local tiers are bit-identical to the clean run.
    let stream = replay(SEED, HORIZON_MS);
    let mut expected = [0u64; NODES];
    for request in &stream {
        expected[request.router] += 1;
    }
    for (node, ledger) in faulted_ledgers.iter().enumerate() {
        assert_eq!(
            ledger.offered, expected[node],
            "node {node} offered count diverges from the zipf_irm replay"
        );
        assert_eq!(clean_ledgers[node].offered, expected[node]);
        if node != VICTIM {
            assert_eq!(
                ledger.local, clean_ledgers[node].local,
                "survivor {node} local tier moved — more than the victim's share shifted"
            );
        }
    }

    // Invariant 3: the post-revival tail re-converges.
    let tail = faulted.tail_per_node.as_ref().expect("revival records a tail window");
    let tail_offered: u64 = tail.iter().map(|l| l.offered).sum();
    assert!(tail_offered > 500, "tail window too small to judge: {tail_offered}");
    let (tail_local, tail_peer, tail_origin) = tier_fractions(tail);
    let (local, peer, origin) = tier_fractions(clean_ledgers);
    for (name, got, want) in
        [("local", tail_local, local), ("peer", tail_peer, peer), ("origin", tail_origin, origin)]
    {
        assert!(
            (got - want).abs() <= TOLERANCE,
            "post-revival {name} fraction {got:.4} vs clean {want:.4} \
             differs by more than {TOLERANCE}"
        );
    }
}

/// SIGKILL a node process while the adaptive controller is walking
/// the cluster through an incremental re-slice, then revive it. The
/// cluster starts deliberately mis-provisioned (ℓ = 0.2 against an
/// oracle ℓ* ≈ 0.65 for s = 0.8 at this geometry), so the controller
/// re-fits and stages a long chain of tiny budgeted epochs; the
/// victim dies partway through the rollout and misses an arbitrary
/// suffix of the chain. On revival the coordinator re-pushes the
/// chain's *cumulative* state — the partial epoch chain collapsed
/// into one provision under the newest epoch — so the revived node
/// rejoins on the current layout, every node converges to the same
/// final epoch carrying the fitted-exponent snapshot (wire_bench
/// verifies this internally before returning), and conservation
/// stays bit-exact through kill, chain epochs, and revival alike.
#[test]
fn sigkill_mid_rollout_revives_onto_the_controllers_current_layout() {
    use ccn_engine::net::wire_bench;
    use ccn_engine::ControllerConfig;

    const SEED: u64 = 19;
    const HORIZON_MS: f64 = 2_500.0;
    const VICTIM: usize = 2;

    let mut spec = wire_spec(SEED, HORIZON_MS);
    spec.ell = 0.2;
    // Near-floor budget (3n + 1 = 10) splits the retarget into many
    // small epochs, maximizing the window in which the SIGKILL lands
    // mid-chain.
    spec.adapt = Some(ControllerConfig {
        decay: 0.9,
        min_window: 150.0,
        movement_budget: 12,
        sample_every: 1,
        tick_interval: Duration::from_millis(2),
        ..ControllerConfig::default()
    });
    spec.faults = FaultPlan::none().with_node_outage(VICTIM, 2_400, Some(5_000));
    let outcome = wire_bench(&spec).expect("adaptive faulted wire run");

    // Conservation, bit-exact, per node and in total — across the
    // SIGKILL, every chain epoch, and the revival re-provision.
    let ledgers = &outcome.report.per_node;
    check_conservation(ledgers).expect("conservation");
    assert!(ledgers[VICTIM].shed > 0, "SIGKILL shed nothing");
    for (node, ledger) in ledgers.iter().enumerate() {
        if node != VICTIM {
            assert_eq!(ledger.shed, 0, "survivor {node} shed requests");
        }
    }
    let stream = replay(SEED, HORIZON_MS);
    let offered = outcome.report.total().offered;
    assert_eq!(offered, stream.len() as u64, "offered diverges from the zipf_irm replay");
    assert_eq!(outcome.fault_log.len(), 2, "fault log: {:?}", outcome.fault_log);

    // The controller really staged an incremental rollout: one
    // retarget split across multiple budgeted epochs, plus exactly
    // one revival bump.
    let report = outcome.controller.as_ref().expect("controller report");
    assert!(report.retargets >= 1, "mis-provisioned ell must retarget");
    assert!(
        report.epochs_issued >= 2,
        "re-slice must be incremental, got {} epochs",
        report.epochs_issued
    );
    assert_eq!(
        outcome.epoch,
        1 + report.epochs_issued + 1,
        "final epoch = initial + chain steps + one revival bump"
    );
    let fitted = report.fitted_s.expect("a fit happened");
    assert!((fitted - ZIPF_S).abs() < 0.2, "fit {fitted} missed s={ZIPF_S}");

    // Every node — the revived victim included — finished on the
    // coordinator's final epoch and carries the fitted-exponent
    // snapshot it was re-provisioned with: the evidence that the
    // revival push was the controller's current layout, not the
    // stale bring-up provisioning.
    for (node, stats) in outcome.node_stats.iter().enumerate() {
        let stats = stats.as_ref().unwrap_or_else(|| panic!("node {node} stats missing"));
        assert_eq!(stats.epoch, outcome.epoch, "node {node} not on the final epoch");
        let node_view = f64::from_bits(stats.fitted_s_bits);
        assert!(
            (node_view - fitted).abs() < 0.2,
            "node {node} fitted snapshot {node_view} diverges from the controller's {fitted}"
        );
    }
}

/// The wire tier replays its plan on the in-process cluster's fault
/// clock, so it logs what serve-bench logs: the kill is recorded at its
/// trigger with the config epoch after it (a kill leaves epoch 1), and
/// a revival past the end of the stream is neither applied nor logged.
/// The victim alone sheds and stays dead, conservation is exact, and
/// every node's offered count is the offline replay's.
#[test]
fn sigkill_is_logged_at_its_trigger_and_a_revival_past_the_stream_is_not() {
    use ccn_engine::net::wire_bench;
    use ccn_engine::{AppliedFault, FaultKind};

    const SEED: u64 = 23;
    const HORIZON_MS: f64 = 1_000.0;
    const VICTIM: usize = 1;
    const KILL_AT: u64 = 1_200;

    let mut spec = wire_spec(SEED, HORIZON_MS);
    spec.faults = FaultPlan::none().with_node_outage(VICTIM, KILL_AT, Some(1_000_000));
    let outcome = wire_bench(&spec).expect("faulted wire run");

    let kill = AppliedFault { at_op: KILL_AT, kind: FaultKind::KillNode(VICTIM), epoch: 1 };
    assert_eq!(outcome.fault_log, [kill], "fault log: {:?}", outcome.fault_log);
    assert_eq!(outcome.epoch, 1, "no revival ran, so no epoch was issued");
    assert!(outcome.tail_per_node.is_none(), "no revival, no tail window");
    assert!(outcome.node_stats[VICTIM].is_none(), "the victim stays dead");

    let ledgers = &outcome.report.per_node;
    check_conservation(ledgers).expect("conservation");
    assert!(ledgers[VICTIM].shed > 0, "SIGKILL shed nothing");
    let mut expected = [0u64; NODES];
    for request in &replay(SEED, HORIZON_MS) {
        expected[request.router] += 1;
    }
    for (node, ledger) in ledgers.iter().enumerate() {
        assert_eq!(ledger.offered, expected[node], "node {node} diverges from the zipf_irm replay");
        if node != VICTIM {
            assert_eq!(ledger.shed, 0, "survivor {node} shed requests");
        }
    }
}
