//! The load driver both serving tiers run: open-loop Poisson/Zipf
//! load, paced, batched and handed to a tier's admission.
//!
//! The offered stream is the simulator's
//! ([`ccn_sim::workload::zipf_irm`]): per-node Poisson arrivals with
//! Zipf popularity, drawn once per drift span over all nodes from a
//! fixed seed, before the clock starts, then split by node — so it
//! depends only on the workload and the node count, never on the lane
//! count or the tier. The loop is *open*: each request is issued at its
//! arrival time (or flat-out, unpaced) whether or not earlier ones
//! completed, and a request admission pushes back is **shed**, not
//! retried. One lane loop does the rest, on both tiers:
//!
//! - nodes are dealt round-robin into [`OpenLoopConfig::generators`]
//!   lanes, one thread each; when the placement pins, lane `g` pins to
//!   [`generator_core`](crate::ShardPlacement::generator_core), the
//!   core of the first shard of its first node;
//! - paced, a lane offers every buffered run before it sleeps and no
//!   request before its arrival time, so batching coalesces only
//!   already-due backlog;
//! - runs of at most [`OpenLoopConfig::batch`] requests are grouped
//!   per `(node, shard)` in process and per node on the wire, and each
//!   goes to the tier's `Admission`: one
//!   [`BatchSubmitter::submit_run`] queue claim, or one `BatchLookup`
//!   frame;
//! - it keeps the run's [`Ledger`] per node: it counts what each node
//!   is offered and what admission sheds on the spot, each tier adds
//!   the rest (in process the node's tier counts over the drive, on the
//!   wire the reply tallies and the late shed), and
//!   [`check_conservation`] holds every node to
//!   `offered == completed + shed` before the report is returned.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ccn_sim::workload::{self, Request};
use ccn_sim::ContentId;

use crate::affinity::ShardPlacement;
use crate::cluster::{BatchSubmitter, Cluster};
use crate::error::EngineError;
use crate::shard::shard_of;

/// One scripted popularity change: from `at_ms` of workload time
/// onward the offered traffic is drawn with exponent `zipf_s`
/// (until the next segment, or the horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSegment {
    /// Workload time the new exponent takes effect, in milliseconds.
    pub at_ms: f64,
    /// The Zipf exponent from `at_ms` onward.
    pub zipf_s: f64,
}

/// The offered workload of one driving session — the one workload type
/// of both serving tiers ([`crate::ServeBenchConfig::load`] and
/// [`crate::WireSpec::load`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Lanes (client threads) the nodes are dealt into, round-robin;
    /// clamped to the node count. It changes which thread offers a
    /// node's requests, never which requests are offered.
    pub generators: usize,
    /// Zipf popularity exponent `s` of the offered traffic (until the
    /// first [`DriftSegment`], if any).
    pub zipf_s: f64,
    /// Poisson arrival rate per node, in requests per millisecond of
    /// workload time.
    pub rate_per_node_per_ms: f64,
    /// Workload horizon in milliseconds (with `paced`, also the
    /// approximate wall-clock duration).
    pub horizon_ms: f64,
    /// `true` issues each request at its Poisson arrival time;
    /// `false` replays the same request stream as fast as possible
    /// (saturation / throughput mode).
    pub paced: bool,
    /// Workload seed. Without drift the offered stream is the
    /// simulator's `zipf_irm` over all nodes for the same seed and
    /// parameters, whatever the lane count.
    pub seed: u64,
    /// Maximum requests per run: one queue claim in process, one
    /// `BatchLookup` frame on the wire (`1` = one request per run).
    /// Tier attribution and (single-shard) determinism are batch-size
    /// invariant — property-tested in this module.
    pub batch: usize,
    /// Scripted popularity drift: each segment switches the offered
    /// exponent at its `at_ms`. Must be strictly increasing and
    /// inside `(0, horizon_ms)`. Empty (the default) keeps `zipf_s`
    /// for the whole run.
    pub drift: Vec<DriftSegment>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            generators: 1,
            zipf_s: 0.8,
            rate_per_node_per_ms: 0.05,
            horizon_ms: 1_000.0,
            paced: false,
            seed: 42,
            batch: 1,
            drift: Vec::new(),
        }
    }
}

impl OpenLoopConfig {
    /// Checks the workload before anything is spawned: at least one
    /// lane, runs of at least one request, and drift points strictly
    /// increasing inside `(0, horizon_ms)`. A bad exponent, rate or
    /// horizon is rejected when the stream is drawn.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] naming what was rejected.
    pub fn validate(&self) -> Result<(), EngineError> {
        let invalid = |reason: String| Err(EngineError::InvalidConfig { reason });
        for (name, value) in [("generators", self.generators), ("batch", self.batch)] {
            if value == 0 {
                return invalid(format!("{name} must be >= 1"));
            }
        }
        let mut start = 0.0;
        for segment in &self.drift {
            if !(segment.at_ms > start && segment.at_ms < self.horizon_ms) {
                return invalid(format!(
                    "drift point {} ms must be strictly increasing and inside (0, {})",
                    segment.at_ms, self.horizon_ms
                ));
            }
            start = segment.at_ms;
        }
        Ok(())
    }

    /// The run as constant-exponent spans `(start_ms, end_ms, s)`
    /// covering `[0, horizon_ms)`, for a validated config.
    fn spans(&self) -> Vec<(f64, f64, f64)> {
        let mut spans = Vec::with_capacity(self.drift.len() + 1);
        let (mut start, mut s) = (0.0, self.zipf_s);
        for segment in &self.drift {
            spans.push((start, segment.at_ms, s));
            (start, s) = (segment.at_ms, segment.zipf_s);
        }
        spans.push((start, self.horizon_ms, s));
        spans
    }
}

/// One node's accounting for a run, the one per-node shape of both
/// serving tiers. `offered` counts every request the node's clients
/// issued, and each lands in exactly one of the other buckets, so
/// `offered == completed() + shed` — [`check_conservation`] holds
/// every node to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Requests issued by this node's clients.
    pub offered: u64,
    /// Served from the node's own store.
    pub local: u64,
    /// Served by a peer's coordinated slice.
    pub peer: u64,
    /// Fell through to origin.
    pub origin: u64,
    /// Shed: refused at admission, or offered to a dead or
    /// unreachable node.
    pub shed: u64,
}

impl Ledger {
    /// Requests completed by some tier.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.local + self.peer + self.origin
    }

    /// Per-field difference `self − earlier` (saturating), for
    /// post-revival tail windows.
    #[must_use]
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            offered: self.offered.saturating_sub(earlier.offered),
            local: self.local.saturating_sub(earlier.local),
            peer: self.peer.saturating_sub(earlier.peer),
            origin: self.origin.saturating_sub(earlier.origin),
            shed: self.shed.saturating_sub(earlier.shed),
        }
    }
}

impl std::iter::Sum for Ledger {
    fn sum<I: Iterator<Item = Ledger>>(ledgers: I) -> Ledger {
        ledgers.fold(Ledger::default(), |a, b| Ledger {
            offered: a.offered + b.offered,
            local: a.local + b.local,
            peer: a.peer + b.peer,
            origin: a.origin + b.origin,
            shed: a.shed + b.shed,
        })
    }
}

/// Verifies `offered == completed + shed` on every node.
///
/// # Errors
///
/// [`EngineError::Accounting`] naming the first node that is off.
pub fn check_conservation(ledgers: &[Ledger]) -> Result<(), EngineError> {
    for (node, ledger) in ledgers.iter().enumerate() {
        if ledger.offered != ledger.completed() + ledger.shed {
            return Err(EngineError::Accounting {
                node,
                offered: ledger.offered,
                completed: ledger.completed(),
                shed: ledger.shed,
            });
        }
    }
    Ok(())
}

/// `(local, peer, origin)` fractions of the requests the given ledgers
/// completed (the whole run, or a tail window); zeros when none did.
#[must_use]
pub fn tier_fractions(ledgers: &[Ledger]) -> (f64, f64, f64) {
    let total: Ledger = ledgers.iter().copied().sum();
    if total.completed() == 0 {
        return (0.0, 0.0, 0.0);
    }
    #[allow(clippy::cast_precision_loss)]
    let frac = |v: u64| v as f64 / total.completed() as f64;
    (frac(total.local), frac(total.peer), frac(total.origin))
}

/// A [`Ledger`] filled concurrently: the lane loop adds `offered` and
/// the shed at admission, each tier adds what only it knows.
#[derive(Default)]
pub(crate) struct LedgerCells {
    pub(crate) offered: AtomicU64,
    pub(crate) local: AtomicU64,
    pub(crate) peer: AtomicU64,
    pub(crate) origin: AtomicU64,
    pub(crate) shed: AtomicU64,
}

impl LedgerCells {
    /// One zeroed cell set per node.
    pub(crate) fn per_node(nodes: usize) -> Vec<LedgerCells> {
        std::iter::repeat_with(LedgerCells::default).take(nodes).collect()
    }

    pub(crate) fn snapshot(&self) -> Ledger {
        Ledger {
            offered: self.offered.load(Ordering::Relaxed),
            local: self.local.load(Ordering::Relaxed),
            peer: self.peer.load(Ordering::Relaxed),
            origin: self.origin.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// What a run offered each node and what became of it, on either tier.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// One ledger per node, indexed by node id.
    pub per_node: Vec<Ledger>,
    /// Lanes (generator threads) actually used.
    pub generators: usize,
    /// Lanes that successfully pinned to their placement core (0 when
    /// the placement does not pin).
    pub pinned_generators: usize,
    /// Wall-clock milliseconds from the first offer until the last
    /// lane closed, with everything it admitted resolved.
    pub wall_ms: f64,
}

impl LoadReport {
    /// The run's totals over every node.
    #[must_use]
    pub fn total(&self) -> Ledger {
        self.per_node.iter().copied().sum()
    }
}

/// One serving tier's admission, built by each lane on its thread.
pub(crate) trait Admission {
    /// Groups per node runs are split into, by `shard_of(content, groups)`.
    fn groups(&self) -> usize {
        1
    }

    /// Offers `run`, requests from `node`'s clients all in `group`, and
    /// drains it. Returns how many of them were shed on the spot.
    fn offer(&mut self, node: usize, group: usize, run: &mut Vec<ContentId>) -> u64;

    /// Resolves what the lane still has in flight once its stream ends.
    /// The report's clock stops when the last lane has closed.
    fn close(&mut self) {}
}

impl Admission for BatchSubmitter<'_> {
    fn groups(&self) -> usize {
        self.cluster().config().shards_per_node
    }

    fn offer(&mut self, node: usize, shard: usize, run: &mut Vec<ContentId>) -> u64 {
        let offered = run.len();
        (offered - self.submit_run(node, shard, run)) as u64
    }

    fn close(&mut self) {
        self.cluster().drain();
    }
}

/// One lane's share of the offered stream: the nodes it owns and their
/// requests, in arrival order.
pub(crate) struct Lane {
    owned: Vec<usize>,
    stream: Vec<Request>,
}

/// Span 0 draws from `seed` itself, later spans mix in a large odd
/// constant so every span's stream is independent.
fn span_seed(seed: u64, span: usize) -> u64 {
    seed.wrapping_add((span as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws the offered stream of `config` over `nodes` nodes — once per
/// drift span, shifted to span time — and deals it into
/// `generators.min(nodes)` lanes: lane `g` owns nodes `g, g + G, …`.
pub(crate) fn deal(
    config: &OpenLoopConfig,
    nodes: usize,
    catalogue: u64,
) -> Result<Vec<Lane>, EngineError> {
    config.validate()?;
    let count = config.generators.min(nodes);
    let mut lanes: Vec<Lane> = (0..count)
        .map(|g| Lane { owned: (g..nodes).step_by(count).collect(), stream: Vec::new() })
        .collect();
    let all: Vec<usize> = (0..nodes).collect();
    for (j, (start, end, s)) in config.spans().into_iter().enumerate() {
        let rate = config.rate_per_node_per_ms;
        let seed = span_seed(config.seed, j);
        for mut request in workload::zipf_irm(&all, s, catalogue, rate, end - start, seed)? {
            request.time += start;
            lanes[request.router % count].stream.push(request);
        }
    }
    Ok(lanes)
}

/// Runs every lane on its own thread, each offering its stream through
/// the admission `admission()` builds on that thread, and returns once
/// every lane has closed. Each node's `offered` and shed at admission
/// land in `cells[node]`; the report snapshots the cells then, and its
/// clock stops.
pub(crate) fn run_lanes<A: Admission>(
    config: &OpenLoopConfig,
    lanes: &[Lane],
    placement: ShardPlacement,
    shards_per_node: usize,
    cells: &[LedgerCells],
    admission: impl Fn() -> A + Sync,
) -> LoadReport {
    let pinned = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (g, lane) in lanes.iter().enumerate() {
            let (pinned, admission) = (&pinned, &admission);
            scope.spawn(move || {
                if placement.pin_to(placement.generator_core(g, shards_per_node)) {
                    pinned.fetch_add(1, Ordering::Relaxed);
                }
                run_lane(config, lane, lanes.len(), start, cells, &mut admission());
            });
        }
    });
    LoadReport {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        per_node: cells.iter().map(LedgerCells::snapshot).collect(),
        generators: lanes.len(),
        pinned_generators: pinned.into_inner(),
    }
}

/// The lane loop: paces, groups into runs, offers, counts, and closes.
fn run_lane<A: Admission>(
    config: &OpenLoopConfig,
    lane: &Lane,
    lanes: usize,
    start: Instant,
    cells: &[LedgerCells],
    admission: &mut A,
) {
    let groups = admission.groups();
    // Pending runs, indexed `owned slot * groups + group`; lane `g`
    // owns node `g + k·lanes` at slot `k`.
    let mut runs = vec![Vec::with_capacity(config.batch); lane.owned.len() * groups];
    let offer = |admission: &mut A, slot: usize, run: &mut Vec<ContentId>| {
        if !run.is_empty() {
            let node = lane.owned[slot / groups];
            cells[node].offered.fetch_add(run.len() as u64, Ordering::Relaxed);
            let shed = admission.offer(node, slot % groups, run);
            if shed > 0 {
                cells[node].shed.fetch_add(shed, Ordering::Relaxed);
            }
        }
    };
    for request in &lane.stream {
        if config.paced {
            let due = Duration::from_secs_f64(request.time / 1e3);
            if start.elapsed() < due {
                // Offer all due backlog before sleeping: batching must
                // not delay a due request.
                for (slot, run) in runs.iter_mut().enumerate() {
                    offer(admission, slot, run);
                }
                pace_until(start, due);
            }
        }
        let slot = request.router / lanes * groups + shard_of(request.content, groups);
        runs[slot].push(request.content);
        if runs[slot].len() >= config.batch {
            offer(admission, slot, &mut runs[slot]);
        }
    }
    for (slot, run) in runs.iter_mut().enumerate() {
        offer(admission, slot, run);
    }
    admission.close();
}

/// Sleeps (coarsely) then spins (precisely) until `start + due`.
fn pace_until(start: Instant, due: Duration) {
    while let Some(left) = due.checked_sub(start.elapsed()).filter(|left| !left.is_zero()) {
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives `cluster` with open-loop load, blocks until every admitted
/// request has completed, and checks every node's ledger. A node's
/// tiers are what its clients' completions added to
/// [`Cluster::tier_totals`] over the drive.
///
/// # Errors
///
/// Returns [`EngineError::InvalidConfig`] for a config
/// [`OpenLoopConfig::validate`] rejects, [`EngineError::Workload`]
/// when the workload parameters are rejected, and
/// [`EngineError::Accounting`] if a node's ledger does not balance
/// (an engine bug, never expected).
pub fn drive(cluster: &Cluster, config: &OpenLoopConfig) -> Result<LoadReport, EngineError> {
    let cc = cluster.config();
    let lanes = deal(config, cc.nodes, cc.catalogue)?;
    let cells = LedgerCells::per_node(cc.nodes);
    let before = cluster.tier_totals();
    let admission = || cluster.batch_submitter();
    let mut report = run_lanes(config, &lanes, cc.placement, cc.shards_per_node, &cells, admission);
    for ((ledger, after), before) in
        report.per_node.iter_mut().zip(cluster.tier_totals()).zip(before)
    {
        ledger.local = after.local - before.local;
        ledger.peer = after.peer - before.peer;
        ledger.origin = after.origin - before.origin;
    }
    check_conservation(&report.per_node)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, StorePolicy};

    fn small_cluster(shards: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: 3,
            shards_per_node: shards,
            // Large enough that these short workloads never shed: the
            // determinism assertions compare complete tier counts.
            queue_capacity: 8_192,
            catalogue: 2_000,
            capacity: 50,
            ell: 0.5,
            policy: StorePolicy::Provisioned,
            ..ClusterConfig::default()
        }
    }

    fn run(shards: usize, seed: u64) -> LoadReport {
        let cluster = Cluster::new(small_cluster(shards)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            seed,
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        let _ = cluster.finish();
        report
    }

    #[test]
    fn every_offered_request_is_accounted() {
        let total = run(2, 11).total();
        assert!(total.offered > 1_000, "workload too small: {total:?}");
        assert_eq!(total.offered, total.completed() + total.shed);
    }

    #[test]
    fn single_shard_runs_are_deterministic() {
        let (report_a, report_b) = (run(1, 7), run(1, 7));
        assert_eq!(report_a.per_node, report_b.per_node);
        // All three tiers are exercised by the coordinated layout.
        let totals = report_a.total();
        assert!(totals.local > 0 && totals.peer > 0 && totals.origin > 0);
    }

    #[test]
    fn conservation_names_the_node_that_is_off() {
        let balanced = Ledger { offered: 10, local: 4, peer: 2, origin: 3, shed: 1 };
        check_conservation(&[balanced, balanced]).unwrap();
        let off_by_one = Ledger { shed: 0, ..balanced };
        let err = check_conservation(&[balanced, off_by_one, balanced]).unwrap_err();
        assert_eq!(err, EngineError::Accounting { node: 1, offered: 10, completed: 9, shed: 0 });
        assert!(err.to_string().contains("node 1"), "{err}");
    }

    #[test]
    fn paced_mode_respects_the_horizon() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 0.5,
            horizon_ms: 120.0,
            paced: true,
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        let wall_ms = report.wall_ms;
        assert!(wall_ms >= 60.0, "paced run finished implausibly fast: {wall_ms} ms");
        let _ = cluster.finish();
    }

    #[test]
    fn rejects_zero_generators() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig { generators: 0, ..OpenLoopConfig::default() };
        assert!(drive(&cluster, &load).is_err());
        let _ = cluster.finish();
    }

    #[test]
    fn drift_spans_cover_the_horizon_and_reject_bad_points() {
        let base = OpenLoopConfig { horizon_ms: 100.0, zipf_s: 0.7, ..OpenLoopConfig::default() };
        assert_eq!(base.spans(), vec![(0.0, 100.0, 0.7)]);
        let drifted = OpenLoopConfig {
            drift: vec![
                DriftSegment { at_ms: 40.0, zipf_s: 1.1 },
                DriftSegment { at_ms: 70.0, zipf_s: 0.9 },
            ],
            ..base.clone()
        };
        drifted.validate().unwrap();
        assert_eq!(drifted.spans(), vec![(0.0, 40.0, 0.7), (40.0, 70.0, 1.1), (70.0, 100.0, 0.9)]);
        for bad in [
            vec![DriftSegment { at_ms: 0.0, zipf_s: 1.1 }],
            vec![DriftSegment { at_ms: 100.0, zipf_s: 1.1 }],
            vec![
                DriftSegment { at_ms: 70.0, zipf_s: 1.1 },
                DriftSegment { at_ms: 40.0, zipf_s: 0.9 },
            ],
        ] {
            let config = OpenLoopConfig { drift: bad, ..base.clone() };
            let err = config.validate().expect_err("accepted bad drift");
            assert!(err.to_string().contains("drift point"), "{err}");
        }
    }

    #[test]
    fn drifted_runs_stay_accounted_and_shift_the_popularity_mix() {
        // s jumps 0.4 → 1.6 halfway: the second half concentrates on
        // low ranks, so local hits (prefix + own slice) must rise.
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig {
            zipf_s: 0.4,
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            drift: vec![DriftSegment { at_ms: 200.0, zipf_s: 1.6 }],
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        let _ = cluster.finish();
        let totals = report.total();
        assert_eq!(totals.offered, totals.completed() + totals.shed);
        let (local, total) = (totals.local, totals.completed());
        assert!(total > 1_000, "workload too small");
        // A pure s=0.4 run over catalogue 2000 with capacity 50 hits
        // locally well under half the time; the drifted second half
        // pulls the blended local fraction up decisively.
        #[allow(clippy::cast_precision_loss)]
        let fraction = local as f64 / total as f64;
        assert!(fraction > 0.3, "drift never concentrated traffic: {fraction}");
    }

    #[test]
    fn rejects_zero_batch() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig { batch: 0, ..OpenLoopConfig::default() };
        assert!(drive(&cluster, &load).is_err());
        let _ = cluster.finish();
    }

    /// An admission that records every run it is offered, with the
    /// instant of the offer.
    struct Recorder<'a>(&'a std::sync::Mutex<Vec<(usize, Vec<ContentId>, Instant)>>);

    impl Admission for Recorder<'_> {
        fn offer(&mut self, node: usize, group: usize, run: &mut Vec<ContentId>) -> u64 {
            assert_eq!(group, 0, "one group per node");
            let at = Instant::now();
            self.0.lock().unwrap().push((node, std::mem::take(run), at));
            0
        }
    }

    /// The paced rule both tiers share, checked once: every run a lane
    /// offers holds only requests already due at the offer, at most
    /// `batch` of them, and each node's runs concatenate to its stream
    /// in arrival order. Lower bounds only — scheduling can delay an
    /// offer, never advance it.
    #[test]
    fn paced_lanes_offer_no_request_before_its_arrival_time() {
        let config = OpenLoopConfig {
            generators: 2,
            rate_per_node_per_ms: 0.2,
            horizon_ms: 150.0,
            paced: true,
            batch: 64,
            ..OpenLoopConfig::default()
        };
        let lanes = deal(&config, 3, 1_000).unwrap();
        let log = std::sync::Mutex::new(Vec::new());
        let cells = LedgerCells::per_node(3);
        let recorder = || Recorder(&log);
        // Read just before the lane loop's own clock starts, so each
        // `elapsed` below overstates the loop's by the cost of a call.
        let start = Instant::now();
        let report = run_lanes(&config, &lanes, ShardPlacement::disabled(), 1, &cells, recorder);
        let log = log.into_inner().unwrap();
        let mut arrivals: Vec<Vec<&Request>> = vec![Vec::new(); 3];
        for request in lanes.iter().flat_map(|lane| &lane.stream) {
            arrivals[request.router].push(request);
        }
        let offered = report.total().offered;
        assert!(offered > 40, "workload too small: {offered}");
        let mut next = [0usize; 3];
        for (node, run, at) in &log {
            let elapsed = at.duration_since(start).as_secs_f64() * 1e3;
            assert!(!run.is_empty() && run.len() <= config.batch, "run of {}", run.len());
            for &content in run {
                let request = arrivals[*node][next[*node]];
                next[*node] += 1;
                assert_eq!(request.content, content, "node {node}'s runs reordered its stream");
                assert!(
                    request.time <= elapsed,
                    "node {node} offered a request due at {} ms at {elapsed} ms",
                    request.time
                );
            }
        }
        for (node, stream) in arrivals.iter().enumerate() {
            assert_eq!(next[node], stream.len(), "node {node} left requests unoffered");
        }
    }

    #[test]
    fn batched_runs_account_every_offered_request() {
        let cluster = Cluster::new(small_cluster(2)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            batch: 64,
            ..OpenLoopConfig::default()
        };
        let total = drive(&cluster, &load).unwrap().total();
        let _ = cluster.finish();
        assert!(total.offered > 1_000, "workload too small: {total:?}");
        assert_eq!(total.offered, total.completed() + total.shed);
    }

    mod equivalence {
        //! Satellite property: batched submission is observationally
        //! equivalent to per-op submission — same seed + same jobs ⇒
        //! identical tier totals, and identical final store contents
        //! on a single-shard cluster (where submission order is the
        //! only order).
        use super::*;
        use ccn_sim::ContentId;
        use proptest::prelude::*;

        /// Runs one workload and returns (totals, final node-0 store).
        fn observe(config: ClusterConfig, seed: u64, batch: usize) -> (Ledger, Vec<ContentId>) {
            let cluster = Cluster::new(config).unwrap();
            let load = OpenLoopConfig {
                rate_per_node_per_ms: 2.0,
                horizon_ms: 30.0,
                seed,
                batch,
                ..OpenLoopConfig::default()
            };
            let report = drive(&cluster, &load).unwrap();
            assert_eq!(report.total().shed, 0, "queues sized to never shed");
            let contents = cluster.node_contents(0);
            let _ = cluster.finish();
            (report.total(), contents)
        }

        proptest! {
            /// Single-shard LRU cluster: the strictest check — the
            /// store's final eviction state depends on request order,
            /// so equality proves batching preserved it exactly.
            #[test]
            fn batched_matches_per_op_on_a_single_shard_lru_cluster(
                seed in 0u64..24,
                batch in prop::sample::select(vec![2usize, 7, 64, 256]),
            ) {
                let config = ClusterConfig {
                    nodes: 1,
                    queue_capacity: 8_192,
                    catalogue: 500,
                    capacity: 16,
                    ell: 0.0,
                    policy: StorePolicy::Lru,
                    ..ClusterConfig::default()
                };
                let per_op = observe(config.clone(), seed, 1);
                let batched = observe(config, seed, batch);
                prop_assert_eq!(&batched.0, &per_op.0, "tier counts diverged");
                prop_assert_eq!(&batched.1, &per_op.1, "store contents diverged");
            }

            /// Provisioned multi-node cluster: tier attribution is a
            /// pure function of (requester, content), so counts must
            /// match even with concurrent peer forwarding.
            #[test]
            fn batched_matches_per_op_tier_counts_on_a_provisioned_cluster(
                seed in 0u64..24,
                batch in prop::sample::select(vec![3usize, 32, 256]),
            ) {
                let config = small_cluster(1);
                let per_op = observe(config.clone(), seed, 1);
                let batched = observe(config, seed, batch);
                prop_assert_eq!(&batched.0, &per_op.0, "tier counts diverged");
            }
        }
    }
}
