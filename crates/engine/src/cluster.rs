//! The in-process serving cluster: sharded nodes, tier escalation,
//! admission control, and per-tier accounting.
//!
//! A [`Cluster`] instantiates the paper's provisioning as a *live*
//! system: each node's content store is split across single-writer
//! shards (see [`crate::shard`]), and a request escalates exactly
//! along the model's latency tiers —
//!
//! - **d0 / local**: hit in the requesting node's own store;
//! - **d1 / peer**: miss forwarded to the coordinated holder chosen by
//!   the [`RoutingTable`], hit there;
//! - **d2 / origin**: everything else — uncoordinated misses, holder
//!   misses, and requests *degraded* to origin because a peer queue
//!   was full.
//!
//! Admission is bounded: [`BatchSubmitter::submit_run`] sheds what the
//! target shard queue cannot take, so overload produces
//! backpressure instead of queue collapse, and every offered request
//! is accounted: `completed + shed == offered`.
//!
//! Each shard worker serves from its own state — a routing snapshot,
//! the batch's completions — and writes nothing shared per job but a
//! forward's ring push. Once per drained batch it reads the clock,
//! records every completion at that instant (a job's latency runs to
//! the point its completion becomes visible), and only then lowers the
//! in-flight count: once [`Cluster::drain`] returns, every job is counted.
//!
//! # Failure semantics
//!
//! A cluster built with [`Cluster::with_faults`] replays a
//! deterministic [`FaultPlan`] against itself while serving: whole
//! nodes and single shard workers are killed and revived at scheduled
//! admission-operation counts, nodes are slowed or stalled, and the
//! engine *degrades instead of wedging*. Peer forwards carry a
//! deadline and a bounded retry budget ([`DegradeConfig`]) before
//! falling back to origin; a consecutive-timeout health detector and
//! the plan both feed the epoch-bumped
//! [`crate::routing::LiveRouting`] view, so rendezvous failover
//! re-homes exactly the failed share mid-run and hands it back on
//! revival. Killed nodes/workers run in **dead mode**: their threads
//! stay up and complete every already-admitted job at origin
//! (counted as `fault_served`), so the conservation invariant
//! `completed + shed == offered` holds bit-exactly through any fault
//! schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ccn_coord::RouterAssignment;
use ccn_obs::Histogram;
use ccn_sim::store::ContentStore;
use ccn_sim::{ContentId, ServedBy, TierCounts};

use crate::affinity::ShardPlacement;
use crate::control::RankTap;
use crate::error::EngineError;
use crate::fault::{
    AppliedFault, DegradeConfig, FaultController, FaultKind, FaultPlan, FaultState,
};
use crate::layout::Layout;
use crate::pad::CachePadded;
use crate::routing::{LiveRouting, RoutingTable};
use crate::shard::{lock_recover, Serve, ShardHandle, ShardSpec, ShardedStore};

/// Upper bucket edges for the engine's latency histograms: the
/// in-process tiers complete in microseconds, so the grid extends
/// [`ccn_obs::metrics::LATENCY_MS_BOUNDS`] downward with sub-0.25 ms
/// resolution while keeping the same multi-second overflow tail.
pub const ENGINE_LATENCY_MS_BOUNDS: [f64; 20] = [
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1000.0, 2000.0, 4000.0,
];

/// How each node's store is populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePolicy {
    /// The model's static hybrid layout: popularity prefix `1..=c−x`
    /// plus this node's coordinated slice, pinned up front
    /// ([`ccn_sim::store::StaticStore::hybrid`] split across shards).
    Provisioned,
    /// Dynamic LRU stores, empty at start. Uncoordinated content is
    /// cached at the requesting edge; coordinated content is cached
    /// only at its holder, so the coordinated range is *attracted*
    /// into place by traffic instead of pinned.
    Lru,
}

/// Static configuration of a serving cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of cache nodes.
    pub nodes: usize,
    /// Single-writer shards (worker threads) per node.
    pub shards_per_node: usize,
    /// Bounded queue capacity per shard — the admission limit.
    pub queue_capacity: usize,
    /// Catalogue size `c_total` (content ranks are `1..=catalogue`).
    pub catalogue: u64,
    /// Per-node store capacity `c`.
    pub capacity: u64,
    /// Coordination level `ℓ = x/c` (0 = non-coordinated).
    pub ell: f64,
    /// Store population policy.
    pub policy: StorePolicy,
    /// Degradation-ladder knobs (forward deadline, retry budget,
    /// health detector). The defaults are far outside the clean-path
    /// envelope, so a fault-free run behaves identically to one
    /// without the ladder.
    pub degrade: DegradeConfig,
    /// Thread-per-core placement: how shard workers (and, in
    /// [`crate::load::drive`], generator lanes) map onto cores, and
    /// whether they actually pin. Disabled by default — threads float
    /// exactly as they did before placement existed.
    pub placement: ShardPlacement,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            shards_per_node: 1,
            queue_capacity: 1_024,
            catalogue: 10_000,
            capacity: 100,
            ell: 0.5,
            policy: StorePolicy::Provisioned,
            degrade: DegradeConfig::default(),
            placement: ShardPlacement::disabled(),
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration and returns the layout it provisions.
    fn validate(&self) -> Result<Layout, EngineError> {
        let reject = |reason: String| Err(EngineError::InvalidConfig { reason });
        if self.shards_per_node == 0 {
            return reject("shards_per_node must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return reject("queue_capacity must be >= 1".into());
        }
        let layout =
            Layout::hybrid(self.nodes, self.catalogue, self.capacity, self.ell, self.policy)?;
        self.degrade.validate()?;
        Ok(layout)
    }
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    /// First lookup, at the requesting node.
    Local,
    /// Forwarded lookup, at the coordinated holder.
    Peer,
}

/// One in-flight request.
pub(crate) struct Job {
    content: ContentId,
    client: u32,
    issued: Instant,
    stage: Stage,
}

/// The fault-path counters of one client node: written only when a
/// forward bounces, fails over or expires, or a node or worker is
/// dead. Tier counts and latencies are the workers' [`Recorded`].
#[derive(Default)]
struct NodeRecorder {
    degraded: AtomicU64,
    /// Forward re-enqueue attempts after a peer-queue bounce.
    retried: AtomicU64,
    /// Forwards routed to a rendezvous survivor instead of the
    /// assigned primary.
    failed_over: AtomicU64,
    /// Forwards answered by origin because the forward deadline
    /// passed before the holder served them.
    deadline_expired: AtomicU64,
    /// Jobs this node completed at origin while it (or the owning
    /// shard worker) was dead — admitted work is never lost.
    fault_served: AtomicU64,
    /// Requests shed at admission because this node was killed.
    shed_node_down: AtomicU64,
}

/// One shard worker's completions: per (client node, tier), latency per tier.
struct Recorded {
    counts: Vec<[u64; 3]>,
    latency: Vec<Histogram>,
}

struct Shared {
    routing: LiveRouting,
    policy: StorePolicy,
    degrade: DegradeConfig,
    shards_per_node: usize,
    /// Set once after every node's shards are spawned; jobs only flow
    /// after that, so `get()` never observes the unset state.
    peers: OnceLock<Vec<ShardHandle<Job>>>,
    /// Per node, padded: the fault-path counters of its clients.
    recorders: Vec<CachePadded<NodeRecorder>>,
    /// Per shard worker (`node * shards_per_node + shard`), padded;
    /// locked by that worker once per batch, and by snapshot readers.
    recorded: Vec<CachePadded<Mutex<Recorded>>>,
    /// Admitted jobs not yet recorded: a worker subtracts its batch
    /// after unlocking its record, so 0 means every job is recorded.
    in_flight: CachePadded<AtomicU64>,
    /// Global admission-operation counter — the fault plan's clock.
    /// Its own line: every admission writes it, every worker reads it.
    ops: CachePadded<AtomicU64>,
    /// Epoch instant for stall horizons.
    anchor: Instant,
    faults: FaultState,
    controller: FaultController,
    /// Whether the plan contains latency injections (slow/stall);
    /// lets the fault-free hot path skip the per-job injection check.
    injects_latency: bool,
    /// Optional adaptive-controller rank tap. Unset taps cost one
    /// relaxed pointer check per admission; set taps add two relaxed
    /// stores per sampled request. Installed at most once, before
    /// traffic, by [`Cluster::install_tap`].
    tap: OnceLock<Arc<RankTap>>,
}

impl Shared {
    /// Advances the fault clock past `op`: applies due plan events and
    /// runs the health detector's probation pass. Called on every
    /// admission; both are a single load when nothing is pending.
    fn tick(&self, op: u64) {
        self.controller.advance(op, |kind| self.faults.apply(kind, &self.routing, self.anchor));
        self.faults.probation(op, &self.degrade, &self.routing);
    }

    /// Spin-waits the retry backoff ([`DegradeConfig::backoff`]); runs
    /// on a shard worker, so it must never sleep unboundedly.
    fn backoff(&self, attempt: u32) {
        let budget = self.degrade.backoff(attempt);
        let start = Instant::now();
        while start.elapsed() < budget {
            std::hint::spin_loop();
        }
    }

    /// Feeds a forward's outcome against `holder` to the detector.
    fn note_holder(&self, holder: usize, ok: bool) {
        let op = self.ops.load(Ordering::Relaxed);
        self.faults.note_holder_outcome(holder, ok, &self.degrade, op, &self.routing);
    }
}

/// Shard worker `shard` of node `node`: serves locally, forwards to
/// the coordinated holder (with bounded retry and failover), or
/// degrades to origin — admitted jobs always complete, and are
/// recorded once per batch in [`Serve::drained`].
struct Worker {
    shared: Arc<Shared>,
    node: usize,
    shard: usize,
    /// The routing table and the config epoch it was read at.
    table: (u64, Arc<RoutingTable>),
    /// The batch's completions: client node, tier, issue time.
    done: Vec<(usize, ServedBy, Instant)>,
    /// The batch's forward-deadline clock, read at its first forward.
    now: Option<Instant>,
    /// Served a forward the health detector has not heard of yet.
    served_forward: bool,
}

impl Worker {
    fn complete(&mut self, job: &Job, tier: ServedBy) {
        self.done.push((job.client as usize, tier, job.issued));
    }

    /// A failed forward against `holder`; against this node, after the
    /// forwards it served before, so the detector sees them in order.
    fn holder_failed(&mut self, holder: usize) {
        if holder == self.node && std::mem::take(&mut self.served_forward) {
            self.shared.note_holder(holder, true);
        }
        self.shared.note_holder(holder, false);
    }
}

impl Serve<Job> for Worker {
    // Out of line on purpose: folded into the worker's drain loop it
    // cost `engine-inproc` about a tenth of its throughput.
    #[inline(never)]
    fn job(&mut self, store: &mut dyn ContentStore, job: Job) {
        let (node, content) = (self.node, job.content);
        if self.shared.injects_latency {
            self.shared.faults.inject_latency(node, self.shared.anchor);
            self.now = None; // the sleep aged the batch's clock
        }
        // Dead mode: a killed node (or killed shard worker) keeps
        // draining its queue but answers everything from origin, so
        // admitted work survives the fault and accounting stays exact.
        if self.shared.faults.serving_down(node, self.shard) {
            self.shared.recorders[node].fault_served.fetch_add(1, Ordering::Relaxed);
            if matches!(job.stage, Stage::Peer) && !self.shared.faults.node_killed(node) {
                // A worker-dead holder failing forwards feeds the
                // health detector; a plan-killed node is already
                // routing-dead.
                self.holder_failed(node);
            }
            self.complete(&job, ServedBy::Origin);
            return;
        }
        match job.stage {
            Stage::Local => {
                if store.contains(content) {
                    store.on_hit(content);
                    self.complete(&job, ServedBy::Local);
                    return;
                }
                let client = job.client as usize;
                let shared = &*self.shared;
                match shared.routing.route(&mut self.table, content) {
                    Some((holder, primary)) if holder != client => {
                        let Some(peers) = shared.peers.get() else {
                            // Unreachable by construction (peers are
                            // wired before traffic); degrade rather
                            // than panic.
                            shared.recorders[client].degraded.fetch_add(1, Ordering::Relaxed);
                            self.done.push((client, ServedBy::Origin, job.issued));
                            return;
                        };
                        if primary != holder {
                            shared.recorders[client].failed_over.fetch_add(1, Ordering::Relaxed);
                        }
                        // Bounded retry with linear backoff, then
                        // degrade to origin: the ladder's peer → retry
                        // → origin rungs. Never blocks the shard
                        // indefinitely.
                        let mut forwarded = Job { stage: Stage::Peer, ..job };
                        let mut attempt = 0u32;
                        loop {
                            match peers[holder].try_job(content, forwarded) {
                                Ok(()) => return,
                                Err(bounced) => {
                                    if attempt >= shared.degrade.forward_retries {
                                        // Another node: none of ours.
                                        shared.note_holder(holder, false);
                                        shared.recorders[client]
                                            .degraded
                                            .fetch_add(1, Ordering::Relaxed);
                                        self.done.push((client, ServedBy::Origin, bounced.issued));
                                        return;
                                    }
                                    attempt += 1;
                                    shared.recorders[client]
                                        .retried
                                        .fetch_add(1, Ordering::Relaxed);
                                    shared.backoff(attempt);
                                    forwarded = bounced;
                                }
                            }
                        }
                    }
                    _ => {
                        // Uncoordinated content (or this node *is* the
                        // holder and still missed): origin serves it;
                        // a dynamic store caches it at the edge.
                        if shared.policy == StorePolicy::Lru {
                            store.on_data(content);
                        }
                        self.complete(&job, ServedBy::Origin);
                    }
                }
            }
            Stage::Peer => {
                // Deadline rung of the ladder: a forward that sat in
                // queues past its budget is answered by origin at the
                // holder, and the miss feeds the health detector.
                let now = *self.now.get_or_insert_with(Instant::now);
                if now.saturating_duration_since(job.issued) > self.shared.degrade.forward_deadline
                {
                    self.shared.recorders[job.client as usize]
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    self.holder_failed(node);
                    self.complete(&job, ServedBy::Origin);
                    return;
                }
                self.served_forward = true;
                if store.contains(content) {
                    store.on_hit(content);
                    self.complete(&job, ServedBy::Peer);
                } else {
                    // Holder miss → origin; a dynamic holder attracts
                    // its slice by caching what it was asked for.
                    if self.shared.policy == StorePolicy::Lru {
                        store.on_data(content);
                    }
                    self.complete(&job, ServedBy::Origin);
                }
            }
        }
    }

    /// Records the batch at one clock read, then unlocks the record
    /// before the one `in_flight` subtraction, so a [`Cluster::drain`]
    /// that reads 0 finds every job recorded.
    fn drained(&mut self) {
        self.now = None;
        if std::mem::take(&mut self.served_forward) {
            self.shared.note_holder(self.node, true);
        }
        if self.done.is_empty() {
            return;
        }
        let (now, finished) = (Instant::now(), self.done.len() as u64);
        let slot = self.node * self.shared.shards_per_node + self.shard;
        let mut recorded = lock_recover(&self.shared.recorded[slot]);
        for (client, tier, issued) in self.done.drain(..) {
            let elapsed_ms = now.saturating_duration_since(issued).as_secs_f64() * 1e3;
            recorded.latency[tier.index()].observe(elapsed_ms);
            recorded.counts[client][tier.index()] += 1;
        }
        drop(recorded);
        self.shared.in_flight.fetch_sub(finished, Ordering::AcqRel);
    }
}

fn latency_histograms() -> Vec<Histogram> {
    (0..3).map(|_| Histogram::with_bounds(&ENGINE_LATENCY_MS_BOUNDS)).collect()
}

/// Aggregated results of a cluster run, produced by
/// [`Cluster::finish`].
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Cluster-wide service latency per tier, indexed by
    /// [`ServedBy::index`]: admission to the end of the worker batch
    /// that completed the job.
    pub tier_latency: Vec<Histogram>,
    /// Requests completed as origin because a peer queue was full.
    pub degraded_to_origin: u64,
    /// High-water mark of any single shard queue.
    pub max_queue_depth: usize,
    /// Forward re-enqueue attempts after peer-queue bounces.
    pub retried: u64,
    /// Forwards routed to a rendezvous survivor instead of the
    /// assigned primary.
    pub failed_over: u64,
    /// Forwards answered by origin because the deadline passed first.
    pub deadline_expired: u64,
    /// Jobs completed at origin by a dead node or dead shard worker.
    pub fault_served: u64,
    /// Requests shed at admission because their node was killed.
    pub shed_node_down: u64,
    /// Final config epoch (1 = the layout never changed; each
    /// [`Cluster::apply_layout`] bumps it).
    pub config_epoch: u64,
    /// Nodes the health detector marked down during the run.
    pub health_marked_down: u64,
    /// Health-marked-down nodes revived by probation.
    pub health_revived: u64,
    /// Final routing epoch (1 = liveness never changed).
    pub routing_epoch: u64,
    /// Every fault the controller applied, in application order.
    pub fault_log: Vec<AppliedFault>,
    /// Shard workers that successfully pinned to their placement core.
    pub pinned_workers: usize,
}

/// A running in-process serving cluster.
pub struct Cluster {
    shared: Arc<Shared>,
    stores: Vec<ShardedStore<Job>>,
    config: ClusterConfig,
    /// The layout the stores were last built from; held across
    /// [`Cluster::apply_layout`], so epochs apply one at a time.
    layout: Mutex<Layout>,
}

impl Cluster {
    /// Provisions and starts a fault-free cluster: builds the routing
    /// table from the coordination plane's slice assignments,
    /// populates every shard's store, and spawns
    /// `nodes × shards_per_node` workers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for out-of-range
    /// parameters and [`EngineError::Spawn`] when the OS refuses a
    /// worker thread.
    pub fn new(config: ClusterConfig) -> Result<Self, EngineError> {
        Self::with_faults(config, FaultPlan::none())
    }

    /// [`Cluster::new`] plus a deterministic [`FaultPlan`] replayed
    /// against the cluster as it serves (see the module docs'
    /// *Failure semantics*).
    ///
    /// # Errors
    ///
    /// Additionally returns [`EngineError::FaultSpec`] when the plan
    /// references nodes or shards outside this cluster.
    pub fn with_faults(config: ClusterConfig, plan: FaultPlan) -> Result<Self, EngineError> {
        let (layout, shards) = (config.validate()?, config.shards_per_node);
        plan.validate(config.nodes, shards)?;
        let injects_latency = plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::SlowNode { .. } | FaultKind::Stall { .. }));
        let shared = Arc::new(Shared {
            routing: LiveRouting::new(layout.routing_table()),
            policy: config.policy,
            degrade: config.degrade,
            shards_per_node: shards,
            peers: OnceLock::new(),
            recorders: (0..config.nodes).map(|_| CachePadded::default()).collect(),
            recorded: (0..config.nodes * shards)
                .map(|_| {
                    let counts = vec![[0; 3]; config.nodes];
                    CachePadded::new(Mutex::new(Recorded { counts, latency: latency_histograms() }))
                })
                .collect(),
            in_flight: CachePadded::new(AtomicU64::new(0)),
            ops: CachePadded::new(AtomicU64::new(0)),
            anchor: Instant::now(),
            faults: FaultState::new(config.nodes, shards),
            controller: FaultController::new(plan),
            injects_latency,
            tap: OnceLock::new(),
        });
        let stores: Vec<ShardedStore<Job>> = (0..config.nodes)
            .map(|node| {
                let pin_cores: Vec<Option<usize>> = if config.placement.pin() {
                    (0..shards)
                        .map(|shard| Some(config.placement.worker_core(node, shards, shard)))
                        .collect()
                } else {
                    Vec::new()
                };
                let spec = ShardSpec::new(shards, config.queue_capacity).pin_cores(pin_cores);
                let store = |shard| layout.shard_store(node, shards, shard);
                ShardedStore::try_spawn_serving(spec, store, |shard| Worker {
                    shared: Arc::clone(&shared),
                    node,
                    shard,
                    table: (shared.routing.config_epoch(), shared.routing.table()),
                    done: Vec::new(),
                    now: None,
                    served_forward: false,
                })
            })
            .collect::<Result<_, _>>()?;
        let handles = stores.iter().map(ShardedStore::handle).collect();
        if shared.peers.set(handles).is_err() {
            // Unreachable with a freshly built `Shared`, but a typed
            // error beats a panic on the bring-up path.
            return Err(EngineError::InvalidConfig {
                reason: "peer handles were wired twice during cluster bring-up".into(),
            });
        }
        Ok(Self { shared, stores, config, layout: Mutex::new(layout) })
    }

    /// The configuration this cluster was built from.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// How many shard workers successfully pinned themselves to their
    /// placement core (0 when pinning is disabled or unsupported).
    /// This is a live snapshot — a just-spawned worker may not have
    /// reached its pin attempt yet; [`EngineMetrics::pinned_workers`]
    /// (taken after the workers are joined) is the final count.
    #[must_use]
    pub fn pinned_workers(&self) -> usize {
        self.stores.iter().map(|s| s.handle().pinned_workers()).sum()
    }

    /// The cluster's one admission path: requests grouped by owning
    /// shard move through one queue claim per run (a run may hold a
    /// single request). Each producer thread should hold its own
    /// submitter (the scratch buffer inside is not shared).
    #[must_use]
    pub fn batch_submitter(&self) -> BatchSubmitter<'_> {
        BatchSubmitter { cluster: self, scratch: Vec::new() }
    }

    /// Blocks until every admitted request has completed.
    pub fn drain(&self) {
        while self.shared.in_flight.load(Ordering::Acquire) > 0 {
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
    }

    /// Eviction-order contents of one node's store (all shards,
    /// sorted by rank) — a test/inspection hook.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_contents(&self, node: usize) -> Vec<ContentId> {
        self.stores[node].handle().contents()
    }

    /// Per-node tier counts so far — a live snapshot of what the
    /// workers have recorded, one batch at a time (call
    /// [`Cluster::drain`] first for a quiescent one). Lets phase-split
    /// analyses (pre-fault vs post-revival) difference two snapshots
    /// without stopping the cluster.
    #[must_use]
    pub fn tier_totals(&self) -> Vec<TierCounts> {
        let mut totals = vec![[0; 3]; self.config.nodes];
        for recorded in &self.shared.recorded {
            for (total, counts) in totals.iter_mut().zip(&lock_recover(recorded).counts) {
                total.iter_mut().zip(counts).for_each(|(total, count)| *total += count);
            }
        }
        totals.into_iter().map(|[local, peer, origin]| TierCounts { local, peer, origin }).collect()
    }

    /// The current routing epoch (1 = liveness never changed; each
    /// effective kill/revive/health verdict bumps it).
    #[must_use]
    pub fn routing_epoch(&self) -> u64 {
        self.shared.routing.epoch()
    }

    /// The current config epoch (1 = the provisioned layout never
    /// changed; each [`Cluster::apply_layout`] bumps it).
    #[must_use]
    pub fn config_epoch(&self) -> u64 {
        self.shared.routing.config_epoch()
    }

    /// Installs an adaptive-controller rank tap on the admission
    /// path. Must be called before traffic (requests offered earlier
    /// are simply unsampled) and at most once.
    ///
    /// # Errors
    ///
    /// Rejects a second tap, and a tap whose lane count does not
    /// match the cluster's nodes.
    pub fn install_tap(&self, tap: Arc<RankTap>) -> Result<(), EngineError> {
        if tap.lanes() != self.config.nodes {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "rank tap has {} lanes, cluster has {} nodes",
                    tap.lanes(),
                    self.config.nodes
                ),
            });
        }
        self.shared.tap.set(tap).map_err(|_| EngineError::InvalidConfig {
            reason: "a rank tap is already installed on this cluster".into(),
        })
    }

    /// Installs a new slice layout as one config epoch and returns it:
    /// swaps the routing table, then rebuilds, in queue order, the
    /// stores of every node whose own recipe changed (a provisioned
    /// node whose prefix or slice moved). Every other node keeps its
    /// stores: an LRU cluster attracts the new slices into warm caches.
    ///
    /// The swap and the rebuilds are not atomic as a group: a request
    /// routed between them may meet a shard still holding the old
    /// slice, which only escalates it one tier (holder miss → origin).
    /// No job is lost, so `offered == completed + shed` holds
    /// bit-exactly across every transition.
    ///
    /// # Errors
    ///
    /// Rejects, leaving the epoch where it was, assignments with more
    /// than one prefix or that do not form a routing table for this
    /// cluster.
    pub fn apply_layout(&self, assignments: &[RouterAssignment]) -> Result<u64, EngineError> {
        let mut current = lock_recover(&self.layout);
        let next = current.with_assignments(assignments)?;
        let epoch = self.shared.routing.install_table(next.routing_table())?;
        let shards = self.config.shards_per_node;
        for (node, store) in self.stores.iter().enumerate() {
            if !current.keeps_stores(&next, node) {
                let handle = store.handle();
                for shard in 0..shards {
                    handle.replace_store(shard, next.shard_store(node, shards, shard));
                }
            }
        }
        *current = next;
        Ok(epoch)
    }

    /// Drains outstanding work, stops every shard worker, and returns
    /// the aggregated metrics.
    #[must_use]
    pub fn finish(mut self) -> EngineMetrics {
        self.drain();
        let max_queue_depth =
            self.stores.iter().map(|s| s.handle().max_queue_depth()).max().unwrap_or(0);
        for store in &mut self.stores {
            store.shutdown();
        }
        // After the joins above every worker has run its pin attempt,
        // so this count is final (a live read could catch a worker
        // that hasn't reached its pin call yet).
        let pinned_workers = self.pinned_workers();
        let recorders = &self.shared.recorders;
        let sum = |count: fn(&NodeRecorder) -> &AtomicU64| -> u64 {
            recorders.iter().map(|r| count(r).load(Ordering::Acquire)).sum()
        };
        let mut tier_latency = latency_histograms();
        for recorded in &self.shared.recorded {
            for (merged, worker) in tier_latency.iter_mut().zip(&lock_recover(recorded).latency) {
                merged.merge(worker);
            }
        }
        EngineMetrics {
            tier_latency,
            degraded_to_origin: sum(|r| &r.degraded),
            max_queue_depth,
            retried: sum(|r| &r.retried),
            failed_over: sum(|r| &r.failed_over),
            deadline_expired: sum(|r| &r.deadline_expired),
            fault_served: sum(|r| &r.fault_served),
            shed_node_down: sum(|r| &r.shed_node_down),
            config_epoch: self.shared.routing.config_epoch(),
            health_marked_down: self.shared.faults.health_marked_down(),
            health_revived: self.shared.faults.health_revived(),
            routing_epoch: self.shared.routing.epoch(),
            fault_log: self.shared.controller.log(),
            pinned_workers,
        }
    }
}

/// Amortized request admission: wraps a [`Cluster`] with a reusable
/// job scratch buffer so a *run* of requests for one `(node, shard)`
/// pair is admitted with a single queue operation, a single
/// `Instant::now()` timestamp, and a single in-flight/depth update.
///
/// Produced by [`Cluster::batch_submitter`]; one per producer thread.
pub struct BatchSubmitter<'a> {
    cluster: &'a Cluster,
    scratch: Vec<Job>,
}

impl BatchSubmitter<'_> {
    /// The cluster this submitter admits into.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Admits a run of requests from `node`'s clients, all owned by
    /// `shard` (the caller groups by [`crate::shard_of`] over
    /// `shards_per_node` before calling). Drains `contents` entirely;
    /// returns how many were admitted. The remainder (queue full, or
    /// `node` killed by the fault plan) is **shed** — dropped here, to
    /// be counted by the caller. Admitted requests always complete and
    /// are counted by exactly one tier.
    ///
    /// Latency note: the whole run shares one issue timestamp, so
    /// per-tier latency resolution coarsens to the run length under
    /// batched load.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `shard` is out of range.
    pub fn submit_run(
        &mut self,
        node: usize,
        shard: usize,
        contents: &mut Vec<ContentId>,
    ) -> usize {
        let offered = contents.len() as u64;
        if offered == 0 {
            return 0;
        }
        let shared = &self.cluster.shared;
        let Some(peers) = shared.peers.get() else {
            contents.clear();
            return 0; // unreachable by construction: shed, not panic
        };
        // One counter advance and one fault-clock tick per run: a
        // fault whose trigger lands inside the run is applied at the
        // run boundary, so kill/revive quantize to run granularity
        // (epoch-N jobs already admitted complete under dead mode).
        let op = shared.ops.fetch_add(offered, Ordering::AcqRel) + offered;
        shared.tick(op);
        if let Some(tap) = shared.tap.get() {
            tap.record_run(node, contents);
        }
        if shared.faults.node_killed(node) {
            shared.recorders[node].shed_node_down.fetch_add(offered, Ordering::Relaxed);
            contents.clear();
            return 0;
        }
        shared.in_flight.fetch_add(offered, Ordering::AcqRel);
        let issued = Instant::now();
        #[allow(clippy::cast_possible_truncation)]
        let client = node as u32;
        self.scratch.clear();
        self.scratch.extend(contents.drain(..).map(|content| Job {
            content,
            client,
            issued,
            stage: Stage::Local,
        }));
        let accepted = peers[node].try_submit_batch(shard, &mut self.scratch);
        let rejected = self.scratch.len() as u64;
        if rejected > 0 {
            shared.in_flight.fetch_sub(rejected, Ordering::AcqRel);
            self.scratch.clear();
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use ccn_coord::contiguous_slices;

    /// Admits one request as a run of one; `true` iff it was admitted.
    fn submit_one(cluster: &Cluster, node: usize, content: ContentId) -> bool {
        let shard = shard_of(content, cluster.config().shards_per_node);
        cluster.batch_submitter().submit_run(node, shard, &mut vec![content]) == 1
    }

    fn drive_to_completion(cluster: &Cluster, node: usize, content: ContentId) {
        while !submit_one(cluster, node, content) {
            std::thread::yield_now();
        }
    }

    /// Cluster-wide tier counts once everything admitted completed.
    fn totals(cluster: &Cluster) -> TierCounts {
        cluster.drain();
        cluster.tier_totals().iter().fold(TierCounts::default(), |t, n| TierCounts {
            local: t.local + n.local,
            peer: t.peer + n.peer,
            origin: t.origin + n.origin,
        })
    }

    #[test]
    fn provisioned_cluster_serves_all_three_tiers() {
        let config = ClusterConfig {
            nodes: 3,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            ..ClusterConfig::default()
        };
        // x = 5, prefix = 5, coordinated range = [6, 21).
        let cluster = Cluster::new(config).unwrap();
        drive_to_completion(&cluster, 0, ContentId(1)); // prefix → local
        drive_to_completion(&cluster, 0, ContentId(6)); // own slice → local
        drive_to_completion(&cluster, 0, ContentId(12)); // node 1's slice → peer
        drive_to_completion(&cluster, 0, ContentId(500)); // unprovisioned → origin
        let totals = totals(&cluster);
        let metrics = cluster.finish();
        assert_eq!(
            (totals.local, totals.peer, totals.origin),
            (2, 1, 1),
            "tier misattribution: {totals:?}"
        );
        assert_eq!(totals.total(), 4);
        assert_eq!(metrics.degraded_to_origin, 0);
        assert_eq!(metrics.tier_latency[0].count(), 2);
    }

    #[test]
    fn provisioned_stores_pin_the_hybrid_layout() {
        let config = ClusterConfig {
            nodes: 2,
            shards_per_node: 3,
            catalogue: 100,
            capacity: 8,
            ell: 0.25,
            ..ClusterConfig::default()
        };
        // x = 2, prefix = 6: node 0 pins {1..=6, 7, 8}, node 1 pins
        // {1..=6, 9, 10}.
        let cluster = Cluster::new(config).unwrap();
        let expect0: Vec<ContentId> = (1..=8).map(ContentId).collect();
        let expect1: Vec<ContentId> = (1..=6).chain(9..=10).map(ContentId).collect();
        assert_eq!(cluster.node_contents(0), expect0);
        assert_eq!(cluster.node_contents(1), expect1);
        let _ = cluster.finish();
    }

    #[test]
    fn batch_submitter_preserves_tier_attribution_and_accounting() {
        let config = ClusterConfig {
            nodes: 3,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(config).unwrap();
        let mut submitter = cluster.batch_submitter();
        // Same four requests as the per-op tier test, one queue claim.
        let mut run: Vec<ContentId> = [1, 6, 12, 500].into_iter().map(ContentId).collect();
        let accepted = submitter.submit_run(0, 0, &mut run);
        assert_eq!(accepted, 4);
        assert!(run.is_empty(), "submit_run drains its input");
        let totals = totals(&cluster);
        let _ = cluster.finish();
        assert_eq!((totals.local, totals.peer, totals.origin), (2, 1, 1), "{totals:?}");
    }

    #[test]
    fn lru_edge_caching_turns_repeat_origin_hits_local() {
        let config = ClusterConfig {
            nodes: 1,
            catalogue: 1_000,
            capacity: 4,
            ell: 0.0,
            policy: StorePolicy::Lru,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(config).unwrap();
        drive_to_completion(&cluster, 0, ContentId(7)); // cold → origin, cached
        cluster.drain();
        drive_to_completion(&cluster, 0, ContentId(7)); // warm → local
        let totals = totals(&cluster);
        let _ = cluster.finish();
        assert_eq!((totals.local, totals.origin), (1, 1));
    }

    #[test]
    fn rejects_invalid_configs() {
        for bad in [
            ClusterConfig { nodes: 0, ..ClusterConfig::default() },
            ClusterConfig { shards_per_node: 0, ..ClusterConfig::default() },
            ClusterConfig { queue_capacity: 0, ..ClusterConfig::default() },
            ClusterConfig { capacity: 0, ..ClusterConfig::default() },
            ClusterConfig { ell: 1.5, ..ClusterConfig::default() },
            ClusterConfig { capacity: 200, catalogue: 100, ..ClusterConfig::default() },
            // 50 + 4 slices of 50 reach rank 250 of a 200-rank catalogue.
            ClusterConfig {
                nodes: 4,
                catalogue: 200,
                capacity: 100,
                ell: 0.5,
                ..Default::default()
            },
            ClusterConfig {
                degrade: DegradeConfig { probation_ops: 0, ..DegradeConfig::default() },
                ..ClusterConfig::default()
            },
        ] {
            assert!(Cluster::new(bad).is_err());
        }
    }

    fn three_nodes(policy: StorePolicy) -> Cluster {
        // x = 5, prefix = 5: slices [6, 11), [11, 16), [16, 21).
        let config = ClusterConfig {
            nodes: 3,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            policy,
            ..ClusterConfig::default()
        };
        Cluster::new(config).unwrap()
    }

    fn ranks(ranks: impl IntoIterator<Item = u64>) -> Vec<ContentId> {
        ranks.into_iter().map(ContentId).collect()
    }

    #[test]
    fn apply_layout_repins_exactly_the_provisioned_nodes_whose_slice_moved() {
        let cluster = three_nodes(StorePolicy::Provisioned);
        let mut swapped = contiguous_slices(5, 6, 5, 3);
        swapped[1].slice = 16..21;
        swapped[2].slice = 11..16;
        assert_eq!(cluster.apply_layout(&swapped).unwrap(), 2);
        assert_eq!(cluster.config_epoch(), 2);
        assert_eq!(cluster.node_contents(0), ranks(1..=10), "untouched node keeps its store");
        assert_eq!(cluster.node_contents(1), ranks((1..=5).chain(16..=20)));
        assert_eq!(cluster.node_contents(2), ranks((1..=5).chain(11..=15)));
        drive_to_completion(&cluster, 0, ContentId(17)); // node 1's new slice → peer
        let totals = totals(&cluster);
        let _ = cluster.finish();
        assert_eq!((totals.local, totals.peer, totals.origin), (0, 1, 0));
    }

    #[test]
    fn apply_layout_keeps_every_lru_store_warm() {
        let cluster = three_nodes(StorePolicy::Lru);
        for (node, rank) in [(0, 500), (1, 12), (2, 600)] {
            drive_to_completion(&cluster, node, ContentId(rank));
        }
        cluster.drain();
        let warm: Vec<_> = (0..3).map(|node| cluster.node_contents(node)).collect();
        assert_eq!(warm[1], ranks([12]), "the holder attracted its slice");
        // ℓ = 0.2: prefix 8, slices [9, 11), [11, 13), [13, 15).
        assert_eq!(cluster.apply_layout(&contiguous_slices(8, 9, 2, 3)).unwrap(), 2);
        let after: Vec<_> = (0..3).map(|node| cluster.node_contents(node)).collect();
        assert_eq!(after, warm, "an LRU node's recipe is its policy and capacity");
        let _ = cluster.finish();
    }

    #[test]
    fn apply_layout_rejects_mixed_prefixes_and_gaps_without_an_epoch() {
        let cluster = three_nodes(StorePolicy::Provisioned);
        let mut mixed = contiguous_slices(5, 6, 5, 3);
        mixed[2].local_prefix = 4;
        let mut gapped = contiguous_slices(5, 6, 5, 3);
        gapped[1].slice = 12..16;
        for bad in [mixed, gapped] {
            assert!(cluster.apply_layout(&bad).is_err(), "{bad:?}");
            assert_eq!(cluster.config_epoch(), 1, "a rejected layout bumped the epoch");
        }
        assert_eq!(cluster.node_contents(2), ranks((1..=5).chain(16..=20)));
        let _ = cluster.finish();
    }

    /// A worker records its batch before it subtracts the batch from
    /// `in_flight`, so a `drain` that returns has every admitted job
    /// counted. The barriers keep each round's submissions ahead of
    /// both drains and the checks ahead of the next round, so the
    /// verdict holds for any interleaving; a miss is tallied, not
    /// asserted in the thread, so neither thread is left at a barrier.
    #[test]
    fn drain_publishes_every_completion() {
        let config = ClusterConfig {
            nodes: 2,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            ..ClusterConfig::default()
        };
        // x = 5, prefix = 5: slices [6, 11) and [11, 16).
        let cluster = Cluster::new(config).unwrap();
        let (accepted, missed) = (AtomicU64::new(0), AtomicU64::new(0));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for node in 0..2 {
                let (cluster, accepted, missed, barrier) = (&cluster, &accepted, &missed, &barrier);
                scope.spawn(move || {
                    let mut submitter = cluster.batch_submitter();
                    for round in 0..2_000u64 {
                        let mut run: Vec<ContentId> = (0..32)
                            .map(|i| ContentId(crate::shard::mix(round << 8 | i) % 40 + 1))
                            .collect();
                        let admitted = submitter.submit_run(node, 0, &mut run);
                        accepted.fetch_add(admitted as u64, Ordering::Relaxed);
                        barrier.wait();
                        cluster.drain();
                        if totals(cluster).total() != accepted.load(Ordering::Relaxed) {
                            missed.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(missed.into_inner(), 0, "drains that returned before every job was counted");
        let totals = totals(&cluster);
        assert!(totals.local > 0 && totals.peer > 0 && totals.origin > 0, "{totals:?}");
        let metrics = cluster.finish();
        let latency: Vec<u64> = metrics.tier_latency.iter().map(Histogram::count).collect();
        assert_eq!(latency, [totals.local, totals.peer, totals.origin]);
    }

    /// A worker's routing snapshot is re-read as soon as a layout is
    /// installed, while liveness is read per item: a kill that leaves
    /// the layout alone still re-homes the dead holder's share.
    #[test]
    fn routing_snapshot_follows_reslices_and_liveness() {
        let config = ClusterConfig {
            nodes: 3,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            ..ClusterConfig::default()
        };
        // x = 5, prefix = 5: slices [6, 11), [11, 16), [16, 21); the
        // kill of node 1 lands at admission op 4.
        let plan = FaultPlan::none().with_node_outage(1, 4, None);
        let cluster = Cluster::with_faults(config, plan).unwrap();
        drive_to_completion(&cluster, 0, ContentId(12)); // op 1
        assert_eq!(totals(&cluster).peer, 1, "node 1's slice is a peer hit at node 0");
        let mut swapped = contiguous_slices(5, 6, 5, 3);
        swapped[0].slice = 11..16;
        swapped[1].slice = 6..11;
        cluster.apply_layout(&swapped).unwrap();
        drive_to_completion(&cluster, 0, ContentId(12)); // op 2
        assert_eq!(totals(&cluster).local, 1, "the re-slice moved rank 12 into node 0's store");
        // Rank 7 left node 0's slice: only a re-read table forwards it.
        drive_to_completion(&cluster, 0, ContentId(7)); // op 3
        assert_eq!(totals(&cluster).peer, 2, "rank 7 is node 1's now");
        drive_to_completion(&cluster, 2, ContentId(1)); // op 4: node 1 dies
        assert!(!cluster.shared.routing.is_live(1));
        assert_eq!(cluster.config_epoch(), 2, "a kill leaves the layout alone");
        // A rank of node 1's new slice whose survivor is not the asker.
        let rank = (6..11)
            .map(ContentId)
            .find(|&c| cluster.shared.routing.holder(c) == Some(2))
            .expect("some rank of the dead slice re-homes to node 2");
        drive_to_completion(&cluster, 0, rank); // op 5
        let totals = totals(&cluster);
        let metrics = cluster.finish();
        assert_eq!(metrics.failed_over, 1, "the forward went to the survivor");
        assert_eq!(metrics.fault_served, 0, "nothing reached the dead node");
        assert_eq!((totals.local, totals.peer, totals.origin), (2, 2, 1));
    }

    #[test]
    fn placement_pins_workers_when_enabled() {
        let config = ClusterConfig {
            nodes: 2,
            shards_per_node: 2,
            placement: ShardPlacement::new(0, true),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(config).unwrap();
        drive_to_completion(&cluster, 0, ContentId(1));
        assert_eq!(totals(&cluster).total(), 1);
        let metrics = cluster.finish();
        // On Linux every worker pins (cores wrap the budget); on
        // unsupported platforms the count is honestly zero. The
        // metric is read after the join, so it is final.
        let pinned = metrics.pinned_workers;
        assert!(pinned == 4 || pinned == 0, "partial pinning: {pinned}/4");
    }

    #[test]
    fn with_faults_rejects_plans_outside_the_cluster() {
        let plan = FaultPlan::none().with_node_outage(9, 10, None);
        let r = Cluster::with_faults(ClusterConfig::default(), plan);
        assert!(matches!(r, Err(EngineError::FaultSpec { .. })));
    }

    #[test]
    fn killed_node_sheds_at_admission_and_revives_on_schedule() {
        let config = ClusterConfig {
            nodes: 3,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.5,
            ..ClusterConfig::default()
        };
        let plan = FaultPlan::none().with_node_outage(1, 2, Some(4));
        let cluster = Cluster::with_faults(config, plan).unwrap();
        assert!(submit_one(&cluster, 1, ContentId(1)), "op 1: healthy"); // local
        cluster.drain(); // op 1 completes before the kill can land
        assert!(!submit_one(&cluster, 1, ContentId(1)), "op 2: kill applies, shed");
        assert_eq!(cluster.routing_epoch(), 2, "kill bumped the epoch");
        // op 3 from a survivor: node 1's slice re-homes via HRW; the
        // survivor holder misses it, so origin serves — never node 1.
        assert!(submit_one(&cluster, 0, ContentId(12)), "op 3: survivors admit");
        cluster.drain();
        assert!(submit_one(&cluster, 2, ContentId(20)), "op 4: revive applies");
        assert_eq!(cluster.routing_epoch(), 3, "revive bumped the epoch");
        cluster.drain();
        assert!(submit_one(&cluster, 1, ContentId(1)), "op 5: node 1 is back");
        assert_eq!(totals(&cluster).total(), 4, "every admitted op completed");
        assert_eq!(cluster.tier_totals()[1].local, 2, "ops 1 and 5 hit locally");
        let metrics = cluster.finish();
        assert_eq!(metrics.shed_node_down, 1);
        assert_eq!(metrics.fault_log.len(), 2);
        assert_eq!(metrics.fault_log[0].kind, FaultKind::KillNode(1));
        assert_eq!(metrics.fault_log[1].kind, FaultKind::ReviveNode(1));
        assert_eq!(metrics.routing_epoch, 3);
        assert_eq!(metrics.health_marked_down, 0, "plan kills bypass the detector");
    }

    #[test]
    fn dead_worker_completes_admitted_jobs_at_origin() {
        let config = ClusterConfig {
            nodes: 1,
            catalogue: 1_000,
            capacity: 10,
            ell: 0.0,
            ..ClusterConfig::default()
        };
        let plan = FaultPlan::none().with_worker_outage(0, 0, 2, Some(3));
        let cluster = Cluster::with_faults(config, plan).unwrap();
        assert!(submit_one(&cluster, 0, ContentId(1)), "op 1: local hit");
        cluster.drain();
        // Node stays admittable while only the worker is dead.
        assert!(submit_one(&cluster, 0, ContentId(1)), "op 2: admitted into dead worker");
        cluster.drain();
        assert!(submit_one(&cluster, 0, ContentId(1)), "op 3: worker revived");
        let totals = totals(&cluster);
        let metrics = cluster.finish();
        assert_eq!(totals.total(), 3);
        assert_eq!(metrics.fault_served, 1, "dead worker answered from origin");
        assert_eq!(totals.local, 2, "ops 1 and 3 hit the warm store");
        assert_eq!(metrics.shed_node_down, 0);
        assert_eq!(metrics.routing_epoch, 1, "worker faults never touch routing");
    }
}
