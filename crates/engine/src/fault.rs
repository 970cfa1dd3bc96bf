//! Live fault injection and graceful-degradation policy for the
//! serving engine.
//!
//! The simulator already breaks the paper's clean-state assumption
//! deterministically ([`ccn_sim::FailureScenario`]); this module ports
//! that vocabulary onto the *live* engine, where there is no event
//! queue to script against. The deterministic clock here is the
//! **global admission-operation counter**: a [`FaultPlan`] is a
//! schedule of transitions pinned to operation counts, so the same
//! seed + plan + single-generator load perturbs the exact same
//! request in every run — wall-clock jitter cannot move a fault
//! relative to the workload.
//!
//! Three layers live here:
//!
//! - **Plans** ([`FaultPlan`], [`FaultKind`], [`FaultEvent`]): what to
//!   break and when — kill/revive whole nodes or single shard
//!   workers, inject per-request latency into a node (slow node), or
//!   stall a node outright to force transient queue saturation.
//!   Plans are hand-built, parsed from the CLI `--faults` spec, or
//!   drawn from a seeded MTBF/MTTR renewal process
//!   ([`FaultPlan::seeded`]) mirroring `ccn_sim::FailureModel`.
//! - **Degradation policy** ([`DegradeConfig`]): the knobs of the
//!   ladder `local → peer → retry (bounded, backed-off) → origin →
//!   shed` — peer-forward deadline, retry budget, and the
//!   consecutive-timeout health detector that feeds the epoch-bumped
//!   [`crate::routing::LiveRouting`] view.
//! - **Runtime state** ([`FaultState`], [`FaultController`],
//!   crate-private): the atomics the hot path consults, the one
//!   fault replay both serving tiers advance at admission, and the
//!   applied-fault log ([`AppliedFault`]) surfaced through
//!   [`crate::cluster::EngineMetrics`] and
//!   [`crate::net::WireOutcome`].
//!
//! # Interaction with thread-per-core placement
//!
//! Kill and revive are *mode flips*, not thread lifecycle events: a
//! killed node or worker keeps its threads (they drain already-
//! admitted work at origin in dead mode) and revival flips the flag
//! back. No thread is ever respawned, so a worker pinned by
//! [`crate::ShardPlacement`] stays on its placement core through any
//! fault schedule — fault injection respects placement by
//! construction.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::EngineError;
use crate::pad::CachePadded;
use crate::routing::LiveRouting;
use crate::shard::{lock_recover, mix};

/// Longest latency injection a plan may request per request (1 s):
/// large enough to saturate any queue, small enough that a
/// mis-written plan cannot wedge a run beyond its horizon.
pub const MAX_INJECTED_DELAY_US: u64 = 1_000_000;

/// One live-engine fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole node crashes: admission from its clients is refused
    /// (shed), its coordinated slice re-homes by rendezvous hashing,
    /// and already-admitted jobs complete at origin instead of being
    /// lost. Its stores stay warm for revival.
    KillNode(usize),
    /// The node rejoins: admission resumes, the routing epoch bumps
    /// again, and — because rendezvous failover never moved anyone
    /// else's share — it gets its exact old slice back.
    ReviveNode(usize),
    /// One shard worker of one node dies: jobs routed to that shard
    /// complete at origin (recorded as fault-served) until revival.
    /// Routing is untouched — shard death is invisible outside the
    /// node.
    KillWorker {
        /// Owning node.
        node: usize,
        /// Shard index within the node.
        shard: usize,
    },
    /// The shard worker comes back (store warm, as with nodes).
    ReviveWorker {
        /// Owning node.
        node: usize,
        /// Shard index within the node.
        shard: usize,
    },
    /// Every request processed by the node is delayed by `delay_us`
    /// before being served — a slow node. Forwards to it blow their
    /// deadline and the health detector eventually routes around it.
    SlowNode {
        /// Slowed node.
        node: usize,
        /// Injected per-request delay, microseconds.
        delay_us: u64,
    },
    /// Clears a [`FaultKind::SlowNode`] injection.
    ClearSlow(usize),
    /// The node's workers stop draining for `micros`, forcing
    /// transient queue saturation: admission sheds and forwards
    /// bounce while the stall lasts, then the backlog clears.
    Stall {
        /// Stalled node.
        node: usize,
        /// Stall duration, microseconds.
        micros: u64,
    },
}

impl FaultKind {
    fn node(self) -> usize {
        match self {
            FaultKind::KillNode(n)
            | FaultKind::ReviveNode(n)
            | FaultKind::ClearSlow(n)
            | FaultKind::KillWorker { node: n, .. }
            | FaultKind::ReviveWorker { node: n, .. }
            | FaultKind::SlowNode { node: n, .. }
            | FaultKind::Stall { node: n, .. } => n,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::KillNode(n) => write!(f, "kill:{n}"),
            FaultKind::ReviveNode(n) => write!(f, "revive:{n}"),
            FaultKind::KillWorker { node, shard } => write!(f, "kill-worker:{node}.{shard}"),
            FaultKind::ReviveWorker { node, shard } => write!(f, "revive-worker:{node}.{shard}"),
            FaultKind::SlowNode { node, delay_us } => write!(f, "slow:{node}:{delay_us}"),
            FaultKind::ClearSlow(n) => write!(f, "clear:{n}"),
            FaultKind::Stall { node, micros } => write!(f, "stall:{node}:{micros}"),
        }
    }
}

/// A fault transition pinned to a global admission-operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Applies when the cluster-wide offered-operation counter
    /// reaches this value (1-based: `at_op = 1` fires on the very
    /// first admission).
    pub at_op: u64,
    /// The transition.
    pub kind: FaultKind,
}

/// A deterministic, operation-count-scheduled fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — the engine's prior, fault-free world.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from arbitrary events, sorting them by trigger
    /// operation (ties keep insertion order).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_op);
        Self { events }
    }

    /// Adds a node outage: killed at `down_op`, revived at `up_op`
    /// (`None` = never — a permanent crash).
    #[must_use]
    pub fn with_node_outage(mut self, node: usize, down_op: u64, up_op: Option<u64>) -> Self {
        self.push(down_op, FaultKind::KillNode(node));
        if let Some(up) = up_op {
            self.push(up, FaultKind::ReviveNode(node));
        }
        self
    }

    /// Adds a single-shard-worker outage.
    #[must_use]
    pub fn with_worker_outage(
        mut self,
        node: usize,
        shard: usize,
        down_op: u64,
        up_op: Option<u64>,
    ) -> Self {
        self.push(down_op, FaultKind::KillWorker { node, shard });
        if let Some(up) = up_op {
            self.push(up, FaultKind::ReviveWorker { node, shard });
        }
        self
    }

    /// Adds a slow-node window: `delay_us` per request from `from_op`
    /// until `until_op` (`None` = for the rest of the run).
    #[must_use]
    pub fn with_slowdown(
        mut self,
        node: usize,
        delay_us: u64,
        from_op: u64,
        until_op: Option<u64>,
    ) -> Self {
        self.push(from_op, FaultKind::SlowNode { node, delay_us });
        if let Some(until) = until_op {
            self.push(until, FaultKind::ClearSlow(node));
        }
        self
    }

    /// Adds a one-shot stall (transient queue saturation).
    #[must_use]
    pub fn with_stall(mut self, node: usize, micros: u64, at_op: u64) -> Self {
        self.push(at_op, FaultKind::Stall { node, micros });
        self
    }

    fn push(&mut self, at_op: u64, kind: FaultKind) {
        let i = self.events.partition_point(|e| e.at_op <= at_op);
        self.events.insert(i, FaultEvent { at_op, kind });
    }

    /// The schedule, sorted by trigger operation.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws a kill/revive schedule from a seeded renewal process:
    /// each node alternates exponential up (`mtbf_ops`) and down
    /// (`mttr_ops`) periods measured in admission operations — the
    /// engine-side analogue of `ccn_sim::FailureModel`, with the
    /// operation counter standing in for simulated time. Identical
    /// arguments ⇒ identical plan.
    #[must_use]
    pub fn seeded(seed: u64, nodes: usize, mtbf_ops: u64, mttr_ops: u64, horizon_ops: u64) -> Self {
        let mut events = Vec::new();
        for node in 0..nodes {
            let mut state = seed ^ mix(0x5eed_0002 + node as u64);
            let mut at = 0.0_f64;
            loop {
                at += exponential(&mut state, mtbf_ops.max(1) as f64);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let down = at.min(1e18) as u64 + 1;
                if down > horizon_ops {
                    break;
                }
                events.push(FaultEvent { at_op: down, kind: FaultKind::KillNode(node) });
                at += exponential(&mut state, mttr_ops.max(1) as f64);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let up = at.min(1e18) as u64 + 1;
                if up > horizon_ops {
                    break;
                }
                events.push(FaultEvent { at_op: up, kind: FaultKind::ReviveNode(node) });
            }
        }
        Self::new(events)
    }

    /// Parses the CLI spec: comma-separated transitions
    /// `kill:N@OP`, `revive:N@OP`, `kill-worker:N.S@OP`,
    /// `revive-worker:N.S@OP`, `slow:N:DELAY_US@OP`, `clear:N@OP`,
    /// `stall:N:MICROS@OP`, plus `seeded:SEED:MTBF:MTTR` which
    /// expands to a seeded node-outage schedule over `horizon_ops`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FaultSpec`] for unknown forms or
    /// out-of-range indices/parameters (validated against `nodes` ×
    /// `shards_per_node`).
    pub fn parse(
        spec: &str,
        nodes: usize,
        shards_per_node: usize,
        horizon_ops: u64,
    ) -> Result<Self, EngineError> {
        let bad = |token: &str, why: &str| {
            Err(EngineError::FaultSpec { reason: format!("{token:?}: {why}") })
        };
        let mut plan = Self::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(rest) = token.strip_prefix("seeded:") {
                let mut it = rest.split(':');
                let (Some(seed), Some(mtbf), Some(mttr), None) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return bad(token, "expected seeded:SEED:MTBF_OPS:MTTR_OPS");
                };
                let parse_u64 = |s: &str, what: &str| {
                    s.parse::<u64>().map_err(|e| EngineError::FaultSpec {
                        reason: format!("{token:?}: bad {what} {s:?}: {e}"),
                    })
                };
                let seeded = Self::seeded(
                    parse_u64(seed, "seed")?,
                    nodes,
                    parse_u64(mtbf, "mtbf")?,
                    parse_u64(mttr, "mttr")?,
                    horizon_ops,
                );
                plan.events.extend(seeded.events);
                continue;
            }
            let Some((head, op)) = token.rsplit_once('@') else {
                return bad(token, "expected KIND:...@OP");
            };
            let at_op: u64 = match op.parse() {
                Ok(v) if v >= 1 => v,
                _ => return bad(token, "operation count must be a positive integer"),
            };
            let mut parts = head.split(':');
            let (Some(kind), args): (_, Vec<&str>) = (parts.next(), parts.collect()) else {
                return bad(token, "empty transition");
            };
            let one_usize = |what: &str| -> Result<usize, EngineError> {
                let [v] = args.as_slice() else {
                    return Err(EngineError::FaultSpec {
                        reason: format!("{token:?}: expected {kind}:{what}@OP"),
                    });
                };
                v.parse().map_err(|e| EngineError::FaultSpec {
                    reason: format!("{token:?}: bad {what} {v:?}: {e}"),
                })
            };
            let node_and_u64 = |what: &str| -> Result<(usize, u64), EngineError> {
                let [n, v] = args.as_slice() else {
                    return Err(EngineError::FaultSpec {
                        reason: format!("{token:?}: expected {kind}:NODE:{what}@OP"),
                    });
                };
                let node = n.parse().map_err(|e| EngineError::FaultSpec {
                    reason: format!("{token:?}: bad node {n:?}: {e}"),
                })?;
                let value = v.parse().map_err(|e| EngineError::FaultSpec {
                    reason: format!("{token:?}: bad {what} {v:?}: {e}"),
                })?;
                Ok((node, value))
            };
            let worker = || -> Result<(usize, usize), EngineError> {
                let [pair] = args.as_slice() else {
                    return Err(EngineError::FaultSpec {
                        reason: format!("{token:?}: expected {kind}:NODE.SHARD@OP"),
                    });
                };
                let Some((n, s)) = pair.split_once('.') else {
                    return Err(EngineError::FaultSpec {
                        reason: format!("{token:?}: expected NODE.SHARD, got {pair:?}"),
                    });
                };
                match (n.parse(), s.parse()) {
                    (Ok(n), Ok(s)) => Ok((n, s)),
                    _ => Err(EngineError::FaultSpec {
                        reason: format!("{token:?}: bad NODE.SHARD {pair:?}"),
                    }),
                }
            };
            let parsed = match kind {
                "kill" => FaultKind::KillNode(one_usize("NODE")?),
                "revive" => FaultKind::ReviveNode(one_usize("NODE")?),
                "clear" => FaultKind::ClearSlow(one_usize("NODE")?),
                "kill-worker" => {
                    let (node, shard) = worker()?;
                    FaultKind::KillWorker { node, shard }
                }
                "revive-worker" => {
                    let (node, shard) = worker()?;
                    FaultKind::ReviveWorker { node, shard }
                }
                "slow" => {
                    let (node, delay_us) = node_and_u64("DELAY_US")?;
                    FaultKind::SlowNode { node, delay_us }
                }
                "stall" => {
                    let (node, micros) = node_and_u64("MICROS")?;
                    FaultKind::Stall { node, micros }
                }
                other => return bad(token, &format!("unknown transition {other:?}")),
            };
            plan.push(at_op, parsed);
        }
        plan.events.sort_by_key(|e| e.at_op);
        plan.validate(nodes, shards_per_node)?;
        Ok(plan)
    }

    /// Validates every event against the cluster shape.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FaultSpec`] for node/shard indices out
    /// of range, zero trigger operations, or injected delays beyond
    /// [`MAX_INJECTED_DELAY_US`].
    pub fn validate(&self, nodes: usize, shards_per_node: usize) -> Result<(), EngineError> {
        let reject =
            |reason: String| -> Result<(), EngineError> { Err(EngineError::FaultSpec { reason }) };
        for e in &self.events {
            if e.at_op == 0 {
                return reject(format!("{}: trigger operation must be >= 1", e.kind));
            }
            let node = e.kind.node();
            if node >= nodes {
                return reject(format!("{}: node {node} out of range (nodes = {nodes})", e.kind));
            }
            match e.kind {
                FaultKind::KillWorker { shard, .. } | FaultKind::ReviveWorker { shard, .. }
                    if shard >= shards_per_node =>
                {
                    return reject(format!(
                        "{}: shard {shard} out of range (shards_per_node = {shards_per_node})",
                        e.kind
                    ));
                }
                FaultKind::SlowNode { delay_us: us, .. } | FaultKind::Stall { micros: us, .. }
                    if us > MAX_INJECTED_DELAY_US =>
                {
                    return reject(format!(
                        "{}: injected delay {us} us exceeds the {MAX_INJECTED_DELAY_US} us cap",
                        e.kind
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Exponential draw in operation units from a SplitMix64 stream.
fn exponential(state: &mut u64, mean: f64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    #[allow(clippy::cast_precision_loss)]
    let u = ((mix(*state) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    -u.ln() * mean
}

/// Knobs of the degradation ladder `local → peer → retry → origin →
/// shed` and of the health detector feeding routing failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeConfig {
    /// Budget for the whole local→peer detour: a forwarded request
    /// still unserved this long after admission is answered by origin
    /// at the holder (recorded as deadline-expired) instead of
    /// serving a stale peer hit.
    pub forward_deadline: Duration,
    /// Bounded re-enqueue attempts when a peer queue bounces a
    /// forward, before degrading to origin.
    pub forward_retries: u32,
    /// Base backoff between forward retries: retry `k` waits
    /// `k × retry_backoff` (linear).
    pub retry_backoff: Duration,
    /// Consecutive forward failures (bounces after retry exhaustion,
    /// deadline expiries, fault-served forwards) against one holder
    /// before the health view marks it down and the routing epoch
    /// bumps. `0` disables the detector.
    pub timeout_threshold: u32,
    /// Admission operations a health-marked-down node stays out of
    /// routing before probation puts it back (plan-driven revival
    /// also clears it). In process only: a wire node's prober revives
    /// a peer when it answers, because a dead process emits no ops.
    pub probation_ops: u64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            forward_deadline: Duration::from_secs(1),
            forward_retries: 2,
            retry_backoff: Duration::from_micros(5),
            timeout_threshold: 16,
            probation_ops: 8_192,
        }
    }
}

impl DegradeConfig {
    /// The wait before forward retry `attempt` (1-based): linear,
    /// `attempt × retry_backoff`, saturating.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        self.retry_backoff.saturating_mul(attempt)
    }

    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.forward_deadline.is_zero() {
            return Err(EngineError::InvalidConfig {
                reason: "forward_deadline must be positive".into(),
            });
        }
        if self.probation_ops == 0 {
            return Err(EngineError::InvalidConfig { reason: "probation_ops must be >= 1".into() });
        }
        Ok(())
    }
}

/// The health detector's evidence against one holder, shared by both
/// serving tiers: consecutive forwarded items it failed (bounces after
/// retry exhaustion, deadline expiries, socket failures), cleared by
/// any item it serves.
#[derive(Default)]
pub(crate) struct FailureStreak(AtomicU32);

impl FailureStreak {
    /// The holder served a forward: the streak starts over.
    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Counts `failed` more items against the holder; whether the
    /// streak has reached `threshold` (`0` disables the detector and
    /// counts nothing).
    pub(crate) fn fail(&self, failed: u32, threshold: u32) -> bool {
        threshold > 0
            && self.0.fetch_add(failed, Ordering::Relaxed).saturating_add(failed) >= threshold
    }
}

/// One fault the controller actually applied, for the run log. Both
/// serving tiers log this record; events the stream never reaches are
/// not logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedFault {
    /// The event's trigger operation count ([`FaultEvent::at_op`]).
    pub at_op: u64,
    /// The transition.
    pub kind: FaultKind,
    /// Epoch after application: the routing epoch in process, the
    /// config epoch on the wire (a kill leaves it, a revival bumps it).
    pub epoch: u64,
}

impl fmt::Display for AppliedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} (epoch {})", self.kind, self.at_op, self.epoch)
    }
}

/// Per-node runtime fault flags, consulted lock-free on the hot path.
struct NodeFaultState {
    /// Plan-killed (admission refused, serving dark).
    killed: AtomicBool,
    /// Health-detector-marked down (routed around, still serving).
    health_down: AtomicBool,
    /// Operation count when health marked it down (probation base).
    health_down_at_op: AtomicU64,
    /// Consecutive forward failures observed against this holder.
    streak: FailureStreak,
    /// Injected per-request latency, nanoseconds (0 = none).
    slow_nanos: AtomicU64,
    /// Stall horizon in nanoseconds since the cluster anchor (0 =
    /// none).
    stall_until_nanos: AtomicU64,
    /// Individually killed shard workers.
    workers_down: Vec<AtomicBool>,
}

/// Cluster-wide runtime fault state and health counters.
pub(crate) struct FaultState {
    /// Padded per node: every admission and every served job loads
    /// this node's flags, and the health detector's streak counter is
    /// written from peer workers — adjacent nodes must not share a
    /// line.
    nodes: Vec<CachePadded<NodeFaultState>>,
    /// Nodes currently health-marked down (fast probation guard).
    health_down_count: AtomicUsize,
    health_marked_down: AtomicU64,
    health_revived: AtomicU64,
}

impl FaultState {
    pub(crate) fn new(nodes: usize, shards_per_node: usize) -> Self {
        Self {
            nodes: (0..nodes)
                .map(|_| {
                    CachePadded::new(NodeFaultState {
                        killed: AtomicBool::new(false),
                        health_down: AtomicBool::new(false),
                        health_down_at_op: AtomicU64::new(0),
                        streak: FailureStreak::default(),
                        slow_nanos: AtomicU64::new(0),
                        stall_until_nanos: AtomicU64::new(0),
                        workers_down: (0..shards_per_node)
                            .map(|_| AtomicBool::new(false))
                            .collect(),
                    })
                })
                .collect(),
            health_down_count: AtomicUsize::new(0),
            health_marked_down: AtomicU64::new(0),
            health_revived: AtomicU64::new(0),
        }
    }

    /// Whether `node` refuses admission (plan-killed).
    pub(crate) fn node_killed(&self, node: usize) -> bool {
        self.nodes[node].killed.load(Ordering::Acquire)
    }

    /// Whether the store behind (`node`, `shard`) is dark — the node
    /// is killed or that worker is individually dead.
    pub(crate) fn serving_down(&self, node: usize, shard: usize) -> bool {
        let s = &self.nodes[node];
        s.killed.load(Ordering::Acquire) || s.workers_down[shard].load(Ordering::Acquire)
    }

    /// Applies plan-injected latency (slow node, stall) before a
    /// request is served; called on the shard worker.
    pub(crate) fn inject_latency(&self, node: usize, anchor: Instant) {
        let s = &self.nodes[node];
        let stall = s.stall_until_nanos.load(Ordering::Acquire);
        if stall > 0 {
            #[allow(clippy::cast_possible_truncation)]
            let now = anchor.elapsed().as_nanos() as u64;
            if now < stall {
                std::thread::sleep(Duration::from_nanos(stall - now));
            }
            // One worker clearing suffices; racing clears are idempotent.
            s.stall_until_nanos.store(0, Ordering::Release);
        }
        let slow = s.slow_nanos.load(Ordering::Acquire);
        if slow > 0 {
            std::thread::sleep(Duration::from_nanos(slow));
        }
    }

    /// Health detector: feeds `holder`'s [`FailureStreak`] and, at the
    /// threshold, marks it down and bumps the routing epoch. Successful
    /// peer service resets the streak.
    pub(crate) fn note_holder_outcome(
        &self,
        holder: usize,
        ok: bool,
        degrade: &DegradeConfig,
        now_op: u64,
        routing: &LiveRouting,
    ) {
        let s = &self.nodes[holder];
        if ok {
            return s.streak.reset();
        }
        if !s.streak.fail(1, degrade.timeout_threshold) {
            return;
        }
        if s.health_down.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            s.health_down_at_op.store(now_op, Ordering::Relaxed);
            self.health_down_count.fetch_add(1, Ordering::Relaxed);
            self.health_marked_down.fetch_add(1, Ordering::Relaxed);
            self.sync_liveness(holder, routing);
        }
    }

    /// Probation pass: health-marked-down nodes rejoin routing after
    /// `probation_ops` admissions (cheap no-op while nothing is
    /// marked down).
    pub(crate) fn probation(&self, now_op: u64, degrade: &DegradeConfig, routing: &LiveRouting) {
        if self.health_down_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        for (node, s) in self.nodes.iter().enumerate() {
            if !s.health_down.load(Ordering::Acquire) {
                continue;
            }
            let since = s.health_down_at_op.load(Ordering::Relaxed);
            if now_op < since.saturating_add(degrade.probation_ops) {
                continue;
            }
            if s.health_down
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                s.streak.reset();
                self.health_down_count.fetch_sub(1, Ordering::Relaxed);
                self.health_revived.fetch_add(1, Ordering::Relaxed);
                self.sync_liveness(node, routing);
            }
        }
    }

    /// Applies one plan transition; returns the routing epoch after.
    pub(crate) fn apply(&self, kind: FaultKind, routing: &LiveRouting, anchor: Instant) -> u64 {
        match kind {
            FaultKind::KillNode(n) => {
                self.nodes[n].killed.store(true, Ordering::Release);
                self.sync_liveness(n, routing);
            }
            FaultKind::ReviveNode(n) => {
                let s = &self.nodes[n];
                s.killed.store(false, Ordering::Release);
                // Revival is a clean slate: any health verdict earned
                // while dead (or before) is reset with it.
                s.streak.reset();
                if s.health_down
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.health_down_count.fetch_sub(1, Ordering::Relaxed);
                }
                self.sync_liveness(n, routing);
            }
            FaultKind::KillWorker { node, shard } => {
                self.nodes[node].workers_down[shard].store(true, Ordering::Release);
            }
            FaultKind::ReviveWorker { node, shard } => {
                self.nodes[node].workers_down[shard].store(false, Ordering::Release);
            }
            FaultKind::SlowNode { node, delay_us } => {
                self.nodes[node].slow_nanos.store(delay_us * 1_000, Ordering::Release);
            }
            FaultKind::ClearSlow(n) => {
                self.nodes[n].slow_nanos.store(0, Ordering::Release);
            }
            FaultKind::Stall { node, micros } => {
                #[allow(clippy::cast_possible_truncation)]
                let now = anchor.elapsed().as_nanos() as u64;
                self.nodes[node].stall_until_nanos.store(now + micros * 1_000, Ordering::Release);
            }
        }
        routing.epoch()
    }

    /// Routing liveness is the conjunction of both verdicts.
    fn sync_liveness(&self, node: usize, routing: &LiveRouting) {
        let s = &self.nodes[node];
        let up = !s.killed.load(Ordering::Acquire) && !s.health_down.load(Ordering::Acquire);
        routing.set_live(node, up);
    }

    /// Nodes the health detector marked down over the run.
    pub(crate) fn health_marked_down(&self) -> u64 {
        self.health_marked_down.load(Ordering::Relaxed)
    }

    /// Probation revivals over the run.
    pub(crate) fn health_revived(&self) -> u64 {
        self.health_revived.load(Ordering::Relaxed)
    }
}

/// The one fault replay both serving tiers run: applies due
/// [`FaultPlan`] events as the cluster-wide offered count crosses their
/// triggers, through a tier-specific action, and logs what it applied.
pub(crate) struct FaultController {
    events: Vec<FaultEvent>,
    /// Index of the next unapplied event. Held across each
    /// application, so a caller that crossed a trigger waits here
    /// until the event has landed.
    cursor: Mutex<usize>,
    /// Trigger of the next unapplied event (`u64::MAX` when drained):
    /// the only thing the hot path reads.
    next_at: AtomicU64,
    log: Mutex<Vec<AppliedFault>>,
}

impl FaultController {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let next = plan.events.first().map_or(u64::MAX, |e| e.at_op);
        Self {
            events: plan.events,
            cursor: Mutex::new(0),
            next_at: AtomicU64::new(next),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Moves the fault clock to `op`: every event with `at_op <= op`
    /// is applied once, in plan order, through `apply` (which returns
    /// the epoch after the transition) and logged. One load when
    /// nothing is due. When it returns, every event `op` crossed has
    /// been applied — by this caller or a racing one.
    #[inline]
    pub(crate) fn advance(&self, op: u64, apply: impl FnMut(FaultKind) -> u64) {
        if op >= self.next_at.load(Ordering::Acquire) {
            self.apply_through(op, apply);
        }
    }

    #[cold]
    fn apply_through(&self, op: u64, mut apply: impl FnMut(FaultKind) -> u64) {
        let mut cursor = lock_recover(&self.cursor);
        while let Some(&FaultEvent { at_op, kind }) = self.events.get(*cursor) {
            if at_op > op {
                break;
            }
            *cursor += 1;
            let epoch = apply(kind);
            lock_recover(&self.log).push(AppliedFault { at_op, kind, epoch });
        }
        let next = self.events.get(*cursor).map_or(u64::MAX, |e| e.at_op);
        self.next_at.store(next, Ordering::Release);
    }

    /// Everything applied so far, in application order.
    pub(crate) fn log(&self) -> Vec<AppliedFault> {
        lock_recover(&self.log).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    #[test]
    fn builders_sort_by_trigger_and_validate() {
        let plan = FaultPlan::none()
            .with_node_outage(1, 500, Some(900))
            .with_worker_outage(0, 0, 50, None)
            .with_slowdown(2, 250, 100, Some(700))
            .with_stall(0, 1_000, 300);
        let ops: Vec<u64> = plan.events().iter().map(|e| e.at_op).collect();
        assert_eq!(ops, vec![50, 100, 300, 500, 700, 900]);
        assert!(plan.validate(3, 1).is_ok());
        assert!(plan.validate(2, 1).is_err(), "node 2 out of range");
        let worker = FaultPlan::none().with_worker_outage(0, 3, 10, None);
        assert!(worker.validate(1, 2).is_err(), "shard 3 out of range");
        let zero = FaultPlan::new(vec![FaultEvent { at_op: 0, kind: FaultKind::KillNode(0) }]);
        assert!(zero.validate(1, 1).is_err(), "op 0 never fires");
        let huge = FaultPlan::none().with_slowdown(0, MAX_INJECTED_DELAY_US + 1, 1, None);
        assert!(huge.validate(1, 1).is_err(), "delay beyond cap");
    }

    #[test]
    fn parse_round_trips_every_form() {
        let plan = FaultPlan::parse(
            "kill:1@500, revive:1@900, kill-worker:0.1@50, revive-worker:0.1@80, \
             slow:2:250@100, clear:2@700, stall:0:1000@300",
            3,
            2,
            10_000,
        )
        .unwrap();
        assert_eq!(plan.events().len(), 7);
        assert_eq!(plan.events()[0].kind, FaultKind::KillWorker { node: 0, shard: 1 });
        assert_eq!(plan.events()[6].kind, FaultKind::ReviveNode(1));
        // Display round-trips through parse.
        let rendered: Vec<String> =
            plan.events().iter().map(|e| format!("{}@{}", e.kind, e.at_op)).collect();
        let reparsed = FaultPlan::parse(&rendered.join(","), 3, 2, 10_000).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "kill:1",             // missing @OP
            "kill:9@10",          // node out of range
            "kill-worker:0.9@10", // shard out of range
            "kill:1@0",           // zero op
            "frob:1@10",          // unknown kind
            "slow:1@10",          // missing delay
            "seeded:1:2",         // missing mttr
            "slow:0:2000000@5",   // delay beyond cap
        ] {
            assert!(FaultPlan::parse(bad, 3, 2, 1_000).is_err(), "{bad:?} accepted");
        }
        assert_eq!(FaultPlan::parse("", 3, 2, 1_000).unwrap(), FaultPlan::none());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_alternate() {
        let a = FaultPlan::seeded(7, 4, 300, 120, 5_000);
        let b = FaultPlan::seeded(7, 4, 300, 120, 5_000);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty(), "mtbf well under horizon draws failures");
        assert!(a.validate(4, 1).is_ok());
        assert!(a.events().iter().all(|e| e.at_op >= 1 && e.at_op <= 5_000));
        // Per node the schedule strictly alternates kill/revive.
        for node in 0..4 {
            let mut expect_kill = true;
            for e in a.events().iter().filter(|e| e.kind.node() == node) {
                match e.kind {
                    FaultKind::KillNode(_) => {
                        assert!(expect_kill, "double kill for node {node}");
                        expect_kill = false;
                    }
                    FaultKind::ReviveNode(_) => {
                        assert!(!expect_kill, "revive before kill for node {node}");
                        expect_kill = true;
                    }
                    other => panic!("seeded plan drew {other}"),
                }
            }
        }
        let c = FaultPlan::seeded(8, 4, 300, 120, 5_000);
        assert_ne!(a, c, "different seed, different plan");
        // The seeded spec form expands identically.
        let via_spec = FaultPlan::parse("seeded:7:300:120", 4, 1, 5_000).unwrap();
        assert_eq!(via_spec, a);
    }

    #[test]
    fn controller_applies_due_events_once_and_logs() {
        let routing = LiveRouting::new(RoutingTable::from_assignments(&[], 3).unwrap());
        let state = FaultState::new(3, 2);
        let plan =
            FaultPlan::none().with_node_outage(1, 10, Some(20)).with_worker_outage(2, 1, 15, None);
        let controller = FaultController::new(plan);
        let anchor = Instant::now();
        let mut applied = Vec::new();
        let mut advance = |op: u64| {
            controller.advance(op, |kind| {
                applied.push(kind);
                state.apply(kind, &routing, anchor) + 100
            });
        };
        advance(9);
        assert!(!state.node_killed(1), "nothing due before the trigger");
        advance(10);
        assert!(state.node_killed(1));
        assert!(!state.serving_down(2, 1));
        assert!(!routing.is_live(1));
        advance(16);
        assert!(state.serving_down(2, 1), "worker kill applied");
        assert!(state.serving_down(1, 0), "killed node is dark on every shard");
        advance(16);
        advance(25);
        assert!(!state.node_killed(1), "revived");
        assert!(routing.is_live(1));
        let plan_order = [
            FaultKind::KillNode(1),
            FaultKind::KillWorker { node: 2, shard: 1 },
            FaultKind::ReviveNode(1),
        ];
        assert_eq!(applied, plan_order, "each event applied once, in plan order");
        let log = controller.log();
        let logged: Vec<(u64, FaultKind, u64)> =
            log.iter().map(|f| (f.at_op, f.kind, f.epoch)).collect();
        // The log keeps each trigger and the epoch `apply` returned.
        assert_eq!(
            logged,
            [(10, plan_order[0], 102), (15, plan_order[1], 102), (20, plan_order[2], 103)]
        );
        assert!(log[0].to_string().contains("kill:1@10"));

        // An event past the last op is neither applied nor logged.
        let late = FaultController::new(FaultPlan::none().with_node_outage(0, 5, Some(1_000)));
        let mut calls = 0;
        for op in [1, 5, 999] {
            late.advance(op, |_| {
                calls += 1;
                1
            });
        }
        assert_eq!(calls, 1);
        assert_eq!(late.log().len(), 1, "the revival past the stream is not logged");
    }

    #[test]
    fn racing_tickers_wait_for_the_fault_they_cross() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let controller = FaultController::new(FaultPlan::none().with_node_outage(0, 50, None));
        let applied = AtomicUsize::new(0);
        let landed = AtomicBool::new(false);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let (controller, applied, landed, start) = (&controller, &applied, &landed, &start);
                scope.spawn(move || {
                    start.wait();
                    controller.advance(50 + t, |_| {
                        applied.fetch_add(1, Ordering::Relaxed);
                        landed.store(true, Ordering::Relaxed);
                        1
                    });
                    assert!(landed.load(Ordering::Relaxed), "ticker {t} passed an unapplied fault");
                });
            }
        });
        assert_eq!(applied.load(Ordering::Relaxed), 1, "apply runs exactly once");
        assert_eq!(controller.log().len(), 1);
    }

    #[test]
    fn health_detector_marks_down_at_threshold_and_probation_revives() {
        let routing = LiveRouting::new(RoutingTable::from_assignments(&[], 2).unwrap());
        let state = FaultState::new(2, 1);
        let degrade =
            DegradeConfig { timeout_threshold: 3, probation_ops: 100, ..DegradeConfig::default() };
        // Two failures, then a success: streak resets, nothing marked.
        state.note_holder_outcome(1, false, &degrade, 10, &routing);
        state.note_holder_outcome(1, false, &degrade, 11, &routing);
        state.note_holder_outcome(1, true, &degrade, 12, &routing);
        assert!(routing.is_live(1));
        assert_eq!(state.health_marked_down(), 0);
        // Three consecutive failures: marked down, epoch bumped.
        for op in 20..23 {
            state.note_holder_outcome(1, false, &degrade, op, &routing);
        }
        assert!(!routing.is_live(1));
        assert_eq!(state.health_marked_down(), 1);
        // Probation before the window: still down. After: revived.
        state.probation(50, &degrade, &routing);
        assert!(!routing.is_live(1));
        state.probation(122, &degrade, &routing);
        assert!(routing.is_live(1));
        assert_eq!(state.health_revived(), 1);
        // Disabled detector never marks.
        let off = DegradeConfig { timeout_threshold: 0, ..DegradeConfig::default() };
        for op in 0..100 {
            state.note_holder_outcome(0, false, &off, op, &routing);
        }
        assert!(routing.is_live(0));
    }
}
