//! Concurrent live-serving cache engine for the CCN coordinated
//! in-network caching suite.
//!
//! The analytical model (ccn-model) and the discrete-event simulator
//! (ccn-sim) evaluate the paper's provisioning offline. This crate
//! runs it *live*: an in-process cluster of multi-threaded cache nodes
//! serving real concurrent requests under open-loop load, so
//! throughput, queueing, and overload behavior are measured rather
//! than modeled.
//!
//! Architecture:
//!
//! - [`ring`] — a vendored, dependency-free bounded MPSC ring queue
//!   (with its happens-before edges documented inline): uncontended
//!   enqueue is a couple of atomics and a whole run of messages moves
//!   through one CAS — or, on a ring built single-producer (the
//!   completion lanes), through a plain store.
//! - [`affinity`] — thread-per-core placement: dependency-free
//!   `sched_setaffinity` (raw syscall on Linux, honest no-op
//!   elsewhere) and the [`ShardPlacement`] policy pinning each shard
//!   worker and its load-generator lane to a core.
//! - [`pad`] — [`CachePadded`], a `#[repr(align(64))]` wrapper that
//!   keeps independently-written hot counters (queue depths, ring
//!   indices, per-node tallies) off each other's cache lines.
//! - [`shard`] — each node's content store is partitioned across
//!   single-writer worker shards behind bounded ring queues
//!   ([`ShardedStore`]); the simulator's O(1) LRU/LFU/static stores
//!   are reused unchanged because only one thread ever mutates each.
//!   Batched submission ([`ShardHandle::try_submit_batch`]) amortizes
//!   the queue hop across a run; workers drain in bulk and, when dry,
//!   spin briefly, yield, then park until a producer wakes them.
//! - [`routing`] — a [`RoutingTable`] derived from the coordination
//!   plane's slice assignments answers "which live node holds this
//!   coordinated content?", with rendezvous-hash failover that moves
//!   only a failed node's share; [`LiveRouting`] is its lock-free,
//!   epoch-stamped runtime view, updated mid-run by fault injection
//!   and the health detector.
//! - [`fault`] — deterministic, operation-count-scheduled fault
//!   injection ([`FaultPlan`]): kill/revive whole nodes or single
//!   shard workers, slow or stall nodes, hand-written or drawn from a
//!   seeded MTBF/MTTR renewal process; plus the degradation-ladder
//!   knobs ([`DegradeConfig`]).
//! - [`cluster`] — [`Cluster`] wires nodes together: requests escalate
//!   local → peer → origin, mirroring the model's `d0`/`d1`/`d2`
//!   latency tiers, with bounded admission (shed) and a graceful
//!   degradation ladder (deadline-bounded forwards, bounded
//!   retry-with-backoff, dead-mode fault serving) that keeps
//!   `completed + shed == offered` exact through any fault schedule.
//! - [`control`] — the live adaptive-provisioning controller
//!   ([`Controller`], run by one adaptive runner on both serving
//!   tiers; [`ClusterController`] in process): a lock-free sampled
//!   [`RankTap`] on the admission path feeds a decayed
//!   maximum-likelihood re-fit of the Zipf exponent; the paper's
//!   exact optimum is re-solved under hysteresis, and retargets are
//!   applied as an *incremental chain* of config epochs, each moving
//!   at most a budgeted number of slice slots.
//! - [`load`] — the one open-loop Poisson/Zipf load driver, run by
//!   both serving tiers ([`load::drive`] in process, [`wire_bench`] on
//!   the wire) and reusing `ccn_sim::workload`, so the engine, the wire
//!   and the simulator are fed bit-identical request streams; requests
//!   are grouped into runs of up to `batch` (paced runs flush before
//!   sleeping, so batching never delays a due request), and batch size
//!   provably does not change the outcome. Its lane loop keeps every
//!   node's [`Ledger`] `{offered, local, peer, origin, shed}` on both
//!   tiers, and [`check_conservation`] holds each node to
//!   `offered == completed + shed` before a run is reported.
//! - [`report`] — [`serve_bench`] runs the whole pipeline and emits a
//!   `ccn-obs`-wired, JSON-serializable outcome with per-tier latency
//!   histograms; [`load_report_json`] renders the ledger block both
//!   serving reports share.
//!
//! # Example
//!
//! ```
//! use ccn_engine::{serve_bench, ServeBenchConfig};
//!
//! let mut config = ServeBenchConfig::default();
//! config.cluster.nodes = 2;
//! config.cluster.catalogue = 1_000;
//! config.cluster.capacity = 20;
//! config.load.horizon_ms = 50.0;
//! let outcome = serve_bench(&config).unwrap();
//! for node in &outcome.report.per_node {
//!     assert_eq!(node.offered, node.completed() + node.shed);
//! }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod affinity;
#[cfg(test)]
mod alloc_count;
pub mod cluster;
pub mod control;
pub mod error;
pub mod fault;
mod layout;
pub mod load;
pub mod net;
pub mod pad;
pub mod report;
pub mod ring;
pub mod routing;
pub mod shard;

pub use affinity::{available_cores, pin_current_thread, PinOutcome, ShardPlacement};
pub use cluster::{
    BatchSubmitter, Cluster, ClusterConfig, EngineMetrics, StorePolicy, ENGINE_LATENCY_MS_BOUNDS,
};
pub use control::{
    ClusterController, Controller, ControllerConfig, ControllerDecision, ControllerReport,
    LayoutStep, RankTap, TapCursor,
};
pub use error::EngineError;
pub use fault::{AppliedFault, DegradeConfig, FaultEvent, FaultKind, FaultPlan};
pub use load::{
    check_conservation, tier_fractions, DriftSegment, Ledger, LoadReport, OpenLoopConfig,
};
pub use net::{wire_bench, NodeLaunch, NodeServer, WireOutcome, WirePipelineStats, WireSpec};
pub use pad::CachePadded;
pub use report::{
    controller_json, fault_log_json, ledgers_json, load_report_json, serve_bench, ServeBenchConfig,
    ServeBenchOutcome,
};
pub use routing::{LiveRouting, RoutingTable};
pub use shard::{shard_of, IdleStrategy, RingMode, ShardHandle, ShardSpec, ShardedStore};
