//! Wire tier: the serving engine on real sockets.
//!
//! The in-process [`crate::cluster`] runs the paper's cooperating
//! routers inside one process, where a peer forward is a ring push.
//! This module runs each router as its own OS process connected by
//! TCP, so the d0/d1/d2 cost hierarchy crosses an actual link. It is
//! `std::net` only, in the same vendored, dependency-free style as
//! [`crate::ring`]: no async runtime, no serialization framework. The
//! submodules split it at its seams — `codec` (frame format), `conn`
//! (one framed connection), `poll` (the readiness poller), `node`
//! (the server: configuration, provisioning, prober), `worker` (a
//! serve worker: its sockets, its shard, the ladder), `peer` (a
//! worker's link to one peer), `driver` (the coordinator and load
//! driver); DESIGN.md §11 has the full map.
//!
//! # Frame layout
//!
//! Every message is one frame:
//!
//! ```text
//! +----------------+---------+--------------------------+
//! | len: u32 LE    | kind: u8| payload (len - 1 bytes)  |
//! +----------------+---------+--------------------------+
//! ```
//!
//! `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME`]; integers are little-endian, strings are `u16`
//! length-prefixed UTF-8. Kinds with the high bit set are responses.
//! Protocol version [`PROTOCOL_VERSION`] has fifteen kinds:
//!
//! | kind   | request            | kind   | response            |
//! |--------|--------------------|--------|---------------------|
//! | `0x01` | `Hello`            | `0x8A` | `HelloAck`          |
//! | `0x02` | `ConfigEpoch`      | `0x81` | `EpochAck`          |
//! | `0x04` | `BatchLookup`      | `0x83` | `BatchServed`       |
//! | `0x09` | `PeerForwardBatch` | `0x89` | `ForwardBatchReply` |
//! | `0x06` | `HealthProbe`      | `0x85` | `HealthAck`         |
//! | `0x07` | `Stats`            | `0x86` | `StatsReply`        |
//! | `0x08` | `Shutdown`         | `0x87` | `Bye`               |
//! |        |                    | `0x88` | `Refused`           |
//!
//! Any other kind byte, a truncated or over-long payload, or a count
//! field larger than the frame is answered with one typed `Refused`
//! and the connection is closed. A single lookup or forward is a batch
//! of one.
//!
//! # Roles
//!
//! - **Node** ([`NodeServer`], the `ccn node` subcommand): binds,
//!   prints its address, and waits for a **config epoch** — the
//!   coordinator's versioned provisioning push carrying the
//!   `ccn_coord` slice assignments, store layout, and the peer address
//!   list. Only then does it fill its shards' stores and serve
//!   lookups. A node is `shards` serve workers — each the single
//!   writer of one shard *and* the reader of its own share of the
//!   node's sockets — plus the prober; its thread count does not
//!   depend on its connection count. Linux only: the poller is raw
//!   `epoll`, and elsewhere [`NodeServer::bind`] fails with a typed
//!   error.
//! - **Coordinator / driver** ([`wire_bench`]): provisions every node
//!   (epoch 1), drives per-node Zipf request streams over the same
//!   protocol, replays a kill/revive schedule by SIGKILLing node
//!   *processes* and re-provisioning the survivors plus the respawned
//!   node under a bumped epoch, and adds the reply tallies to the load
//!   driver's per-node ledgers, each held to `offered == completed +
//!   shed` before the [`WireOutcome`] is returned.
//!
//! # Epoch semantics
//!
//! A config epoch is accepted iff it is strictly newer than the
//! node's current epoch; replays and reordered pushes are answered
//! with the current epoch and ignored. Every accepted epoch swaps
//! routing and peer links; a node **keeps its stores** unless its own
//! recipe changed (a capacity or policy change, or, under
//! `Provisioned`, its prefix or slice moving), exactly as
//! [`crate::Cluster::apply_layout`] does in process.
//!
//! # Failure ladder over sockets
//!
//! A `BatchLookup` is served to completion by the worker that read
//! it, as one shard run in frame order — its own shard's items
//! inline, the rest through the other workers' rings: each op probes,
//! and under LRU a miss this node keeps for itself (uncoordinated
//! content, or its own slice) is admitted by the same run. The
//! remaining misses are grouped by holder and each group walks the
//! ladder:
//!
//! - **peer**: the group goes out as pipelined `PeerForwardBatch`
//!   frames on the worker's own link to the holder, read back under
//!   the forward deadline shared by the whole group. The worker waits
//!   *pumping*: it keeps executing its ring and serving inbound
//!   forwards, so nodes waiting on each other still answer each other.
//! - **retry**: items a holder answers *refused* (not yet
//!   provisioned) are retried up to the configured budget with linear
//!   backoff.
//! - **origin**: a deadline expiry or socket failure (connection
//!   refused, reset, torn down mid-conversation) degrades the items to
//!   origin at the client node. A timed-out connection is dropped,
//!   not reused — a late reply on a reused stream would desynchronize
//!   the framing.
//! - **health**: consecutive socket failures against one holder mark
//!   it down in the node's [`crate::LiveRouting`] view (epoch bump,
//!   HRW failover moves exactly that node's share); a background
//!   probe thread pings down peers and restores them when they answer
//!   again — wall-clock probing, because a dead process produces no
//!   ops to count.
//! - **shed**: a killed node's clients shed at the driver edge: a
//!   request offered to a dead process is counted shed, never lost,
//!   so SIGKILL preserves `offered == completed + shed` bit-exactly.
//!
//! This ladder and [`crate::cluster`]'s both run on the shard's owner
//! thread and their bodies are separate code: the in-process one is
//! per job and forwards fire-and-forget through rings; this one is per
//! frame and waits on a socket under a shared deadline (DESIGN.md,
//! *Wire tier*). The rungs' rules are written once, in
//! [`crate::fault`]: the failure streak that marks a holder down and
//! the linear retry backoff.

mod codec;
mod conn;
mod driver;
mod node;
mod peer;
mod poll;
mod worker;

pub use codec::{
    NodeStatsSnapshot, Provision, Request, Response, SliceAssignment, FWD_HIT, FWD_MISS,
    FWD_REFUSED, MAX_FRAME, PROTOCOL_VERSION, TIER_LOCAL, TIER_ORIGIN, TIER_PEER,
};
pub use driver::{wire_bench, NodeLaunch, WireOutcome, WirePipelineStats, WireSpec};
pub use node::{NodeConfig, NodeServer};
