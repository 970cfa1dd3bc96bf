//! The frame format: kind bytes, message enums, and the scratch
//! encode/decode helpers the serve loop and the enums share — each
//! frame kind has exactly one encoder and one decoder.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cluster::StorePolicy;
use crate::error::EngineError;

/// Hard cap on one frame (length prefix included payload): 1 MiB.
/// Large enough for a 64k-request batch lookup, small enough that a
/// corrupt length prefix cannot balloon an allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Wire protocol version, carried in `Hello` and answered in
/// `HelloAck`; a mismatched `Hello` is refused and the connection
/// closed, so mixed-version clusters fail at the handshake instead of
/// desynchronizing mid-stream. Version 3 retired the single-item
/// lookup and forward kinds (`0x03 0x05 0x82 0x84`); every surviving
/// kind keeps its version-2 byte and layout.
pub const PROTOCOL_VERSION: u8 = 3;

pub(super) mod kind {
    pub const HELLO: u8 = 0x01;
    pub const CONFIG_EPOCH: u8 = 0x02;
    pub const BATCH_LOOKUP: u8 = 0x04;
    pub const HEALTH_PROBE: u8 = 0x06;
    pub const STATS: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const PEER_FORWARD_BATCH: u8 = 0x09;

    pub const EPOCH_ACK: u8 = 0x81;
    pub const BATCH_SERVED: u8 = 0x83;
    pub const HEALTH_ACK: u8 = 0x85;
    pub const STATS_REPLY: u8 = 0x86;
    pub const BYE: u8 = 0x87;
    pub const REFUSED: u8 = 0x88;
    pub const FORWARD_BATCH_REPLY: u8 = 0x89;
    pub const HELLO_ACK: u8 = 0x8A;
}

/// Tier index of the node's own store in a per-tier tally (the order
/// of the `BatchServed` counts: local, peer, origin).
pub const TIER_LOCAL: u8 = 0;
/// Tier index of a peer's coordinated slice; see [`TIER_LOCAL`].
pub const TIER_PEER: u8 = 1;
/// Tier index of the origin; see [`TIER_LOCAL`].
pub const TIER_ORIGIN: u8 = 2;

/// `ForwardBatchReply` per-item outcome: the holder had the content.
pub const FWD_HIT: u8 = 0;
/// Holder probed its slice and missed; origin serves.
pub const FWD_MISS: u8 = 1;
/// Holder refused the forward (not provisioned).
pub const FWD_REFUSED: u8 = 2;

pub(super) fn proto_err(reason: impl Into<String>) -> EngineError {
    EngineError::Protocol { reason: reason.into() }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), EngineError> {
    let len = u16::try_from(s.len()).map_err(|_| {
        proto_err(format!("string of {} bytes exceeds the u16 frame field", s.len()))
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Cursor over a received payload; every read is bounds-checked so a
/// truncated frame surfaces as a typed protocol error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| proto_err("frame payload truncated"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, EngineError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Result<String, EngineError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| proto_err("string field is not UTF-8"))
    }

    /// Reads a `u32` element count and rejects it unless `count`
    /// items of at least `item_bytes` each still fit in the payload —
    /// so a hostile count never sizes a reservation the frame cannot
    /// back.
    fn count(&mut self, item_bytes: usize) -> Result<usize, EngineError> {
        let count = self.u32()? as usize;
        match count.checked_mul(item_bytes) {
            Some(need) if need <= self.buf.len() - self.at => Ok(count),
            _ => Err(proto_err(format!("count {count} exceeds the frame payload"))),
        }
    }

    fn done(&self) -> Result<(), EngineError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(proto_err(format!("{} trailing bytes after payload", self.buf.len() - self.at)))
        }
    }
}

/// One contiguous coordinated slice `[start, end)` assigned to `node`,
/// as produced by `ccn_coord::contiguous_slices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceAssignment {
    /// Owning router.
    pub node: u32,
    /// First coordinated rank of the slice (inclusive).
    pub start: u64,
    /// One past the last rank (exclusive).
    pub end: u64,
}

/// A versioned provisioning push: everything a node process needs to
/// build its store, its routing view, and its peer links.
#[derive(Debug, Clone, PartialEq)]
pub struct Provision {
    /// Monotone config version; a node accepts only strictly newer
    /// epochs.
    pub epoch: u64,
    /// Cluster size (routers).
    pub nodes: u32,
    /// Catalogue size `c_total`.
    pub catalogue: u64,
    /// Per-node store capacity `c`.
    pub capacity: u64,
    /// Local popularity prefix `c − x`.
    pub prefix: u64,
    /// Coordinated slots per node `x` (for a mid-chain incremental
    /// layout with uneven slices: the widest slice).
    pub x: u64,
    /// The coordinator's fitted Zipf exponent at push time, `0.0` when
    /// none (static provisioning, or no fit yet). Metadata only: no
    /// node's store recipe includes it, so a fit-only push keeps every
    /// store warm. Carried so each node's stats snapshot reports what
    /// the controller believed.
    pub fitted_s: f64,
    /// Store population policy.
    pub policy: StorePolicy,
    /// Coordinated slice assignments (the `ccn_coord` plan).
    pub slices: Vec<SliceAssignment>,
    /// Listen address of every node, indexed by node id; a node
    /// ignores its own entry.
    pub peers: Vec<String>,
}

/// Client-to-node and node-to-node request frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connection preamble: identifies the dialer (`node` = sender
    /// id) and gates the protocol version.
    Hello {
        /// Sender's node id.
        node: u32,
        /// Sender's protocol version.
        version: u8,
    },
    /// Coordinator provisioning push (see [`Provision`]).
    ConfigEpoch(Provision),
    /// A batch of client requests, answered with one tier tally. The
    /// tag correlates the `BatchServed` reply when several batches are
    /// pipelined on one connection; replies come back in send order.
    BatchLookup {
        /// Sender-chosen correlation tag, echoed by the reply.
        tag: u32,
        /// Requested ranks.
        contents: Vec<u64>,
    },
    /// Peer forwards: the sender's clients missed locally and routing
    /// named the receiver holder of every item. A burst of
    /// same-destination misses is coalesced into one frame: one
    /// syscall round-trip instead of one per miss. Each
    /// item carries its own remaining deadline budget; the holder
    /// answers every item in order (partial serves are per-item
    /// verdicts, never a truncated reply).
    PeerForwardBatch {
        /// Sender-chosen correlation tag, echoed by the reply.
        tag: u32,
        /// `(content, budget_us)` per forwarded miss.
        items: Vec<(u64, u32)>,
    },
    /// Liveness probe (works before provisioning).
    HealthProbe,
    /// Snapshot request for the node's counters.
    Stats,
    /// Orderly shutdown; answered with `Bye`.
    Shutdown,
}

impl Request {
    /// Serializes into a frame body (kind byte + payload).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EngineError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serializes the frame body into caller scratch (appended), so a
    /// warm connection encodes without allocating.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EngineError> {
        match self {
            Request::Hello { node, version } => {
                buf.push(kind::HELLO);
                put_u32(buf, *node);
                buf.push(*version);
            }
            Request::ConfigEpoch(p) => {
                buf.push(kind::CONFIG_EPOCH);
                put_u64(buf, p.epoch);
                put_u32(buf, p.nodes);
                put_u64(buf, p.catalogue);
                put_u64(buf, p.capacity);
                put_u64(buf, p.prefix);
                put_u64(buf, p.x);
                put_u64(buf, p.fitted_s.to_bits());
                buf.push(match p.policy {
                    StorePolicy::Provisioned => 0,
                    StorePolicy::Lru => 1,
                });
                let slices = u32::try_from(p.slices.len())
                    .map_err(|_| proto_err("too many slices for one frame"))?;
                put_u32(buf, slices);
                for s in &p.slices {
                    put_u32(buf, s.node);
                    put_u64(buf, s.start);
                    put_u64(buf, s.end);
                }
                let peers = u32::try_from(p.peers.len())
                    .map_err(|_| proto_err("too many peers for one frame"))?;
                put_u32(buf, peers);
                for addr in &p.peers {
                    put_str(buf, addr)?;
                }
            }
            Request::BatchLookup { tag, contents } => {
                encode_batch_lookup_from(buf, *tag, contents)?;
            }
            Request::PeerForwardBatch { tag, items } => {
                encode_forward_batch_from(buf, *tag, items)?;
            }
            Request::HealthProbe => buf.push(kind::HEALTH_PROBE),
            Request::Stats => buf.push(kind::STATS),
            Request::Shutdown => buf.push(kind::SHUTDOWN),
        }
        Ok(())
    }

    /// Parses a frame body as a request.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] for unknown kinds, truncated or
    /// oversized payloads.
    pub fn decode(body: &[u8]) -> Result<Self, EngineError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            kind::BATCH_LOOKUP => {
                let mut contents = Vec::new();
                let tag = decode_batch_lookup_into(body, &mut contents)?;
                return Ok(Request::BatchLookup { tag, contents });
            }
            kind::PEER_FORWARD_BATCH => {
                let mut items = Vec::new();
                let tag = decode_forward_batch_into(body, &mut items)?;
                return Ok(Request::PeerForwardBatch { tag, items });
            }
            kind::HELLO => Request::Hello { node: c.u32()?, version: c.u8()? },
            kind::CONFIG_EPOCH => {
                let epoch = c.u64()?;
                let nodes = c.u32()?;
                let catalogue = c.u64()?;
                let capacity = c.u64()?;
                let prefix = c.u64()?;
                let x = c.u64()?;
                let fitted_s = f64::from_bits(c.u64()?);
                let policy = match c.u8()? {
                    0 => StorePolicy::Provisioned,
                    1 => StorePolicy::Lru,
                    other => return Err(proto_err(format!("unknown store policy code {other}"))),
                };
                let n_slices = c.count(20)?;
                let mut slices = Vec::with_capacity(n_slices);
                for _ in 0..n_slices {
                    slices.push(SliceAssignment { node: c.u32()?, start: c.u64()?, end: c.u64()? });
                }
                let n_peers = c.count(2)?;
                let mut peers = Vec::with_capacity(n_peers);
                for _ in 0..n_peers {
                    peers.push(c.str()?);
                }
                Request::ConfigEpoch(Provision {
                    epoch,
                    nodes,
                    catalogue,
                    capacity,
                    prefix,
                    x,
                    fitted_s,
                    policy,
                    slices,
                    peers,
                })
            }
            kind::HEALTH_PROBE => Request::HealthProbe,
            kind::STATS => Request::Stats,
            kind::SHUTDOWN => Request::Shutdown,
            other => return Err(proto_err(format!("unknown request kind {other:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

/// Node-to-client and node-to-node response frames.
// `StatsReply` carries its snapshot by value: the frozen benchmark
// matches it out of the variant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Config push acknowledged; carries the node's (possibly
    /// unchanged) current epoch.
    EpochAck {
        /// The node's config epoch after processing the push.
        epoch: u64,
    },
    /// Tier tally for one batch lookup; the four counts sum to the
    /// batch size.
    BatchServed {
        /// The tag of the `BatchLookup` this reply answers.
        tag: u32,
        /// Served from the node's own store.
        local: u64,
        /// Served by a peer's coordinated slice.
        peer: u64,
        /// Fell through to origin.
        origin: u64,
        /// Refused (only before provisioning).
        shed: u64,
    },
    /// Per-item verdicts for one `PeerForwardBatch`, in item order;
    /// `outcomes.len()` always equals the batch's item count.
    ForwardBatchReply {
        /// The tag of the batch this reply answers.
        tag: u32,
        /// One [`FWD_HIT`] / [`FWD_MISS`] / [`FWD_REFUSED`] per item.
        outcomes: Vec<u8>,
    },
    /// Handshake answer to `Hello`, carrying the node's protocol
    /// version; a version-mismatched `Hello` is answered `Refused`
    /// and the connection closed, so mixed-version clusters fail at
    /// connect time.
    HelloAck {
        /// The node's protocol version.
        version: u8,
    },
    /// Health probe answer.
    HealthAck {
        /// The node's config epoch (0 = not yet provisioned).
        epoch: u64,
    },
    /// Counter snapshot.
    StatsReply(NodeStatsSnapshot),
    /// Shutdown acknowledged.
    Bye,
    /// The node cannot serve the request (e.g. not yet provisioned).
    Refused {
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// Serializes into a frame body (kind byte + payload).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EngineError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serializes the frame body into caller scratch (appended).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EngineError> {
        match self {
            Response::EpochAck { epoch } => {
                buf.push(kind::EPOCH_ACK);
                put_u64(buf, *epoch);
            }
            Response::BatchServed { tag, local, peer, origin, shed } => {
                buf.push(kind::BATCH_SERVED);
                put_u32(buf, *tag);
                put_u64(buf, *local);
                put_u64(buf, *peer);
                put_u64(buf, *origin);
                put_u64(buf, *shed);
            }
            Response::ForwardBatchReply { tag, outcomes } => {
                encode_forward_batch_reply_from(buf, *tag, outcomes)?;
            }
            Response::HelloAck { version } => {
                buf.push(kind::HELLO_ACK);
                buf.push(*version);
            }
            Response::HealthAck { epoch } => {
                buf.push(kind::HEALTH_ACK);
                put_u64(buf, *epoch);
            }
            Response::StatsReply(stats) => {
                buf.push(kind::STATS_REPLY);
                let fields = stats.fields();
                put_u32(buf, fields.len() as u32);
                for v in fields {
                    put_u64(buf, v);
                }
            }
            Response::Bye => buf.push(kind::BYE),
            Response::Refused { reason } => {
                buf.push(kind::REFUSED);
                put_str(buf, reason)?;
            }
        }
        Ok(())
    }

    /// Parses a frame body as a response.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] for unknown kinds or truncated
    /// payloads.
    pub fn decode(body: &[u8]) -> Result<Self, EngineError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            kind::BATCH_SERVED => {
                let (tag, local, peer, origin, shed) = decode_batch_served(body)?;
                return Ok(Response::BatchServed { tag, local, peer, origin, shed });
            }
            kind::FORWARD_BATCH_REPLY => {
                let (tag, outcomes) = parse_forward_batch_reply(body)?;
                return Ok(Response::ForwardBatchReply { tag, outcomes: outcomes.to_vec() });
            }
            kind::EPOCH_ACK => Response::EpochAck { epoch: c.u64()? },
            kind::HELLO_ACK => Response::HelloAck { version: c.u8()? },
            kind::HEALTH_ACK => Response::HealthAck { epoch: c.u64()? },
            kind::STATS_REPLY => {
                let count = c.count(8)?;
                let mut fields = Vec::with_capacity(count);
                for _ in 0..count {
                    fields.push(c.u64()?);
                }
                Response::StatsReply(NodeStatsSnapshot::from_fields(&fields))
            }
            kind::BYE => Response::Bye,
            kind::REFUSED => Response::Refused { reason: c.str()? },
            other => return Err(proto_err(format!("unknown response kind {other:#04x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

// The batch frames' one codec. The hot path — pipelined batch lookups
// and batched peer forwards — encodes from and decodes into
// caller-owned scratch with these helpers so a warm connection never
// allocates; the enum codecs above delegate to them.

pub(super) fn encode_batch_lookup_from(
    buf: &mut Vec<u8>,
    tag: u32,
    contents: &[u64],
) -> Result<(), EngineError> {
    buf.push(kind::BATCH_LOOKUP);
    put_u32(buf, tag);
    let count = u32::try_from(contents.len()).map_err(|_| proto_err("batch exceeds u32 count"))?;
    put_u32(buf, count);
    for &c in contents {
        put_u64(buf, c);
    }
    Ok(())
}

/// Decodes a `BatchLookup` body, *appending* its ranks to `contents`
/// (a serve worker gathers several frames into one run); on an error
/// part of the ranks may have been appended.
pub(super) fn decode_batch_lookup_into(
    body: &[u8],
    contents: &mut Vec<u64>,
) -> Result<u32, EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::BATCH_LOOKUP {
        return Err(proto_err(format!("expected BatchLookup, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.count(8)?;
    contents.reserve(count);
    for _ in 0..count {
        contents.push(c.u64()?);
    }
    c.done()?;
    Ok(tag)
}

/// Decodes a `BatchServed` body as `(tag, local, peer, origin, shed)`.
pub(super) fn decode_batch_served(body: &[u8]) -> Result<(u32, u64, u64, u64, u64), EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::BATCH_SERVED {
        return Err(proto_err(format!("expected BatchServed, got kind {k:#04x}")));
    }
    let out = (c.u32()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?);
    c.done()?;
    Ok(out)
}

pub(super) fn encode_forward_batch_from(
    buf: &mut Vec<u8>,
    tag: u32,
    items: &[(u64, u32)],
) -> Result<(), EngineError> {
    buf.push(kind::PEER_FORWARD_BATCH);
    put_u32(buf, tag);
    let count =
        u32::try_from(items.len()).map_err(|_| proto_err("forward batch exceeds u32 count"))?;
    put_u32(buf, count);
    for &(content, budget_us) in items {
        put_u64(buf, content);
        put_u32(buf, budget_us);
    }
    Ok(())
}

pub(super) fn decode_forward_batch_into(
    body: &[u8],
    items: &mut Vec<(u64, u32)>,
) -> Result<u32, EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::PEER_FORWARD_BATCH {
        return Err(proto_err(format!("expected PeerForwardBatch, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.count(12)?;
    items.clear();
    items.reserve(count);
    for _ in 0..count {
        items.push((c.u64()?, c.u32()?));
    }
    c.done()?;
    Ok(tag)
}

pub(super) fn encode_forward_batch_reply_from(
    buf: &mut Vec<u8>,
    tag: u32,
    outcomes: &[u8],
) -> Result<(), EngineError> {
    buf.push(kind::FORWARD_BATCH_REPLY);
    put_u32(buf, tag);
    let count = u32::try_from(outcomes.len()).map_err(|_| proto_err("reply exceeds u32 count"))?;
    put_u32(buf, count);
    buf.extend_from_slice(outcomes);
    Ok(())
}

/// Parses a `ForwardBatchReply` body as `(tag, outcomes)` without
/// copying the outcome bytes out of the receive buffer.
pub(super) fn parse_forward_batch_reply(body: &[u8]) -> Result<(u32, &[u8]), EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::FORWARD_BATCH_REPLY {
        return Err(proto_err(format!("expected ForwardBatchReply, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.count(1)?;
    let outcomes = c.take(count)?;
    c.done()?;
    Ok((tag, outcomes))
}

// One field list generates the node's live counters, the snapshot
// that `StatsReply` carries and the names reports render it under, so
// the three cannot drift apart.

macro_rules! node_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// A node's live counters (see `node`), all relaxed.
        #[derive(Default)]
        pub(super) struct NodeStats {
            $(pub(super) $field: AtomicU64,)+
        }

        /// Plain snapshot of a node's counters, carried in
        /// `StatsReply` frames. Field order is the wire order; a
        /// shorter reply decodes with the missing tail fields zero, so
        /// the snapshot can grow without breaking older peers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct NodeStatsSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl NodeStats {
            pub(super) fn snapshot(&self) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl NodeStatsSnapshot {
            /// Every counter's name, in wire order.
            pub const FIELD_NAMES: &'static [&'static str] = &[$(stringify!($field),)+];

            /// Every counter's value, in wire order (the order of
            /// [`Self::FIELD_NAMES`]).
            #[must_use]
            pub fn fields(&self) -> Vec<u64> {
                vec![$(self.$field,)+]
            }

            fn from_fields(fields: &[u64]) -> Self {
                let mut it = fields.iter().copied();
                Self {
                    $($field: it.next().unwrap_or(0),)+
                }
            }
        }
    };
}

node_stats! {
    /// Client lookups offered to this node.
    lookups,
    /// Lookups served from this node's own store.
    local,
    /// Lookups served by a peer's coordinated slice over the wire.
    peer,
    /// Lookups that fell through to origin.
    origin,
    /// Lookups refused because the node was not yet provisioned.
    shed,
    /// Peer-forward frames this node answered as holder.
    forwards_in,
    /// Forwards answered as holder hits.
    forward_hits,
    /// Forwards answered as holder misses.
    forward_misses,
    /// Peer-forward frames this node sent as client edge.
    forwards_out,
    /// Forward retries after a holder refused.
    retried,
    /// Lookups routed to a rendezvous survivor instead of the primary.
    failed_over,
    /// Forwards abandoned because the deadline expired on the socket.
    deadline_expired,
    /// Forwards degraded to origin by socket failure or retry
    /// exhaustion.
    degraded,
    /// Peers this node marked down after consecutive socket failures.
    marked_down,
    /// Down peers restored by the background health prober.
    revived,
    /// Config epochs accepted (strictly newer than the current one).
    epochs_accepted,
    /// Connections accepted by the listener.
    connections,
    /// Completed forward round-trips with a measured RTT.
    rtt_count,
    /// Sum of measured forward RTTs, microseconds.
    rtt_sum_us,
    /// Minimum measured forward RTT, microseconds (0 if none).
    rtt_min_us,
    /// Maximum measured forward RTT, microseconds.
    rtt_max_us,
    /// The node's config epoch at snapshot time.
    epoch,
    /// `f64::to_bits` of the fitted Zipf exponent carried by the last
    /// accepted provisioning push (0 = static provisioning / no fit).
    /// Sits after `epoch` so an older peer's shorter reply still
    /// decodes with this tail field zero.
    fitted_s_bits,
    /// Frames received on every connection the node accepted and every
    /// forward link it dialled — client traffic included, so a node's
    /// peer traffic is these totals minus its clients' (tail fields:
    /// absent in pre-pipelining replies, decode as zero).
    frames_in,
    /// Frames sent on the same connections as `frames_in`.
    frames_out,
    /// Bytes received on the same connections as `frames_in`.
    bytes_in,
    /// Bytes sent on the same connections as `frames_in`.
    bytes_out,
    /// Coalesced `PeerForwardBatch` frames sent (each covers ≥ 1
    /// forwarded miss; `forwards_out / forward_batches` is the
    /// realized coalescing factor).
    forward_batches,
    /// Connections refused by the connection cap.
    rejected_conns,
    /// Returns of the serve workers' readiness pollers: how often the
    /// node woke up (tail fields: absent in older replies, decode as
    /// zero).
    serve_wakeups,
    /// Shard runs a serve worker handed to another worker's ring —
    /// the part of its frames its own shard did not hold.
    cross_shard_runs,
    /// `BatchLookup` runs served: a worker serves every lookup frame a
    /// connection has already buffered as one run, so client frames
    /// divided by this is the merge factor.
    lookup_runs,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::WireSpec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn roundtrip_request(req: &Request) {
        let body = req.encode().expect("encode");
        let back = Request::decode(&body).expect("decode");
        assert_eq!(*req, back);
    }

    fn roundtrip_response(resp: &Response) {
        let body = resp.encode().expect("encode");
        let back = Response::decode(&body).expect("decode");
        assert_eq!(*resp, back);
    }

    fn sample_provision(epoch: u64, peers: Vec<String>) -> Provision {
        WireSpec::new(peers.len().max(1)).provision(epoch, peers)
    }

    /// One well-formed body per request kind.
    fn request_corpus() -> Vec<Request> {
        vec![
            Request::Hello { node: 7, version: PROTOCOL_VERSION },
            Request::ConfigEpoch(sample_provision(
                3,
                vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
            )),
            Request::BatchLookup { tag: 41, contents: vec![1, 2, 3, u64::MAX] },
            Request::PeerForwardBatch {
                tag: u32::MAX,
                items: vec![(9, 100), (u64::MAX, u32::MAX)],
            },
            Request::HealthProbe,
            Request::Stats,
            Request::Shutdown,
        ]
    }

    /// One well-formed body per response kind.
    fn response_corpus() -> Vec<Response> {
        vec![
            Response::EpochAck { epoch: 12 },
            Response::BatchServed { tag: 17, local: 1, peer: 2, origin: 3, shed: 4 },
            Response::ForwardBatchReply { tag: 23, outcomes: vec![FWD_HIT, FWD_MISS, FWD_REFUSED] },
            Response::HelloAck { version: PROTOCOL_VERSION },
            Response::HealthAck { epoch: 0 },
            Response::StatsReply(NodeStatsSnapshot {
                lookups: 10,
                local: 6,
                origin: 4,
                ..Default::default()
            }),
            Response::Bye,
            Response::Refused { reason: "not provisioned".into() },
        ]
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let (requests, responses) = (request_corpus(), response_corpus());
        assert_eq!(requests.len() + responses.len(), 15, "protocol v3 has fifteen kinds");
        requests.iter().for_each(roundtrip_request);
        responses.iter().for_each(roundtrip_response);
    }

    #[test]
    fn truncated_and_unknown_frames_are_typed_errors() {
        let body = Request::BatchLookup { tag: 0, contents: vec![1] }.encode().expect("encode");
        let err = Request::decode(&body[..body.len() - 1]).expect_err("truncated");
        assert!(matches!(err, EngineError::Protocol { .. }));
        // Trailing garbage after a well-formed payload is rejected too.
        let mut long = body;
        long.push(0);
        let err = Request::decode(&long).expect_err("trailing bytes");
        assert!(matches!(err, EngineError::Protocol { .. }));
        // Unknown kinds — the retired single-item kinds included.
        for kind in [0x7f, 0x03, 0x05] {
            let err = Request::decode(&[kind, 0, 0, 0, 0, 0, 0, 0, 0]).expect_err("unknown kind");
            assert!(matches!(err, EngineError::Protocol { .. }));
        }
        for kind in [0xff, 0x82, 0x84] {
            let err = Response::decode(&[kind, 0]).expect_err("unknown kind");
            assert!(matches!(err, EngineError::Protocol { .. }));
        }
    }

    #[test]
    fn stats_snapshot_tolerates_shorter_field_lists() {
        let full = NodeStatsSnapshot { lookups: 5, local: 3, ..Default::default() };
        let mut fields = full.fields();
        fields.truncate(2);
        let partial = NodeStatsSnapshot::from_fields(&fields);
        assert_eq!(partial.lookups, 5);
        assert_eq!(partial.local, 3);
        assert_eq!(partial.origin, 0);
    }

    #[test]
    fn provision_fitted_exponent_roundtrips() {
        let mut p = sample_provision(4, vec!["127.0.0.1:4000".into()]);
        p.fitted_s = 1.0625;
        roundtrip_request(&Request::ConfigEpoch(p));
    }

    /// A count field the payload cannot back is rejected before any
    /// reservation — a hostile frame cannot make the decoder reserve
    /// gigabytes off a 4-byte claim, nor even one item more than it
    /// carries.
    #[test]
    fn counts_beyond_the_frame_are_rejected_before_reserving() {
        for count in [2u32, 1_000, u32::MAX] {
            // One item of payload, `count` claimed.
            let mut body = vec![kind::BATCH_LOOKUP];
            put_u32(&mut body, 1);
            put_u32(&mut body, count);
            put_u64(&mut body, 7);
            let mut contents = Vec::new();
            let err = decode_batch_lookup_into(&body, &mut contents).expect_err("oversized");
            assert!(matches!(err, EngineError::Protocol { .. }));
            assert_eq!(contents.capacity(), 0, "count {count} reserved before the check");
            assert!(Request::decode(&body).is_err());

            let mut body = vec![kind::PEER_FORWARD_BATCH];
            put_u32(&mut body, 1);
            put_u32(&mut body, count);
            put_u64(&mut body, 7);
            put_u32(&mut body, 9);
            let mut items = Vec::new();
            let err = decode_forward_batch_into(&body, &mut items).expect_err("oversized");
            assert!(matches!(err, EngineError::Protocol { .. }));
            assert_eq!(items.capacity(), 0, "count {count} reserved before the check");
            assert!(Request::decode(&body).is_err());

            let mut body = vec![kind::FORWARD_BATCH_REPLY];
            put_u32(&mut body, 1);
            put_u32(&mut body, count);
            body.push(FWD_HIT);
            assert!(parse_forward_batch_reply(&body).is_err());
            assert!(Response::decode(&body).is_err());

            let mut body = vec![kind::STATS_REPLY];
            put_u32(&mut body, count);
            put_u64(&mut body, 7);
            assert!(Response::decode(&body).is_err());
        }
    }

    /// What every decoder owes any input: a value or a typed error,
    /// never a panic; and a value re-encodes to the bytes it came
    /// from. The one documented exception is a `StatsReply` with a
    /// field count other than this build's, which decodes leniently
    /// (missing tail fields read zero).
    fn check_hostile(body: &[u8]) -> Result<(), TestCaseError> {
        match Request::decode(body) {
            Ok(req) => prop_assert_eq!(req.encode().expect("re-encode"), body),
            Err(e) => prop_assert!(matches!(e, EngineError::Protocol { .. }), "untyped: {e}"),
        }
        match Response::decode(body) {
            Ok(Response::StatsReply(s)) if body.len() != 5 + 8 * s.fields().len() => {
                let again = Response::StatsReply(s).encode().expect("re-encode");
                prop_assert_eq!(Response::decode(&again).expect("stable"), Response::StatsReply(s));
            }
            Ok(resp) => prop_assert_eq!(resp.encode().expect("re-encode"), body),
            Err(e) => prop_assert!(matches!(e, EngineError::Protocol { .. }), "untyped: {e}"),
        }
        // The scratch decoders never reserve more than the frame backs.
        let mut contents = Vec::new();
        let _ = decode_batch_lookup_into(body, &mut contents);
        prop_assert!(contents.capacity() <= (body.len() / 8).max(4));
        let mut items = Vec::new();
        let _ = decode_forward_batch_into(body, &mut items);
        prop_assert!(items.capacity() <= (body.len() / 12).max(4));
        Ok(())
    }

    proptest! {
        /// Arbitrary byte strings, every surviving kind byte in front
        /// of a random payload, and every well-formed frame with one
        /// byte flipped (the inputs most likely to still decode).
        #[test]
        fn decoders_survive_hostile_bytes(seed in 0u64..u64::MAX, len in 0usize..80) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut noise = |n: usize| -> Vec<u8> {
                (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect()
            };
            check_hostile(&noise(len))?;
            let mut corpus: Vec<Vec<u8>> = Vec::new();
            corpus.extend(request_corpus().iter().map(|r| r.encode().expect("encode")));
            corpus.extend(response_corpus().iter().map(|r| r.encode().expect("encode")));
            for valid in corpus {
                let mut framed = vec![valid[0]];
                framed.extend(noise(len));
                check_hostile(&framed)?;
                let mut flipped = valid.clone();
                let at = noise(1)[0] as usize % flipped.len();
                flipped[at] ^= 1 << (noise(1)[0] % 8);
                check_hostile(&flipped)?;
                check_hostile(&valid[..at])?;
            }
        }

        /// Random tagged batch frames round-trip through the scratch
        /// decoders, every strict prefix is a typed protocol error,
        /// and trailing garbage is rejected.
        #[test]
        fn tagged_frames_roundtrip_and_reject_truncation(
            tag in 0u32..u32::MAX,
            n in 0usize..33,
            seed in 0u64..500,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let contents: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX)).collect();
            let body = Request::BatchLookup { tag, contents: contents.clone() }
                .encode()
                .expect("encode");
            let mut decoded = Vec::new();
            prop_assert_eq!(decode_batch_lookup_into(&body, &mut decoded).expect("decode"), tag);
            prop_assert_eq!(&decoded, &contents);
            for cut in 1..body.len() {
                prop_assert!(
                    matches!(
                        decode_batch_lookup_into(&body[..cut], &mut decoded),
                        Err(EngineError::Protocol { .. })
                    ),
                    "prefix of {cut} bytes must be rejected"
                );
            }
            let items: Vec<(u64, u32)> =
                contents.iter().map(|&c| (c, rng.gen_range(0..u32::MAX))).collect();
            let body = Request::PeerForwardBatch { tag, items: items.clone() }
                .encode()
                .expect("encode");
            let mut decoded = Vec::new();
            prop_assert_eq!(decode_forward_batch_into(&body, &mut decoded).expect("decode"), tag);
            prop_assert_eq!(&decoded, &items);
            let mut long = body;
            long.push(0);
            prop_assert!(matches!(
                decode_forward_batch_into(&long, &mut decoded),
                Err(EngineError::Protocol { .. })
            ));
        }
    }
}
