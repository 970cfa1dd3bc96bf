//! The node server: accept loop, per-connection serve loop, the
//! socket degradation ladder, config-epoch provisioning, and the
//! background health prober.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use ccn_sim::store::ContentStore;
use ccn_sim::ContentId;

use super::codec::{
    decode_batch_lookup_into, decode_forward_batch_into, encode_forward_batch_reply_from, kind,
    NodeStats, NodeStatsSnapshot, Provision, Request, Response, FWD_HIT, FWD_MISS, FWD_REFUSED,
    PROTOCOL_VERSION,
};
use super::conn::{is_timeout, net_err, net_io_err, Conn, WireMeter};
use super::peer::{PeerLink, OUT_BROKEN, OUT_TIMEOUT};
use crate::affinity::ShardPlacement;
use crate::cluster::{shard_store, StorePolicy};
use crate::error::EngineError;
use crate::fault::DegradeConfig;
use crate::routing::{LiveRouting, RoutingTable};
use crate::shard::{IdleStrategy, RunOp, ShardHandle, ShardSpec, ShardedStore};

impl NodeStats {
    fn add(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn record_rtt(&self, rtt: Duration) {
        let us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
        self.rtt_count.fetch_add(1, Ordering::Relaxed);
        self.rtt_sum_us.fetch_add(us, Ordering::Relaxed);
        self.rtt_min_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 { us } else { cur.min(us) })
            })
            .ok();
        self.rtt_max_us.fetch_max(us, Ordering::Relaxed);
    }
}

/// Static configuration of one wire node process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id within the cluster (validated against the
    /// provisioned `nodes` at config-epoch time).
    pub id: usize,
    /// Listen address; `127.0.0.1:0` picks an ephemeral port, the
    /// bound address is reported by [`NodeServer::local_addr`].
    pub listen: String,
    /// Store shards (one pinned single-writer worker each).
    pub shards: usize,
    /// Per-shard ring capacity.
    pub queue_capacity: usize,
    /// Worker idle strategy.
    pub idle: IdleStrategy,
    /// Core placement for shard workers.
    pub placement: ShardPlacement,
    /// Degradation-ladder knobs for the forward path.
    pub degrade: DegradeConfig,
    /// Credit window: tagged frames in flight per node→peer forward
    /// connection (1 = stop-and-wait).
    pub window: usize,
    /// Maximum items coalesced into one `PeerForwardBatch` frame.
    pub wire_batch: usize,
    /// Accept-loop connection cap: excess accepts are answered with a
    /// typed `Refused` frame and dropped instead of spawning a serve
    /// thread.
    pub max_connections: usize,
}

impl NodeConfig {
    /// Defaults for node `id`: one shard, 1024-slot rings, ephemeral
    /// loopback listener, default degradation ladder, no pinning,
    /// window 8 × 64-item forward batches, 1024-connection cap.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Self {
            id,
            listen: "127.0.0.1:0".to_owned(),
            shards: 1,
            queue_capacity: 1024,
            idle: IdleStrategy::spin_then_park(),
            placement: ShardPlacement::disabled(),
            degrade: DegradeConfig::default(),
            window: 8,
            wire_batch: 64,
            max_connections: 1024,
        }
    }
}

/// A provisioned node's runtime: store, routing view, and peer links,
/// swapped atomically as one unit at each accepted config epoch.
struct NodeEngine {
    provision: Provision,
    store: Arc<ShardedStore<()>>,
    handle: ShardHandle<()>,
    routing: LiveRouting,
    peers: Vec<Option<PeerLink>>,
}

struct NodeShared {
    config: NodeConfig,
    engine: RwLock<Option<Arc<NodeEngine>>>,
    epoch: AtomicU64,
    stats: NodeStats,
    shutdown: AtomicBool,
    /// Frame/byte meter shared by every accepted connection and peer
    /// link; folded into `stats` by [`sync_wire_stats`].
    meter: Arc<WireMeter>,
    /// Live (not yet closed) accepted connections, gating the accept
    /// loop's connection cap (`stats.connections` is the monotone
    /// total).
    active_conns: AtomicUsize,
}

impl NodeShared {
    fn current_engine(&self) -> Option<Arc<NodeEngine>> {
        self.engine.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

/// Builds the node's sharded store for provisioning `p`. The rings
/// are MPSC: every accepted connection is a producer, and connections
/// arrive after traffic starts.
fn build_store(
    config: &NodeConfig,
    p: &Provision,
) -> Result<(Arc<ShardedStore<()>>, ShardHandle<()>), EngineError> {
    let shards = config.shards;
    let mut spec = ShardSpec::new(shards, config.queue_capacity).idle(config.idle);
    if config.placement.pin() {
        spec = spec.pin_cores(
            (0..shards).map(|s| Some(config.placement.worker_core(config.id, shards, s))).collect(),
        );
    }
    let slice =
        p.slices.iter().find(|s| s.node as usize == config.id).map_or(0..0, |s| s.start..s.end);
    let store = ShardedStore::try_spawn_with(
        spec,
        |shard| shard_store(p.policy, p.capacity, p.prefix, slice.clone(), shards, shard),
        Arc::new(|_store: &mut dyn ContentStore, _job: ()| {}),
    )?;
    let handle = store.handle();
    Ok((Arc::new(store), handle))
}

fn provision_node(shared: &NodeShared, p: Provision) -> Result<u64, EngineError> {
    let mut guard = shared.engine.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    let current = shared.epoch.load(Ordering::Acquire);
    if p.epoch <= current {
        return Ok(current);
    }
    if shared.config.id >= p.nodes as usize {
        return Err(EngineError::InvalidConfig {
            reason: format!(
                "node id {} outside provisioned cluster of {} nodes",
                shared.config.id, p.nodes
            ),
        });
    }
    let assignments: Vec<ccn_coord::RouterAssignment> = p
        .slices
        .iter()
        .map(|s| ccn_coord::RouterAssignment {
            router: s.node as usize,
            local_prefix: p.prefix,
            slice: s.start..s.end,
        })
        .collect();
    let table = RoutingTable::from_assignments(&assignments, p.nodes as usize)?;
    // An epoch with an identical store layout (the common case:
    // re-provisioning survivors after a revival changed only peer
    // addresses) keeps the store, preserving cache warmth; a layout
    // change rebuilds it.
    let (store, handle) = match guard.as_ref() {
        Some(old) if old.provision.same_layout(&p) => (old.store.clone(), old.handle.clone()),
        _ => build_store(&shared.config, &p)?,
    };
    let peers = (0..p.nodes as usize)
        .map(|n| {
            if n == shared.config.id {
                None
            } else {
                p.peers.get(n).map(|addr| PeerLink::new(n, addr.clone(), shared.meter.clone()))
            }
        })
        .collect();
    let engine = Arc::new(NodeEngine {
        routing: LiveRouting::new(table),
        provision: p.clone(),
        store,
        handle,
        peers,
    });
    *guard = Some(engine);
    shared.epoch.store(p.epoch, Ordering::Release);
    shared.stats.add(&shared.stats.epochs_accepted);
    shared.stats.epoch.store(p.epoch, Ordering::Relaxed);
    shared.stats.fitted_s_bits.store(p.fitted_s.to_bits(), Ordering::Relaxed);
    Ok(p.epoch)
}

/// Marks `holder` down once the consecutive-failure streak crosses
/// the configured threshold, bumping the routing epoch so HRW
/// failover moves exactly that node's share. `failed_items` counts
/// items (not frames), matching the pre-batching per-forward streak
/// dynamics.
fn note_forward_failure(
    shared: &NodeShared,
    engine: &NodeEngine,
    holder: usize,
    failed_items: u64,
) {
    if shared.config.degrade.timeout_threshold == 0 || failed_items == 0 {
        return;
    }
    let Some(link) = engine.peers.get(holder).and_then(Option::as_ref) else {
        return;
    };
    let items = u32::try_from(failed_items).unwrap_or(u32::MAX);
    let streak = link.failures.fetch_add(items, Ordering::Relaxed).saturating_add(items);
    if streak >= shared.config.degrade.timeout_threshold
        && engine.routing.set_live(holder, false).is_some()
    {
        shared.stats.add(&shared.stats.marked_down);
    }
}

/// Reusable grouping of a batch's misses by destination holder — the
/// miss-coalescing hand-off between the probe sweep and the peer
/// rung, so a burst of misses to one peer becomes one
/// `PeerForwardBatch` conversation instead of N single forwards.
/// Holds item *indices* into the caller's batch, so the caller can
/// map verdicts back to input order.
///
/// `reset` keeps the per-holder vectors, so a warm serve loop groups
/// without allocating.
#[derive(Debug, Default)]
struct HolderGroups {
    items: Vec<Vec<usize>>,
    occupied: Vec<usize>,
}

impl HolderGroups {
    /// Clears the grouping for a cluster of `holders` nodes.
    fn reset(&mut self, holders: usize) {
        for group in &mut self.items {
            group.clear();
        }
        self.items.resize_with(holders, Vec::new);
        self.occupied.clear();
    }

    /// Adds batch item `index` to `holder`'s group.
    fn push(&mut self, holder: usize, index: usize) {
        if self.items[holder].is_empty() {
            self.occupied.push(holder);
        }
        self.items[holder].push(index);
    }

    /// Holders with at least one grouped item, in first-seen order.
    fn occupied(&self) -> &[usize] {
        &self.occupied
    }

    /// The batch indices grouped under `holder`.
    fn items(&self, holder: usize) -> &[usize] {
        &self.items[holder]
    }
}

/// Per-connection reusable decode/serve scratch: a warm connection
/// serves batches end to end without allocating.
#[derive(Default)]
struct ServeScratch {
    /// Decoded `BatchLookup` ranks.
    contents: Vec<u64>,
    /// Decoded `PeerForwardBatch` items.
    items: Vec<(u64, u32)>,
    /// The frame's shard run: `(id, admit-on-miss)` going in, `(id,
    /// hit)` coming out.
    ops: Vec<RunOp>,
    /// Misses grouped by destination holder.
    groups: HolderGroups,
    /// Item indices awaiting a verdict in the current retry round.
    pending: Vec<usize>,
    /// Item indices refused this round, retried next round.
    retry: Vec<usize>,
    /// `(content, budget_us)` items for the in-flight forward frames.
    fwd_items: Vec<(u64, u32)>,
    /// Per-item verdict bytes (forward replies in, serve replies out).
    outcomes: Vec<u8>,
}

/// Serves one batch of client lookups, returning `(local, peer,
/// origin)` tier counts (their sum is the batch size). The whole
/// frame is one shard run, in frame order: each op probes, and a miss
/// this node keeps for itself — uncoordinated content, or coordinated
/// content it holds — is served by origin and, under LRU, admitted by
/// that same run, mirroring the in-process cluster. The remaining
/// misses are coalesced by destination holder, so a burst of misses
/// to one peer costs one pipelined frame conversation instead of one
/// round-trip per miss.
///
/// Admission is decided from routing before the run and the tier
/// after it; a liveness flip in between can cost or spare one
/// admission, never a request.
fn serve_batch(
    shared: &NodeShared,
    engine: &NodeEngine,
    scratch: &mut ServeScratch,
) -> (u64, u64, u64) {
    let ServeScratch { contents, ops, groups, pending, retry, fwd_items, outcomes, .. } = scratch;
    let stats = &shared.stats;
    stats.lookups.fetch_add(contents.len() as u64, Ordering::Relaxed);
    let me = shared.config.id;
    let lru = engine.provision.policy == StorePolicy::Lru;
    ops.clear();
    ops.extend(contents.iter().map(|&content| {
        let id = ContentId(content);
        (id, lru && engine.routing.holder(id).is_none_or(|holder| holder == me))
    }));
    engine.handle.run_ops(ops);
    let (mut local, mut peer, mut origin, mut failed_over) = (0u64, 0u64, 0u64, 0u64);
    groups.reset(engine.peers.len());
    for (i, &(id, hit)) in ops.iter().enumerate() {
        if hit {
            local += 1;
            continue;
        }
        match engine.routing.holder(id) {
            Some(holder) if holder != me => {
                if engine.routing.primary(id) != Some(holder) {
                    failed_over += 1;
                }
                groups.push(holder, i);
            }
            _ => origin += 1,
        }
    }
    for gi in 0..groups.occupied().len() {
        let holder = groups.occupied()[gi];
        let (p, o) = forward_group(
            shared,
            engine,
            holder,
            contents,
            groups.items(holder),
            pending,
            retry,
            fwd_items,
            outcomes,
        );
        peer += p;
        origin += o;
    }
    stats.local.fetch_add(local, Ordering::Relaxed);
    stats.peer.fetch_add(peer, Ordering::Relaxed);
    stats.origin.fetch_add(origin, Ordering::Relaxed);
    stats.failed_over.fetch_add(failed_over, Ordering::Relaxed);
    (local, peer, origin)
}

/// Runs the degradation ladder for one holder's coalesced miss group:
/// forward the whole group in pipelined batch frames, retry refused
/// items under backoff, degrade transport failures to origin, honour
/// the shared deadline. Returns `(peer, origin)` counts; every index
/// in `idxs` resolves to exactly one of the two, and the caller
/// publishes them to the tier counters once per frame.
#[allow(clippy::too_many_arguments)]
fn forward_group(
    shared: &NodeShared,
    engine: &NodeEngine,
    holder: usize,
    contents: &[u64],
    idxs: &[usize],
    pending: &mut Vec<usize>,
    retry: &mut Vec<usize>,
    fwd_items: &mut Vec<(u64, u32)>,
    outcomes: &mut Vec<u8>,
) -> (u64, u64) {
    let stats = &shared.stats;
    let Some(link) = engine.peers.get(holder).and_then(Option::as_ref) else {
        stats.degraded.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        return (0, idxs.len() as u64);
    };
    let me = shared.config.id as u32;
    let deadline = shared.config.degrade.forward_deadline;
    let issued = Instant::now();
    pending.clear();
    pending.extend_from_slice(idxs);
    let (mut peer, mut origin) = (0u64, 0u64);
    let mut attempt = 0u32;
    loop {
        let remaining = deadline.saturating_sub(issued.elapsed());
        if remaining.is_zero() {
            stats.deadline_expired.fetch_add(pending.len() as u64, Ordering::Relaxed);
            origin += pending.len() as u64;
            break;
        }
        stats.forwards_out.fetch_add(pending.len() as u64, Ordering::Relaxed);
        let budget_us = u32::try_from(remaining.as_micros()).unwrap_or(u32::MAX);
        fwd_items.clear();
        fwd_items.extend(pending.iter().map(|&i| (contents[i], budget_us)));
        let sent = Instant::now();
        let frames = link.forward_batch(
            me,
            fwd_items,
            remaining,
            shared.config.window,
            shared.config.wire_batch,
            outcomes,
        );
        stats.forward_batches.fetch_add(frames, Ordering::Relaxed);
        retry.clear();
        let mut answered = false;
        let mut failed_items = 0u64;
        for (k, &i) in pending.iter().enumerate() {
            match outcomes.get(k).copied().unwrap_or(OUT_BROKEN) {
                FWD_HIT => {
                    answered = true;
                    peer += 1;
                }
                FWD_MISS => {
                    answered = true;
                    origin += 1;
                }
                FWD_REFUSED => retry.push(i),
                OUT_TIMEOUT => {
                    failed_items += 1;
                    stats.add(&stats.deadline_expired);
                    origin += 1;
                }
                _ => {
                    failed_items += 1;
                    stats.add(&stats.degraded);
                    origin += 1;
                }
            }
        }
        if answered {
            link.failures.store(0, Ordering::Relaxed);
            stats.record_rtt(sent.elapsed());
        }
        note_forward_failure(shared, engine, holder, failed_items);
        if retry.is_empty() {
            break;
        }
        if attempt >= shared.config.degrade.forward_retries {
            stats.degraded.fetch_add(retry.len() as u64, Ordering::Relaxed);
            origin += retry.len() as u64;
            break;
        }
        attempt += 1;
        stats.retried.fetch_add(retry.len() as u64, Ordering::Relaxed);
        std::thread::sleep(shared.config.degrade.retry_backoff * attempt);
        std::mem::swap(pending, retry);
    }
    (peer, origin)
}

/// How long a client should wait for the reply to one `BatchLookup`:
/// the longest [`serve_batch`] can legitimately hold a frame, plus a
/// second of slack. A frame's misses form one group per holder — at
/// most `nodes − 1`, walked one after another — and
/// [`forward_group`] gives each group one `forward_deadline` across
/// all its retries, extended only by its backoff sleeps
/// (`retry_backoff × 1, 2, …, retries`). Anything slower is a wedged
/// node, and the driver sheds its frames.
pub(super) fn frame_reply_timeout(nodes: usize, degrade: &DegradeConfig) -> Duration {
    let retries = degrade.forward_retries;
    let backoff = degrade.retry_backoff.saturating_mul(retries.saturating_mul(retries + 1) / 2);
    let groups = u32::try_from(nodes.saturating_sub(1)).unwrap_or(u32::MAX);
    degrade
        .forward_deadline
        .saturating_add(backoff)
        .saturating_mul(groups)
        .saturating_add(Duration::from_secs(1))
}

/// Serves one coalesced `PeerForwardBatch` as holder, filling one
/// verdict per item into `scratch.outcomes` — always the full item
/// count, so a partial serve is per-item verdicts, never a truncated
/// reply. One shard run per frame: origin serves a holder miss at the
/// requesting edge, and under LRU the holder admits its coordinated
/// content in the run that missed, so traffic attracts the slice into
/// place.
fn serve_forward_batch(shared: &NodeShared, engine: &NodeEngine, scratch: &mut ServeScratch) {
    let ServeScratch { items, ops, outcomes, .. } = scratch;
    let stats = &shared.stats;
    stats.forwards_in.fetch_add(items.len() as u64, Ordering::Relaxed);
    let me = shared.config.id;
    let lru = engine.provision.policy == StorePolicy::Lru;
    ops.clear();
    ops.extend(items.iter().map(|&(content, _budget_us)| {
        let id = ContentId(content);
        (id, lru && engine.routing.holder(id) == Some(me))
    }));
    engine.handle.run_ops(ops);
    outcomes.clear();
    outcomes.extend(ops.iter().map(|&(_, hit)| if hit { FWD_HIT } else { FWD_MISS }));
    let hits = ops.iter().filter(|&&(_, hit)| hit).count() as u64;
    stats.forward_hits.fetch_add(hits, Ordering::Relaxed);
    stats.forward_misses.fetch_add(ops.len() as u64 - hits, Ordering::Relaxed);
}

/// Copies the shared wire meter into the stats counters so a
/// `StatsReply` (and the final run snapshot) carries frame/byte
/// totals.
fn sync_wire_stats(shared: &NodeShared) {
    let m = &shared.meter;
    shared.stats.frames_in.store(m.frames_in.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.frames_out.store(m.frames_out.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.bytes_in.store(m.bytes_in.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.bytes_out.store(m.bytes_out.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One router as a standalone wire-serving process (or thread, for
/// in-process tests): binds, then [`NodeServer::run`] serves until a
/// `Shutdown` frame arrives.
pub struct NodeServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<NodeShared>,
}

impl NodeServer {
    /// Binds the listener without serving yet.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for zero shards or an empty
    /// queue, [`EngineError::Net`] if the bind fails.
    pub fn bind(config: NodeConfig) -> Result<Self, EngineError> {
        if config.shards == 0 || config.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "node needs at least one shard and a non-empty queue".into(),
            });
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| net_err("bind", format!("{}: {e}", config.listen)))?;
        let local_addr = listener.local_addr().map_err(|e| net_io_err("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| net_io_err("bind", &e))?;
        let shared = Arc::new(NodeShared {
            config,
            engine: RwLock::new(None),
            epoch: AtomicU64::new(0),
            stats: NodeStats::default(),
            shutdown: AtomicBool::new(false),
            meter: Arc::new(WireMeter::default()),
            active_conns: AtomicUsize::new(0),
        });
        Ok(Self { listener, local_addr, shared })
    }

    /// The bound listen address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown from another thread (tests); the serve loop
    /// notices within one accept-poll interval.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Serves until a `Shutdown` frame (or [`Self::request_shutdown`])
    /// stops the loop, then returns the final counter snapshot.
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] if the listener itself fails; per-
    /// connection failures only drop that connection.
    pub fn run(&self) -> Result<NodeStatsSnapshot, EngineError> {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            scope.spawn(|| health_prober(shared));
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Connection cap first: a refused connection
                        // never enters the connection count.
                        if shared.active_conns.load(Ordering::Relaxed)
                            >= shared.config.max_connections
                        {
                            shared.stats.add(&shared.stats.rejected_conns);
                            let mut conn = Conn::new(stream, None);
                            let _ = conn.send_response(&Response::Refused {
                                reason: format!(
                                    "connection cap {} reached",
                                    shared.config.max_connections
                                ),
                            });
                            continue;
                        }
                        shared.stats.add(&shared.stats.connections);
                        shared.active_conns.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || {
                            serve_conn(shared, stream);
                            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::Interrupted =>
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => {
                        shared.shutdown.store(true, Ordering::Release);
                        return Err(net_io_err("accept", &e));
                    }
                }
            }
            Ok(())
        })?;
        shared.stats.epoch.store(shared.epoch.load(Ordering::Acquire), Ordering::Relaxed);
        sync_wire_stats(shared);
        Ok(shared.stats.snapshot())
    }
}

/// Background prober: pings peers this node has marked down and
/// restores them in the routing view when they answer again. This is
/// the wire tier's analogue of the in-process op-count probation —
/// wall-clock because a dead *process* produces no ops to count.
fn health_prober(shared: &NodeShared) {
    let my_id = shared.config.id as u32;
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(25));
        let Some(engine) = shared.current_engine() else {
            continue;
        };
        for link in engine.peers.iter().flatten() {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if engine.routing.is_live(link.node) {
                continue;
            }
            if link.probe_health(my_id).is_some() {
                link.failures.store(0, Ordering::Relaxed);
                if engine.routing.set_live(link.node, true).is_some() {
                    shared.stats.add(&shared.stats.revived);
                }
            }
        }
    }
}

/// Receives the next frame on `conn`, retrying idle timeouts until
/// shutdown; `Ok(true)` means a frame is ready in `conn.last_frame()`.
/// A timeout can only be treated as idle on a frame boundary; frames
/// are small enough (≤ [`super::MAX_FRAME`]) that a mid-frame stall means
/// the peer is gone and the connection is dropped by the caller.
fn recv_idle(conn: &mut Conn, shutdown: &AtomicBool) -> Result<bool, EngineError> {
    loop {
        match conn.recv_len() {
            Ok(Some(_)) => return Ok(true),
            Ok(None) => return Ok(false),
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A malformed frame poisons the framing: answer `Refused` once, then
/// the caller drops the connection.
fn refuse_malformed(conn: &mut Conn, e: &EngineError) {
    let _ = conn.send_response(&Response::Refused { reason: e.to_string() });
}

fn serve_conn(shared: &NodeShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut conn = Conn::new(stream, Some(shared.meter.clone()));
    let mut scratch = ServeScratch::default();
    loop {
        match recv_idle(&mut conn, &shared.shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        // The two data-path kinds decode into connection scratch;
        // everything else is control plane and takes the enum path.
        match conn.last_frame().first().copied() {
            Some(kind::BATCH_LOOKUP) => {
                let tag = match decode_batch_lookup_into(conn.last_frame(), &mut scratch.contents) {
                    Ok(tag) => tag,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                let (local, peer, origin, shed) = match shared.current_engine() {
                    Some(engine) => {
                        let (l, p, o) = serve_batch(shared, &engine, &mut scratch);
                        (l, p, o, 0)
                    }
                    None => {
                        let n = scratch.contents.len() as u64;
                        shared.stats.lookups.fetch_add(n, Ordering::Relaxed);
                        shared.stats.shed.fetch_add(n, Ordering::Relaxed);
                        (0, 0, 0, n)
                    }
                };
                let reply = Response::BatchServed { tag, local, peer, origin, shed };
                if conn.send_response(&reply).is_err() {
                    return;
                }
            }
            Some(kind::PEER_FORWARD_BATCH) => {
                let tag = match decode_forward_batch_into(conn.last_frame(), &mut scratch.items) {
                    Ok(tag) => tag,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                match shared.current_engine() {
                    Some(engine) => serve_forward_batch(shared, &engine, &mut scratch),
                    None => {
                        scratch.outcomes.clear();
                        scratch.outcomes.resize(scratch.items.len(), FWD_REFUSED);
                    }
                }
                let sent =
                    conn.send(|buf| encode_forward_batch_reply_from(buf, tag, &scratch.outcomes));
                if sent.is_err() {
                    return;
                }
            }
            _ => {
                let request = match Request::decode(conn.last_frame()) {
                    Ok(r) => r,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                let (response, close) = match handle_control(shared, request) {
                    Ok((resp, close)) => (resp, close),
                    Err(e) => (Response::Refused { reason: e.to_string() }, false),
                };
                if conn.send_response(&response).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// Handles the control-plane requests; returns the reply and whether
/// the connection must close afterwards.
fn handle_control(shared: &NodeShared, request: Request) -> Result<(Response, bool), EngineError> {
    Ok(match request {
        Request::Hello { version, .. } => {
            // A version mismatch closes the connection so mixed
            // clusters fail at the handshake.
            if version == PROTOCOL_VERSION {
                (Response::HelloAck { version: PROTOCOL_VERSION }, false)
            } else {
                (
                    Response::Refused {
                        reason: format!(
                            "protocol version mismatch: client speaks v{version}, \
                             node speaks v{PROTOCOL_VERSION}"
                        ),
                    },
                    true,
                )
            }
        }
        Request::ConfigEpoch(p) => {
            let epoch = provision_node(shared, p)?;
            (Response::EpochAck { epoch }, false)
        }
        // `serve_conn` dispatches the data-path kinds on the kind
        // byte before decoding, so they never arrive here.
        Request::BatchLookup { .. } | Request::PeerForwardBatch { .. } => {
            return Err(EngineError::Protocol {
                reason: "data-path frame on the control path".into(),
            })
        }
        Request::HealthProbe => {
            (Response::HealthAck { epoch: shared.epoch.load(Ordering::Acquire) }, false)
        }
        Request::Stats => {
            shared.stats.epoch.store(shared.epoch.load(Ordering::Acquire), Ordering::Relaxed);
            sync_wire_stats(shared);
            (Response::StatsReply(shared.stats.snapshot()), false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (Response::Bye, true)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::codec::{decode_batch_served, encode_batch_lookup_from};
    use super::super::driver::connect_driver;
    use super::*;
    use crate::net::WireSpec;

    /// Binds node 0 on an ephemeral port and serves it on a thread.
    fn spawn_node(
        config: NodeConfig,
    ) -> (String, std::thread::JoinHandle<Result<NodeStatsSnapshot, EngineError>>) {
        let server = NodeServer::bind(config).expect("bind");
        let addr = server.local_addr().to_string();
        (addr, std::thread::spawn(move || server.run()))
    }

    fn connect(addr: &str) -> Conn {
        connect_driver(addr, Duration::from_secs(2), None).expect("connect")
    }

    fn shutdown(mut conn: Conn) {
        conn.send_request(&Request::Shutdown).expect("shutdown");
        assert_eq!(conn.recv_response().expect("bye"), Response::Bye);
    }

    fn push_epoch(conn: &mut Conn, provision: Provision) -> Response {
        conn.send_request(&Request::ConfigEpoch(provision)).expect("push");
        conn.recv_response().expect("ack")
    }

    /// A batch of one: the `(local, peer, origin, shed)` tally of a
    /// single lookup.
    fn lookup_one(conn: &mut Conn, content: u64) -> (u64, u64, u64, u64) {
        conn.send_request(&Request::BatchLookup { tag: 0, contents: vec![content] })
            .expect("lookup");
        match conn.recv_response().expect("served") {
            Response::BatchServed { tag: 0, local, peer, origin, shed } => {
                (local, peer, origin, shed)
            }
            other => panic!("unexpected lookup answer {other:?}"),
        }
    }

    /// Regression: an idle connection must survive past the server's
    /// 200ms per-connection read timeout — misclassifying that
    /// timeout tore down every idle peer link and paced driver
    /// connection, forcing spurious reconnects and degradation.
    #[test]
    fn idle_connection_survives_past_server_read_timeout() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        conn.send_request(&Request::HealthProbe).expect("probe");
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        // Idle well past the server's read timeout, then ask again on
        // the *same* connection.
        std::thread::sleep(Duration::from_millis(450));
        conn.send_request(&Request::HealthProbe).expect("probe after idle");
        assert_eq!(
            conn.recv_response().expect("idle connection must still be served"),
            Response::HealthAck { epoch: 0 }
        );
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn unprovisioned_node_sheds_lookups_but_answers_health() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        conn.send_request(&Request::HealthProbe).expect("probe");
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        assert_eq!(lookup_one(&mut conn, 1), (0, 0, 0, 1), "nothing serves before an epoch");
        shutdown(conn);
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.lookups, 1);
    }

    #[test]
    fn stale_epoch_is_acked_with_current_and_ignored() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        let spec = WireSpec::new(1);
        let p5 = spec.provision(5, vec![addr.clone()]);
        assert_eq!(push_epoch(&mut conn, p5), Response::EpochAck { epoch: 5 });
        let p3 = spec.provision(3, vec![addr.clone()]);
        assert_eq!(
            push_epoch(&mut conn, p3),
            Response::EpochAck { epoch: 5 },
            "a stale push is acked with the current epoch, not applied"
        );
        shutdown(conn);
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.epochs_accepted, 1);
        assert_eq!(stats.epoch, 5);
    }

    #[test]
    fn same_layout_epoch_swap_keeps_lru_warmth() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut spec = WireSpec::new(1);
        spec.policy = StorePolicy::Lru;
        let mut conn = connect(&addr);
        let ack = push_epoch(&mut conn, spec.provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        // Rank 9999 is uncoordinated: the first lookup misses and the
        // LRU edge admits it, the second hits locally.
        assert_eq!(lookup_one(&mut conn, 9_999), (0, 0, 1, 0), "miss + admit");
        assert_eq!(lookup_one(&mut conn, 9_999), (1, 0, 0, 0), "warm hit");
        // A same-layout epoch bump (what survivors see after a
        // revival) must keep the warm store.
        let ack = push_epoch(&mut conn, spec.provision(2, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 2 });
        assert_eq!(
            lookup_one(&mut conn, 9_999),
            (1, 0, 0, 0),
            "cache warmth survives a same-layout epoch swap"
        );
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// Regression: the driver's read timeout was once `deadline ×
    /// (retries + 1) × batch` — minutes at the defaults — from when a
    /// batch's misses were forwarded one by one. It must track what
    /// the ladder can take now: one shared deadline (plus backoff
    /// sleeps) per holder group, whatever the batch size.
    #[test]
    fn frame_reply_timeout_covers_one_deadline_per_holder_group() {
        let degrade = DegradeConfig {
            forward_deadline: Duration::from_millis(500),
            forward_retries: 2,
            retry_backoff: Duration::from_millis(10),
            ..DegradeConfig::default()
        };
        // 3 nodes → 2 groups × (500 ms + 10 ms × (1 + 2)) + 1 s slack.
        assert_eq!(frame_reply_timeout(3, &degrade), Duration::from_millis(2 * 530 + 1_000));
        // A lone node forwards nothing: only the slack remains.
        assert_eq!(frame_reply_timeout(1, &degrade), Duration::from_secs(1));
        let defaults = frame_reply_timeout(4, &DegradeConfig::default());
        assert!(defaults < Duration::from_secs(10), "seconds, not minutes: {defaults:?}");
        let huge = DegradeConfig { forward_deadline: Duration::MAX, ..degrade };
        assert_eq!(frame_reply_timeout(3, &huge), Duration::MAX, "saturates, never panics");
    }

    /// What protocol v3 retired is refused like any unknown input: the
    /// single-item lookup and forward kinds, and a v2 `Hello`, each get
    /// one typed `Refused` and a closed connection — so a stale peer
    /// fails at its first frame instead of desynchronizing mid-stream.
    #[test]
    fn retired_kinds_and_a_v2_hello_are_refused_and_closed() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let retired_lookup: &[u8] = &[0x03, 1, 0, 0, 0, 0, 0, 0, 0];
        let retired_forward: &[u8] = &[0x05, 1, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x27, 0, 0];
        let v2_hello = Request::Hello { node: 1, version: 2 }.encode().expect("encode");
        for (body, label) in [
            (retired_lookup, "Lookup 0x03"),
            (retired_forward, "PeerForward 0x05"),
            (v2_hello.as_slice(), "v2 Hello"),
        ] {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            let mut conn = Conn::new(stream, None);
            conn.send(|buf| {
                buf.extend_from_slice(body);
                Ok(())
            })
            .expect("send");
            assert!(
                matches!(conn.recv_response().expect("reply"), Response::Refused { .. }),
                "{label} must be refused"
            );
            assert!(matches!(conn.recv_len(), Ok(None)), "{label}: node must hang up");
        }
        // A current-version dial still completes.
        shutdown(connect(&addr));
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.lookups + stats.forwards_in, 0, "a refused frame serves nothing");
    }

    /// Pipelining contract on the node side: frames are answered
    /// strictly in receipt order, each reply carrying its frame's tag
    /// and a tally covering exactly that frame's requests.
    #[test]
    fn pipelined_frames_are_answered_in_order_with_matching_tags() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        let ack = push_epoch(&mut conn, WireSpec::new(1).provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        // Three frames in flight before the first reply is read.
        let batches: [&[u64]; 3] = [&[1, 2, 3], &[4], &[5, 6]];
        for (tag, contents) in batches.iter().enumerate() {
            conn.send(|buf| encode_batch_lookup_from(buf, tag as u32 + 10, contents))
                .expect("send");
        }
        for (tag, contents) in batches.iter().enumerate() {
            assert!(matches!(conn.recv_len(), Ok(Some(_))), "reply {tag} must arrive");
            let (got, local, peer, origin, shed) =
                decode_batch_served(conn.last_frame()).expect("decode");
            assert_eq!(got, tag as u32 + 10, "replies must drain in send order");
            assert_eq!(
                local + peer + origin + shed,
                contents.len() as u64,
                "each tally covers exactly its frame"
            );
        }
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// The accept loop sheds connections over the configured cap with
    /// a typed `Refused` frame instead of spawning unboundedly.
    #[test]
    fn connection_cap_refuses_excess_accepts() {
        let mut config = NodeConfig::new(0);
        config.max_connections = 1;
        let (addr, join) = spawn_node(config);
        let first = connect(&addr);
        let err = connect_driver(&addr, Duration::from_secs(2), None)
            .expect_err("second connection must be refused at the cap");
        assert!(
            err.to_string().contains("connection cap"),
            "refusal must name the cap, got: {err}"
        );
        shutdown(first);
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.rejected_conns, 1);
        assert_eq!(stats.connections, 1, "a refused accept must not be counted");
    }

    /// The allocation-free codec, proven: once the connection's
    /// scratch buffers are warm, a driver thread pushes pipelined
    /// frames and drains tallies without a single heap allocation.
    /// The counter is thread-local, so the node's own threads cannot
    /// pollute the measurement.
    #[test]
    fn warm_connection_serves_frames_without_allocating() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        let ack = push_epoch(&mut conn, WireSpec::new(1).provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        let contents: Vec<u64> = (0..64).collect();
        let mut exchange = |tags: std::ops::Range<u32>| {
            for tag in tags.clone() {
                conn.send(|buf| encode_batch_lookup_from(buf, tag, &contents)).expect("send");
            }
            for tag in tags {
                assert!(matches!(conn.recv_len(), Ok(Some(_))));
                let (got, ..) = decode_batch_served(conn.last_frame()).expect("decode");
                assert_eq!(got, tag);
            }
        };
        // Warm-up: grows the encode/decode scratch to steady state.
        exchange(0..4);
        let before = crate::alloc_count::allocations();
        exchange(4..36);
        let after = crate::alloc_count::allocations();
        assert_eq!(
            after - before,
            0,
            "warm frame I/O must not allocate, saw {} allocations over 32 round trips",
            after - before
        );
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// The serve path itself, proven allocation-free under LRU: this
    /// thread plays node 0's connection thread — it calls
    /// [`serve_batch`] and [`serve_forward_batch`] directly, so the
    /// thread-local counter sees exactly what a connection thread
    /// would do — against a live node 1. Every frame mixes local
    /// hits, edge admits, holder admits and forwards over the peer
    /// link.
    #[test]
    fn warm_lru_serve_path_allocates_nothing() {
        let (addr1, join) = spawn_node(NodeConfig::new(1));
        let node0 = NodeServer::bind(NodeConfig::new(0)).expect("bind");
        let mut spec = WireSpec::new(2);
        spec.policy = StorePolicy::Lru;
        let provision = spec.provision(1, vec![node0.local_addr().to_string(), addr1.clone()]);
        let mut conn = connect(&addr1);
        assert_eq!(push_epoch(&mut conn, provision.clone()), Response::EpochAck { epoch: 1 });
        provision_node(&node0.shared, provision.clone()).expect("provision node 0");
        let shared = &*node0.shared;
        let engine = shared.current_engine().expect("provisioned");
        let held_by = |node: u32| {
            let slice = provision.slices.iter().find(|s| s.node == node).expect("slice");
            slice.start..slice.end
        };
        // 16 ranks node 0 holds, 16 node 1 holds, 32 nobody coordinates;
        // `shift` moves every window so each frame also evicts.
        let frame = |shift: u64| -> Vec<u64> {
            let mine = held_by(0).skip(shift as usize % 8).take(16);
            let theirs = held_by(1).skip(shift as usize % 8).take(16);
            mine.chain(theirs).chain((0..32).map(|i| 5_000 + 40 * shift + i)).collect()
        };
        let frames: Vec<Vec<u64>> = (0..8).map(frame).collect();
        let mut scratch = ServeScratch::default();
        let serve = |scratch: &mut ServeScratch, contents: &[u64]| {
            scratch.contents.clear();
            scratch.contents.extend_from_slice(contents);
            let (local, peer, origin) = serve_batch(shared, &engine, scratch);
            assert_eq!(local + peer + origin, contents.len() as u64);
            scratch.items.clear();
            scratch.items.extend(contents.iter().map(|&c| (c, 1_000_000)));
            serve_forward_batch(shared, &engine, scratch);
            assert_eq!(scratch.outcomes.len(), contents.len());
        };
        // Warm-up: dials the peer link, grows every scratch buffer.
        for contents in &frames {
            serve(&mut scratch, contents);
        }
        let before = crate::alloc_count::allocations();
        for _ in 0..4 {
            for contents in &frames {
                serve(&mut scratch, contents);
            }
        }
        let allocated = crate::alloc_count::allocations() - before;
        assert_eq!(allocated, 0, "warm LRU serve path allocated {allocated} times over 32 frames");
        let stats = shared.stats.snapshot();
        assert!(stats.forwards_out > 0 && stats.peer > 0, "frames must cross the peer link");
        assert!(stats.forward_hits > 0, "the holder must have admitted what it missed");
        assert_eq!(stats.degraded + stats.deadline_expired + stats.retried, 0);
        drop(engine);
        drop(node0);
        shutdown(conn);
        join.join().expect("join").expect("run");
    }
}
