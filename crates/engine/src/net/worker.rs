//! A node's serve worker: one thread that owns one shard's store,
//! a share of the node's connections behind one readiness poller, and
//! its own forward link to every peer. It reads what a connection
//! sent, runs it against its store inline, writes the replies, and
//! goes back to the poller — run to completion, one wake-up per read:
//! every `BatchLookup` one read delivered is served as one run.
//!
//! **The one liveness rule: a worker never waits without pumping.**
//! Whatever it waits for — a peer's `ForwardBatchReply`, a backoff, a
//! full socket — it waits in [`Worker::pump`], which keeps executing
//! its ring (other workers' cross-shard runs, store swaps) and keeps
//! serving the frames that can never wait: `Hello`, `HealthProbe` and
//! `PeerForwardBatch`, pure store ops that finish without a wait of
//! their own. Two nodes forwarding to each other therefore always
//! answer each other. Client `BatchLookup`s and control frames that
//! arrive during a wait are parked and served from the top of the loop,
//! in arrival order per connection.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccn_sim::ContentId;

use super::codec::{
    decode_batch_lookup_into, decode_forward_batch_into, encode_forward_batch_reply_from, kind,
    Provision, Request, Response, FWD_HIT, FWD_MISS, FWD_REFUSED, PROTOCOL_VERSION,
};
use super::conn::{is_timeout, net_err, net_io_err, Conn, Polled};
use super::node::{NodeEngine, NodeShared};
use super::peer::{Link, OUT_BROKEN, OUT_TIMEOUT};
use super::poll::{Event, EventFd, Poller, READABLE, WRITABLE};
use crate::cluster::StorePolicy;
use crate::error::EngineError;
use crate::shard::{RunOp, ShardOwner};

/// Poller token of the worker's wake-up eventfd.
const WAKE: u64 = u64::MAX;
/// Poller token of the listener (worker 0 only).
const LISTENER: u64 = u64::MAX - 1;
/// A token no source has: what a wait that only its deadline ends
/// watches for.
const NOTHING: u64 = u64::MAX - 2;
/// Forward links are registered under `LINK_BASE + peer id`, accepted
/// connections under their slot index, which stays below it.
pub(super) const LINK_BASE: u64 = 1 << 32;

/// Readiness reports taken per poller return.
const EVENTS: usize = 16;

/// Reusable grouping of a batch's misses by destination holder — the
/// miss-coalescing hand-off between the shard run and the peer rung,
/// so a burst of misses to one peer becomes one `PeerForwardBatch`
/// conversation instead of N single forwards. Holds item *indices*
/// into the caller's batch, so verdicts map back to input order.
/// `reset` keeps the per-holder vectors: a warm worker groups without
/// allocating.
#[derive(Default)]
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
}

/// Where one client lookup was served; the discriminants index a
/// [`tally`].
#[derive(Clone, Copy)]
enum Tier {
    Local,
    Peer,
    Origin,
    Shed,
}

/// The `[local, peer, origin, shed]` counts of `tiers`.
fn tally(tiers: &[Tier]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for &tier in tiers {
        counts[tier as usize] += 1;
    }
    counts
}

/// Reusable state of the one lookup run a worker serves at a time:
/// every `BatchLookup` one connection had buffered, in receipt order.
#[derive(Default)]
struct LookupScratch {
    /// Decoded ranks of every frame in the run.
    contents: Vec<u64>,
    /// `(tag, end)` per frame: its ranks are `contents[previous
    /// end..end]`.
    frames: Vec<(u32, usize)>,
    /// Each item's holder, routed once from one table snapshot.
    holders: Vec<Option<usize>>,
    /// The shard run: `(id, admit-on-miss)` going in, `(id, hit)`
    /// coming out.
    ops: Vec<RunOp>,
    /// Each item's tier.
    tiers: Vec<Tier>,
    /// Misses grouped by destination holder.
    groups: HolderGroups,
    ladder: LadderScratch,
}

/// Reusable state of one holder group's walk down the ladder.
#[derive(Default)]
struct LadderScratch {
    /// Item indices awaiting a verdict in the current retry round.
    pending: Vec<usize>,
    /// Item indices refused this round, retried next round.
    retry: Vec<usize>,
    /// `(content, budget_us)` items for the in-flight forward frames.
    fwd_items: Vec<(u64, u32)>,
    /// Per-item verdict bytes of the forward replies.
    outcomes: Vec<u8>,
}

/// Reusable state of the one `PeerForwardBatch` a worker serves at a
/// time — separate from [`LookupScratch`] because a forward is served
/// while a lookup waits.
#[derive(Default)]
struct HolderScratch {
    items: Vec<(u64, u32)>,
    ops: Vec<RunOp>,
    outcomes: Vec<u8>,
}

/// One accepted connection in a worker's care.
struct ServeConn {
    conn: Conn,
    /// A `BatchLookup` of this connection is mid-ladder: later frames
    /// wait their turn (replies are in receipt order).
    busy: bool,
    /// `conn.last_frame()` is a received frame not yet served.
    held: bool,
    /// Silenced in the poller until the top of the loop resumes it.
    parked: bool,
}

pub(super) struct Worker {
    pub(super) shared: Arc<NodeShared>,
    owner: ShardOwner<TcpStream>,
    pub(super) poller: Poller,
    wake: Arc<EventFd>,
    listener: Option<TcpListener>,
    /// Round-robin cursor over the workers for accepted connections.
    next_deal: usize,
    /// Accepted connections by slot; `free` lists the reusable empty
    /// slots, `closed` the ones emptied since the top of the loop.
    conns: Vec<Option<ServeConn>>,
    free: Vec<usize>,
    closed: Vec<usize>,
    /// Slots parked during a wait, resumed at the top of the loop.
    parked: Vec<usize>,
    /// Connections dealt to this worker, on their way into `conns`.
    inbox: Vec<TcpStream>,
    /// This worker's own forward link per peer, dialled on first use
    /// and valid for the epoch `links_epoch`.
    pub(super) links: Vec<Option<Link>>,
    links_epoch: u64,
    lookup: LookupScratch,
    holder: HolderScratch,
}

impl Worker {
    /// Builds the worker around its shard; worker 0 gets the listener.
    pub(super) fn new(
        shared: Arc<NodeShared>,
        owner: ShardOwner<TcpStream>,
        wake: Arc<EventFd>,
        listener: Option<TcpListener>,
    ) -> Result<Self, EngineError> {
        let poller = Poller::new().map_err(|e| net_io_err("poller", &e))?;
        poller.add(&*wake, WAKE, READABLE).map_err(|e| net_io_err("poller", &e))?;
        if let Some(listener) = &listener {
            poller.add(listener, LISTENER, READABLE).map_err(|e| net_io_err("poller", &e))?;
        }
        Ok(Self {
            shared,
            owner,
            poller,
            wake,
            listener,
            next_deal: 0,
            conns: Vec::new(),
            free: Vec::new(),
            closed: Vec::new(),
            parked: Vec::new(),
            inbox: Vec::new(),
            links: Vec::new(),
            links_epoch: 0,
            lookup: LookupScratch::default(),
            holder: HolderScratch::default(),
        })
    }

    /// Serves until the stop sentinel arrives on the ring.
    pub(super) fn run(mut self) {
        let config = &self.shared.config;
        let core = config.placement.worker_core(config.id, config.shards, self.owner.index);
        config.placement.pin_to(core);
        let mut events = [Event::default(); EVENTS];
        loop {
            // No frame is in service here.
            self.free.append(&mut self.closed);
            self.drain_ring();
            self.resume_parked();
            if self.owner.stopped {
                return;
            }
            let ready = self.wait(&mut events, None);
            for event in &events[..ready] {
                self.dispatch(*event, false);
            }
        }
    }

    /// Executes everything queued on the ring and takes in the
    /// connections it delivered.
    fn drain_ring(&mut self) {
        let Self { owner, inbox, .. } = self;
        while owner.drain(|_, stream| inbox.push(stream)) {}
        while let Some(stream) = self.inbox.pop() {
            self.adopt(stream);
        }
    }

    /// Blocks in the poller behind the ring's sleeping-flag protocol: a
    /// producer that publishes after the flag is up signals the
    /// eventfd, and readiness is level-triggered, so no wake is lost
    /// and `timeout` is only ever a deadline, never a tick.
    fn wait(&mut self, events: &mut [Event], timeout: Option<Duration>) -> usize {
        let poller = &self.poller;
        let Some(ready) = self.owner.park_with(|| poller.wait(events, timeout)) else { return 0 };
        self.shared.stats.add(&self.shared.stats.serve_wakeups);
        ready
    }

    /// Waits until the source registered under `watch` is ready
    /// (`true`) or `until` passes or the worker is told to stop
    /// (`false`), serving meanwhile everything the liveness rule says
    /// can never wait (see the module docs).
    pub(super) fn pump(&mut self, watch: u64, until: Instant) -> bool {
        let mut events = [Event::default(); EVENTS];
        loop {
            self.drain_ring();
            let left = until.saturating_duration_since(Instant::now());
            if self.owner.stopped || left.is_zero() {
                return false;
            }
            let ready = self.wait(&mut events, Some(left));
            let mut watched = false;
            for event in &events[..ready] {
                if event.token() == watch {
                    watched = true;
                } else {
                    self.dispatch(*event, true);
                }
            }
            if watched {
                return true;
            }
        }
    }

    /// Receives the next frame on a connection this worker is
    /// conversing on (`token` is its registration): `Err` carries the
    /// link-local outcome code for a wait that ended without one.
    pub(super) fn await_frame(
        &mut self,
        conn: &mut Conn,
        token: u64,
        until: Instant,
    ) -> Result<(), u8> {
        loop {
            match conn.poll_frame() {
                Ok(Polled::Frame) => return Ok(()),
                Ok(Polled::Pending) => {}
                Ok(Polled::Closed) | Err(_) => return Err(OUT_BROKEN),
            }
            if !self.pump(token, until) {
                return Err(OUT_TIMEOUT);
            }
            conn.mark_ready();
        }
    }

    fn dispatch(&mut self, event: Event, waiting: bool) {
        match event.token() {
            WAKE => self.wake.reset(),
            LISTENER => self.accept(),
            // A link nobody is conversing on has nothing to say: its
            // peer hung up. The next forward redials.
            link if link >= LINK_BASE => {
                if let Some(link) = self.links.get_mut((link - LINK_BASE) as usize) {
                    *link = None;
                }
            }
            slot => self.conn_ready(slot as usize, event.closed(), waiting),
        }
    }

    /// Takes one connection off the listener and deals it to the next
    /// worker in turn (the poller reports again while more wait).
    fn accept(&mut self) {
        let shared = &self.shared;
        let accepted = self.listener.as_ref().expect("only the listener's owner polls it").accept();
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(e) => {
                *crate::shard::lock_recover(&shared.fatal) = Some(net_io_err("accept", &e));
                return shared.stop();
            }
        };
        // Connection cap first: a refused connection never enters the
        // connection count.
        let cap = shared.config.max_connections;
        if shared.active_conns.load(Ordering::Relaxed) >= cap {
            shared.stats.add(&shared.stats.rejected_conns);
            let reason = format!("connection cap {cap} reached");
            let _ = Conn::new(stream, None).send_response(&Response::Refused { reason });
            return;
        }
        shared.stats.add(&shared.stats.connections);
        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        let to = self.next_deal;
        self.next_deal = (to + 1) % shared.config.shards;
        if to == self.owner.index {
            self.adopt(stream);
        } else {
            shared.handle.submit_batch(to, &mut vec![stream]);
        }
    }

    /// Registers a connection dealt to this worker.
    fn adopt(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let _ = stream.set_nodelay(true);
        let registered = stream
            .set_nonblocking(true)
            .and_then(|()| self.poller.add(&stream, slot as u64, READABLE));
        if registered.is_err() {
            self.free.push(slot);
            self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let conn = Conn::new(stream, Some(Arc::clone(&self.shared.meter)));
        self.conns[slot] = Some(ServeConn { conn, busy: false, held: false, parked: false });
    }

    /// Drops a connection; closing its descriptor takes it out of the
    /// poller. Its slot is reusable only from the top of the loop on:
    /// until then a frame mid-ladder on it must find it gone, not find
    /// a newer connection to hand its reply to.
    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.closed.push(slot);
            self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Silences a connection that has to wait its turn, so a level-
    /// triggered poller does not report it over and over meanwhile.
    fn park(&mut self, slot: usize) {
        let Some(sc) = self.conns[slot].as_mut().filter(|sc| !sc.parked) else { return };
        sc.parked = true;
        let _ = self.poller.modify(&sc.conn.stream, slot as u64, 0);
        self.parked.push(slot);
    }

    fn resume_parked(&mut self) {
        while let Some(slot) = self.parked.pop() {
            // The slot may have been closed, even reused, since.
            let Some(sc) = self.conns[slot].as_mut().filter(|sc| sc.parked) else { continue };
            sc.parked = false;
            if self.poller.modify(&sc.conn.stream, slot as u64, READABLE).is_err() {
                self.close(slot);
                continue;
            }
            self.serve_frames(slot, false);
        }
    }

    fn conn_ready(&mut self, slot: usize, closed: bool, waiting: bool) {
        let Some(sc) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        if closed {
            return self.close(slot);
        }
        sc.conn.mark_ready();
        if sc.busy {
            return self.park(slot);
        }
        self.serve_frames(slot, waiting);
    }

    /// Serves the connection's frames until its socket is drained.
    /// While the worker is `waiting` inside another frame's ladder,
    /// only the frames that finish without a wait are served; the
    /// first other one parks the connection.
    fn serve_frames(&mut self, slot: usize, waiting: bool) {
        loop {
            let Some(sc) = self.conns[slot].as_mut() else { return };
            if !std::mem::take(&mut sc.held) {
                match sc.conn.poll_frame() {
                    Ok(Polled::Frame) => {}
                    Ok(Polled::Pending) => return,
                    Ok(Polled::Closed) | Err(_) => return self.close(slot),
                }
            }
            let kind = sc.conn.last_frame()[0];
            if waiting
                && !matches!(kind, kind::HELLO | kind::HEALTH_PROBE | kind::PEER_FORWARD_BATCH)
            {
                sc.held = true;
                return self.park(slot);
            }
            if !self.serve_frame(slot, kind) {
                return self.close(slot);
            }
        }
    }

    /// Serves the frame held by `slot`'s connection and writes its
    /// reply; `false` means the connection must close. A `BatchLookup`
    /// takes every further whole `BatchLookup` the connection has
    /// already buffered with it: they are served as one run and
    /// answered with one `flush`.
    fn serve_frame(&mut self, slot: usize, kind: u8) -> bool {
        let sc = self.conns[slot].as_mut().expect("the caller holds the slot");
        let sent = match kind {
            kind::BATCH_LOOKUP => {
                let LookupScratch { contents, frames, .. } = &mut self.lookup;
                contents.clear();
                frames.clear();
                match decode_batch_lookup_into(sc.conn.last_frame(), contents) {
                    Ok(tag) => frames.push((tag, contents.len())),
                    Err(e) => return refuse_malformed(&mut sc.conn, &e),
                }
                // The merge stops at the first frame that is not a
                // well-formed lookup: it stays buffered and is served
                // (or refused) after this run is answered.
                while let Some(body) = sc.conn.peek_frame().filter(|b| b[0] == kind::BATCH_LOOKUP) {
                    let end = contents.len();
                    let Ok(tag) = decode_batch_lookup_into(body, contents) else {
                        contents.truncate(end);
                        break;
                    };
                    frames.push((tag, contents.len()));
                    let taken = sc.conn.poll_frame();
                    debug_assert!(matches!(taken, Ok(Polled::Frame)), "a peeked frame is buffered");
                }
                sc.busy = true;
                self.serve_lookup();
                // The ladder may have outlived the connection.
                let Some(sc) = self.conns[slot].as_mut() else { return false };
                sc.busy = false;
                let LookupScratch { frames, tiers, .. } = &self.lookup;
                let mut start = 0;
                frames
                    .iter()
                    .try_for_each(|&(tag, end)| {
                        let [local, peer, origin, shed] = tally(&tiers[start..end]);
                        start = end;
                        let served = Response::BatchServed { tag, local, peer, origin, shed };
                        sc.conn.queue(|buf| served.encode_into(buf))
                    })
                    .and_then(|()| sc.conn.flush())
            }
            kind::PEER_FORWARD_BATCH => {
                let decoded =
                    decode_forward_batch_into(sc.conn.last_frame(), &mut self.holder.items);
                let tag = match decoded {
                    Ok(tag) => tag,
                    Err(e) => return refuse_malformed(&mut sc.conn, &e),
                };
                self.serve_forward();
                let sc = self.conns[slot].as_mut().expect("serving a forward polls nothing");
                let outcomes = &self.holder.outcomes;
                sc.conn.send(|buf| encode_forward_batch_reply_from(buf, tag, outcomes))
            }
            _ => {
                let request = match Request::decode(sc.conn.last_frame()) {
                    Ok(request) => request,
                    Err(e) => return refuse_malformed(&mut sc.conn, &e),
                };
                let (response, close) = self
                    .handle_control(request)
                    .unwrap_or_else(|e| (Response::Refused { reason: e.to_string() }, false));
                let sc = self.conns[slot].as_mut().expect("a control frame polls nothing");
                let sent = sc.conn.send_response(&response);
                if close {
                    return false;
                }
                sent
            }
        };
        match sent {
            Ok(()) => true,
            Err(e) if is_timeout(&e) => self.flush_stalled(slot).is_ok(),
            Err(_) => false,
        }
    }

    /// A reply the socket would not take: waits — pumping — up to
    /// `forward_deadline` for the peer to read, then gives up on the
    /// connection. The connection is not read meanwhile: a client that
    /// does not take replies gets no more of them.
    fn flush_stalled(&mut self, slot: usize) -> Result<(), EngineError> {
        let until = Instant::now() + self.shared.config.degrade.forward_deadline;
        let gone = || net_err("write-frame", "connection closed while its reply waited");
        loop {
            let sc = self.conns[slot].as_ref().ok_or_else(gone)?;
            self.poller
                .modify(&sc.conn.stream, slot as u64, WRITABLE)
                .map_err(|e| net_io_err("poller", &e))?;
            if !self.pump(slot as u64, until) {
                return Err(net_err("write-frame", "peer stopped reading"));
            }
            let sc = self.conns[slot].as_mut().ok_or_else(gone)?;
            match sc.conn.flush() {
                Err(e) if is_timeout(&e) => {}
                flushed => {
                    let interest = if sc.parked { 0 } else { READABLE };
                    let _ = self.poller.modify(&sc.conn.stream, slot as u64, interest);
                    return flushed;
                }
            }
        }
    }

    /// Handles the control-plane requests; returns the reply and
    /// whether the connection must close afterwards.
    fn handle_control(&mut self, request: Request) -> Result<(Response, bool), EngineError> {
        let shared = &self.shared;
        Ok(match request {
            Request::Hello { version: PROTOCOL_VERSION, .. } => {
                (Response::HelloAck { version: PROTOCOL_VERSION }, false)
            }
            // A version mismatch closes the connection so mixed
            // clusters fail at the handshake.
            Request::Hello { version, .. } => {
                let reason = format!(
                    "protocol version mismatch: client speaks v{version}, \
                     node speaks v{PROTOCOL_VERSION}"
                );
                (Response::Refused { reason }, true)
            }
            Request::ConfigEpoch(p) => (Response::EpochAck { epoch: self.provision(&p)? }, false),
            // `serve_frame` dispatches the data-path kinds on the kind
            // byte before decoding, so they never arrive here.
            Request::BatchLookup { .. } | Request::PeerForwardBatch { .. } => {
                return Err(EngineError::Protocol {
                    reason: "data-path frame on the control path".into(),
                })
            }
            Request::HealthProbe => {
                (Response::HealthAck { epoch: shared.epoch.load(Ordering::Acquire) }, false)
            }
            Request::Stats => (Response::StatsReply(shared.snapshot()), false),
            Request::Shutdown => {
                shared.stop();
                (Response::Bye, true)
            }
        })
    }

    /// Applies a config epoch: accepted iff strictly newer, otherwise
    /// answered with the current one. A node whose own store recipe is
    /// unchanged (peer addresses or the fit moved; under LRU, any
    /// layout of the same capacity) keeps every store and its cache
    /// warmth. Otherwise every worker's store is swapped — this one's
    /// inline, the others' through their rings — *before* the new
    /// routing is published, so a frame answered after the `EpochAck`
    /// sees the new layout whichever worker serves it.
    pub(super) fn provision(&mut self, p: &Provision) -> Result<u64, EngineError> {
        let shared = Arc::clone(&self.shared);
        // Another worker's epoch may be waiting for this one's store
        // swap: keep the ring moving while it holds the lock.
        let _applying = loop {
            match shared.provisioning.try_lock() {
                Ok(guard) => break guard,
                Err(std::sync::TryLockError::Poisoned(poisoned)) => break poisoned.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    self.drain_ring();
                    std::thread::yield_now();
                }
            }
        };
        let current = shared.epoch.load(Ordering::Acquire);
        if p.epoch <= current {
            return Ok(current);
        }
        let engine = shared.plan(p)?;
        let (me, shards) = (shared.config.id, shared.config.shards);
        if !shared.current_engine().is_some_and(|old| old.layout.keeps_stores(&engine.layout, me)) {
            let Self { owner, inbox, .. } = self;
            owner.replace_stores(
                &shared.handle,
                |shard| engine.layout.shard_store(me, shards, shard),
                &mut |_, stream| inbox.push(stream),
            );
        }
        shared.publish(engine);
        Ok(p.epoch)
    }

    /// One shard run, this worker's share of it inline.
    fn run_ops(&mut self, ops: &mut [RunOp]) {
        let Self { owner, inbox, shared, .. } = self;
        let crossed = owner.run_ops(&shared.handle, ops, &mut |_, stream| inbox.push(stream));
        shared.stats.cross_shard_runs.fetch_add(crossed as u64, Ordering::Relaxed);
    }

    /// Serves the decoded lookup run in `self.lookup`, one tier per
    /// item into its `tiers`; an unprovisioned node sheds.
    fn serve_lookup(&mut self) {
        let stats = &self.shared.stats;
        let offered = self.lookup.contents.len();
        stats.add(&stats.lookup_runs);
        stats.lookups.fetch_add(offered as u64, Ordering::Relaxed);
        let Some(engine) = self.shared.current_engine() else {
            stats.shed.fetch_add(offered as u64, Ordering::Relaxed);
            self.lookup.tiers.clear();
            return self.lookup.tiers.resize(offered, Tier::Shed);
        };
        if self.links_epoch != engine.epoch {
            // New epoch, new peer addresses: every link redials.
            self.links.clear();
            self.links.resize_with(engine.peers.len(), || None);
            self.links_epoch = engine.epoch;
        }
        let mut scratch = std::mem::take(&mut self.lookup);
        self.serve_batch(&engine, &mut scratch);
        self.lookup = scratch;
    }

    /// The whole run is one shard run, in receipt order: each op
    /// probes, and a miss this node keeps for itself — uncoordinated
    /// content, or coordinated content it holds — is served by origin
    /// and, under LRU, admitted by that same run, mirroring the
    /// in-process cluster. The remaining misses are coalesced by
    /// destination holder, so a burst of misses to one peer costs one
    /// pipelined frame conversation instead of one round-trip per miss.
    ///
    /// Each item is routed once, from one table snapshot, before the
    /// run: its holder decides both whether it may admit and where its
    /// miss goes. A liveness flip during the run is seen by the next
    /// run; it can cost a forward (degraded to origin), never a
    /// request.
    fn serve_batch(&mut self, engine: &NodeEngine, scratch: &mut LookupScratch) {
        let LookupScratch { contents, holders, ops, tiers, groups, ladder, .. } = scratch;
        let me = self.shared.config.id;
        let lru = engine.layout.policy() == StorePolicy::Lru;
        let routing = engine.routing.view();
        holders.clear();
        holders.extend(contents.iter().map(|&content| routing.holder(ContentId(content))));
        ops.clear();
        ops.extend(contents.iter().zip(holders.iter()).map(|(&content, holder)| {
            (ContentId(content), lru && holder.is_none_or(|holder| holder == me))
        }));
        self.run_ops(ops);
        tiers.clear();
        tiers.resize(contents.len(), Tier::Origin);
        let mut failed_over = 0u64;
        groups.reset(engine.peers.len());
        for (i, (&(id, hit), holder)) in ops.iter().zip(holders.iter()).enumerate() {
            if hit {
                tiers[i] = Tier::Local;
            } else if let Some(holder) = holder.filter(|&holder| holder != me) {
                if routing.primary(id) != Some(holder) {
                    failed_over += 1;
                }
                groups.push(holder, i);
            }
        }
        for &holder in &groups.occupied {
            self.forward_group(engine, holder, contents, &groups.items[holder], ladder, tiers);
        }
        let [local, peer, origin, _] = tally(tiers);
        let stats = &self.shared.stats;
        stats.local.fetch_add(local, Ordering::Relaxed);
        stats.peer.fetch_add(peer, Ordering::Relaxed);
        stats.origin.fetch_add(origin, Ordering::Relaxed);
        stats.failed_over.fetch_add(failed_over, Ordering::Relaxed);
    }

    /// Runs the degradation ladder for one holder's coalesced miss
    /// group: forward the whole group in pipelined batch frames, retry
    /// refused items under backoff, degrade transport failures to
    /// origin, honour the shared deadline. Every index in `idxs`
    /// enters at [`Tier::Origin`] in `tiers` and becomes
    /// [`Tier::Peer`] if the holder serves it; the caller publishes the
    /// tier counters once per run.
    fn forward_group(
        &mut self,
        engine: &NodeEngine,
        holder: usize,
        contents: &[u64],
        idxs: &[usize],
        ladder: &mut LadderScratch,
        tiers: &mut [Tier],
    ) {
        let LadderScratch { pending, retry, fwd_items, outcomes } = ladder;
        let shared = Arc::clone(&self.shared);
        let (stats, degrade) = (&shared.stats, &shared.config.degrade);
        let Some(peer_link) = engine.peers.get(holder).and_then(Option::as_ref) else {
            stats.degraded.fetch_add(idxs.len() as u64, Ordering::Relaxed);
            return;
        };
        let until = Instant::now() + degrade.forward_deadline;
        pending.clear();
        pending.extend_from_slice(idxs);
        let mut attempt = 0u32;
        loop {
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                stats.deadline_expired.fetch_add(pending.len() as u64, Ordering::Relaxed);
                break;
            }
            stats.forwards_out.fetch_add(pending.len() as u64, Ordering::Relaxed);
            let budget_us = u32::try_from(remaining.as_micros()).unwrap_or(u32::MAX);
            fwd_items.clear();
            fwd_items.extend(pending.iter().map(|&i| (contents[i], budget_us)));
            let sent = Instant::now();
            let frames = self.forward_batch(peer_link, fwd_items, until, outcomes);
            stats.forward_batches.fetch_add(frames, Ordering::Relaxed);
            retry.clear();
            let mut answered = false;
            let mut failed_items = 0u32;
            for (k, &i) in pending.iter().enumerate() {
                match outcomes.get(k).copied().unwrap_or(OUT_BROKEN) {
                    FWD_HIT => {
                        answered = true;
                        tiers[i] = Tier::Peer;
                    }
                    FWD_MISS => answered = true,
                    FWD_REFUSED => retry.push(i),
                    OUT_TIMEOUT => {
                        failed_items += 1;
                        stats.add(&stats.deadline_expired);
                    }
                    _ => {
                        failed_items += 1;
                        stats.add(&stats.degraded);
                    }
                }
            }
            if answered {
                peer_link.streak.reset();
                stats.record_rtt(sent.elapsed());
            }
            // Consecutive failed items (not frames) against one holder
            // mark it down, bumping the routing epoch so HRW failover
            // moves exactly that node's share.
            if failed_items > 0
                && peer_link.streak.fail(failed_items, degrade.timeout_threshold)
                && engine.routing.set_live(holder, false).is_some()
            {
                stats.add(&stats.marked_down);
            }
            if retry.is_empty() {
                break;
            }
            if attempt >= degrade.forward_retries {
                stats.degraded.fetch_add(retry.len() as u64, Ordering::Relaxed);
                break;
            }
            attempt += 1;
            stats.retried.fetch_add(retry.len() as u64, Ordering::Relaxed);
            self.pump(NOTHING, Instant::now() + degrade.backoff(attempt));
            std::mem::swap(pending, retry);
        }
    }

    /// Serves the decoded `PeerForwardBatch` in `self.holder` as
    /// holder, filling one verdict per item into its `outcomes` —
    /// always the full item count, so a partial serve is per-item
    /// verdicts, never a truncated reply. One shard run per frame:
    /// origin serves a holder miss at the requesting edge, and under
    /// LRU the holder admits its coordinated content in the run that
    /// missed, so traffic attracts the slice into place.
    fn serve_forward(&mut self) {
        let stats = &self.shared.stats;
        let count = self.holder.items.len();
        stats.forwards_in.fetch_add(count as u64, Ordering::Relaxed);
        self.holder.outcomes.clear();
        let Some(engine) = self.shared.current_engine() else {
            return self.holder.outcomes.resize(count, FWD_REFUSED);
        };
        let me = self.shared.config.id;
        let lru = engine.layout.policy() == StorePolicy::Lru;
        let routing = engine.routing.view();
        let mut ops = std::mem::take(&mut self.holder.ops);
        ops.clear();
        ops.extend(self.holder.items.iter().map(|&(content, _budget_us)| {
            let id = ContentId(content);
            (id, lru && routing.holder(id) == Some(me))
        }));
        self.run_ops(&mut ops);
        self.holder
            .outcomes
            .extend(ops.iter().map(|&(_, hit)| if hit { FWD_HIT } else { FWD_MISS }));
        let hits = ops.iter().filter(|&&(_, hit)| hit).count() as u64;
        self.holder.ops = ops;
        let stats = &self.shared.stats;
        stats.forward_hits.fetch_add(hits, Ordering::Relaxed);
        stats.forward_misses.fetch_add(count as u64 - hits, Ordering::Relaxed);
    }
}

/// A malformed frame poisons the framing: answer `Refused` once, then
/// the connection closes.
fn refuse_malformed(conn: &mut Conn, e: &EngineError) -> bool {
    let _ = conn.send_response(&Response::Refused { reason: e.to_string() });
    false
}

#[cfg(test)]
mod tests {
    use std::io::{Read as _, Write as _};

    use super::super::codec::{decode_batch_served, encode_batch_lookup_from};
    use super::super::node::tests::{
        connect, lookup_one, push_epoch, shutdown, spawn_node, stats_of,
    };
    use super::super::node::{NodeConfig, NodeServer};
    use super::*;
    use crate::net::WireSpec;

    /// One whole frame as it travels: length prefix and body.
    fn framed(request: &Request) -> Vec<u8> {
        let body = request.encode().expect("encode");
        let mut frame = u32::try_from(body.len()).expect("length").to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    /// Idle nodes do not tick: between two `Stats` frames the node's
    /// pollers return once per frame received — here the one
    /// `HealthProbe` and the second `Stats` itself — however long the
    /// connection sat idle in between, and nothing crosses a ring.
    #[test]
    fn an_idle_node_wakes_once_per_frame_received() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        let before = stats_of(&mut conn);
        std::thread::sleep(Duration::from_millis(120));
        conn.send_request(&Request::HealthProbe).expect("probe");
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        std::thread::sleep(Duration::from_millis(120));
        let after = stats_of(&mut conn);
        assert_eq!(after.serve_wakeups - before.serve_wakeups, 2, "one wake-up per frame");
        assert_eq!(after.cross_shard_runs, 0);
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// A connection that says nothing costs nothing and loses nothing:
    /// it is still served after the node has served 10 000 frames to
    /// another connection of the same worker.
    #[test]
    fn idle_connection_is_still_served_after_10_000_frames_to_another() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut idle = connect(&addr);
        let mut busy = connect(&addr);
        for _ in 0..10_000 {
            assert_eq!(lookup_one(&mut busy, 1), (0, 0, 0, 1));
        }
        idle.send_request(&Request::HealthProbe).expect("probe after idling");
        assert_eq!(idle.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        shutdown(busy);
        join.join().expect("join").expect("run");
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

    /// Connections over the configured cap get a typed `Refused` frame
    /// and are never dealt to a worker.
    #[test]
    fn connection_cap_refuses_excess_accepts() {
        let mut config = NodeConfig::new(0);
        config.max_connections = 1;
        let (addr, join) = spawn_node(config);
        let first = connect(&addr);
        let err = super::super::driver::connect_driver(&addr, Duration::from_secs(2), None)
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

    /// The `(local, peer, origin, shed)` tally of the next reply, which
    /// must be the `BatchServed` of frame `tag`.
    fn served(conn: &mut Conn, tag: u32) -> (u64, u64, u64, u64) {
        assert!(matches!(conn.recv_len(), Ok(Some(_))), "reply {tag} must arrive");
        let (got, local, peer, origin, shed) =
            decode_batch_served(conn.last_frame()).expect("a BatchServed reply");
        assert_eq!(got, tag, "replies must come in receipt order");
        (local, peer, origin, shed)
    }

    /// `frames` as the one byte string a pipelining client writes.
    fn burst(frames: &[Request]) -> Vec<u8> {
        frames.iter().flat_map(framed).collect()
    }

    /// A pipelining client's whole credit window arrives in one read:
    /// node 0 serves the eight frames as one run, so their 32 misses
    /// to node 1 share one `PeerForwardBatch` conversation instead of
    /// one per frame — and each frame is still answered with its own
    /// tally, in tag order.
    #[test]
    fn pipelined_frames_in_one_read_share_one_forward_conversation() {
        let nodes: Vec<_> = (0..2).map(|id| spawn_node(NodeConfig::new(id))).collect();
        let addrs: Vec<String> = nodes.iter().map(|(addr, _)| addr.clone()).collect();
        let provision = WireSpec::new(2).provision(1, addrs.clone());
        let mut conns: Vec<Conn> = addrs.iter().map(|addr| connect(addr)).collect();
        for conn in &mut conns {
            assert_eq!(push_epoch(conn, provision.clone()), Response::EpochAck { epoch: 1 });
        }
        let theirs = provision.slices.iter().find(|s| s.node == 1).expect("slice");
        // 2 ranks of the prefix and 4 node 1 holds per frame.
        let frames: Vec<Request> = (0..8u32)
            .map(|tag| {
                let held = (theirs.start..theirs.end).skip(4 * tag as usize).take(4);
                Request::BatchLookup { tag, contents: [1, 2].into_iter().chain(held).collect() }
            })
            .collect();
        let before = stats_of(&mut conns[0]);
        (&conns[0].stream).write_all(&burst(&frames)).expect("burst");
        for tag in 0..8 {
            assert_eq!(served(&mut conns[0], tag), (2, 4, 0, 0));
        }
        let after = stats_of(&mut conns[0]);
        assert_eq!(after.lookup_runs - before.lookup_runs, 1, "one read, one run");
        assert_eq!(after.forward_batches - before.forward_batches, 1, "one forward conversation");
        for (conn, (_, join)) in conns.into_iter().zip(nodes) {
            shutdown(conn);
            join.join().expect("join").expect("run");
        }
    }

    /// A control frame ends the merge and keeps its place: of the burst
    /// `[lookup, lookup, ConfigEpoch, lookup]` the two lookups before
    /// the epoch are served as one run under the old layout, the epoch
    /// is acked after them, and the lookup behind it sees the new one.
    #[test]
    fn a_control_frame_ends_the_merge() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut conn = connect(&addr);
        let mut spec = WireSpec::new(1);
        // Epoch 1 stores ranks 1..=100 (prefix 1..=50, slice 51..=100);
        // epoch 2 moves the slice to 6..=10 and stores only 1..=10.
        let wide = spec.provision(1, vec![addr.clone()]);
        spec.capacity = 10;
        let narrow = spec.provision(2, vec![addr.clone()]);
        assert_eq!(push_epoch(&mut conn, wide), Response::EpochAck { epoch: 1 });
        let lookup = |tag| Request::BatchLookup { tag, contents: (1..=20).collect() };
        let before = stats_of(&mut conn);
        let frames = [lookup(0), lookup(1), Request::ConfigEpoch(narrow), lookup(2)];
        (&conn.stream).write_all(&burst(&frames)).expect("burst");
        assert_eq!(served(&mut conn, 0), (20, 0, 0, 0));
        assert_eq!(served(&mut conn, 1), (20, 0, 0, 0));
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 2 });
        assert_eq!(served(&mut conn, 2), (10, 0, 10, 0));
        let after = stats_of(&mut conn);
        assert_eq!(after.lookup_runs - before.lookup_runs, 2, "the epoch splits the read in two");
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// A malformed frame in the middle of a burst costs only itself and
    /// what follows: the lookups before it are served and answered,
    /// then it gets the one `Refused` and the connection closes —
    /// whether it is an unknown kind or a `BatchLookup` whose payload
    /// falls short of its count.
    #[test]
    fn a_malformed_frame_mid_burst_is_refused_after_the_frames_before_it() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut control = connect(&addr);
        let ack = push_epoch(&mut control, WireSpec::new(1).provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        let retired_lookup: &[u8] = &[0x03, 1, 0, 0, 0, 0, 0, 0, 0];
        let short_lookup: &[u8] = &[kind::BATCH_LOOKUP, 2, 0, 0, 0, 3, 0, 0, 0];
        for bad in [retired_lookup, short_lookup] {
            let mut conn = connect(&addr);
            let lookup = |tag| Request::BatchLookup { tag, contents: vec![1, 2, 9_999] };
            let mut bytes = burst(&[lookup(0), lookup(1)]);
            bytes.extend_from_slice(&u32::try_from(bad.len()).expect("length").to_le_bytes());
            bytes.extend_from_slice(bad);
            (&conn.stream).write_all(&bytes).expect("burst");
            assert_eq!(served(&mut conn, 0), (2, 0, 1, 0));
            assert_eq!(served(&mut conn, 1), (2, 0, 1, 0));
            let refused = conn.recv_response().expect("reply");
            assert!(matches!(refused, Response::Refused { .. }), "kind {:#04x}", bad[0]);
            assert!(matches!(conn.recv_len(), Ok(None)), "the node must hang up");
        }
        shutdown(control);
        join.join().expect("join").expect("run");
    }

    /// The serve path itself, proven allocation-free under LRU, poller
    /// and replies included: this thread *is* node 0's serve worker —
    /// it takes the worker `bind` built, accepts a client and serves
    /// it through [`Worker::conn_ready`], and calls
    /// [`Worker::serve_forward`] directly, so the thread-local counter
    /// sees the merged shard runs, the forward conversation, every
    /// wait in the poller and the replies — against a live node 1. The
    /// client writes eight frames at a time, each served as one run;
    /// every frame mixes local hits, edge admits, holder admits and
    /// forwards over the peer link.
    #[test]
    fn warm_lru_serve_path_allocates_nothing() {
        let (addr1, join) = spawn_node(NodeConfig::new(1));
        let node0 = NodeServer::bind(NodeConfig::new(0)).expect("bind");
        let mut spec = WireSpec::new(2);
        spec.policy = StorePolicy::Lru;
        let provision = spec.provision(1, vec![node0.local_addr().to_string(), addr1.clone()]);
        let mut conn = connect(&addr1);
        assert_eq!(push_epoch(&mut conn, provision.clone()), Response::EpochAck { epoch: 1 });
        let mut worker = node0.take_worker();
        assert_eq!(worker.provision(&provision).expect("provision node 0"), 1);
        let soon = || Instant::now() + Duration::from_secs(5);
        let stream = TcpStream::connect(node0.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        assert!(worker.pump(LISTENER, soon()), "the client must reach the listener");
        worker.accept();
        let slot = worker.conns.iter().position(Option::is_some).expect("accepted");
        let mut client = Conn::new(stream, None);
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
        let requests: Vec<Request> = (0..)
            .zip(&frames)
            .map(|(tag, contents)| Request::BatchLookup { tag, contents: contents.clone() })
            .collect();
        let bytes = burst(&requests);
        let serve = |worker: &mut Worker, client: &mut Conn| {
            (&client.stream).write_all(&bytes).expect("burst");
            assert!(worker.pump(slot as u64, soon()), "the burst must arrive");
            worker.conn_ready(slot, false, false);
            for (tag, contents) in (0..).zip(&frames) {
                let (local, peer, origin, shed) = served(client, tag);
                assert_eq!((local + peer + origin, shed), (contents.len() as u64, 0));
            }
            for contents in &frames {
                worker.holder.items.clear();
                worker.holder.items.extend(contents.iter().map(|&c| (c, 1_000_000)));
                worker.serve_forward();
                assert_eq!(worker.holder.outcomes.len(), contents.len());
            }
        };
        // Warm-up: dials the peer link, grows every scratch buffer.
        serve(&mut worker, &mut client);
        let before = crate::alloc_count::allocations();
        for _ in 0..4 {
            serve(&mut worker, &mut client);
        }
        let allocated = crate::alloc_count::allocations() - before;
        assert_eq!(allocated, 0, "warm LRU serve path allocated {allocated} times over 32 frames");
        let stats = worker.shared.snapshot();
        assert_eq!(stats.lookup_runs, 5, "each burst of eight frames must be one run");
        assert!(stats.forwards_out > 0 && stats.peer > 0, "frames must cross the peer link");
        assert!(stats.forward_hits > 0, "the holder must have admitted what it missed");
        assert!(stats.serve_wakeups > 0, "the forward waits must have gone through the poller");
        assert_eq!(stats.degraded + stats.deadline_expired + stats.retried, 0);
        drop(client);
        drop(worker);
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// However a sender slices its writes, a frame is served when its
    /// last byte arrives: one byte per `write` gets the reply the whole
    /// frame gets.
    #[test]
    fn a_frame_delivered_byte_by_byte_is_served_like_a_whole_one() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut control = connect(&addr);
        let ack = push_epoch(&mut control, WireSpec::new(1).provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        let request = Request::BatchLookup { tag: 7, contents: vec![1, 2, 9_999, 3] };
        control.send_request(&request).expect("whole frame");
        let whole = control.recv_response().expect("served");
        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut sliced = Conn::new(stream, None);
        for byte in framed(&request) {
            (&sliced.stream).write_all(&[byte]).expect("one byte");
        }
        assert_eq!(sliced.recv_response().expect("served"), whole);
        assert_eq!(whole, Response::BatchServed { tag: 7, local: 3, peer: 0, origin: 1, shed: 0 });
        shutdown(control);
        join.join().expect("join").expect("run");
    }

    /// A client that sends half a header and stalls holds up nobody: a
    /// second client of the same worker completes 1 000 round trips
    /// while the first is still mid-frame — and the first is then
    /// served as if it had never paused.
    #[test]
    fn a_client_stalled_mid_header_does_not_delay_another() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let probe = framed(&Request::HealthProbe);
        let mut stalled = TcpStream::connect(&addr).expect("connect");
        stalled.set_nodelay(true).expect("nodelay");
        stalled.write_all(&probe[..2]).expect("half a header");
        let mut other = connect(&addr);
        for _ in 0..1_000 {
            other.send_request(&Request::HealthProbe).expect("probe");
            assert_eq!(other.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        }
        stalled.write_all(&probe[2..]).expect("the rest");
        let mut conn = Conn::new(stalled, None);
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        shutdown(other);
        join.join().expect("join").expect("run");
    }

    /// A client that pipelines requests and never reads a reply is
    /// dropped once its socket has refused a reply for
    /// `forward_deadline`, and the node goes on serving the others. The
    /// cap makes the drop visible: the node holds two connections, so a
    /// third is accepted only after the hog is gone.
    #[test]
    fn a_client_that_never_reads_is_dropped_and_the_node_keeps_serving() {
        let mut config = NodeConfig::new(0);
        config.max_connections = 2;
        config.degrade.forward_deadline = Duration::from_millis(50);
        let (addr, join) = spawn_node(config);
        let mut other = connect(&addr);
        let mut hog = TcpStream::connect(&addr).expect("connect");
        let request = framed(&Request::Stats);
        let written = std::thread::spawn(move || {
            let mut frames = 0u64;
            while hog.write_all(&request).is_ok() {
                frames += 1;
                assert!(frames < 100_000_000, "the node kept reading a client that never reads");
            }
            // The unread replies are still there: the node did answer.
            let mut reply = [0u8; 4];
            let _ = hog.read(&mut reply);
            frames
        });
        for _ in 0..1_000 {
            other.send_request(&Request::HealthProbe).expect("probe");
            assert_eq!(other.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        }
        assert!(written.join().expect("hog") > 0, "the hog's writes end only by being dropped");
        let third = connect(&addr);
        shutdown(other);
        drop(third);
        let stats = join.join().expect("join").expect("run");
        assert_eq!((stats.connections, stats.rejected_conns), (3, 0));
    }

    /// Two nodes whose every miss forwards to the other, both driven at
    /// window 8 at once: each worker spends its time waiting on the
    /// other node, so the run completes only if a waiting worker keeps
    /// serving the other's forwards (and, with three shards, the other
    /// workers' cross-shard runs). Static stores make every frame's
    /// tally a pure function of its contents.
    fn nodes_forwarding_to_each_other_never_stall(shards: usize) {
        const FRAMES: u32 = 10_000;
        let nodes: Vec<_> = (0..2)
            .map(|id| {
                let mut config = NodeConfig::new(id);
                config.shards = shards;
                spawn_node(config)
            })
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|(addr, _)| addr.clone()).collect();
        let provision = WireSpec::new(2).provision(1, addrs.clone());
        let slice = |node: usize| {
            let s = provision.slices.iter().find(|s| s.node as usize == node).expect("slice");
            s.start..s.end
        };
        // `1 + tag % 7` ranks of the local prefix, then `1 + tag % 5`
        // the other node holds: every miss is a forward, and a hit.
        let frame = |node: usize, tag: u32| -> (Vec<u64>, u64, u64) {
            let (local, peer) = (1 + u64::from(tag % 7), 1 + u64::from(tag % 5));
            let prefix = (1..=provision.prefix).cycle().skip(tag as usize % 11);
            let theirs = slice(1 - node).cycle().skip(tag as usize % 13);
            let contents = prefix.take(local as usize).chain(theirs.take(peer as usize)).collect();
            (contents, local, peer)
        };
        let mut conns: Vec<Conn> = addrs.iter().map(|addr| connect(addr)).collect();
        for conn in &mut conns {
            assert_eq!(push_epoch(conn, provision.clone()), Response::EpochAck { epoch: 1 });
        }
        std::thread::scope(|scope| {
            for (node, conn) in conns.iter_mut().enumerate() {
                let frame = &frame;
                scope.spawn(move || {
                    let settle = |conn: &mut Conn, tag: u32| {
                        assert!(matches!(conn.recv_len(), Ok(Some(_))), "reply {tag} must arrive");
                        let (_, want_local, want_peer) = frame(node, tag);
                        let served = decode_batch_served(conn.last_frame()).expect("decode");
                        assert_eq!(served, (tag, want_local, want_peer, 0, 0), "node {node}");
                    };
                    for tag in 0..FRAMES {
                        if tag >= 8 {
                            settle(conn, tag - 8);
                        }
                        let (contents, ..) = frame(node, tag);
                        conn.send(|buf| encode_batch_lookup_from(buf, tag, &contents))
                            .expect("send");
                    }
                    for tag in FRAMES - 8..FRAMES {
                        settle(conn, tag);
                    }
                });
            }
        });
        let stats: Vec<_> = conns.iter_mut().map(stats_of).collect();
        for (node, s) in stats.iter().enumerate() {
            assert_eq!(s.deadline_expired + s.degraded + s.retried + s.shed, 0, "node {node}");
            assert_eq!(s.forwards_out, stats[1 - node].forward_hits, "node {node} forwards");
            assert_eq!(s.cross_shard_runs > 0, shards > 1, "node {node} ring use");
        }
        for (conn, (_, join)) in conns.into_iter().zip(nodes) {
            shutdown(conn);
            join.join().expect("join").expect("run");
        }
    }

    #[test]
    fn single_shard_nodes_forwarding_to_each_other_never_stall() {
        nodes_forwarding_to_each_other_never_stall(1);
    }

    #[test]
    fn three_shard_nodes_forwarding_to_each_other_never_stall() {
        nodes_forwarding_to_each_other_never_stall(3);
    }
}
