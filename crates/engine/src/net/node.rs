//! The node server: configuration, the provisioned runtime shared by
//! a node's serve workers, config-epoch provisioning, and the
//! background health prober. The serving itself — sockets, frames,
//! the ladder — is [`super::worker`].

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ccn_sim::store::StaticStore;

use super::codec::{NodeStats, NodeStatsSnapshot, Provision};
use super::conn::{net_err, net_io_err, WireMeter};
use super::peer::PeerLink;
use super::poll::EventFd;
use super::worker::Worker;
use crate::affinity::ShardPlacement;
use crate::error::EngineError;
use crate::fault::DegradeConfig;
use crate::layout::Layout;
use crate::routing::LiveRouting;
use crate::shard::{lock_recover, shard_set, ShardHandle, Waker};

impl NodeStats {
    pub(super) fn add(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn record_rtt(&self, rtt: Duration) {
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
    /// Store shards — and serve workers: each shard's single-writer
    /// thread also owns a share of the node's connections.
    pub shards: usize,
    /// Core placement for the serve workers.
    pub placement: ShardPlacement,
    /// Degradation-ladder knobs for the forward path.
    /// `forward_deadline` is also how long a reply may wait on a
    /// connection whose socket is full before the connection is
    /// dropped.
    pub degrade: DegradeConfig,
    /// Credit window: tagged frames in flight per node→peer forward
    /// connection (1 = stop-and-wait).
    pub window: usize,
    /// Maximum items coalesced into one `PeerForwardBatch` frame.
    pub wire_batch: usize,
    /// Connection cap: excess accepts are answered with a typed
    /// `Refused` frame and dropped.
    pub max_connections: usize,
}

impl NodeConfig {
    /// Defaults for node `id`: one shard, ephemeral loopback listener,
    /// default degradation ladder, no pinning, window 8 × 64-item
    /// forward batches, 1024-connection cap.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Self {
            id,
            listen: "127.0.0.1:0".to_owned(),
            shards: 1,
            placement: ShardPlacement::disabled(),
            degrade: DegradeConfig::default(),
            window: 8,
            wire_batch: 64,
            max_connections: 1024,
        }
    }
}

/// A provisioned node's shared runtime, swapped as one unit at each
/// accepted config epoch; the stores live with their workers.
pub(super) struct NodeEngine {
    pub(super) epoch: u64,
    pub(super) fitted_s: f64,
    pub(super) layout: Layout,
    pub(super) routing: LiveRouting,
    pub(super) peers: Vec<Option<PeerLink>>,
}

/// Slots per worker ring. What crosses threads is bounded by the
/// cluster's shape, not its load: at most one run per other worker,
/// an epoch's store swap, the stop sentinel, and accepted connections
/// on their way to their worker.
const RING_CAPACITY: usize = 256;

pub(super) struct NodeShared {
    pub(super) config: NodeConfig,
    /// The job rings of the serve workers; a job is an accepted
    /// connection dealt to its worker.
    pub(super) handle: ShardHandle<std::net::TcpStream>,
    pub(super) engine: RwLock<Option<Arc<NodeEngine>>>,
    /// Held across a config epoch's store swap and publication, so
    /// epochs apply one at a time whichever workers receive them.
    pub(super) provisioning: Mutex<()>,
    pub(super) epoch: AtomicU64,
    pub(super) stats: NodeStats,
    shutdown: AtomicBool,
    /// A listener failure, reported by [`NodeServer::run`].
    pub(super) fatal: Mutex<Option<EngineError>>,
    /// Frame/byte meter shared by every accepted connection and
    /// forward link; folded into `stats` by [`NodeShared::snapshot`].
    pub(super) meter: Arc<WireMeter>,
    /// Live (not yet closed) accepted connections, gating the
    /// connection cap (`stats.connections` is the monotone total).
    pub(super) active_conns: AtomicUsize,
}

impl NodeShared {
    pub(super) fn current_engine(&self) -> Option<Arc<NodeEngine>> {
        self.engine.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Stops the node: a `Stop` and a wake to every serve worker.
    pub(super) fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.handle.stop_all();
        }
    }

    /// Validates `p` against this node and builds the runtime it
    /// describes. The caller swaps the stores first (unless the current
    /// layout says this node keeps them) and then
    /// [`NodeShared::publish`]es.
    pub(super) fn plan(&self, p: &Provision) -> Result<NodeEngine, EngineError> {
        if self.config.id >= p.nodes as usize {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "node id {} outside provisioned cluster of {} nodes",
                    self.config.id, p.nodes
                ),
            });
        }
        let layout = Layout::from_provision(p)?;
        let peers = (0..p.nodes as usize)
            .map(|n| {
                let addr = p.peers.get(n).filter(|_| n != self.config.id)?;
                Some(PeerLink::new(n, addr.clone()))
            })
            .collect();
        let routing = LiveRouting::new(layout.routing_table());
        Ok(NodeEngine { epoch: p.epoch, fitted_s: p.fitted_s, layout, routing, peers })
    }

    /// Makes `engine` the node's runtime and its epoch the current one.
    pub(super) fn publish(&self, engine: NodeEngine) {
        let (epoch, fitted_s) = (engine.epoch, engine.fitted_s);
        *self.engine.write().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(Arc::new(engine));
        self.epoch.store(epoch, Ordering::Release);
        self.stats.add(&self.stats.epochs_accepted);
        self.stats.fitted_s_bits.store(fitted_s.to_bits(), Ordering::Relaxed);
    }

    /// The counters as a `StatsReply` (and the final run snapshot)
    /// carries them: the live epoch and the wire meter's frame/byte
    /// totals folded in.
    pub(super) fn snapshot(&self) -> NodeStatsSnapshot {
        let (stats, m) = (&self.stats, &self.meter);
        stats.epoch.store(self.epoch.load(Ordering::Acquire), Ordering::Relaxed);
        stats.frames_in.store(m.frames_in.load(Ordering::Relaxed), Ordering::Relaxed);
        stats.frames_out.store(m.frames_out.load(Ordering::Relaxed), Ordering::Relaxed);
        stats.bytes_in.store(m.bytes_in.load(Ordering::Relaxed), Ordering::Relaxed);
        stats.bytes_out.store(m.bytes_out.load(Ordering::Relaxed), Ordering::Relaxed);
        stats.snapshot()
    }
}

/// How long a client should wait for the reply to one `BatchLookup`:
/// the longest the ladder can legitimately hold a frame, plus a
/// second of slack. A frame's misses form one group per holder — at
/// most `nodes − 1`, walked one after another — and each group gets
/// one `forward_deadline` across all its retries, extended only by its
/// backoff waits. Anything slower is a wedged node, and the driver
/// sheds its frames.
pub(super) fn frame_reply_timeout(nodes: usize, degrade: &DegradeConfig) -> Duration {
    // The backoff is linear, so the waits of retries 1..=r add up to
    // the wait of retry r(r+1)/2.
    let retries = degrade.forward_retries;
    let backoff = degrade.backoff(retries.saturating_mul(retries + 1) / 2);
    let groups = u32::try_from(nodes.saturating_sub(1)).unwrap_or(u32::MAX);
    degrade
        .forward_deadline
        .saturating_add(backoff)
        .saturating_mul(groups)
        .saturating_add(Duration::from_secs(1))
}

/// One router as a standalone wire-serving process (or thread, for
/// in-process tests): binds, then [`NodeServer::run`] serves until a
/// `Shutdown` frame arrives.
pub struct NodeServer {
    local_addr: SocketAddr,
    shared: Arc<NodeShared>,
    /// The serve workers, built by `bind` and handed to their threads
    /// by `run`.
    workers: Mutex<Vec<Worker>>,
}

impl NodeServer {
    /// Binds the listener and builds the serve workers without serving
    /// yet.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for zero shards or invalid ladder
    /// settings, [`EngineError::Net`] if the bind fails or the platform
    /// has no readiness poller (anything but Linux x86_64 / aarch64).
    pub fn bind(config: NodeConfig) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "node needs at least one shard".into(),
            });
        }
        config.degrade.validate()?;
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| net_err("bind", format!("{}: {e}", config.listen)))?;
        let local_addr = listener.local_addr().map_err(|e| net_io_err("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| net_io_err("bind", &e))?;
        let wakes = (0..config.shards)
            .map(|_| EventFd::new().map(Arc::new).map_err(|e| net_io_err("poller", &e)))
            .collect::<Result<Vec<_>, _>>()?;
        let wakers = wakes
            .iter()
            .map(|wake| {
                let wake = Arc::clone(wake);
                Box::new(move || wake.signal()) as Waker
            })
            .collect();
        // Nothing is stored before the first config epoch.
        let (handle, owners) = shard_set(RING_CAPACITY, wakers, |_| Box::new(StaticStore::new([])));
        let shared = Arc::new(NodeShared {
            config,
            handle,
            engine: RwLock::new(None),
            provisioning: Mutex::new(()),
            epoch: AtomicU64::new(0),
            stats: NodeStats::default(),
            shutdown: AtomicBool::new(false),
            fatal: Mutex::new(None),
            meter: Arc::new(WireMeter::default()),
            active_conns: AtomicUsize::new(0),
        });
        // The listener lives in worker 0's poller.
        let mut listener = Some(listener);
        let workers = owners
            .into_iter()
            .zip(wakes)
            .map(|(owner, wake)| Worker::new(Arc::clone(&shared), owner, wake, listener.take()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { local_addr, shared, workers: Mutex::new(workers) })
    }

    /// Hands a test the (only) serve worker to drive on its own thread.
    #[cfg(test)]
    pub(super) fn take_worker(&self) -> Worker {
        lock_recover(&self.workers).pop().expect("a bound server holds its workers")
    }

    /// The bound listen address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown from another thread (tests).
    pub fn request_shutdown(&self) {
        self.shared.stop();
    }

    /// Serves until a `Shutdown` frame (or [`Self::request_shutdown`])
    /// stops the workers, then returns the final counter snapshot. The
    /// node's threads are its `shards` serve workers and the health
    /// prober, however many connections it holds; the caller's thread
    /// only waits for them.
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] if the listener itself fails,
    /// [`EngineError::Spawn`] if a worker thread cannot start or the
    /// server has already run; per-connection failures only drop that
    /// connection.
    pub fn run(&self) -> Result<NodeStatsSnapshot, EngineError> {
        let shared = &*self.shared;
        let workers = std::mem::take(&mut *lock_recover(&self.workers));
        if workers.is_empty() {
            return Err(EngineError::Spawn { reason: "this node server has already run".into() });
        }
        std::thread::scope(|scope| {
            scope.spawn(|| health_prober(shared));
            for (index, worker) in workers.into_iter().enumerate() {
                let spawned = std::thread::Builder::new()
                    .name(format!("ccn-serve-{index}"))
                    .spawn_scoped(scope, move || worker.run());
                if let Err(e) = spawned {
                    shared.stop();
                    return Err(EngineError::Spawn { reason: e.to_string() });
                }
            }
            Ok(())
        })?;
        match lock_recover(&shared.fatal).take() {
            Some(e) => Err(e),
            None => Ok(shared.snapshot()),
        }
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
                link.streak.reset();
                if engine.routing.set_live(link.node, true).is_some() {
                    shared.stats.add(&shared.stats.revived);
                }
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::codec::{Request, Response};
    use super::super::conn::Conn;
    use super::super::driver::connect_driver;
    use super::*;
    use crate::cluster::StorePolicy;
    use crate::net::WireSpec;

    /// Binds a node on an ephemeral port and serves it on a thread.
    pub(in crate::net) fn spawn_node(
        config: NodeConfig,
    ) -> (String, std::thread::JoinHandle<Result<NodeStatsSnapshot, EngineError>>) {
        let server = NodeServer::bind(config).expect("bind");
        let addr = server.local_addr().to_string();
        (addr, std::thread::spawn(move || server.run()))
    }

    pub(in crate::net) fn connect(addr: &str) -> Conn {
        connect_driver(addr, Duration::from_secs(2), None).expect("connect")
    }

    pub(in crate::net) fn shutdown(mut conn: Conn) {
        conn.send_request(&Request::Shutdown).expect("shutdown");
        assert_eq!(conn.recv_response().expect("bye"), Response::Bye);
    }

    pub(in crate::net) fn push_epoch(conn: &mut Conn, provision: Provision) -> Response {
        conn.send_request(&Request::ConfigEpoch(provision)).expect("push");
        conn.recv_response().expect("ack")
    }

    /// A batch of one: the `(local, peer, origin, shed)` tally of a
    /// single lookup.
    pub(in crate::net) fn lookup_one(conn: &mut Conn, content: u64) -> (u64, u64, u64, u64) {
        conn.send_request(&Request::BatchLookup { tag: 0, contents: vec![content] })
            .expect("lookup");
        match conn.recv_response().expect("served") {
            Response::BatchServed { tag: 0, local, peer, origin, shed } => {
                (local, peer, origin, shed)
            }
            other => panic!("unexpected lookup answer {other:?}"),
        }
    }

    pub(in crate::net) fn stats_of(conn: &mut Conn) -> NodeStatsSnapshot {
        conn.send_request(&Request::Stats).expect("stats");
        match conn.recv_response().expect("stats reply") {
            Response::StatsReply(stats) => stats,
            other => panic!("unexpected stats answer {other:?}"),
        }
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
    fn unchanged_layout_epoch_swap_keeps_lru_warmth() {
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

    /// An LRU node's recipe is its policy and capacity: an epoch that
    /// moves the prefix and every slice keeps its warm store, as
    /// `Cluster::apply_layout` does in process.
    #[test]
    fn layout_changing_epoch_keeps_lru_warmth() {
        let (addr, join) = spawn_node(NodeConfig::new(0));
        let mut spec = WireSpec::new(1);
        spec.policy = StorePolicy::Lru;
        let mut conn = connect(&addr);
        let ack = push_epoch(&mut conn, spec.provision(1, vec![addr.clone()]));
        assert_eq!(ack, Response::EpochAck { epoch: 1 });
        assert_eq!(lookup_one(&mut conn, 9_999), (0, 0, 1, 0), "miss + admit");
        spec.ell = 0.25;
        let moved = spec.provision(2, vec![addr.clone()]);
        assert_ne!(moved.prefix, spec.capacity / 2, "the prefix moved");
        assert_eq!(push_epoch(&mut conn, moved), Response::EpochAck { epoch: 2 });
        assert_eq!(
            lookup_one(&mut conn, 9_999),
            (1, 0, 0, 0),
            "cache warmth survives a layout-changing epoch"
        );
        shutdown(conn);
        join.join().expect("join").expect("run");
    }

    /// A layout-changing epoch pushed on one connection while another
    /// keeps eight frames in flight, on a node whose three workers each
    /// hold a third of every frame: every frame sent after the
    /// `EpochAck` is served from the new stores, no shard ever serves
    /// from its old store again once swapped, and no frame is lost.
    #[test]
    fn layout_change_under_traffic_is_seen_by_every_later_frame() {
        const FRAMES: u32 = 4_000;
        let mut config = NodeConfig::new(0);
        config.shards = 3;
        let (addr, join) = spawn_node(config);
        let mut spec = WireSpec::new(1);
        spec.ell = 0.0;
        // Epoch 1 pins ranks 1..=100; epoch 2 only 1..=10.
        let wide = spec.provision(1, vec![addr.clone()]);
        spec.capacity = 10;
        let narrow = spec.provision(2, vec![addr.clone()]);
        let mut control = connect(&addr);
        assert_eq!(push_epoch(&mut control, wide), Response::EpochAck { epoch: 1 });
        // Ranks 11..=100 spread over all three shards; each frame's
        // tally says which layout served it.
        let contents: Vec<u64> = (11..=100).collect();
        let (old, new) = ((90, 0, 0, 0), (0, 0, 90, 0));
        let sent = std::sync::atomic::AtomicU32::new(0);
        let mut data = connect(&addr);
        let (acked_at, tallies) = std::thread::scope(|scope| {
            let pusher = scope.spawn(|| {
                while sent.load(Ordering::Acquire) < FRAMES / 2 {
                    std::thread::yield_now();
                }
                assert_eq!(push_epoch(&mut control, narrow), Response::EpochAck { epoch: 2 });
                sent.load(Ordering::Acquire)
            });
            let mut tallies = Vec::with_capacity(FRAMES as usize);
            let mut recv = |data: &mut Conn| match data.recv_response().expect("served") {
                Response::BatchServed { tag, local, peer, origin, shed } => {
                    assert_eq!(tag as usize, tallies.len(), "replies arrive in send order");
                    tallies.push((local, peer, origin, shed));
                }
                other => panic!("unexpected lookup answer {other:?}"),
            };
            for tag in 0..FRAMES {
                if tag >= 8 {
                    recv(&mut data);
                }
                let frame = Request::BatchLookup { tag, contents: contents.clone() };
                data.send_request(&frame).expect("lookup");
                sent.store(tag + 1, Ordering::Release);
            }
            for _ in 0..8 {
                recv(&mut data);
            }
            (pusher.join().expect("pusher"), tallies)
        });
        assert_eq!(tallies.len(), FRAMES as usize, "no frame is lost");
        assert_eq!(tallies[0], old, "the push raced live traffic");
        assert!((acked_at as usize) < tallies.len(), "frames were sent after the ack");
        assert!(
            tallies[acked_at as usize..].iter().all(|&t| t == new),
            "a frame sent after the ack saw an old store"
        );
        // Each shard swaps once, so local hits only ever go down.
        assert!(tallies.iter().all(|t| t.0 + t.2 == 90 && t.1 + t.3 == 0));
        assert!(tallies.windows(2).all(|w| w[0].0 >= w[1].0), "a store swapped back");
        drop(data);
        shutdown(control);
        let stats = join.join().expect("join").expect("run");
        assert!(stats.cross_shard_runs > 0, "frames must have crossed the workers' rings");
    }

    /// Regression: the driver's read timeout was once `deadline ×
    /// (retries + 1) × batch` — minutes at the defaults — from when a
    /// batch's misses were forwarded one by one. It must track what
    /// the ladder can take now: one shared deadline (plus backoff
    /// waits) per holder group, whatever the batch size.
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
}
