//! The coordinator: spawns and provisions the nodes, offers the load
//! driver's runs over the wire ([`crate::load`], one `BatchLookup`
//! frame per run), replays the kill/revive schedule through the fault
//! clock both tiers share, and adds the reply tallies to the load
//! driver's per-node ledgers ([`crate::load::Ledger`]).

use std::collections::VecDeque;
use std::io::{self, BufRead as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use ccn_sim::ContentId;

use super::codec::{
    decode_batch_served, encode_batch_lookup_from, proto_err, NodeStatsSnapshot, Provision,
    Request, Response,
};
use super::conn::{connect_hello, net_err, Conn, WireMeter};
use super::node::{frame_reply_timeout, NodeConfig, NodeServer};
use crate::affinity::ShardPlacement;
use crate::cluster::StorePolicy;
use crate::control::{
    drive_beside, AdaptiveRunner, Controller, ControllerConfig, ControllerReport, LayoutStep,
    RankTap,
};
use crate::error::EngineError;
use crate::fault::{
    AppliedFault, DegradeConfig, FaultController, FaultEvent, FaultKind, FaultPlan,
};
use crate::layout::Layout;
use crate::load::{
    check_conservation, deal, run_lanes, Admission, Ledger, LedgerCells, LoadReport, OpenLoopConfig,
};
use crate::shard::lock_recover;

/// How the driver brings up node serving loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeLaunch {
    /// Node servers run as threads inside the driver process —
    /// exercises the full wire path over loopback without child
    /// processes. Kill/revive faults are not available (a thread
    /// cannot be SIGKILLed).
    InProcess,
    /// Node servers run as `ccn node` child processes spawned from
    /// this executable path; kill faults SIGKILL the process.
    Exe(PathBuf),
}

/// Full specification of a wire-mode serving benchmark.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// Cluster size.
    pub nodes: usize,
    /// Store shards per node.
    pub shards_per_node: usize,
    /// Catalogue size.
    pub catalogue: u64,
    /// Per-node store capacity `c`.
    pub capacity: u64,
    /// Coordinated fraction `ℓ = x/c`.
    pub ell: f64,
    /// Store population policy.
    pub policy: StorePolicy,
    /// The offered load, run by the same lane loop as in process: the
    /// same config offers the same requests on both tiers, and
    /// `load.batch` caps the requests per `BatchLookup` frame.
    pub load: OpenLoopConfig,
    /// Credit window: frames in flight per driver→node (and, via the
    /// node config, node→peer) connection. 1 = PR 8 stop-and-wait.
    pub window: usize,
    /// Max misses coalesced into one `PeerForwardBatch` frame on the
    /// node side.
    pub wire_batch: usize,
    /// Per-node accepted-connection cap (excess accepts are refused
    /// with a typed frame).
    pub max_conns: usize,
    /// Core placement passed through to node processes; pinning also
    /// pins the load lanes, as in process.
    pub placement: ShardPlacement,
    /// Degradation-ladder knobs passed through to node processes.
    pub degrade: DegradeConfig,
    /// Scheduled faults, replayed on the in-process cluster's fault
    /// clock: each lane advances the cluster-wide offered count once
    /// per run, and the run that crosses a trigger is offered to the
    /// post-fault cluster. `KillNode` SIGKILLs a node process,
    /// `ReviveNode` respawns it and re-provisions the cluster under a
    /// bumped config epoch; a failed revival ends the run with its
    /// error. Requires [`NodeLaunch::Exe`].
    pub faults: FaultPlan,
    /// How node serving loops are brought up.
    pub launch: NodeLaunch,
    /// Run the adaptive-provisioning controller on the driver: sample
    /// offered ranks, re-fit the exponent, and stage budgeted config
    /// epochs to every live node ([`crate::control`]).
    pub adapt: Option<ControllerConfig>,
}

impl WireSpec {
    /// Defaults mirroring the in-process serve-bench smoke settings,
    /// with one load lane per node.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            shards_per_node: 1,
            catalogue: 10_000,
            capacity: 100,
            ell: 0.5,
            policy: StorePolicy::Provisioned,
            load: OpenLoopConfig {
                generators: nodes,
                rate_per_node_per_ms: 0.5,
                batch: 64,
                ..OpenLoopConfig::default()
            },
            window: 8,
            wire_batch: 64,
            max_conns: 1024,
            placement: ShardPlacement::disabled(),
            degrade: DegradeConfig::default(),
            faults: FaultPlan::none(),
            launch: NodeLaunch::InProcess,
            adapt: None,
        }
    }

    /// Builds the provisioning push of the hybrid layout at `ell` for
    /// `epoch`, with the given peer address list (one entry per node,
    /// indexed by id).
    ///
    /// # Panics
    ///
    /// On a cluster shape the one shape check rejects.
    #[must_use]
    pub fn provision(&self, epoch: u64, peers: Vec<String>) -> Provision {
        let layout = self.layout().unwrap_or_else(|e| panic!("cannot provision this spec: {e}"));
        layout.provision(epoch, 0.0, peers)
    }

    fn layout(&self) -> Result<Layout, EngineError> {
        Layout::hybrid(self.nodes, self.catalogue, self.capacity, self.ell, self.policy)
    }

    /// Checks the spec before anything is spawned: cluster shape,
    /// workload, ladder settings, controller tuning and fault schedule, and
    /// returns the layout it provisions. A fault on the wire acts on a
    /// whole process, so only `KillNode` and `ReviveNode` are accepted,
    /// and each must change its node's state — a second revive would
    /// orphan a running `ccn node`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] or [`EngineError::FaultSpec`]
    /// naming what was rejected.
    pub(crate) fn validate(&self) -> Result<Layout, EngineError> {
        let invalid = |reason: String| Err(EngineError::InvalidConfig { reason });
        let layout = self.layout()?;
        self.load.validate()?;
        for (name, value) in [
            ("window", self.window),
            ("wire-batch", self.wire_batch),
            ("max-conns", self.max_conns),
        ] {
            if value == 0 {
                return invalid(format!("{name} must be >= 1"));
            }
        }
        self.degrade.validate()?;
        if let Some(adapt) = &self.adapt {
            adapt.validate(self.nodes)?;
        }
        self.faults.validate(self.nodes, self.shards_per_node)?;
        let mut dead = vec![false; self.nodes];
        for &FaultEvent { at_op, kind } in self.faults.events() {
            let reject = |why: &str| {
                Err(EngineError::FaultSpec { reason: format!("{kind}@{at_op}: {why}") })
            };
            let (n, kills) = match kind {
                FaultKind::KillNode(n) => (n, true),
                FaultKind::ReviveNode(n) => (n, false),
                _ => return reject("the wire tier can only kill or revive a node process"),
            };
            if dead[n] == kills {
                return reject("a dead node cannot be killed, nor a live one revived");
            }
            dead[n] = kills;
        }
        if !self.faults.is_empty() && self.launch == NodeLaunch::InProcess {
            return Err(EngineError::FaultSpec {
                reason: "kill/revive faults need child processes (NodeLaunch::Exe); \
                         an in-process node thread cannot be SIGKILLed"
                    .into(),
            });
        }
        Ok(layout)
    }
}

/// Driver-side wire-efficiency counters for one bench run, folded
/// from the drive-path connection meters. Epoch pushes and stats
/// collection use unmetered connections, so frames/op and bytes/op
/// measure the hot path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePipelineStats {
    /// Configured credit window (frames in flight per connection).
    pub window: u64,
    /// Configured peer-forward coalescing cap.
    pub wire_batch: u64,
    /// High-water mark of frames actually in flight on any
    /// driver→node connection — ≤ `window`, and 1 when stop-and-wait.
    pub max_in_flight: u64,
    /// Frames the driver sent on the drive path.
    pub frames_out: u64,
    /// Frames the driver received on the drive path.
    pub frames_in: u64,
    /// Bytes the driver sent on the drive path.
    pub bytes_out: u64,
    /// Bytes the driver received on the drive path.
    pub bytes_in: u64,
}

/// `total / offered`, 0 for an empty run.
fn per_op(total: u64, offered: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    if offered == 0 {
        0.0
    } else {
        total as f64 / offered as f64
    }
}

impl WirePipelineStats {
    /// Wire frames (both directions) per offered request.
    #[must_use]
    pub fn frames_per_op(&self, offered: u64) -> f64 {
        per_op(self.frames_out + self.frames_in, offered)
    }

    /// Wire bytes (both directions) per offered request.
    #[must_use]
    pub fn bytes_per_op(&self, offered: u64) -> f64 {
        per_op(self.bytes_out + self.bytes_in, offered)
    }
}

/// Results of one wire-mode benchmark run.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// Cluster size.
    pub nodes: usize,
    /// Final config epoch (1 + one bump per revival).
    pub epoch: u64,
    /// Final listen address of every node.
    pub listen_addrs: Vec<String>,
    /// Every node's ledger for the whole run, the lanes, and the wall
    /// clock of the drive.
    pub report: LoadReport,
    /// Per-node ledgers counting only traffic after the last revival
    /// re-provision (present iff a revival happened) — the window the
    /// re-convergence acceptance check evaluates.
    pub tail_per_node: Option<Vec<Ledger>>,
    /// Final node-side counter snapshots (None for a node that was
    /// dead at collection time).
    pub node_stats: Vec<Option<NodeStatsSnapshot>>,
    /// Every fault applied during the run, in application order — the
    /// record serve-bench logs, with the config epoch after each.
    /// Events past the end of the stream are neither applied nor
    /// logged.
    pub fault_log: Vec<AppliedFault>,
    /// Decision log and counters of the driver-side adaptive
    /// controller (present iff [`WireSpec::adapt`] was set).
    pub controller: Option<ControllerReport>,
    /// Driver-side wire-efficiency counters for the drive path.
    pub pipeline: WirePipelineStats,
}

enum RunningNode {
    Proc {
        child: Child,
        // Held open so the child's final summary print cannot fail
        // with a broken pipe; its EOF is the child's exit.
        stdout: io::BufReader<std::process::ChildStdout>,
    },
    Thread {
        server: Arc<NodeServer>,
        join: std::thread::JoinHandle<Result<NodeStatsSnapshot, EngineError>>,
    },
}

struct NodeSlot {
    addr: String,
    /// Bumped by each revival, so a driver knows its connection is to
    /// an earlier incarnation.
    generation: u64,
    /// The serving process or thread; `None` while the node is dead.
    node: Option<RunningNode>,
}

/// The coordinator's single epoch authority, shared between the
/// adaptive controller's steps and the fault action's revivals. Both
/// issue config epochs; every bump-and-push happens under this lock,
/// so epoch order equals layout order and a node applying the highest
/// epoch it saw holds the newest layout.
struct WireCtl {
    epoch: u64,
    /// The cumulative layout as of `epoch` — for an in-flight
    /// incremental chain, the sum of every step issued so far. At
    /// epoch 1 it is the hybrid layout the adaptive controller starts
    /// from, so the first chain step moves exactly what it planned.
    layout: Layout,
    fitted_s: f64,
}

/// Pushes the authority's current layout to every live node, and to a
/// `revived` node (id, address) whose slot is not live yet; returns the
/// first push error, after trying every node. A node already at this
/// epoch just acks it. This is also the revival path: a node that was
/// SIGKILLed mid-chain and missed epochs receives the chain's *current*
/// state under the newest epoch — the partial chain as one frame.
fn push_current(
    ctl: &WireCtl,
    slots: &[Mutex<NodeSlot>],
    revived: Option<(usize, &str)>,
) -> Result<(), EngineError> {
    let snapshot: Vec<(String, bool)> = (0..slots.len())
        .map(|id| match revived {
            Some((n, addr)) if n == id => (addr.to_owned(), true),
            _ => {
                let slot = lock_recover(&slots[id]);
                (slot.addr.clone(), slot.node.is_some())
            }
        })
        .collect();
    let peers = snapshot.iter().map(|(addr, _)| addr.clone()).collect();
    let push = ctl.layout.provision(ctl.epoch, ctl.fitted_s, peers);
    snapshot
        .iter()
        .filter(|(_, live)| *live)
        .map(|(addr, _)| push_epoch_to(addr, &push))
        .fold(Ok(()), Result::and)
}

/// Driver-side node id carried in the `Hello` handshake — nodes key
/// peer links by id, so the driver uses a sentinel outside any
/// cluster's id range.
const DRIVER_ID: u32 = u32::MAX;

/// Dials a node as the driver: version handshake included, so a
/// mixed-version cluster is rejected at connect time on every
/// driver-side path (epoch pushes, the drive hot path, stats
/// collection), not just on peer links.
pub(super) fn connect_driver(
    addr: &str,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    connect_hello(addr, DRIVER_ID, timeout, meter)
}

fn push_epoch_to(addr: &str, provision: &Provision) -> Result<(), EngineError> {
    let mut conn = connect_driver(addr, Duration::from_secs(5), None)?;
    conn.send_request(&Request::ConfigEpoch(provision.clone()))?;
    match conn.recv_response()? {
        Response::EpochAck { epoch } if epoch >= provision.epoch => Ok(()),
        Response::EpochAck { epoch } => Err(proto_err(format!(
            "node at {addr} acked epoch {epoch} after a push of {}",
            provision.epoch
        ))),
        Response::Refused { reason } => Err(proto_err(format!("epoch push refused: {reason}"))),
        other => Err(proto_err(format!("unexpected reply to epoch push: {other:?}"))),
    }
}

fn spawn_thread_node(spec: &WireSpec, id: usize) -> Result<(RunningNode, String), EngineError> {
    let mut config = NodeConfig::new(id);
    config.shards = spec.shards_per_node;
    config.placement = spec.placement;
    config.degrade = spec.degrade;
    config.window = spec.window;
    config.wire_batch = spec.wire_batch;
    config.max_connections = spec.max_conns;
    let server = Arc::new(NodeServer::bind(config)?);
    let addr = server.local_addr().to_string();
    let runner = Arc::clone(&server);
    let join = std::thread::Builder::new()
        .name(format!("wire-node-{id}"))
        .spawn(move || runner.run())
        .map_err(|e| EngineError::Spawn { reason: e.to_string() })?;
    Ok((RunningNode::Thread { server, join }, addr))
}

/// How long the driver waits for a spawned node process to print its
/// `READY <addr>` line before giving up and killing it.
const READY_TIMEOUT: Duration = Duration::from_secs(15);

fn spawn_proc_node(
    exe: &PathBuf,
    spec: &WireSpec,
    id: usize,
) -> Result<(RunningNode, String), EngineError> {
    let mut cmd = Command::new(exe);
    cmd.arg("node")
        .args(["--id", &id.to_string()])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--shards", &spec.shards_per_node.to_string()])
        .args(["--deadline-us", &spec.degrade.forward_deadline.as_micros().to_string()])
        .args(["--retries", &spec.degrade.forward_retries.to_string()])
        .args(["--backoff-us", &spec.degrade.retry_backoff.as_micros().to_string()])
        .args(["--timeout-threshold", &spec.degrade.timeout_threshold.to_string()])
        .args(["--window", &spec.window.to_string()])
        .args(["--wire-batch", &spec.wire_batch.to_string()])
        .args(["--max-conns", &spec.max_conns.to_string()]);
    if spec.placement.pin() {
        cmd.args(["--cores", &spec.placement.cores().to_string()]).args(["--pin", "true"]);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| net_err("spawn-node", e))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(net_err("spawn-node", "child stdout was not piped"));
    };
    // Read the READY line on a helper thread so a child that starts
    // but never reports cannot hang the whole bench.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = io::BufReader::new(stdout);
        let mut line = String::new();
        let result = reader.read_line(&mut line);
        let _ = tx.send((result.map(|_| line), reader));
    });
    let ready = match rx.recv_timeout(READY_TIMEOUT) {
        Ok((Ok(line), reader)) => match line.trim().strip_prefix("READY ") {
            Some(addr) => Ok((addr.to_owned(), reader)),
            None => Err(format!("reported {:?}, expected READY", line.trim())),
        },
        Ok((Err(e), _)) => Err(format!("stdout failed: {e}")),
        Err(_) => Err(format!("did not report READY within {READY_TIMEOUT:?}")),
    };
    match ready {
        Ok((addr, stdout)) => Ok((RunningNode::Proc { child, stdout }, addr)),
        Err(why) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(net_err("spawn-node", format!("node {id} {why}")))
        }
    }
}

fn spawn_node(spec: &WireSpec, id: usize) -> Result<(RunningNode, String), EngineError> {
    match &spec.launch {
        NodeLaunch::InProcess => spawn_thread_node(spec, id),
        NodeLaunch::Exe(exe) => spawn_proc_node(exe, spec, id),
    }
}

/// Stops one node and returns a thread node's final counters. A child
/// process gets `grace` to exit by itself (it was sent `Shutdown`),
/// seen as EOF on its stdout, and is then killed — dropping a `Child`
/// does *not* kill it, and skipping this would orphan `ccn node`
/// processes that serve forever.
fn stop_node(running: RunningNode, grace: Duration) -> Option<NodeStatsSnapshot> {
    match running {
        RunningNode::Proc { mut child, mut stdout } => {
            let (tx, rx) = mpsc::channel();
            let drain = std::thread::spawn(move || tx.send(io::copy(&mut stdout, &mut io::sink())));
            let _ = rx.recv_timeout(grace);
            let _ = child.kill();
            let _ = child.wait();
            // The pipe's only writer is gone, so the drain has ended.
            let _ = drain.join();
            None
        }
        RunningNode::Thread { server, join } => {
            server.request_shutdown();
            join.join().ok().and_then(Result::ok)
        }
    }
}

/// Sheds every in-flight frame and drops the connection — the only
/// way the pipelined driver abandons a conversation. Each pending
/// frame's requests were already counted offered, and a connection we
/// no longer trust to be in sync will never answer them, so the whole
/// tail lands in `shed` — conservation stays exact by construction.
fn shed_conn(
    conn: &mut Option<(Conn, u64)>,
    pending: &mut VecDeque<(u32, u64)>,
    cells: &LedgerCells,
) {
    let lost: u64 = pending.iter().map(|&(_, n)| n).sum();
    if lost > 0 {
        cells.shed.fetch_add(lost, Ordering::Relaxed);
    }
    pending.clear();
    *conn = None;
}

/// Receives and tallies the oldest in-flight reply. The node answers
/// frames strictly in receipt order, so the front of `pending` names
/// the only acceptable tag; a different tag, a tally that does not
/// cover the frame, or any socket error is a desync — the caller
/// sheds the tail and drops the connection. Returns false on desync.
fn drain_one(conn: &mut Conn, pending: &mut VecDeque<(u32, u64)>, cells: &LedgerCells) -> bool {
    let Some(&(want, expected)) = pending.front() else { return true };
    if !matches!(conn.recv_len(), Ok(Some(_))) {
        return false;
    }
    let Ok((tag, local, peer, origin, shed)) = decode_batch_served(conn.last_frame()) else {
        return false;
    };
    if tag != want || local + peer + origin + shed != expected {
        return false;
    }
    cells.local.fetch_add(local, Ordering::Relaxed);
    cells.peer.fetch_add(peer, Ordering::Relaxed);
    cells.origin.fetch_add(origin, Ordering::Relaxed);
    cells.shed.fetch_add(shed, Ordering::Relaxed);
    pending.pop_front();
    true
}

/// Drains in-flight replies, oldest first, until at most `keep` remain.
/// In-order draining keeps the ledger identical to stop-and-wait —
/// every frame's tally lands exactly once, in send order — and a
/// desync sheds the whole tail, so every frame resolves to completed
/// or shed, never lost.
fn drain_to(
    conn: &mut Option<(Conn, u64)>,
    pending: &mut VecDeque<(u32, u64)>,
    cells: &LedgerCells,
    keep: usize,
) {
    while pending.len() > keep {
        let Some((c, _)) = conn.as_mut() else { break };
        if !drain_one(c, pending, cells) {
            shed_conn(conn, pending, cells);
        }
    }
}

/// The running cluster as the node drivers, the controller and the
/// fault action share it.
struct WireCluster<'a> {
    spec: &'a WireSpec,
    slots: Vec<Mutex<NodeSlot>>,
    ctl: Mutex<WireCtl>,
    cells: Vec<LedgerCells>,
    /// Cluster-wide offered count: the fault clock.
    offered: AtomicU64,
    faults: FaultController,
    /// Ledgers when the last revived node went live: the base of the
    /// post-revival tail window.
    tail_base: Mutex<Option<Vec<Ledger>>>,
    /// The first failed revival, returned once every node is stopped.
    error: Mutex<Option<EngineError>>,
    /// Meters the drive path's frames and bytes.
    meter: Arc<WireMeter>,
    /// The adaptive controller's rank tap, when one rides the run.
    tap: Option<Arc<RankTap>>,
}

impl WireCluster<'_> {
    /// The wire's fault action, run by the driver whose batch crossed
    /// the trigger while every other crossing driver waits: SIGKILL a
    /// node process, or respawn and re-provision it. Returns the config
    /// epoch after.
    fn apply(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::KillNode(n) => {
                // SIGKILL: no drain, no goodbye.
                if let Some(node) = lock_recover(&self.slots[n]).node.take() {
                    stop_node(node, Duration::ZERO);
                }
            }
            FaultKind::ReviveNode(n) => {
                if let Err(e) = self.revive(n) {
                    // The node stays dead and its traffic is shed.
                    lock_recover(&self.error).get_or_insert(e);
                }
            }
            other => unreachable!("WireSpec::validate admits no {other} fault"),
        }
        lock_recover(&self.ctl).epoch
    }

    /// Respawns node `n` and re-provisions everyone under the
    /// coordinator's *current* cumulative layout — the controller may
    /// have issued chain epochs since the kill, and the revived node
    /// must not come back onto a stale slice plan. Its slot goes live
    /// only after every push landed, so the tail window starts after
    /// them.
    fn revive(&self, n: usize) -> Result<(), EngineError> {
        let (node, addr) = spawn_node(self.spec, n)?;
        let mut ctl = lock_recover(&self.ctl);
        ctl.epoch += 1;
        if let Err(e) = push_current(&ctl, &self.slots, Some((n, &addr))) {
            stop_node(node, Duration::ZERO);
            return Err(e);
        }
        *lock_recover(&self.tail_base) =
            Some(self.cells.iter().map(LedgerCells::snapshot).collect());
        let mut slot = lock_recover(&self.slots[n]);
        slot.addr = addr;
        slot.generation += 1;
        slot.node = Some(node);
        Ok(())
    }

    /// Installs one controller chain step cluster-wide: records the
    /// new cumulative layout, bumps the epoch, and pushes it. Fails
    /// only on a step that is not a layout of this cluster: a push to a
    /// node killed after the slot snapshot fails harmlessly, as its
    /// revival re-pushes the then-current layout.
    fn install(&self, step: &LayoutStep) -> Result<(), EngineError> {
        let mut ctl = lock_recover(&self.ctl);
        ctl.layout = ctl.layout.with_assignments(&step.assignments)?;
        ctl.epoch += 1;
        if let Some(s) = step.fitted_s {
            ctl.fitted_s = s;
        }
        let _ = push_current(&ctl, &self.slots, None);
        Ok(())
    }
}

/// A lane's connection to one node, the incarnation it was dialled
/// to, and its frames in flight as `(tag, requests)`, oldest first.
/// Invariant: `pending` non-empty ⇒ `conn` is Some — `shed_conn` is
/// the only path that drops the connection and it clears the queue.
#[derive(Default)]
struct NodeConn {
    conn: Option<(Conn, u64)>,
    pending: VecDeque<(u32, u64)>,
    next_tag: u32,
}

/// The wire tier's [`Admission`] for one load lane: per node, the
/// connection, its credit window and in-order drain, the desync and
/// dead-node shed, and the redial to a revived incarnation; per run,
/// the fault-clock tick and the tap record.
struct WireAdmission<'a> {
    cluster: &'a WireCluster<'a>,
    /// Indexed by node id; only the lane's own nodes are ever dialled.
    conns: Vec<NodeConn>,
    contents: Vec<u64>,
}

impl WireAdmission<'_> {
    /// Sends the staged contents to node `id` as one `BatchLookup`
    /// frame. Returns how many were shed at the driver edge instead: all
    /// of them when the node is dead or unreachable, else none.
    fn send(&mut self, id: usize) -> u64 {
        let (cells, node) = (&self.cluster.cells[id], &mut self.conns[id]);
        let n = self.contents.len() as u64;
        // Window full: make room for one more frame.
        drain_to(&mut node.conn, &mut node.pending, cells, self.cluster.spec.window - 1);
        let (addr, generation, alive) = {
            let s = lock_recover(&self.cluster.slots[id]);
            (s.addr.clone(), s.generation, s.node.is_some())
        };
        // A dead node, or one replaced under us: frames in flight
        // belonged to an incarnation that will never answer them.
        if !alive || node.conn.as_ref().is_some_and(|&(_, gen)| gen != generation) {
            shed_conn(&mut node.conn, &mut node.pending, cells);
        }
        if !alive {
            return n;
        }
        if node.conn.is_none() {
            let timeout = frame_reply_timeout(self.cluster.spec.nodes, &self.cluster.spec.degrade);
            match connect_driver(&addr, timeout, Some(Arc::clone(&self.cluster.meter))) {
                Ok(c) => node.conn = Some((c, generation)),
                Err(_) => return n,
            }
        }
        let (tag, contents) = (node.next_tag, &self.contents);
        node.next_tag = tag.wrapping_add(1);
        let (c, _) = node.conn.as_mut().expect("connected above");
        if c.send(|buf| encode_batch_lookup_from(buf, tag, contents)).is_err() {
            shed_conn(&mut node.conn, &mut node.pending, cells);
            return n;
        }
        node.pending.push_back((tag, n));
        self.cluster.meter.window(node.pending.len());
        0
    }
}

impl Admission for WireAdmission<'_> {
    fn offer(&mut self, node: usize, _: usize, run: &mut Vec<ContentId>) -> u64 {
        let (cluster, n) = (self.cluster, run.len() as u64);
        // One fault-clock tick per run, as in process: a run that
        // crosses a trigger is offered to the post-fault cluster.
        let op = cluster.offered.fetch_add(n, Ordering::Relaxed) + n;
        cluster.faults.advance(op, |kind| cluster.apply(kind));
        // A node's lane is the single writer of its tap lane, so the
        // lock-free sampling contract holds on the wire exactly as in
        // process. Ranks are recorded at offer time — the controller
        // observes demand, served or shed.
        if let Some(tap) = &cluster.tap {
            tap.record_run(node, run);
        }
        self.contents.clear();
        self.contents.extend(run.drain(..).map(ContentId::rank));
        self.send(node)
    }

    fn close(&mut self) {
        for (node, cells) in self.conns.iter_mut().zip(&self.cluster.cells) {
            drain_to(&mut node.conn, &mut node.pending, cells, 0);
            if let Some((conn, _)) = node.conn.take() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// Runs a multi-process (or in-process multi-thread) wire-mode
/// serving benchmark: spawns the nodes, provisions them at epoch 1,
/// drives the load's lanes over TCP, applies the kill/revive
/// schedule, and returns a [`WireOutcome`] whose every node's ledger
/// has been checked.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] / [`EngineError::FaultSpec`] for a
/// bad spec, [`EngineError::Workload`] for a bad stream,
/// [`EngineError::Net`] if bring-up or a revival fails, and
/// [`EngineError::Accounting`] if a node's ledger does not balance.
pub fn wire_bench(spec: &WireSpec) -> Result<WireOutcome, EngineError> {
    let layout = spec.validate()?;
    let runner = spec
        .adapt
        .map(|cfg| Controller::new(spec.nodes, spec.catalogue, spec.capacity, spec.ell, cfg))
        .transpose()?
        .map(AdaptiveRunner::new)
        .transpose()?;
    let lanes = deal(&spec.load, spec.nodes, spec.catalogue)?;

    // Bring-up: spawn every node and provision it at epoch 1. A failure
    // stops every node already up at once, or they would be orphaned.
    let mut slots = Vec::with_capacity(spec.nodes);
    let ctl = WireCtl { epoch: 1, layout, fitted_s: 0.0 };
    let up = (0..spec.nodes)
        .try_for_each(|id| {
            let (node, addr) = spawn_node(spec, id)?;
            slots.push(NodeSlot { addr, generation: 0, node: Some(node) });
            Ok(())
        })
        .and_then(|()| {
            let peers = slots.iter().map(|slot| slot.addr.clone()).collect();
            let initial = ctl.layout.provision(ctl.epoch, ctl.fitted_s, peers);
            slots.iter().try_for_each(|slot| push_epoch_to(&slot.addr, &initial))
        });
    if let Err(e) = up {
        for node in slots.into_iter().filter_map(|slot| slot.node) {
            stop_node(node, Duration::ZERO);
        }
        return Err(e);
    }

    let cluster = WireCluster {
        spec,
        slots: slots.into_iter().map(Mutex::new).collect(),
        ctl: Mutex::new(ctl),
        cells: LedgerCells::per_node(spec.nodes),
        offered: AtomicU64::new(0),
        faults: FaultController::new(spec.faults.clone()),
        tail_base: Mutex::new(None),
        error: Mutex::new(None),
        meter: Arc::new(WireMeter::default()),
        tap: runner.as_ref().map(AdaptiveRunner::tap),
    };
    // The adaptive controller ticks while the lanes run, then drains
    // its chain so the cluster lands on the final layout before stats
    // collection.
    let (report, controller) = drive_beside(
        runner,
        |step| cluster.install(step),
        || {
            let conns = || std::iter::repeat_with(NodeConn::default).take(spec.nodes).collect();
            let admission =
                || WireAdmission { cluster: &cluster, conns: conns(), contents: vec![] };
            let (placement, cells) = (spec.placement, &cluster.cells);
            run_lanes(&spec.load, &lanes, placement, spec.shards_per_node, cells, admission)
        },
    );

    // Staged-rollout convergence: re-push the final cumulative layout,
    // so a node that missed an epoch (a push racing its kill window, a
    // transient socket failure) catches up before stats collection.
    if spec.adapt.is_some() {
        let _ = push_current(&lock_recover(&cluster.ctl), &cluster.slots, None);
    }

    // Collect final node-side stats from survivors, then shut every
    // node down in an orderly way.
    let mut node_stats: Vec<Option<NodeStatsSnapshot>> = vec![None; spec.nodes];
    let mut alive_epochs: Vec<(usize, u64)> = Vec::new();
    for (id, slot) in cluster.slots.iter().enumerate() {
        let slot = lock_recover(slot);
        if slot.node.is_none() {
            continue;
        }
        if let Ok(mut conn) = connect_driver(&slot.addr, Duration::from_secs(2), None) {
            if conn.send_request(&Request::Stats).is_ok() {
                if let Ok(Response::StatsReply(snapshot)) = conn.recv_response() {
                    alive_epochs.push((id, snapshot.epoch));
                    node_stats[id] = Some(snapshot);
                }
            }
            let _ = conn.send_request(&Request::Shutdown);
            let _ = conn.recv_response();
        }
    }
    for (id, slot) in cluster.slots.iter().enumerate() {
        let node = lock_recover(slot).node.take();
        if let Some(snapshot) = node.and_then(|node| stop_node(node, Duration::from_secs(3))) {
            node_stats[id].get_or_insert(snapshot);
        }
    }
    // A failed revival or a planner error ends the run, once every
    // node is stopped.
    if let Some(e) = lock_recover(&cluster.error).take() {
        return Err(e);
    }
    let controller = controller.transpose()?;

    let epoch = lock_recover(&cluster.ctl).epoch;
    if controller.is_some() {
        if let Some(&(id, got)) = alive_epochs.iter().find(|&&(_, e)| e != epoch) {
            return Err(proto_err(format!(
                "staged rollout did not converge: node {id} reports epoch {got}, \
                 coordinator finished at {epoch}"
            )));
        }
    }

    check_conservation(&report.per_node)?;
    let tail_per_node = lock_recover(&cluster.tail_base)
        .take()
        .map(|base| report.per_node.iter().zip(&base).map(|(now, then)| now.since(then)).collect());
    Ok(WireOutcome {
        nodes: spec.nodes,
        epoch,
        listen_addrs: cluster.slots.iter().map(|slot| lock_recover(slot).addr.clone()).collect(),
        report,
        tail_per_node,
        node_stats,
        fault_log: cluster.faults.log(),
        controller,
        pipeline: WirePipelineStats {
            window: spec.window as u64,
            wire_batch: spec.wire_batch as u64,
            max_in_flight: cluster.meter.max_window.load(Ordering::Relaxed),
            frames_out: cluster.meter.frames_out.load(Ordering::Relaxed),
            frames_in: cluster.meter.frames_in.load(Ordering::Relaxed),
            bytes_out: cluster.meter.bytes_out.load(Ordering::Relaxed),
            bytes_in: cluster.meter.bytes_in.load(Ordering::Relaxed),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::tier_fractions;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn in_process_loopback_cluster_serves_all_tiers_conservatively() {
        let mut spec = WireSpec::new(3);
        (spec.load.horizon_ms, spec.load.rate_per_node_per_ms, spec.load.seed) = (400.0, 2.0, 7);
        let outcome = wire_bench(&spec).expect("wire bench");
        check_conservation(&outcome.report.per_node).expect("conservation");
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.report.per_node.len(), 3);
        let total = outcome.report.total();
        assert!(total.offered > 0, "workload must offer requests");
        assert_eq!(total.shed, 0, "no faults: nothing sheds");
        let (local, peer, origin) = tier_fractions(&outcome.report.per_node);
        assert!(local > 0.0, "popularity prefix must serve locally");
        assert!(peer > 0.0, "coordinated slices must serve over the wire");
        assert!(origin > 0.0, "catalogue tail must fall through to origin");
        assert!((local + peer + origin - 1.0).abs() < 1e-9);
        for stats in outcome.node_stats.iter().flatten() {
            assert_eq!(stats.epoch, 1);
        }
        let forwards: u64 = outcome.node_stats.iter().flatten().map(|s| s.forwards_in).sum();
        assert!(forwards > 0, "peer serving implies forward frames were exchanged");
    }

    /// The wire tier's staged rollout: a deliberately mis-provisioned
    /// cluster (ℓ far below the optimum for the true exponent) is
    /// walked to the re-solved layout by the driver-side controller
    /// through multiple budgeted epochs, and every node converges to
    /// the same final epoch carrying the fitted-exponent snapshot.
    #[test]
    fn adaptive_wire_bench_stages_epochs_and_converges_every_node() {
        let mut spec = WireSpec::new(3);
        spec.ell = 0.2;
        spec.load = OpenLoopConfig {
            zipf_s: 1.1,
            rate_per_node_per_ms: 4.0,
            horizon_ms: 600.0,
            paced: true,
            batch: 16,
            seed: 11,
            ..spec.load
        };
        spec.adapt = Some(ControllerConfig {
            decay: 0.9,
            min_window: 300.0,
            movement_budget: 64,
            sample_every: 1,
            tick_interval: Duration::from_millis(5),
            ..ControllerConfig::default()
        });
        let outcome = wire_bench(&spec).expect("adaptive wire bench");
        check_conservation(&outcome.report.per_node).expect("conservation");
        let report = outcome.controller.as_ref().expect("controller report present");
        assert!(report.retargets >= 1, "a mis-provisioned ell must retarget");
        assert!(
            report.epochs_issued >= 2,
            "the retarget must be staged incrementally, got {} epochs",
            report.epochs_issued
        );
        assert!(report.slices_moved > 0);
        assert_eq!(
            outcome.epoch,
            1 + report.epochs_issued,
            "every issued epoch must have landed cluster-wide"
        );
        let fitted = report.fitted_s.expect("a fit happened");
        assert!((fitted - 1.1).abs() < 0.2, "fit {fitted} missed s=1.1");
        for stats in outcome.node_stats.iter().flatten() {
            assert_eq!(stats.epoch, outcome.epoch, "all nodes converge to the same epoch");
            let node_view = f64::from_bits(stats.fitted_s_bits);
            assert!(
                (node_view - fitted).abs() < 0.2,
                "node stats carry the fitted snapshot, got {node_view}"
            );
        }
    }

    /// The pushes the repository benchmark makes must not change by a
    /// byte: `(nodes, catalogue, capacity, ell, policy)` → the literal
    /// `Provision` each shape provisions.
    #[test]
    fn provision_is_golden_for_the_benchmark_shapes() {
        use super::super::codec::SliceAssignment;
        use StorePolicy::{Lru, Provisioned};
        let slices = |cuts: &[u64]| -> Vec<SliceAssignment> {
            let pairs = cuts.windows(2).enumerate();
            pairs.map(|(n, p)| SliceAssignment { node: n as u32, start: p[0], end: p[1] }).collect()
        };
        let golden = [
            ((3, 10_000, 100, 0.5, Provisioned), 50, 50, slices(&[51, 101, 151, 201])),
            (
                (2, 1_000_000, 10_000, 0.5, Provisioned),
                5_000,
                5_000,
                slices(&[5_001, 10_001, 15_001]),
            ),
            ((2, 200_000, 4_000, 0.8, Lru), 800, 3_200, slices(&[801, 4_001, 7_201])),
        ];
        for ((nodes, catalogue, capacity, ell, policy), prefix, x, slices) in golden {
            let mut spec = WireSpec::new(nodes);
            (spec.catalogue, spec.capacity, spec.ell, spec.policy) =
                (catalogue, capacity, ell, policy);
            let peers: Vec<String> =
                (0..nodes).map(|n| format!("127.0.0.1:{}", 4_000 + n)).collect();
            let expected = Provision {
                epoch: 1,
                nodes: nodes as u32,
                catalogue,
                capacity,
                prefix,
                x,
                fitted_s: 0.0,
                policy,
                slices,
                peers: peers.clone(),
            };
            assert_eq!(spec.provision(1, peers), expected, "{nodes} × {capacity} at ell {ell}");
        }
    }

    /// One shape check for both tiers: the same oversized shape is
    /// refused in process and on the wire with the same words.
    #[test]
    fn both_tiers_refuse_an_oversized_shape_alike() {
        let config = crate::ClusterConfig {
            nodes: 4,
            catalogue: 200,
            capacity: 100,
            ell: 0.5,
            ..crate::ClusterConfig::default()
        };
        let Err(in_process) = crate::Cluster::new(config) else { panic!("cluster accepted") };
        let mut spec = WireSpec::new(4);
        (spec.catalogue, spec.capacity, spec.ell) = (200, 100, 0.5);
        let wire = wire_bench(&spec).expect_err("wire accepted");
        assert_eq!(in_process.to_string(), wire.to_string());
        assert!(wire.to_string().contains("catalogue 200 too small"), "{wire}");
    }

    /// One workload check for both tiers: a zero batch and a drift
    /// point at the start are refused in process and on the wire with
    /// the same words, before anything spawns.
    #[test]
    fn both_tiers_refuse_a_bad_workload_alike() {
        let early = vec![crate::DriftSegment { at_ms: 0.0, zipf_s: 1.1 }];
        for load in [
            OpenLoopConfig { batch: 0, ..OpenLoopConfig::default() },
            OpenLoopConfig { drift: early, ..OpenLoopConfig::default() },
        ] {
            let config = crate::ServeBenchConfig { load: load.clone(), ..Default::default() };
            let in_process = crate::serve_bench(&config).expect_err("serve-bench accepted");
            let mut spec = WireSpec::new(2);
            spec.load = load;
            let wire = wire_bench(&spec).expect_err("wire accepted");
            assert_eq!(in_process.to_string(), wire.to_string());
        }
    }

    #[test]
    fn wire_spec_rejects_malformed_fault_schedules() {
        let mut spec = WireSpec::new(2);
        spec.faults = FaultPlan::none().with_node_outage(5, 10, None);
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
        spec.faults =
            FaultPlan::new(vec![FaultEvent { at_op: 10, kind: FaultKind::ReviveNode(0) }]);
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
        // Kill/revive requires real child processes.
        spec.faults = FaultPlan::none().with_node_outage(0, 10, Some(20));
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
        // Seeded outages alternate kill and revive per node, so they pass.
        spec.launch = NodeLaunch::Exe("ccn".into());
        spec.faults = FaultPlan::parse("seeded:7:800:200", 2, 1, 2_000).expect("grammar");
        assert!(!spec.faults.is_empty());
        spec.validate().expect("seeded outages are wire-legal");
    }

    /// The report's clock is the drive's: it stops when the last lane
    /// has closed, not when the controller's ticker beside the drive
    /// next wakes — on either tier.
    #[test]
    fn wall_clock_stops_when_the_lanes_close() {
        let adapt = ControllerConfig {
            tick_interval: Duration::from_secs(1),
            ..ControllerConfig::default()
        };
        let mut spec = WireSpec::new(3);
        spec.load.horizon_ms = 20.0;
        spec.adapt = Some(adapt);
        let wire = wire_bench(&spec).expect("adaptive wire bench");
        let config = crate::ServeBenchConfig {
            load: spec.load.clone(),
            adapt: Some(adapt),
            ..Default::default()
        };
        let serve = crate::serve_bench(&config).expect("adaptive serve bench");
        for (tier, report) in [("wire", &wire.report), ("in process", &serve.report)] {
            assert!(report.total().offered > 0, "{tier}: workload offered nothing");
            assert!(report.wall_ms < 1_000.0, "{tier}: wall {} ms", report.wall_ms);
        }
    }

    /// Driver-side desync handling: a reply carrying a stale tag (or
    /// a tally that does not cover its frame) makes `drain_one` report
    /// desync, and `shed_conn` sheds the whole in-flight tail.
    #[test]
    fn stale_tag_reply_sheds_the_in_flight_tail() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let (server, _) = listener.accept().expect("accept");
        let mut server_conn = Conn::new(server, None);
        // The server answers the front frame (tag 1) with tag 99.
        server_conn
            .send_response(&Response::BatchServed {
                tag: 99,
                local: 4,
                peer: 0,
                origin: 0,
                shed: 0,
            })
            .expect("mis-tagged reply");
        let cells = LedgerCells::default();
        let mut pending: VecDeque<(u32, u64)> = VecDeque::from([(1, 4), (2, 7)]);
        let mut conn = Some((Conn::new(client, None), 0u64));
        let (c, _) = conn.as_mut().expect("conn");
        assert!(!drain_one(c, &mut pending, &cells), "stale tag must read as desync");
        shed_conn(&mut conn, &mut pending, &cells);
        assert!(conn.is_none() && pending.is_empty());
        let ledger = cells.snapshot();
        assert_eq!(ledger.completed(), 0, "a mis-tagged tally must not land");
        assert_eq!(ledger.shed, 11, "both in-flight frames shed, 4 + 7 requests");
    }
}
