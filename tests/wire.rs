//! Wire-tier equivalence: the multi-process TCP serving tier must
//! reproduce the in-process engine's tier economics.
//!
//! Both tiers drive the *identical* pre-drawn request stream — one
//! `OpenLoopConfig` run by the one load driver, whose stream depends
//! only on the workload and the node count — and both
//! provision the identical static stores (`x = round(ℓ·c)` slots of
//! the coordinated slice plus the `c − x` popularity prefix). With
//! static stores the tier a request lands in is a pure function of
//! `(router, content)`, so agreement is not a statistical accident:
//! any divergence beyond sampling tolerance means the wire path
//! routes, forwards, or sheds differently than the engine it wraps.
//!
//! The acceptance bar mirrors tests/engine_vs_sim.rs: tier fractions
//! within a 2% differential tolerance, conservation bit-exact.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use ccn_engine::load::drive;
use ccn_engine::net::{
    wire_bench, NodeConfig, NodeLaunch, NodeServer, NodeStatsSnapshot, Provision, Request,
    Response, WireOutcome, WireSpec, PROTOCOL_VERSION,
};
use ccn_engine::{
    check_conservation, serve_bench, shard_of, tier_fractions, Cluster, ClusterConfig,
    DriftSegment, LoadReport, OpenLoopConfig, ServeBenchConfig, StorePolicy,
};
use ccn_sim::store::{ContentStore as _, LruStore};
use ccn_sim::ContentId;
use ccn_zipf::{Zipf, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 3;
const CATALOGUE: u64 = 200;
const CAPACITY: u64 = 30;
const ELL: f64 = 0.5;
const ZIPF_S: f64 = 0.8;
const RATE_PER_MS: f64 = 1.0;
const HORIZON_MS: f64 = 2_000.0;
const SEED: u64 = 42;
/// The differential tolerance shared with tests/engine_vs_sim.rs.
const TOLERANCE: f64 = 0.02;

/// Locates the `ccn` binary next to this test executable, building it
/// on demand (cheap when the workspace is already compiled).
fn ccn_exe() -> std::path::PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let exe = dir.join(format!("ccn{}", std::env::consts::EXE_SUFFIX));
    if exe.exists() {
        return exe;
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["build", "-p", "ccn-cli", "--bin", "ccn"]);
    if dir.ends_with("release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("spawn cargo to build the ccn binary");
    assert!(status.success(), "cargo build -p ccn-cli failed");
    assert!(exe.exists(), "built ccn binary missing at {}", exe.display());
    exe
}

/// The one workload both tiers are offered: one lane per node, 64
/// requests per run.
fn workload() -> OpenLoopConfig {
    OpenLoopConfig {
        generators: NODES,
        zipf_s: ZIPF_S,
        rate_per_node_per_ms: RATE_PER_MS,
        horizon_ms: HORIZON_MS,
        seed: SEED,
        batch: 64,
        ..OpenLoopConfig::default()
    }
}

fn wire_spec(launch: NodeLaunch, shards: usize) -> WireSpec {
    let mut spec = WireSpec::new(NODES);
    spec.shards_per_node = shards;
    spec.catalogue = CATALOGUE;
    spec.capacity = CAPACITY;
    spec.ell = ELL;
    spec.load = workload();
    spec.launch = launch;
    spec
}

fn engine_cluster(shards_per_node: usize) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        shards_per_node,
        queue_capacity: 8_192,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell: ELL,
        policy: StorePolicy::Provisioned,
        ..ClusterConfig::default()
    }
}

fn engine_fractions() -> (u64, f64, f64, f64) {
    let config = ServeBenchConfig {
        cluster: engine_cluster(1),
        load: workload(),
        faults: ccn_engine::FaultPlan::none(),
        adapt: None,
    };
    let outcome = serve_bench(&config).expect("in-process engine run");
    let total = outcome.report.total();
    assert_eq!(total.shed, 0, "deep queues must not shed");
    let (local, peer, origin) = tier_fractions(&outcome.report.per_node);
    (total.offered, local, peer, origin)
}

fn assert_matches_engine(outcome: &WireOutcome, label: &str) {
    check_conservation(&outcome.report.per_node).expect("wire run conserves");
    let total = outcome.report.total();
    assert_eq!(total.shed, 0, "{label}: healthy loopback run shed requests");
    let (offered, local, peer, origin) = engine_fractions();
    assert_eq!(
        total.offered, offered,
        "{label}: wire driver drew a different request stream than the engine"
    );
    let (wire_local, wire_peer, wire_origin) = tier_fractions(&outcome.report.per_node);
    for (tier, got, want) in
        [("local", wire_local, local), ("peer", wire_peer, peer), ("origin", wire_origin, origin)]
    {
        assert!(
            (got - want).abs() <= TOLERANCE,
            "{label}: {tier} fraction {got:.4} vs engine {want:.4} \
             differs by more than {TOLERANCE}"
        );
    }
    // The cluster really served over the wire: peer-tier hits require
    // forward frames answered by a remote holder process.
    assert!(wire_peer > 0.0, "{label}: no request was ever peer-served over the wire");
}

/// A ≥3-node cluster of real `ccn node` OS processes serves the Zipf
/// stream with the same tier split as the in-process engine.
#[test]
fn multi_process_cluster_matches_in_process_engine_tiers() {
    let outcome =
        wire_bench(&wire_spec(NodeLaunch::Exe(ccn_exe()), 1)).expect("multi-process wire run");
    assert_eq!(outcome.listen_addrs.len(), NODES);
    assert_matches_engine(&outcome, "processes");
}

/// The same equivalence holds with node servers as driver threads —
/// isolating the wire protocol itself from process-spawn effects —
/// and with every node's store split over three serve workers, where
/// most of a frame's items cross a ring to another worker's shard.
#[test]
fn in_process_wire_threads_match_engine_tiers() {
    for shards in [1, 3] {
        let spec = wire_spec(NodeLaunch::InProcess, shards);
        let outcome = wire_bench(&spec).expect("threaded wire run");
        assert_matches_engine(&outcome, &format!("threads, {shards} shard(s)"));
    }
}

/// The offered stream depends only on the workload and the node count:
/// in process, one, two or three lanes offer every node the same
/// requests — under static stores, the same per-node ledgers — and
/// the wire driver's lanes, one per node, offer each node as many,
/// drift included.
#[test]
fn the_offered_stream_depends_only_on_the_workload_and_the_nodes() {
    let drift = vec![DriftSegment { at_ms: HORIZON_MS / 2.0, zipf_s: 1.2 }];
    let load = OpenLoopConfig { drift, ..workload() };
    let reports: Vec<_> = (1..=3)
        .map(|generators| {
            let cluster = Cluster::new(engine_cluster(2)).expect("cluster");
            let report = drive(&cluster, &OpenLoopConfig { generators, ..load.clone() });
            let report = report.expect("in-process run");
            let _ = cluster.finish();
            assert_eq!((report.generators, report.total().shed), (generators, 0));
            report
        })
        .collect();
    for (lanes, report) in reports.iter().enumerate() {
        assert_eq!(
            report.per_node,
            reports[0].per_node,
            "{} lanes changed what the nodes were offered",
            lanes + 1
        );
    }
    let wire = wire_bench(&WireSpec { load, ..wire_spec(NodeLaunch::InProcess, 1) });
    let wire = wire.expect("wire run").report;
    let offered = |report: &LoadReport| -> Vec<u64> {
        report.per_node.iter().map(|ledger| ledger.offered).collect()
    };
    assert_eq!(
        offered(&wire),
        offered(&reports[0]),
        "the wire offered its nodes a different stream"
    );
}

/// Pipelining is an optimization, not a semantics change: the same
/// spec driven with eight tagged frames in flight (and coalesced peer
/// forwarding) must produce *bit-identical* per-node tier ledgers to
/// the stop-and-wait wire. With static stores the serving tier is a
/// pure function of `(router, content)`, so any divergence — one
/// request migrating between tiers, one extra shed — means the credit
/// window reordered, dropped, or double-counted a frame.
#[test]
fn pipelined_wire_matches_stop_and_wait_ledgers_bit_exactly() {
    for shards in [1, 3] {
        let mut stop_and_wait = wire_spec(NodeLaunch::InProcess, shards);
        stop_and_wait.window = 1;
        stop_and_wait.wire_batch = 1;
        let mut pipelined = wire_spec(NodeLaunch::InProcess, shards);
        pipelined.window = 8;
        pipelined.wire_batch = 64;

        let baseline = wire_bench(&stop_and_wait).expect("stop-and-wait wire run");
        let windowed = wire_bench(&pipelined).expect("pipelined wire run");
        check_conservation(&baseline.report.per_node).expect("stop-and-wait run conserves");
        check_conservation(&windowed.report.per_node).expect("pipelined run conserves");

        assert_eq!(
            baseline.pipeline.max_in_flight, 1,
            "stop-and-wait run must never have more than one frame in flight"
        );
        assert_eq!(
            windowed.pipeline.max_in_flight, 8,
            "pipelined run never filled its credit window"
        );
        assert_eq!(
            baseline.report.per_node, windowed.report.per_node,
            "pipelined wire changed the per-node tier ledgers ({shards} shard(s))"
        );
    }
}

/// A node of this process: its address and the thread serving it.
struct ThreadNode {
    addr: String,
    serving: std::thread::JoinHandle<NodeStatsSnapshot>,
}

fn spawn_node(id: usize, shards: usize) -> ThreadNode {
    let mut config = NodeConfig::new(id);
    config.shards = shards;
    let server = NodeServer::bind(config).expect("bind");
    let addr = server.local_addr().to_string();
    let serving = std::thread::spawn(move || server.run().expect("node run"));
    ThreadNode { addr, serving }
}

/// A stop-and-wait client over the documented framing (`u32-LE length
/// | body`) and the public codec.
struct Client(TcpStream);

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut client = Self(stream);
        let hello = Request::Hello { node: u32::MAX, version: PROTOCOL_VERSION };
        assert_eq!(client.call(&hello), Response::HelloAck { version: PROTOCOL_VERSION });
        client
    }

    fn call(&mut self, request: &Request) -> Response {
        let body = request.encode().expect("encode");
        let len = u32::try_from(body.len()).expect("frame length");
        self.0.write_all(&len.to_le_bytes()).expect("write length");
        self.0.write_all(&body).expect("write body");
        self.recv()
    }

    fn recv(&mut self) -> Response {
        let mut len = [0u8; 4];
        self.0.read_exact(&mut len).expect("read length");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        self.0.read_exact(&mut body).expect("read body");
        Response::decode(&body).expect("decode")
    }

    fn provision(&mut self, provision: &Provision) {
        let ack = self.call(&Request::ConfigEpoch(provision.clone()));
        assert_eq!(ack, Response::EpochAck { epoch: provision.epoch });
    }

    /// One `BatchLookup` frame; its `(local, peer, origin)` tally.
    fn lookup(&mut self, tag: u32, ranks: &[u64]) -> (u64, u64, u64) {
        match self.call(&Request::BatchLookup { tag, contents: ranks.to_vec() }) {
            Response::BatchServed { tag: got, local, peer, origin, shed: 0 } if got == tag => {
                (local, peer, origin)
            }
            other => panic!("frame {tag} answered {other:?}"),
        }
    }

    /// `BatchLookup` frames tagged from `first_tag`, all written with
    /// one `write` before any reply is read; their `(local, peer,
    /// origin)` tallies.
    fn lookups(&mut self, first_tag: u32, frames: &[Vec<u64>]) -> Vec<(u64, u64, u64)> {
        let mut burst = Vec::new();
        for (tag, ranks) in (first_tag..).zip(frames) {
            let body =
                Request::BatchLookup { tag, contents: ranks.clone() }.encode().expect("encode");
            burst.extend_from_slice(&u32::try_from(body.len()).expect("length").to_le_bytes());
            burst.extend_from_slice(&body);
        }
        self.0.write_all(&burst).expect("write burst");
        (first_tag..)
            .take(frames.len())
            .map(|tag| match self.recv() {
                Response::BatchServed { tag: got, local, peer, origin, shed: 0 } if got == tag => {
                    (local, peer, origin)
                }
                other => panic!("frame {tag} answered {other:?}"),
            })
            .collect()
    }

    fn stats(&mut self) -> NodeStatsSnapshot {
        match self.call(&Request::Stats) {
            Response::StatsReply(stats) => stats,
            other => panic!("stats answered {other:?}"),
        }
    }

    fn shutdown(mut self, node: ThreadNode) -> NodeStatsSnapshot {
        assert_eq!(self.call(&Request::Shutdown), Response::Bye);
        node.serving.join().expect("node thread")
    }
}

/// `frames` frames of 64 i.i.d. Zipf(`s`) ranks over `catalogue`.
fn zipf_frames(s: f64, catalogue: u64, seed: u64, frames: usize) -> Vec<Vec<u64>> {
    let sampler = ZipfSampler::new(s, catalogue).expect("sampler");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..frames).map(|_| (0..64).map(|_| sampler.sample(&mut rng)).collect()).collect()
}

/// What one node's counters must read after a replayed schedule.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    lookups: u64,
    local: u64,
    peer: u64,
    origin: u64,
    forwards_out: u64,
    forwards_in: u64,
    forward_hits: u64,
    forward_misses: u64,
}

impl Ledger {
    fn of(stats: &NodeStatsSnapshot) -> Self {
        Self {
            lookups: stats.lookups,
            local: stats.local,
            peer: stats.peer,
            origin: stats.origin,
            forwards_out: stats.forwards_out,
            forwards_in: stats.forwards_in,
            forward_hits: stats.forward_hits,
            forward_misses: stats.forward_misses,
        }
    }
}

/// The LRU wire tier of two nodes, request by request: a node serves
/// its frame in order — hit → touch; a miss it keeps for itself
/// (uncoordinated, or its own slice) → origin, admitted; a miss the
/// other node holds → forwarded — and then the holder serves the
/// forwards in order, admitting what it misses. A node's store is one
/// LRU per shard, each with its share of the capacity.
struct LruReplay {
    provision: Provision,
    stores: [Vec<LruStore>; 2],
    ledgers: [Ledger; 2],
}

impl LruReplay {
    fn holder(&self, rank: u64) -> Option<usize> {
        let slice = self.provision.slices.iter().find(|s| (s.start..s.end).contains(&rank))?;
        Some(slice.node as usize)
    }

    fn new(provision: Provision, shards: usize) -> Self {
        let capacity = usize::try_from(provision.capacity).expect("capacity");
        let node = || -> Vec<LruStore> {
            let share = |shard| capacity / shards + usize::from(shard < capacity % shards);
            (0..shards).map(|shard| LruStore::new(share(shard).max(1))).collect()
        };
        Self { provision, stores: [node(), node()], ledgers: [Ledger::default(); 2] }
    }

    fn store(&mut self, node: usize, id: ContentId) -> &mut LruStore {
        let shards = self.stores[node].len();
        &mut self.stores[node][shard_of(id, shards)]
    }

    fn serve(&mut self, node: usize, frame: &[u64]) -> (u64, u64, u64) {
        let other = 1 - node;
        let (mut local, mut peer, mut origin) = (0u64, 0u64, 0u64);
        let mut forwards = Vec::new();
        for &rank in frame {
            let id = ContentId(rank);
            if self.store(node, id).contains(id) {
                self.store(node, id).on_hit(id);
                local += 1;
            } else if self.holder(rank) == Some(other) {
                forwards.push(id);
            } else {
                self.store(node, id).on_data(id);
                origin += 1;
            }
        }
        for &id in &forwards {
            if self.store(other, id).contains(id) {
                self.store(other, id).on_hit(id);
                self.ledgers[other].forward_hits += 1;
                peer += 1;
            } else {
                self.store(other, id).on_data(id);
                self.ledgers[other].forward_misses += 1;
                origin += 1;
            }
        }
        self.ledgers[other].forwards_in += forwards.len() as u64;
        let ledger = &mut self.ledgers[node];
        ledger.lookups += frame.len() as u64;
        ledger.local += local;
        ledger.peer += peer;
        ledger.origin += origin;
        ledger.forwards_out += forwards.len() as u64;
        (local, peer, origin)
    }
}

/// Under `StorePolicy::Lru` the wire tier is per-request LRU in frame
/// order. Two nodes are driven stop-and-wait from this one thread,
/// alternating, so the interleaving of their frames — and of the
/// forwards each frame causes — is fixed; every frame's tier tally
/// and both nodes' final counters must then equal the offline replay
/// of the same two rank streams exactly.
#[test]
fn two_node_lru_wire_matches_a_per_request_replay() {
    for shards in [1, 3] {
        two_node_lru_wire_matches_the_replay(shards, 1);
    }
}

/// The same replay with each client writing eight frames before it
/// reads a reply — node 0's burst first, then node 1's, so the other
/// node serves only forwards meanwhile. A node serves what one read
/// delivers as one shard run, and every store still sees the op
/// sequence of per-request LRU in frame order.
#[test]
fn two_node_lru_wire_matches_the_replay_through_bursts() {
    for shards in [1, 3] {
        two_node_lru_wire_matches_the_replay(shards, 8);
    }
}

/// Drives both nodes `burst` frames at a time, node 0 first.
fn two_node_lru_wire_matches_the_replay(shards: usize, burst: usize) {
    const FRAMES_PER_NODE: usize = 150;
    let nodes = [spawn_node(0, shards), spawn_node(1, shards)];
    let mut spec = WireSpec::new(2);
    spec.policy = StorePolicy::Lru;
    spec.catalogue = 2_000;
    spec.capacity = 60;
    let provision = spec.provision(1, nodes.iter().map(|n| n.addr.clone()).collect());
    let mut clients = [Client::connect(&nodes[0].addr), Client::connect(&nodes[1].addr)];
    for client in &mut clients {
        client.provision(&provision);
    }
    let streams = [
        zipf_frames(ZIPF_S, spec.catalogue, SEED, FRAMES_PER_NODE),
        zipf_frames(ZIPF_S, spec.catalogue, SEED + 1, FRAMES_PER_NODE),
    ];
    let mut replay = LruReplay::new(provision, shards);
    for first in (0..FRAMES_PER_NODE).step_by(burst) {
        let turns = first..(first + burst).min(FRAMES_PER_NODE);
        for (node, stream) in streams.iter().enumerate() {
            let frames = &stream[turns.clone()];
            let got = clients[node].lookups(first as u32, frames);
            for ((turn, frame), got) in turns.clone().zip(frames).zip(got) {
                assert_eq!(
                    got,
                    replay.serve(node, frame),
                    "node {node} frame {turn}, {shards} shard(s), bursts of {burst}"
                );
            }
        }
    }
    for (node, client) in clients.iter_mut().enumerate() {
        let stats = client.stats();
        assert_eq!(Ledger::of(&stats), replay.ledgers[node], "node {node} ledger");
        assert_eq!(stats.shed + stats.degraded + stats.retried + stats.deadline_expired, 0);
        if burst > 1 {
            assert!(stats.lookup_runs < FRAMES_PER_NODE as u64, "node {node} merged no burst");
        }
    }
    let exercised = replay.ledgers[0];
    assert!(exercised.peer > 0 && exercised.forward_misses > 0 && exercised.local > 0);
    for (client, node) in clients.into_iter().zip(nodes) {
        client.shutdown(node);
    }
}

/// Hit ratio of an LRU cache of `capacity` under IRM with popularity
/// `p`, by the characteristic-time (Che) approximation: the `T` with
/// `Σᵢ (1 − e^{−pᵢT}) = capacity`, then `Σᵢ pᵢ (1 − e^{−pᵢT})`.
fn che_hit_ratio(p: &[f64], capacity: f64) -> f64 {
    let occupancy = |t: f64| p.iter().map(|&pi| 1.0 - (-pi * t).exp()).sum::<f64>();
    let (mut lo, mut hi) = (0.0, 1.0);
    while occupancy(hi) < capacity {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    p.iter().map(|&pi| pi * (1.0 - (-pi * hi).exp())).sum()
}

/// The analytic anchor of the LRU wire tier: one node serving a Zipf
/// IRM stream in 64-request frames behaves as the LRU cache the
/// characteristic-time approximation describes. Counts only — the
/// stream is seeded and stop-and-wait, so the measured ratio is the
/// same on every run.
#[test]
fn lru_node_hit_ratio_matches_the_characteristic_time_approximation() {
    const CATALOGUE: u64 = 2_000;
    const CAPACITY: u64 = 200;
    const S: f64 = 0.7;
    const WARM_FRAMES: usize = 300;
    const MEASURED_FRAMES: usize = 1_500;
    let node = spawn_node(0, 1);
    let mut spec = WireSpec::new(1);
    spec.policy = StorePolicy::Lru;
    spec.catalogue = CATALOGUE;
    spec.capacity = CAPACITY;
    let mut client = Client::connect(&node.addr);
    client.provision(&spec.provision(1, vec![node.addr.clone()]));
    let frames = zipf_frames(S, CATALOGUE, SEED, WARM_FRAMES + MEASURED_FRAMES);
    let (mut hits, mut served) = (0u64, 0u64);
    for (tag, frame) in frames.iter().enumerate() {
        let (local, peer, origin) = client.lookup(tag as u32, frame);
        assert_eq!((local + origin, peer), (64, 0), "a lone node serves local or origin");
        if tag >= WARM_FRAMES {
            hits += local;
            served += 64;
        }
    }
    let zipf = Zipf::new(S, CATALOGUE).expect("zipf");
    let p: Vec<f64> = (1..=CATALOGUE).map(|rank| zipf.pmf(rank)).collect();
    let (measured, predicted) = (hits as f64 / served as f64, che_hit_ratio(&p, CAPACITY as f64));
    assert!(
        (measured - predicted).abs() <= 0.02,
        "LRU hit ratio {measured:.4} vs characteristic-time {predicted:.4}"
    );
    client.shutdown(node);
}
