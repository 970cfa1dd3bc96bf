//! Per-layer probes: each layer's cost measured from outside, by
//! timing calls into its public functions on node-shaped inputs — the
//! same ranks, layout and store shapes the workload runs on. Every
//! probe is the median of [`REPS`] repetitions.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccn_coord::RouterAssignment;
use ccn_engine::net::{Provision, Request, Response};
use ccn_engine::ring::{ring_with, Mode};
use ccn_engine::{
    IdleStrategy, LiveRouting, RingMode, RoutingTable, ShardSpec, ShardedStore, StorePolicy,
};
use ccn_sim::store::{ContentStore, LruStore, StaticStore};
use ccn_sim::ContentId;
use ccn_zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::schedule::tier_of;
use crate::spec::Workload;
use crate::stats::median;

const REPS: usize = 5;
/// Timed probes in [`layer_probes`], which share its time budget.
const TIMED_PROBES: u32 = 15;

/// Runs `pass` (which performs and returns a number of operations)
/// until `rep` has elapsed, [`REPS`] times; median seconds per op.
fn secs_per_op(rep: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let mut results = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < rep {
            ops += pass();
        }
        results.push(start.elapsed().as_secs_f64() / ops.max(1) as f64);
    }
    median(&results).expect("REPS > 0")
}

fn ns_per_op(rep: Duration, pass: impl FnMut() -> u64) -> f64 {
    secs_per_op(rep, pass) * 1.0e9
}

fn us_per_op(rep: Duration, pass: impl FnMut() -> u64) -> f64 {
    secs_per_op(rep, pass) * 1.0e6
}

/// Node 0's store under the layout, built as `net.rs` builds it.
fn node_store(p: &Provision) -> Box<dyn ContentStore> {
    match p.policy {
        StorePolicy::Provisioned => Box::new(static_store(p)),
        StorePolicy::Lru => Box::new(LruStore::new(usize::try_from(p.capacity).expect("capacity"))),
    }
}

fn static_store(p: &Provision) -> StaticStore {
    let slice = p.slices.iter().find(|s| s.node == 0).map_or(0..0, |s| s.start..s.end);
    StaticStore::new((1..=p.prefix).chain(slice).map(ContentId))
}

fn routing(p: &Provision) -> Result<LiveRouting, String> {
    let assignments: Vec<RouterAssignment> = p
        .slices
        .iter()
        .map(|s| RouterAssignment {
            router: s.node as usize,
            local_prefix: p.prefix,
            slice: s.start..s.end,
        })
        .collect();
    RoutingTable::from_assignments(&assignments, p.nodes as usize)
        .map(LiveRouting::new)
        .map_err(|e| e.to_string())
}

fn sharded(store: Box<dyn ContentStore>) -> Result<ShardedStore<()>, String> {
    // One shard, 1024-slot MPSC ring, spin-then-park: `NodeConfig::new`.
    let spec =
        ShardSpec::new(1, 1024).idle(IdleStrategy::spin_then_park()).ring_mode(RingMode::Mpsc);
    let mut store = Some(store);
    ShardedStore::try_spawn_with(
        spec,
        |_| store.take().expect("one shard"),
        Arc::new(|_: &mut dyn ContentStore, (): ()| {}),
    )
    .map_err(|e| e.to_string())
}

/// One producer thread hands `batch`-sized runs to a consumer thread
/// through the engine's ring; nanoseconds per item, end to end.
fn ring_handoff_ns(rep: Duration, batch: usize) -> f64 {
    let (producer, mut consumer) = ring_with::<u64>(1024, Mode::Mpsc);
    let stop = Arc::new(AtomicBool::new(false));
    let consumer_stop = Arc::clone(&stop);
    let consumer_thread = std::thread::spawn(move || {
        let mut out = Vec::with_capacity(1024);
        let mut popped = 0u64;
        // Relaxed: the flag publishes nothing; the ring carries the data.
        while !consumer_stop.load(Ordering::Relaxed) {
            out.clear();
            if consumer.pop_batch(&mut out, 1024) == 0 {
                std::thread::yield_now();
            }
            popped += out.len() as u64;
        }
        black_box(popped)
    });
    let mut run: Vec<u64> = Vec::with_capacity(batch);
    let ns = ns_per_op(rep, || {
        let mut pushed = 0u64;
        for _ in 0..64 {
            run.extend(0..batch as u64);
            while !run.is_empty() {
                let accepted = producer.try_push_batch(&mut run);
                if accepted == 0 {
                    std::thread::yield_now();
                }
                pushed += accepted as u64;
            }
        }
        pushed
    });
    stop.store(true, Ordering::Relaxed);
    consumer_thread.join().expect("ring consumer panicked");
    ns
}

/// The probes that need no cluster, as `(metric name, value)`, run
/// within about `budget` in all.
pub fn layer_probes(
    w: &Workload,
    p: &Provision,
    stream: &[u64],
    seed: u64,
    budget: Duration,
) -> Result<Vec<(&'static str, f64)>, String> {
    let rep = budget / (TIMED_PROBES * REPS as u32);
    let mut out = Vec::new();
    let ids: Vec<ContentId> = stream.iter().take(1 << 16).map(|&r| ContentId(r)).collect();

    // zipf: the sampler behind every generated stream.
    let sampler = ZipfSampler::new(w.zipf_s, w.catalogue).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranks = vec![0u64; 1 << 14];
    out.push((
        "zipf.sample_ns_per_op",
        ns_per_op(rep, || {
            sampler.sample_fill(&mut rng, &mut ranks);
            black_box(&ranks);
            ranks.len() as u64
        }),
    ));

    // store: the static probe over the request stream; the LRU hit path
    // over resident keys; the LRU admit path over keys never resident
    // (every admit evicts).
    let pinned = static_store(p);
    out.push((
        "store.static_contains_ns_per_op",
        ns_per_op(rep, || {
            let hits = ids.iter().filter(|&&id| pinned.contains(black_box(id))).count();
            black_box(hits);
            ids.len() as u64
        }),
    ));
    let capacity = usize::try_from(p.capacity).expect("capacity fits usize");
    let mut lru = LruStore::new(capacity);
    for rank in 1..=p.capacity {
        lru.on_data(ContentId(rank));
    }
    let resident: Vec<ContentId> = ids.iter().map(|id| ContentId(id.0 % p.capacity + 1)).collect();
    out.push((
        "store.lru_hit_ns_per_op",
        ns_per_op(rep, || {
            for &id in &resident {
                if lru.contains(black_box(id)) {
                    lru.on_hit(id);
                }
            }
            resident.len() as u64
        }),
    ));
    let mut fresh = p.capacity;
    out.push((
        "store.lru_admit_ns_per_op",
        ns_per_op(rep, || {
            for _ in 0..4096 {
                fresh += 1;
                black_box(lru.on_data(ContentId(fresh)));
            }
            4096
        }),
    ));

    // ring: the hand-off every shard job and every in-process forward
    // crosses, one item per claim and 256 per claim.
    out.push(("ring.handoff_ns_per_op_b1", ring_handoff_ns(rep, 1)));
    out.push(("ring.handoff_ns_per_op_b256", ring_handoff_ns(rep, 256)));

    // shard: round trips through a worker built as a node builds it.
    let mut shard = sharded(node_store(p))?;
    let handle = shard.handle();
    let mut hits = Vec::new();
    let mut at = 0usize;
    out.push((
        "shard.probe_rtt_us_b1",
        us_per_op(rep, || {
            at = (at + 1) % ids.len();
            handle.probe_batch(&ids[at..=at], &mut hits);
            1
        }),
    ));
    out.push((
        "shard.probe_batch_ns_per_op_b256",
        ns_per_op(rep, || {
            at = (at + 256) % (ids.len() - 256);
            handle.probe_batch(&ids[at..at + 256], &mut hits);
            256
        }),
    ));
    out.push(("shard.max_queue_depth", handle.max_queue_depth() as f64));
    shard.shutdown();
    let mut admitting =
        sharded(Box::new(LruStore::new(usize::try_from(p.capacity).expect("capacity"))))?;
    let handle = admitting.handle();
    out.push((
        "shard.apply_rtt_us",
        us_per_op(rep, || {
            at = (at + 1) % ids.len();
            black_box(handle.apply(ids[at]));
            1
        }),
    ));
    admitting.shutdown();

    // routing: holder + primary over the ranks node 0 misses locally.
    let live = routing(p)?;
    let misses: Vec<ContentId> =
        ids.iter().copied().filter(|id| tier_of(p, 0, id.0) != 0).collect();
    if misses.is_empty() {
        return Err("request stream holds no local misses to route".to_owned());
    }
    out.push((
        "routing.holder_ns_per_op",
        ns_per_op(rep, || {
            for &id in &misses {
                black_box((live.holder(black_box(id)), live.primary(id)));
            }
            misses.len() as u64
        }),
    ));

    // codec: the public encode/decode pair, into reused buffers.
    let mut buf = Vec::with_capacity(4096);
    let one = Request::BatchLookup { tag: 1, contents: vec![stream[0]] };
    let full = Request::BatchLookup { tag: 1, contents: stream[..256].to_vec() };
    let mut codec = |name: &'static str, per: u64, request: &Request, decode: bool| {
        let mut encoded = Vec::new();
        request.encode_into(&mut encoded).map_err(|e| e.to_string())?;
        let ns = ns_per_op(rep, || {
            for _ in 0..256 {
                if decode {
                    black_box(Request::decode(black_box(&encoded)).is_ok());
                } else {
                    buf.clear();
                    black_box(black_box(request).encode_into(&mut buf).is_ok());
                }
            }
            256 * per
        });
        out.push((name, ns));
        Ok::<(), String>(())
    };
    codec("net.codec.encode_lookup_ns_per_frame_b1", 1, &one, false)?;
    codec("net.codec.encode_lookup_ns_per_op_b256", 256, &full, false)?;
    codec("net.codec.decode_lookup_ns_per_op_b256", 256, &full, true)?;
    let forward = Request::PeerForwardBatch {
        tag: 1,
        items: stream[..w.wire_batch.min(stream.len())].iter().map(|&r| (r, 1_000_000)).collect(),
    };
    let mut forward_wire = Vec::new();
    forward.encode_into(&mut forward_wire).map_err(|e| e.to_string())?;
    let items = w.wire_batch.min(stream.len()) as u64;
    out.push((
        "net.codec.forward_batch_ns_per_op",
        ns_per_op(rep, || {
            for _ in 0..64 {
                buf.clear();
                black_box(forward.encode_into(&mut buf).is_ok());
                black_box(Request::decode(black_box(&forward_wire)).is_ok());
            }
            64 * items
        }),
    ));
    let served = Response::BatchServed { tag: 1, local: 200, peer: 20, origin: 36, shed: 0 };
    let mut served_wire = Vec::new();
    served.encode_into(&mut served_wire).map_err(|e| e.to_string())?;
    out.push((
        "net.codec.served_ns_per_frame",
        ns_per_op(rep, || {
            for _ in 0..256 {
                buf.clear();
                black_box(served.encode_into(&mut buf).is_ok());
                black_box(Response::decode(black_box(&served_wire)).is_ok());
            }
            256
        }),
    ));
    Ok(out)
}
