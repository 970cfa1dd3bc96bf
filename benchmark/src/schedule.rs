//! Request streams and the offline oracle. Ranks (and, for the open
//! loop, Poisson arrival times) come from `ccn_sim::workload::zipf_irm`
//! — the generator the engine and the simulator already share — seeded
//! from `--seed`; the program under test only ever sees the ranks.

use ccn_engine::net::{Provision, TIER_LOCAL, TIER_ORIGIN, TIER_PEER};
use ccn_sim::workload;

use crate::spec::{Workload, NODES};

/// One open-loop request: when it is due, relative to the start of its
/// ladder step, and what it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub rank: u64,
}

fn routers() -> Vec<usize> {
    (0..NODES).collect()
}

/// Per-node rank streams for the closed-loop drivers, warm-up and the
/// probes: about `per_node` ranks each (the generator draws a Poisson
/// count), cycled by the caller when a run needs more.
pub fn rank_streams(w: &Workload, per_node: f64, seed: u64) -> Result<Vec<Vec<u64>>, String> {
    // 1000 requests per millisecond per node; only the ranks are used.
    let requests =
        workload::zipf_irm(&routers(), w.zipf_s, w.catalogue, 1_000.0, per_node / 1_000.0, seed)
            .map_err(|e| e.to_string())?;
    let mut streams = vec![Vec::new(); NODES];
    for request in requests {
        streams[request.router].push(request.content.0);
    }
    if streams.iter().any(Vec::is_empty) {
        return Err("generated an empty request stream".to_owned());
    }
    Ok(streams)
}

/// Per-node Poisson arrival schedules for one ladder step offering
/// `rate_ops_s` over the whole cluster for `secs` seconds.
pub fn poisson_schedule(
    w: &Workload,
    rate_ops_s: f64,
    secs: f64,
    seed: u64,
) -> Result<Vec<Vec<Arrival>>, String> {
    let per_node_per_ms = rate_ops_s / NODES as f64 / 1_000.0;
    let requests = workload::zipf_irm(
        &routers(),
        w.zipf_s,
        w.catalogue,
        per_node_per_ms,
        secs * 1_000.0,
        seed,
    )
    .map_err(|e| e.to_string())?;
    let mut schedules = vec![Vec::new(); NODES];
    for request in requests {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at_ns = (request.time * 1.0e6) as u64;
        schedules[request.router].push(Arrival { at_ns, rank: request.content.0 });
    }
    Ok(schedules)
}

/// The seed of ladder step `step`, distinct from the rank-stream seed.
pub fn step_seed(seed: u64, step: usize) -> u64 {
    seed ^ ((step as u64 + 1) << 56)
}

/// `(local, peer, origin)` counts, indexed by tier code.
pub type TierTally = [u64; 3];

/// The tier that serves `rank` for a client of `node` under static
/// (`Provisioned`) stores, where it is a pure function of the layout:
/// local for the popularity prefix and the node's own slice, peer for
/// another node's slice, origin for everything else.
pub fn tier_of(p: &Provision, node: usize, rank: u64) -> u8 {
    if rank >= 1 && rank <= p.prefix {
        return TIER_LOCAL;
    }
    match p.slices.iter().find(|s| s.start <= rank && rank < s.end) {
        Some(slice) if slice.node as usize == node => TIER_LOCAL,
        Some(_) => TIER_PEER,
        None => TIER_ORIGIN,
    }
}

/// Expected tally of a closed-loop client that sent `count` ranks of
/// `stream` starting at position `start`, cycling.
pub fn expected_cyclic(
    p: &Provision,
    node: usize,
    stream: &[u64],
    start: usize,
    count: u64,
) -> TierTally {
    let tally_of = |ranks: &mut dyn Iterator<Item = u64>| {
        let mut tally = [0u64; 3];
        for rank in ranks {
            tally[tier_of(p, node, rank) as usize] += 1;
        }
        tally
    };
    let len = stream.len() as u64;
    let whole = tally_of(&mut stream.iter().copied());
    #[allow(clippy::cast_possible_truncation)]
    let rest = (count % len) as usize;
    let part = tally_of(&mut stream.iter().copied().cycle().skip(start % stream.len()).take(rest));
    std::array::from_fn(|t| whole[t] * (count / len) + part[t])
}

/// Expected tally of an open-loop step.
pub fn expected_arrivals(p: &Provision, node: usize, arrivals: &[Arrival]) -> TierTally {
    let mut tally = [0u64; 3];
    for a in arrivals {
        tally[tier_of(p, node, a.rank) as usize] += 1;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use ccn_engine::WireSpec;

    #[test]
    fn poisson_schedule_is_seed_deterministic_and_ordered() {
        let w = workload("wire-latency").unwrap();
        let a = poisson_schedule(w, 12_000.0, 0.5, step_seed(42, 0)).unwrap();
        let b = poisson_schedule(w, 12_000.0, 0.5, step_seed(42, 0)).unwrap();
        let c = poisson_schedule(w, 12_000.0, 0.5, step_seed(43, 0)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for node in &a {
            assert!(node.windows(2).all(|p| p[0].at_ns <= p[1].at_ns));
            assert!(node.iter().all(|x| x.at_ns < 500_000_000 && x.rank >= 1));
            // 12 000/s over two nodes for half a second: 3 000 ± Poisson noise.
            assert!((2_700..3_300).contains(&node.len()), "{}", node.len());
        }
    }

    #[test]
    fn rank_streams_repeat_for_a_seed() {
        let w = workload("wire-churn").unwrap();
        let a = rank_streams(w, 5_000.0, 7).unwrap();
        assert_eq!(a, rank_streams(w, 5_000.0, 7).unwrap());
        assert!(a.iter().all(|s| s.iter().all(|&r| (1..=w.catalogue).contains(&r))));
    }

    fn layout() -> Provision {
        let mut spec = WireSpec::new(2);
        spec.catalogue = 1_000;
        spec.capacity = 10;
        spec.ell = 0.5;
        // prefix 5; slices [6, 11) → node 0, [11, 16) → node 1.
        spec.provision(1, vec![String::new(); 2])
    }

    #[test]
    fn tier_follows_the_layout() {
        let p = layout();
        assert_eq!(tier_of(&p, 0, 1), TIER_LOCAL);
        assert_eq!(tier_of(&p, 0, 5), TIER_LOCAL);
        assert_eq!(tier_of(&p, 0, 6), TIER_LOCAL);
        assert_eq!(tier_of(&p, 1, 6), TIER_PEER);
        assert_eq!(tier_of(&p, 0, 11), TIER_PEER);
        assert_eq!(tier_of(&p, 1, 15), TIER_LOCAL);
        assert_eq!(tier_of(&p, 0, 16), TIER_ORIGIN);
        assert_eq!(tier_of(&p, 1, 1_000), TIER_ORIGIN);
    }

    #[test]
    fn cyclic_expectation_counts_wraps() {
        let p = layout();
        let stream = [1, 6, 11, 16]; // node 0: local, local, peer, origin
        assert_eq!(expected_cyclic(&p, 0, &stream, 0, 4), [2, 1, 1]);
        assert_eq!(expected_cyclic(&p, 0, &stream, 0, 9), [5, 2, 2]);
        assert_eq!(expected_cyclic(&p, 0, &stream, 2, 3), [1, 1, 1]);
        assert_eq!(expected_cyclic(&p, 0, &stream, 6, 0), [0, 0, 0]);
    }
}
