//! The `engine-inproc` driver: no sockets. One submitter thread per
//! node issues a wave of `batch` requests through
//! `BatchSubmitter::submit_run`, waits for it in `Cluster::drain`, and
//! times the two calls apart — ring, shard, cluster ladder, routing and
//! store do all the work, `net` none.

use std::time::Instant;

use ccn_engine::net::TIER_PEER;
use ccn_engine::Cluster;
use ccn_sim::ContentId;

use crate::trace::Tracer;
use crate::wire::{DriveOut, Sample, Stop};

/// One submitter's output: the usual samples (one per wave) plus the
/// time spent inside each of the two calls.
#[derive(Debug, Default)]
pub struct SubmitterOut {
    pub drive: DriveOut,
    pub submit_ns: u64,
    pub drain_ns: u64,
}

/// Drives node `node` until `stop`. Waves are sized so nothing sheds:
/// 256 own requests plus at most 256 forwarded by the peer's wave fit
/// the 1024-slot queue. A rejected request still counts as failed.
/// `tiers[i]` is the offline tier of `stream[i]`, used only to flag
/// waves the peer tier takes part in.
#[allow(clippy::too_many_arguments)]
pub fn submitter(
    cluster: &Cluster,
    node: usize,
    stream: &[u64],
    tiers: &[u8],
    pos: &mut usize,
    batch: usize,
    stop: Stop,
    t0: Instant,
    tracer: &mut Option<Tracer>,
) -> SubmitterOut {
    let since = || u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut out = SubmitterOut::default();
    let mut submitter = cluster.batch_submitter();
    let mut contents: Vec<ContentId> = Vec::with_capacity(batch);
    loop {
        let stopped = match stop {
            Stop::Count(n) => out.drive.ledger.offered >= n,
            Stop::At(ns) => since() >= ns,
        };
        if stopped {
            return out;
        }
        let at = |i: usize| (*pos + i) % stream.len();
        contents.extend((0..batch).map(|i| ContentId(stream[at(i)])));
        let peer = (0..batch).any(|i| tiers[at(i)] == TIER_PEER);
        *pos = at(batch);
        let start = since();
        // Every node runs one shard, so shard 0 owns every rank.
        let accepted = submitter.submit_run(node, 0, &mut contents);
        let submitted = since();
        cluster.drain();
        let done = since();
        if let Some((tracer, id)) = tracer.as_mut().and_then(|t| t.sample().map(|id| (t, id))) {
            tracer.record(id, &[start, submitted, done]);
        }
        out.submit_ns += submitted - start;
        out.drain_ns += done - submitted;
        out.drive.ledger.offered += batch as u64;
        out.drive.ledger.failed += (batch - accepted) as u64;
        out.drive.samples.push(Sample {
            done_ns: done,
            latency_ns: done - start,
            lag_ns: 0,
            ops: u32::try_from(accepted).expect("wave fits u32"),
            peer,
        });
    }
}
