//! Open-loop Poisson/Zipf load generation against a [`Cluster`].
//!
//! Generators reuse the simulator's workload machinery
//! ([`ccn_sim::workload::zipf_irm`]): per-node Poisson arrivals with
//! Zipf-distributed content popularity, pre-drawn from a fixed seed so
//! the offered load is reproducible. The loop is *open*: a generator
//! issues each request at its scheduled arrival time (or flat-out in
//! unpaced mode) regardless of whether earlier requests completed.
//! When admission pushes back the request is counted as **shed**, not
//! retried — exactly the overload behavior a closed loop would mask.
//!
//! Requests are grouped into per-`(node, shard)` runs of up to
//! [`OpenLoopConfig::batch`] (by [`crate::shard::shard_of`], the same
//! routing the cluster applies) and each full run is admitted through a
//! single queue claim ([`BatchSubmitter`]); `batch = 1` admits
//! every request as a run of one. In paced mode
//! every buffered run is flushed before the generator sleeps, so
//! batching never delays a request past its own arrival time; only
//! already-due backlog is coalesced.
//!
//! # Placement
//!
//! When the cluster's [`ShardPlacement`](crate::ShardPlacement) pins,
//! generator lane `g` pins itself to
//! [`generator_core`](crate::ShardPlacement::generator_core) — the
//! core of the first shard of the first node the lane owns — so under
//! thread-per-core the producer and the consumer it feeds most share
//! a core.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ccn_sim::workload::{self, Request};

use crate::cluster::{BatchSubmitter, Cluster};
use crate::error::EngineError;
use crate::shard::shard_of;

/// One scripted popularity change: from `at_ms` of workload time
/// onward the offered traffic is drawn with exponent `zipf_s`
/// (until the next segment, or the horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSegment {
    /// Workload time the new exponent takes effect, in milliseconds.
    pub at_ms: f64,
    /// The Zipf exponent from `at_ms` onward.
    pub zipf_s: f64,
}

/// Configuration of one open-loop driving session.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Generator (client) threads; clamped to the node count.
    pub generators: usize,
    /// Zipf popularity exponent `s` of the offered traffic (until the
    /// first [`DriftSegment`], if any).
    pub zipf_s: f64,
    /// Poisson arrival rate per node, in requests per millisecond of
    /// workload time.
    pub rate_per_node_per_ms: f64,
    /// Workload horizon in milliseconds (with `paced`, also the
    /// approximate wall-clock duration).
    pub horizon_ms: f64,
    /// `true` issues each request at its Poisson arrival time;
    /// `false` replays the same request stream as fast as possible
    /// (saturation / throughput mode).
    pub paced: bool,
    /// Workload seed. With a single generator the request stream is
    /// identical to the simulator's for the same seed and parameters.
    pub seed: u64,
    /// Maximum requests admitted per queue operation: requests are
    /// grouped by owning shard and each run is admitted with one queue
    /// claim (`1` = one request per claim). Tier attribution and
    /// (single-shard) determinism are batch-size invariant —
    /// property-tested in this module.
    pub batch: usize,
    /// Scripted popularity drift: each segment switches the offered
    /// exponent at its `at_ms`. Must be strictly increasing and
    /// inside `(0, horizon_ms)`. Empty (the default) keeps `zipf_s`
    /// for the whole run — and keeps the single-generator stream
    /// bit-identical to the simulator's for the same seed.
    pub drift: Vec<DriftSegment>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            generators: 1,
            zipf_s: 0.8,
            rate_per_node_per_ms: 0.05,
            horizon_ms: 1_000.0,
            paced: false,
            seed: 42,
            batch: 1,
            drift: Vec::new(),
        }
    }
}

impl OpenLoopConfig {
    /// The run as constant-exponent spans `(start_ms, end_ms, s)`
    /// covering `[0, horizon_ms)`.
    ///
    /// # Errors
    ///
    /// Rejects drift points that are not strictly increasing or lie
    /// outside `(0, horizon_ms)`.
    fn spans(&self) -> Result<Vec<(f64, f64, f64)>, EngineError> {
        let mut spans = Vec::with_capacity(self.drift.len() + 1);
        let mut start = 0.0;
        let mut s = self.zipf_s;
        for segment in &self.drift {
            if !(segment.at_ms > start && segment.at_ms < self.horizon_ms) {
                return Err(EngineError::InvalidConfig {
                    reason: format!(
                        "drift point {} ms must be strictly increasing and inside (0, {})",
                        segment.at_ms, self.horizon_ms
                    ),
                });
            }
            spans.push((start, segment.at_ms, s));
            start = segment.at_ms;
            s = segment.zipf_s;
        }
        spans.push((start, self.horizon_ms, s));
        Ok(spans)
    }
}

/// A deterministic per-(lane, span) workload seed: lanes already space
/// by `+ g`, so spans mix a large odd constant to keep every
/// (lane, span) stream independent of every other.
fn span_seed(seed: u64, lane: usize, span: usize) -> u64 {
    seed.wrapping_add(lane as u64).wrapping_add((span as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What the generators offered and what admission did with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests issued by all generators.
    pub offered: u64,
    /// Requests rejected at admission (bounded queue full).
    pub shed: u64,
    /// Generator threads actually used.
    pub generators: usize,
    /// Generator threads that successfully pinned to their placement
    /// core (0 when the cluster's placement does not pin).
    pub pinned_generators: usize,
    /// Wall-clock duration from first issue until the cluster drained,
    /// in milliseconds.
    pub wall_ms: u64,
}

/// Sleeps (coarsely) then spins (precisely) until `at_ms` of workload
/// time has elapsed since `start`. Both tiers' drivers pace with it.
pub(crate) fn pace_until(start: Instant, at_ms: f64) {
    let target = Duration::from_secs_f64(at_ms / 1e3);
    loop {
        let now = start.elapsed();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One generator's view of the workload: issues requests in per-shard
/// runs, tracking offered/shed counts.
struct Generator {
    /// Per-`(owned-node, shard)` pending runs, indexed
    /// `local_node * shards + shard`.
    buffers: Vec<Vec<ccn_sim::ContentId>>,
    /// Dense node → owned-slot map (`usize::MAX` = not ours).
    local_index: Vec<usize>,
    /// Reverse of `local_index`: owned slot → node id.
    owned: Vec<usize>,
    shards: usize,
    batch: usize,
    issued: u64,
    rejected: u64,
}

impl Generator {
    fn new(cluster: &Cluster, owned: &[usize], batch: usize) -> Self {
        let shards = cluster.config().shards_per_node;
        let mut local_index = vec![usize::MAX; cluster.config().nodes];
        for (slot, &node) in owned.iter().enumerate() {
            local_index[node] = slot;
        }
        Self {
            buffers: vec![Vec::with_capacity(batch); owned.len() * shards],
            local_index,
            owned: owned.to_vec(),
            shards,
            batch,
            issued: 0,
            rejected: 0,
        }
    }

    /// Queues one request, flushing its run if it reached the batch
    /// size (with `batch == 1`, every request is a run of one).
    fn issue(&mut self, submitter: &mut BatchSubmitter<'_>, request: &Request) {
        self.issued += 1;
        let shard = shard_of(request.content, self.shards);
        let slot = self.local_index[request.router] * self.shards + shard;
        self.buffers[slot].push(request.content);
        if self.buffers[slot].len() >= self.batch {
            self.flush_slot(submitter, slot);
        }
    }

    fn flush_slot(&mut self, submitter: &mut BatchSubmitter<'_>, slot: usize) {
        let run = &mut self.buffers[slot];
        if run.is_empty() {
            return;
        }
        let offered = run.len();
        let node = self.owned[slot / self.shards];
        let accepted = submitter.submit_run(node, slot % self.shards, run);
        self.rejected += (offered - accepted) as u64;
    }

    /// Flushes every pending run — called before a paced sleep and at
    /// end of stream, so batching never holds back due requests.
    fn flush_all(&mut self, submitter: &mut BatchSubmitter<'_>) {
        for slot in 0..self.buffers.len() {
            self.flush_slot(submitter, slot);
        }
    }
}

/// Drives `cluster` with open-loop load and blocks until every
/// admitted request has completed.
///
/// # Errors
///
/// Returns [`EngineError::InvalidConfig`] for a zero generator count
/// or zero batch size, and [`EngineError::Workload`] when the
/// workload parameters are rejected.
pub fn drive(cluster: &Cluster, config: &OpenLoopConfig) -> Result<LoadReport, EngineError> {
    if config.generators == 0 {
        return Err(EngineError::InvalidConfig { reason: "generators must be >= 1".into() });
    }
    if config.batch == 0 {
        return Err(EngineError::InvalidConfig { reason: "batch must be >= 1".into() });
    }
    let nodes = cluster.config().nodes;
    let catalogue = cluster.config().catalogue;
    let generators = config.generators.min(nodes);
    // Round-robin node ownership: generator g drives nodes g, g+G, …
    // so every node has exactly one producer.
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); generators];
    for node in 0..nodes {
        partitions[node % generators].push(node);
    }
    // Pre-draw every stream before starting the clock: sampling is
    // not part of the measured serving path. Drifted runs concatenate
    // one constant-exponent draw per span, shifted to span time.
    let spans = config.spans()?;
    let streams = partitions
        .iter()
        .enumerate()
        .map(|(g, owned)| -> Result<Vec<Request>, EngineError> {
            let mut stream = Vec::new();
            for (j, &(span_start, span_end, s)) in spans.iter().enumerate() {
                let mut part = workload::zipf_irm(
                    owned,
                    s,
                    catalogue,
                    config.rate_per_node_per_ms,
                    span_end - span_start,
                    span_seed(config.seed, g, j),
                )?;
                for request in &mut part {
                    request.time += span_start;
                }
                stream.append(&mut part);
            }
            Ok(stream)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let placement = cluster.config().placement;
    let shards_per_node = cluster.config().shards_per_node;
    let offered = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let pinned = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (lane, (stream, owned)) in streams.iter().zip(&partitions).enumerate() {
            let offered = &offered;
            let shed = &shed;
            let pinned = &pinned;
            scope.spawn(move || {
                if placement.pin_to(placement.generator_core(lane, shards_per_node)) {
                    pinned.fetch_add(1, Ordering::Relaxed);
                }
                let mut submitter = cluster.batch_submitter();
                let mut generator = Generator::new(cluster, owned, config.batch);
                for request in stream {
                    if config.paced {
                        let target = Duration::from_secs_f64(request.time / 1e3);
                        if start.elapsed() < target {
                            // Issue all due backlog before sleeping:
                            // batching must not delay due requests.
                            generator.flush_all(&mut submitter);
                            pace_until(start, request.time);
                        }
                    }
                    generator.issue(&mut submitter, request);
                }
                generator.flush_all(&mut submitter);
                offered.fetch_add(generator.issued, Ordering::AcqRel);
                shed.fetch_add(generator.rejected, Ordering::AcqRel);
            });
        }
    });
    cluster.drain();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let wall_ms = (start.elapsed().as_secs_f64() * 1e3).ceil() as u64;
    Ok(LoadReport {
        offered: offered.into_inner(),
        shed: shed.into_inner(),
        generators,
        pinned_generators: pinned.into_inner(),
        wall_ms: wall_ms.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, StorePolicy};
    use ccn_sim::TierCounts;

    fn small_cluster(shards: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: 3,
            shards_per_node: shards,
            // Large enough that these short workloads never shed: the
            // determinism assertions compare complete tier counts.
            queue_capacity: 8_192,
            catalogue: 2_000,
            capacity: 50,
            ell: 0.5,
            policy: StorePolicy::Provisioned,
            ..ClusterConfig::default()
        }
    }

    fn run(shards: usize, seed: u64) -> (LoadReport, TierCounts) {
        let cluster = Cluster::new(small_cluster(shards)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            seed,
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        let metrics = cluster.finish();
        (report, metrics.totals())
    }

    #[test]
    fn every_offered_request_is_accounted() {
        let (report, totals) = run(2, 11);
        assert!(report.offered > 1_000, "workload too small: {report:?}");
        assert_eq!(report.offered, totals.total() + report.shed);
    }

    #[test]
    fn single_shard_runs_are_deterministic() {
        let (report_a, totals_a) = run(1, 7);
        let (report_b, totals_b) = run(1, 7);
        assert_eq!(report_a.offered, report_b.offered);
        assert_eq!(totals_a, totals_b);
        // All three tiers are exercised by the coordinated layout.
        assert!(totals_a.local > 0 && totals_a.peer > 0 && totals_a.origin > 0);
    }

    #[test]
    fn paced_mode_respects_the_horizon() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 0.5,
            horizon_ms: 120.0,
            paced: true,
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        assert!(report.wall_ms >= 60, "paced run finished implausibly fast: {} ms", report.wall_ms);
        let _ = cluster.finish();
    }

    #[test]
    fn rejects_zero_generators() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig { generators: 0, ..OpenLoopConfig::default() };
        assert!(drive(&cluster, &load).is_err());
        let _ = cluster.finish();
    }

    #[test]
    fn drift_spans_cover_the_horizon_and_reject_bad_points() {
        let base = OpenLoopConfig { horizon_ms: 100.0, zipf_s: 0.7, ..OpenLoopConfig::default() };
        assert_eq!(base.spans().unwrap(), vec![(0.0, 100.0, 0.7)]);
        let drifted = OpenLoopConfig {
            drift: vec![
                DriftSegment { at_ms: 40.0, zipf_s: 1.1 },
                DriftSegment { at_ms: 70.0, zipf_s: 0.9 },
            ],
            ..base.clone()
        };
        assert_eq!(
            drifted.spans().unwrap(),
            vec![(0.0, 40.0, 0.7), (40.0, 70.0, 1.1), (70.0, 100.0, 0.9)]
        );
        for bad in [
            vec![DriftSegment { at_ms: 0.0, zipf_s: 1.1 }],
            vec![DriftSegment { at_ms: 100.0, zipf_s: 1.1 }],
            vec![
                DriftSegment { at_ms: 70.0, zipf_s: 1.1 },
                DriftSegment { at_ms: 40.0, zipf_s: 0.9 },
            ],
        ] {
            let config = OpenLoopConfig { drift: bad, ..base.clone() };
            assert!(config.spans().is_err(), "accepted bad drift {:?}", config.drift);
        }
    }

    #[test]
    fn drifted_runs_stay_accounted_and_shift_the_popularity_mix() {
        // s jumps 0.4 → 1.6 halfway: the second half concentrates on
        // low ranks, so local hits (prefix + own slice) must rise.
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig {
            zipf_s: 0.4,
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            drift: vec![DriftSegment { at_ms: 200.0, zipf_s: 1.6 }],
            ..OpenLoopConfig::default()
        };
        let before = cluster.tier_totals();
        let report = drive(&cluster, &load).unwrap();
        cluster.drain();
        let after = cluster.tier_totals();
        let metrics = cluster.finish();
        assert_eq!(report.offered, metrics.totals().total() + report.shed);
        let local: u64 = after.iter().zip(&before).map(|(a, b)| a.local - b.local).sum();
        let total: u64 = metrics.completed();
        assert!(total > 1_000, "workload too small");
        // A pure s=0.4 run over catalogue 2000 with capacity 50 hits
        // locally well under half the time; the drifted second half
        // pulls the blended local fraction up decisively.
        #[allow(clippy::cast_precision_loss)]
        let fraction = local as f64 / total as f64;
        assert!(fraction > 0.3, "drift never concentrated traffic: {fraction}");
    }

    #[test]
    fn rejects_zero_batch() {
        let cluster = Cluster::new(small_cluster(1)).unwrap();
        let load = OpenLoopConfig { batch: 0, ..OpenLoopConfig::default() };
        assert!(drive(&cluster, &load).is_err());
        let _ = cluster.finish();
    }

    #[test]
    fn batched_runs_account_every_offered_request() {
        let cluster = Cluster::new(small_cluster(2)).unwrap();
        let load = OpenLoopConfig {
            rate_per_node_per_ms: 2.0,
            horizon_ms: 400.0,
            batch: 64,
            ..OpenLoopConfig::default()
        };
        let report = drive(&cluster, &load).unwrap();
        let metrics = cluster.finish();
        assert!(report.offered > 1_000, "workload too small: {report:?}");
        assert_eq!(report.offered, metrics.totals().total() + report.shed);
    }

    mod equivalence {
        //! Satellite property: batched submission is observationally
        //! equivalent to per-op submission — same seed + same jobs ⇒
        //! identical `TierCounts`, and identical final store contents
        //! on a single-shard cluster (where submission order is the
        //! only order).
        use super::*;
        use ccn_sim::ContentId;
        use proptest::prelude::*;

        /// Runs one workload and returns (tiers, final node-0 store).
        fn observe(config: ClusterConfig, seed: u64, batch: usize) -> (TierCounts, Vec<ContentId>) {
            let cluster = Cluster::new(config).unwrap();
            let load = OpenLoopConfig {
                rate_per_node_per_ms: 2.0,
                horizon_ms: 30.0,
                seed,
                batch,
                ..OpenLoopConfig::default()
            };
            let report = drive(&cluster, &load).unwrap();
            assert_eq!(report.shed, 0, "queues sized to never shed");
            let contents = cluster.node_contents(0);
            (cluster.finish().totals(), contents)
        }

        proptest! {
            /// Single-shard LRU cluster: the strictest check — the
            /// store's final eviction state depends on request order,
            /// so equality proves batching preserved it exactly.
            #[test]
            fn batched_matches_per_op_on_a_single_shard_lru_cluster(
                seed in 0u64..24,
                batch in prop::sample::select(vec![2usize, 7, 64, 256]),
            ) {
                let config = ClusterConfig {
                    nodes: 1,
                    queue_capacity: 8_192,
                    catalogue: 500,
                    capacity: 16,
                    ell: 0.0,
                    policy: StorePolicy::Lru,
                    ..ClusterConfig::default()
                };
                let per_op = observe(config.clone(), seed, 1);
                let batched = observe(config, seed, batch);
                prop_assert_eq!(&batched.0, &per_op.0, "tier counts diverged");
                prop_assert_eq!(&batched.1, &per_op.1, "store contents diverged");
            }

            /// Provisioned multi-node cluster: tier attribution is a
            /// pure function of (requester, content), so counts must
            /// match even with concurrent peer forwarding.
            #[test]
            fn batched_matches_per_op_tier_counts_on_a_provisioned_cluster(
                seed in 0u64..24,
                batch in prop::sample::select(vec![3usize, 32, 256]),
            ) {
                let config = small_cluster(1);
                let per_op = observe(config.clone(), seed, 1);
                let batched = observe(config, seed, batch);
                prop_assert_eq!(&batched.0, &per_op.0, "tier counts diverged");
            }
        }
    }
}
