//! The frozen definition of the benchmark: workloads, the rate ladder,
//! and the metric tables. `BENCHMARK.json` at the repository root lists
//! the same names; `tests::benchmark_json_lists_the_same_names` keeps
//! the two from drifting apart.

use ccn_engine::StorePolicy;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Poisson arrivals over TCP, every request timed from its intended
    /// send time, one step of [`LADDER`] after the other.
    OpenLoopWire,
    /// One client per node over TCP, each keeping `window` frames of
    /// `batch` requests in flight.
    ClosedLoopWire,
    /// No sockets: the in-process `Cluster`, one submitter per node
    /// issuing waves of `batch` requests.
    InProcess,
}

/// One benchmark workload. Every workload runs on 2 nodes × 1 shard
/// with the program's defaults otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub catalogue: u64,
    pub capacity: u64,
    pub ell: f64,
    pub zipf_s: f64,
    pub policy: StorePolicy,
    /// Requests per `BatchLookup` frame (per wave in process).
    pub batch: usize,
    /// Frames in flight per driver connection.
    pub window: usize,
    /// The nodes' `--wire-batch` (peer-forward coalescing cap).
    pub wire_batch: usize,
    /// Requests served before timing starts; a count, so set-up does
    /// the same work on a fast and on a slow host.
    pub warmup: u64,
    /// Ranks pre-drawn per node in set-up for warm-up, the closed loops
    /// and the probes (about: the generator draws a Poisson count);
    /// cycled when a run needs more.
    pub stream_per_node: f64,
}

pub const NODES: usize = 2;

/// The measured window of one run, seconds: what the driver passes as
/// `--seconds` (`run_seconds` in BENCHMARK.json) and the default here.
pub const RUN_SECONDS: f64 = 25.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The measured window is cut into slices of this length; a rate or a
/// percentile is computed per slice.
pub const SLICE_SECS: f64 = 0.25;

/// Which slice speaks for the run: the lower quartile of the per-slice
/// latencies, the upper quartile of the per-slice rates. The noise on
/// a shared host is one-sided — a stolen core or a stalled VM only ever
/// lengthens a latency and lowers a rate, for milliseconds at a time or
/// for seconds on end — so the quiet quartile tracks what the program
/// does and a code change still moves it, while the median follows the
/// neighbours.
pub const QUIET_QUARTILE: f64 = 0.25;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-latency",
        shape: Shape::OpenLoopWire,
        catalogue: 1_000_000,
        capacity: 10_000,
        ell: 0.5,
        zipf_s: 0.8,
        policy: StorePolicy::Provisioned,
        batch: 1,
        window: 8,
        wire_batch: 64,
        warmup: 20_000,
        stream_per_node: 1.0e5,
    },
    Workload {
        name: "wire-throughput",
        shape: Shape::ClosedLoopWire,
        catalogue: 1_000_000,
        capacity: 10_000,
        ell: 0.5,
        zipf_s: 0.8,
        policy: StorePolicy::Provisioned,
        batch: 256,
        window: 8,
        wire_batch: 256,
        warmup: 200_000,
        stream_per_node: 1.0e6,
    },
    Workload {
        name: "wire-churn",
        shape: Shape::ClosedLoopWire,
        catalogue: 200_000,
        capacity: 4_000,
        ell: 0.8,
        zipf_s: 0.7,
        policy: StorePolicy::Lru,
        batch: 64,
        window: 8,
        wire_batch: 64,
        warmup: 200_000,
        stream_per_node: 1.0e6,
    },
    Workload {
        name: "engine-inproc",
        shape: Shape::InProcess,
        catalogue: 1_000_000,
        capacity: 10_000,
        ell: 0.5,
        zipf_s: 0.8,
        policy: StorePolicy::Provisioned,
        batch: 256,
        window: 1,
        wire_batch: 256,
        warmup: 200_000,
        stream_per_node: 1.0e6,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One step of the open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub name: &'static str,
    /// Offered rate over the whole cluster, requests per second.
    pub rate_ops_s: f64,
    /// Share of the measured window the step gets; `lo` only anchors
    /// the latency limit, so the two gated steps get the larger shares.
    pub share: f64,
}

/// Frozen at definition at ≈ 0.2 / 0.4 / 0.6 of the open-loop batch-1
/// capacity of the recording host (see README.md, *Recorded values*).
/// A later change moves the latency at these rates, never the rates.
pub const LADDER: [Step; 3] = [
    Step { name: "lo", rate_ops_s: 6_000.0, share: 0.2 },
    Step { name: "mid", rate_ops_s: 12_000.0, share: 0.4 },
    Step { name: "hi", rate_ops_s: 16_000.0, share: 0.4 },
];
pub const MID: usize = 1;
pub const HI: usize = 2;

/// Latency limit on the p99 of `wire-latency`, ≈ 3 × the `lo`-step p99
/// at definition; `driver.slo_rate_ops_s` is the highest ladder rate
/// that meets it without a growing backlog.
pub const SLO_P99_US: f64 = 1_500.0;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_p99_us_hi", "us"),
    ("peer_latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("origin_share", "fraction"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer a
/// workload does not touch reports 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("driver.lag_p99_us", "us"),
    ("driver.backlog_end", "count"),
    ("driver.backlog_end_hi", "count"),
    ("driver.cpu_share", "fraction"),
    ("driver.slo_rate_ops_s", "1/s"),
    ("driver.trace_overhead_share", "fraction"),
    ("driver.failed", "count"),
    ("driver.latency_p50_us_lo", "us"),
    ("driver.latency_p99_us_lo", "us"),
    ("zipf.sample_ns_per_op", "ns"),
    ("store.static_contains_ns_per_op", "ns"),
    ("store.lru_hit_ns_per_op", "ns"),
    ("store.lru_admit_ns_per_op", "ns"),
    ("ring.handoff_ns_per_op_b1", "ns"),
    ("ring.handoff_ns_per_op_b256", "ns"),
    ("shard.probe_rtt_us_b1", "us"),
    ("shard.probe_batch_ns_per_op_b256", "ns"),
    ("shard.apply_rtt_us", "us"),
    ("shard.max_queue_depth", "count"),
    ("routing.holder_ns_per_op", "ns"),
    ("cluster.submit_run_ns_per_op", "ns"),
    ("cluster.drain_wait_share", "fraction"),
    ("cluster.local_mean_us", "us"),
    ("cluster.peer_mean_us", "us"),
    ("cluster.origin_mean_us", "us"),
    ("cluster.max_queue_depth", "count"),
    ("cluster.retried", "count"),
    ("cluster.degraded_to_origin", "count"),
    ("net.codec.encode_lookup_ns_per_frame_b1", "ns"),
    ("net.codec.encode_lookup_ns_per_op_b256", "ns"),
    ("net.codec.decode_lookup_ns_per_op_b256", "ns"),
    ("net.codec.served_ns_per_frame", "ns"),
    ("net.codec.forward_batch_ns_per_op", "ns"),
    ("net.frames_per_op", "1/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.rtt_probe_p50_us", "us"),
    ("net.rtt_local_p50_us", "us"),
    ("net.rtt_peer_p50_us", "us"),
    ("net.rtt_origin_p50_us", "us"),
    ("net.shard_hop_us", "us"),
    ("net.peer_hop_us", "us"),
    ("net.b1_capacity_w1_ops_s", "1/s"),
    ("net.b1_capacity_w8_ops_s", "1/s"),
    ("net.schedule_wait_us_per_frame", "us"),
    ("net.encode_us_per_frame", "us"),
    ("net.write_us_per_frame", "us"),
    ("net.await_us_per_frame", "us"),
    ("net.read_us_per_frame", "us"),
    ("net.node.forwards_per_op", "1/op"),
    ("net.node.coalesce_factor", "ratio"),
    ("net.node.fwd_rtt_mean_us", "us"),
    ("net.node.peer_bytes_per_op", "B/op"),
    ("net.node.retried", "count"),
    ("net.node.deadline_expired", "count"),
    ("net.node.degraded", "count"),
    ("net.node.failed_over", "count"),
    ("net.node.cpu_sys_share", "fraction"),
    ("net.node.ctxsw_per_op", "1/op"),
    ("net.connect_ms", "ms"),
    ("net.provision_ms", "ms"),
    ("driver.spans_recorded", "count"),
    ("driver.latency_samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_obs::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
                (field("name").expect("name"), field("unit").unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let listed: Vec<String> = names(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
        let defined: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(listed, defined);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    }

    #[test]
    fn slices_fit_the_catalogue() {
        for w in &WORKLOADS {
            let x = (w.ell * w.capacity as f64).round() as u64;
            assert!(w.capacity - x + NODES as u64 * x <= w.catalogue, "{}", w.name);
        }
    }
}
