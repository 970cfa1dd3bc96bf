//! One benchmark run: set up the cluster (several times — `setup_s` is
//! the median), drive the workload for the measured window, check the
//! outputs against the offline oracle and the nodes' own counters, and
//! turn the recordings into named metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ccn_engine::net::{NodeStatsSnapshot, Provision, Request, Response};
use ccn_engine::{Cluster, ClusterConfig, EngineMetrics, ShardPlacement, WireSpec};
use ccn_sim::{ServedBy, TierCounts};

use crate::inproc::{self, SubmitterOut};
use crate::nodes::{self, Conn, NodeProc, WireCount};
use crate::probe;
use crate::schedule::{self, Arrival, TierTally};
use crate::spec::{
    self, Shape, Workload, HI, LADDER, MID, NODES, QUIET_QUARTILE, SETUP_REPS, SLICE_SECS,
};
use crate::stats::{self, Percentile};
use crate::sys::{self, ProcSample};
use crate::trace::{self, Span, Tracer};
use crate::wire::{self, DriveOut, Ledger, Sample, Stop};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ccn` binary built from this checkout.
    pub exe: PathBuf,
    /// Where a traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable remarks: validity gates, ladder table, counts.
    pub notes: Vec<String>,
}

type Values = BTreeMap<&'static str, (f64, Option<usize>)>;

fn put(values: &mut Values, name: &'static str, value: f64) {
    values.insert(name, (value, None));
}

fn put_percentile(values: &mut Values, name: &'static str, p: Percentile) {
    values.insert(name, (p.value / 1_000.0, Some(p.samples)));
}

/// One ladder step (the closed loops have exactly one).
struct StepOut {
    secs: f64,
    per_node: Vec<DriveOut>,
}

/// Everything recorded over one measured phase.
struct Phase {
    steps: Vec<StepOut>,
    wall_s: f64,
    /// CPU of the processes that serve: the node children, or this
    /// process for `engine-inproc` (driver and cluster share it).
    serve_cpu: ProcSample,
    /// CPU of this process while it drove node children.
    driver_cpu: ProcSample,
    /// Hot-path frames and bytes, all driver connections.
    wire: WireCount,
    /// Node counter deltas bracketing the phase, with the driver-side
    /// byte count taken at the same two instants.
    node_stats: Vec<NodeStatsSnapshot>,
    bracket_wire: WireCount,
    spans: Vec<Span>,
    /// Where each closed-loop client stood in its rank stream when the
    /// phase began (the oracle replays from there).
    start_pos: Vec<usize>,
    /// `engine-inproc`: nanoseconds inside `submit_run` and `drain`.
    submit_ns: u64,
    drain_ns: u64,
}

impl Phase {
    fn ledger(&self) -> Ledger {
        let mut total = Ledger::default();
        for out in self.steps.iter().flat_map(|s| &s.per_node) {
            total.add(&out.ledger);
        }
        total
    }
}

fn slices_of(secs: f64) -> (u32, u64) {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let slices = ((secs / SLICE_SECS).floor() as u32).max(1);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let slice_ns = (secs * 1.0e9 / f64::from(slices)) as u64;
    (slices, slice_ns.max(1))
}

/// `(slice, value)` pairs of one step's samples; replies that arrive
/// while the window drains count toward the last slice.
fn sliced<'a>(
    step: &'a StepOut,
    value: impl Fn(&Sample) -> Option<u64> + 'a,
) -> (u32, Vec<(u32, u64)>) {
    let (slices, slice_ns) = slices_of(step.secs);
    let pairs = step
        .per_node
        .iter()
        .flat_map(|out| &out.samples)
        .filter_map(|s| {
            let slice = u32::try_from(s.done_ns / slice_ns).unwrap_or(u32::MAX).min(slices - 1);
            value(s).map(|v| (slice, v))
        })
        .collect();
    (slices, pairs)
}

/// Lower quartile over slices of the per-slice percentile; falls back
/// to the whole step when no single slice has a thick enough tail.
fn step_percentile(
    step: &StepOut,
    q: f64,
    value: impl Fn(&Sample) -> Option<u64>,
    what: &str,
) -> Result<Percentile, String> {
    let (slices, pairs) = sliced(step, value);
    if let Some(p) = stats::sliced_percentile(&pairs, slices, q, QUIET_QUARTILE) {
        return Ok(p);
    }
    let mut all: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
    all.sort_unstable();
    stats::percentile(&all, q).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than {} beyond p{}",
            all.len(),
            stats::MIN_BEYOND,
            q * 100.0
        )
    })
}

/// Upper quartile over slices of completed requests per second.
fn step_throughput(step: &StepOut) -> f64 {
    let (slices, slice_ns) = slices_of(step.secs);
    let mut ops = vec![0u64; slices as usize];
    let (_, pairs) = sliced(step, |s| Some(u64::from(s.ops)));
    for (slice, n) in pairs {
        ops[slice as usize] += n;
    }
    let rates: Vec<f64> = ops.iter().map(|&n| n as f64 / (slice_ns as f64 / 1.0e9)).collect();
    stats::quantile(&rates, 1.0 - QUIET_QUARTILE).expect("at least one slice")
}

fn latency(s: &Sample) -> Option<u64> {
    Some(s.latency_ns)
}

fn peer_latency(s: &Sample) -> Option<u64> {
    s.peer.then_some(s.latency_ns)
}

/// The end-to-end metrics of one untraced phase.
fn end_to_end(w: &Workload, phase: &Phase, setup_s: f64) -> Result<Values, String> {
    let mut v = Values::new();
    let total = phase.ledger();
    let completed = total.completed();
    if completed == 0 {
        return Err("no request completed".to_owned());
    }
    let (mid, hi) = match w.shape {
        Shape::OpenLoopWire => (&phase.steps[MID], &phase.steps[HI]),
        _ => (&phase.steps[0], &phase.steps[0]),
    };
    put(&mut v, "setup_s", setup_s);
    let throughput = match w.shape {
        // Open loop: the rate is offered, not earned; report what was
        // delivered over the whole ladder.
        Shape::OpenLoopWire => completed as f64 / phase.wall_s,
        _ => step_throughput(mid),
    };
    put(&mut v, "throughput_ops_s", throughput);
    put_percentile(&mut v, "latency_p50_us", step_percentile(mid, 0.50, latency, "latency p50")?);
    let p99 = step_percentile(mid, 0.99, latency, "latency p99")?;
    let p99_hi =
        if std::ptr::eq(mid, hi) { p99 } else { step_percentile(hi, 0.99, latency, "hi p99")? };
    put_percentile(&mut v, "latency_p99_us", p99);
    put_percentile(&mut v, "latency_p99_us_hi", p99_hi);
    put_percentile(
        &mut v,
        "peer_latency_p50_us",
        step_percentile(mid, 0.50, peer_latency, "peer-tier latency p50")?,
    );
    put(&mut v, "cpu_us_per_op", phase.serve_cpu.cpu_s() * 1.0e6 / completed as f64);
    put(&mut v, "origin_share", total.origin as f64 / completed as f64);
    Ok(v)
}

/// The headline metric a traced phase is compared on, and whether
/// higher is better.
fn headline(w: &Workload, values: &Values) -> (f64, bool) {
    match w.shape {
        Shape::OpenLoopWire => (values["latency_p50_us"].0, false),
        _ => (values["throughput_ops_s"].0, true),
    }
}

// ---------------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------------

/// Sizes a closed loop's span sampling: no connection or submitter here
/// passes this many frames (waves) a second.
const MAX_TREES_PER_SEC: f64 = 30_000.0;

/// One driver thread's belongings: its connection, where it is in its
/// rank stream, and (traced phases) its span buffer.
struct Lane {
    conn: Conn,
    pos: usize,
    tracer: Option<Tracer>,
}

struct WireSession {
    nodes: Vec<NodeProc>,
    lanes: Vec<Lane>,
    provision: Provision,
    streams: Vec<Vec<u64>>,
    /// `[step][node]` arrival schedules (open loop only).
    ladder: Vec<Vec<Vec<Arrival>>>,
    /// Seconds each ladder step lasts (open loop only).
    step_secs: Vec<f64>,
    connect_ms: f64,
    provision_ms: f64,
}

fn wire_spec(w: &Workload) -> WireSpec {
    let mut spec = WireSpec::new(NODES);
    spec.catalogue = w.catalogue;
    spec.capacity = w.capacity;
    spec.ell = w.ell;
    spec.policy = w.policy;
    spec
}

/// Runs `drive` once per lane, each on its own thread — never more
/// driver threads or connections than nodes — on the core of the node
/// it drives. The threads lower their timer slack; the nodes, spawned
/// earlier, keep the default.
fn per_lane<T: Send>(
    lanes: &mut [Lane],
    drive: impl Fn(usize, &mut Lane) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let drive = &drive;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(node, lane)| {
                scope.spawn(move || {
                    sys::pin_to(sys::core_of(node));
                    sys::tighten_timer_slack();
                    drive(node, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "driver thread panicked".to_owned())?)
            .collect()
    })
}

impl WireSession {
    /// Node spawn → `READY`, connect + `Hello`, `ConfigEpoch` →
    /// `EpochAck`, stream generation, fixed-count warm-up.
    fn setup(w: &Workload, seed: u64, phase_secs: f64, exe: &Path) -> Result<Self, String> {
        let nodes = (0..NODES)
            .map(|id| NodeProc::spawn_on(exe, id, w.wire_batch, sys::core_of(id)))
            .collect::<Result<Vec<_>, _>>()?;
        let clock = Instant::now();
        let mut lanes = nodes
            .iter()
            .map(|n| Conn::connect(&n.addr).map(|conn| Lane { conn, pos: 0, tracer: None }))
            .collect::<Result<Vec<_>, _>>()?;
        let connect_ms = clock.elapsed().as_secs_f64() * 1.0e3;
        let provision = wire_spec(w).provision(1, nodes.iter().map(|n| n.addr.clone()).collect());
        let clock = Instant::now();
        for lane in &mut lanes {
            lane.conn.provision(&provision)?;
        }
        let provision_ms = clock.elapsed().as_secs_f64() * 1.0e3;
        let streams = schedule::rank_streams(w, w.stream_per_node, seed)?;
        let (ladder, step_secs) = match w.shape {
            Shape::OpenLoopWire => {
                let step_secs: Vec<f64> = LADDER.iter().map(|s| phase_secs * s.share).collect();
                let ladder = LADDER
                    .iter()
                    .enumerate()
                    .map(|(k, step)| {
                        let seed = schedule::step_seed(seed, k);
                        schedule::poisson_schedule(w, step.rate_ops_s, step_secs[k], seed)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (ladder, step_secs)
            }
            _ => (Vec::new(), Vec::new()),
        };
        let mut session =
            Self { nodes, lanes, provision, streams, ladder, step_secs, connect_ms, provision_ms };
        let warm = session.closed_step(w.batch, w.window, Stop::Count(w.warmup / NODES as u64))?;
        let failed: u64 = warm.per_node.iter().map(|o| o.ledger.failed).sum();
        if failed > 0 {
            return Err(format!("{failed} requests failed during warm-up"));
        }
        Ok(session)
    }

    fn closed_step(&mut self, batch: usize, window: usize, stop: Stop) -> Result<StepOut, String> {
        let t0 = Instant::now();
        let streams = &self.streams;
        let per_node = per_lane(&mut self.lanes, |node, lane| {
            let Lane { conn, pos, tracer } = lane;
            wire::closed_loop(conn, &streams[node], pos, batch, window, stop, t0, tracer)
        })?;
        let secs = match stop {
            Stop::At(ns) => ns as f64 / 1.0e9,
            Stop::Count(_) => t0.elapsed().as_secs_f64(),
        };
        Ok(StepOut { secs, per_node })
    }

    fn open_step(&mut self, w: &Workload, step: usize) -> Result<StepOut, String> {
        let t0 = Instant::now();
        let arrivals = &self.ladder[step];
        let secs = self.step_secs[step];
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let horizon_ns = (secs * 1.0e9) as u64;
        let per_node = per_lane(&mut self.lanes, |node, lane| {
            let Lane { conn, tracer, .. } = lane;
            wire::open_loop(conn, &arrivals[node], w.window, horizon_ns, t0, tracer)
        })?;
        Ok(StepOut { secs, per_node })
    }

    fn node_cpu(&self) -> Result<ProcSample, String> {
        let mut total = ProcSample::default();
        for node in &self.nodes {
            let sample = sys::sample_process(Some(node.pid()))
                .map_err(|e| format!("/proc/{}: {e}", node.pid()))?;
            total = total.plus(&sample);
        }
        Ok(total)
    }

    /// `Stats` from every node, with the driver-side wire count taken
    /// just before each request, so both ends bracket the same frames.
    fn stats(&mut self) -> Result<(Vec<NodeStatsSnapshot>, WireCount), String> {
        let mut count = WireCount::default();
        let mut stats = Vec::with_capacity(NODES);
        for lane in &mut self.lanes {
            count = count.plus(&lane.conn.count);
            stats.push(lane.conn.stats()?);
        }
        Ok((stats, count))
    }

    /// One measured phase: the workload for `phase_secs`, bracketed by
    /// `Stats` frames and `/proc` samples at the same boundaries.
    fn phase(&mut self, w: &Workload, phase_secs: f64, traced: bool) -> Result<Phase, String> {
        for (node, lane) in self.lanes.iter_mut().enumerate() {
            lane.tracer = traced.then(|| {
                let frames = match w.shape {
                    Shape::OpenLoopWire => self.ladder.iter().map(|s| s[node].len() as u64).sum(),
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    _ => (phase_secs * MAX_TREES_PER_SEC) as u64,
                };
                Tracer::new(node, frames, &trace::WIRE_CHILDREN)
            });
        }
        let start_pos = self.lanes.iter().map(|l| l.pos).collect();
        let (stats_before, bracket_before) = self.stats()?;
        let hot_before = self.hot_count();
        let node_before = self.node_cpu()?;
        let driver_before = sys::sample_process(None).map_err(|e| e.to_string())?;
        let clock = Instant::now();
        let steps = match w.shape {
            Shape::OpenLoopWire => {
                (0..LADDER.len()).map(|k| self.open_step(w, k)).collect::<Result<Vec<_>, _>>()?
            }
            _ => {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let stop = Stop::At((phase_secs * 1.0e9) as u64);
                vec![self.closed_step(w.batch, w.window, stop)?]
            }
        };
        let wall_s = clock.elapsed().as_secs_f64();
        let driver_cpu =
            sys::sample_process(None).map_err(|e| e.to_string())?.since(&driver_before);
        let serve_cpu = self.node_cpu()?.since(&node_before);
        let wire = self.hot_count().since(&hot_before);
        let (stats_after, bracket_after) = self.stats()?;
        let node_stats =
            stats_after.iter().zip(&stats_before).map(|(a, b)| stats_delta(a, b)).collect();
        let spans =
            self.lanes.iter_mut().filter_map(|l| l.tracer.take()).flat_map(|t| t.spans).collect();
        Ok(Phase {
            steps,
            wall_s,
            serve_cpu,
            driver_cpu,
            wire,
            node_stats,
            bracket_wire: bracket_after.since(&bracket_before),
            spans,
            start_pos,
            submit_ns: 0,
            drain_ns: 0,
        })
    }

    fn hot_count(&self) -> WireCount {
        self.lanes.iter().fold(WireCount::default(), |sum, l| sum.plus(&l.conn.count))
    }

    fn teardown(self) {
        nodes::shutdown(self.nodes, self.lanes.into_iter().map(|l| l.conn).collect());
    }
}

/// Field-wise `after − before` of the counters the benchmark reads.
fn stats_delta(after: &NodeStatsSnapshot, before: &NodeStatsSnapshot) -> NodeStatsSnapshot {
    NodeStatsSnapshot {
        lookups: after.lookups - before.lookups,
        shed: after.shed - before.shed,
        forwards_out: after.forwards_out - before.forwards_out,
        forward_batches: after.forward_batches - before.forward_batches,
        retried: after.retried - before.retried,
        failed_over: after.failed_over - before.failed_over,
        deadline_expired: after.deadline_expired - before.deadline_expired,
        degraded: after.degraded - before.degraded,
        rtt_count: after.rtt_count - before.rtt_count,
        rtt_sum_us: after.rtt_sum_us - before.rtt_sum_us,
        bytes_in: after.bytes_in - before.bytes_in,
        bytes_out: after.bytes_out - before.bytes_out,
        ..NodeStatsSnapshot::default()
    }
}

/// Conservation and oracle checks every phase must pass. Any failure
/// fails the run: it prints no metrics and exits non-zero.
fn check_ledgers(
    w: &Workload,
    provision: &Provision,
    phase: &Phase,
    expected: impl Fn(usize, usize, &DriveOut) -> TierTally,
) -> Result<(), String> {
    for (k, step) in phase.steps.iter().enumerate() {
        for (node, out) in step.per_node.iter().enumerate() {
            let l = &out.ledger;
            if l.offered != l.completed() + l.failed {
                return Err(format!("step {k} node {node}: ledger does not balance: {l:?}"));
            }
            if l.failed > 0 {
                return Err(format!("step {k} node {node}: {} requests failed", l.failed));
            }
            // Static stores make the serving tier a pure function of
            // the rank, so the tally must match the oracle exactly.
            if w.policy == ccn_engine::StorePolicy::Provisioned {
                let want = expected(k, node, out);
                if [l.local, l.peer, l.origin] != want {
                    return Err(format!(
                        "step {k} node {node}: served (local, peer, origin) = {:?}, the layout \
                         (prefix {}, slices {:?}) predicts {want:?}",
                        [l.local, l.peer, l.origin],
                        provision.prefix,
                        provision.slices
                    ));
                }
            }
        }
    }
    Ok(())
}

fn check_wire(w: &Workload, session: &WireSession, phase: &Phase) -> Result<(), String> {
    check_ledgers(w, &session.provision, phase, |step, node, out| match w.shape {
        Shape::OpenLoopWire => {
            schedule::expected_arrivals(&session.provision, node, &session.ladder[step][node])
        }
        _ => schedule::expected_cyclic(
            &session.provision,
            node,
            &session.streams[node],
            phase.start_pos[node],
            out.ledger.offered,
        ),
    })?;
    let offered = phase.ledger().offered;
    let seen: u64 = phase.node_stats.iter().map(|s| s.lookups).sum();
    if seen != offered {
        return Err(format!("nodes counted {seen} lookups, the driver offered {offered}"));
    }
    for (node, s) in phase.node_stats.iter().enumerate() {
        if s.retried + s.deadline_expired + s.degraded + s.failed_over + s.shed > 0 {
            return Err(format!(
                "node {node} left the clean path: retried {}, deadline_expired {}, degraded {}, \
                 failed_over {}, shed {}",
                s.retried, s.deadline_expired, s.degraded, s.failed_over, s.shed
            ));
        }
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Relative cost of tracing on the workload's headline metric;
/// positive means the traced phase was worse.
fn trace_overhead(w: &Workload, untraced: &Values, traced: &Values) -> f64 {
    let ((plain, higher_is_better), (with, _)) = (headline(w, untraced), headline(w, traced));
    if higher_is_better {
        ratio(plain - with, plain)
    } else {
        ratio(with - plain, plain)
    }
}

/// Per-layer values read off a traced wire phase.
fn wire_layers(w: &Workload, session: &WireSession, phase: &Phase, v: &mut Values) -> Vec<String> {
    let mut notes = Vec::new();
    let total = phase.ledger();
    let offered = total.offered as f64;
    put(v, "driver.failed", total.failed as f64);
    put(
        v,
        "driver.cpu_share",
        ratio(phase.driver_cpu.cpu_s(), phase.driver_cpu.cpu_s() + phase.serve_cpu.cpu_s()),
    );
    put(
        v,
        "driver.latency_samples",
        phase.steps.iter().flat_map(|s| &s.per_node).map(|o| o.samples.len()).sum::<usize>() as f64,
    );
    put(v, "driver.spans_recorded", phase.spans.len() as f64);
    put(
        v,
        "net.frames_per_op",
        ratio((phase.wire.frames_out + phase.wire.frames_in) as f64, offered),
    );
    put(v, "net.bytes_per_op", ratio((phase.wire.bytes_out + phase.wire.bytes_in) as f64, offered));
    put(v, "net.connect_ms", session.connect_ms);
    put(v, "net.provision_ms", session.provision_ms);

    let sum = |f: fn(&NodeStatsSnapshot) -> u64| phase.node_stats.iter().map(f).sum::<u64>() as f64;
    put(v, "net.node.forwards_per_op", ratio(sum(|s| s.forwards_out), offered));
    put(v, "net.node.coalesce_factor", ratio(sum(|s| s.forwards_out), sum(|s| s.forward_batches)));
    put(v, "net.node.fwd_rtt_mean_us", ratio(sum(|s| s.rtt_sum_us), sum(|s| s.rtt_count)));
    // Every byte on a peer link is counted out at one node and in at
    // another; every byte on a driver connection once.
    let node_bytes = sum(|s| s.bytes_in + s.bytes_out);
    let driver_bytes = (phase.bracket_wire.bytes_in + phase.bracket_wire.bytes_out) as f64;
    put(v, "net.node.peer_bytes_per_op", ratio((node_bytes - driver_bytes) / 2.0, offered));
    put(v, "net.node.retried", sum(|s| s.retried));
    put(v, "net.node.deadline_expired", sum(|s| s.deadline_expired));
    put(v, "net.node.degraded", sum(|s| s.degraded));
    put(v, "net.node.failed_over", sum(|s| s.failed_over));
    put(v, "net.node.cpu_sys_share", ratio(phase.serve_cpu.sys_s, phase.serve_cpu.cpu_s()));
    put(v, "net.node.ctxsw_per_op", ratio(phase.serve_cpu.ctx_switches as f64, offered));

    for (name, span) in [
        ("net.schedule_wait_us_per_frame", "schedule_wait"),
        ("net.encode_us_per_frame", "encode"),
        ("net.write_us_per_frame", "write"),
        ("net.await_us_per_frame", "await"),
        ("net.read_us_per_frame", "read_decode"),
    ] {
        put(v, name, trace::span_median_us(&phase.spans, span));
    }

    if w.shape == Shape::OpenLoopWire {
        notes.extend(ladder_report(w, phase, v));
    }
    notes
}

/// The ladder table of an open-loop phase — latency at each fixed rate
/// from the intended send time, how late the generator ran, the
/// backlog each step left — and the driver metrics read off it.
fn ladder_report(w: &Workload, phase: &Phase, v: &mut Values) -> Vec<String> {
    let mut notes = Vec::new();
    let limit = (w.window * NODES) as u64;
    let mut slo_rate = 0.0;
    notes.push(format!(
        "ladder (latency from intended send time; limit p99 <= {} us):",
        spec::SLO_P99_US
    ));
    for (k, step) in phase.steps.iter().enumerate() {
        let p50 = step_percentile(step, 0.50, latency, "p50").map_or(0.0, |p| p.value / 1e3);
        let p99 = step_percentile(step, 0.99, latency, "p99").map_or(0.0, |p| p.value / 1e3);
        let lag =
            step_percentile(step, 0.99, |s| Some(s.lag_ns), "lag").map_or(0.0, |p| p.value / 1e3);
        let lag_p50 =
            step_percentile(step, 0.50, |s| Some(s.lag_ns), "lag").map_or(0.0, |p| p.value / 1e3);
        let backlog: u64 = step.per_node.iter().map(|o| o.backlog_end).sum();
        let samples: usize = step.per_node.iter().map(|o| o.samples.len()).sum();
        // A step is a valid latency measurement only if the
        // generator kept its schedule and left no queue behind. (A
        // smoke-length step too short to carry a p99 reads 0 here.)
        let valid = p99 > 0.0 && lag <= 0.1 * p50 && backlog <= limit;
        if p99 > 0.0 && p99 <= spec::SLO_P99_US && backlog <= limit {
            slo_rate = LADDER[k].rate_ops_s;
        }
        notes.push(format!(
            "  {:<3} {:>6.0} ops/s  p50 {p50:>8.1} us  p99 {p99:>9.1} us  lag p50 {lag_p50:>6.1} \
             p99 {lag:>8.1} us  backlog_end {backlog:>4}  samples {samples:>7}  {}",
            LADDER[k].name,
            LADDER[k].rate_ops_s,
            if valid { "valid" } else { "INVALID (lag_p99 > 10% of p50, or a backlog)" }
        ));
        match k {
            0 => {
                put(v, "driver.latency_p50_us_lo", p50);
                put(v, "driver.latency_p99_us_lo", p99);
            }
            MID => {
                put(v, "driver.lag_p99_us", lag);
                put(v, "driver.backlog_end", backlog as f64);
            }
            _ => put(v, "driver.backlog_end_hi", backlog as f64),
        }
    }
    put(v, "driver.slo_rate_ops_s", slo_rate);
    notes
}

/// Stop-and-wait round trips and batch-1 capacity on the idle,
/// provisioned cluster — the first measured d0/d1 and per-hop costs.
fn net_probes(
    w: &Workload,
    session: &mut WireSession,
    secs: f64,
    v: &mut Values,
) -> Result<(), String> {
    const ROUNDS: usize = 1_000;
    let p = session.provision.clone();
    let other = p.slices.iter().find(|s| s.node != 0).ok_or("layout has no peer slice")?;
    // A known local hit, a rank the other node holds, and cold ranks
    // nobody holds (a fresh one each round: under LRU the edge admits
    // an origin-served rank, so the same one would turn local).
    let lookup = |rank: u64| Request::BatchLookup { tag: 0, contents: vec![rank] };
    let rank_of = |tier: usize, round: u64| match tier {
        0 => 1,
        1 => other.start,
        _ => w.catalogue - round,
    };
    // Node 0's driver thread makes the round trips, placed and timed
    // like the measured traffic; the other lanes sit this out.
    let rtts = per_lane(&mut session.lanes, |node, lane| {
        if node != 0 {
            return Ok(None);
        }
        let conn = &mut lane.conn;
        let probe = wire::round_trip_p50_us(
            conn,
            std::iter::repeat_with(|| Request::HealthProbe).take(ROUNDS),
            |r| matches!(r, Response::HealthAck { .. }),
        )?;
        conn.call(&lookup(1))?;
        conn.call(&lookup(other.start))?;
        let mut tiers = [0.0; 3];
        for (tier, rtt) in tiers.iter_mut().enumerate() {
            let requests = (0..ROUNDS as u64).map(|round| lookup(rank_of(tier, round)));
            *rtt = wire::round_trip_p50_us(conn, requests, |r| {
                let Response::BatchServed { local, peer, origin, .. } = *r else { return false };
                [local, peer, origin][tier] == 1
            })?;
        }
        Ok(Some((probe, tiers)))
    })?;
    let (probe, rtt) = rtts.into_iter().flatten().next().ok_or("no lane ran the probes")?;
    put(v, "net.rtt_probe_p50_us", probe);
    put(v, "net.rtt_local_p50_us", rtt[0]);
    put(v, "net.rtt_peer_p50_us", rtt[1]);
    put(v, "net.rtt_origin_p50_us", rtt[2]);
    put(v, "net.shard_hop_us", rtt[0] - probe);
    put(v, "net.peer_hop_us", rtt[1] - rtt[0]);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let stop = Stop::At((secs * 1.0e9) as u64);
    for (name, window) in [("net.b1_capacity_w1_ops_s", 1), ("net.b1_capacity_w8_ops_s", 8)] {
        let step = session.closed_step(1, window, stop)?;
        put(v, name, step_throughput(&step));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// engine-inproc
// ---------------------------------------------------------------------------

struct InprocSession {
    cluster: Cluster,
    provision: Provision,
    streams: Vec<Vec<u64>>,
    /// The offline tier of every stream position, per node.
    tiers: Vec<Vec<u8>>,
    pos: Vec<usize>,
    /// Per-submitter span buffers (traced phases).
    tracers: Vec<Option<Tracer>>,
}

impl InprocSession {
    /// Cluster bring-up, stream generation, fixed-count warm-up.
    fn setup(w: &Workload, seed: u64) -> Result<Self, String> {
        let config = ClusterConfig {
            nodes: NODES,
            catalogue: w.catalogue,
            capacity: w.capacity,
            ell: w.ell,
            policy: w.policy,
            placement: ShardPlacement::new(sys::allowed_cores().len(), true),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(config).map_err(|e| e.to_string())?;
        // The same `contiguous_slices` layout the cluster provisions.
        let provision = wire_spec(w).provision(1, vec![String::new(); NODES]);
        let streams = schedule::rank_streams(w, w.stream_per_node, seed)?;
        let tiers = streams
            .iter()
            .enumerate()
            .map(|(node, s)| s.iter().map(|&r| schedule::tier_of(&provision, node, r)).collect())
            .collect();
        let mut session = Self {
            cluster,
            provision,
            streams,
            tiers,
            pos: vec![0; NODES],
            tracers: (0..NODES).map(|_| None).collect(),
        };
        let warm = session.waves(w, Stop::Count(w.warmup / NODES as u64));
        let failed: u64 = warm.iter().map(|o| o.drive.ledger.failed).sum();
        if failed > 0 {
            return Err(format!("{failed} requests shed during warm-up"));
        }
        Ok(session)
    }

    fn waves(&mut self, w: &Workload, stop: Stop) -> Vec<SubmitterOut> {
        let t0 = Instant::now();
        let Self { cluster, streams, tiers, pos, tracers, .. } = self;
        let cluster = &*cluster;
        std::thread::scope(|scope| {
            let handles: Vec<_> = pos
                .iter_mut()
                .zip(tracers.iter_mut())
                .enumerate()
                .map(|(node, (pos, tracer))| {
                    let (stream, tiers) = (&streams[node], &tiers[node]);
                    scope.spawn(move || {
                        sys::pin_to(sys::core_of(node));
                        inproc::submitter(
                            cluster, node, stream, tiers, pos, w.batch, stop, t0, tracer,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter thread panicked")).collect()
        })
    }

    fn phase(&mut self, w: &Workload, phase_secs: f64, traced: bool) -> Result<Phase, String> {
        for (node, tracer) in self.tracers.iter_mut().enumerate() {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let waves = (phase_secs * MAX_TREES_PER_SEC) as u64;
            *tracer = traced.then(|| Tracer::new(node, waves, &trace::WAVE_CHILDREN));
        }
        let start_pos = self.pos.clone();
        let tiers_before = self.cluster.tier_totals();
        let cpu_before = sys::sample_process(None).map_err(|e| e.to_string())?;
        let clock = Instant::now();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let outs = self.waves(w, Stop::At((phase_secs * 1.0e9) as u64));
        let wall_s = clock.elapsed().as_secs_f64();
        let serve_cpu = sys::sample_process(None).map_err(|e| e.to_string())?.since(&cpu_before);
        let tiers_after = self.cluster.tier_totals();
        let (mut submit_ns, mut drain_ns) = (0, 0);
        let mut per_node = Vec::with_capacity(NODES);
        for (node, out) in outs.into_iter().enumerate() {
            submit_ns += out.submit_ns;
            drain_ns += out.drain_ns;
            // The cluster's own per-node tier counters fill in what a
            // wave's return value does not say.
            let (a, b): (&TierCounts, &TierCounts) = (&tiers_after[node], &tiers_before[node]);
            let mut drive = out.drive;
            drive.ledger.local = a.local - b.local;
            drive.ledger.peer = a.peer - b.peer;
            drive.ledger.origin = a.origin - b.origin;
            per_node.push(drive);
        }
        Ok(Phase {
            steps: vec![StepOut { secs: phase_secs, per_node }],
            wall_s,
            serve_cpu,
            driver_cpu: ProcSample::default(),
            wire: WireCount::default(),
            node_stats: Vec::new(),
            bracket_wire: WireCount::default(),
            spans: self.tracers.iter_mut().filter_map(Option::take).flat_map(|t| t.spans).collect(),
            start_pos,
            submit_ns,
            drain_ns,
        })
    }

    fn check(&self, w: &Workload, phase: &Phase) -> Result<(), String> {
        check_ledgers(w, &self.provision, phase, |_, node, out| {
            schedule::expected_cyclic(
                &self.provision,
                node,
                &self.streams[node],
                phase.start_pos[node],
                out.ledger.offered,
            )
        })
    }
}

fn cluster_layers(phase: &Phase, engine: &EngineMetrics, v: &mut Values) {
    let total = phase.ledger();
    put(v, "driver.failed", total.failed as f64);
    put(
        v,
        "driver.latency_samples",
        phase.steps[0].per_node.iter().map(|o| o.samples.len()).sum::<usize>() as f64,
    );
    put(v, "driver.spans_recorded", phase.spans.len() as f64);
    put(v, "cluster.submit_run_ns_per_op", ratio(phase.submit_ns as f64, total.offered as f64));
    put(
        v,
        "cluster.drain_wait_share",
        ratio(phase.drain_ns as f64, (phase.submit_ns + phase.drain_ns) as f64),
    );
    // The histograms keep an exact sum and count, so the mean is exact
    // (over the whole session, warm-up included — the same workload).
    for (name, tier) in [
        ("cluster.local_mean_us", ServedBy::Local),
        ("cluster.peer_mean_us", ServedBy::Peer),
        ("cluster.origin_mean_us", ServedBy::Origin),
    ] {
        put(v, name, engine.tier_latency[tier.index()].mean() * 1_000.0);
    }
    put(v, "cluster.max_queue_depth", engine.max_queue_depth as f64);
    put(v, "cluster.retried", engine.retried as f64);
    put(v, "cluster.degraded_to_origin", engine.degraded_to_origin as f64);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Repeats `setup` [`SETUP_REPS`] times, tearing down all but the last
/// session; returns it with the median set-up time.
fn set_up<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    teardown: impl Fn(S),
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = session.take() {
            teardown(previous);
        }
        let clock = Instant::now();
        session = Some(setup()?);
        times.push(clock.elapsed().as_secs_f64());
    }
    Ok((session.expect("SETUP_REPS > 0"), stats::median(&times).expect("SETUP_REPS > 0")))
}

/// How a traced run divides `--seconds`: the workload untraced, the
/// workload again traced (same inputs), then the probes.
const TRACE_SHARE: f64 = 0.3;
const NET_PROBE_SHARE: f64 = 0.05;
const LAYER_PROBE_SHARE: f64 = 0.25;

fn assemble(
    table: &[(&'static str, &'static str)],
    values: &Values,
    strict: bool,
) -> Result<Vec<Metric>, String> {
    table
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(&(value, samples)) if value.is_finite() => {
                Ok(Metric { name, value, unit, samples })
            }
            Some(&(value, _)) => Err(format!("metric {name} is not a number: {value}")),
            // A layer the workload does not touch reports 0.
            None if !strict => Ok(Metric { name, value: 0.0, unit, samples: None }),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let phase_secs = if args.trace { args.seconds * TRACE_SHARE } else { args.seconds };
    let mut notes = vec![format!(
        "{}: {} s window, seed {}, 2 nodes x 1 shard; traffic crosses the host's loopback \
         interface, not a link",
        w.name, args.seconds, args.seed
    )];
    let mut layer = Values::new();
    let (plain, traced, setup_s, provision, stream);
    if w.shape == Shape::InProcess {
        let (mut session, secs) = set_up(|| InprocSession::setup(w, args.seed), drop)?;
        setup_s = secs;
        plain = session.phase(w, phase_secs, false)?;
        session.check(w, &plain)?;
        traced = if args.trace { Some(session.phase(w, phase_secs, true)?) } else { None };
        if let Some(phase) = &traced {
            session.check(w, phase)?;
        }
        let InprocSession { cluster, provision: p, mut streams, .. } = session;
        let engine = cluster.finish();
        cluster_layers(traced.as_ref().unwrap_or(&plain), &engine, &mut layer);
        (provision, stream) = (p, streams.swap_remove(0));
    } else {
        let (mut session, secs) = set_up(
            || WireSession::setup(w, args.seed, phase_secs, &args.exe),
            WireSession::teardown,
        )?;
        setup_s = secs;
        plain = session.phase(w, phase_secs, false)?;
        check_wire(w, &session, &plain)?;
        if w.shape == Shape::OpenLoopWire && !args.trace {
            notes.extend(ladder_report(w, &plain, &mut Values::new()));
        }
        traced = if args.trace { Some(session.phase(w, phase_secs, true)?) } else { None };
        if let Some(phase) = &traced {
            check_wire(w, &session, phase)?;
            notes.extend(wire_layers(w, &session, phase, &mut layer));
            net_probes(w, &mut session, args.seconds * NET_PROBE_SHARE, &mut layer)?;
        }
        (provision, stream) = (session.provision.clone(), std::mem::take(&mut session.streams[0]));
        session.teardown();
    }

    let total = plain.ledger();
    let values = end_to_end(w, &plain, setup_s)?;
    let Some(traced) = traced else {
        return Ok(RunResult {
            attempted: total.offered,
            failed: total.failed,
            metrics: assemble(&spec::END_TO_END, &values, true)?,
            notes,
        });
    };
    let traced_values = end_to_end(w, &traced, setup_s)?;
    put(&mut layer, "driver.trace_overhead_share", trace_overhead(w, &values, &traced_values));
    let budget = Duration::from_secs_f64(args.seconds * LAYER_PROBE_SHARE);
    for (name, value) in probe::layer_probes(w, &provision, &stream, args.seed, budget)? {
        // `engine-inproc` never touches `net`, its codec included.
        if w.shape != Shape::InProcess || !name.starts_with("net.") {
            put(&mut layer, name, value);
        }
    }
    let path = args.out_dir.join(format!("trace-{}.json", w.name));
    trace::write_spans(&path, w.name, &traced.spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("{} spans written to {}", traced.spans.len(), path.display()));
    let mut all = traced.ledger();
    all.add(&total);
    Ok(RunResult {
        attempted: all.offered,
        failed: all.failed,
        metrics: assemble(&spec::PER_LAYER, &layer, false)?,
        notes,
    })
}
