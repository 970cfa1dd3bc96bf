//! Parallel, seed-sharded experiment engine.
//!
//! Simulation experiments are embarrassingly parallel across
//! `(seed, grid point)` pairs: each trial owns its network, workload,
//! and RNG, so trials fan out across threads via
//! [`ccn_numerics::parallel_map`] with zero shared mutable state and
//! bit-identical per-trial results regardless of thread count.
//!
//! The module has three layers:
//!
//! - [`Trial`]/[`run_trials`] — declare and execute a batch of
//!   steady-state simulation runs, measuring per-run wall time and
//!   events/sec alongside the simulation [`Metrics`];
//! - [`aggregate`] — group per-seed results by label into means with
//!   95% confidence intervals ([`LabelSummary`]);
//! - [`run_bench`]/[`BenchReport`] — the `ccn bench` driver: store
//!   micro-benchmarks, a multi-seed validation sweep, and a
//!   thread-scaling measurement, all emitted as machine-readable
//!   `BENCH_*.json`.

use std::time::Instant;

use ccn_numerics::parallel_map;
use ccn_numerics::stats::Summary;
use ccn_obs::{available_cores, effective_threads, Json, PhaseClock, RunManifest, ToJson};
use ccn_sim::scenario::{steady_state_with_failures, SteadyStateConfig};
use ccn_sim::store::{ContentStore, LfuStore, LruStore};
use ccn_sim::{FailureScenario, Metrics, OriginConfig, SimError};
use ccn_topology::{datasets, Graph};
use ccn_zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One independent simulation run: a steady-state scenario on a
/// topology, optionally fault-injected.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Aggregation key: trials sharing a label are replications of the
    /// same experimental condition (typically differing only in seed).
    pub label: String,
    /// The topology to simulate on.
    pub graph: Graph,
    /// Scenario parameters (the seed lives here).
    pub config: SteadyStateConfig,
    /// Failure schedule replayed during the run (empty = fault-free).
    pub failures: FailureScenario,
    /// Routers with attached clients (empty = all routers).
    pub clients: Vec<usize>,
}

impl Trial {
    /// A fault-free trial with clients on every router.
    #[must_use]
    pub fn new(label: impl Into<String>, graph: Graph, config: SteadyStateConfig) -> Self {
        Self {
            label: label.into(),
            graph,
            config,
            failures: FailureScenario::none(),
            clients: Vec::new(),
        }
    }

    /// Adds a failure schedule and an optional client restriction.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureScenario, clients: Vec<usize>) -> Self {
        self.failures = failures;
        self.clients = clients;
        self
    }
}

/// Outcome of one trial: the simulation metrics plus runner-side
/// throughput measurements.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The trial's aggregation label.
    pub label: String,
    /// The workload seed the trial ran with.
    pub seed: u64,
    /// Wall-clock duration of the simulation (ms), workload generation
    /// included.
    pub wall_ms: f64,
    /// Events dispatched by the simulator.
    pub events: u64,
    /// Dispatch throughput (`events / wall seconds`).
    pub events_per_sec: f64,
    /// Full simulation metrics.
    pub metrics: Metrics,
}

/// Runs every trial, fanning them across `threads` workers; results
/// come back in trial order. Each trial is deterministic in its own
/// seed, so the thread count affects wall time only, never results.
///
/// The worker count is clamped to the cores actually available
/// ([`effective_threads`]): oversubscribing a starved machine only
/// adds scheduler churn and yields misleading sub-1.0 "speedups"
/// (4 requested threads on 1 core read as 0.88x).
///
/// # Errors
///
/// Propagates the first [`SimError`] any trial produced.
pub fn run_trials(trials: &[Trial], threads: usize) -> Result<Vec<TrialResult>, SimError> {
    let threads = effective_threads(threads, available_cores());
    parallel_map(trials, threads, |trial| {
        let start = Instant::now();
        let metrics = steady_state_with_failures(
            trial.graph.clone(),
            &trial.config,
            trial.failures.clone(),
            &trial.clients,
        )?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let events = metrics.events_processed;
        Ok(TrialResult {
            label: trial.label.clone(),
            seed: trial.config.seed,
            wall_ms,
            events,
            events_per_sec: if wall_ms > 0.0 { events as f64 / (wall_ms / 1e3) } else { 0.0 },
            metrics,
        })
    })
    .into_iter()
    .collect()
}

/// A mean with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample mean across replications.
    pub mean: f64,
    /// Normal-approximation 95% CI half-width (0 for one replication).
    pub ci95: f64,
}

impl Stat {
    fn of(sample: &[f64]) -> Self {
        match Summary::of(sample) {
            Some(s) => Self { mean: s.mean, ci95: s.ci_half_width(1.96) },
            None => Self { mean: f64::NAN, ci95: f64::NAN },
        }
    }
}

/// Aggregated replications of one experimental condition.
#[derive(Debug, Clone)]
pub struct LabelSummary {
    /// The condition's label.
    pub label: String,
    /// Number of replications aggregated.
    pub runs: usize,
    /// Origin load (paper metric) across replications.
    pub origin_load: Stat,
    /// Local hit ratio across replications.
    pub local_hit_ratio: Stat,
    /// Peer hit ratio across replications.
    pub peer_hit_ratio: Stat,
    /// Mean request latency (ms) across replications.
    pub avg_latency_ms: Stat,
    /// Dispatch throughput across replications.
    pub events_per_sec: Stat,
    /// Total wall time spent in this condition's replications (ms).
    pub wall_ms_total: f64,
}

/// Groups results by label (first-seen order) and summarizes each
/// group's metrics with 95% confidence intervals.
#[must_use]
pub fn aggregate(results: &[TrialResult]) -> Vec<LabelSummary> {
    let mut order: Vec<&str> = Vec::new();
    for r in results {
        if !order.contains(&r.label.as_str()) {
            order.push(&r.label);
        }
    }
    order
        .into_iter()
        .map(|label| {
            let group: Vec<&TrialResult> = results.iter().filter(|r| r.label == label).collect();
            let pull = |f: &dyn Fn(&TrialResult) -> f64| -> Vec<f64> {
                group.iter().map(|r| f(r)).collect()
            };
            LabelSummary {
                label: label.to_owned(),
                runs: group.len(),
                origin_load: Stat::of(&pull(&|r| r.metrics.origin_load())),
                local_hit_ratio: Stat::of(&pull(&|r| r.metrics.local_hit_ratio())),
                peer_hit_ratio: Stat::of(&pull(&|r| r.metrics.peer_hit_ratio())),
                avg_latency_ms: Stat::of(&pull(&|r| r.metrics.avg_latency_ms())),
                events_per_sec: Stat::of(&pull(&|r| r.events_per_sec)),
                wall_ms_total: group.iter().map(|r| r.wall_ms).sum(),
            }
        })
        .collect()
}

/// One store micro-benchmark line: an O(1) store on a Zipf churn
/// stream.
#[derive(Debug, Clone)]
pub struct StoreChurn {
    /// `"lru_churn"` or `"lfu_churn"`.
    pub name: String,
    /// Catalogue size the stream draws from.
    pub catalogue: u64,
    /// Store capacity.
    pub capacity: usize,
    /// Operations timed.
    pub fast_ops: usize,
    /// Nanoseconds per operation.
    pub fast_ns_per_op: f64,
}

/// Thread-scaling measurement on the validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadScaling {
    /// Worker count the run *asked* for.
    pub threads: usize,
    /// Worker count the run actually used: `threads` clamped to the
    /// visible cores ([`effective_threads`]). When this is below
    /// `threads`, the "scaling" row measures a starved machine, not
    /// the code (4 requested threads on 1 core).
    pub effective_threads: usize,
    /// CPU cores visible to the process when the measurement ran.
    pub available_cores: usize,
    /// Wall time of the sweep at one thread (ms).
    pub t1_ms: f64,
    /// Wall time of the sweep at `effective_threads` workers (ms).
    pub tn_ms: f64,
    /// `t1 / tn`.
    pub speedup: f64,
    /// `speedup / min(threads, available_cores)`: speedup per core
    /// the run could actually use. Threads beyond the visible cores
    /// cannot add parallelism, so they do not enter the denominator.
    pub efficiency: f64,
}

impl ThreadScaling {
    /// Derives the full scaling row from a raw measurement; the single
    /// place the clamp and the efficiency denominator are computed, so
    /// the two can never disagree with their documentation again.
    #[must_use]
    pub fn from_measurement(
        requested: usize,
        available_cores: usize,
        t1_ms: f64,
        tn_ms: f64,
    ) -> Self {
        let effective = effective_threads(requested, available_cores);
        let speedup = t1_ms / tn_ms;
        Self {
            threads: requested,
            effective_threads: effective,
            available_cores,
            t1_ms,
            tn_ms,
            speedup,
            efficiency: speedup / effective as f64,
        }
    }
}

/// Everything `ccn bench` measures, serializable as `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Snapshot name (e.g. `"BENCH"`).
    pub name: String,
    /// Whether sizes were reduced for a CI smoke run.
    pub smoke: bool,
    /// Worker count used for the parallel phases (post-clamp).
    pub threads: usize,
    /// Run manifest: seed, requested/effective threads, cores, git
    /// revision, and per-phase timings for the whole suite.
    pub manifest: RunManifest,
    /// Store micro-benchmarks.
    pub stores: Vec<StoreChurn>,
    /// Multi-seed Abilene validation sweep, one summary per `ℓ`.
    pub sweep: Vec<LabelSummary>,
    /// Thread-scaling measurement over the sweep.
    pub scaling: ThreadScaling,
}

/// Options for [`run_bench`].
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Worker threads for the parallel phases (0 = autodetect).
    pub threads: usize,
    /// Replications per sweep condition.
    pub seeds: usize,
    /// Shrink workloads for a fast CI smoke run.
    pub smoke: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self { threads: 0, seeds: 5, smoke: false }
    }
}

/// Drives a Zipf churn stream through a store, mirroring the
/// simulator's hot path (`contains` → `on_hit` | `on_data`); returns
/// ns/op.
fn churn_ns_per_op(store: &mut dyn ContentStore, stream: &[u64]) -> f64 {
    let start = Instant::now();
    for &rank in stream {
        let c = ccn_sim::ContentId(rank);
        if store.contains(c) {
            store.on_hit(c);
        } else {
            store.on_data(c);
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    elapsed / stream.len() as f64
}

fn store_churns(smoke: bool) -> Vec<StoreChurn> {
    // The acceptance-criteria geometry: catalogue 10^6, capacity 10^3,
    // 10^6 ops.
    let catalogue: u64 = 1_000_000;
    let capacity: usize = 1_000;
    let fast_ops = if smoke { 100_000 } else { 1_000_000 };
    let sampler = ZipfSampler::new(0.8, catalogue).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(2024);
    let stream = sampler.sample_many(&mut rng, fast_ops);
    let stores: [(&str, Box<dyn ContentStore>); 2] = [
        ("lru_churn", Box::new(LruStore::new(capacity))),
        ("lfu_churn", Box::new(LfuStore::new(capacity))),
    ];
    stores
        .into_iter()
        .map(|(name, mut store)| StoreChurn {
            name: name.to_owned(),
            catalogue,
            capacity,
            fast_ops,
            fast_ns_per_op: churn_ns_per_op(store.as_mut(), &stream),
        })
        .collect()
}

/// Base workload seed of the validation sweep; replication `k` runs
/// with seed `SWEEP_BASE_SEED + k`. Recorded in the run manifest.
pub const SWEEP_BASE_SEED: u64 = 1_000;

/// The multi-seed Abilene validation sweep: `ℓ` grid × `seeds`
/// replications.
#[must_use]
pub fn validation_sweep_trials(seeds: usize, smoke: bool) -> Vec<Trial> {
    let graph = datasets::abilene();
    let horizon_ms = if smoke { 10_000.0 } else { 60_000.0 };
    let mut trials = Vec::new();
    for &ell in &[0.0, 0.3, 0.6, 1.0] {
        for seed in 0..seeds as u64 {
            let config = SteadyStateConfig {
                zipf_exponent: 0.8,
                catalogue: 5_000,
                capacity: 100,
                ell,
                rate_per_ms: 0.01,
                horizon_ms,
                origin: OriginConfig { latency_ms: 50.0, hops: 4, gateway: None },
                seed: SWEEP_BASE_SEED + seed,
            };
            trials.push(Trial::new(format!("ell={ell}"), graph.clone(), config));
        }
    }
    trials
}

/// Times the trial sweep at one thread and at `threads` threads and
/// folds both into a clamp-honest [`ThreadScaling`] block.
///
/// # Errors
///
/// Propagates simulation failures from the underlying trials.
pub fn thread_scaling(trials: &[Trial], threads: usize) -> Result<ThreadScaling, SimError> {
    let cores = available_cores();
    let start = Instant::now();
    run_trials(trials, 1)?;
    let t1_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    // run_trials clamps internally; passing the requested count keeps
    // the report honest about what was asked vs. what ran.
    run_trials(trials, threads)?;
    let tn_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(ThreadScaling::from_measurement(threads, cores, t1_ms, tn_ms))
}

impl ToJson for StoreChurn {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", self.name.as_str())
            .field("catalogue", self.catalogue)
            .field("capacity", self.capacity)
            .field("fast_ops", self.fast_ops)
            .field("fast_ns_per_op", self.fast_ns_per_op)
    }
}

impl ToJson for LabelSummary {
    fn to_json(&self) -> Json {
        Json::object()
            .field("label", self.label.as_str())
            .field("runs", self.runs)
            .field("origin_load_mean", self.origin_load.mean)
            .field("origin_load_ci95", self.origin_load.ci95)
            .field("local_hit_mean", self.local_hit_ratio.mean)
            .field("peer_hit_mean", self.peer_hit_ratio.mean)
            .field("avg_latency_ms_mean", self.avg_latency_ms.mean)
            .field("avg_latency_ms_ci95", self.avg_latency_ms.ci95)
            .field("events_per_sec_mean", self.events_per_sec.mean)
            .field("wall_ms_total", self.wall_ms_total)
    }
}

impl ToJson for ThreadScaling {
    fn to_json(&self) -> Json {
        Json::object()
            .field("threads", self.threads)
            .field("effective_threads", self.effective_threads)
            .field("available_cores", self.available_cores)
            .field("t1_ms", self.t1_ms)
            .field("tn_ms", self.tn_ms)
            .field("speedup", self.speedup)
            .field("efficiency", self.efficiency)
    }
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("bench", self.name.as_str())
            .field("smoke", self.smoke)
            .field("threads", self.threads)
            .field("manifest", self.manifest.to_json())
            .field("stores", Json::Arr(self.stores.iter().map(ToJson::to_json).collect()))
            .field("sweep", Json::Arr(self.sweep.iter().map(ToJson::to_json).collect()))
            .field("thread_scaling", self.scaling.to_json())
    }
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON through the
    /// shared `ccn-obs` serializer (non-finite floats become `null`,
    /// strings are fully escaped, output round-trips through
    /// [`Json::parse`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_string_pretty()
    }
}

/// Worker count: the option's value clamped to the visible cores, or
/// available parallelism capped at 8 when zero. Requests beyond the
/// visible cores cannot add parallelism — honouring them only
/// oversubscribes the scheduler (see [`ThreadScaling`]).
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let cores = available_cores();
    if requested > 0 {
        effective_threads(requested, cores)
    } else {
        cores.min(8)
    }
}

/// Runs the full benchmark suite and returns the report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_bench(name: &str, opts: &BenchOptions) -> Result<BenchReport, SimError> {
    let requested = if opts.threads > 0 { opts.threads } else { resolve_threads(0) };
    let threads = resolve_threads(opts.threads);
    let mut clock = PhaseClock::new();
    println!("[{name}] store micro-benchmarks...");
    let stores = store_churns(opts.smoke);
    clock.lap("stores");
    for s in &stores {
        println!("  {}: {:.0} ns/op", s.name, s.fast_ns_per_op);
    }
    println!(
        "[{name}] validation sweep ({} seeds x 4 ell points, {} threads)...",
        opts.seeds, threads
    );
    let trials = validation_sweep_trials(opts.seeds, opts.smoke);
    let scaling = thread_scaling(&trials, requested)?;
    clock.lap("thread_scaling");
    let results = run_trials(&trials, threads)?;
    let sweep_events: u64 = results.iter().map(|r| r.events).sum();
    clock.lap_events("sweep", sweep_events);
    let sweep = aggregate(&results);
    for s in &sweep {
        println!(
            "  {}: origin {:.3} +/- {:.3}, {:.0} events/sec over {} runs",
            s.label, s.origin_load.mean, s.origin_load.ci95, s.events_per_sec.mean, s.runs
        );
    }
    println!(
        "  scaling: t1 {:.0} ms, t{} {:.0} ms — {:.2}x ({:.0}% efficiency on {} core(s))",
        scaling.t1_ms,
        scaling.effective_threads,
        scaling.tn_ms,
        scaling.speedup,
        scaling.efficiency * 100.0,
        scaling.available_cores
    );
    let manifest = RunManifest::capture("ccn-bench", name, SWEEP_BASE_SEED, requested, opts.smoke)
        .with_phases(clock.finish());
    Ok(BenchReport {
        name: name.to_owned(),
        smoke: opts.smoke,
        threads,
        manifest,
        stores,
        sweep,
        scaling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(ell: f64, seed: u64) -> SteadyStateConfig {
        SteadyStateConfig {
            zipf_exponent: 0.8,
            catalogue: 500,
            capacity: 20,
            ell,
            rate_per_ms: 0.01,
            horizon_ms: 2_000.0,
            origin: OriginConfig { latency_ms: 50.0, hops: 4, gateway: None },
            seed,
        }
    }

    #[test]
    fn trial_results_are_thread_count_invariant() {
        let graph = datasets::abilene();
        let trials: Vec<Trial> =
            (0..4).map(|s| Trial::new("cond", graph.clone(), tiny_config(0.5, s))).collect();
        let seq = run_trials(&trials, 1).unwrap();
        let par = run_trials(&trials, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.metrics, b.metrics, "seed {}", a.seed);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn aggregate_groups_by_label_in_first_seen_order() {
        let graph = datasets::abilene();
        let mut trials = Vec::new();
        for &ell in &[0.6, 0.0] {
            for seed in 0..3 {
                trials.push(Trial::new(
                    format!("ell={ell}"),
                    graph.clone(),
                    tiny_config(ell, seed),
                ));
            }
        }
        let results = run_trials(&trials, 2).unwrap();
        let summaries = aggregate(&results);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].label, "ell=0.6");
        assert_eq!(summaries[1].label, "ell=0");
        for s in &summaries {
            assert_eq!(s.runs, 3);
            assert!(s.origin_load.mean.is_finite());
            assert!(s.origin_load.ci95 >= 0.0);
            assert!(s.events_per_sec.mean > 0.0);
        }
        // Coordination reduces origin load even on tiny runs.
        assert!(summaries[0].origin_load.mean < summaries[1].origin_load.mean);
    }

    #[test]
    fn trial_errors_propagate() {
        let graph = datasets::abilene();
        let bad = Trial::new("bad", graph, tiny_config(1.5, 0));
        assert!(run_trials(&[bad], 2).is_err());
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            name: "BENCH_TEST".into(),
            smoke: true,
            threads: 2,
            manifest: RunManifest::capture("ccn-bench", "BENCH_TEST", SWEEP_BASE_SEED, 2, true)
                .with_phases(vec![
                    ccn_obs::PhaseTiming { phase: "stores".into(), wall_ms: 5.0, events: None },
                    ccn_obs::PhaseTiming {
                        phase: "sweep".into(),
                        wall_ms: 100.0,
                        events: Some(4_000),
                    },
                ]),
            stores: vec![StoreChurn {
                name: "lru_churn".into(),
                catalogue: 100,
                capacity: 10,
                fast_ops: 1_000,
                fast_ns_per_op: 50.0,
            }],
            sweep: vec![],
            scaling: ThreadScaling::from_measurement(2, 4, 100.0, 60.0),
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"bench\": \"BENCH_TEST\""));
        assert!(json.contains("\"fast_ns_per_op\": 50"));
        assert!(json.contains("\"effective_threads\": 2"));
        // NaN must serialize as null, not break the document.
        let nan_stat = Stat::of(&[]);
        assert_eq!(Json::from(nan_stat.mean).to_string_compact(), "null");
    }

    #[test]
    fn report_json_round_trips_and_embeds_a_valid_manifest() {
        let report = sample_report();
        let doc = Json::parse(&report.to_json()).expect("report must parse");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("BENCH_TEST"));
        assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
        let scaling = doc.get("thread_scaling").expect("scaling block");
        assert_eq!(scaling.get("threads").and_then(Json::as_u64), Some(2));
        assert_eq!(scaling.get("effective_threads").and_then(Json::as_u64), Some(2));
        // The embedded manifest validates against the schema and
        // round-trips field-for-field.
        let manifest_doc = doc.get("manifest").expect("manifest block");
        let back = RunManifest::from_value(manifest_doc).expect("manifest validates");
        assert_eq!(back, report.manifest);
        assert_eq!(back.phases[1].events_per_sec(), Some(40_000.0));
    }

    #[test]
    fn thread_scaling_clamps_and_pins_efficiency() {
        // 4 requested threads on a 1-core machine, t1 = 83.2 ms,
        // t4 = 94.5 ms.
        let s = ThreadScaling::from_measurement(4, 1, 83.2, 94.5);
        assert_eq!(s.threads, 4);
        assert_eq!(s.effective_threads, 1);
        assert_eq!(s.available_cores, 1);
        let expected_speedup = 83.2 / 94.5;
        assert!((s.speedup - expected_speedup).abs() < 1e-12);
        // Doc formula: speedup / min(threads, cores) = speedup / 1.
        assert!((s.efficiency - expected_speedup).abs() < 1e-12);

        // On a machine with headroom the denominator is the full
        // requested count.
        let s = ThreadScaling::from_measurement(4, 8, 100.0, 30.0);
        assert_eq!(s.effective_threads, 4);
        assert!((s.efficiency - (100.0 / 30.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_threads_prefers_explicit_value_clamped_to_cores() {
        let cores = available_cores();
        assert_eq!(resolve_threads(3), 3.min(cores));
        assert_eq!(resolve_threads(usize::MAX), cores);
        assert!(resolve_threads(0) >= 1);
        assert!(resolve_threads(0) <= cores.clamp(1, 8));
    }
}
