//! Parallel, seed-sharded experiment engine.
//!
//! Simulation experiments are embarrassingly parallel across
//! `(seed, grid point)` pairs: each trial owns its network, workload,
//! and RNG, so trials fan out across threads via
//! [`ccn_numerics::parallel_map`] with zero shared mutable state and
//! bit-identical per-trial results regardless of thread count.
//!
//! [`Trial`]/[`run_trials`] declare and execute a batch of
//! steady-state simulation runs, measuring per-run wall time and
//! events/sec alongside the simulation [`Metrics`];
//! [`resolve_threads`] picks the worker count the callers share.

use std::time::Instant;

use ccn_numerics::parallel_map;
use ccn_obs::{available_cores, effective_threads};
use ccn_sim::scenario::{steady_state_with_failures, SteadyStateConfig};
use ccn_sim::{FailureScenario, Metrics, SimError};
use ccn_topology::Graph;

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

/// Worker count: the option's value clamped to the visible cores, or
/// available parallelism capped at 8 when zero. Requests beyond the
/// visible cores cannot add parallelism — honouring them only
/// oversubscribes the scheduler.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let cores = available_cores();
    if requested > 0 {
        effective_threads(requested, cores)
    } else {
        cores.min(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_sim::OriginConfig;
    use ccn_topology::datasets;

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
    fn trial_errors_propagate() {
        let graph = datasets::abilene();
        let bad = Trial::new("bad", graph, tiny_config(1.5, 0));
        assert!(run_trials(&[bad], 2).is_err());
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
