//! One-shot serve-bench orchestration: provision a cluster, drive it
//! with open-loop load, and fold the results into a serializable,
//! observability-wired outcome.

use ccn_obs::{Json, Registry, ToJson};
use ccn_sim::ServedBy;

use crate::affinity::available_cores;
use crate::cluster::{Cluster, ClusterConfig, EngineMetrics, StorePolicy};
use crate::control::{drive_beside, ClusterController, ControllerConfig, ControllerReport};
use crate::error::EngineError;
use crate::fault::{AppliedFault, FaultPlan};
use crate::layout::coordinated_slots;
use crate::load::{drive, LoadReport, OpenLoopConfig};

/// Everything one serve-bench run needs.
#[derive(Debug, Clone, Default)]
pub struct ServeBenchConfig {
    /// Cluster provisioning.
    pub cluster: ClusterConfig,
    /// Offered load.
    pub load: OpenLoopConfig,
    /// Deterministic fault schedule replayed during the run
    /// ([`FaultPlan::none`] = the fault-free baseline).
    pub faults: FaultPlan,
    /// Live adaptive provisioning: when set, a [`ClusterController`]
    /// rides the run on its own thread, ticking every
    /// [`ControllerConfig::tick_interval`] — re-fitting the exponent
    /// from the admission tap and re-slicing the cluster through
    /// budgeted incremental config epochs. `None` (the default) is
    /// the static baseline.
    pub adapt: Option<ControllerConfig>,
}

/// Results of one serve-bench run: the cluster's and the load
/// driver's own reports, plus the run's configuration echoes.
#[derive(Debug, Clone)]
pub struct ServeBenchOutcome {
    /// Cluster configuration echo (provisioning mode, ℓ, shards…).
    pub cluster: ClusterConfig,
    /// Load configuration echo (α, rate, pacing…).
    pub load: OpenLoopConfig,
    /// Cores this process may run on (affinity-mask popcount).
    pub available_cores: usize,
    /// What the cluster served: tiers, latency, degradation, faults.
    pub metrics: EngineMetrics,
    /// What the generators offered and shed, and for how long.
    pub report: LoadReport,
    /// The adaptive controller's full observability snapshot (`None`
    /// on static runs).
    pub controller: Option<ControllerReport>,
}

impl ServeBenchOutcome {
    /// Shard worker threads serving requests (`nodes × shards`).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.cluster.nodes * self.cluster.shards_per_node
    }

    /// Requests completed by some tier (`offered − shed`).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.metrics.completed()
    }

    /// Completed requests per wall-clock second.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.completed() as f64 / (self.report.wall_ms as f64 / 1e3)
        }
    }

    /// Throughput normalized by the placement core budget — the
    /// number a multi-core scaling sweep gates on.
    #[must_use]
    pub fn requests_per_sec_per_core(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.requests_per_sec() / self.cluster.placement.cores() as f64
        }
    }

    /// The run's counters, gauges, and per-tier histograms as a
    /// [`ccn_obs::Registry`] — the same shapes a scrape endpoint
    /// would export.
    #[must_use]
    pub fn registry(&self) -> Registry {
        let (m, tiers) = (&self.metrics, self.metrics.totals());
        let mut registry = Registry::new();
        registry.counter("engine.requests.offered").add(self.report.offered);
        registry.counter("engine.requests.shed").add(self.report.shed);
        registry.counter("engine.requests.completed").add(tiers.total());
        registry.counter("engine.requests.degraded_to_origin").add(m.degraded_to_origin);
        for tier in ServedBy::ALL {
            let count = match tier {
                ServedBy::Local => tiers.local,
                ServedBy::Peer => tiers.peer,
                ServedBy::Origin => tiers.origin,
            };
            registry.counter(&format!("engine.served.{}", tier.name())).add(count);
            // Assign rather than merge: the registry's default bucket
            // grid differs from the engine's finer sub-ms grid.
            *registry.histogram(&format!("engine.latency_ms.{}", tier.name())) =
                m.tier_latency[tier.index()].clone();
        }
        registry.counter("engine.faults.retried").add(m.retried);
        registry.counter("engine.faults.failed_over").add(m.failed_over);
        registry.counter("engine.faults.deadline_expired").add(m.deadline_expired);
        registry.counter("engine.faults.fault_served").add(m.fault_served);
        registry.counter("engine.faults.shed_node_down").add(m.shed_node_down);
        registry.counter("engine.faults.health_marked_down").add(m.health_marked_down);
        registry.counter("engine.faults.health_revived").add(m.health_revived);
        registry.counter("engine.faults.applied").add(m.fault_log.len() as u64);
        #[allow(clippy::cast_precision_loss)]
        registry.gauge("engine.routing.epoch").set(m.routing_epoch as f64);
        #[allow(clippy::cast_precision_loss)]
        registry.gauge("engine.config.epoch").set(m.config_epoch as f64);
        if let Some(ctl) = &self.controller {
            registry.counter("engine.controller.refits").add(ctl.refits);
            registry.counter("engine.controller.holds").add(ctl.holds);
            registry.counter("engine.controller.retargets").add(ctl.retargets);
            registry.counter("engine.controller.epochs_issued").add(ctl.epochs_issued);
            registry.counter("engine.controller.slices_moved").add(ctl.slices_moved);
            registry.counter("engine.controller.samples_observed").add(ctl.samples_observed);
            registry.gauge("engine.controller.fitted_s").set(ctl.fitted_s.unwrap_or(f64::NAN));
            registry.gauge("engine.controller.current_ell").set(ctl.current_ell);
            registry.gauge("engine.controller.window_weight").set(ctl.window_weight);
        }
        #[allow(clippy::cast_precision_loss)]
        registry.gauge("engine.queue.max_depth").set(m.max_queue_depth as f64);
        registry.gauge("engine.throughput.req_per_sec").set(self.requests_per_sec());
        registry
            .gauge("engine.throughput.req_per_sec_per_core")
            .set(self.requests_per_sec_per_core());
        #[allow(clippy::cast_precision_loss)]
        registry
            .gauge("engine.placement.pinned_threads")
            .set((m.pinned_workers + self.report.pinned_generators) as f64);
        registry
    }
}

impl ToJson for ServeBenchOutcome {
    fn to_json(&self) -> Json {
        let mode = match self.cluster.policy {
            StorePolicy::Provisioned => "provisioned",
            StorePolicy::Lru => "lru",
        };
        let coordinated = coordinated_slots(self.cluster.ell, self.cluster.capacity) > 0;
        let provisioning = if coordinated { "coordinated" } else { "non-coordinated" };
        let (m, r, tiers) = (&self.metrics, &self.report, self.metrics.totals());
        let mut latency = Json::object();
        for tier in ServedBy::ALL {
            latency = latency.field(tier.name(), m.tier_latency[tier.index()].to_json());
        }
        Json::object()
            .field("provisioning", provisioning)
            .field("policy", mode)
            .field("nodes", self.cluster.nodes as u64)
            .field("shards_per_node", self.cluster.shards_per_node as u64)
            .field("worker_threads", self.worker_threads() as u64)
            .field("generators", r.generators as u64)
            .field("available_cores", self.available_cores as u64)
            .field("placement_cores", self.cluster.placement.cores() as u64)
            .field("placement_pin", self.cluster.placement.pin())
            .field("pinned_workers", m.pinned_workers as u64)
            .field("pinned_generators", r.pinned_generators as u64)
            .field("queue_capacity", self.cluster.queue_capacity as u64)
            .field("batch", self.load.batch as u64)
            .field("catalogue", self.cluster.catalogue)
            .field("capacity", self.cluster.capacity)
            .field("ell", self.cluster.ell)
            .field("zipf_s", self.load.zipf_s)
            .field("rate_per_node_per_ms", self.load.rate_per_node_per_ms)
            .field("horizon_ms", self.load.horizon_ms)
            .field("paced", self.load.paced)
            .field("seed", self.load.seed)
            .field("offered", r.offered)
            .field("completed", tiers.total())
            .field("shed", r.shed)
            .field("degraded_to_origin", m.degraded_to_origin)
            .field("served_local", tiers.local)
            .field("served_peer", tiers.peer)
            .field("served_origin", tiers.origin)
            .field("local_fraction", m.fraction(ServedBy::Local))
            .field("peer_fraction", m.fraction(ServedBy::Peer))
            .field("origin_fraction", m.fraction(ServedBy::Origin))
            .field("wall_ms", r.wall_ms)
            .field("requests_per_sec", self.requests_per_sec())
            .field("requests_per_sec_per_core", self.requests_per_sec_per_core())
            .field("max_queue_depth", m.max_queue_depth as u64)
            .field("retried", m.retried)
            .field("failed_over", m.failed_over)
            .field("deadline_expired", m.deadline_expired)
            .field("fault_served", m.fault_served)
            .field("shed_node_down", m.shed_node_down)
            .field("health_marked_down", m.health_marked_down)
            .field("health_revived", m.health_revived)
            .field("routing_epoch", m.routing_epoch)
            .field("config_epoch", m.config_epoch)
            .field("faults_applied", m.fault_log.len() as u64)
            .field("fault_log", fault_log_json(&m.fault_log))
            .field("latency_ms", latency)
            .field("adaptive", self.controller.is_some())
            .field(
                "controller",
                self.controller.as_ref().map_or_else(Json::object, controller_json),
            )
            .field("metrics", self.registry().to_json())
    }
}

/// An applied-fault log as JSON, one `kind@OP (epoch E)` string per
/// fault. Shared by the in-process and wire reports.
pub fn fault_log_json(log: &[AppliedFault]) -> Json {
    Json::from(log.iter().map(|f| Json::from(f.to_string())).collect::<Vec<_>>())
}

/// The controller's observability snapshot as JSON — the shape the
/// `engine_controller` manifest block mirrors. Shared by the
/// in-process and wire reports so both render the controller
/// identically.
pub fn controller_json(report: &ControllerReport) -> Json {
    Json::object()
        .field("fitted_s", report.fitted_s.unwrap_or(f64::NAN))
        .field("window_weight", report.window_weight)
        .field("samples_observed", report.samples_observed)
        .field("refits", report.refits)
        .field("holds", report.holds)
        .field("retargets", report.retargets)
        .field("epochs_issued", report.epochs_issued)
        .field("slices_moved", report.slices_moved)
        .field("current_ell", report.current_ell)
        .field("movement_budget", report.movement_budget)
        .field("pending_steps", report.pending_steps as u64)
        .field(
            "decisions",
            Json::from(
                report.decisions.iter().map(|d| Json::from(d.to_string())).collect::<Vec<_>>(),
            ),
        )
}

/// Provisions a cluster, drives it, and verifies the accounting
/// invariant before reporting.
///
/// # Errors
///
/// Propagates configuration and workload errors, and returns
/// [`EngineError::Accounting`] if any request went unaccounted
/// (`completed + shed != offered` — an engine bug, never expected).
pub fn serve_bench(config: &ServeBenchConfig) -> Result<ServeBenchOutcome, EngineError> {
    config.load.validate()?;
    let cluster = Cluster::with_faults(config.cluster.clone(), config.faults.clone())?;
    let controller =
        config.adapt.map(|adapt| ClusterController::attach(&cluster, adapt)).transpose()?;
    let (load, report) = drive_beside(
        controller.map(|controller| controller.runner),
        |step| cluster.apply_layout(&step.assignments),
        || drive(&cluster, &config.load),
    );
    let (controller, load) = (report.transpose()?, load?);
    let metrics = cluster.finish();
    let completed = metrics.completed();
    if completed + load.shed != load.offered {
        return Err(EngineError::Accounting { offered: load.offered, completed, shed: load.shed });
    }
    Ok(ServeBenchOutcome {
        cluster: config.cluster.clone(),
        load: config.load.clone(),
        available_cores: available_cores(),
        metrics,
        report: load,
        controller,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ServeBenchConfig {
        ServeBenchConfig {
            cluster: ClusterConfig {
                nodes: 2,
                catalogue: 1_000,
                capacity: 20,
                ..ClusterConfig::default()
            },
            load: OpenLoopConfig {
                rate_per_node_per_ms: 1.0,
                horizon_ms: 200.0,
                ..OpenLoopConfig::default()
            },
            faults: FaultPlan::none(),
            adapt: None,
        }
    }

    #[test]
    fn outcome_accounts_and_serializes() {
        let outcome = serve_bench(&smoke_config()).unwrap();
        assert_eq!(outcome.report.offered, outcome.completed() + outcome.report.shed);
        assert!(outcome.requests_per_sec() > 0.0);
        let json = outcome.to_json();
        assert_eq!(json.get("offered").and_then(Json::as_u64), Some(outcome.report.offered));
        assert_eq!(json.get("provisioning").and_then(Json::as_str), Some("coordinated"));
        assert_eq!(json.get("batch").and_then(Json::as_u64), Some(1));
        let fractions: f64 = [ServedBy::Local, ServedBy::Peer, ServedBy::Origin]
            .iter()
            .map(|&t| outcome.metrics.fraction(t))
            .sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batched_pipeline_accounts_and_reports_its_knobs() {
        let mut config = smoke_config();
        config.load.batch = 64;
        let outcome = serve_bench(&config).unwrap();
        assert_eq!(outcome.report.offered, outcome.completed() + outcome.report.shed);
        let json = outcome.to_json();
        assert_eq!(json.get("batch").and_then(Json::as_u64), Some(64));
    }

    #[test]
    fn outcome_reports_placement() {
        use crate::affinity::ShardPlacement;
        let mut config = smoke_config();
        config.cluster.placement = ShardPlacement::new(0, true);
        let outcome = serve_bench(&config).unwrap();
        assert!(outcome.available_cores >= 1);
        assert!(outcome.cluster.placement.pin());
        assert!(outcome.requests_per_sec_per_core() > 0.0);
        let json = outcome.to_json();
        assert_eq!(
            json.get("available_cores").and_then(Json::as_u64),
            Some(outcome.available_cores as u64)
        );
        assert_eq!(
            json.get("pinned_workers").and_then(Json::as_u64),
            Some(outcome.metrics.pinned_workers as u64)
        );
        let rendered = outcome.registry().to_json().to_string_compact();
        assert!(rendered.contains("engine.throughput.req_per_sec_per_core"));
        assert!(rendered.contains("engine.placement.pinned_threads"));
    }

    #[test]
    fn registry_exports_the_run() {
        let outcome = serve_bench(&smoke_config()).unwrap();
        let registry = outcome.registry();
        assert!(registry.len() >= 9);
        let rendered = registry.to_json().to_string_compact();
        assert!(rendered.contains("engine.requests.offered"));
        assert!(rendered.contains("engine.faults.fault_served"));
        assert!(rendered.contains("engine.routing.epoch"));
    }

    #[test]
    fn adaptive_run_reports_the_controller_and_stays_accounted() {
        use crate::load::DriftSegment;
        let mut config = smoke_config();
        config.load.rate_per_node_per_ms = 4.0;
        config.load.drift = vec![DriftSegment { at_ms: 100.0, zipf_s: 1.5 }];
        config.adapt = Some(ControllerConfig {
            min_window: 200.0,
            sample_every: 1,
            tick_interval: std::time::Duration::from_millis(2),
            ..ControllerConfig::default()
        });
        let outcome = serve_bench(&config).unwrap();
        assert_eq!(outcome.report.offered, outcome.completed() + outcome.report.shed);
        let ctl = outcome.controller.as_ref().expect("adaptive run must report its controller");
        assert_eq!(ctl.pending_steps, 0, "the chain is drained before reporting");
        assert_eq!(
            outcome.metrics.config_epoch,
            1 + ctl.epochs_issued,
            "every issued epoch must be visible as a config-epoch bump"
        );
        let json = outcome.to_json();
        assert_eq!(json.get("adaptive").and_then(Json::as_bool), Some(true));
        let block = json.get("controller").expect("controller block");
        assert_eq!(block.get("epochs_issued").and_then(Json::as_u64), Some(ctl.epochs_issued));
        assert_eq!(block.get("movement_budget").and_then(Json::as_u64), Some(ctl.movement_budget));
        let rendered = outcome.registry().to_json().to_string_compact();
        assert!(rendered.contains("engine.controller.refits"));
        assert!(rendered.contains("engine.config.epoch"));
    }

    #[test]
    fn static_runs_report_no_controller() {
        let outcome = serve_bench(&smoke_config()).unwrap();
        assert!(outcome.controller.is_none());
        assert_eq!(outcome.metrics.config_epoch, 1);
        let json = outcome.to_json();
        assert_eq!(json.get("adaptive").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn faulted_run_accounts_exactly_and_reports_the_log() {
        let mut config = smoke_config();
        // Kill node 1 early, revive it mid-run.
        config.faults = FaultPlan::none().with_node_outage(1, 20, Some(120));
        let outcome = serve_bench(&config).unwrap();
        let (m, r) = (&outcome.metrics, &outcome.report);
        assert_eq!(r.offered, outcome.completed() + r.shed, "conservation under faults");
        assert_eq!(m.fault_log.len(), 2, "kill and revive both applied");
        assert!(m.routing_epoch >= 3, "two liveness flips bump the epoch twice");
        assert!(r.shed >= m.shed_node_down, "node-down sheds are a subset of all sheds");
        let json = outcome.to_json();
        assert_eq!(json.get("faults_applied").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("routing_epoch").and_then(Json::as_u64), Some(m.routing_epoch));
        // The rendered fault log parses back as a spec string.
        let rendered = json.to_string_compact();
        assert!(rendered.contains("kill:1@20"), "{rendered}");
    }
}
