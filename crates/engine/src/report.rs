//! One-shot serve-bench orchestration: provision a cluster, drive it
//! with open-loop load, and fold the results into a serializable,
//! observability-wired outcome.

use ccn_obs::{Json, ToJson};
use ccn_sim::ServedBy;

use crate::affinity::available_cores;
use crate::cluster::{Cluster, ClusterConfig, EngineMetrics, StorePolicy};
use crate::control::{drive_beside, ClusterController, ControllerConfig, ControllerReport};
use crate::error::EngineError;
use crate::fault::{AppliedFault, FaultPlan};
use crate::layout::coordinated_slots;
use crate::load::{drive, tier_fractions, Ledger, LoadReport, OpenLoopConfig};

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
    /// What the cluster measured: latency, degradation, faults.
    pub metrics: EngineMetrics,
    /// Every node's ledger, the lanes, and the wall clock.
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

    /// Completed requests per wall-clock second.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.report.total().completed() as f64 / (self.report.wall_ms / 1e3)
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
}

impl ToJson for ServeBenchOutcome {
    fn to_json(&self) -> Json {
        let mode = match self.cluster.policy {
            StorePolicy::Provisioned => "provisioned",
            StorePolicy::Lru => "lru",
        };
        let coordinated = coordinated_slots(self.cluster.ell, self.cluster.capacity) > 0;
        let provisioning = if coordinated { "coordinated" } else { "non-coordinated" };
        let m = &self.metrics;
        let mut latency = Json::object();
        for tier in ServedBy::ALL {
            latency = latency.field(tier.name(), m.tier_latency[tier.index()].to_json());
        }
        let body = Json::object()
            .field("provisioning", provisioning)
            .field("policy", mode)
            .field("nodes", self.cluster.nodes as u64)
            .field("shards_per_node", self.cluster.shards_per_node as u64)
            .field("worker_threads", self.worker_threads() as u64)
            .field("available_cores", self.available_cores as u64)
            .field("placement_cores", self.cluster.placement.cores() as u64)
            .field("placement_pin", self.cluster.placement.pin())
            .field("pinned_workers", m.pinned_workers as u64)
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
            .field("degraded_to_origin", m.degraded_to_origin)
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
            );
        load_report_json(body, &self.report)
    }
}

/// Appends the block both serving reports share to `body`: the run's
/// `offered`, `completed` and `shed`, its `served_{local,peer,origin}`
/// and their fractions, every node's ledger as `per_node`, `wall_ms`,
/// and the lanes as `generators` / `pinned_generators`.
pub fn load_report_json(body: Json, report: &LoadReport) -> Json {
    let total = report.total();
    let (local, peer, origin) = tier_fractions(&report.per_node);
    body.field("offered", total.offered)
        .field("completed", total.completed())
        .field("shed", total.shed)
        .field("served_local", total.local)
        .field("served_peer", total.peer)
        .field("served_origin", total.origin)
        .field("local_fraction", local)
        .field("peer_fraction", peer)
        .field("origin_fraction", origin)
        .field("per_node", ledgers_json(&report.per_node))
        .field("wall_ms", report.wall_ms)
        .field("generators", report.generators as u64)
        .field("pinned_generators", report.pinned_generators as u64)
}

/// Per-node ledgers as a JSON array of
/// `{offered, local, peer, origin, shed}`.
pub fn ledgers_json(ledgers: &[Ledger]) -> Json {
    let ledger = |l: &Ledger| {
        Json::object()
            .field("offered", l.offered)
            .field("local", l.local)
            .field("peer", l.peer)
            .field("origin", l.origin)
            .field("shed", l.shed)
    };
    Json::Arr(ledgers.iter().map(ledger).collect())
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

/// Provisions a cluster, drives it, and reports; [`drive`] has
/// checked every node's ledger.
///
/// # Errors
///
/// Propagates configuration and workload errors, and
/// [`EngineError::Accounting`] if a node's ledger does not balance
/// (an engine bug, never expected).
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
        let total = outcome.report.total();
        assert_eq!(total.offered, total.completed() + total.shed);
        assert!(outcome.requests_per_sec() > 0.0);
        let json = outcome.to_json();
        assert_eq!(json.get("offered").and_then(Json::as_u64), Some(total.offered));
        assert_eq!(json.get("provisioning").and_then(Json::as_str), Some("coordinated"));
        assert_eq!(json.get("batch").and_then(Json::as_u64), Some(1));
        let (local, peer, origin) = tier_fractions(&outcome.report.per_node);
        assert!((local + peer + origin - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batched_pipeline_accounts_and_reports_its_knobs() {
        let mut config = smoke_config();
        config.load.batch = 64;
        let outcome = serve_bench(&config).unwrap();
        let total = outcome.report.total();
        assert_eq!(total.offered, total.completed() + total.shed);
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
        let total = outcome.report.total();
        assert_eq!(total.offered, total.completed() + total.shed);
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
        let (m, r) = (&outcome.metrics, outcome.report.total());
        assert_eq!(r.offered, r.completed() + r.shed, "conservation under faults");
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
