//! Subcommand implementations.

use std::fmt::Write as _;

use ccn_coord::{CoordinatorConfig, ResilientCoordinator, RetryPolicy, RoundOutcome};
use ccn_engine::net::{
    wire_bench, NodeConfig, NodeLaunch, NodeServer, NodeStatsSnapshot, WireOutcome, WireSpec,
};
use ccn_engine::{
    controller_json, fault_log_json, ledgers_json, load_report_json, serve_bench, tier_fractions,
    AppliedFault, ClusterConfig, ControllerConfig, ControllerReport, DegradeConfig, DriftSegment,
    FaultPlan, Ledger, LoadReport, OpenLoopConfig, ServeBenchConfig, ShardPlacement, StorePolicy,
};
use ccn_model::planner::{capacity_for_target_origin_load, plan, PlannerConfig};
use ccn_model::{CacheModel, ModelParams};
use ccn_obs::{Json, PhaseClock, RunManifest, ToJson};
use ccn_sim::scenario::{steady_state, steady_state_with_failures, SteadyStateConfig};
use ccn_sim::{FailureScenario, OriginConfig};
use ccn_topology::{datasets, export, io, metrics, params, Graph};

use crate::args::{ArgError, Args};

/// Usage text for `ccn help` (and argument errors).
pub const USAGE: &str = "\
ccn — coordinated in-network caching toolkit (ICDCS'13 reproduction)

USAGE: ccn <command> [--flag value]...

COMMANDS
  solve      optimal coordination level for explicit model parameters
             --s 0.8 --n 20 --catalogue 1e6 --capacity 1e3
             --gamma 5 --alpha 0.8 --w 26.7 --d1-d0 2.2842
  plan       provisioning plan for a topology
             --topology abilene|cernet|geant|us-a|<edge-list file>
             --s --catalogue --capacity --alpha --gamma
  topology   inspect a topology (Table II/III parameters, structure)
             --topology <name|file> [--dot out.dot]
  simulate   steady-state packet simulation of a provisioned deployment
             --topology <name|file> --ell 0.5 --s 0.8
             --catalogue 5000 --capacity 100 --horizon 60000 --seed 42
  capacity   smallest per-router capacity meeting a target origin load
             --topology <name|file> --target 0.3 --max 1e6
             --s --catalogue --alpha --gamma
  resilience degraded performance T_k under k failed routers: analytic
             model vs fault-injected simulation, plus a provisioning
             round under message loss
             --topology <name|file> --max-failed 2 --loss 0.1
             --s 0.8 --catalogue 50000 --capacity 100 --ell 0.5
             --rate 0.02 --horizon 30000 --seed 42
  serve-bench
             run the concurrent serving engine under open-loop load:
             sharded cache nodes, coordinated peer routing, bounded
             admission; writes a JSON report with embedded manifest
             --nodes 4 --shards 1 --generators 1 --queue 1024
             --catalogue 10000 --capacity 100 --ell 0.5 --s 0.8
             --rate 2.0 --duration 1000 --paced false
             --policy static|lru --seed 42 --smoke false
             --batch 1 (requests admitted per queue operation)
             --cores 0 (placement core budget; 0 = all available)
             --pin false (pin shard workers and generator lanes to
               their placement cores — thread-per-core mode)
             --faults \"kill:1@500,revive:1@900\" — deterministic fault
               schedule at admission-operation counts; forms: kill:N@OP
               revive:N@OP kill-worker:N.S@OP revive-worker:N.S@OP
               slow:N:DELAY_US@OP clear:N@OP stall:N:MICROS@OP and
               seeded:SEED:MTBF_OPS:MTTR_OPS (random node outages)
             --deadline-us 1000000 (peer-forward deadline)
             --retries 2 (forward retry budget before origin)
             --timeout-threshold 16 (consecutive failures to mark a
               node down; 0 disables) --probation-ops 8192
             --drift \"1.1@500\" (scripted popularity drift: switch the
               request stream to Zipf s=S at MS ms, comma-separated)
             --adapt false (true = live adaptive provisioning: re-fit
               the exponent from the admission tap, re-solve the
               optimum, re-slice through budgeted config epochs)
             --adapt-interval-ms 50 --adapt-budget 256
             --adapt-hysteresis 0.05 --adapt-min-window 2000
             --adapt-decay 0.8
             --name SERVE --out SERVE.json
  node       run one cache node as a standalone TCP server (the unit
             the wire-bench coordinator spawns); prints `READY <addr>`
             on stdout once the listener is bound, then serves until a
             Shutdown frame arrives
             --id 0 --listen 127.0.0.1:0
             --shards 1 (store shards = serve workers)
             --cores 0 --pin false
             --deadline-us 1000000 --retries 2 --backoff-us 5
             --timeout-threshold 16
             --window 8 (credit window on node→peer forward links;
               1 = stop-and-wait) --wire-batch 64 (misses coalesced
               per PeerForwardBatch frame)
             --max-conns 1024 (accepted-connection cap; excess
               accepts are refused with a typed frame)
  wire-bench run the serving benchmark over real sockets: a coordinator
             provisions a cluster of `ccn node` processes (or in-process
             threads) with versioned config epochs and runs serve-bench's
             load driver (the same zipf_irm stream by construction, one
             lane per node, one frame per run) over length-prefixed TCP
             frames; writes a JSON report with embedded manifest
             --nodes 3 --shards 1
             --catalogue 10000 --capacity 100 --ell 0.5 --s 0.8
             --rate 0.5 --duration 1000 --paced false
             --policy static|lru --seed 42 --batch 64
             --window 8 (frames in flight per driver→node and
               node→peer connection; 1 = PR 8 stop-and-wait)
             --wire-batch 64 --max-conns 1024
             --cores 0 --pin false
             --deadline-us --retries --backoff-us --timeout-threshold
             --faults \"kill:1@2000,revive:1@4000\" (serve-bench's
               grammar, process-level forms only: kill:N@OP revive:N@OP
               seeded:SEED:MTBF_OPS:MTTR_OPS; requires child
               processes, i.e. not --in-process true)
             --in-process false (true = node servers as driver threads,
               loopback wire path without child processes)
             --node-exe <path> (child executable; default: this binary)
             --adapt false (true = the driver runs the adaptive
               controller: staged epoch pushes to every live node)
             --adapt-interval-ms --adapt-budget --adapt-hysteresis
             --adapt-min-window --adapt-decay
             --smoke false --name WIRE --out WIRE.json
  validate-manifest
             check that a JSON file carries a valid ccn.run-manifest/v1
             (standalone, or embedded under \"manifest\" in a
             serve-bench or wire-bench report); exits non-zero on schema
             violations
             --file SERVE.json
  help       this text
";

fn load_topology(spec: &str) -> Result<Graph, ArgError> {
    match spec.to_ascii_lowercase().as_str() {
        "abilene" => Ok(datasets::abilene()),
        "cernet" => Ok(datasets::cernet()),
        "geant" => Ok(datasets::geant()),
        "us-a" | "usa" | "us_a" => Ok(datasets::us_a()),
        path => {
            let file = std::fs::File::open(path).map_err(|e| {
                ArgError(format!("--topology {spec:?}: not a built-in name and {e}"))
            })?;
            io::read_edge_list(std::io::BufReader::new(file))
                .map_err(|e| ArgError(format!("--topology {spec:?}: {e}")))
        }
    }
}

fn solve(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["s", "n", "catalogue", "capacity", "gamma", "alpha", "w", "d1-d0"])?;
    let params = ModelParams::builder()
        .zipf_exponent(args.f64_or("s", 0.8)?)
        .routers_f64(args.f64_or("n", 20.0)?)
        .catalogue(args.f64_or("catalogue", 1e6)?)
        .capacity(args.f64_or("capacity", 1e3)?)
        .latency_tiers(0.0, args.f64_or("d1-d0", 2.2842)?, args.f64_or("gamma", 5.0)?)
        .amortized_unit_cost(args.f64_or("w", 26.7)?)
        .alpha(args.f64_or("alpha", 0.8)?)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let model = CacheModel::new(params).map_err(|e| ArgError(e.to_string()))?;
    let opt = model.optimal_exact().map_err(|e| ArgError(e.to_string()))?;
    let gains = model.gains(opt.x_star);
    let b = model.breakdown(opt.x_star);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "optimal strategy: l* = {:.4} (x* = {:.0} of {:.0} slots)",
        opt.ell_star,
        opt.x_star,
        params.capacity()
    );
    let _ = writeln!(
        out,
        "tiers at l*: local {:.1}%, peer {:.1}%, origin {:.1}%",
        b.local_fraction * 100.0,
        b.peer_fraction * 100.0,
        b.origin_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "gains vs non-coordinated: G_O = {:.1}%, G_R = {:.1}%",
        gains.origin_load_reduction * 100.0,
        gains.routing_improvement * 100.0
    );
    Ok(out)
}

fn plan_cmd(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["topology", "s", "catalogue", "capacity", "alpha", "gamma"])?;
    let graph = load_topology(&args.str_or("topology", "us-a"))?;
    let topo = params::extract(&graph);
    let config = PlannerConfig {
        zipf_exponent: args.f64_or("s", 0.8)?,
        catalogue: args.f64_or("catalogue", 1e6)?,
        capacity: args.f64_or("capacity", 1e3)?,
        alpha: args.f64_or("alpha", 0.8)?,
        gamma: args.f64_or("gamma", 5.0)?,
        use_hop_metric: true,
    };
    let plan = plan(&topo, &config).map_err(|e| ArgError(e.to_string()))?;
    Ok(plan.report())
}

fn topology_cmd(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["topology", "dot"])?;
    let graph = load_topology(&args.str_or("topology", "abilene"))?;
    let p = params::extract(&graph);
    let degrees = metrics::degree_stats(&graph);
    let mut out = String::new();
    let _ = writeln!(out, "{}", export::to_ascii(&graph));
    let _ = writeln!(out, "model parameters (paper Table III):");
    let _ = writeln!(out, "  n = {}", p.n);
    let _ = writeln!(out, "  w = {:.1} ms (max pairwise latency)", p.w_ms);
    let _ = writeln!(out, "  d1-d0 = {:.1} ms / {:.4} hops", p.mean_latency_ms, p.mean_hops);
    let _ = writeln!(out, "  diameter = {} hops", p.diameter_hops);
    let _ = writeln!(
        out,
        "structure: degrees {}..{} (mean {:.2}), clustering {:.3}",
        degrees.min,
        degrees.max,
        degrees.mean,
        metrics::clustering_coefficient(&graph)
    );
    if let Some(path) = args.get("dot") {
        std::fs::write(path, export::to_dot(&graph))
            .map_err(|e| ArgError(format!("--dot {path:?}: {e}")))?;
        let _ = writeln!(out, "dot written to {path}");
    }
    Ok(out)
}

fn simulate(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[
        "topology",
        "ell",
        "s",
        "catalogue",
        "capacity",
        "rate",
        "horizon",
        "seed",
        "origin-latency",
        "origin-hops",
    ])?;
    let graph = load_topology(&args.str_or("topology", "abilene"))?;
    let config = SteadyStateConfig {
        zipf_exponent: args.f64_or("s", 0.8)?,
        catalogue: args.u64_or("catalogue", 5_000)?,
        capacity: args.u64_or("capacity", 100)?,
        ell: args.f64_or("ell", 0.5)?,
        rate_per_ms: args.f64_or("rate", 0.01)?,
        horizon_ms: args.f64_or("horizon", 60_000.0)?,
        origin: OriginConfig {
            latency_ms: args.f64_or("origin-latency", 50.0)?,
            hops: args.u64_or("origin-hops", 4)? as u32,
            gateway: None,
        },
        seed: args.u64_or("seed", 42)?,
    };
    let mut clock = PhaseClock::new();
    let m = steady_state(graph, &config).map_err(|e| ArgError(e.to_string()))?;
    clock.lap_events("simulate", m.events_processed);
    let manifest =
        RunManifest::capture("ccn", "simulate", config.seed, 1, false).with_phases(clock.finish());
    // Wall-clock timings are nondeterministic, so the manifest header
    // goes to stderr: stdout stays byte-identical for a fixed seed.
    eprintln!("{}", manifest.to_header_line());
    let mut out = String::new();
    let _ = writeln!(out, "simulated {} requests (l = {})", m.completed, config.ell);
    let _ = writeln!(out, "  origin load  : {:.2}%", m.origin_load() * 100.0);
    let _ = writeln!(out, "  local hits   : {:.2}%", m.local_hit_ratio() * 100.0);
    let _ = writeln!(out, "  peer hits    : {:.2}%", m.peer_hit_ratio() * 100.0);
    let _ = writeln!(out, "  avg hops     : {:.3}", m.avg_hops());
    let _ = writeln!(out, "  avg latency  : {:.2} ms", m.avg_latency_ms());
    if let Some(p99) = m.latency_percentile(0.99) {
        let _ = writeln!(out, "  p99 latency  : {p99:.2} ms");
    }
    let _ = writeln!(
        out,
        "  messages     : {} interests, {} data",
        m.interest_messages, m.data_messages
    );
    Ok(out)
}

fn capacity_cmd(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["topology", "target", "max", "s", "catalogue", "alpha", "gamma"])?;
    let graph = load_topology(&args.str_or("topology", "us-a"))?;
    let topo = params::extract(&graph);
    let config = PlannerConfig {
        zipf_exponent: args.f64_or("s", 0.8)?,
        catalogue: args.f64_or("catalogue", 1e6)?,
        capacity: 1.0, // replaced by the search
        alpha: args.f64_or("alpha", 0.8)?,
        gamma: args.f64_or("gamma", 5.0)?,
        use_hop_metric: true,
    };
    let target = args.f64_or("target", 0.3)?;
    let c_max = args.f64_or("max", 1e6)?;
    let (c, plan) = capacity_for_target_origin_load(&topo, &config, target, c_max)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "smallest capacity meeting origin load <= {:.1}%: c = {:.0} slots per router",
        target * 100.0,
        c.ceil()
    );
    let _ = writeln!(out);
    let _ = write!(out, "{}", plan.report());
    Ok(out)
}

fn resilience_cmd(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[
        "topology",
        "s",
        "catalogue",
        "capacity",
        "ell",
        "rate",
        "horizon",
        "seed",
        "max-failed",
        "loss",
    ])?;
    let graph = load_topology(&args.str_or("topology", "abilene"))?;
    let topo = params::extract(&graph);
    let n = topo.n;
    let max_failed = usize::try_from(args.u64_or("max-failed", 2)?)
        .map_err(|e| ArgError(format!("--max-failed: {e}")))?;
    if max_failed >= n {
        return Err(ArgError(format!(
            "--max-failed {max_failed} must leave at least one of the {n} routers alive"
        )));
    }
    let loss = args.f64_or("loss", 0.1)?;
    let config = SteadyStateConfig {
        zipf_exponent: args.f64_or("s", 0.8)?,
        catalogue: args.u64_or("catalogue", 50_000)?,
        capacity: args.u64_or("capacity", 100)?,
        ell: args.f64_or("ell", 0.5)?,
        rate_per_ms: args.f64_or("rate", 0.02)?,
        horizon_ms: args.f64_or("horizon", 30_000.0)?,
        origin: OriginConfig { latency_ms: 50.0, hops: 4, gateway: None },
        seed: args.u64_or("seed", 42)?,
    };

    // Calibrate the analytic model to the measured topology: d0 = 0
    // (local hits are free), d1 = twice the topology's mean pairwise
    // latency (the simulator charges peer fetches round-trip —
    // interest out plus data back — while the gateway-less origin
    // charges its flat latency once), d2 = the simulated origin
    // latency.
    let d1 = 2.0 * topo.mean_latency_ms;
    let gamma = (config.origin.latency_ms - d1) / d1;
    let model_params = ModelParams::builder()
        .zipf_exponent(config.zipf_exponent)
        .routers_f64(n as f64)
        .catalogue(config.catalogue as f64)
        .capacity(config.capacity as f64)
        .latency_tiers(0.0, d1, gamma)
        .amortized_unit_cost(topo.w_ms)
        .alpha(0.8)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let model = CacheModel::new(model_params).map_err(|e| ArgError(e.to_string()))?;
    let x = (config.ell * config.capacity as f64).round();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "degraded performance on {} (n = {n}, l = {}, x = {x:.0}):",
        topo.name, config.ell
    );
    let _ = writeln!(out, "  {:>3}  {:>12}  {:>12}  {:>8}", "k", "analytic", "simulated", "error");
    for k in 0..=max_failed {
        let analytic = model
            .degraded_performance_discrete(x, k as u32)
            .map_err(|e| ArgError(e.to_string()))?;
        // The analysis assumes the k lost routers held the tail slices
        // of the coordinated range; with the range partition that is
        // routers n−1, n−2, …, so crash exactly those at t = 0 and
        // attach clients to the survivors.
        let mut scenario = FailureScenario::none();
        for i in 0..k {
            scenario = scenario.with_router_outage(n - 1 - i, 0.0, f64::INFINITY);
        }
        let survivors: Vec<usize> = (0..n - k).collect();
        let m = steady_state_with_failures(graph.clone(), &config, scenario, &survivors)
            .map_err(|e| ArgError(e.to_string()))?;
        let simulated = m.avg_latency_ms();
        let rel = (simulated - analytic).abs() / analytic;
        let _ = writeln!(
            out,
            "  {k:>3}  {analytic:>9.3} ms  {simulated:>9.3} ms  {:>7.2}%",
            rel * 100.0
        );
    }

    // Harden one provisioning round against the same adversity: every
    // protocol message is lost with probability `loss`, retried up to
    // the per-message cap, with bounded-backoff round retries.
    let mut rc = ResilientCoordinator::new(CoordinatorConfig::default(), RetryPolicy::default());
    let report =
        rc.provision(*model.params(), loss, config.seed).map_err(|e| ArgError(e.to_string()))?;
    let _ = writeln!(out);
    let _ = writeln!(out, "provisioning round at loss p = {loss}:");
    match &report.outcome {
        RoundOutcome::Converged(round) => {
            let _ = writeln!(
                out,
                "  converged on attempt {} of {} (l* = {:.4}, {} routers assigned)",
                report.attempts.len(),
                RetryPolicy::default().max_round_attempts,
                round.strategy.ell_star,
                round.assignments.len()
            );
        }
        RoundOutcome::Aborted { last_known_good } => {
            let _ = writeln!(
                out,
                "  aborted after {} attempts; last known good: {}",
                report.attempts.len(),
                if last_known_good.is_some() { "kept" } else { "none" }
            );
        }
    }
    let _ = writeln!(out, "  transmissions: {} total", report.total_transmissions);
    if let Some(analytic) = &report.analytic {
        let _ = writeln!(
            out,
            "  analytic inflation: {:.3}x per message, {:.1} expected rounds to drain",
            analytic.expected_transmissions, analytic.expected_rounds
        );
    }
    Ok(out)
}

fn parse_bool(args: &Args, flag: &str, default: &str) -> Result<bool, ArgError> {
    match args.str_or(flag, default).as_str() {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        other => Err(ArgError(format!("--{flag} {other:?}: expected true or false"))),
    }
}

/// serve-bench's flags as the library's config.
fn serve_bench_config(args: &Args) -> Result<ServeBenchConfig, ArgError> {
    let extra = ["generators", "queue", "probation-ops", "drift"];
    args.ensure_known(&[&BENCH_FLAGS[..], &WORKER_FLAGS, &extra].concat())?;
    let nodes = usize_flag(args, "nodes", 4)?;
    let shards_per_node = usize_flag(args, "shards", 1)?;
    let defaults = OpenLoopConfig { rate_per_node_per_ms: 2.0, ..OpenLoopConfig::default() };
    let load = parse_load_flags(args, defaults)?;
    Ok(ServeBenchConfig {
        cluster: ClusterConfig {
            nodes,
            shards_per_node,
            queue_capacity: usize_flag(args, "queue", 1_024)?,
            catalogue: args.u64_or("catalogue", 10_000)?,
            capacity: args.u64_or("capacity", 100)?,
            ell: args.f64_or("ell", 0.5)?,
            policy: parse_policy_flag(args)?,
            degrade: parse_degrade_flags(args)?,
            placement: ShardPlacement::new(
                usize_flag(args, "cores", 0)?,
                parse_bool(args, "pin", "false")?,
            ),
        },
        faults: parse_faults_flag(&args.str_or("faults", ""), nodes, shards_per_node, &load)?,
        load,
        adapt: parse_adapt_flags(args)?,
    })
}

fn serve_bench_cmd(args: &Args) -> Result<String, ArgError> {
    let config = serve_bench_config(args)?;
    let smoke = parse_bool(args, "smoke", "false")?;
    let name = args.str_or("name", "SERVE");
    let mut clock = PhaseClock::new();
    let outcome = serve_bench(&config).map_err(|e| ArgError(e.to_string()))?;
    let (m, run) = (&outcome.metrics, &outcome.report);
    clock.lap_events("serve", run.total().offered);
    if !config.faults.is_empty() {
        // Zero-length lap recording how many plan events fired, so
        // the manifest carries the fault dimension of the run.
        clock.lap_events("faults", m.fault_log.len() as u64);
    }
    let manifest =
        RunManifest::capture("ccn", &name, config.load.seed, outcome.worker_threads(), smoke)
            .with_engine_threads(outcome.worker_threads(), run.generators)
            .with_phases(clock.finish());
    let out_path = write_serving_report(
        args,
        manifest,
        outcome.controller.as_ref(),
        "serve",
        outcome.to_json(),
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench {name}: {} nodes x {} shard(s), batch {}, {} generator(s)",
        config.cluster.nodes, config.cluster.shards_per_node, config.load.batch, run.generators,
    );
    ledger_summary(&mut out, run, outcome.controller.as_ref(), &m.fault_log);
    let _ = writeln!(
        out,
        "  placement: {} core(s) available, budget {}, pinned {} worker(s) + {} lane(s)",
        outcome.available_cores,
        config.cluster.placement.cores(),
        m.pinned_workers,
        run.pinned_generators,
    );
    let _ = writeln!(
        out,
        "  queues: max depth {}, degraded-to-origin {}",
        m.max_queue_depth, m.degraded_to_origin
    );
    if !config.faults.is_empty() {
        let _ = writeln!(
            out,
            "  degradation: routing epoch {}, fault-served {}, shed-node-down {}, retried {}, \
             failed-over {}, deadline-expired {}, health down/up {}/{}",
            m.routing_epoch,
            m.fault_served,
            m.shed_node_down,
            m.retried,
            m.failed_over,
            m.deadline_expired,
            m.health_marked_down,
            m.health_revived
        );
    }
    let _ = writeln!(out, "report written to {out_path}");
    Ok(out)
}

/// The summary lines both serving benches print: what the run offered
/// and what became of it, the tier split, the per-node accounting, the
/// controller, and the faults applied.
fn ledger_summary(
    out: &mut String,
    report: &LoadReport,
    controller: Option<&ControllerReport>,
    fault_log: &[AppliedFault],
) {
    let total = report.total();
    let (local, peer, origin) = tier_fractions(&report.per_node);
    #[allow(clippy::cast_precision_loss)]
    let rate = total.completed() as f64 / (report.wall_ms / 1e3);
    let _ = writeln!(
        out,
        "  offered {} over {:.3} ms, completed {} ({rate:.0} req/s), shed {}",
        total.offered,
        report.wall_ms,
        total.completed(),
        total.shed
    );
    let _ = writeln!(
        out,
        "  tiers: local {:.1}%, peer {:.1}%, origin {:.1}%",
        local * 100.0,
        peer * 100.0,
        origin * 100.0
    );
    let _ = writeln!(
        out,
        "  accounting: completed + shed == offered on every node ({} + {} == {})",
        total.completed(),
        total.shed,
        total.offered
    );
    if let Some(ctl) = controller {
        controller_summary(out, ctl);
    }
    if !fault_log.is_empty() {
        let applied: Vec<String> = fault_log.iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "  faults: {} applied: {}", applied.len(), applied.join(", "));
    }
}

fn usize_flag(args: &Args, flag: &str, default: u64) -> Result<usize, ArgError> {
    usize::try_from(args.u64_or(flag, default)?).map_err(|e| ArgError(format!("--{flag}: {e}")))
}

fn parse_policy_flag(args: &Args) -> Result<StorePolicy, ArgError> {
    match args.str_or("policy", "static").as_str() {
        "static" | "provisioned" => Ok(StorePolicy::Provisioned),
        "lru" | "dynamic" => Ok(StorePolicy::Lru),
        other => Err(ArgError(format!("--policy {other:?}: expected static or lru"))),
    }
}

/// `--faults` for both serving benches: the one [`FaultPlan`] grammar,
/// `seeded:` outages drawn over the run's expected cluster-wide offered
/// count, `rate × duration × nodes`.
fn parse_faults_flag(
    spec: &str,
    nodes: usize,
    shards: usize,
    load: &OpenLoopConfig,
) -> Result<FaultPlan, ArgError> {
    let expected = load.rate_per_node_per_ms * load.horizon_ms * nodes as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let horizon_ops = expected.max(1.0).ceil() as u64;
    FaultPlan::parse(spec, nodes, shards, horizon_ops)
        .map_err(|e| ArgError(format!("--faults: {e}")))
}

fn parse_degrade_flags(args: &Args) -> Result<DegradeConfig, ArgError> {
    let defaults = DegradeConfig::default();
    let u32_flag = |flag: &str, default: u32| -> Result<u32, ArgError> {
        u32::try_from(args.u64_or(flag, u64::from(default))?)
            .map_err(|e| ArgError(format!("--{flag}: {e}")))
    };
    #[allow(clippy::cast_possible_truncation)]
    Ok(DegradeConfig {
        forward_deadline: std::time::Duration::from_micros(
            args.u64_or("deadline-us", defaults.forward_deadline.as_micros() as u64)?,
        ),
        forward_retries: u32_flag("retries", defaults.forward_retries)?,
        retry_backoff: std::time::Duration::from_micros(
            args.u64_or("backoff-us", defaults.retry_backoff.as_micros() as u64)?,
        ),
        timeout_threshold: u32_flag("timeout-threshold", defaults.timeout_threshold)?,
        probation_ops: args.u64_or("probation-ops", defaults.probation_ops)?,
    })
}

/// Flags both serving benches take: the cluster and workload shape,
/// the fault schedule, the report, and the adaptive controller
/// (`--adapt true` turns the run closed-loop, the rest tune the
/// controller around its defaults).
const BENCH_FLAGS: [&str; 21] = [
    "nodes",
    "catalogue",
    "capacity",
    "ell",
    "s",
    "rate",
    "duration",
    "paced",
    "policy",
    "seed",
    "batch",
    "faults",
    "smoke",
    "name",
    "out",
    "adapt",
    "adapt-interval-ms",
    "adapt-budget",
    "adapt-hysteresis",
    "adapt-min-window",
    "adapt-decay",
];

/// Flags of every command that runs serve workers: shards, placement
/// and the degradation ladder.
const WORKER_FLAGS: [&str; 6] =
    ["shards", "cores", "pin", "deadline-us", "retries", "timeout-threshold"];

/// Flags of every command that runs `ccn node` servers: their peer
/// links and listener.
const LINK_FLAGS: [&str; 4] = ["backoff-us", "window", "wire-batch", "max-conns"];

fn parse_adapt_flags(args: &Args) -> Result<Option<ControllerConfig>, ArgError> {
    if !parse_bool(args, "adapt", "false")? {
        return Ok(None);
    }
    let defaults = ControllerConfig::default();
    #[allow(clippy::cast_possible_truncation)]
    Ok(Some(ControllerConfig {
        decay: args.f64_or("adapt-decay", defaults.decay)?,
        min_window: args.f64_or("adapt-min-window", defaults.min_window)?,
        hysteresis: args.f64_or("adapt-hysteresis", defaults.hysteresis)?,
        movement_budget: args.u64_or("adapt-budget", defaults.movement_budget)?,
        tick_interval: std::time::Duration::from_millis(
            args.u64_or("adapt-interval-ms", defaults.tick_interval.as_millis() as u64)?,
        ),
        ..defaults
    }))
}

/// The workload flags of both serving benches — `--s --rate
/// --duration --paced --seed --batch`, plus `--generators` and
/// `--drift` where the command takes them — over the command's own
/// defaults. The library validates the result.
fn parse_load_flags(args: &Args, defaults: OpenLoopConfig) -> Result<OpenLoopConfig, ArgError> {
    Ok(OpenLoopConfig {
        generators: usize_flag(args, "generators", defaults.generators as u64)?,
        zipf_s: args.f64_or("s", defaults.zipf_s)?,
        rate_per_node_per_ms: args.f64_or("rate", defaults.rate_per_node_per_ms)?,
        horizon_ms: args.f64_or("duration", defaults.horizon_ms)?,
        paced: parse_bool(args, "paced", &defaults.paced.to_string())?,
        seed: args.u64_or("seed", defaults.seed)?,
        batch: usize_flag(args, "batch", defaults.batch as u64)?,
        drift: match args.get("drift") {
            Some(spec) => parse_drift_flag(spec)?,
            None => defaults.drift,
        },
    })
}

/// Parses `--drift "S@MS,S@MS"` into scripted exponent spans:
/// `--drift 1.1@500` switches the request stream to `s = 1.1` at
/// 500 ms into the run. Out-of-order spans are sorted by onset; the
/// onsets and exponents are checked where the stream is drawn.
fn parse_drift_flag(spec: &str) -> Result<Vec<DriftSegment>, ArgError> {
    let mut segments = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let bad = |why: &str| ArgError(format!("--drift {part:?}: {why}"));
        let (s, at) = part.split_once('@').ok_or_else(|| bad("expected S@MS"))?;
        let zipf_s: f64 = s.trim().parse().map_err(|_| bad("S must be a Zipf exponent"))?;
        let at_ms: f64 = at.trim().parse().map_err(|_| bad("MS must be an onset in ms"))?;
        segments.push(DriftSegment { at_ms, zipf_s });
    }
    segments.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    Ok(segments)
}

/// The manifest's `engine_controller` section, mirroring the report's
/// `controller` JSON.
fn controller_manifest(report: &ControllerReport) -> Json {
    Json::object()
        .field("fitted_s", report.fitted_s)
        .field("window_weight", report.window_weight)
        .field("refits", report.refits)
        .field("holds", report.holds)
        .field("retargets", report.retargets)
        .field("epochs_issued", report.epochs_issued)
        .field("slices_moved", report.slices_moved)
        .field("final_ell", report.current_ell)
        .field("movement_budget", report.movement_budget)
}

/// The one writer both serving benches report through: adds the
/// controller section when a controller rode the run, prints the
/// manifest header on stderr (its wall-clock timings stay off stdout),
/// and writes `{bench, manifest, <mode>: body}` to `--out`
/// (default `SERVE.json` / `WIRE.json`). Returns the path written.
fn write_serving_report(
    args: &Args,
    mut manifest: RunManifest,
    controller: Option<&ControllerReport>,
    mode: &str,
    body: Json,
) -> Result<String, ArgError> {
    if let Some(ctl) = controller {
        manifest = manifest.with_section("engine_controller", controller_manifest(ctl));
    }
    eprintln!("{}", manifest.to_header_line());
    let report = Json::object()
        .field("bench", manifest.name.as_str())
        .field("manifest", manifest.to_json())
        .field(mode, body);
    let out_path = args.str_or("out", &format!("{}.json", mode.to_ascii_uppercase()));
    std::fs::write(&out_path, report.to_string_pretty())
        .map_err(|e| ArgError(format!("--out {out_path:?}: {e}")))?;
    Ok(out_path)
}

/// One human summary line for an adaptive run's controller.
fn controller_summary(out: &mut String, report: &ControllerReport) {
    let fitted = report.fitted_s.map_or_else(|| "none".to_owned(), |s| format!("{s:.4}"));
    let _ = writeln!(
        out,
        "  adaptive: fitted s {fitted}, {} refit(s), {} retarget(s), {} hold(s), \
         {} epoch(s) issued moving {} slot(s) (budget {}), final ell {:.4}",
        report.refits,
        report.retargets,
        report.holds,
        report.epochs_issued,
        report.slices_moved,
        report.movement_budget,
        report.current_ell,
    );
}

fn node_cmd(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[&WORKER_FLAGS[..], &LINK_FLAGS, &["id", "listen"]].concat())?;
    let mut config = NodeConfig::new(usize_flag(args, "id", 0)?);
    config.listen = args.str_or("listen", "127.0.0.1:0");
    config.shards = usize_flag(args, "shards", 1)?;
    config.placement =
        ShardPlacement::new(usize_flag(args, "cores", 0)?, parse_bool(args, "pin", "false")?);
    config.degrade = parse_degrade_flags(args)?;
    config.window = usize_flag(args, "window", 8)?;
    config.wire_batch = usize_flag(args, "wire-batch", 64)?;
    config.max_connections = usize_flag(args, "max-conns", 1_024)?;
    let id = config.id;
    let server = NodeServer::bind(config).map_err(|e| ArgError(e.to_string()))?;
    // The spawning driver blocks on this line; flush before serving.
    {
        use std::io::Write as _;
        println!("READY {}", server.local_addr());
        let _ = std::io::stdout().flush();
    }
    let stats = server.run().map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "node {id}: epoch {}, {} lookups (local {}, peer {}, origin {}, shed {})",
        stats.epoch, stats.lookups, stats.local, stats.peer, stats.origin, stats.shed
    );
    let _ = writeln!(
        out,
        "  forwards out {} (retried {}, degraded {}), forwards in {} ({} hits), \
         connections {}, epochs accepted {}",
        stats.forwards_out,
        stats.retried,
        stats.degraded,
        stats.forwards_in,
        stats.forward_hits,
        stats.connections,
        stats.epochs_accepted
    );
    let _ = writeln!(
        out,
        "  serve wake-ups {}, cross-shard runs {}",
        stats.serve_wakeups, stats.cross_shard_runs
    );
    Ok(out)
}

/// Aggregates node-side forward RTT counters into the manifest's
/// cluster-wide `(min, mean, max)` in microseconds; `None` when no
/// forward completed anywhere (e.g. `ℓ = 0` or a single-node cluster).
fn aggregate_rtt(stats: &[Option<NodeStatsSnapshot>]) -> Option<(u64, f64, u64)> {
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for s in stats.iter().flatten() {
        if s.rtt_count > 0 {
            count += s.rtt_count;
            sum += s.rtt_sum_us;
            min = min.min(s.rtt_min_us);
            max = max.max(s.rtt_max_us);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    (count > 0).then(|| (min, sum as f64 / count as f64, max))
}

/// How one node counter renders in the report: under its own name,
/// except the fitted exponent's bit pattern, which renders as the
/// float under `fitted_s`.
fn stats_entry(name: &'static str, value: u64) -> (&'static str, Json) {
    match name {
        "fitted_s_bits" => ("fitted_s", Json::from(f64::from_bits(value))),
        _ => (name, Json::from(value)),
    }
}

/// One node's counters: every field of the snapshot, in wire order.
fn stats_json(stats: &NodeStatsSnapshot) -> Json {
    let fields = NodeStatsSnapshot::FIELD_NAMES.iter().zip(stats.fields());
    Json::Obj(
        fields
            .map(|(&name, value)| {
                let (key, value) = stats_entry(name, value);
                (key.to_owned(), value)
            })
            .collect(),
    )
}

/// A string list as a JSON array.
fn strings(list: &[String]) -> Json {
    Json::Arr(list.iter().map(|s| Json::from(s.as_str())).collect())
}

fn wire_outcome_json(outcome: &WireOutcome) -> Json {
    let stats = outcome.node_stats.iter().map(|s| s.as_ref().map_or(Json::Null, stats_json));
    let offered = outcome.report.total().offered;
    let p = &outcome.pipeline;
    let body = Json::object()
        .field("nodes", outcome.nodes)
        .field("epoch", outcome.epoch)
        .field("listen_addrs", strings(&outcome.listen_addrs))
        .field("node_stats", Json::Arr(stats.collect()))
        .field("fault_log", fault_log_json(&outcome.fault_log))
        .field("tail_per_node", outcome.tail_per_node.as_deref().map_or(Json::Null, ledgers_json))
        .field("adaptive", outcome.controller.is_some())
        .field("controller", outcome.controller.as_ref().map_or_else(Json::object, controller_json))
        .field(
            "pipeline",
            Json::object()
                .field("window", p.window)
                .field("wire_batch", p.wire_batch)
                .field("max_in_flight", p.max_in_flight)
                .field("frames_out", p.frames_out)
                .field("frames_in", p.frames_in)
                .field("bytes_out", p.bytes_out)
                .field("bytes_in", p.bytes_in)
                .field("frames_per_op", p.frames_per_op(offered))
                .field("bytes_per_op", p.bytes_per_op(offered)),
        );
    load_report_json(body, &outcome.report)
}

/// wire-bench's flags as the library's spec.
fn wire_spec(args: &Args) -> Result<WireSpec, ArgError> {
    let extra = ["in-process", "node-exe"];
    args.ensure_known(&[&BENCH_FLAGS[..], &WORKER_FLAGS, &LINK_FLAGS, &extra].concat())?;
    let mut spec = WireSpec::new(usize_flag(args, "nodes", 3)?);
    spec.shards_per_node = usize_flag(args, "shards", 1)?;
    spec.catalogue = args.u64_or("catalogue", 10_000)?;
    spec.capacity = args.u64_or("capacity", 100)?;
    spec.ell = args.f64_or("ell", 0.5)?;
    spec.policy = parse_policy_flag(args)?;
    spec.load = parse_load_flags(args, spec.load.clone())?;
    spec.window = usize_flag(args, "window", 8)?;
    spec.wire_batch = usize_flag(args, "wire-batch", 64)?;
    spec.max_conns = usize_flag(args, "max-conns", 1_024)?;
    spec.placement =
        ShardPlacement::new(usize_flag(args, "cores", 0)?, parse_bool(args, "pin", "false")?);
    spec.degrade = parse_degrade_flags(args)?;
    spec.faults = parse_faults_flag(
        &args.str_or("faults", ""),
        spec.nodes,
        spec.shards_per_node,
        &spec.load,
    )?;
    spec.adapt = parse_adapt_flags(args)?;
    spec.launch = if parse_bool(args, "in-process", "false")? {
        NodeLaunch::InProcess
    } else {
        let exe = match args.get("node-exe") {
            Some(path) => std::path::PathBuf::from(path),
            None => std::env::current_exe()
                .map_err(|e| ArgError(format!("cannot locate own executable: {e}")))?,
        };
        NodeLaunch::Exe(exe)
    };
    Ok(spec)
}

fn wire_bench_cmd(args: &Args) -> Result<String, ArgError> {
    let spec = wire_spec(args)?;
    let smoke = parse_bool(args, "smoke", "false")?;
    let name = args.str_or("name", "WIRE");

    let mut clock = PhaseClock::new();
    let outcome = wire_bench(&spec).map_err(|e| ArgError(e.to_string()))?;
    let offered = outcome.report.total().offered;
    clock.lap_events("wire_serve", offered);
    if !spec.faults.is_empty() {
        clock.lap_events("faults", outcome.fault_log.len() as u64);
    }
    let rtt = aggregate_rtt(&outcome.node_stats);
    let pipeline = &outcome.pipeline;
    let wire = Json::object()
        .field("listen_addrs", strings(&outcome.listen_addrs))
        .field("config_epoch", outcome.epoch)
        .field(
            "peer_rtt_us",
            rtt.map_or(Json::Null, |(min, mean, max)| {
                Json::object().field("min", min).field("mean", mean).field("max", max)
            }),
        )
        .field(
            "pipeline",
            Json::object()
                .field("window", pipeline.window)
                .field("wire_batch", pipeline.wire_batch)
                .field("max_in_flight", pipeline.max_in_flight)
                .field("frames_per_op", pipeline.frames_per_op(offered))
                .field("bytes_per_op", pipeline.bytes_per_op(offered)),
        );
    let manifest = RunManifest::capture(
        "ccn",
        &name,
        spec.load.seed,
        spec.nodes * spec.shards_per_node,
        smoke,
    )
    .with_section("engine_wire", wire)
    .with_phases(clock.finish());
    let out_path = write_serving_report(
        args,
        manifest,
        outcome.controller.as_ref(),
        "wire",
        wire_outcome_json(&outcome),
    )?;

    let launch = match &spec.launch {
        NodeLaunch::InProcess => "in-process threads".to_owned(),
        NodeLaunch::Exe(path) => format!("processes of {}", path.display()),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wire-bench {name}: {} node(s) x {} shard(s) as {launch}, batch {}, window {}, epoch {}",
        outcome.nodes, spec.shards_per_node, spec.load.batch, spec.window, outcome.epoch
    );
    ledger_summary(&mut out, &outcome.report, outcome.controller.as_ref(), &outcome.fault_log);
    let _ = writeln!(
        out,
        "  wire: {:.3} frames/op, {:.1} bytes/op, max {} in flight (window {}, wire-batch {})",
        pipeline.frames_per_op(offered),
        pipeline.bytes_per_op(offered),
        pipeline.max_in_flight,
        spec.window,
        spec.wire_batch
    );
    if let Some(tail) = &outcome.tail_per_node {
        let (tl, tp, to) = tier_fractions(tail);
        let _ = writeln!(
            out,
            "  post-revival tail: local {:.1}%, peer {:.1}%, origin {:.1}% \
             over {} offered",
            tl * 100.0,
            tp * 100.0,
            to * 100.0,
            tail.iter().copied().sum::<Ledger>().offered
        );
    }
    if let Some((min, mean, max)) = rtt {
        let _ = writeln!(out, "  peer RTT: min {min} us, mean {mean:.1} us, max {max} us");
    }
    let _ = writeln!(out, "report written to {out_path}");
    Ok(out)
}

fn validate_manifest(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["file"])?;
    let path = args.str_or("file", "SERVE.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("--file {path:?}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| ArgError(format!("{path}: not valid JSON: {e}")))?;
    // Accept either a bare manifest document or a bench report that
    // embeds one under the "manifest" key.
    let (value, location) = match doc.get("manifest") {
        Some(embedded) => (embedded, "embedded manifest"),
        None => (&doc, "manifest"),
    };
    let manifest = RunManifest::from_value(value)
        .map_err(|e| ArgError(format!("{path}: invalid {location}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: valid {} ({location}, tool {}, run {}, {} phase(s))",
        ccn_obs::MANIFEST_SCHEMA,
        manifest.tool,
        manifest.name,
        manifest.phases.len()
    );
    Ok(out)
}

/// Runs a parsed command, returning its rendered report.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands, bad flags, or failing
/// domain operations.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match args.command.as_str() {
        "solve" => solve(args),
        "plan" => plan_cmd(args),
        "topology" => topology_cmd(args),
        "simulate" => simulate(args),
        "capacity" => capacity_cmd(args),
        "resilience" => resilience_cmd(args),
        "serve-bench" => serve_bench_cmd(args),
        "node" => node_cmd(args),
        "wire-bench" => wire_bench_cmd(args),
        "validate-manifest" => validate_manifest(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_engine::FaultKind;

    fn run_tokens(tokens: &[&str]) -> Result<String, ArgError> {
        let owned: Vec<String> = tokens.iter().map(|s| (*s).to_owned()).collect();
        run(&Args::parse(&owned).unwrap())
    }

    #[test]
    fn help_lists_all_commands() {
        let text = run_tokens(&["help"]).unwrap();
        for cmd in [
            "solve",
            "plan",
            "topology",
            "simulate",
            "capacity",
            "resilience",
            "serve-bench",
            "node",
            "wire-bench",
            "validate-manifest",
        ] {
            assert!(text.contains(cmd), "usage is missing {cmd}");
        }
    }

    #[test]
    fn wire_fault_parsing_accepts_kill_and_revive_only() {
        // What `wire-bench --faults` does: the shared grammar, then the
        // wire's own rules, which `wire_bench` checks before it spawns
        // anything (a launch that cannot start keeps it that way).
        let load = WireSpec::new(3).load;
        let parse = |faults: &str| parse_faults_flag(faults, 3, 1, &load).map_err(|e| e.0);
        let wire_rejection = |faults: &str| -> String {
            let mut spec = WireSpec::new(3);
            spec.launch = NodeLaunch::Exe("no-such-ccn-binary".into());
            spec.faults = parse(faults).unwrap();
            match wire_bench(&spec) {
                Err(ccn_engine::EngineError::FaultSpec { reason }) => reason,
                other => panic!("{faults}: expected a fault-spec rejection, got {other:?}"),
            }
        };
        let faults = parse("kill:1@2000, revive:1@4000").unwrap();
        assert_eq!(faults, FaultPlan::none().with_node_outage(1, 2_000, Some(4_000)));
        assert!(parse("").unwrap().is_empty());
        // Out-of-order specs are sorted by trigger op.
        let sorted = parse("revive:0@900,kill:0@100").unwrap();
        assert!(sorted.events()[0].at_op < sorted.events()[1].at_op);
        for bad in ["kill:1", "kill:x@5", "kill:1@y"] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
        // Seeded outages come with the grammar: only node kills and
        // revives, alternating per node and starting with a kill.
        let seeded = parse("seeded:7:800:200").unwrap();
        assert!(!seeded.is_empty());
        for node in 0..3 {
            let mut dead = false;
            for event in seeded.events() {
                match event.kind {
                    FaultKind::KillNode(n) if n == node => assert!(!dead, "double kill of {n}"),
                    FaultKind::ReviveNode(n) if n == node => assert!(dead, "revive of live {n}"),
                    FaultKind::KillNode(_) | FaultKind::ReviveNode(_) => continue,
                    other => panic!("seeded plans only kill and revive nodes, got {other}"),
                }
                dead = !dead;
            }
        }
        // Finer-grained kinds parse, and the wire's rejection names them.
        for (bad, kind) in [
            ("kill-worker:0.0@10", "kill-worker"),
            ("slow:1:50@10", "slow"),
            ("clear:1@10", "clear"),
            ("stall:0:9@1", "stall"),
        ] {
            let err = wire_rejection(bad);
            assert!(err.contains(kind) && err.contains("kill or revive"), "{bad}: {err}");
        }
        // A node is killed once per outage and revived only when dead.
        for bad in ["kill:1@10,kill:1@20", "revive:1@10"] {
            let err = wire_rejection(bad);
            assert!(err.contains("cannot be killed, nor a live one revived"), "{bad}: {err}");
        }
    }

    /// Every serving command validates its ladder settings the same way:
    /// a zero forward deadline would expire every forward at once.
    #[test]
    fn every_serving_command_rejects_a_zero_forward_deadline() {
        let serve = run_tokens(&["serve-bench", "--deadline-us", "0"]).unwrap_err().0;
        assert!(serve.contains("forward_deadline must be positive"), "{serve}");
        for cmd in ["node", "wire-bench"] {
            assert_eq!(run_tokens(&[cmd, "--deadline-us", "0"]).unwrap_err().0, serve, "{cmd}");
        }
    }

    /// Shard job rings are always MPSC, so no serving command takes a
    /// ring mode: the flag is an unknown-flag error, not a silently
    /// ignored setting.
    #[test]
    fn wire_commands_reject_the_retired_ring_mode_flag() {
        for cmd in ["node", "wire-bench", "serve-bench"] {
            let err = run_tokens(&[cmd, "--ring-mode", "mpsc"]).unwrap_err();
            assert!(err.to_string().contains("unknown flag --ring-mode"), "{cmd}: {err}");
        }
    }

    /// A serve worker blocks in its poller, its ring carries only what
    /// the cluster's shape bounds, and a dead peer is revived by the
    /// prober, not by op-count probation, so the wire commands take no
    /// idle strategy, queue depth or probation window.
    #[test]
    fn wire_commands_take_no_idle_or_queue_flag() {
        for cmd in ["node", "wire-bench"] {
            for (flag, value) in
                [("--idle", "yield"), ("--queue", "64"), ("--probation-ops", "8192")]
            {
                let err = run_tokens(&[cmd, flag, value]).unwrap_err();
                assert!(err.to_string().contains(&format!("unknown flag {flag}")), "{cmd}: {err}");
            }
        }
    }

    #[test]
    fn wire_bench_in_process_smoke_emits_valid_manifest() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("WIRE_SMOKE.json");
        let text = run_tokens(&[
            "wire-bench",
            "--nodes",
            "3",
            "--rate",
            "0.2",
            "--duration",
            "300",
            "--in-process",
            "true",
            "--smoke",
            "true",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("accounting: completed + shed == offered"), "{text}");
        let validated =
            run_tokens(&["validate-manifest", "--file", out.to_str().unwrap()]).unwrap();
        assert!(validated.contains("valid ccn.run-manifest/v1"), "{validated}");
        // Every counter the node snapshot carries reaches the report.
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let node_stats = doc.get("wire").and_then(|w| w.get("node_stats")).unwrap();
        let node_stats = node_stats.as_array().unwrap();
        assert_eq!(node_stats.len(), 3);
        for stats in node_stats {
            for &name in NodeStatsSnapshot::FIELD_NAMES {
                let (key, _) = stats_entry(name, 0);
                assert!(stats.get(key).is_some(), "node_stats lacks {key}: {stats:?}");
            }
        }
    }

    #[test]
    fn wire_bench_rejects_faults_without_processes() {
        let err = run_tokens(&[
            "wire-bench",
            "--nodes",
            "2",
            "--in-process",
            "true",
            "--faults",
            "kill:0@10",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("fault"), "{err}");
    }

    #[test]
    fn drift_flag_parses_spans_and_rejects_malformed_ones() {
        let spans = parse_drift_flag("1.1@500, 0.7@1200").unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].zipf_s, 1.1);
        assert_eq!(spans[0].at_ms, 500.0);
        // Out-of-order spans sort by onset.
        let sorted = parse_drift_flag("0.7@1200,1.1@500").unwrap();
        assert_eq!(sorted[0].at_ms, 500.0);
        assert!(parse_drift_flag("").unwrap().is_empty());
        for bad in ["1.1", "x@500", "1.1@y"] {
            assert!(parse_drift_flag(bad).is_err(), "{bad} should be rejected");
        }
        // Values that parse are the library's to judge, when the run
        // starts: a bad onset before anything spawns, a bad exponent
        // where the stream is drawn.
        for (bad, words) in
            [("1.1@-3", "drift point"), ("-0.5@100", "s >= 0"), ("inf@100", "s >= 0")]
        {
            let err =
                run_tokens(&["serve-bench", "--duration", "200", "--drift", bad]).unwrap_err();
            assert!(err.to_string().contains(words), "{bad}: {err}");
        }
    }

    fn args_of(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    /// One workload-flag parser: the same flags give both benches the
    /// same workload, each over its own unchanged defaults.
    #[test]
    fn both_benches_build_the_same_workload_from_the_same_flags() {
        let flags = ["--nodes", "2", "--s", "1.1", "--rate", "3", "--duration", "250"];
        let flags = [&flags[..], &["--paced", "true", "--seed", "9", "--batch", "16"]].concat();
        let serve = serve_bench_config(&args_of(&[&["serve-bench"], &flags[..]].concat())).unwrap();
        let wire = wire_spec(&args_of(&[&["wire-bench"], &flags[..]].concat())).unwrap();
        // serve-bench defaults to one lane, wire-bench to one per node;
        // the lane count never changes the offered stream.
        assert_eq!((serve.load.generators, wire.load.generators), (1, 2));
        assert_eq!(OpenLoopConfig { generators: 2, ..serve.load }, wire.load);
        assert_eq!(wire.load.batch, 16);
        let serve = serve_bench_config(&args_of(&["serve-bench"])).unwrap().load;
        let wire = wire_spec(&args_of(&["wire-bench"])).unwrap().load;
        assert_eq!((serve.rate_per_node_per_ms, serve.batch, serve.horizon_ms), (2.0, 1, 1_000.0));
        assert_eq!((wire.rate_per_node_per_ms, wire.batch, wire.generators), (0.5, 64, 3));
    }

    /// One validation for both benches: the same bad workload is
    /// refused with the library's words.
    #[test]
    fn both_benches_reject_a_bad_workload_with_the_librarys_words() {
        let zero_batch = OpenLoopConfig { batch: 0, ..OpenLoopConfig::default() };
        let words = zero_batch.validate().unwrap_err().to_string();
        for cmd in ["serve-bench", "wire-bench"] {
            let err = run_tokens(&[cmd, "--batch", "0"]).unwrap_err();
            assert_eq!(err.to_string(), words, "{cmd}");
        }
        let early = OpenLoopConfig {
            drift: vec![DriftSegment { at_ms: 0.0, zipf_s: 1.1 }],
            ..OpenLoopConfig::default()
        };
        let err = run_tokens(&["serve-bench", "--drift", "1.1@0"]).unwrap_err();
        assert_eq!(err.to_string(), early.validate().unwrap_err().to_string());
    }

    /// One renderer for both bodies: each carries the shared ledger
    /// block, and the same workload flags offer every node the same
    /// requests on both tiers.
    #[test]
    fn both_benches_render_one_ledger_block() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let flags = ["--nodes", "3", "--rate", "0.5", "--duration", "200", "--batch", "16"];
        let body = |cmd: &str, mode: &str, extra: &[&str]| -> Json {
            let out = dir.join(format!("ledger_block_{mode}.json"));
            let out = ["--out", out.to_str().unwrap()];
            run_tokens(&[&[cmd], &flags[..], extra, &out[..]].concat()).unwrap();
            let doc = Json::parse(&std::fs::read_to_string(out[1]).unwrap()).unwrap();
            doc.get(mode).unwrap().clone()
        };
        let serve = body("serve-bench", "serve", &[]);
        let wire = body("wire-bench", "wire", &["--in-process", "true"]);
        for key in [
            "offered",
            "completed",
            "shed",
            "served_local",
            "served_peer",
            "served_origin",
            "local_fraction",
            "peer_fraction",
            "origin_fraction",
            "per_node",
            "wall_ms",
            "generators",
            "pinned_generators",
        ] {
            assert!(serve.get(key).is_some(), "serve body lacks {key}");
            assert!(wire.get(key).is_some(), "wire body lacks {key}");
        }
        let offered = |body: &Json| -> Vec<u64> {
            let nodes = body.get("per_node").and_then(Json::as_array).unwrap();
            nodes.iter().map(|node| node.get("offered").and_then(Json::as_u64).unwrap()).collect()
        };
        assert_eq!(offered(&serve).len(), 3);
        assert_eq!(
            offered(&serve),
            offered(&wire),
            "the tiers offered their nodes different streams"
        );
    }

    #[test]
    fn adapt_flags_build_a_controller_config() {
        let tokens: Vec<String> = [
            "serve-bench",
            "--adapt",
            "true",
            "--adapt-budget",
            "96",
            "--adapt-interval-ms",
            "10",
            "--adapt-min-window",
            "500",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = Args::parse(&tokens).unwrap();
        let cfg = parse_adapt_flags(&args).unwrap().expect("adapt on");
        assert_eq!(cfg.movement_budget, 96);
        assert_eq!(cfg.tick_interval, std::time::Duration::from_millis(10));
        assert_eq!(cfg.min_window, 500.0);
        // Untouched knobs keep their defaults.
        assert_eq!(cfg.hysteresis, ControllerConfig::default().hysteresis);
        // Off by default: the tuning flags alone don't enable it.
        let off = Args::parse(&["serve-bench".to_owned()]).unwrap();
        assert!(parse_adapt_flags(&off).unwrap().is_none());
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_tokens(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn solve_defaults_match_the_library() {
        let text = run_tokens(&["solve"]).unwrap();
        assert!(text.contains("l* = 0.92"), "{text}");
        assert!(text.contains("G_O"));
    }

    #[test]
    fn solve_rejects_bad_parameters() {
        let err = run_tokens(&["solve", "--s", "1.0"]).unwrap_err();
        assert!(err.to_string().contains('s'));
        let err = run_tokens(&["solve", "--bogus", "1"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn plan_on_builtin_topologies() {
        for name in ["abilene", "cernet", "geant", "us-a"] {
            let text = run_tokens(&["plan", "--topology", name]).unwrap();
            assert!(text.contains("optimal coordination level"), "{name}: {text}");
        }
    }

    #[test]
    fn topology_reports_table3_parameters() {
        let text = run_tokens(&["topology", "--topology", "geant"]).unwrap();
        assert!(text.contains("n = 23"));
        assert!(text.contains("diameter"));
        assert!(text.contains("clustering"));
    }

    #[test]
    fn topology_loads_edge_list_files() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.topo");
        std::fs::write(&path, "# name: Tiny\nnode a 0 0\nnode b 1 1\nedge a b 3.0\n").unwrap();
        let text = run_tokens(&["topology", "--topology", path.to_str().unwrap()]).unwrap();
        assert!(text.contains("Tiny"));
        assert!(text.contains("n = 2"));
        let missing = run_tokens(&["topology", "--topology", "/nonexistent/x.topo"]);
        assert!(missing.is_err());
    }

    #[test]
    fn simulate_produces_metrics() {
        let text =
            run_tokens(&["simulate", "--topology", "abilene", "--ell", "0.8", "--horizon", "5000"])
                .unwrap();
        assert!(text.contains("origin load"));
        assert!(text.contains("p99 latency"));
        // The run manifest (wall-clock timings) goes to stderr so that
        // stdout stays byte-identical for a fixed seed.
        assert!(text.starts_with("simulated"), "{text}");
        assert!(!text.contains("run-manifest"), "{text}");
    }

    #[test]
    fn capacity_command_reports_a_plan() {
        let text = run_tokens(&[
            "capacity",
            "--topology",
            "us-a",
            "--catalogue",
            "100000",
            "--target",
            "0.4",
        ])
        .unwrap();
        assert!(text.contains("smallest capacity"));
        assert!(text.contains("provisioning plan"));
        let err = run_tokens(&["capacity", "--target", "2.0"]).unwrap_err();
        assert!(err.to_string().contains("target"));
    }

    #[test]
    fn resilience_compares_model_and_simulation() {
        let text = run_tokens(&[
            "resilience",
            "--topology",
            "abilene",
            "--max-failed",
            "1",
            "--catalogue",
            "5000",
            "--horizon",
            "5000",
        ])
        .unwrap();
        assert!(text.contains("degraded performance"), "{text}");
        assert!(text.contains("k"), "{text}");
        assert!(text.contains("provisioning round"), "{text}");
        assert!(
            text.contains("converged") || text.contains("aborted"),
            "round outcome missing: {text}"
        );
    }

    #[test]
    fn resilience_rejects_killing_every_router() {
        let err =
            run_tokens(&["resilience", "--topology", "abilene", "--max-failed", "11"]).unwrap_err();
        assert!(err.to_string().contains("alive"), "{err}");
    }

    #[test]
    fn serve_bench_writes_validatable_report_and_accounts_every_request() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve_smoke.json");
        let text = run_tokens(&[
            "serve-bench",
            "--nodes",
            "2",
            "--catalogue",
            "1000",
            "--capacity",
            "20",
            "--rate",
            "0.5",
            "--duration",
            "100",
            "--smoke",
            "true",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("report written"), "{text}");
        assert!(text.contains("completed + shed == offered"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"serve\""), "{json}");
        assert!(json.contains("\"worker_threads\": 2"), "{json}");
        let verdict = run_tokens(&["validate-manifest", "--file", path.to_str().unwrap()]).unwrap();
        assert!(verdict.contains("embedded manifest"), "{verdict}");

        let err = run_tokens(&["serve-bench", "--policy", "mru"]).unwrap_err();
        assert!(err.to_string().contains("--policy"), "{err}");
        let err = run_tokens(&["serve-bench", "--ell", "2.0"]).unwrap_err();
        assert!(err.to_string().contains("ell"), "{err}");
        let err = run_tokens(&["serve-bench", "--idle", "bogus"]).unwrap_err();
        assert!(err.to_string().contains("--idle"), "{err}");
        let err = run_tokens(&["serve-bench", "--batch", "0"]).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
    }

    #[test]
    fn serve_bench_placement_flags_reach_the_report() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve_pinned.json");
        let text = run_tokens(&[
            "serve-bench",
            "--nodes",
            "1",
            "--ell",
            "0.0",
            "--catalogue",
            "1000",
            "--capacity",
            "20",
            "--rate",
            "0.5",
            "--duration",
            "100",
            "--cores",
            "1",
            "--pin",
            "true",
            "--smoke",
            "true",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("placement: "), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"placement_cores\": 1"), "{json}");
        assert!(json.contains("\"placement_pin\": true"), "{json}");
        // The manifest records engine threads separately from the
        // runner clamp.
        assert!(json.contains("\"engine_worker_threads\": 1"), "{json}");
        assert!(json.contains("\"engine_generator_threads\": 1"), "{json}");
        let verdict = run_tokens(&["validate-manifest", "--file", path.to_str().unwrap()]).unwrap();
        assert!(verdict.contains("embedded manifest"), "{verdict}");
    }

    #[test]
    fn serve_bench_replays_a_fault_schedule_and_stays_conserved() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve_chaos.json");
        let text = run_tokens(&[
            "serve-bench",
            "--nodes",
            "3",
            "--catalogue",
            "1000",
            "--capacity",
            "20",
            "--rate",
            "0.5",
            "--duration",
            "200",
            "--faults",
            "kill:1@40,revive:1@200",
            "--smoke",
            "true",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        // serve_bench errors out on any conservation violation, so
        // reaching the summary *is* the invariant check.
        assert!(text.contains("completed + shed == offered"), "{text}");
        assert!(text.contains("faults: 2 applied"), "{text}");
        assert!(text.contains("routing epoch 3"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"faults_applied\": 2"), "{json}");
        assert!(json.contains("kill:1@40"), "{json}");
        let verdict = run_tokens(&["validate-manifest", "--file", path.to_str().unwrap()]).unwrap();
        assert!(verdict.contains("embedded manifest"), "{verdict}");

        let err = run_tokens(&["serve-bench", "--faults", "kill:9@10"]).unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
        let err = run_tokens(&["serve-bench", "--faults", "frob:1@10"]).unwrap_err();
        assert!(err.to_string().contains("unknown transition"), "{err}");
        let err = run_tokens(&["serve-bench", "--probation-ops", "0"]).unwrap_err();
        assert!(err.to_string().contains("probation_ops"), "{err}");
    }

    #[test]
    fn serve_bench_batched_pipeline_reports_its_knobs() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve_batched.json");
        let text = run_tokens(&[
            "serve-bench",
            "--nodes",
            "2",
            "--catalogue",
            "1000",
            "--capacity",
            "20",
            "--rate",
            "0.5",
            "--duration",
            "100",
            "--batch",
            "64",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("batch 64,"), "{text}");
        assert!(text.contains("completed + shed == offered"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"batch\": 64"), "{json}");
    }

    #[test]
    fn validate_manifest_accepts_bare_and_rejects_garbage() {
        let dir = std::env::temp_dir().join("ccn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();

        let bare = dir.join("bare_manifest.json");
        let manifest = RunManifest::capture("ccn", "unit", 7, 1, true);
        std::fs::write(&bare, manifest.to_header_line()).unwrap();
        let verdict = run_tokens(&["validate-manifest", "--file", bare.to_str().unwrap()]).unwrap();
        assert!(verdict.contains("valid ccn.run-manifest/v1"), "{verdict}");

        let bad = dir.join("bad_manifest.json");
        std::fs::write(&bad, "{\"schema\": \"something-else\"}").unwrap();
        let err = run_tokens(&["validate-manifest", "--file", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("invalid"), "{err}");

        let err = run_tokens(&["validate-manifest", "--file", "/nonexistent/x.json"]).unwrap_err();
        assert!(err.to_string().contains("--file"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_level() {
        let err = run_tokens(&["simulate", "--ell", "1.5", "--horizon", "1000"]).unwrap_err();
        assert!(err.to_string().contains("coordination level"));
    }
}
