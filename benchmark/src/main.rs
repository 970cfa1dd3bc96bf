//! The repository's benchmark: four serving workloads, latency from
//! intended send time, and an outside-in budget of the layers. See
//! README.md beside this crate and BENCHMARK.json at the repository
//! root.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads /proc and calls ppoll(2) with the 64-bit Linux struct layouts; \
     it runs on 64-bit Linux only"
);

mod frame;
mod inproc;
mod nodes;
mod probe;
mod run;
mod schedule;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ccn_obs::Json;

use run::{RunArgs, RunResult};
use spec::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: ccn-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       ccn-benchmark check-repeat [--seed N] [--seconds S] [--smoke]

run           one workload (--workload) or, without it, all four: each untraced
              (end-to-end metrics) and then traced (per-layer metrics)
check-repeat  two untraced sets back to back; fails if an end-to-end metric of
              the second differs from the first by more than its bound in
              BENCHMARK.json
--smoke       2 s windows, untraced only unless --trace is given; bounds not enforced

workloads: wire-latency, wire-throughput, wire-churn, engine-inproc";

const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    check_repeat: bool,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        check_repeat: false,
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: None,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => drop(it.next()),
        Some("check-repeat") => {
            cli.check_repeat = true;
            it.next();
        }
        Some("help" | "--help" | "-h") => return Err(USAGE.to_owned()),
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(
                    spec::workload(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n\n{USAGE}"))?,
                );
            }
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a duration")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err(format!("--seconds {s}: need at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    cli.seconds = seconds.unwrap_or(if cli.smoke { SMOKE_SECONDS } else { spec::RUN_SECONDS });
    Ok(cli)
}

/// The checkout this benchmark belongs to: the working directory when
/// run from the repository root (as the driver does), else the parent
/// of this crate as compiled.
fn repo_root() -> PathBuf {
    let here = |root: &Path| {
        root.join("benchmark/Cargo.toml").is_file() && root.join("crates/cli").is_dir()
    };
    match std::env::current_dir() {
        Ok(cwd) if here(&cwd) => cwd,
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crate has a parent").to_owned(),
    }
}

/// Builds `ccn` from the checkout's source (a no-op when fresh) and
/// returns its path. Compile time is outside every metric.
fn build_ccn(root: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "-p", "ccn-cli", "--bin", "ccn", "--target-dir"])
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the ccn binary failed: {status}"));
    }
    let exe = target.join("release/ccn");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} was not built", exe.display()))
    }
}

fn print_result(result: &RunResult) {
    for note in &result.notes {
        println!("{note}");
    }
    for m in &result.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {:<44} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
    let mut metrics = Json::object();
    for m in &result.metrics {
        metrics =
            metrics.field(m.name, Json::object().field("value", m.value).field("unit", m.unit));
    }
    let line = Json::object()
        .field("correct", true)
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .field("metrics", metrics);
    println!("{}", line.to_string_compact());
}

fn run_one(
    cli: &Cli,
    w: &'static Workload,
    trace: bool,
    exe: &Path,
    root: &Path,
) -> Result<RunResult, String> {
    run::run(&RunArgs {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        exe: exe.to_owned(),
        out_dir: root.join("benchmark/out"),
    })
    .map_err(|e| format!("{}: {e}", w.name))
}

/// One untraced set: every workload's end-to-end metrics.
fn untraced_set(
    cli: &Cli,
    exe: &Path,
    root: &Path,
) -> Result<Vec<(&'static str, RunResult)>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let result = run_one(cli, w, false, exe, root)?;
            print_result(&result);
            Ok((w.name, result))
        })
        .collect()
}

/// Runs two untraced sets and compares every end-to-end metric of the
/// second against the first under its bound from BENCHMARK.json.
fn check_repeat(cli: &Cli, exe: &Path, root: &Path) -> Result<(), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bound_of = |name: &str| -> Option<f64> {
        doc.get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let first = untraced_set(cli, exe, root)?;
    let second = untraced_set(cli, exe, root)?;
    let mut over = Vec::new();
    println!("\nrepeatability (second set against the first):");
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let bound = bound_of(ma.name).ok_or_else(|| format!("{} has no bound", ma.name))?;
            let change = (mb.value - ma.value).abs() / ma.value.abs();
            let verdict = if change <= bound { "ok" } else { "OVER" };
            println!(
                "  {workload:<16} {:<22} {:>14.4} -> {:>14.4}  {:>6.2}% of {:>4.1}%  {verdict}",
                ma.name,
                ma.value,
                mb.value,
                change * 100.0,
                bound * 100.0
            );
            if change > bound && !cli.smoke {
                over.push(format!("{workload}/{}", ma.name));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("not repeatable within bound: {}", over.join(", ")))
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    let root = repo_root();
    let exe = build_ccn(&root)?;
    if cli.check_repeat {
        return check_repeat(&cli, &exe, &root);
    }
    match cli.workload {
        Some(w) => print_result(&run_one(&cli, w, cli.trace.unwrap_or(false), &exe, &root)?),
        None => {
            for w in &WORKLOADS {
                if cli.trace != Some(true) {
                    print_result(&run_one(&cli, w, false, &exe, &root)?);
                }
                if cli.trace.unwrap_or(!cli.smoke) {
                    print_result(&run_one(&cli, w, true, &exe, &root)?);
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
