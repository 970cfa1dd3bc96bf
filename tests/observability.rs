//! Cross-crate observability contract tests.
//!
//! Pins the run-manifest schema emitted by the CLI's serving reports
//! and the statistical contract of the fixed-bucket latency histogram
//! against the simulator's exact sorted-vector percentile.

use ccn_obs::{Histogram, Json, RunManifest, ToJson, Tracer, MANIFEST_SCHEMA};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact linear-interpolation percentile over raw samples — the same
/// definition `ccn_sim::Metrics::latency_percentile` uses.
fn exact_percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[test]
fn serve_bench_smoke_report_carries_a_valid_manifest_with_phase_timings() {
    let dir = std::env::temp_dir().join("ccn-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_smoke_report.json");
    let tokens: Vec<String> = [
        "serve-bench",
        "--nodes",
        "2",
        "--rate",
        "0.5",
        "--duration",
        "200",
        "--smoke",
        "true",
        "--out",
        path.to_str().unwrap(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    ccn_cli::dispatch(&tokens).expect("ccn serve-bench --smoke should succeed");

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("serve-bench report is valid JSON");
    let embedded = doc.get("manifest").expect("report embeds a manifest");
    let manifest = RunManifest::from_value(embedded).expect("embedded manifest validates");

    assert_eq!(embedded.get("schema").unwrap().as_str(), Some(MANIFEST_SCHEMA));
    assert_eq!(manifest.tool, "ccn");
    assert!(manifest.smoke);
    assert!(manifest.effective_threads >= 1);
    assert!(manifest.effective_threads <= manifest.available_cores.max(1));
    assert_eq!(manifest.engine_worker_threads, Some(2), "{embedded:?}");

    // The serving phase is present with all timing keys.
    let got: Vec<&str> = manifest.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(got, ["serve"], "{got:?}");
    let phases_json = embedded.get("phases").unwrap().as_array().unwrap();
    for entry in phases_json {
        for key in ["phase", "wall_ms", "events", "events_per_sec"] {
            assert!(entry.get(key).is_some(), "phase entry missing {key:?}: {entry:?}");
        }
    }
    // The serving phase counts its offered requests as events.
    let serve = &manifest.phases[0];
    assert!(serve.wall_ms >= 0.0, "negative wall_ms");
    assert!(serve.events.is_some_and(|events| events > 0), "serve phase should count events");
    if serve.wall_ms > 0.0 {
        assert!(serve.events_per_sec().unwrap() > 0.0);
    }
}

#[test]
fn manifest_header_line_round_trips_through_the_parser() {
    let manifest = RunManifest::capture("ccn-bench", "integration", 9, 2, true);
    let line = manifest.to_header_line();
    let back = RunManifest::from_json(&line).unwrap();
    assert_eq!(back, manifest);
    // The header is one line of valid JSON, suitable for log scraping.
    assert_eq!(line.lines().count(), 1);
    assert!(Json::parse(&line).is_ok());
}

#[test]
fn tracer_spans_survive_a_cross_crate_round_trip() {
    let (tracer, sink) = Tracer::collecting();
    {
        let _outer = tracer.span("integration.outer");
        let _inner = tracer.span("integration.inner");
    }
    if tracer.is_enabled() {
        let records = sink.snapshot();
        assert_eq!(records.len(), 2);
        assert!(records.iter().any(|r| r.name == "integration.outer" && r.depth == 0));
        assert!(records.iter().any(|r| r.name == "integration.inner" && r.depth == 1));
    } else {
        // Compiled with the `off` feature: the facade must cost nothing
        // and collect nothing.
        assert!(sink.snapshot().is_empty());
    }
}

proptest! {
    #[test]
    fn histogram_percentile_bounds_contain_the_exact_percentile(
        seed in 0u64..1_000,
        n in 1usize..400,
        q in prop::sample::select(vec![0.0, 0.25, 0.5, 0.9, 0.99, 1.0]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> =
            (0..n).map(|_| rng.gen_range(0.01f64..9_000.0)).collect();

        let mut h = Histogram::latency_ms();
        for &s in &samples {
            h.observe(s);
        }

        let exact = exact_percentile(&samples, q);
        let (lo, hi) = h.percentile_bounds(q).unwrap();
        prop_assert!(
            lo <= exact && exact <= hi,
            "q={} exact={} outside [{}, {}] (n={})",
            q, exact, lo, hi, n
        );
        // The interpolated estimate must live in the same interval.
        let est = h.percentile(q);
        prop_assert!(lo <= est && est <= hi, "estimate {} outside [{}, {}]", est, lo, hi);
    }
}

#[test]
fn registry_json_round_trips_semantically() {
    let mut h = Histogram::latency_ms();
    for v in [1.0, 2.0, 4.0, 8.0, 16.0] {
        h.observe(v);
    }
    let json = h.to_json().to_string_compact();
    let back = Json::parse(&json).unwrap();
    assert_eq!(back.get("count").unwrap().as_u64(), Some(5));
    assert_eq!(back.get("min").unwrap().as_f64(), Some(1.0));
    assert_eq!(back.get("max").unwrap().as_f64(), Some(16.0));
}
