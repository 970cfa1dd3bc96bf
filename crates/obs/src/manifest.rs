//! Run manifests: the JSON header every benchmark binary and the
//! `ccn` CLI emit before (or alongside) their results.
//!
//! A manifest answers "under what conditions was this number
//! measured?" — the question a 4-thread scaling run executed on a
//! 1-core machine cannot answer honestly by itself. Every manifest
//! records the seed, the *requested* and the *effective*
//! (clamped-to-cores) thread counts, the available cores, the git
//! revision, the smoke flag, and per-phase wall-clock /
//! event-throughput timings.
//!
//! A serving run adds `engine_*` sections. A section is the [`Json`]
//! object its emitter built; validation walks it against that
//! section's static field table (key, kind, presence), then checks the
//! section's contradiction rules, so each key is named by its emitter
//! and its table entry and nowhere else.

use std::time::Instant;

use crate::json::{Json, JsonError, ToJson};

/// Schema identifier embedded in every manifest; CI validates emitted
/// documents against this exact string.
pub const MANIFEST_SCHEMA: &str = "ccn.run-manifest/v1";

/// Logical CPUs visible to this process (at least 1).
#[must_use]
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count actually used for `requested` threads on a
/// machine with `cores` cores: clamped to the cores available, and at
/// least 1.
///
/// This is the single definition of the clamp the bench runner and the
/// scaling report share, so "speedup" can no longer be computed
/// against phantom workers (4 requested threads on 1 core would
/// report 0.88x scaling).
#[must_use]
pub fn effective_threads(requested: usize, cores: usize) -> usize {
    requested.min(cores.max(1)).max(1)
}

/// `git describe --always --dirty` for the working tree, or
/// `"unknown"` when git or the repository is unavailable (manifests
/// must never fail a run).
#[must_use]
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Wall-clock and optional event-throughput timing for one named
/// phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`"setup"`, `"trials"`, `"sim.event_loop"`, ...).
    pub phase: String,
    /// Wall-clock milliseconds spent in the phase.
    pub wall_ms: f64,
    /// Events processed during the phase, when the phase is an event
    /// loop.
    pub events: Option<u64>,
}

impl PhaseTiming {
    /// Events per second, when both events and a positive wall time
    /// are known.
    #[must_use]
    pub fn events_per_sec(&self) -> Option<f64> {
        let events = self.events?;
        if self.wall_ms > 0.0 {
            Some(events as f64 / (self.wall_ms / 1000.0))
        } else {
            None
        }
    }
}

impl ToJson for PhaseTiming {
    fn to_json(&self) -> Json {
        Json::object()
            .field("phase", self.phase.as_str())
            .field("wall_ms", self.wall_ms)
            .field("events", self.events)
            .field("events_per_sec", self.events_per_sec())
    }
}

/// Stopwatch that accumulates [`PhaseTiming`]s for a manifest.
#[derive(Debug)]
pub struct PhaseClock {
    started: Instant,
    phases: Vec<PhaseTiming>,
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseClock {
    /// Starts the clock for the first phase.
    #[must_use]
    pub fn new() -> Self {
        PhaseClock { started: Instant::now(), phases: Vec::new() }
    }

    /// Ends the current phase under `name` and starts the next one.
    pub fn lap(&mut self, name: &str) {
        self.lap_with_events(name, None);
    }

    /// Ends the current phase, attributing `events` processed events
    /// to it, and starts the next one.
    pub fn lap_events(&mut self, name: &str, events: u64) {
        self.lap_with_events(name, Some(events));
    }

    fn lap_with_events(&mut self, name: &str, events: Option<u64>) {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        self.started = Instant::now();
        self.phases.push(PhaseTiming { phase: name.to_owned(), wall_ms, events });
    }

    /// The phases recorded so far.
    #[must_use]
    pub fn phases(&self) -> &[PhaseTiming] {
        &self.phases
    }

    /// Consumes the clock, returning its phases.
    #[must_use]
    pub fn finish(self) -> Vec<PhaseTiming> {
        self.phases
    }
}

/// What a section field holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A non-negative integer.
    U64,
    /// A number, stored as a float even when it was written without a
    /// fraction: `Json::Num(2.0)` prints as `2` and parses back as
    /// `Json::Int(2)`.
    F64,
    /// A list of strings.
    Strs,
    /// An object checked against its own field table.
    Obj(&'static [Field]),
}

/// Whether a section field may be absent or null.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Present, of its kind.
    Required,
    /// Present, null or of its kind.
    Nullable,
    /// Absent, null, or of its kind.
    Optional,
}

/// One row of a section's field table: key, kind, presence.
type Field = (&'static str, Kind, Presence);

/// One `engine_*` section: the field table its object is walked
/// against, then the contradiction rules its values must satisfy.
struct Section {
    name: &'static str,
    fields: &'static [Field],
    rules: fn(&Json) -> Result<(), String>,
}

/// Wire-tier dimensions: present iff the run drove real node processes
/// over TCP.
const WIRE_FIELDS: &[Field] = &[
    ("listen_addrs", Kind::Strs, Presence::Required),
    ("config_epoch", Kind::U64, Presence::Required),
    (
        "peer_rtt_us",
        Kind::Obj(&[
            ("min", Kind::U64, Presence::Required),
            ("mean", Kind::F64, Presence::Required),
            ("max", Kind::U64, Presence::Required),
        ]),
        Presence::Nullable,
    ),
    (
        "pipeline",
        Kind::Obj(&[
            ("window", Kind::U64, Presence::Required),
            ("wire_batch", Kind::U64, Presence::Required),
            ("max_in_flight", Kind::U64, Presence::Required),
            ("frames_per_op", Kind::F64, Presence::Required),
            ("bytes_per_op", Kind::F64, Presence::Required),
        ]),
        Presence::Optional,
    ),
];

/// Adaptive-controller dimensions: present iff a live controller
/// re-fitted the exponent and re-sliced the cluster during the run.
const CONTROLLER_FIELDS: &[Field] = &[
    ("fitted_s", Kind::F64, Presence::Nullable),
    ("window_weight", Kind::F64, Presence::Required),
    ("refits", Kind::U64, Presence::Required),
    ("holds", Kind::U64, Presence::Required),
    ("retargets", Kind::U64, Presence::Required),
    ("epochs_issued", Kind::U64, Presence::Required),
    ("slices_moved", Kind::U64, Presence::Required),
    ("final_ell", Kind::F64, Presence::Required),
    ("movement_budget", Kind::U64, Presence::Required),
];

/// Every section a manifest may carry.
const SECTIONS: [Section; 2] = [
    Section { name: "engine_wire", fields: WIRE_FIELDS, rules: wire_rules },
    Section { name: "engine_controller", fields: CONTROLLER_FIELDS, rules: controller_rules },
];

/// An integer field the walker has already checked.
fn int(section: &Json, key: &str) -> u64 {
    section.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// A float field the walker has already checked.
fn num(section: &Json, key: &str) -> f64 {
    section.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn wire_rules(wire: &Json) -> Result<(), String> {
    if wire.get("listen_addrs").and_then(Json::as_array).is_some_and(<[Json]>::is_empty) {
        return Err("engine_wire.listen_addrs is empty — a wire run has at least one node".into());
    }
    if int(wire, "config_epoch") == 0 {
        return Err(
            "engine_wire.config_epoch is 0 — a provisioned cluster starts at epoch 1".into()
        );
    }
    if let Some(rtt @ Json::Obj(_)) = wire.get("peer_rtt_us") {
        let (min, max) = (int(rtt, "min"), int(rtt, "max"));
        if min > max {
            return Err(format!("peer_rtt_us min {min} exceeds max {max}"));
        }
    }
    if let Some(pipeline @ Json::Obj(_)) = wire.get("pipeline") {
        let (window, in_flight) = (int(pipeline, "window"), int(pipeline, "max_in_flight"));
        if window == 0 || int(pipeline, "wire_batch") == 0 {
            return Err("engine_wire.pipeline window/wire_batch of 0 — even stop-and-wait has \
                        one frame in flight"
                .into());
        }
        if in_flight > window {
            return Err(format!(
                "engine_wire.pipeline claims {in_flight} frames in flight under a window of \
                 {window}"
            ));
        }
        if num(pipeline, "frames_per_op") < 0.0 || num(pipeline, "bytes_per_op") < 0.0 {
            return Err("engine_wire.pipeline per-op costs cannot be negative".into());
        }
    }
    Ok(())
}

fn controller_rules(ctl: &Json) -> Result<(), String> {
    if int(ctl, "movement_budget") == 0 {
        return Err(
            "engine_controller.movement_budget is 0 — no epoch could ever move anything".into()
        );
    }
    if int(ctl, "slices_moved") > 0 && int(ctl, "epochs_issued") == 0 {
        return Err("engine_controller moved slices without issuing an epoch".into());
    }
    if ctl.get("fitted_s").is_some_and(|s| *s != Json::Null) && int(ctl, "refits") == 0 {
        return Err("engine_controller carries a fitted exponent but zero refits".into());
    }
    Ok(())
}

/// Walks `value` against `fields` and returns the copy to store, each
/// number in its table kind so a manifest round-trips through its
/// printed form. A missing key or a wrong type is `MissingKey`, a key
/// the table does not name is `UnknownEngineKey`; both carry the
/// dotted path `path.key`.
fn check(fields: &[Field], value: &Json, path: &str) -> Result<Json, ManifestError> {
    let Json::Obj(entries) = value else {
        return Err(ManifestError::MissingKey(path.to_owned()));
    };
    let mut checked = Vec::with_capacity(entries.len());
    for (key, v) in entries {
        let at = format!("{path}.{key}");
        let Some(&(_, kind, presence)) = fields.iter().find(|(name, ..)| name == key) else {
            return Err(ManifestError::UnknownEngineKey(at));
        };
        let v = match kind {
            _ if *v == Json::Null && presence != Presence::Required => Json::Null,
            Kind::U64 => v.as_u64().map(Json::from).ok_or(ManifestError::MissingKey(at))?,
            Kind::F64 => v.as_f64().map(Json::Num).ok_or(ManifestError::MissingKey(at))?,
            Kind::Strs => match v.as_array() {
                Some(items) if items.iter().all(|item| item.as_str().is_some()) => v.clone(),
                Some(_) => return Err(ManifestError::MissingKey(format!("{at}[]"))),
                None => return Err(ManifestError::MissingKey(at)),
            },
            Kind::Obj(inner) => check(inner, v, &at)?,
        };
        checked.push((key.clone(), v));
    }
    match fields
        .iter()
        .find(|(key, _, presence)| *presence != Presence::Optional && value.get(key).is_none())
    {
        Some((key, ..)) => Err(ManifestError::MissingKey(format!("{path}.{key}"))),
        None => Ok(Json::Obj(checked)),
    }
}

/// The conditions a run was measured under — see [`MANIFEST_SCHEMA`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Emitting tool (`"ccn-bench"`, `"ccn"`, a binary name).
    pub tool: String,
    /// Run name (`"bench"`, `"fig4"`, `"simulate"`, ...).
    pub name: String,
    /// Base RNG seed the run derived its streams from.
    pub seed: u64,
    /// Worker threads the invocation asked for.
    pub requested_threads: usize,
    /// Worker threads actually used after clamping to cores.
    pub effective_threads: usize,
    /// Engine shard-worker threads (`nodes × shards_per_node`), when
    /// the run drove the serving engine. These are *not* subject to
    /// the bench-runner clamp above: the engine oversubscribes cores
    /// deliberately (workers park when idle), so recording them under
    /// `effective_threads` would misstate both numbers.
    pub engine_worker_threads: Option<usize>,
    /// Engine load-generator threads, when the run drove the serving
    /// engine — same distinction as `engine_worker_threads`.
    pub engine_generator_threads: Option<usize>,
    /// Checked engine sections as `(name, object)`, in emission order:
    /// `engine_wire` when the run drove node *processes* over TCP
    /// (mutually exclusive with the two fields above), and
    /// `engine_controller` when a live controller rode the run (which
    /// requires a serving mode).
    pub sections: Vec<(String, Json)>,
    /// Logical CPUs available to the process.
    pub available_cores: usize,
    /// `git describe --always --dirty`, or `"unknown"`.
    pub git: String,
    /// Whether this was a reduced smoke run.
    pub smoke: bool,
    /// Per-phase timings.
    pub phases: Vec<PhaseTiming>,
}

/// Why a JSON document failed to validate as a [`RunManifest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The document is not syntactically valid JSON.
    Parse(JsonError),
    /// The `schema` field is missing or names a different schema.
    WrongSchema(String),
    /// A required key is missing or has the wrong type.
    MissingKey(String),
    /// An `engine_*` key, or a key inside an engine section, that this
    /// schema does not define — a typo or a forged dimension, either
    /// way not a manifest to trust.
    UnknownEngineKey(String),
    /// Engine fields are present but mutually contradictory (a thread
    /// count with no engine phase, wire fields alongside in-process
    /// ones, a lone worker count without its generator count, …).
    Contradiction(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Parse(e) => write!(f, "manifest is not valid json: {e}"),
            ManifestError::WrongSchema(got) => {
                write!(f, "manifest schema is {got:?}, expected {MANIFEST_SCHEMA:?}")
            }
            ManifestError::MissingKey(key) => {
                write!(f, "manifest is missing required key {key:?}")
            }
            ManifestError::UnknownEngineKey(key) => {
                write!(f, "manifest carries unknown engine key {key:?}")
            }
            ManifestError::Contradiction(reason) => {
                write!(f, "manifest engine fields are contradictory: {reason}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl RunManifest {
    /// Captures the current environment for a run: cores and git are
    /// probed, `effective_threads` is derived via the shared clamp,
    /// and phases start empty (attach them with
    /// [`RunManifest::with_phases`]).
    #[must_use]
    pub fn capture(
        tool: &str,
        name: &str,
        seed: u64,
        requested_threads: usize,
        smoke: bool,
    ) -> Self {
        let cores = available_cores();
        RunManifest {
            tool: tool.to_owned(),
            name: name.to_owned(),
            seed,
            requested_threads,
            effective_threads: effective_threads(requested_threads, cores),
            engine_worker_threads: None,
            engine_generator_threads: None,
            sections: Vec::new(),
            available_cores: cores,
            git: git_describe(),
            smoke,
            phases: Vec::new(),
        }
    }

    /// Replaces the phase timings (builder style).
    #[must_use]
    pub fn with_phases(mut self, phases: Vec<PhaseTiming>) -> Self {
        self.phases = phases;
        self
    }

    /// Records the serving engine's own thread counts (builder
    /// style): shard workers and load generators, kept separate from
    /// the bench-runner clamp so neither number misstates the other.
    #[must_use]
    pub fn with_engine_threads(mut self, workers: usize, generators: usize) -> Self {
        self.engine_worker_threads = Some(workers);
        self.engine_generator_threads = Some(generators);
        self
    }

    /// Adds an engine section (builder style): `engine_wire` for a
    /// multi-process run, `engine_controller` for an adaptive one.
    /// Sections are emitted in insertion order; validation walks each
    /// against its field table, then checks its rules and the
    /// cross-section ones (`engine_wire` excludes
    /// [`RunManifest::with_engine_threads`], `engine_controller`
    /// requires one of the two serving modes).
    #[must_use]
    pub fn with_section(mut self, name: &str, section: Json) -> Self {
        self.sections.push((name.to_owned(), section));
        self
    }

    /// Serializes to a single compact line — the form binaries print
    /// as their header.
    #[must_use]
    pub fn to_header_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parses and validates a JSON document as a manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] describing the first syntax, schema, or
    /// missing-key problem found.
    pub fn from_json(text: &str) -> Result<Self, ManifestError> {
        let doc = Json::parse(text).map_err(ManifestError::Parse)?;
        Self::from_value(&doc)
    }

    /// Validates an already-parsed JSON value as a manifest (used when
    /// the manifest is embedded in a larger report).
    ///
    /// # Errors
    ///
    /// [`ManifestError`] for schema or missing-key problems.
    pub fn from_value(doc: &Json) -> Result<Self, ManifestError> {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("<absent>");
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::WrongSchema(schema.to_owned()));
        }
        let str_key = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ManifestError::MissingKey(key.to_owned()))
        };
        let u64_key = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ManifestError::MissingKey(key.to_owned()))
        };
        let phases_json = doc
            .get("phases")
            .and_then(Json::as_array)
            .ok_or_else(|| ManifestError::MissingKey("phases".to_owned()))?;
        let mut phases = Vec::with_capacity(phases_json.len());
        for entry in phases_json {
            let phase = entry
                .get("phase")
                .and_then(Json::as_str)
                .ok_or_else(|| ManifestError::MissingKey("phases[].phase".to_owned()))?
                .to_owned();
            let wall_ms = entry
                .get("wall_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| ManifestError::MissingKey("phases[].wall_ms".to_owned()))?;
            // `events` / `events_per_sec` are optional but must be
            // present as keys (possibly null) so downstream parsers
            // can rely on the shape.
            if entry.get("events").is_none() {
                return Err(ManifestError::MissingKey("phases[].events".to_owned()));
            }
            if entry.get("events_per_sec").is_none() {
                return Err(ManifestError::MissingKey("phases[].events_per_sec".to_owned()));
            }
            let events = entry.get("events").and_then(Json::as_u64);
            phases.push(PhaseTiming { phase, wall_ms, events });
        }

        // Engine-field discipline. The engine dimensions are the part
        // of a manifest most worth forging (they say what actually
        // served the requests), so they get strict checks: no unknown
        // engine keys, every section walked against its field table and
        // its rules, no lone halves of a pair, no serving mode without
        // an engine phase, and never both modes at once.
        let mut sections = Vec::new();
        if let Json::Obj(fields) = doc {
            for (key, value) in fields {
                if !key.starts_with("engine")
                    || matches!(key.as_str(), "engine_worker_threads" | "engine_generator_threads")
                {
                    continue;
                }
                let Some(section) = SECTIONS.iter().find(|s| s.name == key) else {
                    return Err(ManifestError::UnknownEngineKey(key.clone()));
                };
                let checked = check(section.fields, value, key)?;
                (section.rules)(&checked).map_err(ManifestError::Contradiction)?;
                sections.push((key.clone(), checked));
            }
        }
        // Optional, but present-with-wrong-type is an error — only
        // truly absent keys (pre-existing manifests) may be None.
        let opt_u64 = |key: &str| {
            let value = doc.get(key).map(Json::as_u64);
            value.map(|v| v.ok_or_else(|| ManifestError::MissingKey(key.to_owned()))).transpose()
        };
        let engine_worker_threads = opt_u64("engine_worker_threads")?;
        let engine_generator_threads = opt_u64("engine_generator_threads")?;
        if engine_worker_threads.is_some() != engine_generator_threads.is_some() {
            return Err(ManifestError::Contradiction(
                "engine_worker_threads and engine_generator_threads must appear together".into(),
            ));
        }
        let has = |name: &str| sections.iter().any(|(key, _)| key == name);
        let wire = has("engine_wire");
        if wire && engine_worker_threads.is_some() {
            return Err(ManifestError::Contradiction(
                "engine_wire and engine_worker_threads are mutually exclusive — a run serves \
                 either over the wire or in-process, never both"
                    .into(),
            ));
        }
        if has("engine_controller") && engine_worker_threads.is_none() && !wire {
            return Err(ManifestError::Contradiction(
                "engine_controller present without a serving mode — a controller cannot have \
                 steered a run that served nothing"
                    .into(),
            ));
        }
        if (engine_worker_threads.is_some() || wire) && !phases.iter().any(|p| p.events.is_some()) {
            return Err(ManifestError::Contradiction(
                "engine fields present but no phase carries events — nothing was served".into(),
            ));
        }

        Ok(RunManifest {
            tool: str_key("tool")?,
            name: str_key("name")?,
            seed: u64_key("seed")?,
            requested_threads: u64_key("requested_threads")? as usize,
            effective_threads: u64_key("effective_threads")? as usize,
            // Optional: only engine-driving runs record these, and
            // pre-existing manifests predate them entirely.
            #[allow(clippy::cast_possible_truncation)]
            engine_worker_threads: engine_worker_threads.map(|v| v as usize),
            #[allow(clippy::cast_possible_truncation)]
            engine_generator_threads: engine_generator_threads.map(|v| v as usize),
            sections,
            available_cores: u64_key("available_cores")? as usize,
            git: str_key("git")?,
            smoke: doc
                .get("smoke")
                .and_then(Json::as_bool)
                .ok_or_else(|| ManifestError::MissingKey("smoke".to_owned()))?,
            phases,
        })
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .field("schema", MANIFEST_SCHEMA)
            .field("tool", self.tool.as_str())
            .field("name", self.name.as_str())
            .field("seed", self.seed)
            .field("requested_threads", self.requested_threads)
            .field("effective_threads", self.effective_threads);
        // Emitted only when set: non-engine manifests keep their
        // exact pre-existing shape.
        if let Some(workers) = self.engine_worker_threads {
            doc = doc.field("engine_worker_threads", workers);
        }
        if let Some(generators) = self.engine_generator_threads {
            doc = doc.field("engine_generator_threads", generators);
        }
        for (name, section) in &self.sections {
            doc = doc.field(name, section.clone());
        }
        doc.field("available_cores", self.available_cores)
            .field("git", self.git.as_str())
            .field("smoke", self.smoke)
            .field("phases", Json::Arr(self.phases.iter().map(ToJson::to_json).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps_to_cores() {
        // 4 requested threads on 1 core.
        assert_eq!(effective_threads(4, 1), 1);
        assert_eq!(effective_threads(2, 8), 2);
        assert_eq!(effective_threads(8, 8), 8);
        assert_eq!(effective_threads(0, 8), 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn capture_is_consistent_with_environment() {
        let m = RunManifest::capture("ccn-bench", "unit", 42, 64, true);
        assert_eq!(m.available_cores, available_cores());
        assert_eq!(m.effective_threads, effective_threads(64, m.available_cores));
        assert!(m.effective_threads <= m.available_cores.max(1));
        assert!(!m.git.is_empty());
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest {
            tool: "ccn-bench".into(),
            name: "bench".into(),
            seed: 7,
            requested_threads: 4,
            effective_threads: 1,
            engine_worker_threads: None,
            engine_generator_threads: None,
            sections: Vec::new(),
            available_cores: 1,
            git: "abc1234-dirty".into(),
            smoke: true,
            phases: vec![
                PhaseTiming { phase: "setup".into(), wall_ms: 1.5, events: None },
                PhaseTiming { phase: "trials".into(), wall_ms: 250.0, events: Some(1000) },
            ],
        };
        let text = m.to_header_line();
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, m);
        // Throughput is derived, not stored: 1000 events / 0.25 s.
        assert_eq!(back.phases[1].events_per_sec(), Some(4000.0));
        assert_eq!(back.phases[0].events_per_sec(), None);
    }

    #[test]
    fn engine_threads_are_optional_and_round_trip() {
        // Without them: absent from the JSON, so pre-existing
        // manifests (and their goldens) keep their exact shape.
        let plain = RunManifest::capture("ccn", "serve-bench", 1, 2, false);
        let rendered = plain.to_header_line();
        assert!(!rendered.contains("engine_worker_threads"), "{rendered}");
        assert_eq!(RunManifest::from_json(&rendered).unwrap(), plain);
        // With them: recorded separately from the runner clamp — an
        // 8-worker engine run on this host must not be clamped.
        // Engine fields require an events-bearing phase (something
        // must actually have been served).
        let plain = plain.with_phases(vec![PhaseTiming {
            phase: "serve".into(),
            wall_ms: 10.0,
            events: Some(100),
        }]);
        let engine = plain.clone().with_engine_threads(8, 2);
        assert_eq!(engine.engine_worker_threads, Some(8));
        let back = RunManifest::from_json(&engine.to_header_line()).unwrap();
        assert_eq!(back, engine);
        assert_eq!(back.engine_worker_threads, Some(8));
        assert_eq!(back.engine_generator_threads, Some(2));
        assert_eq!(back.effective_threads, plain.effective_threads);
    }

    #[test]
    fn validation_rejects_wrong_schema_and_missing_keys() {
        assert!(matches!(RunManifest::from_json("{not json"), Err(ManifestError::Parse(_))));
        assert!(matches!(
            RunManifest::from_json("{\"schema\": \"other/v9\"}"),
            Err(ManifestError::WrongSchema(_))
        ));
        let m = RunManifest::capture("t", "n", 1, 1, false);
        let mut doc = match m.to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!(),
        };
        doc.retain(|(k, _)| k != "seed");
        let text = Json::Obj(doc).to_string_compact();
        assert_eq!(RunManifest::from_json(&text), Err(ManifestError::MissingKey("seed".into())));
    }

    #[test]
    fn validation_requires_per_phase_timing_keys() {
        let text = "{\"schema\": \"ccn.run-manifest/v1\", \"tool\": \"t\", \"name\": \"n\", \
                    \"seed\": 1, \"requested_threads\": 1, \"effective_threads\": 1, \
                    \"available_cores\": 1, \"git\": \"g\", \"smoke\": false, \
                    \"phases\": [{\"phase\": \"p\", \"wall_ms\": 1.0, \"events\": null}]}";
        assert_eq!(
            RunManifest::from_json(text),
            Err(ManifestError::MissingKey("phases[].events_per_sec".into()))
        );
    }

    fn served_phase() -> Vec<PhaseTiming> {
        vec![PhaseTiming { phase: "serve".into(), wall_ms: 10.0, events: Some(100) }]
    }

    /// `section` with `key` set to `value`, replaced in place or
    /// appended.
    fn set(mut section: Json, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut section else { unreachable!() };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => fields.push((key.to_owned(), value)),
        }
        section
    }

    /// `section` without `key`.
    fn without(mut section: Json, key: &str) -> Json {
        let Json::Obj(fields) = &mut section else { unreachable!() };
        fields.retain(|(k, _)| k != key);
        section
    }

    fn sample_rtt() -> Json {
        Json::object().field("min", 40u64).field("mean", 95.5).field("max", 800u64)
    }

    fn sample_pipeline() -> Json {
        Json::object()
            .field("window", 8u64)
            .field("wire_batch", 64u64)
            .field("max_in_flight", 8u64)
            .field("frames_per_op", 0.031)
            .field("bytes_per_op", 9.4)
    }

    fn sample_wire() -> Json {
        Json::object()
            .field("listen_addrs", vec![Json::from("127.0.0.1:4000"), Json::from("127.0.0.1:4001")])
            .field("config_epoch", 2u64)
            .field("peer_rtt_us", sample_rtt())
            .field("pipeline", sample_pipeline())
    }

    fn sample_controller() -> Json {
        Json::object()
            .field("fitted_s", 1.097)
            .field("window_weight", 2_413.5)
            .field("refits", 14u64)
            .field("holds", 9u64)
            .field("retargets", 2u64)
            .field("epochs_issued", 6u64)
            .field("slices_moved", 310u64)
            .field("final_ell", 0.6812)
            .field("movement_budget", 64u64)
    }

    fn wire_run(wire: Json) -> RunManifest {
        RunManifest::capture("ccn", "wire-bench", 3, 1, false)
            .with_phases(served_phase())
            .with_section("engine_wire", wire)
    }

    fn adaptive_in_process_run(controller: Json) -> RunManifest {
        RunManifest::capture("ccn", "serve-bench", 1, 2, false)
            .with_phases(served_phase())
            .with_engine_threads(4, 1)
            .with_section("engine_controller", controller)
    }

    /// Why `m`'s printed form fails validation.
    fn rejection(m: &RunManifest) -> ManifestError {
        RunManifest::from_json(&m.to_header_line()).unwrap_err()
    }

    fn round_trips(m: &RunManifest) {
        assert_eq!(&RunManifest::from_json(&m.to_header_line()).unwrap(), m);
    }

    #[test]
    fn wire_fields_round_trip() {
        let m = wire_run(sample_wire());
        round_trips(&m);
        let (_, wire) = &m.sections[0];
        assert_eq!(wire.get("listen_addrs").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(wire.get("peer_rtt_us").and_then(|rtt| rtt.get("max")), Some(&Json::Int(800)));
        // No measured forwards: peer_rtt_us is null.
        round_trips(&wire_run(set(sample_wire(), "peer_rtt_us", Json::Null)));
        // Pre-pipeline manifests carry a null pipeline, or none at all.
        round_trips(&wire_run(set(sample_wire(), "pipeline", Json::Null)));
        round_trips(&wire_run(without(sample_wire(), "pipeline")));
    }

    #[test]
    fn sections_keep_integral_floats_as_floats() {
        // 2.0 prints as `2` and parses back as an integer; the walker
        // stores it as a float again, so the manifest round-trips.
        let wire = set(
            set(sample_wire(), "pipeline", set(sample_pipeline(), "frames_per_op", 2.0)),
            "peer_rtt_us",
            set(sample_rtt(), "mean", 95.0),
        );
        let m = wire_run(wire)
            .with_section("engine_controller", set(sample_controller(), "final_ell", 1.0));
        let line = m.to_header_line();
        for printed in ["\"frames_per_op\": 2,", "\"mean\": 95,", "\"final_ell\": 1,"] {
            assert!(line.contains(printed), "{printed} not in {line}");
        }
        assert_eq!(RunManifest::from_json(&line).unwrap(), m);
    }

    #[test]
    fn wire_pipeline_validation_rejects_forged_dimensions() {
        for pipeline in [
            // More frames in flight than the window permits.
            set(set(sample_pipeline(), "window", 4u64), "max_in_flight", 9u64),
            // A zero window cannot have driven anything.
            set(set(sample_pipeline(), "window", 0u64), "max_in_flight", 0u64),
            // A negative per-op cost is not a measurement.
            set(sample_pipeline(), "bytes_per_op", -1.0),
        ] {
            let err = rejection(&wire_run(set(sample_wire(), "pipeline", pipeline)));
            assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
        }
    }

    #[test]
    fn controller_fields_round_trip_on_both_serving_modes() {
        let in_process = adaptive_in_process_run(sample_controller());
        round_trips(&in_process);
        let (_, ctl) = &in_process.sections[0];
        assert_eq!(ctl.get("epochs_issued"), Some(&Json::Int(6)));
        round_trips(
            &wire_run(sample_wire()).with_section("engine_controller", sample_controller()),
        );
        // A never-fitted controller (window never filled) carries a
        // null fitted_s.
        let mut unfitted = set(sample_controller(), "fitted_s", Json::Null);
        for key in ["refits", "retargets", "epochs_issued", "slices_moved"] {
            unfitted = set(unfitted, key, 0u64);
        }
        round_trips(&adaptive_in_process_run(unfitted));
    }

    #[test]
    fn validation_rejects_controller_contradictions() {
        // A controller with no serving mode steered nothing.
        let orphan = RunManifest::capture("ccn", "serve-bench", 1, 2, false)
            .with_phases(served_phase())
            .with_section("engine_controller", sample_controller());
        assert!(matches!(rejection(&orphan), ManifestError::Contradiction(_)));
        for (key, value) in [
            // Zero budget could never have moved an epoch's worth.
            ("movement_budget", 0u64),
            // Moved slices imply issued epochs.
            ("epochs_issued", 0),
            // A fit implies at least one refit happened.
            ("refits", 0),
        ] {
            let err = rejection(&adaptive_in_process_run(set(sample_controller(), key, value)));
            assert!(matches!(err, ManifestError::Contradiction(_)), "{key}: {err}");
        }
    }

    #[test]
    fn validation_rejects_unknown_engine_keys() {
        let m = RunManifest::capture("ccn", "serve", 1, 1, false).with_phases(served_phase());
        let Json::Obj(mut fields) = m.to_json() else { unreachable!() };
        fields.push(("engine_worker_treads".into(), Json::Int(8)));
        let err = RunManifest::from_value(&Json::Obj(fields)).unwrap_err();
        assert_eq!(err, ManifestError::UnknownEngineKey("engine_worker_treads".into()));
    }

    #[test]
    fn validation_rejects_unnamed_keys_inside_sections() {
        for (m, path) in [
            (wire_run(set(sample_wire(), "listen_adrs", 1u64)), "engine_wire.listen_adrs"),
            (
                wire_run(set(sample_wire(), "pipeline", set(sample_pipeline(), "windw", 8u64))),
                "engine_wire.pipeline.windw",
            ),
            (
                adaptive_in_process_run(set(sample_controller(), "fitted_gamma", 2.0)),
                "engine_controller.fitted_gamma",
            ),
        ] {
            assert_eq!(rejection(&m), ManifestError::UnknownEngineKey(path.into()));
        }
    }

    #[test]
    fn validation_names_missing_and_mistyped_section_keys_by_path() {
        for (m, path) in [
            (wire_run(without(sample_wire(), "peer_rtt_us")), "engine_wire.peer_rtt_us"),
            (
                wire_run(set(sample_wire(), "peer_rtt_us", without(sample_rtt(), "min"))),
                "engine_wire.peer_rtt_us.min",
            ),
            (
                wire_run(set(sample_wire(), "peer_rtt_us", set(sample_rtt(), "min", "fast"))),
                "engine_wire.peer_rtt_us.min",
            ),
            (wire_run(set(sample_wire(), "config_epoch", 1.5)), "engine_wire.config_epoch"),
            (wire_run(set(sample_wire(), "listen_addrs", Json::Null)), "engine_wire.listen_addrs"),
            (
                wire_run(set(sample_wire(), "listen_addrs", vec![Json::Int(1)])),
                "engine_wire.listen_addrs[]",
            ),
            (
                adaptive_in_process_run(without(sample_controller(), "fitted_s")),
                "engine_controller.fitted_s",
            ),
        ] {
            assert_eq!(rejection(&m), ManifestError::MissingKey(path.into()));
        }
    }

    #[test]
    fn validation_rejects_lone_engine_thread_halves() {
        let m = RunManifest::capture("ccn", "serve", 1, 1, false).with_phases(served_phase());
        let Json::Obj(mut fields) = m.to_json() else { unreachable!() };
        fields.push(("engine_worker_threads".into(), Json::Int(8)));
        let err = RunManifest::from_value(&Json::Obj(fields)).unwrap_err();
        assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
    }

    #[test]
    fn validation_rejects_engine_fields_without_an_events_phase() {
        // engine_worker_threads with no phase that carries events:
        // the manifest claims an engine served but nothing did.
        let m = RunManifest::capture("ccn", "serve", 1, 1, false)
            .with_engine_threads(8, 2)
            .with_phases(vec![PhaseTiming { phase: "setup".into(), wall_ms: 1.0, events: None }]);
        let err = RunManifest::from_value(&m.to_json()).unwrap_err();
        assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
        // Same rule for wire mode.
        let m = RunManifest::capture("ccn", "wire", 1, 1, false)
            .with_section("engine_wire", sample_wire());
        let err = RunManifest::from_value(&m.to_json()).unwrap_err();
        assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
    }

    #[test]
    fn validation_rejects_wire_masquerading_as_in_process() {
        let m = wire_run(sample_wire()).with_engine_threads(8, 2);
        let err = RunManifest::from_value(&m.to_json()).unwrap_err();
        assert!(
            matches!(&err, ManifestError::Contradiction(reason) if reason.contains("mutually")),
            "{err}"
        );
    }

    #[test]
    fn validation_checks_wire_field_shapes() {
        for wire in [
            // Empty address list.
            set(sample_wire(), "listen_addrs", Vec::<Json>::new()),
            // Epoch 0 never exists on a provisioned cluster.
            set(sample_wire(), "config_epoch", 0u64),
            // RTT min above max is a forged measurement.
            set(sample_wire(), "peer_rtt_us", set(sample_rtt(), "min", 900u64)),
        ] {
            let err = RunManifest::from_value(&wire_run(wire).to_json()).unwrap_err();
            assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
        }
    }

    #[test]
    fn phase_clock_records_laps_in_order() {
        let mut clock = PhaseClock::new();
        clock.lap("setup");
        clock.lap_events("run", 10);
        let phases = clock.finish();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, "setup");
        assert_eq!(phases[1].events, Some(10));
        assert!(phases.iter().all(|p| p.wall_ms >= 0.0));
    }
}
