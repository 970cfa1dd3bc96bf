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

/// Peer-forward round-trip statistics measured over real sockets,
/// microseconds — only a wire-mode (multi-process) run can produce
/// these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerRttUs {
    /// Fastest observed forward round-trip.
    pub min: u64,
    /// Mean forward round-trip.
    pub mean: f64,
    /// Slowest observed forward round-trip.
    pub max: u64,
}

/// Wire-tier dimensions of a run: present iff the run drove real node
/// processes over TCP. Mutually exclusive with the in-process
/// `engine_worker_threads` / `engine_generator_threads` pair — a
/// manifest carries one serving mode, never both, so a wire-mode
/// report cannot masquerade as an in-process one (or vice versa).
#[derive(Debug, Clone, PartialEq)]
pub struct WireManifest {
    /// Listen address of every node process, indexed by node id.
    pub listen_addrs: Vec<String>,
    /// Final config epoch the cluster converged on (1 + one bump per
    /// revival).
    pub config_epoch: u64,
    /// Measured peer-forward RTT stats, when any forward completed.
    pub peer_rtt_us: Option<PeerRttUs>,
    /// Driver-side pipelining dimensions and wire efficiency. `None`
    /// for manifests written before the pipelined wire existed.
    pub pipeline: Option<WirePipelineManifest>,
}

/// Pipelined-wire dimensions of a run: the credit window it was
/// driven under and the realized per-operation wire cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePipelineManifest {
    /// Configured credit window (frames in flight per connection);
    /// 1 = stop-and-wait.
    pub window: u64,
    /// Peer-forward coalescing cap (misses per `PeerForwardBatch`).
    pub wire_batch: u64,
    /// High-water mark of frames actually in flight — ≤ `window`.
    pub max_in_flight: u64,
    /// Wire frames (both directions) per offered request.
    pub frames_per_op: f64,
    /// Wire bytes (both directions) per offered request.
    pub bytes_per_op: f64,
}

/// Adaptive-controller dimensions of a run: present iff a live
/// controller rode the run, re-fitting the popularity exponent and
/// re-slicing the cluster through incremental config epochs. Composes
/// with either serving mode (in-process or wire) but requires one —
/// a controller cannot have steered a run that served nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerManifest {
    /// Final fitted Zipf exponent (`None` = the decayed sample window
    /// never reached `min_window`, so no fit happened).
    pub fitted_s: Option<f64>,
    /// Decayed sample-window weight when the run ended.
    pub window_weight: f64,
    /// Exponent re-fits performed.
    pub refits: u64,
    /// Re-fits absorbed by hysteresis (target unchanged).
    pub holds: u64,
    /// Times the controller adopted a new target ℓ*.
    pub retargets: u64,
    /// Incremental config epochs issued (each ≤ the movement budget).
    pub epochs_issued: u64,
    /// Store slots moved across all issued epochs.
    pub slices_moved: u64,
    /// Coordination level ℓ the run converged on.
    pub final_ell: f64,
    /// Per-epoch movement budget B the chain was split under.
    pub movement_budget: u64,
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
    /// Wire-tier dimensions, when the run drove node *processes* over
    /// TCP; mutually exclusive with the two fields above.
    pub engine_wire: Option<WireManifest>,
    /// Adaptive-controller dimensions, when a live controller rode the
    /// run; requires one of the serving modes above.
    pub engine_controller: Option<ControllerManifest>,
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
    /// An `engine_*` key this schema does not define — a typo or a
    /// forged dimension, either way not a manifest to trust.
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
            engine_wire: None,
            engine_controller: None,
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

    /// Records the wire-tier dimensions of a multi-process run
    /// (builder style). Mutually exclusive with
    /// [`RunManifest::with_engine_threads`] — validation rejects a
    /// manifest carrying both serving modes.
    #[must_use]
    pub fn with_wire(mut self, wire: WireManifest) -> Self {
        self.engine_wire = Some(wire);
        self
    }

    /// Records the adaptive-controller dimensions of a run (builder
    /// style). Requires a serving mode —
    /// [`RunManifest::with_engine_threads`] or
    /// [`RunManifest::with_wire`] — or validation rejects the
    /// manifest.
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerManifest) -> Self {
        self.engine_controller = Some(controller);
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
        // engine keys, no lone halves of a pair, no serving mode
        // without an engine phase, and never both modes at once.
        if let Json::Obj(fields) = doc {
            for (key, _) in fields {
                if key.starts_with("engine")
                    && !matches!(
                        key.as_str(),
                        "engine_worker_threads"
                            | "engine_generator_threads"
                            | "engine_wire"
                            | "engine_controller"
                    )
                {
                    return Err(ManifestError::UnknownEngineKey(key.clone()));
                }
            }
        }
        // Optional, but present-with-wrong-type is an error — only
        // truly absent keys (pre-existing manifests) may be None.
        let opt_u64 = |key: &str| -> Result<Option<u64>, ManifestError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => {
                    v.as_u64().map(Some).ok_or_else(|| ManifestError::MissingKey(key.to_owned()))
                }
            }
        };
        let engine_worker_threads = opt_u64("engine_worker_threads")?;
        let engine_generator_threads = opt_u64("engine_generator_threads")?;
        if engine_worker_threads.is_some() != engine_generator_threads.is_some() {
            return Err(ManifestError::Contradiction(
                "engine_worker_threads and engine_generator_threads must appear together".into(),
            ));
        }
        let engine_wire = match doc.get("engine_wire") {
            None => None,
            Some(wire) => {
                let addrs_json =
                    wire.get("listen_addrs").and_then(Json::as_array).ok_or_else(|| {
                        ManifestError::MissingKey("engine_wire.listen_addrs".to_owned())
                    })?;
                if addrs_json.is_empty() {
                    return Err(ManifestError::Contradiction(
                        "engine_wire.listen_addrs is empty — a wire run has at least one node"
                            .into(),
                    ));
                }
                let mut listen_addrs = Vec::with_capacity(addrs_json.len());
                for addr in addrs_json {
                    listen_addrs.push(
                        addr.as_str()
                            .ok_or_else(|| {
                                ManifestError::MissingKey("engine_wire.listen_addrs[]".to_owned())
                            })?
                            .to_owned(),
                    );
                }
                let config_epoch =
                    wire.get("config_epoch").and_then(Json::as_u64).ok_or_else(|| {
                        ManifestError::MissingKey("engine_wire.config_epoch".to_owned())
                    })?;
                if config_epoch == 0 {
                    return Err(ManifestError::Contradiction(
                        "engine_wire.config_epoch is 0 — a provisioned cluster starts at epoch 1"
                            .into(),
                    ));
                }
                let peer_rtt_us = match wire.get("peer_rtt_us") {
                    None => {
                        return Err(ManifestError::MissingKey("engine_wire.peer_rtt_us".to_owned()))
                    }
                    Some(Json::Null) => None,
                    Some(rtt) => {
                        let field = |key: &str| {
                            rtt.get(key).and_then(Json::as_u64).ok_or_else(|| {
                                ManifestError::MissingKey(format!("engine_wire.peer_rtt_us.{key}"))
                            })
                        };
                        let min = field("min")?;
                        let max = field("max")?;
                        let mean = rtt.get("mean").and_then(Json::as_f64).ok_or_else(|| {
                            ManifestError::MissingKey("engine_wire.peer_rtt_us.mean".to_owned())
                        })?;
                        if min > max {
                            return Err(ManifestError::Contradiction(format!(
                                "peer_rtt_us min {min} exceeds max {max}"
                            )));
                        }
                        Some(PeerRttUs { min, mean, max })
                    }
                };
                // Absent *or* null: manifests written before the
                // pipelined wire carry no pipeline block.
                let pipeline = match wire.get("pipeline") {
                    None | Some(Json::Null) => None,
                    Some(p) => {
                        let field = |key: &str| {
                            p.get(key).and_then(Json::as_u64).ok_or_else(|| {
                                ManifestError::MissingKey(format!("engine_wire.pipeline.{key}"))
                            })
                        };
                        let f64_field = |key: &str| {
                            p.get(key).and_then(Json::as_f64).ok_or_else(|| {
                                ManifestError::MissingKey(format!("engine_wire.pipeline.{key}"))
                            })
                        };
                        let window = field("window")?;
                        let wire_batch = field("wire_batch")?;
                        let max_in_flight = field("max_in_flight")?;
                        if window == 0 || wire_batch == 0 {
                            return Err(ManifestError::Contradiction(
                                "engine_wire.pipeline window/wire_batch of 0 — even \
                                 stop-and-wait has one frame in flight"
                                    .into(),
                            ));
                        }
                        if max_in_flight > window {
                            return Err(ManifestError::Contradiction(format!(
                                "engine_wire.pipeline claims {max_in_flight} frames in flight \
                                 under a window of {window}"
                            )));
                        }
                        let frames_per_op = f64_field("frames_per_op")?;
                        let bytes_per_op = f64_field("bytes_per_op")?;
                        if frames_per_op < 0.0 || bytes_per_op < 0.0 {
                            return Err(ManifestError::Contradiction(
                                "engine_wire.pipeline per-op costs cannot be negative".into(),
                            ));
                        }
                        Some(WirePipelineManifest {
                            window,
                            wire_batch,
                            max_in_flight,
                            frames_per_op,
                            bytes_per_op,
                        })
                    }
                };
                Some(WireManifest { listen_addrs, config_epoch, peer_rtt_us, pipeline })
            }
        };
        if engine_wire.is_some() && engine_worker_threads.is_some() {
            return Err(ManifestError::Contradiction(
                "engine_wire and engine_worker_threads are mutually exclusive — a run serves \
                 either over the wire or in-process, never both"
                    .into(),
            ));
        }
        let engine_controller = match doc.get("engine_controller") {
            None => None,
            Some(ctl) => {
                let field = |key: &str| {
                    ctl.get(key).and_then(Json::as_u64).ok_or_else(|| {
                        ManifestError::MissingKey(format!("engine_controller.{key}"))
                    })
                };
                let f64_field = |key: &str| {
                    ctl.get(key).and_then(Json::as_f64).ok_or_else(|| {
                        ManifestError::MissingKey(format!("engine_controller.{key}"))
                    })
                };
                let fitted_s = match ctl.get("fitted_s") {
                    None => {
                        return Err(ManifestError::MissingKey(
                            "engine_controller.fitted_s".to_owned(),
                        ))
                    }
                    Some(Json::Null) => None,
                    Some(v) => Some(v.as_f64().ok_or_else(|| {
                        ManifestError::MissingKey("engine_controller.fitted_s".to_owned())
                    })?),
                };
                let refits = field("refits")?;
                let epochs_issued = field("epochs_issued")?;
                let slices_moved = field("slices_moved")?;
                let movement_budget = field("movement_budget")?;
                if movement_budget == 0 {
                    return Err(ManifestError::Contradiction(
                        "engine_controller.movement_budget is 0 — no epoch could ever move \
                         anything"
                            .into(),
                    ));
                }
                if slices_moved > 0 && epochs_issued == 0 {
                    return Err(ManifestError::Contradiction(
                        "engine_controller moved slices without issuing an epoch".into(),
                    ));
                }
                if fitted_s.is_some() && refits == 0 {
                    return Err(ManifestError::Contradiction(
                        "engine_controller carries a fitted exponent but zero refits".into(),
                    ));
                }
                Some(ControllerManifest {
                    fitted_s,
                    window_weight: f64_field("window_weight")?,
                    refits,
                    holds: field("holds")?,
                    retargets: field("retargets")?,
                    epochs_issued,
                    slices_moved,
                    final_ell: f64_field("final_ell")?,
                    movement_budget,
                })
            }
        };
        if engine_controller.is_some() && engine_worker_threads.is_none() && engine_wire.is_none() {
            return Err(ManifestError::Contradiction(
                "engine_controller present without a serving mode — a controller cannot have \
                 steered a run that served nothing"
                    .into(),
            ));
        }
        if (engine_worker_threads.is_some() || engine_wire.is_some())
            && !phases.iter().any(|p| p.events.is_some())
        {
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
            engine_wire,
            engine_controller,
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
        if let Some(wire) = &self.engine_wire {
            let rtt = match &wire.peer_rtt_us {
                Some(rtt) => Json::object()
                    .field("min", rtt.min)
                    .field("mean", rtt.mean)
                    .field("max", rtt.max),
                None => Json::Null,
            };
            let pipeline = match &wire.pipeline {
                Some(p) => Json::object()
                    .field("window", p.window)
                    .field("wire_batch", p.wire_batch)
                    .field("max_in_flight", p.max_in_flight)
                    .field("frames_per_op", p.frames_per_op)
                    .field("bytes_per_op", p.bytes_per_op),
                None => Json::Null,
            };
            doc = doc.field(
                "engine_wire",
                Json::object()
                    .field(
                        "listen_addrs",
                        Json::Arr(wire.listen_addrs.iter().map(|a| Json::Str(a.clone())).collect()),
                    )
                    .field("config_epoch", wire.config_epoch)
                    .field("peer_rtt_us", rtt)
                    .field("pipeline", pipeline),
            );
        }
        if let Some(ctl) = &self.engine_controller {
            let fitted = match ctl.fitted_s {
                Some(s) => Json::from(s),
                None => Json::Null,
            };
            doc = doc.field(
                "engine_controller",
                Json::object()
                    .field("fitted_s", fitted)
                    .field("window_weight", ctl.window_weight)
                    .field("refits", ctl.refits)
                    .field("holds", ctl.holds)
                    .field("retargets", ctl.retargets)
                    .field("epochs_issued", ctl.epochs_issued)
                    .field("slices_moved", ctl.slices_moved)
                    .field("final_ell", ctl.final_ell)
                    .field("movement_budget", ctl.movement_budget),
            );
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
            engine_wire: None,
            engine_controller: None,
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

    fn sample_wire() -> WireManifest {
        WireManifest {
            listen_addrs: vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
            config_epoch: 2,
            peer_rtt_us: Some(PeerRttUs { min: 40, mean: 95.5, max: 800 }),
            pipeline: Some(WirePipelineManifest {
                window: 8,
                wire_batch: 64,
                max_in_flight: 8,
                frames_per_op: 0.031,
                bytes_per_op: 9.4,
            }),
        }
    }

    #[test]
    fn wire_fields_round_trip() {
        let m = RunManifest::capture("ccn", "wire-bench", 3, 1, false)
            .with_phases(served_phase())
            .with_wire(sample_wire());
        let back = RunManifest::from_json(&m.to_header_line()).unwrap();
        assert_eq!(back, m);
        let wire = back.engine_wire.expect("wire fields survive");
        assert_eq!(wire.listen_addrs.len(), 2);
        assert_eq!(wire.config_epoch, 2);
        assert_eq!(wire.peer_rtt_us.unwrap().max, 800);
        // No measured forwards: peer_rtt_us serializes as null and
        // round-trips as None.
        let quiet = RunManifest::capture("ccn", "wire-bench", 3, 1, false)
            .with_phases(served_phase())
            .with_wire(WireManifest { peer_rtt_us: None, pipeline: None, ..sample_wire() });
        let back = RunManifest::from_json(&quiet.to_header_line()).unwrap();
        let wire = back.engine_wire.unwrap();
        assert_eq!(wire.peer_rtt_us, None);
        // Pre-pipeline manifests round-trip with no pipeline block.
        assert_eq!(wire.pipeline, None);
    }

    #[test]
    fn wire_pipeline_validation_rejects_forged_dimensions() {
        let base =
            RunManifest::capture("ccn", "wire-bench", 3, 1, false).with_phases(served_phase());
        // More frames in flight than the window permits.
        let m = base.clone().with_wire(WireManifest {
            pipeline: Some(WirePipelineManifest {
                window: 4,
                wire_batch: 64,
                max_in_flight: 9,
                frames_per_op: 0.1,
                bytes_per_op: 1.0,
            }),
            ..sample_wire()
        });
        assert!(matches!(
            RunManifest::from_value(&m.to_json()).unwrap_err(),
            ManifestError::Contradiction(_)
        ));
        // A zero window cannot have driven anything.
        let m = base.with_wire(WireManifest {
            pipeline: Some(WirePipelineManifest {
                window: 0,
                wire_batch: 64,
                max_in_flight: 0,
                frames_per_op: 0.1,
                bytes_per_op: 1.0,
            }),
            ..sample_wire()
        });
        assert!(matches!(
            RunManifest::from_value(&m.to_json()).unwrap_err(),
            ManifestError::Contradiction(_)
        ));
    }

    fn sample_controller() -> ControllerManifest {
        ControllerManifest {
            fitted_s: Some(1.097),
            window_weight: 2_413.5,
            refits: 14,
            holds: 9,
            retargets: 2,
            epochs_issued: 6,
            slices_moved: 310,
            final_ell: 0.6812,
            movement_budget: 64,
        }
    }

    #[test]
    fn controller_fields_round_trip_on_both_serving_modes() {
        let base =
            RunManifest::capture("ccn", "serve-bench", 1, 2, false).with_phases(served_phase());
        let in_process =
            base.clone().with_engine_threads(4, 1).with_controller(sample_controller());
        let back = RunManifest::from_json(&in_process.to_header_line()).unwrap();
        assert_eq!(back, in_process);
        assert_eq!(back.engine_controller.unwrap().epochs_issued, 6);
        let wire = base.with_wire(sample_wire()).with_controller(sample_controller());
        let back = RunManifest::from_json(&wire.to_header_line()).unwrap();
        assert_eq!(back, wire);
        // A never-fitted controller (window never filled) serializes
        // fitted_s as null and round-trips as None.
        let unfitted = ControllerManifest {
            fitted_s: None,
            refits: 0,
            retargets: 0,
            epochs_issued: 0,
            slices_moved: 0,
            ..sample_controller()
        };
        let quiet = RunManifest::capture("ccn", "serve-bench", 1, 2, false)
            .with_phases(served_phase())
            .with_engine_threads(4, 1)
            .with_controller(unfitted);
        let back = RunManifest::from_json(&quiet.to_header_line()).unwrap();
        assert_eq!(back.engine_controller.unwrap().fitted_s, None);
    }

    #[test]
    fn validation_rejects_controller_contradictions() {
        // A controller with no serving mode steered nothing.
        let orphan = RunManifest::capture("ccn", "serve-bench", 1, 2, false)
            .with_phases(served_phase())
            .with_controller(sample_controller());
        assert!(matches!(
            RunManifest::from_json(&orphan.to_header_line()),
            Err(ManifestError::Contradiction(_))
        ));
        let reject = |ctl: ControllerManifest| {
            let m = RunManifest::capture("ccn", "serve-bench", 1, 2, false)
                .with_phases(served_phase())
                .with_engine_threads(4, 1)
                .with_controller(ctl);
            assert!(matches!(
                RunManifest::from_json(&m.to_header_line()),
                Err(ManifestError::Contradiction(_))
            ));
        };
        // Zero budget could never have moved an epoch's worth.
        reject(ControllerManifest { movement_budget: 0, ..sample_controller() });
        // Moved slices imply issued epochs.
        reject(ControllerManifest { epochs_issued: 0, ..sample_controller() });
        // A fit implies at least one refit happened.
        reject(ControllerManifest { refits: 0, ..sample_controller() });
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
        let m = RunManifest::capture("ccn", "wire", 1, 1, false).with_wire(sample_wire());
        let err = RunManifest::from_value(&m.to_json()).unwrap_err();
        assert!(matches!(err, ManifestError::Contradiction(_)), "{err}");
    }

    #[test]
    fn validation_rejects_wire_masquerading_as_in_process() {
        let m = RunManifest::capture("ccn", "wire", 1, 1, false)
            .with_phases(served_phase())
            .with_engine_threads(8, 2)
            .with_wire(sample_wire());
        let err = RunManifest::from_value(&m.to_json()).unwrap_err();
        assert!(
            matches!(&err, ManifestError::Contradiction(reason) if reason.contains("mutually")),
            "{err}"
        );
    }

    #[test]
    fn validation_checks_wire_field_shapes() {
        let base = RunManifest::capture("ccn", "wire", 1, 1, false).with_phases(served_phase());
        // Empty address list.
        let m = base.clone().with_wire(WireManifest {
            listen_addrs: vec![],
            config_epoch: 1,
            peer_rtt_us: None,
            pipeline: None,
        });
        assert!(matches!(
            RunManifest::from_value(&m.to_json()).unwrap_err(),
            ManifestError::Contradiction(_)
        ));
        // Epoch 0 never exists on a provisioned cluster.
        let m = base.clone().with_wire(WireManifest { config_epoch: 0, ..sample_wire() });
        assert!(matches!(
            RunManifest::from_value(&m.to_json()).unwrap_err(),
            ManifestError::Contradiction(_)
        ));
        // RTT min above max is a forged measurement.
        let m = base.with_wire(WireManifest {
            peer_rtt_us: Some(PeerRttUs { min: 900, mean: 95.0, max: 800 }),
            ..sample_wire()
        });
        assert!(matches!(
            RunManifest::from_value(&m.to_json()).unwrap_err(),
            ManifestError::Contradiction(_)
        ));
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
