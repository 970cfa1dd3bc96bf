//! The live adaptive-provisioning controller.
//!
//! The paper solves a *static* optimum ℓ* for a known Zipf exponent
//! and names online self-adaptation as future work (§VII). This module
//! closes the loop against the serving engine:
//!
//! 1. **Sample** — a [`RankTap`] rides the admission path: per-node
//!    single-writer overwrite rings record a strided sample of offered
//!    request ranks for two relaxed atomic stores each, so the hot
//!    path pays nothing measurable and never takes a lock.
//! 2. **Re-fit** — each controller tick drains the tap into a
//!    [`ccn_zipf::StreamingFit`] decayed window and re-estimates the
//!    exponent from the window's sufficient statistics (no sample is
//!    ever re-sorted).
//! 3. **Re-solve** — the fitted ŝ feeds the paper's exact optimum
//!    (`ccn_model::CacheModel::optimal_exact`); the controller
//!    retargets only when the new ℓ* moved by more than a hysteresis
//!    threshold, so estimation noise never flaps the layout.
//! 4. **Re-slice incrementally** — a retarget is never applied in one
//!    jump. The layout delta is split into a *chain* of config epochs
//!    by linear interpolation of the slice boundaries, each epoch
//!    moving at most [`ControllerConfig::movement_budget`] slots, and
//!    each installed as one config epoch
//!    ([`crate::Cluster::apply_layout`] in process, the `ConfigEpoch`
//!    push on the wire), under which only a provisioned node whose
//!    prefix or slice moved rebuilds its store — so warm caches
//!    survive, and `offered == completed + shed` stays exact.
//!
//! The planner ([`Controller`]) is transport-agnostic: it turns
//! observed ranks into a sequence of [`LayoutStep`]s. Both tiers run it
//! through one adaptive runner (tap, cursor, ticker, error policy)
//! and differ only in how a step is installed: [`ClusterController`]
//! applies it to an in-process [`Cluster`], the wire driver in
//! [`crate::net`] pushes it to every live node.
//!
//! # Budget guarantee
//!
//! For boundaries interpolated over `K` steps, each step moves each of
//! the `n + 1` slice boundaries by at most `|Δᵢ|/K + 1` slots, and
//! every router re-fetches prefix growth independently. The chain
//! length is chosen as `K = ceil(W′ / (B − 3n))` with
//! `W′ = n·|Δ₀| + 2·Σ|Δᵢ|` (a conservative overcount of the true
//! movement), which bounds every step's total movement by `B`. The
//! constructor therefore requires `B ≥ 3n + 1`; tests verify the
//! per-step bound against the exact [`ccn_coord::LayoutDelta`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccn_coord::{LayoutDelta, RouterAssignment};
use ccn_sim::ContentId;
use ccn_zipf::StreamingFit;

use crate::cluster::{Cluster, StorePolicy};
use crate::error::EngineError;
use crate::layout::Layout;
use crate::pad::CachePadded;

/// One node's sampling lane: a fixed overwrite ring with exactly one
/// writer (the generator lane that owns the node) and one reader (the
/// controller). Overwrite semantics — the controller reads whatever
/// survived since its last drain; a slow controller loses old samples,
/// never blocks the writer.
struct TapLane {
    /// Requests seen on this lane (pre-stride).
    seen: AtomicU64,
    /// Monotone count of samples ever written; `slots[head % len]` is
    /// the next write position.
    head: AtomicU64,
    slots: Vec<AtomicU64>,
}

/// A lock-free sampled tap on the admission path.
///
/// Created by the adaptive runner and fed by the load's producers
/// (the cluster's admission path, the wire drivers); every batch records
/// a 1-in-`sample_every` stride of its ranks. All stores are relaxed
/// except the head publish — torn values are impossible (`u64` slots)
/// and a racily overwritten sample only perturbs the window by one
/// observation.
pub struct RankTap {
    lanes: Vec<CachePadded<TapLane>>,
    sample_every: u64,
}

/// The reader's position in each tap lane. One cursor per reader.
#[derive(Debug, Clone)]
pub struct TapCursor {
    heads: Vec<u64>,
}

impl RankTap {
    /// A tap with one lane per node, each holding up to `capacity`
    /// samples, recording every `sample_every`-th request.
    ///
    /// # Errors
    ///
    /// Rejects zero nodes, zero capacity, or a zero stride.
    pub fn new(nodes: usize, capacity: usize, sample_every: u64) -> Result<Self, EngineError> {
        if nodes == 0 || capacity == 0 || sample_every == 0 {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "rank tap needs nodes >= 1, capacity >= 1, stride >= 1 \
                     (got {nodes}, {capacity}, {sample_every})"
                ),
            });
        }
        let lanes = (0..nodes)
            .map(|_| {
                CachePadded::new(TapLane {
                    seen: AtomicU64::new(0),
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
                })
            })
            .collect();
        Ok(Self { lanes, sample_every })
    }

    /// Number of per-node lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Records one offered request's rank on `node`'s lane (strided).
    /// Must only be called by the node's single producer thread.
    #[inline]
    pub fn record(&self, node: usize, content: ContentId) {
        let lane = &self.lanes[node];
        // Single writer per lane: load + store beats fetch_add.
        let seen = lane.seen.load(Ordering::Relaxed) + 1;
        lane.seen.store(seen, Ordering::Relaxed);
        if !seen.is_multiple_of(self.sample_every) {
            return;
        }
        let head = lane.head.load(Ordering::Relaxed);
        let at = (head % self.slots_len()) as usize;
        lane.slots[at].store(content.rank(), Ordering::Relaxed);
        // Release-publish the slot write before advancing the head.
        lane.head.store(head + 1, Ordering::Release);
    }

    /// Records a whole admitted run (strided, same single-writer
    /// contract as [`RankTap::record`]).
    pub fn record_run(&self, node: usize, contents: &[ContentId]) {
        for &content in contents {
            self.record(node, content);
        }
    }

    /// A fresh cursor positioned at "now" for lanes written so far.
    #[must_use]
    pub fn cursor(&self) -> TapCursor {
        TapCursor { heads: vec![0; self.lanes.len()] }
    }

    /// Drains every sample written since the cursor's last visit into
    /// `out` (appending). Samples overwritten in the interim are lost,
    /// not re-read.
    pub fn drain(&self, cursor: &mut TapCursor, out: &mut Vec<u64>) {
        for (lane, last) in self.lanes.iter().zip(cursor.heads.iter_mut()) {
            let head = lane.head.load(Ordering::Acquire);
            let start = (*last).max(head.saturating_sub(self.slots_len()));
            for i in start..head {
                out.push(lane.slots[(i % self.slots_len()) as usize].load(Ordering::Relaxed));
            }
            *last = head;
        }
    }

    fn slots_len(&self) -> u64 {
        self.lanes[0].slots.len() as u64
    }
}

/// Tuning of the adaptive loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Trade-off weight `α` for the model re-solve.
    pub alpha: f64,
    /// Per-tick decay of the observation window (see
    /// [`ccn_zipf::StreamingFit`]).
    pub decay: f64,
    /// Minimum decayed window weight before a fit is trusted.
    pub min_window: f64,
    /// Retarget only when `|ℓ_new − ℓ_current|` exceeds this.
    pub hysteresis: f64,
    /// Maximum slots any single config epoch may move (`B`). Must be
    /// at least `3·nodes + 1` for the chain bound to hold.
    pub movement_budget: u64,
    /// Record every `sample_every`-th offered request into the tap.
    pub sample_every: u64,
    /// Per-lane tap ring capacity.
    pub tap_capacity: usize,
    /// Cadence of the adaptive runner's ticker (ignored by
    /// synchronous [`ClusterController::step`] calls).
    pub tick_interval: Duration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            alpha: 0.9,
            decay: 0.8,
            min_window: 2_000.0,
            hysteresis: 0.05,
            movement_budget: 256,
            sample_every: 4,
            tap_capacity: 4_096,
            tick_interval: Duration::from_millis(50),
        }
    }
}

impl ControllerConfig {
    pub(crate) fn validate(&self, nodes: usize) -> Result<(), EngineError> {
        let reject = |reason: String| Err(EngineError::InvalidConfig { reason });
        if nodes < 2 {
            return reject("adaptive control needs nodes >= 2 (the model requires n > 1)".into());
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return reject(format!("decay {} must be in (0, 1]", self.decay));
        }
        if !(self.min_window > 0.0 && self.min_window.is_finite()) {
            return reject(format!("min_window {} must be finite and > 0", self.min_window));
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis.is_finite()) {
            return reject(format!("hysteresis {} must be finite and >= 0", self.hysteresis));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return reject(format!("alpha {} must be in [0, 1]", self.alpha));
        }
        let floor = 3 * nodes as u64 + 1;
        if self.movement_budget < floor {
            return reject(format!(
                "movement_budget {} must be >= 3*nodes + 1 = {floor} \
                 for the per-epoch bound to hold",
                self.movement_budget
            ));
        }
        if self.sample_every == 0 || self.tap_capacity == 0 {
            return reject("sample_every and tap_capacity must be >= 1".into());
        }
        Ok(())
    }
}

/// One decision the controller took, in order. The full log is part of
/// [`ControllerReport`] and lands in the bench manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerDecision {
    /// The decayed window was too light to trust a fit.
    InsufficientWindow {
        /// Window weight at the time.
        weight: f64,
    },
    /// A fit landed within the hysteresis band; nothing changed.
    Hold {
        /// Freshly fitted exponent.
        fitted_s: f64,
        /// ℓ* the fit implied.
        candidate_ell: f64,
    },
    /// The optimum moved: a new epoch chain was planned.
    Retarget {
        /// Freshly fitted exponent.
        fitted_s: f64,
        /// The new target coordination level.
        target_ell: f64,
        /// Epochs the transition was split into.
        steps: usize,
        /// Exact total slots the whole chain moves.
        total_move: u64,
    },
    /// One chain epoch was issued.
    ChainStep {
        /// Exact slots this epoch moved.
        moved_slots: u64,
        /// Epochs still pending after this one.
        remaining: usize,
    },
}

impl std::fmt::Display for ControllerDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InsufficientWindow { weight } => write!(f, "window:{weight:.1}"),
            Self::Hold { fitted_s, candidate_ell } => {
                write!(f, "hold:s={fitted_s:.4},ell={candidate_ell:.4}")
            }
            Self::Retarget { fitted_s, target_ell, steps, total_move } => {
                write!(
                    f,
                    "retarget:s={fitted_s:.4},ell={target_ell:.4},steps={steps},move={total_move}"
                )
            }
            Self::ChainStep { moved_slots, remaining } => {
                write!(f, "step:moved={moved_slots},remaining={remaining}")
            }
        }
    }
}

/// One layout the engine should install next, produced by
/// [`Controller::plan`].
#[derive(Debug, Clone)]
pub struct LayoutStep {
    /// The complete slice layout for this epoch (identity router
    /// order; empty slices allowed mid-chain).
    pub assignments: Vec<RouterAssignment>,
    /// Exact slots moved relative to the previous layout.
    pub moved_slots: u64,
    /// Chain epochs still pending after this one.
    pub remaining: usize,
    /// The planner's most recent fitted exponent when it issued this
    /// step (the wire tier carries it in the `ConfigEpoch` push).
    pub fitted_s: Option<f64>,
}

/// Observability snapshot of the controller, exported through
/// `ccn-obs` into bench manifests.
#[derive(Debug, Clone)]
pub struct ControllerReport {
    /// Most recent fitted exponent (None before the first fit).
    pub fitted_s: Option<f64>,
    /// Decayed window weight at snapshot time.
    pub window_weight: f64,
    /// Raw ranks ever drained into the estimator.
    pub samples_observed: u64,
    /// Fits attempted over a sufficient window.
    pub refits: u64,
    /// Fits that landed within hysteresis.
    pub holds: u64,
    /// Target changes (each spawning an epoch chain).
    pub retargets: u64,
    /// Config epochs issued (chain steps actually installed).
    pub epochs_issued: u64,
    /// Total slots moved across all issued epochs.
    pub slices_moved: u64,
    /// The currently targeted coordination level ℓ.
    pub current_ell: f64,
    /// The per-epoch movement budget in force.
    pub movement_budget: u64,
    /// Chain epochs still pending.
    pub pending_steps: usize,
    /// Every decision taken, in order.
    pub decisions: Vec<ControllerDecision>,
}

/// The transport-agnostic planner: observed ranks in, layout epochs
/// out. Owns the decayed estimator, the hysteresis state, and the
/// pending epoch chain.
pub struct Controller {
    config: ControllerConfig,
    nodes: usize,
    capacity: u64,
    fit: StreamingFit,
    current_ell: f64,
    /// The provisioned layout (its policy unused): a retarget re-slices
    /// its shape.
    provisioned: Layout,
    /// The current layout's slice boundaries ([`Layout::boundaries`]).
    boundaries: Vec<u64>,
    chain: VecDeque<Vec<u64>>,
    fitted_s: Option<f64>,
    refits: u64,
    holds: u64,
    retargets: u64,
    epochs_issued: u64,
    slices_moved: u64,
    decisions: Vec<ControllerDecision>,
}

impl Controller {
    /// A planner for a cluster of `nodes` nodes with per-node
    /// `capacity`, a catalogue of `catalogue` ranks, and an enacted
    /// starting level `initial_ell`.
    ///
    /// # Errors
    ///
    /// Rejects invalid tuning (see [`ControllerConfig`]) and a cluster
    /// shape the serving tiers would reject.
    pub fn new(
        nodes: usize,
        catalogue: u64,
        capacity: u64,
        initial_ell: f64,
        config: ControllerConfig,
    ) -> Result<Self, EngineError> {
        config.validate(nodes)?;
        let provisioned =
            Layout::hybrid(nodes, catalogue, capacity, initial_ell, StorePolicy::Provisioned)?;
        let fit = StreamingFit::new(catalogue, config.decay).map_err(|e| {
            EngineError::InvalidConfig { reason: format!("estimator rejected window: {e}") }
        })?;
        Ok(Self {
            config,
            nodes,
            capacity,
            fit,
            current_ell: initial_ell,
            boundaries: provisioned.boundaries(),
            provisioned,
            chain: VecDeque::new(),
            fitted_s: None,
            refits: 0,
            holds: 0,
            retargets: 0,
            epochs_issued: 0,
            slices_moved: 0,
            decisions: Vec::new(),
        })
    }

    /// The currently targeted coordination level.
    #[must_use]
    pub fn current_ell(&self) -> f64 {
        self.current_ell
    }

    /// Chain epochs still pending.
    #[must_use]
    pub fn pending_steps(&self) -> usize {
        self.chain.len()
    }

    /// Folds one tick's worth of observed ranks into the decayed
    /// window. Out-of-catalogue ranks (impossible from the tap, but
    /// cheap to guard) are dropped.
    pub fn observe(&mut self, ranks: &[u64]) {
        let catalogue = self.fit.catalogue();
        if ranks.iter().all(|&r| r >= 1 && r <= catalogue) {
            let _ = self.fit.observe(ranks);
        } else {
            let valid: Vec<u64> =
                ranks.iter().copied().filter(|&r| r >= 1 && r <= catalogue).collect();
            let _ = self.fit.observe(&valid);
        }
    }

    /// One control tick: advances the pending chain if there is one,
    /// otherwise re-fits and (past hysteresis) plans a new chain.
    /// Returns the next layout to install, if any.
    ///
    /// # Errors
    ///
    /// Propagates model re-solve failures. Estimation failures on a
    /// degenerate window are not errors — the tick just holds.
    pub fn plan(&mut self) -> Result<Option<LayoutStep>, EngineError> {
        if let Some(step) = self.advance_chain() {
            return Ok(Some(step));
        }
        if self.fit.weight() < self.config.min_window {
            self.decisions
                .push(ControllerDecision::InsufficientWindow { weight: self.fit.weight() });
            return Ok(None);
        }
        let Ok(fitted) = self.fit.fit() else {
            self.decisions
                .push(ControllerDecision::InsufficientWindow { weight: self.fit.weight() });
            return Ok(None);
        };
        self.refits += 1;
        // Clamp into the model's admissible domain (s in (0,1)∪(1,2)):
        // the MLE search range is wider, and s = 1 is a pole.
        let mut s = fitted.exponent.clamp(0.05, 1.95);
        if (s - 1.0).abs() < 0.005 {
            s = if fitted.exponent >= 1.0 { 1.005 } else { 0.995 };
        }
        self.fitted_s = Some(s);
        let candidate_ell = self.solve_ell(s)?;
        if (candidate_ell - self.current_ell).abs() <= self.config.hysteresis {
            self.holds += 1;
            self.decisions.push(ControllerDecision::Hold { fitted_s: s, candidate_ell });
            return Ok(None);
        }
        let target = self.provisioned.at_ell(candidate_ell).boundaries();
        let chain = build_chain(&self.boundaries, &target, self.config.movement_budget, self.nodes);
        let total_move = self.moved_slots(&target);
        self.retargets += 1;
        self.decisions.push(ControllerDecision::Retarget {
            fitted_s: s,
            target_ell: candidate_ell,
            steps: chain.len(),
            total_move,
        });
        self.current_ell = candidate_ell;
        self.chain = chain;
        Ok(self.advance_chain())
    }

    /// Snapshot for manifests. The decision log is cloned, not
    /// drained.
    #[must_use]
    pub fn report(&self) -> ControllerReport {
        ControllerReport {
            fitted_s: self.fitted_s,
            window_weight: self.fit.weight(),
            samples_observed: self.fit.observed(),
            refits: self.refits,
            holds: self.holds,
            retargets: self.retargets,
            epochs_issued: self.epochs_issued,
            slices_moved: self.slices_moved,
            current_ell: self.current_ell,
            movement_budget: self.config.movement_budget,
            pending_steps: self.chain.len(),
            decisions: self.decisions.clone(),
        }
    }

    fn advance_chain(&mut self) -> Option<LayoutStep> {
        let next = self.chain.pop_front()?;
        let moved_slots = self.moved_slots(&next);
        self.boundaries = next;
        self.epochs_issued += 1;
        self.slices_moved += moved_slots;
        let remaining = self.chain.len();
        self.decisions.push(ControllerDecision::ChainStep { moved_slots, remaining });
        Some(LayoutStep {
            assignments: self.assignments(&self.boundaries),
            moved_slots,
            remaining,
            fitted_s: self.fitted_s,
        })
    }

    /// The assignments of the layout sliced at `boundaries`.
    fn assignments(&self, boundaries: &[u64]) -> Vec<RouterAssignment> {
        self.provisioned.with_boundaries(boundaries).assignments()
    }

    /// Exact slots moved from the current layout to `boundaries`.
    fn moved_slots(&self, boundaries: &[u64]) -> u64 {
        let (from, to) = (self.assignments(&self.boundaries), self.assignments(boundaries));
        LayoutDelta::between(&from, &to).moved_slots()
    }

    fn solve_ell(&self, s: f64) -> Result<f64, EngineError> {
        let mut builder = ccn_model::ModelParams::builder();
        #[allow(clippy::cast_possible_truncation)]
        builder
            .zipf_exponent(s)
            .routers(self.nodes as u32)
            .catalogue(self.fit.catalogue() as f64)
            .capacity(self.capacity as f64)
            .alpha(self.config.alpha);
        let params = builder.build().map_err(|e| EngineError::InvalidConfig {
            reason: format!("controller re-solve rejected parameters: {e}"),
        })?;
        let model = ccn_model::CacheModel::new(params).map_err(|e| EngineError::InvalidConfig {
            reason: format!("controller re-solve failed: {e}"),
        })?;
        let optimum = model.optimal_exact().map_err(|e| EngineError::InvalidConfig {
            reason: format!("controller re-solve failed: {e}"),
        })?;
        Ok(optimum.ell_star)
    }
}

/// Splits the boundary transition `from → to` into interpolated
/// steps, each moving at most `budget` slots (see the module docs for
/// the bound). Returns the chain *excluding* the starting layout,
/// ending exactly at `to`; empty when the layouts already agree.
fn build_chain(from: &[u64], to: &[u64], budget: u64, nodes: usize) -> VecDeque<Vec<u64>> {
    if from == to {
        return VecDeque::new();
    }
    let deltas: Vec<i64> = from
        .iter()
        .zip(to)
        .map(|(&a, &b)| i64::try_from(b).unwrap_or(i64::MAX) - i64::try_from(a).unwrap_or(0))
        .collect();
    let n = nodes as u64;
    let weight: u64 =
        n * deltas[0].unsigned_abs() + 2 * deltas.iter().map(|d| d.unsigned_abs()).sum::<u64>();
    let effective = budget.saturating_sub(3 * n).max(1);
    let steps = weight.div_ceil(effective).max(1);
    let mut chain = VecDeque::new();
    let mut previous = from.to_vec();
    for t in 1..=steps {
        let layout: Vec<u64> = from
            .iter()
            .zip(&deltas)
            .map(|(&base, &delta)| {
                let offset = (i128::from(delta) * i128::from(t)).div_euclid(i128::from(steps));
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let moved = (i128::from(base) + offset) as u64;
                moved
            })
            .collect();
        if layout != previous {
            previous = layout.clone();
            chain.push_back(layout);
        }
    }
    chain
}

/// The adaptive loop both serving tiers run: a [`Controller`], the
/// [`RankTap`] its samples come from, and the tap's cursor. How a
/// [`LayoutStep`] is installed is the caller's `install` —
/// [`Cluster::apply_layout`] in process, a `ConfigEpoch` push to every
/// live node on the wire — and any error it or the planner returns
/// ends the loop with that error.
pub(crate) struct AdaptiveRunner {
    planner: Controller,
    tap: Arc<RankTap>,
    cursor: TapCursor,
    scratch: Vec<u64>,
}

impl AdaptiveRunner {
    /// `planner` and a fresh tap with one lane per node.
    pub(crate) fn new(planner: Controller) -> Result<Self, EngineError> {
        let config = planner.config;
        let tap = Arc::new(RankTap::new(planner.nodes, config.tap_capacity, config.sample_every)?);
        Ok(Self { cursor: tap.cursor(), planner, tap, scratch: Vec::new() })
    }

    /// The tap the load's producers record into.
    pub(crate) fn tap(&self) -> Arc<RankTap> {
        Arc::clone(&self.tap)
    }

    /// One control tick: drains the tap into the estimator, plans, and
    /// installs the step the planner emits, if any. Returns what
    /// `install` returned.
    pub(crate) fn step<T>(
        &mut self,
        install: impl FnOnce(&LayoutStep) -> Result<T, EngineError>,
    ) -> Result<Option<T>, EngineError> {
        self.scratch.clear();
        self.tap.drain(&mut self.cursor, &mut self.scratch);
        self.planner.observe(&self.scratch);
        self.planner.plan()?.map(|step| install(&step)).transpose()
    }

    /// Installs every pending chain step, observing nothing new, so a
    /// retarget late in the run still lands. Returns the steps issued.
    pub(crate) fn drain_chain<T>(
        &mut self,
        mut install: impl FnMut(&LayoutStep) -> Result<T, EngineError>,
    ) -> Result<u64, EngineError> {
        let mut issued = 0;
        while self.planner.pending_steps() > 0 {
            if let Some(step) = self.planner.plan()? {
                install(&step)?;
                issued += 1;
            }
        }
        Ok(issued)
    }

    /// The ticker: one [`AdaptiveRunner::step`] every `tick_interval`
    /// while `done` says the load is still running, exactly one more
    /// after it flips, then [`AdaptiveRunner::drain_chain`]. Returns
    /// the planner's report, or the first error, which ends the loop.
    pub(crate) fn run<T>(
        mut self,
        done: impl Fn() -> bool,
        mut install: impl FnMut(&LayoutStep) -> Result<T, EngineError>,
    ) -> Result<ControllerReport, EngineError> {
        loop {
            let last = done();
            self.step(&mut install)?;
            if last {
                break;
            }
            std::thread::sleep(self.planner.config.tick_interval);
        }
        self.drain_chain(install)?;
        Ok(self.planner.report())
    }
}

/// Runs `drive` on the calling thread with `runner`, if any, ticking
/// beside it ([`AdaptiveRunner::run`] on its own thread, installing
/// through `install`); `done` flips when `drive` returns. Both serving
/// tiers run their controller this way.
pub(crate) fn drive_beside<R, T>(
    runner: Option<AdaptiveRunner>,
    install: impl FnMut(&LayoutStep) -> Result<T, EngineError> + Send,
    drive: impl FnOnce() -> R,
) -> (R, Option<Result<ControllerReport, EngineError>>) {
    let Some(runner) = runner else { return (drive(), None) };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        let ticker = scope.spawn(move || runner.run(|| done.load(Ordering::Acquire), install));
        let driven = drive();
        done.store(true, Ordering::Release);
        (driven, Some(ticker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))))
    })
}

/// The in-process binding: the adaptive loop with its tap on a
/// [`Cluster`]'s admission path and its steps installed through
/// [`Cluster::apply_layout`].
pub struct ClusterController {
    pub(crate) runner: AdaptiveRunner,
}

impl ClusterController {
    /// Builds the controller for `cluster` and installs its rank tap on
    /// the cluster's admission path. Call before driving load (the tap
    /// only sees requests offered after it is installed).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; rejects a cluster that
    /// already has a tap installed.
    pub fn attach(cluster: &Cluster, config: ControllerConfig) -> Result<Self, EngineError> {
        let cc = cluster.config();
        let planner = Controller::new(cc.nodes, cc.catalogue, cc.capacity, cc.ell, config)?;
        let runner = AdaptiveRunner::new(planner)?;
        cluster.install_tap(runner.tap())?;
        Ok(Self { runner })
    }

    /// Read-only access to the planner.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.runner.planner
    }

    /// One synchronous control tick: drains the tap, feeds the
    /// estimator, and installs the layout the planner emits, if any.
    /// Returns the installed config epoch.
    ///
    /// # Errors
    ///
    /// Propagates re-solve and layout-installation failures.
    pub fn step(&mut self, cluster: &Cluster) -> Result<Option<u64>, EngineError> {
        self.runner.step(|step| cluster.apply_layout(&step.assignments))
    }

    /// Installs every pending chain epoch (at end of run, so a drift
    /// late in the run still converges). Returns epochs issued.
    ///
    /// # Errors
    ///
    /// Propagates layout-installation failures.
    pub fn drain_chain(&mut self, cluster: &Cluster) -> Result<u64, EngineError> {
        self.runner.drain_chain(|step| cluster.apply_layout(&step.assignments))
    }

    /// Planner snapshot for manifests.
    #[must_use]
    pub fn report(&self) -> ControllerReport {
        self.runner.planner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_records_strided_and_drains_once() {
        let tap = RankTap::new(2, 8, 2).unwrap();
        let mut cursor = tap.cursor();
        for rank in 1..=10u64 {
            tap.record(0, ContentId(rank));
        }
        let mut out = Vec::new();
        tap.drain(&mut cursor, &mut out);
        // Every 2nd of ranks 1..=10: 2, 4, 6, 8, 10.
        assert_eq!(out, vec![2, 4, 6, 8, 10]);
        out.clear();
        tap.drain(&mut cursor, &mut out);
        assert!(out.is_empty(), "second drain must see nothing new");
        // Overflow loses oldest samples, never duplicates.
        for rank in 1..=40u64 {
            tap.record(1, ContentId(rank));
        }
        tap.drain(&mut cursor, &mut out);
        assert_eq!(out, vec![26, 28, 30, 32, 34, 36, 38, 40]);
    }

    #[test]
    fn tap_rejects_degenerate_shapes() {
        assert!(RankTap::new(0, 8, 1).is_err());
        assert!(RankTap::new(2, 0, 1).is_err());
        assert!(RankTap::new(2, 8, 0).is_err());
    }

    /// Boundaries of the hybrid layout at `ell`.
    fn boundaries_for(ell: f64, capacity: u64, nodes: usize) -> Vec<u64> {
        let layout = Layout::hybrid(nodes, 10_000, capacity, ell, StorePolicy::Provisioned);
        layout.unwrap().boundaries()
    }

    fn assignments_from(boundaries: &[u64]) -> Vec<RouterAssignment> {
        let nodes = boundaries.len() - 1;
        let shape = Layout::hybrid(nodes, 10_000, 100, 0.0, StorePolicy::Provisioned).unwrap();
        shape.with_boundaries(boundaries).assignments()
    }

    fn boundary_chain(from: &[u64], to: &[u64], budget: u64, nodes: usize) -> Vec<Vec<u64>> {
        build_chain(from, to, budget, nodes).into_iter().collect()
    }

    #[test]
    fn chain_reaches_the_target_monotonically() {
        let from = boundaries_for(0.2, 100, 4); // x=20, start 81
        let to = boundaries_for(0.8, 100, 4); // x=80, start 21
        let chain = boundary_chain(&from, &to, 40, 4);
        assert!(!chain.is_empty());
        assert_eq!(chain.last().unwrap(), &to, "chain must land exactly on target");
        for layout in &chain {
            assert!(layout.windows(2).all(|p| p[0] <= p[1]), "non-monotone {layout:?}");
            assert!(layout[0] >= 1, "start below rank 1: {layout:?}");
        }
    }

    #[test]
    fn every_chain_step_respects_the_movement_budget() {
        for (ell_a, ell_b, budget) in
            [(0.1, 0.9, 13u64), (0.9, 0.1, 16), (0.0, 1.0, 40), (0.3, 0.35, 13), (0.5, 0.5, 13)]
        {
            let nodes = 4;
            let from = boundaries_for(ell_a, 100, nodes);
            let to = boundaries_for(ell_b, 100, nodes);
            let chain = boundary_chain(&from, &to, budget, nodes);
            let mut previous = from.clone();
            for layout in &chain {
                let moved =
                    LayoutDelta::between(&assignments_from(&previous), &assignments_from(layout))
                        .moved_slots();
                assert!(
                    moved <= budget,
                    "step moved {moved} > budget {budget} ({ell_a} -> {ell_b}): {layout:?}"
                );
                previous = layout.clone();
            }
            if ell_a != ell_b {
                assert_eq!(chain.last().unwrap(), &to);
            } else {
                assert!(chain.is_empty(), "no-op transition must not emit epochs");
            }
        }
    }

    #[test]
    fn controller_holds_inside_hysteresis_and_retargets_outside() {
        let config = ControllerConfig {
            min_window: 100.0,
            movement_budget: 64,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(4, 10_000, 100, 0.5, config).unwrap();
        // Starved window: no decision beyond "insufficient".
        assert!(ctl.plan().unwrap().is_none());
        assert_eq!(ctl.report().refits, 0);
        // Feed a workload whose optimum (ℓ*(0.7) ≈ 0.91 at n=4,
        // α=0.9) sits far outside the hysteresis band around 0.5.
        let sampler = ccn_zipf::ZipfSampler::new(0.7, 10_000).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        ctl.observe(&sampler.sample_many(&mut rng, 20_000));
        let first = ctl.plan().unwrap();
        assert!(first.is_some(), "a large drift must retarget");
        let report = ctl.report();
        assert_eq!(report.retargets, 1);
        let fitted = report.fitted_s.unwrap();
        assert!((fitted - 0.7).abs() < 0.1, "fit missed the drift: {fitted}");
        assert!((report.current_ell - 0.9).abs() < 0.1, "unexpected target {}", report.current_ell);
        // Drain the chain; each step is budgeted.
        while ctl.pending_steps() > 0 {
            let step = ctl.plan().unwrap().expect("pending chain must advance");
            assert!(step.moved_slots <= 64);
        }
        // Same workload again: the fit lands where we already are.
        ctl.observe(&sampler.sample_many(&mut rng, 20_000));
        assert!(ctl.plan().unwrap().is_none(), "stationary workload must hold");
        let report = ctl.report();
        assert_eq!(report.holds, 1);
        assert_eq!(report.pending_steps, 0);
        assert!(report.slices_moved > 0);
    }

    /// A runner whose tap holds 5 000 ranks of s = 0.7, far from the
    /// provisioned ℓ = 0.5: its first tick retargets into a chain.
    fn drifted_runner(config: ControllerConfig) -> AdaptiveRunner {
        let runner = AdaptiveRunner::new(Controller::new(4, 10_000, 100, 0.5, config).unwrap());
        let runner = runner.unwrap();
        let sampler = ccn_zipf::ZipfSampler::new(0.7, 10_000).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let tap = runner.tap();
        for rank in sampler.sample_many(&mut rng, 5_000) {
            tap.record(0, ContentId(rank));
        }
        runner
    }

    /// The ticker both tiers run: one tick after `done` flips, then the
    /// rest of the chain, one install per issued epoch.
    #[test]
    fn runner_ticks_once_after_done_then_drains_the_chain() {
        let config = ControllerConfig {
            min_window: 100.0,
            movement_budget: 64,
            sample_every: 1,
            tap_capacity: 8_192,
            tick_interval: Duration::from_millis(1),
            ..ControllerConfig::default()
        };
        let done = std::cell::Cell::new(false);
        let mut installed: Vec<LayoutStep> = Vec::new();
        // The first install (tick 1's retarget) flips `done`.
        let report = drifted_runner(config)
            .run(
                || done.get(),
                |step| {
                    done.set(true);
                    installed.push(step.clone());
                    Ok(())
                },
            )
            .unwrap();
        // Every tick ages the window once: tick 1 folded the 5 000
        // samples in, exactly one more tick decayed them.
        assert_eq!(report.window_weight, 5_000.0 * config.decay, "ticks after done != 1");
        assert_eq!(report.retargets, 1);
        assert_eq!(report.pending_steps, 0, "the chain is drained");
        assert_eq!(installed.last().map(|s| s.remaining), Some(0));
        assert!(installed.len() >= 3, "a multi-step chain: {} steps", installed.len());
        assert_eq!(installed.len() as u64, report.epochs_issued);
        assert!(installed.iter().all(|s| s.fitted_s == report.fitted_s));

        // An install error ends the run with that error.
        let refused = EngineError::InvalidConfig { reason: "install refused".into() };
        let mut calls = 0;
        let err = drifted_runner(config)
            .run(
                || false,
                |_| {
                    calls += 1;
                    if calls == 2 {
                        Err(refused.clone())
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, refused);
        assert_eq!(calls, 2, "nothing is installed after the error");
    }

    #[test]
    fn controller_rejects_undersized_budgets() {
        let config = ControllerConfig { movement_budget: 12, ..ControllerConfig::default() };
        // 4 nodes need >= 13.
        assert!(Controller::new(4, 10_000, 100, 0.5, config).is_err());
        let config = ControllerConfig { movement_budget: 13, ..ControllerConfig::default() };
        assert!(Controller::new(4, 10_000, 100, 0.5, config).is_ok());
    }
}
