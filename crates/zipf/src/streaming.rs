//! Streaming (decayed-window) Zipf exponent estimation.
//!
//! An online controller refitting every tick cannot afford to re-walk
//! its whole sample. The MLE's negative log-likelihood
//! `s·Σln(k) + m·ln(H_{N,s})` depends on the observations only through
//! two scalars — the log-rank sum and the sample count — so an
//! exponentially decayed window needs just those two moments.
//! [`StreamingFit`] keeps them, applies the decay once per observation
//! batch, and runs the golden-section search of [`crate::fit`] on
//! demand.
//!
//! With `decay == 1.0` and a single batch, [`StreamingFit::fit`] is
//! bit-identical to a batch MLE over that batch (the moments are the
//! batch's own Σ ln k and m); with `decay < 1.0` old batches fade
//! geometrically, so the estimate tracks popularity drift at a rate
//! set by the decay and the batch cadence.

use crate::error::ZipfError;
use crate::fit::{fit_from_moments, FitResult};

/// Exponentially decayed sufficient statistics for the Zipf MLE.
#[derive(Debug, Clone)]
pub struct StreamingFit {
    catalogue: u64,
    decay: f64,
    sum_log: f64,
    weight: f64,
    observed: u64,
}

impl StreamingFit {
    /// Creates an estimator over a catalogue of `catalogue` ranks with
    /// per-batch decay factor `decay` (each [`StreamingFit::observe`]
    /// call multiplies the accumulated window by `decay` before adding
    /// the new batch; `1.0` means an ever-growing window).
    ///
    /// # Errors
    ///
    /// [`ZipfError::InvalidCatalogue`] for `catalogue == 0`;
    /// [`ZipfError::InvalidExponent`] (reused for the decay knob) when
    /// `decay` is not in `(0, 1]`.
    pub fn new(catalogue: u64, decay: f64) -> Result<Self, ZipfError> {
        if catalogue == 0 {
            return Err(ZipfError::InvalidCatalogue { n: 0.0 });
        }
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(ZipfError::InvalidExponent {
                s: decay,
                constraint: "window decay must lie in (0, 1]",
            });
        }
        Ok(Self { catalogue, decay, sum_log: 0.0, weight: 0.0, observed: 0 })
    }

    /// The catalogue size ranks are validated against.
    #[must_use]
    pub fn catalogue(&self) -> u64 {
        self.catalogue
    }

    /// Current decayed window weight (the effective sample count the
    /// next [`StreamingFit::fit`] will trust).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Total raw observations ever fed in (not decayed).
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Folds one batch of observed ranks into the window: the existing
    /// moments are decayed once, then the batch is added at full
    /// weight. An empty batch still applies the decay (a quiet tick
    /// ages the window).
    ///
    /// # Errors
    ///
    /// [`ZipfError::RankOutOfRange`] when any rank falls outside
    /// `[1, catalogue]`; the window is left untouched (the batch is
    /// validated before any moment is updated).
    pub fn observe(&mut self, ranks: &[u64]) -> Result<(), ZipfError> {
        let mut batch_sum = 0.0;
        for &k in ranks {
            if k == 0 || k > self.catalogue {
                #[allow(clippy::cast_precision_loss)]
                return Err(ZipfError::RankOutOfRange { rank: k as f64, n: self.catalogue as f64 });
            }
            #[allow(clippy::cast_precision_loss)]
            {
                batch_sum += (k as f64).ln();
            }
        }
        self.sum_log = self.sum_log * self.decay + batch_sum;
        #[allow(clippy::cast_precision_loss)]
        {
            self.weight = self.weight * self.decay + ranks.len() as f64;
        }
        self.observed += ranks.len() as u64;
        Ok(())
    }

    /// Maximum-likelihood exponent of the current decayed window.
    ///
    /// # Errors
    ///
    /// [`ZipfError::DegenerateSample`] when the window is empty (no
    /// batch observed yet, or the weight decayed to nothing).
    pub fn fit(&self) -> Result<FitResult, ZipfError> {
        fit_from_moments(self.sum_log, self.weight, self.catalogue)
    }

    /// Drops the window (moments back to zero; the raw observation
    /// counter is kept).
    pub fn reset(&mut self) {
        self.sum_log = 0.0;
        self.weight = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::ZipfSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CATALOGUE: u64 = 10_000;

    fn draw(s: f64, count: usize, seed: u64) -> Vec<u64> {
        let sampler = ZipfSampler::new(s, CATALOGUE).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        sampler.sample_many(&mut rng, count)
    }

    #[test]
    fn undecayed_single_batch_matches_batch_mle() {
        let ranks = draw(0.8, 20_000, 7);
        let sum_log: f64 = ranks.iter().map(|&k| (k as f64).ln()).sum();
        let batch = fit_from_moments(sum_log, ranks.len() as f64, CATALOGUE).unwrap();
        let mut stream = StreamingFit::new(CATALOGUE, 1.0).unwrap();
        stream.observe(&ranks).unwrap();
        let online = stream.fit().unwrap();
        assert!(
            (online.exponent - batch.exponent).abs() < 1e-12,
            "streaming {} vs batch {}",
            online.exponent,
            batch.exponent
        );
        assert_eq!(online.samples, ranks.len());
    }

    #[test]
    fn decayed_window_tracks_popularity_drift() {
        let mut stream = StreamingFit::new(CATALOGUE, 0.7).unwrap();
        for seed in 0..5 {
            stream.observe(&draw(0.7, 8_000, seed)).unwrap();
        }
        let before = stream.fit().unwrap().exponent;
        assert!((before - 0.7).abs() < 0.05, "pre-drift estimate {before}");
        // The workload steepens; decayed history must fade fast enough
        // for the estimate to cross most of the gap within a few
        // batches.
        for seed in 100..114 {
            stream.observe(&draw(1.4, 8_000, seed)).unwrap();
        }
        let after = stream.fit().unwrap().exponent;
        assert!((after - 1.4).abs() < 0.05, "post-drift estimate {after}");
        assert!(stream.observed() == 19 * 8_000);
    }

    #[test]
    fn growing_window_lags_drift_compared_to_decayed() {
        let mut decayed = StreamingFit::new(CATALOGUE, 0.5).unwrap();
        let mut growing = StreamingFit::new(CATALOGUE, 1.0).unwrap();
        for seed in 0..4 {
            let batch = draw(0.7, 10_000, seed);
            decayed.observe(&batch).unwrap();
            growing.observe(&batch).unwrap();
        }
        for seed in 50..54 {
            let batch = draw(1.4, 10_000, seed);
            decayed.observe(&batch).unwrap();
            growing.observe(&batch).unwrap();
        }
        let fast = decayed.fit().unwrap().exponent;
        let slow = growing.fit().unwrap().exponent;
        assert!(
            (fast - 1.4).abs() < (slow - 1.4).abs(),
            "decayed window {fast} must track drift closer than growing window {slow}"
        );
    }

    #[test]
    fn empty_window_is_a_degenerate_sample() {
        let stream = StreamingFit::new(CATALOGUE, 0.9).unwrap();
        assert!(matches!(stream.fit(), Err(ZipfError::DegenerateSample { .. })));
        // A quiet tick ages the window but keeps it fittable...
        let mut stream = StreamingFit::new(CATALOGUE, 0.9).unwrap();
        stream.observe(&draw(0.8, 1_000, 1)).unwrap();
        stream.observe(&[]).unwrap();
        assert!(stream.fit().is_ok());
        assert!((stream.weight() - 900.0).abs() < 1e-9);
        // ...and reset empties it again.
        stream.reset();
        assert!(matches!(stream.fit(), Err(ZipfError::DegenerateSample { .. })));
    }

    #[test]
    fn out_of_range_ranks_are_rejected_without_corrupting_the_window() {
        let mut stream = StreamingFit::new(CATALOGUE, 1.0).unwrap();
        stream.observe(&draw(0.8, 1_000, 2)).unwrap();
        let weight = stream.weight();
        assert!(matches!(stream.observe(&[1, 2, 0]), Err(ZipfError::RankOutOfRange { .. })));
        assert!(matches!(stream.observe(&[CATALOGUE + 1]), Err(ZipfError::RankOutOfRange { .. })));
        assert!((stream.weight() - weight).abs() < 1e-12, "rejected batch must not mutate");
    }

    #[test]
    fn construction_rejects_degenerate_knobs() {
        assert!(matches!(StreamingFit::new(0, 0.9), Err(ZipfError::InvalidCatalogue { .. })));
        for decay in [0.0, -0.1, 1.1, f64::NAN] {
            assert!(
                matches!(
                    StreamingFit::new(CATALOGUE, decay),
                    Err(ZipfError::InvalidExponent { .. })
                ),
                "decay {decay} must be rejected"
            );
        }
    }
}
