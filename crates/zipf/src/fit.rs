//! Maximum-likelihood estimation of the Zipf exponent.
//!
//! The discrete Zipf law's negative log-likelihood
//! `s·Σ ln k_i + m·ln H_{N,s}` depends on the sample only through the
//! log-rank sum and the sample weight, and it is unimodal in `s`.
//! [`crate::StreamingFit`] keeps those two moments over a decayed
//! window, and `fit_from_moments` minimizes the likelihood from them
//! by golden-section search. The serving engine's adaptive controller
//! (`ccn_engine::control::Controller`) runs this path on every refit.

use crate::harmonic::generalized_harmonic;
use crate::ZipfError;

/// Result of fitting a Zipf exponent to data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Estimated exponent `s`.
    pub exponent: f64,
    /// Maximized log-likelihood, for comparing fits.
    pub score: f64,
    /// Number of observations used.
    pub samples: usize,
}

/// Search interval for the exponent. Covers the paper's `(0, 2)` range
/// with margin so boundary estimates are detectable.
const S_SEARCH: (f64, f64) = (1e-3, 3.0);
const GOLDEN_TOL: f64 = 1e-9;
const GOLDEN_MAX_ITERS: usize = 200;

/// MLE fit from sufficient statistics: the negative log-likelihood
/// `s·Σln(k) + m·ln(H_{N,s})` depends on the sample only through the
/// (possibly decay-weighted) log-rank sum and the total weight, so a
/// streaming estimator never has to retain or re-walk its window.
///
/// # Errors
///
/// [`ZipfError::InvalidCatalogue`] for `catalogue == 0`,
/// [`ZipfError::DegenerateSample`] for an empty or non-finite window.
pub(crate) fn fit_from_moments(
    sum_log: f64,
    weight: f64,
    catalogue: u64,
) -> Result<FitResult, ZipfError> {
    if catalogue == 0 {
        return Err(ZipfError::InvalidCatalogue { n: 0.0 });
    }
    if weight <= 0.0 || !weight.is_finite() || !sum_log.is_finite() {
        return Err(ZipfError::DegenerateSample { reason: "empty or non-finite moment window" });
    }
    // Negative log-likelihood, to minimize.
    let nll = |s: f64| s * sum_log + weight * generalized_harmonic(catalogue, s).ln();
    let (s_hat, value) = golden_section_min(nll, S_SEARCH.0, S_SEARCH.1);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let samples = weight.round() as usize;
    Ok(FitResult { exponent: s_hat, score: -value, samples })
}

fn golden_section_min(f: impl Fn(f64) -> f64, mut a: f64, mut b: f64) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..GOLDEN_MAX_ITERS {
        if (b - a).abs() < GOLDEN_TOL {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

#[cfg(test)]
mod tests {
    use crate::{StreamingFit, ZipfSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mle_recovers_known_exponent() {
        for &s_true in &[0.5, 0.8, 1.3] {
            let sampler = ZipfSampler::new(s_true, 5_000).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let ranks = sampler.sample_many(&mut rng, 40_000);
            let mut window = StreamingFit::new(5_000, 1.0).unwrap();
            window.observe(&ranks).unwrap();
            let fit = window.fit().unwrap();
            assert!(
                (fit.exponent - s_true).abs() < 0.05,
                "true {s_true} estimated {}",
                fit.exponent
            );
            assert_eq!(fit.samples, 40_000);
        }
    }
}
