//! Zipf popularity substrate for the CCN coordinated-caching model.
//!
//! The paper ("Coordinating In-Network Caching in Content-Centric
//! Networks", ICDCS 2013) assumes content popularity follows the Zipf
//! distribution: out of a catalogue of `N` objects, the object of rank
//! `i` is requested with probability
//!
//! ```text
//! f(i; s, N) = (1 / i^s) / H_{N,s}
//! ```
//!
//! where `H_{N,s} = Σ_{j=1}^{N} j^{-s}` is the `N`-th generalized
//! harmonic number of order `s` (Eq. 1 in the paper). The analysis
//! additionally relies on a continuous approximation of the CDF
//! (Eq. 6):
//!
//! ```text
//! F(x; s, N) ≈ (x^{1-s} - 1) / (N^{1-s} - 1),   s ∈ (0,1) ∪ (1,2)
//! ```
//!
//! This crate provides:
//!
//! - [`harmonic`]: exact and asymptotic (Euler–Maclaurin) generalized
//!   harmonic numbers, accurate for catalogue sizes up to `10^12`;
//! - [`Zipf`]: the discrete rank distribution (pmf, cdf, quantile);
//! - [`ContinuousZipf`]: the paper's continuous CDF approximation with
//!   error measurement against the discrete law;
//! - [`ZipfSampler`]: rank samplers (exact inverse-CDF for small
//!   catalogues, rejection-inversion for huge ones);
//! - [`fit`]: maximum-likelihood estimation of the Zipf exponent from
//!   a window's sufficient statistics;
//! - [`mandelbrot`]: the Zipf–Mandelbrot head-flattening
//!   generalization observed in real content traces;
//! - [`streaming`]: [`StreamingFit`], exponentially decayed sufficient
//!   statistics for online MLE refits under popularity drift (the one
//!   estimator entry point).
//!
//! # Example
//!
//! ```
//! use ccn_zipf::{Zipf, ContinuousZipf};
//!
//! # fn main() -> Result<(), ccn_zipf::ZipfError> {
//! let zipf = Zipf::new(0.8, 1_000_000)?;
//! // Probability that a request hits one of the top 1000 objects.
//! let discrete = zipf.cdf(1000);
//! let continuous = ContinuousZipf::new(0.8, 1_000_000.0)?.cdf(1000.0);
//! assert!((discrete - continuous).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod continuous;
mod distribution;
mod error;
pub mod fit;
pub mod harmonic;
pub mod mandelbrot;
mod sampler;
pub mod streaming;

pub use continuous::ContinuousZipf;
pub use distribution::Zipf;
pub use error::ZipfError;
pub use fit::FitResult;
pub use harmonic::{generalized_harmonic, generalized_harmonic_exact};
pub use sampler::ZipfSampler;
pub use streaming::StreamingFit;

/// The open parameter domain for the Zipf exponent used throughout the
/// paper: `s ∈ (0, 1) ∪ (1, 2)`.
///
/// `s = 1` is a singular point of the continuous approximation (Eq. 6)
/// and is handled separately via logarithmic limits where supported.
pub const PAPER_EXPONENT_RANGE: (f64, f64) = (0.0, 2.0);

/// Returns `true` if `s` lies in the paper's admissible exponent range
/// `(0, 1) ∪ (1, 2)`.
///
/// # Example
///
/// ```
/// assert!(ccn_zipf::is_paper_exponent(0.8));
/// assert!(!ccn_zipf::is_paper_exponent(1.0));
/// assert!(!ccn_zipf::is_paper_exponent(2.0));
/// ```
#[must_use]
pub fn is_paper_exponent(s: f64) -> bool {
    s > 0.0 && s < 2.0 && (s - 1.0).abs() > f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_exponent_range_bounds() {
        assert!(is_paper_exponent(0.1));
        assert!(is_paper_exponent(1.9));
        assert!(!is_paper_exponent(0.0));
        assert!(!is_paper_exponent(-0.5));
        assert!(!is_paper_exponent(2.0));
        assert!(!is_paper_exponent(2.5));
        assert!(!is_paper_exponent(1.0));
    }

    #[test]
    fn crate_level_example_consistency() {
        let zipf = Zipf::new(0.8, 1_000_000).unwrap();
        let cont = ContinuousZipf::new(0.8, 1_000_000.0).unwrap();
        let d = zipf.cdf(1000);
        let c = cont.cdf(1000.0);
        assert!((d - c).abs() < 0.01, "discrete {d} vs continuous {c}");
    }
}
