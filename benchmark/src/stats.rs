//! Order statistics for the harness: exact percentiles over recorded
//! samples, with the sample count reported and a percentile refused
//! when fewer than ten samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. `None` when fewer
/// than [`MIN_BEYOND`] samples lie strictly beyond that rank — the tail
/// is then too thin to name.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside [0, 1)");
    let n = sorted.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile { value: sorted[rank - 1] as f64, samples: n })
}

/// Quantile `f` of `values`, interpolating linearly between order
/// statistics (`f = 0.5` is the median, the mean of the middle pair for
/// an even count); `None` when empty.
pub fn quantile(values: &[f64], f: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&f), "quantile {f} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = f * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Quantile `across` over time slices of a per-slice percentile `q`.
/// `samples` are `(slice, value)`; a slice whose tail is too thin for
/// `q` is left out, and the result is `None` when every slice is.
pub fn sliced_percentile(
    samples: &[(u32, u64)],
    slices: u32,
    q: f64,
    across: f64,
) -> Option<Percentile> {
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices as usize];
    for &(slice, value) in samples {
        if let Some(bucket) = per_slice.get_mut(slice as usize) {
            bucket.push(value);
        }
    }
    let mut used = 0;
    let mut values = Vec::new();
    for bucket in &mut per_slice {
        bucket.sort_unstable();
        if let Some(p) = percentile(bucket, q) {
            values.push(p.value);
            used += p.samples;
        }
    }
    quantile(&values, across).map(|value| Percentile { value, samples: used })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_known_inputs() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(Percentile { value: 500.0, samples: 1000 }));
        assert_eq!(percentile(&v, 0.99).unwrap().value, 990.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        let skewed = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 900];
        assert_eq!(percentile(&skewed, 0.5).unwrap().value, 1.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 leaves exactly 10 beyond; p99.1 leaves 9.
        assert!(percentile(&v, 0.99).is_some());
        assert!(percentile(&v, 0.991).is_none());
        assert!(percentile(&v[..19], 0.5).is_none());
        assert!(percentile(&v[..21], 0.5).is_some());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.75), Some(40.0));
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
    }

    #[test]
    fn sliced_percentile_takes_a_quantile_of_slices_and_skips_thin_ones() {
        let mut samples = Vec::new();
        for slice in 0..3u32 {
            for v in 1..=100u64 {
                samples.push((slice, v * u64::from(slice + 1)));
            }
        }
        // A fourth slice with too few samples to carry a median.
        samples.push((3, 1_000_000));
        let p = sliced_percentile(&samples, 4, 0.5, 0.5).unwrap();
        assert_eq!(p.value, 100.0); // slice medians are 50, 100, 150
        assert_eq!(p.samples, 300);
        assert_eq!(sliced_percentile(&samples, 4, 0.5, 0.25).unwrap().value, 75.0);
        assert!(sliced_percentile(&samples[300..], 4, 0.5, 0.5).is_none());
    }
}
