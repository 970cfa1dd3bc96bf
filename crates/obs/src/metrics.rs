//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! The simulator's `Metrics` struct keeps exact per-event tallies for
//! the paper's figures; this module provides the *operational* layer
//! on top — cheap aggregates suitable for always-on production use.
//!
//! The histogram is fixed-bucket: observations land in pre-sized
//! buckets, so memory is constant regardless of sample count.
//! [`Histogram::percentile`] interpolates within a bucket, and
//! [`Histogram::percentile_bounds`] returns the bucket interval that
//! *provably contains* the exact sorted-vector percentile — the
//! contract the workspace proptest pins against
//! `ccn_sim::Metrics::latency_percentile`.

use crate::json::{Json, ToJson};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A point-in-time measurement that can move both ways.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&mut self, value: f64) {
        self.value = value;
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A fixed-bucket histogram over non-negative samples.
///
/// `bounds` are the inclusive upper edges of the finite buckets; one
/// implicit overflow bucket catches everything larger. The default
/// bucket layout is [`Histogram::latency_ms`] (and
/// `Histogram::default()` is identical to it, which matters because
/// `ccn_sim::Metrics` builds itself with `..Self::default()`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts.len() == bounds.len() + 1`; the last slot is overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::latency_ms()
    }
}

/// Upper bucket edges for millisecond-scale latencies: sub-ms
/// resolution near zero (cache hits), coarsening toward multi-second
/// tails (origin fetches over congested paths).
pub const LATENCY_MS_BOUNDS: [f64; 16] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1000.0, 2000.0, 4000.0,
    8000.0,
];

impl Histogram {
    /// A histogram with the standard latency bucket layout
    /// ([`LATENCY_MS_BOUNDS`]).
    #[must_use]
    pub fn latency_ms() -> Self {
        Self::with_bounds(&LATENCY_MS_BOUNDS)
    }

    /// A histogram with custom inclusive upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing — bucket
    /// layouts are compile-time decisions, not data.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket edge");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket edges must be strictly increasing");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples are ignored (they would
    /// poison `sum` and belong to no bucket).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&edge| edge < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram with the same bucket layout into this
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (NaN when empty, which serializes as
    /// `null`).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (NaN when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample (NaN when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The rank (0-based index into the sorted sample vector) that the
    /// exact percentile computation (`Metrics::latency_percentile`)
    /// interpolates around: position `q * (n - 1)`.
    fn rank(&self, q: f64) -> f64 {
        q.clamp(0.0, 1.0) * (self.count.saturating_sub(1)) as f64
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), interpolated linearly
    /// within the containing bucket. NaN when empty.
    ///
    /// The estimate always lies within [`Histogram::percentile_bounds`],
    /// which also contains the exact sorted-vector percentile.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let (lo, hi) = self.percentile_bounds(q).expect("non-empty");
        if lo == hi {
            return lo;
        }
        // Interpolate by how far the target rank sits inside the
        // bucket's cumulative count range.
        let rank = self.rank(q);
        let idx = self.bucket_for_rank(rank);
        let below: u64 = self.counts[..idx].iter().sum();
        let in_bucket = self.counts[idx];
        if in_bucket <= 1 {
            return hi;
        }
        let frac = (rank - below as f64) / (in_bucket as f64 - 1.0).max(1.0);
        lo + frac.clamp(0.0, 1.0) * (hi - lo)
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(0.5)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.percentile(0.9)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    fn bucket_for_rank(&self, rank: f64) -> usize {
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if c > 0 && rank <= (cumulative - 1) as f64 {
                return idx;
            }
        }
        // rank <= count - 1 always holds, so the last non-empty bucket
        // was returned above; reaching here means count == 0.
        unreachable!("bucket_for_rank on empty histogram")
    }

    /// The closed interval `[lo, hi]` guaranteed to contain the exact
    /// sorted-vector `q`-percentile of the observed samples (`None`
    /// when empty).
    ///
    /// Exactness contract: the exact percentile interpolates between
    /// the samples at ranks `floor(q*(n-1))` and `ceil(q*(n-1))`. Both
    /// samples lie in buckets this interval spans (a bucket's samples
    /// are bounded by its edges, and `min`/`max` tighten the outermost
    /// buckets), so the exact value lies in `[lo, hi]`.
    #[must_use]
    pub fn percentile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 {
            return None;
        }
        let rank = self.rank(q);
        let lo_idx = self.bucket_for_rank(rank.floor());
        let hi_idx = self.bucket_for_rank(rank.ceil());
        let lo = if lo_idx == 0 { self.min } else { self.bounds[lo_idx - 1].max(self.min) };
        let hi =
            if hi_idx == self.bounds.len() { self.max } else { self.bounds[hi_idx].min(self.max) };
        Some((lo.min(hi), hi))
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::object()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("min", self.min())
            .field("max", self.max())
            .field("p50", self.p50())
            .field("p90", self.p90())
            .field("p99", self.p99())
    }
}

/// One named metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// A flat, insertion-ordered collection of named metrics.
///
/// Names follow the same dot-separated taxonomy as trace spans
/// (`coord.collect.transmissions`, `sim.latency.local`). The registry
/// is deliberately not global and not locked: each component owns one
/// and surfaces it, keeping simulation results deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, name: &str, fresh: Metric) -> &mut Metric {
        if let Some(idx) = self.entries.iter().position(|(n, _)| n == name) {
            &mut self.entries[idx].1
        } else {
            self.entries.push((name.to_owned(), fresh));
            &mut self.entries.last_mut().expect("just pushed").1
        }
    }

    /// The counter registered under `name`, created at zero on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        match self.entry(name, Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        match self.entry(name, Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// The histogram registered under `name`, created with the default
    /// latency buckets on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        match self.entry(name, Metric::Histogram(Histogram::latency_ms())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Looks up a metric without creating it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Iterates metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (name, metric) in self.iter() {
            let value = match metric {
                Metric::Counter(c) => Json::from(c.get()),
                Metric::Gauge(g) => Json::from(g.get()),
                Metric::Histogram(h) => h.to_json(),
            };
            obj = obj.field(name, value);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn default_histogram_equals_latency_ms() {
        // Metrics::new in ccn-sim relies on this identity via
        // `..Self::default()`.
        assert_eq!(Histogram::default(), Histogram::latency_ms());
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::latency_ms();
        assert!(h.mean().is_nan());
        assert!(h.percentile(0.5).is_nan());
        assert_eq!(h.percentile_bounds(0.5), None);
        for v in [1.0, 2.0, 3.0, 10_000.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10_006.0);
        assert_eq!(h.mean(), 2501.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0); // overflow bucket, tightened by max
    }

    #[test]
    fn percentile_bounds_contain_exact_percentile() {
        let samples = [0.1, 0.3, 0.9, 1.5, 4.0, 7.5, 40.0, 120.0, 900.0, 9000.0];
        let mut h = Histogram::latency_ms();
        for &v in &samples {
            h.observe(v);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo_i, hi_i) = (pos.floor() as usize, pos.ceil() as usize);
            let exact = sorted[lo_i] + (pos - pos.floor()) * (sorted[hi_i] - sorted[lo_i]);
            let (lo, hi) = h.percentile_bounds(q).unwrap();
            assert!(lo <= exact && exact <= hi, "q={q}: exact {exact} outside [{lo}, {hi}]");
            let est = h.percentile(q);
            assert!(lo <= est && est <= hi, "q={q}: estimate {est} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Histogram::latency_ms();
        h.observe(3.25);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 3.25);
            assert_eq!(h.percentile_bounds(q), Some((3.25, 3.25)));
        }
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::latency_ms();
        let mut b = Histogram::latency_ms();
        a.observe(1.0);
        b.observe(100.0);
        b.observe(0.1);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0.1);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.sum(), 101.1);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_mismatched_buckets() {
        let mut a = Histogram::with_bounds(&[1.0, 2.0]);
        let b = Histogram::with_bounds(&[1.0, 3.0]);
        a.merge(&b);
    }

    #[test]
    fn registry_creates_looks_up_and_serializes() {
        let mut r = Registry::new();
        r.counter("coord.collect.transmissions").add(7);
        r.gauge("sim.queue.depth").set(3.0);
        r.histogram("sim.latency").observe(5.0);
        r.counter("coord.collect.transmissions").inc();
        assert_eq!(r.len(), 3);
        match r.get("coord.collect.transmissions") {
            Some(Metric::Counter(c)) => assert_eq!(c.get(), 8),
            other => panic!("unexpected {other:?}"),
        }
        let json = r.to_json().to_string_compact();
        assert!(json.contains("\"coord.collect.transmissions\": 8"));
        assert!(json.contains("\"sim.queue.depth\": 3"));
        assert!(json.contains("\"count\": 1"));
        // Whole floats serialize as integers, so compare numerically
        // rather than structurally after the round trip.
        let back = crate::json::Json::parse(&json).unwrap();
        assert_eq!(back.get("sim.queue.depth").unwrap().as_f64(), Some(3.0));
        assert_eq!(back.get("sim.latency").unwrap().get("p99").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let mut r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
