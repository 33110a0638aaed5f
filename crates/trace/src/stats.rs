//! Descriptive statistics: empirical CDFs, percentiles and log-scale
//! histograms. These back both the characterization figures
//! (Figures 1–9) and the metric reports of the experiment harness.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution built from a finite sample.
///
/// Percentiles use nearest-rank interpolation, which matches how the paper
/// reads "P99" style statistics off its traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. NaNs are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "CDF needs at least one sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `<= x`, in `[0, 1]`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly greater than `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), linear interpolation
    /// between closest ranks.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Evaluates the CDF at a ladder of points, producing `(x, fraction)`
    /// rows — the exact series a figure plots.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }
}

/// A histogram over logarithmically spaced bins, mirroring the log-x axes
/// of the paper's duration plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` log-spaced bins.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins > 0, "bad histogram spec");
        LogHistogram {
            lo,
            ratio: (hi / lo).powf(1.0 / bins as f64),
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.lo).ln() / self.ratio.ln();
        let idx = idx as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the lowest bin.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the highest bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterates `(bin_lower_bound, count)`.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo * self.ratio.powi(i as i32), c))
    }

    /// The multiplicative width of one bin (upper bound / lower bound).
    ///
    /// A [`percentile`](Self::percentile) estimate is within this factor of
    /// the exact sample percentile, which is the error bound the streaming
    /// metrics path advertises.
    pub fn bin_ratio(&self) -> f64 {
        self.ratio
    }

    /// Merges another histogram into this one bin-wise. Both must have
    /// been built with the same `(lo, hi, bins)` layout.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.lo == other.lo
                && self.ratio == other.ratio
                && self.counts.len() == other.counts.len(),
            "merging histograms with different layouts"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Nearest-rank percentile estimate (`p` in `[0, 100]`), or `None` when
    /// the histogram is empty.
    ///
    /// Returns the geometric midpoint of the bin containing the target
    /// rank, so the estimate is within one bin width (a factor of
    /// `sqrt(bin_ratio)` each way) of the exact order statistic.
    /// Underflow resolves to the histogram's lower bound and overflow to
    /// its upper bound.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.total == 0 {
            return None;
        }
        let target = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let bin_lo = self.lo * self.ratio.powi(i as i32);
                return Some(bin_lo * self.ratio.sqrt());
            }
        }
        Some(self.lo * self.ratio.powi(self.counts.len() as i32))
    }
}

/// The `p`-th percentile of `samples` (`p` in `[0, 100]`) without sorting:
/// partial selection via `select_nth_unstable_by`, O(n) expected time.
/// Matches [`Cdf::percentile`]'s linear interpolation between closest
/// ranks, and reorders `samples` as a side effect.
///
/// This is the single-percentile fast path: building a [`Cdf`] sorts the
/// whole sample (O(n log n)) to answer every percentile, which is wasted
/// work when a caller wants just a P50 or P99.
///
/// # Panics
///
/// Panics if `samples` is empty, contains NaN, or `p` is outside
/// `[0, 100]`.
pub fn percentile_unsorted(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
    let n = samples.len();
    if n == 1 {
        return samples[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let (_, &mut lo_val, right) = samples.select_nth_unstable_by(lo, f64::total_cmp);
    if frac == 0.0 {
        return lo_val;
    }
    // The hi order statistic (lo + 1) is the minimum of the right
    // partition left behind by the selection (nonempty whenever frac > 0,
    // since rank < n - 1 then).
    let hi_val = right.iter().copied().fold(f64::INFINITY, f64::min);
    lo_val * (1.0 - frac) + hi_val * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_percentiles() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 100.0);
        assert!((cdf.median() - 50.5).abs() < 1e-9);
        assert!((cdf.percentile(99.0) - 99.01).abs() < 0.02);
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
    }

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(3.0), 1.0);
        assert_eq!(cdf.fraction_above(2.0), 0.25);
    }

    #[test]
    fn cdf_single_sample() {
        let cdf = Cdf::from_samples(vec![7.0]);
        assert_eq!(cdf.percentile(37.0), 7.0);
        assert_eq!(cdf.median(), 7.0);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let cdf = Cdf::from_samples((0..50).map(|i| 1.2f64.powi(i)).collect());
        let pts: Vec<f64> = (0..20).map(|i| 1.5f64.powi(i)).collect();
        let series = cdf.series(&pts);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn log_histogram_buckets() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3);
        for x in [0.5, 1.5, 15.0, 150.0, 1500.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        let counts: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![1, 1, 1]);
        let bounds: Vec<f64> = h.bins().map(|(b, _)| b).collect();
        assert!((bounds[0] - 1.0).abs() < 1e-9);
        assert!((bounds[1] - 10.0).abs() < 1e-9);
        assert!((bounds[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_merge_matches_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| 0.01 * 1.02f64.powi(i % 300)).collect();
        let mut whole = LogHistogram::new(0.001, 1_000.0, 120);
        let mut a = LogHistogram::new(0.001, 1_000.0, 120);
        let mut b = LogHistogram::new(0.001, 1_000.0, 120);
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn log_histogram_merge_rejects_layout_mismatch() {
        let mut a = LogHistogram::new(1.0, 100.0, 4);
        a.merge(&LogHistogram::new(1.0, 100.0, 8));
    }

    #[test]
    fn percentile_unsorted_matches_cdf() {
        let samples: Vec<f64> = (0..251).map(|i| ((i * 7919) % 251) as f64).collect();
        let cdf = Cdf::from_samples(samples.clone());
        for p in [0.0, 1.0, 25.0, 50.0, 73.3, 90.0, 99.0, 100.0] {
            let mut buf = samples.clone();
            let got = percentile_unsorted(&mut buf, p);
            assert!(
                (got - cdf.percentile(p)).abs() < 1e-9,
                "p{p}: {got} vs {}",
                cdf.percentile(p)
            );
        }
        let mut single = vec![3.5];
        assert_eq!(percentile_unsorted(&mut single, 42.0), 3.5);
    }

    #[test]
    fn log_histogram_percentile_within_bin_width() {
        let samples: Vec<f64> = (1..=5_000).map(|i| 0.01 * 1.002f64.powi(i)).collect();
        let mut h = LogHistogram::new(0.001, 1_000.0, 240);
        for &x in &samples {
            h.record(x);
        }
        let cdf = Cdf::from_samples(samples);
        for p in [10.0, 50.0, 90.0, 99.0] {
            let est = h.percentile(p).unwrap();
            let exact = cdf.percentile(p);
            let err = (est / exact).ln().abs();
            assert!(
                err <= 1.5 * h.bin_ratio().ln(),
                "p{p}: est {est} exact {exact}"
            );
        }
        assert_eq!(LogHistogram::new(1.0, 10.0, 4).percentile(50.0), None);
    }

    #[test]
    fn log_histogram_percentile_saturates_at_bounds() {
        let mut h = LogHistogram::new(1.0, 100.0, 4);
        h.record(0.5); // underflow
        h.record(500.0); // overflow
        assert_eq!(h.percentile(0.0).unwrap(), 1.0);
        assert!((h.percentile(100.0).unwrap() - 100.0).abs() < 1e-9);
    }
}
