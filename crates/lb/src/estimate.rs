//! Controller-side per-function statistics.
//!
//! The modified OpenWhisk controller (Section 6.2) maintains, per function,
//! histograms of observed execution times and CPU usage plus a periodically
//! updated invocation arrival rate; MWS consumes their expectations. These
//! are *learned online from samples* — the load balancer never peeks at the
//! workload model's ground truth.

use serde::{Deserialize, Serialize};

use hrv_trace::faas::FunctionId;
use hrv_trace::rng::IdMap;
use hrv_trace::time::{SimDuration, SimTime};

/// A small positive-valued histogram over log-spaced bins with an exact
/// running mean. The histogram gives percentile estimates; the mean feeds
/// the MWS usage estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleHistogram {
    lo: f64,
    ratio_ln: f64,
    counts: Vec<u64>,
    n: u64,
    sum: f64,
}

impl SampleHistogram {
    /// Creates a histogram over `[lo, hi)` with `bins` log-spaced bins.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `bins >= 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins >= 1);
        SampleHistogram {
            lo,
            ratio_ln: (hi / lo).ln() / bins as f64,
            counts: vec![0; bins + 2], // + under/overflow
            n: 0,
            sum: 0.0,
        }
    }

    /// Default spec for execution durations: 1 ms – 1 h.
    pub fn for_durations() -> Self {
        SampleHistogram::new(0.001, 3_600.0, 64)
    }

    /// Default spec for per-invocation CPU usage: 1/64 – 64 cores.
    pub fn for_cpu() -> Self {
        SampleHistogram::new(1.0 / 64.0, 64.0, 48)
    }

    /// Records one sample (clamped into range for binning; the mean uses
    /// the exact value).
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite() && x >= 0.0, "bad sample {x}");
        self.n += 1;
        self.sum += x;
        let idx = if x < self.lo {
            0
        } else {
            let i = ((x / self.lo).ln() / self.ratio_ln) as usize;
            (i + 1).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sample mean, or `None` before any sample arrives.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }

    /// Approximate `p`-th percentile from the binned counts (upper bin
    /// edge), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p));
        if self.n == 0 {
            return None;
        }
        let target = (p / 100.0 * self.n as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(if i == 0 {
                    self.lo
                } else {
                    self.lo * ((i as f64) * self.ratio_ln).exp()
                });
            }
        }
        Some(self.lo * ((self.counts.len() as f64) * self.ratio_ln).exp())
    }
}

/// Sliding-window arrival-rate estimator: counts arrivals in rotating
/// fixed-width buckets and reports the rate over the covered window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateEstimator {
    bucket_width: SimDuration,
    buckets: Vec<u64>,
    /// Index of the bucket epoch currently being filled.
    epoch: u64,
    /// Total arrivals ever (for bootstrapping diagnostics).
    total: u64,
    started: bool,
}

impl RateEstimator {
    /// Creates an estimator with `n_buckets` buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `n_buckets < 2`.
    pub fn new(bucket_width: SimDuration, n_buckets: usize) -> Self {
        assert!(!bucket_width.is_zero() && n_buckets >= 2);
        RateEstimator {
            bucket_width,
            buckets: vec![0; n_buckets],
            epoch: 0,
            total: 0,
            started: false,
        }
    }

    /// Default: six 10-second buckets (a one-minute window).
    pub fn default_window() -> Self {
        RateEstimator::new(SimDuration::from_secs(10), 6)
    }

    fn epoch_of(&self, now: SimTime) -> u64 {
        now.as_micros() / self.bucket_width.as_micros()
    }

    /// Rotates buckets forward to `now`, zeroing skipped epochs.
    fn rotate(&mut self, now: SimTime) {
        let e = self.epoch_of(now);
        if !self.started {
            self.epoch = e;
            self.started = true;
            return;
        }
        if e <= self.epoch {
            return;
        }
        let skipped = (e - self.epoch).min(self.buckets.len() as u64);
        for k in 1..=skipped {
            let idx = ((self.epoch + k) % self.buckets.len() as u64) as usize;
            self.buckets[idx] = 0;
        }
        self.epoch = e;
    }

    /// Records one arrival at `now`.
    pub fn record_arrival(&mut self, now: SimTime) {
        self.rotate(now);
        let idx = (self.epoch % self.buckets.len() as u64) as usize;
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Estimated arrivals/second over the sliding window at `now`.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.rotate(now);
        let window = self.bucket_width.as_secs_f64() * self.buckets.len() as f64;
        self.buckets.iter().sum::<u64>() as f64 / window
    }

    /// Total arrivals ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Everything the controller has learned about one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionStats {
    /// Observed execution durations, seconds.
    pub duration: SampleHistogram,
    /// Observed CPU usage, cores.
    pub cpu: SampleHistogram,
    /// Arrival-rate estimator.
    pub arrivals: RateEstimator,
}

impl Default for FunctionStats {
    fn default() -> Self {
        FunctionStats {
            duration: SampleHistogram::for_durations(),
            cpu: SampleHistogram::for_cpu(),
            arrivals: RateEstimator::default_window(),
        }
    }
}

/// Priors used before any completion sample exists for a function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatsPriors {
    /// Assumed execution time, seconds.
    pub duration_secs: f64,
    /// Assumed CPU usage, cores.
    pub cpu_cores: f64,
}

impl Default for StatsPriors {
    fn default() -> Self {
        StatsPriors {
            duration_secs: 1.0,
            cpu_cores: 1.0,
        }
    }
}

/// Per-function statistics registry for one controller.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    stats: IdMap<FunctionId, FunctionStats>,
    priors: StatsPriors,
    /// Number of controllers in the deployment; each controller sees
    /// `1/controllers` of the arrivals and multiplies its local estimate
    /// back up (Section 6.2).
    controllers: u32,
}

impl StatsRegistry {
    /// Creates a registry for a deployment with `controllers` controllers.
    pub fn new(priors: StatsPriors, controllers: u32) -> Self {
        assert!(controllers >= 1);
        StatsRegistry {
            stats: IdMap::default(),
            priors,
            controllers,
        }
    }

    /// Number of controllers this registry scales local rates by.
    pub fn controllers(&self) -> u32 {
        self.controllers
    }

    /// Records a function arrival.
    pub fn record_arrival(&mut self, f: FunctionId, now: SimTime) {
        self.stats
            .entry(f)
            .or_default()
            .arrivals
            .record_arrival(now);
    }

    /// Records a completed invocation's measured duration and CPU usage
    /// (reported back by the invoker in its response message).
    pub fn record_completion(&mut self, f: FunctionId, duration: SimDuration, cpu_cores: f64) {
        let s = self.stats.entry(f).or_default();
        s.duration.record(duration.as_secs_f64());
        s.cpu.record(cpu_cores);
    }

    /// Expected duration in seconds (prior until samples exist).
    pub fn expected_duration(&self, f: FunctionId) -> f64 {
        self.stats
            .get(&f)
            .and_then(|s| s.duration.mean())
            .unwrap_or(self.priors.duration_secs)
    }

    /// Expected CPU usage in cores (prior until samples exist).
    pub fn expected_cpu(&self, f: FunctionId) -> f64 {
        self.stats
            .get(&f)
            .and_then(|s| s.cpu.mean())
            .unwrap_or(self.priors.cpu_cores)
    }

    /// Estimated *total* arrival rate across the deployment: the local
    /// rate multiplied by the controller count.
    pub fn estimated_rps(&mut self, f: FunctionId, now: SimTime) -> f64 {
        let controllers = f64::from(self.controllers);
        self.stats
            .get_mut(&f)
            .map(|s| s.arrivals.rate(now) * controllers)
            .unwrap_or(0.0)
    }

    /// The MWS usage estimate `u_f = RPS · E[cpu] · E[duration]`, in cores
    /// (Algorithm 1). Placement calls this once per arrival, and the
    /// covering-set cache re-checks it against a capacity band on every
    /// hit, so it resolves the function's stats with a *single* hash
    /// lookup instead of chaining [`StatsRegistry::estimated_rps`] /
    /// [`StatsRegistry::expected_cpu`] / [`StatsRegistry::expected_duration`]
    /// (three lookups). Semantics are identical: priors apply until
    /// samples exist, and an unknown function estimates 0 (its rate is 0).
    pub fn usage_estimate(&mut self, f: FunctionId, now: SimTime) -> f64 {
        let controllers = f64::from(self.controllers);
        let priors = self.priors;
        match self.stats.get_mut(&f) {
            None => 0.0,
            Some(s) => {
                let rps = s.arrivals.rate(now) * controllers;
                rps * s.cpu.mean().unwrap_or(priors.cpu_cores)
                    * s.duration.mean().unwrap_or(priors.duration_secs)
            }
        }
    }

    /// Number of functions with any recorded state.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;

    fn f(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = SampleHistogram::for_durations();
        for x in [0.1, 0.2, 0.3] {
            h.record(x);
        }
        assert!((h.mean().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_percentile_brackets_value() {
        let mut h = SampleHistogram::new(0.001, 1_000.0, 120);
        for i in 1..=1_000 {
            h.record(i as f64 / 100.0); // 0.01 .. 10.0
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((4.0..7.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0).unwrap();
        assert!((9.0..12.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_empty_has_no_estimates() {
        let h = SampleHistogram::for_cpu();
        assert!(h.mean().is_none());
        assert!(h.percentile(50.0).is_none());
    }

    #[test]
    fn histogram_out_of_range_samples_clamp() {
        let mut h = SampleHistogram::new(1.0, 10.0, 4);
        h.record(0.5);
        h.record(100.0);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(10.0).unwrap() <= 1.0);
    }

    #[test]
    fn rate_estimator_tracks_steady_rate() {
        let mut r = RateEstimator::default_window();
        // 5 arrivals/second for 2 minutes.
        for i in 0..600u64 {
            r.record_arrival(SimTime::from_micros(i * 200_000));
        }
        let rate = r.rate(SimTime::from_secs(120));
        assert!((rate - 5.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn rate_estimator_decays_after_idle() {
        let mut r = RateEstimator::default_window();
        for i in 0..100u64 {
            r.record_arrival(SimTime::from_micros(i * 100_000));
        }
        assert!(r.rate(SimTime::from_secs(10)) > 0.5);
        // Two minutes of silence: window empties.
        assert_eq!(r.rate(SimTime::from_secs(140)), 0.0);
        assert_eq!(r.total(), 100);
    }

    #[test]
    fn registry_uses_priors_until_samples() {
        let mut reg = StatsRegistry::new(StatsPriors::default(), 1);
        assert_eq!(reg.expected_duration(f(1)), 1.0);
        assert_eq!(reg.expected_cpu(f(1)), 1.0);
        assert_eq!(reg.estimated_rps(f(1), SimTime::ZERO), 0.0);
        reg.record_completion(f(1), SimDuration::from_secs(4), 1.0);
        assert!((reg.expected_duration(f(1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn usage_estimate_is_littles_law() {
        let mut reg = StatsRegistry::new(StatsPriors::default(), 1);
        // 2 rps × 3 s × 1 core ≈ 6 cores.
        for i in 0..120u64 {
            reg.record_arrival(f(1), SimTime::from_micros(i * 500_000));
        }
        for _ in 0..10 {
            reg.record_completion(f(1), SimDuration::from_secs(3), 1.0);
        }
        let u = reg.usage_estimate(f(1), SimTime::from_secs(60));
        assert!((u - 6.0).abs() < 1.5, "usage {u}");
    }

    #[test]
    fn usage_estimate_matches_three_lookup_product() {
        let mut reg = StatsRegistry::new(StatsPriors::default(), 3);
        // Unknown function: zero, not priors-product.
        assert_eq!(reg.usage_estimate(f(9), SimTime::ZERO), 0.0);
        for i in 0..40u64 {
            reg.record_arrival(f(2), SimTime::from_micros(i * 250_000));
        }
        reg.record_completion(f(2), SimDuration::from_secs(2), 1.5);
        let now = SimTime::from_secs(10);
        let product =
            reg.estimated_rps(f(2), now) * reg.expected_cpu(f(2)) * reg.expected_duration(f(2));
        assert!((reg.usage_estimate(f(2), now) - product).abs() < 1e-12);
        // Arrivals-only function: completion means fall back to priors.
        for i in 0..40u64 {
            reg.record_arrival(f(3), SimTime::from_micros(i * 250_000));
        }
        let product =
            reg.estimated_rps(f(3), now) * reg.expected_cpu(f(3)) * reg.expected_duration(f(3));
        assert!((reg.usage_estimate(f(3), now) - product).abs() < 1e-12);
    }

    #[test]
    fn controller_count_scales_rps() {
        let mut reg = StatsRegistry::new(StatsPriors::default(), 2);
        for i in 0..60u64 {
            reg.record_arrival(f(1), SimTime::from_secs(i));
        }
        let rps = reg.estimated_rps(f(1), SimTime::from_secs(59));
        assert!((rps - 2.0).abs() < 0.5, "rps {rps}");
    }
}
