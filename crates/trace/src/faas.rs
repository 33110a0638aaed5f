//! FaaS workload model calibrated to the Azure Functions traces of
//! Section 3.2.
//!
//! The paper uses two production traces (Table 1): `F_large` (20,809 apps,
//! one day, per-app duration percentiles) and `F_small` (119 apps, 14 days,
//! per-invocation timings). The traces themselves are proprietary; this
//! module synthesizes workloads matching every statistic the paper reports
//! about them:
//!
//! * more than 85 % of invocations are shorter than 1 s, 96 % shorter than
//!   30 s, longest ≈ 578.6 s (Figure 6);
//! * 4.1 % of invocations are "long" (> 30 s) yet account for 82 % of the
//!   total execution time;
//! * 48.7 % of applications are "long" (at least one invocation > 30 s);
//!   long applications receive 67.5 % of invocations and 99.68 % of the
//!   invocation time;
//! * short applications have markedly more sub-10-second inter-arrival
//!   times than long ones (Figure 9).

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::arrival::PoissonProcess;
use crate::dist::{BoundedPareto, Clamped, LogNormal, LogUniform, Mixture, Sampler};
use crate::rng::SeedFactory;
use crate::stats::Cdf;
use crate::time::{SimDuration, SimTime};

/// Invocations longer than this are at risk on an evicted Harvest VM
/// (equal to the 30-second eviction grace period).
pub const LONG_THRESHOLD: SimDuration = SimDuration::from_secs(30);

/// Identifies an application (the unit of scheduling and allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(pub u32);

/// Identifies a function within an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FunctionId {
    /// Owning application.
    pub app: AppId,
    /// Function index within the application.
    pub func: u32,
}

/// Whether an application's duration distribution can exceed 30 s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppClass {
    /// Every invocation finishes within the eviction grace period.
    Short,
    /// Some invocations exceed the grace period.
    Long,
}

/// Generative model for one application.
#[derive(Debug)]
pub struct AppModel {
    /// Application id.
    pub id: AppId,
    /// Short/long class assigned at generation time.
    pub class: AppClass,
    /// Mean request rate (Poisson), in requests/second.
    pub rate_rps: f64,
    /// Container memory size for this app's functions, MiB.
    pub memory_mb: u64,
    /// CPU cores consumed while an invocation runs (typically 1.0).
    pub cpu_demand: f64,
    /// Number of functions in the application.
    pub n_functions: u32,
    /// Mean invocations per arrival burst (1.0 = plain Poisson). Short
    /// apps arrive in bursts of closely spaced invocations — that is what
    /// puts their inter-arrival mass below 10 s in Figure 9.
    pub burst_mean: f64,
    duration: Box<dyn Sampler>,
}

impl AppModel {
    /// Creates an application model with an explicit duration sampler
    /// (seconds-valued).
    pub fn new(
        id: AppId,
        class: AppClass,
        rate_rps: f64,
        memory_mb: u64,
        cpu_demand: f64,
        n_functions: u32,
        duration: Box<dyn Sampler>,
    ) -> Self {
        assert!(rate_rps > 0.0 && rate_rps.is_finite());
        assert!(cpu_demand > 0.0 && n_functions >= 1);
        AppModel {
            id,
            class,
            rate_rps,
            memory_mb,
            cpu_demand,
            n_functions,
            burst_mean: 1.0,
            duration,
        }
    }

    /// Configures bursty arrivals: sessions arrive as a Poisson process
    /// and each session carries a geometric burst with this mean size.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 1`.
    pub fn with_burst(mut self, mean: f64) -> Self {
        assert!(mean >= 1.0 && mean.is_finite());
        self.burst_mean = mean;
        self
    }

    /// Draws one invocation duration.
    pub fn sample_duration(&self, rng: &mut dyn rand::Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.duration.sample(rng)).max(SimDuration::from_millis(1))
    }

    /// Session (burst head) arrival rate: bursts of mean size `burst_mean`
    /// at this rate keep the effective invocation rate at `rate_rps`.
    pub fn session_rate(&self) -> f64 {
        self.rate_rps / self.burst_mean.max(1.0)
    }

    /// Draws the number of extra invocations carried by one session's burst
    /// (geometric with mean `burst_mean - 1`; zero for non-bursty apps).
    fn draw_burst_extra(&self, rng: &mut dyn rand::Rng) -> u64 {
        let burst = self.burst_mean.max(1.0);
        if burst > 1.0 {
            let p = 1.0 / burst;
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            (u.ln() / (1.0 - p).ln()).floor() as u64
        } else {
            0
        }
    }

    /// Expected invocation duration, if the sampler knows it analytically.
    pub fn mean_duration(&self) -> Option<SimDuration> {
        self.duration.mean().map(SimDuration::from_secs_f64)
    }
}

/// One function invocation in a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Invocation {
    /// Sequence number (position in arrival order).
    pub id: u64,
    /// Target function.
    pub function: FunctionId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Service demand on one dedicated core.
    pub duration: SimDuration,
    /// Container memory requirement, MiB.
    pub memory_mb: u64,
    /// CPU cores consumed while running.
    pub cpu_demand: f64,
}

impl Invocation {
    /// True if this invocation is "long" (> 30 s) per the paper's
    /// definition.
    pub fn is_long(&self) -> bool {
        self.duration > LONG_THRESHOLD
    }
}

/// Parameters of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of applications.
    pub n_apps: usize,
    /// Aggregate request rate across all applications, requests/second.
    pub total_rps: f64,
    /// Fraction of applications in the long class (paper: 0.487).
    pub long_app_fraction: f64,
    /// Fraction of invocations that should target long apps (paper: 0.675).
    pub long_invocation_share: f64,
    /// Within a long app, probability an invocation draws from the > 30 s
    /// tail (paper: 4.1 % / 67.5 % ≈ 0.0607).
    pub tail_prob: f64,
    /// Upper bound of the duration tail, seconds (paper max: 578.6 s).
    pub max_duration_secs: f64,
    /// Functions per application are drawn uniformly from this range.
    pub functions_per_app: (u32, u32),
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::paper_fsmall()
    }
}

impl WorkloadSpec {
    /// The `F_small` calibration: 119 apps, 2.2 M invocations over 14 days
    /// (≈ 1.82 req/s aggregate).
    pub fn paper_fsmall() -> Self {
        WorkloadSpec {
            n_apps: 119,
            total_rps: 2_200_000.0 / (14.0 * 86_400.0),
            long_app_fraction: 0.487,
            long_invocation_share: 0.675,
            tail_prob: 0.0607,
            max_duration_secs: 580.0,
            functions_per_app: (1, 3),
        }
    }

    /// The `F_large` calibration: the paper's one-day regional trace scaled
    /// down to a tractable number of apps (shape, not volume, is what the
    /// characterization figures consume). `F_large` has a slightly lighter
    /// tail than `F_small` (Figure 5).
    pub fn paper_flarge_scaled(n_apps: usize) -> Self {
        WorkloadSpec {
            n_apps,
            total_rps: n_apps as f64 * 0.02,
            long_app_fraction: 0.206,
            long_invocation_share: 0.40,
            tail_prob: 0.04,
            max_duration_secs: 3_600.0,
            functions_per_app: (1, 3),
        }
    }

    /// A scaled copy with different app count and aggregate rate.
    pub fn scaled(&self, n_apps: usize, total_rps: f64) -> Self {
        WorkloadSpec {
            n_apps,
            total_rps,
            ..self.clone()
        }
    }
}

/// A concrete generated workload: application models ready to emit
/// invocation traces.
///
/// # Examples
///
/// ```
/// use hrv_trace::faas::{Workload, WorkloadSpec};
/// use hrv_trace::rng::SeedFactory;
/// use hrv_trace::time::SimDuration;
///
/// let spec = WorkloadSpec::paper_fsmall().scaled(20, 5.0);
/// let workload = Workload::generate(&spec, &SeedFactory::new(1));
/// let trace = workload.invocations(SimDuration::from_mins(10), &SeedFactory::new(1));
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug)]
pub struct Workload {
    /// All applications, indexed by `AppId`.
    pub apps: Vec<AppModel>,
}

impl Workload {
    /// Generates application models per `spec`, deterministically from
    /// `seeds`.
    pub fn generate(spec: &WorkloadSpec, seeds: &SeedFactory) -> Workload {
        assert!(spec.n_apps >= 2, "need at least one app per class");
        let mut rng = seeds.stream("workload-apps");
        let n_long = ((spec.n_apps as f64) * spec.long_app_fraction).round() as usize;
        let n_long = n_long.clamp(1, spec.n_apps - 1);

        // Draw unnormalized per-app rate weights, heavy-tailed so a few hot
        // apps dominate (which is what produces Figure 9's short-app
        // inter-arrival mass below 10 s).
        let short_weight = LogUniform::new(0.001, 10.0);
        let long_weight = LogUniform::new(0.01, 1.0);

        let mut apps = Vec::with_capacity(spec.n_apps);
        let mut weights = Vec::with_capacity(spec.n_apps);
        for i in 0..spec.n_apps {
            let is_long = i < n_long;
            let class = if is_long {
                AppClass::Long
            } else {
                AppClass::Short
            };
            let weight = if is_long {
                long_weight.sample(&mut rng)
            } else {
                short_weight.sample(&mut rng)
            };
            weights.push(weight);

            // Per-app duration scale heterogeneity (Figure 7's spread).
            let scale = LogUniform::new(0.4, 2.5).sample(&mut rng);
            let duration: Box<dyn Sampler> = match class {
                AppClass::Short => Box::new(Clamped::new(
                    Box::new(LogNormal::from_median(0.08 * scale, 1.0)),
                    0.001,
                    25.0,
                )),
                AppClass::Long => {
                    let body: Box<dyn Sampler> = Box::new(Clamped::new(
                        Box::new(LogNormal::from_median(0.35 * scale, 1.1)),
                        0.001,
                        29.9,
                    ));
                    let tail: Box<dyn Sampler> =
                        Box::new(BoundedPareto::new(30.0, spec.max_duration_secs, 2.0));
                    // Per-app tail fractions are heterogeneous (the paper's
                    // Figure 7 shows wildly different max/mean gaps across
                    // apps); a shared fraction would make the Strategy 2
                    // percentile sweep a step function instead of
                    // Figure 10's smooth curve.
                    // The 0.8 factor recenters the invocation-weighted
                    // mean back onto `spec.tail_prob` (hot apps draw
                    // independently of their rates).
                    let app_tail = (LogUniform::new(spec.tail_prob / 8.0, spec.tail_prob * 4.0)
                        .sample(&mut rng)
                        * 0.8)
                        .min(0.9);
                    Box::new(Mixture::new(vec![(1.0 - app_tail, body), (app_tail, tail)]))
                }
            };

            let memory_mb = *[128u64, 256, 256, 512]
                .get(rng.random_range(0..4usize))
                .expect("index in range");
            let n_functions = rng.random_range(spec.functions_per_app.0..=spec.functions_per_app.1);
            let mut app = AppModel::new(
                AppId(i as u32),
                class,
                1.0, // placeholder, normalized below
                memory_mb,
                1.0,
                n_functions,
                duration,
            );
            if class == AppClass::Short {
                // Short apps fire in bursts of closely spaced invocations
                // (Section 3.2 / Figure 9).
                app = app.with_burst(4.0);
            }
            apps.push(app);
        }

        // Normalize rates so each class carries its configured share of the
        // aggregate request rate.
        let long_total: f64 = weights[..n_long].iter().sum();
        let short_total: f64 = weights[n_long..].iter().sum();
        for (i, app) in apps.iter_mut().enumerate() {
            let (class_share, class_total) = if i < n_long {
                (spec.long_invocation_share, long_total)
            } else {
                (1.0 - spec.long_invocation_share, short_total)
            };
            app.rate_rps = (spec.total_rps * class_share * weights[i] / class_total).max(1e-7);
        }
        Workload { apps }
    }

    /// Number of applications.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Total configured request rate.
    pub fn total_rps(&self) -> f64 {
        self.apps.iter().map(|a| a.rate_rps).sum()
    }

    /// Generates the invocation trace for `[0, horizon)`, sorted by arrival.
    ///
    /// [`crate::stream::WorkloadStream`] produces the byte-identical
    /// sequence lazily; both paths emit through `emit_session` so a
    /// change to the burst model cannot desynchronize them.
    pub fn invocations(&self, horizon: SimDuration, seeds: &SeedFactory) -> Vec<Invocation> {
        let end = SimTime::ZERO + horizon;
        let mut all = Vec::new();
        for app in &self.apps {
            let mut rng = seeds.stream_indexed("workload-arrivals", u64::from(app.id.0));
            // Sessions arrive as a Poisson process; each carries a
            // geometric burst with mean `burst_mean`, so the effective
            // invocation rate stays `rate_rps`.
            let sessions =
                PoissonProcess::new(app.session_rate()).times(&mut rng, SimTime::ZERO, horizon);
            for session in sessions {
                emit_session(app, session, end, &mut rng, |at, func, duration| {
                    all.push(Invocation {
                        id: all.len() as u64,
                        function: FunctionId { app: app.id, func },
                        arrival: at,
                        duration,
                        memory_mb: app.memory_mb,
                        cpu_demand: app.cpu_demand,
                    });
                });
            }
        }
        // The generation index breaks `(arrival, function)` ties the way
        // a stable sort would, so the in-place sort needs no scratch
        // buffer; ids are then renumbered in arrival order.
        all.sort_unstable_by_key(|inv| (inv.arrival, inv.function, inv.id));
        for (i, inv) in all.iter_mut().enumerate() {
            inv.id = i as u64;
        }
        all
    }
}

/// The intra-burst gap distribution: closely spaced invocations within a
/// session, 50 ms to 5 s (Section 3.2 / Figure 9).
pub(crate) fn intra_gap_dist() -> LogUniform {
    LogUniform::new(0.05, 5.0)
}

/// Emits the invocations of one session (burst head plus geometric extras)
/// into `sink` as `(arrival, func, duration)` triples, consuming exactly
/// the draws the materialized generator historically consumed. This is the
/// single source of truth for the per-session draw sequence; the
/// materialized [`Workload::invocations`] and the lazy
/// [`crate::stream::WorkloadStream`] both call it, which is what keeps the
/// two paths byte-identical under one `SeedFactory`.
pub(crate) fn emit_session(
    app: &AppModel,
    session: SimTime,
    end: SimTime,
    rng: &mut dyn rand::Rng,
    mut sink: impl FnMut(SimTime, u32, SimDuration),
) {
    let extra = app.draw_burst_extra(rng);
    let intra_gap = intra_gap_dist();
    let mut at = session;
    for j in 0..=extra {
        if j > 0 {
            at = at.saturating_add(SimDuration::from_secs_f64(intra_gap.sample(rng)));
        }
        if at >= end {
            break;
        }
        let func = rng.random_range(0..app.n_functions);
        let duration = app.sample_duration(rng);
        sink(at, func, duration);
    }
}

/// Aggregate statistics over a generated invocation trace — the quantities
/// Section 3.2 reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Total invocations.
    pub invocations: usize,
    /// Fraction of invocations longer than 30 s.
    pub frac_long_invocations: f64,
    /// Fraction of total execution time in long invocations.
    pub time_share_long_invocations: f64,
    /// Fraction of apps with at least one invocation > 30 s.
    pub frac_long_apps: f64,
    /// Fraction of invocations belonging to long apps.
    pub invocation_share_long_apps: f64,
    /// Fraction of execution time belonging to long apps.
    pub time_share_long_apps: f64,
    /// Longest observed invocation, seconds.
    pub max_duration_secs: f64,
}

impl WorkloadStats {
    /// Computes statistics from a trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn from_trace(trace: &[Invocation]) -> WorkloadStats {
        assert!(!trace.is_empty(), "empty trace");
        use std::collections::HashMap;
        let mut per_app_max: HashMap<AppId, SimDuration> = HashMap::new();
        let mut total_time = 0.0;
        let mut long_time = 0.0;
        let mut long_count = 0usize;
        let mut max_duration = SimDuration::ZERO;
        for inv in trace {
            let d = inv.duration.as_secs_f64();
            total_time += d;
            if inv.is_long() {
                long_time += d;
                long_count += 1;
            }
            max_duration = max_duration.max(inv.duration);
            let e = per_app_max.entry(inv.function.app).or_default();
            *e = (*e).max(inv.duration);
        }
        let long_apps: std::collections::HashSet<AppId> = per_app_max
            .iter()
            .filter(|(_, &d)| d > LONG_THRESHOLD)
            .map(|(&a, _)| a)
            .collect();
        let mut long_app_inv = 0usize;
        let mut long_app_time = 0.0;
        for inv in trace {
            if long_apps.contains(&inv.function.app) {
                long_app_inv += 1;
                long_app_time += inv.duration.as_secs_f64();
            }
        }
        WorkloadStats {
            invocations: trace.len(),
            frac_long_invocations: long_count as f64 / trace.len() as f64,
            time_share_long_invocations: long_time / total_time,
            frac_long_apps: long_apps.len() as f64 / per_app_max.len() as f64,
            invocation_share_long_apps: long_app_inv as f64 / trace.len() as f64,
            time_share_long_apps: long_app_time / total_time,
            max_duration_secs: max_duration.as_secs_f64(),
        }
    }
}

/// The CDF of all invocation durations (Figure 6), in seconds.
pub fn duration_cdf(trace: &[Invocation]) -> Cdf {
    Cdf::from_samples(trace.iter().map(|i| i.duration.as_secs_f64()).collect())
}

/// Per-application percentile CDF (Figure 4): computes percentile `p` of
/// each app's invocation durations, then returns the CDF of those values
/// across apps. `p = 100` gives the per-app maximum curve.
pub fn per_app_percentile_cdf(trace: &[Invocation], p: f64) -> Cdf {
    use std::collections::HashMap;
    let mut per_app: HashMap<AppId, Vec<f64>> = HashMap::new();
    for inv in trace {
        per_app
            .entry(inv.function.app)
            .or_default()
            .push(inv.duration.as_secs_f64());
    }
    let values: Vec<f64> = per_app
        .into_values()
        .map(|v| Cdf::from_samples(v).percentile(p))
        .collect();
    Cdf::from_samples(values)
}

/// Inter-arrival time CDFs, split by app class (Figure 9). Returns
/// `(short_apps_cdf, long_apps_cdf)` in seconds; either is `None` when a
/// class has fewer than two invocations of any app.
pub fn inter_arrival_cdfs(trace: &[Invocation], workload: &Workload) -> (Option<Cdf>, Option<Cdf>) {
    use std::collections::HashMap;
    let mut per_app_times: HashMap<AppId, Vec<SimTime>> = HashMap::new();
    for inv in trace {
        per_app_times
            .entry(inv.function.app)
            .or_default()
            .push(inv.arrival);
    }
    let mut short = Vec::new();
    let mut long = Vec::new();
    for app in &workload.apps {
        let Some(times) = per_app_times.get(&app.id) else {
            continue;
        };
        let sink = match app.class {
            AppClass::Short => &mut short,
            AppClass::Long => &mut long,
        };
        for w in times.windows(2) {
            sink.push(w[1].since(w[0]).as_secs_f64());
        }
    }
    let mk = |v: Vec<f64>| {
        if v.is_empty() {
            None
        } else {
            Some(Cdf::from_samples(v))
        }
    };
    (mk(short), mk(long))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedFactory {
        SeedFactory::new(777)
    }

    fn small_trace() -> (Workload, Vec<Invocation>) {
        // Scale rate up / horizon down to keep tests fast but samples large.
        let spec = WorkloadSpec::paper_fsmall().scaled(119, 60.0);
        let wl = Workload::generate(&spec, &seeds());
        let trace = wl.invocations(SimDuration::from_hours(1), &seeds());
        (wl, trace)
    }

    #[test]
    fn equal_arrival_and_function_keep_generation_order() {
        // Session gaps are at least 1 µs, so one app's sessions never
        // collide; a burst's extras, 50 ms or more after their head, do.
        // At 10⁶ sessions/s nearly every microsecond holds a session, so
        // the extras of the first 10 ms land on later heads of the same
        // single function, and only generation order separates the two:
        // their durations show which went first.
        let apps: Vec<_> = (0..2)
            .map(|id| {
                let duration = Box::new(LogUniform::new(0.1, 10.0));
                AppModel::new(AppId(id), AppClass::Short, 4e6, 256, 1.0, 1, duration)
                    .with_burst(4.0)
            })
            .collect();
        let workload = Workload { apps };
        let horizon = SimDuration::from_millis(60);
        let end = SimTime::ZERO + horizon;
        let mut generated = Vec::new();
        for app in &workload.apps {
            let mut rng = seeds().stream_indexed("workload-arrivals", u64::from(app.id.0));
            let sessions =
                PoissonProcess::new(app.session_rate()).times(&mut rng, SimTime::ZERO, horizon);
            for session in sessions {
                emit_session(app, session, end, &mut rng, |at, func, duration| {
                    generated.push(Invocation {
                        id: 0,
                        function: FunctionId { app: app.id, func },
                        arrival: at,
                        duration,
                        memory_mb: app.memory_mb,
                        cpu_demand: app.cpu_demand,
                    });
                });
            }
        }
        let mut want = generated;
        want.sort_by_key(|inv| (inv.arrival, inv.function));
        for (i, inv) in want.iter_mut().enumerate() {
            inv.id = i as u64;
        }
        let ties = want
            .windows(2)
            .filter(|w| (w[0].arrival, w[0].function) == (w[1].arrival, w[1].function))
            .count();
        assert!(ties > 100, "only {ties} ties");
        assert_eq!(workload.invocations(horizon, &seeds()), want);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 10.0);
        let a =
            Workload::generate(&spec, &seeds()).invocations(SimDuration::from_mins(30), &seeds());
        let b =
            Workload::generate(&spec, &seeds()).invocations(SimDuration::from_mins(30), &seeds());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn trace_is_sorted_with_sequential_ids() {
        let (_, trace) = small_trace();
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, inv) in trace.iter().enumerate() {
            assert_eq!(inv.id, i as u64);
        }
    }

    #[test]
    fn aggregate_rate_matches_spec() {
        let (wl, trace) = small_trace();
        assert!((wl.total_rps() - 60.0).abs() / 60.0 < 0.01);
        let observed = trace.len() as f64 / 3_600.0;
        assert!((observed - 60.0).abs() / 60.0 < 0.1, "rate {observed}");
    }

    #[test]
    fn duration_shape_matches_figure_6() {
        let (_, trace) = small_trace();
        let cdf = duration_cdf(&trace);
        let below_1s = cdf.fraction_at_or_below(1.0);
        assert!((0.80..=0.92).contains(&below_1s), "P[<1s] = {below_1s}");
        let below_30s = cdf.fraction_at_or_below(30.0);
        assert!((0.93..=0.985).contains(&below_30s), "P[<30s] = {below_30s}");
        assert!(cdf.max() <= 580.0);
    }

    #[test]
    fn shares_match_section_3_2() {
        let (_, trace) = small_trace();
        let stats = WorkloadStats::from_trace(&trace);
        assert!(
            (stats.frac_long_invocations - 0.041).abs() < 0.02,
            "{}",
            stats.frac_long_invocations
        );
        assert!(
            (stats.time_share_long_invocations - 0.82).abs() < 0.08,
            "{}",
            stats.time_share_long_invocations
        );
        assert!(
            (stats.frac_long_apps - 0.487).abs() < 0.1,
            "{}",
            stats.frac_long_apps
        );
        assert!(
            (stats.invocation_share_long_apps - 0.675).abs() < 0.08,
            "{}",
            stats.invocation_share_long_apps
        );
        assert!(
            stats.time_share_long_apps > 0.97,
            "{}",
            stats.time_share_long_apps
        );
    }

    #[test]
    fn inter_arrival_split_matches_figure_9() {
        // Inter-arrival shape is rate-dependent, so probe it near the
        // paper's aggregate rate instead of the sped-up duration trace.
        let spec = WorkloadSpec::paper_fsmall().scaled(119, 4.0);
        let wl = Workload::generate(&spec, &seeds());
        let trace = wl.invocations(SimDuration::from_hours(6), &seeds());
        let (short, long) = inter_arrival_cdfs(&trace, &wl);
        let (short, long) = (short.unwrap(), long.unwrap());
        // Short apps have more inter-arrival mass below 10 s.
        assert!(
            short.fraction_at_or_below(10.0) > long.fraction_at_or_below(10.0),
            "short {} vs long {}",
            short.fraction_at_or_below(10.0),
            long.fraction_at_or_below(10.0)
        );
    }

    #[test]
    fn per_app_percentiles_are_ordered() {
        let (_, trace) = small_trace();
        let p99 = per_app_percentile_cdf(&trace, 99.0);
        let max = per_app_percentile_cdf(&trace, 100.0);
        // At every probe point the max curve dominates the P99 curve.
        for x in [0.1, 1.0, 10.0, 30.0, 100.0] {
            assert!(max.fraction_at_or_below(x) <= p99.fraction_at_or_below(x) + 1e-12);
        }
    }

    #[test]
    fn flarge_has_lighter_tail_than_fsmall() {
        let fsmall = WorkloadSpec::paper_fsmall().scaled(100, 40.0);
        let flarge = WorkloadSpec::paper_flarge_scaled(100).scaled(100, 40.0);
        let horizon = SimDuration::from_mins(30);
        let ts = Workload::generate(&fsmall, &seeds()).invocations(horizon, &seeds());
        let tl = Workload::generate(&flarge, &seeds()).invocations(horizon, &seeds());
        let ss = WorkloadStats::from_trace(&ts);
        let sl = WorkloadStats::from_trace(&tl);
        assert!(sl.frac_long_apps < ss.frac_long_apps);
    }

    #[test]
    fn app_model_respects_bounds() {
        let (wl, _) = small_trace();
        let mut rng = seeds().stream("probe");
        for app in wl.apps.iter().take(20) {
            for _ in 0..50 {
                let d = app.sample_duration(&mut rng);
                assert!(d >= SimDuration::from_millis(1));
                if app.class == AppClass::Short {
                    assert!(d <= SimDuration::from_secs(25));
                }
            }
        }
    }
}
