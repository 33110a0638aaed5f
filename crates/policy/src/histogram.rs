//! The hybrid-histogram policy of *Serverless in the Wild* (Shahrad et
//! al., ATC '20), adapted to the invoker-local setting.
//!
//! Each function gets a fixed-width histogram of observed inter-arrival
//! times (IATs). When a container goes idle the policy reads two
//! percentile cutoffs from the histogram:
//!
//! * the **head** (low percentile) — how soon the next invocation could
//!   plausibly arrive;
//! * the **tail** (high percentile) — how late it could plausibly be.
//!
//! Frequently-invoked functions (head shorter than a cold start is worth
//! avoiding) simply stay warm through the tail. Rarely-invoked functions
//! are unloaded immediately and **prewarmed**: a fresh container is
//! ordered so it is warm `prewarm_window` before the head-percentile
//! arrival, and kept until the tail. Functions whose IATs mostly fall
//! outside the histogram range (OOB), or with too few observations, fall
//! back to the platform's fixed keep-alive.

use serde::{Deserialize, Serialize};

use hrv_trace::faas::FunctionId;
use hrv_trace::rng::IdMap;
use hrv_trace::time::{SimDuration, SimTime};

use crate::{ColdStartPolicy, IdleCtx, IdleDecision, PrewarmPlan};

/// Tuning of [`HybridHistogram`]. Defaults follow the paper's published
/// configuration (1-minute bins over a 4-hour range, 5th/99th
/// percentiles) scaled to simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridHistogramConfig {
    /// Histogram bin width (paper: 1 minute). Must be positive.
    pub bin_width: SimDuration,
    /// Number of bins; IATs beyond `bins * bin_width` count as
    /// out-of-bounds (paper: 4 hours of range).
    pub bins: u32,
    /// Head percentile: the earliest plausible next arrival (paper: 5).
    pub head_pct: f64,
    /// Tail percentile: the latest plausible next arrival (paper: 99).
    pub tail_pct: f64,
    /// Observations required before the histogram is trusted; below
    /// this the policy falls back to the fixed keep-alive.
    pub min_samples: u64,
    /// Observations required before the tail percentile may *extend*
    /// the keep-alive past the platform's fixed TTL. A sparse
    /// histogram's "99th percentile" is just its sample maximum —
    /// stretching warm memory on it is premature. The keep path never
    /// *shortens* the TTL below the fixed baseline at any sample count:
    /// on memoryless traffic a p-th percentile cutoff converts
    /// `(100 - p)%` of arrivals into cold starts for a sliver of
    /// memory, so the policy's savings come from the unload/prewarm
    /// path instead.
    pub keep_confidence: u64,
    /// When more than this fraction of IATs fall out of histogram
    /// bounds, the pattern is not representative: fall back to the
    /// fixed keep-alive.
    pub oob_fraction: f64,
    /// How far before the head-percentile arrival the prewarmed
    /// container must be warm — the safety margin that absorbs
    /// prediction error. Must be at least one bus hop.
    pub prewarm_window: SimDuration,
}

impl Default for HybridHistogramConfig {
    fn default() -> Self {
        HybridHistogramConfig {
            bin_width: SimDuration::from_secs(60),
            bins: 240,
            head_pct: 5.0,
            tail_pct: 99.0,
            min_samples: 8,
            keep_confidence: 64,
            oob_fraction: 0.5,
            prewarm_window: SimDuration::from_secs(30),
        }
    }
}

impl HybridHistogramConfig {
    /// Validates the tuning; see [`crate::ColdStartConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics on nonsensical settings.
    pub fn validate(&self, bus_latency: SimDuration) {
        assert!(
            !self.bin_width.is_zero(),
            "histogram bin width must be positive: zero-width bins put \
             every observation out of bounds and the policy degenerates"
        );
        assert!(self.bins >= 1, "histogram needs at least one bin");
        assert!(
            self.head_pct > 0.0 && self.head_pct <= self.tail_pct && self.tail_pct <= 100.0,
            "percentile cutoffs must satisfy 0 < head <= tail <= 100"
        );
        assert!(
            (0.0..=1.0).contains(&self.oob_fraction),
            "OOB fallback fraction must be within [0, 1]"
        );
        assert!(
            self.prewarm_window >= bus_latency,
            "prewarm window must be at least one bus hop: prewarm orders \
             are cross-entity messages bound by the bus-latency lookahead"
        );
    }
}

/// Fixed-width inter-arrival-time histogram with an out-of-bounds
/// bucket. Integer bins keyed by `IAT / bin_width` — no floats touch the
/// decision path, so decisions are exactly reproducible.
#[derive(Debug, Clone)]
pub struct IdleHistogram {
    counts: Vec<u64>,
    oob: u64,
    total: u64,
}

impl IdleHistogram {
    /// An empty histogram with `bins` in-range bins.
    pub fn new(bins: u32) -> Self {
        IdleHistogram {
            counts: vec![0; bins as usize],
            oob: 0,
            total: 0,
        }
    }

    /// Records one inter-arrival time.
    pub fn record(&mut self, iat: SimDuration, bin_width: SimDuration) {
        let idx = (iat.as_micros() / bin_width.as_micros().max(1)) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.oob += 1;
        }
        self.total += 1;
    }

    /// Total observations (in-range + OOB).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Out-of-bounds observations.
    pub fn oob(&self) -> u64 {
        self.oob
    }

    /// The `p`-th percentile as a duration, read at the upper edge of
    /// the bin where the cumulative count crosses the target rank. When
    /// the rank lands in the OOB mass, returns the histogram range
    /// (`bins * bin_width`) — the most conservative in-range answer.
    pub fn percentile(&self, p: f64, bin_width: SimDuration) -> SimDuration {
        debug_assert!(self.total > 0, "percentile of an empty histogram");
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= target {
                return SimDuration::from_micros((idx as u64 + 1) * bin_width.as_micros());
            }
        }
        SimDuration::from_micros(self.counts.len() as u64 * bin_width.as_micros())
    }
}

/// Per-function observation state.
#[derive(Debug, Clone)]
struct FnState {
    hist: IdleHistogram,
    last_arrival: SimTime,
}

/// The hybrid keep-alive/prewarm policy. One instance per invoker; all
/// state derives from the arrival sequence that invoker observed.
#[derive(Debug)]
pub struct HybridHistogram {
    cfg: HybridHistogramConfig,
    functions: IdMap<FunctionId, FnState>,
}

impl HybridHistogram {
    /// Creates the policy with the given tuning.
    pub fn new(cfg: HybridHistogramConfig) -> Self {
        HybridHistogram {
            cfg,
            functions: IdMap::default(),
        }
    }

    /// The observation histogram for `function`, if any arrivals were
    /// seen (for tests and diagnostics).
    pub fn histogram(&self, function: FunctionId) -> Option<&IdleHistogram> {
        self.functions.get(&function).map(|s| &s.hist)
    }
}

impl ColdStartPolicy for HybridHistogram {
    fn observe_arrival(&mut self, function: FunctionId, now: SimTime) {
        let bins = self.cfg.bins;
        let bin_width = self.cfg.bin_width;
        match self.functions.get_mut(&function) {
            Some(st) => {
                let iat = now.saturating_since(st.last_arrival);
                st.hist.record(iat, bin_width);
                st.last_arrival = now;
            }
            None => {
                self.functions.insert(
                    function,
                    FnState {
                        hist: IdleHistogram::new(bins),
                        last_arrival: now,
                    },
                );
            }
        }
    }

    fn on_idle(&mut self, function: FunctionId, ctx: &IdleCtx) -> IdleDecision {
        let Some(st) = self.functions.get(&function) else {
            // Never observed an arrival (possible for implanted migrated
            // work): trust nothing, fall back.
            return IdleDecision::keep(ctx.fixed_keep_alive);
        };
        let total = st.hist.total();
        if total < self.cfg.min_samples {
            return IdleDecision::keep(ctx.fixed_keep_alive);
        }
        if st.hist.oob() as f64 > self.cfg.oob_fraction * total as f64 {
            // The pattern lives beyond the histogram range: not
            // representative, fall back (the paper's OOB escape hatch).
            return IdleDecision::keep(ctx.fixed_keep_alive);
        }
        let head = st.hist.percentile(self.cfg.head_pct, self.cfg.bin_width);
        let tail = st
            .hist
            .percentile(self.cfg.tail_pct, self.cfg.bin_width)
            .max(head);
        // The earliest plausible arrival is the head bin's *lower* edge —
        // conservative against unloading: a head reading of "within the
        // first bin" must never unload a hot function.
        let head_lower = head.saturating_sub(self.cfg.bin_width);
        // Unloading only pays off when the gap before the earliest
        // plausible arrival is wide enough to fit the prewarm lead time
        // (cold start + margin + one bus hop for the order itself).
        let floor = ctx.cold_start_delay + self.cfg.prewarm_window + ctx.bus_latency;
        if head_lower <= floor {
            // Hot function: stay warm at least the fixed baseline, and
            // through the tail once the histogram is populated enough to
            // trust it. Never below the baseline — see `keep_confidence`.
            let ttl = if total < self.cfg.keep_confidence {
                ctx.fixed_keep_alive
            } else {
                tail.max(ctx.fixed_keep_alive)
            };
            return IdleDecision::keep(ttl);
        }
        // Rare function: unload now, be warm again prewarm_window before
        // the earliest plausible arrival, stay until the tail.
        let warm_at = head_lower.saturating_sub(self.cfg.prewarm_window);
        IdleDecision {
            keep_alive: None,
            prewarm: Some(PrewarmPlan {
                warm_at,
                ttl: tail.saturating_sub(warm_at).max(self.cfg.prewarm_window),
            }),
        }
    }

    fn reads_idle_peers(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "hybrid"
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

    fn ctx(now_secs: u64) -> IdleCtx {
        IdleCtx {
            now: SimTime::from_secs(now_secs),
            fixed_keep_alive: SimDuration::from_mins(10),
            cold_start_delay: SimDuration::from_millis(2_500),
            bus_latency: SimDuration::from_millis(2),
            idle_peers: 0,
        }
    }

    fn feed(p: &mut HybridHistogram, func: FunctionId, period_secs: u64, n: u64) {
        for i in 0..=n {
            p.observe_arrival(func, SimTime::from_secs(i * period_secs));
        }
    }

    #[test]
    fn histogram_percentiles_read_upper_bin_edges() {
        let w = SimDuration::from_secs(60);
        let mut h = IdleHistogram::new(10);
        for _ in 0..9 {
            h.record(SimDuration::from_secs(90), w); // bin 1
        }
        h.record(SimDuration::from_secs(400), w); // bin 6
        assert_eq!(h.percentile(50.0, w), SimDuration::from_secs(120));
        assert_eq!(h.percentile(99.0, w), SimDuration::from_secs(420));
    }

    #[test]
    fn oob_mass_reads_range_and_counts() {
        let w = SimDuration::from_secs(60);
        let mut h = IdleHistogram::new(4);
        h.record(SimDuration::from_hours(2), w);
        assert_eq!(h.oob(), 1);
        assert_eq!(h.percentile(99.0, w), SimDuration::from_secs(240));
    }

    #[test]
    fn unseen_function_falls_back_to_fixed() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        let d = p.on_idle(f(9), &ctx(50));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn few_samples_fall_back_to_fixed() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        feed(&mut p, f(1), 300, 3); // 3 IATs < min_samples
        let d = p.on_idle(f(1), &ctx(1000));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
    }

    #[test]
    fn hot_function_stays_warm_through_a_long_tail() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        // Mostly 10-second IATs (head in bin 0 → hot) with a 1500-s
        // tail: a trusted histogram extends the keep-alive through the
        // tail's upper bin edge (1560 s), past the 10-minute baseline.
        feed(&mut p, f(1), 10, 70);
        for i in 1..=10 {
            p.observe_arrival(f(1), SimTime::from_secs(700 + i * 1500));
        }
        let d = p.on_idle(f(1), &ctx(30_000));
        assert_eq!(d.keep_alive, Some(SimDuration::from_secs(1560)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn tail_never_trims_below_the_fixed_keep_alive() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        // Purely hot traffic: the 60-s tail must not undercut the
        // 10-minute baseline even with a well-populated histogram.
        feed(&mut p, f(1), 10, 80);
        let d = p.on_idle(f(1), &ctx(900));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn sparse_tail_cannot_extend_the_fixed_keep_alive() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        // Hot head but only 20 samples — below keep_confidence: the
        // sample-max "tail" may not stretch warm memory past the fixed
        // TTL yet.
        feed(&mut p, f(1), 10, 15);
        for i in 0..5 {
            p.observe_arrival(f(1), SimTime::from_secs(10_000 + i * 1500));
        }
        let d = p.on_idle(f(1), &ctx(20_000));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn rare_function_unloads_and_prewarms() {
        let mut p = HybridHistogram::new(HybridHistogramConfig::default());
        // 30-minute IATs: head = tail = 1800 s (upper edge of bin 29).
        feed(&mut p, f(1), 1800, 12);
        let d = p.on_idle(f(1), &ctx(30_000));
        assert_eq!(d.keep_alive, None);
        let pw = d.prewarm.expect("rare function should prewarm");
        // Warm 30 s (the prewarm window) before the 1800-s bin lower edge.
        assert_eq!(pw.warm_at, SimDuration::from_secs(1770));
        assert!(pw.ttl >= SimDuration::from_secs(30));
    }

    #[test]
    fn oob_heavy_pattern_falls_back() {
        let cfg = HybridHistogramConfig {
            bins: 4, // 4-minute range
            ..HybridHistogramConfig::default()
        };
        let mut p = HybridHistogram::new(cfg);
        feed(&mut p, f(1), 3600, 12); // every IAT out of bounds
        let d = p.on_idle(f(1), &ctx(50_000));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn decisions_are_reproducible() {
        let mk = || {
            let mut p = HybridHistogram::new(HybridHistogramConfig::default());
            feed(&mut p, f(1), 1800, 12);
            feed(&mut p, f(2), 10, 30);
            (p.on_idle(f(1), &ctx(30_000)), p.on_idle(f(2), &ctx(30_000)))
        };
        assert_eq!(mk(), mk());
    }
}
