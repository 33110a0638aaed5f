//! Arrival processes.
//!
//! The paper drives its OpenWhisk experiments with Locust generating a
//! Poisson arrival process (Section 7.1), and replays production traces
//! whose aggregate rate varies over time (Section 7.6, Figure 19). Both are
//! modelled here: a homogeneous Poisson process and a piecewise-constant
//! rate (time-varying) Poisson process implemented by thinning.

use rand::RngExt;

use crate::time::{SimDuration, SimTime};

/// A homogeneous Poisson process with a fixed rate in events/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Creates a process with `rate` events per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "bad rate {rate}");
        PoissonProcess { rate }
    }

    /// The configured rate in events/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws the gap to the next event.
    pub fn next_gap(&self, rng: &mut dyn rand::Rng) -> SimDuration {
        let u: f64 = loop {
            let u = rng.random_range(0.0..1.0);
            if u > 0.0 {
                break u;
            }
        };
        SimDuration::from_secs_f64(-u.ln() / self.rate).max(SimDuration::from_micros(1))
    }

    /// Generates all event times in `[start, start + horizon)`.
    pub fn times(
        &self,
        rng: &mut dyn rand::Rng,
        start: SimTime,
        horizon: SimDuration,
    ) -> Vec<SimTime> {
        let end = start + horizon;
        let mut out = Vec::new();
        let mut t = start + self.next_gap(rng);
        while t < end {
            out.push(t);
            t += self.next_gap(rng);
        }
        out
    }
}

/// A piecewise-constant rate profile: `(start_offset, rate)` breakpoints.
///
/// The rate between breakpoints is the rate of the most recent breakpoint;
/// before the first breakpoint the rate is that of the first breakpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    points: Vec<(SimDuration, f64)>,
}

impl RateProfile {
    /// Creates a profile from breakpoints sorted by offset.
    ///
    /// # Panics
    ///
    /// Panics if empty, unsorted, or any rate is negative/non-finite.
    pub fn new(points: Vec<(SimDuration, f64)>) -> Self {
        assert!(!points.is_empty(), "profile needs >= 1 breakpoint");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must be strictly sorted");
        }
        for &(_, r) in &points {
            assert!(r.is_finite() && r >= 0.0, "bad rate {r}");
        }
        RateProfile { points }
    }

    /// The rate at offset `t` from the profile start.
    pub fn rate_at(&self, t: SimDuration) -> f64 {
        let idx = self.points.partition_point(|&(off, _)| off <= t);
        if idx == 0 {
            self.points[0].1
        } else {
            self.points[idx - 1].1
        }
    }

    /// The maximum rate anywhere in the profile.
    pub fn max_rate(&self) -> f64 {
        self.points.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }

    /// Scales every rate by `k`.
    pub fn scaled(&self, k: f64) -> RateProfile {
        assert!(k.is_finite() && k >= 0.0);
        RateProfile {
            points: self.points.iter().map(|&(o, r)| (o, r * k)).collect(),
        }
    }
}

/// A non-homogeneous Poisson process over a [`RateProfile`], sampled by
/// thinning against the profile's maximum rate.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeVaryingPoisson {
    profile: RateProfile,
}

impl TimeVaryingPoisson {
    /// Creates a process following `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile's maximum rate is zero (no events could ever
    /// be generated).
    pub fn new(profile: RateProfile) -> Self {
        assert!(profile.max_rate() > 0.0, "profile is identically zero");
        TimeVaryingPoisson { profile }
    }

    /// The underlying rate profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Generates all event times in `[start, start + horizon)`.
    pub fn times(
        &self,
        rng: &mut dyn rand::Rng,
        start: SimTime,
        horizon: SimDuration,
    ) -> Vec<SimTime> {
        let lambda_max = self.profile.max_rate();
        let envelope = PoissonProcess::new(lambda_max);
        let end = start + horizon;
        let mut out = Vec::new();
        let mut t = start;
        loop {
            t = t.saturating_add(envelope.next_gap(rng));
            if t >= end {
                break;
            }
            let r = self.profile.rate_at(t.since(start));
            if r > 0.0 && rng.random_range(0.0..1.0) < r / lambda_max {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn poisson_rate_is_respected() {
        let p = PoissonProcess::new(10.0);
        let mut r = rng();
        let times = p.times(&mut r, SimTime::ZERO, SimDuration::from_secs(1_000));
        let rate = times.len() as f64 / 1_000.0;
        assert!((rate - 10.0).abs() < 0.5, "observed rate {rate}");
    }

    #[test]
    fn poisson_times_are_sorted_in_range() {
        let p = PoissonProcess::new(5.0);
        let mut r = rng();
        let start = SimTime::from_secs(100);
        let times = p.times(&mut r, start, SimDuration::from_secs(50));
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(times
            .iter()
            .all(|&t| t >= start && t < start + SimDuration::from_secs(50)));
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let p = PoissonProcess::new(2.0);
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| p.next_gap(&mut r).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean gap {mean}");
    }

    #[test]
    fn rate_profile_lookup() {
        let prof = RateProfile::new(vec![
            (SimDuration::ZERO, 1.0),
            (SimDuration::from_secs(10), 5.0),
            (SimDuration::from_secs(20), 0.0),
        ]);
        assert_eq!(prof.rate_at(SimDuration::ZERO), 1.0);
        assert_eq!(prof.rate_at(SimDuration::from_secs(9)), 1.0);
        assert_eq!(prof.rate_at(SimDuration::from_secs(10)), 5.0);
        assert_eq!(prof.rate_at(SimDuration::from_secs(30)), 0.0);
        assert_eq!(prof.max_rate(), 5.0);
    }

    #[test]
    fn scaled_profile() {
        let prof = RateProfile::new(vec![(SimDuration::ZERO, 2.0)]).scaled(3.0);
        assert_eq!(prof.rate_at(SimDuration::ZERO), 6.0);
    }

    #[test]
    fn time_varying_respects_profile() {
        let prof = RateProfile::new(vec![
            (SimDuration::ZERO, 1.0),
            (SimDuration::from_secs(500), 20.0),
        ]);
        let tv = TimeVaryingPoisson::new(prof);
        let mut r = rng();
        let times = tv.times(&mut r, SimTime::ZERO, SimDuration::from_secs(1_000));
        let early = times
            .iter()
            .filter(|&&t| t < SimTime::from_secs(500))
            .count() as f64
            / 500.0;
        let late = times
            .iter()
            .filter(|&&t| t >= SimTime::from_secs(500))
            .count() as f64
            / 500.0;
        assert!((early - 1.0).abs() < 0.3, "early rate {early}");
        assert!((late - 20.0).abs() < 1.5, "late rate {late}");
    }

    #[test]
    fn zero_rate_segment_generates_nothing() {
        let prof = RateProfile::new(vec![
            (SimDuration::ZERO, 0.0),
            (SimDuration::from_secs(10), 4.0),
        ]);
        let tv = TimeVaryingPoisson::new(prof);
        let mut r = rng();
        let times = tv.times(&mut r, SimTime::ZERO, SimDuration::from_secs(20));
        assert!(times.iter().all(|&t| t >= SimTime::from_secs(10)));
        assert!(!times.is_empty());
    }
}
