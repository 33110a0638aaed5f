//! Fault *processes*: rates and probabilities that compile into plans.
//!
//! A [`FaultSpec`] is declarative — "6 crash-stop kills per hour,
//! 30% of eviction warnings lost, 1% of dispatches dropped" — and
//! [`FaultSpec::compile`] freezes it against a cluster size, a horizon
//! and a [`SeedFactory`] into a concrete [`FaultPlan`]. Each process
//! draws from its own labelled stream, so enabling one fault family
//! never perturbs the draws of another, and a zero-rate process draws
//! nothing at all. The shapes of the faults — delay distributions,
//! straggler derate and window lengths — are the constants below; a spec
//! sets only how often each family strikes.

use hrv_trace::dist::{BoundedPareto, Exponential, Sampler};
use hrv_trace::rng::SeedFactory;
use hrv_trace::time::{SimDuration, SimTime};
use rand::RngExt;

use crate::plan::{DispatchFaults, FaultKind, FaultPlan, WarningFault};

/// Bounded-Pareto parameters `(lo, hi, alpha)` of a late eviction
/// warning's delay, seconds.
pub const WARNING_DELAY: (f64, f64, f64) = (5.0, 25.0, 1.5);

/// Bounded-Pareto parameters `(lo, hi, alpha)` of a delayed dispatch's
/// extra latency, seconds.
pub const DISPATCH_DELAY: (f64, f64, f64) = (0.05, 2.0, 1.3);

/// Fraction of allocated CPUs a straggler actually progresses at.
pub const STRAGGLER_FACTOR: f64 = 0.25;

/// How long each straggler window lasts.
pub const STRAGGLER_DURATION: SimDuration = SimDuration::from_secs(60);

/// How long each cluster-view staleness window lasts.
pub const STALENESS_WINDOW: SimDuration = SimDuration::from_secs(5);

const _: () = assert!(
    STRAGGLER_FACTOR > 0.0 && STRAGGLER_FACTOR <= 1.0,
    "STRAGGLER_FACTOR must be in (0, 1]"
);

/// A declarative fault scenario: Poisson rates and Bernoulli
/// probabilities for every fault family the platform can absorb.
///
/// All rates are per hour of simulated time and apply cluster-wide
/// (victims are drawn uniformly among the initial invoker slots).
/// Setting a rate or probability to zero disables that family without
/// consuming any randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Crash-stop invoker kills per hour, cluster-wide.
    pub crashes_per_hour: f64,
    /// Probability that an invoker's eviction warning never arrives.
    pub warning_drop_prob: f64,
    /// Probability (given not dropped) that the warning arrives late, by
    /// [`WARNING_DELAY`].
    pub warning_delay_prob: f64,
    /// Probability that a dispatch message is lost.
    pub dispatch_drop_prob: f64,
    /// Probability that a dispatch message is delayed, by
    /// [`DISPATCH_DELAY`].
    pub dispatch_delay_prob: f64,
    /// Straggler windows opening per hour, cluster-wide (each derates its
    /// invoker to [`STRAGGLER_FACTOR`] for [`STRAGGLER_DURATION`]).
    pub stragglers_per_hour: f64,
    /// Cluster-view staleness windows per hour (each lasts
    /// [`STALENESS_WINDOW`]).
    pub staleness_per_hour: f64,
}

impl FaultSpec {
    /// The fault-free spec: compiles to the zero plan.
    pub fn none() -> Self {
        FaultSpec {
            crashes_per_hour: 0.0,
            warning_drop_prob: 0.0,
            warning_delay_prob: 0.0,
            dispatch_drop_prob: 0.0,
            dispatch_delay_prob: 0.0,
            stragglers_per_hour: 0.0,
            staleness_per_hour: 0.0,
        }
    }

    /// The canonical mixed-fault scenario of the chaos suite, scaled by
    /// `intensity` (0 = fault-free, 1 = nominal, 2 = double rates).
    pub fn chaos(intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "chaos intensity must be finite and non-negative, got {intensity}"
        );
        FaultSpec {
            crashes_per_hour: 18.0 * intensity,
            warning_drop_prob: (0.30 * intensity).min(1.0),
            warning_delay_prob: (0.40 * intensity).min(1.0),
            dispatch_drop_prob: (0.01 * intensity).min(0.5),
            dispatch_delay_prob: (0.05 * intensity).min(0.5),
            stragglers_per_hour: 12.0 * intensity,
            staleness_per_hour: 6.0 * intensity,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on negative rates, probabilities outside `[0, 1]`, or a
    /// drop+delay dispatch mass above 1.
    pub fn validate(&self) {
        let rate = |v: f64, name: &str| {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        };
        let prob = |v: f64, name: &str| {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name} must be in [0, 1], got {v}"
            );
        };
        rate(self.crashes_per_hour, "crashes_per_hour");
        rate(self.stragglers_per_hour, "stragglers_per_hour");
        rate(self.staleness_per_hour, "staleness_per_hour");
        prob(self.warning_drop_prob, "warning_drop_prob");
        prob(self.warning_delay_prob, "warning_delay_prob");
        prob(self.dispatch_drop_prob, "dispatch_drop_prob");
        prob(self.dispatch_delay_prob, "dispatch_delay_prob");
        assert!(
            self.dispatch_drop_prob + self.dispatch_delay_prob <= 1.0,
            "dispatch drop + delay probability exceeds 1"
        );
    }

    /// Freezes this spec into a [`FaultPlan`] for a cluster of
    /// `n_invokers` initial slots over `[0, horizon)`.
    ///
    /// Deterministic: the same `(spec, n_invokers, horizon, seeds)`
    /// always yields the same plan. Each fault family draws from its own
    /// labelled stream of `seeds`.
    pub fn compile(&self, n_invokers: u32, horizon: SimDuration, seeds: &SeedFactory) -> FaultPlan {
        self.validate();
        let mut plan = FaultPlan::default();
        if n_invokers == 0 {
            return plan;
        }

        // Crash-stop kills: a cluster-wide Poisson process; each arrival
        // picks a uniform victim slot.
        if self.crashes_per_hour > 0.0 {
            let mut rng = seeds.stream("fault/crash");
            let gap = Exponential::with_rate(self.crashes_per_hour / 3600.0);
            let mut t = SimDuration::from_secs_f64(gap.sample(&mut rng));
            while t < horizon {
                let victim = rng.random_range(0..n_invokers);
                plan.push(SimTime::ZERO + t, FaultKind::Crash { invoker: victim });
                t += SimDuration::from_secs_f64(gap.sample(&mut rng));
            }
        }

        // Warning faults: one roll per invoker slot, from an indexed
        // stream so adding a slot never shifts another slot's fate.
        if self.warning_drop_prob > 0.0 || self.warning_delay_prob > 0.0 {
            let (lo, hi, alpha) = WARNING_DELAY;
            let delay = BoundedPareto::new(lo, hi, alpha);
            for slot in 0..n_invokers {
                let mut rng = seeds.stream_indexed("fault/warning", u64::from(slot));
                let u: f64 = rng.random();
                if u < self.warning_drop_prob {
                    plan.warnings.insert(slot, WarningFault::Drop);
                } else if u < self.warning_drop_prob + self.warning_delay_prob {
                    let secs = delay.sample(&mut rng);
                    plan.warnings
                        .insert(slot, WarningFault::Delay(SimDuration::from_secs_f64(secs)));
                }
            }
        }

        // Straggler windows: Poisson openings, fixed derate and duration.
        if self.stragglers_per_hour > 0.0 {
            let mut rng = seeds.stream("fault/straggler");
            let gap = Exponential::with_rate(self.stragglers_per_hour / 3600.0);
            let mut t = SimDuration::from_secs_f64(gap.sample(&mut rng));
            while t < horizon {
                let victim = rng.random_range(0..n_invokers);
                plan.push(
                    SimTime::ZERO + t,
                    FaultKind::StragglerStart {
                        invoker: victim,
                        factor: STRAGGLER_FACTOR,
                    },
                );
                plan.push(
                    SimTime::ZERO + t + STRAGGLER_DURATION,
                    FaultKind::StragglerEnd { invoker: victim },
                );
                t += SimDuration::from_secs_f64(gap.sample(&mut rng));
            }
        }

        // View staleness windows: Poisson freezes of the controller view.
        if self.staleness_per_hour > 0.0 {
            let mut rng = seeds.stream("fault/staleness");
            let gap = Exponential::with_rate(self.staleness_per_hour / 3600.0);
            let mut t = SimDuration::from_secs_f64(gap.sample(&mut rng));
            while t < horizon {
                plan.push(SimTime::ZERO + t, FaultKind::ViewFreeze);
                plan.push(SimTime::ZERO + t + STALENESS_WINDOW, FaultKind::ViewThaw);
                t += SimDuration::from_secs_f64(gap.sample(&mut rng));
            }
        }

        // Dispatch faults stay a runtime process; only the seed is drawn
        // here (derived, not sampled, so the stream stays untouched).
        if self.dispatch_drop_prob > 0.0 || self.dispatch_delay_prob > 0.0 {
            let (lo, hi, alpha) = DISPATCH_DELAY;
            plan.dispatch = Some(DispatchFaults {
                drop_prob: self.dispatch_drop_prob,
                delay_prob: self.dispatch_delay_prob,
                delay: BoundedPareto::new(lo, hi, alpha),
                seed: seeds.seed_for("fault/dispatch"),
            });
        }

        plan.finish();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spec_compiles_to_zero_plan() {
        let seeds = SeedFactory::new(1);
        let plan = FaultSpec::none().compile(8, SimDuration::from_hours(1), &seeds);
        assert!(plan.is_zero());
        assert!(FaultSpec::chaos(0.0)
            .compile(8, SimDuration::from_hours(1), &seeds)
            .is_zero());
    }

    #[test]
    fn compile_is_deterministic() {
        let spec = FaultSpec::chaos(1.0);
        let seeds = SeedFactory::new(42).child("faults");
        let a = spec.compile(16, SimDuration::from_hours(2), &seeds);
        let b = spec.compile(16, SimDuration::from_hours(2), &seeds);
        assert_eq!(a, b);
        assert!(!a.is_zero());
        // A different root seed gives a different plan.
        let c = spec.compile(16, SimDuration::from_hours(2), &SeedFactory::new(43));
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_sorted_and_in_horizon_targets_in_range() {
        let spec = FaultSpec::chaos(2.0);
        let horizon = SimDuration::from_hours(4);
        let plan = spec.compile(5, horizon, &SeedFactory::new(7));
        let mut last = SimTime::ZERO;
        for e in &plan.events {
            assert!(e.at >= last, "events not sorted");
            last = e.at;
            match e.kind {
                FaultKind::Crash { invoker }
                | FaultKind::StragglerStart { invoker, .. }
                | FaultKind::StragglerEnd { invoker } => assert!(invoker < 5),
                FaultKind::ViewFreeze | FaultKind::ViewThaw => {}
            }
        }
        // Window *openings* land inside the horizon (closings may spill).
        for e in &plan.events {
            if matches!(
                e.kind,
                FaultKind::Crash { .. } | FaultKind::StragglerStart { .. } | FaultKind::ViewFreeze
            ) {
                assert!(e.at < SimTime::ZERO + horizon);
            }
        }
    }

    #[test]
    fn intensity_scales_event_count() {
        let seeds = SeedFactory::new(11);
        let h = SimDuration::from_hours(8);
        let lo = FaultSpec::chaos(0.5).compile(10, h, &seeds);
        let hi = FaultSpec::chaos(4.0).compile(10, h, &seeds);
        assert!(hi.events.len() > lo.events.len());
        assert!(hi.warnings.len() >= lo.warnings.len());
    }

    #[test]
    fn independent_families_do_not_perturb_each_other() {
        // Enabling stragglers must not change the crash draws.
        let seeds = SeedFactory::new(5);
        let h = SimDuration::from_hours(2);
        let mut only_crash = FaultSpec::none();
        only_crash.crashes_per_hour = 12.0;
        let mut both = only_crash;
        both.stragglers_per_hour = 12.0;
        let crashes = |p: &FaultPlan| {
            p.events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        let a = only_crash.compile(6, h, &seeds);
        let b = both.compile(6, h, &seeds);
        assert_eq!(crashes(&a), crashes(&b));
    }
}
