//! Integer time types used throughout the simulator and trace models.
//!
//! All timestamps and durations are microsecond-resolution unsigned
//! integers. The event calendar orders events by `(SimTime, sequence)`, so
//! keeping time integral guarantees that replaying a simulation with the
//! same seed produces byte-identical results on every platform — floating
//! point time would make ordering depend on summation order.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock, in microseconds since simulation
/// start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for timers that are armed but never expected to fire.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant a whole number of seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Raw microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulator never walks
    /// backwards, so this indicates a logic error.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at `SimTime::MAX` instead of wrapping.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * MICROS_PER_SEC)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * MICROS_PER_SEC)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400 * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let us = secs * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(us.round() as u64)
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, rounding to microseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1e-3 {
            write!(f, "{}us", self.0)
        } else if s < 1.0 {
            write!(f, "{:.1}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.2}s")
        } else if s < 2.0 * 3_600.0 {
            write!(f, "{:.1}m", s / 60.0)
        } else if s < 2.0 * 86_400.0 {
            write!(f, "{:.1}h", s / 3_600.0)
        } else {
            write!(f, "{:.1}d", s / 86_400.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3_600);
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
        assert_eq!(SimTime::from_secs(7).as_micros(), 7_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!((t + d).since(t), d);
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(d + d, SimDuration::from_secs(8));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::ZERO.since(SimTime::from_secs(1));
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.0ms");
        assert_eq!(format!("{}", SimDuration::from_secs(30)), "30.00s");
        assert_eq!(format!("{}", SimDuration::from_mins(30)), "30.0m");
        assert_eq!(format!("{}", SimDuration::from_hours(12)), "12.0h");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3.0d");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
