//! Latency attribution: the additive phase decomposition.
//!
//! Every completed invocation's end-to-end latency is split into five
//! phases, measured in integer microseconds so the parts sum *exactly*
//! to `finished - arrival`:
//!
//! * **sched** — arrival to the final dispatch leaving the controller
//!   (includes LB decision time, placement retries, recovery backoff and
//!   re-dispatch of earlier destroyed attempts);
//! * **bus** — the final dispatch's bus hop, controller → invoker;
//! * **queue** — invoker-local queue wait until the start decision;
//! * **coldstart** — container startup delay (zero for warm starts);
//! * **exec** — execution, including harvest-resize stretching.
//!
//! Percentile attribution picks the *representative invocation* at the
//! requested order statistic of total latency — a real invocation, so its
//! components still sum exactly — rather than averaging phase vectors,
//! which would blur cause (a p99 dominated by one cold start would look
//! like "a bit of everything").

use hrv_trace::time::SimTime;
use serde::{Deserialize, Serialize};

/// Phase split of one completed invocation, integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Invocation id.
    pub id: u64,
    /// Arrival at the controller.
    pub arrival: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Whether the serving start was cold.
    pub cold: bool,
    /// Controller scheduling (arrival → final dispatch), µs.
    pub sched_us: u64,
    /// Bus hop of the final dispatch, µs.
    pub bus_us: u64,
    /// Invoker queue wait, µs.
    pub queue_us: u64,
    /// Container startup delay, µs (zero when warm).
    pub coldstart_us: u64,
    /// Execution, µs.
    pub exec_us: u64,
}

impl PhaseRecord {
    /// Sum of the phases — exactly `finished - arrival` by construction.
    pub fn total_us(&self) -> u64 {
        self.sched_us + self.bus_us + self.queue_us + self.coldstart_us + self.exec_us
    }

    /// The phase vector in seconds.
    pub fn components(&self) -> PhaseComponents {
        const US: f64 = 1e6;
        PhaseComponents {
            sched_secs: self.sched_us as f64 / US,
            bus_secs: self.bus_us as f64 / US,
            queue_secs: self.queue_us as f64 / US,
            coldstart_secs: self.coldstart_us as f64 / US,
            exec_secs: self.exec_us as f64 / US,
        }
    }
}

/// A phase vector in seconds (one invocation's, or a mean).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseComponents {
    pub sched_secs: f64,
    pub bus_secs: f64,
    pub queue_secs: f64,
    pub coldstart_secs: f64,
    pub exec_secs: f64,
}

impl PhaseComponents {
    /// Sum of the components.
    pub fn total_secs(&self) -> f64 {
        self.sched_secs + self.bus_secs + self.queue_secs + self.coldstart_secs + self.exec_secs
    }

    /// `(label, seconds)` pairs in phase order, for table rendering.
    pub fn parts(&self) -> [(&'static str, f64); 5] {
        [
            ("sched", self.sched_secs),
            ("bus", self.bus_secs),
            ("queue", self.queue_secs),
            ("coldstart", self.coldstart_secs),
            ("exec", self.exec_secs),
        ]
    }
}

/// Phase decomposition of an entire run's latency distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyAttribution {
    /// Phase rows sorted by `(total latency, id)` — the order statistics.
    rows: Vec<PhaseRecord>,
    mean: PhaseComponents,
}

impl LatencyAttribution {
    /// Builds the attribution from per-invocation phase rows. Returns
    /// `None` when no rows exist (telemetry off or nothing completed).
    pub fn from_rows(mut rows: Vec<PhaseRecord>) -> Option<Self> {
        if rows.is_empty() {
            return None;
        }
        rows.sort_by_key(|r| (r.total_us(), r.id));
        let n = rows.len() as f64;
        let mut mean = PhaseComponents::default();
        for r in &rows {
            let c = r.components();
            mean.sched_secs += c.sched_secs;
            mean.bus_secs += c.bus_secs;
            mean.queue_secs += c.queue_secs;
            mean.coldstart_secs += c.coldstart_secs;
            mean.exec_secs += c.exec_secs;
        }
        mean.sched_secs /= n;
        mean.bus_secs /= n;
        mean.queue_secs /= n;
        mean.coldstart_secs /= n;
        mean.exec_secs /= n;
        Some(LatencyAttribution { rows, mean })
    }

    /// Number of attributed invocations.
    pub fn count(&self) -> usize {
        self.rows.len()
    }

    /// Mean phase vector across all attributed invocations.
    pub fn mean(&self) -> PhaseComponents {
        self.mean
    }

    /// The representative invocation at the `p`-th latency percentile
    /// (`p` in `[0, 100]`, nearest order statistic under the same
    /// `rank = p/100 * (n-1)` convention as [`hrv_trace::stats::Cdf`]).
    /// Its components sum exactly to its own end-to-end latency.
    pub fn percentile_row(&self, p: f64) -> &PhaseRecord {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = self.rows.len();
        let rank = p / 100.0 * (n - 1) as f64;
        &self.rows[rank.round() as usize]
    }

    /// Phase vector of the representative invocation at percentile `p`.
    pub fn percentile(&self, p: f64) -> PhaseComponents {
        self.percentile_row(p).components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, sched: u64, bus: u64, queue: u64, cold: u64, exec: u64) -> PhaseRecord {
        let total = sched + bus + queue + cold + exec;
        PhaseRecord {
            id,
            arrival: SimTime::from_micros(1_000),
            finished: SimTime::from_micros(1_000 + total),
            cold: cold > 0,
            sched_us: sched,
            bus_us: bus,
            queue_us: queue,
            coldstart_us: cold,
            exec_us: exec,
        }
    }

    #[test]
    fn phases_sum_to_latency() {
        let r = row(1, 10, 2_000, 5, 2_500_000, 100_000);
        assert_eq!(r.total_us(), r.finished.since(r.arrival).as_micros());
        let c = r.components();
        assert!((c.total_secs() - r.total_us() as f64 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn empty_rows_yield_none() {
        assert!(LatencyAttribution::from_rows(Vec::new()).is_none());
    }

    #[test]
    fn percentile_picks_order_statistics() {
        let rows: Vec<PhaseRecord> = (0..101)
            .map(|i| row(i, 0, 2_000, 0, 0, i * 1_000))
            .collect();
        let a = LatencyAttribution::from_rows(rows).unwrap();
        assert_eq!(a.count(), 101);
        assert_eq!(a.percentile_row(0.0).id, 0);
        assert_eq!(a.percentile_row(50.0).id, 50);
        assert_eq!(a.percentile_row(99.0).id, 99);
        assert_eq!(a.percentile_row(100.0).id, 100);
        let p99 = a.percentile(99.0);
        assert!((p99.total_secs() - (2_000.0 + 99_000.0) / 1e6).abs() < 1e-9);
    }
}
