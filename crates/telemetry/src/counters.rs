//! The diagnostic counter registry.
//!
//! Every count the platform reports lives in exactly one place. Counts the
//! experiments and the benchmark harness read — retries, re-dispatches,
//! quarantines, prewarm totals — are plain `MetricsCollector` fields.
//! This registry holds the diagnostic counters that have no field: `u64`
//! sums, one per [`CounterId`], that add across shard merges, so a new
//! one costs a variant here instead of a field, a merge line and a
//! default.

use serde::{Deserialize, Serialize};

/// Every registry counter the platform records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterId {
    /// Health pings that sent no `PingReport` because the snapshot equalled
    /// the invoker's previous report (one per ping, not per replica).
    PingReportsSkipped,
}

impl CounterId {
    /// All counters, in registry order.
    pub const ALL: [CounterId; 1] = [CounterId::PingReportsSkipped];

    fn index(&self) -> usize {
        CounterId::ALL
            .iter()
            .position(|c| c == self)
            .expect("counter registered in ALL")
    }
}

/// One `u64` per [`CounterId`]; shards hold partial sums.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRegistry {
    values: Vec<u64>,
}

impl Default for CounterRegistry {
    fn default() -> Self {
        CounterRegistry {
            values: vec![0; CounterId::ALL.len()],
        }
    }
}

impl CounterRegistry {
    /// A zeroed registry with every counter registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id.index()]
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, id: CounterId) {
        self.values[id.index()] += 1;
    }

    /// Merges a peer shard's registry: every counter adds.
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (mine, theirs) in self.values.iter_mut().zip(&other.values) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_counters_add_across_merge() {
        let mut a = CounterRegistry::new();
        let mut b = CounterRegistry::new();
        a.incr(CounterId::PingReportsSkipped);
        b.incr(CounterId::PingReportsSkipped);
        b.incr(CounterId::PingReportsSkipped);
        a.merge(&b);
        assert_eq!(a.get(CounterId::PingReportsSkipped), 3);
        assert_eq!(b.get(CounterId::PingReportsSkipped), 2);
    }
}
