//! The named-counter registry.
//!
//! `MetricsCollector` grew its reliability and prewarm counters ad hoc —
//! `note_retry`, `note_redispatch`, `note_quarantine`, plus the per-policy
//! prewarm totals installed after shard merges. This registry gives every
//! counter a name and an explicit merge mode, so shard-merge semantics are
//! declared next to the counter instead of scattered across merge code:
//!
//! * [`MergeMode::Accumulate`] — per-shard partial sums; merging adds.
//! * [`MergeMode::AssignOnce`] — a cluster-wide total installed exactly
//!   once on the fully merged collector (the PR 8 "assigned, not added"
//!   contract, now debug-asserted instead of enforced by convention).

use serde::{Deserialize, Serialize};

/// How a counter combines across shard merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeMode {
    /// Shards hold partial sums; merge adds them.
    Accumulate,
    /// A post-merge total assigned exactly once; merge asserts neither
    /// side has been assigned yet.
    AssignOnce,
}

/// Every named counter the platform records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterId {
    /// Recovery retries scheduled after destroyed work.
    Retries,
    /// LB re-dispatches of destroyed work.
    Redispatches,
    /// Invoker quarantine entries.
    Quarantines,
    /// Total quarantined time, microseconds.
    QuarantineMicros,
    /// Prewarm containers spawned (cluster-wide, post-merge).
    PrewarmSpawns,
    /// Warm starts served by a prewarmed container's first use.
    PrewarmHits,
    /// Prewarmed containers reaped without serving.
    WastedPrewarms,
    /// Requested shard counts silently degraded to fewer shards by a
    /// feature-compatibility check.
    ShardDegrades,
    /// Health pings that sent no `PingReport` because the snapshot equalled
    /// the invoker's previous report (one per ping, not per replica).
    PingReportsSkipped,
}

impl CounterId {
    /// All counters, in registry order.
    pub const ALL: [CounterId; 9] = [
        CounterId::Retries,
        CounterId::Redispatches,
        CounterId::Quarantines,
        CounterId::QuarantineMicros,
        CounterId::PrewarmSpawns,
        CounterId::PrewarmHits,
        CounterId::WastedPrewarms,
        CounterId::ShardDegrades,
        CounterId::PingReportsSkipped,
    ];

    /// Stable snake_case name (dumps, exports).
    pub fn name(&self) -> &'static str {
        match self {
            CounterId::Retries => "retries",
            CounterId::Redispatches => "redispatches",
            CounterId::Quarantines => "quarantines",
            CounterId::QuarantineMicros => "quarantine_micros",
            CounterId::PrewarmSpawns => "prewarm_spawns",
            CounterId::PrewarmHits => "prewarm_hits",
            CounterId::WastedPrewarms => "wasted_prewarms",
            CounterId::ShardDegrades => "shard_degrades",
            CounterId::PingReportsSkipped => "ping_reports_skipped",
        }
    }

    /// The counter's merge semantics.
    pub fn mode(&self) -> MergeMode {
        match self {
            CounterId::Retries
            | CounterId::Redispatches
            | CounterId::Quarantines
            | CounterId::QuarantineMicros
            | CounterId::ShardDegrades
            | CounterId::PingReportsSkipped => MergeMode::Accumulate,
            CounterId::PrewarmSpawns | CounterId::PrewarmHits | CounterId::WastedPrewarms => {
                MergeMode::AssignOnce
            }
        }
    }

    fn index(&self) -> usize {
        CounterId::ALL
            .iter()
            .position(|c| c == self)
            .expect("counter registered in ALL")
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    value: u64,
    /// Only meaningful for assign-once counters.
    assigned: bool,
}

/// A fixed registry of named `u64` counters with declared merge modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRegistry {
    slots: Vec<Slot>,
}

impl Default for CounterRegistry {
    fn default() -> Self {
        CounterRegistry {
            slots: vec![Slot::default(); CounterId::ALL.len()],
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
        self.slots[id.index()].value
    }

    /// Increments an accumulating counter by one.
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds to an accumulating counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        debug_assert_eq!(
            id.mode(),
            MergeMode::Accumulate,
            "{} is assign-once; use assign()",
            id.name()
        );
        self.slots[id.index()].value += delta;
    }

    /// Installs an assign-once total. Debug-asserts it was not already
    /// assigned — each cluster-wide total must be installed exactly once,
    /// on the fully merged collector.
    pub fn assign(&mut self, id: CounterId, value: u64) {
        debug_assert_eq!(
            id.mode(),
            MergeMode::AssignOnce,
            "{} accumulates; use add()",
            id.name()
        );
        let slot = &mut self.slots[id.index()];
        debug_assert!(
            !slot.assigned,
            "assign-once counter {} installed twice",
            id.name()
        );
        slot.value = value;
        slot.assigned = true;
    }

    /// True when an assign-once counter has been installed.
    pub fn assigned(&self, id: CounterId) -> bool {
        self.slots[id.index()].assigned
    }

    /// Merges a peer shard's registry: accumulating counters add;
    /// assign-once counters must not have been installed on either side
    /// (totals are installed after the merge, on the merged collector).
    pub fn merge(&mut self, other: &CounterRegistry) {
        for id in CounterId::ALL {
            let i = id.index();
            match id.mode() {
                MergeMode::Accumulate => self.slots[i].value += other.slots[i].value,
                MergeMode::AssignOnce => {
                    debug_assert!(
                        !self.slots[i].assigned && !other.slots[i].assigned,
                        "assign-once counter {} installed before shard merge",
                        id.name()
                    );
                }
            }
        }
    }

    /// `(name, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL.iter().map(|id| (id.name(), self.get(*id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_counters_add_across_merge() {
        let mut a = CounterRegistry::new();
        let mut b = CounterRegistry::new();
        a.incr(CounterId::Retries);
        a.add(CounterId::QuarantineMicros, 500);
        b.incr(CounterId::Retries);
        b.incr(CounterId::Redispatches);
        a.merge(&b);
        assert_eq!(a.get(CounterId::Retries), 2);
        assert_eq!(a.get(CounterId::Redispatches), 1);
        assert_eq!(a.get(CounterId::QuarantineMicros), 500);
    }

    #[test]
    fn assign_once_installs_after_merge() {
        let mut a = CounterRegistry::new();
        let b = CounterRegistry::new();
        a.merge(&b);
        a.assign(CounterId::PrewarmSpawns, 42);
        assert_eq!(a.get(CounterId::PrewarmSpawns), 42);
        assert!(a.assigned(CounterId::PrewarmSpawns));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "installed twice")]
    fn double_assign_panics() {
        let mut a = CounterRegistry::new();
        a.assign(CounterId::PrewarmHits, 1);
        a.assign(CounterId::PrewarmHits, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "installed before shard merge")]
    fn merge_after_assign_panics() {
        let mut a = CounterRegistry::new();
        a.assign(CounterId::PrewarmHits, 1);
        let b = CounterRegistry::new();
        a.merge(&b);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterId::ALL.len());
    }
}
