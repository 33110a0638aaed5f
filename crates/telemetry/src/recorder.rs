//! The bounded, deterministic flight recorder.
//!
//! Each entity (controller, invoker) owns a FIFO ring of its last
//! `cap_per_entity` span events. Bounding per *entity* rather than per
//! shard is what makes the recorder shard-invariant: an entity lives on
//! exactly one shard, its events are recorded in its canonical processing
//! order, and its ring therefore retains the same suffix no matter how
//! the cluster is partitioned. Merging shard recorders is a disjoint
//! union of entity rings followed by a sort on `(at, entity, seq)`.

use std::collections::{BTreeMap, VecDeque};

use hrv_trace::time::SimTime;

use crate::span::{SpanEvent, SpanKind};

#[derive(Debug, Clone, Default)]
struct Ring {
    /// Next per-entity sequence number.
    seq: u64,
    /// Events evicted from the ring since the run started.
    dropped: u64,
    events: VecDeque<SpanEvent>,
}

/// Bounded per-entity span rings with a canonical merge order.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap_per_entity: usize,
    rings: BTreeMap<u32, Ring>,
}

impl FlightRecorder {
    /// A recorder retaining up to `cap_per_entity` spans per entity.
    /// A capacity of zero records nothing (the disabled state).
    pub fn new(cap_per_entity: usize) -> Self {
        FlightRecorder {
            cap_per_entity,
            rings: BTreeMap::new(),
        }
    }

    /// Records one span event, assigning the entity's next sequence
    /// number and evicting the entity's oldest event when full.
    pub fn record(&mut self, entity: u32, at: SimTime, invocation: u64, kind: SpanKind) {
        if self.cap_per_entity == 0 {
            return;
        }
        let ring = self.rings.entry(entity).or_default();
        let ev = SpanEvent {
            at,
            entity,
            seq: ring.seq,
            invocation,
            kind,
        };
        ring.seq += 1;
        if ring.events.len() == self.cap_per_entity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Retained events across all entities.
    pub fn len(&self) -> usize {
        self.rings.values().map(|r| r.events.len()).sum()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.rings.values().all(|r| r.events.is_empty())
    }

    /// Events evicted from rings since the run started.
    pub fn dropped(&self) -> u64 {
        self.rings.values().map(|r| r.dropped).sum()
    }

    /// Absorbs another recorder (a peer shard's). Entity rings must be
    /// disjoint: an entity is owned by exactly one shard.
    pub fn merge(&mut self, other: FlightRecorder) {
        if self.cap_per_entity == 0 {
            self.cap_per_entity = other.cap_per_entity;
        }
        for (entity, ring) in other.rings {
            let prev = self.rings.insert(entity, ring);
            debug_assert!(
                prev.is_none_or(|r| r.events.is_empty() && r.seq == 0),
                "entity {entity} recorded spans on two shards"
            );
        }
    }

    /// All retained events in the canonical `(at, entity, seq)` order —
    /// the shard-invariant view.
    pub fn canonical_events(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self
            .rings
            .values()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        out.sort_by_key(|e| e.key());
        out
    }

    /// The trailing `n` events of the canonical order — the crash-dump
    /// view ("last N events, canonically merged").
    pub fn tail(&self, n: usize) -> Vec<SpanEvent> {
        let all = self.canonical_events();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::time::SimTime as T;

    fn t(us: u64) -> T {
        T::from_micros(us)
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = FlightRecorder::new(0);
        r.record(1, t(5), 7, SpanKind::Arrival);
        assert!(r.is_empty());
        assert_eq!(r.canonical_events().len(), 0);
    }

    #[test]
    fn ring_bounds_per_entity_and_counts_drops() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5u64 {
            r.record(3, t(i), i, SpanKind::Arrival);
        }
        r.record(4, t(100), 9, SpanKind::Redispatch);
        assert_eq!(r.len(), 3, "entity 3 keeps 2, entity 4 keeps 1");
        assert_eq!(r.dropped(), 3);
        let evs = r.canonical_events();
        // Entity 3 retained its *last* two events (seq 3 and 4).
        assert_eq!(evs[0].seq, 3);
        assert_eq!(evs[1].seq, 4);
    }

    #[test]
    fn merge_is_disjoint_union_in_canonical_order() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.record(0, t(1), 1, SpanKind::Arrival);
        b.record(2, t(1), 1, SpanKind::Delivered);
        a.record(0, t(3), 2, SpanKind::Arrival);
        a.merge(b);
        let evs = a.canonical_events();
        assert_eq!(evs.len(), 3);
        // Same time sorts controller (entity 0) before invoker (entity 2).
        assert_eq!(evs[0].entity, 0);
        assert_eq!(evs[1].entity, 2);
        assert_eq!(evs[2].at, t(3));
    }

    #[test]
    fn tail_is_the_suffix_of_the_canonical_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..6u64 {
            r.record((i % 2) as u32, t(i), i, SpanKind::Arrival);
        }
        let tail = r.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].at, t(4));
        assert_eq!(tail[1].at, t(5));
    }
}
