//! Cross-shard messaging for the sharded simulation.
//!
//! The sharded driver partitions the platform's entities — the controller
//! (entity 0) and every invoker `i` (entity `i + 1`) — across shards. All
//! cross-entity interactions travel as timestamped [`Envelope`]s instead
//! of direct calendar schedules, and every envelope carries at least one
//! bus hop of delay. That minimum delay is the conservative lookahead: a
//! shard whose calendar already holds every envelope due before `stop`
//! can process it up to `stop` without ever hearing from a peer about
//! the past.
//!
//! # Canonical ordering
//!
//! Envelopes are totally ordered by `(deliver_at, sender, seq)` where
//! `seq` is a per-sender counter. A sender's sends happen in its own
//! (shard-count-invariant) processing order, so this key is the same no
//! matter which shard executed the sender — the foundation of the
//! byte-identical-for-any-shard-count guarantee. The receiving calendar
//! keeps envelopes in its envelope lane
//! ([`hrv_sim::calendar::EnvelopeLane`]), whose within-tick sort key
//! ends in `(sender, seq)`: same-instant envelopes are *delivered* in
//! this canonical order whatever order they arrived in. [`Envelope`]'s
//! `Ord` is the same key, for a driver that orders envelopes itself (the
//! benchmark harness's eager loop).

use hrv_sim::calendar::EnvelopeLane;
use hrv_trace::time::SimTime;

use crate::event::{Event, InvokerIndex};

/// Entity id: 0 is the controller, `i + 1` is invoker `i`, and controller
/// replicas `r >= 1` live in a reserved high range starting at
/// [`REPLICA_BASE`].
pub type EntityId = u32;

/// The controller's entity id. With controller replication this is
/// replica 0 — the replica that also runs the fleet monitor and absorbs
/// view-freeze faults.
pub const CONTROLLER: EntityId = 0;

/// First entity id of the controller-replica range. Replica `r > 0` is
/// entity `REPLICA_BASE + r`; replica 0 keeps the classic id 0 so the
/// single-replica configuration is byte-identical to the pre-replication
/// platform. The base is far above any realistic invoker count (invoker
/// `i` is entity `i + 1`).
pub const REPLICA_BASE: EntityId = 0xFFFF_0000;

/// Entity id of invoker `i`.
pub fn invoker_entity(i: InvokerIndex) -> EntityId {
    i + 1
}

/// Entity id of controller replica `r` (replica 0 is [`CONTROLLER`]).
pub fn replica_entity(r: u32) -> EntityId {
    if r == 0 {
        CONTROLLER
    } else {
        REPLICA_BASE + r
    }
}

/// An [`EntityId`] decoded into the entity it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entity {
    /// Controller replica `r`.
    Replica(u32),
    /// Invoker `i`.
    Invoker(InvokerIndex),
}

impl Entity {
    /// Inverse of [`replica_entity`] and [`invoker_entity`].
    pub(crate) fn of(id: EntityId) -> Entity {
        if id == CONTROLLER {
            Entity::Replica(0)
        } else if id >= REPLICA_BASE {
            Entity::Replica(id - REPLICA_BASE)
        } else {
            Entity::Invoker(id - 1)
        }
    }
}

/// A timestamped cross-entity message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Absolute delivery time (send time + at least one bus hop).
    pub deliver_at: SimTime,
    /// Sending entity (canonical tiebreak, not routing).
    pub sender: EntityId,
    /// Per-sender sequence number (canonical tiebreak).
    pub seq: u64,
    /// Receiving entity (routing: decides the target shard). Always
    /// `event`'s own `Event::target`: `Ctx::send` fills it in.
    pub target: EntityId,
    /// The payload, delivered as an ordinary calendar event.
    pub event: Event,
}

impl Envelope {
    /// The canonical total-order key. `(sender, seq)` is unique, so this
    /// never ties.
    pub fn key(&self) -> (SimTime, EntityId, u64) {
        (self.deliver_at, self.sender, self.seq)
    }

    /// Hands the message to the calendar of the shard hosting its target,
    /// to be delivered in canonical order (routing is done by then, so
    /// `target` is dropped).
    pub fn enter_lane<C: EnvelopeLane<Event>>(self, cal: &mut C) {
        cal.schedule_envelope(self.deliver_at, self.sender, self.seq, self.event);
    }
}

impl Eq for Envelope {}

impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Which slice of the platform one world instance owns.
///
/// The controller lives on shard 0; invoker `i` lives on shard
/// `i % shards`. The unsharded platform is the `1/1` plan, which owns
/// everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// This shard's index, `0 <= shard < shards`.
    pub shard: u32,
    /// Total shard count, at least 1.
    pub shards: u32,
}

impl ShardPlan {
    /// The plan of the unsharded platform: one shard owning everything.
    pub fn solo() -> Self {
        ShardPlan {
            shard: 0,
            shards: 1,
        }
    }

    /// Builds a plan, validating the index.
    ///
    /// # Panics
    ///
    /// Panics unless `shard < shards` and `shards >= 1`.
    pub fn new(shard: u32, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        ShardPlan { shard, shards }
    }

    /// Whether this shard hosts the controller.
    pub fn owns_controller(&self) -> bool {
        self.shard == 0
    }

    /// Whether this shard hosts invoker `i`.
    pub fn owns_invoker(&self, i: InvokerIndex) -> bool {
        i % self.shards == self.shard
    }

    /// Whether this shard hosts controller replica `r`. Replica `r` lives
    /// on shard `r % shards`, so replica 0 always shares shard 0 with the
    /// classic controller duties (monitor, view-freeze faults).
    pub fn owns_replica(&self, r: u32) -> bool {
        r % self.shards == self.shard
    }

    /// The shard hosting `entity`.
    pub fn shard_of(shards: u32, entity: EntityId) -> u32 {
        match Entity::of(entity) {
            Entity::Replica(r) => r % shards,
            Entity::Invoker(i) => i % shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(at: u64, sender: u32, seq: u64) -> Envelope {
        Envelope {
            deliver_at: SimTime::from_micros(at),
            sender,
            seq,
            target: CONTROLLER,
            event: Event::HealthSweep { replica: 0 },
        }
    }

    #[test]
    fn canonical_order_is_time_then_sender_then_seq() {
        let mut v = [env(5, 1, 0), env(3, 2, 7), env(3, 1, 9), env(3, 1, 2)];
        v.sort();
        let keys: Vec<_> = v.iter().map(|e| e.key()).collect();
        assert_eq!(
            keys,
            vec![
                (SimTime::from_micros(3), 1, 2),
                (SimTime::from_micros(3), 1, 9),
                (SimTime::from_micros(3), 2, 7),
                (SimTime::from_micros(5), 1, 0),
            ]
        );
    }

    #[test]
    fn plan_partitions_entities_disjointly() {
        for shards in [1u32, 2, 4, 8] {
            for invoker in 0..32u32 {
                let owners: Vec<u32> = (0..shards)
                    .filter(|&s| ShardPlan::new(s, shards).owns_invoker(invoker))
                    .collect();
                assert_eq!(owners.len(), 1, "invoker {invoker} @ {shards} shards");
                assert_eq!(
                    owners[0],
                    ShardPlan::shard_of(shards, invoker_entity(invoker))
                );
            }
            assert!(ShardPlan::new(0, shards).owns_controller());
            assert_eq!(ShardPlan::shard_of(shards, CONTROLLER), 0);
        }
    }

    #[test]
    fn replicas_partition_like_entities() {
        for shards in [1u32, 2, 4, 8] {
            for r in 0..16u32 {
                let owners: Vec<u32> = (0..shards)
                    .filter(|&s| ShardPlan::new(s, shards).owns_replica(r))
                    .collect();
                assert_eq!(owners.len(), 1, "replica {r} @ {shards} shards");
                assert_eq!(owners[0], ShardPlan::shard_of(shards, replica_entity(r)));
            }
            // Replica 0 is the classic controller on shard 0.
            assert_eq!(replica_entity(0), CONTROLLER);
            assert_eq!(ShardPlan::shard_of(shards, replica_entity(0)), 0);
        }
    }

    #[test]
    fn solo_plan_owns_everything() {
        let p = ShardPlan::solo();
        assert!(p.owns_controller());
        for i in 0..100 {
            assert!(p.owns_invoker(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_is_rejected() {
        ShardPlan::new(2, 2);
    }
}
