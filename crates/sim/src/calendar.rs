//! The event calendar: a cancellable priority queue of timestamped events.
//!
//! Determinism contract: events are delivered in `(time, sequence)` order,
//! where the sequence number is assigned at scheduling time. Two events
//! scheduled for the same instant are therefore delivered in the order they
//! were scheduled, on every platform, independent of hash seeds or
//! allocation order.
//!
//! # Implementation
//!
//! A hierarchical timer wheel (`LEVELS` levels of `SLOTS` slots, 1 µs
//! base tick) backed by a generation-stamped slab. Scheduling, cancelling
//! and popping are near-O(1): a slot index computed from the xor of the
//! cursor and the delivery time, and a slab index lookup instead of a hash
//! probe. Events beyond the wheel's range — VM lifetimes, armed-but-idle
//! timers at `SimTime::MAX` — wait in an *overflow ladder* (a small binary
//! heap) and migrate into the wheel as the cursor approaches them.
//!
//! A wheel bucket is a singly linked list threaded through the slab: its
//! head is a slab index and each slot links to the next. Placing pushes
//! at the head; opening a tick or cascading a bucket walks the list. No
//! bucket owns an allocation, so the calendar's memory is the slab, the
//! ladder and the staging buffer — it follows the pending-event count,
//! not the largest bucket each of the 448 ever held. Order inside a
//! bucket is not observable: an opened tick is staged and sorted by key.
//!
//! The previous `BinaryHeap` + tombstone-set implementation survives as
//! `calendar_reference` (built with the `test-support` feature), the
//! executable specification: the differential proptests in
//! `tests/props.rs` assert that both deliver byte-identical `Scheduled`
//! sequences under arbitrary interleavings.
//!
//! # Envelope lane
//!
//! Cross-entity messages ([`EnvelopeLane`]) enter the wheel when they are
//! *sent*, not when they become due. Their place within a tick comes from
//! the sort key, not from the insertion moment: a local event sorts by
//! `2·seq + 1`, an envelope by `(2·window_seq, sender, seq)` where
//! `window_seq` is the calendar's sequence counter at the last
//! [`EnvelopeLane::open_window`]. So an envelope runs after every local
//! event scheduled before its window opened, before every local event
//! scheduled during it, and in `(sender, seq)` order among envelopes —
//! exactly where scheduling it through [`Calendar::schedule`] at the
//! window's start would have put it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hrv_trace::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

// The raw token of an id: the wheel packs `(generation, slab index)`
// itself, the reference calendar packs its sequence counter through these.
// Ids are opaque outside this crate and only meaningful to the calendar
// that issued them.
#[cfg(any(test, feature = "test-support"))]
impl EventId {
    /// Builds an id from an implementation-defined raw token.
    pub(crate) fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }

    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

/// An event popped from the calendar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Delivery time.
    pub at: SimTime,
    /// The handle it was scheduled under.
    pub id: EventId,
    /// The payload.
    pub event: E,
}

/// The calendar operations the engine and platform are written against.
///
/// Implemented by the timer-wheel [`Calendar`] and by the reference heap
/// (`calendar_reference::Calendar`, a `test-support` item), so an entire
/// simulation can be driven through the executable spec for differential
/// testing.
pub trait EventCalendar<E> {
    /// The current simulation time.
    fn now(&self) -> SimTime;
    /// Number of events delivered so far.
    fn processed(&self) -> u64;
    /// Number of pending (non-cancelled) events.
    fn len(&self) -> usize;
    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Schedules `event` at absolute time `at`.
    fn schedule(&mut self, at: SimTime, event: E) -> EventId;
    /// Schedules `event` after a delay from the current time.
    fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId;
    /// Cancels a pending event; `true` if it was still pending.
    fn cancel(&mut self, id: EventId) -> bool;
    /// Delivery time of the next pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Pops the next event, advancing the clock to its delivery time.
    fn pop(&mut self) -> Option<Scheduled<E>>;
}

/// The envelope lane: cross-entity messages scheduled when they are sent
/// and delivered as if injected, in canonical `(at, sender, seq)` order,
/// at the start of the lookahead window they fall due in.
///
/// The round drivers follow one protocol, and the ordering guarantee
/// holds under it: a window is opened only when nothing is pending before
/// the previous window's `stop`; events are popped only below the open
/// window's `stop`; an envelope is never due inside the open window
/// (`at >= stop`, checked). All events of one instant then share one
/// window, which is what lets the wheel order by key alone.
pub trait EnvelopeLane<E>: EventCalendar<E> {
    /// Schedules a message from `sender` (its `seq`-th) for delivery at
    /// `at`. `(sender, seq)` must be unique among pending envelopes.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies inside the open window — such an envelope
    /// could not be delivered in canonical order any more.
    fn schedule_envelope(&mut self, at: SimTime, sender: u32, seq: u64, event: E);
    /// Opens the lookahead window ending at `stop`: envelopes due before
    /// `stop` sort behind everything scheduled so far.
    fn open_window(&mut self, stop: SimTime);
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; level `l` slots span `64^l` µs each.
const LEVELS: usize = 7;
/// Ticks (µs) covered by the wheel from its cursor — `64^7` ≈ 51 days.
/// Delivery times at least this far out wait in the overflow ladder.
const WHEEL_RANGE: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// Lifecycle of a slab slot.
#[derive(Debug)]
enum Body<E> {
    /// On the free list.
    Vacant,
    /// Cancelled, but still linked into a bucket, the overflow ladder
    /// or staging (tombstone).
    Dead,
    /// Pending delivery.
    Live(E),
}

#[derive(Debug)]
struct Slot<E> {
    /// Bumped every time the slot leaves `Live`, so a stale [`EventId`]
    /// can never cancel an unrelated reuse of the same index.
    gen: u32,
    /// The next entry of the wheel bucket this slot is linked into
    /// ([`NIL`] at the tail); meaningless while the slot sits anywhere
    /// else. It fills the padding beside `gen`, so the link costs no
    /// slab memory.
    next: u32,
    /// `Some` for an envelope-lane entry, whose `seq` is then the
    /// sender's own sequence number rather than the calendar's.
    sender: Option<u32>,
    at: SimTime,
    seq: u64,
    body: Body<E>,
}

/// End of a bucket list. Slab indices stay below it (`insert` checks).
const NIL: u32 = u32::MAX;

// The slab is the calendar's memory: a slot is its payload plus 32 B,
// so the platform's 64-B `Event` (an enum, whose tag leaves `Body` a
// niche) costs 96 B per pending event.
const _: () = {
    #[allow(dead_code)]
    enum Payload64 {
        Wide([u64; 7]),
        Bare,
    }
    assert!(std::mem::size_of::<Payload64>() == 64);
    assert!(std::mem::size_of::<Slot<Payload64>>() <= 96);
};

/// Delivery-order key: time, then the lane rank, then `(sender, seq)`
/// among the envelopes of one window (local ranks are unique already).
type Key = (SimTime, u64, u32, u64);

impl<E> Slot<E> {
    fn key(&self, window_seq: u64) -> Key {
        match self.sender {
            None => (self.at, 2 * self.seq + 1, 0, 0),
            Some(sender) => (self.at, 2 * window_seq, sender, self.seq),
        }
    }
}

/// A cancellable, deterministic event calendar with a simulation clock.
///
/// # Examples
///
/// ```
/// use hrv_sim::calendar::Calendar;
/// use hrv_trace::time::{SimDuration, SimTime};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule_after(SimDuration::from_secs(5), "later");
/// cal.schedule_after(SimDuration::from_secs(1), "sooner");
/// let first = cal.pop().unwrap();
/// assert_eq!(first.event, "sooner");
/// assert_eq!(cal.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct Calendar<E> {
    now: SimTime,
    next_seq: u64,
    /// `next_seq` when the current lookahead window opened: envelopes
    /// sort behind local events scheduled before it, ahead of later ones.
    window_seq: u64,
    /// End of the current lookahead window; no envelope may be due
    /// before it.
    window_stop: SimTime,
    processed: u64,
    /// Live (pending, non-cancelled) entry count.
    live: usize,
    /// Tombstoned entry count, bounded by `maybe_purge`.
    dead: usize,
    /// Wheel cursor in µs. `now.as_micros() <= elapsed`; every wheel and
    /// overflow entry has `at > elapsed` (overflow: `at >= elapsed +
    /// WHEEL_RANGE` modulo shared high bits), every staged entry has
    /// `at <= elapsed`.
    elapsed: u64,
    slots: Vec<Slot<E>>,
    /// Vacant slab indices available for reuse.
    free: Vec<u32>,
    /// Heads of `LEVELS * SLOTS` bucket lists, row-major by level; each
    /// list is threaded through the slab by [`Slot::next`], so a bucket
    /// owns no memory of its own.
    buckets: Vec<u32>,
    /// Per-level bitmap of non-empty buckets.
    occupied: [u64; LEVELS],
    /// Far-future events, min-first by `(at, slab index)`. The index
    /// tiebreak is arbitrary: equal-time entries are re-sorted by `seq`
    /// when their shared tick's bucket is opened.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Due events in delivery order: `staging[staging_head..]` is sorted
    /// by [`Slot::key`]; the prefix has already been delivered.
    staging: Vec<u32>,
    staging_head: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Tombstone counts below this never trigger a purge: the memory is
    /// negligible and dead entries are freed lazily as the cursor passes.
    pub(crate) const PURGE_MIN_DEAD: usize = 1_024;

    /// Creates an empty calendar with the clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// Creates an empty calendar sized for roughly `capacity` concurrent
    /// pending events, avoiding slab regrow churn during warm-up.
    pub fn with_capacity(capacity: usize) -> Self {
        Calendar {
            now: SimTime::ZERO,
            next_seq: 0,
            window_seq: 0,
            window_stop: SimTime::ZERO,
            processed: 0,
            live: 0,
            dead: 0,
            elapsed: 0,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            buckets: vec![NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            staging: Vec::new(),
            staging_head: 0,
        }
    }

    /// The current simulation time (the delivery time of the last popped
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of cancelled entries still linked into a bucket, the
    /// overflow ladder or staging. Bounded: after every operation,
    /// `tombstones() <= max(len(), PURGE_MIN_DEAD)`.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — the engine never travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, None, seq, event)
    }

    fn insert(&mut self, at: SimTime, sender: Option<u32>, seq: u64, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                debug_assert!(matches!(s.body, Body::Vacant));
                s.sender = sender;
                s.at = at;
                s.seq = seq;
                s.body = Body::Live(event);
                idx
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "calendar slab full");
                self.slots.push(Slot {
                    gen: 0,
                    next: NIL,
                    sender,
                    at,
                    seq,
                    body: Body::Live(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        let id = Self::id_of(self.slots[idx as usize].gen, idx);
        self.place(idx);
        id
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. Cancelling twice, or cancelling an already
    /// delivered event, returns `false` — the generation stamp makes a
    /// stale id harmless even after its slab slot has been reused.
    ///
    /// Cancellation is lazy — the entry stays linked as a tombstone — but
    /// when tombstones outnumber live events in bulk the wheel is rebuilt
    /// from the live set, bounding memory on long streaming runs.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = (id.0 & u64::from(u32::MAX)) as usize;
        let gen = (id.0 >> 32) as u32;
        let Some(s) = self.slots.get_mut(idx) else {
            return false;
        };
        if s.gen != gen || !matches!(s.body, Body::Live(_)) {
            return false;
        }
        s.body = Body::Dead;
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        self.dead += 1;
        self.maybe_purge();
        true
    }

    /// Delivery time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|idx| self.slots[idx as usize].at)
    }

    /// Pops the next event, advancing the clock to its delivery time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let idx = self.settle()?;
        self.staging_head += 1;
        if self.staging_head == self.staging.len() {
            self.staging.clear();
            self.staging_head = 0;
        }
        let s = &mut self.slots[idx as usize];
        let id = Self::id_of(s.gen, idx);
        let at = s.at;
        let Body::Live(event) = std::mem::replace(&mut s.body, Body::Vacant) else {
            unreachable!("settle returned a non-live entry");
        };
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        self.maybe_purge();
        Some(Scheduled { at, id, event })
    }

    fn id_of(gen: u32, idx: u32) -> EventId {
        EventId(u64::from(gen) << 32 | u64::from(idx))
    }

    /// Ensures the head of `staging` is the globally next live event and
    /// returns its slab index, advancing the cursor — opening level-0
    /// buckets, cascading higher levels, migrating overflow — as needed.
    fn settle(&mut self) -> Option<u32> {
        loop {
            // Sweep staged tombstones off the front.
            while let Some(&idx) = self.staging.get(self.staging_head) {
                match self.slots[idx as usize].body {
                    Body::Live(_) => return Some(idx),
                    Body::Dead => {
                        self.staging_head += 1;
                        self.free_dead(idx);
                    }
                    Body::Vacant => unreachable!("vacant slot staged"),
                }
            }
            self.staging.clear();
            self.staging_head = 0;
            if self.live == 0 {
                // Any remaining tombstones stay until purge or drop; their
                // count is below PURGE_MIN_DEAD by the purge invariant.
                return None;
            }
            self.migrate_overflow();
            if self.staging_head < self.staging.len() {
                // Migration staged due events directly (cursor jumped to
                // the overflow horizon); deliver them before advancing.
                continue;
            }
            match self.next_occupied() {
                Some((0, slot)) => self.open_tick(slot),
                Some((level, slot)) => self.cascade(level, slot),
                None => {
                    // Wheel empty: jump the cursor to the overflow horizon
                    // and let migrate_overflow pull the head in.
                    let Reverse((t, _)) = *self
                        .overflow
                        .peek()
                        .expect("live events exist but wheel and overflow are empty");
                    self.elapsed = t;
                }
            }
        }
    }

    /// Lowest occupied `(level, slot)` at or after the cursor, if any.
    /// Levels are scanned bottom-up: lower levels always hold earlier
    /// events than higher ones within the shared cursor epoch.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cursor = (self.elapsed >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1);
            let mask = self.occupied[level] & (u64::MAX << cursor);
            if mask != 0 {
                return Some((level, mask.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Opens the level-0 bucket at `slot`: advances the cursor to its
    /// tick and stages its entries in key order.
    fn open_tick(&mut self, slot: usize) {
        let tick = (self.elapsed & !(SLOTS as u64 - 1)) | slot as u64;
        debug_assert!(tick >= self.elapsed);
        self.elapsed = tick;
        self.occupied[0] &= !(1 << slot);
        debug_assert!(self.staging.is_empty());
        let head = std::mem::replace(&mut self.buckets[slot], NIL);
        self.staging.extend(bucket_list(&self.slots, head));
        self.sort_staged();
    }

    /// Sorts the undelivered part of `staging` by key.
    fn sort_staged(&mut self) {
        let (slots, window_seq) = (&self.slots, self.window_seq);
        let tail = &mut self.staging[self.staging_head..];
        if tail.len() > 1 {
            tail.sort_unstable_by_key(|&idx| slots[idx as usize].key(window_seq));
        }
    }

    /// Empties the level-`level` bucket at `slot` — the first occupied
    /// one, so it holds the earliest pending entry — and moves the cursor
    /// straight to that entry's tick. Lower levels are empty and every
    /// other bucket is later in the bits the cursor keeps, so the entries
    /// land exactly where cascading one level at a time would leave them,
    /// in one placement instead of one per level.
    fn cascade(&mut self, level: usize, slot: usize) {
        debug_assert!(self.staging.is_empty());
        self.occupied[level] &= !(1 << slot);
        let head = std::mem::replace(&mut self.buckets[level * SLOTS + slot], NIL);
        let earliest = bucket_list(&self.slots, head)
            .map(|idx| &self.slots[idx as usize])
            .filter(|s| matches!(s.body, Body::Live(_)))
            .map(|s| s.at.as_micros())
            .min();
        if let Some(t) = earliest {
            debug_assert!(t > self.elapsed);
            self.elapsed = t;
        }
        let mut idx = head;
        while idx != NIL {
            let s = &self.slots[idx as usize];
            // Read the link first: `place` relinks the slot elsewhere.
            let next = s.next;
            match s.body {
                Body::Dead => self.free_dead(idx),
                // The cursor's own tick: staged here, sorted once below.
                Body::Live(_) if s.at.as_micros() == self.elapsed => self.staging.push(idx),
                Body::Live(_) => self.place(idx),
                Body::Vacant => unreachable!("vacant slot in bucket"),
            }
            idx = next;
        }
        self.sort_staged();
    }

    /// Routes a live slab entry to staging, a wheel bucket, or the
    /// overflow ladder according to its delivery time vs the cursor.
    fn place(&mut self, idx: u32) {
        let t = self.slots[idx as usize].at.as_micros();
        let x = self.elapsed ^ t;
        if t <= self.elapsed {
            // Due now (the cursor can run ahead of `now` after a peek);
            // order within staging is maintained explicitly.
            self.stage(idx);
        } else if x >= WHEEL_RANGE {
            self.overflow.push(Reverse((t, idx)));
        } else {
            // Highest differing bit picks the level; since all higher
            // bits equal the cursor's, the slot is >= the level cursor.
            let level = (63 - x.leading_zeros()) as usize / LEVEL_BITS as usize;
            let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            // Pushed at the head: order inside a bucket is not observable,
            // because staging sorts every opened tick by key.
            let head = &mut self.buckets[level * SLOTS + slot];
            self.slots[idx as usize].next = std::mem::replace(head, idx);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Inserts into the staging buffer, keeping `staging[staging_head..]`
    /// sorted by key. Appending is O(1) in the common cases —
    /// bucket opens and schedules at the current tick arrive in key
    /// order; only a schedule squeezed between a peek and a pop at an
    /// earlier instant pays a binary insert.
    fn stage(&mut self, idx: u32) {
        let key = self.key(idx);
        match self.staging.last() {
            Some(&last) if self.key(last) > key => {
                if self.staging_head > 0 {
                    self.staging.drain(..self.staging_head);
                    self.staging_head = 0;
                }
                let pos = self.staging.partition_point(|&i| self.key(i) < key);
                self.staging.insert(pos, idx);
            }
            _ => self.staging.push(idx),
        }
    }

    fn key(&self, idx: u32) -> Key {
        self.slots[idx as usize].key(self.window_seq)
    }

    /// Pulls overflow entries that have come within wheel range of the
    /// cursor, freeing tombstoned entries found at the ladder head.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((t, idx))) = self.overflow.peek() {
            match self.slots[idx as usize].body {
                Body::Dead => {
                    self.overflow.pop();
                    self.free_dead(idx);
                }
                Body::Live(_) if (t ^ self.elapsed) < WHEEL_RANGE => {
                    self.overflow.pop();
                    self.place(idx);
                }
                Body::Live(_) => break,
                Body::Vacant => unreachable!("vacant slot in overflow"),
            }
        }
    }

    /// Returns a tombstoned slot to the free list once it has been
    /// unlinked from its bucket, the ladder or staging. The generation
    /// was already bumped at cancellation time.
    fn free_dead(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        debug_assert!(matches!(s.body, Body::Dead));
        s.body = Body::Vacant;
        self.free.push(idx);
        self.dead -= 1;
    }

    fn maybe_purge(&mut self) {
        if self.dead > self.live && self.dead >= Self::PURGE_MIN_DEAD {
            self.purge();
        }
    }

    /// Rebuilds every container from the live slab entries, dropping all
    /// tombstones at once. O(slab + due·log(due)), amortized against the
    /// >= PURGE_MIN_DEAD cancellations that funded it.
    fn purge(&mut self) {
        self.buckets.fill(NIL);
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.staging.clear();
        self.staging_head = 0;
        self.free.clear();
        self.dead = 0;
        for i in 0..self.slots.len() as u32 {
            let s = &mut self.slots[i as usize];
            match s.body {
                // Due entries are staged unsorted and sorted once below.
                Body::Live(_) if s.at.as_micros() <= self.elapsed => self.staging.push(i),
                Body::Live(_) => self.place(i),
                Body::Dead => {
                    s.body = Body::Vacant;
                    self.free.push(i);
                }
                Body::Vacant => self.free.push(i),
            }
        }
        self.sort_staged();
    }
}

/// The slab indices of the bucket list starting at `head`, head first.
fn bucket_list<E>(slots: &[Slot<E>], head: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors((head != NIL).then_some(head), |&idx| {
        let next = slots[idx as usize].next;
        (next != NIL).then_some(next)
    })
}

impl<E> EventCalendar<E> for Calendar<E> {
    fn now(&self) -> SimTime {
        Calendar::now(self)
    }
    fn processed(&self) -> u64 {
        Calendar::processed(self)
    }
    fn len(&self) -> usize {
        Calendar::len(self)
    }
    fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        Calendar::schedule(self, at, event)
    }
    fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        Calendar::schedule_after(self, delay, event)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Calendar::cancel(self, id)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        Calendar::peek_time(self)
    }
    fn pop(&mut self) -> Option<Scheduled<E>> {
        Calendar::pop(self)
    }
}

impl<E> EnvelopeLane<E> for Calendar<E> {
    fn schedule_envelope(&mut self, at: SimTime, sender: u32, seq: u64, event: E) {
        assert!(
            at >= self.window_stop,
            "envelope from entity {sender} due at {at}, inside the lookahead window ending {}",
            self.window_stop
        );
        self.insert(at, Some(sender), seq, event);
    }

    fn open_window(&mut self, stop: SimTime) {
        self.window_stop = stop;
        self.window_seq = self.next_seq;
        // A peek just before may have staged the window's first tick
        // under the old `window_seq`.
        self.sort_staged();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), "c");
        cal.schedule(SimTime::from_secs(1), "a");
        cal.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        cal.schedule(SimTime::from_secs(5), ());
        cal.schedule(SimTime::from_secs(9), ());
        let mut prev = SimTime::ZERO;
        while let Some(ev) = cal.pop() {
            assert!(ev.at >= prev);
            assert_eq!(cal.now(), ev.at);
            prev = ev.at;
        }
        assert_eq!(cal.processed(), 3);
    }

    #[test]
    fn cancellation_removes_event() {
        let mut cal = Calendar::new();
        let keep = cal.schedule(SimTime::from_secs(1), "keep");
        let drop = cal.schedule(SimTime::from_secs(2), "drop");
        assert_eq!(cal.len(), 2);
        assert!(cal.cancel(drop));
        assert!(!cal.cancel(drop), "double cancel must be a no-op");
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().unwrap().event, "keep");
        assert!(cal.pop().is_none());
        assert!(!cal.cancel(keep), "cancel after delivery must fail");
    }

    #[test]
    fn cancelled_head_is_skipped_by_peek() {
        let mut cal = Calendar::new();
        let first = cal.schedule(SimTime::from_secs(1), 1);
        cal.schedule(SimTime::from_secs(2), 2);
        cal.cancel(first);
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(cal.pop().unwrap().event, 2);
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(10), "first");
        cal.pop();
        cal.schedule_after(SimDuration::from_secs(5), "second");
        let ev = cal.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(10), ());
        cal.pop();
        cal.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventId::from_raw(42)));
    }

    #[test]
    fn stale_id_never_cancels_a_reused_slot() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        assert!(cal.cancel(a));
        // "b" reuses a's slab slot; the stale id must not touch it.
        let _b = cal.schedule(SimTime::from_secs(2), "b");
        assert_eq!(cal.len(), 1);
        assert!(!cal.cancel(a), "stale generation must not cancel");
        assert_eq!(cal.pop().unwrap().event, "b");
        // Nor after delivery bumped the generation again.
        assert!(!cal.cancel(a));
    }

    #[test]
    fn far_future_events_ride_the_overflow_ladder() {
        let mut cal = Calendar::new();
        let sentinel = cal.schedule(SimTime::MAX, "armed-forever");
        cal.schedule(SimTime::from_micros(1 << 50), "far");
        cal.schedule(SimTime::from_secs(1), "near");
        assert_eq!(cal.pop().unwrap().event, "near");
        assert_eq!(cal.pop().unwrap().event, "far");
        assert!(cal.cancel(sentinel), "overflow events must be cancellable");
        assert!(cal.pop().is_none());
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn same_instant_overflow_ties_deliver_in_seq_order() {
        let mut cal = Calendar::new();
        let far = SimTime::from_micros((1 << 45) + 7);
        for i in 0..20 {
            cal.schedule(far, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_between_peek_and_pop_reorders_correctly() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_micros(10), "late");
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(10)));
        // The peek ran the cursor ahead; an earlier (but still future)
        // schedule must still be delivered first.
        cal.schedule(SimTime::from_micros(5), "early");
        cal.schedule(SimTime::from_micros(10), "late-tie");
        assert_eq!(cal.pop().unwrap().event, "early");
        assert_eq!(cal.pop().unwrap().event, "late");
        assert_eq!(cal.pop().unwrap().event, "late-tie");
    }

    fn drain<E>(cal: &mut Calendar<E>) -> Vec<E> {
        std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect()
    }

    #[test]
    fn envelope_sorts_between_locals_scheduled_before_and_during_its_window() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(100);
        cal.schedule(t, "before-send");
        cal.schedule_envelope(t, 7, 0, "envelope");
        // Sent earlier, but the window is not open yet: still behind.
        cal.schedule(t, "before-window");
        cal.open_window(SimTime::from_micros(150));
        cal.schedule(t, "during-window");
        assert_eq!(
            drain(&mut cal),
            ["before-send", "before-window", "envelope", "during-window"]
        );
    }

    #[test]
    fn open_window_resorts_a_tick_staged_by_the_preceding_peek() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(100);
        cal.open_window(SimTime::from_micros(50));
        cal.schedule_envelope(t, 7, 0, "envelope");
        cal.schedule(t, "local");
        // The peek opens the tick under the first window's `window_seq`,
        // which would put the envelope first.
        assert_eq!(cal.peek_time(), Some(t));
        cal.open_window(SimTime::from_micros(150));
        assert_eq!(drain(&mut cal), ["local", "envelope"]);
    }

    #[test]
    fn envelope_due_exactly_at_a_window_boundary_belongs_to_the_next_window() {
        let mut cal = Calendar::new();
        let stop = SimTime::from_micros(100);
        cal.schedule(SimTime::from_micros(60), "first");
        cal.open_window(stop);
        assert_eq!(cal.pop().unwrap().event, "first");
        // Sent from inside the window, due at its half-open end, tied
        // with a local scheduled during the same window.
        cal.schedule_envelope(stop, 3, 0, "envelope");
        cal.schedule(stop, "local");
        assert_eq!(cal.peek_time(), Some(stop));
        cal.open_window(SimTime::from_micros(140));
        cal.schedule(stop, "next-window-local");
        assert_eq!(drain(&mut cal), ["local", "envelope", "next-window-local"]);
    }

    #[test]
    fn same_instant_envelopes_deliver_in_sender_then_seq_order() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(4_242);
        for (sender, seq) in [(2, 0), (1, 5), (9, 1), (1, 2), (0, 7)] {
            cal.schedule_envelope(t, sender, seq, (sender, seq));
        }
        cal.schedule_envelope(SimTime::from_micros(4_000), 9, 0, (9, 0));
        cal.open_window(SimTime::from_micros(5_000));
        assert_eq!(
            drain(&mut cal),
            [(9, 0), (0, 7), (1, 2), (1, 5), (2, 0), (9, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "envelope from entity 7 due at")]
    fn envelope_inside_the_open_window_panics() {
        let mut cal = Calendar::new();
        cal.open_window(SimTime::from_micros(2_000));
        cal.schedule_envelope(SimTime::from_micros(1_999), 7, 0, ());
    }

    #[test]
    fn cascade_moves_a_lone_entry_straight_to_staging_from_any_level() {
        for level in 1..LEVELS as u32 {
            let mut cal = Calendar::new();
            let at = SimTime::from_micros((1 << (LEVEL_BITS * level)) + 5);
            cal.schedule(at, level);
            assert_ne!(cal.occupied[level as usize], 0, "level {level}");
            assert_eq!(cal.peek_time(), Some(at));
            // One cascade: cursor on the entry's tick, the wheel empty.
            assert_eq!(cal.elapsed, at.as_micros());
            assert_eq!(cal.occupied, [0; LEVELS]);
            assert_eq!(cal.staging.len(), 1);
            assert_eq!(cal.pop().unwrap().event, level);
        }
    }

    #[test]
    fn cascade_skips_dead_entries_when_picking_the_cursor() {
        let mut cal = Calendar::new();
        // All three share the level-2 bucket [4096, 8192).
        let dead = cal.schedule(SimTime::from_micros(5_000), "dead");
        cal.schedule(SimTime::from_micros(5_010), "live");
        cal.schedule(SimTime::from_micros(7_000), "later");
        assert!(cal.cancel(dead));
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(5_010)));
        assert_eq!(cal.elapsed, 5_010);
        assert_eq!(cal.tombstones(), 0, "the dead entry was freed on the way");
        // A schedule between the old and the new cursor still comes first.
        cal.schedule(SimTime::from_micros(5_005), "squeezed");
        assert_eq!(drain(&mut cal), ["squeezed", "live", "later"]);
    }

    #[test]
    fn cascade_of_an_all_dead_bucket_moves_on_to_the_next() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_micros(5_000), "a");
        let b = cal.schedule(SimTime::from_micros(6_000), "b");
        cal.schedule(SimTime::from_micros(300_000), "survivor");
        assert!(cal.cancel(a) && cal.cancel(b));
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(300_000)));
        assert_eq!(cal.tombstones(), 0);
        assert_eq!(drain(&mut cal), ["survivor"]);
    }

    #[test]
    fn cancelling_head_middle_and_tail_of_a_bucket_list_keeps_key_order() {
        let mut cal = Calendar::new();
        let (t, u) = (SimTime::from_micros(100), SimTime::from_micros(110));
        // All of these share level 1's bucket [64, 128), pushed at its head.
        let tail = cal.schedule(t, "tail");
        cal.schedule_envelope(t, 4, 0, "env-4");
        cal.schedule(u, "later");
        let middle = cal.schedule(t, "middle");
        cal.schedule_envelope(t, 1, 9, "env-1");
        cal.schedule(t, "local");
        cal.schedule_envelope(u, 2, 0, "env-later");
        let head = cal.schedule(t, "head");
        let idx = |id: EventId| (id.raw() & u64::from(u32::MAX)) as u32;
        let list: Vec<u32> = bucket_list(&cal.slots, cal.buckets[SLOTS + 1]).collect();
        assert_eq!(list.len(), 8);
        assert_eq!(list[0], idx(head));
        assert_eq!(list[4], idx(middle));
        assert_eq!(list[7], idx(tail));
        for id in [head, middle, tail] {
            assert!(cal.cancel(id));
        }
        assert_eq!(cal.tombstones(), 3);
        cal.open_window(SimTime::from_micros(200));
        cal.schedule(t, "after-window");
        assert_eq!(
            drain(&mut cal),
            [
                "local",
                "env-1",
                "env-4",
                "after-window",
                "later",
                "env-later"
            ]
        );
        assert!(
            cal.buckets.iter().all(|&h| h == NIL),
            "a list head survived"
        );
        assert_eq!(cal.occupied, [0; LEVELS]);
        assert_eq!(cal.tombstones(), 0);
        assert!(cal.is_empty());
    }

    #[test]
    fn cascade_stages_equal_time_entries_in_key_order() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros((1 << 30) + 17);
        cal.schedule_envelope(t, 2, 0, "env-2");
        cal.schedule(t, "local-0");
        cal.schedule_envelope(t, 1, 4, "env-1");
        cal.schedule(t + SimDuration::from_micros(1), "next-tick");
        cal.schedule(t, "local-1");
        cal.open_window(t + SimDuration::from_micros(1));
        cal.schedule(t, "local-2");
        assert_eq!(
            drain(&mut cal),
            [
                "local-0",
                "local-1",
                "env-1",
                "env-2",
                "local-2",
                "next-tick"
            ]
        );
    }

    #[test]
    fn envelopes_survive_the_overflow_ladder_and_a_purge() {
        let mut cal = Calendar::new();
        let far = SimTime::from_micros((1 << 45) + 3);
        cal.schedule_envelope(far, 5, 1, u64::MAX);
        cal.schedule_envelope(far, 5, 0, u64::MAX - 1);
        cal.schedule(far, u64::MAX - 2);
        let n = 2 * Calendar::<u64>::PURGE_MIN_DEAD as u64;
        let ids: Vec<EventId> = (0..n)
            .map(|i| cal.schedule(SimTime::from_micros(10 + i), i))
            .collect();
        for id in ids {
            assert!(cal.cancel(id));
        }
        assert!(
            cal.tombstones() < Calendar::<u64>::PURGE_MIN_DEAD,
            "no purge ran: {} tombstones",
            cal.tombstones()
        );
        assert_eq!(cal.len(), 3);
        cal.open_window(SimTime::MAX);
        assert_eq!(drain(&mut cal), [u64::MAX - 2, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn mass_cancellation_purges_but_preserves_order() {
        let mut cal = Calendar::new();
        let n = 4 * Calendar::<u64>::PURGE_MIN_DEAD as u64;
        let ids: Vec<EventId> = (0..n)
            .map(|i| cal.schedule(SimTime::from_micros(i), i))
            .collect();
        // Cancel three of every four events; the tombstone majority
        // triggers a rebuild somewhere along the way.
        for (i, id) in ids.iter().enumerate() {
            if i % 4 != 0 {
                assert!(cal.cancel(*id));
            }
        }
        assert_eq!(cal.len(), n as usize / 4);
        assert!(
            cal.tombstones() <= cal.len().max(Calendar::<u64>::PURGE_MIN_DEAD),
            "purge did not bound tombstones: {} dead vs {} live",
            cal.tombstones(),
            cal.len()
        );
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        let expected: Vec<u64> = (0..n).filter(|i| i % 4 == 0).collect();
        assert_eq!(order, expected);
    }
}
