//! Reference event calendar: the original `BinaryHeap` + tombstone-set
//! implementation, kept as an executable specification for the timer-wheel
//! [`crate::calendar::Calendar`] (the same pattern as [`crate::ps_reference`]
//! for the processor-sharing queue).
//!
//! Differential proptests in `tests/props.rs` drive random
//! schedule/cancel/pop interleavings through both implementations and
//! assert byte-identical `Scheduled` sequences; the platform crate replays
//! whole harvest simulations against it. This implementation is O(log n)
//! per operation plus a hash probe on every pop/cancel — correct, slow,
//! and obviously so.
//!
//! Its [`EnvelopeLane`] is the *eager* one the round drivers used to
//! implement themselves: envelopes wait in their own `(at, sender, seq)`
//! heap and are injected through the ordinary [`Calendar::schedule`] when
//! the window they fall due in opens. The wheel's key-ordered lane is
//! differentially tested against exactly this.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use hrv_trace::time::{SimDuration, SimTime};

use crate::calendar::{EnvelopeLane, EventCalendar, EventId, Scheduled};

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Order entries so the *smallest* (time, seq) is the greatest for
// `BinaryHeap`'s max-heap semantics.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A sent-but-not-yet-injected envelope, ordered by `(at, sender, seq)`.
#[derive(Debug)]
struct Pending<E> {
    at: SimTime,
    sender: u32,
    seq: u64,
    event: E,
}

impl<E> Pending<E> {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.sender, self.seq)
    }
}
impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The specification calendar: a max-heap over reversed `(time, seq)` with
/// a `HashSet` of still-pending sequence numbers for cancellation.
///
/// Its [`EventId`]s carry the raw sequence number; they are only
/// meaningful to the calendar that issued them, exactly as with the wheel.
#[derive(Debug)]
pub struct Calendar<E> {
    now: SimTime,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Ids scheduled but neither delivered nor cancelled yet.
    pending: HashSet<u64>,
    processed: u64,
    /// Envelopes not yet injected, earliest first.
    lane: BinaryHeap<Reverse<Pending<E>>>,
    /// End of the open lookahead window; every `lane` entry is due at or
    /// after it.
    window_stop: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Heap sizes below this never trigger a cancelled-entry purge: the
    /// memory is negligible and `skim_cancelled` handles the head lazily.
    const PURGE_MIN_HEAP: usize = 1_024;

    /// Creates an empty calendar with the clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// Creates an empty calendar sized for roughly `capacity` concurrent
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        Calendar {
            now: SimTime::ZERO,
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            pending: HashSet::with_capacity(capacity),
            processed: 0,
            lane: BinaryHeap::new(),
            window_stop: SimTime::ZERO,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (non-cancelled) events, envelopes included.
    pub fn len(&self) -> usize {
        self.pending.len() + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — the engine never travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.pending.insert(seq);
        EventId::from_raw(seq)
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let was_pending = self.pending.remove(&id.raw());
        if was_pending
            && self.heap.len() >= Self::PURGE_MIN_HEAP
            && self.heap.len() - self.pending.len() > self.pending.len()
        {
            self.purge_cancelled();
        }
        was_pending
    }

    /// Delivery time of the next pending event or envelope, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        let local = self.heap.peek().map(|e| e.at);
        let lane = self.lane.peek().map(|e| e.0.at);
        match (local, lane) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops the next event, advancing the clock to its delivery time.
    /// Envelopes are delivered only once their window has been opened.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.skim_cancelled();
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        debug_assert!(
            self.lane.is_empty() || entry.at < self.window_stop,
            "popped past the open window with envelopes pending"
        );
        self.pending.remove(&entry.seq);
        self.now = entry.at;
        self.processed += 1;
        Some(Scheduled {
            at: entry.at,
            id: EventId::from_raw(entry.seq),
            event: entry.event,
        })
    }

    /// Drops cancelled entries sitting at the top of the heap.
    fn skim_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(&top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Rebuilds the heap from only the still-pending entries (O(live)
    /// heapify), discarding every tombstoned one at once.
    fn purge_cancelled(&mut self) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|e| self.pending.contains(&e.seq))
            .collect();
    }
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
        self.lane.push(Reverse(Pending {
            at,
            sender,
            seq,
            event,
        }));
    }

    /// Injects every envelope due before `stop`, in canonical order, as
    /// ordinary events.
    fn open_window(&mut self, stop: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= self.window_stop),
            "window opened with events still pending before the last one's stop"
        );
        self.window_stop = stop;
        while self.lane.peek().is_some_and(|e| e.0.at < stop) {
            let env = self.lane.pop().expect("peeked").0;
            self.schedule(env.at, env.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), 30);
        cal.schedule(SimTime::from_secs(1), 10);
        cal.schedule(SimTime::from_secs(1), 11);
        cal.schedule(SimTime::from_secs(2), 20);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn cancellation_is_exact_and_idempotent() {
        let mut cal = Calendar::new();
        let keep = cal.schedule(SimTime::from_secs(1), "keep");
        let drop = cal.schedule(SimTime::from_secs(2), "drop");
        assert!(cal.cancel(drop));
        assert!(!cal.cancel(drop));
        assert_eq!(cal.pop().unwrap().event, "keep");
        assert!(cal.pop().is_none());
        assert!(!cal.cancel(keep));
    }

    #[test]
    fn lane_injects_in_canonical_order_when_the_window_opens() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(100);
        cal.schedule(t, "local-before");
        cal.schedule_envelope(t, 2, 0, "env-2");
        cal.schedule_envelope(t, 1, 9, "env-1");
        cal.schedule_envelope(SimTime::from_micros(200), 0, 0, "next-window");
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.peek_time(), Some(t));
        cal.open_window(SimTime::from_micros(150));
        cal.schedule(t, "local-during");
        for expected in ["local-before", "env-1", "env-2", "local-during"] {
            assert_eq!(cal.pop().unwrap().event, expected);
        }
        // Not injected yet, but visible to the driver picking the window.
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(200)));
        cal.open_window(SimTime::from_micros(250));
        assert_eq!(cal.pop().unwrap().event, "next-window");
        assert!(cal.is_empty());
    }

    #[test]
    #[should_panic(expected = "envelope from entity 7 due at")]
    fn envelope_inside_the_open_window_panics() {
        let mut cal = Calendar::new();
        cal.open_window(SimTime::from_micros(2_000));
        cal.schedule_envelope(SimTime::from_micros(1_999), 7, 0, ());
    }

    #[test]
    fn mass_cancellation_purges_but_preserves_order() {
        let mut cal = Calendar::new();
        let n = 4 * Calendar::<u64>::PURGE_MIN_HEAP as u64;
        let ids: Vec<EventId> = (0..n)
            .map(|i| cal.schedule(SimTime::from_micros(i), i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 4 != 0 {
                assert!(cal.cancel(*id));
            }
        }
        assert_eq!(cal.len(), n as usize / 4);
        assert!(
            cal.heap.len() <= cal.pending.len() + Calendar::<u64>::PURGE_MIN_HEAP,
            "purge did not bound tombstones: heap {} vs pending {}",
            cal.heap.len(),
            cal.pending.len()
        );
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop()).map(|s| s.event).collect();
        let expected: Vec<u64> = (0..n).filter(|i| i % 4 == 0).collect();
        assert_eq!(order, expected);
    }
}
