//! Block timers: the periodic `Ping` and `Sample` timers of an invoker
//! block, kept by the router as *trains*.
//!
//! A train is a set of a block's invokers whose firings fall at the same
//! instants; it is one calendar event however many members it has. A
//! firing visits its members in index order, drops the ones whose VM has
//! died, and re-arms one interval later if any remain. Firing a train is
//! exactly firing its members' own timers back to back (DESIGN.md,
//! *Block timers*):
//!
//! - a member joins only a train already due at its own first instant,
//!   which was scheduled before the member's timer would have been;
//! - a firing re-arms into its own event, never into a train scheduled
//!   after it.

use hrv_trace::time::{SimDuration, SimTime};

use crate::event::InvokerIndex;

/// One periodic timer's trains within one block, by train id.
#[derive(Debug, Default)]
pub(crate) struct Trains(Vec<Train>);

/// A train: its pending firing and its members in index order. A train
/// without members has no pending firing and its id is free.
#[derive(Debug, Default)]
struct Train {
    at: SimTime,
    members: Vec<InvokerIndex>,
}

impl Trains {
    /// Puts `member`, first due at `at`, on the train already due then.
    /// Returns the id of a new train when there is none, for the caller to
    /// schedule its first firing at `at`.
    pub(crate) fn join(&mut self, at: SimTime, member: InvokerIndex) -> Option<u32> {
        let live = |t: &Train| !t.members.is_empty();
        if let Some(t) = self.0.iter_mut().find(|t| live(t) && t.at == at) {
            let pos = t.members.partition_point(|&m| m <= member);
            t.members.insert(pos, member);
            return None;
        }
        let id = match self.0.iter().position(|t| !live(t)) {
            Some(id) => id,
            None => {
                self.0.push(Train::default());
                self.0.len() - 1
            }
        };
        let train = &mut self.0[id];
        train.at = at;
        train.members.push(member);
        Some(id as u32)
    }

    /// Fires `train`, due `now`: `visit` each member in index order and
    /// keep the ones it returns `true` for. Returns when the train fires
    /// next, for the caller to schedule, or `None` once it is empty.
    pub(crate) fn fire(
        &mut self,
        train: u32,
        now: SimTime,
        interval: SimDuration,
        mut visit: impl FnMut(InvokerIndex) -> bool,
    ) -> Option<SimTime> {
        let t = &mut self.0[train as usize];
        debug_assert_eq!(t.at, now, "train {train} fired off its instant");
        t.members.retain(|&m| visit(m));
        if t.members.is_empty() {
            return None;
        }
        t.at = now.saturating_add(interval);
        Some(t.at)
    }

    /// The members of `train`, in index order.
    #[cfg(test)]
    pub(crate) fn members(&self, train: u32) -> &[InvokerIndex] {
        &self.0[train as usize].members
    }
}

/// The first tick of the shared utilization-sampling grid at or after
/// `t` (grid alignment keeps the merged per-invoker rows coalescible).
pub(crate) fn first_sample_at(t: SimTime, interval: SimDuration) -> SimTime {
    let step = interval.as_micros();
    let us = t.since(SimTime::ZERO).as_micros();
    SimTime::ZERO + SimDuration::from_micros(us.div_ceil(step) * step)
}

/// The periodic timers of one invoker block.
#[derive(Debug, Default)]
pub(crate) struct BlockTimers {
    /// Health-ping trains.
    pub(crate) ping: Trains,
    /// Utilization-sampling trains.
    pub(crate) sample: Trains,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn members_due_together_share_one_train_in_index_order() {
        let mut trains = Trains::default();
        assert_eq!(trains.join(secs(1), 7), Some(0));
        assert_eq!(trains.join(secs(1), 3), None);
        assert_eq!(trains.join(secs(2), 5), Some(1));
        let mut seen = Vec::new();
        let next = trains.fire(0, secs(1), SimDuration::from_secs(1), |m| {
            seen.push(m);
            true
        });
        assert_eq!(seen, [3, 7]);
        // The re-armed train is due with train 1 but stays its own event;
        // a newcomer due then joins the first train found.
        assert_eq!(next, Some(secs(2)));
        assert_eq!(trains.join(secs(2), 4), None);
        assert_eq!(trains.0[0].members, [3, 4, 7]);
    }

    #[test]
    fn an_emptied_train_stops_and_frees_its_id() {
        let mut trains = Trains::default();
        assert_eq!(trains.join(secs(1), 0), Some(0));
        assert_eq!(trains.join(secs(1), 1), None);
        let interval = SimDuration::from_secs(1);
        assert_eq!(trains.fire(0, secs(1), interval, |m| m == 1), Some(secs(2)));
        assert_eq!(trains.fire(0, secs(2), interval, |_| false), None);
        // A stopped train is not joined at its stale instant, and its id
        // is the next new train's.
        assert_eq!(trains.join(secs(2), 2), Some(0));
        assert_eq!(trains.0.len(), 1);
    }
}
