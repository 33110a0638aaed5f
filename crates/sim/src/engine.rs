//! The simulation driver: pairs a [`Calendar`](crate::calendar::Calendar)
//! with a user-supplied world that handles events and schedules new ones.

use hrv_trace::time::SimTime;

use crate::calendar::{EventCalendar, Scheduled};

/// A simulated system: receives events, mutates state, schedules follow-ups.
///
/// `handle` is generic over the calendar implementation so the same world
/// can be driven by the timer-wheel calendar or the reference heap — the
/// platform's differential tests replay entire simulations against the
/// executable spec.
pub trait World {
    /// The event payload type.
    type Event;

    /// Handles one delivered event. The world may schedule or cancel
    /// events on `calendar`; the clock has already advanced to `ev.at`.
    fn handle<C: EventCalendar<Self::Event>>(
        &mut self,
        ev: Scheduled<Self::Event>,
        calendar: &mut C,
    );
}

/// Why a simulation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The calendar drained: no events remain.
    Drained,
    /// The next event lies at or beyond the configured end time.
    ReachedEnd,
    /// The event budget was exhausted (runaway-loop backstop).
    EventBudget,
}

/// Outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Events delivered during this run.
    pub events: u64,
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Runs `world` until the calendar drains, the clock reaches `until`, or
/// `max_events` events have been delivered.
///
/// Events scheduled exactly at `until` are *not* delivered (the horizon is
/// half-open, matching trace windows `[0, horizon)`).
pub fn run_until<W: World, C: EventCalendar<W::Event>>(
    world: &mut W,
    calendar: &mut C,
    until: SimTime,
    max_events: u64,
) -> RunStats {
    let mut events = 0u64;
    loop {
        if events >= max_events {
            return RunStats {
                events,
                end_time: calendar.now(),
                reason: StopReason::EventBudget,
            };
        }
        match calendar.peek_time() {
            None => {
                return RunStats {
                    events,
                    end_time: calendar.now(),
                    reason: StopReason::Drained,
                }
            }
            Some(t) if t >= until => {
                return RunStats {
                    events,
                    end_time: calendar.now(),
                    reason: StopReason::ReachedEnd,
                }
            }
            Some(_) => {
                let ev = calendar.pop().expect("peeked event exists");
                world.handle(ev, calendar);
                events += 1;
            }
        }
    }
}

/// Runs `world` until the calendar drains completely.
pub fn run_to_completion<W: World, C: EventCalendar<W::Event>>(
    world: &mut W,
    calendar: &mut C,
    max_events: u64,
) -> RunStats {
    run_until(world, calendar, SimTime::MAX, max_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Calendar;
    use hrv_trace::time::SimDuration;

    /// A world that rings a bell every second, counting rings.
    struct Metronome {
        rings: u32,
        stop_after: u32,
    }

    impl World for Metronome {
        type Event = ();
        fn handle<C: EventCalendar<()>>(&mut self, _ev: Scheduled<()>, calendar: &mut C) {
            self.rings += 1;
            if self.rings < self.stop_after {
                calendar.schedule_after(SimDuration::from_secs(1), ());
            }
        }
    }

    #[test]
    fn runs_until_drained() {
        let mut world = Metronome {
            rings: 0,
            stop_after: 5,
        };
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), ());
        let stats = run_to_completion(&mut world, &mut cal, 1_000);
        assert_eq!(world.rings, 5);
        assert_eq!(stats.reason, StopReason::Drained);
        assert_eq!(stats.events, 5);
        assert_eq!(stats.end_time, SimTime::from_secs(5));
    }

    #[test]
    fn horizon_is_half_open() {
        let mut world = Metronome {
            rings: 0,
            stop_after: u32::MAX,
        };
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), ());
        let stats = run_until(&mut world, &mut cal, SimTime::from_secs(3), 1_000);
        // Events at t=1 and t=2 fire; the one at t=3 does not.
        assert_eq!(world.rings, 2);
        assert_eq!(stats.reason, StopReason::ReachedEnd);
    }

    #[test]
    fn event_budget_stops_runaway_worlds() {
        let mut world = Metronome {
            rings: 0,
            stop_after: u32::MAX,
        };
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), ());
        let stats = run_to_completion(&mut world, &mut cal, 10);
        assert_eq!(stats.reason, StopReason::EventBudget);
        assert_eq!(stats.events, 10);
    }

    #[test]
    fn empty_calendar_drains_immediately() {
        let mut world = Metronome {
            rings: 0,
            stop_after: 1,
        };
        let mut cal = Calendar::new();
        let stats = run_to_completion(&mut world, &mut cal, 10);
        assert_eq!(stats.reason, StopReason::Drained);
        assert_eq!(stats.events, 0);
    }
}
