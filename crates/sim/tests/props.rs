//! Property-based tests of the simulation engine invariants.

use proptest::prelude::*;

use hrv_sim::calendar::{Calendar, EnvelopeLane, EventId};
use hrv_sim::calendar_reference;
use hrv_sim::ps::{JobId, PsQueue};
use hrv_sim::ps_reference;
use hrv_trace::time::{SimDuration, SimTime};

/// Compares next-completion predictions. Times may differ by at most one
/// microsecond: the two implementations accumulate service along
/// different float paths, and an ulp of drift can land on opposite sides
/// of the µs `ceil` quantization boundary. The predicted *jobs* may
/// differ only on ties — the caller must then verify both jobs complete
/// in the same harvest batch.
fn assert_next_close(
    v: Option<(SimTime, u64)>,
    r: Option<(SimTime, u64)>,
) -> Result<(), TestCaseError> {
    match (v, r) {
        (None, None) => Ok(()),
        (Some((vt, _)), Some((rt, _))) => {
            let diff = vt.as_micros().abs_diff(rt.as_micros());
            prop_assert!(
                diff <= 1,
                "next_completion times diverged: {} vs {}",
                vt,
                rt
            );
            Ok(())
        }
        (v, r) => {
            prop_assert!(
                false,
                "next_completion presence diverged: {:?} vs {:?}",
                v,
                r
            );
            Ok(())
        }
    }
}

/// After a harvest at a predicted completion time, the two predictions
/// must either have named the same job or both named members of the
/// harvested batch (a tie broken differently by the two float paths).
fn assert_tie_or_equal(
    vn: Option<(SimTime, u64)>,
    rn: Option<(SimTime, u64)>,
    harvested: &[u64],
) -> Result<(), TestCaseError> {
    if let (Some((_, vid)), Some((_, rid))) = (vn, rn) {
        if vid != rid {
            prop_assert!(
                harvested.contains(&vid) && harvested.contains(&rid),
                "predictions {} vs {} are not a completed tie: batch {:?}",
                vid,
                rid,
                harvested
            );
        }
    }
    Ok(())
}

/// The lookahead the differential calendar test opens its windows with.
const LANE_DELTA: SimDuration = SimDuration::from_micros(3);

/// One round-driver step on both calendars: peek, open the next window if
/// the head is at or past the open one's end, pop. Returns whether an
/// event was delivered.
fn lane_step(
    wheel: &mut Calendar<u64>,
    spec: &mut calendar_reference::Calendar<u64>,
    stop: &mut SimTime,
) -> Result<bool, TestCaseError> {
    let head = wheel.peek_time();
    prop_assert_eq!(head, spec.peek_time(), "peek diverged");
    if let Some(t) = head.filter(|&t| t >= *stop) {
        *stop = t.saturating_add(LANE_DELTA);
        wheel.open_window(*stop);
        spec.open_window(*stop);
    }
    let wp = wheel.pop();
    let rp = spec.pop();
    match (&wp, &rp) {
        (None, None) => Ok(false),
        (Some(w), Some(r)) => {
            prop_assert_eq!((w.at, w.event), (r.at, r.event), "pop diverged");
            Ok(true)
        }
        _ => {
            prop_assert!(false, "pop presence diverged: {:?} vs {:?}", wp, rp);
            Ok(false)
        }
    }
}

proptest! {
    /// Events always pop in (time, insertion) order, whatever the
    /// scheduling order was.
    #[test]
    fn calendar_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = cal.pop() {
            popped.push((ev.at, ev.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                // FIFO among equal timestamps.
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events and
    /// nothing else.
    #[test]
    fn calendar_cancellation_is_exact(
        times in prop::collection::vec(0u64..100_000, 1..100),
        kill_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut cal = Calendar::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if kill_mask[*i % kill_mask.len()] {
                prop_assert!(cal.cancel(*id));
            } else {
                expected.push(*i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some(ev) = cal.pop() {
            popped.push(ev.event);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Differential test: the timer-wheel calendar and the heap reference
    /// deliver byte-identical `Scheduled` sequences — same `(time, event)`
    /// at every pop, same clock, same counters — under arbitrary
    /// interleavings of schedules (same-instant ties, far-future overflow
    /// delays, `SimTime::MAX` sentinels), cancels (including double
    /// cancels and cancel-after-pop via stale ids), peeks, and pops —
    /// and of envelope-lane traffic under the round drivers' protocol:
    /// envelopes due at, just past and far past the open window's end
    /// (tying with locals scheduled before and after the window that
    /// delivers them opens), windows opened right after a peek or ahead
    /// of an idle calendar, envelopes through the overflow ladder and
    /// across tombstone purges. The reference injects eagerly at
    /// `open_window`; the wheel orders by key.
    #[test]
    fn calendar_matches_reference_implementation(
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..250),
    ) {
        let mut wheel: Calendar<u64> = Calendar::new();
        let mut spec: calendar_reference::Calendar<u64> = calendar_reference::Calendar::new();
        // Parallel id pairs; entries are never removed, so late cancels
        // exercise the stale-id (cancel-after-pop, double-cancel) paths.
        let mut ids: Vec<(EventId, EventId)> = Vec::new();
        let mut payload = 0u64;
        // End of the open lookahead window, as a driver would track it.
        let mut stop = SimTime::ZERO;
        for &(kind, a, b) in &ops {
            match kind {
                // Schedule, biased across delay classes: same-instant
                // ties, wheel near/far levels, the overflow ladder, and
                // the first instants of the next window.
                0..=3 => {
                    let delay = match a % 7 {
                        0 => SimDuration::from_micros(0),
                        1 => SimDuration::from_micros(b % 64),
                        2 => SimDuration::from_micros(b % 1_000_000),
                        3 => SimDuration::from_micros((1 << 41) + b % 1_000),
                        4 => SimDuration::from_micros((1 << 43) + b % 1_000),
                        5 => {
                            let to_stop = stop.saturating_since(wheel.now()).as_micros();
                            SimDuration::from_micros(to_stop.saturating_add(b % 4))
                        }
                        _ => SimDuration::from_micros(u64::MAX),
                    };
                    let w = wheel.schedule_after(delay, payload);
                    let r = spec.schedule_after(delay, payload);
                    ids.push((w, r));
                    payload += 1;
                }
                4 => {
                    prop_assert_eq!(wheel.peek_time(), spec.peek_time(), "peek diverged");
                }
                5 | 6 => {
                    lane_step(&mut wheel, &mut spec, &mut stop)?;
                }
                7 => {
                    if !ids.is_empty() {
                        let (w, r) = ids[(a % ids.len() as u64) as usize];
                        prop_assert_eq!(wheel.cancel(w), spec.cancel(r), "cancel diverged");
                    }
                }
                // Envelope: never inside the open window; four senders,
                // two of them numbering downwards so canonical order is
                // not insertion order.
                8 | 9 => {
                    let extra = match a % 4 {
                        0 => 0,
                        1 => b % 4,
                        2 => b % 1_000,
                        _ => (1 << 43) + b % 1_000,
                    };
                    let at = stop.max(wheel.now()).saturating_add(SimDuration::from_micros(extra));
                    let sender = (a >> 8) as u32 % 4;
                    let seq = if sender.is_multiple_of(2) { payload } else { u64::MAX - payload };
                    // No window ends past `SimTime::MAX`, so none could
                    // deliver an envelope due then.
                    if at < SimTime::MAX {
                        wheel.schedule_envelope(at, sender, seq, payload);
                        spec.schedule_envelope(at, sender, seq, payload);
                        payload += 1;
                    }
                }
                // A window opened without a pop, as on a shard whose
                // peers hold the global minimum: allowed once nothing is
                // pending before the last window's end, and it may end
                // short of this calendar's own head.
                10 => {
                    let head = wheel.peek_time();
                    prop_assert_eq!(head, spec.peek_time(), "peek diverged");
                    if head.is_none_or(|t| t >= stop) {
                        let room = head.map_or(10, |t| t.since(stop).as_micros().saturating_add(1));
                        stop = stop
                            .saturating_add(SimDuration::from_micros(b % room))
                            .saturating_add(LANE_DELTA);
                        wheel.open_window(stop);
                        spec.open_window(stop);
                    }
                }
                // Cancel storm: enough tombstones to force a purge with
                // whatever is pending — envelopes included — in place.
                _ => {
                    if a % 4 == 0 {
                        for i in 0..1_100 {
                            let delay = SimDuration::from_micros((1 << 20) + i);
                            let w = wheel.schedule_after(delay, u64::MAX);
                            let r = spec.schedule_after(delay, u64::MAX);
                            prop_assert!(wheel.cancel(w) && spec.cancel(r));
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), spec.len(), "len diverged");
            prop_assert_eq!(wheel.now(), spec.now(), "clock diverged");
            prop_assert_eq!(wheel.processed(), spec.processed(), "processed diverged");
        }
        // Drain the tail completely.
        while lane_step(&mut wheel, &mut spec, &mut stop)? {}
        prop_assert!(wheel.is_empty() && spec.is_empty());
    }

    /// Processor sharing conserves work: total service delivered over any
    /// schedule of advances equals the integral of occupied capacity.
    #[test]
    fn ps_conserves_work(
        demands in prop::collection::vec(0.1f64..20.0, 1..20),
        caps in prop::collection::vec(0u32..16, 1..10),
        dt_ms in prop::collection::vec(1u64..5_000, 1..10),
    ) {
        let mut q = PsQueue::new(4.0);
        let total_demand: f64 = demands.iter().sum();
        for (i, &d) in demands.iter().enumerate() {
            q.add(JobId(i as u64), d, 1.0);
        }
        let mut now = SimTime::ZERO;
        for (i, &ms) in dt_ms.iter().enumerate() {
            now += hrv_trace::time::SimDuration::from_millis(ms);
            q.advance(now);
            q.set_capacity(f64::from(caps[i % caps.len()]));
            q.take_completed(1e-9);
        }
        q.advance(now + hrv_trace::time::SimDuration::from_secs(1));
        let remaining: f64 = q
            .job_ids()
            .iter()
            .filter_map(|&id| q.remaining(id))
            .sum();
        let done = total_demand - remaining;
        prop_assert!((done - q.busy_core_seconds()).abs() < 1e-6,
            "done {} vs busy {}", done, q.busy_core_seconds());
        prop_assert!(remaining >= -1e-9);
    }

    /// The next-completion estimate is never earlier than the true finish:
    /// advancing exactly to it always completes at least one job.
    #[test]
    fn ps_completion_estimate_is_safe(
        demands in prop::collection::vec(0.001f64..5.0, 1..12),
        capacity in 1u32..16,
    ) {
        let mut q = PsQueue::new(f64::from(capacity));
        for (i, &d) in demands.iter().enumerate() {
            q.add(JobId(i as u64), d, 1.0);
        }
        let mut completed = 0;
        while let Some((at, _)) = q.next_completion() {
            q.advance(at);
            let done = q.take_completed(1e-5);
            prop_assert!(!done.is_empty(), "estimate fired early");
            completed += done.len();
        }
        prop_assert_eq!(completed, demands.len());
    }

    /// Differential test: the virtual-time queue and the segment-walking
    /// reference observe identical completion sequences — same job ids at
    /// the same microsecond-quantized times — under arbitrary interleaved
    /// add / remove / resize / advance schedules.
    #[test]
    fn ps_matches_reference_implementation(
        ops in prop::collection::vec((0u8..4, 0u64..8, 1u32..40, 1u32..8), 1..80),
    ) {
        let mut vq = PsQueue::new(3.0);
        let mut rq = ps_reference::PsQueue::new(3.0);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        for &(kind, sel, a, b) in &ops {
            match kind {
                // Add a fresh job.
                0 => {
                    let demand = f64::from(a) * 0.25;
                    let cap = f64::from(b) * 0.5;
                    vq.add(JobId(next_id), demand, cap);
                    rq.add(ps_reference::JobId(next_id), demand, cap);
                    next_id += 1;
                }
                // Jump to the predicted next completion and harvest.
                1 => {
                    let vn = vq.next_completion();
                    let rn = rq.next_completion();
                    assert_next_close(vn.map(|(t, id)| (t, id.0)), rn.map(|(t, id)| (t, id.0)))?;
                    if let Some((at, _)) = vn {
                        now = now.max(at);
                        vq.advance(now);
                        rq.advance(now);
                        let vd: Vec<u64> = vq.take_completed(1e-5).iter().map(|j| j.0).collect();
                        let rd: Vec<u64> = rq.take_completed(1e-5).iter().map(|j| j.0).collect();
                        prop_assert_eq!(&vd, &rd, "harvest diverged");
                        assert_tie_or_equal(
                            vn.map(|(t, id)| (t, id.0)),
                            rn.map(|(t, id)| (t, id.0)),
                            &vd,
                        )?;
                    }
                }
                // Remove (kill) an arbitrary resident job.
                2 => {
                    let ids = vq.job_ids();
                    if !ids.is_empty() {
                        let id = ids[sel as usize % ids.len()];
                        let vl = vq.remove(id);
                        let rl = rq.remove(ps_reference::JobId(id.0));
                        prop_assert_eq!(vl.is_some(), rl.is_some());
                        if let (Some(vl), Some(rl)) = (vl, rl) {
                            prop_assert!((vl - rl).abs() < 1e-6,
                                "remaining diverged: {} vs {}", vl, rl);
                        }
                    }
                }
                // Resize, then coast for a while and harvest.
                _ => {
                    let cap = f64::from(a % 9) * 0.5;
                    vq.set_capacity(cap);
                    rq.set_capacity(cap);
                    now += SimDuration::from_millis(u64::from(b) * 37);
                    vq.advance(now);
                    rq.advance(now);
                    let vd: Vec<u64> = vq.take_completed(1e-5).iter().map(|j| j.0).collect();
                    let rd: Vec<u64> = rq.take_completed(1e-5).iter().map(|j| j.0).collect();
                    prop_assert_eq!(vd, rd, "post-resize harvest diverged");
                }
            }
            prop_assert_eq!(vq.len(), rq.len(), "population diverged");
            prop_assert!((vq.busy_core_seconds() - rq.busy_core_seconds()).abs() < 1e-6,
                "busy-time accounting diverged");
        }
        // Drain both queues to the end and compare the full tail.
        loop {
            let vn = vq.next_completion();
            let rn = rq.next_completion();
            assert_next_close(vn.map(|(t, id)| (t, id.0)), rn.map(|(t, id)| (t, id.0)))?;
            let Some((at, _)) = vn else { break };
            now = now.max(at);
            vq.advance(now);
            rq.advance(now);
            let vd: Vec<u64> = vq.take_completed(1e-5).iter().map(|j| j.0).collect();
            let rd: Vec<u64> = rq.take_completed(1e-5).iter().map(|j| j.0).collect();
            prop_assert_eq!(&vd, &rd, "tail harvest diverged");
            prop_assert!(!vd.is_empty(), "estimate fired early in drain");
            assert_tie_or_equal(
                vn.map(|(t, id)| (t, id.0)),
                rn.map(|(t, id)| (t, id.0)),
                &vd,
            )?;
        }
        prop_assert_eq!(vq.job_ids().len(), rq.job_ids().len());
    }
}
