//! Deterministic sharded simulation: per-shard timer wheels advanced in
//! conservative-lookahead rounds.
//!
//! # Rounds
//!
//! The platform's minimum cross-entity message delay is one bus hop
//! (`PlatformConfig::bus_latency`, written Δ below); every envelope a
//! world emits is validated against it. That bound yields a grid-free
//! conservative-lookahead schedule. Pending envelopes wait inside their
//! target's calendar (its envelope lane,
//! [`hrv_sim::calendar::EnvelopeLane`]), not beside it, so a calendar's
//! head is the earliest thing its shard knows about:
//!
//! 1. Each shard drains its inbox into the lane and publishes its
//!    calendar head.
//! 2. The leader computes `global_next = min(heads)` and the round
//!    window `stop = min(global_next + Δ, horizon)`.
//! 3. Each shard opens the window (`open_window(stop)`: envelopes due in
//!    it sort, in canonical order, behind everything scheduled so far)
//!    and runs events up to `stop`, collecting newly produced envelopes.
//! 4. Envelopes are routed to their target shards; barrier; repeat.
//!
//! Safety: every event processed in a round sits at `τ ≥ global_next`,
//! so any envelope it emits is due at `τ + Δ ≥ stop` — never inside the
//! current window (`schedule_envelope` checks it, in release builds
//! too). Conversely, every envelope due before `stop` was produced in an
//! earlier round and is already in the lane when the window opens. No
//! shard ever hears about its past.
//!
//! A shard that panics keeps meeting its barriers; the leader turns the
//! round into an abort, every shard leaves its loop, and the run
//! re-raises the first panic with its own payload.
//!
//! # Shard-count invariance
//!
//! Round boundaries depend only on global minima, so they are identical
//! for every shard count; same-instant envelopes are delivered in the
//! canonical `(deliver_at, sender, seq)` order and each entity's local
//! schedule order is its own; same-instant events of *different*
//! entities touch disjoint state and commute in everything the run
//! reports (records are canonically re-sorted, counters are sums). The
//! single-shard [`run_rounds`] below is the same algorithm without
//! threads or barriers, flattened into one loop; `Simulation::run` picks
//! it for one shard and the threaded workers for more, so every shard
//! count matches `S = 1` byte for byte.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

use hrv_fault::FaultPlan;
use hrv_lb::policy::PolicyKind;
use hrv_sim::calendar::{Calendar, EnvelopeLane};
use hrv_sim::engine::{run_until, RunStats, StopReason, World};
use hrv_trace::faas::Invocation;
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::event::Event;
use crate::mailbox::{Envelope, ShardPlan};
use crate::world::{ClusterSpec, PlatformWorld, SimOutput, Simulation};

/// Drives one solo-plan world to `end` in lookahead windows, delivering
/// its outbox through its own calendar's envelope lane: identical window
/// boundaries and delivery order to the threaded driver, which is what
/// makes every shard count byte-identical to one.
pub fn run_rounds<C: EnvelopeLane<Event>>(
    world: &mut PlatformWorld,
    cal: &mut C,
    end: SimTime,
) -> RunStats {
    assert_eq!(
        world.plan().shards,
        1,
        "run_rounds drives solo worlds; Simulation::run threads sharded ones"
    );
    let delta = world.cfg().bus_latency;
    let mut stop = SimTime::ZERO;
    let mut events = 0u64;
    let reason = loop {
        world.flush_outbox(cal);
        let Some(t) = cal.peek_time() else {
            break StopReason::Drained;
        };
        if t >= stop {
            if t >= end {
                break StopReason::ReachedEnd;
            }
            stop = t.saturating_add(delta).min(end);
            cal.open_window(stop);
        }
        let ev = cal.pop().expect("peeked event exists");
        world.handle(ev, cal);
        events += 1;
    };
    RunStats {
        events,
        end_time: cal.now(),
        reason,
    }
}

/// Leader verdict for one round, published through an atomic.
const ROUND_RUN: u8 = 0;
const ROUND_DRAINED: u8 = 1;
const ROUND_REACHED_END: u8 = 2;
const ROUND_ABORTED: u8 = 3;

/// What the shards of a threaded run share: one inbox and one published
/// calendar head per shard, the leader's window stop and verdict, the
/// barrier they meet at, and the first panic any of them caught.
struct Rendezvous {
    inboxes: Vec<Mutex<Vec<Envelope>>>,
    nexts: Vec<AtomicU64>,
    stop_us: AtomicU64,
    verdict: AtomicU8,
    barrier: Barrier,
    aborted: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Rendezvous {
    fn new(shards: usize) -> Self {
        Rendezvous {
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            nexts: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stop_us: AtomicU64::new(0),
            verdict: AtomicU8::new(ROUND_RUN),
            barrier: Barrier::new(shards),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Runs one shard's work between two barriers. A panic is caught, so
    /// the shard goes on meeting its barriers; the first payload is kept
    /// and the abort flag raised for the leader.
    fn guard(&self, work: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
            self.aborted.store(true, Ordering::SeqCst);
        }
    }

    /// The leader's step between the first two barriers: fixes the round
    /// window from the published heads, or ends the run.
    fn lead(&self, end: SimTime, delta: SimDuration) {
        if self.aborted.load(Ordering::SeqCst) {
            self.verdict.store(ROUND_ABORTED, Ordering::SeqCst);
            return;
        }
        let global_next = self
            .nexts
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .min()
            .expect("at least one shard");
        let verdict = if global_next == u64::MAX {
            ROUND_DRAINED
        } else if global_next >= end.as_micros() {
            ROUND_REACHED_END
        } else {
            let stop = SimTime::from_micros(global_next)
                .saturating_add(delta)
                .min(end);
            self.stop_us.store(stop.as_micros(), Ordering::SeqCst);
            ROUND_RUN
        };
        self.verdict.store(verdict, Ordering::SeqCst);
    }
}

/// One shard's worker loop: the threaded counterpart of [`run_rounds`],
/// synchronized with its peers by three barrier waits per round — after
/// publishing its calendar head, after the leader fixes the window, and
/// after routing outboxes (so no shard drains an inbox a peer is still
/// filling).
fn shard_worker(
    s: usize,
    world: &mut PlatformWorld,
    cal: &mut Calendar<Event>,
    end: SimTime,
    r: &Rendezvous,
) -> RunStats {
    let shards = r.inboxes.len() as u32;
    let delta = world.cfg().bus_latency;
    let mut events = 0u64;
    loop {
        r.guard(|| {
            for env in r.inboxes[s].lock().expect("inbox poisoned").drain(..) {
                env.enter_lane(cal);
            }
            let next = cal.peek_time().map_or(u64::MAX, SimTime::as_micros);
            r.nexts[s].store(next, Ordering::SeqCst);
        });
        r.barrier.wait();
        if s == 0 {
            r.lead(end, delta);
        }
        r.barrier.wait();
        let reason = match r.verdict.load(Ordering::SeqCst) {
            ROUND_RUN => None,
            ROUND_DRAINED => Some(StopReason::Drained),
            // An aborted run re-raises its panic; the reason goes unread.
            _ => Some(StopReason::ReachedEnd),
        };
        if let Some(reason) = reason {
            return RunStats {
                events,
                end_time: cal.now(),
                reason,
            };
        }
        r.guard(|| {
            let stop = SimTime::from_micros(r.stop_us.load(Ordering::SeqCst));
            cal.open_window(stop);
            events += run_until(world, cal, stop, u64::MAX).events;
            for env in world.take_outbox() {
                let target = ShardPlan::shard_of(shards, env.target) as usize;
                r.inboxes[target].lock().expect("inbox poisoned").push(env);
            }
        });
        r.barrier.wait();
    }
}

/// Runs two or more shards to `end` on one worker thread each and
/// returns every shard's world with its stats, in shard order. A panic
/// in any shard ends every shard's loop within the round, and is
/// re-raised here with its original payload.
pub(crate) fn run_threaded(
    shards: Vec<(PlatformWorld, Calendar<Event>)>,
    end: SimTime,
) -> Vec<(PlatformWorld, RunStats)> {
    let r = Rendezvous::new(shards.len());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(s, (mut world, mut cal))| {
                let r = &r;
                scope.spawn(move || {
                    let stats = shard_worker(s, &mut world, &mut cal, end, r);
                    (world, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    if let Some(payload) = r.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    results
}

/// The sharded driver's former entry point, now an empty type kept only
/// because the claim benchmark (`benchmark/`) builds its two-shard
/// `fleet_s2` workload through it. New code calls [`Simulation::sharded`].
pub struct ShardedSimulation;

impl ShardedSimulation {
    /// [`Simulation::sharded`] over a fresh `policy.build()`.
    pub fn with_faults(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: PolicyKind,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        shards: u32,
    ) -> Simulation {
        Simulation::sharded(spec, workload, policy.build(), cfg, seed, faults, shards)
    }
}

/// Merges per-shard worlds into one [`SimOutput`]: every shard censors
/// whatever its hosted replicas still have in flight at the latest shard
/// clock (flushing its replica-occupancy rows and invoker totals into its
/// collector on the way out), then shard 0's collector absorbs every
/// peer's, which only adds; records and phase rows append into room
/// reserved once for every peer's and re-sort into canonical order.
/// Every run is held to invocation conservation
/// ([`SimOutput::assert_conservation`]).
pub(crate) fn merge_outputs(results: Vec<(PlatformWorld, RunStats)>) -> SimOutput {
    let events: u64 = results.iter().map(|(_, r)| r.events).sum();
    let end_time = results
        .iter()
        .map(|(_, r)| r.end_time)
        .max()
        .expect("at least one shard");
    let reason = results[0].1.reason;
    let mut worlds: Vec<PlatformWorld> = results.into_iter().map(|(w, _)| w).collect();
    for w in &mut worlds {
        w.censor_remaining(end_time);
    }
    let cold_starts = worlds.iter().map(PlatformWorld::total_cold_starts).sum();
    let warm_starts = worlds.iter().map(PlatformWorld::total_warm_starts).sum();
    let mut w0 = worlds.remove(0);
    let peers = || worlds.iter().map(|w| &w.metrics);
    let records = peers().map(|m| m.records.len()).sum();
    let phases = peers().map(|m| m.phases.len()).sum();
    w0.metrics.reserve_rows(records, phases);
    for mut peer in worlds {
        w0.metrics.merge(std::mem::take(&mut peer.metrics));
        w0.tel
            .recorder
            .merge(std::mem::take(&mut peer.tel.recorder));
    }
    w0.metrics.canonicalize_records();
    let out = SimOutput {
        cold_starts,
        warm_starts,
        recorder: std::mem::take(&mut w0.tel.recorder),
        collector: std::mem::take(&mut w0.metrics),
        run: RunStats {
            events,
            end_time,
            reason,
        },
    };
    out.assert_conservation();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ColdStartConfig, HybridHistogramConfig};
    use hrv_fault::FaultSpec;
    use hrv_sim::calendar::{EventCalendar, EventId, Scheduled};
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::harvest::{FleetConfig, FleetTrace, Storm};
    use hrv_trace::rng::SeedFactory;
    use hrv_trace::stream::SortedTraceStream;

    struct Inputs {
        spec: ClusterSpec,
        trace: Vec<Invocation>,
        cfg: PlatformConfig,
        faults: FaultPlan,
        horizon: SimDuration,
    }

    const SEED: u64 = 17;

    fn workload(horizon: SimDuration) -> Vec<Invocation> {
        let seeds = SeedFactory::new(SEED).child("wl");
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 4.0);
        Workload::generate(&spec, &seeds).invocations(horizon, &seeds)
    }

    fn fleet(horizon: SimDuration, forced_storms: Vec<Storm>) -> ClusterSpec {
        let config = FleetConfig {
            horizon,
            initial_population: 8,
            final_population: 10,
            forced_storms,
            redeploy_check_every: SimDuration::from_secs(30),
            ..FleetConfig::default()
        };
        ClusterSpec::from_traces(FleetTrace::generate(&config, &SeedFactory::new(SEED)).vms)
    }

    /// Runs `i` through the eager oracle — `run_rounds` over the reference
    /// calendar, whose lane *is* eager injection: pending envelopes wait
    /// in a heap beside the calendar and enter it through plain
    /// `schedule`, in canonical order, when the window they fall due in
    /// opens — then through `Simulation::run` at S = 1, 2 and 4; returns the oracle's output after checking the others
    /// against it.
    fn assert_lane_matches_eager(i: &Inputs, label: &str) -> SimOutput {
        let eager = {
            let mut cal = hrv_sim::calendar_reference::Calendar::new();
            let mut world = PlatformWorld::from_stream_sharded_in(
                i.spec.clone(),
                Box::new(SortedTraceStream::new(i.trace.clone())),
                PolicyKind::Mws.build(),
                i.cfg.clone(),
                SEED,
                i.faults.clone(),
                ShardPlan::solo(),
                &mut cal,
            );
            let end = SimTime::ZERO + i.horizon;
            let run = run_rounds(&mut world, &mut cal, end);
            merge_outputs(vec![(world, run)])
        };
        let solo = Simulation::with_faults(
            i.spec.clone(),
            i.trace.clone(),
            PolicyKind::Mws.build(),
            i.cfg.clone(),
            SEED,
            i.faults.clone(),
        )
        .run(i.horizon);
        assert_eq!(eager.run, solo.run, "{label}: run stats, solo");
        let sharded = [2u32, 4].map(|shards| {
            Simulation::sharded(
                i.spec.clone(),
                i.trace.clone(),
                PolicyKind::Mws.build(),
                i.cfg.clone(),
                SEED,
                i.faults.clone(),
                shards,
            )
            .run(i.horizon)
        });
        for (out, who) in std::iter::once(&solo)
            .chain(&sharded)
            .zip(["solo", "S=2", "S=4"])
        {
            assert_eq!(eager.run.events, out.run.events, "{label}: events, {who}");
            assert_eq!(
                eager.collector.records, out.collector.records,
                "{label}: records, {who}"
            );
            assert_eq!(
                eager.collector.arrivals, out.collector.arrivals,
                "{label}: {who}"
            );
            assert_eq!(
                eager.cold_starts, out.cold_starts,
                "{label}: cold starts, {who}"
            );
            assert_eq!(
                eager.warm_starts, out.warm_starts,
                "{label}: warm starts, {who}"
            );
            assert_eq!(
                eager.collector.counters, out.collector.counters,
                "{label}: counters, {who}"
            );
            assert_eq!(
                eager.collector.samples, out.collector.samples,
                "{label}: samples, {who}"
            );
            assert_eq!(
                eager.collector.migrations, out.collector.migrations,
                "{label}: migrations, {who}"
            );
        }
        assert!(
            eager.collector.records.len() > 300,
            "{label}: only {} records — the comparison degenerated",
            eager.collector.records.len()
        );
        eager
    }

    #[test]
    fn lane_matches_eager_injection_on_a_clean_replay() {
        let horizon = SimDuration::from_mins(4);
        assert_lane_matches_eager(
            &Inputs {
                spec: fleet(horizon, vec![]),
                trace: workload(horizon),
                cfg: PlatformConfig::default(),
                faults: FaultPlan::none(),
                horizon,
            },
            "clean",
        );
    }

    #[test]
    fn lane_matches_eager_injection_under_chaos_with_recovery() {
        let horizon = SimDuration::from_mins(4);
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = true;
        let faults =
            FaultSpec::chaos(1.5).compile(6, horizon, &SeedFactory::new(SEED).child("faults"));
        let out = assert_lane_matches_eager(
            &Inputs {
                spec: ClusterSpec::regular(6, 4, 16 * 1024, horizon),
                trace: workload(SimDuration::from_secs(200)),
                cfg,
                faults,
                horizon,
            },
            "chaos",
        );
        let c = &out.collector;
        assert!(
            c.streaming.lost + c.streaming.eviction_failures + c.vm_crashes > 0,
            "chaos plan produced no faults"
        );
    }

    #[test]
    fn lane_matches_eager_injection_with_replicas_migration_sampling_and_storms() {
        let horizon = SimDuration::from_mins(4);
        let storm = |mins| Storm {
            at: SimTime::ZERO + SimDuration::from_mins(mins),
            fraction: 0.3,
        };
        let mut cfg = PlatformConfig::default();
        cfg.sharding.replicas = 4;
        cfg.migration.enabled = true;
        cfg.sample_interval = SimDuration::from_secs(5);
        cfg.recovery.enabled = true;
        let out = assert_lane_matches_eager(
            &Inputs {
                spec: fleet(horizon, vec![storm(1), storm(3)]),
                trace: workload(horizon),
                cfg,
                faults: FaultPlan::none(),
                horizon,
            },
            "R=4",
        );
        let c = &out.collector;
        assert!(!c.samples.is_empty(), "sampling produced no series");
        assert!(
            c.vm_evictions > 0 && c.migrations > 0,
            "storms produced {} evictions / {} migrations",
            c.vm_evictions,
            c.migrations
        );
    }

    /// The claim benchmark's harness ends a solo world by hand instead of
    /// through `merge_outputs`: `censor_remaining`, then the world's own
    /// invoker totals installed over what censoring added, then
    /// `canonicalize_records`. That path must report what
    /// `Simulation::run` reports.
    #[test]
    fn a_solo_world_ended_by_hand_matches_the_simulation() {
        let horizon = SimDuration::from_mins(4);
        let storm = Storm {
            at: SimTime::ZERO + SimDuration::from_mins(2),
            fraction: 0.3,
        };
        let (spec, trace) = (fleet(horizon, vec![storm]), workload(horizon));
        let cfg = PlatformConfig {
            // Short bins, so the hybrid histogram learns and prewarms
            // inside four minutes.
            coldstart: ColdStartConfig::Hybrid(HybridHistogramConfig {
                bin_width: SimDuration::from_secs(5),
                min_samples: 4,
                prewarm_window: SimDuration::from_secs(1),
                ..HybridHistogramConfig::default()
            }),
            sample_interval: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let policy = PolicyKind::Mws;
        let faults = FaultPlan::none();
        let want = Simulation::with_faults(
            spec.clone(),
            trace.clone(),
            policy.build(),
            cfg.clone(),
            SEED,
            faults.clone(),
        )
        .run(horizon);

        let mut cal = Calendar::new();
        let arrivals = Box::new(SortedTraceStream::new(trace));
        let solo = ShardPlan::solo();
        let mut w = PlatformWorld::from_stream_sharded_in(
            spec,
            arrivals,
            policy.build(),
            cfg,
            SEED,
            faults,
            solo,
            &mut cal,
        );
        let run = run_rounds(&mut w, &mut cal, SimTime::ZERO + horizon);
        w.censor_remaining(cal.now());
        w.metrics.dropped_completions = w.total_dropped_completions();
        w.metrics.set_coldstart_totals(
            w.total_prewarm_spawns(),
            w.total_prewarm_hits(),
            w.total_wasted_prewarms(),
            w.total_idle_mib_secs(),
        );
        w.metrics.canonicalize_records();

        let (got, want_c) = (&w.metrics, &want.collector);
        let prewarms = |s: &crate::metrics::StreamingMetrics| {
            (s.prewarm_spawns, s.prewarm_hits, s.wasted_prewarms)
        };
        assert_eq!(run, want.run);
        assert_eq!(got.records, want_c.records);
        assert_eq!(got.samples, want_c.samples);
        assert_eq!(prewarms(&got.streaming), prewarms(&want_c.streaming));
        assert_eq!(
            got.streaming.idle_mib_micros,
            want_c.streaming.idle_mib_micros
        );
        assert_eq!(got.dropped_completions, want_c.dropped_completions);
        assert!(
            want_c.streaming.prewarm_spawns > 0
                && want_c.streaming.idle_mib_micros > 0
                && !want_c.samples.is_empty(),
            "the comparison degenerated: prewarms {:?}, idle {} MiB·µs, {} samples",
            prewarms(&want_c.streaming),
            want_c.streaming.idle_mib_micros,
            want_c.samples.len()
        );
    }

    /// A timer wheel that counts the ping-report rows entering its
    /// envelope lane.
    struct RowCounting {
        cal: Calendar<Event>,
        rows: u64,
    }

    impl EventCalendar<Event> for RowCounting {
        fn now(&self) -> SimTime {
            self.cal.now()
        }
        fn processed(&self) -> u64 {
            self.cal.processed()
        }
        fn len(&self) -> usize {
            self.cal.len()
        }
        fn schedule(&mut self, at: SimTime, event: Event) -> EventId {
            self.cal.schedule(at, event)
        }
        fn schedule_after(&mut self, delay: SimDuration, event: Event) -> EventId {
            self.cal.schedule_after(delay, event)
        }
        fn cancel(&mut self, id: EventId) -> bool {
            self.cal.cancel(id)
        }
        fn peek_time(&mut self) -> Option<SimTime> {
            self.cal.peek_time()
        }
        fn pop(&mut self) -> Option<Scheduled<Event>> {
            self.cal.pop()
        }
    }

    impl EnvelopeLane<Event> for RowCounting {
        fn schedule_envelope(&mut self, at: SimTime, sender: u32, seq: u64, event: Event) {
            if let Event::PingReport { reports, .. } = &event {
                self.rows += reports.len() as u64;
            }
            self.cal.schedule_envelope(at, sender, seq, event);
        }
        fn open_window(&mut self, stop: SimTime) {
            self.cal.open_window(stop);
        }
    }

    /// Where the platform lets invokers skip a ping that repeats their
    /// previous report (recovery off, no view freeze), skipping changes
    /// the message count and nothing else: the R = 4 + migration +
    /// sampling + storms configuration under a freeze-free chaos plan,
    /// run once with every ping reporting and once on change only.
    #[test]
    fn skipping_unchanged_pings_moves_only_the_message_count() {
        use hrv_lb::view::InvokerView;
        use hrv_telemetry::CounterId;

        let horizon = SimDuration::from_mins(4);
        let storm = |mins| Storm {
            at: SimTime::ZERO + SimDuration::from_mins(mins),
            fraction: 0.3,
        };
        let spec = fleet(horizon, vec![storm(1), storm(3)]);
        let mut cfg = PlatformConfig::default();
        cfg.sharding.replicas = 4;
        cfg.migration.enabled = true;
        cfg.sample_interval = SimDuration::from_secs(5);
        let freeze_free = FaultSpec {
            staleness_per_hour: 0.0,
            ..FaultSpec::chaos(1.5)
        };
        let seeds = SeedFactory::new(SEED).child("faults");
        let faults = freeze_free.compile(spec.vms.len() as u32, horizon, &seeds);
        // A view row minus when it last heard a report: the one field a
        // skipped report would have moved.
        let unstamped = |v: InvokerView| InvokerView {
            last_ping: SimTime::ZERO,
            ..v
        };
        let run = |on_change: bool| {
            let mut cal = RowCounting {
                cal: Calendar::new(),
                rows: 0,
            };
            let mut world = PlatformWorld::from_stream_sharded_in(
                spec.clone(),
                Box::new(SortedTraceStream::new(workload(horizon))),
                PolicyKind::Mws.build(),
                cfg.clone(),
                SEED,
                faults.clone(),
                ShardPlan::solo(),
                &mut cal,
            );
            world.set_report_on_change(on_change);
            let run = run_rounds(&mut world, &mut cal, SimTime::ZERO + horizon);
            let views: Vec<Vec<InvokerView>> = (world.replica_views().into_iter())
                .map(|rows| rows.into_iter().map(unstamped).collect())
                .collect();
            (merge_outputs(vec![(world, run)]), views, cal.rows)
        };
        let skipped = |out: &SimOutput| out.collector.counters.get(CounterId::PingReportsSkipped);
        let envelopes = |out: &SimOutput| -> u64 {
            let rows = &out.collector.replica_occupancy;
            rows.iter().map(|r| r.envelopes).sum()
        };
        // Everything a run reports except its message counts.
        let outcome = |out: &SimOutput| {
            let c = &out.collector;
            let s = &c.streaming;
            let recovery = (
                s.retries,
                s.redispatches,
                c.quarantines,
                s.quarantine_micros,
            );
            let prewarms = (s.prewarm_spawns, s.prewarm_hits, s.wasted_prewarms);
            let placements: Vec<u64> = c.replica_occupancy.iter().map(|r| r.placements).collect();
            let starts = (c.arrivals, out.cold_starts, out.warm_starts);
            let faults = (c.vm_evictions, c.vm_crashes, c.migrations);
            let rows = (c.records.clone(), c.samples.clone());
            (
                rows,
                starts,
                faults,
                c.dropped_completions,
                recovery,
                prewarms,
                placements,
            )
        };
        let (every, every_views, every_rows) = run(false);
        let (on_change, on_change_views, on_change_rows) = run(true);
        assert_eq!(outcome(&every), outcome(&on_change));
        assert_eq!(every_views, on_change_views, "replica view rows");
        // What did move: one report row per replica per skip, and with
        // it every `PingReport` whose rows were all skipped.
        let n = skipped(&on_change);
        assert!(skipped(&every) == 0 && n > 0, "no ping was skipped");
        assert_eq!(every_rows - on_change_rows, 4 * n);
        let fewer = envelopes(&every) - envelopes(&on_change);
        assert!(
            fewer > 0 && fewer < 4 * n,
            "{fewer} envelopes for {n} skips"
        );
        assert_eq!(fewer % 4, 0, "a firing's copies come and go together");
        assert_eq!(every.run.events - on_change.run.events, fewer);
        let c = &every.collector;
        assert!(
            c.vm_crashes > 0 && c.migrations > 0 && c.records.len() > 300,
            "{} crashes, {} migrations, {} records — the comparison degenerated",
            c.vm_crashes,
            c.migrations,
            c.records.len()
        );
    }
}
