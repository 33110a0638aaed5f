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
//! # Shard-count invariance
//!
//! Round boundaries depend only on global minima, so they are identical
//! for every shard count; same-instant envelopes are delivered in the
//! canonical `(deliver_at, sender, seq)` order and each entity's local
//! schedule order is its own; same-instant events of *different*
//! entities touch disjoint state and commute in everything the run
//! reports (records are canonically re-sorted, counters are sums). The
//! single-shard [`run_rounds`] below is the same algorithm without
//! threads or barriers, flattened into one loop — it backs
//! `Simulation::run`, which is why `S = 1` matches the unsharded
//! simulation byte for byte.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};

use hrv_fault::FaultPlan;
use hrv_lb::owner_of;
use hrv_lb::policy::PolicyKind;
use hrv_sim::calendar::{Calendar, EnvelopeLane};
use hrv_sim::engine::{run_until, RunStats, StopReason, World};
use hrv_trace::faas::Invocation;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::event::Event;
use crate::mailbox::{Envelope, ShardPlan};
use crate::world::{ClusterSpec, PlatformWorld, SimOutput};

/// Drives one solo-plan world to `end` in lookahead windows, delivering
/// its outbox through its own calendar's envelope lane. This is
/// `Simulation::run`'s engine: identical window boundaries and delivery
/// order to the threaded driver, which is what makes a 1-shard
/// `ShardedSimulation` (and any other shard count) byte-identical to the
/// plain simulation.
pub fn run_rounds<C: EnvelopeLane<Event>>(
    world: &mut PlatformWorld,
    cal: &mut C,
    end: SimTime,
    max_events: u64,
) -> RunStats {
    assert_eq!(
        world.plan().shards,
        1,
        "run_rounds drives solo worlds; sharded worlds go through ShardedSimulation"
    );
    let delta = world.cfg().bus_latency;
    let mut stop = SimTime::ZERO;
    let mut events = 0u64;
    let reason = loop {
        world.flush_outbox(cal);
        if events >= max_events {
            break StopReason::EventBudget;
        }
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

/// One shard's worker loop: the threaded counterpart of [`run_rounds`],
/// synchronized with its peers by three barrier waits per round — after
/// publishing its calendar head, after the leader fixes the window, and
/// after routing outboxes (so no shard drains an inbox a peer is still
/// filling).
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    s: usize,
    shards: u32,
    world: &mut PlatformWorld,
    cal: &mut Calendar<Event>,
    end: SimTime,
    delta: SimDuration,
    inboxes: &[Mutex<Vec<Envelope>>],
    nexts: &[AtomicU64],
    stop_us: &AtomicU64,
    verdict: &AtomicU8,
    barrier: &Barrier,
) -> RunStats {
    let mut events = 0u64;
    loop {
        for env in inboxes[s].lock().expect("inbox poisoned").drain(..) {
            env.enter_lane(cal);
        }
        let next = cal.peek_time().map_or(u64::MAX, SimTime::as_micros);
        nexts[s].store(next, Ordering::SeqCst);
        barrier.wait();
        if s == 0 {
            let global_next = nexts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if global_next == u64::MAX {
                verdict.store(ROUND_DRAINED, Ordering::SeqCst);
            } else if global_next >= end.as_micros() {
                verdict.store(ROUND_REACHED_END, Ordering::SeqCst);
            } else {
                let stop = SimTime::from_micros(global_next)
                    .saturating_add(delta)
                    .min(end);
                stop_us.store(stop.as_micros(), Ordering::SeqCst);
                verdict.store(ROUND_RUN, Ordering::SeqCst);
            }
        }
        barrier.wait();
        match verdict.load(Ordering::SeqCst) {
            ROUND_DRAINED => {
                return RunStats {
                    events,
                    end_time: cal.now(),
                    reason: StopReason::Drained,
                }
            }
            ROUND_REACHED_END => {
                return RunStats {
                    events,
                    end_time: cal.now(),
                    reason: StopReason::ReachedEnd,
                }
            }
            _ => {}
        }
        let stop = SimTime::from_micros(stop_us.load(Ordering::SeqCst));
        cal.open_window(stop);
        let stats = run_until(world, cal, stop, u64::MAX);
        events += stats.events;
        for env in world.take_outbox() {
            let target = ShardPlan::shard_of(shards, env.target) as usize;
            inboxes[target].lock().expect("inbox poisoned").push(env);
        }
        barrier.wait();
    }
}

/// A simulation partitioned into `S` shards, each owning a disjoint slice
/// of the invokers and hosting the controller replicas assigned to it
/// (replica `r` lives on shard `r mod S`; replica 0 — the whole
/// controller when `sharding.replicas == 1` — on shard 0), with its own
/// timer-wheel calendar, run on `S` worker threads. Each shard consumes
/// the arrivals its hosted replicas own directly — no hop through
/// shard 0. Records, event counts, and start counters are byte-identical
/// for every shard count; streaming float aggregates merge via
/// parallel-Welford and may differ in final bits. Live migration and
/// utilization sampling are envelope-based (owner-resolved migration,
/// per-invoker sample rows coalesced after the merge), so they run at
/// any shard count.
pub struct ShardedSimulation {
    worlds: Vec<PlatformWorld>,
    cals: Vec<Calendar<Event>>,
    shards: u32,
}

impl ShardedSimulation {
    /// Builds a sharded simulation over `shards` partitions.
    pub fn new(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: PolicyKind,
        cfg: PlatformConfig,
        seed: u64,
        shards: u32,
    ) -> Self {
        ShardedSimulation::with_faults(spec, workload, policy, cfg, seed, FaultPlan::none(), shards)
    }

    /// [`ShardedSimulation::new`] plus an injected fault plan; each shard
    /// seeds only the faults aimed at entities it owns.
    pub fn with_faults(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: PolicyKind,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        shards: u32,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let replicas = cfg.sharding.replicas;
        let mut worlds = Vec::with_capacity(shards as usize);
        let mut cals = Vec::with_capacity(shards as usize);
        for s in 0..shards {
            let mut cal = Calendar::new();
            let plan = ShardPlan::new(s, shards);
            // Each shard consumes exactly the arrivals whose owning
            // replica it hosts (all of them when `replicas == 1` and
            // `s == 0` — the classic single-controller layout).
            let owned: Vec<Invocation> = workload
                .iter()
                .filter(|inv| plan.owns_replica(owner_of(replicas, inv.function)))
                .cloned()
                .collect();
            let stream: Box<dyn ArrivalStream> = Box::new(SortedTraceStream::new(owned));
            let world = PlatformWorld::from_stream_sharded_in(
                spec.clone(),
                stream,
                policy.build(),
                cfg.clone(),
                seed,
                faults.clone(),
                plan,
                &mut cal,
            );
            worlds.push(world);
            cals.push(cal);
        }
        ShardedSimulation {
            worlds,
            cals,
            shards,
        }
    }

    /// Runs all shards to `horizon` and merges their outputs.
    pub fn run(self, horizon: SimDuration) -> SimOutput {
        let end = SimTime::ZERO + horizon;
        let shards = self.shards;
        let n = shards as usize;
        let delta = self.worlds[0].cfg().bus_latency;
        let inboxes: Vec<Mutex<Vec<Envelope>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let nexts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let stop_us = AtomicU64::new(0);
        let verdict = AtomicU8::new(ROUND_RUN);
        let barrier = Barrier::new(n);
        let worlds = self.worlds;
        let cals = self.cals;
        let results: Vec<(PlatformWorld, RunStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = worlds
                .into_iter()
                .zip(cals)
                .enumerate()
                .map(|(s, (world, cal))| {
                    let (inboxes, nexts) = (&inboxes, &nexts);
                    let (stop_us, verdict, barrier) = (&stop_us, &verdict, &barrier);
                    scope.spawn(move || {
                        let (mut world, mut cal) = (world, cal);
                        let stats = shard_worker(
                            s, shards, &mut world, &mut cal, end, delta, inboxes, nexts, stop_us,
                            verdict, barrier,
                        );
                        (world, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        merge_outputs(results)
    }
}

/// Merges per-shard worlds into one [`SimOutput`]: every shard censors
/// whatever its hosted replicas still have in flight at the latest shard
/// clock (flushing its replica-occupancy rows on the way out), then
/// shard 0 absorbs every peer's metrics; counters are sums, records
/// re-sort into canonical order, and buffered per-invoker utilization
/// rows coalesce inside `canonicalize_records`.
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
    let mut w0 = worlds.remove(0);
    let mut cold_starts = w0.total_cold_starts();
    let mut warm_starts = w0.total_warm_starts();
    let mut dropped = w0.total_dropped_completions();
    let mut prewarm_spawns = w0.total_prewarm_spawns();
    let mut prewarm_hits = w0.total_prewarm_hits();
    let mut wasted_prewarms = w0.total_wasted_prewarms();
    let mut idle_mib_secs = w0.total_idle_mib_secs();
    for w in worlds {
        cold_starts += w.total_cold_starts();
        warm_starts += w.total_warm_starts();
        dropped += w.total_dropped_completions();
        prewarm_spawns += w.total_prewarm_spawns();
        prewarm_hits += w.total_prewarm_hits();
        wasted_prewarms += w.total_wasted_prewarms();
        idle_mib_secs += w.total_idle_mib_secs();
        let mut peer = w;
        let peer_metrics = std::mem::take(&mut peer.metrics);
        w0.metrics.merge(peer_metrics);
        w0.tel
            .recorder
            .merge(std::mem::take(&mut peer.tel.recorder));
    }
    w0.metrics.dropped_completions = dropped;
    w0.metrics
        .set_coldstart_totals(prewarm_spawns, prewarm_hits, wasted_prewarms, idle_mib_secs);
    w0.metrics.canonicalize_records();
    SimOutput {
        cold_starts,
        warm_starts,
        recorder: std::mem::take(&mut w0.tel.recorder),
        collector: std::mem::take(&mut w0.metrics),
        run: RunStats {
            events,
            end_time,
            reason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_fault::FaultSpec;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::harvest::{FleetConfig, FleetTrace, Storm};
    use hrv_trace::rng::SeedFactory;

    use crate::world::Simulation;

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
    /// opens — then through `Simulation::run` and `ShardedSimulation` at
    /// S = 2 and 4; returns the oracle's output after checking the others
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
            let run = run_rounds(&mut world, &mut cal, end, u64::MAX);
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
            ShardedSimulation::with_faults(
                i.spec.clone(),
                i.trace.clone(),
                PolicyKind::Mws,
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
}
