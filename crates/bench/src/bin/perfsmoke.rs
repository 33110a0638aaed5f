//! Perf-smoke harness: quick wall-clock numbers for the simulator's hot
//! paths, written to `BENCH_perfsmoke.json` at the repo root.
//!
//! Nine probes:
//!
//! 1. **calendar** — schedule/cancel/pop churn through the event
//!    calendar, the data structure every simulated event crosses;
//! 2. **calendar_churn** — a cancel-dominated mix with far-future
//!    (overflow-ladder) timers, asserting the tombstone bound
//!    `tombstones ≤ max(live, 1024)` after every operation batch;
//! 3. **ps** — completion throughput of the virtual-time `PsQueue`
//!    against the segment-walking reference implementation at 10, 100,
//!    1 000 and 10 000 concurrent jobs (the rewrite must clear 3× at
//!    1 000);
//! 4. **placement** — MWS and sampled-JSQ placement decisions per second
//!    against a 64-invoker view with live load bookkeeping (the
//!    dispatch hot path the scratch-buffer work de-allocates), plus
//!    hash-ring joins per second onto the paper-scale ring (1 600
//!    members × 64 vnodes — what every `DeployNotice` costs a replica);
//! 5. **coldstart_policy** — hybrid-histogram cold-start policy
//!    decisions per second (histogram update per arrival plus two
//!    percentile walks per idle decision) over a mixed 512-function
//!    population;
//! 6. **replay** — a short end-to-end MWS replay on the Harvest cluster,
//!    the closest thing to "how fast do real experiments run";
//! 7. **telemetry_overhead** — the same replay with the flight recorder
//!    and latency attribution enabled, reported as the on/off event-rate
//!    ratio (CI gates the enabled run at ≥ 0.7× the disabled rate);
//! 8. **sharded_replay** — the paper-scale partitioned controller driven
//!    by the deterministic multi-core `ShardedSimulation` at 1, 2 and 4
//!    shards: a 1 600-invoker fleet (102 400 hash-ring members), the
//!    full `F_large` offered volume (~10.5 k req/s), four controller
//!    replicas with live migration and fleet-wide sampling enabled, and
//!    relaxed messaging latencies (50 ms bus, 5 s pings). Reports
//!    per-shard-count event and placement rates, the multi-core speedup
//!    (only meaningful on a multi-core machine; the JSON records the
//!    core count so gates can condition on it), and a
//!    `controller_occupancy` section with per-replica placement and
//!    envelope counts whose max/min placement ratio is gated at ≤ 2.0;
//! 9. **scale** — the full-volume `F_large` streaming drain (default
//!    10⁸ invocations; override with `PERFSMOKE_SCALE_INVOCATIONS` for
//!    CI-sized runs) plus a constant-memory full-platform replay, both
//!    under an RSS-growth assertion.
//!
//! The report opens with a `machine` object — core count, CPU model,
//! rustc version, git commit — naming what the wall-clock rows were
//! measured on.
//!
//! Usage: `cargo run --release -p hrv-bench --bin perfsmoke`

use std::hint::black_box;
use std::time::{Duration, Instant};

use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::{ClusterSpec, Simulation};
use harvest_faas::hrv_platform::{ShardedSimulation, TelemetryConfig};
use harvest_faas::hrv_trace::faas::{Workload, WorkloadSpec};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use hrv_bench::replay;
use hrv_bench::scale::{
    run_platform_scale, run_stream_scale, PlatformScaleReport, StreamScaleConfig, StreamScaleReport,
};
use hrv_bench::timing::best_of;
use hrv_lb::hashring::HashRing;
use hrv_lb::jsq::{Jsq, JsqMetric};
use hrv_lb::mws::{Mws, MwsCacheStats};
use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::{ClusterView, InvokerId, InvokerView, LoadWeights};
use hrv_sim::calendar::Calendar;
use hrv_trace::faas::{AppId, FunctionId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Calendar churn: a rolling window of pending timers where half of all
/// scheduled events are cancelled before they fire — the invoker
/// completion-timer pattern at fleet scale.
fn bench_calendar(total_events: usize) -> (f64, f64) {
    let start = Instant::now();
    let mut cal: Calendar<u64> = Calendar::with_capacity(4_096);
    let mut armed: Vec<hrv_sim::calendar::EventId> = Vec::with_capacity(64);
    let mut popped = 0u64;
    let mut i = 0u64;
    while (popped as usize) < total_events {
        // Schedule a burst, cancel every other handle from the last burst.
        for k in 0..64u64 {
            let at = SimTime::from_micros(i * 64 + k + 1);
            let id = cal.schedule(at, i * 64 + k);
            if k % 2 == 0 {
                armed.push(id);
            }
        }
        for id in armed.drain(..) {
            cal.cancel(id);
        }
        for _ in 0..32 {
            if cal.pop().is_some() {
                popped += 1;
            }
        }
        i += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, popped as f64 / secs)
}

/// Cancel-dominated calendar churn: 75% of near-term timers are cancelled
/// before firing and every burst arms far-future (overflow-ladder) timers
/// that are also cancelled — the worst case for tombstone accumulation.
/// Asserts the bounded-tombstone invariant after every burst.
fn bench_calendar_churn(total_ops: usize) -> (f64, f64, usize) {
    let start = Instant::now();
    let mut cal: Calendar<u64> = Calendar::with_capacity(4_096);
    let mut near: Vec<hrv_sim::calendar::EventId> = Vec::with_capacity(64);
    let mut far: std::collections::VecDeque<hrv_sim::calendar::EventId> =
        std::collections::VecDeque::with_capacity(16);
    let mut ops = 0usize;
    let mut max_tombstones = 0usize;
    let mut i = 0u64;
    while ops < total_ops {
        let base = cal.now().as_micros();
        for k in 0..64u64 {
            let at = SimTime::from_micros(base + k + 1);
            let id = cal.schedule(at, i * 64 + k);
            if k % 4 != 3 {
                near.push(id);
            }
        }
        // Far-future timers land on the overflow ladder (≥ 2⁴³ µs away),
        // like VM-lifetime sentinels; cancel the previous burst's pair.
        for k in 0..2u64 {
            let at = SimTime::from_micros(base + (1 << 43) + k);
            far.push_back(cal.schedule(at, k));
        }
        while far.len() > 2 {
            cal.cancel(far.pop_front().unwrap());
            ops += 1;
        }
        for id in near.drain(..) {
            cal.cancel(id);
            ops += 1;
        }
        // Tombstones peak right after the cancel storm, before pops sweep
        // the opened ticks; the bound must hold here too.
        max_tombstones = max_tombstones.max(cal.tombstones());
        assert!(
            cal.tombstones() <= cal.len().max(1_024),
            "stale-tombstone leak after cancels: {} tombstones vs {} live events",
            cal.tombstones(),
            cal.len()
        );
        for _ in 0..16 {
            if cal.pop().is_some() {
                ops += 1;
            }
        }
        ops += 66; // the schedules above
        assert!(
            cal.tombstones() <= cal.len().max(1_024),
            "stale-tombstone leak: {} tombstones vs {} live events",
            cal.tombstones(),
            cal.len()
        );
        i += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, ops as f64 / secs, max_tombstones)
}

/// Cold-start policy decisions per second: drives the hybrid-histogram
/// policy — the most expensive of the cold-start policies (histogram
/// update per arrival, two percentile walks per idle decision) — over a
/// 512-function population with mixed hot/periodic/rare periods. Every
/// arrival is followed by an idle decision, the worst-case ratio the
/// invoker can produce.
fn bench_coldstart_policy(decisions: u64) -> f64 {
    use harvest_faas::hrv_policy::{
        ColdStartPolicy, HybridHistogram, HybridHistogramConfig, IdleCtx,
    };
    let mut policy = HybridHistogram::new(HybridHistogramConfig::default());
    let functions: Vec<FunctionId> = (0..512)
        .map(|i| FunctionId {
            app: AppId(i),
            func: 0,
        })
        .collect();
    let start = Instant::now();
    for i in 0..decisions {
        let f = functions[(i % 512) as usize];
        // Periods from 2 s (hot) to ~17 min (periodic): exercises both
        // the keep path and the unload/prewarm path.
        let period = 2 + (f.app.0 as u64 % 7) * 170;
        let now = SimTime::from_secs((i / 512) * period);
        policy.observe_arrival(f, now);
        let ctx = IdleCtx {
            now,
            fixed_keep_alive: SimDuration::from_mins(10),
            cold_start_delay: SimDuration::from_millis(2_500),
            bus_latency: SimDuration::from_millis(2),
            idle_peers: 0,
        };
        std::hint::black_box(policy.on_idle(f, &ctx));
    }
    decisions as f64 / start.elapsed().as_secs_f64()
}

/// Placement decisions per second: drives one load balancer against a
/// 64-invoker view, cycling 509 functions, with controller-style load
/// bookkeeping through `ClusterView::update` so the placeable index stays
/// on its incremental path.
fn drive_placement(lb: &mut dyn LoadBalancer, placements: u64) -> f64 {
    let mut view = ClusterView::new();
    for i in 0..64 {
        lb.on_invoker_join(InvokerId(i));
        view.add(InvokerView::register(
            InvokerId(i),
            8,
            64 * 1024,
            SimTime::ZERO,
        ));
    }
    let mut rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    for i in 0..placements {
        let f = FunctionId {
            app: AppId((i % 509) as u32),
            func: 0,
        };
        let now = SimTime::from_micros(i * 200);
        lb.on_arrival(f, now);
        let id = lb
            .place(now, f, 256, &view, &mut rng)
            .expect("fleet is placeable");
        view.update(id, |v| {
            v.cpu_in_use = (v.cpu_in_use + 0.25).min(8.0);
            v.inflight += 1;
        });
        if i % 2 == 1 {
            // Completion-style decay on a rotating invoker.
            view.update(InvokerId((i % 64) as u32), |v| {
                v.cpu_in_use = (v.cpu_in_use - 0.45).max(0.0);
                v.inflight = v.inflight.saturating_sub(1);
            });
        }
    }
    placements as f64 / start.elapsed().as_secs_f64()
}

fn bench_placement(placements: u64) -> (f64, f64, MwsCacheStats) {
    let (_, mws_rate, mws_cache) = best_of(3, || {
        let mut mws = Mws::new(LoadWeights::default(), 1);
        let rate = drive_placement(&mut mws, placements);
        (0.0, rate, mws.cache_stats())
    });
    let (_, jsq_rate, ()) = best_of(3, || {
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, Some(2));
        (0.0, drive_placement(&mut jsq, placements), ())
    });
    (mws_rate, jsq_rate, mws_cache)
}

/// Hash-ring joins per second at paper scale: every timed join lands on a
/// ring of exactly [`SHARDED_REPLAY_INVOKERS`] members × 64 vnodes (the
/// leave that undoes it is not timed).
fn bench_ring_joins(joins: u32) -> f64 {
    let members = SHARDED_REPLAY_INVOKERS as u32;
    let mut ring = HashRing::new();
    for i in 0..members {
        ring.add(InvokerId(i));
    }
    let newcomer = InvokerId(members);
    let mut busy = Duration::ZERO;
    for _ in 0..joins {
        let start = Instant::now();
        black_box(ring.add(newcomer));
        busy += start.elapsed();
        ring.remove(newcomer);
    }
    f64::from(joins) / busy.as_secs_f64()
}

/// Drives a PS queue at steady `concurrency`: every completion is
/// immediately replaced by a fresh job, with a capacity resize every 64
/// steps to exercise the harvest path. Shared between the virtual-time
/// queue and the reference via a macro because the two types are
/// intentionally distinct.
macro_rules! ps_driver {
    ($name:ident, $ps:ty, $job:path) => {
        fn $name(concurrency: usize, completions: u64) -> f64 {
            let base_cap = (concurrency as f64 / 2.0).max(1.0);
            let mut ps = <$ps>::new(base_cap);
            for i in 0..concurrency as u64 {
                ps.add($job(i), 1.0 + (i % 997) as f64 * 0.003, 1.0);
            }
            let mut next_id = concurrency as u64;
            let mut done = 0u64;
            let mut steps = 0u64;
            let start = Instant::now();
            while done < completions {
                let Some((at, _)) = ps.next_completion() else {
                    break;
                };
                ps.advance(at);
                let finished = ps.take_completed(1e-5);
                done += finished.len() as u64;
                for _ in finished {
                    ps.add($job(next_id), 1.0 + (next_id % 997) as f64 * 0.003, 1.0);
                    next_id += 1;
                }
                steps += 1;
                if steps % 64 == 0 {
                    let scale = 0.5 + (steps / 64 % 4) as f64 * 0.25;
                    ps.set_capacity(base_cap * scale);
                }
            }
            done as f64 / start.elapsed().as_secs_f64()
        }
    };
}

ps_driver!(drive_new, hrv_sim::ps::PsQueue, hrv_sim::ps::JobId);
ps_driver!(
    drive_reference,
    hrv_sim::ps_reference::PsQueue,
    hrv_sim::ps_reference::JobId
);

/// One row of the PS comparison.
struct PsRow {
    concurrency: usize,
    completions: u64,
    new_per_sec: f64,
    reference_per_sec: f64,
}

fn bench_ps() -> Vec<PsRow> {
    [(10, 50_000), (100, 20_000), (1_000, 5_000), (10_000, 2_000)]
        .into_iter()
        .map(|(concurrency, completions)| PsRow {
            concurrency,
            completions,
            new_per_sec: drive_new(concurrency, completions),
            reference_per_sec: drive_reference(concurrency, completions),
        })
        .collect()
}

/// Short end-to-end replay: 10 minutes of the Section 7.6 Harvest
/// cluster under MWS, with lifecycle telemetry off or on (the same
/// simulation either way — `Off` is the byte-identity contract, so only
/// wall time may differ).
fn bench_replay(telemetry: TelemetryConfig) -> (f64, u64, u64) {
    let h = SimDuration::from_mins(10);
    let seeds = SeedFactory::new(76);
    let trace = replay::replay_trace(h, &seeds);
    let sim = Simulation::new(
        replay::cluster("Harvest", h, &seeds),
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig {
            telemetry,
            ..PlatformConfig::default()
        },
        seeds.seed_for("perfsmoke"),
    );
    let start = Instant::now();
    let out = sim.run(h + SimDuration::from_mins(2));
    let secs = start.elapsed().as_secs_f64();
    (
        secs,
        out.run.events,
        out.collector.aggregate(SimTime::ZERO).completed,
    )
}

/// RSS growth allowed over the scale drain. Generous relative to the
/// O(apps) + O(bins) working set (~40 MiB for 20 809 apps) but far below
/// what any O(invocations) leak would cost (10⁸ records ≈ 7 GiB).
const SCALE_RSS_MARGIN_MB: f64 = 256.0;

/// Parses `PERFSMOKE_SCALE_INVOCATIONS`, exiting with a usage error on
/// garbage. Called first thing in `main` so a typo fails before minutes
/// of benches run.
fn scale_target() -> u64 {
    match std::env::var("PERFSMOKE_SCALE_INVOCATIONS") {
        Ok(s) => match s.replace('_', "").parse::<u64>() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("perfsmoke: invalid PERFSMOKE_SCALE_INVOCATIONS {s:?}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => 100_000_000,
    }
}

fn bench_scale(target: u64) -> (StreamScaleReport, PlatformScaleReport) {
    let cfg = StreamScaleConfig::paper_flarge_full(target);
    eprintln!(
        "perfsmoke: scale drain — F_large ({} apps, {:.0} req/s), {} invocations...",
        cfg.n_apps, cfg.total_rps, cfg.target_invocations
    );
    let gen = run_stream_scale(&cfg);
    assert_eq!(
        gen.invocations, cfg.target_invocations,
        "stream ran dry before the target"
    );
    if let Some(growth) = gen.rss_growth_mb() {
        assert!(
            growth <= SCALE_RSS_MARGIN_MB,
            "scale drain RSS grew {growth:.0} MiB (> {SCALE_RSS_MARGIN_MB} MiB): \
             memory is no longer independent of invocation count"
        );
    }
    eprintln!("perfsmoke: scale platform — streaming F_large replay on 480 CPUs (best of 5)...");
    let (_, _, plat) = best_of(5, || {
        let p = run_platform_scale(200, 4.0, SimDuration::from_mins(30));
        if let Some(growth) = p.rss_growth_mb {
            assert!(
                growth <= SCALE_RSS_MARGIN_MB,
                "streaming platform run RSS grew {growth:.0} MiB (> {SCALE_RSS_MARGIN_MB} MiB)"
            );
        }
        (p.wall_secs, p.events_per_sec, p)
    });
    (gen, plat)
}

/// One measured shard count of the sharded replay.
struct ShardRow {
    shards: u32,
    wall_secs: f64,
    events_per_sec: f64,
    placements_per_sec: f64,
}

/// One controller replica's occupancy (shard-count-invariant, so reported
/// once for the whole probe).
struct OccRow {
    replica: u32,
    placements: u64,
    envelopes: u64,
}

/// How many invokers the paper-scale sharded replay deploys. At the hash
/// ring's default 64 vnodes per member this is 102 400 ring members —
/// past the issue's 100 k floor.
const SHARDED_REPLAY_INVOKERS: u64 = 1_600;

/// The S = 1 row before ring joins became one pass over the ring (commit
/// a664a08: 64 sorted inserts per join, 6 400 joins per run), kept in the
/// JSON beside the current row as the before/after of that fix:
/// `(wall_secs, events_per_sec)` re-measured on the 2-core box the
/// committed file comes from, and the rate the 1-core file of that
/// commit recorded.
const SHARDED_S1_BEFORE_ONE_PASS_JOINS: (f64, f64) = (6.716, 543_748.0);
const SHARDED_S1_BEFORE_ONE_PASS_JOINS_1CORE: f64 = 466_697.0;

/// The `replay` row and the sharded S = 1 row at commit 915ff49, before
/// envelopes moved into the timer wheel (pending heap, eager injection,
/// nested round loop) and `cascade` learned to jump:
/// `(wall_secs, events_per_sec)`, the best of five runs on the same
/// 2-core box, in the same session, as the rows they sit beside as
/// `before` (that box's speed drifts up to 2× between runs, so only best
/// against best says anything).
const REPLAY_BEFORE_ENVELOPE_LANE: (f64, f64) = (0.019, 4_403_115.0);
const SHARDED_S1_BEFORE_ENVELOPE_LANE: (f64, f64) = (3.884, 940_156.0);

/// A row's `before` field: the same probe at 915ff49.
fn before_envelope_lane((wall_secs, events_per_sec): (f64, f64)) -> String {
    format!(
        "\"before\": {{ \"commit\": \"915ff49\", \"wall_secs\": {wall_secs:.3}, \
         \"events_per_sec\": {events_per_sec:.0} }}"
    )
}

/// Paper-scale multi-core sharded replay: a 1 600-invoker harvest fleet
/// (102 400 hash-ring members at 64 vnodes each) whose CPU allocations
/// wobble every 100 ms, fed the full `F_large` offered volume
/// (910 M invocations/day ≈ 10.5 k req/s across 20 809 apps) for one
/// simulated minute, with relaxed messaging latencies — 50 ms bus hop,
/// 5 s pings — so the conservative lookahead window is wide enough for
/// shards to batch useful work between barriers. The controller runs as
/// four partitioned replicas (each owning a quarter of the function
/// space and consuming its own arrivals directly on its home shard),
/// with live migration and fleet-wide utilization sampling enabled — the
/// two features that used to pin these runs to one shard; one VM in
/// fifty is evicted mid-run so migration does real work inside the
/// measured window. Runs the identical simulation at 1, 2 and 4 shards
/// (byte-identity is asserted via total event counts and per-replica
/// occupancy) and reports event and placement rates per shard count,
/// plus the replica-occupancy rows with the max/min placement ratio
/// gated at ≤ 2.0.
fn bench_sharded_replay() -> (u64, Vec<ShardRow>, Vec<OccRow>) {
    use harvest_faas::hrv_trace::harvest::{CpuChange, VmEnd, VmTrace};
    let horizon = SimDuration::from_secs(60);
    let tail = horizon + SimDuration::from_secs(60);
    let mut cfg = PlatformConfig {
        bus_latency: SimDuration::from_millis(50),
        ping_interval: SimDuration::from_secs(5),
        ..PlatformConfig::default()
    };
    cfg.sharding.replicas = 4;
    cfg.migration.enabled = true;
    cfg.sample_interval = SimDuration::from_secs(5);
    let seeds = SeedFactory::new(76);
    let spec = WorkloadSpec::paper_flarge_scaled(20_809).scaled(20_809, 910_000_000.0 / 86_400.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arrivals"));
    // Each invoker's allocation wobbles 4↔2↔6 CPUs every 100 ms with
    // a per-invoker phase offset, so harvest churn is dense and
    // unsynchronized — like the paper's Figure 2 at fleet scale.
    let vms: Vec<VmTrace> = (0..SHARDED_REPLAY_INVOKERS)
        .map(|i| {
            let phase = i * 7_000 % 100_000;
            let changes = (1..tail.as_micros() / 100_000)
                .map(|step| CpuChange {
                    at: SimTime::from_micros(step * 100_000 + phase),
                    cpus: [4, 2, 6, 4][(step % 4) as usize],
                })
                .collect();
            let (end, ended) = if i % 50 == 17 {
                (SimTime::ZERO + SimDuration::from_secs(40), VmEnd::Evicted)
            } else {
                (SimTime::ZERO + tail, VmEnd::Censored)
            };
            VmTrace {
                deploy: SimTime::ZERO,
                end,
                ended,
                base_cpus: 2,
                max_cpus: 6,
                initial_cpus: 4,
                memory_mb: 32 * 1024,
                cpu_changes: changes,
            }
        })
        .collect();
    let cluster = ClusterSpec::from_traces(vms);
    let mut rows = Vec::new();
    let mut events: Option<u64> = None;
    let mut occupancy: Option<Vec<OccRow>> = None;
    for shards in [1u32, 2, 4] {
        let (_, rate, (secs, ev, occ)) = best_of(3, || {
            let sim = ShardedSimulation::new(
                cluster.clone(),
                trace.clone(),
                PolicyKind::Mws,
                cfg.clone(),
                76,
                shards,
            );
            let start = Instant::now();
            let out = sim.run(tail);
            let secs = start.elapsed().as_secs_f64();
            let occ: Vec<OccRow> = out
                .collector
                .replica_occupancy
                .iter()
                .map(|r| OccRow {
                    replica: r.replica,
                    placements: r.placements,
                    envelopes: r.envelopes,
                })
                .collect();
            assert!(
                out.collector.migrations > 0,
                "probe evictions produced no migrations — the migration \
                 path idled through the measured window"
            );
            (
                secs,
                out.run.events as f64 / secs,
                (secs, out.run.events, occ),
            )
        });
        match events {
            None => events = Some(ev),
            Some(e) => assert_eq!(
                e, ev,
                "shard count changed the event count: the byte-identity contract broke"
            ),
        }
        let total_placements: u64 = occ.iter().map(|o| o.placements).sum();
        match &occupancy {
            None => occupancy = Some(occ),
            Some(prev) => {
                let same = prev.len() == occ.len()
                    && prev.iter().zip(&occ).all(|(a, b)| {
                        a.replica == b.replica
                            && a.placements == b.placements
                            && a.envelopes == b.envelopes
                    });
                assert!(
                    same,
                    "shard count changed replica occupancy: the byte-identity contract broke"
                );
            }
        }
        rows.push(ShardRow {
            shards,
            wall_secs: secs,
            events_per_sec: rate,
            placements_per_sec: total_placements as f64 / secs,
        });
    }
    let occupancy = occupancy.expect("at least one shard count ran");
    let max_p = occupancy.iter().map(|o| o.placements).max().unwrap_or(0);
    let min_p = occupancy
        .iter()
        .map(|o| o.placements)
        .min()
        .unwrap_or(0)
        .max(1);
    assert!(
        max_p as f64 / min_p as f64 <= 2.0,
        "partitioned placement is skewed: replica placements {max_p} vs {min_p} \
         (max/min > 2.0)"
    );
    (
        events.expect("at least one shard count ran"),
        rows,
        occupancy,
    )
}

/// First line of `program args...`'s stdout, or "unknown" when it cannot
/// be run (no toolchain or checkout next to a copied binary).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `machine` object of the report: what the wall-clock rows below
/// were measured on, so two files can be told apart before their rates
/// are compared.
fn machine_json(cores: usize) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let quoted = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "  \"machine\": {{ \"nproc\": {cores}, \"cpu_model\": \"{}\", \
         \"rustc\": \"{}\", \"git_commit\": \"{}\" }}",
        quoted(&cpu_model),
        quoted(&first_line_of("rustc", &["--version"])),
        quoted(&first_line_of("git", &["describe", "--always", "--dirty"])),
    )
}

fn main() {
    let scale_invocations = scale_target();
    let calendar_events = 1_000_000usize;
    eprintln!("perfsmoke: calendar churn ({calendar_events} pops, best of 3)...");
    let (cal_secs, cal_rate, ()) = best_of(3, || {
        let (s, r) = bench_calendar(calendar_events);
        (s, r, ())
    });

    let churn_ops = 2_000_000usize;
    eprintln!("perfsmoke: calendar cancel-heavy churn ({churn_ops} ops, best of 3)...");
    let (churn_secs, churn_rate, churn_max_tombstones) =
        best_of(3, || bench_calendar_churn(churn_ops));

    eprintln!("perfsmoke: ps queue new vs reference...");
    let ps_rows = bench_ps();

    let placements = 200_000u64;
    eprintln!("perfsmoke: placement loop ({placements} placements per policy, best of 3)...");
    let (mws_rate, jsq_rate, mws_cache) = bench_placement(placements);
    let ring_joins = 2_000u32;
    eprintln!(
        "perfsmoke: ring joins at {SHARDED_REPLAY_INVOKERS} members \
         ({ring_joins} joins, best of 3)..."
    );
    let (_, ring_join_rate, ()) = best_of(3, || (0.0, bench_ring_joins(ring_joins), ()));

    let policy_decisions = 1_000_000u64;
    eprintln!(
        "perfsmoke: hybrid cold-start policy loop ({policy_decisions} decisions, best of 3)..."
    );
    let (_, policy_rate, ()) = best_of(3, || (0.0, bench_coldstart_policy(policy_decisions), ()));

    eprintln!("perfsmoke: 10-minute MWS replay...");
    let (replay_secs, replay_events, replay_completed) = bench_replay(TelemetryConfig::Off);

    eprintln!("perfsmoke: telemetry overhead (replay off vs on, best of 3)...");
    let (_, tel_off_rate, ()) = best_of(3, || {
        let (s, ev, _) = bench_replay(TelemetryConfig::Off);
        (s, ev as f64 / s, ())
    });
    let (_, tel_on_rate, ()) = best_of(3, || {
        let (s, ev, _) = bench_replay(TelemetryConfig::on());
        (s, ev as f64 / s, ())
    });
    let telemetry_ratio = tel_on_rate / tel_off_rate;

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "perfsmoke: paper-scale sharded replay at 1/2/4 shards \
         ({cores} cores, 4 controller replicas, best of 3)..."
    );
    let (sharded_events, sharded_rows, occupancy_rows) = bench_sharded_replay();

    let (scale_gen, scale_plat) = bench_scale(scale_invocations);

    let mut ps_json = String::new();
    for (i, r) in ps_rows.iter().enumerate() {
        if i > 0 {
            ps_json.push_str(",\n");
        }
        let speedup = r.new_per_sec / r.reference_per_sec;
        ps_json.push_str(&format!(
            "    {{ \"concurrency\": {}, \"completions\": {}, \
             \"new_completions_per_sec\": {:.0}, \
             \"reference_completions_per_sec\": {:.0}, \
             \"speedup\": {:.2} }}",
            r.concurrency, r.completions, r.new_per_sec, r.reference_per_sec, speedup
        ));
    }
    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.1}"),
        None => "null".to_string(),
    };
    let single_shard_rate = sharded_rows
        .iter()
        .find(|r| r.shards == 1)
        .map(|r| r.events_per_sec)
        .expect("single-shard row always runs");
    let sharded_speedup = sharded_rows
        .iter()
        .filter(|r| r.shards > 1)
        .map(|r| r.events_per_sec / single_shard_rate)
        .fold(0.0f64, f64::max);
    let mut sharded_rows_json = String::new();
    for (i, r) in sharded_rows.iter().enumerate() {
        if i > 0 {
            sharded_rows_json.push_str(",\n");
        }
        let before = if r.shards == 1 {
            format!(
                ", {}",
                before_envelope_lane(SHARDED_S1_BEFORE_ENVELOPE_LANE)
            )
        } else {
            String::new()
        };
        sharded_rows_json.push_str(&format!(
            "      {{ \"shards\": {}, \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \
             \"placements_per_sec\": {:.0}{before} }}",
            r.shards, r.wall_secs, r.events_per_sec, r.placements_per_sec
        ));
    }
    let ring_members = SHARDED_REPLAY_INVOKERS * 64;
    let (before_secs, before_rate) = SHARDED_S1_BEFORE_ONE_PASS_JOINS;
    let sharded_json = format!(
        "  \"sharded_replay\": {{ \"cores\": {cores}, \"horizon_secs\": 120, \
         \"invokers\": {SHARDED_REPLAY_INVOKERS}, \"ring_members\": {ring_members}, \
         \"replicas\": 4, \"offered_rps\": 10532, \
         \"sim_events\": {sharded_events}, \"speedup\": {sharded_speedup:.2}, \
         \"rows\": [\n{sharded_rows_json}\n    ],\n    \
         \"single_shard_before_one_pass_ring_joins\": {{ \"commit\": \"a664a08\", \
         \"wall_secs\": {before_secs:.3}, \"events_per_sec\": {before_rate:.0}, \
         \"events_per_sec_1core_file\": {SHARDED_S1_BEFORE_ONE_PASS_JOINS_1CORE:.0} }} }}",
    );
    let max_placements = occupancy_rows
        .iter()
        .map(|o| o.placements)
        .max()
        .unwrap_or(0);
    let min_placements = occupancy_rows
        .iter()
        .map(|o| o.placements)
        .min()
        .unwrap_or(0)
        .max(1);
    let placement_ratio = max_placements as f64 / min_placements as f64;
    let mut occupancy_rows_json = String::new();
    for (i, o) in occupancy_rows.iter().enumerate() {
        if i > 0 {
            occupancy_rows_json.push_str(",\n");
        }
        occupancy_rows_json.push_str(&format!(
            "      {{ \"replica\": {}, \"placements\": {}, \"envelopes\": {} }}",
            o.replica, o.placements, o.envelopes
        ));
    }
    let occupancy_json = format!(
        "  \"controller_occupancy\": {{ \"replicas\": {}, \
         \"max_min_placement_ratio\": {placement_ratio:.3}, \
         \"rows\": [\n{occupancy_rows_json}\n    ] }}",
        occupancy_rows.len(),
    );
    let scale_json = format!(
        "  \"scale\": {{\n    \"generator\": {{ \"n_apps\": 20809, \
         \"offered_rps\": 10532, \"invocations\": {}, \"sim_secs\": {:.0}, \
         \"wall_secs\": {:.3}, \"invocations_per_sec\": {:.0}, \
         \"rss_before_mb\": {}, \"rss_peak_mb\": {}, \"rss_growth_mb\": {}, \
         \"p99_duration_secs\": {} }},\n    \"platform\": {{ \
         \"horizon_secs\": {:.0}, \"arrivals\": {}, \"completed\": {}, \
         \"sim_events\": {}, \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \
         \"rss_growth_mb\": {} }}\n  }}",
        scale_gen.invocations,
        scale_gen.sim_secs,
        scale_gen.wall_secs,
        scale_gen.invocations_per_sec,
        fmt_opt(scale_gen.rss_before_mb),
        fmt_opt(scale_gen.rss_peak_mb),
        fmt_opt(scale_gen.rss_growth_mb()),
        fmt_opt(scale_gen.p99_secs),
        scale_plat.horizon_secs,
        scale_plat.arrivals,
        scale_plat.completed,
        scale_plat.sim_events,
        scale_plat.wall_secs,
        scale_plat.events_per_sec,
        fmt_opt(scale_plat.rss_growth_mb),
    );
    let replay_before = before_envelope_lane(REPLAY_BEFORE_ENVELOPE_LANE);
    let machine = machine_json(cores);
    let json = format!(
        "{{\n{machine},\n  \"calendar\": {{ \"pops\": {calendar_events}, \"wall_secs\": {cal_secs:.3}, \
         \"pops_per_sec\": {cal_rate:.0} }},\n  \"calendar_churn\": {{ \"ops\": {churn_ops}, \
         \"wall_secs\": {churn_secs:.3}, \"ops_per_sec\": {churn_rate:.0}, \
         \"max_tombstones\": {churn_max_tombstones} }},\n  \"ps\": [\n{ps_json}\n  ],\n  \
         \"placement\": {{ \"placements\": {placements}, \
         \"mws_placements_per_sec\": {mws_rate:.0}, \
         \"mws_cache_hits\": {}, \
         \"mws_cache_misses\": {}, \
         \"mws_cache_hit_rate\": {:.4}, \
         \"jsq_sampled_placements_per_sec\": {jsq_rate:.0}, \
         \"ring_joins\": {ring_joins}, \"ring_join_members\": {ring_members}, \
         \"ring_joins_per_sec\": {ring_join_rate:.0} }},\n  \
         \"coldstart_policy\": {{ \"decisions\": {policy_decisions}, \
         \"decisions_per_sec\": {policy_rate:.0} }},\n  \
         \"replay\": {{ \"horizon_secs\": 600, \"wall_secs\": {replay_secs:.3}, \
         \"sim_events\": {replay_events}, \"events_per_sec\": {:.0}, \
         \"completed_invocations\": {replay_completed}, {replay_before} }},\n  \
         \"telemetry_overhead\": {{ \"off_events_per_sec\": {tel_off_rate:.0}, \
         \"on_events_per_sec\": {tel_on_rate:.0}, \
         \"on_over_off\": {telemetry_ratio:.3} }},\n{sharded_json},\n{occupancy_json},\n{scale_json}\n}}\n",
        mws_cache.hits,
        mws_cache.misses,
        mws_cache.hit_rate(),
        replay_events as f64 / replay_secs
    );

    // The binary lives two levels below the workspace root.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perfsmoke.json");
    if let Err(e) = std::fs::write(out_path, &json) {
        // Still print the report so the run's numbers aren't lost, but
        // exit nonzero: CI must notice the missing artifact.
        eprintln!("perfsmoke: cannot write {out_path}: {e}");
        println!("{json}");
        std::process::exit(1);
    }
    println!("{json}");
    for r in &ps_rows {
        let speedup = r.new_per_sec / r.reference_per_sec;
        eprintln!(
            "ps @ {:>6} jobs: new {:>12.0}/s  reference {:>12.0}/s  ({speedup:.1}x)",
            r.concurrency, r.new_per_sec, r.reference_per_sec
        );
    }
    for r in &sharded_rows {
        eprintln!(
            "sharded replay @ {} shards: {:>12.0} events/s ({:.2}s wall)",
            r.shards, r.events_per_sec, r.wall_secs
        );
    }
    eprintln!("sharded replay speedup on {cores} cores: {sharded_speedup:.2}x");
    for o in &occupancy_rows {
        eprintln!(
            "controller replica {}: {:>8} placements, {:>8} envelopes",
            o.replica, o.placements, o.envelopes
        );
    }
    eprintln!("controller occupancy max/min placement ratio: {placement_ratio:.3}");
    eprintln!(
        "telemetry overhead: off {tel_off_rate:.0} ev/s, on {tel_on_rate:.0} ev/s \
         (on/off = {telemetry_ratio:.3})"
    );
    eprintln!(
        "scale: {} invocations in {:.1}s ({:.1}M/s), RSS growth {} MiB",
        scale_gen.invocations,
        scale_gen.wall_secs,
        scale_gen.invocations_per_sec / 1e6,
        fmt_opt(scale_gen.rss_growth_mb()),
    );
}
