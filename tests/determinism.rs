//! Determinism across the whole stack: identical seeds produce identical
//! traces, placements, and metrics; different seeds do not.

use harvest_faas::experiment::{run_point, SweepConfig};
use harvest_faas::hrv_fault::{FaultKind, FaultPlan, FaultSpec};
use harvest_faas::hrv_lb::mws::Mws;
use harvest_faas::hrv_lb::policy::{LoadBalancer, PolicyKind};
use harvest_faas::hrv_lb::view::LoadWeights;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::mailbox::{ShardPlan, BLOCK};
use harvest_faas::hrv_platform::tel::{CounterId, SpanKind};
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_platform::TelemetryConfig;
use harvest_faas::hrv_policy::{ColdStartConfig, HybridHistogramConfig};
use harvest_faas::hrv_trace::faas::{Invocation, Workload, WorkloadSpec};
use harvest_faas::hrv_trace::harvest::{FleetConfig, FleetTrace, Storm};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

fn full_run_with(seed: u64, policy: Box<dyn LoadBalancer>) -> SimOutput {
    let horizon = SimDuration::from_mins(20);
    let config = FleetConfig {
        horizon,
        initial_population: 8,
        final_population: 10,
        forced_storms: vec![],
        ..FleetConfig::default()
    };
    let fleet = FleetTrace::generate(&config, &SeedFactory::new(seed));
    let seeds = SeedFactory::new(seed).child("wl");
    let spec = WorkloadSpec::paper_fsmall().scaled(40, 5.0);
    let workload = Workload::generate(&spec, &seeds);
    let trace = workload.invocations(horizon, &seeds);
    Simulation::new(
        ClusterSpec::from_traces(fleet.vms),
        trace,
        policy,
        PlatformConfig::default(),
        seed,
    )
    .run(horizon)
}

fn full_run(seed: u64) -> SimOutput {
    full_run_with(seed, PolicyKind::Mws.build())
}

#[test]
fn same_seed_identical_everything() {
    let a = full_run(99);
    let b = full_run(99);
    assert_eq!(a.collector.records, b.collector.records);
    assert_eq!(a.collector.arrivals, b.collector.arrivals);
    assert_eq!(a.cold_starts, b.cold_starts);
    assert_eq!(a.warm_starts, b.warm_starts);
    assert_eq!(a.run.events, b.run.events);
}

#[test]
fn mws_covering_cache_keeps_records_byte_identical() {
    // A full simulated run — VM churn, eviction warnings, cold starts —
    // once with the covering-set cache (the default) and once through
    // the uncached reference walk. Same seed, so the record streams must
    // be byte-identical: the cache may only change placement *cost*,
    // never placement *choice*.
    let cached = full_run_with(42, Box::new(Mws::new(LoadWeights::default(), 1)));
    let reference = {
        let mut mws = Mws::new(LoadWeights::default(), 1);
        mws.set_caching(false);
        full_run_with(42, Box::new(mws))
    };
    assert_eq!(cached.collector.records, reference.collector.records);
    assert_eq!(cached.collector.arrivals, reference.collector.arrivals);
    assert_eq!(cached.cold_starts, reference.cold_starts);
    assert_eq!(cached.warm_starts, reference.warm_starts);
    assert_eq!(cached.run.events, reference.run.events);
}

#[test]
fn different_seed_differs() {
    let a = full_run(99);
    let b = full_run(100);
    // Different seeds change the workload and the fleet, so something
    // observable must differ.
    assert_ne!(
        (
            a.collector.arrivals,
            a.cold_starts,
            a.collector.records.len()
        ),
        (
            b.collector.arrivals,
            b.cold_starts,
            b.collector.records.len()
        ),
    );
}

#[test]
fn sweep_points_are_reproducible() {
    let cfg = SweepConfig {
        n_functions: 30,
        duration: SimDuration::from_mins(3),
        warmup: SimDuration::from_secs(30),
        ..SweepConfig::quick()
    };
    let cluster = ClusterSpec::regular(3, 8, 16 * 1024, SimDuration::from_mins(10));
    let a = run_point(&cluster, PolicyKind::Jsq, 3.0, &cfg);
    let b = run_point(&cluster, PolicyKind::Jsq, 3.0, &cfg);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.p99, b.p99);
    assert_eq!(a.cold_rate, b.cold_rate);
}

/// A churning fleet (VM joins, CPU wobble, evictions) plus an F_small
/// workload, deterministically derived from `seed` — the input to every
/// sharded-invariance check below.
fn sharded_inputs(seed: u64) -> (ClusterSpec, Vec<Invocation>, SimDuration) {
    let horizon = SimDuration::from_mins(8);
    let config = FleetConfig {
        horizon,
        initial_population: 8,
        final_population: 10,
        forced_storms: vec![],
        ..FleetConfig::default()
    };
    let fleet = FleetTrace::generate(&config, &SeedFactory::new(seed));
    let seeds = SeedFactory::new(seed).child("wl");
    let spec = WorkloadSpec::paper_fsmall().scaled(40, 5.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
    (ClusterSpec::from_traces(fleet.vms), trace, horizon)
}

fn sharded_run(seed: u64, shards: u32) -> SimOutput {
    let (spec, trace, horizon) = sharded_inputs(seed);
    Simulation::sharded(
        spec,
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig::default(),
        seed,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

/// The recovery and prewarm counts a run reports: retries,
/// re-dispatches, quarantines, quarantined microseconds, prewarm spawns,
/// hits and waste, and idle memory-time (the bits of its MiB·s reading).
fn reliability_counts(o: &SimOutput) -> [u64; 8] {
    let (c, s) = (&o.collector, &o.collector.streaming);
    [
        s.retries,
        s.redispatches,
        c.quarantines,
        s.quarantine_micros,
        s.prewarm_spawns,
        s.prewarm_hits,
        s.wasted_prewarms,
        s.idle_mib_secs().to_bits(),
    ]
}

/// The byte-identity contract: records, utilization samples, event
/// counts, start counters, the recovery and prewarm counts, idle
/// memory-time and the counter registry must not depend on how the
/// cluster is partitioned.
fn assert_shard_invariant(a: &SimOutput, b: &SimOutput, label: &str) {
    let same = a.run.events == b.run.events
        && a.collector.records == b.collector.records
        && a.collector.samples == b.collector.samples
        && a.collector.arrivals == b.collector.arrivals
        && a.cold_starts == b.cold_starts
        && a.warm_starts == b.warm_starts
        && a.collector.dropped_completions == b.collector.dropped_completions
        && reliability_counts(a) == reliability_counts(b)
        && a.collector.counters == b.collector.counters;
    if !same {
        // Post-mortem before the asserts below name the field: dump both
        // runs' flight recorders (CI uploads target/flight_recorder/ on
        // failure; empty dumps carry a rerun-with-telemetry hint).
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        harvest_faas::hrv_platform::tel::dump::write_default(
            &format!("determinism-{slug}-baseline"),
            &a.recorder,
        );
        harvest_faas::hrv_platform::tel::dump::write_default(
            &format!("determinism-{slug}-sharded"),
            &b.recorder,
        );
    }
    assert_eq!(a.run.events, b.run.events, "event counts diverged: {label}");
    assert_eq!(
        a.collector.records, b.collector.records,
        "records diverged: {label}"
    );
    assert_eq!(
        a.collector.samples, b.collector.samples,
        "utilization samples diverged: {label}"
    );
    assert_eq!(a.collector.arrivals, b.collector.arrivals, "{label}");
    assert_eq!(a.cold_starts, b.cold_starts, "cold starts: {label}");
    assert_eq!(a.warm_starts, b.warm_starts, "warm starts: {label}");
    assert_eq!(
        a.collector.dropped_completions, b.collector.dropped_completions,
        "{label}"
    );
    assert_eq!(
        reliability_counts(a),
        reliability_counts(b),
        "retries, redispatches, quarantines, quarantine µs, prewarm \
         spawns, hits, waste, idle memory-time bits: {label}"
    );
    assert_eq!(
        a.collector.counters, b.collector.counters,
        "counters: {label}"
    );
}

#[test]
fn shard_count_never_changes_results() {
    let baseline = sharded_run(17, 1);
    assert!(
        baseline.collector.records.len() > 500,
        "only {} records — the invariance check degenerated",
        baseline.collector.records.len()
    );
    let skipped = baseline
        .collector
        .counters
        .get(CounterId::PingReportsSkipped);
    assert!(
        skipped > 0,
        "no ping skipped its report — the counter check degenerated"
    );
    for shards in [2u32, 4, 8] {
        let sharded = sharded_run(17, shards);
        assert_shard_invariant(&baseline, &sharded, &format!("S=1 vs S={shards}"));
    }
}

#[test]
fn one_shard_matches_plain_simulation() {
    // `Simulation::new` is the one-shard case of `Simulation::sharded`, so
    // the two must agree byte for byte.
    let (spec, trace, horizon) = sharded_inputs(23);
    let plain = Simulation::new(
        spec,
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig::default(),
        23,
    )
    .run(horizon);
    let sharded = sharded_run(23, 1);
    assert_shard_invariant(&plain, &sharded, "Simulation vs S=1");
}

/// A small, fast run for property sweeps: static 5-VM cluster, 2-minute
/// horizon — cheap enough to sample many (seed, shards) points.
fn quick_sharded_run(seed: u64, shards: u32) -> SimOutput {
    let horizon = SimDuration::from_mins(2);
    let seeds = SeedFactory::new(seed);
    let spec = WorkloadSpec::paper_fsmall().scaled(20, 3.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"));
    Simulation::sharded(
        ClusterSpec::regular(5, 8, 16 * 1024, horizon),
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig::default(),
        seed,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

proptest! {
    /// Any seed, any shard split: same records, same event counts.
    #[test]
    fn prop_shard_split_is_invisible(seed in 0u64..1_000, shards in 2u32..=8) {
        let baseline = quick_sharded_run(seed, 1);
        let sharded = quick_sharded_run(seed, shards);
        assert_shard_invariant(&baseline, &sharded, &format!("seed={seed} S={shards}"));
    }
}

#[test]
fn sharded_chaos_replay_is_identical() {
    // A compiled fault plan (crashes, stragglers, drops, eviction-warning
    // rewrites) replays identically under sharding: faults are seeded to
    // the shard that owns the target entity, so the plan's effect cannot
    // depend on the partition.
    let seed = 31;
    let horizon = SimDuration::from_secs(240);
    let seeds = SeedFactory::new(seed).child("faults");
    let wl_seeds = SeedFactory::new(seed);
    let spec = WorkloadSpec::paper_fsmall().scaled(15, 2.0);
    let trace = Workload::generate(&spec, &wl_seeds)
        .invocations(SimDuration::from_secs(200), &wl_seeds.child("arr"));
    let mut cfg = PlatformConfig::default();
    cfg.recovery.enabled = true;
    let plan = FaultSpec::chaos(1.5).compile(6, horizon, &seeds);
    let run = |shards: u32| {
        Simulation::sharded(
            ClusterSpec::regular(6, 4, 16 * 1024, horizon),
            trace.clone(),
            PolicyKind::Mws.build(),
            cfg.clone(),
            seed,
            plan.clone(),
            shards,
        )
        .run(horizon)
    };
    let baseline = run(1);
    assert!(
        baseline.collector.streaming.lost
            + baseline.collector.streaming.eviction_failures
            + baseline.collector.vm_crashes
            > 0,
        "chaos plan produced no faults — smoke degenerated"
    );
    for shards in [2u32, 4] {
        let sharded = run(shards);
        assert_shard_invariant(&baseline, &sharded, &format!("chaos S={shards}"));
    }
}

/// FNV-1a over the records half of a run's observable output — records,
/// arrivals, cold and warm starts: the compact form of the byte-identity
/// contract. The event count is the other half, pinned on its own, so a
/// change that moves only messages re-pins the count with its reason and
/// leaves this hash alone.
fn records_fingerprint(o: &SimOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let text = format!(
        "{:?}|{}|{}|{}",
        o.collector.records, o.collector.arrivals, o.cold_starts, o.warm_starts
    );
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden records halves, unchanged since pre-policy main (commit
/// 6622395, before the cold-start policy subsystem existed). The default
/// `FixedKeepAlive` policy must reproduce them bit for bit: adding the
/// policy layer may not move a single record for the default
/// configuration.
const PREPOLICY_FULL_RUN_99: u64 = 0xcb58b1c2d1502f52;
const PREPOLICY_SHARDED_17: u64 = 0x45d13bbf09bb71ea;

/// Event counts of the same two runs. They were 44 103 and 17 169 until
/// invokers stopped sending the health report whose snapshot equals their
/// previous one: every record stayed put, the skipped `PingReport`s left.
/// They were 37 620 and 14 613 until the invokers of a block whose pings
/// fall at the same instant started pinging from one `Ping` event (a
/// train) instead of one each: every record stayed put again, the
/// members' own `Ping` events left. They were 29 227 and 11 260 until a
/// train's firing started sending its members' reports to each replica
/// as one `PingReport` instead of one per member: every record stayed put
/// once more, the per-member report messages left.
const FULL_RUN_99_EVENTS: u64 = 27_276;
const SHARDED_17_EVENTS: u64 = 10_439;

#[test]
fn default_policy_is_byte_identical_to_prepolicy_main() {
    let full = full_run(99);
    assert_eq!(
        records_fingerprint(&full),
        PREPOLICY_FULL_RUN_99,
        "default FixedKeepAlive diverged from the pre-policy records"
    );
    assert_eq!(full.run.events, FULL_RUN_99_EVENTS, "full_run(99) events");
    for shards in [1u32, 2, 4, 8] {
        let sharded = sharded_run(17, shards);
        assert_eq!(
            records_fingerprint(&sharded),
            PREPOLICY_SHARDED_17,
            "default FixedKeepAlive diverged from the pre-policy records at S={shards}"
        );
        assert_eq!(
            sharded.run.events, SHARDED_17_EVENTS,
            "sharded_run(17) events at S={shards}"
        );
    }
}

fn sharded_run_with_policy(seed: u64, shards: u32, coldstart: ColdStartConfig) -> SimOutput {
    let (spec, trace, horizon) = sharded_inputs(seed);
    let platform = PlatformConfig {
        coldstart,
        ..PlatformConfig::default()
    };
    Simulation::sharded(
        spec,
        trace,
        PolicyKind::Mws.build(),
        platform,
        seed,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

/// Records fingerprints of `sharded_run_with_policy(17, 1, _)` for each
/// policy of [`ColdStartConfig::all`] (fixed, null, default hybrid, warm
/// pool) and then the short-bin hybrid below. The default hybrid never
/// leaves the fixed keep-alive in an 8-minute run, so it reads the fixed
/// policy's records; the short-bin hybrid pins real histogram decisions.
const POLICY_RECORDS_17: [u64; 5] = [
    PREPOLICY_SHARDED_17,
    0x0a93_8b2f_6484_b60d,
    PREPOLICY_SHARDED_17,
    0x5259_356a_96f3_35d4,
    0xa727_4821_77ba_9ffa,
];

#[test]
fn every_coldstart_policy_is_shard_invariant() {
    // The determinism contract holds for every policy, not just the
    // default: prewarm orders travel as self-addressed envelopes bound
    // by the bus-latency lookahead, so the partition cannot reorder
    // them. The default policies never prewarm in an 8-minute run (the
    // hybrid histogram needs eight idle times per app in one-minute
    // bins), so a short-bin hybrid rides along to make the prewarm
    // counts non-zero: at seed 17 it spawns 30 prewarms, 18 of them hit.
    let short_bins = ColdStartConfig::Hybrid(HybridHistogramConfig {
        bin_width: SimDuration::from_secs(5),
        min_samples: 4,
        prewarm_window: SimDuration::from_secs(1),
        ..HybridHistogramConfig::default()
    });
    let mut spawned = 0;
    let policies = ColdStartConfig::all().into_iter().chain([short_bins]);
    for (coldstart, pinned) in policies.zip(POLICY_RECORDS_17) {
        let baseline = sharded_run_with_policy(17, 1, coldstart);
        assert_eq!(
            records_fingerprint(&baseline),
            pinned,
            "{coldstart:?} decided differently at S=1"
        );
        assert!(
            baseline.collector.records.len() > 500,
            "only {} records under {:?} — the check degenerated",
            baseline.collector.records.len(),
            coldstart
        );
        spawned += baseline.collector.streaming.prewarm_spawns;
        for shards in [2u32, 4, 8] {
            let sharded = sharded_run_with_policy(17, shards, coldstart);
            assert_shard_invariant(
                &baseline,
                &sharded,
                &format!("{coldstart:?} S=1 vs S={shards}"),
            );
        }
    }
    // Run teardown must install the fleet-wide cold-start totals, or the
    // prewarm comparisons above pass on zeros.
    assert!(
        spawned > 0,
        "no policy spawned a prewarm — the check degenerated"
    );
}

/// Full-feature sharded-controller run: four controller replicas (each
/// owning a partition of the function space), live migration,
/// utilization sampling, and recovery all enabled — the configuration
/// that used to silently degrade to one shard. The fleet takes two
/// forced eviction storms so the migration path actually fires.
fn sharded_controller_run(seed: u64, shards: u32) -> SimOutput {
    sharded_controller_run_on(seed, shards, (10, 12), (40, 5.0), TelemetryConfig::Off)
}

/// [`sharded_controller_run`] on a fleet growing from `population.0` to
/// `population.1` VMs, under `apps` applications at `rps` in total, with
/// `telemetry`.
fn sharded_controller_run_on(
    seed: u64,
    shards: u32,
    population: (u32, u32),
    (apps, rps): (usize, f64),
    telemetry: TelemetryConfig,
) -> SimOutput {
    let horizon = SimDuration::from_mins(8);
    let config = FleetConfig {
        horizon,
        initial_population: population.0,
        final_population: population.1,
        forced_storms: vec![
            Storm {
                at: SimTime::ZERO + SimDuration::from_mins(3),
                fraction: 0.3,
            },
            Storm {
                at: SimTime::ZERO + SimDuration::from_mins(6),
                fraction: 0.3,
            },
        ],
        // Storms apply at redeploy ticks; the default hourly tick never
        // fires inside an 8-minute horizon.
        redeploy_check_every: SimDuration::from_mins(1),
        ..FleetConfig::default()
    };
    let fleet = FleetTrace::generate(&config, &SeedFactory::new(seed));
    let seeds = SeedFactory::new(seed).child("wl");
    let spec = WorkloadSpec::paper_fsmall().scaled(apps, rps);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
    let mut cfg = PlatformConfig {
        telemetry,
        ..PlatformConfig::default()
    };
    cfg.sharding.replicas = 4;
    cfg.migration.enabled = true;
    cfg.sample_interval = SimDuration::from_secs(5);
    cfg.recovery.enabled = true;
    Simulation::sharded(
        ClusterSpec::from_traces(fleet.vms),
        trace,
        PolicyKind::Mws.build(),
        cfg,
        seed,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

#[test]
fn sharded_controller_is_byte_identical_across_shard_counts() {
    let baseline = sharded_controller_run(17, 1);
    assert!(
        baseline.collector.records.len() > 500,
        "only {} records — the invariance check degenerated",
        baseline.collector.records.len()
    );
    assert!(
        !baseline.collector.samples.is_empty(),
        "sampling produced no series — the shard-aware path was not exercised"
    );
    assert_eq!(
        baseline.collector.replica_occupancy.len(),
        4,
        "expected one occupancy row per controller replica"
    );
    assert!(
        baseline.collector.vm_evictions > 0 && baseline.collector.migrations > 0,
        "storms produced {} evictions / {} migrations — the migration \
         path was not exercised",
        baseline.collector.vm_evictions,
        baseline.collector.migrations
    );
    for shards in [2u32, 4, 8] {
        let sharded = sharded_controller_run(17, shards);
        assert_shard_invariant(&baseline, &sharded, &format!("R=4 S=1 vs S={shards}"));
        assert_eq!(
            baseline.collector.samples, sharded.collector.samples,
            "utilization series diverged at S={shards}"
        );
        assert_eq!(
            baseline.collector.replica_occupancy, sharded.collector.replica_occupancy,
            "replica occupancy diverged at S={shards}"
        );
        assert_eq!(
            baseline.collector.counters, sharded.collector.counters,
            "merged counters diverged at S={shards}"
        );
        assert_eq!(
            baseline.collector.migrations, sharded.collector.migrations,
            "migration counts diverged at S={shards}"
        );
    }
}

/// Invokers shard by block of [`BLOCK`] slots, so the small fleets above
/// put every invoker on shard 0 and only the replicas spread. This run's
/// fleet spans nine blocks, and twice the apps at twice the rate spread
/// the work over them: at every S > 1 completions land on more than one
/// shard, and the storms' migrations move work between invokers on
/// different shards (`MigrateExtract` on one, `MigrateImplant` on
/// another).
#[test]
fn wide_fleet_is_byte_identical_with_invokers_on_every_shard() {
    let population = (8 * BLOCK + 4, 9 * BLOCK - 4);
    let run = |shards| {
        let telemetry = TelemetryConfig::on();
        sharded_controller_run_on(17, shards, population, (80, 10.0), telemetry)
    };
    let baseline = run(1);
    assert!(
        baseline.collector.records.len() > 500 && baseline.collector.migrations > 0,
        "{} records, {} migrations — the invariance check degenerated",
        baseline.collector.records.len(),
        baseline.collector.migrations
    );
    // Where each invocation was first delivered and where it finished, by
    // invoker entity; the recorder is shard-invariant, so one run tells
    // where the work sat at every S.
    let events = baseline.recorder.canonical_events();
    let mut delivered = HashMap::new();
    let mut hops = Vec::new();
    for e in &events {
        match e.kind {
            SpanKind::Delivered => {
                delivered.entry(e.invocation).or_insert(e.entity);
            }
            SpanKind::Completed { .. } => {
                if let Some(&from) = delivered.get(&e.invocation) {
                    hops.push((from, e.entity));
                }
            }
            _ => {}
        }
    }
    for shards in [2u32, 4, 8] {
        let shard = |entity| ShardPlan::shard_of(shards, entity);
        let working: BTreeSet<u32> = hops.iter().map(|&(_, to)| shard(to)).collect();
        assert!(
            working.len() > 1,
            "all completions on shard(s) {working:?} at S={shards} — the \
             invokers did not spread over shards"
        );
        assert!(
            hops.iter().any(|&(from, to)| shard(from) != shard(to)),
            "no invocation finished on another shard than it was delivered \
             to at S={shards} — the cross-shard migration path was not \
             exercised"
        );
        let sharded = run(shards);
        let label = format!("wide fleet, R=4 S=1 vs S={shards}");
        assert_shard_invariant(&baseline, &sharded, &label);
        assert_eq!(
            baseline.collector.samples, sharded.collector.samples,
            "{label}"
        );
        assert_eq!(
            baseline.collector.migrations, sharded.collector.migrations,
            "{label}"
        );
        assert_eq!(events, sharded.recorder.canonical_events(), "{label}");
    }
}

/// A small replicated-controller chaos run for property sweeps: R = 2
/// replicas, recovery, sampling, and a compiled chaos plan, on a static
/// cluster cheap enough to sample many (seed, shards) points.
fn quick_replicated_chaos_run(seed: u64, shards: u32, policy: Box<dyn LoadBalancer>) -> SimOutput {
    let horizon = SimDuration::from_mins(2);
    let seeds = SeedFactory::new(seed);
    let spec = WorkloadSpec::paper_fsmall().scaled(20, 3.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"));
    let mut cfg = PlatformConfig::default();
    cfg.sharding.replicas = 2;
    cfg.recovery.enabled = true;
    cfg.sample_interval = SimDuration::from_secs(10);
    let plan = FaultSpec::chaos(1.0).compile(5, horizon, &seeds.child("faults"));
    Simulation::sharded(
        ClusterSpec::regular(5, 8, 16 * 1024, horizon),
        trace,
        policy,
        cfg,
        seed,
        plan,
        shards,
    )
    .run(horizon)
}

proptest! {
    /// 64 (seed, shards) points through the replicated-controller
    /// reconciliation path — ViewDelta envelopes, owner routing, chaos
    /// faults, per-invoker sampling — must be invisible to the results.
    #[test]
    fn prop_replicated_controller_chaos_is_shard_invariant(
        seed in 0u64..1_000,
        shards in 2u32..=8,
    ) {
        let baseline = quick_replicated_chaos_run(seed, 1, PolicyKind::Mws.build());
        let sharded = quick_replicated_chaos_run(seed, shards, PolicyKind::Mws.build());
        assert_shard_invariant(&baseline, &sharded, &format!("chaos R=2 seed={seed} S={shards}"));
        assert_eq!(baseline.collector.samples, sharded.collector.samples);
        assert_eq!(baseline.collector.counters, sharded.collector.counters);
    }
}

/// A hand-configured balancer reaches every shard. MWS that weighs only
/// memory and scales its arrival estimates for eight controllers is an
/// instance no `PolicyKind` builds; its records must be the same at every
/// shard count and differ from the default-configured run's — the run a
/// shard that silently rebuilt the default would make. With R = 2,
/// replica 1 lives on shard 1 from S = 2 on, so a peer shard's balancer
/// places that replica's functions.
#[test]
fn configured_balancer_reaches_every_shard() {
    let configured = || Box::new(Mws::new(LoadWeights { cpu: 0.0, mem: 1.0 }, 8));
    let default = quick_replicated_chaos_run(17, 1, PolicyKind::Mws.build());
    let baseline = quick_replicated_chaos_run(17, 1, configured());
    assert_ne!(
        default.collector.records, baseline.collector.records,
        "the configured MWS moved no placement — the check degenerated"
    );
    for shards in [2u32, 4] {
        let sharded = quick_replicated_chaos_run(17, shards, configured());
        assert_shard_invariant(&baseline, &sharded, &format!("configured MWS S={shards}"));
    }
}

/// The message a run panics with, or `None` if it completes; the run
/// gets a helper thread and a minute, so a hang fails the test by name.
fn panic_message_within_a_minute(
    label: &str,
    run: impl FnOnce() + Send + 'static,
) -> Option<String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        let message = outcome.err().map(|payload| {
            (payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{label}: the run hung"))
}

/// A shard whose handler panics fails the whole run with its own message
/// instead of leaving its peers waiting at a barrier. The input is a
/// caller-built plan that crashes invoker 1000 of a 10-VM fleet: the
/// handler indexes past the invoker table.
#[test]
fn panicking_shard_fails_the_run_instead_of_hanging() {
    let crash_missing_invoker = |shards: u32| {
        move || {
            let horizon = SimDuration::from_mins(2);
            let seeds = SeedFactory::new(17);
            let spec = WorkloadSpec::paper_fsmall().scaled(20, 3.0);
            let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"));
            let mut plan = FaultPlan::none();
            plan.push(SimTime::from_secs(30), FaultKind::Crash { invoker: 1000 });
            plan.finish();
            Simulation::sharded(
                ClusterSpec::regular(10, 8, 16 * 1024, horizon),
                trace,
                PolicyKind::Mws.build(),
                PlatformConfig::default(),
                17,
                plan,
                shards,
            )
            .run(horizon);
        }
    };
    let solo = panic_message_within_a_minute("S=1", crash_missing_invoker(1))
        .expect("S=1: the run did not panic");
    assert!(
        solo.contains("index out of bounds"),
        "S=1 panicked with {solo:?}"
    );
    let sharded = panic_message_within_a_minute("S=4", crash_missing_invoker(4));
    assert_eq!(
        sharded,
        Some(solo),
        "S=4 must fail with the shard's own panic"
    );
}

#[test]
fn random_policy_is_seeded_not_ambient() {
    // Random placement (`JsqSampled(1)`) draws from the simulation's
    // seeded RNG stream — two runs with the same seed place identically.
    let horizon = SimDuration::from_mins(10);
    let seeds = SeedFactory::new(7);
    let spec = WorkloadSpec::paper_fsmall().scaled(30, 5.0);
    let workload = Workload::generate(&spec, &seeds);
    let trace = workload.invocations(horizon, &seeds);
    let mk = || {
        Simulation::new(
            ClusterSpec::regular(5, 8, 16 * 1024, horizon),
            trace.clone(),
            PolicyKind::JsqSampled(1).build(),
            PlatformConfig::default(),
            1234,
        )
        .run(horizon)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.collector.records, b.collector.records);
}
