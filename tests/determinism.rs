//! Determinism across the whole stack: identical seeds produce identical
//! traces, placements, and metrics; different seeds do not.

use harvest_faas::experiment::{run_point, SweepConfig};
use harvest_faas::hrv_fault::FaultSpec;
use harvest_faas::hrv_lb::mws::Mws;
use harvest_faas::hrv_lb::policy::{LoadBalancer, PolicyKind};
use harvest_faas::hrv_lb::view::LoadWeights;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_platform::ShardedSimulation;
use harvest_faas::hrv_policy::ColdStartConfig;
use harvest_faas::hrv_trace::faas::{Invocation, Workload, WorkloadSpec};
use harvest_faas::hrv_trace::harvest::{FleetConfig, FleetTrace, Storm};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use proptest::prelude::*;

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
    ShardedSimulation::new(
        spec,
        trace,
        PolicyKind::Mws,
        PlatformConfig::default(),
        seed,
        shards,
    )
    .run(horizon)
}

/// The byte-identity contract: records, event counts, and start counters
/// must not depend on how the cluster is partitioned.
fn assert_shard_invariant(a: &SimOutput, b: &SimOutput, label: &str) {
    let same = a.run.events == b.run.events
        && a.collector.records == b.collector.records
        && a.collector.arrivals == b.collector.arrivals
        && a.cold_starts == b.cold_starts
        && a.warm_starts == b.warm_starts
        && a.collector.dropped_completions == b.collector.dropped_completions;
    if !same {
        // Post-mortem before the asserts below name the field: dump both
        // runs' flight recorders (CI uploads target/flight_recorder/ on
        // failure; empty dumps carry a rerun-with-telemetry hint).
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let n = harvest_faas::hrv_platform::FlightConfig::default().dump_last as usize;
        harvest_faas::hrv_platform::tel::dump::write_default(
            &format!("determinism-{slug}-baseline"),
            &a.recorder,
            n,
        );
        harvest_faas::hrv_platform::tel::dump::write_default(
            &format!("determinism-{slug}-sharded"),
            &b.recorder,
            n,
        );
    }
    assert_eq!(a.run.events, b.run.events, "event counts diverged: {label}");
    assert_eq!(
        a.collector.records, b.collector.records,
        "records diverged: {label}"
    );
    assert_eq!(a.collector.arrivals, b.collector.arrivals, "{label}");
    assert_eq!(a.cold_starts, b.cold_starts, "cold starts: {label}");
    assert_eq!(a.warm_starts, b.warm_starts, "warm starts: {label}");
    assert_eq!(
        a.collector.dropped_completions, b.collector.dropped_completions,
        "{label}"
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
    for shards in [2u32, 4, 8] {
        let sharded = sharded_run(17, shards);
        assert_shard_invariant(&baseline, &sharded, &format!("S=1 vs S={shards}"));
    }
}

#[test]
fn one_shard_matches_plain_simulation() {
    // S = 1 runs the identical round schedule the serial driver uses, so
    // ShardedSimulation must reproduce Simulation byte for byte.
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
    ShardedSimulation::new(
        ClusterSpec::regular(5, 8, 16 * 1024, horizon),
        trace,
        PolicyKind::Mws,
        PlatformConfig::default(),
        seed,
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
        ShardedSimulation::with_faults(
            ClusterSpec::regular(6, 4, 16 * 1024, horizon),
            trace.clone(),
            PolicyKind::Mws,
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

/// FNV-1a over the observable output of a run — the compact form of the
/// byte-identity contract.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(o: &SimOutput) -> u64 {
    fnv(&format!(
        "{:?}|{}|{}|{}|{}",
        o.collector.records, o.collector.arrivals, o.cold_starts, o.warm_starts, o.run.events
    ))
}

/// Golden fingerprints computed on pre-policy main (commit 6622395,
/// before the cold-start policy subsystem existed). The default
/// `FixedKeepAlive` policy must reproduce them bit for bit: adding the
/// policy layer may not move a single record or event for the default
/// configuration.
const PREPOLICY_FULL_RUN_99: u64 = 0x874159fedfa35290;
const PREPOLICY_SHARDED_17: u64 = 0x03b7fc36c5ece8f4;

#[test]
fn default_policy_is_byte_identical_to_prepolicy_main() {
    assert_eq!(
        fingerprint(&full_run(99)),
        PREPOLICY_FULL_RUN_99,
        "default FixedKeepAlive diverged from the pre-policy baseline"
    );
    for shards in [1u32, 2, 4, 8] {
        assert_eq!(
            fingerprint(&sharded_run(17, shards)),
            PREPOLICY_SHARDED_17,
            "default FixedKeepAlive diverged from pre-policy baseline at S={shards}"
        );
    }
}

fn sharded_run_with_policy(seed: u64, shards: u32, coldstart: ColdStartConfig) -> SimOutput {
    let (spec, trace, horizon) = sharded_inputs(seed);
    let platform = PlatformConfig {
        coldstart,
        ..PlatformConfig::default()
    };
    ShardedSimulation::new(spec, trace, PolicyKind::Mws, platform, seed, shards).run(horizon)
}

#[test]
fn every_coldstart_policy_is_shard_invariant() {
    // The determinism contract holds for every policy, not just the
    // default: prewarm orders travel as self-addressed envelopes bound
    // by the bus-latency lookahead, so the partition cannot reorder
    // them.
    for coldstart in ColdStartConfig::all() {
        let baseline = sharded_run_with_policy(17, 1, coldstart);
        assert!(
            baseline.collector.records.len() > 500,
            "only {} records under {:?} — the check degenerated",
            baseline.collector.records.len(),
            coldstart
        );
        for shards in [2u32, 4, 8] {
            let sharded = sharded_run_with_policy(17, shards, coldstart);
            assert_shard_invariant(
                &baseline,
                &sharded,
                &format!("{coldstart:?} S=1 vs S={shards}"),
            );
        }
    }
}

/// Full-feature sharded-controller run: four controller replicas (each
/// owning a partition of the function space), live migration,
/// utilization sampling, and recovery all enabled — the configuration
/// that used to silently degrade to one shard. The fleet takes two
/// forced eviction storms so the migration path actually fires.
fn sharded_controller_run(seed: u64, shards: u32) -> SimOutput {
    let horizon = SimDuration::from_mins(8);
    let config = FleetConfig {
        horizon,
        initial_population: 10,
        final_population: 12,
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
    let spec = WorkloadSpec::paper_fsmall().scaled(40, 5.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
    let mut cfg = PlatformConfig::default();
    cfg.sharding.replicas = 4;
    cfg.migration.enabled = true;
    cfg.sample_interval = SimDuration::from_secs(5);
    cfg.recovery.enabled = true;
    ShardedSimulation::new(
        ClusterSpec::from_traces(fleet.vms),
        trace,
        PolicyKind::Mws,
        cfg,
        seed,
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

/// A small replicated-controller chaos run for property sweeps: R = 2
/// replicas, recovery, sampling, and a compiled chaos plan, on a static
/// cluster cheap enough to sample many (seed, shards) points.
fn quick_replicated_chaos_run(seed: u64, shards: u32) -> SimOutput {
    let horizon = SimDuration::from_mins(2);
    let seeds = SeedFactory::new(seed);
    let spec = WorkloadSpec::paper_fsmall().scaled(20, 3.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"));
    let mut cfg = PlatformConfig::default();
    cfg.sharding.replicas = 2;
    cfg.recovery.enabled = true;
    cfg.sample_interval = SimDuration::from_secs(10);
    let plan = FaultSpec::chaos(1.0).compile(5, horizon, &seeds.child("faults"));
    ShardedSimulation::with_faults(
        ClusterSpec::regular(5, 8, 16 * 1024, horizon),
        trace,
        PolicyKind::Mws,
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
        let baseline = quick_replicated_chaos_run(seed, 1);
        let sharded = quick_replicated_chaos_run(seed, shards);
        assert_shard_invariant(&baseline, &sharded, &format!("chaos R=2 seed={seed} S={shards}"));
        assert_eq!(baseline.collector.samples, sharded.collector.samples);
        assert_eq!(baseline.collector.counters, sharded.collector.counters);
    }
}

#[test]
fn random_policy_is_seeded_not_ambient() {
    // The Random policy draws from the simulation's seeded RNG stream —
    // two runs with the same seed place identically.
    let horizon = SimDuration::from_mins(10);
    let seeds = SeedFactory::new(7);
    let spec = WorkloadSpec::paper_fsmall().scaled(30, 5.0);
    let workload = Workload::generate(&spec, &seeds);
    let trace = workload.invocations(horizon, &seeds);
    let mk = || {
        Simulation::new(
            ClusterSpec::regular(5, 8, 16 * 1024, horizon),
            trace.clone(),
            PolicyKind::Random.build(),
            PlatformConfig::default(),
            1234,
        )
        .run(horizon)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.collector.records, b.collector.records);
}
