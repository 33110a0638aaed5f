//! Fault-injection contract tests: determinism of compiled plans and
//! fault-injected runs, the zero-plan no-op guarantee, recovery's
//! strict improvement over no recovery, and invocation conservation
//! under every fault mix.

use harvest_faas::experiment::{chaos_point, SweepConfig};
use harvest_faas::hrv_fault::{FaultKind, FaultPlan, FaultSpec};
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_trace::faas::{Invocation, Workload, WorkloadSpec};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn workload(n_apps: usize, rps: f64, horizon: SimDuration, seed: u64) -> Vec<Invocation> {
    let seeds = SeedFactory::new(seed);
    let spec = WorkloadSpec::paper_fsmall().scaled(n_apps, rps);
    Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"))
}

/// A small faulted run: 2 invokers, ~2 minutes, recovery on.
fn small_faulted_run(intensity: f64, seed: u64) -> SimOutput {
    let horizon = SimDuration::from_secs(150);
    let seeds = SeedFactory::new(seed).child("faults");
    let spec = if intensity == 0.0 {
        FaultSpec::none()
    } else {
        FaultSpec::chaos(intensity)
    };
    let plan = spec.compile(2, horizon, &seeds);
    let mut cfg = PlatformConfig::default();
    cfg.recovery.enabled = true;
    Simulation::with_faults(
        ClusterSpec::regular(2, 4, 16 * 1024, horizon),
        workload(15, 2.0, SimDuration::from_secs(120), seed),
        PolicyKind::Mws.build(),
        cfg,
        seed,
        plan,
    )
    .run(horizon)
}

proptest! {
    /// Any fault spec compiled twice from the same seed factory yields
    /// the same plan, and replaying that plan yields byte-identical
    /// metrics — faults do not break whole-stack determinism.
    #[test]
    fn same_seed_fault_runs_are_byte_identical(
        seed in any::<u64>(),
        intensity in 0.0f64..2.0,
    ) {
        let seeds = SeedFactory::new(seed).child("faults");
        let spec = FaultSpec::chaos(intensity.max(0.05));
        let horizon = SimDuration::from_secs(150);
        prop_assert_eq!(
            spec.compile(2, horizon, &seeds),
            spec.compile(2, horizon, &seeds)
        );
        let a = small_faulted_run(intensity, seed);
        let b = small_faulted_run(intensity, seed);
        prop_assert_eq!(&a.collector.records, &b.collector.records);
        prop_assert_eq!(a.collector.arrivals, b.collector.arrivals);
        prop_assert_eq!(a.collector.streaming.retries, b.collector.streaming.retries);
        prop_assert_eq!(a.collector.streaming.redispatches, b.collector.streaming.redispatches);
        prop_assert_eq!(a.collector.vm_crashes, b.collector.vm_crashes);
        prop_assert_eq!(a.run.events, b.run.events);
    }

    /// Conservation holds under arbitrary fault mixes: every arrival is
    /// accounted as completed, destroyed, rejected, or censored.
    #[test]
    fn conservation_holds_under_any_fault_mix(
        seed in any::<u64>(),
        intensity in 0.0f64..3.0,
    ) {
        let out = small_faulted_run(intensity, seed);
        let (arrivals, accounted) = out.collector.conservation();
        prop_assert_eq!(arrivals, accounted);
    }
}

#[test]
fn zero_fault_plan_is_byte_identical_to_unfaulted_run() {
    // The acceptance bar: linking hrv-fault and injecting the zero plan
    // must not perturb a single byte of any regenerated table's input.
    let horizon = SimDuration::from_secs(400);
    let trace = workload(30, 3.0, SimDuration::from_secs(300), 11);
    let cluster = || ClusterSpec::regular(3, 8, 32 * 1024, horizon);
    let plain = Simulation::new(
        cluster(),
        trace.clone(),
        PolicyKind::Mws.build(),
        PlatformConfig::default(),
        42,
    )
    .run(horizon);
    let faulted = Simulation::with_faults(
        cluster(),
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig::default(),
        42,
        FaultPlan::none(),
    )
    .run(horizon);
    assert_eq!(plain.collector.records, faulted.collector.records);
    assert_eq!(plain.collector.arrivals, faulted.collector.arrivals);
    assert_eq!(plain.cold_starts, faulted.cold_starts);
    assert_eq!(plain.warm_starts, faulted.warm_starts);
    assert_eq!(plain.run.events, faulted.run.events);
}

#[test]
fn recovery_strictly_beats_no_recovery_on_a_crash() {
    // Fully deterministic single-crash plan: no sampled fault times, so
    // the comparison is exact, not statistical.
    let horizon = SimDuration::from_secs(400);
    let mut plan = FaultPlan::default();
    plan.push(SimTime::from_secs(60), FaultKind::Crash { invoker: 0 });
    plan.finish();
    let run = |recovery: bool| {
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = recovery;
        Simulation::with_faults(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(30, 4.0, SimDuration::from_secs(300), 17),
            PolicyKind::Mws.build(),
            cfg,
            42,
            plan.clone(),
        )
        .run(horizon)
    };
    let bare = run(false);
    let recovered = run(true);
    bare.collector.assert_conservation();
    recovered.collector.assert_conservation();
    assert_eq!(bare.collector.vm_crashes, 1);
    assert_eq!(recovered.collector.vm_crashes, 1);
    let lost_bare = bare.collector.streaming.eviction_failures + bare.collector.streaming.lost;
    let lost_recovered =
        recovered.collector.streaming.eviction_failures + recovered.collector.streaming.lost;
    assert!(lost_bare > 0, "the crash must destroy work");
    assert!(
        lost_recovered < lost_bare,
        "recovery must strictly reduce lost work: {lost_recovered} vs {lost_bare}"
    );
    assert!(recovered.collector.streaming.retries > 0);
}

#[test]
fn chaos_point_is_reproducible() {
    let cfg = SweepConfig {
        n_functions: 20,
        duration: SimDuration::from_mins(2),
        warmup: SimDuration::from_secs(30),
        ..SweepConfig::quick()
    };
    let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
    let fault = FaultSpec::chaos(1.0);
    let a = chaos_point(&cluster, PolicyKind::Jsq, 3.0, &cfg, &fault, true);
    let b = chaos_point(&cluster, PolicyKind::Jsq, 3.0, &cfg, &fault, true);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.work_lost, b.work_lost);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.p99, b.p99);
}
