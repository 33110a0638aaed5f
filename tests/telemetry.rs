//! The telemetry subsystem's contracts, end to end:
//!
//! * an **enabled** run must not perturb the simulation — records,
//!   counters and event counts byte-identical to a disabled run;
//! * every per-invocation phase decomposition must tile its end-to-end
//!   latency *exactly* (integer microseconds, no residue);
//! * the flight recorder and its Perfetto export must be invariant under
//!   the shard count.

use harvest_faas::hrv_fault::FaultPlan;
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::tel::{perfetto, SpanKind};
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_platform::{Outcome, TelemetryConfig};
use harvest_faas::hrv_trace::faas::{Workload, WorkloadSpec};
use harvest_faas::hrv_trace::harvest::{FleetConfig, FleetTrace, Storm};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// A churning fleet (VM joins, CPU wobble, evictions) under an F_small
/// workload — the same shape as the determinism suite's runs, with the
/// telemetry switch exposed.
fn churn_run(seed: u64, telemetry: TelemetryConfig) -> SimOutput {
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
    Simulation::new(
        ClusterSpec::from_traces(fleet.vms),
        trace,
        PolicyKind::Mws.build(),
        PlatformConfig {
            telemetry,
            ..PlatformConfig::default()
        },
        seed,
    )
    .run(horizon)
}

/// The same churn workload on the sharded driver with telemetry on. With
/// `storms`, the determinism suite's full-feature configuration instead:
/// two forced eviction storms over a slightly larger fleet, four
/// controller replicas, live migration, sampling and recovery — so
/// invocations finish on a different invoker than the one they were
/// delivered to. The fleet fits one invoker block, so at every S its
/// invokers share shard 0 and only the replicas spread; invocations that
/// move between shards are `tests/determinism.rs`'s wide-fleet run.
fn sharded_telemetry_run(seed: u64, shards: u32, storms: bool) -> SimOutput {
    let horizon = SimDuration::from_mins(8);
    let mut config = FleetConfig {
        horizon,
        initial_population: 8,
        final_population: 10,
        forced_storms: vec![],
        ..FleetConfig::default()
    };
    let mut platform = PlatformConfig {
        telemetry: TelemetryConfig::on(),
        ..PlatformConfig::default()
    };
    if storms {
        config.initial_population = 10;
        config.final_population = 12;
        config.forced_storms = [3, 6]
            .map(|mins| Storm {
                at: SimTime::ZERO + SimDuration::from_mins(mins),
                fraction: 0.3,
            })
            .to_vec();
        // Storms apply at redeploy ticks; the default hourly tick never
        // fires inside an 8-minute horizon.
        config.redeploy_check_every = SimDuration::from_mins(1);
        platform.sharding.replicas = 4;
        platform.migration.enabled = true;
        platform.sample_interval = SimDuration::from_secs(5);
        platform.recovery.enabled = true;
    }
    let fleet = FleetTrace::generate(&config, &SeedFactory::new(seed));
    let seeds = SeedFactory::new(seed).child("wl");
    let spec = WorkloadSpec::paper_fsmall().scaled(40, 5.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
    Simulation::sharded(
        ClusterSpec::from_traces(fleet.vms),
        trace,
        PolicyKind::Mws.build(),
        platform,
        seed,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

#[test]
fn enabled_run_is_byte_identical_to_disabled() {
    let off = churn_run(99, TelemetryConfig::Off);
    let on = churn_run(99, TelemetryConfig::on());
    // The zero-perturbation contract: recording spans must not move a
    // single record, counter, or calendar event.
    assert_eq!(off.collector.records, on.collector.records);
    assert_eq!(off.collector.arrivals, on.collector.arrivals);
    assert_eq!(off.cold_starts, on.cold_starts);
    assert_eq!(off.warm_starts, on.warm_starts);
    assert_eq!(off.run.events, on.run.events);
    // ...while the enabled run actually observed something.
    assert!(off.recorder.is_empty(), "disabled run recorded spans");
    assert!(off.collector.phases.is_empty());
    assert!(on.recorder.len() > 100, "enabled run recorded nothing");
    assert!(on.collector.phases.len() > 500);
}

#[test]
fn phase_components_tile_end_to_end_latency() {
    let out = churn_run(99, TelemetryConfig::on());
    let completed = out
        .collector
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .count();
    assert_eq!(
        out.collector.phases.len(),
        completed,
        "every completed invocation gets exactly one phase row"
    );
    for p in &out.collector.phases {
        assert_eq!(
            p.total_us(),
            p.finished.since(p.arrival).as_micros(),
            "phase components must sum to invocation {}'s latency",
            p.id
        );
    }
    // The aggregate view exposes the same invariant per percentile row.
    let m = out.collector.aggregate(SimTime::ZERO);
    let attribution = m.phases.expect("telemetry was on");
    for p in [0.0, 50.0, 99.0, 100.0] {
        let row = attribution.percentile_row(p);
        assert_eq!(row.total_us(), row.finished.since(row.arrival).as_micros());
    }
}

proptest! {
    /// Any seed: phase sums equal latency on a quick static-cluster run.
    #[test]
    fn prop_phase_sums_equal_latency(seed in 0u64..500) {
        let horizon = SimDuration::from_mins(2);
        let seeds = SeedFactory::new(seed);
        let spec = WorkloadSpec::paper_fsmall().scaled(20, 3.0);
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arr"));
        let out = Simulation::new(
            ClusterSpec::regular(5, 8, 16 * 1024, horizon),
            trace,
            PolicyKind::Mws.build(),
            PlatformConfig {
                telemetry: TelemetryConfig::on(),
                ..PlatformConfig::default()
            },
            seed,
        )
        .run(horizon);
        prop_assert!(!out.collector.phases.is_empty());
        for p in &out.collector.phases {
            prop_assert_eq!(p.total_us(), p.finished.since(p.arrival).as_micros());
        }
    }
}

#[test]
fn flight_recorder_is_shard_invariant() {
    for storms in [false, true] {
        let runs =
            [1u32, 2, 4, 8].map(|shards| (shards, sharded_telemetry_run(17, shards, storms)));
        let baseline = &runs[0].1;
        let base_events = baseline.recorder.canonical_events();
        assert!(
            base_events.len() > 500,
            "only {} spans — the invariance check degenerated",
            base_events.len()
        );
        assert!(base_events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Completed { .. })));
        assert_eq!(
            baseline.collector.migrations > 0,
            storms,
            "the storm run, and only it, must migrate"
        );
        for (shards, sharded) in &runs {
            let events = sharded.recorder.canonical_events();
            if events != base_events {
                // Post-mortem for CI: the dumps land where the failure-path
                // artifact upload looks.
                harvest_faas::hrv_platform::tel::dump::write_default(
                    "telemetry-shard-baseline",
                    &baseline.recorder,
                );
                harvest_faas::hrv_platform::tel::dump::write_default(
                    &format!("telemetry-shard-S{shards}"),
                    &sharded.recorder,
                );
            }
            assert_eq!(
                events, base_events,
                "flight recorder diverged at S={shards}, storms={storms}"
            );
            assert_eq!(
                sharded.collector.phases, baseline.collector.phases,
                "phase rows diverged at S={shards}, storms={storms}"
            );
            // The hop travels with a migrating invocation, so wherever it
            // finishes it gets its phase row.
            let completed = sharded
                .collector
                .records
                .iter()
                .filter(|r| r.outcome == Outcome::Completed)
                .count();
            assert_eq!(
                sharded.collector.phases.len(),
                completed,
                "a completion lost its phase row at S={shards}, storms={storms}"
            );
        }
    }
}

#[test]
fn perfetto_export_is_shard_invariant_and_parses() {
    let a = sharded_telemetry_run(17, 1, false);
    let b = sharded_telemetry_run(17, 4, false);
    let ja = perfetto::render(&a.recorder, &a.collector.phases);
    let jb = perfetto::render(&b.recorder, &b.collector.phases);
    assert_eq!(ja, jb, "Perfetto JSON depends on the shard count");
    let parsed: perfetto::TraceFile = serde_json::from_str(&ja).expect("valid trace JSON");
    let events = &parsed.traceEvents;
    assert!(events.len() > 500);
    // Both process groups: pid 0 entity spans, pid 1 invocation phases.
    assert!(events.iter().any(|e| e.pid == 0));
    assert!(events.iter().any(|e| e.pid == 1));
}
