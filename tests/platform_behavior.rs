//! Behavioral integration tests of the platform model: keep-alive warm
//! reuse, cold-start penalties, admission control, and the resource
//! monitor — observed end-to-end through `Simulation`.

use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::{PlatformConfig, ResourceMonitorConfig, VmTemplate};
use harvest_faas::hrv_platform::metrics::Outcome;
use harvest_faas::hrv_platform::world::{ClusterSpec, Simulation};
use harvest_faas::hrv_trace::faas::{AppId, FunctionId, Invocation};
use harvest_faas::hrv_trace::harvest::{VmEnd, VmTrace};
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};

fn inv(id: u64, app: u32, at_secs: u64, dur_secs: f64) -> Invocation {
    Invocation {
        id,
        function: FunctionId {
            app: AppId(app),
            func: 0,
        },
        arrival: SimTime::from_secs(at_secs),
        duration: SimDuration::from_secs_f64(dur_secs),
        memory_mb: 256,
        cpu_demand: 1.0,
    }
}

fn one_vm_cluster(horizon: SimDuration) -> ClusterSpec {
    ClusterSpec::regular(1, 8, 8 * 1024, horizon)
}

fn run(
    trace: Vec<Invocation>,
    cfg: PlatformConfig,
    horizon: SimDuration,
) -> harvest_faas::hrv_platform::world::SimOutput {
    Simulation::new(
        one_vm_cluster(horizon),
        trace,
        PolicyKind::Mws.build(),
        cfg,
        0,
    )
    .run(horizon)
}

#[test]
fn keep_alive_window_separates_warm_from_cold() {
    let cfg = PlatformConfig {
        keep_alive: SimDuration::from_mins(10),
        ..PlatformConfig::default()
    };
    let horizon = SimDuration::from_mins(40);
    // Same function invoked at t=0, t=300 (within keep-alive after
    // completion) and t=1200 (long after expiry).
    let trace = vec![
        inv(0, 1, 0, 1.0),
        inv(1, 1, 300, 1.0),
        inv(2, 1, 1_200, 1.0),
    ];
    let out = run(trace, cfg, horizon);
    let records = &out.collector.records;
    let by_id = |id: u64| records.iter().find(|r| r.id == id).expect("record");
    assert!(by_id(0).cold, "first call must cold start");
    assert!(!by_id(1).cold, "second call within keep-alive must be warm");
    assert!(
        by_id(2).cold,
        "call after keep-alive expiry must cold start"
    );
    assert_eq!(out.cold_starts, 2);
    assert_eq!(out.warm_starts, 1);
}

#[test]
fn cold_start_adds_latency() {
    let cfg = PlatformConfig {
        cold_start_delay: SimDuration::from_secs(2),
        cold_start_cpu_secs: 0.0,
        ..PlatformConfig::default()
    };
    let horizon = SimDuration::from_mins(5);
    let trace = vec![inv(0, 1, 0, 1.0), inv(1, 1, 30, 1.0)];
    let out = run(trace, cfg, horizon);
    let cold = &out.collector.records[0];
    let warm = &out.collector.records[1];
    assert!(cold.cold && !warm.cold);
    // The cold record pays the 2-second start on top of execution.
    assert!(cold.latency_secs > warm.latency_secs + 1.5);
}

#[test]
fn admission_control_serializes_overload() {
    let cfg = PlatformConfig {
        admission_pressure: 1.0,
        cold_start_delay: SimDuration::ZERO,
        cold_start_cpu_secs: 0.0,
        ..PlatformConfig::default()
    };
    let horizon = SimDuration::from_mins(20);
    // 16 ten-second single-core jobs hit an 8-CPU invoker at once: the
    // second batch waits in the invoker queue instead of time-slicing.
    let trace: Vec<Invocation> = (0..16).map(|i| inv(i, i as u32, 10, 10.0)).collect();
    let out = run(trace, cfg, horizon);
    let mut latencies: Vec<f64> = out
        .collector
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .map(|r| r.latency_secs)
        .collect();
    latencies.sort_by(f64::total_cmp);
    assert_eq!(latencies.len(), 16);
    // First 8 run immediately (~10 s), the rest queue behind them (~20 s).
    assert!(latencies[7] < 12.0, "first batch {latencies:?}");
    assert!(latencies[8] > 18.0, "second batch {latencies:?}");
}

#[test]
fn rejection_after_placement_timeout() {
    let cfg = PlatformConfig {
        placement_timeout: SimDuration::from_secs(30),
        ..PlatformConfig::default()
    };
    // No VM ever comes up: everything times out and is rejected.
    let horizon = SimDuration::from_mins(5);
    let dead_cluster = ClusterSpec::from_traces(vec![VmTrace {
        deploy: SimTime::ZERO + SimDuration::from_mins(4),
        end: SimTime::ZERO + horizon,
        ended: VmEnd::Censored,
        base_cpus: 4,
        max_cpus: 4,
        initial_cpus: 4,
        memory_mb: 8 * 1024,
        cpu_changes: vec![],
    }]);
    let trace = vec![inv(0, 1, 0, 1.0), inv(1, 2, 1, 1.0)];
    let out = Simulation::new(dead_cluster, trace, PolicyKind::Jsq.build(), cfg, 0)
        .run(SimDuration::from_mins(3));
    assert_eq!(out.collector.streaming.rejections, 2);
    assert!(out
        .collector
        .records
        .iter()
        .all(|r| r.outcome == Outcome::Rejected));
    out.collector.assert_conservation();
}

#[test]
fn monitor_replaces_lost_capacity_end_to_end() {
    let cfg = PlatformConfig {
        monitor: ResourceMonitorConfig {
            enabled: true,
            min_cpus: 8,
            interval: SimDuration::from_secs(15),
            template: VmTemplate {
                cpus: 8,
                memory_mb: 8 * 1024,
                deploy_delay: SimDuration::from_secs(30),
            },
        },
        ..PlatformConfig::default()
    };
    let horizon = SimDuration::from_mins(10);
    // The only initial VM evicts at t=60.
    let dying = VmTrace::constant(
        SimTime::ZERO,
        SimTime::from_secs(60),
        VmEnd::Evicted,
        8,
        8 * 1024,
    );
    // Work arrives before and after the gap.
    let mut trace: Vec<Invocation> = (0..30).map(|i| inv(i, i as u32, 2 * i, 1.0)).collect();
    trace.extend((30..60).map(|i| inv(i, i as u32, 120 + 2 * i, 1.0)));
    let out = Simulation::new(
        ClusterSpec::from_traces(vec![dying]),
        trace,
        PolicyKind::Jsq.build(),
        cfg,
        0,
    )
    .run(horizon);
    let late_ok = out
        .collector
        .records
        .iter()
        .filter(|r| r.arrival >= SimTime::from_secs(120) && r.outcome == Outcome::Completed)
        .count();
    assert!(late_ok >= 25, "only {late_ok} late invocations completed");
    // Even across the eviction gap, every arrival must be accounted for:
    // completed, destroyed by the eviction, rejected, censored, or lost.
    out.collector.assert_conservation();
}

#[test]
fn contention_is_visible_in_exec_time() {
    let cfg = PlatformConfig {
        admission_pressure: 100.0, // disable admission: force time-slicing
        cold_start_delay: SimDuration::ZERO,
        cold_start_cpu_secs: 0.0,
        ..PlatformConfig::default()
    };
    let horizon = SimDuration::from_mins(10);
    // 16 ten-second jobs on 8 CPUs, all admitted at once → processor
    // sharing stretches each execution to ~20 s.
    let trace: Vec<Invocation> = (0..16).map(|i| inv(i, i as u32, 10, 10.0)).collect();
    let out = run(trace, cfg, horizon);
    for r in &out.collector.records {
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(
            r.exec_secs > 15.0,
            "execution not stretched by contention: {}",
            r.exec_secs
        );
    }
}
