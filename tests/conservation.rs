//! Invocation conservation at the edges of a run: every arrival ends in
//! exactly one record, written by the replica that owns it, including an
//! invocation that finishes within one bus hop of the horizon.

use harvest_faas::hrv_fault::FaultPlan;
use harvest_faas::hrv_lb::owner_of;
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_platform::{Outcome, TelemetryConfig};
use harvest_faas::hrv_trace::faas::{AppId, FunctionId, Invocation, Workload, WorkloadSpec};
use harvest_faas::hrv_trace::harvest::{CpuChange, VmEnd, VmTrace};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};

/// A function that replica 1 of 2 owns. With two shards, replica 1 lives
/// on shard 1 and invoker 0 on shard 0, so the owner and the invoker that
/// runs the work sit on different shards.
fn function_owned_by_replica_1() -> FunctionId {
    (0..)
        .map(|app| FunctionId {
            app: AppId(app),
            func: 0,
        })
        .find(|&f| owner_of(2, f) == 1)
        .expect("some function hashes onto replica 1")
}

/// One 1 s invocation arriving at 1 s on a one-VM cluster, run to
/// `horizon`.
fn one_invocation(
    replicas: u32,
    shards: u32,
    telemetry: TelemetryConfig,
    horizon: SimDuration,
) -> SimOutput {
    let invocation = Invocation {
        id: 0,
        function: function_owned_by_replica_1(),
        arrival: SimTime::from_secs(1),
        duration: SimDuration::from_secs(1),
        memory_mb: 256,
        cpu_demand: 1.0,
    };
    let mut cfg = PlatformConfig {
        telemetry,
        ..PlatformConfig::default()
    };
    cfg.sharding.replicas = replicas;
    Simulation::sharded(
        ClusterSpec::regular(1, 4, 4_096, SimDuration::from_secs(60)),
        vec![invocation],
        PolicyKind::Mws.build(),
        cfg,
        3,
        FaultPlan::none(),
        shards,
    )
    .run(horizon)
}

#[test]
fn a_completion_still_on_the_bus_at_the_horizon_is_censored_once() {
    for (replicas, shards) in [(1, 1), (2, 1), (2, 2)] {
        for telemetry in [TelemetryConfig::Off, TelemetryConfig::on()] {
            let label = format!("R={replicas} S={shards} telemetry={}", telemetry.enabled());
            let full = one_invocation(replicas, shards, telemetry, SimDuration::from_secs(60));
            let [done] = full.collector.records[..] else {
                panic!("{label}: one record expected: {:?}", full.collector.records);
            };
            assert_eq!(done.outcome, Outcome::Completed, "{label}");
            // End the rerun half a bus hop after the completion: its
            // `Report` is still on the way to the owner.
            let half_hop = PlatformConfig::default().bus_latency / 2;
            let horizon = done.finished.since(SimTime::ZERO) + half_hop;
            let cut = one_invocation(replicas, shards, telemetry, horizon);
            let c = &cut.collector;
            let [censored] = c.records[..] else {
                panic!("{label}: one record expected: {:?}", c.records);
            };
            assert_eq!(censored.outcome, Outcome::Censored, "{label}");
            assert_eq!(c.arrivals, 1, "{label}");
            assert_eq!(c.conservation(), (1, 1), "{label}");
            // Phase rows are the invoker's telemetry, cut when the work
            // finishes: the censored invocation still has one.
            if telemetry.enabled() {
                let [phase] = c.phases[..] else {
                    panic!("{label}: one phase row expected: {:?}", c.phases);
                };
                assert_eq!((phase.id, phase.finished), (0, done.finished), "{label}");
            } else {
                assert!(c.phases.is_empty(), "{label}");
            }
        }
    }
}

/// The paper-scale partitioned-controller replay that used to end with
/// 611 347 records for 611 325 arrivals: 1 600 VMs (2 base / 6 max /
/// 4 initial CPUs, 32 GiB) whose allocations wobble 4↔2↔6 CPUs every
/// 100 ms, one in fifty evicted at 40 s; the full `F_large` volume for
/// 60 s plus a 60 s tail; 50 ms bus, 5 s pings and sampling, four
/// replicas, live migration, MWS. Slow in debug builds, so it runs by
/// name in release:
/// `cargo test --release --test conservation -- --ignored sharded_replay`.
#[test]
#[ignore]
fn sharded_replay_accounts_every_arrival_once() {
    let horizon = SimDuration::from_secs(60);
    let tail = horizon + SimDuration::from_secs(60);
    let mut cfg = PlatformConfig {
        bus_latency: SimDuration::from_millis(50),
        ping_interval: SimDuration::from_secs(5),
        sample_interval: SimDuration::from_secs(5),
        ..PlatformConfig::default()
    };
    cfg.sharding.replicas = 4;
    cfg.migration.enabled = true;
    let seeds = SeedFactory::new(76);
    let spec = WorkloadSpec::paper_flarge_scaled(20_809).scaled(20_809, 910_000_000.0 / 86_400.0);
    let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds.child("arrivals"));
    let vms = (0..1_600u64)
        .map(|i| {
            let phase = i * 7_000 % 100_000;
            let cpu_changes = (1..tail.as_micros() / 100_000)
                .map(|step| CpuChange {
                    at: SimTime::from_micros(step * 100_000 + phase),
                    cpus: [4, 2, 6, 4][(step % 4) as usize],
                })
                .collect();
            let (end, ended) = if i % 50 == 17 {
                (SimTime::from_secs(40), VmEnd::Evicted)
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
                cpu_changes,
            }
        })
        .collect();
    let arrivals = trace.len() as u64;
    let out = Simulation::new(
        ClusterSpec::from_traces(vms),
        trace,
        PolicyKind::Mws.build(),
        cfg,
        76,
    )
    .run(tail);
    let c = &out.collector;
    assert!(c.migrations > 0, "the evictions must exercise migration");
    assert_eq!(c.arrivals, arrivals);
    assert_eq!(c.records.len() as u64, arrivals, "records vs arrivals");
}
