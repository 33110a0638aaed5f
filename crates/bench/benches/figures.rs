//! One bench target per paper artifact: times a reduced-scale regeneration
//! of every table and figure, proving each pipeline end-to-end. The full
//! reports come from the `experiments` binary; these benches exercise the
//! same code paths at benchmark-friendly sizes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use harvest_faas::experiment::{run_point, SweepConfig};
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::ClusterSpec;
use harvest_faas::hrv_trace::faas::{duration_cdf, Workload, WorkloadSpec, WorkloadStats};
use harvest_faas::hrv_trace::harvest::{
    active_cluster, heterogeneous_sizes, CpuChangeModel, FleetConfig, FleetTrace, LifetimeModel,
};
use harvest_faas::hrv_trace::physical::{PhysicalCluster, PhysicalClusterConfig};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};

fn seeds() -> SeedFactory {
    SeedFactory::new(2021)
}

/// A tiny sweep point: small function count, short run.
fn tiny_cfg() -> SweepConfig {
    SweepConfig {
        n_functions: 40,
        duration: SimDuration::from_mins(2),
        warmup: SimDuration::from_secs(30),
        platform: PlatformConfig::default(),
        ..SweepConfig::quick()
    }
}

fn fig01_lifetimes(c: &mut Criterion) {
    c.bench_function("fig01/lifetime_cdf_5k", |b| {
        let model = LifetimeModel::paper_calibrated();
        b.iter(|| {
            let mut rng = seeds().stream("b1");
            let samples: Vec<f64> = (0..5_000)
                .map(|_| model.sample(&mut rng).as_days_f64())
                .collect();
            black_box(harvest_faas::hrv_trace::stats::Cdf::from_samples(samples).mean())
        })
    });
}

fn fig02_03_cpu_changes(c: &mut Criterion) {
    c.bench_function("fig02/interval_sampling_5k", |b| {
        let model = CpuChangeModel::paper_calibrated();
        b.iter(|| {
            let mut rng = seeds().stream("b2");
            let total: f64 = (0..5_000)
                .map(|_| model.sample_interval(&mut rng).as_secs_f64())
                .sum();
            black_box(total)
        })
    });
    c.bench_function("fig03/change_schedule_30d", |b| {
        let model = CpuChangeModel::paper_calibrated();
        b.iter(|| {
            let mut rng = seeds().stream("b3");
            black_box(model.generate(
                &mut rng,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_days(30),
                2,
                32,
                17,
            ))
        })
    });
}

fn fig04_09_workload(c: &mut Criterion) {
    c.bench_function("fig04_09/fsmall_trace_and_stats", |b| {
        let spec = WorkloadSpec::paper_fsmall().scaled(60, 20.0);
        b.iter(|| {
            let wl = Workload::generate(&spec, &seeds());
            let trace = wl.invocations(SimDuration::from_mins(10), &seeds());
            let stats = WorkloadStats::from_trace(&trace);
            black_box((duration_cdf(&trace).median(), stats.frac_long_apps))
        })
    });
}

fn fig08_fleet(c: &mut Criterion) {
    c.bench_function("fig08/fleet_20d_and_windows", |b| {
        let config = FleetConfig {
            horizon: SimDuration::from_days(20),
            initial_population: 40,
            final_population: 50,
            ..FleetConfig::default()
        };
        b.iter(|| {
            let fleet = FleetTrace::generate(&config, &seeds());
            black_box(fleet.worst_window(SimDuration::from_days(7), SimDuration::from_days(1)))
        })
    });
}

fn strat1_fig10_capacity(c: &mut Criterion) {
    use harvest_faas::provision::{capacity_split, Assignment, Strategy};
    let spec = WorkloadSpec::paper_fsmall().scaled(60, 20.0);
    let wl = Workload::generate(&spec, &seeds());
    let trace = wl.invocations(SimDuration::from_mins(20), &seeds());
    c.bench_function("strat1_fig10/capacity_split", |b| {
        b.iter(|| {
            let a = Assignment::from_trace(&trace, Strategy::BoundedFailures { percentile: 99.0 });
            black_box(capacity_split(&trace, &a, SimDuration::from_mins(10)).harvest_fraction())
        })
    });
}

fn strat3_reliability(c: &mut Criterion) {
    use harvest_faas::hrv_trace::harvest::{VmEnd, VmTrace};
    c.bench_function("strat3/eviction_window_sim", |b| {
        let horizon = SimDuration::from_mins(10);
        let vms: Vec<VmTrace> = (0..6)
            .map(|i| {
                let (end, ended) = if i % 2 == 0 {
                    (SimTime::ZERO + horizon / 2, VmEnd::Evicted)
                } else {
                    (SimTime::ZERO + horizon, VmEnd::Censored)
                };
                VmTrace::constant(SimTime::ZERO, end, ended, 8, 16 * 1024)
            })
            .collect();
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 5.0);
        let wl = Workload::generate(&spec, &seeds());
        let trace = wl.invocations(horizon, &seeds());
        b.iter(|| {
            let out = harvest_faas::hrv_platform::world::Simulation::new(
                ClusterSpec::from_traces(vms.clone()),
                trace.clone(),
                PolicyKind::Random.build(),
                PlatformConfig::default(),
                1,
            )
            .run(horizon);
            black_box(out.collector.streaming.eviction_failures)
        })
    });
}

fn fig12_14_lb(c: &mut Criterion) {
    let cfg = tiny_cfg();
    let horizon = cfg.duration + SimDuration::from_mins(2);
    let sizes = heterogeneous_sizes(6, 5, 20, 70);
    let cluster = ClusterSpec::from_sizes(&sizes, 16 * 1024, horizon);
    for (name, policy) in [
        ("mws", PolicyKind::Mws),
        ("jsq", PolicyKind::Jsq),
        ("vanilla", PolicyKind::Vanilla),
    ] {
        c.bench_function(&format!("fig12_14/point_{name}"), |b| {
            b.iter(|| black_box(run_point(&cluster, policy, 3.0, &cfg)))
        });
    }
}

fn fig15_16_variability(c: &mut Criterion) {
    let cfg = tiny_cfg();
    let horizon = cfg.duration + SimDuration::from_mins(2);
    let active = ClusterSpec::from_traces(active_cluster(6, horizon, 20, 16 * 1024, &seeds()));
    c.bench_function("fig15_16/active_cluster_point", |b| {
        b.iter(|| black_box(run_point(&active, PolicyKind::Mws, 3.0, &cfg)))
    });
}

fn fig17_table3_budget(c: &mut Criterion) {
    use harvest_faas::cost::BudgetModel;
    c.bench_function("table3/budget_table", |b| {
        let model = BudgetModel::default();
        b.iter(|| black_box(model.table()))
    });
    let cfg = tiny_cfg();
    let horizon = cfg.duration + SimDuration::from_mins(2);
    let baseline = ClusterSpec::regular(2, 16, 64 * 1024, horizon);
    c.bench_function("fig17/baseline_point", |b| {
        b.iter(|| black_box(run_point(&baseline, PolicyKind::Mws, 2.0, &cfg)))
    });
}

fn fig18_spot(c: &mut Criterion) {
    c.bench_function("fig18/physical_packing", |b| {
        let config = PhysicalClusterConfig {
            nodes: 8,
            horizon: SimDuration::from_hours(6),
            ..PhysicalClusterConfig::default()
        };
        b.iter(|| {
            let cluster = PhysicalCluster::generate(&config, &seeds());
            let h = cluster.pack_harvest(2, 16 * 1024);
            let s = cluster.pack_spot(16, 4 * 1024);
            black_box((h.len(), s.len(), cluster.idle_cpu_seconds()))
        })
    });
}

fn fig19_21_replay(c: &mut Criterion) {
    c.bench_function("fig19_21/replay_trace_generation", |b| {
        b.iter(|| {
            black_box(hrv_bench::replay::replay_trace(
                SimDuration::from_mins(15),
                &seeds(),
            ))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4))
}

criterion_group! {
    name = benches;
    config = config();
    targets = fig01_lifetimes, fig02_03_cpu_changes, fig04_09_workload, fig08_fleet,
        strat1_fig10_capacity, strat3_reliability, fig12_14_lb, fig15_16_variability,
        fig17_table3_budget, fig18_spot, fig19_21_replay
}
criterion_main!(benches);
