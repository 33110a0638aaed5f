//! Input generation for the five workloads, all through [`SeedFactory`];
//! the program under test only ever sees the generated clusters, traces,
//! configs and fault plans.
//!
//! # What `--seed` moves
//!
//! A workload has a *population* — which functions exist and how popular
//! and long they are, which VMs the cluster has and when their CPUs
//! change, which timers fire when — and a *realisation*: when each
//! invocation arrives, which function it calls, how long it runs, how the
//! platform breaks ties, where the fault plan strikes. `--seed` draws the
//! realisation. The population is the testbed (Table 2's function suite,
//! Table 4's cluster) and is drawn once from [`POPULATION_SEED`]: with 38
//! VMs and 120 functions, redrawing it moves offered load against
//! capacity by tens of percent, so every seed would be a different
//! operating point (seed 1 saturates the 38-VM cluster: P99 3 250 s
//! against 48 s) and no two seeds could be compared within any bound.
//!
//! The Table-4 Harvest cluster, the Fig. 19 replay trace, the cron
//! overlay and the 1 600-VM fleet are *copies* of the builders in
//! `crates/bench` (`replay.rs`, `coldstart.rs`, `perfsmoke.rs`), taken on
//! purpose: a later edit to an experiment regenerator must not move a
//! benchmark workload.

use std::time::Instant;

use harvest_faas::funcbench;
use hrv_fault::{FaultPlan, FaultSpec};
use hrv_lb::policy::PolicyKind;
use hrv_platform::config::{ColdStartConfig, HybridHistogramConfig, PlatformConfig};
use hrv_platform::world::ClusterSpec;
use hrv_platform::TelemetryConfig;
use hrv_trace::arrival::{RateProfile, TimeVaryingPoisson};
use hrv_trace::dist::weighted_choice;
use hrv_trace::faas::{AppId, FunctionId, Invocation, Workload, WorkloadSpec};
use hrv_trace::harvest::{CpuChangeModel, VmEnd, VmTrace};
use hrv_trace::rng::SeedFactory;
use hrv_trace::time::{SimDuration, SimTime};
use rand::RngExt;

/// Seed of every workload's population (see the module docs).
pub const POPULATION_SEED: u64 = 76;

/// The two seed roots a workload draws from.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Functions, clusters, timers: fixed at [`POPULATION_SEED`].
    pub population: SeedFactory,
    /// Arrivals, durations, tie-breaks, faults: the `--seed` argument.
    pub run: SeedFactory,
}

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        Seeds {
            population: SeedFactory::new(POPULATION_SEED),
            run: SeedFactory::new(seed),
        }
    }
}

/// Invokers in the `fleet_*` workloads: 102 400 hash-ring members at the
/// ring's 64 vnodes per member.
pub const FLEET_INVOKERS: u64 = 1_600;
/// Offered rate of the `fleet_*` workloads. The fleet's ~6 400 CPUs serve
/// this with headroom; the full 10 532 req/s `F_large` volume does not
/// fit and leaves 83 % of invocations censored (see README).
pub const FLEET_RPS: f64 = 1_200.0;
/// Arrival window of the `fleet_*` workloads.
pub const FLEET_ARRIVALS: SimDuration = SimDuration::from_secs(360);
/// Drain after the last arrival, so completion reports land before the
/// run is censored (the conservation defect in README needs them to).
pub const FLEET_DRAIN: SimDuration = SimDuration::from_secs(120);
/// Controller replicas in the `fleet_*` workloads.
pub const FLEET_REPLICAS: u32 = 4;
/// Length of the stretched §7.6 replay.
pub const REPLAY_HORIZON: SimDuration = SimDuration::from_hours(36);
/// Length of each `policy_sweep` cell.
pub const SWEEP_HORIZON: SimDuration = SimDuration::from_hours(4);
/// Slack after the arrival window on the 38-VM workloads.
pub const REPLAY_TAIL: SimDuration = SimDuration::from_mins(5);

/// One simulation's inputs.
#[derive(Debug, Clone)]
pub struct SimInputs {
    pub cluster: ClusterSpec,
    pub trace: Vec<Invocation>,
    pub cfg: PlatformConfig,
    pub policy: PolicyKind,
    pub faults: FaultPlan,
    /// Run length (arrival window plus drain).
    pub horizon: SimDuration,
    /// Platform seed (tie-break rolls).
    pub seed: u64,
}

/// Host seconds spent generating inputs, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputTimes {
    pub generate_s: f64,
    pub cluster_build_s: f64,
    pub fault_compile_s: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// The Figure 19 concurrency shape scaled to `h`: ≈40 concurrent
/// invocations ramping to ≈120 at 40 % of the run, then tapering.
fn rate_profile(h: SimDuration) -> RateProfile {
    // Concurrency = rate × E[duration]; replay functions average ≈ 7 s.
    let mean_duration = 7.0;
    let shape = [
        (0.00, 40.0),
        (0.10, 55.0),
        (0.20, 75.0),
        (0.30, 100.0),
        (0.40, 120.0),
        (0.50, 110.0),
        (0.60, 90.0),
        (0.70, 80.0),
        (0.80, 65.0),
        (0.90, 50.0),
    ];
    RateProfile::new(
        shape
            .iter()
            .map(|&(frac, conc)| (h.mul_f64(frac), conc / mean_duration))
            .collect(),
    )
}

/// The §7.6 combined replay trace: time-varying aggregate arrivals over
/// 120 FunctionBench functions picked by popularity, durations floored at
/// the paper's 2 s busy loops.
pub fn replay_trace(h: SimDuration, seeds: &Seeds) -> Vec<Invocation> {
    let workload = funcbench::workload(120, 1.0, &seeds.population);
    let weights: Vec<(usize, f64)> = workload
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.rate_rps))
        .collect();
    let mut rng = seeds.run.stream("replay-arrivals");
    let times = TimeVaryingPoisson::new(rate_profile(h)).times(&mut rng, SimTime::ZERO, h);
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let app = &workload.apps[*weighted_choice(&mut rng, &weights)];
            Invocation {
                id: i as u64,
                function: FunctionId {
                    app: app.id,
                    func: 0,
                },
                arrival: t,
                duration: app.sample_duration(&mut rng).max(SimDuration::from_secs(2)),
                memory_mb: app.memory_mb,
                cpu_demand: 1.0,
            }
        })
        .collect()
}

/// The replay trace plus 100 cron-like functions with 11–18 min periods:
/// past the 10-minute fixed keep-alive, so the fixed policy cold-starts
/// every one of them and the hybrid histogram can learn to prewarm.
pub fn cron_trace(h: SimDuration, seeds: &Seeds) -> Vec<Invocation> {
    const CRON_APP_BASE: u32 = 9_000;
    let mut out = replay_trace(h, seeds);
    let mut rng = seeds.population.stream("coldstart-periodic");
    let end = SimTime::ZERO + h;
    for k in 0..100u32 {
        let period_secs = rng.random_range(660.0..1080.0f64);
        let duration = SimDuration::from_secs_f64(rng.random_range(2.0..4.0f64));
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.random_range(0.0..period_secs));
        while t < end {
            out.push(Invocation {
                id: 0,
                function: FunctionId {
                    app: AppId(CRON_APP_BASE + k),
                    func: 0,
                },
                arrival: t,
                duration,
                memory_mb: 256,
                cpu_demand: 1.0,
            });
            let jitter = rng.random_range(-0.02..0.02f64);
            t += SimDuration::from_secs_f64(period_secs * (1.0 + jitter));
        }
    }
    out.sort_by_key(|i| (i.arrival, i.function.app.0, i.function.func));
    for (i, inv) in out.iter_mut().enumerate() {
        inv.id = i as u64;
    }
    out
}

/// Table 4's Harvest cluster: 38 VMs, base 2 / max 6 CPUs, 16 GiB,
/// paper-calibrated CPU changes, alive for all of `h`.
pub fn harvest_cluster(h: SimDuration, seeds: &Seeds) -> ClusterSpec {
    let end = SimTime::ZERO + h;
    let model = CpuChangeModel::paper_calibrated();
    let vms = (0..38)
        .map(|i| {
            let mut rng = seeds.population.stream_indexed("replay-harvest", i);
            let initial = rng.random_range(2..=6u32);
            VmTrace {
                deploy: SimTime::ZERO,
                end,
                ended: VmEnd::Censored,
                base_cpus: 2,
                max_cpus: 6,
                initial_cpus: initial,
                memory_mb: 16 * 1024,
                cpu_changes: model.generate(&mut rng, SimTime::ZERO, end, 2, 6, initial),
            }
        })
        .collect();
    ClusterSpec::from_traces(vms)
}

/// The paper-scale fleet: 1 600 Harvest VMs (2/6/4 base/max/initial
/// CPUs, 32 GiB) under the high-churn CPU-change model, one VM in fifty
/// evicted at t = 40 s so migration works inside the measured window.
pub fn fleet_cluster(h: SimDuration, seeds: &Seeds) -> ClusterSpec {
    let tail = SimTime::ZERO + h;
    let model = CpuChangeModel::active();
    let vms = (0..FLEET_INVOKERS)
        .map(|i| {
            let mut rng = seeds.population.stream_indexed("fleet-harvest", i);
            let (end, ended) = if i % 50 == 17 {
                (SimTime::ZERO + SimDuration::from_secs(40), VmEnd::Evicted)
            } else {
                (tail, VmEnd::Censored)
            };
            VmTrace {
                deploy: SimTime::ZERO,
                end,
                ended,
                base_cpus: 2,
                max_cpus: 6,
                initial_cpus: 4,
                memory_mb: 32 * 1024,
                cpu_changes: model.generate(&mut rng, SimTime::ZERO, end, 2, 6, 4),
            }
        })
        .collect();
    ClusterSpec::from_traces(vms)
}

/// Inputs shared byte for byte by `fleet_s1` and `fleet_s2`.
pub fn fleet_inputs(seeds: &Seeds, times: &mut InputTimes) -> SimInputs {
    let horizon = FLEET_ARRIVALS + FLEET_DRAIN;
    let mut cfg = PlatformConfig {
        bus_latency: SimDuration::from_millis(50),
        ping_interval: SimDuration::from_secs(5),
        sample_interval: SimDuration::from_secs(5),
        ..PlatformConfig::default()
    };
    cfg.sharding.replicas = FLEET_REPLICAS;
    cfg.migration.enabled = true;
    let trace = timed(&mut times.generate_s, || {
        let spec = WorkloadSpec::paper_flarge_scaled(20_809).scaled(20_809, FLEET_RPS);
        Workload::generate(&spec, &seeds.population)
            .invocations(FLEET_ARRIVALS, &seeds.run.child("arrivals"))
    });
    let cluster = timed(&mut times.cluster_build_s, || fleet_cluster(horizon, seeds));
    SimInputs {
        cluster,
        trace,
        cfg,
        policy: PolicyKind::Mws,
        faults: FaultPlan::none(),
        horizon,
        seed: seeds.run.seed_for("platform"),
    }
}

/// Inputs of `harvest_replay` (`telemetry` off) and `harvest_replay_tel`
/// (`telemetry` on): identical apart from that switch.
pub fn replay_inputs(
    seeds: &Seeds,
    telemetry: TelemetryConfig,
    times: &mut InputTimes,
) -> SimInputs {
    let h = REPLAY_HORIZON;
    let trace = timed(&mut times.generate_s, || replay_trace(h, seeds));
    let cluster = timed(&mut times.cluster_build_s, || {
        harvest_cluster(h + REPLAY_TAIL, seeds)
    });
    SimInputs {
        cluster,
        trace,
        cfg: PlatformConfig {
            telemetry,
            ..PlatformConfig::default()
        },
        policy: PolicyKind::Mws,
        faults: FaultPlan::none(),
        horizon: h + REPLAY_TAIL,
        seed: seeds.run.seed_for("platform"),
    }
}

/// The fault scenario of the faulty half of `policy_sweep`: the chaos
/// suite's nominal mix with crash-stop kills turned down to 2 per hour.
/// At the suite's 18 per hour a 4-hour cell ends with casualties still in
/// flight and trips the conservation defect (see README).
pub fn sweep_fault_spec() -> FaultSpec {
    FaultSpec {
        crashes_per_hour: 2.0,
        ..FaultSpec::chaos(1.0)
    }
}

/// The 12 cells of `policy_sweep`, in a fixed order:
/// {MWS, JSQ, vanilla(4 GiB)} × {fixed, hybrid} × {no faults, faults with
/// recovery on}.
pub fn sweep_inputs(seeds: &Seeds, times: &mut InputTimes) -> Vec<SimInputs> {
    let h = SWEEP_HORIZON;
    let horizon = h + REPLAY_TAIL;
    let trace = timed(&mut times.generate_s, || cron_trace(h, seeds));
    let cluster = timed(&mut times.cluster_build_s, || {
        harvest_cluster(horizon, seeds)
    });
    let plan = timed(&mut times.fault_compile_s, || {
        sweep_fault_spec().compile(
            cluster.vms.len() as u32,
            horizon,
            &seeds.run.child("faults"),
        )
    });
    let lbs = [
        ("mws", PolicyKind::Mws),
        ("jsq", PolicyKind::Jsq),
        ("vanilla", PolicyKind::VanillaQuota(4 * 1024)),
    ];
    let coldstarts = [
        ColdStartConfig::Fixed,
        ColdStartConfig::Hybrid(HybridHistogramConfig::default()),
    ];
    let mut cells = Vec::with_capacity(12);
    for (lb_label, policy) in lbs {
        for coldstart in coldstarts {
            for faulty in [false, true] {
                let mut cfg = PlatformConfig {
                    coldstart,
                    ..PlatformConfig::default()
                };
                cfg.recovery.enabled = faulty;
                cells.push(SimInputs {
                    cluster: cluster.clone(),
                    trace: trace.clone(),
                    cfg,
                    policy,
                    faults: if faulty {
                        plan.clone()
                    } else {
                        FaultPlan::none()
                    },
                    horizon,
                    seed: seeds.run.seed_for(lb_label),
                });
            }
        }
    }
    cells
}
