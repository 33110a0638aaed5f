//! The experiment harness: parameterized runs behind every figure and
//! table of the evaluation (Section 7), reusable from examples, benches,
//! and the `experiments` binary.

use serde::{Deserialize, Serialize};

use hrv_fault::FaultSpec;
use hrv_lb::policy::PolicyKind;
use hrv_platform::config::PlatformConfig;
use hrv_platform::tel::{CounterId, CounterRegistry, PhaseComponents};
use hrv_platform::world::{ClusterSpec, Simulation};
use hrv_platform::ShardedSimulation;
use hrv_trace::faas::Invocation;
use hrv_trace::harvest::VmTrace;
use hrv_trace::rng::SeedFactory;
use hrv_trace::stream::WorkloadStream;
use hrv_trace::time::{SimDuration, SimTime};

use crate::funcbench;

/// The paper's SLO: P99 end-to-end latency of 50 seconds (Section 7.1).
pub const P99_SLO_SECS: f64 = 50.0;

/// Process-wide default shard count picked up by [`SweepConfig`]
/// construction (the `experiments --shards N` wiring). Results are
/// byte-identical for any value — this only changes how many cores one
/// simulation point uses.
static DEFAULT_SHARDS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);

/// Sets the default shard count for subsequently built [`SweepConfig`]s.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn set_default_shards(shards: u32) {
    assert!(shards >= 1, "need at least one shard");
    DEFAULT_SHARDS.store(shards, std::sync::atomic::Ordering::Relaxed);
}

/// The current default shard count.
pub fn default_shards() -> u32 {
    DEFAULT_SHARDS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Runs independent jobs on a bounded worker pool and collects results
/// in input order.
///
/// Simulations are single-threaded and deterministic, so fan-out across
/// seeds/points is embarrassingly parallel. The pool is sized to the
/// machine (`available_parallelism`), never to the job count: a 256-point
/// sweep spawns a handful of threads, not 256.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    run_parallel_with(workers, jobs)
}

/// [`run_parallel`] with an explicit worker count.
///
/// Workers self-schedule over the job list (atomic index claim), so an
/// unlucky long job never stalls the rest of the batch behind a static
/// partition. Results land in per-job slots: the output order — and, for
/// deterministic jobs, every byte of the output — is identical for any
/// worker count, including 1.
///
/// # Panics
///
/// Propagates the first observed job panic after all workers stop.
pub fn run_parallel_with<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        // Degenerate pool: run inline on this thread.
        return jobs.into_iter().map(|job| job()).collect();
    }
    let workers = workers.min(n);
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("job index claimed twice");
                    *slots[i].lock().unwrap() = Some(job());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("experiment job panicked");
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("worker poisoned a result slot")
                .expect("claimed job left no result")
        })
        .collect()
}

/// One measured operating point of a latency-vs-load sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Offered load, requests/second.
    pub rps: f64,
    /// P99 end-to-end latency, seconds (`None` if nothing completed).
    pub p99: Option<f64>,
    /// P75 latency.
    pub p75: Option<f64>,
    /// Median latency.
    pub p50: Option<f64>,
    /// P25 latency.
    pub p25: Option<f64>,
    /// Cold-start rate among started invocations.
    pub cold_rate: f64,
    /// Eviction failure rate.
    pub failure_rate: f64,
    /// Completed invocations in the measurement window.
    pub completed: u64,
    /// Arrivals in the measurement window.
    pub arrivals: u64,
    /// Containers the cold-start policy prewarmed (whole run — policy
    /// totals are not warmup-cut).
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers reaped without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·s (whole run).
    pub idle_mib_secs: f64,
    /// Additive phase split of the P99 representative invocation
    /// (telemetry-enabled materialized runs; `None` otherwise).
    pub p99_phases: Option<PhaseComponents>,
}

/// A policy's full latency-vs-load curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Policy / cluster label.
    pub label: String,
    /// Points in ascending load order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Highest offered load whose P99 met `slo_secs` — the paper's
    /// "throughput without breaking the SLO". Zero if no point qualifies.
    pub fn max_rps_under_slo(&self, slo_secs: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| {
                // A point that completed almost nothing is saturated even
                // if the few completions were fast.
                let goodput_ok = p.arrivals == 0 || p.completed as f64 >= 0.9 * p.arrivals as f64;
                goodput_ok && p.p99.map(|v| v <= slo_secs).unwrap_or(false)
            })
            .map(|p| p.rps)
            .fold(0.0, f64::max)
    }
}

/// Configuration of one latency-vs-load sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Functions in the benchmark suite (paper: 401).
    pub n_functions: usize,
    /// Offered loads to probe, requests/second.
    pub rps_points: Vec<f64>,
    /// Measured run length per point (paper: 20 minutes).
    pub duration: SimDuration,
    /// Warm-up discarded from metrics.
    pub warmup: SimDuration,
    /// Platform settings.
    pub platform: PlatformConfig,
    /// Root seed.
    pub seed: u64,
    /// Shards (worker cores) per simulation point; results are
    /// byte-identical for any value (0 and 1 both run the unsharded
    /// driver).
    pub shards: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            n_functions: 401,
            rps_points: vec![1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            duration: SimDuration::from_mins(20),
            warmup: SimDuration::from_mins(3),
            platform: PlatformConfig::default(),
            seed: 2021,
            shards: default_shards(),
        }
    }
}

impl SweepConfig {
    /// A fast variant for tests and smoke benches.
    pub fn quick() -> Self {
        SweepConfig {
            n_functions: 60,
            rps_points: vec![1.0, 4.0, 8.0, 16.0],
            duration: SimDuration::from_mins(5),
            warmup: SimDuration::from_mins(1),
            ..SweepConfig::default()
        }
    }
}

/// Makes a degraded shard request visible: warns on stderr and bumps the
/// `shard_degrades` counter. Returns whether a degrade happened.
fn note_shard_degrade(counters: &mut CounterRegistry, requested: u32, effective: u32) -> bool {
    if requested <= effective {
        return false;
    }
    eprintln!(
        "warning: requested {requested} shards degraded to {effective} \
         (driver runs a single world)"
    );
    counters.incr(CounterId::ShardDegrades);
    true
}

/// Runs one simulation point and reduces it to a [`SweepPoint`].
///
/// With `cfg.shards > 1` the point runs on the sharded multi-core driver;
/// the byte-identity contract makes the result independent of the shard
/// count.
pub fn run_point(
    cluster: &ClusterSpec,
    policy: PolicyKind,
    rps: f64,
    cfg: &SweepConfig,
) -> SweepPoint {
    let seeds = SeedFactory::new(cfg.seed).child("sweep");
    let workload = funcbench::workload(cfg.n_functions, rps, &seeds);
    let trace = workload.invocations(cfg.duration, &seeds.child("arrivals"));
    // Allow a drain tail after the offered-load window.
    let horizon = cfg.duration + SimDuration::from_mins(3);
    let out = if cfg.shards > 1 {
        ShardedSimulation::new(
            cluster.clone(),
            trace,
            policy,
            cfg.platform.clone(),
            seeds.seed_for("platform"),
            cfg.shards,
        )
        .run(horizon)
    } else {
        Simulation::new(
            cluster.clone(),
            trace,
            policy.build(),
            cfg.platform.clone(),
            seeds.seed_for("platform"),
        )
        .run(horizon)
    };
    let m = out.collector.aggregate(SimTime::ZERO + cfg.warmup);
    let s = &out.collector.streaming;
    SweepPoint {
        rps,
        p99: m.latency_percentile(99.0),
        p75: m.latency_percentile(75.0),
        p50: m.latency_percentile(50.0),
        p25: m.latency_percentile(25.0),
        cold_rate: m.cold_start_rate,
        failure_rate: m.failure_rate,
        completed: m.completed,
        arrivals: m.arrivals,
        prewarm_spawns: s.prewarm_spawns,
        prewarm_hits: s.prewarm_hits,
        wasted_prewarms: s.wasted_prewarms,
        idle_mib_secs: s.idle_mib_secs,
        p99_phases: m.phases.as_ref().map(|a| a.percentile(99.0)),
    }
}

/// [`run_point`] through the lazy streaming pipeline: arrivals come from
/// a [`WorkloadStream`] (O(apps) generator state, byte-identical to the
/// materialized trace) and metrics from the constant-memory aggregates —
/// no per-invocation records are kept, so resident memory is independent
/// of the run length.
///
/// Trade-offs versus [`run_point`]: latency percentiles are histogram
/// estimates (within one bin width, ≈ 12 %, of the exact order
/// statistics) and there is no warmup cut — the aggregates cover the
/// whole run. Counters (`arrivals`, `completed`) are exact and identical
/// to a materialized run under the same config.
pub fn run_point_streaming(
    cluster: &ClusterSpec,
    policy: PolicyKind,
    rps: f64,
    cfg: &SweepConfig,
) -> SweepPoint {
    let seeds = SeedFactory::new(cfg.seed).child("sweep");
    let workload = funcbench::workload(cfg.n_functions, rps, &seeds);
    let arrivals = WorkloadStream::new(workload, cfg.duration, &seeds.child("arrivals"));
    let platform = PlatformConfig {
        record_invocations: false,
        ..cfg.platform.clone()
    };
    let sim = Simulation::streaming(
        cluster.clone(),
        arrivals,
        policy.build(),
        platform,
        seeds.seed_for("platform"),
    );
    let mut out = sim.run(cfg.duration + SimDuration::from_mins(3));
    // The streaming pipeline drives one world on one core; a multi-shard
    // request quietly ran solo. Surface that instead of hiding it.
    note_shard_degrade(&mut out.collector.counters, cfg.shards, 1);
    let s = &out.collector.streaming;
    SweepPoint {
        rps,
        p99: s.latency_percentile(99.0),
        p75: s.latency_percentile(75.0),
        p50: s.latency_percentile(50.0),
        p25: s.latency_percentile(25.0),
        cold_rate: s.cold_start_rate(),
        failure_rate: s.failure_rate(),
        completed: s.completed,
        arrivals: out.collector.arrivals,
        prewarm_spawns: s.prewarm_spawns,
        prewarm_hits: s.prewarm_hits,
        wasted_prewarms: s.wasted_prewarms,
        idle_mib_secs: s.idle_mib_secs,
        // Streaming runs keep no per-invocation phase rows.
        p99_phases: None,
    }
}

/// Full latency-vs-load sweep for one policy on one cluster, points run
/// in parallel.
pub fn latency_sweep(
    cluster: &ClusterSpec,
    policy: PolicyKind,
    label: &str,
    cfg: &SweepConfig,
) -> SweepResult {
    let jobs: Vec<_> = cfg
        .rps_points
        .iter()
        .map(|&rps| {
            let cluster = cluster.clone();
            let cfg = cfg.clone();
            move || run_point(&cluster, policy, rps, &cfg)
        })
        .collect();
    let points = run_parallel(jobs);
    SweepResult {
        label: label.to_string(),
        points,
    }
}

/// Aggregate outcome of a multi-seed reliability run (Section 4.3,
/// Strategy 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReliabilityResult {
    /// Seeds simulated.
    pub seeds: u32,
    /// Total invocations across seeds.
    pub invocations: u64,
    /// Invocations killed by VM evictions.
    pub eviction_failures: u64,
    /// Pooled failure rate.
    pub failure_rate: f64,
    /// Mean cold-start rate.
    pub cold_start_rate: f64,
    /// VM evictions observed.
    pub vm_evictions: u64,
}

/// Runs the eviction-reliability experiment: the given VM window (already
/// re-based to `t = 0`) hosts a generated workload, repeated across
/// `n_seeds` independent workload/seed draws.
pub fn reliability(
    vms: &[VmTrace],
    workload_spec: &hrv_trace::faas::WorkloadSpec,
    horizon: SimDuration,
    n_seeds: u32,
    policy: PolicyKind,
    platform: &PlatformConfig,
    root_seed: u64,
) -> ReliabilityResult {
    assert!(n_seeds >= 1);
    let jobs: Vec<_> = (0..n_seeds)
        .map(|s| {
            let vms = vms.to_vec();
            let platform = platform.clone();
            let spec = workload_spec.clone();
            move || {
                let seeds = SeedFactory::new(root_seed).child_indexed("rel", u64::from(s));
                let workload = hrv_trace::faas::Workload::generate(&spec, &seeds);
                let trace = workload.invocations(horizon, &seeds.child("arrivals"));
                let sim = Simulation::new(
                    ClusterSpec::from_traces(vms),
                    trace,
                    policy.build(),
                    platform,
                    seeds.seed_for("platform"),
                );
                // Drain past the window edge: evictions scheduled exactly
                // at the horizon (storms clipped to the window boundary)
                // must still fire, and in-flight work must settle.
                let out = sim.run(horizon + SimDuration::from_mins(10));
                let m = out.collector.aggregate(SimTime::ZERO);
                (
                    m.arrivals,
                    m.eviction_failures,
                    m.cold_start_rate,
                    out.collector.vm_evictions,
                )
            }
        })
        .collect();
    let results = run_parallel(jobs);
    let invocations: u64 = results.iter().map(|r| r.0).sum();
    let failures: u64 = results.iter().map(|r| r.1).sum();
    let cold: f64 = results.iter().map(|r| r.2).sum::<f64>() / results.len() as f64;
    let evictions: u64 = results.iter().map(|r| r.3).sum();
    ReliabilityResult {
        seeds: n_seeds,
        invocations,
        eviction_failures: failures,
        failure_rate: if invocations == 0 {
            0.0
        } else {
            failures as f64 / invocations as f64
        },
        cold_start_rate: cold,
        vm_evictions: evictions,
    }
}

/// One measured operating point of a chaos (fault-injection) run: the
/// Section-4-style degradation reading for one fault intensity × policy ×
/// recovery combination.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Arrivals in the measurement window.
    pub arrivals: u64,
    /// Completed invocations in the measurement window.
    pub completed: u64,
    /// `completed / arrivals` — the fraction of offered work delivered.
    pub goodput: f64,
    /// P99 end-to-end latency, seconds (`None` if nothing completed).
    pub p99: Option<f64>,
    /// Invocations permanently destroyed: eviction failures plus
    /// post-retry losses.
    pub work_lost: u64,
    /// Of `work_lost`, those that exhausted (or never had) recovery.
    pub lost: u64,
    /// Of `work_lost`, those reported through the legacy eviction-failure
    /// path (recovery disabled).
    pub eviction_failures: u64,
    /// Re-dispatch attempts recovery actually launched.
    pub retries: u64,
    /// Destroyed placements recovery picked up for re-dispatch.
    pub redispatches: u64,
    /// Crash-stop kills the fault plan landed.
    pub crashes: u64,
    /// Total invoker-seconds spent quarantined.
    pub quarantine_secs: f64,
}

/// Runs one fault-injected simulation point: compiles `fault` into a
/// deterministic plan over the run horizon, injects it, and reduces the
/// run to a [`ChaosPoint`]. The workload, plan, and platform seeds all
/// derive from `cfg.seed`, so the same arguments always reproduce the
/// same point; `recovery` toggles the platform's retry/re-dispatch/
/// quarantine machinery while changing nothing else.
///
/// # Panics
///
/// Panics if the run violates invocation conservation
/// (arrivals ≠ completed + destroyed + rejected + censored).
pub fn chaos_point(
    cluster: &ClusterSpec,
    policy: PolicyKind,
    rps: f64,
    cfg: &SweepConfig,
    fault: &FaultSpec,
    recovery: bool,
) -> ChaosPoint {
    let seeds = SeedFactory::new(cfg.seed).child("chaos");
    let workload = funcbench::workload(cfg.n_functions, rps, &seeds);
    let trace = workload.invocations(cfg.duration, &seeds.child("arrivals"));
    let horizon = cfg.duration + SimDuration::from_mins(3);
    let plan = fault.compile(cluster.vms.len() as u32, horizon, &seeds.child("faults"));
    let mut platform = cfg.platform.clone();
    platform.recovery.enabled = recovery;
    let out = if cfg.shards > 1 {
        ShardedSimulation::with_faults(
            cluster.clone(),
            trace,
            policy,
            platform,
            seeds.seed_for("platform"),
            plan,
            cfg.shards,
        )
        .run(horizon)
    } else {
        Simulation::with_faults(
            cluster.clone(),
            trace,
            policy.build(),
            platform,
            seeds.seed_for("platform"),
            plan,
        )
        .run(horizon)
    };
    out.assert_conservation();
    let m = out.collector.aggregate(SimTime::ZERO + cfg.warmup);
    ChaosPoint {
        arrivals: m.arrivals,
        completed: m.completed,
        goodput: if m.arrivals == 0 {
            0.0
        } else {
            m.completed as f64 / m.arrivals as f64
        },
        p99: m.latency_percentile(99.0),
        work_lost: m.eviction_failures + m.lost,
        lost: m.lost,
        eviction_failures: m.eviction_failures,
        retries: out.collector.streaming.retries,
        redispatches: out.collector.streaming.redispatches,
        crashes: out.collector.vm_crashes,
        quarantine_secs: out.collector.streaming.quarantine_secs,
    }
}

/// One row of the Harvest-vs-Spot comparison (Figure 18).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotCompareRow {
    /// "H2".."H8" / "S2".."S48".
    pub label: String,
    /// Invocation failure rate.
    pub failure_rate: f64,
    /// Cold-start rate.
    pub cold_start_rate: f64,
    /// Delivered CPU×time normalized to the cluster's idle CPU×time.
    pub normalized_cpu_time: f64,
    /// Amortized $/CPU-hour.
    pub core_price: f64,
    /// VM evictions observed.
    pub vm_evictions: u64,
}

/// Runs one VM-packing variant of the Figure 18 comparison.
#[allow(clippy::too_many_arguments)]
pub fn spot_compare_row(
    label: &str,
    vms: Vec<VmTrace>,
    idle_cpu_seconds: f64,
    discounts: crate::cost::Discounts,
    is_harvest: bool,
    workload_trace: &[Invocation],
    horizon: SimDuration,
    platform: &PlatformConfig,
    seed: u64,
) -> SpotCompareRow {
    use crate::cost::{amortized_core_price, spot_vm_rate, REGULAR_CORE_HOUR};
    use hrv_trace::harvest::INSTALL_TIME;
    use hrv_trace::physical::usable_cpu_seconds;

    let delivered = usable_cpu_seconds(&vms, INSTALL_TIME);
    let price = if is_harvest {
        amortized_core_price(&vms, discounts, INSTALL_TIME)
    } else {
        // Spot: every core at the evictable price; amortize install waste.
        let total: f64 = vms.iter().map(VmTrace::cpu_seconds).sum();
        let rate_per_core = spot_vm_rate(1, discounts);
        if delivered <= 0.0 {
            None
        } else {
            Some(total * rate_per_core / delivered * REGULAR_CORE_HOUR)
        }
    };
    let sim = Simulation::new(
        ClusterSpec::from_traces(vms),
        workload_trace.to_vec(),
        PolicyKind::Mws.build(),
        platform.clone(),
        seed,
    );
    let out = sim.run(horizon);
    let m = out.collector.aggregate(SimTime::ZERO);
    SpotCompareRow {
        label: label.to_string(),
        failure_rate: m.failure_rate,
        cold_start_rate: m.cold_start_rate,
        normalized_cpu_time: if idle_cpu_seconds > 0.0 {
            delivered / idle_cpu_seconds
        } else {
            0.0
        },
        core_price: price.unwrap_or(f64::NAN),
        vm_evictions: out.collector.vm_evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::harvest::heterogeneous_sizes;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<_> = (0..8).map(|i| move || i * 10).collect();
        assert_eq!(run_parallel(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_parallel_bounds_threads_below_job_count() {
        // 100 jobs on 3 workers: with one thread per job this would spawn
        // 100 threads; the pool must still claim every index exactly once.
        let jobs: Vec<_> = (0..100u64).map(|i| move || i * i).collect();
        let out = run_parallel_with(3, jobs);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_is_deterministic_across_worker_counts() {
        // Float-heavy jobs whose results depend on evaluation order if the
        // executor were to shuffle outputs: the logistic map diverges fast,
        // so any slot mix-up produces wildly different bits.
        fn job(seed: u64) -> impl FnOnce() -> f64 + Send {
            move || {
                let mut x = (seed as f64 + 0.5) / 1_000.0;
                for _ in 0..10_000 {
                    x = 3.999 * x * (1.0 - x);
                }
                x
            }
        }
        let serial = run_parallel_with(1, (0..64).map(job).collect());
        for workers in [2, 5, 16] {
            let parallel = run_parallel_with(workers, (0..64).map(job).collect());
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results differ between 1 and {workers} workers");
        }
    }

    #[test]
    fn sweep_point_runs_and_reports() {
        let cfg = SweepConfig {
            n_functions: 20,
            duration: SimDuration::from_mins(2),
            warmup: SimDuration::from_secs(30),
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
        let p = run_point(&cluster, PolicyKind::Mws, 3.0, &cfg);
        assert!(p.arrivals > 100);
        assert!(p.completed as f64 > 0.9 * p.arrivals as f64);
        assert!(p.p99.is_some());
    }

    #[test]
    fn streaming_point_matches_materialized_counters() {
        let cfg = SweepConfig {
            n_functions: 25,
            duration: SimDuration::from_mins(3),
            warmup: SimDuration::ZERO,
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
        let exact = run_point(&cluster, PolicyKind::Mws, 4.0, &cfg);
        let streamed = run_point_streaming(&cluster, PolicyKind::Mws, 4.0, &cfg);
        // Same seeds, byte-identical arrival stream, same platform RNG:
        // the two runs simulate the same history, so counters agree
        // exactly (warmup = 0 aligns the record-sink window with the
        // whole-run streaming aggregates).
        assert_eq!(streamed.arrivals, exact.arrivals);
        assert_eq!(streamed.completed, exact.completed);
        assert!(streamed.arrivals > 100);
        // Histogram percentile within ~1.5 bin widths of the exact one.
        let (a, b) = (streamed.p50.unwrap(), exact.p50.unwrap());
        assert!((a / b).ln().abs() < 0.2, "{a} vs {b}");
    }

    #[test]
    fn sharded_sweep_point_matches_single_shard() {
        let base = SweepConfig {
            n_functions: 20,
            duration: SimDuration::from_mins(2),
            warmup: SimDuration::from_secs(30),
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
        let solo = run_point(&cluster, PolicyKind::Mws, 3.0, &base);
        let sharded = run_point(
            &cluster,
            PolicyKind::Mws,
            3.0,
            &SweepConfig { shards: 4, ..base },
        );
        assert_eq!(solo.arrivals, sharded.arrivals);
        assert_eq!(solo.completed, sharded.completed);
        assert_eq!(solo.p99, sharded.p99);
        assert_eq!(solo.cold_rate, sharded.cold_rate);
    }

    #[test]
    fn degraded_shard_requests_warn_and_count() {
        let mut counters = CounterRegistry::new();
        assert!(!note_shard_degrade(&mut counters, 1, 1));
        assert_eq!(counters.get(CounterId::ShardDegrades), 0);
        assert!(note_shard_degrade(&mut counters, 4, 1));
        assert_eq!(counters.get(CounterId::ShardDegrades), 1);
    }

    #[test]
    fn streaming_driver_counts_its_shard_degrade() {
        let cfg = SweepConfig {
            n_functions: 5,
            duration: SimDuration::from_mins(1),
            warmup: SimDuration::ZERO,
            shards: 4,
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(2, 8, 32 * 1024, SimDuration::from_mins(5));
        // The degrade is observable through the warning + counter path
        // exercised above; here we only check the run still completes
        // (the counter lives on the internal collector).
        let point = run_point_streaming(&cluster, PolicyKind::Mws, 1.0, &cfg);
        assert!(point.arrivals > 0);
    }

    #[test]
    fn sweep_detects_saturation() {
        let cfg = SweepConfig {
            n_functions: 30,
            rps_points: vec![0.2, 16.0],
            duration: SimDuration::from_mins(4),
            warmup: SimDuration::from_mins(1),
            ..SweepConfig::quick()
        };
        // A tiny 2-CPU cluster: fine at 0.5 rps, saturated at 16 rps
        // (offered ≈ 24 cores of demand).
        let cluster = ClusterSpec::regular(1, 2, 16 * 1024, SimDuration::from_mins(10));
        let sweep = latency_sweep(&cluster, PolicyKind::Mws, "tiny", &cfg);
        let max = sweep.max_rps_under_slo(P99_SLO_SECS);
        assert!(max >= 0.2, "low point should meet SLO: {sweep:?}");
        assert!(max < 16.0, "high point must saturate: {sweep:?}");
    }

    #[test]
    fn chaos_point_zero_fault_loses_nothing() {
        let cfg = SweepConfig {
            n_functions: 20,
            duration: SimDuration::from_mins(2),
            warmup: SimDuration::from_secs(30),
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
        let p = chaos_point(
            &cluster,
            PolicyKind::Mws,
            3.0,
            &cfg,
            &FaultSpec::none(),
            false,
        );
        assert!(p.arrivals > 100);
        assert_eq!(p.work_lost, 0);
        assert_eq!(p.crashes, 0);
        assert_eq!(p.retries, 0);
        assert!(p.goodput > 0.95, "goodput {}", p.goodput);
    }

    #[test]
    fn chaos_point_recovery_beats_none_under_crashes() {
        let cfg = SweepConfig {
            n_functions: 30,
            duration: SimDuration::from_mins(4),
            warmup: SimDuration::from_secs(30),
            ..SweepConfig::quick()
        };
        let cluster = ClusterSpec::regular(4, 8, 32 * 1024, SimDuration::from_mins(10));
        let fault = FaultSpec::chaos(1.0);
        let bare = chaos_point(&cluster, PolicyKind::Mws, 4.0, &cfg, &fault, false);
        let recovered = chaos_point(&cluster, PolicyKind::Mws, 4.0, &cfg, &fault, true);
        assert!(bare.crashes > 0, "no crashes landed: {bare:?}");
        assert!(recovered.retries > 0, "recovery never retried");
        assert!(
            recovered.work_lost < bare.work_lost,
            "recovery did not reduce lost work: {} vs {}",
            recovered.work_lost,
            bare.work_lost
        );
    }

    #[test]
    fn reliability_on_stable_cluster_has_no_failures() {
        let horizon = SimDuration::from_mins(10);
        let sizes = heterogeneous_sizes(4, 4, 16, 40);
        let vms = ClusterSpec::from_sizes(&sizes, 32 * 1024, horizon).vms;
        let spec = hrv_trace::faas::WorkloadSpec::paper_fsmall().scaled(20, 2.0);
        let r = reliability(
            &vms,
            &spec,
            horizon,
            2,
            PolicyKind::Random,
            &PlatformConfig::default(),
            9,
        );
        assert_eq!(r.eviction_failures, 0);
        assert_eq!(r.vm_evictions, 0);
        assert!(r.invocations > 1_000);
    }
}
