//! Regenerators for the trace-replay experiment on (simulated) real VMs
//! (Section 7.6): Figure 19 (concurrent invocations of the combined
//! trace), Figure 20 (cluster CPUs and utilization), Figure 21 (latency
//! CDFs), and Table 5 (latency reductions vs the regular cluster).

use harvest_faas::experiment::run_parallel;
use harvest_faas::funcbench;
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::metrics::Outcome;
use harvest_faas::hrv_platform::world::{ClusterSpec, SimOutput, Simulation};
use harvest_faas::hrv_trace::arrival::{RateProfile, TimeVaryingPoisson};
use harvest_faas::hrv_trace::dist::weighted_choice;
use harvest_faas::hrv_trace::faas::Invocation;
use harvest_faas::hrv_trace::harvest::{CpuChangeModel, VmEnd, VmTrace};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::stats::Cdf;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use harvest_faas::report::{pct, secs, Table};
use rand::RngExt;

use crate::scale::Scale;

/// The experiment horizon: the paper replays a combined 2-hour snapshot.
pub fn horizon(scale: Scale) -> SimDuration {
    scale.pick(SimDuration::from_mins(40), SimDuration::from_hours(2))
}

/// The Figure 19 concurrency shape, scaled to the run horizon: ramps from
/// ~40 concurrent invocations to a peak of ~120 around 40 % of the run,
/// then tapers.
pub fn rate_profile(h: SimDuration) -> RateProfile {
    // Concurrency = rate × E[duration]; the replay functions average
    // ≈ 7 s, so rates span ≈ 5.5 → 17 → 7 req/s.
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

/// Generates the combined replay trace: time-varying aggregate arrivals
/// assigned to FunctionBench functions by popularity.
pub fn replay_trace(h: SimDuration, seeds: &SeedFactory) -> Vec<Invocation> {
    // CPU-intensive loops with seconds-scale durations (Section 7.6
    // reproduces trace invocations with busy loops of the same length).
    let workload = funcbench::workload(120, 1.0, seeds);
    let weights: Vec<(usize, f64)> = workload
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.rate_rps))
        .collect();
    let mut rng = seeds.stream("replay-arrivals");
    let process = TimeVaryingPoisson::new(rate_profile(h));
    let times = process.times(&mut rng, SimTime::ZERO, h);
    let mut out = Vec::with_capacity(times.len());
    for (i, t) in times.into_iter().enumerate() {
        let &app_idx = weighted_choice(&mut rng, &weights);
        let app = &workload.apps[app_idx];
        // Stretch durations toward the multi-second loops of the paper's
        // replay (floor at 2 s).
        let d = app.sample_duration(&mut rng).max(SimDuration::from_secs(2));
        out.push(Invocation {
            id: i as u64,
            function: harvest_faas::hrv_trace::faas::FunctionId {
                app: app.id,
                func: 0,
            },
            arrival: t,
            duration: d,
            memory_mb: app.memory_mb,
            cpu_demand: 1.0,
        });
    }
    out
}

/// Builds one Table 4 cluster by name.
pub fn cluster(kind: &str, h: SimDuration, seeds: &SeedFactory) -> ClusterSpec {
    let end = SimTime::ZERO + h;
    match kind {
        // 38 Harvest VMs: base 2, max 6 CPUs, 16 GB (Table 4), organic
        // CPU variation from the calibrated change model.
        "Harvest" => {
            let model = CpuChangeModel::paper_calibrated();
            let vms = (0..38)
                .map(|i| {
                    let mut rng = seeds.stream_indexed("replay-harvest", i);
                    let initial = rng.random_range(2..=6u32);
                    let changes = model.generate(&mut rng, SimTime::ZERO, end, 2, 6, initial);
                    VmTrace {
                        deploy: SimTime::ZERO,
                        end,
                        ended: VmEnd::Censored,
                        base_cpus: 2,
                        max_cpus: 6,
                        initial_cpus: initial,
                        memory_mb: 16 * 1024,
                        cpu_changes: changes,
                    }
                })
                .collect();
            ClusterSpec::from_traces(vms)
        }
        // 19 regular VMs: 8 CPUs / 32 GB.
        "Regular" => ClusterSpec::regular(19, 8, 32 * 1024, h),
        // 38 Spot VMs: 4 CPUs / 16 GB.
        "Spot-4" => ClusterSpec::regular(38, 4, 16 * 1024, h),
        // 3 Spot VMs: 48 CPUs / 192 GB.
        "Spot-48" => ClusterSpec::regular(3, 48, 192 * 1024, h),
        other => panic!("unknown replay cluster {other}"),
    }
}

/// Runs the four clusters of Section 7.6 (regular runs vanilla OpenWhisk,
/// everything else MWS).
pub fn run_all(scale: Scale) -> Vec<(String, SimOutput)> {
    let h = horizon(scale);
    let seeds = SeedFactory::new(76);
    let trace = replay_trace(h, &seeds);
    let platform = PlatformConfig {
        sample_interval: SimDuration::from_secs(60),
        ..PlatformConfig::default()
    };
    let kinds = ["Harvest", "Regular", "Spot-4", "Spot-48"];
    let jobs: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            let trace = trace.clone();
            let platform = platform.clone();
            move || {
                let policy = if kind == "Regular" {
                    // Deployed OpenWhisk bounds each invoker's pending
                    // memory with `userMemory` (a few GiB), so the regular
                    // cluster degrades instead of collapsing (Table 5's
                    // 32-74 % reductions, not orders of magnitude).
                    PolicyKind::VanillaQuota(4 * 1024)
                } else {
                    PolicyKind::Mws
                };
                let sim = Simulation::new(
                    cluster(kind, h, &seeds),
                    trace,
                    policy.build(),
                    platform,
                    seeds.seed_for(kind),
                );
                (kind.to_string(), sim.run(h + SimDuration::from_mins(5)))
            }
        })
        .collect();
    run_parallel(jobs)
}

fn latency_cdf(out: &SimOutput) -> Option<Cdf> {
    let lats: Vec<f64> = out
        .collector
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .map(|r| r.latency_secs)
        .collect();
    if lats.is_empty() {
        None
    } else {
        Some(Cdf::from_samples(lats))
    }
}

/// Figures 19–21 and Table 5 in one report (the runs are shared).
pub fn all(scale: Scale) -> String {
    let results = run_all(scale);
    let h = horizon(scale);

    // Figure 19: offered concurrency profile (rate × mean duration) and
    // the concurrency the harvest cluster actually served.
    let profile = rate_profile(h);
    let mut t19 = Table::new(
        "Figure 19 — concurrent invocations of the combined trace",
        &["time_frac", "offered_concurrency", "harvest_running"],
    );
    let harvest = &results[0].1;
    for s in harvest.collector.samples.iter().step_by(4) {
        let frac = s.at.as_secs_f64() / h.as_secs_f64();
        let offered = profile.rate_at(s.at.since(SimTime::ZERO)) * 7.0;
        t19.row(vec![
            format!("{frac:.2}"),
            format!("{offered:.0}"),
            format!("{:.0}", s.cpus_in_use),
        ]);
    }
    let mut out = t19.render();
    out.push_str("paper: peak of ~120 concurrent invocations; cluster sized at 150 CPUs\n\n");

    // Figure 20: CPUs and usage per cluster.
    let mut t20 = Table::new(
        "Figure 20 — cluster CPUs and usage over time",
        &[
            "time_frac",
            "Harvest cpus",
            "Harvest used",
            "Regular cpus",
            "Regular used",
            "Spot-4 cpus",
            "Spot-4 used",
            "Spot-48 cpus",
            "Spot-48 used",
        ],
    );
    let n_samples = results
        .iter()
        .map(|(_, o)| o.collector.samples.len())
        .min()
        .unwrap_or(0);
    for i in (0..n_samples).step_by(6) {
        let frac = results[0].1.collector.samples[i].at.as_secs_f64() / h.as_secs_f64();
        let mut row = vec![format!("{frac:.2}")];
        for (_, o) in &results {
            let s = o.collector.samples[i];
            row.push(s.total_cpus.to_string());
            row.push(format!("{:.0}", s.cpus_in_use));
        }
        t20.row(row);
    }
    out.push_str(&t20.render());
    out.push_str("paper: all clusters show similar utilization patterns\n\n");

    // Figure 21: latency CDFs (as percentiles).
    let cdfs: Vec<(String, Option<Cdf>)> = results
        .iter()
        .map(|(k, o)| (k.clone(), latency_cdf(o)))
        .collect();
    let mut t21 = Table::new(
        "Figure 21 — response latency percentiles (s)",
        &[
            "percentile",
            "Harvest+MWS",
            "Regular+vanilla",
            "Spot-4+MWS",
            "Spot-48+MWS",
        ],
    );
    let percentiles = [25.0, 50.0, 75.0, 90.0, 95.0, 99.0];
    for &p in &percentiles {
        let mut row = vec![format!("P{p:.0}")];
        for (_, cdf) in &cdfs {
            row.push(secs(cdf.as_ref().map(|c| c.percentile(p))));
        }
        t21.row(row);
    }
    out.push_str(&t21.render());
    out.push('\n');

    // Table 5: latency reductions vs the regular cluster.
    let mut t5 = Table::new(
        "Table 5 — latency reduction over the regular VM cluster",
        &[
            "percentile",
            "Harvest",
            "Spot-4",
            "Spot-48",
            "paper Harvest",
        ],
    );
    let paper_harvest = ["56%", "47%", "32%", "41%", "74%", "62%"];
    let regular = cdfs[1].1.as_ref();
    for (i, &p) in percentiles.iter().enumerate() {
        let base = regular.map(|c| c.percentile(p));
        let red = |c: &Option<Cdf>| match (c.as_ref(), base) {
            (Some(c), Some(b)) if b > 0.0 => pct(1.0 - c.percentile(p) / b),
            _ => "-".into(),
        };
        t5.row(vec![
            format!("P{p:.0}"),
            red(&cdfs[0].1),
            red(&cdfs[2].1),
            red(&cdfs[3].1),
            paper_harvest[i].into(),
        ]);
    }
    out.push_str(&t5.render());
    let failures: Vec<String> = results
        .iter()
        .map(|(k, o)| format!("{k}: {}", o.collector.streaming.eviction_failures))
        .collect();
    out.push_str(&format!(
        "eviction failures — {} (paper: Harvest and Spot-48 ran with no failure)\n",
        failures.join(" | "),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_trace_follows_profile() {
        let h = SimDuration::from_mins(30);
        let trace = replay_trace(h, &SeedFactory::new(1));
        assert!(trace.len() > 1_000, "{}", trace.len());
        // Peak-window arrival rate exceeds the edges.
        let count_in = |lo: f64, hi: f64| {
            trace
                .iter()
                .filter(|i| {
                    let f = i.arrival.as_secs_f64() / h.as_secs_f64();
                    f >= lo && f < hi
                })
                .count()
        };
        assert!(count_in(0.4, 0.5) > count_in(0.0, 0.1));
        assert!(count_in(0.4, 0.5) > count_in(0.9, 1.0));
    }

    #[test]
    fn clusters_total_near_150_cpus() {
        let seeds = SeedFactory::new(2);
        for kind in ["Harvest", "Regular", "Spot-4", "Spot-48"] {
            let c = cluster(kind, SimDuration::from_mins(30), &seeds);
            let total = c.total_initial_cpus();
            assert!((120..=160).contains(&total), "{kind} has {total} CPUs");
        }
    }

    #[test]
    #[should_panic(expected = "unknown replay cluster")]
    fn unknown_cluster_panics() {
        cluster("Nope", SimDuration::from_mins(1), &SeedFactory::new(1));
    }
}
