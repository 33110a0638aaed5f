//! The cold-start policy grid: every lifecycle policy (fixed keep-alive,
//! hybrid histogram, null, warm pool) crossed with the load balancers
//! (MWS, JSQ, vanilla OpenWhisk) and the Table 4 VM types (Harvest,
//! Spot, regular). The question the grid answers: does MWS's edge
//! survive when cold starts are largely eliminated by a smarter
//! keep-alive, or was its win mostly cold-start avoidance?

use harvest_faas::experiment::run_parallel;
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::tel::{LatencyAttribution, PhaseComponents};
use harvest_faas::hrv_platform::world::Simulation;
use harvest_faas::hrv_platform::TelemetryConfig;
use harvest_faas::hrv_policy::ColdStartConfig;
use harvest_faas::hrv_trace::faas::{AppId, FunctionId, Invocation};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use harvest_faas::report::Table;
use rand::RngExt;

use crate::replay;
use crate::scale::Scale;

/// Grid horizon — longer than the replay experiment's so the hybrid
/// histogram can both learn (min_samples IATs per function per invoker)
/// and exploit what it learned.
pub fn horizon(scale: Scale) -> SimDuration {
    scale.pick(SimDuration::from_hours(3), SimDuration::from_hours(8))
}

/// App-id offset for the periodic overlay (clear of the replay apps).
const PERIODIC_APP_BASE: u32 = 9_000;

/// The grid workload: the Section 7.6 replay trace plus a cron-like
/// overlay of timer-triggered functions with periods just past the fixed
/// keep-alive. The Azure traces behind *Serverless in the Wild* are
/// dominated by such timers — they are exactly the class a fixed
/// keep-alive cold-starts on every invocation and a histogram policy can
/// prewarm for, so without them the grid could not distinguish the
/// policies.
pub fn grid_trace(h: SimDuration, seeds: &SeedFactory) -> Vec<Invocation> {
    let mut out = replay::replay_trace(h, seeds);
    let mut rng = seeds.stream("coldstart-periodic");
    let end = SimTime::ZERO + h;
    for k in 0..100u32 {
        // Periods in 11–18 min: past the 10-minute fixed keep-alive
        // (fixed always cold-starts these) yet short enough to learn
        // within the horizon. ±2 % phase jitter keeps them off exact
        // lattice alignment without leaving the histogram bin.
        let period_secs = rng.random_range(660.0..1080.0f64);
        let duration = SimDuration::from_secs_f64(rng.random_range(2.0..4.0f64));
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.random_range(0.0..period_secs));
        while t < end {
            out.push(Invocation {
                id: 0, // re-assigned after the merge sort below
                function: FunctionId {
                    app: AppId(PERIODIC_APP_BASE + k),
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

/// One measured cell of the policy grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Cold-start policy label ("fixed", "hybrid", "null", "warmpool").
    pub policy: &'static str,
    /// Load-balancer label.
    pub lb: &'static str,
    /// Cluster kind ("Harvest", "Spot-4", "Regular").
    pub cluster: &'static str,
    /// Cold starts over started invocations.
    pub cold_rate: f64,
    /// P99 end-to-end latency, seconds.
    pub p99: Option<f64>,
    /// Completed invocations.
    pub completed: u64,
    /// Arrivals the controller accepted.
    pub arrivals: u64,
    /// Prewarm containers spawned.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers reaped without serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time spent idle, MiB·s.
    pub idle_mib_secs: f64,
}

/// The grid's load balancers.
pub const LBS: &[(&str, PolicyKind)] = &[
    ("MWS", PolicyKind::Mws),
    ("JSQ", PolicyKind::Jsq),
    ("vanilla", PolicyKind::VanillaQuota(4 * 1024)),
];

/// The grid's VM types (Table 4 clusters).
pub const CLUSTERS: &[&str] = &["Harvest", "Spot-4", "Regular"];

/// Runs one cell of the grid on the shared replay trace.
pub fn run_cell(
    coldstart: ColdStartConfig,
    lb: PolicyKind,
    cluster_kind: &'static str,
    lb_label: &'static str,
    scale: Scale,
) -> GridPoint {
    let h = horizon(scale);
    let seeds = SeedFactory::new(76);
    let trace = grid_trace(h, &seeds);
    let platform = PlatformConfig {
        coldstart,
        ..PlatformConfig::default()
    };
    let sim = Simulation::new(
        replay::cluster(cluster_kind, h, &seeds),
        trace,
        lb.build(),
        platform,
        seeds.seed_for(cluster_kind),
    );
    let out = sim.run(h + SimDuration::from_mins(5));
    out.assert_conservation();
    let s = &out.collector.streaming;
    let starts = out.cold_starts + out.warm_starts;
    GridPoint {
        policy: coldstart.label(),
        lb: lb_label,
        cluster: cluster_kind,
        cold_rate: if starts == 0 {
            0.0
        } else {
            out.cold_starts as f64 / starts as f64
        },
        p99: s.latency_percentile(99.0),
        completed: s.completed,
        arrivals: out.collector.arrivals,
        prewarm_spawns: s.prewarm_spawns,
        prewarm_hits: s.prewarm_hits,
        wasted_prewarms: s.wasted_prewarms,
        idle_mib_secs: s.idle_mib_secs(),
    }
}

/// Runs the full policy × LB × VM-type grid in parallel.
pub fn run_grid(scale: Scale) -> Vec<GridPoint> {
    let mut jobs = Vec::new();
    for coldstart in ColdStartConfig::all() {
        for &(lb_label, lb) in LBS {
            for &cluster in CLUSTERS {
                jobs.push(move || run_cell(coldstart, lb, cluster, lb_label, scale));
            }
        }
    }
    run_parallel(jobs)
}

/// Runs the grid for one named policy only (the `--coldstart` fast path).
pub fn run_policy(coldstart: ColdStartConfig, scale: Scale) -> Vec<GridPoint> {
    let mut jobs = Vec::new();
    for &(lb_label, lb) in LBS {
        for &cluster in CLUSTERS {
            jobs.push(move || run_cell(coldstart, lb, cluster, lb_label, scale));
        }
    }
    run_parallel(jobs)
}

/// Renders grid points as the policy-grid report.
pub fn render(points: &[GridPoint]) -> String {
    let mut t = Table::new(
        "Cold-start policy grid — policy × load balancer × VM type",
        &[
            "policy",
            "lb",
            "cluster",
            "cold_rate",
            "p99_s",
            "completed",
            "prewarms",
            "hits",
            "wasted",
            "idle_GiB_h",
        ],
    );
    for p in points {
        t.row(vec![
            p.policy.to_string(),
            p.lb.to_string(),
            p.cluster.to_string(),
            format!("{:.2}%", p.cold_rate * 100.0),
            p.p99.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
            p.completed.to_string(),
            p.prewarm_spawns.to_string(),
            p.prewarm_hits.to_string(),
            p.wasted_prewarms.to_string(),
            format!("{:.1}", p.idle_mib_secs / 1024.0 / 3600.0),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "hybrid prewarms rare functions and keeps hot ones warm through the\n\
         IAT tail; null reaps on idle (cold-start worst case); warmpool\n\
         bounds idle containers per function.\n",
    );
    out
}

/// The full grid report (registered as the `coldstart` experiment).
pub fn all(scale: Scale) -> String {
    render(&run_grid(scale))
}

/// Latency attribution for the grid's MWS × Harvest cell: the same
/// simulation as [`run_cell`] under the fixed keep-alive, rerun with
/// lifecycle telemetry enabled and reduced to the additive phase
/// decomposition of mean and tail latency (registered as the
/// `attribution` experiment).
pub fn attribution(scale: Scale) -> String {
    let h = horizon(scale);
    let seeds = SeedFactory::new(76);
    let trace = grid_trace(h, &seeds);
    let platform = PlatformConfig {
        coldstart: ColdStartConfig::Fixed,
        telemetry: TelemetryConfig::on(),
        ..PlatformConfig::default()
    };
    let sim = Simulation::new(
        replay::cluster("Harvest", h, &seeds),
        trace,
        PolicyKind::Mws.build(),
        platform,
        seeds.seed_for("Harvest"),
    );
    let out = sim.run(h + SimDuration::from_mins(5));
    out.assert_conservation();
    let m = out.collector.aggregate(SimTime::ZERO);
    match m.phases {
        Some(a) => render_attribution(&a),
        None => "latency attribution: no completed invocations\n".into(),
    }
}

/// Renders one cell's latency attribution: the mean phase vector plus
/// the representative invocation at each tail percentile. Every row's
/// phases sum exactly to its total (the tentpole invariant), so a fat
/// tail reads as *which phase* made it fat.
pub fn render_attribution(a: &LatencyAttribution) -> String {
    let mut t = Table::new(
        "Latency attribution — MWS × Harvest, fixed keep-alive (seconds)",
        &[
            "stat",
            "sched",
            "bus",
            "queue",
            "coldstart",
            "exec",
            "total",
            "cold",
        ],
    );
    let row = |t: &mut Table, stat: &str, c: PhaseComponents, cold: &str| {
        t.row(vec![
            stat.to_string(),
            format!("{:.3}", c.sched_secs),
            format!("{:.3}", c.bus_secs),
            format!("{:.3}", c.queue_secs),
            format!("{:.3}", c.coldstart_secs),
            format!("{:.3}", c.exec_secs),
            format!("{:.3}", c.total_secs()),
            cold.to_string(),
        ]);
    };
    row(&mut t, "mean", a.mean(), "-");
    for p in [50.0, 90.0, 99.0] {
        let r = a.percentile_row(p);
        row(
            &mut t,
            &format!("P{p:.0}"),
            r.components(),
            if r.cold { "yes" } else { "no" },
        );
    }
    let mut out = t.render();
    out.push_str(&format!(
        "{} invocations attributed; percentile rows are real invocations,\n\
         so their phases tile their own end-to-end latency exactly.\n",
        a.count(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_runs_and_conserves() {
        let p = run_cell(
            ColdStartConfig::Fixed,
            PolicyKind::Mws,
            "Regular",
            "MWS",
            Scale::Quick,
        );
        assert!(p.arrivals > 1_000);
        assert!(p.completed > 0);
        assert_eq!(p.prewarm_spawns, 0, "fixed policy never prewarms");
    }

    #[test]
    fn attribution_renders_exact_tilings() {
        use harvest_faas::hrv_platform::tel::PhaseRecord;
        use harvest_faas::hrv_trace::time::SimTime;
        let rows: Vec<PhaseRecord> = (0..100)
            .map(|i| {
                let exec = 1_000_000 + i * 10_000;
                PhaseRecord {
                    id: i,
                    arrival: SimTime::from_micros(i * 100),
                    finished: SimTime::from_micros(i * 100 + 2_500 + exec),
                    cold: i % 10 == 0,
                    sched_us: 500,
                    bus_us: 2_000,
                    queue_us: 0,
                    coldstart_us: 0,
                    exec_us: exec,
                }
            })
            .collect();
        let a = LatencyAttribution::from_rows(rows).unwrap();
        let report = render_attribution(&a);
        assert!(report.contains("coldstart"));
        assert!(report.contains("P99"));
        assert!(report.contains("100 invocations attributed"));
    }

    #[test]
    fn hybrid_beats_fixed_on_cold_starts_at_no_extra_idle_memory() {
        // The acceptance gate: on at least the harvest + MWS point the
        // hybrid histogram must cut the cold-start rate without spending
        // more warm memory-time than the fixed 10-minute keep-alive.
        let fixed = run_cell(
            ColdStartConfig::Fixed,
            PolicyKind::Mws,
            "Harvest",
            "MWS",
            Scale::Quick,
        );
        let hybrid = run_cell(
            ColdStartConfig::Hybrid(Default::default()),
            PolicyKind::Mws,
            "Harvest",
            "MWS",
            Scale::Quick,
        );
        assert!(
            hybrid.cold_rate < fixed.cold_rate,
            "hybrid {:.4} must beat fixed {:.4}",
            hybrid.cold_rate,
            fixed.cold_rate
        );
        assert!(
            hybrid.idle_mib_secs <= fixed.idle_mib_secs,
            "hybrid idle {:.0} MiB·s must not exceed fixed {:.0}",
            hybrid.idle_mib_secs,
            fixed.idle_mib_secs
        );
    }
}
