//! The five workloads: what each builds before the clock starts, what it
//! runs inside the timed region, and how a finished run reduces to named
//! values. One call to [`run`] is one repetition; the caller gives each
//! its own process.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use harvest_faas::experiment::run_parallel_with;
use hrv_platform::event::Event;
use hrv_platform::mailbox::ShardPlan;
use hrv_platform::metrics::Outcome;
use hrv_platform::world::{PlatformWorld, SimOutput, Simulation};
use hrv_platform::{ShardedSimulation, TelemetryConfig};
use hrv_sim::calendar::{Calendar, EventCalendar};
use hrv_telemetry::FlightRecorder;
use hrv_trace::stats::percentile_unsorted;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::SimTime;

use crate::host;
use crate::inputs::{self, InputTimes, Seeds, SimInputs};
use crate::stats::{fingerprint, median, Fnv};
use crate::timed::{
    self, Ledger, LedgerReport, Op, TimedCalendar, TimedLb, TimedStream, TimedWorld,
};

/// Shards of `fleet_s2`.
pub const FLEET_S2_SHARDS: u32 = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetS1,
    FleetS2,
    HarvestReplay,
    HarvestReplayTel,
    PolicySweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetS1,
        Workload::FleetS2,
        Workload::HarvestReplay,
        Workload::HarvestReplayTel,
        Workload::PolicySweep,
    ];

    /// The workloads `BENCHMARK.json` declares, which the PR driver runs
    /// and gates on. The other two need more than the driver can give:
    /// `fleet_s2` runs `nproc` barrier-synchronised threads, and on a
    /// shared 2-vCPU host its wall time spread by 22 % and 43 % over ten
    /// runs of one commit; and three workloads leave each run 42 s where
    /// five left it 25 s. Both still run in a full set, and a gated
    /// workload's `--trace 1` run measures its [`Workload::twin`] for the
    /// `platform.shard.*` and `telemetry.*` ratios.
    pub const GATED: [Workload; 3] = [
        Workload::FleetS1,
        Workload::HarvestReplay,
        Workload::PolicySweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetS1 => "fleet_s1",
            Workload::FleetS2 => "fleet_s2",
            Workload::HarvestReplay => "harvest_replay",
            Workload::HarvestReplayTel => "harvest_replay_tel",
            Workload::PolicySweep => "policy_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload gets a traced run: the two solo-plan worlds
    /// that between them stress every layer the decorators can wrap.
    pub fn traceable(self) -> bool {
        matches!(self, Workload::FleetS1 | Workload::HarvestReplay)
    }

    /// The workload with the same inputs and byte-identical simulated
    /// output: the fleet on one shard and on two, the replay with
    /// telemetry off and on. A `--trace 1` run measures both.
    pub fn twin(self) -> Option<Workload> {
        match self {
            Workload::FleetS1 => Some(Workload::FleetS2),
            Workload::FleetS2 => Some(Workload::FleetS1),
            Workload::HarvestReplay => Some(Workload::HarvestReplayTel),
            Workload::HarvestReplayTel => Some(Workload::HarvestReplay),
            Workload::PolicySweep => None,
        }
    }
}

/// Worker threads of `policy_sweep`: min(nproc, 4).
pub fn sweep_workers() -> usize {
    host::nproc().min(4)
}

/// One repetition's results: a fingerprint of the simulated output, named
/// values, and the span ledger when the repetition was traced.
#[derive(Debug)]
pub struct Report {
    pub fingerprint: u64,
    pub values: BTreeMap<String, f64>,
    pub ledger: Option<LedgerReport>,
}

/// Wall, CPU and peak memory of a timed region.
struct Region {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Region) {
    let cpu0 = host::process_cpu_secs().unwrap_or(0.0);
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let region = Region {
        wall_s,
        cpu_s: host::process_cpu_secs().unwrap_or(0.0) - cpu0,
        // Read before any post-processing, so the harness's own
        // reductions never show up as the program's memory.
        peak_rss_mb: host::peak_rss_mb().unwrap_or(0.0),
    };
    (out, region)
}

fn build(i: SimInputs) -> Simulation {
    Simulation::with_faults(
        i.cluster,
        i.trace,
        i.policy.build(),
        i.cfg,
        i.seed,
        i.faults,
    )
}

/// Builds the decorated twin of [`build`] and runs it through the
/// harness's round loop; the tail mirrors `Simulation::run_with_budget`.
fn run_traced(
    i: SimInputs,
    ledger: &Arc<Ledger>,
) -> impl FnOnce() -> (SimOutput, timed::RoundStats) {
    let mut cal = TimedCalendar::new(Calendar::<Event>::new(), Arc::clone(ledger));
    let stream: Box<dyn ArrivalStream> = Box::new(TimedStream::new(
        SortedTraceStream::new(i.trace),
        Arc::clone(ledger),
    ));
    let world = PlatformWorld::from_stream_sharded_in(
        i.cluster,
        stream,
        Box::new(TimedLb::new(Arc::clone(ledger))),
        i.cfg,
        i.seed,
        i.faults,
        ShardPlan::solo(),
        &mut cal,
    );
    let mut world = TimedWorld::new(world, Arc::clone(ledger), timed::variant_of);
    let end = SimTime::ZERO + i.horizon;
    move || {
        let stats = timed::run_rounds(&mut world, &mut cal, end);
        let mut w = world.inner;
        w.censor_remaining(cal.now());
        w.metrics.dropped_completions = w.total_dropped_completions();
        w.metrics.set_coldstart_totals(
            w.total_prewarm_spawns(),
            w.total_prewarm_hits(),
            w.total_wasted_prewarms(),
            w.total_idle_mib_secs(),
        );
        w.metrics.canonicalize_records();
        let out = SimOutput {
            cold_starts: w.total_cold_starts(),
            warm_starts: w.total_warm_starts(),
            // Traced workloads run with telemetry off: nothing recorded.
            recorder: FlightRecorder::default(),
            collector: std::mem::take(&mut w.metrics),
            run: stats.run,
        };
        (out, stats)
    }
}

/// What a timed region hands back.
struct Ran {
    outs: Vec<SimOutput>,
    /// Host seconds of each `policy_sweep` cell.
    cell_s: Vec<f64>,
    /// What the harness's round loop counted, when it was the driver.
    rounds: Option<timed::RoundStats>,
}

impl Ran {
    fn one(out: SimOutput, rounds: Option<timed::RoundStats>) -> Ran {
        Ran {
            outs: vec![out],
            cell_s: vec![],
            rounds,
        }
    }
}

/// Generates `workload`'s inputs and constructs its worlds. Returns how
/// many invocations were generated (a sweep's trace counts once per cell)
/// and the timed region: `.run(horizon)`, or the `run_parallel_with` call
/// for the sweep. `ledger` makes it the decorated form.
fn prepare(
    workload: Workload,
    seeds: &Seeds,
    ledger: Option<&Arc<Ledger>>,
    times: &mut InputTimes,
) -> (usize, Box<dyn FnOnce() -> Ran>) {
    let i = match workload {
        Workload::FleetS1 | Workload::FleetS2 => inputs::fleet_inputs(seeds, times),
        Workload::HarvestReplay => inputs::replay_inputs(seeds, TelemetryConfig::Off, times),
        Workload::HarvestReplayTel => inputs::replay_inputs(seeds, TelemetryConfig::on(), times),
        Workload::PolicySweep => {
            let cells = inputs::sweep_inputs(seeds, times);
            let generated = cells.iter().map(|i| i.trace.len()).sum();
            let jobs: Vec<_> = cells
                .into_iter()
                .map(|i| {
                    let (horizon, sim) = (i.horizon, build(i));
                    move || {
                        let start = Instant::now();
                        let out = sim.run(horizon);
                        (out, start.elapsed().as_secs_f64())
                    }
                })
                .collect();
            let go = move || {
                let (outs, cell_s) = run_parallel_with(sweep_workers(), jobs).into_iter().unzip();
                Ran {
                    outs,
                    cell_s,
                    rounds: None,
                }
            };
            return (generated, Box::new(go));
        }
    };
    let (generated, horizon) = (i.trace.len(), i.horizon);
    let go: Box<dyn FnOnce() -> Ran> = if let Some(ledger) = ledger {
        let go = run_traced(i, ledger);
        Box::new(move || {
            let (out, stats) = go();
            Ran::one(out, Some(stats))
        })
    } else if workload == Workload::FleetS2 {
        let sim = ShardedSimulation::with_faults(
            i.cluster,
            i.trace,
            i.policy,
            i.cfg,
            i.seed,
            i.faults,
            FLEET_S2_SHARDS,
        );
        Box::new(move || Ran::one(sim.run(horizon), None))
    } else {
        let sim = build(i);
        Box::new(move || Ran::one(sim.run(horizon), None))
    };
    (generated, go)
}

/// What the outputs of a timed region add up to.
#[derive(Default)]
struct Totals {
    fingerprint: Fnv,
    arrivals: u64,
    completed: u64,
    started: u64,
    cold: u64,
    /// Eviction failures + rejections + lost + conservation gap.
    failed: u64,
    lost: u64,
    gap: u64,
    records: u64,
    events: u64,
    envelopes: u64,
    /// Largest max ÷ min of placements over the replicas of one output.
    placement_skew: f64,
    prewarm_spawns: u64,
    prewarm_hits: u64,
    wasted_prewarms: u64,
    retries: u64,
    redispatches: u64,
    crashes: u64,
    spans_recorded: u64,
    /// Latencies of completed invocations, pooled over the outputs.
    latencies: Vec<f64>,
    /// Host seconds `MetricsCollector::aggregate` took.
    aggregate_s: f64,
}

impl Totals {
    fn add(&mut self, out: &SimOutput) {
        self.fingerprint.word(fingerprint(out));
        let c = &out.collector;
        let start = Instant::now();
        std::hint::black_box(c.aggregate(SimTime::ZERO));
        self.aggregate_s += start.elapsed().as_secs_f64();
        for r in &c.records {
            self.started += u64::from(r.exec_started);
            self.cold += u64::from(r.exec_started && r.cold);
            if r.outcome == Outcome::Completed {
                self.latencies.push(r.latency_secs);
            }
        }
        let (arrived, resolved) = c.conservation();
        let s = &c.streaming;
        self.arrivals += arrived;
        self.gap += arrived.abs_diff(resolved);
        self.failed += s.eviction_failures + s.rejections + s.lost + arrived.abs_diff(resolved);
        self.completed += s.completed;
        self.lost += s.lost;
        self.records += c.records.len() as u64;
        self.events += out.run.events;
        self.envelopes += c.replica_occupancy.iter().map(|r| r.envelopes).sum::<u64>();
        let placements = || c.replica_occupancy.iter().map(|r| r.placements);
        let skew =
            placements().max().unwrap_or(0) as f64 / placements().min().unwrap_or(0).max(1) as f64;
        self.placement_skew = self.placement_skew.max(skew);
        self.prewarm_spawns += s.prewarm_spawns;
        self.prewarm_hits += s.prewarm_hits;
        self.wasted_prewarms += s.wasted_prewarms;
        self.retries += s.retries;
        self.redispatches += s.redispatches;
        self.crashes += c.vm_crashes;
        self.spans_recorded += out.recorder.len() as u64 + out.recorder.dropped();
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The values only a traced run has: what the decorators and the round
/// loop saw.
fn ledger_values(
    report: &LedgerReport,
    stats: timed::RoundStats,
    wall_s: f64,
    mut put: impl FnMut(&str, f64),
) {
    for (op, key) in [
        (Op::Schedule, "schedule"),
        (Op::Cancel, "cancel"),
        (Op::Pop, "pop"),
        (Op::Peek, "peek"),
    ] {
        let (calls, busy_s) = report.op_total(op);
        put(&format!("sim.calendar.{key}_calls"), calls as f64);
        put(&format!("sim.calendar.{key}_busy_s"), busy_s);
    }
    put(
        "sim.calendar.cancel_hit_ratio",
        ratio(
            report.cancel_hits as f64,
            report.op_total(Op::Cancel).0 as f64,
        ),
    );
    put("sim.calendar.max_len", report.max_len as f64);
    put("sim.engine.rounds", stats.rounds as f64);
    put(
        "sim.engine.events_per_round",
        ratio(stats.run.events as f64, stats.rounds as f64),
    );
    put("sim.engine.driver_self_s", report.driver_self_s());
    let (places, place_s) = report.op_total(Op::Place);
    put("lb.place_calls", places as f64);
    put("lb.place_busy_s", place_s);
    put("lb.place_refused", report.place_refused as f64);
    put("lb.placements_per_s", ratio(places as f64, place_s));
    put("lb.observe_busy_s", report.op_total(Op::Observe).1);
    put(
        "lb.mws.cache_hit_ratio",
        ratio(
            report.cache_hits as f64,
            (report.cache_hits + report.cache_misses) as f64,
        ),
    );
    let (nexts, next_s) = report.op_total(Op::StreamNext);
    put("trace.stream.next_calls", nexts as f64);
    put("trace.stream.next_busy_s", next_s);
    for name in &timed::VARIANTS[..timed::VARIANTS.len() - 1] {
        let (calls, self_s) = report.handler(name);
        put(&format!("platform.handler.{name}.calls"), calls as f64);
        put(&format!("platform.handler.{name}.self_s"), self_s);
    }
    put("trace.ledger_over_wall", report.sum_self_s() / wall_s);
}

/// Runs one repetition of `workload` with inputs drawn from `seed`.
///
/// # Panics
///
/// Panics if `traced` is asked of a workload that is not
/// [`Workload::traceable`].
pub fn run(workload: Workload, seed: u64, traced: bool) -> Report {
    assert!(
        !traced || workload.traceable(),
        "{workload:?} has no traced form"
    );
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        values.insert(k.to_string(), x);
    };
    put("host.calib_s", host::calibration_spin());
    let ledger = traced.then(Ledger::new);

    let mut times = InputTimes::default();
    let setup = Instant::now();
    let (generated, go) = prepare(workload, &Seeds::new(seed), ledger.as_ref(), &mut times);
    let setup_s = setup.elapsed().as_secs_f64();
    let (ran, region) = measure(go);

    let mut t = Totals::default();
    for out in &ran.outs {
        t.add(out);
    }
    let share = |n: u64| n as f64 / t.arrivals.max(1) as f64;
    put("wall_s", region.wall_s);
    put("cpu_s", region.cpu_s);
    put("sim_invocations_per_s", t.arrivals as f64 / region.wall_s);
    put("peak_rss_mb", region.peak_rss_mb);
    put("setup_s", setup_s);
    put("failed_share", share(t.failed));
    put("sim_success_share", 1.0 - share(t.failed));
    put("completed_share", share(t.completed));
    put(
        "sim_p99_latency_s",
        if t.latencies.is_empty() {
            0.0
        } else {
            percentile_unsorted(&mut t.latencies, 99.0)
        },
    );
    put(
        "sim_cold_start_rate",
        ratio(t.cold as f64, t.started as f64),
    );
    put("arrivals", t.arrivals as f64);

    put("trace.generate_s", times.generate_s);
    put(
        "trace.invocations_per_s",
        ratio(generated as f64, times.generate_s),
    );
    put("trace.cluster_build_s", times.cluster_build_s);
    put("fault.compile_s", times.fault_compile_s);
    // Set-up is input generation plus world construction.
    put(
        "platform.build_s",
        setup_s - times.generate_s - times.cluster_build_s - times.fault_compile_s,
    );
    put("sim.engine.events", t.events as f64);
    put("sim.engine.events_per_s", t.events as f64 / region.wall_s);
    put("platform.envelopes", t.envelopes as f64);
    put("platform.envelopes_per_invocation", share(t.envelopes));
    put("platform.metrics.aggregate_s", t.aggregate_s);
    put("platform.metrics.records", t.records as f64);
    put("platform.metrics.conservation_gap", t.gap as f64);
    put("platform.replica.placement_max_over_min", t.placement_skew);
    put("platform.shard.cpu_over_wall", region.cpu_s / region.wall_s);
    put("policy.prewarm_spawns", t.prewarm_spawns as f64);
    put(
        "policy.prewarm_hit_ratio",
        ratio(t.prewarm_hits as f64, t.prewarm_spawns as f64),
    );
    put("policy.wasted_prewarms", t.wasted_prewarms as f64);
    put("fault.retries", t.retries as f64);
    put("fault.redispatches", t.redispatches as f64);
    put("fault.vm_crashes", t.crashes as f64);
    put("fault.lost", t.lost as f64);
    put("telemetry.events_recorded", t.spans_recorded as f64);
    if !ran.cell_s.is_empty() {
        put("core.sweep.cells", ran.cell_s.len() as f64);
        put("core.sweep.cell_s.median", median(&ran.cell_s));
        put(
            "core.sweep.cell_s.max",
            ran.cell_s.iter().copied().fold(0.0, f64::max),
        );
        put(
            "core.sweep.parallel_efficiency",
            ran.cell_s.iter().sum::<f64>() / (sweep_workers() as f64 * region.wall_s),
        );
    }

    let ledger = ledger.zip(ran.rounds).map(|(ledger, stats)| {
        let report = LedgerReport::new(&ledger, region.wall_s);
        ledger_values(&report, stats, region.wall_s, &mut put);
        report
    });
    Report {
        fingerprint: t.fingerprint.finish(),
        values,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_fault::FaultPlan;
    use hrv_lb::policy::PolicyKind;
    use hrv_platform::config::PlatformConfig;
    use hrv_trace::time::SimDuration;

    /// Ten minutes of the replay on the Table 4 cluster, seed 76.
    fn ten_minute_replay() -> SimInputs {
        let seeds = Seeds::new(76);
        let h = SimDuration::from_mins(10);
        let horizon = h + SimDuration::from_mins(2);
        SimInputs {
            cluster: inputs::harvest_cluster(horizon, &seeds),
            trace: inputs::replay_trace(h, &seeds),
            cfg: PlatformConfig::default(),
            policy: PolicyKind::Mws,
            faults: FaultPlan::none(),
            horizon,
            seed: seeds.run.seed_for("platform"),
        }
    }

    #[test]
    fn harness_round_loop_reproduces_simulation_run() {
        let i = ten_minute_replay();
        let horizon = i.horizon;
        let plain = build(i.clone()).run(horizon);
        let ledger = Ledger::new();
        let (traced, stats) = run_traced(i, &ledger)();
        assert!(plain.run.events > 10_000, "{} events", plain.run.events);
        assert_eq!(traced.run.events, plain.run.events);
        assert_eq!(traced.run.end_time, plain.run.end_time);
        assert_eq!(traced.run.reason, plain.run.reason);
        assert_eq!(fingerprint(&traced), fingerprint(&plain));
        assert_eq!(traced.collector.records, plain.collector.records);
        assert_eq!(traced.recorder.len(), plain.recorder.len());
        // The ledger saw every event the engine delivered and every round
        // the loop made.
        let report = LedgerReport::new(&ledger, 1.0);
        let handled: u64 = timed::VARIANTS.iter().map(|v| report.handler(v).0).sum();
        assert_eq!(handled, plain.run.events);
        assert_eq!(report.op_total(Op::Pop).0, plain.run.events);
        assert_eq!(report.op_total(Op::Place).0, plain.collector.arrivals);
        let driver = report.rows.last().expect("the driver row");
        assert!(stats.rounds > 0);
        assert_eq!(driver.calls, stats.rounds);
        assert!(driver.timed > 0 && driver.timed < stats.rounds);
        assert!(driver.self_s > 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.twin().is_none_or(|t| t != *w && t.twin() == Some(*w))));
        assert!(Workload::GATED.iter().all(|w| Workload::ALL.contains(w)));
    }
}
