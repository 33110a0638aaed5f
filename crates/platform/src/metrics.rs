//! Metrics collection and aggregation.
//!
//! Two tiers of fidelity share one collector:
//!
//! * [`StreamingMetrics`] — always on, constant memory: a log-binned
//!   latency histogram and per-outcome, recovery and prewarm counters.
//!   O(bins) space regardless of how many invocations a run replays,
//!   which is what lets the scale bench drive 10⁸+ invocations.
//! * the per-record sink (`records`/`samples`) — one row per finished
//!   invocation, O(invocations) memory. On by default so figure
//!   generation and tests keep exact data; opt out via
//!   [`MetricsCollector::streaming_only`] (the platform wires this to
//!   `PlatformConfig::record_invocations`).
//!
//! [`RunMetrics`] reduces the record sink to the quantities the paper
//! reports — P99 latency, cold-start rate, failure rate, throughput.

use serde::{Deserialize, Serialize};

use hrv_telemetry::{CounterRegistry, LatencyAttribution, PhaseRecord};
use hrv_trace::stats::{Cdf, LogHistogram};
use hrv_trace::time::{SimDuration, SimTime};

/// How one invocation's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Finished and reported back.
    Completed,
    /// Killed by a VM eviction while running, starting, or queued on the
    /// evicted invoker.
    FailedEviction,
    /// The controller could not place it within the placement timeout.
    Rejected,
    /// Still in flight when the measurement window closed (excluded from
    /// latency statistics).
    Censored,
    /// Permanently lost to an injected fault: a dropped dispatch message
    /// with recovery disabled, or destroyed work whose retries were
    /// exhausted (or whose retry budget ran out).
    Lost,
}

/// One finished invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// Invocation id from the trace.
    pub id: u64,
    /// Arrival time at the controller.
    pub arrival: SimTime,
    /// When the record was finalized (completion/failure/rejection).
    pub finished: SimTime,
    /// End-to-end latency in seconds (arrival → completion), only
    /// meaningful for `Completed`.
    pub latency_secs: f64,
    /// Pure execution duration in seconds (only for `Completed`).
    pub exec_secs: f64,
    /// Whether it cold-started (only meaningful once started).
    pub cold: bool,
    /// Whether execution had begun (false for work killed or rejected
    /// while still queued).
    pub exec_started: bool,
    /// Outcome.
    pub outcome: Outcome,
}

impl InvocationRecord {
    /// The row of an invocation that never completed (lost, rejected,
    /// censored): no latency, no execution time, finalized at `finished`.
    pub(crate) fn unfinished(
        id: u64,
        arrival: SimTime,
        finished: SimTime,
        outcome: Outcome,
    ) -> Self {
        InvocationRecord {
            id,
            arrival,
            finished,
            latency_secs: 0.0,
            exec_secs: 0.0,
            cold: false,
            exec_started: false,
            outcome,
        }
    }
}

/// A point of the cluster utilization time series (Figure 20).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Sample time.
    pub at: SimTime,
    /// Total CPUs across live invokers.
    pub total_cpus: u32,
    /// Cores in use across live invokers.
    pub cpus_in_use: f64,
}

/// 2³²: cores in use are summed as integer counts of 2⁻³² cores, so a
/// tick's total does not depend on the order its invokers were added in.
const CORE_UNITS: f64 = (1u64 << 32) as f64;

/// One utilization grid tick's running fleet-wide sums. Integers, so
/// collectors merged in any grouping add up to the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct TickSum {
    at: SimTime,
    total_cpus: u32,
    /// Cores in use, in units of 2⁻³² cores.
    used: u64,
}

impl TickSum {
    /// Adds `other` into this sum if both are the same tick; returns
    /// whether it did.
    fn absorb(&mut self, other: &TickSum) -> bool {
        let same = self.at == other.at;
        if same {
            self.total_cpus += other.total_cpus;
            self.used += other.used;
        }
        same
    }
}

/// Per-controller-replica occupancy counters (the claim benchmark's
/// `platform.replica.placement_max_over_min`): how evenly the partitioned
/// placement path spreads work across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaOccupancy {
    /// The replica index.
    pub replica: u32,
    /// Placement decisions the replica made (dispatches, retries,
    /// re-dispatches).
    pub placements: u64,
    /// Controller-bound envelopes the replica consumed.
    pub envelopes: u64,
}

/// Constant-memory aggregates over a run: O(bins) space no matter how many
/// invocations pass through. Always maintained by [`MetricsCollector`];
/// the per-record sink is the optional tier.
///
/// Histogram percentiles are within one bin width (a factor of
/// `bin_ratio()` ≈ 12 % for the default 160-bin / 8-decade layout) of the
/// exact order statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingMetrics {
    /// End-to-end latency of completed invocations, seconds.
    pub latency_hist: LogHistogram,
    /// Completed invocations.
    pub completed: u64,
    /// Invocations killed by evictions.
    pub eviction_failures: u64,
    /// Invocations rejected at placement.
    pub rejections: u64,
    /// Invocations still in flight at window close.
    pub censored: u64,
    /// Invocations permanently lost to faults (dropped dispatches without
    /// recovery, or retries exhausted).
    pub lost: u64,
    /// Re-dispatch attempts fired by recovery (every `Redispatch` event).
    pub retries: u64,
    /// Destroyed in-flight work salvaged into the retry path (unwarned
    /// kills, evictions, dead deliveries) — a subset of what `retries`
    /// counts, which also covers lost dispatch messages.
    pub redispatches: u64,
    /// Total invoker time spent quarantined out of placement, µs (an
    /// integer, so shard merges sum it exactly).
    pub quarantine_micros: u64,
    /// Containers spawned by a cold-start policy's prewarm orders.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers destroyed without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·µs — the "wasted warm
    /// memory" axis of the cold-start policy grid. An integer, so shard
    /// merges sum it exactly; [`StreamingMetrics::idle_mib_secs`] reads
    /// it in MiB·s.
    pub idle_mib_micros: u64,
}

/// Default latency/exec histogram span: 100 µs to 10⁴ s in 160 log bins
/// (8 decades, bin ratio 10^0.05 ≈ 1.122).
const HIST_LO: f64 = 1e-4;
const HIST_HI: f64 = 1e4;
const HIST_BINS: usize = 160;

impl Default for StreamingMetrics {
    fn default() -> Self {
        StreamingMetrics {
            latency_hist: LogHistogram::new(HIST_LO, HIST_HI, HIST_BINS),
            completed: 0,
            eviction_failures: 0,
            rejections: 0,
            censored: 0,
            lost: 0,
            retries: 0,
            redispatches: 0,
            quarantine_micros: 0,
            prewarm_spawns: 0,
            prewarm_hits: 0,
            wasted_prewarms: 0,
            idle_mib_micros: 0,
        }
    }
}

impl StreamingMetrics {
    /// Folds one finished invocation into the aggregates.
    pub fn record(&mut self, r: &InvocationRecord) {
        match r.outcome {
            Outcome::Completed => {
                self.completed += 1;
                self.latency_hist.record(r.latency_secs);
            }
            Outcome::FailedEviction => self.eviction_failures += 1,
            Outcome::Rejected => self.rejections += 1,
            Outcome::Censored => self.censored += 1,
            Outcome::Lost => self.lost += 1,
        }
    }

    /// The `p`-th latency percentile estimate (within one histogram bin
    /// width of exact), or `None` when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        self.latency_hist.percentile(p)
    }

    /// Warm memory-time containers spent idle, MiB·s.
    pub fn idle_mib_secs(&self) -> f64 {
        self.idle_mib_micros as f64 / 1e6
    }

    /// Merges another shard's aggregates into this one: counters add and
    /// the histogram adds bin-wise, so the result is exact in any merge
    /// order.
    pub fn merge(&mut self, other: &StreamingMetrics) {
        self.latency_hist.merge(&other.latency_hist);
        self.completed += other.completed;
        self.eviction_failures += other.eviction_failures;
        self.rejections += other.rejections;
        self.censored += other.censored;
        self.lost += other.lost;
        self.retries += other.retries;
        self.redispatches += other.redispatches;
        self.quarantine_micros += other.quarantine_micros;
        self.prewarm_spawns += other.prewarm_spawns;
        self.prewarm_hits += other.prewarm_hits;
        self.wasted_prewarms += other.wasted_prewarms;
        self.idle_mib_micros = add_idle(self.idle_mib_micros, other.idle_mib_micros);
    }
}

/// `total + mib_micros` of idle memory-time, MiB·µs.
///
/// # Panics
///
/// On `u64` overflow (past ≈ 5 × 10⁶ GiB·h).
pub(crate) fn add_idle(total: u64, mib_micros: u64) -> u64 {
    total
        .checked_add(mib_micros)
        .expect("idle memory-time overflows u64 MiB·µs")
}

/// Streaming collector filled in by the platform world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsCollector {
    /// Finished invocation rows (empty when the record sink is off).
    pub records: Vec<InvocationRecord>,
    /// Utilization time series (empty when the record sink is off).
    pub samples: Vec<UtilizationSample>,
    /// Per-controller-replica placement/envelope counts, flushed at
    /// censoring time.
    pub replica_occupancy: Vec<ReplicaOccupancy>,
    /// Constant-memory aggregates, always maintained.
    pub streaming: StreamingMetrics,
    /// Total arrivals seen by the controller.
    pub arrivals: u64,
    /// Number of VM evictions that hit the platform.
    pub vm_evictions: u64,
    /// Number of crash-stop kills injected by a fault plan.
    pub vm_crashes: u64,
    /// Live migrations completed (invocations moved off warned VMs).
    pub migrations: u64,
    /// Times recovery put an invoker into quarantine.
    pub quarantines: u64,
    /// Stale invoker-side events (startup/completion races with eviction
    /// teardown) that were dropped rather than processed.
    pub dropped_completions: u64,
    /// Named diagnostic counters that have no field of their own.
    pub counters: CounterRegistry,
    /// Per-invocation latency phase rows (telemetry-enabled runs with the
    /// record sink on; empty otherwise).
    pub phases: Vec<PhaseRecord>,
    /// Utilization sums per grid tick, in tick order, one entry per tick
    /// (empty when the record sink is off). `canonicalize_records` turns
    /// them into `samples`.
    ticks: Vec<TickSum>,
    record_sink: bool,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector {
            records: Vec::new(),
            samples: Vec::new(),
            replica_occupancy: Vec::new(),
            streaming: StreamingMetrics::default(),
            arrivals: 0,
            vm_evictions: 0,
            vm_crashes: 0,
            migrations: 0,
            quarantines: 0,
            dropped_completions: 0,
            counters: CounterRegistry::new(),
            phases: Vec::new(),
            ticks: Vec::new(),
            record_sink: true,
        }
    }
}

impl MetricsCollector {
    /// Creates a collector with the full per-record sink enabled.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Creates a collector that keeps only the constant-memory aggregates:
    /// `records` and `samples` stay empty no matter how much passes
    /// through.
    pub fn streaming_only() -> Self {
        MetricsCollector {
            record_sink: false,
            ..MetricsCollector::default()
        }
    }

    /// Records a finished invocation.
    pub fn push(&mut self, record: InvocationRecord) {
        self.streaming.record(&record);
        if self.record_sink {
            self.records.push(record);
        }
    }

    /// Makes room for exactly `records` more records and `phases` more
    /// phase rows when the record sink is on, so pushing that many never
    /// regrows either.
    pub(crate) fn reserve_rows(&mut self, records: usize, phases: usize) {
        if self.record_sink {
            self.records.reserve_exact(records);
            self.phases.reserve_exact(phases);
        }
    }

    /// Counts one re-dispatch attempt (a `Redispatch` event firing).
    pub fn note_retry(&mut self) {
        self.streaming.retries += 1;
    }

    /// Counts one destroyed in-flight invocation salvaged into the retry
    /// path instead of being recorded as a failure.
    pub fn note_redispatch(&mut self) {
        self.streaming.redispatches += 1;
    }

    /// Counts one invoker entering quarantine.
    pub fn note_quarantine(&mut self) {
        self.quarantines += 1;
    }

    /// Accumulates time an invoker spent quarantined.
    pub fn note_quarantine_span(&mut self, span: SimDuration) {
        self.streaming.quarantine_micros += span.as_micros();
    }

    /// Keeps one invocation's phase split when the record sink is on
    /// (mirroring [`MetricsCollector::push`]).
    pub fn push_phase(&mut self, phase: PhaseRecord) {
        if self.record_sink {
            self.phases.push(phase);
        }
    }

    /// Installs cold-start policy totals, replacing what the collector
    /// holds; idle memory-time is rounded to whole MiB·µs. A world's
    /// `censor_remaining` already adds its invokers' totals, so a caller
    /// that installs that world's own `total_*` readings afterwards
    /// writes back the same counts (idle memory-time exactly below 2⁵¹
    /// MiB·µs, ≈ 610 GiB·h; above, the `f64` reading may be 1 MiB·µs off).
    pub fn set_coldstart_totals(
        &mut self,
        prewarm_spawns: u64,
        prewarm_hits: u64,
        wasted_prewarms: u64,
        idle_mib_secs: f64,
    ) {
        self.streaming.prewarm_spawns = prewarm_spawns;
        self.streaming.prewarm_hits = prewarm_hits;
        self.streaming.wasted_prewarms = wasted_prewarms;
        self.streaming.idle_mib_micros = (idle_mib_secs * 1e6).round() as u64;
    }

    /// Invocation conservation: every arrival the controller accepted must
    /// end in exactly one record. Returns `(arrivals, accounted)` where
    /// `accounted` sums completions, eviction kills, rejections, censored
    /// rows and fault losses.
    pub fn conservation(&self) -> (u64, u64) {
        let s = &self.streaming;
        (
            self.arrivals,
            s.completed + s.eviction_failures + s.rejections + s.censored + s.lost,
        )
    }

    /// Panics unless arrivals are fully accounted for.
    pub fn assert_conservation(&self) {
        let (arrivals, accounted) = self.conservation();
        assert_eq!(
            arrivals,
            accounted,
            "invocation conservation violated: {arrivals} arrivals vs \
             {accounted} accounted (completed {} + evicted {} + rejected {} \
             + censored {} + lost {})",
            self.streaming.completed,
            self.streaming.eviction_failures,
            self.streaming.rejections,
            self.streaming.censored,
            self.streaming.lost,
        );
    }

    /// Absorbs another shard's collector into this one. Every number
    /// adds, exactly (counts and utilization sums are integers, the
    /// histogram adds bin-wise), so collectors merged in any order and
    /// grouping hold the same values; rows append. Call
    /// [`MetricsCollector::canonicalize_records`] once afterwards to put
    /// the rows in their shard-count-invariant order.
    pub fn merge(&mut self, other: MetricsCollector) {
        self.records.extend(other.records);
        self.samples.extend(other.samples);
        self.ticks.extend(other.ticks);
        self.ticks.sort_unstable_by_key(|t| t.at);
        self.ticks.dedup_by(|t, kept| kept.absorb(t));
        self.replica_occupancy.extend(other.replica_occupancy);
        self.phases.extend(other.phases);
        self.counters.merge(&other.counters);
        self.streaming.merge(&other.streaming);
        self.arrivals += other.arrivals;
        self.vm_evictions += other.vm_evictions;
        self.vm_crashes += other.vm_crashes;
        self.migrations += other.migrations;
        self.quarantines += other.quarantines;
        self.dropped_completions += other.dropped_completions;
    }

    /// Sorts the record sink into its canonical order: finish time, then
    /// invocation id (each id has one record: its owning replica writes
    /// it). Records for different invocations can share a finish instant,
    /// and their push order depends on which shard emitted them; this sort
    /// is what makes the final sequence byte-identical for every shard
    /// count. Also turns the tick sums into fleet-wide
    /// [`UtilizationSample`]s, in tick order.
    pub fn canonicalize_records(&mut self) {
        for t in std::mem::take(&mut self.ticks) {
            self.samples.push(UtilizationSample {
                at: t.at,
                total_cpus: t.total_cpus,
                cpus_in_use: t.used as f64 / CORE_UNITS,
            });
        }
        sort_unique(&mut self.records, |r| r.finished, |r| r.id);
        self.replica_occupancy.sort_by_key(|r| r.replica);
        sort_unique(&mut self.phases, |p| p.finished, |p| p.id);
    }

    /// Adds one invoker's utilization reading to its grid tick's sums
    /// (cores in use rounded to 2⁻³² cores) when the record sink is on.
    /// A world samples in time order, so a reading joins the last tick or
    /// opens the next one.
    pub(crate) fn add_sample(&mut self, at: SimTime, total_cpus: u32, cpus_in_use: f64) {
        if !self.record_sink {
            return;
        }
        let reading = TickSum {
            at,
            total_cpus,
            used: (cpus_in_use * CORE_UNITS).round() as u64,
        };
        if !self.ticks.last_mut().is_some_and(|t| t.absorb(&reading)) {
            debug_assert!(self.ticks.last().is_none_or(|t| t.at < at));
            self.ticks.push(reading);
        }
    }

    /// Records one controller replica's occupancy counters.
    pub fn push_replica_occupancy(&mut self, row: ReplicaOccupancy) {
        self.replica_occupancy.push(row);
    }

    /// Reduces the raw rows to aggregate metrics over `[warmup, end)`.
    /// Invocations arriving before `warmup` are discarded (ramp-up bias).
    ///
    /// Requires the per-record sink; a collector built with
    /// [`streaming_only`](Self::streaming_only) should be read through
    /// [`MetricsCollector::streaming`] instead (which aggregates the whole
    /// run without a warmup cut — the documented trade-off of the
    /// constant-memory tier).
    pub fn aggregate(&self, warmup: SimTime) -> RunMetrics {
        let mut arrivals = 0u64;
        let mut completed = 0u64;
        let mut started = 0u64;
        let mut cold = 0u64;
        let mut failures = 0u64;
        let mut rejected = 0u64;
        let mut lost = 0u64;
        let mut first_arrival = SimTime::MAX;
        let mut last_finished = SimTime::ZERO;
        let mut latencies: Vec<f64> = Vec::new();
        for r in &self.records {
            if r.arrival < warmup {
                continue;
            }
            arrivals += 1;
            first_arrival = first_arrival.min(r.arrival);
            last_finished = last_finished.max(r.finished);
            if r.exec_started {
                started += 1;
                if r.cold {
                    cold += 1;
                }
            }
            match r.outcome {
                Outcome::Completed => {
                    completed += 1;
                    latencies.push(r.latency_secs);
                }
                Outcome::FailedEviction => failures += 1,
                Outcome::Rejected => rejected += 1,
                Outcome::Lost => lost += 1,
                Outcome::Censored => {}
            }
        }
        let latency = if latencies.is_empty() {
            None
        } else {
            Some(Cdf::from_samples(latencies))
        };
        let span = if arrivals == 0 {
            SimDuration::ZERO
        } else {
            last_finished.saturating_since(first_arrival)
        };
        RunMetrics {
            arrivals,
            completed,
            eviction_failures: failures,
            rejections: rejected,
            lost,
            cold_start_rate: if started == 0 {
                0.0
            } else {
                cold as f64 / started as f64
            },
            failure_rate: if arrivals == 0 {
                0.0
            } else {
                failures as f64 / arrivals as f64
            },
            throughput_rps: if span.is_zero() {
                0.0
            } else {
                completed as f64 / span.as_secs_f64()
            },
            latency,
            phases: LatencyAttribution::from_rows(
                self.phases
                    .iter()
                    .filter(|p| p.arrival >= warmup)
                    .copied()
                    .collect(),
            ),
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Arrivals inside the measurement window.
    pub arrivals: u64,
    /// Completed invocations.
    pub completed: u64,
    /// Invocations killed by VM evictions.
    pub eviction_failures: u64,
    /// Invocations rejected at placement.
    pub rejections: u64,
    /// Invocations permanently lost to faults.
    pub lost: u64,
    /// Cold starts over started invocations.
    pub cold_start_rate: f64,
    /// Eviction failures over arrivals.
    pub failure_rate: f64,
    /// Completions per second over the observed span.
    pub throughput_rps: f64,
    /// End-to-end latency distribution of completed invocations.
    pub latency: Option<Cdf>,
    /// Additive phase decomposition of the latency distribution
    /// (telemetry-enabled runs with the record sink; `None` otherwise).
    pub phases: Option<LatencyAttribution>,
}

/// Sorts `rows` in place on `(major, minor)`, a key unique to each row
/// (one record or phase row per invocation). A unique key makes the unstable sort's order exactly the
/// stable sort's, without a stable sort's scratch buffer of half the
/// rows. One shard pushes its rows in `major` order (the instant they
/// were written), so then only runs of equal `major` need sorting, which
/// is linear overall; rows merged from several shards take the full sort.
fn sort_unique<T, A: Ord, B: Ord>(
    rows: &mut [T],
    major: impl Fn(&T) -> A,
    minor: impl Fn(&T) -> B,
) {
    if rows.is_sorted_by_key(&major) {
        for run in rows.chunk_by_mut(|a, b| major(a) == major(b)) {
            run.sort_unstable_by_key(&minor);
        }
    } else {
        rows.sort_unstable_by_key(|r| (major(r), minor(r)));
    }
    debug_assert!(
        rows.windows(2)
            .all(|w| (major(&w[0]), minor(&w[0])) < (major(&w[1]), minor(&w[1]))),
        "canonical sort keys must be unique"
    );
}

impl RunMetrics {
    /// P-th percentile of end-to-end latency in seconds (`None` when
    /// nothing completed).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        self.latency.as_ref().map(|c| c.percentile(p))
    }

    /// The paper's SLO metric: P99 latency in seconds.
    pub fn p99(&self) -> Option<f64> {
        self.latency_percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        arrival_s: u64,
        latency: f64,
        cold: bool,
        outcome: Outcome,
    ) -> InvocationRecord {
        InvocationRecord {
            id,
            arrival: SimTime::from_secs(arrival_s),
            finished: SimTime::from_secs(arrival_s) + SimDuration::from_secs_f64(latency),
            latency_secs: latency,
            exec_secs: latency * 0.8,
            cold,
            exec_started: outcome != Outcome::Rejected,
            outcome,
        }
    }

    #[test]
    fn aggregate_computes_rates() {
        let mut c = MetricsCollector::new();
        for i in 0..80 {
            c.push(rec(i, 10 + i, 1.0, i % 4 == 0, Outcome::Completed));
        }
        for i in 80..90 {
            c.push(rec(i, 10 + i, 0.0, true, Outcome::FailedEviction));
        }
        for i in 90..100 {
            c.push(rec(i, 10 + i, 0.0, false, Outcome::Rejected));
        }
        let m = c.aggregate(SimTime::ZERO);
        assert_eq!(m.arrivals, 100);
        assert_eq!(m.completed, 80);
        assert_eq!(m.eviction_failures, 10);
        assert_eq!(m.rejections, 10);
        assert!((m.failure_rate - 0.1).abs() < 1e-12);
        // Started = 80 completed + 10 failed; cold = 20 completed + 10 failed.
        assert!((m.cold_start_rate - 30.0 / 90.0).abs() < 1e-12);
        assert!(m.p99().is_some());
    }

    #[test]
    fn warmup_filters_early_arrivals() {
        let mut c = MetricsCollector::new();
        c.push(rec(0, 5, 1.0, true, Outcome::Completed));
        c.push(rec(1, 50, 1.0, false, Outcome::Completed));
        let m = c.aggregate(SimTime::from_secs(20));
        assert_eq!(m.arrivals, 1);
        assert!((m.cold_start_rate - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collector_aggregates_safely() {
        let m = MetricsCollector::new().aggregate(SimTime::ZERO);
        assert_eq!(m.arrivals, 0);
        assert!(m.latency.is_none());
        assert_eq!(m.throughput_rps, 0.0);
    }

    #[test]
    fn streaming_tier_matches_record_sink_counters() {
        let mut on = MetricsCollector::new();
        let mut off = MetricsCollector::streaming_only();
        for i in 0..200 {
            let outcome = match i % 10 {
                0 => Outcome::FailedEviction,
                1 => Outcome::Rejected,
                2 => Outcome::Censored,
                _ => Outcome::Completed,
            };
            let r = rec(i, i, 0.1 + (i % 17) as f64, i % 3 == 0, outcome);
            on.push(r);
            off.push(r);
        }
        assert!(off.records.is_empty());
        assert!(!on.records.is_empty());
        let exact = on.aggregate(SimTime::ZERO);
        for s in [&on.streaming, &off.streaming] {
            assert_eq!(s.completed, exact.completed);
            assert_eq!(s.eviction_failures, exact.eviction_failures);
            assert_eq!(s.rejections, exact.rejections);
            // Histogram percentile within one bin width of the exact CDF.
            let p99 = s.latency_percentile(99.0).unwrap();
            let exact_p99 = exact.p99().unwrap();
            assert!(
                (p99 / exact_p99).ln().abs() <= 1.5 * s.latency_hist.bin_ratio().ln(),
                "{p99} vs {exact_p99}"
            );
        }
    }

    #[test]
    fn utilization_sample_routing_respects_sink() {
        let mut on = MetricsCollector::new();
        let mut off = MetricsCollector::streaming_only();
        for c in [&mut on, &mut off] {
            c.add_sample(SimTime::from_secs(1), 8, 4.0);
            c.canonicalize_records();
        }
        let sample = UtilizationSample {
            at: SimTime::from_secs(1),
            total_cpus: 8,
            cpus_in_use: 4.0,
        };
        assert_eq!(on.samples, [sample]);
        assert!(off.samples.is_empty());
    }

    #[test]
    fn lost_outcome_counts_and_conserves() {
        let mut c = MetricsCollector::new();
        c.arrivals = 3;
        c.push(rec(0, 1, 1.0, false, Outcome::Completed));
        c.push(rec(1, 2, 0.0, false, Outcome::Lost));
        c.push(rec(2, 3, 0.0, false, Outcome::Censored));
        assert_eq!(c.streaming.lost, 1);
        assert_eq!(c.aggregate(SimTime::ZERO).lost, 1);
        c.assert_conservation();
        c.arrivals = 4;
        let (arrivals, accounted) = c.conservation();
        assert_ne!(arrivals, accounted);
    }

    /// A fixed pseudo-random permutation of `rows`; with `major`, then
    /// stably ordered on it, as one shard pushes its rows.
    fn arranged<T: Copy, K: Ord>(rows: &[T], major: Option<fn(&T) -> K>) -> Vec<T> {
        let mut keyed: Vec<(u64, T)> = (0u64..)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .zip(rows.iter().copied())
            .collect();
        keyed.sort_by_key(|&(k, _)| k);
        let mut out: Vec<T> = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(major) = major {
            out.sort_by_key(major);
        }
        out
    }

    #[test]
    fn canonical_order_is_the_stable_sort_order() {
        // Many rows share a finish instant (or a tick), so the second key
        // decides their order; every full key is unique.
        let records: Vec<_> = (0..500)
            .map(|i| {
                let latency = ((i % 5) as f64) * 0.25;
                rec(i, (i * 7) % 13, latency, i % 3 == 0, Outcome::Completed)
            })
            .collect();
        let phases: Vec<_> = records
            .iter()
            .map(|r| PhaseRecord {
                id: r.id,
                arrival: r.arrival,
                finished: r.finished,
                cold: r.cold,
                sched_us: r.id,
                bus_us: 2_000,
                queue_us: r.id % 11,
                coldstart_us: 0,
                exec_us: 1_000,
            })
            .collect();
        // Magnitudes far apart, so a float sum in another order differs.
        let readings: Vec<(SimTime, u32, f64)> = (0..40u32)
            .flat_map(|invoker| {
                (0..6u64).map(move |tick| {
                    let used = 10f64.powi(invoker as i32 % 17 - 8) + tick as f64;
                    (SimTime::from_secs(5 * tick), 4, used)
                })
            })
            .collect();
        let mut whole = MetricsCollector::new();
        for &(at, cpus, used) in &arranged(&readings, Some(|r: &(SimTime, u32, f64)| r.0)) {
            whole.add_sample(at, cpus, used);
        }
        whole.canonicalize_records();
        assert_eq!(whole.samples.len(), 6);
        assert!(whole.samples.iter().all(|s| s.total_cpus == 160));

        // Rows merged from several shards arrive in any order; one
        // shard's arrive ordered on the first key.
        for one_shard in [false, true] {
            let records = arranged(&records, one_shard.then_some(|r| r.finished));
            let phases = arranged(&phases, one_shard.then_some(|p| p.finished));
            let mut c = MetricsCollector::new();
            for &r in &records {
                c.push(r);
            }
            for &p in &phases {
                c.push_phase(p);
            }
            c.canonicalize_records();

            let mut want_records = records;
            want_records.sort_by_key(|r| (r.finished, r.id));
            assert_eq!(c.records, want_records);
            let mut want_phases = phases;
            want_phases.sort_by_key(|p| (p.finished, p.id));
            assert_eq!(c.phases, want_phases);
        }

        // Any split of the readings across collectors, each fed in time
        // order and merged in any order, sums to the same sample bits.
        for parts in [2usize, 3, 7] {
            let mut shards: Vec<MetricsCollector> =
                (0..parts).map(|_| MetricsCollector::new()).collect();
            let by_time = arranged(&readings, Some(|r: &(SimTime, u32, f64)| r.0));
            for (k, &(at, cpus, used)) in by_time.iter().enumerate() {
                shards[(k * 31 + k / 5) % parts].add_sample(at, cpus, used);
            }
            for order in [false, true] {
                let mut shards = shards.clone();
                if order {
                    shards.reverse();
                }
                let mut merged = shards.remove(0);
                for peer in shards {
                    merged.merge(peer);
                }
                merged.canonicalize_records();
                assert_eq!(merged.samples, whole.samples, "{parts} parts");
            }
        }
    }

    #[test]
    fn slo_check() {
        let mut c = MetricsCollector::new();
        for i in 0..100 {
            c.push(rec(
                i,
                i,
                if i >= 95 { 100.0 } else { 1.0 },
                false,
                Outcome::Completed,
            ));
        }
        // Five 100 s stragglers in 100: a 50 s P99 SLO is missed, a 150 s
        // one met.
        let p99 = c.aggregate(SimTime::ZERO).p99().unwrap();
        assert!(p99 > 50.0 && p99 <= 150.0, "p99 {p99}");
    }
}
