//! Metrics collection and aggregation.
//!
//! Two tiers of fidelity share one collector:
//!
//! * [`StreamingMetrics`] — always on, constant memory: log-binned
//!   latency/execution histograms, per-outcome and cold-start counters,
//!   Welford moments, and a deterministically decimated utilization time
//!   series. O(bins) space regardless of how many invocations a run
//!   replays, which is what lets the scale bench drive 10⁸+ invocations.
//! * the per-record sink (`records`/`samples`) — one row per finished
//!   invocation, O(invocations) memory. On by default so figure
//!   generation and tests keep exact data; opt out via
//!   [`MetricsCollector::streaming_only`] (the platform wires this to
//!   `PlatformConfig::record_invocations`).
//!
//! [`RunMetrics`] reduces the record sink to the quantities the paper
//! reports — P99 latency, cold-start rate, failure rate, throughput.

use serde::{Deserialize, Serialize};

use hrv_telemetry::{CounterId, CounterRegistry, LatencyAttribution, PhaseRecord, PhaseTotals};
use hrv_trace::stats::{percentile_unsorted, Cdf, LogHistogram, OnlineStats};
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

/// One invoker's contribution to a utilization grid tick. The platform
/// samples per invoker (so sharded runs can sample locally and merge);
/// [`MetricsCollector::canonicalize_records`] coalesces the buffered
/// rows into fleet-wide [`UtilizationSample`]s, summing in invoker order
/// so the float totals are bit-identical for every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartialSample {
    /// Sample time (a multiple of the sampling interval).
    pub at: SimTime,
    /// The sampled invoker.
    pub invoker: u32,
    /// The invoker's allocated CPUs.
    pub total_cpus: u32,
    /// The invoker's cores in use.
    pub cpus_in_use: f64,
}

/// Per-controller-replica occupancy counters (the perfsmoke
/// `controller_occupancy` section): how evenly the partitioned placement
/// path spreads work across replicas.
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

/// A bounded utilization time series with deterministic decimation: when
/// the buffer fills, every other retained point is dropped and the keep
/// stride doubles. No RNG (the simulator's determinism contract), O(cap)
/// memory forever, and the survivors are always the samples at multiples
/// of the current stride — an evenly thinned view of the full series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecimatedSeries {
    cap: usize,
    stride: u64,
    seen: u64,
    points: Vec<UtilizationSample>,
}

impl DecimatedSeries {
    /// Creates a series keeping at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "series needs room to decimate");
        DecimatedSeries {
            cap,
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    /// Offers one sample; it is kept iff it falls on the current stride.
    pub fn push(&mut self, sample: UtilizationSample) {
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() == self.cap {
                let mut i = 0usize;
                self.points.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
            // Re-check: after doubling, this sample may fall off-stride.
            if self.seen.is_multiple_of(self.stride) {
                self.points.push(sample);
            }
        }
        self.seen += 1;
    }

    /// Samples offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained, evenly thinned points in time order.
    pub fn points(&self) -> &[UtilizationSample] {
        &self.points
    }
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
    /// Pure execution time of completed invocations, seconds.
    pub exec_hist: LogHistogram,
    /// Welford moments of completed latency (exact mean/min/max).
    pub latency_stats: OnlineStats,
    /// Finished rows seen (any outcome).
    pub finished: u64,
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
    /// Total invoker-seconds spent quarantined out of placement.
    pub quarantine_secs: f64,
    /// Invocations whose execution began.
    pub started: u64,
    /// Started invocations that cold-started.
    pub cold_started: u64,
    /// Earliest arrival among finished rows.
    pub first_arrival: Option<SimTime>,
    /// Latest finish time among finished rows.
    pub last_finished: Option<SimTime>,
    /// Moments of the cores-in-use utilization signal.
    pub utilization: OnlineStats,
    /// Bounded utilization time series (Figure 20 shape at any scale).
    pub util_series: DecimatedSeries,
    /// Containers spawned by a cold-start policy's prewarm orders.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers destroyed without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·s — the "wasted warm
    /// memory" axis of the cold-start policy grid.
    pub idle_mib_secs: f64,
}

/// Default latency/exec histogram span: 100 µs to 10⁴ s in 160 log bins
/// (8 decades, bin ratio 10^0.05 ≈ 1.122).
const HIST_LO: f64 = 1e-4;
const HIST_HI: f64 = 1e4;
const HIST_BINS: usize = 160;
/// Default cap on the decimated utilization series.
const UTIL_SERIES_CAP: usize = 4_096;

impl Default for StreamingMetrics {
    fn default() -> Self {
        StreamingMetrics {
            latency_hist: LogHistogram::new(HIST_LO, HIST_HI, HIST_BINS),
            exec_hist: LogHistogram::new(HIST_LO, HIST_HI, HIST_BINS),
            latency_stats: OnlineStats::new(),
            finished: 0,
            completed: 0,
            eviction_failures: 0,
            rejections: 0,
            censored: 0,
            lost: 0,
            retries: 0,
            redispatches: 0,
            quarantine_secs: 0.0,
            started: 0,
            cold_started: 0,
            first_arrival: None,
            last_finished: None,
            utilization: OnlineStats::new(),
            util_series: DecimatedSeries::new(UTIL_SERIES_CAP),
            prewarm_spawns: 0,
            prewarm_hits: 0,
            wasted_prewarms: 0,
            idle_mib_secs: 0.0,
        }
    }
}

impl StreamingMetrics {
    /// Folds one finished invocation into the aggregates.
    pub fn record(&mut self, r: &InvocationRecord) {
        self.finished += 1;
        self.first_arrival = Some(match self.first_arrival {
            Some(t) => t.min(r.arrival),
            None => r.arrival,
        });
        self.last_finished = Some(match self.last_finished {
            Some(t) => t.max(r.finished),
            None => r.finished,
        });
        if r.exec_started {
            self.started += 1;
            if r.cold {
                self.cold_started += 1;
            }
        }
        match r.outcome {
            Outcome::Completed => {
                self.completed += 1;
                self.latency_hist.record(r.latency_secs);
                self.exec_hist.record(r.exec_secs);
                self.latency_stats.push(r.latency_secs);
            }
            Outcome::FailedEviction => self.eviction_failures += 1,
            Outcome::Rejected => self.rejections += 1,
            Outcome::Censored => self.censored += 1,
            Outcome::Lost => self.lost += 1,
        }
    }

    /// Folds one utilization sample into the reservoir and moments.
    pub fn record_sample(&mut self, s: &UtilizationSample) {
        self.utilization.push(s.cpus_in_use);
        self.util_series.push(*s);
    }

    /// The `p`-th latency percentile estimate (within one histogram bin
    /// width of exact), or `None` when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        self.latency_hist.percentile(p)
    }

    /// Cold starts over started invocations.
    pub fn cold_start_rate(&self) -> f64 {
        if self.started == 0 {
            0.0
        } else {
            self.cold_started as f64 / self.started as f64
        }
    }

    /// Eviction failures over finished rows.
    pub fn failure_rate(&self) -> f64 {
        if self.finished == 0 {
            0.0
        } else {
            self.eviction_failures as f64 / self.finished as f64
        }
    }

    /// Merges another shard's aggregates into this one. Counters add,
    /// extrema combine, and the histograms merge bin-wise; the Welford
    /// moments use the parallel-merge formula, so the exact float bits of
    /// `latency_stats` may differ from a sequential fold (they are
    /// outside the sharded driver's byte-identity contract). The bounded
    /// utilization series cannot be re-interleaved after decimation, so
    /// it keeps whichever side has points (harmless: sharded worlds
    /// buffer per-invoker partial rows and only feed the series after
    /// the merge, so at merge time both sides are empty).
    pub fn merge(&mut self, other: &StreamingMetrics) {
        self.latency_hist.merge(&other.latency_hist);
        self.exec_hist.merge(&other.exec_hist);
        self.latency_stats.merge(&other.latency_stats);
        self.finished += other.finished;
        self.completed += other.completed;
        self.eviction_failures += other.eviction_failures;
        self.rejections += other.rejections;
        self.censored += other.censored;
        self.lost += other.lost;
        self.retries += other.retries;
        self.redispatches += other.redispatches;
        self.quarantine_secs += other.quarantine_secs;
        self.started += other.started;
        self.cold_started += other.cold_started;
        self.first_arrival = match (self.first_arrival, other.first_arrival) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_finished = match (self.last_finished, other.last_finished) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.utilization.merge(&other.utilization);
        if self.util_series.points().is_empty() && !other.util_series.points().is_empty() {
            self.util_series = other.util_series.clone();
        }
        self.prewarm_spawns += other.prewarm_spawns;
        self.prewarm_hits += other.prewarm_hits;
        self.wasted_prewarms += other.wasted_prewarms;
        self.idle_mib_secs += other.idle_mib_secs;
    }

    /// Completions per second over the observed span.
    pub fn throughput_rps(&self) -> f64 {
        let span = match (self.first_arrival, self.last_finished) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        if span.is_zero() {
            0.0
        } else {
            self.completed as f64 / span.as_secs_f64()
        }
    }
}

/// Streaming collector filled in by the platform world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsCollector {
    /// Finished invocation rows (empty when the record sink is off).
    pub records: Vec<InvocationRecord>,
    /// Utilization time series (empty when the record sink is off).
    pub samples: Vec<UtilizationSample>,
    /// Per-invoker utilization rows awaiting coalescing. Buffered until
    /// [`MetricsCollector::canonicalize_records`] so sharded runs can
    /// merge every shard's rows first and sum them in invoker order.
    pub partial_samples: Vec<PartialSample>,
    /// Per-controller-replica placement/envelope counts, flushed at
    /// censoring time.
    pub replica_occupancy: Vec<ReplicaOccupancy>,
    /// Constant-memory aggregates, always maintained.
    pub streaming: StreamingMetrics,
    /// Total arrivals seen by the controller.
    pub arrivals: u64,
    /// Warm starts (execution began on an existing container).
    pub warm_starts: u64,
    /// Cold starts (execution required a new container).
    pub cold_starts: u64,
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
    /// Named-counter registry mirroring the reliability and prewarm
    /// counters above (the `note_*` accessors and
    /// [`MetricsCollector::set_coldstart_totals`] dual-write both views,
    /// so legacy field readers and registry readers always agree).
    pub counters: CounterRegistry,
    /// Per-invocation latency phase rows (telemetry-enabled runs with the
    /// record sink on; empty otherwise).
    pub phases: Vec<PhaseRecord>,
    /// Constant-memory phase sums, maintained whenever telemetry is on —
    /// the streaming tier's view of the attribution.
    pub phase_totals: PhaseTotals,
    /// Whether [`MetricsCollector::set_coldstart_totals`] ran on this
    /// collector — the assign-once guard that keeps shard merges from
    /// double-counting the invoker-summed totals.
    coldstart_installed: bool,
    record_sink: bool,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector {
            records: Vec::new(),
            samples: Vec::new(),
            partial_samples: Vec::new(),
            replica_occupancy: Vec::new(),
            streaming: StreamingMetrics::default(),
            arrivals: 0,
            warm_starts: 0,
            cold_starts: 0,
            vm_evictions: 0,
            vm_crashes: 0,
            migrations: 0,
            quarantines: 0,
            dropped_completions: 0,
            counters: CounterRegistry::new(),
            phases: Vec::new(),
            phase_totals: PhaseTotals::default(),
            coldstart_installed: false,
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

    /// Whether the per-record sink is enabled.
    pub fn records_enabled(&self) -> bool {
        self.record_sink
    }

    /// Records a finished invocation.
    pub fn push(&mut self, record: InvocationRecord) {
        self.streaming.record(&record);
        if self.record_sink {
            self.records.push(record);
        }
    }

    /// Counts one re-dispatch attempt (a `Redispatch` event firing).
    /// Thin wrapper over the counter registry; the legacy streaming field
    /// is dual-written so existing readers see identical values.
    pub fn note_retry(&mut self) {
        self.streaming.retries += 1;
        self.counters.incr(CounterId::Retries);
    }

    /// Counts one destroyed in-flight invocation salvaged into the retry
    /// path instead of being recorded as a failure.
    pub fn note_redispatch(&mut self) {
        self.streaming.redispatches += 1;
        self.counters.incr(CounterId::Redispatches);
    }

    /// Counts one invoker entering quarantine.
    pub fn note_quarantine(&mut self) {
        self.quarantines += 1;
        self.counters.incr(CounterId::Quarantines);
    }

    /// Accumulates time an invoker spent quarantined.
    pub fn note_quarantine_span(&mut self, span: SimDuration) {
        self.streaming.quarantine_secs += span.as_secs_f64();
        self.counters
            .add(CounterId::QuarantineMicros, span.as_micros());
    }

    /// Folds one invocation's phase split into the collector: the
    /// streaming sums always, the per-invocation row only when the record
    /// sink is on (mirroring [`MetricsCollector::push`]).
    pub fn push_phase(&mut self, phase: PhaseRecord) {
        self.phase_totals.add(&phase);
        if self.record_sink {
            self.phases.push(phase);
        }
    }

    /// Installs the fleet-wide cold-start policy totals (summed at the
    /// invokers, like `dropped_completions`) — assignment, not addition,
    /// so per-shard merges cannot double-count. Must run exactly once per
    /// merged collector, *after* all shard merges; debug builds assert
    /// both directions (here and in [`MetricsCollector::merge`]).
    pub fn set_coldstart_totals(
        &mut self,
        prewarm_spawns: u64,
        prewarm_hits: u64,
        wasted_prewarms: u64,
        idle_mib_secs: f64,
    ) {
        debug_assert!(
            !self.coldstart_installed,
            "cold-start totals assigned twice on one collector"
        );
        self.coldstart_installed = true;
        self.streaming.prewarm_spawns = prewarm_spawns;
        self.streaming.prewarm_hits = prewarm_hits;
        self.streaming.wasted_prewarms = wasted_prewarms;
        self.streaming.idle_mib_secs = idle_mib_secs;
        self.counters
            .assign(CounterId::PrewarmSpawns, prewarm_spawns);
        self.counters.assign(CounterId::PrewarmHits, prewarm_hits);
        self.counters
            .assign(CounterId::WastedPrewarms, wasted_prewarms);
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

    /// Absorbs another shard's collector into this one: rows append,
    /// counters add, streaming aggregates merge. Call
    /// [`MetricsCollector::canonicalize_records`] afterwards to restore
    /// the shard-count-invariant record order.
    pub fn merge(&mut self, other: MetricsCollector) {
        debug_assert!(
            !self.coldstart_installed && !other.coldstart_installed,
            "cold-start totals installed before shard merge (they are \
             fleet-wide sums assigned once, after all merges)"
        );
        self.records.extend(other.records);
        self.samples.extend(other.samples);
        self.partial_samples.extend(other.partial_samples);
        self.replica_occupancy.extend(other.replica_occupancy);
        self.phases.extend(other.phases);
        self.phase_totals.merge(&other.phase_totals);
        self.counters.merge(&other.counters);
        self.streaming.merge(&other.streaming);
        self.arrivals += other.arrivals;
        self.warm_starts += other.warm_starts;
        self.cold_starts += other.cold_starts;
        self.vm_evictions += other.vm_evictions;
        self.vm_crashes += other.vm_crashes;
        self.migrations += other.migrations;
        self.quarantines += other.quarantines;
        self.dropped_completions += other.dropped_completions;
    }

    /// Sorts the record sink into its canonical order: finish time, then
    /// invocation id, then outcome. Records for different invocations can
    /// share a finish instant (and one invocation can even finalize twice
    /// at the same instant — a completion whose report is still in flight
    /// when the horizon censors it), and their push order depends on
    /// which shard emitted them; this sort is what makes the final
    /// sequence byte-identical for every shard count. Sample rows sort by
    /// time for the same reason.
    pub fn canonicalize_records(&mut self) {
        fn outcome_rank(o: Outcome) -> u8 {
            match o {
                Outcome::Completed => 0,
                Outcome::FailedEviction => 1,
                Outcome::Rejected => 2,
                Outcome::Censored => 3,
                Outcome::Lost => 4,
            }
        }
        self.coalesce_partial_samples();
        self.records
            .sort_by_key(|r| (r.finished, r.id, outcome_rank(r.outcome)));
        self.samples.sort_by_key(|s| s.at);
        self.replica_occupancy.sort_by_key(|r| r.replica);
        self.phases.sort_by_key(|p| (p.finished, p.id));
    }

    /// Folds the buffered per-invoker sample rows into fleet-wide
    /// [`UtilizationSample`]s, one per grid tick. Rows are sorted by
    /// `(at, invoker)` and summed in that order, so the float totals are
    /// bit-identical no matter which shard produced which row.
    fn coalesce_partial_samples(&mut self) {
        if self.partial_samples.is_empty() {
            return;
        }
        let mut rows = std::mem::take(&mut self.partial_samples);
        rows.sort_by_key(|r| (r.at, r.invoker));
        let mut i = 0usize;
        while i < rows.len() {
            let at = rows[i].at;
            let mut total_cpus = 0u32;
            let mut cpus_in_use = 0.0f64;
            while i < rows.len() && rows[i].at == at {
                total_cpus += rows[i].total_cpus;
                cpus_in_use += rows[i].cpus_in_use;
                i += 1;
            }
            self.push_sample(UtilizationSample {
                at,
                total_cpus,
                cpus_in_use,
            });
        }
    }

    /// Buffers one invoker's utilization reading for a grid tick. The
    /// buffer grows with `ticks x invokers` until
    /// [`MetricsCollector::canonicalize_records`] coalesces it — the
    /// price of sampling that merges deterministically across shards.
    pub fn push_partial_sample(&mut self, at: SimTime, invoker: u32, total_cpus: u32, used: f64) {
        self.partial_samples.push(PartialSample {
            at,
            invoker,
            total_cpus,
            cpus_in_use: used,
        });
    }

    /// Records one controller replica's occupancy counters.
    pub fn push_replica_occupancy(&mut self, row: ReplicaOccupancy) {
        self.replica_occupancy.push(row);
    }

    /// Records a utilization sample.
    pub fn push_sample(&mut self, sample: UtilizationSample) {
        self.streaming.record_sample(&sample);
        if self.record_sink {
            self.samples.push(sample);
        }
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

    /// Single-percentile fast path over the record sink: fills `buf` with
    /// the completed latencies arriving at or after `warmup` and selects
    /// the `p`-th percentile in O(n) without sorting, reusing `buf`'s
    /// allocation across calls. Matches `aggregate(...).latency_percentile(p)`.
    pub fn latency_percentile_with(
        &self,
        warmup: SimTime,
        p: f64,
        buf: &mut Vec<f64>,
    ) -> Option<f64> {
        buf.clear();
        buf.extend(
            self.records
                .iter()
                .filter(|r| r.arrival >= warmup && r.outcome == Outcome::Completed)
                .map(|r| r.latency_secs),
        );
        if buf.is_empty() {
            None
        } else {
            Some(percentile_unsorted(buf, p))
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

    /// True if this run met a P99 SLO of `slo_secs`.
    pub fn meets_slo(&self, slo_secs: f64) -> bool {
        match self.p99() {
            Some(p99) => p99 <= slo_secs,
            None => false,
        }
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
        assert!(!m.meets_slo(50.0));
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
            assert_eq!(s.finished, 200);
            assert_eq!(s.completed, exact.completed);
            assert_eq!(s.eviction_failures, exact.eviction_failures);
            assert_eq!(s.rejections, exact.rejections);
            assert!((s.cold_start_rate() - exact.cold_start_rate).abs() < 1e-12);
            assert!((s.failure_rate() - exact.failure_rate).abs() < 1e-12);
            assert!((s.throughput_rps() - exact.throughput_rps).abs() < 1e-12);
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
    fn latency_percentile_fast_path_matches_aggregate() {
        let mut c = MetricsCollector::new();
        for i in 0..150 {
            c.push(rec(
                i,
                i,
                ((i * 31) % 150) as f64 + 0.5,
                false,
                Outcome::Completed,
            ));
        }
        c.push(rec(150, 150, 0.0, false, Outcome::Rejected));
        let m = c.aggregate(SimTime::from_secs(10));
        let mut buf = Vec::new();
        for p in [0.0, 50.0, 99.0, 100.0] {
            let fast = c
                .latency_percentile_with(SimTime::from_secs(10), p, &mut buf)
                .unwrap();
            assert!(
                (fast - m.latency_percentile(p).unwrap()).abs() < 1e-9,
                "p{p}"
            );
        }
        assert!(c
            .latency_percentile_with(SimTime::from_secs(10_000), 50.0, &mut buf)
            .is_none());
    }

    #[test]
    fn decimated_series_is_bounded_and_even() {
        let mut s = DecimatedSeries::new(8);
        for i in 0..10_000u64 {
            s.push(UtilizationSample {
                at: SimTime::from_secs(i),
                total_cpus: 16,
                cpus_in_use: i as f64,
            });
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.points().len() <= 8, "kept {}", s.points().len());
        assert!(s.points().len() >= 4);
        // Survivors are evenly strided multiples of a power of two.
        let stride = s.points()[1].at.since(s.points()[0].at);
        for w in s.points().windows(2) {
            assert_eq!(w[1].at.since(w[0].at), stride);
        }
        assert_eq!(s.points()[0].at, SimTime::ZERO);
    }

    #[test]
    fn utilization_sample_routing_respects_sink() {
        let sample = UtilizationSample {
            at: SimTime::from_secs(1),
            total_cpus: 8,
            cpus_in_use: 4.0,
        };
        let mut on = MetricsCollector::new();
        let mut off = MetricsCollector::streaming_only();
        on.push_sample(sample);
        off.push_sample(sample);
        assert_eq!(on.samples.len(), 1);
        assert!(off.samples.is_empty());
        assert_eq!(on.streaming.utilization.count(), 1);
        assert_eq!(off.streaming.utilization.count(), 1);
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
        let m = c.aggregate(SimTime::ZERO);
        assert!(!m.meets_slo(50.0));
        assert!(m.meets_slo(150.0));
    }
}
