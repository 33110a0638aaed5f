//! The platform world: wires VM traces, invokers, the controller, and the
//! workload into one deterministic discrete-event simulation.
//!
//! [`PlatformWorld`] is a router, not an actor. The actors are the two
//! entity types — controller replicas (`replica.rs`) and invokers
//! ([`crate::invoker`]) — and every event is handled by exactly one of
//! them, found through `Event::target`. A handler gets `&mut` to its own
//! entity and a `Ctx`; it cannot name another entity, so whatever it
//! wants from one has to travel as an [`Envelope`] with at least one bus
//! hop of delay — the property the sharded driver's lookahead rests on.

use hrv_fault::{FaultKind, FaultPlan, WarningFault};
use hrv_lb::policy::LoadBalancer;
use hrv_sim::calendar::{Calendar, EnvelopeLane, EventCalendar, Scheduled};
use hrv_sim::engine::{RunStats, World};
use hrv_trace::faas::Invocation;
use hrv_trace::harvest::{VmEnd, VmTrace};
use hrv_trace::rng::splitmix64;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::{SimDuration, SimTime};

use hrv_telemetry::{FlightRecorder, SpanKind};

use crate::config::PlatformConfig;
use crate::controller::Controller;
use crate::event::{Event, InvokerIndex, ReplicaIndex};
use crate::invoker::{first_sample_at, InvokerState, SlotSource};
use crate::mailbox::{Entity, EntityId, Envelope, ShardPlan};
use crate::metrics::MetricsCollector;
use crate::replica::ReplicaState;
use crate::telemetry::TelemetrySink;

/// The VMs a simulation starts from.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// One VM trace per invoker slot.
    pub vms: Vec<VmTrace>,
}

impl ClusterSpec {
    /// A cluster of `n` identical regular VMs that never change or die
    /// within `horizon`.
    pub fn regular(n: usize, cpus: u32, memory_mb: u64, horizon: SimDuration) -> Self {
        let vms = (0..n)
            .map(|_| {
                VmTrace::constant(
                    SimTime::ZERO,
                    SimTime::ZERO + horizon,
                    VmEnd::Censored,
                    cpus,
                    memory_mb,
                )
            })
            .collect();
        ClusterSpec { vms }
    }

    /// A static heterogeneous cluster with the given per-VM CPU counts
    /// (the paper's "Normal" harvest cluster shape).
    pub fn from_sizes(sizes: &[u32], memory_mb: u64, horizon: SimDuration) -> Self {
        let vms = sizes
            .iter()
            .map(|&cpus| {
                VmTrace::constant(
                    SimTime::ZERO,
                    SimTime::ZERO + horizon,
                    VmEnd::Censored,
                    cpus,
                    memory_mb,
                )
            })
            .collect();
        ClusterSpec { vms }
    }

    /// A cluster driven by arbitrary VM traces (harvest windows, spot
    /// packings, ...).
    pub fn from_traces(vms: Vec<VmTrace>) -> Self {
        ClusterSpec { vms }
    }

    /// Sum of initial CPU allocations.
    pub fn total_initial_cpus(&self) -> u32 {
        self.vms.iter().map(|v| v.initial_cpus).sum()
    }
}

/// Everything a handler can reach besides its own entity: the shard's
/// calendar, the config, and *sinks*. Built once per event by
/// [`PlatformWorld::handle`].
///
/// Nothing here lets one entity read another, and everything written
/// here is insensitive to how entities interleave within an instant: the
/// outbox is re-ordered by `(deliver_at, sender, seq)` on delivery, the
/// recorder keeps one ring per entity, records are re-sorted and counters
/// summed after the run. The one shared ordered resource is the
/// calendar's own sequence number — which is why the order of `schedule`
/// calls inside a handler is part of the golden fingerprints.
pub(crate) struct Ctx<'a, C: EventCalendar<Event>> {
    /// The time of the event being handled.
    pub(crate) now: SimTime,
    pub(crate) cfg: &'a PlatformConfig,
    /// The shard's calendar, for the entity's own timers.
    pub(crate) cal: &'a mut C,
    pub(crate) metrics: &'a mut MetricsCollector,
    /// Total controller replicas across all shards.
    pub(crate) replicas: u32,
    outbox: &'a mut Vec<Envelope>,
    tel: &'a mut TelemetrySink,
}

impl<C: EventCalendar<Event>> Ctx<'_, C> {
    /// Emits a cross-entity message from `sender`, whose message counter
    /// is `seq`, to the entity `event` is addressed to. Every cross-entity
    /// interaction — even under the solo plan — goes through here so the
    /// canonical `(deliver_at, sender, seq)` delivery order is identical
    /// for every shard count. The delay must be at least one bus hop: that
    /// minimum is the conservative lookahead the round driver's windows
    /// rest on, checked when the envelope enters a calendar's lane
    /// (`schedule_envelope` panics on one due inside the open window).
    pub(crate) fn send(
        &mut self,
        sender: EntityId,
        seq: &mut u64,
        delay: SimDuration,
        event: Event,
    ) {
        self.outbox.push(Envelope {
            deliver_at: self.now.saturating_add(delay),
            sender,
            seq: *seq,
            target: event.target(self.replicas),
            event,
        });
        *seq += 1;
    }

    /// Sends one copy of a message to every controller replica, in
    /// ascending replica order (each replica keeps its own full cluster
    /// view, so invoker health and membership news fan out to all).
    pub(crate) fn broadcast(
        &mut self,
        sender: EntityId,
        seq: &mut u64,
        delay: SimDuration,
        copy_for: impl Fn(ReplicaIndex) -> Event,
    ) {
        for replica in 0..self.replicas {
            self.send(sender, seq, delay, copy_for(replica));
        }
    }

    /// Records one span event at the current time under `entity`'s ring
    /// (no-op when telemetry is off).
    #[inline]
    pub(crate) fn record(&mut self, entity: EntityId, invocation: u64, kind: SpanKind) {
        self.tel.record(entity, self.now, invocation, kind);
    }
}

/// The complete simulated platform — or, under the sharded driver, the
/// slice of it one shard owns (see [`ShardPlan`]): the entities, the
/// shard's arrival stream, and the sinks handlers write to.
pub struct PlatformWorld {
    cfg: PlatformConfig,
    /// Controller replicas hosted on this shard, ascending by index
    /// (replica `r` lives on shard `r % shards`; its local slot is
    /// `r / shards`).
    replicas: Vec<ReplicaState>,
    /// Total controller replicas across all shards
    /// (`cfg.sharding.replicas`).
    replica_count: u32,
    /// Every invoker slot, by global index; the ones other shards own
    /// stay dormant placeholders here.
    invokers: Vec<InvokerState>,
    arrivals: Box<dyn ArrivalStream>,
    /// Metrics sink.
    pub metrics: MetricsCollector,
    /// Which entities (controller, invokers) this world instance owns.
    plan: ShardPlan,
    /// Cross-entity messages not yet handed to a calendar's envelope lane;
    /// the round driver drains them (see [`crate::shard`]).
    outbox: Vec<Envelope>,
    /// This shard's slice of the flight recorder (a strict no-op under
    /// [`hrv_telemetry::TelemetryConfig::Off`]).
    pub(crate) tel: TelemetrySink,
}

impl std::fmt::Debug for PlatformWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformWorld")
            .field("plan", &self.plan)
            .field("invokers", &self.invokers.len())
            .finish_non_exhaustive()
    }
}

impl PlatformWorld {
    /// Builds one shard's slice of the platform and seeds `cal` with VM
    /// lifecycle events, the first workload arrival, and periodic ticks:
    /// the full invoker table (for stable global indexing) but calendar
    /// seeds only for the entities `plan` owns. [`ShardPlan::solo`] is the
    /// unsharded platform.
    ///
    /// The platform pulls arrivals from `arrivals` one at a time — only
    /// one future arrival ever sits in the calendar, so a lazy stream
    /// ([`hrv_trace::stream::WorkloadStream`]) drives arbitrarily long
    /// runs in constant memory.
    ///
    /// The fault plan's timed faults become calendar events, its warning
    /// faults rewrite each VM's eviction-warning schedule, and its
    /// dispatch process (if any) gates every controller→invoker placement
    /// message. [`FaultPlan::none`] is a strict no-op: no extra events,
    /// no extra randomness, byte-identical runs.
    ///
    /// Generic over the calendar implementation so differential tests can
    /// drive the whole platform through the reference spec
    /// ([`hrv_sim::calendar_reference`]).
    #[allow(clippy::too_many_arguments)]
    pub fn from_stream_sharded_in(
        spec: ClusterSpec,
        mut arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        plan: ShardPlan,
        cal: &mut impl EventCalendar<Event>,
    ) -> Self {
        cfg.validate();
        let mut invokers = Vec::with_capacity(spec.vms.len());
        for (i, vm) in spec.vms.iter().enumerate() {
            let index = i as InvokerIndex;
            invokers.push(InvokerState::for_slot(
                index,
                SlotSource::Trace(vm.clone()),
                &cfg,
            ));
            if !plan.owns_invoker(index) {
                continue;
            }
            cal.schedule(vm.deploy, Event::VmDeploy { invoker: index });
            for ch in &vm.cpu_changes {
                cal.schedule(
                    ch.at,
                    Event::VmCpu {
                        invoker: index,
                        cpus: ch.cpus,
                    },
                );
            }
            match vm.ended {
                VmEnd::Censored => {}
                VmEnd::Evicted | VmEnd::Removed => {
                    if let Some(warn_at) = vm.warning_time() {
                        match faults.warning_fault(index) {
                            None => {
                                cal.schedule(
                                    warn_at.max(vm.deploy),
                                    Event::VmWarn { invoker: index },
                                );
                            }
                            Some(WarningFault::Drop) => {}
                            Some(WarningFault::Delay(by)) => {
                                // A warning delayed past the eviction
                                // itself is as good as dropped.
                                let at = (warn_at + by).max(vm.deploy);
                                if at < vm.end {
                                    cal.schedule(at, Event::VmWarn { invoker: index });
                                }
                            }
                        }
                    }
                    cal.schedule(vm.end, Event::VmEvict { invoker: index });
                }
            }
        }
        for fe in &faults.events {
            let (owned, event) = match fe.kind {
                FaultKind::Crash { invoker } => {
                    (plan.owns_invoker(invoker), Event::FaultCrash { invoker })
                }
                FaultKind::StragglerStart { invoker, factor } => (
                    plan.owns_invoker(invoker),
                    Event::FaultStraggler { invoker, factor },
                ),
                FaultKind::StragglerEnd { invoker } => (
                    plan.owns_invoker(invoker),
                    Event::FaultStraggler {
                        invoker,
                        factor: 1.0,
                    },
                ),
                FaultKind::ViewFreeze => (
                    plan.owns_controller(),
                    Event::FaultViewFreeze { frozen: true },
                ),
                FaultKind::ViewThaw => (
                    plan.owns_controller(),
                    Event::FaultViewFreeze { frozen: false },
                ),
            };
            if owned {
                cal.schedule(fe.at, event);
            }
        }
        let replica_count = cfg.sharding.replicas;
        // Every shard consumes arrivals for the functions its hosted
        // replicas own directly — the driver hands each shard a stream
        // pre-filtered to that ownership set, so there is no hop through
        // shard 0. (Under the solo plan the stream is the full workload.)
        if let Some(first) = arrivals.next_invocation() {
            cal.schedule(first.arrival, Event::Arrival(first));
        }
        if plan.owns_controller() && cfg.monitor.enabled {
            cal.schedule_after(cfg.monitor.interval, Event::MonitorTick);
        }
        let hosted: Vec<ReplicaIndex> = (0..replica_count)
            .filter(|&r| plan.owns_replica(r))
            .collect();
        for &r in &hosted {
            if cfg.recovery.enabled {
                cal.schedule_after(
                    cfg.recovery.probe_interval,
                    Event::HealthSweep { replica: r },
                );
            }
            // Reconciliation only exists between peers: with a single
            // replica no tick is scheduled and event counts match the
            // pre-replication platform exactly.
            if replica_count > 1 {
                cal.schedule_after(
                    cfg.sharding.reconcile_interval,
                    Event::ReconcileTick { replica: r },
                );
            }
        }
        if !cfg.sample_interval.is_zero() {
            // Per-invoker sampling chains on the shared grid: each owned
            // slot ticks from its first grid point at/after deploy until
            // death, so the merged series is shard-count-invariant.
            for (i, vm) in spec.vms.iter().enumerate() {
                let index = i as InvokerIndex;
                if plan.owns_invoker(index) {
                    let at = first_sample_at(vm.deploy, cfg.sample_interval);
                    cal.schedule(at, Event::Sample { invoker: index });
                }
            }
        }
        // The caller's policy instance goes to the first hosted replica,
        // fresh copies to the rest.
        let fresh: Vec<Box<dyn LoadBalancer>> = (1..hosted.len()).map(|_| policy.fresh()).collect();
        let replicas: Vec<ReplicaState> = hosted
            .into_iter()
            .zip(std::iter::once(policy).chain(fresh))
            .map(|(r, lb)| {
                // Replica 0 keeps the caller's seed bit-for-bit; peers
                // derive theirs so tie-break rolls stay independent.
                let rng_seed = if r == 0 {
                    seed
                } else {
                    seed ^ splitmix64(0x5EED_0000_u64 + u64::from(r))
                };
                let mut controller = Controller::new(lb, rng_seed);
                if replica_count > 1 {
                    controller.enable_delta_tracking();
                }
                ReplicaState::new(
                    r,
                    controller,
                    faults.dispatch.as_ref().map(|d| d.sampler()),
                    cfg.recovery.retry_budget,
                    spec.vms.len() as u32,
                )
            })
            .collect();
        let metrics = if cfg.record_invocations {
            MetricsCollector::new()
        } else {
            MetricsCollector::streaming_only()
        };
        let tel = TelemetrySink::new(&cfg.telemetry);
        PlatformWorld {
            replicas,
            replica_count,
            cfg,
            invokers,
            arrivals,
            metrics,
            plan,
            outbox: Vec::new(),
            tel,
        }
    }

    /// Fleet-wide cold starts counted at the invokers.
    pub fn total_cold_starts(&self) -> u64 {
        self.invokers.iter().map(|i| i.cold_starts).sum()
    }

    /// Fleet-wide warm starts counted at the invokers.
    pub fn total_warm_starts(&self) -> u64 {
        self.invokers.iter().map(|i| i.warm_starts).sum()
    }

    /// Completion reports the invokers dropped because their container
    /// died mid-report (summed for [`MetricsCollector`]).
    pub fn total_dropped_completions(&self) -> u64 {
        self.invokers.iter().map(|i| i.dropped_completions).sum()
    }

    /// Fleet-wide prewarm containers spawned by the cold-start policy.
    pub fn total_prewarm_spawns(&self) -> u64 {
        self.invokers.iter().map(|i| i.prewarm_spawns).sum()
    }

    /// Fleet-wide warm starts served by a prewarmed container's first use.
    pub fn total_prewarm_hits(&self) -> u64 {
        self.invokers.iter().map(|i| i.prewarm_hits).sum()
    }

    /// Fleet-wide prewarmed containers reaped without ever serving.
    pub fn total_wasted_prewarms(&self) -> u64 {
        self.invokers.iter().map(|i| i.wasted_prewarms).sum()
    }

    /// Fleet-wide warm memory-time spent idle, MiB·s.
    pub fn total_idle_mib_secs(&self) -> f64 {
        self.invokers.iter().map(|i| i.idle_mib_secs).sum()
    }

    /// The platform configuration.
    pub fn cfg(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// This world's shard plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Drains the cross-entity messages produced since the last call, for
    /// a driver that routes them itself (the threaded driver, to their
    /// target shards).
    pub fn take_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Moves the outbox into `cal`'s envelope lane in place, keeping its
    /// allocation: the solo driver's delivery path.
    pub(crate) fn flush_outbox<C: EnvelopeLane<Event>>(&mut self, cal: &mut C) {
        for env in self.outbox.drain(..) {
            env.enter_lane(cal);
        }
    }

    /// Marks everything still in flight as censored (call after the run,
    /// on every world — each censors the replicas it hosts) and flushes
    /// per-replica occupancy counters into the metrics.
    pub fn censor_remaining(&mut self, now: SimTime) {
        for replica in &mut self.replicas {
            replica.censor_remaining(now, &mut self.metrics, &mut self.tel);
        }
    }
}

impl World for PlatformWorld {
    type Event = Event;

    /// The router: does the two things that are the shard's rather than
    /// an entity's — pulling the next arrival off the stream and growing
    /// the invoker table for a monitor-ordered VM — then hands the event
    /// to the one entity `Event::target` names.
    fn handle<C: EventCalendar<Event>>(&mut self, ev: Scheduled<Event>, cal: &mut C) {
        match &ev.event {
            Event::Arrival(_) => {
                // Feed the next arrival lazily to keep the calendar small.
                if let Some(next) = self.arrivals.next_invocation() {
                    cal.schedule(next.arrival, Event::Arrival(next));
                }
            }
            Event::SpawnVm { invoker, template } => {
                // The order lands on the shard owning its slot index: grow
                // the table up to it (the gap entries belong to other
                // shards and stay dormant placeholders here).
                while self.invokers.len() <= *invoker as usize {
                    let index = self.invokers.len() as InvokerIndex;
                    let slot = SlotSource::Monitor(*template);
                    self.invokers
                        .push(InvokerState::for_slot(index, slot, &self.cfg));
                }
            }
            _ => {}
        }
        let target = ev.event.target(self.replica_count);
        let mut ctx = Ctx {
            now: ev.at,
            cfg: &self.cfg,
            cal,
            metrics: &mut self.metrics,
            replicas: self.replica_count,
            outbox: &mut self.outbox,
            tel: &mut self.tel,
        };
        match Entity::of(target) {
            Entity::Replica(r) => {
                // Replica-targeted events only land on the hosting shard.
                let replica = &mut self.replicas[(r / self.plan.shards) as usize];
                debug_assert_eq!(replica.index, r, "replica routed to wrong shard");
                replica.handle(ev.event, &mut ctx);
            }
            Entity::Invoker(i) => {
                let invoker = &mut self.invokers[i as usize];
                invoker.handle(ev.event, &mut ctx);
                // Flush the spans the state machine buffered (a no-op for
                // disabled runs: the buffer never fills).
                ctx.tel.drain(target, &mut invoker.tel);
            }
        }
    }
}

/// One packaged simulation run.
pub struct Simulation {
    world: PlatformWorld,
    calendar: Calendar<Event>,
}

/// Results of a completed run.
#[derive(Debug)]
pub struct SimOutput {
    /// Raw per-invocation records and counters.
    pub collector: MetricsCollector,
    /// Engine statistics.
    pub run: RunStats,
    /// Fleet-wide cold starts (invoker-counted).
    pub cold_starts: u64,
    /// Fleet-wide warm starts (invoker-counted).
    pub warm_starts: u64,
    /// Merged flight recorder (empty under `TelemetryConfig::Off`).
    pub recorder: FlightRecorder,
}

impl SimOutput {
    /// [`MetricsCollector::assert_conservation`] with a flight-recorder
    /// dump on failure: if the invocation-conservation invariant is about
    /// to fail, the recorder's trailing events land under
    /// [`hrv_telemetry::dump::DEFAULT_DUMP_DIR`] (CI uploads that
    /// directory as an artifact) before the panic fires.
    pub fn assert_conservation(&self) {
        let (arrived, resolved) = self.collector.conservation();
        if arrived != resolved {
            let n = hrv_telemetry::FlightConfig::default().dump_last as usize;
            hrv_telemetry::dump::write_default("conservation", &self.recorder, n);
        }
        self.collector.assert_conservation();
    }
}

impl Simulation {
    /// Builds a simulation from a cluster, a workload trace (sorted by
    /// arrival time), and a policy.
    pub fn new(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> Self {
        Simulation::with_faults(spec, workload, policy, cfg, seed, FaultPlan::none())
    }

    /// [`Simulation::new`] plus an injected [`FaultPlan`]. With the zero
    /// plan this is byte-identical to [`Simulation::new`].
    pub fn with_faults(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
    ) -> Self {
        let arrivals = Box::new(SortedTraceStream::new(workload));
        Simulation::solo(spec, arrivals, policy, cfg, seed, faults)
    }

    /// Builds a simulation fed by a lazy arrival stream. With
    /// `cfg.record_invocations = false` this runs in constant memory
    /// regardless of how many invocations the stream produces; metrics
    /// come out of `SimOutput::collector.streaming`.
    pub fn streaming(
        spec: ClusterSpec,
        arrivals: impl ArrivalStream + 'static,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> Self {
        let arrivals = Box::new(arrivals);
        Simulation::solo(spec, arrivals, policy, cfg, seed, FaultPlan::none())
    }

    /// The whole platform as one world on its own timer wheel.
    fn solo(
        spec: ClusterSpec,
        arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
    ) -> Self {
        let mut calendar = Calendar::new();
        let world = PlatformWorld::from_stream_sharded_in(
            spec,
            arrivals,
            policy,
            cfg,
            seed,
            faults,
            ShardPlan::solo(),
            &mut calendar,
        );
        Simulation { world, calendar }
    }

    /// Runs until `horizon`, returning collected metrics.
    pub fn run(self, horizon: SimDuration) -> SimOutput {
        self.run_with_budget(horizon, u64::MAX)
    }

    /// Runs with an explicit event budget (for tests of runaway configs).
    pub fn run_with_budget(mut self, horizon: SimDuration, max_events: u64) -> SimOutput {
        let end = SimTime::ZERO + horizon;
        let run = crate::shard::run_rounds(&mut self.world, &mut self.calendar, end, max_events);
        crate::shard::merge_outputs(vec![(self.world, run)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Outcome;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::harvest::{CpuChange, VmEnd};
    use hrv_trace::rng::SeedFactory;

    fn workload(rps: f64, horizon: SimDuration) -> Vec<Invocation> {
        let spec = WorkloadSpec::paper_fsmall().scaled(30, rps);
        Workload::generate(&spec, &SeedFactory::new(11)).invocations(horizon, &SeedFactory::new(11))
    }

    fn run(policy: PolicyKind, spec: ClusterSpec, rps: f64, horizon_s: u64) -> SimOutput {
        let horizon = SimDuration::from_secs(horizon_s);
        Simulation::new(
            spec,
            workload(rps, horizon),
            policy.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(120))
    }

    #[test]
    fn smoke_mws_on_regular_cluster() {
        let spec = ClusterSpec::regular(4, 16, 64 * 1024, SimDuration::from_secs(720));
        let out = run(PolicyKind::Mws, spec, 5.0, 600);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(m.arrivals > 2_000, "arrivals {}", m.arrivals);
        // Nearly everything completes on an unloaded dedicated cluster.
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.99,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        assert_eq!(m.eviction_failures, 0);
        // The F_small-shaped workload has a heavy duration tail (P99 exec
        // can approach a minute); at low load, end-to-end latency should
        // track execution closely rather than queueing on top of it.
        let p50 = m.latency_percentile(50.0).unwrap();
        assert!(p50 < 3.0, "median latency {p50}");
        let overhead: Vec<f64> = out
            .collector
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .map(|r| r.latency_secs - r.exec_secs)
            .collect();
        let mean_overhead = overhead.iter().sum::<f64>() / overhead.len() as f64;
        assert!(
            mean_overhead < 2.0,
            "mean queue+start overhead {mean_overhead}"
        );
        // MWS consolidates: cold start rate stays low.
        assert!(m.cold_start_rate < 0.2, "cold rate {}", m.cold_start_rate);
    }

    #[test]
    fn all_policies_complete_work() {
        for policy in [
            PolicyKind::Mws,
            PolicyKind::Jsq,
            PolicyKind::JsqSampled(2),
            PolicyKind::Vanilla,
            PolicyKind::Random,
            PolicyKind::RoundRobin,
        ] {
            let spec = ClusterSpec::regular(4, 16, 64 * 1024, SimDuration::from_secs(400));
            let out = run(policy, spec, 2.0, 300);
            let m = out.collector.aggregate(SimTime::ZERO);
            assert!(
                m.completed as f64 / m.arrivals.max(1) as f64 > 0.95,
                "{}: {}/{}",
                policy.label(),
                m.completed,
                m.arrivals
            );
        }
    }

    #[test]
    fn identical_seeds_are_byte_identical() {
        let mk = || {
            let spec = ClusterSpec::regular(3, 8, 32 * 1024, SimDuration::from_secs(400));
            run(PolicyKind::Mws, spec, 3.0, 300)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.collector.records, b.collector.records);
        assert_eq!(a.cold_starts, b.cold_starts);
    }

    /// Drives the *same* MWS harvest simulation once on the timer-wheel
    /// calendar and once on the heap reference spec: records, event
    /// counts, and start counters must be byte-identical. This is the
    /// platform-scale extension of the calendar differential proptest —
    /// it exercises EventIds held across invoker resizes, keep-alive
    /// cancellations, eviction teardowns, and far-future VM lifetimes.
    #[test]
    fn wheel_and_reference_calendars_are_byte_identical() {
        let horizon = SimDuration::from_secs(400);
        let build = || {
            // A harvest-flavored cluster: CPUs wobble, one VM is evicted
            // (with warning) mid-run.
            let harvested = VmTrace {
                deploy: SimTime::ZERO,
                end: SimTime::from_secs(240),
                ended: VmEnd::Evicted,
                base_cpus: 4,
                max_cpus: 16,
                initial_cpus: 16,
                memory_mb: 32 * 1024,
                cpu_changes: vec![
                    CpuChange {
                        at: SimTime::from_secs(45),
                        cpus: 6,
                    },
                    CpuChange {
                        at: SimTime::from_secs(90),
                        cpus: 12,
                    },
                    CpuChange {
                        at: SimTime::from_secs(150),
                        cpus: 4,
                    },
                ],
            };
            let wobbling = VmTrace {
                deploy: SimTime::ZERO,
                end: SimTime::ZERO + horizon,
                ended: VmEnd::Censored,
                base_cpus: 2,
                max_cpus: 8,
                initial_cpus: 8,
                memory_mb: 32 * 1024,
                cpu_changes: vec![
                    CpuChange {
                        at: SimTime::from_secs(60),
                        cpus: 2,
                    },
                    CpuChange {
                        at: SimTime::from_secs(120),
                        cpus: 8,
                    },
                ],
            };
            let steady = VmTrace::constant(
                SimTime::ZERO,
                SimTime::ZERO + horizon,
                VmEnd::Censored,
                8,
                32 * 1024,
            );
            (
                ClusterSpec::from_traces(vec![harvested, wobbling, steady]),
                workload(4.0, SimDuration::from_secs(300)),
            )
        };
        let end = SimTime::ZERO + horizon;

        let (spec, wl) = build();
        let mut wheel_cal = Calendar::new();
        let mut wheel_world = PlatformWorld::from_stream_sharded_in(
            spec,
            Box::new(SortedTraceStream::new(wl)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
            FaultPlan::none(),
            ShardPlan::solo(),
            &mut wheel_cal,
        );
        let wheel_run = crate::shard::run_rounds(&mut wheel_world, &mut wheel_cal, end, u64::MAX);
        wheel_world.censor_remaining(wheel_cal.now());

        let (spec, wl) = build();
        let mut ref_cal = hrv_sim::calendar_reference::Calendar::new();
        let mut ref_world = PlatformWorld::from_stream_sharded_in(
            spec,
            Box::new(SortedTraceStream::new(wl)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
            FaultPlan::none(),
            ShardPlan::solo(),
            &mut ref_cal,
        );
        let ref_run = crate::shard::run_rounds(&mut ref_world, &mut ref_cal, end, u64::MAX);
        ref_world.censor_remaining(ref_cal.now());

        assert_eq!(wheel_run.events, ref_run.events, "event counts diverged");
        assert_eq!(wheel_run.end_time, ref_run.end_time, "end times diverged");
        assert_eq!(
            wheel_world.metrics.records, ref_world.metrics.records,
            "records diverged"
        );
        assert_eq!(
            wheel_world.total_cold_starts(),
            ref_world.total_cold_starts()
        );
        assert_eq!(
            wheel_world.total_warm_starts(),
            ref_world.total_warm_starts()
        );
        // Guard against the comparison degenerating into a trivial run.
        assert_eq!(wheel_world.metrics.vm_evictions, 1);
        assert!(
            wheel_world.metrics.records.len() > 500,
            "only {} records",
            wheel_world.metrics.records.len()
        );
    }

    #[test]
    fn eviction_kills_running_work_and_fleet_recovers() {
        // One VM dies at t=60 with a 30 s warning; another survives.
        let horizon = SimDuration::from_secs(400);
        let dying = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(60),
            ended: VmEnd::Evicted,
            base_cpus: 8,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![],
        };
        let survivor = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            32 * 1024,
        );
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![dying, survivor]),
            workload(4.0, SimDuration::from_secs(300)),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert_eq!(out.collector.vm_evictions, 1);
        // Work continues on the survivor.
        assert!(m.completed > 500, "completed {}", m.completed);
        // The warning window keeps failures low but long invocations on
        // the dying VM may still be killed.
        assert!(m.failure_rate < 0.05, "failure rate {}", m.failure_rate);
    }

    #[test]
    fn warned_vm_stops_receiving_placements() {
        // A VM under warning for its whole (short) life should get almost
        // nothing once the controller sees the warning via pings.
        let horizon = SimDuration::from_secs(200);
        let warned = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(190),
            ended: VmEnd::Evicted,
            base_cpus: 16,
            max_cpus: 16,
            initial_cpus: 16,
            memory_mb: 64 * 1024,
            cpu_changes: vec![],
        };
        // Warning fires at end-30s = 160 s; before that it is placeable.
        let healthy = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            16,
            64 * 1024,
        );
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![warned, healthy]),
            workload(3.0, horizon),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // Failures only among invocations running at eviction.
        assert!(m.eviction_failures < 30, "failures {}", m.eviction_failures);
        assert!(m.completed > 400);
    }

    #[test]
    fn cpu_shrink_slows_completion() {
        // 8 CPUs shrink to 1 at t=10 while a burst of work is in flight.
        let horizon = SimDuration::from_secs(300);
        let vm = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::ZERO + horizon,
            ended: VmEnd::Censored,
            base_cpus: 1,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![CpuChange {
                at: SimTime::from_secs(10),
                cpus: 1,
            }],
        };
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![vm]),
            workload(2.0, SimDuration::from_secs(120)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // The shrunken CPU can serve only a fraction of the offered load:
        // some work finishes, the rest censors at the horizon, and the
        // tail stretches far beyond what an unshrunken VM would show.
        assert!(m.completed > 30, "completed {}", m.completed);
        assert!(
            (m.completed as f64) < 0.8 * m.arrivals as f64,
            "shrink did not bite: {}/{}",
            m.completed,
            m.arrivals
        );
        assert!(m.p99().unwrap() > 5.0, "p99 {:?}", m.p99());
    }

    #[test]
    fn resource_monitor_backfills_capacity() {
        // The only VM dies at t=60; the monitor (floor: 8 CPUs) deploys a
        // replacement that comes up after its deploy delay.
        let dying = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(60),
            ended: VmEnd::Evicted,
            base_cpus: 8,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![],
        };
        let cfg = PlatformConfig {
            monitor: crate::config::ResourceMonitorConfig {
                enabled: true,
                min_cpus: 8,
                interval: SimDuration::from_secs(10),
                template: crate::config::VmTemplate {
                    cpus: 8,
                    memory_mb: 32 * 1024,
                    deploy_delay: SimDuration::from_secs(60),
                },
            },
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(600);
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![dying]),
            workload(1.0, SimDuration::from_secs(500)),
            PolicyKind::Jsq.build(),
            cfg,
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // Invocations arriving after the replacement deploys complete.
        let late_completed = out
            .collector
            .records
            .iter()
            .filter(|r| {
                r.arrival > SimTime::from_secs(150)
                    && r.outcome == crate::metrics::Outcome::Completed
            })
            .count();
        assert!(late_completed > 100, "late completions {late_completed}");
        assert!(m.rejections < m.arrivals / 4);
    }

    #[test]
    fn utilization_sampling_produces_series() {
        let cfg = PlatformConfig {
            sample_interval: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(100);
        let out = Simulation::new(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(2.0, horizon),
            PolicyKind::Mws.build(),
            cfg,
            1,
        )
        .run(horizon);
        assert!(
            out.collector.samples.len() >= 19,
            "{}",
            out.collector.samples.len()
        );
        for s in &out.collector.samples {
            assert_eq!(s.total_cpus, 16);
            assert!(s.cpus_in_use <= 16.0);
        }
    }

    #[test]
    fn streaming_arrivals_match_materialized_run() {
        // The platform driven by a lazy WorkloadStream must produce the
        // byte-identical record sequence as the same run driven by the
        // materialized trace.
        use hrv_trace::stream::WorkloadStream;
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 3.0);
        let horizon = SimDuration::from_secs(400);
        let seeds = SeedFactory::new(11);
        let cluster = || ClusterSpec::regular(3, 8, 32 * 1024, SimDuration::from_secs(500));
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
        let materialized = Simulation::new(
            cluster(),
            trace,
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(100));
        let streamed = Simulation::streaming(
            cluster(),
            WorkloadStream::from_spec(&spec, horizon, &seeds),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(100));
        assert_eq!(materialized.collector.records, streamed.collector.records);
        assert_eq!(materialized.cold_starts, streamed.cold_starts);
    }

    #[test]
    fn streaming_only_keeps_no_records() {
        let cfg = PlatformConfig {
            record_invocations: false,
            sample_interval: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(300);
        let out = Simulation::new(
            ClusterSpec::regular(3, 8, 32 * 1024, horizon),
            workload(3.0, horizon),
            PolicyKind::Mws.build(),
            cfg,
            42,
        )
        .run(horizon);
        assert!(out.collector.records.is_empty());
        assert!(out.collector.samples.is_empty());
        let s = &out.collector.streaming;
        assert!(s.completed > 500, "completed {}", s.completed);
        assert!(s.latency_percentile(50.0).unwrap() > 0.0);
        assert!(s.utilization.count() > 0);
        assert!(!s.util_series.points().is_empty());
    }

    #[test]
    fn overload_blows_the_slo() {
        // 2 CPUs against ~8 cores of demand: the queue grows without
        // bound and P99 explodes — the saturation signature of Figure 12.
        let horizon = SimDuration::from_secs(600);
        let out = Simulation::new(
            ClusterSpec::regular(1, 2, 8 * 1024, horizon),
            workload(8.0, SimDuration::from_secs(500)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::from_secs(60));
        assert!(
            m.p99().unwrap_or(f64::INFINITY) > 50.0,
            "p99 {:?} should blow the 50 s SLO",
            m.p99()
        );
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;
    use crate::config::MigrationConfig;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{AppId, FunctionId};

    fn long_invocation(id: u64, at_secs: u64, dur_secs: f64) -> Invocation {
        Invocation {
            id,
            function: FunctionId {
                app: AppId(id as u32),
                func: 0,
            },
            arrival: SimTime::from_secs(at_secs),
            duration: SimDuration::from_secs_f64(dur_secs),
            memory_mb: 512,
            cpu_demand: 1.0,
        }
    }

    fn dying_and_safe(horizon: SimDuration) -> ClusterSpec {
        let dying = VmTrace::constant(
            SimTime::ZERO,
            SimTime::from_secs(60),
            VmEnd::Evicted,
            8,
            16 * 1024,
        );
        let safe = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            16 * 1024,
        );
        ClusterSpec::from_traces(vec![dying, safe])
    }

    fn run_with_migration(enabled: bool) -> SimOutput {
        let horizon = SimDuration::from_mins(10);
        let cfg = PlatformConfig {
            migration: MigrationConfig {
                enabled,
                ..MigrationConfig::default()
            },
            ..PlatformConfig::default()
        };
        // Long invocations arrive just before the warning (t=30): they
        // cannot finish within the grace period and die without
        // migration. JSQ's utilization metric keeps them on the dying
        // invoker only if it is the less loaded one; pin them there by
        // letting them arrive when both invokers are empty and checking
        // aggregate failures instead of per-invoker placement.
        let trace: Vec<Invocation> = (0..8).map(|i| long_invocation(i, 10 + i, 120.0)).collect();
        Simulation::new(
            dying_and_safe(horizon),
            trace,
            PolicyKind::Jsq.build(),
            cfg,
            5,
        )
        .run(horizon)
    }

    #[test]
    fn migration_rescues_long_invocations() {
        let without = run_with_migration(false);
        let with = run_with_migration(true);
        assert_eq!(without.collector.migrations, 0);
        assert!(
            without.collector.streaming.eviction_failures > 0,
            "baseline must lose work to the eviction"
        );
        assert!(with.collector.migrations > 0, "no migrations happened");
        assert!(
            with.collector.streaming.eviction_failures
                < without.collector.streaming.eviction_failures,
            "migration did not reduce failures: {} vs {}",
            with.collector.streaming.eviction_failures,
            without.collector.streaming.eviction_failures
        );
        // Everything that migrated eventually completes.
        let completed_with = with.collector.aggregate(SimTime::ZERO).completed;
        let completed_without = without.collector.aggregate(SimTime::ZERO).completed;
        assert!(completed_with > completed_without);
    }

    #[test]
    fn migration_respects_the_grace_period() {
        // A migration whose transfer cannot finish inside 30 s never
        // starts: with an absurdly slow link, behavior matches disabled.
        let horizon = SimDuration::from_mins(10);
        let cfg = PlatformConfig {
            migration: MigrationConfig {
                enabled: true,
                per_gib: SimDuration::from_secs(120),
                ..MigrationConfig::default()
            },
            ..PlatformConfig::default()
        };
        let trace: Vec<Invocation> = (0..4).map(|i| long_invocation(i, 10 + i, 120.0)).collect();
        let out = Simulation::new(
            dying_and_safe(horizon),
            trace,
            PolicyKind::Jsq.build(),
            cfg,
            5,
        )
        .run(horizon);
        assert_eq!(out.collector.migrations, 0);
    }

    /// The dispatch hop (for the phase split) is the holding invoker's:
    /// it rides in the migration payload and dies with the VM. Events are
    /// put on the calendar directly, as if a replica had sent them.
    #[test]
    fn dispatch_hop_travels_with_a_migration_and_dies_with_its_invoker() {
        use crate::invoker::RunningInvocation;
        let horizon = SimDuration::from_secs(120);
        let cfg = PlatformConfig {
            telemetry: hrv_telemetry::TelemetryConfig::on(),
            ..PlatformConfig::default()
        };
        let mut sim = Simulation::new(
            ClusterSpec::regular(2, 8, 16 * 1024, horizon),
            vec![],
            PolicyKind::Jsq.build(),
            cfg,
            5,
        );
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // Invocation 7 is dispatched to invoker 0 (half a second on the
        // bus), then migrated to invoker 1, where it finishes.
        let moved = long_invocation(7, 4, 20.0);
        sim.calendar.schedule(
            at(5_000),
            Event::Deliver {
                invoker: 0,
                invocation: moved,
                sent_at: at(4_500),
            },
        );
        sim.calendar.schedule(
            at(10_000),
            Event::MigrateExtract {
                src: 0,
                dst: 1,
                container: 0,
                transfer: SimDuration::from_secs(1),
            },
        );
        // Invocation 8 is dispatched to invoker 0 too, which then crashes
        // and comes back; when 8 is implanted there without a hop, the
        // one noted before the crash must be gone.
        let crashed = long_invocation(8, 4, 20.0);
        sim.calendar.schedule(
            at(5_000),
            Event::Deliver {
                invoker: 0,
                invocation: crashed,
                sent_at: at(4_500),
            },
        );
        sim.calendar
            .schedule(at(20_000), Event::FaultCrash { invoker: 0 });
        sim.calendar
            .schedule(at(21_000), Event::VmDeploy { invoker: 0 });
        sim.calendar.schedule(
            at(22_000),
            Event::MigrateImplant {
                dst: 0,
                src: 1,
                run: Box::new(RunningInvocation {
                    invocation: crashed,
                    cold: false,
                    exec_start: at(22_000),
                }),
                remaining: 1.0,
                hop: None,
            },
        );
        let out = sim.run(horizon);
        assert_eq!(out.collector.migrations, 2);
        let completed: Vec<u64> = (out.collector.records.iter())
            .filter(|r| r.outcome == crate::metrics::Outcome::Completed)
            .map(|r| r.id)
            .collect();
        assert_eq!(completed, [8, 7], "both invocations finish");
        let [phase] = out.collector.phases[..] else {
            panic!("one phase row expected: {:?}", out.collector.phases);
        };
        assert_eq!(phase.id, 7);
        assert_eq!((phase.sched_us, phase.bus_us), (500_000, 500_000));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::rng::SeedFactory;

    fn workload(rps: f64, horizon: SimDuration) -> Vec<Invocation> {
        let spec = WorkloadSpec::paper_fsmall().scaled(30, rps);
        Workload::generate(&spec, &SeedFactory::new(17)).invocations(horizon, &SeedFactory::new(17))
    }

    fn crash_plan(at_secs: u64, invoker: u32) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.push(SimTime::from_secs(at_secs), FaultKind::Crash { invoker });
        plan.finish();
        plan
    }

    fn run_crash(recovery: bool) -> SimOutput {
        let horizon = SimDuration::from_secs(400);
        let spec = ClusterSpec::regular(2, 8, 32 * 1024, horizon);
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = recovery;
        Simulation::with_faults(
            spec,
            workload(4.0, SimDuration::from_secs(300)),
            PolicyKind::Mws.build(),
            cfg,
            42,
            crash_plan(60, 0),
        )
        .run(horizon)
    }

    #[test]
    fn zero_fault_plan_matches_plain_run() {
        let horizon = SimDuration::from_secs(400);
        let mk_plain = || {
            Simulation::new(
                ClusterSpec::regular(3, 8, 32 * 1024, horizon),
                workload(3.0, SimDuration::from_secs(300)),
                PolicyKind::Mws.build(),
                PlatformConfig::default(),
                42,
            )
            .run(horizon)
        };
        let mk_faulted = || {
            Simulation::with_faults(
                ClusterSpec::regular(3, 8, 32 * 1024, horizon),
                workload(3.0, SimDuration::from_secs(300)),
                PolicyKind::Mws.build(),
                PlatformConfig::default(),
                42,
                FaultPlan::none(),
            )
            .run(horizon)
        };
        let plain = mk_plain();
        let faulted = mk_faulted();
        assert_eq!(plain.collector.records, faulted.collector.records);
        assert_eq!(plain.cold_starts, faulted.cold_starts);
        assert_eq!(
            plain.collector.streaming.completed,
            faulted.collector.streaming.completed
        );
    }

    #[test]
    fn crash_without_recovery_keeps_killing_work() {
        let out = run_crash(false);
        assert_eq!(out.collector.vm_crashes, 1);
        // Nothing announces the crash: work on the corpse at kill time
        // dies, and the controller keeps routing fresh work at the dead
        // invoker, which dies too on delivery.
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(m.eviction_failures > 20, "failures {}", m.eviction_failures);
        assert_eq!(out.collector.streaming.retries, 0);
        out.collector.assert_conservation();
    }

    #[test]
    fn crash_with_recovery_redispatches_and_quarantines() {
        let without = run_crash(false);
        let with = run_crash(true);
        assert_eq!(with.collector.vm_crashes, 1);
        // Health probes take the corpse out of the view and retries
        // re-dispatch the destroyed work.
        assert!(with.collector.quarantines >= 1, "no quarantine happened");
        assert!(with.collector.streaming.retries > 0, "no retries happened");
        assert!(with.collector.streaming.redispatches > 0);
        let lost_with = with.collector.streaming.eviction_failures + with.collector.streaming.lost;
        let lost_without =
            without.collector.streaming.eviction_failures + without.collector.streaming.lost;
        assert!(
            lost_with < lost_without,
            "recovery did not reduce lost work: {lost_with} vs {lost_without}"
        );
        with.collector.assert_conservation();
        without.collector.assert_conservation();
    }

    #[test]
    fn dropped_warning_turns_eviction_into_surprise() {
        // A warned VM sheds placements before dying; with the warning
        // suppressed, the eviction kills strictly more work.
        let horizon = SimDuration::from_secs(400);
        let dying = VmTrace::constant(
            SimTime::ZERO,
            SimTime::from_secs(120),
            VmEnd::Evicted,
            8,
            32 * 1024,
        );
        let safe = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            32 * 1024,
        );
        let mk = |plan: FaultPlan| {
            Simulation::with_faults(
                ClusterSpec::from_traces(vec![dying.clone(), safe.clone()]),
                workload(4.0, SimDuration::from_secs(300)),
                PolicyKind::Jsq.build(),
                PlatformConfig::default(),
                7,
                plan,
            )
            .run(horizon)
        };
        let warned = mk(FaultPlan::none());
        let mut plan = FaultPlan::default();
        plan.warnings.insert(0, WarningFault::Drop);
        let surprised = mk(plan);
        assert!(
            surprised.collector.streaming.eviction_failures
                > warned.collector.streaming.eviction_failures,
            "dropping the warning should kill more work: {} vs {}",
            surprised.collector.streaming.eviction_failures,
            warned.collector.streaming.eviction_failures
        );
    }

    #[test]
    fn straggler_window_quarantines_then_recovers() {
        let horizon = SimDuration::from_secs(400);
        let mut plan = FaultPlan::default();
        plan.push(
            SimTime::from_secs(60),
            FaultKind::StragglerStart {
                invoker: 0,
                factor: 0.05,
            },
        );
        plan.push(
            SimTime::from_secs(200),
            FaultKind::StragglerEnd { invoker: 0 },
        );
        plan.finish();
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = true;
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 4, 16 * 1024, horizon),
            workload(6.0, SimDuration::from_secs(300)),
            PolicyKind::Jsq.build(),
            cfg,
            42,
            plan,
        )
        .run(horizon);
        assert!(
            out.collector.quarantines >= 1,
            "straggler never quarantined"
        );
        assert!(
            out.collector.streaming.quarantine_secs > 0.0,
            "no quarantine time accumulated"
        );
        out.collector.assert_conservation();
    }

    #[test]
    fn dispatch_drops_are_recovered() {
        use hrv_fault::DispatchFaults;
        use hrv_trace::dist::BoundedPareto;
        let horizon = SimDuration::from_secs(400);
        let plan = FaultPlan {
            dispatch: Some(DispatchFaults {
                drop_prob: 0.2,
                delay_prob: 0.1,
                delay: BoundedPareto::new(0.05, 1.0, 1.3),
                seed: 9,
            }),
            ..Default::default()
        };
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = true;
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(3.0, SimDuration::from_secs(300)),
            PolicyKind::Mws.build(),
            cfg,
            42,
            plan,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(out.collector.streaming.retries > 0, "no drops were retried");
        // With retries covering the drops, nearly everything completes.
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.95,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        out.collector.assert_conservation();
    }

    #[test]
    fn view_freeze_window_is_survivable() {
        let horizon = SimDuration::from_secs(300);
        let mut plan = FaultPlan::default();
        plan.push(SimTime::from_secs(50), FaultKind::ViewFreeze);
        plan.push(SimTime::from_secs(100), FaultKind::ViewThaw);
        plan.finish();
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(3.0, SimDuration::from_secs(200)),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            42,
            plan,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.95,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        out.collector.assert_conservation();
    }
}
