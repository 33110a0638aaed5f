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

use std::sync::Arc;

use hrv_fault::{FaultKind, FaultPlan, WarningFault};
use hrv_lb::owner_of;
use hrv_lb::policy::LoadBalancer;
use hrv_sim::calendar::{Calendar, EnvelopeLane, EventCalendar, Scheduled};
use hrv_sim::engine::{RunStats, World};
use hrv_trace::faas::Invocation;
use hrv_trace::harvest::{VmEnd, VmTrace};
use hrv_trace::rng::splitmix64;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::{SimDuration, SimTime};

use hrv_telemetry::{FlightRecorder, SpanKind};

use crate::block::{first_sample_at, BlockTimers, Trains};
use crate::config::{PlatformConfig, PROBE_INTERVAL, RECONCILE_INTERVAL};
use crate::controller::Controller;
use crate::event::{Event, InvokerIndex, ReplicaIndex};
use crate::invoker::{HealthSnapshot, InvokerState, PingTurn, SlotSource};
use crate::mailbox::{
    block_of, invoker_entity, replica_entity, Entity, EntityId, Envelope, ShardPlan,
};
use crate::metrics::{add_idle, MetricsCollector};
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
    /// Whether invokers skip pings that repeat their previous report,
    /// derived from the config and the fault plan at construction.
    report_on_change: bool,
    /// Every invoker slot, by global index; the ones other shards own
    /// stay dormant placeholders here.
    invokers: Vec<InvokerState>,
    /// The ping and sampling trains of every block, by block index; the
    /// blocks other shards own stay empty here.
    blocks: Vec<BlockTimers>,
    /// The report rows of the ping firing being handled (kept between
    /// firings for its capacity).
    ping_rows: Vec<(InvokerIndex, HealthSnapshot)>,
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
    /// (`hrv_sim::calendar_reference`).
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
        // A report that repeats the invoker's previous one is a no-op at
        // every replica unless a replica reads more than its payload:
        // recovery reads when each report landed and its pressure, and a
        // view freeze drops reports, so a later repeat is news there.
        let report_on_change = !cfg.recovery.enabled
            && !faults
                .events
                .iter()
                .any(|fe| fe.kind == FaultKind::ViewFreeze);
        let mut invokers = Vec::with_capacity(spec.vms.len());
        let mut blocks = Vec::new();
        blocks.resize_with(block_count(spec.vms.len()), BlockTimers::default);
        for (i, vm) in spec.vms.iter().enumerate() {
            let index = i as InvokerIndex;
            invokers.push(InvokerState::for_slot(
                index,
                SlotSource::Trace(vm.clone()),
                &cfg,
                report_on_change,
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
                cal.schedule_after(PROBE_INTERVAL, Event::HealthSweep { replica: r });
            }
            // Reconciliation only exists between peers: with a single
            // replica no tick is scheduled and event counts match the
            // pre-replication platform exactly.
            if replica_count > 1 {
                cal.schedule_after(RECONCILE_INTERVAL, Event::ReconcileTick { replica: r });
            }
        }
        if !cfg.sample_interval.is_zero() {
            // Sampling trains on the shared grid: each owned slot ticks
            // from its first grid point at/after deploy until death, so
            // the merged series is shard-count-invariant.
            for (i, vm) in spec.vms.iter().enumerate() {
                let index = i as InvokerIndex;
                if plan.owns_invoker(index) {
                    let at = first_sample_at(vm.deploy, cfg.sample_interval);
                    let block = block_of(index);
                    if let Some(train) = blocks[block as usize].sample.join(at, index) {
                        cal.schedule(at, Event::Sample { block, train });
                    }
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
            report_on_change,
            invokers,
            blocks,
            ping_rows: Vec::new(),
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
        let micros = self.invokers.iter().map(|i| i.idle_mib_micros);
        micros.fold(0, add_idle) as f64 / 1e6
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

    /// Overrides the derived ping rule on every invoker, present and
    /// future (differential tests).
    #[cfg(test)]
    pub(crate) fn set_report_on_change(&mut self, on: bool) {
        self.report_on_change = on;
        for invoker in &mut self.invokers {
            invoker.set_report_on_change(on);
        }
    }

    /// Each hosted replica's view rows, in replica order.
    #[cfg(test)]
    pub(crate) fn replica_views(&self) -> Vec<Vec<hrv_lb::view::InvokerView>> {
        self.replicas
            .iter()
            .map(|r| r.view().all().to_vec())
            .collect()
    }

    /// Marks everything still in flight as censored (call once after the
    /// run, on every world — each censors the replicas it hosts), flushes
    /// per-replica occupancy counters into the metrics and adds the
    /// invokers' dropped completions, prewarm counts and idle memory-time
    /// to them, so a merge of every world's collector holds the
    /// fleet-wide sums.
    pub fn censor_remaining(&mut self, now: SimTime) {
        for replica in &mut self.replicas {
            replica.censor_remaining(now, &mut self.metrics, &mut self.tel);
        }
        let m = &mut self.metrics;
        for i in &self.invokers {
            m.dropped_completions += i.dropped_completions;
            m.streaming.prewarm_spawns += i.prewarm_spawns;
            m.streaming.prewarm_hits += i.prewarm_hits;
            m.streaming.wasted_prewarms += i.wasted_prewarms;
            m.streaming.idle_mib_micros = add_idle(m.streaming.idle_mib_micros, i.idle_mib_micros);
        }
    }
}

impl World for PlatformWorld {
    type Event = Event;

    /// The router: does the things that are the shard's rather than an
    /// entity's — pulling the next arrival off the stream, growing the
    /// invoker table for a monitor-ordered VM, and firing a block's
    /// trains — and hands every other event to the one entity
    /// `Event::target` names.
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
                    let on_change = self.report_on_change;
                    self.invokers
                        .push(InvokerState::for_slot(index, slot, &self.cfg, on_change));
                }
                let blocks = block_count(self.invokers.len());
                self.blocks.resize_with(blocks, BlockTimers::default);
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
        let invokers = &mut self.invokers;
        match (ev.event, Entity::of(target)) {
            (Event::Ping { block, train }, _) => {
                let trains = &mut self.blocks[block as usize].ping;
                let interval = ctx.cfg.ping_interval;
                let rows = &mut self.ping_rows;
                let turn = |invoker: &mut InvokerState, ctx: &mut Ctx<'_, C>| {
                    match invoker.ping(ctx) {
                        PingTurn::Dead => return false,
                        PingTurn::Skipped => {}
                        PingTurn::Report(snap) => rows.push((invoker.index, snap)),
                    }
                    true
                };
                let next = fire_train(trains, train, interval, invokers, &mut ctx, turn);
                // The reporters' rows travel as one message per replica,
                // under the first reporter's key (DESIGN.md, *Block
                // timers*).
                if let Some(&(first, _)) = self.ping_rows.first() {
                    let reports = Arc::from(&self.ping_rows[..]);
                    self.ping_rows.clear();
                    invokers[first as usize].send_reports(reports, &mut ctx);
                }
                if let Some(at) = next {
                    ctx.cal.schedule(at, Event::Ping { block, train });
                }
            }
            (Event::Sample { block, train }, _) => {
                let trains = &mut self.blocks[block as usize].sample;
                let interval = ctx.cfg.sample_interval;
                let turn = InvokerState::sample;
                if let Some(at) = fire_train(trains, train, interval, invokers, &mut ctx, turn) {
                    ctx.cal.schedule(at, Event::Sample { block, train });
                }
            }
            (event, Entity::Replica(r)) => {
                // Replica-targeted events only land on the hosting shard.
                let replica = &mut self.replicas[(r / self.plan.shards) as usize];
                debug_assert_eq!(replica.index, r, "replica routed to wrong shard");
                replica.handle(event, &mut ctx);
            }
            (event, Entity::Invoker(i)) => {
                // A deploy always brings a new life up (`deploy` asserts).
                let spawned = matches!(event, Event::SpawnVm { .. });
                let deployed = spawned || matches!(event, Event::VmDeploy { .. });
                let invoker = &mut invokers[i as usize];
                invoker.handle(event, &mut ctx);
                // Flush the spans the state machine buffered (a no-op for
                // disabled runs: the buffer never fills).
                ctx.tel.drain(target, &mut invoker.tel);
                // The new life boards its block's trains: a spawned slot
                // first joins the shared sampling grid (trace slots joined
                // it when the platform was built), then every life pings.
                if deployed {
                    let (now, cfg) = (ctx.now, ctx.cfg);
                    let block = block_of(i);
                    let timers = &mut self.blocks[block as usize];
                    if spawned && !cfg.sample_interval.is_zero() {
                        let at = first_sample_at(now, cfg.sample_interval);
                        if let Some(train) = timers.sample.join(at, i) {
                            ctx.cal.schedule(at, Event::Sample { block, train });
                        }
                    }
                    let at = now.saturating_add(cfg.ping_interval);
                    if let Some(train) = timers.ping.join(at, i) {
                        ctx.cal.schedule(at, Event::Ping { block, train });
                    }
                }
            }
        }
    }
}

/// Fires `train`: each live member, in index order, takes its `turn`
/// under its own entity (its buffered spans drain under its id). Returns
/// when the train fires next.
fn fire_train<C: EventCalendar<Event>>(
    trains: &mut Trains,
    train: u32,
    interval: SimDuration,
    invokers: &mut [InvokerState],
    ctx: &mut Ctx<'_, C>,
    mut turn: impl FnMut(&mut InvokerState, &mut Ctx<'_, C>) -> bool,
) -> Option<SimTime> {
    let now = ctx.now;
    trains.fire(train, now, interval, |i| {
        let invoker = &mut invokers[i as usize];
        let stays = turn(invoker, ctx);
        ctx.tel.drain(invoker_entity(i), &mut invoker.tel);
        stays
    })
}

/// One packaged simulation run: the platform as one world per shard,
/// each on its own timer wheel. Results are byte-identical for every
/// shard count.
pub struct Simulation {
    shards: Vec<(PlatformWorld, Calendar<Event>)>,
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
            hrv_telemetry::dump::write_default("conservation", &self.recorder);
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
        Simulation::sharded(spec, workload, policy, cfg, seed, faults, 1)
    }

    /// [`Simulation::with_faults`] partitioned into `shards` shards (0
    /// reads as 1); above one, each runs on its own thread. Shard `s`
    /// owns the invoker blocks `b ≡ s (mod S)` (invoker `i` is in block
    /// `i / 32`) and hosts the controller replicas `r ≡ s (mod S)`; it
    /// consumes the arrivals its replicas own, seeds only the faults aimed
    /// at its entities, and talks to its peers through envelopes. Shard 0
    /// gets `policy` itself, the others `policy.fresh()`. With the record
    /// sink on, each shard's sink is sized to its trace up front: every
    /// arrival ends in exactly one record, written on the shard that
    /// pulled it, so the sink never regrows. With telemetry on too, the
    /// phase rows get as much room: at most one per arrival, written on
    /// the shard of the invoker that ran it (so exact at one shard).
    pub fn sharded(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        shards: u32,
    ) -> Self {
        let shards = shards.max(1);
        let telemetry = cfg.telemetry.enabled();
        let phase_rows = |arrivals: usize| if telemetry { arrivals } else { 0 };
        let mut traces = split_by_owner(workload, cfg.sharding.replicas, shards).into_iter();
        let own = traces.next().expect("at least one shard");
        let peers: Vec<_> = (1..shards)
            .zip(traces)
            .map(|(s, trace)| {
                let (records, phases) = (trace.len(), phase_rows(trace.len()));
                let arrivals = Box::new(SortedTraceStream::new(trace));
                let (spec, cfg, faults) = (spec.clone(), cfg.clone(), faults.clone());
                let plan = ShardPlan::new(s, shards);
                let mut shard =
                    Simulation::build(spec, arrivals, policy.fresh(), cfg, seed, faults, plan);
                shard.0.metrics.reserve_rows(records, phases);
                shard
            })
            .collect();
        let (records, phases) = (own.len(), phase_rows(own.len()));
        let arrivals = Box::new(SortedTraceStream::new(own));
        let plan = ShardPlan::new(0, shards);
        let mut first = Simulation::build(spec, arrivals, policy, cfg, seed, faults, plan);
        first.0.metrics.reserve_rows(records, phases);
        Simulation {
            shards: std::iter::once(first).chain(peers).collect(),
        }
    }

    /// Builds a simulation fed by a lazy arrival stream. With
    /// `cfg.record_invocations = false` this runs in constant memory
    /// regardless of how many invocations the stream produces; metrics
    /// come out of `SimOutput::collector.streaming`. A stream cannot be
    /// split across shards, so this is always one world.
    pub fn streaming(
        spec: ClusterSpec,
        arrivals: impl ArrivalStream + 'static,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> Self {
        let arrivals = Box::new(arrivals);
        let plan = ShardPlan::solo();
        let world = Simulation::build(spec, arrivals, policy, cfg, seed, FaultPlan::none(), plan);
        Simulation {
            shards: vec![world],
        }
    }

    /// One shard's world on its own timer wheel.
    fn build(
        spec: ClusterSpec,
        arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        plan: ShardPlan,
    ) -> (PlatformWorld, Calendar<Event>) {
        let mut cal = Calendar::new();
        let world = PlatformWorld::from_stream_sharded_in(
            spec, arrivals, policy, cfg, seed, faults, plan, &mut cal,
        );
        (world, cal)
    }

    /// Runs until `horizon`, returning collected metrics: one shard on
    /// the calling thread, more on one worker thread each.
    pub fn run(self, horizon: SimDuration) -> SimOutput {
        let end = SimTime::ZERO + horizon;
        let mut shards = self.shards;
        let results = if shards.len() == 1 {
            let (mut world, mut cal) = shards.pop().expect("one shard");
            let run = crate::shard::run_rounds(&mut world, &mut cal, end);
            vec![(world, run)]
        } else {
            crate::shard::run_threaded(shards, end)
        };
        crate::shard::merge_outputs(results)
    }
}

/// Blocks needed to cover `invokers` slots.
fn block_count(invokers: usize) -> usize {
    invokers.div_ceil(crate::mailbox::BLOCK as usize)
}

/// Splits a trace across `shards` shards, moving each invocation to the
/// shard that hosts the replica owning its function; a counting pass
/// sizes each part exactly. One shard takes the trace as it is.
fn split_by_owner(workload: Vec<Invocation>, replicas: u32, shards: u32) -> Vec<Vec<Invocation>> {
    if shards == 1 {
        return vec![workload];
    }
    let shard_of = |inv: &Invocation| {
        let owner = replica_entity(owner_of(replicas, inv.function));
        ShardPlan::shard_of(shards, owner) as usize
    };
    let mut sizes = vec![0; shards as usize];
    for inv in &workload {
        sizes[shard_of(inv)] += 1;
    }
    let mut parts: Vec<Vec<Invocation>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for inv in workload {
        parts[shard_of(&inv)].push(inv);
    }
    parts
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
        let wheel_run = crate::shard::run_rounds(&mut wheel_world, &mut wheel_cal, end);
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
        let ref_run = crate::shard::run_rounds(&mut ref_world, &mut ref_cal, end);
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
    use crate::metrics::Outcome;
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
    /// it rides in the migration payload and dies with the VM. Both
    /// invocations arrive through their owning replica, which places them
    /// on invoker 0 (invoker 1 deploys later); the migration order and
    /// the crash are put on the calendar directly, as if the owner and a
    /// fault plan had sent them. (That the crash also clears the hops it
    /// held is `invoker.rs`'s `dispatch_hops_die_with_the_vm`.)
    #[test]
    fn dispatch_hop_travels_with_a_migration_and_dies_with_its_invoker() {
        let horizon = SimDuration::from_secs(120);
        let cfg = PlatformConfig {
            bus_latency: SimDuration::from_millis(500),
            telemetry: hrv_telemetry::TelemetryConfig::on(),
            ..PlatformConfig::default()
        };
        let vm = |deploy: u64| {
            VmTrace::constant(
                SimTime::from_secs(deploy),
                SimTime::ZERO + horizon,
                VmEnd::Censored,
                8,
                16 * 1024,
            )
        };
        let trace = vec![long_invocation(7, 4, 20.0), long_invocation(8, 4, 20.0)];
        let mut sim = Simulation::new(
            ClusterSpec::from_traces(vec![vm(0), vm(6)]),
            trace,
            PolicyKind::Jsq.build(),
            cfg,
            5,
        );
        let cal = &mut sim.shards[0].1;
        // Invocation 7 (container 0) is migrated to invoker 1, where it
        // finishes; invocation 8 dies with invoker 0.
        cal.schedule(
            SimTime::from_secs(10),
            Event::MigrateExtract {
                src: 0,
                dst: 1,
                container: 0,
                transfer: SimDuration::from_secs(1),
            },
        );
        cal.schedule(SimTime::from_secs(20), Event::FaultCrash { invoker: 0 });
        let out = sim.run(horizon);
        assert_eq!(out.collector.migrations, 1);
        let outcomes: Vec<(u64, Outcome)> = (out.collector.records.iter())
            .map(|r| (r.id, r.outcome))
            .collect();
        assert_eq!(
            outcomes,
            [(8, Outcome::FailedEviction), (7, Outcome::Completed)]
        );
        // Placed the instant it arrived, after one 500 ms hop to invoker 0.
        let [phase] = out.collector.phases[..] else {
            panic!("one phase row expected: {:?}", out.collector.phases);
        };
        assert_eq!(phase.id, 7);
        assert_eq!((phase.sched_us, phase.bus_us), (0, 500_000));
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
            out.collector.streaming.quarantine_micros > 0,
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

#[cfg(test)]
mod block_timer_tests {
    use super::*;
    use crate::config::{ResourceMonitorConfig, VmTemplate};
    use crate::mailbox::BLOCK;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::rng::SeedFactory;

    const HORIZON_S: u64 = 120;

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    /// Two blocks of 4-CPU VMs. Block 0 pings in three phases: slots 4
    /// and 5 deploy at 0.3 s and 2.7 s, slot 2 is evicted at 10.5 s, the
    /// rest deploy at 0 s. Block 1 (slots 32–35) deploys at 0 s, 0.3 s
    /// and, for slot 35, at 2 s, an instant its block fires. The eviction
    /// sends the monitor below its floor at its 20 s tick, so slot 36
    /// spawns into block 1 at 50 s, another firing instant.
    fn inputs() -> (ClusterSpec, Vec<Invocation>, PlatformConfig) {
        let horizon = at(HORIZON_S as f64);
        let vms = (0..36)
            .map(|slot| {
                let deploy = match slot {
                    4 | 34 => 0.3,
                    5 => 2.7,
                    35 => 2.0,
                    _ => 0.0,
                };
                let (end, ended) = if slot == 2 {
                    (at(10.5), VmEnd::Evicted)
                } else {
                    (horizon, VmEnd::Censored)
                };
                VmTrace::constant(at(deploy), end, ended, 4, 16 * 1024)
            })
            .collect();
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 4.0);
        let seeds = SeedFactory::new(23);
        let trace =
            Workload::generate(&spec, &seeds).invocations(SimDuration::from_secs(100), &seeds);
        let cfg = PlatformConfig {
            sample_interval: SimDuration::from_secs(5),
            monitor: ResourceMonitorConfig {
                enabled: true,
                min_cpus: 36 * 4,
                interval: SimDuration::from_secs(20),
                template: VmTemplate {
                    cpus: 4,
                    memory_mb: 16 * 1024,
                    deploy_delay: SimDuration::from_secs(30),
                },
            },
            ..PlatformConfig::default()
        };
        (ClusterSpec::from_traces(vms), trace, cfg)
    }

    fn run(shards: u32) -> SimOutput {
        let (spec, trace, cfg) = inputs();
        let policy = PolicyKind::Mws.build();
        Simulation::sharded(spec, trace, policy, cfg, 5, FaultPlan::none(), shards)
            .run(SimDuration::from_secs(HORIZON_S))
    }

    /// FNV-1a over records, arrivals and start counts, as
    /// `tests/determinism.rs` hashes them.
    fn records_fingerprint(o: &SimOutput) -> u64 {
        let text = format!(
            "{:?}|{}|{}|{}",
            o.collector.records, o.collector.arrivals, o.cold_starts, o.warm_starts
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The records fingerprint and the skipped ping reports of this
    /// scenario while every invoker kept its own `Ping` and `Sample`
    /// timers (computed before block timers existed).
    const PER_INVOKER_TIMERS_FINGERPRINT: u64 = 0x94dc_7ffe_0c79_2282;
    const PER_INVOKER_TIMERS_SKIPPED: u64 = 3_782;

    #[test]
    fn block_timers_keep_every_record_at_every_shard_count() {
        let one = run(1);
        assert_eq!(records_fingerprint(&one), PER_INVOKER_TIMERS_FINGERPRINT);
        let skipped = (one.collector.counters).get(hrv_telemetry::CounterId::PingReportsSkipped);
        assert_eq!(skipped, PER_INVOKER_TIMERS_SKIPPED);
        assert_eq!(one.collector.vm_evictions, 1);
        assert_eq!(one.collector.records.len(), 405);
        for shards in [2, 4] {
            let other = run(shards);
            assert_eq!(one.collector.records, other.collector.records, "S={shards}");
            assert_eq!(one.run.events, other.run.events, "S={shards}");
            assert_eq!(
                one.collector.counters, other.collector.counters,
                "S={shards}"
            );
        }
    }

    /// Each shard's record sink is sized to its trace and the merge
    /// reserves the peers' rows once, so with a horizon past the last
    /// arrival the records fill one exact allocation at every shard
    /// count. Four replicas put records on every shard; one replica's
    /// records hash is the pinned one.
    #[test]
    fn the_record_sink_is_allocated_once_at_its_exact_size() {
        let arrivals = inputs().1.len();
        let run_with = |replicas: u32, record: bool, shards: u32| {
            let (spec, trace, mut cfg) = inputs();
            cfg.sharding.replicas = replicas;
            cfg.record_invocations = record;
            let policy = PolicyKind::Mws.build();
            Simulation::sharded(spec, trace, policy, cfg, 5, FaultPlan::none(), shards)
                .run(SimDuration::from_secs(HORIZON_S))
        };
        for (replicas, pinned) in [(1, Some(PER_INVOKER_TIMERS_FINGERPRINT)), (4, None)] {
            let mut want = pinned;
            for shards in [1, 2, 4] {
                let out = run_with(replicas, true, shards);
                let records = &out.collector.records;
                let at = format!("R={replicas} S={shards}");
                assert_eq!(records.len(), arrivals, "{at}");
                assert_eq!(records.capacity(), arrivals, "{at}");
                let hash = records_fingerprint(&out);
                assert_eq!(hash, *want.get_or_insert(hash), "{at}");
                let off = run_with(replicas, false, shards);
                assert_eq!(off.collector.records.capacity(), 0, "{at}, sink off");
            }
        }
    }

    /// With telemetry on, one shard's phase rows (at most one per
    /// arrival) fill room reserved beside the records: they never
    /// regrow.
    #[test]
    fn the_phase_rows_are_allocated_once() {
        let (spec, trace, mut cfg) = inputs();
        let arrivals = trace.len();
        cfg.telemetry = crate::config::TelemetryConfig::on();
        let policy = PolicyKind::Mws.build();
        let out = Simulation::sharded(spec, trace, policy, cfg, 5, FaultPlan::none(), 1)
            .run(SimDuration::from_secs(HORIZON_S));
        let phases = &out.collector.phases;
        assert!(phases.len() > arrivals / 2, "{} phase rows", phases.len());
        assert_eq!(phases.capacity(), arrivals);
    }

    /// The solo world `inputs` builds, with `tweak` applied to its config.
    fn solo(tweak: impl FnOnce(&mut PlatformConfig)) -> (PlatformWorld, Calendar<Event>) {
        let (spec, trace, mut cfg) = inputs();
        tweak(&mut cfg);
        let mut cal = Calendar::new();
        let world = PlatformWorld::from_stream_sharded_in(
            spec,
            Box::new(SortedTraceStream::new(trace)),
            PolicyKind::Mws.build(),
            cfg,
            5,
            FaultPlan::none(),
            ShardPlan::solo(),
            &mut cal,
        );
        (world, cal)
    }

    /// Drives a solo world to `end` as `shard::run_rounds` does. `visit`
    /// sees each event twice: ahead of its handler with `None`, then with
    /// the envelopes the handler sent.
    fn drive(
        world: &mut PlatformWorld,
        cal: &mut Calendar<Event>,
        end: SimTime,
        mut visit: impl FnMut(&PlatformWorld, &Scheduled<Event>, Option<&[Envelope]>),
    ) {
        let delta = world.cfg().bus_latency;
        let mut stop = SimTime::ZERO;
        loop {
            world.flush_outbox(cal);
            let Some(t) = cal.peek_time() else { break };
            if t >= stop {
                if t >= end {
                    break;
                }
                stop = t.saturating_add(delta).min(end);
                cal.open_window(stop);
            }
            let ev = cal.pop().expect("peeked event exists");
            let seen = ev.clone();
            visit(world, &seen, None);
            world.handle(ev, cal);
            visit(world, &seen, Some(&world.outbox));
        }
    }

    /// The report rows of a `PingReport`.
    fn rows(event: &Event) -> Option<&Arc<[(InvokerIndex, HealthSnapshot)]>> {
        match event {
            Event::PingReport { reports, .. } => Some(reports),
            _ => None,
        }
    }

    /// A solo run with what its pings did.
    struct Traced {
        world: PlatformWorld,
        /// Each `Ping` firing: `(at, block, train)`.
        firings: Vec<(SimTime, u32, u32)>,
        /// Each invoker's ping report instants (replica 0's copy).
        reports: Vec<Vec<SimTime>>,
    }

    fn traced() -> Traced {
        let (mut world, mut cal) = solo(|_| {});
        let (mut firings, mut reports) = (Vec::new(), vec![Vec::new(); 37]);
        let end = at(HORIZON_S as f64);
        drive(&mut world, &mut cal, end, |_, ev, sent| {
            let Some(sent) = sent else { return };
            if let Event::Ping { block, train } = ev.event {
                firings.push((ev.at, block, train));
            }
            let copies = sent.iter().filter(|env| env.target == replica_entity(0));
            for firing in copies.filter_map(|env| rows(&env.event)) {
                for &(invoker, _) in firing.iter() {
                    reports[invoker as usize].push(ev.at);
                }
            }
        });
        Traced {
            world,
            firings,
            reports,
        }
    }

    #[test]
    fn a_firing_sends_one_shared_report_per_replica_under_its_first_reporter() {
        use hrv_telemetry::CounterId::PingReportsSkipped;
        let replicas = 4;
        let (mut world, mut cal) = solo(|cfg| cfg.sharding.replicas = replicas);
        // Each sender's next message number, once seen.
        let mut next_seq = std::collections::HashMap::new();
        let (mut members, mut skipped) = (Vec::new(), 0);
        let (mut silent, mut batched, mut not_head) = (0, 0, 0);
        let end = at(HORIZON_S as f64);
        drive(&mut world, &mut cal, end, |world, ev, sent| {
            let Some(sent) = sent else {
                if let Event::Ping { block, train } = ev.event {
                    members = world.blocks[block as usize].ping.members(train).to_vec();
                    skipped = world.metrics.counters.get(PingReportsSkipped);
                }
                return;
            };
            for env in sent {
                let seq = next_seq.entry(env.sender).or_insert(env.seq);
                assert_eq!(env.seq, *seq, "sender {} skipped a number", env.sender);
                *seq += 1;
            }
            let Event::Ping { block, train } = ev.event else {
                return;
            };
            let copies: Vec<&Envelope> = (sent.iter())
                .filter(|env| rows(&env.event).is_some())
                .collect();
            let stayed = world.blocks[block as usize].ping.members(train).len();
            let skips = world.metrics.counters.get(PingReportsSkipped) - skipped;
            let Some(first) = copies.first() else {
                // Every member skipped (or left with its VM).
                assert_eq!(skips as usize, stayed, "{ev:?}");
                silent += 1;
                return;
            };
            let reports = rows(&first.event).expect("a report");
            assert_eq!(copies.len(), replicas as usize, "one copy per replica");
            for (r, env) in copies.iter().enumerate() {
                assert_eq!(env.target, replica_entity(r as u32), "ascending replicas");
                assert_eq!((env.sender, env.seq), (first.sender, first.seq + r as u64));
                let shared = rows(&env.event).expect("a report");
                assert!(Arc::ptr_eq(shared, reports), "the copies share one payload");
            }
            // The first reporter's key; its members' rows in index order.
            let head = reports[0].0;
            assert_eq!(first.sender, invoker_entity(head));
            assert!(reports.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(reports.iter().all(|(i, _)| members.contains(i)));
            assert_eq!(reports.len() + skips as usize, stayed, "{ev:?}");
            batched += usize::from(reports.len() > 1);
            not_head += usize::from(head != members[0]);
        });
        assert!(
            silent > 0 && batched > 0 && not_head > 0,
            "{silent} silent, {batched} batched and {not_head} late-headed firings"
        );
    }

    /// The order rule's one visible case: a report row now applies at the
    /// firing's first reporter's key, ahead of a same-instant `MigrateAsk`
    /// from a member between the two. Block 0 is four 4-CPU VMs deployed
    /// at 0 s, each running a one-core invocation but slot 3. Slot 1 is
    /// warned at 30 s, so its migration plan runs, and its ask is sent, at
    /// 31 s, an instant its block pings. Slot 0 runs a second core and
    /// slot 3 four until 30.7 s, so the 31 s firing's rows are slots 0
    /// and 3, and slot 3's turns it from the busiest member into the least
    /// loaded.
    #[test]
    fn a_migrate_ask_sees_every_row_its_blocks_same_instant_firing_sent() {
        let horizon = at(100.0);
        let vms = (0..4)
            .map(|slot| {
                let (end, ended) = if slot == 1 {
                    (at(60.0), VmEnd::Evicted)
                } else {
                    (horizon, VmEnd::Censored)
                };
                VmTrace::constant(SimTime::ZERO, end, ended, 4, 16 * 1024)
            })
            .collect();
        let mut cfg = PlatformConfig::default();
        cfg.migration.enabled = true;
        cfg.cold_start_delay = SimDuration::from_millis(500);
        cfg.cold_start_cpu_secs = 0.0;
        let mut cal = Calendar::new();
        let mut world = PlatformWorld::from_stream_sharded_in(
            ClusterSpec::from_traces(vms),
            Box::new(SortedTraceStream::new(Vec::new())),
            PolicyKind::Mws.build(),
            cfg,
            5,
            FaultPlan::none(),
            ShardPlan::solo(),
            &mut cal,
        );
        let mut id = 0;
        let mut deliver = |invoker, secs: f64, duration| {
            id += 1;
            let invocation = Invocation {
                id,
                function: hrv_trace::faas::FunctionId {
                    app: hrv_trace::faas::AppId(id as u32),
                    func: 0,
                },
                arrival: at(secs),
                duration: SimDuration::from_secs(duration),
                memory_mb: 128,
                cpu_demand: 1.0,
            };
            let sent_at = at(secs);
            let event = Event::Deliver {
                invoker,
                invocation,
                sent_at,
            };
            cal.schedule(at(secs), event);
        };
        for invoker in [0, 1, 2] {
            deliver(invoker, 5.2, 200);
        }
        for invoker in [0, 3, 3, 3, 3] {
            deliver(invoker, 20.2, 10);
        }
        let mut last_report: Option<(SimTime, Vec<(InvokerIndex, HealthSnapshot)>)> = None;
        let mut asked = None;
        drive(&mut world, &mut cal, horizon, |world, ev, sent| {
            if let Some(reports) = rows(&ev.event).filter(|_| sent.is_some()) {
                last_report = Some((ev.at, reports.to_vec()));
            }
            let Event::MigrateAsk { src, .. } = ev.event else {
                return;
            };
            assert_eq!(src, 1);
            let (report_at, reported) = last_report.as_ref().expect("a report landed");
            let Some(sent) = sent else {
                // Every row of the firing that sent the ask has landed.
                assert_eq!(*report_at, ev.at, "the ask lands on its report instant");
                let view = world.replicas[0].view();
                for &(invoker, snap) in reported {
                    let row = view.get(hrv_lb::view::InvokerId(invoker)).expect("a row");
                    assert_eq!((row.last_ping, row.cpu_in_use), (ev.at, snap.cpus_in_use));
                }
                return;
            };
            let dst = sent.iter().find_map(|env| match env.event {
                Event::MigrateExtract { dst, .. } => Some(dst),
                _ => None,
            });
            let members: Vec<InvokerIndex> = reported.iter().map(|r| r.0).collect();
            asked = Some((ev.at, members, dst));
        });
        let bus = SimDuration::from_millis(2);
        let (ask_at, reported, dst) = asked.expect("slot 1 asked to migrate");
        assert_eq!(ask_at, at(31.0) + bus);
        // One reporter before the asking member, one after it; the choice
        // is the one the later row made the least loaded.
        assert_eq!(reported, [0, 3]);
        assert_eq!(dst, Some(3));
    }

    #[test]
    fn a_train_fires_once_per_instant_and_members_ping_one_interval_after_deploy() {
        let Traced {
            world,
            firings,
            reports,
        } = traced();
        // Deployed at the instant their block fires (slot 35 by trace at
        // 2 s, slot 36 by the monitor at 50 s), a member first pings one
        // interval later, like every other member.
        for (slot, deploy) in [
            (0, 0.0),
            (4, 0.3),
            (5, 2.7),
            (34, 0.3),
            (35, 2.0),
            (36, 50.0),
        ] {
            assert_eq!(
                reports[slot].first(),
                Some(&at(deploy + 1.0)),
                "slot {slot}"
            );
        }
        // Three phases, three firings a second in each block, before and
        // after the eviction and the spawn.
        for second in 4..HORIZON_S {
            for block in [0, 1] {
                let n = (firings.iter())
                    .filter(|&&(t, b, _)| b == block && t >= at(second as f64))
                    .filter(|&&(t, ..)| t < at(second as f64 + 1.0))
                    .count();
                assert_eq!(n, 3, "block {block} in second {second}");
            }
        }
        // The evicted member left its train at the first firing after its
        // death, without an event of its own, and never pinged again.
        assert!(reports[2].iter().all(|&t| t < at(10.5)));
        let train = world.blocks[0].ping.members(0);
        let expected: Vec<u32> = (0..BLOCK).filter(|&i| ![2, 4, 5].contains(&i)).collect();
        assert_eq!(train, expected);
        assert_eq!(world.blocks[1].ping.members(0), [32, 33, 36]);
    }
}
