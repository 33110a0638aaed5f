//! The controller-replica entity: the controller proper plus the recovery
//! and fault state that goes with it, and one handler per replica-bound
//! [`Event`]. A handler owns this replica and nothing else; the calendar,
//! the config and the sinks come through a [`Ctx`].
//!
//! Replica 0 is the classic controller: it also runs the resource monitor
//! and absorbs view-freeze faults (see [`Monitor`]). With
//! `sharding.replicas == 1` it reproduces the pre-replication platform
//! exactly.

use std::collections::{BTreeMap, HashMap};

use hrv_fault::{DispatchOutcome, DispatchSampler};
use hrv_lb::view::InvokerId;
use hrv_sim::calendar::EventCalendar;
use hrv_telemetry::SpanKind;
use hrv_trace::faas::Invocation;
use hrv_trace::harvest::EVICTION_GRACE;
use hrv_trace::time::{SimDuration, SimTime};

use crate::controller::{Controller, RouteOutcome};
use crate::event::{Event, InvokerIndex, LossCause, ReplicaIndex};
use crate::mailbox::{replica_entity, EntityId};
use crate::metrics::{InvocationRecord, MetricsCollector, Outcome, ReplicaOccupancy};
use crate::telemetry::TelemetrySink;
use crate::world::Ctx;

/// The fleet-wide duties the classic single controller had and replica 0
/// keeps: the resource monitor's bookkeeping and the view-staleness
/// switch. They have no entity id of their own — the monitor sends as
/// replica 0, exactly as it did before replication, so its `SpawnVm`
/// orders keep their place in the canonical envelope order.
#[derive(Debug)]
struct Monitor {
    /// Next invoker slot index to assign (slot indices are globally
    /// unique, which is why one entity hands them out).
    next_slot_index: u32,
    /// CPUs ordered but not yet seen deploying.
    pending_cpus: u32,
    /// True inside a view-staleness window: health pings are dropped.
    view_frozen: bool,
}

/// One controller replica.
pub(crate) struct ReplicaState {
    /// Global replica index (replica 0 is the classic controller entity).
    pub(crate) index: ReplicaIndex,
    controller: Controller,
    /// Messages this replica has sent (the canonical envelope tiebreak).
    seq: u64,
    retry_armed: bool,
    /// Dispatch-message fault process, if the fault plan carries one.
    /// Per replica: each rolls its own identically-seeded sequence, so
    /// fault fates do not depend on how replicas interleave.
    dispatch_faults: Option<DispatchSampler>,
    /// Re-dispatch attempts per in-flight invocation id (empty unless
    /// recovery is actively retrying something).
    attempts: HashMap<u64, u32>,
    /// Invocations waiting on a scheduled [`Event::Redispatch`], so a run
    /// that ends first can censor them.
    pending_redispatch: BTreeMap<u64, Invocation>,
    /// Remaining retry budget (from [`crate::config::RecoveryConfig`];
    /// per replica, so the fleet-wide budget scales with replication).
    retry_budget: u64,
    /// When each currently-quarantined invoker entered quarantine.
    quarantine_since: BTreeMap<InvokerIndex, SimTime>,
    /// Consecutive straggler strikes per invoker.
    straggler_strikes: HashMap<InvokerIndex, u32>,
    /// Placement decisions this replica made (occupancy probe).
    placements: u64,
    /// Controller-bound envelopes this replica consumed.
    envelopes: u64,
    /// `Some` on replica 0 only.
    monitor: Option<Monitor>,
}

impl ReplicaState {
    /// Wraps `controller` as replica `index`. `first_free_slot` is where
    /// replica 0's monitor starts numbering the VMs it orders.
    pub(crate) fn new(
        index: ReplicaIndex,
        controller: Controller,
        dispatch_faults: Option<DispatchSampler>,
        retry_budget: u64,
        first_free_slot: u32,
    ) -> Self {
        ReplicaState {
            index,
            controller,
            seq: 0,
            retry_armed: false,
            dispatch_faults,
            attempts: HashMap::new(),
            pending_redispatch: BTreeMap::new(),
            retry_budget,
            quarantine_since: BTreeMap::new(),
            straggler_strikes: HashMap::new(),
            placements: 0,
            envelopes: 0,
            monitor: (index == 0).then_some(Monitor {
                next_slot_index: first_free_slot,
                pending_cpus: 0,
                view_frozen: false,
            }),
        }
    }

    fn entity(&self) -> EntityId {
        replica_entity(self.index)
    }

    fn send<C: EventCalendar<Event>>(
        &mut self,
        delay: SimDuration,
        event: Event,
        ctx: &mut Ctx<'_, C>,
    ) {
        ctx.send(self.entity(), &mut self.seq, delay, event);
    }

    /// Handles one event addressed to this replica: its own timers, or a
    /// message off the bus (counted for the occupancy probe).
    pub(crate) fn handle<C: EventCalendar<Event>>(&mut self, event: Event, ctx: &mut Ctx<'_, C>) {
        match event {
            Event::Arrival(invocation) => {
                ctx.metrics.arrivals += 1;
                ctx.record(self.entity(), invocation.id, SpanKind::Arrival);
                self.route(invocation, ctx);
            }
            Event::Redispatch { invocation } => {
                if self.pending_redispatch.remove(&invocation.id).is_none() {
                    return;
                }
                ctx.metrics.note_retry();
                ctx.record(self.entity(), invocation.id, SpanKind::Redispatch);
                self.route(invocation, ctx);
            }
            Event::HealthSweep { .. } => self.on_health_sweep(ctx),
            Event::RetryQueue { .. } => self.on_retry_queue(ctx),
            Event::ReconcileTick { replica } => {
                let deltas = self.controller.take_dirty();
                if !deltas.is_empty() {
                    for peer in (0..ctx.replicas).filter(|&peer| peer != replica) {
                        let delta = Event::ViewDelta {
                            replica: peer,
                            deltas: deltas.clone(),
                        };
                        self.send(ctx.cfg.bus_latency, delta, ctx);
                    }
                }
                ctx.cal.schedule_after(
                    ctx.cfg.sharding.reconcile_interval,
                    Event::ReconcileTick { replica },
                );
            }
            Event::MonitorTick => self.on_monitor_tick(ctx),
            Event::FaultViewFreeze { frozen } => self.monitor_mut().view_frozen = frozen,
            message => {
                self.envelopes += 1;
                self.on_message(message, ctx);
            }
        }
    }

    fn on_message<C: EventCalendar<Event>>(&mut self, message: Event, ctx: &mut Ctx<'_, C>) {
        match message {
            Event::PingReport { invoker, snap, .. } => {
                // Inside a staleness window replica 0's pings are dropped
                // on the floor; the invoker keeps pinging regardless.
                if self.monitor.as_ref().is_some_and(|m| m.view_frozen) {
                    return;
                }
                self.controller.on_ping(ctx.now, InvokerId(invoker), snap);
                if ctx.cfg.recovery.enabled {
                    self.track_straggler(invoker, snap.pressure, ctx);
                }
            }
            Event::Report { report, .. } => {
                if !self.attempts.is_empty() {
                    // A retried invocation finally finished; stop
                    // tracking it.
                    self.attempts.remove(&report.invocation);
                }
                self.controller.on_report(&report);
            }
            Event::InvokerDown { invoker, .. } => {
                self.controller.on_invoker_down(InvokerId(invoker));
            }
            Event::WorkLost {
                invocation,
                exec_started,
                cold,
                cause,
            } => self.fail_or_recover(invocation, exec_started, cold, cause, ctx),
            Event::DeployNotice {
                invoker,
                cpus,
                memory_mb,
                from_monitor,
                ..
            } => {
                // Admit the VM to the view, release the monitor's
                // pending-CPU reservation, and retry the queue: new
                // capacity may unblock queued placements.
                if let (true, Some(m)) = (from_monitor, self.monitor.as_mut()) {
                    m.pending_cpus = m.pending_cpus.saturating_sub(cpus);
                }
                self.controller
                    .on_invoker_up(ctx.now, InvokerId(invoker), cpus, memory_mb);
                self.arm_retry(ctx);
            }
            Event::MigrateAsk {
                src,
                container,
                memory_mb,
                warned_at,
                ..
            } => self.on_migrate_ask(src, container, memory_mb, warned_at, ctx),
            Event::MigrateCommit {
                invocation, dst, ..
            } => {
                self.controller.migrate_inflight(invocation, InvokerId(dst));
            }
            Event::ViewDelta { deltas, .. } => self.controller.apply_deltas(&deltas),
            other => unreachable!("{other:?} is not addressed to a replica"),
        }
    }

    fn monitor_mut(&mut self) -> &mut Monitor {
        self.monitor
            .as_mut()
            .expect("monitor and view-freeze events route to replica 0")
    }

    /// Routes an arrival (or a re-dispatch, as if it had just arrived):
    /// a placement goes out as a delivery, otherwise it waits in the
    /// controller queue.
    fn route<C: EventCalendar<Event>>(&mut self, invocation: Invocation, ctx: &mut Ctx<'_, C>) {
        match self.controller.route(ctx.now, invocation) {
            RouteOutcome::Placed(id) => self.schedule_delivery(id, invocation, ctx),
            RouteOutcome::Queued => self.arm_retry(ctx),
        }
    }

    fn schedule_delivery<C: EventCalendar<Event>>(
        &mut self,
        invoker: InvokerId,
        invocation: Invocation,
        ctx: &mut Ctx<'_, C>,
    ) {
        self.placements += 1;
        let delay = match self.dispatch_faults.as_mut().map(DispatchSampler::roll) {
            None | Some(DispatchOutcome::Deliver) => ctx.cfg.bus_latency,
            Some(DispatchOutcome::Delay(by)) => ctx.cfg.bus_latency + by,
            Some(DispatchOutcome::Drop) => {
                // The placement message vanished in the bus; the invoker
                // never hears about this invocation.
                self.fail_or_recover(invocation, false, false, LossCause::DispatchDrop, ctx);
                return;
            }
        };
        ctx.record(
            self.entity(),
            invocation.id,
            SpanKind::DispatchSent { invoker: invoker.0 },
        );
        let deliver = Event::Deliver {
            invoker: invoker.0,
            invocation,
            sent_at: ctx.now,
        };
        self.send(delay, deliver, ctx);
    }

    /// An invocation's placement was destroyed (`cause` says how). With
    /// recovery enabled and budget left, schedules a re-dispatch after the
    /// cause's detection delay plus capped exponential backoff; otherwise
    /// records the invocation as permanently gone.
    fn fail_or_recover<C: EventCalendar<Event>>(
        &mut self,
        inv: Invocation,
        exec_started: bool,
        cold: bool,
        cause: LossCause,
        ctx: &mut Ctx<'_, C>,
    ) {
        self.controller.forget_inflight(inv.id);
        let r = ctx.cfg.recovery;
        let attempt = if r.enabled {
            self.attempts.get(&inv.id).copied().unwrap_or(0)
        } else {
            0
        };
        if r.enabled && attempt < r.max_retries && self.retry_budget > 0 {
            self.retry_budget -= 1;
            self.attempts.insert(inv.id, attempt + 1);
            let backoff = r
                .backoff_base
                .mul_f64(2f64.powi(attempt as i32))
                .min(r.backoff_cap);
            let detection = match cause {
                LossCause::Eviction => ctx.cfg.ping_interval,
                LossCause::Crash | LossCause::DeadDelivery => r.probe_timeout,
                LossCause::DispatchDrop => SimDuration::ZERO,
            };
            if cause != LossCause::DispatchDrop {
                ctx.metrics.note_redispatch();
            }
            ctx.record(
                self.entity(),
                inv.id,
                SpanKind::Retry {
                    attempt: attempt + 1,
                },
            );
            self.pending_redispatch.insert(inv.id, inv);
            ctx.cal.schedule(
                ctx.now + detection + backoff,
                Event::Redispatch { invocation: inv },
            );
            return;
        }
        self.attempts.remove(&inv.id);
        // Without recovery, a destroyed placement surfaces exactly as the
        // pre-fault platform reported it (an eviction failure) so legacy
        // runs stay byte-identical; a lost dispatch message has no legacy
        // equivalent and is always a loss.
        let outcome = if r.enabled || cause == LossCause::DispatchDrop {
            Outcome::Lost
        } else {
            Outcome::FailedEviction
        };
        ctx.record(self.entity(), inv.id, SpanKind::Lost);
        ctx.metrics.push(InvocationRecord {
            cold,
            exec_started,
            ..InvocationRecord::unfinished(inv.id, inv.arrival, ctx.now, outcome)
        });
    }

    fn arm_retry<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        if !self.retry_armed {
            self.retry_armed = true;
            let replica = self.index;
            ctx.cal
                .schedule_after(ctx.cfg.placement_retry, Event::RetryQueue { replica });
        }
    }

    fn on_retry_queue<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        self.retry_armed = false;
        let (placed, rejected) = self
            .controller
            .retry_queue(ctx.now, ctx.cfg.placement_timeout);
        for (inv, id) in placed {
            self.schedule_delivery(id, inv, ctx);
        }
        for q in rejected {
            let inv = q.invocation;
            ctx.record(self.entity(), inv.id, SpanKind::Rejected);
            ctx.metrics.push(InvocationRecord::unfinished(
                inv.id,
                inv.arrival,
                ctx.now,
                Outcome::Rejected,
            ));
        }
        if self.controller.queue_len() > 0 {
            self.arm_retry(ctx);
        }
    }

    /// Quarantines an invoker out of this replica's placement view (no-op
    /// if already there). Each replica quarantines independently off its
    /// own ping stream.
    fn quarantine(&mut self, idx: InvokerIndex, now: SimTime, metrics: &mut MetricsCollector) {
        if self.controller.set_quarantined(InvokerId(idx), true) {
            self.quarantine_since.insert(idx, now);
            metrics.note_quarantine();
        }
    }

    /// Lifts a quarantine and accounts the time spent inside it.
    fn unquarantine(&mut self, idx: InvokerIndex, now: SimTime, metrics: &mut MetricsCollector) {
        if self.controller.set_quarantined(InvokerId(idx), false) {
            if let Some(since) = self.quarantine_since.remove(&idx) {
                metrics.note_quarantine_span(now.saturating_since(since));
            }
        }
    }

    /// Straggler detection off the health pings: sustained high queue
    /// pressure earns strikes; enough consecutive strikes quarantine the
    /// invoker, and one healthy reading clears everything.
    fn track_straggler<C: EventCalendar<Event>>(
        &mut self,
        idx: InvokerIndex,
        pressure: f64,
        ctx: &mut Ctx<'_, C>,
    ) {
        let r = ctx.cfg.recovery;
        if pressure >= r.straggler_pressure {
            let strikes = *self
                .straggler_strikes
                .entry(idx)
                .and_modify(|s| *s += 1)
                .or_insert(1);
            if strikes >= r.straggler_strikes {
                self.quarantine(idx, ctx.now, ctx.metrics);
            }
        } else {
            self.straggler_strikes.remove(&idx);
            self.unquarantine(idx, ctx.now, ctx.metrics);
        }
    }

    /// The periodic health-probe sweep: invokers silent past the probe
    /// timeout are quarantined; silent past `down_after`, they are
    /// declared dead and removed from the view.
    fn on_health_sweep<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        let r = ctx.cfg.recovery;
        if !r.enabled {
            return;
        }
        for (id, silence) in self.controller.silent_invokers(ctx.now, r.probe_timeout) {
            if silence >= r.down_after {
                self.unquarantine(id.0, ctx.now, ctx.metrics);
                self.controller.on_invoker_down(id);
            } else {
                self.quarantine(id.0, ctx.now, ctx.metrics);
            }
        }
        let replica = self.index;
        ctx.cal
            .schedule_after(r.probe_interval, Event::HealthSweep { replica });
    }

    /// The resource monitor's capacity-floor check, read off this
    /// replica's view.
    fn on_monitor_tick<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        let m = ctx.cfg.monitor;
        if !m.enabled {
            return;
        }
        let placeable = self.controller.placeable_cpus();
        let monitor = self.monitor_mut();
        let available = placeable + monitor.pending_cpus;
        if available < m.min_cpus {
            let count = (m.min_cpus - available).div_ceil(m.template.cpus);
            // Slot indices are assigned centrally so they are globally
            // unique; the owning shard materializes the slot when the
            // SpawnVm order lands after the deploy delay.
            let first = monitor.next_slot_index;
            monitor.next_slot_index += count;
            monitor.pending_cpus += count * m.template.cpus;
            for invoker in first..first + count {
                let order = Event::SpawnVm {
                    invoker,
                    template: m.template,
                };
                self.send(m.template.deploy_delay, order, ctx);
            }
        }
        ctx.cal.schedule_after(m.interval, Event::MonitorTick);
    }

    /// Owner side of a migration request: check the transfer still beats
    /// the source's eviction deadline, pick a destination from this
    /// replica's view, and order the extraction.
    fn on_migrate_ask<C: EventCalendar<Event>>(
        &mut self,
        src: InvokerIndex,
        container: u64,
        memory_mb: u64,
        warned_at: SimTime,
        ctx: &mut Ctx<'_, C>,
    ) {
        let m = ctx.cfg.migration;
        let bus = ctx.cfg.bus_latency;
        let deadline = warned_at + EVICTION_GRACE;
        let transfer = m.setup + m.per_gib.mul_f64(memory_mb as f64 / 1024.0);
        // The extract order takes one bus hop, then the state transfer
        // itself must land before the source is evicted.
        if ctx.now + bus + transfer.max(bus) >= deadline {
            return;
        }
        let Some(dst) = self.controller.migration_target(InvokerId(src)) else {
            return;
        };
        let extract = Event::MigrateExtract {
            src,
            dst: dst.0,
            container,
            transfer,
        };
        self.send(bus, extract, ctx);
    }

    /// Marks everything this replica still has in flight as censored and
    /// flushes its occupancy counters (after the run).
    pub(crate) fn censor_remaining(
        &mut self,
        now: SimTime,
        metrics: &mut MetricsCollector,
        tel: &mut TelemetrySink,
    ) {
        let entity = self.entity();
        let queued = self.controller.drain_queue();
        let inflight = self.controller.inflight_ids();
        // Invocations still waiting on a scheduled re-dispatch.
        let pending = std::mem::take(&mut self.pending_redispatch);
        let censored = queued
            .iter()
            .map(|q| (q.invocation.id, q.invocation.arrival))
            .chain(inflight.iter().map(|&id| (id, now)))
            .chain(pending.values().map(|inv| (inv.id, inv.arrival)));
        for (id, arrival) in censored {
            tel.record(entity, now, id, SpanKind::Censored);
            metrics.push(InvocationRecord::unfinished(
                id,
                arrival,
                now,
                Outcome::Censored,
            ));
        }
        // Close quarantine intervals still open at the horizon.
        for (_, since) in std::mem::take(&mut self.quarantine_since) {
            metrics.note_quarantine_span(now.saturating_since(since));
        }
        metrics.push_replica_occupancy(ReplicaOccupancy {
            replica: self.index,
            placements: self.placements,
            envelopes: self.envelopes,
        });
    }
}
