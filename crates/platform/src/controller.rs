//! The controller: receives invocations, runs the load-balancing policy,
//! and tracks the fleet through health pings and completion reports
//! (Section 6.2).

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::{ClusterView, InvokerId, InvokerView};
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::rng::IdMap;
use hrv_trace::time::SimTime;

use crate::event::{CompletionReport, ViewDeltaRow};
use crate::invoker::HealthSnapshot;

/// Where an invocation was placed and what the controller committed for it.
#[derive(Debug, Clone, Copy)]
pub struct PlacementInfo {
    /// Target invoker.
    pub invoker: InvokerId,
    /// Memory committed at placement, MiB.
    pub memory_mb: u64,
    /// Expected demand charged to the view, CPU-seconds.
    pub expected_demand_secs: f64,
}

/// An invocation waiting for a placeable invoker.
#[derive(Debug, Clone, Copy)]
pub struct QueuedInvocation {
    /// The invocation.
    pub invocation: Invocation,
    /// When it first failed to place.
    pub since: SimTime,
}

/// Result of asking the controller to route one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Placed on this invoker; a delivery message should be sent.
    Placed(InvokerId),
    /// No invoker available; the invocation joined the controller queue.
    Queued,
}

/// The controller state machine.
pub struct Controller {
    /// The fleet as the controller sees it.
    pub view: ClusterView,
    lb: Box<dyn LoadBalancer>,
    queue: VecDeque<QueuedInvocation>,
    /// In-flight placements by invocation id.
    inflight: IdMap<u64, PlacementInfo>,
    /// Simple learned expectation of per-function exec time (seconds) for
    /// view bookkeeping.
    expected_secs: IdMap<FunctionId, (u64, f64)>,
    rng: StdRng,
    /// When true, every placement-charge mutation also accumulates into
    /// `dirty` — the per-invoker deltas a controller replica broadcasts
    /// to its peers at the next reconcile tick. Off (and free) for the
    /// classic single-replica controller.
    track_deltas: bool,
    /// Net charge deltas since the last [`Controller::take_dirty`], by
    /// invoker index (BTreeMap: deterministic broadcast order).
    dirty: BTreeMap<u32, (i64, i64, f64)>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("policy", &self.lb.name())
            .field("invokers", &self.view.len())
            .field("queued", &self.queue.len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl Controller {
    /// Creates a controller running `lb`, with its own RNG stream.
    pub fn new(lb: Box<dyn LoadBalancer>, seed: u64) -> Self {
        Controller {
            view: ClusterView::new(),
            lb,
            queue: VecDeque::new(),
            inflight: IdMap::default(),
            expected_secs: IdMap::default(),
            rng: StdRng::seed_from_u64(seed),
            track_deltas: false,
            dirty: BTreeMap::new(),
        }
    }

    /// Turns on per-invoker charge-delta accumulation (replicated
    /// controllers only; the single-replica path never pays for it).
    pub fn enable_delta_tracking(&mut self) {
        self.track_deltas = true;
    }

    /// Accumulates one invoker's charge delta for the next reconcile
    /// broadcast.
    fn note_delta(&mut self, id: InvokerId, mem_mb: i64, inflight: i64, demand_secs: f64) {
        if !self.track_deltas {
            return;
        }
        let d = self.dirty.entry(id.0).or_insert((0, 0, 0.0));
        d.0 += mem_mb;
        d.1 += inflight;
        d.2 += demand_secs;
    }

    /// Drains the pending charge deltas in ascending invoker order —
    /// the payload of one `ViewDelta` broadcast. Empty when nothing
    /// changed since the last tick.
    pub fn take_dirty(&mut self) -> Vec<ViewDeltaRow> {
        std::mem::take(&mut self.dirty)
            .into_iter()
            .map(|(invoker, (m, i, d))| ViewDeltaRow {
                invoker,
                memory_pending_mb: m,
                inflight: i,
                inflight_demand_secs: d,
            })
            .collect()
    }

    /// Applies a peer replica's charge deltas to the local view. Purely
    /// additive load updates: placeability epochs are untouched, so the
    /// MWS covering-set cache stays warm. Invokers this view no longer
    /// tracks (removed between the peer's send and our receive) are
    /// skipped.
    pub fn apply_deltas(&mut self, deltas: &[ViewDeltaRow]) {
        for row in deltas {
            self.view.update(InvokerId(row.invoker), |v| {
                v.memory_pending_mb = v
                    .memory_pending_mb
                    .saturating_add_signed(row.memory_pending_mb);
                v.inflight = v.inflight.saturating_add_signed(
                    row.inflight.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32,
                );
                v.inflight_demand_secs =
                    (v.inflight_demand_secs + row.inflight_demand_secs).max(0.0);
            });
        }
    }

    /// Invocations waiting for placement.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// In-flight placements.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    fn expected(&self, f: FunctionId) -> f64 {
        self.expected_secs.get(&f).map(|&(_, m)| m).unwrap_or(1.0)
    }

    fn learn_expected(&mut self, f: FunctionId, secs: f64) {
        let e = self.expected_secs.entry(f).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += (secs - e.1) / e.0 as f64;
    }

    /// Routes a new arrival: placement or controller-side queueing.
    pub fn route(&mut self, now: SimTime, invocation: Invocation) -> RouteOutcome {
        self.lb.on_arrival(invocation.function, now);
        match self.try_place(now, invocation) {
            Some(id) => RouteOutcome::Placed(id),
            None => {
                self.queue.push_back(QueuedInvocation {
                    invocation,
                    since: now,
                });
                RouteOutcome::Queued
            }
        }
    }

    /// One placement attempt with view bookkeeping.
    fn try_place(&mut self, now: SimTime, invocation: Invocation) -> Option<InvokerId> {
        let id = self.lb.place(
            now,
            invocation.function,
            invocation.memory_mb,
            &self.view,
            &mut self.rng,
        )?;
        let expected = self.expected(invocation.function) * invocation.cpu_demand;
        let updated = self.view.update(id, |v| {
            v.memory_pending_mb += invocation.memory_mb;
            v.inflight += 1;
            v.inflight_demand_secs += expected;
        });
        assert!(updated, "policy placed on an unknown invoker");
        self.note_delta(id, invocation.memory_mb as i64, 1, expected);
        self.inflight.insert(
            invocation.id,
            PlacementInfo {
                invoker: id,
                memory_mb: invocation.memory_mb,
                expected_demand_secs: expected,
            },
        );
        Some(id)
    }

    /// Retries queued invocations. Returns `(placed, rejected)` lists:
    /// placed invocations must be delivered; rejected ones exceeded
    /// `timeout` and are dropped.
    pub fn retry_queue(
        &mut self,
        now: SimTime,
        timeout: hrv_trace::time::SimDuration,
    ) -> (Vec<(Invocation, InvokerId)>, Vec<QueuedInvocation>) {
        let mut placed = Vec::new();
        let mut rejected = Vec::new();
        let mut keep = VecDeque::new();
        while let Some(q) = self.queue.pop_front() {
            if now.since(q.since) >= timeout {
                rejected.push(q);
                continue;
            }
            match self.try_place(now, q.invocation) {
                Some(id) => placed.push((q.invocation, id)),
                None => keep.push_back(q),
            }
        }
        self.queue = keep;
        (placed, rejected)
    }

    /// Applies a health ping.
    pub fn on_ping(&mut self, now: SimTime, invoker: InvokerId, snap: HealthSnapshot) {
        self.view.update(invoker, |v| {
            v.total_cpus = snap.cpus;
            v.cpu_in_use = snap.cpus_in_use;
            v.memory_used_mb = snap.memory_used_mb;
            v.eviction_pending = snap.eviction_pending;
            v.healthy = true;
            v.last_ping = now;
        });
    }

    /// Applies a completion report: releases bookkeeping and feeds the
    /// policy's learned statistics.
    pub fn on_report(&mut self, report: &CompletionReport) {
        self.lb
            .on_completion(report.function, report.exec_duration, report.cpu_cores);
        self.learn_expected(report.function, report.exec_duration.as_secs_f64());
        if let Some(info) = self.inflight.remove(&report.invocation) {
            self.view.update(info.invoker, |v| {
                v.memory_pending_mb = v.memory_pending_mb.saturating_sub(info.memory_mb);
                v.inflight = v.inflight.saturating_sub(1);
                v.inflight_demand_secs =
                    (v.inflight_demand_secs - info.expected_demand_secs).max(0.0);
            });
            self.note_delta(
                info.invoker,
                -(info.memory_mb as i64),
                -1,
                -info.expected_demand_secs,
            );
        }
    }

    /// Registers a newly deployed invoker. A notice for an invoker the
    /// view already holds (a replayed `DeployNotice`) is ignored, as the
    /// policy's ring would ignore the repeated join.
    pub fn on_invoker_up(&mut self, now: SimTime, id: InvokerId, cpus: u32, memory_mb: u64) {
        if self.view.get(id).is_some() {
            return;
        }
        self.view
            .add(InvokerView::register(id, cpus, memory_mb, now));
        self.lb.on_invoker_join(id);
    }

    /// Handles an invoker death: drops it from the view and the policy,
    /// and forgets in-flight placements routed there (their failure
    /// records come from the eviction path).
    pub fn on_invoker_down(&mut self, id: InvokerId) {
        self.view.remove(id);
        self.lb.on_invoker_leave(id);
        self.inflight.retain(|_, info| info.invoker != id);
        // Peers drop the invoker through their own broadcast copy; stale
        // deltas for a corpse would only be skipped on apply.
        self.dirty.remove(&id.0);
    }

    /// Sets or clears quarantine on an invoker. Quarantined invokers take
    /// no new placements but stay registered (they may recover). Returns
    /// true when the flag actually changed.
    pub fn set_quarantined(&mut self, id: InvokerId, quarantined: bool) -> bool {
        match self.view.get(id) {
            Some(v) if v.quarantined != quarantined => {
                self.view.update(id, |v| v.quarantined = quarantined)
            }
            _ => false,
        }
    }

    /// Invokers whose last ping is at least `timeout` old, with their
    /// silence spans — the health-probe sweep's input, ordered by id.
    pub fn silent_invokers(
        &self,
        now: SimTime,
        timeout: hrv_trace::time::SimDuration,
    ) -> Vec<(InvokerId, hrv_trace::time::SimDuration)> {
        self.view
            .all()
            .iter()
            .filter_map(|v| {
                let silence = now.saturating_since(v.last_ping);
                (silence >= timeout).then_some((v.id, silence))
            })
            .collect()
    }

    /// Drops a single in-flight entry (used when a delivery raced a dead
    /// invoker). Returns true if it existed.
    pub fn forget_inflight(&mut self, invocation_id: u64) -> bool {
        if let Some(info) = self.inflight.remove(&invocation_id) {
            self.view.update(info.invoker, |v| {
                v.memory_pending_mb = v.memory_pending_mb.saturating_sub(info.memory_mb);
                v.inflight = v.inflight.saturating_sub(1);
                v.inflight_demand_secs =
                    (v.inflight_demand_secs - info.expected_demand_secs).max(0.0);
            });
            self.note_delta(
                info.invoker,
                -(info.memory_mb as i64),
                -1,
                -info.expected_demand_secs,
            );
            true
        } else {
            false
        }
    }

    /// Re-points an in-flight placement to a new invoker after a live
    /// migration, moving the view bookkeeping with it. Returns false if
    /// the invocation is unknown (already completed).
    pub fn migrate_inflight(&mut self, invocation_id: u64, dst: InvokerId) -> bool {
        let Some(info) = self.inflight.get_mut(&invocation_id) else {
            return false;
        };
        let src = info.invoker;
        let (memory_mb, expected) = (info.memory_mb, info.expected_demand_secs);
        info.invoker = dst;
        self.view.update(src, |v| {
            v.memory_pending_mb = v.memory_pending_mb.saturating_sub(memory_mb);
            v.inflight = v.inflight.saturating_sub(1);
            v.inflight_demand_secs = (v.inflight_demand_secs - expected).max(0.0);
        });
        self.view.update(dst, |v| {
            v.memory_pending_mb += memory_mb;
            v.inflight += 1;
            v.inflight_demand_secs += expected;
        });
        self.note_delta(src, -(memory_mb as i64), -1, -expected);
        self.note_delta(dst, memory_mb as i64, 1, expected);
        true
    }

    /// The least-loaded placeable invoker other than `exclude` — the
    /// migration target picker.
    pub fn migration_target(&self, exclude: InvokerId) -> Option<InvokerId> {
        self.view
            .placeable()
            .filter(|v| v.id != exclude)
            .min_by(|a, b| {
                a.weighted_load(hrv_lb::view::LoadWeights::default())
                    .total_cmp(&b.weighted_load(hrv_lb::view::LoadWeights::default()))
            })
            .map(|v| v.id)
    }

    /// Total placeable CPUs the controller believes exist.
    pub fn placeable_cpus(&self) -> u32 {
        self.view.total_cpus()
    }

    /// Remaining queued invocations (drained at shutdown for censoring).
    pub fn drain_queue(&mut self) -> Vec<QueuedInvocation> {
        self.queue.drain(..).collect()
    }

    /// Remaining in-flight invocation ids (censored at shutdown).
    pub fn inflight_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.inflight.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::AppId;
    use hrv_trace::time::SimDuration;

    fn inv(id: u64, app: u32) -> Invocation {
        Invocation {
            id,
            function: FunctionId {
                app: AppId(app),
                func: 0,
            },
            arrival: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            memory_mb: 256,
            cpu_demand: 1.0,
        }
    }

    fn controller_with(n: u32) -> Controller {
        let mut c = Controller::new(PolicyKind::Jsq.build(), 7);
        for i in 0..n {
            c.on_invoker_up(SimTime::ZERO, InvokerId(i), 8, 64 * 1024);
        }
        c
    }

    #[test]
    fn route_places_and_bookkeeps() {
        let mut c = controller_with(2);
        let out = c.route(SimTime::ZERO, inv(0, 1));
        let RouteOutcome::Placed(id) = out else {
            panic!("expected placement")
        };
        let v = c.view.get(id).unwrap();
        assert_eq!(v.memory_pending_mb, 256);
        assert_eq!(v.inflight, 1);
        assert_eq!(c.inflight_len(), 1);
    }

    #[test]
    fn report_releases_bookkeeping() {
        let mut c = controller_with(1);
        let RouteOutcome::Placed(id) = c.route(SimTime::ZERO, inv(0, 1)) else {
            panic!()
        };
        c.on_report(&CompletionReport {
            function: inv(0, 1).function,
            invocation: 0,
            exec_duration: SimDuration::from_secs(2),
            cpu_cores: 1.0,
            cold: true,
            arrival: SimTime::ZERO,
            finished: SimTime::from_secs(2),
        });
        let v = c.view.get(id).unwrap();
        assert_eq!(v.memory_pending_mb, 0);
        assert_eq!(v.inflight, 0);
        assert_eq!(c.inflight_len(), 0);
        // Expected duration learned.
        assert!((c.expected(inv(0, 1).function) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_queues_and_retry_places() {
        let mut c = Controller::new(PolicyKind::Jsq.build(), 7);
        assert_eq!(c.route(SimTime::ZERO, inv(0, 1)), RouteOutcome::Queued);
        assert_eq!(c.queue_len(), 1);
        c.on_invoker_up(SimTime::from_secs(1), InvokerId(0), 8, 64 * 1024);
        let (placed, rejected) = c.retry_queue(SimTime::from_secs(1), SimDuration::from_secs(60));
        assert_eq!(placed.len(), 1);
        assert!(rejected.is_empty());
        assert_eq!(c.queue_len(), 0);
    }

    #[test]
    fn retry_rejects_after_timeout() {
        let mut c = Controller::new(PolicyKind::Jsq.build(), 7);
        c.route(SimTime::ZERO, inv(0, 1));
        let (placed, rejected) = c.retry_queue(SimTime::from_secs(120), SimDuration::from_secs(60));
        assert!(placed.is_empty());
        assert_eq!(rejected.len(), 1);
    }

    #[test]
    fn ping_updates_view() {
        let mut c = controller_with(1);
        c.on_ping(
            SimTime::from_secs(5),
            InvokerId(0),
            HealthSnapshot {
                cpus: 3,
                cpus_in_use: 2.5,
                memory_used_mb: 1_000,
                eviction_pending: true,
                pressure: 0.8,
            },
        );
        let v = c.view.get(InvokerId(0)).unwrap();
        assert_eq!(v.total_cpus, 3);
        assert_eq!(v.cpu_in_use, 2.5);
        assert!(v.eviction_pending);
        assert_eq!(v.last_ping, SimTime::from_secs(5));
    }

    #[test]
    fn invoker_down_cleans_up() {
        let mut c = controller_with(2);
        // Route a few invocations; some land on each invoker.
        for i in 0..6 {
            c.route(SimTime::ZERO, inv(i, i as u32));
        }
        let before = c.inflight_len();
        c.on_invoker_down(InvokerId(0));
        assert!(c.view.get(InvokerId(0)).is_none());
        assert!(c.inflight_len() < before);
    }

    #[test]
    fn repeated_deploy_notice_is_ignored() {
        let mut c = Controller::new(PolicyKind::Mws.build(), 7);
        c.on_invoker_up(SimTime::ZERO, InvokerId(0), 8, 64 * 1024);
        let RouteOutcome::Placed(id) = c.route(SimTime::ZERO, inv(0, 1)) else {
            panic!("expected placement")
        };
        let epoch = c.view.placeability_epoch();
        // The replay neither panics nor resets the row's bookkeeping.
        c.on_invoker_up(SimTime::from_secs(5), InvokerId(0), 2, 1_024);
        assert_eq!(c.view.len(), 1);
        assert_eq!(c.view.placeability_epoch(), epoch);
        let v = c.view.get(id).unwrap();
        assert_eq!(
            (v.total_cpus, v.inflight, v.last_ping),
            (8, 1, SimTime::ZERO)
        );
        assert!(matches!(
            c.route(SimTime::from_secs(5), inv(1, 1)),
            RouteOutcome::Placed(_)
        ));
    }

    #[test]
    fn quarantine_blocks_placement_until_cleared() {
        let mut c = controller_with(1);
        assert!(c.set_quarantined(InvokerId(0), true));
        assert!(!c.set_quarantined(InvokerId(0), true)); // idempotent
        assert_eq!(c.route(SimTime::ZERO, inv(0, 1)), RouteOutcome::Queued);
        assert_eq!(c.placeable_cpus(), 0);
        assert!(c.set_quarantined(InvokerId(0), false));
        let (placed, _) = c.retry_queue(SimTime::from_secs(1), SimDuration::from_secs(60));
        assert_eq!(placed.len(), 1);
        // Unknown invokers are a no-op.
        assert!(!c.set_quarantined(InvokerId(9), true));
    }

    #[test]
    fn silent_invokers_reports_stale_pings() {
        let mut c = controller_with(2);
        c.on_ping(
            SimTime::from_secs(10),
            InvokerId(1),
            HealthSnapshot {
                cpus: 8,
                cpus_in_use: 0.0,
                memory_used_mb: 0,
                eviction_pending: false,
                pressure: 0.0,
            },
        );
        let silent = c.silent_invokers(SimTime::from_secs(12), SimDuration::from_secs(3));
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].0, InvokerId(0));
        assert_eq!(silent[0].1, SimDuration::from_secs(12));
    }

    #[test]
    fn delta_tracking_roundtrips_between_replicas() {
        let mut a = controller_with(2);
        a.enable_delta_tracking();
        let mut b = controller_with(2);
        let RouteOutcome::Placed(id) = a.route(SimTime::ZERO, inv(0, 1)) else {
            panic!()
        };
        let deltas = a.take_dirty();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].invoker, id.0);
        b.apply_deltas(&deltas);
        let v = b.view.get(id).unwrap();
        assert_eq!(v.memory_pending_mb, 256);
        assert_eq!(v.inflight, 1);
        // The completion's release flows back as a negative delta.
        a.on_report(&CompletionReport {
            function: inv(0, 1).function,
            invocation: 0,
            exec_duration: SimDuration::from_secs(2),
            cpu_cores: 1.0,
            cold: false,
            arrival: SimTime::ZERO,
            finished: SimTime::from_secs(2),
        });
        b.apply_deltas(&a.take_dirty());
        let v = b.view.get(id).unwrap();
        assert_eq!(v.memory_pending_mb, 0);
        assert_eq!(v.inflight, 0);
        // Deltas for invokers the receiver no longer tracks are skipped.
        a.route(SimTime::ZERO, inv(1, 1));
        b.on_invoker_down(id);
        b.apply_deltas(&a.take_dirty());
        // Untracked controllers accumulate nothing.
        assert!(b.take_dirty().is_empty());
    }

    #[test]
    fn forget_inflight_releases_view() {
        let mut c = controller_with(1);
        let RouteOutcome::Placed(id) = c.route(SimTime::ZERO, inv(0, 1)) else {
            panic!()
        };
        assert!(c.forget_inflight(0));
        assert!(!c.forget_inflight(0));
        assert_eq!(c.view.get(id).unwrap().inflight, 0);
    }
}
