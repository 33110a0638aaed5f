//! The controller's view of the invoker fleet.
//!
//! Load-balancing decisions are made against this view, which is fed by
//! the (simulated) health pings invokers send every second — so it can be
//! up to a ping interval stale, exactly like the modified OpenWhisk
//! controller in Section 6.2.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use hrv_trace::time::SimTime;

/// Identifies an invoker (one per VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InvokerId(pub u32);

/// Weights for the CPU/memory utilization mix used as the load metric.
/// The paper requires `w_cpu > w_mem` "to reflect the scarcity of
/// allocated CPUs" (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadWeights {
    /// Weight on CPU utilization.
    pub cpu: f64,
    /// Weight on memory utilization.
    pub mem: f64,
}

impl Default for LoadWeights {
    fn default() -> Self {
        LoadWeights { cpu: 0.8, mem: 0.2 }
    }
}

/// One invoker's last-reported state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvokerView {
    /// Invoker id.
    pub id: InvokerId,
    /// CPUs currently allocated to the hosting (Harvest) VM.
    pub total_cpus: u32,
    /// Cores in use (running invocations), as last reported.
    pub cpu_in_use: f64,
    /// Total memory of the VM in MiB.
    pub memory_mb: u64,
    /// Memory held by containers (warm + running) in MiB.
    pub memory_used_mb: u64,
    /// Memory committed to in-flight placements the invoker has not yet
    /// acknowledged, in MiB (controller-side bookkeeping).
    pub memory_pending_mb: u64,
    /// Invocations placed on this invoker that have not completed.
    pub inflight: u32,
    /// Sum of expected remaining demand of in-flight invocations, in
    /// CPU-seconds (for the weighted-queue-length JSQ variant).
    pub inflight_demand_secs: f64,
    /// True once the VM received its 30-second eviction warning; the
    /// controller must stop placing work here.
    pub eviction_pending: bool,
    /// A placement gate for callers that sideline an invoker by hand. The
    /// platform never clears it: a delivered health report sets it, and a
    /// silent invoker is handled by recovery's quarantine instead.
    pub healthy: bool,
    /// True while recovery's health-probe machinery has sidelined this
    /// invoker (silent past the probe timeout, or a persistent
    /// straggler); quarantined invokers take no new placements but stay
    /// registered until declared down.
    pub quarantined: bool,
    /// When the last health ping arrived.
    pub last_ping: SimTime,
}

impl InvokerView {
    /// A fresh view for a just-registered invoker.
    pub fn register(id: InvokerId, total_cpus: u32, memory_mb: u64, now: SimTime) -> Self {
        InvokerView {
            id,
            total_cpus,
            cpu_in_use: 0.0,
            memory_mb,
            memory_used_mb: 0,
            memory_pending_mb: 0,
            inflight: 0,
            inflight_demand_secs: 0.0,
            eviction_pending: false,
            healthy: true,
            quarantined: false,
            last_ping: now,
        }
    }

    /// CPU utilization in `[0, 1]`; an invoker whose VM shrank to zero
    /// cores while running work reports 1.0 (fully saturated).
    pub fn cpu_utilization(&self) -> f64 {
        if self.total_cpus == 0 {
            if self.inflight == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            (self.cpu_in_use / f64::from(self.total_cpus)).clamp(0.0, 1.0)
        }
    }

    /// Memory utilization in `[0, 1]`, counting pending placements.
    pub fn memory_utilization(&self) -> f64 {
        if self.memory_mb == 0 {
            return 1.0;
        }
        ((self.memory_used_mb + self.memory_pending_mb) as f64 / self.memory_mb as f64)
            .clamp(0.0, 1.0)
    }

    /// The paper's load metric: `w_c · cpu_util + w_m · mem_util`.
    pub fn weighted_load(&self, w: LoadWeights) -> f64 {
        w.cpu * self.cpu_utilization() + w.mem * self.memory_utilization()
    }

    /// Free memory available for new containers, MiB.
    pub fn memory_free_mb(&self) -> u64 {
        self.memory_mb
            .saturating_sub(self.memory_used_mb)
            .saturating_sub(self.memory_pending_mb)
    }

    /// Cores not currently in use — the `usable_resources` term of the MWS
    /// worker-set growth loop (Algorithm 1).
    pub fn usable_cpus(&self) -> f64 {
        (f64::from(self.total_cpus) - self.cpu_in_use).max(0.0)
    }

    /// True if the controller may place new work here.
    pub fn placeable(&self) -> bool {
        self.healthy && !self.eviction_pending && !self.quarantined
    }
}

/// The whole fleet as the controller sees it, ordered by invoker id.
///
/// Placement runs once per arrival, so the view maintains an index of
/// placeable invokers incrementally: mutations routed through
/// [`ClusterView::update`] patch the index in O(log n) (placeability flips
/// are rare — load bookkeeping never touches it), and [`ClusterView::placeable`]
/// iterates the index instead of re-filtering the whole fleet. Raw
/// [`ClusterView::get_mut`] access is still available for tests and
/// one-off tweaks; it conservatively marks the index dirty and iteration
/// falls back to a scan until the next `update` rebuilds it.
#[derive(Debug, Clone, Default)]
pub struct ClusterView {
    invokers: Vec<InvokerView>,
    /// Indices into `invokers` of placeable members, ascending (= id
    /// order). Trustworthy only while `dirty` is false.
    placeable_pos: Vec<u32>,
    /// Set when a `get_mut` may have flipped placeability behind the
    /// index's back.
    dirty: bool,
    /// Bumped whenever the *set* of placeable invokers may have changed:
    /// add/remove, an `update` that flips `placeable()`, and (conservatively)
    /// every `get_mut`. Load-only `update`s never bump it, so the epoch is
    /// stable across steady-state bookkeeping — callers cache
    /// placeability-dependent results keyed on it (the MWS covering-set
    /// cache). Deterministic: it counts mutation events, not wall time.
    placeability_epoch: u64,
}

impl ClusterView {
    /// Creates an empty view.
    pub fn new() -> Self {
        ClusterView::default()
    }

    /// Registers a new invoker.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn add(&mut self, view: InvokerView) {
        let pos = self.invokers.partition_point(|v| v.id < view.id);
        assert!(
            self.invokers.get(pos).map(|v| v.id) != Some(view.id),
            "invoker {:?} already registered",
            view.id
        );
        let placeable = view.placeable();
        self.placeability_epoch += 1;
        self.invokers.insert(pos, view);
        if !self.dirty {
            let p = self.placeable_pos.partition_point(|&x| (x as usize) < pos);
            for x in &mut self.placeable_pos[p..] {
                *x += 1;
            }
            if placeable {
                self.placeable_pos.insert(p, pos as u32);
            }
        }
    }

    /// The row holding `id`, if registered. Rows are unique and id-sorted,
    /// so a row never sits to the right of its own id, and fleets number
    /// their invokers densely, so it sits exactly there until lower ids
    /// are removed: probe `min(id, len − 1)`, and only when that row's id
    /// is larger gallop left (1, 2, 4, … rows) to bracket a binary
    /// search. A dense fleet resolves in one comparison; `k` removed
    /// lower ids cost O(log k).
    fn position(&self, id: InvokerId) -> Option<usize> {
        let rows = &self.invokers;
        let mut hi = (id.0 as usize).min(rows.len().checked_sub(1)?);
        match rows[hi].id.cmp(&id) {
            Ordering::Equal => return Some(hi),
            // The probe is the last row, or `rows[id] < id`, which
            // unique ascending ids rule out: nothing further right.
            Ordering::Less => return None,
            Ordering::Greater => {}
        }
        // Invariant: `rows[hi].id > id`.
        let mut step = 1;
        while hi > 0 {
            let lo = hi.saturating_sub(step);
            if rows[lo].id <= id {
                return rows[lo..hi]
                    .binary_search_by_key(&id, |v| v.id)
                    .ok()
                    .map(|i| lo + i);
            }
            hi = lo;
            step *= 2;
        }
        None
    }

    /// Removes an invoker (VM evicted/crashed). Returns its last view.
    pub fn remove(&mut self, id: InvokerId) -> Option<InvokerView> {
        let pos = self.position(id)?;
        self.placeability_epoch += 1;
        let removed = self.invokers.remove(pos);
        if !self.dirty {
            let p = self.placeable_pos.partition_point(|&x| (x as usize) < pos);
            if self.placeable_pos.get(p) == Some(&(pos as u32)) {
                self.placeable_pos.remove(p);
            }
            for x in &mut self.placeable_pos[p..] {
                *x -= 1;
            }
        }
        Some(removed)
    }

    /// Immutable lookup.
    pub fn get(&self, id: InvokerId) -> Option<&InvokerView> {
        self.position(id).map(|i| &self.invokers[i])
    }

    /// Like [`ClusterView::get`], but also returns the invoker's position
    /// in [`ClusterView::all`]. Positions are stable across any span with
    /// no placeability-epoch bump: only `add`/`remove` reorder the slice,
    /// and both bump the epoch (as does the conservative `get_mut`), so
    /// epoch-validated caches may index directly instead of re-searching.
    pub fn get_indexed(&self, id: InvokerId) -> Option<(usize, &InvokerView)> {
        self.position(id).map(|i| (i, &self.invokers[i]))
    }

    /// Mutable lookup. Marks the placeable index dirty and conservatively
    /// bumps the placeability epoch (the caller may flip placeability);
    /// hot paths should use [`ClusterView::update`], which keeps the
    /// index intact and only bumps the epoch on an actual flip.
    pub fn get_mut(&mut self, id: InvokerId) -> Option<&mut InvokerView> {
        let i = self.position(id)?;
        self.dirty = true;
        self.placeability_epoch += 1;
        Some(&mut self.invokers[i])
    }

    /// Mutates one invoker through a closure, patching the placeable
    /// index when the mutation flips placeability. Returns false when the
    /// id is unknown. Rebuilds the index first if a prior `get_mut` left
    /// it dirty.
    pub fn update(&mut self, id: InvokerId, f: impl FnOnce(&mut InvokerView)) -> bool {
        let Some(i) = self.position(id) else {
            return false;
        };
        if self.dirty {
            self.rebuild_index();
        }
        let was = self.invokers[i].placeable();
        f(&mut self.invokers[i]);
        let now = self.invokers[i].placeable();
        if was != now {
            self.placeability_epoch += 1;
            let p = self.placeable_pos.partition_point(|&x| (x as usize) < i);
            if now {
                self.placeable_pos.insert(p, i as u32);
            } else {
                debug_assert_eq!(self.placeable_pos.get(p), Some(&(i as u32)));
                self.placeable_pos.remove(p);
            }
        }
        true
    }

    fn rebuild_index(&mut self) {
        self.placeable_pos.clear();
        self.placeable_pos.extend(
            self.invokers
                .iter()
                .enumerate()
                .filter(|(_, v)| v.placeable())
                .map(|(i, _)| i as u32),
        );
        self.dirty = false;
    }

    /// Monotone counter over mutations that may have changed which
    /// invokers are placeable. Two calls returning the same value bracket
    /// a window in which the placeable *set* (not its load) was stable.
    pub fn placeability_epoch(&self) -> u64 {
        self.placeability_epoch
    }

    /// All invokers, ordered by id.
    pub fn all(&self) -> &[InvokerView] {
        &self.invokers
    }

    /// Positions of placeable invokers in [`ClusterView::all`], ascending,
    /// or `None` while the index is dirty. Lets samplers index placeable
    /// members directly without collecting them.
    pub fn placeable_positions(&self) -> Option<&[u32]> {
        (!self.dirty).then_some(self.placeable_pos.as_slice())
    }

    /// Invokers accepting new placements, ordered by id.
    pub fn placeable(&self) -> Placeable<'_> {
        Placeable {
            invokers: &self.invokers,
            mode: if self.dirty {
                PlaceableMode::Scan(self.invokers.iter())
            } else {
                PlaceableMode::Indexed(self.placeable_pos.iter())
            },
        }
    }

    /// Number of registered invokers.
    pub fn len(&self) -> usize {
        self.invokers.len()
    }

    /// True when no invokers are registered.
    pub fn is_empty(&self) -> bool {
        self.invokers.is_empty()
    }

    /// Total CPUs across placeable invokers.
    pub fn total_cpus(&self) -> u32 {
        self.placeable().map(|v| v.total_cpus).sum()
    }
}

/// Iterator returned by [`ClusterView::placeable`]: walks the maintained
/// index when it is clean, falls back to a filtering scan when dirty.
/// Either way the yield order is ascending invoker id.
#[derive(Debug)]
pub struct Placeable<'a> {
    invokers: &'a [InvokerView],
    mode: PlaceableMode<'a>,
}

#[derive(Debug)]
enum PlaceableMode<'a> {
    Indexed(std::slice::Iter<'a, u32>),
    Scan(std::slice::Iter<'a, InvokerView>),
}

impl<'a> Iterator for Placeable<'a> {
    type Item = &'a InvokerView;

    fn next(&mut self) -> Option<&'a InvokerView> {
        match &mut self.mode {
            PlaceableMode::Indexed(it) => it.next().map(|&p| &self.invokers[p as usize]),
            PlaceableMode::Scan(it) => it.find(|v| v.placeable()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(id: u32, cpus: u32, in_use: f64) -> InvokerView {
        let mut view = InvokerView::register(InvokerId(id), cpus, 1024, SimTime::ZERO);
        view.cpu_in_use = in_use;
        view
    }

    #[test]
    fn utilization_clamps_and_handles_zero_cpus() {
        let mut view = v(0, 4, 2.0);
        assert!((view.cpu_utilization() - 0.5).abs() < 1e-12);
        view.cpu_in_use = 10.0;
        assert_eq!(view.cpu_utilization(), 1.0);
        view.total_cpus = 0;
        view.inflight = 1;
        assert_eq!(view.cpu_utilization(), 1.0);
        view.inflight = 0;
        assert_eq!(view.cpu_utilization(), 0.0);
    }

    #[test]
    fn weighted_load_prefers_cpu() {
        let mut view = v(0, 4, 4.0); // cpu full
        view.memory_used_mb = 0;
        let w = LoadWeights::default();
        let cpu_bound = view.weighted_load(w);
        view.cpu_in_use = 0.0;
        view.memory_used_mb = 1024; // mem full
        let mem_bound = view.weighted_load(w);
        assert!(cpu_bound > mem_bound);
    }

    #[test]
    fn memory_accounting_includes_pending() {
        let mut view = v(0, 4, 0.0);
        view.memory_used_mb = 512;
        view.memory_pending_mb = 256;
        assert_eq!(view.memory_free_mb(), 256);
        assert!((view.memory_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn placeable_excludes_warned_and_unhealthy() {
        let mut view = v(0, 4, 0.0);
        assert!(view.placeable());
        view.eviction_pending = true;
        assert!(!view.placeable());
        view.eviction_pending = false;
        view.healthy = false;
        assert!(!view.placeable());
        view.healthy = true;
        view.quarantined = true;
        assert!(!view.placeable());
    }

    #[test]
    fn cluster_view_crud_stays_sorted() {
        let mut cv = ClusterView::new();
        cv.add(v(5, 4, 0.0));
        cv.add(v(1, 4, 0.0));
        cv.add(v(3, 4, 0.0));
        let ids: Vec<u32> = cv.all().iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert!(cv.get(InvokerId(3)).is_some());
        cv.remove(InvokerId(3)).unwrap();
        assert!(cv.get(InvokerId(3)).is_none());
        assert_eq!(cv.len(), 2);
        cv.get_mut(InvokerId(5)).unwrap().cpu_in_use = 2.0;
        assert_eq!(cv.get(InvokerId(5)).unwrap().cpu_in_use, 2.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut cv = ClusterView::new();
        cv.add(v(1, 4, 0.0));
        cv.add(v(1, 4, 0.0));
    }

    #[test]
    fn placeable_iterator_filters() {
        let mut cv = ClusterView::new();
        cv.add(v(0, 4, 0.0));
        let mut warned = v(1, 4, 0.0);
        warned.eviction_pending = true;
        cv.add(warned);
        assert_eq!(cv.placeable().count(), 1);
        assert_eq!(cv.total_cpus(), 4);
    }

    #[test]
    fn update_maintains_placeable_index() {
        let mut cv = ClusterView::new();
        for i in 0..4 {
            cv.add(v(i, 4, 0.0));
        }
        assert_eq!(cv.placeable_positions(), Some(&[0u32, 1, 2, 3][..]));
        // Placeability flip patches the index.
        assert!(cv.update(InvokerId(1), |x| x.eviction_pending = true));
        assert_eq!(cv.placeable_positions(), Some(&[0u32, 2, 3][..]));
        // Load-only mutation leaves it untouched.
        assert!(cv.update(InvokerId(2), |x| x.cpu_in_use = 3.0));
        assert_eq!(cv.placeable_positions(), Some(&[0u32, 2, 3][..]));
        // Flip back.
        assert!(cv.update(InvokerId(1), |x| x.eviction_pending = false));
        assert_eq!(cv.placeable_positions(), Some(&[0u32, 1, 2, 3][..]));
        // Unknown ids are a no-op.
        assert!(!cv.update(InvokerId(9), |x| x.healthy = false));
    }

    #[test]
    fn add_and_remove_keep_index_consistent() {
        let mut cv = ClusterView::new();
        cv.add(v(1, 4, 0.0));
        cv.add(v(5, 4, 0.0));
        let mut quarantined = v(3, 4, 0.0);
        quarantined.quarantined = true;
        cv.add(quarantined);
        // Positions are indices: invoker 3 (position 1) is unplaceable.
        assert_eq!(cv.placeable_positions(), Some(&[0u32, 2][..]));
        cv.remove(InvokerId(1)).unwrap();
        assert_eq!(cv.placeable_positions(), Some(&[1u32][..]));
        cv.remove(InvokerId(3)).unwrap();
        assert_eq!(cv.placeable_positions(), Some(&[0u32][..]));
        let ids: Vec<u32> = cv.placeable().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![5]);
    }

    #[test]
    fn placeability_epoch_tracks_set_changes_only() {
        let mut cv = ClusterView::new();
        cv.add(v(0, 4, 0.0));
        cv.add(v(1, 4, 0.0));
        let e0 = cv.placeability_epoch();
        // Load-only updates leave the epoch alone.
        assert!(cv.update(InvokerId(0), |x| x.cpu_in_use = 3.0));
        assert!(cv.update(InvokerId(1), |x| x.inflight = 7));
        assert_eq!(cv.placeability_epoch(), e0);
        // A placeability flip bumps it.
        assert!(cv.update(InvokerId(1), |x| x.eviction_pending = true));
        assert!(cv.placeability_epoch() > e0);
        let e1 = cv.placeability_epoch();
        // get_mut bumps conservatively even without a flip.
        cv.get_mut(InvokerId(0)).unwrap().cpu_in_use = 1.0;
        assert!(cv.placeability_epoch() > e1);
        let e2 = cv.placeability_epoch();
        // Membership changes bump.
        cv.add(v(2, 4, 0.0));
        assert!(cv.placeability_epoch() > e2);
        let e3 = cv.placeability_epoch();
        cv.remove(InvokerId(2)).unwrap();
        assert!(cv.placeability_epoch() > e3);
        // Removing an unknown id is not a change.
        let e4 = cv.placeability_epoch();
        assert!(cv.remove(InvokerId(9)).is_none());
        assert_eq!(cv.placeability_epoch(), e4);
    }

    #[test]
    fn get_mut_dirties_index_and_update_rebuilds() {
        let mut cv = ClusterView::new();
        for i in 0..3 {
            cv.add(v(i, 4, 0.0));
        }
        cv.get_mut(InvokerId(0)).unwrap().healthy = false;
        // Dirty: no positions, but iteration still filters correctly.
        assert!(cv.placeable_positions().is_none());
        let ids: Vec<u32> = cv.placeable().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        // Any update() rebuilds and resumes incremental maintenance.
        assert!(cv.update(InvokerId(2), |x| x.quarantined = true));
        assert_eq!(cv.placeable_positions(), Some(&[1u32][..]));
    }

    #[test]
    fn position_probes_dense_and_gallops_past_removed_rows() {
        let mut cv = ClusterView::new();
        assert_eq!(cv.position(InvokerId(0)), None);
        for i in 0..100 {
            cv.add(v(i, 4, 0.0));
        }
        cv.add(v(u32::MAX, 4, 0.0));
        // Dense: row == id; the far id resolves at the last row.
        assert_eq!(cv.position(InvokerId(0)), Some(0));
        assert_eq!(cv.position(InvokerId(99)), Some(99));
        assert_eq!(cv.position(InvokerId(u32::MAX)), Some(100));
        assert_eq!(cv.position(InvokerId(100)), None);
        assert_eq!(cv.position(InvokerId(u32::MAX - 1)), None);
        // Remove 33 low ids: rows shift left by up to 33.
        for i in (0..99).step_by(3) {
            cv.remove(InvokerId(i)).unwrap();
        }
        assert_eq!(cv.position(InvokerId(0)), None);
        assert_eq!(cv.position(InvokerId(1)), Some(0));
        assert_eq!(cv.position(InvokerId(98)), Some(65));
        assert_eq!(cv.position(InvokerId(96)), None);
        assert_eq!(cv.position(InvokerId(u32::MAX)), Some(67));
    }

    proptest! {
        /// `position` against the plain binary search it replaced, over
        /// sparse id sets under adds and removes: ids 0, 1 and `u32::MAX`,
        /// dense low ids, scattered ones, and lookups of absent ids
        /// below, between and above the rows.
        #[test]
        fn position_matches_binary_search(
            ops in prop::collection::vec(
                (
                    any::<bool>(),
                    prop_oneof![
                        4 => 0u32..48,
                        2 => 0u32..4_000,
                        1 => (u32::MAX - 2)..=u32::MAX,
                    ],
                ),
                1..120,
            ),
        ) {
            let mut cv = ClusterView::new();
            for (add, id) in ops {
                let registered = cv.get(InvokerId(id)).is_some();
                if add && !registered {
                    cv.add(v(id, 4, 0.0));
                } else if !add {
                    prop_assert_eq!(cv.remove(InvokerId(id)).is_some(), registered);
                }
                let probes = (0..52)
                    .chain([id.saturating_sub(1), id, id.saturating_add(1)])
                    .chain([3_999, 4_000, u32::MAX - 3, u32::MAX - 1, u32::MAX]);
                for probe in probes {
                    let probe = InvokerId(probe);
                    prop_assert_eq!(
                        cv.position(probe),
                        cv.invokers.binary_search_by_key(&probe, |x| x.id).ok(),
                        "{:?} in {:?}",
                        probe,
                        cv.invokers.iter().map(|x| x.id.0).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
