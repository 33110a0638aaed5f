//! Min-worker-set (MWS) load balancing — Algorithm 1 of the paper.
//!
//! MWS consolidates each function onto the smallest set of invokers whose
//! spare resources cover the function's estimated usage
//! `u_f = RPS_f · E[CPU_f] · E[lat_f]`, then sends the invocation to the
//! least-loaded member of that set. Consolidation keeps per-invoker
//! inter-arrival times below the container keep-alive, so starts stay
//! warm; growing the set under load bounds contention like JSQ does.
//!
//! The home invoker comes from consistent hashing, so VM churn reshuffles
//! only the functions anchored to the affected VM (Section 5.2), and
//! worker-set *reductions* are rate-limited to one per 30 seconds to
//! smooth oscillating load (Section 6.2).
//!
//! # The covering-set cache
//!
//! Placement is the dispatch hot path, and the naive formulation re-walks
//! the hash ring and rebuilds the covering set on every arrival. The walk
//! order, however, is a pure function of `(ring membership, placeable
//! set)`, both of which change orders of magnitude less often than
//! arrivals occur. [`Mws`] therefore caches, per function, the *prefix of
//! placeable invokers in ring-walk order*, keyed by the pair
//! `(HashRing::epoch, ClusterView::placeability_epoch)`. A steady-state
//! placement is then a cache hit: re-derive the covering-set size from
//! *live* loads over the cached prefix (an O(k) capacity-band check,
//! k = worker-set size), apply shrink damping, and pick the least-loaded
//! member — no ring walk at all.
//!
//! Correctness is structural, not probabilistic: both the covering walk
//! and the damped-set extension consume the same placeable-ring-order
//! sequence, so the cached prefix is a memoization of that sequence, and
//! every load-dependent quantity (covering size, least-loaded choice) is
//! recomputed from the live [`ClusterView`] on each hit. Cached
//! placements are **byte-identical** to the retained reference path
//! ([`Mws::place_uncached`]); a differential proptest and a
//! platform-level same-seed record-identity test enforce it.
//!
//! # Burst joins
//!
//! A fleet start is hundreds of [`LoadBalancer::on_invoker_join`] calls
//! at one instant with no placement in between. `Mws` buffers them and
//! hands the whole burst to [`HashRing::extend`] — one sort and one merge
//! pass instead of one ring memmove per joiner — before anything reads
//! the ring: `place`, `place_uncached`, `home` and `on_invoker_leave` all
//! flush first. The buffer lives here and not in the ring because every
//! one of those takes `&mut self`, while [`HashRing::walk`] is `&self`
//! and must see every member `add` returned `true` for. `extend` lays
//! the ring out (and counts epochs) exactly as the same joins one at a
//! time would, so buffering is unobservable.

use hrv_trace::faas::FunctionId;
use hrv_trace::rng::IdMap;
use hrv_trace::time::{SimDuration, SimTime};

use crate::estimate::{StatsPriors, StatsRegistry};
use crate::hashring::{HashRing, WalkSeen};
use crate::policy::LoadBalancer;
use crate::view::{ClusterView, InvokerId, LoadWeights};

/// Minimum interval between worker-set reductions for one function.
pub const SHRINK_DAMPING: SimDuration = SimDuration::from_secs(30);

/// Extra placeable members kept in a cached walk prefix beyond what the
/// filling placement needed, so moderate usage growth (a longer covering
/// set) or damped-set growth stays a cache hit instead of forcing a
/// refill walk.
const CACHE_SLACK: usize = 2;

/// A memoized prefix of the function's placeable ring walk.
#[derive(Debug, Clone)]
struct CachedWalk {
    /// [`HashRing::epoch`] at fill time — invalidated by member churn.
    ring_epoch: u64,
    /// [`ClusterView::placeability_epoch`] at fill time — invalidated by
    /// any placeability flip (and conservatively by raw `get_mut`).
    place_epoch: u64,
    /// The first `prefix.len()` placeable invokers in ring-walk order
    /// from the function's home, each paired with its position in
    /// [`ClusterView::all`] at fill time. While both epochs match, this
    /// is exactly what a fresh walk would yield — and the positions are
    /// still exact (only `add`/`remove`/`get_mut` reorder the view, and
    /// all of them bump the placeability epoch), so hits index the view
    /// directly instead of binary-searching per member.
    prefix: Vec<(InvokerId, u32)>,
    /// True when the fill walk ran dry: `prefix` holds *every* placeable
    /// invoker, so a covering or damped set can never extend past it.
    exhausted: bool,
}

/// Per-function worker-set state: damped size plus the cached walk.
#[derive(Debug, Clone)]
struct SetState {
    /// Current worker-set size.
    k: usize,
    /// Last time the set was allowed to shrink.
    last_shrink: SimTime,
    /// Covering-set cache; `None` until the first cache-filling placement.
    cache: Option<CachedWalk>,
}

impl SetState {
    /// The size damping would yield for `target` at `now` *without*
    /// committing the shrink step — the cache-hit path peeks first so a
    /// fallback to the walk never double-applies a shrink.
    fn damped_peek(&self, target: usize, now: SimTime) -> usize {
        if target >= self.k {
            target
        } else if now.since(self.last_shrink) >= SHRINK_DAMPING {
            self.k - 1
        } else {
            self.k
        }
    }

    /// Applies the 30-second shrink damping: growth is immediate, shrink
    /// is one step per damping interval. Returns the damped size (always
    /// what [`SetState::damped_peek`] predicted).
    fn damped_commit(&mut self, target: usize, now: SimTime) -> usize {
        if target >= self.k {
            self.k = target;
        } else if now.since(self.last_shrink) >= SHRINK_DAMPING {
            self.k -= 1;
            self.last_shrink = now;
        }
        self.k
    }
}

/// Hit/miss counters of the covering-set cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MwsCacheStats {
    /// Placements served from the cached walk prefix (no ring walk).
    pub hits: u64,
    /// Placements that fell back to the full ring walk (and refilled the
    /// cache when caching is enabled).
    pub misses: u64,
}

impl MwsCacheStats {
    /// Fraction of placements served from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The MWS policy.
///
/// # Examples
///
/// ```
/// use hrv_lb::mws::Mws;
/// use hrv_lb::policy::LoadBalancer;
/// use hrv_lb::view::{ClusterView, InvokerId, InvokerView, LoadWeights};
/// use hrv_trace::faas::{AppId, FunctionId};
/// use hrv_trace::time::SimTime;
/// use rand::SeedableRng;
///
/// let mut mws = Mws::new(LoadWeights::default(), 1);
/// let mut view = ClusterView::new();
/// for i in 0..4 {
///     mws.on_invoker_join(InvokerId(i));
///     view.add(InvokerView::register(InvokerId(i), 8, 16 * 1024, SimTime::ZERO));
/// }
/// let f = FunctionId { app: AppId(9), func: 0 };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // A cold function goes to its consistent-hashing home VM.
/// let placed = mws.place(SimTime::ZERO, f, 256, &view, &mut rng).unwrap();
/// assert_eq!(Some(placed), mws.home(f));
/// ```
#[derive(Debug)]
pub struct Mws {
    ring: HashRing,
    /// Joins not yet on the ring, in arrival order; see "Burst joins".
    joining: Vec<InvokerId>,
    stats: StatsRegistry,
    weights: LoadWeights,
    sets: IdMap<FunctionId, SetState>,
    /// Reused ring-walk dedup scratch (only the miss path walks).
    walk_seen: WalkSeen,
    /// Reused worker-set member buffer, emptied between placements.
    scratch: Vec<(InvokerId, u32)>,
    /// When false, every placement takes the reference walk path —
    /// retained for differential testing against the cache.
    cache_enabled: bool,
    cache_hits: u64,
    cache_misses: u64,
}

impl Mws {
    /// Creates an MWS balancer for a deployment with `controllers`
    /// controllers (used to scale locally observed arrival rates). The
    /// covering-set cache is on; see [`Mws::set_caching`].
    pub fn new(weights: LoadWeights, controllers: u32) -> Self {
        Mws {
            ring: HashRing::new(),
            joining: Vec::new(),
            stats: StatsRegistry::new(StatsPriors::default(), controllers),
            weights,
            sets: IdMap::default(),
            walk_seen: WalkSeen::new(),
            scratch: Vec::new(),
            cache_enabled: true,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Enables or disables the covering-set cache. Placement results are
    /// identical either way (the differential tests depend on it); the
    /// uncached mode exists for reference runs and A/B validation.
    pub fn set_caching(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Covering-set cache hit/miss counters since construction.
    pub fn cache_stats(&self) -> MwsCacheStats {
        MwsCacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
        }
    }

    /// Puts the buffered joins on the ring. Every reader of the ring
    /// calls this first.
    fn flush_joins(&mut self) {
        if !self.joining.is_empty() {
            self.ring.extend(self.joining.drain(..));
        }
    }

    /// The home invoker currently assigned to `function`, if any.
    pub fn home(&mut self, function: FunctionId) -> Option<InvokerId> {
        self.flush_joins();
        self.ring.home(function)
    }

    /// Current worker-set size for `function` (1 before any placement).
    pub fn worker_set_size(&self, function: FunctionId) -> usize {
        self.sets.get(&function).map(|s| s.k).unwrap_or(1)
    }

    /// Mutable access to the learned statistics (exposed for tests and
    /// warm-starting experiments).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// The reference placement path: one ring walk per placement, never
    /// consulting or refilling the cache. [`Mws::place`] is held
    /// byte-identical to this by a differential proptest
    /// (`crates/lb/tests/props.rs`) and a platform-level same-seed
    /// record-identity test (`tests/determinism.rs`).
    pub fn place_uncached(
        &mut self,
        now: SimTime,
        function: FunctionId,
        _memory_mb: u64,
        view: &ClusterView,
    ) -> Option<InvokerId> {
        self.flush_joins();
        let usage = self.stats.usage_estimate(function, now);
        self.place_walk(now, function, usage, view, false)
    }

    /// Cache-hit attempt: `Some(placement)` when the cached walk prefix
    /// is valid for the current epochs, covers `usage` under *live*
    /// loads, and is long enough for the damped set; `None` means fall
    /// back to the walk. Never walks the ring and only mutates damping
    /// state on a hit.
    fn place_cached(
        &mut self,
        now: SimTime,
        function: FunctionId,
        usage: f64,
        view: &ClusterView,
    ) -> Option<Option<InvokerId>> {
        let ring_epoch = self.ring.epoch();
        let place_epoch = view.placeability_epoch();
        let weights = self.weights;
        let state = self.sets.get_mut(&function)?;
        let cache = state.cache.as_ref()?;
        if cache.ring_epoch != ring_epoch || cache.place_epoch != place_epoch {
            return None;
        }
        // Capacity-band check fused with least-loaded selection, one
        // pass over the prefix. Matching epochs guarantee a fresh walk
        // would visit exactly these invokers in this order, so stopping
        // at the same `covered >= usage` boundary reproduces the covering
        // set exactly; the cached view positions are likewise still exact
        // (any reordering bumps the placeability epoch), with the id
        // equality guard demoting the impossible mismatch to a miss
        // rather than a wrong answer.
        let all = view.all();
        let mut covered = 0.0;
        let mut best: Option<(InvokerId, f64)> = None;
        let mut m = cache.prefix.len();
        for (i, &(id, idx)) in cache.prefix.iter().enumerate() {
            let v = all.get(idx as usize)?;
            if v.id != id {
                return None;
            }
            best = fold_least_loaded(best, id, v.weighted_load(weights));
            covered += v.usable_cpus();
            if covered >= usage {
                m = i + 1;
                break;
            }
        }
        if m == 0 {
            return None;
        }
        if covered < usage && !cache.exhausted {
            // Usage outgrew the cached prefix: the true covering set may
            // extend past it.
            return None;
        }
        // Damped size is always ≥ the covering size (growth is immediate,
        // shrink stops at the target), so the selection window extends
        // the scan above rather than restarting it.
        let k = state.damped_peek(m, now).max(1);
        if k > cache.prefix.len() && !cache.exhausted {
            // The damped set extends beyond the cached walk.
            return None;
        }
        let take = k.min(cache.prefix.len());
        for &(id, idx) in &cache.prefix[m..take] {
            let v = all.get(idx as usize)?;
            if v.id != id {
                return None;
            }
            best = fold_least_loaded(best, id, v.weighted_load(weights));
        }
        state.damped_commit(m, now);
        Some(best.map(|(id, _)| id))
    }

    /// The walk path (Algorithm 1, single pass): accumulate placeable
    /// capacity in ring order until `usage` is covered, apply damping,
    /// then *continue the same walk* to the damped size — the
    /// [`WalkSeen`] marks carry over, so extension needs no membership
    /// probe. When `refill` is set, the member prefix (plus
    /// [`CACHE_SLACK`] headroom) is stored in the cache.
    fn place_walk(
        &mut self,
        now: SimTime,
        function: FunctionId,
        usage: f64,
        view: &ClusterView,
        refill: bool,
    ) -> Option<InvokerId> {
        let Mws {
            ring,
            weights,
            sets,
            walk_seen,
            scratch,
            ..
        } = self;
        let mut members = std::mem::take(scratch);
        let mut walk = ring.walk_with(function, walk_seen);
        let mut covered = 0.0;
        for id in walk.by_ref() {
            let Some((idx, v)) = view.get_indexed(id) else {
                continue;
            };
            if !v.placeable() {
                continue;
            }
            covered += v.usable_cpus();
            members.push((id, idx as u32));
            if covered >= usage {
                break;
            }
        }
        if members.is_empty() {
            *scratch = members;
            return None;
        }
        let m = members.len();
        let entry = sets.entry(function).or_insert_with(|| SetState {
            k: m,
            last_shrink: now,
            cache: None,
        });
        let k = entry.damped_commit(m, now).max(1);

        // The damped set may be larger than the covering set; with a
        // refill pending, also gather slack members for the cache.
        let want = if refill {
            m.max(k) + CACHE_SLACK
        } else {
            m.max(k)
        };
        let mut exhausted = false;
        if members.len() < want {
            for id in walk.by_ref() {
                let Some((idx, v)) = view.get_indexed(id) else {
                    continue;
                };
                if v.placeable() {
                    members.push((id, idx as u32));
                    if members.len() >= want {
                        break;
                    }
                }
            }
            // Ran dry before `want`: every placeable invoker is listed.
            exhausted = members.len() < want;
        }

        let take = k.min(members.len());
        let all = view.all();
        let mut best: Option<(InvokerId, f64)> = None;
        for &(id, idx) in &members[..take] {
            // Indices were taken from this same view moments ago.
            let v = &all[idx as usize];
            best = fold_least_loaded(best, id, v.weighted_load(*weights));
        }
        let choice = best.map(|(id, _)| id);
        if refill {
            // Reuse the previous prefix allocation when there is one.
            let mut prefix = match entry.cache.take() {
                Some(old) => {
                    let mut p = old.prefix;
                    p.clear();
                    p
                }
                None => Vec::with_capacity(members.len()),
            };
            prefix.extend_from_slice(&members);
            entry.cache = Some(CachedWalk {
                ring_epoch: ring.epoch(),
                place_epoch: view.placeability_epoch(),
                prefix,
                exhausted,
            });
        }
        members.clear();
        *scratch = members;
        choice
    }
}

/// One step of least-loaded selection: keep `best` unless `load` is
/// strictly smaller under `total_cmp` — `Iterator::min_by` semantics,
/// ties break toward the earliest ring position. Shared by the cached
/// and reference paths so the selection semantics cannot drift apart.
#[inline]
fn fold_least_loaded(
    best: Option<(InvokerId, f64)>,
    id: InvokerId,
    load: f64,
) -> Option<(InvokerId, f64)> {
    match best {
        Some((_, incumbent)) if incumbent.total_cmp(&load) != std::cmp::Ordering::Greater => best,
        _ => Some((id, load)),
    }
}

impl LoadBalancer for Mws {
    fn name(&self) -> &'static str {
        "MWS"
    }

    fn fresh(&self) -> Box<dyn LoadBalancer> {
        let mut m = Mws::new(self.weights, self.stats.controllers());
        m.set_caching(self.cache_enabled);
        Box::new(m)
    }

    fn place(
        &mut self,
        now: SimTime,
        function: FunctionId,
        _memory_mb: u64,
        view: &ClusterView,
        _rng: &mut dyn rand::Rng,
    ) -> Option<InvokerId> {
        self.flush_joins();
        let usage = self.stats.usage_estimate(function, now);
        if self.cache_enabled {
            if let Some(choice) = self.place_cached(now, function, usage, view) {
                self.cache_hits += 1;
                return choice;
            }
            self.cache_misses += 1;
        }
        self.place_walk(now, function, usage, view, self.cache_enabled)
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.stats.record_arrival(function, now);
    }

    fn on_completion(&mut self, function: FunctionId, duration: SimDuration, cpu_cores: f64) {
        self.stats.record_completion(function, duration, cpu_cores);
    }

    fn on_invoker_join(&mut self, id: InvokerId) {
        self.joining.push(id);
    }

    fn on_invoker_leave(&mut self, id: InvokerId) {
        self.flush_joins();
        self.ring.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;
    use hrv_trace::time::SimTime;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::view::InvokerView;

    fn f(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    fn cluster(n: u32, cpus: u32) -> (Mws, ClusterView) {
        let mut mws = Mws::new(LoadWeights::default(), 1);
        let mut view = ClusterView::new();
        for i in 0..n {
            mws.on_invoker_join(InvokerId(i));
            view.add(InvokerView::register(
                InvokerId(i),
                cpus,
                64 * 1024,
                SimTime::ZERO,
            ));
        }
        (mws, view)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn cold_function_lands_on_home() {
        let (mut mws, view) = cluster(10, 16);
        let home = mws.home(f(3)).unwrap();
        let placed = mws
            .place(SimTime::ZERO, f(3), 256, &view, &mut rng())
            .unwrap();
        // With no learned usage the covering set is {home}.
        assert_eq!(placed, home);
        assert_eq!(mws.worker_set_size(f(3)), 1);
    }

    #[test]
    fn placement_is_consolidated_at_low_load() {
        let (mut mws, view) = cluster(10, 16);
        let mut r = rng();
        let mut targets = std::collections::HashSet::new();
        for i in 0..50 {
            let now = SimTime::from_secs(i * 20); // slow arrivals
            mws.on_arrival(f(9), now);
            targets.insert(mws.place(now, f(9), 256, &view, &mut r).unwrap());
        }
        // Low-rate function stays on very few invokers (warm starts).
        assert!(targets.len() <= 2, "spread over {} invokers", targets.len());
    }

    #[test]
    fn worker_set_grows_with_learned_usage() {
        let (mut mws, mut view) = cluster(10, 8);
        let mut r = rng();
        // Teach the balancer: 10 rps × 8 s × 1 core = 80 cores needed,
        // which exceeds any single 8-CPU invoker.
        for _ in 0..20 {
            mws.on_completion(f(1), SimDuration::from_secs(8), 1.0);
        }
        let mut targets = std::collections::HashSet::new();
        for i in 0..600u64 {
            let now = SimTime::from_micros(i * 100_000); // 10 rps
            mws.on_arrival(f(1), now);
            if let Some(id) = mws.place(now, f(1), 256, &view, &mut r) {
                // Mimic the controller's optimistic load bookkeeping so
                // least-loaded selection sees its own placements.
                let v = view.get_mut(id).unwrap();
                v.cpu_in_use = (v.cpu_in_use + 0.05).min(f64::from(v.total_cpus));
                targets.insert(id);
            }
        }
        assert!(
            mws.worker_set_size(f(1)) >= 5,
            "set size {}",
            mws.worker_set_size(f(1))
        );
        assert!(targets.len() >= 5, "spread {} invokers", targets.len());
    }

    #[test]
    fn shrink_is_damped_to_one_step_per_interval() {
        let (mut mws, view) = cluster(10, 8);
        let mut r = rng();
        // Force a large set.
        for _ in 0..20 {
            mws.on_completion(f(1), SimDuration::from_secs(8), 1.0);
        }
        for i in 0..600u64 {
            let now = SimTime::from_micros(i * 100_000);
            mws.on_arrival(f(1), now);
            mws.place(now, f(1), 256, &view, &mut r);
        }
        let big = mws.worker_set_size(f(1));
        assert!(big >= 5);
        // Load vanishes; rate estimator decays. Within the damping window
        // the set may shrink at most once.
        let later = SimTime::from_secs(200);
        mws.place(later, f(1), 256, &view, &mut r);
        assert!(mws.worker_set_size(f(1)) >= big - 1);
        // After many damping intervals it shrinks step by step.
        let mut t = later;
        for _ in 0..big {
            t += SimDuration::from_secs(31);
            mws.place(t, f(1), 256, &view, &mut r);
        }
        assert!(mws.worker_set_size(f(1)) < big, "never shrank from {big}");
    }

    #[test]
    fn warned_invokers_are_skipped() {
        let (mut mws, mut view) = cluster(4, 16);
        let home = mws.home(f(2)).unwrap();
        view.get_mut(home).unwrap().eviction_pending = true;
        let placed = mws
            .place(SimTime::ZERO, f(2), 256, &view, &mut rng())
            .unwrap();
        assert_ne!(placed, home);
    }

    #[test]
    fn no_placeable_invokers_returns_none() {
        let (mut mws, mut view) = cluster(3, 16);
        for i in 0..3 {
            view.get_mut(InvokerId(i)).unwrap().healthy = false;
        }
        assert!(mws
            .place(SimTime::ZERO, f(0), 256, &view, &mut rng())
            .is_none());
    }

    #[test]
    fn churn_keeps_most_homes_stable() {
        let (mut mws, _) = cluster(10, 16);
        let homes_before: Vec<InvokerId> = (0..500).map(|a| mws.home(f(a)).unwrap()).collect();
        mws.on_invoker_leave(InvokerId(7));
        let mut moved = 0;
        for (a, &before) in homes_before.iter().enumerate() {
            let after = mws.home(f(a as u32)).unwrap();
            if after != before {
                moved += 1;
                assert_eq!(before, InvokerId(7));
            }
        }
        assert!(moved > 0 && moved < 150, "moved {moved}");
    }

    #[test]
    fn least_loaded_member_wins() {
        let (mut mws, mut view) = cluster(3, 16);
        // Teach a usage that needs ~2 invokers (20 cores > 16).
        for _ in 0..10 {
            mws.on_completion(f(5), SimDuration::from_secs(2), 1.0);
        }
        let mut r = rng();
        for i in 0..300u64 {
            let now = SimTime::from_micros(i * 100_000);
            mws.on_arrival(f(5), now);
            mws.place(now, f(5), 256, &view, &mut r);
        }
        let now = SimTime::from_secs(31);
        // Saturate the home invoker; the alternative must win.
        let home = mws.home(f(5)).unwrap();
        view.get_mut(home).unwrap().cpu_in_use = 16.0;
        let placed = mws.place(now, f(5), 256, &view, &mut r).unwrap();
        assert_ne!(placed, home);
    }

    /// Two balancers fed the same observation stream: one places through
    /// the cache, the twin through the reference walk.
    fn twins(n: u32, cpus: u32) -> (Mws, Mws, ClusterView) {
        let (cached, view) = cluster(n, cpus);
        let (reference, _) = cluster(n, cpus);
        (cached, reference, view)
    }

    #[test]
    fn steady_state_placements_are_cache_hits() {
        let (mut mws, mut view) = cluster(8, 8);
        let mut r = rng();
        for i in 0..500u64 {
            let now = SimTime::from_micros(i * 50_000);
            mws.on_arrival(f(4), now);
            let id = mws.place(now, f(4), 256, &view, &mut r).unwrap();
            // Controller-style load-only bookkeeping: epochs stay put.
            view.update(id, |v| {
                v.cpu_in_use = (v.cpu_in_use + 0.2).min(8.0);
            });
            if i % 3 == 2 {
                view.update(id, |v| {
                    v.cpu_in_use = (v.cpu_in_use - 0.5).max(0.0);
                });
            }
        }
        let stats = mws.cache_stats();
        assert_eq!(stats.hits + stats.misses, 500);
        assert!(stats.hit_rate() > 0.9, "steady state should hit: {stats:?}");
    }

    #[test]
    fn cached_matches_uncached_under_load_drift() {
        let (mut cached, mut reference, mut view) = twins(8, 8);
        // Teach both a usage large enough for multi-member sets.
        for _ in 0..20 {
            cached.on_completion(f(1), SimDuration::from_secs(4), 1.0);
            reference.on_completion(f(1), SimDuration::from_secs(4), 1.0);
        }
        let mut r = rng();
        for i in 0..800u64 {
            let now = SimTime::from_micros(i * 100_000);
            cached.on_arrival(f(1), now);
            reference.on_arrival(f(1), now);
            let a = cached.place(now, f(1), 256, &view, &mut r);
            let b = reference.place_uncached(now, f(1), 256, &view);
            assert_eq!(a, b, "diverged at step {i}");
            assert_eq!(
                cached.worker_set_size(f(1)),
                reference.worker_set_size(f(1))
            );
            if let Some(id) = a {
                // Load-only drift through `update`: the cache must follow
                // the moving covering boundary via its live band check.
                view.update(id, |v| {
                    v.cpu_in_use = (v.cpu_in_use + 0.7).min(8.0);
                });
                view.update(InvokerId((i % 8) as u32), |v| {
                    v.cpu_in_use = (v.cpu_in_use - 0.9).max(0.0);
                });
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "cache never engaged: {stats:?}");
    }

    #[test]
    fn churn_invalidates_and_placements_stay_identical() {
        let (mut cached, mut reference, mut view) = twins(6, 8);
        for _ in 0..10 {
            cached.on_completion(f(2), SimDuration::from_secs(5), 1.0);
            reference.on_completion(f(2), SimDuration::from_secs(5), 1.0);
        }
        let mut r = rng();
        for i in 0..400u64 {
            let now = SimTime::from_micros(i * 100_000);
            cached.on_arrival(f(2), now);
            reference.on_arrival(f(2), now);
            match i {
                100 => {
                    // An invoker leaves mid-stream (ring epoch bump).
                    cached.on_invoker_leave(InvokerId(3));
                    reference.on_invoker_leave(InvokerId(3));
                    view.remove(InvokerId(3)).unwrap();
                }
                200 => {
                    // ... and rejoins.
                    cached.on_invoker_join(InvokerId(3));
                    reference.on_invoker_join(InvokerId(3));
                    view.add(InvokerView::register(InvokerId(3), 8, 64 * 1024, now));
                }
                300 => {
                    // Placeability flip without membership churn.
                    view.update(InvokerId(1), |v| v.eviction_pending = true);
                }
                350 => {
                    view.update(InvokerId(1), |v| v.eviction_pending = false);
                }
                _ => {}
            }
            let a = cached.place(now, f(2), 256, &view, &mut r);
            let b = reference.place_uncached(now, f(2), 256, &view);
            assert_eq!(a, b, "diverged at step {i}");
        }
    }

    #[test]
    fn home_leave_and_rejoin_preserves_shrink_damping() {
        let (mut mws, mut view) = cluster(10, 8);
        let mut r = rng();
        for _ in 0..20 {
            mws.on_completion(f(1), SimDuration::from_secs(8), 1.0);
        }
        for i in 0..600u64 {
            let now = SimTime::from_micros(i * 100_000);
            mws.on_arrival(f(1), now);
            mws.place(now, f(1), 256, &view, &mut r);
        }
        let big = mws.worker_set_size(f(1));
        assert!(big >= 5);
        let home = mws.home(f(1)).unwrap();
        // Home leaves and rejoins: ring epoch bumps twice, the function's
        // walk prefix changes, but the per-function damping state must
        // survive — no panic, no damping reset.
        mws.on_invoker_leave(home);
        view.remove(home).unwrap();
        let t1 = SimTime::from_secs(120);
        mws.place(t1, f(1), 256, &view, &mut r);
        assert!(
            mws.worker_set_size(f(1)) >= big - 1,
            "shrink skipped damping after home leave"
        );
        mws.on_invoker_join(home);
        view.add(InvokerView::register(home, 8, 64 * 1024, t1));
        // Rate has decayed to zero; the set may shrink only one step per
        // 30 s interval despite the churn.
        let t2 = SimTime::from_secs(125);
        mws.place(t2, f(1), 256, &view, &mut r);
        let after_rejoin = mws.worker_set_size(f(1));
        assert!(
            after_rejoin >= big - 1,
            "rejoin skipped damping: {after_rejoin} from {big}"
        );
        let t3 = SimTime::from_secs(126);
        mws.place(t3, f(1), 256, &view, &mut r);
        assert!(
            mws.worker_set_size(f(1)) >= after_rejoin.saturating_sub(0),
            "second shrink inside the damping window"
        );
    }

    #[test]
    fn disabled_cache_never_counts() {
        let (mut mws, view) = cluster(4, 8);
        mws.set_caching(false);
        let mut r = rng();
        for i in 0..50u64 {
            let now = SimTime::from_micros(i * 100_000);
            mws.on_arrival(f(7), now);
            mws.place(now, f(7), 256, &view, &mut r).unwrap();
        }
        assert_eq!(mws.cache_stats(), MwsCacheStats::default());
    }

    #[test]
    fn joins_are_buffered_until_the_ring_is_read() {
        let mut mws = Mws::new(LoadWeights::default(), 1);
        for i in [3, 1, 3, 2] {
            mws.on_invoker_join(InvokerId(i));
        }
        assert_eq!(mws.ring.members(), 0);
        assert_eq!(mws.joining.len(), 4);
        // A leave must see the buffered join it undoes.
        mws.on_invoker_leave(InvokerId(1));
        assert!(mws.joining.is_empty());
        assert_eq!(mws.ring.members(), 2);
        assert_eq!(mws.ring.epoch(), 4);
        mws.on_invoker_join(InvokerId(1));
        assert!(mws.home(f(0)).is_some());
        assert_eq!(mws.ring.members(), 3);
    }

    proptest! {
        /// Buffered joins are unobservable: a balancer that batches its
        /// joins and a twin that puts each on the ring at once, fed the
        /// same random join / leave / warn / place interleaving (repeat
        /// joins and leaves of absent ids included), place identically
        /// and agree on cache counters and worker-set sizes throughout.
        #[test]
        fn buffered_joins_match_eager_joins(
            ops in prop::collection::vec((0u32..8, 0u32..12), 1..200),
        ) {
            let mut buffered = Mws::new(LoadWeights::default(), 1);
            let mut eager = Mws::new(LoadWeights::default(), 1);
            let mut view = ClusterView::new();
            let mut r = rng();
            for app in 0..3 {
                for _ in 0..10 {
                    buffered.on_completion(f(app), SimDuration::from_secs(4), 1.0);
                    eager.on_completion(f(app), SimDuration::from_secs(4), 1.0);
                }
            }
            for (step, (op, arg)) in ops.into_iter().enumerate() {
                let now = SimTime::from_micros(step as u64 * 100_000);
                let id = InvokerId(arg);
                match op {
                    0 | 1 => {
                        buffered.on_invoker_join(id);
                        eager.on_invoker_join(id);
                        eager.flush_joins();
                        if view.get(id).is_none() {
                            view.add(InvokerView::register(id, 4, 64 * 1024, now));
                        }
                    }
                    2 => {
                        buffered.on_invoker_leave(id);
                        eager.on_invoker_leave(id);
                        view.remove(id);
                    }
                    3 => {
                        view.update(id, |v| v.eviction_pending = !v.eviction_pending);
                    }
                    _ => {
                        let func = f(arg % 3);
                        buffered.on_arrival(func, now);
                        eager.on_arrival(func, now);
                        let a = buffered.place(now, func, 256, &view, &mut r);
                        let b = eager.place(now, func, 256, &view, &mut r);
                        prop_assert_eq!(a, b, "diverged at step {}", step);
                        if let Some(id) = a {
                            view.update(id, |v| v.cpu_in_use = (v.cpu_in_use + 0.6).min(4.0));
                        }
                    }
                }
                prop_assert_eq!(buffered.cache_stats(), eager.cache_stats());
                for app in 0..3 {
                    prop_assert_eq!(
                        buffered.worker_set_size(f(app)),
                        eager.worker_set_size(f(app))
                    );
                }
            }
            buffered.flush_joins();
            prop_assert_eq!(buffered.ring.epoch(), eager.ring.epoch());
            for app in 0..40 {
                prop_assert_eq!(buffered.home(f(app)), eager.home(f(app)));
            }
        }
    }
}
