//! Property-based tests of the load-balancing substrate invariants.

use proptest::prelude::*;

use hrv_lb::estimate::RunningMean;
use hrv_lb::hashring::HashRing;
use hrv_lb::mws::Mws;
use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::{ClusterView, InvokerId, InvokerView, LoadWeights};
use hrv_trace::faas::{AppId, FunctionId};
use hrv_trace::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn f(app: u32) -> FunctionId {
    FunctionId {
        app: AppId(app),
        func: 0,
    }
}

proptest! {
    /// Consistent hashing monotonicity: removing one member only moves
    /// functions whose home *was* that member.
    #[test]
    fn ring_removal_is_monotone(
        members in prop::collection::btree_set(0u32..64, 2..20),
        victim_idx in 0usize..20,
        apps in prop::collection::vec(0u32..10_000, 1..100),
    ) {
        let members: Vec<u32> = members.into_iter().collect();
        let victim = members[victim_idx % members.len()];
        let mut ring = HashRing::new();
        for &m in &members {
            ring.add(InvokerId(m));
        }
        let before: Vec<InvokerId> =
            apps.iter().map(|&a| ring.home(f(a)).unwrap()).collect();
        ring.remove(InvokerId(victim));
        for (&app, &was) in apps.iter().zip(&before) {
            let now = ring.home(f(app)).unwrap();
            if was != InvokerId(victim) {
                prop_assert_eq!(now, was, "app {} moved without cause", app);
            } else {
                prop_assert_ne!(now, InvokerId(victim));
            }
        }
    }

    /// Ring walks enumerate each member exactly once, starting at the home.
    #[test]
    fn ring_walk_is_a_permutation(
        members in prop::collection::btree_set(0u32..256, 1..30),
        app in 0u32..10_000,
    ) {
        let mut ring = HashRing::new();
        for &m in &members {
            ring.add(InvokerId(m));
        }
        let walk: Vec<InvokerId> = ring.walk(f(app)).collect();
        prop_assert_eq!(walk.len(), members.len());
        prop_assert_eq!(walk[0], ring.home(f(app)).unwrap());
        let mut seen: Vec<u32> = walk.iter().map(|i| i.0).collect();
        seen.sort_unstable();
        let expect: Vec<u32> = members.into_iter().collect();
        prop_assert_eq!(seen, expect);
    }

    /// The running mean is the samples' sum over their count, bit for
    /// bit: MWS's usage estimate reads it, so it must not drift from the
    /// plain quotient.
    #[test]
    fn running_mean_is_sum_over_count(
        samples in prop::collection::vec(0.0f64..3_000.0, 1..300),
    ) {
        let mut m = RunningMean::default();
        for &x in &samples {
            m.record(x);
        }
        let exact = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(m.mean().unwrap().to_bits(), exact.to_bits());
        prop_assert_eq!(m.count(), samples.len() as u64);
    }

    /// The weighted-load metric is bounded by the weight sum and ordered
    /// by CPU utilization when memory is equal.
    #[test]
    fn weighted_load_is_bounded_and_ordered(
        cpus in 1u32..64,
        in_use_a in 0.0f64..64.0,
        in_use_b in 0.0f64..64.0,
    ) {
        let w = LoadWeights::default();
        let mk = |in_use: f64| {
            let mut v = InvokerView::register(InvokerId(0), cpus, 1_024, SimTime::ZERO);
            v.cpu_in_use = in_use;
            v
        };
        let a = mk(in_use_a);
        let b = mk(in_use_b);
        prop_assert!(a.weighted_load(w) <= w.cpu + w.mem + 1e-12);
        prop_assert!(a.weighted_load(w) >= 0.0);
        if a.cpu_utilization() < b.cpu_utilization() {
            prop_assert!(a.weighted_load(w) <= b.weighted_load(w));
        }
    }

    /// ClusterView stays sorted and consistent under arbitrary add/remove
    /// sequences.
    #[test]
    fn cluster_view_crud_invariants(ops in prop::collection::vec((0u32..32, any::<bool>()), 1..100)) {
        let mut view = ClusterView::new();
        let mut model: std::collections::BTreeSet<u32> = Default::default();
        for (id, add) in ops {
            if add {
                if model.insert(id) {
                    view.add(InvokerView::register(InvokerId(id), 4, 1_024, SimTime::ZERO));
                }
            } else if model.remove(&id) {
                prop_assert!(view.remove(InvokerId(id)).is_some());
            } else {
                prop_assert!(view.remove(InvokerId(id)).is_none());
            }
            let ids: Vec<u32> = view.all().iter().map(|v| v.id.0).collect();
            let expect: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(ids, expect);
        }
    }
}

/// One step of the MWS differential-cache model.
#[derive(Debug, Clone)]
enum MwsOp {
    /// Advance simulated time by the given number of milliseconds (large
    /// values cross the 30 s shrink-damping window).
    Advance(u64),
    /// Record an arrival + completion observation for an app, feeding the
    /// usage estimator of both balancers identically.
    Observe { app: u32, dur_ms: u64, cpu: u8 },
    /// An invoker joins the cluster (ring + view).
    Join(u32),
    /// An invoker leaves the cluster.
    Leave(u32),
    /// Toggle `eviction_pending` — a placeability flip without churn.
    Flip(u32),
    /// Load-only drift through `ClusterView::update`: epochs stay put, so
    /// the cached prefix stays valid and the live capacity-band check has
    /// to track the moving covering boundary.
    LoadDelta { id: u32, tenths: i8 },
    /// Place an invocation of the app through both paths and compare.
    Place(u32),
}

fn mws_op_strategy() -> impl Strategy<Value = MwsOp> {
    prop_oneof![
        1 => (1u64..40_000).prop_map(MwsOp::Advance),
        2 => (0u32..6, 100u64..8_000, 1u8..4)
            .prop_map(|(app, dur_ms, cpu)| MwsOp::Observe { app, dur_ms, cpu }),
        1 => (0u32..12).prop_map(MwsOp::Join),
        1 => (0u32..12).prop_map(MwsOp::Leave),
        1 => (0u32..12).prop_map(MwsOp::Flip),
        3 => (0u32..12, -30i8..30).prop_map(|(id, tenths)| MwsOp::LoadDelta { id, tenths }),
        8 => (0u32..6).prop_map(MwsOp::Place),
    ]
}

proptest! {
    /// Differential test of the covering-set cache: a cached balancer and
    /// an uncached reference consume one interleaved stream of joins,
    /// leaves, placeability flips, load drift, and placements. Every
    /// placement must agree exactly — choice and worker-set size — and
    /// the cache counters must account for every cached placement.
    #[test]
    fn mws_cached_placements_match_uncached_reference(
        ops in prop::collection::vec(mws_op_strategy(), 1..250),
    ) {
        let mut cached = Mws::new(LoadWeights::default(), 1);
        let mut reference = Mws::new(LoadWeights::default(), 1);
        let mut view = ClusterView::new();
        let mut present: std::collections::BTreeSet<u32> = Default::default();
        let mut now = SimTime::ZERO;
        let mut rng = StdRng::seed_from_u64(7);
        let mut places = 0u64;
        // Seed a small cluster so early placements have somewhere to go.
        for id in 0..4u32 {
            present.insert(id);
            cached.on_invoker_join(InvokerId(id));
            reference.on_invoker_join(InvokerId(id));
            view.add(InvokerView::register(InvokerId(id), 8, 16 * 1024, now));
        }
        for op in ops {
            match op {
                MwsOp::Advance(ms) => now += SimDuration::from_millis(ms),
                MwsOp::Observe { app, dur_ms, cpu } => {
                    let d = SimDuration::from_millis(dur_ms);
                    cached.on_arrival(f(app), now);
                    reference.on_arrival(f(app), now);
                    cached.on_completion(f(app), d, f64::from(cpu));
                    reference.on_completion(f(app), d, f64::from(cpu));
                }
                MwsOp::Join(id) => {
                    if present.insert(id) {
                        cached.on_invoker_join(InvokerId(id));
                        reference.on_invoker_join(InvokerId(id));
                        view.add(InvokerView::register(InvokerId(id), 8, 16 * 1024, now));
                    }
                }
                MwsOp::Leave(id) => {
                    if present.remove(&id) {
                        cached.on_invoker_leave(InvokerId(id));
                        reference.on_invoker_leave(InvokerId(id));
                        prop_assert!(view.remove(InvokerId(id)).is_some());
                    }
                }
                MwsOp::Flip(id) => {
                    if present.contains(&id) {
                        view.update(InvokerId(id), |v| {
                            v.eviction_pending = !v.eviction_pending;
                        });
                    }
                }
                MwsOp::LoadDelta { id, tenths } => {
                    if present.contains(&id) {
                        view.update(InvokerId(id), |v| {
                            let cap = f64::from(v.total_cpus);
                            v.cpu_in_use =
                                (v.cpu_in_use + f64::from(tenths) / 10.0).clamp(0.0, cap);
                        });
                    }
                }
                MwsOp::Place(app) => {
                    places += 1;
                    let a = cached.place(now, f(app), 256, &view, &mut rng);
                    let b = reference.place_uncached(now, f(app), 256, &view);
                    prop_assert_eq!(a, b, "placement diverged for app {}", app);
                    prop_assert_eq!(
                        cached.worker_set_size(f(app)),
                        reference.worker_set_size(f(app)),
                        "worker-set size diverged for app {}", app
                    );
                }
            }
        }
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, places);
    }
}

/// Independent model of the ring for the differential test below: one
/// sorted insert per vnode, removal by filtering, walks deduplicated by a
/// linear scan. The vnode hash is restated here on purpose — the golden
/// fingerprints depend on it, so a change to it should fail a test.
#[derive(Default)]
struct ModelRing {
    ring: Vec<(u64, InvokerId)>,
    epoch: u64,
}

impl ModelRing {
    fn contains(&self, id: InvokerId) -> bool {
        self.ring.iter().any(|&(_, m)| m == id)
    }

    fn add(&mut self, id: InvokerId, vnodes: u32) -> bool {
        if self.contains(id) {
            return false;
        }
        self.epoch += 1;
        for r in 0..vnodes {
            let packed = (u64::from(id.0) << 32) | u64::from(r);
            let h = hrv_trace::rng::splitmix64(packed ^ 0xA5A5_5A5A_0F0F_F0F0);
            let pos = self.ring.partition_point(|&(rh, _)| rh < h);
            self.ring.insert(pos, (h, id));
        }
        true
    }

    fn remove(&mut self, id: InvokerId) -> bool {
        if !self.contains(id) {
            return false;
        }
        self.epoch += 1;
        self.ring.retain(|&(_, m)| m != id);
        true
    }

    fn successors(&self, hash: u64) -> Vec<InvokerId> {
        let start = self.ring.partition_point(|&(rh, _)| rh < hash);
        let mut walk = Vec::new();
        for &(_, m) in self.ring[start..].iter().chain(&self.ring[..start]) {
            if !walk.contains(&m) {
                walk.push(m);
            }
        }
        walk
    }
}

proptest! {
    /// Differential test of ring membership changes from the outside:
    /// after every step of a random join/leave interleaving, the return
    /// value, epoch, membership and the full walk from 32 start hashes
    /// match the model. (The `(hash, slot)` vector itself is private; the
    /// unit test `one_pass_membership_matches_reference` in `hashring.rs`
    /// compares it entry for entry.)
    #[test]
    fn ring_membership_changes_match_model(
        vnodes_idx in 0usize..3,
        ops in prop::collection::vec((any::<bool>(), 0u32..20), 1..60),
        starts in prop::collection::vec(any::<u64>(), 30),
    ) {
        let vnodes = [1u32, 3, 64][vnodes_idx];
        let mut ring = HashRing::with_vnodes(vnodes);
        let mut model = ModelRing::default();
        let starts: Vec<u64> = starts.into_iter().chain([0, u64::MAX]).collect();
        for (join, id) in ops {
            let id = InvokerId(id);
            if join {
                prop_assert_eq!(ring.add(id), model.add(id, vnodes));
            } else {
                prop_assert_eq!(ring.remove(id), model.remove(id));
            }
            prop_assert_eq!(ring.epoch(), model.epoch);
            prop_assert_eq!(ring.contains(id), model.contains(id));
            for &h in &starts {
                let walk: Vec<InvokerId> = ring.successors(h).collect();
                prop_assert_eq!(ring.members(), walk.len());
                prop_assert_eq!(walk, model.successors(h));
            }
        }
    }
}

proptest! {
    /// Ownership-map invariants for the partitioned placement path: the
    /// map is a total, deterministic function of the replica count alone
    /// — every function is owned by exactly one replica, two evaluations
    /// agree, and ring membership churn (any number of joins/leaves, any
    /// epoch) never moves ownership.
    #[test]
    fn ownership_is_total_deterministic_and_churn_stable(
        replicas in 1u32..16,
        apps in prop::collection::vec(0u32..50_000, 1..120),
        churn in prop::collection::vec((0u32..64, 0u8..2), 0..40),
    ) {
        let mut ring = HashRing::new();
        for id in 0..8u32 {
            ring.add(InvokerId(id));
        }
        let epoch_before = ring.epoch();
        let owners: Vec<u32> = apps
            .iter()
            .map(|&a| hrv_lb::owner_of(replicas, f(a)))
            .collect();
        for (&app, &owner) in apps.iter().zip(&owners) {
            // Total: exactly one owner, in range.
            prop_assert!(owner < replicas, "app {} owner {}", app, owner);
            // Deterministic: re-evaluation agrees.
            prop_assert_eq!(owner, hrv_lb::owner_of(replicas, f(app)));
            // The owner's arc — and only the owner's arc — contains the
            // function's walk-start hash.
            let covering: Vec<u32> = (0..replicas)
                .filter(|&r| {
                    hrv_lb::owned_arc(replicas, r)
                        .contains(HashRing::function_hash(f(app)))
                })
                .collect();
            prop_assert_eq!(covering, vec![owner]);
        }
        // Churn the ring arbitrarily: ownership never reads membership,
        // so it is stable under join/leave at *every* epoch, bumped or
        // not.
        for (id, join) in churn {
            if join == 1 {
                ring.add(InvokerId(id));
            } else {
                ring.remove(InvokerId(id));
            }
        }
        prop_assert!(ring.epoch() >= epoch_before);
        for (&app, &owner) in apps.iter().zip(&owners) {
            prop_assert_eq!(owner, hrv_lb::owner_of(replicas, f(app)));
        }
    }
}
