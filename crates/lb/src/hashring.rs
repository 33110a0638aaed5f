//! Consistent hashing for home-VM assignment (Section 5.2).
//!
//! MWS anchors every function to a *home* invoker and grows the worker set
//! clockwise from there. Consistent hashing keeps home assignments stable
//! when VMs are evicted or deployed: only the functions whose home was the
//! departed VM (or falls to the new VM) are reshuffled, which is what
//! keeps the cold-start rate flat across churn.
//!
//! Ring walks are the placement hot path (one or two per arrival), so the
//! ring stores compact member *slots* instead of invoker ids and walk
//! deduplication uses an epoch-stamped mark table ([`WalkSeen`]) that a
//! caller can reuse across placements — a full walk allocates nothing.
//!
//! Membership changes are one pass over the ring each. A join hashes its
//! `v` vnodes, sorts them and merges them in from the back, so every
//! existing entry moves at most once: O(ring + v log v), against
//! O(v · ring) for `v` sorted inserts (at 1 600 members × 64 vnodes,
//! ≈ 46 µs against ≈ 1 ms). A leave drops the member's vnodes and
//! renumbers the slot that takes its place in a single sweep. The merge
//! lays the ring out exactly as per-vnode `partition_point` + `insert`
//! would: a new vnode lands before every equal-hash entry already on the
//! ring, and equal hashes within one join carry the same slot, so their
//! mutual order (later replica first) is not observable.

use hrv_trace::faas::FunctionId;
use hrv_trace::rng::{label_id, splitmix64};

use crate::view::InvokerId;

/// Number of virtual nodes per invoker. More replicas smooth the key-space
/// share each invoker owns at the cost of a bigger ring.
pub const DEFAULT_VNODES: u32 = 64;

/// Reusable walk-deduplication scratch: one mark per member slot, stamped
/// with the epoch of the walk that last saw it. Starting a new walk bumps
/// the epoch instead of clearing the marks, so `begin` is O(1) and a walk
/// performs zero allocations once the table has grown to the fleet size.
#[derive(Debug, Clone, Default)]
pub struct WalkSeen {
    epoch: u64,
    marks: Vec<u64>,
}

impl WalkSeen {
    /// Creates an empty scratch table.
    pub fn new() -> Self {
        WalkSeen::default()
    }

    fn begin(&mut self, members: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale marks could alias the new epoch.
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        if self.marks.len() < members {
            self.marks.resize(members, 0);
        }
    }

    /// Marks `slot` as seen this walk; returns true if it was new.
    fn insert(&mut self, slot: u32) -> bool {
        let m = &mut self.marks[slot as usize];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }
}

/// A consistent-hash ring over invokers with virtual nodes.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// `(hash, member slot)` pairs sorted by hash. Slots index `members`.
    ring: Vec<(u64, u32)>,
    /// Slot → invoker table; slots are dense and renumbered on removal.
    members: Vec<InvokerId>,
    vnodes: u32,
    /// Bumped on every membership change; walk order is a pure function
    /// of the ring content, so two walks at the same epoch (and the same
    /// start hash) yield the same invoker sequence. Lets callers cache
    /// walk results and invalidate on churn without diffing membership.
    epoch: u64,
}

impl HashRing {
    /// Creates an empty ring with [`DEFAULT_VNODES`] replicas per invoker.
    pub fn new() -> Self {
        HashRing {
            ring: Vec::new(),
            members: Vec::new(),
            vnodes: DEFAULT_VNODES,
            epoch: 0,
        }
    }

    /// Creates an empty ring with a custom replica count.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn with_vnodes(vnodes: u32) -> Self {
        assert!(vnodes >= 1);
        HashRing {
            ring: Vec::new(),
            members: Vec::new(),
            vnodes,
            epoch: 0,
        }
    }

    /// Monotone membership epoch: bumped by every [`HashRing::add`] and
    /// [`HashRing::remove`] that changes membership. Deterministic — it
    /// counts membership events, so same-seeded runs see the same epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn vnode_hash(id: InvokerId, replica: u32) -> u64 {
        let packed = (u64::from(id.0) << 32) | u64::from(replica);
        splitmix64(packed ^ 0xA5A5_5A5A_0F0F_F0F0)
    }

    /// Hashes a function to its ring position.
    pub fn function_hash(f: FunctionId) -> u64 {
        splitmix64(label_id("fn") ^ ((u64::from(f.app.0) << 32) | u64::from(f.func)))
    }

    /// Adds an invoker's virtual nodes in one pass over the ring. Returns
    /// `false` — no change, no epoch bump — if it was already present.
    pub fn add(&mut self, id: InvokerId) -> bool {
        if self.contains(id) {
            return false;
        }
        self.epoch += 1;
        let slot = self.members.len() as u32;
        self.members.push(id);
        let mut hashes: Vec<u64> = (0..self.vnodes).map(|r| Self::vnode_hash(id, r)).collect();
        merge_vnodes(&mut self.ring, &mut hashes, slot);
        true
    }

    /// Removes an invoker's virtual nodes in one pass over the ring.
    /// Returns `true` if it was present.
    pub fn remove(&mut self, id: InvokerId) -> bool {
        let Some(slot) = self.members.iter().position(|&m| m == id) else {
            return false;
        };
        self.epoch += 1;
        let slot = slot as u32;
        let last = (self.members.len() - 1) as u32;
        self.members.swap_remove(slot as usize);
        // The member formerly in the last slot moved into the hole, so
        // its vnodes are renumbered in the sweep that drops the victim's.
        self.ring.retain_mut(|entry| {
            if entry.1 == slot {
                return false;
            }
            if entry.1 == last {
                entry.1 = slot;
            }
            true
        });
        true
    }

    /// True if the invoker has nodes on the ring.
    pub fn contains(&self, id: InvokerId) -> bool {
        self.members.contains(&id)
    }

    /// Number of distinct invokers on the ring.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The home invoker of `function`: the first vnode clockwise from the
    /// function's hash. Returns `None` on an empty ring.
    pub fn home(&self, function: FunctionId) -> Option<InvokerId> {
        self.successors(Self::function_hash(function)).next()
    }

    /// Walks invokers clockwise from `hash`, skipping duplicate invokers,
    /// visiting each member exactly once. Allocates its own dedup scratch;
    /// hot paths should prefer [`HashRing::successors_with`].
    pub fn successors(&self, hash: u64) -> Successors<'_> {
        let mut seen = WalkSeen::new();
        seen.begin(self.members.len());
        Successors {
            ring: &self.ring,
            members: &self.members,
            offset: 0,
            start: self.ring.partition_point(|&(rh, _)| rh < hash),
            seen: SeenStore::Owned(seen),
        }
    }

    /// Like [`HashRing::successors`], but deduplicates through a
    /// caller-owned [`WalkSeen`] so repeated walks allocate nothing.
    pub fn successors_with<'a>(&'a self, hash: u64, seen: &'a mut WalkSeen) -> Successors<'a> {
        seen.begin(self.members.len());
        Successors {
            ring: &self.ring,
            members: &self.members,
            offset: 0,
            start: self.ring.partition_point(|&(rh, _)| rh < hash),
            seen: SeenStore::Borrowed(seen),
        }
    }

    /// Walks invokers clockwise starting at `function`'s home — the MWS
    /// worker-set growth order (`CH(f)`, `next(VM)`, ... in Algorithm 1).
    pub fn walk(&self, function: FunctionId) -> Successors<'_> {
        self.successors(Self::function_hash(function))
    }

    /// Allocation-free variant of [`HashRing::walk`].
    pub fn walk_with<'a>(&'a self, function: FunctionId, seen: &'a mut WalkSeen) -> Successors<'a> {
        self.successors_with(Self::function_hash(function), seen)
    }
}

/// Merges one member's vnode `hashes` into the sorted `ring`, laying it
/// out exactly as inserting each at `partition_point(rh < h)` would.
/// Works from the back: the run of existing entries at or above each new
/// hash is moved to its final place with one `copy_within`, so every
/// entry moves at most once.
fn merge_vnodes(ring: &mut Vec<(u64, u32)>, hashes: &mut [u64], slot: u32) {
    hashes.sort_unstable();
    // `ring[..src]` is the not-yet-placed prefix of the old ring and
    // `ring[dst..]` the finished suffix of the new one.
    let mut src = ring.len();
    ring.resize(src + hashes.len(), (0, slot));
    let mut dst = ring.len();
    for &h in hashes.iter().rev() {
        let keep = ring[..src].partition_point(|&(rh, _)| rh < h);
        let run = src - keep;
        ring.copy_within(keep..src, dst - run);
        dst -= run + 1;
        ring[dst] = (h, slot);
        src = keep;
    }
}

#[derive(Debug)]
enum SeenStore<'a> {
    Owned(WalkSeen),
    Borrowed(&'a mut WalkSeen),
}

impl SeenStore<'_> {
    fn get(&mut self) -> &mut WalkSeen {
        match self {
            SeenStore::Owned(s) => s,
            SeenStore::Borrowed(s) => s,
        }
    }
}

/// Iterator over distinct invokers in clockwise ring order.
///
/// Deduplication uses epoch-stamped slot marks so a full walk is O(ring)
/// rather than O(members²); the *yield order* stays the deterministic ring
/// order.
#[derive(Debug)]
pub struct Successors<'a> {
    ring: &'a [(u64, u32)],
    members: &'a [InvokerId],
    offset: usize,
    start: usize,
    seen: SeenStore<'a>,
}

impl Iterator for Successors<'_> {
    type Item = InvokerId;

    fn next(&mut self) -> Option<InvokerId> {
        while self.offset < self.ring.len() {
            let idx = (self.start + self.offset) % self.ring.len();
            self.offset += 1;
            let (_, slot) = self.ring[idx];
            if self.seen.get().insert(slot) {
                return Some(self.members[slot as usize]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;
    use proptest::prelude::*;

    fn f(app: u32, func: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func,
        }
    }

    fn ring_of(n: u32) -> HashRing {
        let mut ring = HashRing::new();
        for i in 0..n {
            ring.add(InvokerId(i));
        }
        ring
    }

    #[test]
    fn empty_ring_has_no_home() {
        let ring = HashRing::new();
        assert!(ring.home(f(1, 0)).is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn home_is_stable() {
        let ring = ring_of(10);
        let h1 = ring.home(f(42, 1)).unwrap();
        let h2 = ring.home(f(42, 1)).unwrap();
        assert_eq!(h1, h2);
    }

    #[test]
    fn walk_visits_every_member_once() {
        let ring = ring_of(8);
        let order: Vec<InvokerId> = ring.walk(f(7, 0)).collect();
        assert_eq!(order.len(), 8);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert_eq!(order[0], ring.home(f(7, 0)).unwrap());
    }

    #[test]
    fn walk_with_reused_scratch_matches_allocating_walk() {
        let ring = ring_of(12);
        let mut seen = WalkSeen::new();
        for app in 0..200u32 {
            let func = f(app, 0);
            let borrowed: Vec<InvokerId> = ring.walk_with(func, &mut seen).collect();
            let owned: Vec<InvokerId> = ring.walk(func).collect();
            assert_eq!(borrowed, owned);
        }
    }

    #[test]
    fn walk_with_scratch_survives_membership_churn() {
        let mut ring = ring_of(6);
        let mut seen = WalkSeen::new();
        assert_eq!(ring.walk_with(f(3, 0), &mut seen).count(), 6);
        ring.remove(InvokerId(2));
        assert_eq!(ring.walk_with(f(3, 0), &mut seen).count(), 5);
        ring.add(InvokerId(9));
        ring.add(InvokerId(10));
        let order: Vec<InvokerId> = ring.walk_with(f(3, 0), &mut seen).collect();
        assert_eq!(order.len(), 7);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
    }

    #[test]
    fn removal_only_moves_orphaned_functions() {
        let ring10 = ring_of(10);
        let mut ring9 = ring_of(10);
        ring9.remove(InvokerId(4));

        let mut moved = 0;
        let mut total = 0;
        for app in 0..2_000u32 {
            let func = f(app, 0);
            let before = ring10.home(func).unwrap();
            let after = ring9.home(func).unwrap();
            total += 1;
            if before != after {
                moved += 1;
                // Every function that moved must have had the removed
                // invoker as its home — the consistent-hashing guarantee.
                assert_eq!(before, InvokerId(4));
            }
        }
        // Expect ~1/10 of functions to move.
        let frac = f64::from(moved) / f64::from(total);
        assert!((0.04..=0.18).contains(&frac), "moved {frac}");
    }

    #[test]
    fn addition_steals_only_for_new_member() {
        let ring10 = ring_of(10);
        let mut ring11 = ring_of(10);
        ring11.add(InvokerId(10));
        for app in 0..2_000u32 {
            let func = f(app, 0);
            let before = ring10.home(func).unwrap();
            let after = ring11.home(func).unwrap();
            if before != after {
                assert_eq!(after, InvokerId(10));
            }
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = ring_of(10);
        let mut counts = [0u32; 10];
        for app in 0..20_000u32 {
            let home = ring.home(f(app, 0)).unwrap();
            counts[home.0 as usize] += 1;
        }
        let expected = 2_000.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.5, "invoker {i} owns {c} functions");
        }
    }

    #[test]
    fn members_counts_distinct_invokers() {
        let mut ring = ring_of(3);
        assert_eq!(ring.members(), 3);
        ring.remove(InvokerId(1));
        assert_eq!(ring.members(), 2);
        assert!(!ring.contains(InvokerId(1)));
    }

    #[test]
    fn slot_renumbering_keeps_ring_consistent() {
        // Removing a middle member swaps the last slot into the hole; every
        // remaining vnode must still resolve to its original invoker.
        let mut ring = ring_of(5);
        ring.remove(InvokerId(1));
        let order: Vec<InvokerId> = ring.walk(f(0, 0)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![InvokerId(0), InvokerId(2), InvokerId(3), InvokerId(4)]
        );
        // Homes of surviving members' functions match a ring built fresh.
        let fresh = {
            let mut r = HashRing::new();
            for i in [0u32, 2, 3, 4] {
                r.add(InvokerId(i));
            }
            r
        };
        for app in 0..500u32 {
            assert_eq!(ring.home(f(app, 0)), fresh.home(f(app, 0)));
        }
    }

    #[test]
    fn epoch_counts_membership_changes() {
        let mut ring = HashRing::new();
        assert_eq!(ring.epoch(), 0);
        ring.add(InvokerId(0));
        ring.add(InvokerId(1));
        assert_eq!(ring.epoch(), 2);
        // Removing an absent member is not a membership change.
        assert!(!ring.remove(InvokerId(9)));
        assert_eq!(ring.epoch(), 2);
        assert!(ring.remove(InvokerId(0)));
        assert_eq!(ring.epoch(), 3);
        // Rejoin bumps again: walk order may differ from the original
        // ring even though the member set matches.
        ring.add(InvokerId(0));
        assert_eq!(ring.epoch(), 4);
    }

    #[test]
    fn double_add_is_a_noop_and_keeps_epoch() {
        let mut ring = ring_of(2);
        let before = ring.clone();
        assert!(!ring.add(InvokerId(0)));
        assert_eq!(ring.ring, before.ring);
        assert_eq!(ring.members, before.members);
        assert_eq!(ring.epoch(), before.epoch());
        assert!(ring.add(InvokerId(2)));
        assert_eq!(ring.epoch(), before.epoch() + 1);
    }

    /// The per-vnode sorted insert `merge_vnodes` replaced — the layout
    /// (and tie order) the merge must reproduce entry for entry.
    fn insert_vnodes(ring: &mut Vec<(u64, u32)>, hashes: &[u64], slot: u32) {
        for &h in hashes {
            let pos = ring.partition_point(|&(rh, _)| rh < h);
            ring.insert(pos, (h, slot));
        }
    }

    fn reference_add(ring: &mut HashRing, id: InvokerId) -> bool {
        if ring.contains(id) {
            return false;
        }
        ring.epoch += 1;
        let slot = ring.members.len() as u32;
        ring.members.push(id);
        let hashes: Vec<u64> = (0..ring.vnodes)
            .map(|r| HashRing::vnode_hash(id, r))
            .collect();
        insert_vnodes(&mut ring.ring, &hashes, slot);
        true
    }

    /// The two-pass removal (`retain`, then renumber) `remove` fused.
    fn reference_remove(ring: &mut HashRing, id: InvokerId) -> bool {
        let Some(slot) = ring.members.iter().position(|&m| m == id) else {
            return false;
        };
        ring.epoch += 1;
        let slot = slot as u32;
        let last = (ring.members.len() - 1) as u32;
        ring.ring.retain(|&(_, s)| s != slot);
        ring.members.swap_remove(slot as usize);
        for entry in &mut ring.ring {
            if entry.1 == last {
                entry.1 = slot;
            }
        }
        true
    }

    #[test]
    fn merge_places_new_vnodes_before_equal_hashes() {
        // splitmix64 never collides in practice, so ties are crafted:
        // against old entries at index 0, mid-ring and at the end of the
        // ring, twice within the join itself (replicas 0 and 3 share hash
        // 10, replicas 1 and 5 share `u64::MAX`), plus hashes below and
        // between everything already present.
        let old = vec![(10, 0), (10, 1), (20, 0), (30, 1), (u64::MAX, 0)];
        let incoming = [10, u64::MAX, 30, 10, 0, u64::MAX, 25];
        let mut expected = old.clone();
        insert_vnodes(&mut expected, &incoming, 2);
        let mut merged = old;
        merge_vnodes(&mut merged, &mut incoming.clone(), 2);
        assert_eq!(merged, expected);
        assert_eq!(
            merged,
            vec![
                (0, 2),
                (10, 2),
                (10, 2),
                (10, 0),
                (10, 1),
                (20, 0),
                (25, 2),
                (30, 2),
                (30, 1),
                (u64::MAX, 2),
                (u64::MAX, 2),
                (u64::MAX, 0),
            ]
        );
        // Into an empty ring, and nothing into a ring.
        let mut empty = Vec::new();
        merge_vnodes(&mut empty, &mut [7, 3, 7], 0);
        assert_eq!(empty, vec![(3, 0), (7, 0), (7, 0)]);
        merge_vnodes(&mut empty, &mut [], 1);
        assert_eq!(empty.len(), 3);
    }

    proptest! {
        /// Differential test of the one-pass membership changes: after
        /// every step of a random join/leave interleaving the ring is
        /// field-for-field what the per-vnode insert and two-pass removal
        /// produce, so walks, cache epochs and fingerprints cannot move.
        #[test]
        fn one_pass_membership_matches_reference(
            vnodes_idx in 0usize..3,
            ops in prop::collection::vec((any::<bool>(), 0u32..24), 1..80),
        ) {
            let vnodes = [1u32, 3, 64][vnodes_idx];
            let mut ring = HashRing::with_vnodes(vnodes);
            let mut reference = HashRing::with_vnodes(vnodes);
            for (join, id) in ops {
                let id = InvokerId(id);
                if join {
                    prop_assert_eq!(ring.add(id), reference_add(&mut reference, id));
                } else {
                    prop_assert_eq!(ring.remove(id), reference_remove(&mut reference, id));
                }
                prop_assert_eq!(&ring.ring, &reference.ring);
                prop_assert_eq!(&ring.members, &reference.members);
                prop_assert_eq!(ring.epoch, reference.epoch);
            }
        }
    }

    #[test]
    fn single_vnode_ring_works() {
        let mut ring = HashRing::with_vnodes(1);
        ring.add(InvokerId(0));
        ring.add(InvokerId(1));
        assert!(ring.home(f(0, 0)).is_some());
        assert_eq!(ring.walk(f(0, 0)).count(), 2);
    }
}
