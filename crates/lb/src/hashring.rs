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
//! Membership changes are one pass over the ring each. A join — of one
//! member or of a whole burst ([`HashRing::extend`]) — hashes the `v`
//! vnodes of every new member, sorts them once and merges them in from
//! the back, so every existing entry moves at most once: O(ring + b·v
//! log b·v) for `b` joiners, against O(b · ring) for `b` separate joins
//! (a 1 600-invoker fleet start is one sort of 102 400 pairs instead of
//! 1 600 memmoves of a growing vector; a lone join at 1 600 members stays
//! ≈ 46 µs). A leave drops the member's vnodes and renumbers the slot
//! that takes its place in a single sweep. The merge lays the ring out
//! exactly as per-vnode `partition_point` + `insert`, one member after
//! the other in argument order, would: a new vnode lands before every
//! equal-hash entry already on the ring, a later joiner's before an
//! earlier joiner's of the same burst (the batch is sorted by hash, then
//! by slot descending), and equal hashes within one member carry the same
//! slot, so their mutual order is not observable.

use std::cmp::Reverse;

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
        self.extend([id]) == 1
    }

    /// Adds a burst of invokers with one sort and one merge pass over the
    /// ring, leaving `ring`, `members` and `epoch` exactly as calling
    /// [`HashRing::add`] on each id in argument order would: ids already
    /// on the ring (or repeated in the burst) are skipped, every new
    /// member takes the next slot and bumps the epoch once. Returns how
    /// many joined.
    pub fn extend(&mut self, ids: impl IntoIterator<Item = InvokerId>) -> usize {
        let fresh = self.not_yet_members(ids);
        self.epoch += fresh.len() as u64;
        let mut incoming = Vec::with_capacity(fresh.len() * self.vnodes as usize);
        for &id in &fresh {
            let slot = self.members.len() as u32;
            self.members.push(id);
            incoming.extend((0..self.vnodes).map(|r| (Self::vnode_hash(id, r), slot)));
        }
        merge_batch(&mut self.ring, &mut incoming);
        fresh.len()
    }

    /// The ids of `ids` that are not members, first occurrences only, in
    /// argument order. Sorts the burst and probes it once per member —
    /// O((b + members) log b), where a `contains` per id is O(b · members).
    fn not_yet_members(&self, ids: impl IntoIterator<Item = InvokerId>) -> Vec<InvokerId> {
        const MEMBER: usize = usize::MAX;
        let mut burst: Vec<(InvokerId, usize)> = ids.into_iter().zip(0..).collect();
        // By id, then argument position: `dedup` keeps the first of a run.
        burst.sort_unstable();
        burst.dedup_by_key(|&mut (id, _)| id);
        for m in &self.members {
            if let Ok(i) = burst.binary_search_by_key(m, |&(id, _)| id) {
                burst[i].1 = MEMBER;
            }
        }
        burst.retain(|&(_, pos)| pos != MEMBER);
        burst.sort_unstable_by_key(|&(_, pos)| pos);
        burst.into_iter().map(|(id, _)| id).collect()
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

/// Merges the `(hash, slot)` vnodes of a burst of joiners into the sorted
/// `ring`, laying it out exactly as inserting each at
/// `partition_point(rh < h)`, member by member in slot order, would.
/// Works from the back: the run of existing entries at or above each new
/// hash is moved to its final place with one `copy_within`, so every
/// entry moves at most once.
fn merge_batch(ring: &mut Vec<(u64, u32)>, incoming: &mut [(u64, u32)]) {
    // Among equal hashes the later joiner (higher slot) goes first.
    incoming.sort_unstable_by_key(|&(h, slot)| (h, Reverse(slot)));
    // `ring[..src]` is the not-yet-placed prefix of the old ring and
    // `ring[dst..]` the finished suffix of the new one.
    let mut src = ring.len();
    ring.resize(src + incoming.len(), (0, 0));
    let mut dst = ring.len();
    for &(h, slot) in incoming.iter().rev() {
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

    /// The per-vnode sorted insert the merge replaced — the layout (and
    /// tie order) it must reproduce entry for entry.
    fn insert_vnodes(ring: &mut Vec<(u64, u32)>, hashes: &[u64], slot: u32) {
        for &h in hashes {
            let pos = ring.partition_point(|&(rh, _)| rh < h);
            ring.insert(pos, (h, slot));
        }
    }

    /// The one-member-at-a-time join `extend` replaced.
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
        // splitmix64 never collides in practice, so ties are crafted, for
        // two joiners (slots 2 and 3) of one burst: against old entries at
        // index 0, mid-ring and at the end of the ring, within one joiner
        // (slot 2 holds hash 10 and `u64::MAX` twice each), between the
        // two joiners (10, 25, `u64::MAX`), plus hashes below and between
        // everything already present.
        let old = vec![(10, 0), (10, 1), (20, 0), (30, 1), (u64::MAX, 0)];
        let first = [10, u64::MAX, 30, 10, 0, u64::MAX, 25];
        let second = [25, u64::MAX, 10, 5];
        let mut expected = old.clone();
        insert_vnodes(&mut expected, &first, 2);
        insert_vnodes(&mut expected, &second, 3);
        let mut merged = old;
        let mut incoming: Vec<(u64, u32)> = first
            .iter()
            .map(|&h| (h, 2))
            .chain(second.iter().map(|&h| (h, 3)))
            .collect();
        merge_batch(&mut merged, &mut incoming);
        assert_eq!(merged, expected);
        assert_eq!(
            merged,
            vec![
                (0, 2),
                (5, 3),
                (10, 3),
                (10, 2),
                (10, 2),
                (10, 0),
                (10, 1),
                (20, 0),
                (25, 3),
                (25, 2),
                (30, 2),
                (30, 1),
                (u64::MAX, 3),
                (u64::MAX, 2),
                (u64::MAX, 2),
                (u64::MAX, 0),
            ]
        );
        // Into an empty ring, and nothing into a ring.
        let mut empty = Vec::new();
        merge_batch(&mut empty, &mut [(7, 0), (3, 1), (7, 1), (3, 0)]);
        assert_eq!(empty, vec![(3, 1), (3, 0), (7, 1), (7, 0)]);
        merge_batch(&mut empty, &mut []);
        assert_eq!(empty.len(), 4);
    }

    #[test]
    fn extend_skips_members_and_repeats_in_argument_order() {
        let mut ring = ring_of(3);
        let before = ring.clone();
        assert_eq!(ring.extend([]), 0);
        assert_eq!(ring.extend([InvokerId(1), InvokerId(1), InvokerId(0)]), 0);
        assert_eq!(ring.ring, before.ring);
        assert_eq!(ring.epoch(), before.epoch());
        let burst = [9, 1, 4, 9, 7, 4, 2].map(InvokerId);
        assert_eq!(ring.extend(burst), 3);
        assert_eq!(ring.members, [0, 1, 2, 9, 4, 7].map(InvokerId));
        assert_eq!(ring.epoch(), before.epoch() + 3);
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

        /// A burst through `extend` is the same ring as its ids joined
        /// one at a time: bursts of 0–12 ids (members, repeats and
        /// newcomers mixed) interleaved with leaves, compared field for
        /// field after every step.
        #[test]
        fn extend_matches_sequential_adds(
            vnodes_idx in 0usize..3,
            steps in prop::collection::vec(
                (prop::collection::vec(0u32..24, 0..12), any::<bool>(), 0u32..24),
                1..24,
            ),
        ) {
            let vnodes = [1u32, 3, 64][vnodes_idx];
            let mut ring = HashRing::with_vnodes(vnodes);
            let mut reference = HashRing::with_vnodes(vnodes);
            for (burst, leave, leaver) in steps {
                let joined = ring.extend(burst.iter().map(|&i| InvokerId(i)));
                let expected = burst
                    .iter()
                    .filter(|&&i| reference_add(&mut reference, InvokerId(i)))
                    .count();
                prop_assert_eq!(joined, expected);
                if leave {
                    let id = InvokerId(leaver);
                    prop_assert_eq!(ring.remove(id), reference_remove(&mut reference, id));
                }
                prop_assert_eq!(&ring.ring, &reference.ring);
                prop_assert_eq!(&ring.members, &reference.members);
                prop_assert_eq!(ring.epoch, reference.epoch);
            }
        }

        /// The burst merge against per-vnode inserts on rings where
        /// hashes collide constantly (eight distinct values): ties inside
        /// a joiner, between joiners and against entries already present.
        #[test]
        fn merge_batch_matches_per_vnode_inserts_under_ties(
            old in prop::collection::vec(0u64..8, 0..20),
            joiners in prop::collection::vec(prop::collection::vec(0u64..8, 0..6), 0..5),
        ) {
            let mut ring: Vec<(u64, u32)> = Vec::new();
            insert_vnodes(&mut ring, &old, 0);
            let mut expected = ring.clone();
            let mut incoming = Vec::new();
            for (hashes, slot) in joiners.iter().zip(1u32..) {
                insert_vnodes(&mut expected, hashes, slot);
                incoming.extend(hashes.iter().map(|&h| (h, slot)));
            }
            merge_batch(&mut ring, &mut incoming);
            prop_assert_eq!(ring, expected);
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
