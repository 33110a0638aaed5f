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
//! An entry is one `u32`, `slot << b | vnode` with `b = ⌈log2 v⌉` bits
//! for `v` vnodes per member (6 at the default 64), so a member slot must
//! stay below `2^(32 − b)`. The hash is not stored: every probe of a
//! binary search recomputes it from the member's id and the vnode index,
//! and a walk reads only the slot. A paper-scale ring of 102 400 vnodes
//! is then 400 KB instead of 1.6 MB of `(u64, u32)` pairs, for one
//! `splitmix64` per probe.
//!
//! Membership changes are one pass over the ring each. A join — of one
//! member or of a whole burst ([`HashRing::extend`]) — hashes the `v`
//! vnodes of every new member, sorts them once and merges them in from
//! the back, so every existing entry moves at most once: O(ring + b·v
//! log b·v) for `b` joiners, against O(b · ring) for `b` separate joins
//! (a 1 600-invoker fleet start is one sort of 102 400 pairs instead of
//! 1 600 memmoves of a growing vector; a lone join at 1 600 members takes
//! ≈ 28 µs). A leave drops the member's vnodes and renumbers the slot
//! that takes its place in a single sweep. The merge lays the ring out
//! exactly as per-vnode `partition_point` + `insert`, one member after
//! the other in argument order, would: a new vnode lands before every
//! equal-hash entry already on the ring, a later joiner's before an
//! earlier joiner's of the same burst (the batch is sorted by hash, then
//! by entry descending: slot, then vnode), and within one member the later
//! vnode first, an order no walk can observe since walks read only slots.

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
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Vnode entries `slot << shift | vnode`, sorted by their hash
    /// ([`Entries::hash`]). Slots index `members`.
    ring: Vec<u32>,
    /// Slot → invoker table; slots are dense and renumbered on removal.
    members: Vec<InvokerId>,
    vnodes: u32,
    /// Entry bits holding the vnode index: `⌈log2 vnodes⌉`.
    shift: u32,
    /// Bumped on every membership change; walk order is a pure function
    /// of the ring content, so two walks at the same epoch (and the same
    /// start hash) yield the same invoker sequence. Lets callers cache
    /// walk results and invalidate on churn without diffing membership.
    epoch: u64,
}

impl Default for HashRing {
    fn default() -> Self {
        HashRing::new()
    }
}

impl HashRing {
    /// Creates an empty ring with [`DEFAULT_VNODES`] replicas per invoker.
    pub fn new() -> Self {
        HashRing::with_vnodes(DEFAULT_VNODES)
    }

    /// Creates an empty ring with a custom replica count. The ring then
    /// holds at most `2^(32 − ⌈log2 vnodes⌉)` members.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero or above `2^31`.
    pub fn with_vnodes(vnodes: u32) -> Self {
        assert!(
            (1..=1 << 31).contains(&vnodes),
            "vnodes must be in 1..=2^31, got {vnodes}"
        );
        HashRing {
            ring: Vec::new(),
            members: Vec::new(),
            vnodes,
            shift: u32::BITS - (vnodes - 1).leading_zeros(),
            epoch: 0,
        }
    }

    /// The entry decoder over the current member table.
    fn entries(&self) -> Entries<'_> {
        Entries {
            members: &self.members,
            shift: self.shift,
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
    ///
    /// # Panics
    ///
    /// Panics if the members would not fit the entry's slot bits: at most
    /// `2^(32 − ⌈log2 vnodes⌉)` (67 108 864 at 64 vnodes).
    pub fn extend(&mut self, ids: impl IntoIterator<Item = InvokerId>) -> usize {
        let fresh = self.not_yet_members(ids);
        let capacity = 1u64 << (u32::BITS - self.shift);
        assert!(
            (self.members.len() + fresh.len()) as u64 <= capacity,
            "a ring of {} vnodes per member holds at most {capacity} members",
            self.vnodes
        );
        self.epoch += fresh.len() as u64;
        let mut incoming = Vec::with_capacity(fresh.len() * self.vnodes as usize);
        for &id in &fresh {
            let slot = self.members.len() as u32;
            self.members.push(id);
            let base = slot << self.shift;
            incoming.extend((0..self.vnodes).map(|r| (Self::vnode_hash(id, r), base | r)));
        }
        let entries = Entries {
            members: &self.members,
            shift: self.shift,
        };
        merge_batch(&mut self.ring, &mut incoming, |e| entries.hash(e));
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
        // A vnode keeps its index, so its hash — now read through the
        // hole's member entry — does not change.
        let shift = self.shift;
        let vnode_mask = (1u32 << shift) - 1;
        self.ring.retain_mut(|entry| {
            let s = *entry >> shift;
            if s == slot {
                return false;
            }
            if s == last {
                *entry = slot << shift | (*entry & vnode_mask);
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
            entries: self.entries(),
            offset: 0,
            start: self.start(hash),
            seen: SeenStore::Owned(seen),
        }
    }

    /// Like [`HashRing::successors`], but deduplicates through a
    /// caller-owned [`WalkSeen`] so repeated walks allocate nothing.
    pub fn successors_with<'a>(&'a self, hash: u64, seen: &'a mut WalkSeen) -> Successors<'a> {
        seen.begin(self.members.len());
        Successors {
            ring: &self.ring,
            entries: self.entries(),
            offset: 0,
            start: self.start(hash),
            seen: SeenStore::Borrowed(seen),
        }
    }

    /// Index of the first entry whose hash is not below `hash`.
    fn start(&self, hash: u64) -> usize {
        let entries = self.entries();
        self.ring.partition_point(|&e| entries.hash(e) < hash)
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

/// Decodes ring entries against one member table.
#[derive(Debug, Clone, Copy)]
struct Entries<'a> {
    members: &'a [InvokerId],
    shift: u32,
}

impl Entries<'_> {
    fn slot(self, entry: u32) -> u32 {
        entry >> self.shift
    }

    /// The entry's ring position, recomputed rather than stored.
    fn hash(self, entry: u32) -> u64 {
        let vnode = entry & ((1u32 << self.shift) - 1);
        HashRing::vnode_hash(self.members[self.slot(entry) as usize], vnode)
    }
}

/// Merges the `(hash, entry)` vnodes of a burst of joiners into `ring`,
/// whose entries are sorted by `hash`, laying it out exactly as inserting
/// each at `partition_point(rh < h)`, member by member in slot order and
/// vnode by vnode, would. Works from the back: the run of existing
/// entries at or above each new hash is moved to its final place with
/// one `copy_within`, so every entry moves at most once, and only the
/// binary searches' probes hash.
fn merge_batch(ring: &mut Vec<u32>, incoming: &mut [(u64, u32)], hash: impl Fn(u32) -> u64) {
    // Among equal hashes the later joiner (higher slot) goes first, and
    // within one joiner the later vnode, as successive inserts leave them.
    incoming.sort_unstable_by_key(|&(h, entry)| (h, Reverse(entry)));
    // `ring[..src]` is the not-yet-placed prefix of the old ring and
    // `ring[dst..]` the finished suffix of the new one.
    let mut src = ring.len();
    ring.resize(src + incoming.len(), 0);
    let mut dst = ring.len();
    for &(h, entry) in incoming.iter().rev() {
        let keep = ring[..src].partition_point(|&e| hash(e) < h);
        let run = src - keep;
        ring.copy_within(keep..src, dst - run);
        dst -= run + 1;
        ring[dst] = entry;
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
    ring: &'a [u32],
    entries: Entries<'a>,
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
            let slot = self.entries.slot(self.ring[idx]);
            if self.seen.get().insert(slot) {
                return Some(self.entries.members[slot as usize]);
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
    use std::collections::HashMap;

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

    impl HashRing {
        /// The ring as `(hash, slot)` pairs, the layout the reference
        /// stores.
        fn expanded(&self) -> Vec<(u64, u32)> {
            let entries = self.entries();
            self.ring
                .iter()
                .map(|&e| (entries.hash(e), entries.slot(e)))
                .collect()
        }
    }

    /// The ring as it was before entries were packed: stored
    /// `(hash, slot)` pairs, joined by per-vnode sorted inserts and left
    /// by a two-pass removal. The executable specification of the
    /// packed ring's layout.
    struct RefRing {
        ring: Vec<(u64, u32)>,
        members: Vec<InvokerId>,
        vnodes: u32,
        epoch: u64,
    }

    impl RefRing {
        fn with_vnodes(vnodes: u32) -> Self {
            RefRing {
                ring: Vec::new(),
                members: Vec::new(),
                vnodes,
                epoch: 0,
            }
        }

        /// The one-member-at-a-time join `extend` replaced.
        fn add(&mut self, id: InvokerId) -> bool {
            if self.members.contains(&id) {
                return false;
            }
            self.epoch += 1;
            let slot = self.members.len() as u32;
            self.members.push(id);
            let hashes: Vec<u64> = (0..self.vnodes)
                .map(|r| HashRing::vnode_hash(id, r))
                .collect();
            insert_vnodes(&mut self.ring, &hashes, slot);
            true
        }

        /// The two-pass removal (`retain`, then renumber) `remove` fused.
        fn remove(&mut self, id: InvokerId) -> bool {
            let Some(slot) = self.members.iter().position(|&m| m == id) else {
                return false;
            };
            self.epoch += 1;
            let slot = slot as u32;
            let last = (self.members.len() - 1) as u32;
            self.ring.retain(|&(_, s)| s != slot);
            self.members.swap_remove(slot as usize);
            for entry in &mut self.ring {
                if entry.1 == last {
                    entry.1 = slot;
                }
            }
            true
        }
    }

    /// The per-vnode sorted insert the merge replaced — the layout (and
    /// tie order) it must reproduce entry for entry.
    fn insert_vnodes(ring: &mut Vec<(u64, u32)>, hashes: &[u64], slot: u32) {
        for &h in hashes {
            let pos = ring.partition_point(|&(rh, _)| rh < h);
            ring.insert(pos, (h, slot));
        }
    }

    /// Crafted vnodes for `merge_batch`: the entry of `(hash, slot)`
    /// takes the slot's next free vnode index (below 32), and `hashes`
    /// records its hash, which `merge_batch` reads back when it probes.
    fn pack(pairs: &[(u64, u32)], hashes: &mut HashMap<u32, u64>) -> Vec<(u64, u32)> {
        pairs
            .iter()
            .map(|&(h, slot)| {
                let vnode = hashes.keys().filter(|&&e| e >> 5 == slot).count() as u32;
                assert!(vnode < 32);
                let entry = slot << 5 | vnode;
                hashes.insert(entry, h);
                (h, entry)
            })
            .collect()
    }

    /// Merges crafted `(hash, slot)` joiners into a crafted ring and
    /// expands the result back to `(hash, slot)` pairs.
    fn merge_pairs(old: &[(u64, u32)], joiners: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut hashes = HashMap::new();
        let mut ring: Vec<u32> = pack(old, &mut hashes).iter().map(|&(_, e)| e).collect();
        let mut incoming = pack(joiners, &mut hashes);
        merge_batch(&mut ring, &mut incoming, |e| hashes[&e]);
        ring.iter().map(|e| (hashes[e], e >> 5)).collect()
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
        let incoming: Vec<(u64, u32)> = first
            .iter()
            .map(|&h| (h, 2))
            .chain(second.iter().map(|&h| (h, 3)))
            .collect();
        let merged = merge_pairs(&old, &incoming);
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
        let filled = merge_pairs(&[], &[(7, 0), (3, 1), (7, 1), (3, 0)]);
        assert_eq!(filled, vec![(3, 1), (3, 0), (7, 1), (7, 0)]);
        assert_eq!(merge_pairs(&filled, &[]), filled);
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
            let mut reference = RefRing::with_vnodes(vnodes);
            for (join, id) in ops {
                let id = InvokerId(id);
                if join {
                    prop_assert_eq!(ring.add(id), reference.add(id));
                } else {
                    prop_assert_eq!(ring.remove(id), reference.remove(id));
                }
                prop_assert_eq!(&ring.expanded(), &reference.ring);
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
            let mut reference = RefRing::with_vnodes(vnodes);
            for (burst, leave, leaver) in steps {
                let joined = ring.extend(burst.iter().map(|&i| InvokerId(i)));
                let expected = burst
                    .iter()
                    .filter(|&&i| reference.add(InvokerId(i)))
                    .count();
                prop_assert_eq!(joined, expected);
                if leave {
                    let id = InvokerId(leaver);
                    prop_assert_eq!(ring.remove(id), reference.remove(id));
                }
                prop_assert_eq!(&ring.expanded(), &reference.ring);
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
            prop_assert_eq!(merge_pairs(&ring, &incoming), expected);
        }
    }

    #[test]
    fn entries_pack_slot_over_vnode_bits() {
        for (vnodes, shift) in [(1, 0), (2, 1), (3, 2), (64, 6), (65, 7), (1 << 31, 31)] {
            assert_eq!(
                HashRing::with_vnodes(vnodes).shift,
                shift,
                "{vnodes} vnodes"
            );
        }
        for vnodes in [1u32, 3, 64] {
            let mut ring = HashRing::with_vnodes(vnodes);
            ring.extend((0..9).map(InvokerId));
            ring.remove(InvokerId(2));
            assert_eq!(ring.ring.len(), 8 * vnodes as usize);
            let pairs = ring.expanded();
            assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted");
            // Every member's vnodes are all there, each exactly once.
            let mut entries = ring.ring.clone();
            entries.sort_unstable();
            let expected: Vec<u32> = (0..8)
                .flat_map(|slot| (0..vnodes).map(move |r| slot << ring.shift | r))
                .collect();
            assert_eq!(entries, expected, "{vnodes} vnodes");
            assert_eq!(ring.walk(f(5, 0)).count(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "holds at most 2 members")]
    fn members_beyond_the_slot_bits_panic() {
        // 2^31 vnodes leave one slot bit; the check fires before any
        // vnode is hashed or allocated.
        let mut ring = HashRing::with_vnodes(1 << 31);
        ring.extend((0..3).map(InvokerId));
    }

    #[test]
    #[should_panic(expected = "vnodes must be in 1..=2^31")]
    fn zero_vnodes_panic() {
        HashRing::with_vnodes(0);
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
