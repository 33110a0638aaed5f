//! Deterministic random-number plumbing.
//!
//! Every stochastic component of the system (trace generators, arrival
//! processes, load-balancer sampling, the simulation engine) draws from a
//! seeded [`StdRng`]. To keep independent components independent — so that
//! adding a draw in one module does not perturb another — seeds are derived
//! from a root seed plus a label using the SplitMix64 finalizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a 64-bit value through the SplitMix64 finalizer.
///
/// This is a bijective avalanche function: any single-bit change in the
/// input flips about half of the output bits, which makes `seed ^ label`
/// collisions between derived streams practically impossible.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiplicative hasher for [`IdMap`] keys: each integer written is
/// added to the state and multiplied by the golden-ratio constant, and
/// `finish` rotates the well-mixed high bits down to where the table
/// takes its bucket index. No protection against crafted collisions —
/// for the simulator's own ids only, never for keys read from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by a simulator-assigned integer id (invocation ids,
/// `FunctionId`s) that skips SipHash. The maps it replaces were
/// `RandomState` while the simulator is byte-deterministic, so nothing
/// depends on their iteration order; keep it that way — point lookups and
/// `retain` only, sort before anything ordered leaves the map.
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// Hashes a label string to a 64-bit stream identifier (FNV-1a).
pub fn label_id(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A factory for independent, reproducible RNG streams.
///
/// # Examples
///
/// ```
/// use hrv_trace::rng::SeedFactory;
///
/// let f = SeedFactory::new(42);
/// let a = f.stream("arrivals");
/// let b = f.stream("arrivals");
/// // The same label always yields the same stream.
/// assert_eq!(f.seed_for("arrivals"), f.seed_for("arrivals"));
/// assert_ne!(f.seed_for("arrivals"), f.seed_for("durations"));
/// drop((a, b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedFactory {
    root: u64,
}

impl SeedFactory {
    /// Creates a factory rooted at `seed`.
    pub const fn new(seed: u64) -> Self {
        SeedFactory { root: seed }
    }

    /// The root seed this factory was created with.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Derives the 64-bit seed for a labelled stream.
    pub fn seed_for(&self, label: &str) -> u64 {
        splitmix64(self.root ^ label_id(label))
    }

    /// Derives the seed for a labelled, indexed stream (e.g. one per VM).
    pub fn seed_for_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed_for(label) ^ splitmix64(index))
    }

    /// Creates an RNG for a labelled stream.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(label))
    }

    /// Creates an RNG for a labelled, indexed stream.
    pub fn stream_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_indexed(label, index))
    }

    /// Derives a child factory, for nesting (e.g. per-experiment → per-run).
    pub fn child(&self, label: &str) -> SeedFactory {
        SeedFactory::new(self.seed_for(label))
    }

    /// Derives a child factory by index (e.g. per-seed replication).
    pub fn child_indexed(&self, label: &str, index: u64) -> SeedFactory {
        SeedFactory::new(self.seed_for_indexed(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Spot-check that distinct inputs give distinct outputs.
        let outs: Vec<u64> = (0..1000).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }

    #[test]
    fn streams_are_reproducible() {
        let f = SeedFactory::new(7);
        let mut a = f.stream("x");
        let mut b = f.stream("x");
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn streams_differ_across_labels_and_indices() {
        let f = SeedFactory::new(7);
        assert_ne!(f.seed_for("x"), f.seed_for("y"));
        assert_ne!(f.seed_for_indexed("x", 0), f.seed_for_indexed("x", 1));
        assert_ne!(f.seed_for("x"), f.seed_for_indexed("x", 0));
    }

    #[test]
    fn child_factories_are_independent() {
        let f = SeedFactory::new(7);
        let c0 = f.child_indexed("run", 0);
        let c1 = f.child_indexed("run", 1);
        assert_ne!(c0.seed_for("arrivals"), c1.seed_for("arrivals"));
    }

    #[test]
    fn id_hasher_spreads_sequential_ids_over_buckets() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // hashbrown takes the bucket from the low bits and its control
        // tag from the top seven: sequential ids must not pile up in
        // either.
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut low = [0u32; 256];
        let mut top = [0u32; 128];
        for id in 0..65_536u64 {
            let h = build.hash_one(id);
            low[(h & 0xFF) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&n| (128..=384).contains(&n)), "{low:?}");
        assert!(top.iter().all(|&n| (256..=768).contains(&n)), "{top:?}");
        // Two-field keys (`FunctionId` hashes as two `u32` writes).
        let mut map: IdMap<(u32, u32), u32> = IdMap::default();
        for app in 0..2_000u32 {
            for func in 0..3u32 {
                map.insert((app, func), app * 3 + func);
            }
        }
        assert_eq!(map.len(), 6_000);
        assert_eq!(map[&(1_999, 2)], 5_999);
    }

    #[test]
    fn label_id_distinguishes_labels() {
        assert_ne!(label_id("abc"), label_id("abd"));
        assert_ne!(label_id(""), label_id("a"));
    }
}
