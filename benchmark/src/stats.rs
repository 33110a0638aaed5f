//! Order statistics for repeated runs and the run fingerprint.

use hrv_platform::world::SimOutput;
use hrv_trace::stats::percentile_unsorted;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile_unsorted(&mut values.to_vec(), 50.0)
}

/// First and third quartile by the exclusive method — the same rule as
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match the ones the PR driver computes. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Streaming FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over the observable output of a run: every record field, then
/// arrivals, cold starts, warm starts and the event count — the same
/// `records|arrivals|cold|warm|events` tuple `tests/determinism.rs`
/// pins, hashed from the fields' bits instead of their `Debug` text so a
/// 1.5 M-record run costs milliseconds and no allocation.
pub fn fingerprint(out: &SimOutput) -> u64 {
    let mut h = Fnv::default();
    for r in &out.collector.records {
        h.word(r.id);
        h.word(r.arrival.as_micros());
        h.word(r.finished.as_micros());
        h.word(r.latency_secs.to_bits());
        h.word(r.exec_secs.to_bits());
        h.word(u64::from(r.cold) | u64::from(r.exec_started) << 1 | (r.outcome as u64) << 2);
    }
    h.word(out.collector.arrivals);
    h.word(out.cold_starts);
    h.word(out.warm_starts);
    h.word(out.run.events);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 of the 8 zero bytes.
        let mut h = Fnv::default();
        h.word(0);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
        let mut a = Fnv::default();
        a.word(1);
        let mut b = Fnv::default();
        b.word(2);
        assert_ne!(a.finish(), b.finish());
    }
}
