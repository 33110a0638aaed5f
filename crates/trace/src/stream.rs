//! Streaming arrival generation: the lazy, constant-memory counterpart of
//! [`Workload::invocations`].
//!
//! The paper's `F_large` trace carries 910 M invocations in a day
//! (Table 1); materializing that as a sorted `Vec<Invocation>` costs tens
//! of gigabytes. [`WorkloadStream`] produces the *byte-identical* sequence
//! — same arrivals, same functions, same durations, same id assignment —
//! in O(apps) memory and O(log apps) time per invocation, by running one
//! lazy source per application and k-way-merging them through a binary
//! heap keyed on `(arrival, function)`.
//!
//! # Why the sequences match
//!
//! The materialized path draws, per app, from a single RNG stream in this
//! order: first *every* session gap (via [`PoissonProcess::times`],
//! including the final gap that crosses the horizon), then the per-session
//! body draws (burst size, intra-burst gaps, function indices, durations).
//! A naive lazy generator would interleave gap and body draws and produce
//! a different trace. Instead each `AppSource` clones the per-app RNG
//! twice at construction:
//!
//! * `session_rng` replays the session-gap draws lazily, one gap per
//!   session, reproducing [`PoissonProcess::times`] draw for draw;
//! * `body_rng` is fast-forwarded through all session gaps once up front
//!   (O(1) memory, no allocation) so it sits exactly where the
//!   materialized body draws begin, then consumes body draws session by
//!   session via the shared `emit_session` helper.
//!
//! Bursts overhang: a session's intra-burst extras can arrive after the
//! *next* session starts, so each source holds generated-but-unreleased
//! invocations in a small per-app min-heap and only releases the minimum
//! once it is strictly earlier than the next unexpanded session. Ordering
//! ties: the materialized sort key is `(arrival, FunctionId)`, ties broken
//! by generation order. Equal keys across apps are impossible
//! (`FunctionId` embeds the app id), and within an app the per-source
//! sequence number preserves generation order, so the merge reproduces
//! the sort bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use rand::rngs::StdRng;

use crate::arrival::PoissonProcess;
use crate::faas::{emit_session, FunctionId, Invocation, Workload};
use crate::rng::SeedFactory;
use crate::time::{SimDuration, SimTime};

/// A source of invocations in nondecreasing arrival order.
///
/// The platform pulls one invocation at a time; implementations may
/// generate lazily ([`WorkloadStream`]) or adapt a materialized trace
/// ([`SortedTraceStream`]). `Send` is a supertrait so worlds holding a
/// stream can move onto the sharded simulation's worker threads.
pub trait ArrivalStream: Send {
    /// The next invocation, or `None` when the stream is exhausted.
    ///
    /// Successive invocations must have nondecreasing `arrival` times.
    fn next_invocation(&mut self) -> Option<Invocation>;
}

impl<S: ArrivalStream + ?Sized> ArrivalStream for Box<S> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        (**self).next_invocation()
    }
}

/// Arrivals handed over between two releases of the trace's spent
/// capacity: 16 384 × 48 B = 768 KiB, twelve release granules.
const RELEASE_STEP: usize = 16_384;

/// Alignment and size unit of a release: 64 KiB, a whole number of pages
/// on 4, 16 and 64 KiB page systems alike.
const RELEASE_GRANULE: usize = 64 * 1024;

/// Adapts a materialized, arrival-sorted trace to [`ArrivalStream`].
///
/// The stream owns the trace and returns the memory of what it has
/// handed over to the OS as it goes, whichever allocator path the trace
/// came from: the trace is held latest-first and each arrival is popped
/// off the back. Each time the arrivals left reach a multiple of 16 384,
/// the whole 64 KiB granules of spare capacity behind them are discarded
/// in place (`madvise(MADV_DONTNEED)` on Linux; other targets shrink the
/// vector). The last pop releases every whole granule still held, then
/// drops the allocation, so a freed trace leaves the allocator none of its
/// pages resident beyond the partial granules at its two ends.
#[derive(Debug)]
pub struct SortedTraceStream {
    /// The arrivals not yet handed over, latest first.
    remaining: Vec<Invocation>,
    /// Address where the lowest range already discarded begins (the end
    /// of the allocation before the first release).
    #[cfg(target_os = "linux")]
    released: usize,
}

impl SortedTraceStream {
    /// Wraps a trace already sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the trace is not sorted by arrival.
    pub fn new(mut trace: Vec<Invocation>) -> Self {
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be sorted by arrival"
        );
        trace.reverse();
        SortedTraceStream {
            #[cfg(target_os = "linux")]
            released: trace.as_ptr() as usize + trace.capacity() * size_of::<Invocation>(),
            remaining: trace,
        }
    }

    /// Gives the whole granules of spare capacity behind the arrivals
    /// left back to the OS: their pages are discarded in place with
    /// `madvise(MADV_DONTNEED)`, and the next touch maps zero pages.
    #[cfg(target_os = "linux")]
    fn release_spent(&mut self) {
        extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        const MADV_DONTNEED: std::ffi::c_int = 4;
        let base = self.remaining.as_ptr() as usize;
        let (len, cap) = (self.remaining.len(), self.remaining.capacity());
        let size = size_of::<Invocation>();
        let Some(range) = spent_granules(base, len, cap, size, self.released) else {
            return;
        };
        let start = self
            .remaining
            .as_mut_ptr()
            .cast::<u8>()
            .wrapping_add(range.start - base);
        // SAFETY: `spent_granules` returns a range inside the vector's own
        // allocation and at or past its `len` (the proptests below hold
        // it to that for any `released`), so it is spare capacity: bytes
        // Rust treats as uninitialised, that this stream never reads
        // again (it only pops, and never pushes) and that no other object
        // or allocator bookkeeping occupies while the vector owns them.
        // `MADV_DONTNEED` neither unmaps nor moves them: on the private
        // anonymous memory a heap is made of, the next touch (the
        // allocator's own, once the vector is freed) maps zero-filled
        // pages, and on any other mapping it reloads contents nobody
        // reads. `start` is 64 KiB aligned, so page aligned on every page
        // size up to that; on larger pages the call fails with `EINVAL`
        // and changes nothing. Like any failure of this advice, that is
        // ignored: the pages just stay resident.
        unsafe {
            madvise(start.cast(), range.len(), MADV_DONTNEED);
        }
        self.released = range.start;
    }

    #[cfg(not(target_os = "linux"))]
    fn release_spent(&mut self) {
        self.remaining.shrink_to_fit();
    }

    /// Spent bytes still held: handed over but not yet given back.
    #[cfg(test)]
    fn unreleased_spent_bytes(&self) -> usize {
        if self.remaining.capacity() == 0 {
            return 0;
        }
        let spent_from =
            self.remaining.as_ptr() as usize + self.remaining.len() * size_of::<Invocation>();
        #[cfg(target_os = "linux")]
        let held_to = self.released;
        #[cfg(not(target_os = "linux"))]
        let held_to =
            self.remaining.as_ptr() as usize + self.remaining.capacity() * size_of::<Invocation>();
        held_to.saturating_sub(spent_from)
    }
}

/// The whole [`RELEASE_GRANULE`]s of spare capacity not yet discarded:
/// the allocation at `base` holds `cap` elements of `size` bytes, the
/// first `len` of them live, and everything from `released` on is already
/// gone. `None` when no whole granule fits.
fn spent_granules(
    base: usize,
    len: usize,
    cap: usize,
    size: usize,
    released: usize,
) -> Option<Range<usize>> {
    let start = (base + len * size).next_multiple_of(RELEASE_GRANULE);
    let end = released.min(base + cap * size) / RELEASE_GRANULE * RELEASE_GRANULE;
    (start < end).then_some(start..end)
}

impl ArrivalStream for SortedTraceStream {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let inv = self.remaining.pop()?;
        if self.remaining.len().is_multiple_of(RELEASE_STEP) {
            self.release_spent();
        }
        if self.remaining.is_empty() {
            self.remaining = Vec::new();
        }
        Some(inv)
    }
}

/// One pending invocation in a per-app lookahead buffer, keyed so the heap
/// minimum is the app's earliest `(arrival, func)` with generation order
/// (`seq`) breaking exact ties the way a stable sort would.
type Pending = (SimTime, u32, u64, SimDuration);

/// The lazy generator state for one application.
#[derive(Debug)]
struct AppSource {
    process: PoissonProcess,
    /// Replays the session-gap draws of [`PoissonProcess::times`].
    session_rng: StdRng,
    /// Positioned after all session gaps; consumes per-session body draws.
    body_rng: StdRng,
    /// Start of the next unexpanded session, if any remain before `end`.
    next_session: Option<SimTime>,
    /// Generated-but-unreleased invocations (bursts overhanging sessions).
    buffer: BinaryHeap<Reverse<Pending>>,
    /// Per-app generation counter (stable-sort tie-break).
    seq: u64,
}

impl AppSource {
    /// Expands sessions until the buffered minimum is strictly earlier
    /// than the next session start (a later session can only produce an
    /// equal-arrival invocation with a *smaller* function index at its
    /// burst head, so `<` — not `<=` — is required), then releases it.
    fn pop_next(&mut self, app: &crate::faas::AppModel, end: SimTime) -> Option<Pending> {
        while let Some(session) = self.next_session {
            if let Some(Reverse(min)) = self.buffer.peek() {
                if min.0 < session {
                    break;
                }
            }
            let AppSource {
                body_rng,
                buffer,
                seq,
                ..
            } = self;
            emit_session(app, session, end, body_rng, |at, func, duration| {
                buffer.push(Reverse((at, func, *seq, duration)));
                *seq += 1;
            });
            self.next_session = {
                let next = session + self.process.next_gap(&mut self.session_rng);
                (next < end).then_some(next)
            };
        }
        self.buffer.pop().map(|Reverse(p)| p)
    }
}

/// Entry in the global merge heap: one (minimal) pending invocation per
/// app, keyed by the materialized sort key `(arrival, function)` with the
/// per-app sequence number as the stable tie-break. The trailing index
/// locates the owning `AppSource`.
type Merged = (SimTime, FunctionId, u64, SimDuration, u32);

/// Lazily generates the same invocation sequence as
/// [`Workload::invocations`] under the same [`SeedFactory`], in O(apps)
/// memory.
///
/// # Examples
///
/// ```
/// use hrv_trace::faas::{Workload, WorkloadSpec};
/// use hrv_trace::rng::SeedFactory;
/// use hrv_trace::stream::{ArrivalStream, WorkloadStream};
/// use hrv_trace::time::SimDuration;
///
/// let spec = WorkloadSpec::paper_fsmall().scaled(10, 5.0);
/// let horizon = SimDuration::from_mins(10);
/// let trace = Workload::generate(&spec, &SeedFactory::new(1)).invocations(horizon, &SeedFactory::new(1));
/// let workload = Workload::generate(&spec, &SeedFactory::new(1));
/// let mut stream = WorkloadStream::new(workload, horizon, &SeedFactory::new(1));
/// let mut streamed = Vec::new();
/// while let Some(inv) = stream.next_invocation() {
///     streamed.push(inv);
/// }
/// assert_eq!(streamed, trace);
/// ```
#[derive(Debug)]
pub struct WorkloadStream {
    workload: Workload,
    sources: Vec<AppSource>,
    heap: BinaryHeap<Reverse<Merged>>,
    next_id: u64,
    end: SimTime,
}

impl WorkloadStream {
    /// Builds the stream over `[0, horizon)` from the same `seeds` the
    /// materialized path uses. Construction is O(total sessions) time (one
    /// fast-forward pass over each app's session gaps) but O(apps) memory.
    pub fn new(workload: Workload, horizon: SimDuration, seeds: &SeedFactory) -> Self {
        let end = SimTime::ZERO + horizon;
        let mut sources = Vec::with_capacity(workload.apps.len());
        let mut heap = BinaryHeap::with_capacity(workload.apps.len());
        for (idx, app) in workload.apps.iter().enumerate() {
            let rng = seeds.stream_indexed("workload-arrivals", u64::from(app.id.0));
            let process = PoissonProcess::new(app.session_rate());
            let session_rng = rng.clone();
            let mut body_rng = rng;
            // Fast-forward past every session-gap draw, replicating
            // `PoissonProcess::times` draw for draw (including the final
            // gap that crosses the horizon).
            let mut t = SimTime::ZERO + process.next_gap(&mut body_rng);
            while t < end {
                t += process.next_gap(&mut body_rng);
            }
            let mut source = AppSource {
                process,
                session_rng,
                body_rng,
                next_session: None,
                buffer: BinaryHeap::new(),
                seq: 0,
            };
            source.next_session = {
                let first = SimTime::ZERO + source.process.next_gap(&mut source.session_rng);
                (first < end).then_some(first)
            };
            if let Some((at, func, seq, duration)) = source.pop_next(app, end) {
                heap.push(Reverse((
                    at,
                    FunctionId { app: app.id, func },
                    seq,
                    duration,
                    idx as u32,
                )));
            }
            sources.push(source);
        }
        WorkloadStream {
            workload,
            sources,
            heap,
            next_id: 0,
            end,
        }
    }

    /// Convenience: generate the workload and stream it in one step.
    pub fn from_spec(
        spec: &crate::faas::WorkloadSpec,
        horizon: SimDuration,
        seeds: &SeedFactory,
    ) -> Self {
        WorkloadStream::new(Workload::generate(spec, seeds), horizon, seeds)
    }

    /// The application models backing this stream.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }
}

impl ArrivalStream for WorkloadStream {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let Reverse((arrival, function, _seq, duration, idx)) = self.heap.pop()?;
        let app = &self.workload.apps[idx as usize];
        let inv = Invocation {
            id: self.next_id,
            function,
            arrival,
            duration,
            memory_mb: app.memory_mb,
            cpu_demand: app.cpu_demand,
        };
        self.next_id += 1;
        if let Some((at, func, seq, dur)) = self.sources[idx as usize].pop_next(app, self.end) {
            self.heap.push(Reverse((
                at,
                FunctionId { app: app.id, func },
                seq,
                dur,
                idx,
            )));
        }
        Some(inv)
    }
}

impl Iterator for WorkloadStream {
    type Item = Invocation;

    fn next(&mut self) -> Option<Invocation> {
        self.next_invocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faas::WorkloadSpec;
    use proptest::prelude::*;

    fn collect(mut s: impl ArrivalStream) -> Vec<Invocation> {
        let mut out = Vec::new();
        while let Some(inv) = s.next_invocation() {
            out.push(inv);
        }
        out
    }

    #[test]
    fn matches_materialized_fsmall() {
        let spec = WorkloadSpec::paper_fsmall().scaled(40, 20.0);
        let seeds = SeedFactory::new(777);
        let horizon = SimDuration::from_mins(30);
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
        let stream = WorkloadStream::from_spec(&spec, horizon, &seeds);
        assert_eq!(collect(stream), trace);
        assert!(!Workload::generate(&spec, &seeds)
            .invocations(horizon, &seeds)
            .is_empty());
    }

    #[test]
    fn matches_materialized_flarge_bursty() {
        // F_large's short apps carry bursts (mean 4), the case that forces
        // the lookahead buffer to hold overhanging invocations.
        let spec = WorkloadSpec::paper_flarge_scaled(60);
        let seeds = SeedFactory::new(42);
        let horizon = SimDuration::from_mins(60);
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
        let stream = WorkloadStream::from_spec(&spec, horizon, &seeds);
        assert_eq!(collect(stream), trace);
    }

    #[test]
    fn sorted_trace_stream_round_trips() {
        let spec = WorkloadSpec::paper_fsmall().scaled(10, 5.0);
        let seeds = SeedFactory::new(3);
        let trace =
            Workload::generate(&spec, &seeds).invocations(SimDuration::from_mins(5), &seeds);
        assert_eq!(collect(SortedTraceStream::new(trace.clone())), trace);
    }

    /// Invocations `0..n`, one per microsecond.
    fn ramp(n: usize) -> Vec<Invocation> {
        (0..n as u64)
            .map(|id| Invocation {
                id,
                function: FunctionId {
                    app: crate::faas::AppId(0),
                    func: 0,
                },
                arrival: SimTime::ZERO + SimDuration::from_micros(id),
                duration: SimDuration::from_millis(1),
                memory_mb: 256,
                cpu_demand: 1.0,
            })
            .collect()
    }

    #[test]
    fn sorted_trace_stream_releases_what_it_handed_over() {
        let trace = ramp(3 * RELEASE_STEP + 5);
        let mut stream = SortedTraceStream::new(trace.clone());
        let bound = RELEASE_STEP * size_of::<Invocation>() + RELEASE_GRANULE;
        for want in &trace {
            assert_eq!(stream.next_invocation().as_ref(), Some(want));
            let held = stream.unreleased_spent_bytes();
            assert!(held < bound, "{held} spent bytes held");
        }
        assert_eq!(stream.remaining.capacity(), 0);
        assert!(stream.next_invocation().is_none());
    }

    /// Once the last arrival is out, every whole granule of the trace's
    /// allocation has been discarded before the allocation is freed.
    #[cfg(target_os = "linux")]
    #[test]
    fn sorted_trace_stream_releases_the_whole_allocation_before_freeing_it() {
        for n in [5_000, 3 * RELEASE_STEP + 5] {
            let mut stream = SortedTraceStream::new(ramp(n));
            let base = stream.remaining.as_ptr() as usize;
            let end = base + stream.remaining.capacity() * size_of::<Invocation>();
            let first_whole = base.next_multiple_of(RELEASE_GRANULE);
            assert!(first_whole < end / RELEASE_GRANULE * RELEASE_GRANULE);
            while stream.next_invocation().is_some() {}
            assert_eq!(
                stream.released, first_whole,
                "{n} arrivals: whole granules from {first_whole:#x} to {:#x} left resident",
                stream.released
            );
        }
    }

    #[test]
    fn sorted_trace_stream_of_nothing_yields_nothing() {
        let mut stream = SortedTraceStream::new(Vec::new());
        assert!(stream.next_invocation().is_none());
        assert!(stream.next_invocation().is_none());
    }

    #[test]
    fn sorted_trace_stream_of_one_yields_it_once() {
        let one = ramp(1);
        let mut stream = SortedTraceStream::new(one.clone());
        assert_eq!(stream.next_invocation().as_ref(), Some(&one[0]));
        assert!(stream.next_invocation().is_none());
        assert!(stream.next_invocation().is_none());
    }

    #[test]
    fn empty_horizon_yields_nothing() {
        let spec = WorkloadSpec::paper_fsmall().scaled(5, 1.0);
        let seeds = SeedFactory::new(9);
        let mut stream = WorkloadStream::from_spec(&spec, SimDuration::from_micros(1), &seeds);
        assert!(stream.next_invocation().is_none());
    }

    proptest! {
        /// One release stays granule-aligned, inside the spare capacity
        /// and below what an earlier release already gave back.
        #[test]
        fn a_release_covers_only_spare_whole_granules(
            offset in 0..RELEASE_GRANULE / 8,
            cap in 0..40_000usize,
            live in 0..=1_000usize,
            size in 1..=96usize,
            seen in 0..=1_000usize,
        ) {
            let base = 8 * RELEASE_GRANULE + 8 * offset;
            let len = cap * live / 1_000;
            let (lo, hi) = (base + len * size, base + cap * size);
            let released = lo + (hi - lo) * seen / 1_000;
            if let Some(r) = spent_granules(base, len, cap, size, released) {
                prop_assert_eq!(r.start % RELEASE_GRANULE, 0);
                prop_assert_eq!(r.end % RELEASE_GRANULE, 0);
                let inside = lo <= r.start && r.start < r.end && r.end <= hi;
                prop_assert!(inside, "{r:?} outside {lo}..{hi}");
                prop_assert!(r.end <= released, "{r:?} repeats past {released}");
            }
        }

        /// Draining the vector and releasing every `step` pops gives back
        /// each whole spent granule exactly once.
        #[test]
        fn a_full_drain_releases_every_whole_granule_once(
            offset in 0..RELEASE_GRANULE / 8,
            cap in 0..40_000usize,
            step in 1..5_000usize,
            size in 1..=96usize,
        ) {
            let base = 8 * RELEASE_GRANULE + 8 * offset;
            let mut released = base + cap * size;
            let mut covered = Vec::new();
            for len in (0..cap).rev().filter(|len| len % step == 0) {
                if let Some(r) = spent_granules(base, len, cap, size, released) {
                    released = r.start;
                    covered.push(r);
                }
            }
            // Ranges come out highest first; each must end where the next
            // one (below it) starts, so none overlaps and none is missed.
            for pair in covered.windows(2) {
                prop_assert_eq!(pair[1].end, pair[0].start);
            }
            let whole = base.next_multiple_of(RELEASE_GRANULE)
                ..(base + cap * size) / RELEASE_GRANULE * RELEASE_GRANULE;
            let got = covered.last().map(|r| r.start)..covered.first().map(|r| r.end);
            if whole.start < whole.end {
                prop_assert_eq!(got, Some(whole.start)..Some(whole.end));
            } else {
                prop_assert!(covered.is_empty());
            }
        }
    }
}
