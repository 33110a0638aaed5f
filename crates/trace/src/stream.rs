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
//! ties: the materialized sort key is `(arrival, FunctionId)` under a
//! stable sort. Equal keys across apps are impossible (`FunctionId` embeds
//! the app id), and within an app the per-source sequence number preserves
//! generation order — exactly what the stable sort preserves — so the
//! merge reproduces the sort bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Adapts a materialized, arrival-sorted trace to [`ArrivalStream`].
#[derive(Debug)]
pub struct SortedTraceStream {
    iter: std::vec::IntoIter<Invocation>,
}

impl SortedTraceStream {
    /// Wraps a trace already sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the trace is not sorted by arrival.
    pub fn new(trace: Vec<Invocation>) -> Self {
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be sorted by arrival"
        );
        SortedTraceStream {
            iter: trace.into_iter(),
        }
    }
}

impl ArrivalStream for SortedTraceStream {
    fn next_invocation(&mut self) -> Option<Invocation> {
        self.iter.next()
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

    #[test]
    fn empty_horizon_yields_nothing() {
        let spec = WorkloadSpec::paper_fsmall().scaled(5, 1.0);
        let seeds = SeedFactory::new(9);
        let mut stream = WorkloadStream::from_spec(&spec, SimDuration::from_micros(1), &seeds);
        assert!(stream.next_invocation().is_none());
    }
}
