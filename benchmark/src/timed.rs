//! Outside-in tracing: timing decorators around the simulator's public
//! seams, the ledger they write to, and the harness-owned copy of the
//! round loop that drives a decorated world.
//!
//! Nothing here touches library source. The calendar, the load balancer,
//! the arrival stream and the world are each wrapped where the library
//! already takes a trait, and the spans they record nest the way the
//! calls do: the round loop is the root span, an event handler is its
//! child, and calendar / LB / stream calls made inside a handler are that
//! handler's children. A span's self time is its duration minus what its
//! child spans cover.
//!
//! The round loop's self time is measured the same way, not inferred:
//! each round's loop part (drain the outbox, find the window, inject what
//! is due) is a span of its own, and the calendar calls inside it are its
//! children. So the self times add up to an estimate of the run's wall
//! time that does not use the wall time, and the harness checks the two
//! against each other. What no seam shows is the inside of the library's
//! `run_until` between one handler's return and the next `peek`; it is
//! part of what the sum falls short by, with the clock reads.
//!
//! # Sampling and the clock correction
//!
//! The invoker-heavy replay handles an event in ≈ 280 ns; two clock
//! reads per span at five spans per event would double that. So the
//! ledger *counts* every call but *times* a pseudo-random one event in
//! [`SAMPLE_EVERY`] (the handler span and everything inside it, plus the
//! engine's calendar calls leading up to it) and, by a draw of its own,
//! one round's loop part in [`SAMPLE_EVERY`], and scales each cell by its
//! own calls ÷ timed calls. Every timed duration is corrected by the
//! cost `c` of one `Instant::now()`: a measured span reads `true + c`,
//! and occupies `true + 2c` of its parent. `c` is measured in the run
//! itself, as the mean reading of a span of no work taken right after
//! each timed handler: at 75 M spans a run, one nanosecond of `c` is 1 %
//! of the replay's ledger, and a loop of clock reads on a quiet cache
//! after the run reads up to 9 ns less than a read among the run's own
//! cache misses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hrv_lb::mws::Mws;
use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::{ClusterView, InvokerId, LoadWeights};
use hrv_platform::event::Event;
use hrv_platform::mailbox::Envelope;
use hrv_platform::world::PlatformWorld;
use hrv_sim::calendar::{EventCalendar, EventId, Scheduled};
use hrv_sim::engine::{run_until, RunStats, StopReason, World};
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::stream::ArrivalStream;
use hrv_trace::time::{SimDuration, SimTime};

/// One event in this many is timed (on average; the choice is a seeded
/// xorshift draw so it cannot alias with the ×R report broadcasts).
pub const SAMPLE_EVERY: u64 = 16;

/// Raw spans kept verbatim for the trace file, from the start of the run.
const RAW_SPANS: usize = 2_048;

/// Parent index of spans opened by the round loop itself.
pub const DRIVER: usize = 0;

/// Handler span names, by parent index − 1. The eighteen variants the
/// benchmark reports by name, then everything else.
pub const VARIANTS: [&str; 19] = [
    "Arrival",
    "Deliver",
    "StartupDone",
    "Completion",
    "KeepAliveExpired",
    "Prewarm",
    "PrewarmReady",
    "Ping",
    "PingReport",
    "Report",
    "InvokerDown",
    "VmDeploy",
    "DeployNotice",
    "SpawnVm",
    "WorkLost",
    "VmCpu",
    "VmWarn",
    "VmEvict",
    "Other",
];

const PARENTS: usize = 1 + VARIANTS.len();

/// The parent index of the handler span for `ev`. Variants without a name
/// of their own (migration, faults, ticks) share `Other`, so a new
/// library variant lands there instead of breaking the build.
pub fn variant_of(ev: &Event) -> usize {
    1 + match ev {
        Event::Arrival(_) => 0,
        Event::Deliver { .. } => 1,
        Event::StartupDone { .. } => 2,
        Event::Completion { .. } => 3,
        Event::KeepAliveExpired { .. } => 4,
        Event::Prewarm { .. } => 5,
        Event::PrewarmReady { .. } => 6,
        Event::Ping { .. } => 7,
        Event::PingReport { .. } => 8,
        Event::Report { .. } => 9,
        Event::InvokerDown { .. } => 10,
        Event::VmDeploy { .. } => 11,
        Event::DeployNotice { .. } => 12,
        Event::SpawnVm { .. } => 13,
        Event::WorkLost { .. } => 14,
        Event::VmCpu { .. } => 15,
        Event::VmWarn { .. } => 16,
        Event::VmEvict { .. } => 17,
        _ => 18,
    }
}

/// The library calls a child span can wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Schedule,
    Cancel,
    Pop,
    Peek,
    Place,
    Observe,
    StreamNext,
}

impl Op {
    pub const ALL: [Op; 7] = [
        Op::Schedule,
        Op::Cancel,
        Op::Pop,
        Op::Peek,
        Op::Place,
        Op::Observe,
        Op::StreamNext,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Schedule => "sim.calendar.schedule",
            Op::Cancel => "sim.calendar.cancel",
            Op::Pop => "sim.calendar.pop",
            Op::Peek => "sim.calendar.peek",
            Op::Place => "lb.place",
            Op::Observe => "lb.observe",
            Op::StreamNext => "trace.stream.next",
        }
    }
}

/// Calls seen, calls timed, and nanoseconds over the timed ones.
#[derive(Debug, Default)]
struct Cell {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
}

/// Adds to a counter only the driving thread writes. A traced world is a
/// solo-plan world: one thread runs the round loop and every decorator.
/// The atomics are there because the library's trait objects must be
/// `Send`, not because two threads ever race on a cell — so a relaxed
/// load and store stand in for the (five times dearer) locked add.
fn bump(a: &AtomicU64, by: u64) {
    a.store(a.load(Relaxed) + by, Relaxed);
}

/// Steps the xorshift state in `state`; true one time in [`SAMPLE_EVERY`].
fn draw(state: &AtomicU64) -> bool {
    let mut x = state.load(Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.store(x, Relaxed);
    (x >> 32).is_multiple_of(SAMPLE_EVERY)
}

/// An open loop part of a round: when it started, if it is a timed one,
/// and whether the event after it is.
struct Round {
    started: Option<Instant>,
    resume: bool,
}

/// One verbatim span: name, parent, start and end in ns since the ledger
/// was created.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where every decorator records. Shared by `Arc`; see [`bump`] for the
/// single-writer rule.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    armed: AtomicBool,
    parent: AtomicUsize,
    /// xorshift state choosing which events are timed.
    pick: AtomicU64,
    /// xorshift state choosing which rounds' loop parts are timed.
    round_pick: AtomicU64,
    /// Spans of no work — a second clock read right after a timed
    /// handler's last — how many, and their ns: what one read costs in
    /// this run, among this run's cache misses.
    empty: (AtomicU64, AtomicU64),
    /// Whether a timed loop part is open.
    in_loop: AtomicBool,
    /// The loop parts of the rounds.
    rounds: Cell,
    /// Child spans closed inside timed loop parts: how many, and their ns.
    loop_children: (AtomicU64, AtomicU64),
    handlers: [Cell; PARENTS],
    ops: [[Cell; PARENTS]; 7],
    cancel_hits: AtomicU64,
    place_refused: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    max_len: AtomicU64,
    raw_open: AtomicBool,
    raw: Mutex<Vec<RawSpan>>,
}

fn parent_name(p: usize) -> &'static str {
    if p == DRIVER {
        "sim.engine.driver"
    } else {
        VARIANTS[p - 1]
    }
}

impl Ledger {
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            armed: AtomicBool::new(false),
            parent: AtomicUsize::new(DRIVER),
            pick: AtomicU64::new(0x2545_f491_4f6c_dd1d),
            round_pick: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
            empty: (AtomicU64::new(0), AtomicU64::new(0)),
            in_loop: AtomicBool::new(false),
            rounds: Cell::default(),
            loop_children: (AtomicU64::new(0), AtomicU64::new(0)),
            handlers: std::array::from_fn(|_| Cell::default()),
            ops: std::array::from_fn(|_| std::array::from_fn(|_| Cell::default())),
            cancel_hits: AtomicU64::new(0),
            place_refused: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            max_len: AtomicU64::new(0),
            raw_open: AtomicBool::new(true),
            raw: Mutex::new(Vec::with_capacity(RAW_SPANS)),
        })
    }

    fn keep_raw(&self, name: &'static str, parent: usize, start: Instant, end: Instant) {
        if !self.raw_open.load(Relaxed) {
            return;
        }
        let mut raw = self.raw.lock().expect("no span recorder panics holding it");
        raw.push(RawSpan {
            name,
            parent: parent_name(parent),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        if raw.len() >= RAW_SPANS {
            self.raw_open.store(false, Relaxed);
        }
    }

    /// Opens a span: the start time when the current event is a timed
    /// one. Decorators call this, then the library, then a `close_*` —
    /// straight-line, so the wrapped call's arguments and result are
    /// never moved through a closure (an `Event` is a few hundred bytes).
    fn open(&self) -> Option<Instant> {
        self.armed.load(Relaxed).then(Instant::now)
    }

    /// Closes a child span of whatever handler is open.
    fn close_child(&self, op: Op, started: Option<Instant>) {
        let timed = started.map(|start| (start, Instant::now()));
        let parent = self.parent.load(Relaxed);
        let cell = &self.ops[op as usize][parent];
        bump(&cell.calls, 1);
        if let Some((start, end)) = timed {
            let ns = (end - start).as_nanos() as u64;
            bump(&cell.timed, 1);
            bump(&cell.ns, ns);
            if self.in_loop.load(Relaxed) {
                bump(&self.loop_children.0, 1);
                bump(&self.loop_children.1, ns);
            }
            self.keep_raw(op.name(), parent, start, end);
        }
    }

    /// Opens the loop part of a round. A timed one times every calendar
    /// call inside it, whatever the event draw said.
    fn open_round(&self) -> Round {
        let timed = draw(&self.round_pick);
        let resume = self.armed.load(Relaxed);
        self.armed.store(timed, Relaxed);
        self.in_loop.store(timed, Relaxed);
        Round {
            started: timed.then(Instant::now),
            resume,
        }
    }

    /// Closes the loop part of a round and hands the event draw back.
    fn close_round(&self, round: Round) {
        let timed = round.started.map(|start| (start, Instant::now()));
        self.in_loop.store(false, Relaxed);
        self.armed.store(round.resume, Relaxed);
        bump(&self.rounds.calls, 1);
        if let Some((start, end)) = timed {
            bump(&self.rounds.timed, 1);
            bump(&self.rounds.ns, (end - start).as_nanos() as u64);
        }
    }

    /// Opens the handler span `variant`.
    fn open_handler(&self, variant: usize) -> Option<Instant> {
        self.parent.store(variant, Relaxed);
        self.open()
    }

    /// Closes the handler span `variant`, then draws whether the next
    /// event is timed.
    fn close_handler(&self, variant: usize, started: Option<Instant>) {
        let timed = started.map(|start| (start, Instant::now()));
        if let Some((_, end)) = timed {
            bump(&self.empty.0, 1);
            bump(&self.empty.1, (Instant::now() - end).as_nanos() as u64);
        }
        self.parent.store(DRIVER, Relaxed);
        let cell = &self.handlers[variant];
        bump(&cell.calls, 1);
        if let Some((start, end)) = timed {
            bump(&cell.timed, 1);
            bump(&cell.ns, (end - start).as_nanos() as u64);
            self.keep_raw(VARIANTS[variant - 1], DRIVER, start, end);
        }
        self.armed.store(draw(&self.pick), Relaxed);
    }
}

/// [`EventCalendar`] decorator: every call is a child span.
#[derive(Debug)]
pub struct TimedCalendar<C> {
    inner: C,
    ledger: Arc<Ledger>,
}

impl<C> TimedCalendar<C> {
    pub fn new(inner: C, ledger: Arc<Ledger>) -> Self {
        TimedCalendar { inner, ledger }
    }

    fn scheduled(&self, started: Option<Instant>, len: usize) {
        self.ledger.close_child(Op::Schedule, started);
        if len as u64 > self.ledger.max_len.load(Relaxed) {
            self.ledger.max_len.store(len as u64, Relaxed);
        }
    }
}

impl<E, C: EventCalendar<E>> EventCalendar<E> for TimedCalendar<C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn processed(&self) -> u64 {
        self.inner.processed()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let started = self.ledger.open();
        let id = self.inner.schedule(at, event);
        self.scheduled(started, self.inner.len());
        id
    }
    fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let started = self.ledger.open();
        let id = self.inner.schedule_after(delay, event);
        self.scheduled(started, self.inner.len());
        id
    }
    fn cancel(&mut self, id: EventId) -> bool {
        let started = self.ledger.open();
        let hit = self.inner.cancel(id);
        self.ledger.close_child(Op::Cancel, started);
        bump(&self.ledger.cancel_hits, u64::from(hit));
        hit
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        let started = self.ledger.open();
        let at = self.inner.peek_time();
        self.ledger.close_child(Op::Peek, started);
        at
    }
    fn pop(&mut self) -> Option<Scheduled<E>> {
        let started = self.ledger.open();
        let ev = self.inner.pop();
        self.ledger.close_child(Op::Pop, started);
        ev
    }
}

/// [`LoadBalancer`] decorator over a concrete [`Mws`], so the covering-set
/// cache can be read in situ. `fresh()` builds the replica's own `Mws`
/// the way `PolicyKind::Mws.build()` does and shares this ledger, so a
/// replicated controller's placements all land in one place.
#[derive(Debug)]
pub struct TimedLb {
    inner: Mws,
    ledger: Arc<Ledger>,
}

impl TimedLb {
    pub fn new(ledger: Arc<Ledger>) -> Self {
        TimedLb {
            inner: Mws::new(LoadWeights::default(), 1),
            ledger,
        }
    }
}

impl LoadBalancer for TimedLb {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        view: &ClusterView,
        rng: &mut dyn rand::Rng,
    ) -> Option<InvokerId> {
        let before = self.inner.cache_stats();
        let started = self.ledger.open();
        let placed = self.inner.place(now, function, memory_mb, view, rng);
        self.ledger.close_child(Op::Place, started);
        let after = self.inner.cache_stats();
        bump(&self.ledger.cache_hits, after.hits - before.hits);
        bump(&self.ledger.cache_misses, after.misses - before.misses);
        bump(&self.ledger.place_refused, u64::from(placed.is_none()));
        placed
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        let started = self.ledger.open();
        self.inner.on_arrival(function, now);
        self.ledger.close_child(Op::Observe, started);
    }

    fn on_completion(&mut self, function: FunctionId, duration: SimDuration, cpu_cores: f64) {
        let started = self.ledger.open();
        self.inner.on_completion(function, duration, cpu_cores);
        self.ledger.close_child(Op::Observe, started);
    }

    fn on_invoker_join(&mut self, id: InvokerId) {
        let started = self.ledger.open();
        self.inner.on_invoker_join(id);
        self.ledger.close_child(Op::Observe, started);
    }

    fn on_invoker_leave(&mut self, id: InvokerId) {
        let started = self.ledger.open();
        self.inner.on_invoker_leave(id);
        self.ledger.close_child(Op::Observe, started);
    }

    fn fresh(&self) -> Box<dyn LoadBalancer> {
        Box::new(TimedLb::new(Arc::clone(&self.ledger)))
    }
}

/// [`ArrivalStream`] decorator.
pub struct TimedStream<S> {
    inner: S,
    ledger: Arc<Ledger>,
}

impl<S> TimedStream<S> {
    pub fn new(inner: S, ledger: Arc<Ledger>) -> Self {
        TimedStream { inner, ledger }
    }
}

impl<S: ArrivalStream> ArrivalStream for TimedStream<S> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let started = self.ledger.open();
        let next = self.inner.next_invocation();
        self.ledger.close_child(Op::StreamNext, started);
        next
    }
}

/// [`World`] decorator: each handled event is a handler span named by
/// `classify`, which maps an event to a parent index in `1..=VARIANTS.len()`.
pub struct TimedWorld<W: World> {
    pub inner: W,
    ledger: Arc<Ledger>,
    classify: fn(&W::Event) -> usize,
}

impl<W: World> TimedWorld<W> {
    pub fn new(inner: W, ledger: Arc<Ledger>, classify: fn(&W::Event) -> usize) -> Self {
        TimedWorld {
            inner,
            ledger,
            classify,
        }
    }
}

impl<W: World> World for TimedWorld<W> {
    type Event = W::Event;

    fn handle<C: EventCalendar<W::Event>>(&mut self, ev: Scheduled<W::Event>, cal: &mut C) {
        let variant = (self.classify)(&ev.event);
        let started = self.ledger.open_handler(variant);
        self.inner.handle(ev, cal);
        self.ledger.close_handler(variant, started);
    }
}

/// What the round loop itself counted.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    pub run: RunStats,
    pub rounds: u64,
}

/// The harness's copy of the public round loop (`hrv_platform::shard::
/// run_rounds`): drain the outbox into a pending heap, open the window
/// `[next, next + Δ)`, inject what is due in canonical order, run the
/// calendar to the window's end. Same boundaries, same injection order,
/// so a traced run reproduces `Simulation::run` event for event — and
/// because the loop lives here, the world and calendar it drives can be
/// the decorated ones.
pub fn run_rounds<C: EventCalendar<Event>>(
    world: &mut TimedWorld<PlatformWorld>,
    cal: &mut C,
    end: SimTime,
) -> RoundStats {
    assert_eq!(world.inner.plan().shards, 1, "traced worlds are solo-plan");
    let delta = world.inner.cfg().bus_latency;
    let mut pending: BinaryHeap<Reverse<Envelope>> = BinaryHeap::new();
    let (mut events, mut rounds) = (0u64, 0u64);
    let reason = loop {
        let round = world.ledger.open_round();
        for env in world.inner.take_outbox() {
            pending.push(Reverse(env));
        }
        let next = match (cal.peek_time(), pending.peek().map(|e| e.0.deliver_at)) {
            (None, None) => break StopReason::Drained,
            (Some(t), None) | (None, Some(t)) => t,
            (Some(a), Some(b)) => a.min(b),
        };
        if next >= end {
            break StopReason::ReachedEnd;
        }
        let stop = next.saturating_add(delta).min(end);
        while pending.peek().is_some_and(|e| e.0.deliver_at < stop) {
            let env = pending.pop().expect("peeked").0;
            cal.schedule(env.deliver_at, env.event);
        }
        world.ledger.close_round(round);
        events += run_until(world, cal, stop, u64::MAX).events;
        rounds += 1;
    };
    RoundStats {
        run: RunStats {
            events,
            end_time: cal.now(),
            reason,
        },
        rounds,
    }
}

/// One aggregated span row: estimated totals over the whole run.
#[derive(Debug, Clone)]
pub struct SpanRow {
    pub name: &'static str,
    pub parent: &'static str,
    pub calls: u64,
    pub timed: u64,
    /// Estimated inclusive seconds, clock cost removed.
    pub busy_s: f64,
    /// Estimated seconds not covered by child spans (equals `busy_s` for
    /// leaf spans).
    pub self_s: f64,
}

/// The ledger reduced to per-span estimates.
#[derive(Debug, Clone)]
pub struct LedgerReport {
    pub rows: Vec<SpanRow>,
    pub raw: Vec<RawSpan>,
    /// What one clock read cost in the traced run, ns.
    pub clock_ns: f64,
    /// Seconds the clock reads cost the traced run.
    pub clock_s: f64,
    pub cancel_hits: u64,
    pub place_refused: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub max_len: u64,
}

impl LedgerReport {
    /// Reduces `ledger` after a run whose timed region took `wall_s`.
    pub fn new(ledger: &Ledger, wall_s: f64) -> LedgerReport {
        // What one clock read cost in this run: the mean empty span.
        let empties = ledger.empty.0.load(Relaxed);
        let clock_ns = ledger.empty.1.load(Relaxed) as f64 / empties.max(1) as f64;
        let get = |c: &Cell| {
            (
                c.calls.load(Relaxed),
                c.timed.load(Relaxed),
                c.ns.load(Relaxed),
            )
        };
        // A cell's estimated true total: timed spans read `true + c` each;
        // scale the corrected sum by calls ÷ timed.
        let estimate = |calls: u64, timed: u64, ns: f64| {
            if timed == 0 {
                0.0
            } else {
                ns.max(0.0) * 1e-9 * calls as f64 / timed as f64
            }
        };
        let mut rows = Vec::new();
        let mut timed_spans = 0u64;
        for op in Op::ALL {
            for parent in 0..PARENTS {
                let (calls, timed, ns) = get(&ledger.ops[op as usize][parent]);
                if calls == 0 {
                    continue;
                }
                timed_spans += timed;
                let busy_s = estimate(calls, timed, ns as f64 - clock_ns * timed as f64);
                rows.push(SpanRow {
                    name: op.name(),
                    parent: parent_name(parent),
                    calls,
                    timed,
                    busy_s,
                    self_s: busy_s,
                });
            }
        }
        for variant in 1..PARENTS {
            let (calls, timed, ns) = get(&ledger.handlers[variant]);
            if calls == 0 {
                continue;
            }
            timed_spans += timed;
            let (mut child_n, mut child_ns) = (0u64, 0u64);
            for op in Op::ALL {
                let (_, t, n) = get(&ledger.ops[op as usize][variant]);
                child_n += t;
                child_ns += n;
            }
            // The span reads `true + c`; each child inside it widened it
            // by 2c, of which c sits in the child's own reading.
            let incl = ns as f64 - clock_ns * (timed + 2 * child_n) as f64;
            let own = ns as f64 - child_ns as f64 - clock_ns * (timed + child_n) as f64;
            rows.push(SpanRow {
                name: VARIANTS[variant - 1],
                parent: parent_name(DRIVER),
                calls,
                timed,
                busy_s: estimate(calls, timed, incl),
                self_s: estimate(calls, timed, own),
            });
        }
        // The loop parts of the rounds, measured like a handler: the span
        // minus the calendar calls inside it.
        let (rounds, timed_rounds, round_ns) = get(&ledger.rounds);
        let child_n = ledger.loop_children.0.load(Relaxed);
        let child_ns = ledger.loop_children.1.load(Relaxed);
        timed_spans += timed_rounds;
        let own = round_ns as f64 - child_ns as f64 - clock_ns * (timed_rounds + child_n) as f64;
        let clock_s = clock_ns * 1e-9 * (2 * timed_spans + empties) as f64;
        rows.push(SpanRow {
            name: parent_name(DRIVER),
            parent: "",
            calls: rounds,
            timed: timed_rounds,
            busy_s: wall_s - clock_s,
            self_s: estimate(rounds, timed_rounds, own),
        });
        LedgerReport {
            rows,
            raw: ledger.raw.lock().expect("recorder never panics").clone(),
            clock_ns,
            clock_s,
            cancel_hits: ledger.cancel_hits.load(Relaxed),
            place_refused: ledger.place_refused.load(Relaxed),
            cache_hits: ledger.cache_hits.load(Relaxed),
            cache_misses: ledger.cache_misses.load(Relaxed),
            max_len: ledger.max_len.load(Relaxed),
        }
    }

    /// Calls and estimated busy seconds of `op`, over every parent.
    pub fn op_total(&self, op: Op) -> (u64, f64) {
        self.rows
            .iter()
            .filter(|r| r.name == op.name())
            .fold((0, 0.0), |(c, s), r| (c + r.calls, s + r.busy_s))
    }

    /// Calls and estimated self seconds of handler `name`.
    pub fn handler(&self, name: &str) -> (u64, f64) {
        self.rows
            .iter()
            .find(|r| r.name == name && r.parent == parent_name(DRIVER))
            .map_or((0, 0.0), |r| (r.calls, r.self_s))
    }

    /// The round loop's own self seconds: its loop parts, measured.
    pub fn driver_self_s(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == parent_name(DRIVER))
            .map_or(0.0, |r| r.self_s)
    }

    /// Sum of every span's self time: the ledger's own estimate of the
    /// traced run's wall time, made without it.
    pub fn sum_self_s(&self) -> f64 {
        self.rows.iter().map(|r| r.self_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_lb::view::InvokerView;
    use hrv_sim::calendar::Calendar;
    use hrv_trace::faas::AppId;
    use hrv_trace::stream::SortedTraceStream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn total(ledger: &Ledger, op: Op) -> u64 {
        ledger.ops[op as usize]
            .iter()
            .map(|c| c.calls.load(Relaxed))
            .sum()
    }

    /// Bursts of schedules, every third cancelled, half popped: returns
    /// the delivery order.
    fn churn<C: EventCalendar<u64>>(cal: &mut C) -> Vec<(SimTime, u64)> {
        let mut order = Vec::new();
        let mut ids = Vec::new();
        for burst in 0..200u64 {
            for k in 0..16u64 {
                let at = cal.now() + SimDuration::from_micros(1 + (burst * 7 + k * 13) % 97);
                let payload = burst * 16 + k;
                ids.push(if k % 2 == 0 {
                    cal.schedule(at, payload)
                } else {
                    cal.schedule_after(at.since(cal.now()), payload)
                });
            }
            for id in ids.drain(..).step_by(3) {
                assert!(cal.cancel(id));
            }
            for _ in 0..8 {
                assert!(cal.peek_time().is_some());
                let ev = cal.pop().expect("peeked");
                order.push((ev.at, ev.event));
            }
        }
        while let Some(ev) = cal.pop() {
            order.push((ev.at, ev.event));
        }
        order
    }

    #[test]
    fn timed_calendar_delivers_in_the_same_order() {
        let ledger = Ledger::new();
        let mut timed = TimedCalendar::new(Calendar::new(), Arc::clone(&ledger));
        let mut plain = Calendar::new();
        assert_eq!(churn(&mut timed), churn(&mut plain));
        assert_eq!(EventCalendar::now(&timed), plain.now());
        assert_eq!(EventCalendar::processed(&timed), plain.processed());
        assert_eq!(total(&ledger, Op::Schedule), 200 * 16);
        assert_eq!(total(&ledger, Op::Cancel), 200 * 6);
        assert_eq!(ledger.cancel_hits.load(Relaxed), 200 * 6);
        assert_eq!(total(&ledger, Op::Peek), 200 * 8);
        // Every delivery, plus the final pop that found the calendar empty.
        assert_eq!(total(&ledger, Op::Pop), 200 * 10 + 1);
        assert!(ledger.max_len.load(Relaxed) >= 16);
    }

    fn function(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    /// Joins 48 invokers, then interleaves arrivals, placements with load
    /// bookkeeping, completions and a leave: returns every placement.
    fn drive(lb: &mut dyn LoadBalancer) -> Vec<Option<InvokerId>> {
        let mut view = ClusterView::new();
        for i in 0..48 {
            lb.on_invoker_join(InvokerId(i));
            view.add(InvokerView::register(
                InvokerId(i),
                4,
                8 * 1024,
                SimTime::ZERO,
            ));
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut placed = Vec::new();
        for i in 0..4_000u64 {
            let f = function((i % 61) as u32);
            let now = SimTime::from_micros(i * 3_000);
            lb.on_arrival(f, now);
            let choice = lb.place(now, f, 256, &view, &mut rng);
            if let Some(id) = choice {
                view.update(id, |v| {
                    v.cpu_in_use = (v.cpu_in_use + 0.5).min(4.0);
                    v.inflight += 1;
                });
            }
            if i % 3 == 0 {
                lb.on_completion(f, SimDuration::from_millis(400), 1.0);
                view.update(InvokerId((i % 48) as u32), |v| {
                    v.cpu_in_use = (v.cpu_in_use - 1.0).max(0.0);
                    v.inflight = v.inflight.saturating_sub(1);
                });
            }
            if i == 2_000 {
                lb.on_invoker_leave(InvokerId(5));
                view.remove(InvokerId(5));
            }
            placed.push(choice);
        }
        placed
    }

    #[test]
    fn timed_lb_places_like_plain_mws_and_fresh_shares_the_ledger() {
        let ledger = Ledger::new();
        let mut timed = TimedLb::new(Arc::clone(&ledger));
        let mut plain = Mws::new(LoadWeights::default(), 1);
        assert_eq!(drive(&mut timed), drive(&mut plain));
        assert_eq!(timed.name(), plain.name());
        assert_eq!(total(&ledger, Op::Place), 4_000);
        let stats = plain.cache_stats();
        assert_eq!(ledger.cache_hits.load(Relaxed), stats.hits);
        assert_eq!(ledger.cache_misses.load(Relaxed), stats.misses);
        // A replica's balancer starts empty and lands in the same ledger.
        let mut replica = timed.fresh();
        assert_eq!(drive(replica.as_mut()), drive(plain.fresh().as_mut()));
        assert_eq!(total(&ledger, Op::Place), 8_000);
        assert_eq!(ledger.cache_hits.load(Relaxed), 2 * stats.hits);
    }

    #[test]
    fn timed_stream_yields_the_same_stream() {
        let trace: Vec<Invocation> = (0..500u64)
            .map(|i| Invocation {
                id: i,
                function: function((i % 7) as u32),
                arrival: SimTime::from_micros(i * 5_000),
                duration: SimDuration::from_millis(100 + i),
                memory_mb: 128,
                cpu_demand: 1.0,
            })
            .collect();
        let ledger = Ledger::new();
        let mut timed =
            TimedStream::new(SortedTraceStream::new(trace.clone()), Arc::clone(&ledger));
        let mut seen = Vec::new();
        while let Some(inv) = timed.next_invocation() {
            seen.push(inv);
        }
        assert_eq!(seen, trace);
        assert_eq!(total(&ledger, Op::StreamNext), 501);
    }

    /// Rings once per event and re-arms itself `left` more times.
    struct Metronome {
        rings: Vec<SimTime>,
        left: u32,
    }

    impl World for Metronome {
        type Event = u32;
        fn handle<C: EventCalendar<u32>>(&mut self, ev: Scheduled<u32>, cal: &mut C) {
            self.rings.push(ev.at);
            if self.left > 0 {
                self.left -= 1;
                cal.schedule_after(SimDuration::from_secs(1), ev.event + 1);
            }
        }
    }

    #[test]
    fn timed_world_hands_every_event_through_and_nests_its_children() {
        let run = |ledger: Option<Arc<Ledger>>| {
            let world = Metronome {
                rings: Vec::new(),
                left: 99,
            };
            let mut cal = Calendar::new();
            cal.schedule(SimTime::from_secs(1), 0);
            match ledger {
                None => {
                    let mut world = world;
                    run_until(&mut world, &mut cal, SimTime::MAX, u64::MAX);
                    world.rings
                }
                Some(ledger) => {
                    let mut cal = TimedCalendar::new(cal, Arc::clone(&ledger));
                    let mut world = TimedWorld::new(world, ledger, |ev| 1 + (*ev as usize % 2));
                    run_until(&mut world, &mut cal, SimTime::MAX, u64::MAX);
                    world.inner.rings
                }
            }
        };
        let ledger = Ledger::new();
        assert_eq!(run(Some(Arc::clone(&ledger))), run(None));
        assert_eq!(ledger.handlers[1].calls.load(Relaxed), 50);
        assert_eq!(ledger.handlers[2].calls.load(Relaxed), 50);
        // Each handler's schedule is its child; the engine's peeks and
        // pops belong to the driver.
        let schedules = &ledger.ops[Op::Schedule as usize];
        assert_eq!(
            schedules[1].calls.load(Relaxed) + schedules[2].calls.load(Relaxed),
            99
        );
        assert_eq!(schedules[DRIVER].calls.load(Relaxed), 0);
        assert_eq!(
            ledger.ops[Op::Pop as usize][DRIVER].calls.load(Relaxed),
            100
        );
        assert_eq!(ledger.parent.load(Relaxed), DRIVER);
        // Sampling times some events but not all.
        let timed = ledger.handlers[1].timed.load(Relaxed) + ledger.handlers[2].timed.load(Relaxed);
        assert!(timed > 0 && timed < 100, "{timed} of 100 events timed");
    }

    #[test]
    fn report_scales_by_calls_over_timed_and_removes_the_clock() {
        // 80 Arrival events, 10 timed. True costs per timed event: 900 ns
        // of handler self time and one 100 ns schedule inside it. With a
        // 30 ns clock the schedule reads 130 and the handler 900 + 160 + 30.
        let ledger = Ledger::new();
        let handler = &ledger.handlers[1];
        bump(&handler.calls, 80);
        bump(&handler.timed, 10);
        bump(&handler.ns, 10 * 1_090);
        let child = &ledger.ops[Op::Schedule as usize][1];
        bump(&child.calls, 80);
        bump(&child.timed, 10);
        bump(&child.ns, 10 * 130);
        // 40 rounds, 5 loop parts timed: 200 ns of the loop's own work and
        // one 50 ns peek inside it, so the peek reads 80 and the loop part
        // 200 + 110 + 30.
        bump(&ledger.rounds.calls, 40);
        bump(&ledger.rounds.timed, 5);
        bump(&ledger.rounds.ns, 5 * 340);
        bump(&ledger.loop_children.0, 5);
        bump(&ledger.loop_children.1, 5 * 80);
        let peek = &ledger.ops[Op::Peek as usize][DRIVER];
        bump(&peek.calls, 40);
        bump(&peek.timed, 5);
        bump(&peek.ns, 5 * 80);
        // Ten empty spans read 30 ns each: that is the clock.
        bump(&ledger.empty.0, 10);
        bump(&ledger.empty.1, 10 * 30);
        // The wall time is not part of any self time.
        for wall_s in [100e-6, 1.0] {
            let report = LedgerReport::new(&ledger, wall_s);
            assert_eq!(report.clock_ns, 30.0);
            let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
            let (calls, self_s) = report.handler("Arrival");
            assert_eq!(calls, 80);
            assert!(close(self_s, 72e-6), "{self_s}");
            let (calls, busy_s) = report.op_total(Op::Schedule);
            assert_eq!(calls, 80);
            assert!(close(busy_s, 8e-6), "{busy_s}");
            assert!(close(report.op_total(Op::Peek).1, 2e-6));
            assert!(close(report.driver_self_s(), 8e-6));
            // 30 timed spans, two reads each, and ten empty spans' one.
            assert!(close(report.clock_s, 2.1e-6));
            assert!(close(report.sum_self_s(), 90e-6));
        }
    }

    #[test]
    fn every_named_variant_has_its_own_index() {
        assert_eq!(variant_of(&Event::Completion { invoker: 0 }), 4);
        assert_eq!(
            VARIANTS[variant_of(&Event::VmEvict { invoker: 0 }) - 1],
            "VmEvict"
        );
        assert_eq!(VARIANTS[variant_of(&Event::MonitorTick) - 1], "Other");
    }
}
