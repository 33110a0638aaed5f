//! The invoker: one per VM, owning a container pool and the VM's CPUs.
//!
//! Responsibilities (mirroring the modified OpenWhisk invoker of
//! Section 6.2):
//!
//! * container lifecycle — warm reuse, cold starts, keep-alive reaping,
//!   LRU eviction under memory pressure;
//! * execution under processor sharing on the VM's *current* CPU
//!   allocation (the Harvest Monitor's readings);
//! * admission control — when CPU pressure is at or above the threshold,
//!   new invocations wait in the invoker queue;
//! * health snapshots for the controller's pings.
//!
//! The state machine comes first (`deliver`, `completion_tick`, `evict`,
//! ...: plain methods over a calendar and the config, unit-tested on
//! their own); the entity layer at the end of the file is what the
//! platform's router calls — one handler per invoker-bound [`Event`],
//! reaching the rest of the platform only through a `Ctx`.

use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroU64;
use std::sync::Arc;

use hrv_policy::{ColdStartPolicy, FixedKeepAlive, IdleCtx};
use hrv_sim::calendar::{EventCalendar, EventId};
use hrv_sim::ps::{JobId, PsQueue};
use hrv_telemetry::{CounterId, PhaseRecord, SpanKind, NO_INVOCATION};
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::harvest::{VmTrace, EVICTION_GRACE};
use hrv_trace::rng::IdMap;
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::{PlatformConfig, VmTemplate, MIGRATION_MIN_REMAINING_SECS};
use crate::event::{CompletionReport, Event, InvokerIndex, LossCause};
use crate::mailbox::{invoker_entity, EntityId};
use crate::metrics::add_idle;
use crate::telemetry::Hop;
use crate::world::Ctx;

/// Slack for completion detection: the timer is rounded up to the next
/// microsecond, so finished jobs may retain up to ~rate·1 µs of demand.
const COMPLETION_SLACK: f64 = 1e-5;

/// A keep-alive deadline in eight bytes: `Option<Deadline>` uses the
/// zero niche. It stores the instant plus one microsecond, so a deadline
/// saturates one microsecond before `SimTime::MAX` — an instant no run's
/// horizon reaches, like `SimTime::MAX` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(NonZeroU64);

impl Deadline {
    fn new(at: SimTime) -> Self {
        Deadline(NonZeroU64::MIN.saturating_add(at.as_micros()))
    }

    /// The instant the container expires.
    pub fn at(self) -> SimTime {
        SimTime::from_micros(self.0.get() - 1)
    }
}

/// One function container.
#[derive(Debug)]
pub struct Container {
    /// The invoker-local counter part of the container id; the
    /// platform-wide id is `(invoker index << 32) | id`.
    pub id: u32,
    /// The function this container serves.
    pub function: FunctionId,
    /// Memory footprint, MiB.
    pub memory_mb: u32,
    /// Warm and waiting for the next invocation. A container that is
    /// not idle has exactly one entry in its invoker's work table.
    pub idle: bool,
    /// Last time it finished serving (for LRU eviction; doubles as the
    /// idle-span start for warm memory-time accounting).
    pub last_used: SimTime,
    /// Keep-alive deadline while idle (`None` while starting or busy,
    /// and for a zero-TTL container awaiting its same-tick reap). The
    /// invoker's one reaper timer is armed at the earliest of these.
    pub expires: Option<Deadline>,
    /// Born from a cold-start policy's prewarm order (for hit/waste
    /// accounting).
    pub prewarmed: bool,
    /// Invocations this container has finished serving (saturating).
    pub served: u32,
}

// The slab of every invoker holds ≈ 50 of these at the paper's operating
// point: 40 B each is ≈ 2 KB per invoker.
const _: () = assert!(std::mem::size_of::<Container>() <= 40);

impl Container {
    /// Memory-time of the idle span from `last_used` to `now`, MiB·µs.
    ///
    /// # Panics
    ///
    /// On `u64` overflow.
    fn idle_mib_micros(&self, now: SimTime) -> u64 {
        let span = now.saturating_since(self.last_used).as_micros();
        span.checked_mul(u64::from(self.memory_mb))
            .expect("idle memory-time overflows u64 MiB·µs")
    }
}

/// One invoker's containers, kept sorted by local id in one contiguous
/// slab.
///
/// Ids come from the invoker's monotone counter, so an insert is a
/// `push`, a lookup a binary search and a removal a `Vec::remove`; the
/// scans (`find_idle`, `idle_peers`, `lru_idle`) run in ascending id
/// order — the order, and therefore the tie-breaks, of the
/// `BTreeMap<u64, Container>` this replaced (all of one invoker's
/// platform-wide ids share their high half). At the paper's operating
/// point an invoker holds ≈ 50 containers, ≈ 2 KB.
#[derive(Debug, Default)]
struct ContainerStore {
    slab: Vec<Container>,
}

impl ContainerStore {
    fn len(&self) -> usize {
        self.slab.len()
    }

    fn iter(&self) -> std::slice::Iter<'_, Container> {
        self.slab.iter()
    }

    fn clear(&mut self) {
        self.slab.clear();
    }

    fn position(&self, id: u32) -> Option<usize> {
        self.slab.binary_search_by_key(&id, |c| c.id).ok()
    }

    fn get(&self, id: u32) -> Option<&Container> {
        self.position(id).map(|i| &self.slab[i])
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut Container> {
        self.position(id).map(|i| &mut self.slab[i])
    }

    /// Adds a container whose id is above every id present.
    fn insert(&mut self, c: Container) {
        debug_assert!(
            self.slab.last().is_none_or(|last| last.id < c.id),
            "container ids must be inserted in ascending order"
        );
        self.slab.push(c);
    }

    fn remove(&mut self, id: u32) -> Option<Container> {
        self.position(id).map(|i| self.slab.remove(i))
    }

    /// The lowest-id idle container of `function`.
    fn find_idle(&self, function: FunctionId) -> Option<u32> {
        self.slab
            .iter()
            .find(|c| c.idle && c.function == function)
            .map(|c| c.id)
    }

    /// How many containers of `function` are idle.
    fn idle_peers(&self, function: FunctionId) -> usize {
        self.slab
            .iter()
            .filter(|c| c.idle && c.function == function)
            .count()
    }

    /// The least recently used idle container (lowest id among equals).
    fn lru_idle(&self) -> Option<u32> {
        self.slab
            .iter()
            .filter(|c| c.idle)
            .min_by_key(|c| (c.last_used, c.id))
            .map(|c| c.id)
    }

    /// The earliest keep-alive deadline and its container (lowest id
    /// among equals) — the next one the reaper takes.
    fn next_expiry(&self) -> Option<(SimTime, u32)> {
        self.slab
            .iter()
            .filter_map(|c| Some((c.expires?, c.id)))
            .min()
            .map(|(deadline, id)| (deadline.at(), id))
    }
}

/// A prewarm order decided at an idle transition, drained by the
/// completion handler into a cross-entity [`Event::Prewarm`] envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmRequest {
    /// The function to pre-spawn for.
    pub function: FunctionId,
    /// Container memory footprint, MiB.
    pub memory_mb: u64,
    /// Envelope delay until the spawn must begin (already floored at one
    /// bus hop and offset by the cold-start delay, so the container is
    /// warm when the policy asked for it).
    pub spawn_delay: SimDuration,
    /// Keep-alive TTL to arm once warm.
    pub ttl: SimDuration,
}

/// An invocation currently executing (or cold-starting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningInvocation {
    /// The invocation.
    pub invocation: Invocation,
    /// Whether it cold-started.
    pub cold: bool,
    /// When execution (or the cold start) began.
    pub exec_start: SimTime,
}

/// What a container that is not idle is doing: its entry in the
/// invoker's work table.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Cold-starting for the invocation it will run.
    ColdStart(Invocation),
    /// Warming for a policy's prewarm order; the TTL to arm once warm.
    Prewarm(SimDuration),
    /// Executing an invocation.
    Running(RunningInvocation),
}

// Every busy or starting container of every invoker holds one.
const _: () = assert!(std::mem::size_of::<Work>() <= 64);

/// Work destroyed by a VM eviction.
#[derive(Debug, Default)]
pub struct EvictedWork {
    /// Invocations that had started executing (or cold-starting).
    pub started: Vec<RunningInvocation>,
    /// Invocations still waiting in the invoker queue.
    pub queued: Vec<Invocation>,
}

/// Health-ping payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Current CPU allocation of the hosting VM.
    pub cpus: u32,
    /// Cores in use right now.
    pub cpus_in_use: f64,
    /// Memory held by containers, MiB.
    pub memory_used_mb: u64,
    /// Whether the VM has been warned of eviction.
    pub eviction_pending: bool,
    /// Queue + running pressure (for diagnostics).
    pub pressure: f64,
}

/// A member's turn in a firing of its block's ping train.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PingTurn {
    /// The VM has died: the member leaves its train.
    Dead,
    /// The snapshot repeats the member's previous report, which the
    /// platform allows it to skip.
    Skipped,
    /// The snapshot goes into the firing's report to every replica.
    Report(HealthSnapshot),
}

/// Where an invoker slot's VM definition came from.
#[derive(Debug, Clone)]
pub(crate) enum SlotSource {
    Trace(VmTrace),
    Monitor(VmTemplate),
}

/// The invoker state machine.
#[derive(Debug)]
pub struct InvokerState {
    /// Slot index in the platform's invoker table.
    pub index: InvokerIndex,
    /// True between deploy and eviction.
    pub alive: bool,
    /// When the 30-second eviction warning arrived (for migration grace
    /// budgeting); `None` until it does.
    pub warned_at: Option<SimTime>,
    /// Memory capacity, MiB.
    pub memory_mb: u64,
    /// Stale startup/completion events that raced with eviction teardown
    /// and were dropped instead of processed (each one is work already
    /// accounted for through [`EvictedWork`]).
    pub dropped_completions: u64,
    /// CPUs the Harvest VM has allocated — what health pings advertise.
    allocated_cpus: u32,
    /// Straggler derating: the PS queue progresses at
    /// `allocated_cpus * derate`. 1.0 outside fault windows.
    derate: f64,
    ps: PsQueue,
    containers: ContainerStore,
    /// The work of every container that is not idle, by platform-wide
    /// container id.
    work: BTreeMap<u64, Work>,
    /// Invocations accepted but not yet started (admission / memory).
    queue: VecDeque<Invocation>,
    /// The completion timer and the `(time, job)` pair it is armed for.
    /// The pair lets `rearm_completion` skip the cancel + reschedule when
    /// the PS queue's next completion has not actually changed — on a
    /// hot path (every deliver/resize/drain) this avoids most calendar
    /// churn.
    completion: Option<(SimTime, JobId, EventId)>,
    /// The one keep-alive timer: armed if and only if some idle container
    /// has a deadline, and always at the earliest one (DESIGN.md,
    /// *Keep-alive deadline*).
    reaper: Option<(SimTime, EventId)>,
    memory_used: u64,
    /// The next container's local id.
    next_container: u32,
    /// Cores committed to containers still cold-starting.
    starting_cap: f64,
    /// Total cold starts this invoker performed.
    pub cold_starts: u64,
    /// Total warm starts this invoker performed.
    pub warm_starts: u64,
    /// Container lifecycle policy (one instance per invoker; see
    /// `hrv_policy` for the determinism contract).
    policy: Box<dyn ColdStartPolicy>,
    /// Prewarm orders decided this completion tick, drained by the
    /// completion handler into cross-entity envelopes.
    prewarm_requests: Vec<PrewarmRequest>,
    /// Prewarm containers this invoker spawned.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers destroyed without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·µs (exact, overflow
    /// checked) — the "wasted warm memory" axis of the policy grid. Idle
    /// spans still open at run end are censored.
    pub idle_mib_micros: u64,
    /// Whether lifecycle spans are being collected.
    tel_enabled: bool,
    /// Buffered `(at, invocation, kind)` span events; the router drains
    /// them into the flight recorder under this invoker's entity id
    /// after each event it forwards here. Always empty when telemetry
    /// is off.
    pub(crate) tel: Vec<(SimTime, u64, SpanKind)>,
    /// Dispatch hop of each invocation delivered here and not yet
    /// finished, for the phase split. Always empty when telemetry is off.
    hops: IdMap<u64, Hop>,
    /// Messages this invoker has sent (the canonical envelope tiebreak).
    seq: u64,
    /// The VM definition this slot deploys from; `None` for a bare state
    /// machine the platform never deploys (unit tests, micro-benches).
    slot: Option<SlotSource>,
    /// Whether a ping whose snapshot equals `last_report` may stay home
    /// (derived by the platform; see `PlatformWorld`'s constructor).
    report_on_change: bool,
    /// The snapshot this invoker last broadcast in its current life
    /// (`None` from deploy until the first ping).
    last_report: Option<HealthSnapshot>,
}

impl InvokerState {
    /// Creates a not-yet-deployed invoker slot.
    pub fn new(index: InvokerIndex, memory_mb: u64) -> Self {
        InvokerState {
            index,
            alive: false,
            warned_at: None,
            memory_mb,
            dropped_completions: 0,
            allocated_cpus: 0,
            derate: 1.0,
            ps: PsQueue::new(0.0),
            containers: ContainerStore::default(),
            work: BTreeMap::new(),
            queue: VecDeque::new(),
            completion: None,
            reaper: None,
            memory_used: 0,
            next_container: 0,
            starting_cap: 0.0,
            cold_starts: 0,
            warm_starts: 0,
            policy: Box::new(FixedKeepAlive),
            prewarm_requests: Vec::new(),
            prewarm_spawns: 0,
            prewarm_hits: 0,
            wasted_prewarms: 0,
            idle_mib_micros: 0,
            tel_enabled: false,
            tel: Vec::new(),
            hops: IdMap::default(),
            seq: 0,
            slot: None,
            report_on_change: false,
            last_report: None,
        }
    }

    /// Installs the container lifecycle policy (default:
    /// [`FixedKeepAlive`]). Call before the first delivery — swapping
    /// policies mid-run would mix decision models.
    pub fn set_policy(&mut self, policy: Box<dyn ColdStartPolicy>) {
        self.policy = policy;
    }

    /// Brings the invoker online with `cpus` CPUs.
    pub fn deploy(&mut self, now: SimTime, cpus: u32) {
        assert!(!self.alive, "invoker {} deployed twice", self.index);
        self.alive = true;
        // A new life's first ping always reports, whatever the last one
        // said before the VM died.
        self.last_report = None;
        self.allocated_cpus = cpus;
        self.derate = 1.0;
        self.ps = PsQueue::new(f64::from(cpus));
        self.ps.advance(now);
    }

    /// Current CPU allocation (what the VM advertises; a straggler's
    /// effective capacity may be lower).
    pub fn cpus(&self) -> u32 {
        self.allocated_cpus
    }

    /// Number of invocations waiting in the invoker queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of containers (any state).
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Builds the health-ping payload.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            cpus: self.cpus(),
            cpus_in_use: self.ps.cores_in_use(),
            memory_used_mb: self.memory_used,
            eviction_pending: self.warned_at.is_some(),
            pressure: self.ps.pressure(),
        }
    }

    /// CPU pressure including containers still cold-starting — the
    /// admission-control reading (`used + committed` over allocated CPUs).
    fn admission_pressure_now(&self) -> f64 {
        let committed = self.ps.cores_in_use() + self.starting_cap;
        let cap = self.ps.capacity();
        if cap <= 0.0 {
            if committed > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            committed / cap
        }
    }

    /// The platform-wide id of local container `id`, which events, the
    /// PS queue and the run tables carry: the invoker index over the
    /// counter.
    fn cid(&self, id: u32) -> u64 {
        (u64::from(self.index) << 32) | u64::from(id)
    }

    /// The local id inside the platform-wide container id `cid`.
    fn local(&self, cid: u64) -> u32 {
        debug_assert_eq!(
            cid >> 32,
            u64::from(self.index),
            "another invoker's container"
        );
        cid as u32
    }

    /// Adds a container doing `work` under the next local id, charges
    /// its memory and returns its platform-wide id.
    fn add_container(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        work: Work,
        prewarmed: bool,
        served: u32,
    ) -> u64 {
        let id = self.next_container;
        self.next_container = id.checked_add(1).expect("container ids exhausted");
        self.containers.insert(Container {
            id,
            function,
            memory_mb: u32::try_from(memory_mb).expect("container memory exceeds u32 MiB"),
            idle: false,
            last_used: now,
            expires: None,
            prewarmed,
            served,
        });
        self.memory_used += memory_mb;
        let cid = self.cid(id);
        self.work.insert(cid, work);
        cid
    }

    /// Accepts a delivered invocation: queue it and try to start work.
    pub fn deliver(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        debug_assert!(self.alive, "delivery to dead invoker");
        self.policy.observe_arrival(invocation.function, now);
        self.queue.push_back(invocation);
        self.drain(now, cal, cfg);
    }

    /// Starts as many queued invocations as admission and memory allow.
    fn drain(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>, cfg: &PlatformConfig) {
        self.ps.advance(now);
        while let Some(front) = self.queue.front().copied() {
            // Admission control: delay new work when CPU pressure is at or
            // above the threshold (counting cold starts in flight).
            let committed = self.ps.cores_in_use() + self.starting_cap;
            if self.admission_pressure_now() >= cfg.admission_pressure && committed > 0.0 {
                break;
            }
            if let Some(id) = self.containers.find_idle(front.function) {
                self.queue.pop_front();
                self.start_warm(now, id, front, cal);
            } else if self.make_room(now, front.memory_mb, cal) {
                self.queue.pop_front();
                self.start_cold(now, front, cal, cfg);
            } else {
                // Memory exhausted by busy/starting containers: wait.
                break;
            }
        }
        self.rearm_completion(cal);
    }

    /// Frees memory for a new container by reaping idle (LRU-first)
    /// containers. Returns false if even that cannot make room.
    /// Prewarmed idle containers are ordinary LRU victims — memory
    /// pressure from real work outranks a speculative spawn.
    fn make_room(
        &mut self,
        now: SimTime,
        needed_mb: u64,
        cal: &mut impl EventCalendar<Event>,
    ) -> bool {
        if needed_mb > self.memory_mb {
            return false;
        }
        while self.memory_mb - self.memory_used < needed_mb {
            match self.containers.lru_idle() {
                Some(id) => self.destroy_container(now, id, cal),
                None => return false,
            }
        }
        true
    }

    fn destroy_container(&mut self, now: SimTime, id: u32, cal: &mut impl EventCalendar<Event>) {
        let c = self
            .containers
            .remove(id)
            .expect("destroying unknown container");
        debug_assert!(
            c.idle && !self.work.contains_key(&self.cid(id)),
            "destroyed a container with work"
        );
        self.idle_mib_micros = add_idle(self.idle_mib_micros, c.idle_mib_micros(now));
        if c.prewarmed && c.served == 0 {
            self.wasted_prewarms += 1;
        }
        self.memory_used -= u64::from(c.memory_mb);
        self.deadline_cleared(c.expires, cal);
    }

    fn start_warm(
        &mut self,
        now: SimTime,
        id: u32,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let c = self.containers.get_mut(id).expect("warm container exists");
        let expires = c.expires.take();
        c.idle = false;
        if c.prewarmed && c.served == 0 {
            self.prewarm_hits += 1;
        }
        self.idle_mib_micros = add_idle(self.idle_mib_micros, c.idle_mib_micros(now));
        self.deadline_cleared(expires, cal);
        let cid = self.cid(id);
        self.warm_starts += 1;
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ExecBegin { cold: false }));
        }
        self.ps.add(
            JobId(cid),
            invocation.duration.as_secs_f64() * invocation.cpu_demand,
            invocation.cpu_demand,
        );
        let run = RunningInvocation {
            invocation,
            cold: false,
            exec_start: now,
        };
        self.work.insert(cid, Work::Running(run));
    }

    fn start_cold(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        let cid = self.add_container(
            now,
            invocation.function,
            invocation.memory_mb,
            Work::ColdStart(invocation),
            false,
            0,
        );
        self.cold_starts += 1;
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ColdStartBegin));
        }
        self.starting_cap += invocation.cpu_demand;
        cal.schedule(
            now.saturating_add(cfg.cold_start_delay),
            Event::StartupDone {
                invoker: self.index,
                container: cid,
            },
        );
    }

    /// A cold container finished starting: begin execution.
    pub fn startup_done(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            // Raced with an eviction: the work was already surfaced
            // through `EvictedWork`, so only count the stale event.
            self.dropped_completions += 1;
            return;
        }
        let Some(work) = self.work.get_mut(&cid) else {
            // Container destroyed by eviction handling; same accounting.
            self.dropped_completions += 1;
            return;
        };
        let Work::ColdStart(invocation) = *work else {
            unreachable!("StartupDone for a container that is not cold-starting");
        };
        *work = Work::Running(RunningInvocation {
            invocation,
            cold: true,
            exec_start: now,
        });
        self.starting_cap = (self.starting_cap - invocation.cpu_demand).max(0.0);
        self.ps.advance(now);
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ExecBegin { cold: true }));
        }
        self.ps.add(
            JobId(cid),
            invocation.duration.as_secs_f64() * invocation.cpu_demand + cfg.cold_start_cpu_secs,
            invocation.cpu_demand,
        );
        self.rearm_completion(cal);
    }

    /// Handles a completion-timer tick: harvest finished jobs, park their
    /// containers as idle, and restart queued work. Returns the finished
    /// invocations.
    pub fn completion_tick(
        &mut self,
        now: SimTime,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) -> Vec<RunningInvocation> {
        if !self.alive {
            self.dropped_completions += 1;
            return Vec::new();
        }
        // The event driving this tick is the armed timer (stale timers are
        // always cancelled before re-arming, so they never fire); it has
        // been consumed by the calendar.
        self.completion = None;
        self.ps.advance(now);
        let done = self.ps.take_completed(COMPLETION_SLACK);
        let mut finished = Vec::with_capacity(done.len());
        let mut reap_now: Vec<u32> = Vec::new();
        for JobId(cid) in done {
            let Some(Work::Running(run)) = self.work.remove(&cid) else {
                unreachable!("completed job has a running record");
            };
            let function = run.invocation.function;
            // Ask the lifecycle policy what to do with the idle
            // container. The peer count excludes this one (not yet
            // idle) and is only taken for a policy that reads it.
            let ctx = IdleCtx {
                now,
                fixed_keep_alive: cfg.keep_alive,
                cold_start_delay: cfg.cold_start_delay,
                bus_latency: cfg.bus_latency,
                idle_peers: if self.policy.reads_idle_peers() {
                    self.containers.idle_peers(function)
                } else {
                    0
                },
            };
            let decision = self.policy.on_idle(function, &ctx);
            let id = self.local(cid);
            let c = self
                .containers
                .get_mut(id)
                .expect("completed job has a container");
            c.idle = true;
            c.last_used = now;
            c.served = c.served.saturating_add(1);
            match decision.keep_alive {
                Some(ttl) => {
                    let deadline = Deadline::new(now.saturating_add(ttl));
                    c.expires = Some(deadline);
                    self.deadline_set(deadline.at(), cal);
                }
                // Zero keep-alive: reap after the drain pass below, so
                // same-tick queued work may still reuse the container.
                None => reap_now.push(id),
            }
            if let Some(pw) = decision.prewarm {
                // The spawn must begin a cold start ahead of the warm
                // deadline; the envelope floor is one bus hop.
                let spawn_delay = pw
                    .warm_at
                    .saturating_sub(cfg.cold_start_delay)
                    .max(cfg.bus_latency);
                self.prewarm_requests.push(PrewarmRequest {
                    function,
                    memory_mb: run.invocation.memory_mb,
                    spawn_delay,
                    ttl: pw.ttl,
                });
            }
            finished.push(run);
        }
        self.drain(now, cal, cfg);
        for id in reap_now {
            if self.containers.get(id).is_some_and(|c| c.idle) {
                self.destroy_container(now, id, cal);
            }
        }
        finished
    }

    /// Drains the prewarm orders decided since the last call; the
    /// completion handler turns each into a cross-entity
    /// [`Event::Prewarm`] envelope.
    pub fn take_prewarm_requests(&mut self) -> Vec<PrewarmRequest> {
        std::mem::take(&mut self.prewarm_requests)
    }

    /// Handles a policy's prewarm order: spawn an idle-bound container
    /// for `function` unless one is already warm(ing), the VM is doomed,
    /// or memory cannot be freed. Returns whether a spawn began.
    pub fn start_prewarm(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        ttl: SimDuration,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) -> bool {
        if !self.alive || self.warned_at.is_some() {
            return false;
        }
        // An idle or starting container for the function makes the
        // order moot (the keep-alive outlived the prediction, or an
        // invocation already cold-started one).
        if self.containers.iter().any(|c| {
            c.function == function
                && (c.idle || !matches!(self.work.get(&self.cid(c.id)), Some(Work::Running(_))))
        }) {
            return false;
        }
        if !self.make_room(now, memory_mb, cal) {
            return false;
        }
        let cid = self.add_container(now, function, memory_mb, Work::Prewarm(ttl), true, 0);
        self.prewarm_spawns += 1;
        cal.schedule(
            now.saturating_add(cfg.cold_start_delay),
            Event::PrewarmReady {
                invoker: self.index,
                container: cid,
            },
        );
        true
    }

    /// A prewarmed container finished warming: park it idle with its TTL
    /// armed, and let queued work of its function start on it.
    pub fn prewarm_ready(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            // Raced with an eviction teardown; same accounting as a
            // stale StartupDone.
            self.dropped_completions += 1;
            return;
        }
        // Only a prewarm schedules `PrewarmReady`, and container ids are
        // never reused, so an entry for `cid` is this prewarm's.
        let Some(Work::Prewarm(ttl)) = self.work.remove(&cid) else {
            self.dropped_completions += 1;
            return;
        };
        let id = self.local(cid);
        let c = self
            .containers
            .get_mut(id)
            .expect("prewarming container exists");
        c.idle = true;
        c.last_used = now;
        let deadline = Deadline::new(now.saturating_add(ttl));
        c.expires = Some(deadline);
        self.deadline_set(deadline.at(), cal);
        self.drain(now, cal, cfg);
    }

    /// The reaper fired: reap the idle container with the lowest
    /// `(deadline, id)`, which is due now, and re-arm at the next
    /// deadline. Each expiring container is one firing at its own
    /// deadline.
    pub fn keepalive_expired(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>) {
        // The event driving this is the armed reaper (eviction cancels
        // it); it has been consumed by the calendar.
        let Some((at, _)) = self.reaper.take() else {
            return;
        };
        debug_assert_eq!(at, now, "the reaper fired off its deadline");
        let (deadline, id) = self
            .containers
            .next_expiry()
            .expect("an armed reaper has an idle deadline");
        debug_assert_eq!(
            deadline, now,
            "the reaper is armed at the earliest deadline"
        );
        self.destroy_container(now, id, cal);
        self.arm_reaper(cal);
    }

    /// A container went idle with keep-alive `deadline`: re-arm only if
    /// that is earlier than the armed one, which a fixed TTL never gives
    /// while another container is idle.
    fn deadline_set(&mut self, deadline: SimTime, cal: &mut impl EventCalendar<Event>) {
        if self.reaper.is_none_or(|(at, _)| deadline < at) {
            self.arm_reaper(cal);
        }
    }

    /// A container left idle (warm start or destruction) holding
    /// `expires`: only if that was the armed deadline can the earliest
    /// one have moved.
    fn deadline_cleared(&mut self, expires: Option<Deadline>, cal: &mut impl EventCalendar<Event>) {
        let expires = expires.map(Deadline::at);
        if expires.is_some() && expires == self.reaper.map(|(at, _)| at) {
            self.arm_reaper(cal);
        }
    }

    /// Points the reaper at the earliest idle deadline, touching the
    /// calendar only when that deadline moved.
    fn arm_reaper(&mut self, cal: &mut impl EventCalendar<Event>) {
        let next = self.containers.next_expiry().map(|(at, _)| at);
        if self.reaper.map(|(at, _)| at) == next {
            return;
        }
        if let Some((_, ev)) = self.reaper.take() {
            cal.cancel(ev);
        }
        if let Some(at) = next {
            let timer = cal.schedule(
                at,
                Event::KeepAliveExpired {
                    invoker: self.index,
                },
            );
            self.reaper = Some((at, timer));
        }
    }

    /// Applies a Harvest VM CPU resize.
    pub fn resize(
        &mut self,
        now: SimTime,
        cpus: u32,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            return;
        }
        self.allocated_cpus = cpus;
        self.ps.advance(now);
        self.ps.set_capacity(f64::from(cpus) * self.derate);
        // Growth may unblock queued work; shrink re-plans completions.
        self.drain(now, cal, cfg);
    }

    /// Applies (or, with `factor == 1.0`, clears) a straggler derating:
    /// the VM still advertises its allocated CPUs, but the PS queue only
    /// progresses at `factor` of them — a silent slowdown the controller
    /// can only observe through rising pressure.
    pub fn set_derate(
        &mut self,
        now: SimTime,
        factor: f64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            return;
        }
        self.derate = factor.clamp(0.0, 1.0);
        self.ps.advance(now);
        self.ps
            .set_capacity(f64::from(self.allocated_cpus) * self.derate);
        self.drain(now, cal, cfg);
    }

    /// Records the 30-second eviction warning.
    pub fn warn(&mut self, now: SimTime) {
        if self.alive {
            self.warned_at = Some(now);
        }
    }

    /// Tears the invoker down at eviction time, returning the work that
    /// dies with it.
    pub fn evict(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>) -> EvictedWork {
        if !self.alive {
            return EvictedWork::default();
        }
        self.alive = false;
        self.warned_at = None;
        self.ps.advance(now);
        if let Some((_, _, ev)) = self.completion.take() {
            cal.cancel(ev);
        }
        if let Some((_, ev)) = self.reaper.take() {
            cal.cancel(ev);
        }
        debug_assert!(
            self.containers
                .iter()
                .all(|c| c.idle != self.work.contains_key(&self.cid(c.id)))
                && self.work.len() == self.containers.iter().filter(|c| !c.idle).count(),
            "a container is idle or has exactly one work entry"
        );
        for c in self.containers.iter() {
            // Close the idle spans and charge speculative spawns that the
            // eviction kills before they ever served.
            if c.idle {
                self.idle_mib_micros = add_idle(self.idle_mib_micros, c.idle_mib_micros(now));
            }
            if c.prewarmed && c.served == 0 {
                self.wasted_prewarms += 1;
            }
        }
        self.prewarm_requests.clear();
        self.hops.clear();
        // Running work first, then cold starts (as started at `now`),
        // each in container order: re-dispatch follows this order, and so
        // does every fingerprint. A prewarm takes no invocation with it.
        let mut started = Vec::new();
        let mut cold = Vec::new();
        for work in std::mem::take(&mut self.work).into_values() {
            match work {
                Work::Running(run) => started.push(run),
                Work::ColdStart(invocation) => cold.push(RunningInvocation {
                    invocation,
                    cold: true,
                    exec_start: now,
                }),
                Work::Prewarm(_) => {}
            }
        }
        started.append(&mut cold);
        let queued = std::mem::take(&mut self.queue).into_iter().collect();
        self.starting_cap = 0.0;
        self.containers.clear();
        self.memory_used = 0;
        self.allocated_cpus = 0;
        self.derate = 1.0;
        self.ps = PsQueue::new(0.0);
        self.ps.advance(now);
        EvictedWork { started, queued }
    }

    /// The running record behind a container, if any.
    pub fn running_invocation(&self, cid: u64) -> Option<&RunningInvocation> {
        match self.work.get(&cid) {
            Some(Work::Running(run)) => Some(run),
            _ => None,
        }
    }

    /// Lists running invocations whose remaining demand exceeds
    /// [`MIGRATION_MIN_REMAINING_SECS`] — the migration candidates when the
    /// eviction warning arrives. Returns `(container, remaining_secs,
    /// memory_mb)`.
    pub fn migration_candidates(&mut self, now: SimTime) -> Vec<(u64, f64, u64)> {
        if !self.alive {
            return Vec::new();
        }
        self.ps.advance(now);
        self.work
            .iter()
            .filter_map(|(&cid, work)| {
                let Work::Running(run) = work else {
                    return None;
                };
                let remaining = self.ps.remaining(JobId(cid))?;
                if remaining / run.invocation.cpu_demand > MIGRATION_MIN_REMAINING_SECS {
                    Some((cid, remaining, run.invocation.memory_mb))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Extracts a running invocation for migration: removes its job and
    /// container, returning the invocation state and remaining demand.
    /// Returns `None` if it already completed (or was never here).
    pub fn extract_running(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
    ) -> Option<(RunningInvocation, f64)> {
        if !self.alive {
            return None;
        }
        self.ps.advance(now);
        let remaining = self.ps.remaining(JobId(cid))?;
        if remaining <= 0.0 {
            // Finished while the transfer was in flight; the normal
            // completion path will deliver it.
            return None;
        }
        self.ps.remove(JobId(cid));
        let Some(Work::Running(run)) = self.work.remove(&cid) else {
            unreachable!("a PS job without a running record");
        };
        let c = self
            .containers
            .remove(self.local(cid))
            .expect("running container exists");
        self.memory_used -= u64::from(c.memory_mb);
        self.rearm_completion(cal);
        Some((run, remaining))
    }

    /// Implants a migrated invocation: creates a busy container (making
    /// room if needed) and resumes the job with its remaining demand.
    /// Returns false — leaving the caller to fail the invocation — when
    /// memory cannot be freed.
    pub fn implant_running(
        &mut self,
        now: SimTime,
        run: RunningInvocation,
        remaining: f64,
        cal: &mut impl EventCalendar<Event>,
    ) -> bool {
        if !self.alive {
            return false;
        }
        self.ps.advance(now);
        if !self.make_room(now, run.invocation.memory_mb, cal) {
            return false;
        }
        let cid = self.add_container(
            now,
            run.invocation.function,
            run.invocation.memory_mb,
            Work::Running(run),
            false,
            1,
        );
        self.ps
            .add(JobId(cid), remaining, run.invocation.cpu_demand);
        self.rearm_completion(cal);
        true
    }

    /// Re-arms the completion timer to the PS queue's next completion.
    ///
    /// Only touches the calendar when the next completion `(time, job)`
    /// actually differs from the armed one: an unchanged head means the
    /// pending timer is still correct and cancel + reschedule would be
    /// pure churn. This matters because `drain` — and through it every
    /// delivery and resize — ends here.
    fn rearm_completion(&mut self, cal: &mut impl EventCalendar<Event>) {
        let next = self.ps.next_completion();
        if self.completion.map(|(at, job, _)| (at, job)) == next {
            return;
        }
        if let Some((_, _, ev)) = self.completion.take() {
            cal.cancel(ev);
        }
        let invoker = self.index;
        self.completion =
            next.map(|(at, job)| (at, job, cal.schedule(at, Event::Completion { invoker })));
    }
}

/// The entity layer: one handler per invoker-bound [`Event`]. A handler
/// owns this invoker and nothing else; the calendar, the config and the
/// sinks come through `ctx`.
impl InvokerState {
    /// Builds the invoker for a platform slot, with the lifecycle policy
    /// and the span switch the config asks for; `report_on_change` lets
    /// it skip pings that would repeat its previous report.
    pub(crate) fn for_slot(
        index: InvokerIndex,
        slot: SlotSource,
        cfg: &PlatformConfig,
        report_on_change: bool,
    ) -> Self {
        let memory_mb = match &slot {
            SlotSource::Trace(vm) => vm.memory_mb,
            SlotSource::Monitor(t) => t.memory_mb,
        };
        InvokerState {
            policy: cfg.coldstart.build(),
            tel_enabled: cfg.telemetry.enabled(),
            slot: Some(slot),
            report_on_change,
            ..InvokerState::new(index, memory_mb)
        }
    }

    /// Forces the ping rule the platform derived (differential tests).
    #[cfg(test)]
    pub(crate) fn set_report_on_change(&mut self, on: bool) {
        self.report_on_change = on;
    }

    fn entity(&self) -> EntityId {
        invoker_entity(self.index)
    }

    fn send<C: EventCalendar<Event>>(
        &mut self,
        delay: SimDuration,
        event: Event,
        ctx: &mut Ctx<'_, C>,
    ) {
        ctx.send(self.entity(), &mut self.seq, delay, event);
    }

    /// Tells the owning replica that `invocation`'s placement here was
    /// destroyed; it decides between re-dispatch and a loss record.
    fn report_lost<C: EventCalendar<Event>>(
        &mut self,
        invocation: Invocation,
        exec_started: bool,
        cold: bool,
        cause: LossCause,
        ctx: &mut Ctx<'_, C>,
    ) {
        let event = Event::WorkLost {
            invocation,
            exec_started,
            cold,
            cause,
        };
        self.send(ctx.cfg.bus_latency, event, ctx);
    }

    /// Handles one event addressed to this invoker.
    pub(crate) fn handle<C: EventCalendar<Event>>(&mut self, event: Event, ctx: &mut Ctx<'_, C>) {
        let (now, cfg) = (ctx.now, ctx.cfg);
        match event {
            Event::Deliver {
                invocation,
                sent_at,
                ..
            } => self.on_deliver(invocation, sent_at, ctx),
            Event::StartupDone { container, .. } => {
                self.startup_done(now, container, ctx.cal, cfg);
            }
            Event::Completion { .. } => self.on_completion(ctx),
            Event::KeepAliveExpired { .. } => self.keepalive_expired(now, ctx.cal),
            Event::Prewarm {
                function,
                memory_mb,
                ttl,
                ..
            } => {
                self.start_prewarm(now, function, memory_mb, ttl, ctx.cal, cfg);
            }
            Event::PrewarmReady { container, .. } => {
                self.prewarm_ready(now, container, ctx.cal, cfg);
            }
            // A spawned slot, just made by the router, comes up like any
            // other VM; the router puts each new life on its block's trains.
            Event::VmDeploy { .. } | Event::SpawnVm { .. } => self.on_deploy(ctx),
            Event::VmCpu { cpus, .. } => {
                if self.alive {
                    ctx.record(self.entity(), NO_INVOCATION, SpanKind::Resize { cpus });
                }
                self.resize(now, cpus, ctx.cal, cfg);
            }
            Event::VmWarn { invoker } => {
                self.warn(now);
                if cfg.migration.enabled {
                    // Defer planning one ping round so the controller's
                    // view reflects every VM warned in the same burst —
                    // otherwise storm migrations land on doomed peers.
                    ctx.cal
                        .schedule_after(cfg.ping_interval, Event::MigratePlan { invoker });
                }
            }
            Event::MigratePlan { .. } => self.plan_migrations(ctx),
            Event::MigrateExtract {
                dst,
                container,
                transfer,
                ..
            } => self.on_migrate_extract(dst, container, transfer, ctx),
            Event::MigrateImplant {
                src,
                run,
                remaining,
                hop,
                ..
            } => self.on_migrate_implant(src, *run, remaining, hop, ctx),
            Event::MigrateBounce {
                run,
                remaining,
                hop,
                ..
            } => {
                // A failed implant comes home: re-implant here, or — if
                // this VM died while the state was in flight — report the
                // work lost.
                if !self.implant(*run, remaining, hop, ctx) {
                    self.report_lost(run.invocation, true, run.cold, LossCause::Eviction, ctx);
                }
            }
            Event::VmEvict { invoker } => {
                if !self.alive {
                    return;
                }
                ctx.metrics.vm_evictions += 1;
                self.destroy(LossCause::Eviction, ctx);
                // Every controller replica notices the dead invoker after
                // a ping interval (each keeps its own full cluster view).
                ctx.broadcast(self.entity(), &mut self.seq, cfg.ping_interval, |replica| {
                    Event::InvokerDown { invoker, replica }
                });
            }
            Event::FaultCrash { .. } => {
                // Crash-stop kill: the VM vanishes mid-flight with no
                // warning and — unlike an eviction — no `InvokerDown`
                // follows. Nothing announces the death, so without the
                // health-probe sweep the controller keeps routing work at
                // the corpse indefinitely.
                if !self.alive {
                    return;
                }
                ctx.metrics.vm_crashes += 1;
                self.destroy(LossCause::Crash, ctx);
            }
            Event::FaultStraggler { factor, .. } => {
                self.set_derate(now, factor, ctx.cal, cfg);
            }
            other => unreachable!("{other:?} is not addressed to one invoker"),
        }
    }

    /// This member's turn in a firing of its block's ping train: its
    /// snapshot for the firing's report, unless it would repeat the
    /// previous report where the platform allows the skip. A dead VM's
    /// pings end with its life, and it leaves the train.
    pub(crate) fn ping<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) -> PingTurn {
        if !self.alive {
            return PingTurn::Dead;
        }
        let snap = self.snapshot();
        if self.report_on_change && self.last_report == Some(snap) {
            // Every replica's row already holds this snapshot, and where
            // the platform allows the skip a delivered copy would only
            // rewrite it (DESIGN.md, *Report on change*).
            ctx.metrics.counters.incr(CounterId::PingReportsSkipped);
            return PingTurn::Skipped;
        }
        self.last_report = Some(snap);
        PingTurn::Report(snap)
    }

    /// Sends a ping-train firing's report rows to every replica as this
    /// member, the firing's first reporter: one envelope per replica, all
    /// sharing `reports`, under this member's own message counter (every
    /// replica tracks the full fleet, so pings fan out to all of them).
    pub(crate) fn send_reports<C: EventCalendar<Event>>(
        &mut self,
        reports: Arc<[(InvokerIndex, HealthSnapshot)]>,
        ctx: &mut Ctx<'_, C>,
    ) {
        debug_assert_eq!(reports.first().map(|r| r.0), Some(self.index));
        let delay = ctx.cfg.bus_latency;
        ctx.broadcast(self.entity(), &mut self.seq, delay, |replica| {
            let reports = Arc::clone(&reports);
            Event::PingReport { replica, reports }
        });
    }

    /// This member's turn in a firing of its block's sampling train: it
    /// adds its CPUs and cores in use to its shard collector's sums for
    /// the tick. The sums are integers, so the fleet-wide samples come
    /// out bit-identical for every shard count. Returns whether the
    /// member stays in its train: the samples end with the VM's life.
    pub(crate) fn sample<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) -> bool {
        if !self.alive {
            return false;
        }
        let used = self.snapshot().cpus_in_use;
        ctx.metrics.add_sample(ctx.now, self.cpus(), used);
        true
    }

    fn on_deliver<C: EventCalendar<Event>>(
        &mut self,
        inv: Invocation,
        sent_at: SimTime,
        ctx: &mut Ctx<'_, C>,
    ) {
        if !self.alive {
            // The VM died while the message was in flight.
            self.report_lost(inv, false, false, LossCause::DeadDelivery, ctx);
            return;
        }
        ctx.record(self.entity(), inv.id, SpanKind::Delivered);
        if self.tel_enabled {
            let delivered_at = ctx.now;
            let hop = Hop {
                sent_at,
                delivered_at,
            };
            self.hops.insert(inv.id, hop);
        }
        self.deliver(ctx.now, inv, ctx.cal, ctx.cfg);
    }

    fn on_completion<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        let now = ctx.now;
        let finished = self.completion_tick(now, ctx.cal, ctx.cfg);
        // Prewarm orders travel as self-addressed envelopes so sharded
        // runs deliver them in canonical order at the exact delay the
        // policy asked for.
        for pw in self.take_prewarm_requests() {
            let order = Event::Prewarm {
                invoker: self.index,
                function: pw.function,
                memory_mb: pw.memory_mb,
                ttl: pw.ttl,
            };
            self.send(pw.spawn_delay, order, ctx);
        }
        for run in finished {
            let inv = run.invocation;
            if self.tel_enabled {
                ctx.record(
                    self.entity(),
                    inv.id,
                    SpanKind::Completed { cold: run.cold },
                );
                if let Some(hop) = self.hops.remove(&inv.id) {
                    ctx.metrics
                        .push_phase(phase_split(&run, hop, now, ctx.cfg.cold_start_delay));
                }
            }
            // The owning replica writes the record when this lands.
            let report = CompletionReport {
                function: inv.function,
                invocation: inv.id,
                exec_duration: now.since(run.exec_start),
                // Reported as the cgroup's cores-while-running reading.
                cpu_cores: inv.cpu_demand,
                cold: run.cold,
                arrival: inv.arrival,
                finished: now,
            };
            let invoker = self.index;
            self.send(ctx.cfg.bus_latency, Event::Report { invoker, report }, ctx);
        }
    }

    /// Brings the slot's VM up and announces it.
    fn on_deploy<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        let slot = self
            .slot
            .as_ref()
            .expect("the platform deploys only invokers built for a slot");
        let (cpus, memory_mb, from_monitor) = match slot {
            SlotSource::Trace(vm) => (vm.cpus_at(ctx.now).max(vm.base_cpus), vm.memory_mb, false),
            SlotSource::Monitor(t) => (t.cpus, t.memory_mb, true),
        };
        self.deploy(ctx.now, cpus);
        let invoker = self.index;
        // Every controller replica hears about the new capacity one bus
        // hop later.
        ctx.broadcast(
            self.entity(),
            &mut self.seq,
            ctx.cfg.bus_latency,
            |replica| Event::DeployNotice {
                invoker,
                cpus,
                memory_mb,
                from_monitor,
                replica,
            },
        );
    }

    /// Tears the VM down and tells the owning replicas about every
    /// invocation it took with it, one [`Event::WorkLost`] per victim.
    fn destroy<C: EventCalendar<Event>>(&mut self, cause: LossCause, ctx: &mut Ctx<'_, C>) {
        let work = self.evict(ctx.now, ctx.cal);
        for run in work.started {
            ctx.record(
                self.entity(),
                run.invocation.id,
                SpanKind::WorkDestroyed { exec_started: true },
            );
            self.report_lost(run.invocation, true, run.cold, cause, ctx);
        }
        for inv in work.queued {
            ctx.record(
                self.entity(),
                inv.id,
                SpanKind::WorkDestroyed {
                    exec_started: false,
                },
            );
            self.report_lost(inv, false, false, cause, ctx);
        }
    }

    /// On an eviction warning, asks the owning replicas to resolve live
    /// migrations for the long invocations that would otherwise die
    /// (Section 4.4 extension). The decision is the owner's: it holds the
    /// authoritative in-flight bookkeeping and the view to pick a
    /// destination from, so migration works unchanged when the controller
    /// is sharded.
    fn plan_migrations<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        if !ctx.cfg.migration.enabled {
            return;
        }
        let Some(warned_at) = self.warned_at else {
            return; // raced with the eviction itself
        };
        if ctx.now >= warned_at + EVICTION_GRACE {
            return;
        }
        for (container, _remaining, memory_mb) in self.migration_candidates(ctx.now) {
            let Some(run) = self.running_invocation(container) else {
                continue;
            };
            let ask = Event::MigrateAsk {
                src: self.index,
                container,
                function: run.invocation.function,
                invocation: run.invocation.id,
                memory_mb,
                warned_at,
            };
            self.send(ctx.cfg.bus_latency, ask, ctx);
        }
    }

    /// Source side of a migration: pull the running invocation out (if it
    /// is still running) and ship its state, hop included, to the
    /// destination; the implant envelope travels with the transfer delay.
    fn on_migrate_extract<C: EventCalendar<Event>>(
        &mut self,
        dst: InvokerIndex,
        container: u64,
        transfer: SimDuration,
        ctx: &mut Ctx<'_, C>,
    ) {
        let Some((run, remaining)) = self.extract_running(ctx.now, container, ctx.cal) else {
            return; // completed or source already evicted
        };
        let implant = Event::MigrateImplant {
            dst,
            src: self.index,
            run: Box::new(run),
            remaining,
            hop: self.hops.remove(&run.invocation.id),
        };
        self.send(transfer.max(ctx.cfg.bus_latency), implant, ctx);
    }

    /// Destination side: resume the shipped invocation, then tell the
    /// owning replica so its in-flight bookkeeping follows; if this
    /// invoker cannot take it, bounce the state back to the source.
    fn on_migrate_implant<C: EventCalendar<Event>>(
        &mut self,
        src: InvokerIndex,
        run: RunningInvocation,
        remaining: f64,
        hop: Option<Hop>,
        ctx: &mut Ctx<'_, C>,
    ) {
        let answer = if self.implant(run, remaining, hop, ctx) {
            ctx.metrics.migrations += 1;
            Event::MigrateCommit {
                invocation: run.invocation.id,
                function: run.invocation.function,
                dst: self.index,
            }
        } else {
            Event::MigrateBounce {
                src,
                run: Box::new(run),
                remaining,
                hop,
            }
        };
        self.send(ctx.cfg.bus_latency, answer, ctx);
    }

    /// [`InvokerState::implant_running`] plus the hop that travelled with
    /// the state.
    fn implant<C: EventCalendar<Event>>(
        &mut self,
        run: RunningInvocation,
        remaining: f64,
        hop: Option<Hop>,
        ctx: &mut Ctx<'_, C>,
    ) -> bool {
        let implanted = self.implant_running(ctx.now, run, remaining, ctx.cal);
        if let (true, Some(hop)) = (implanted, hop) {
            self.hops.insert(run.invocation.id, hop);
        }
        implanted
    }
}

/// Additive phase split of a finished invocation in integer
/// microseconds. The queue phase is the residual, which is exact: the
/// other four tile [arrival, sent], [sent, delivered],
/// [start, start + cold_delay], and [exec_start, now], leaving exactly the
/// invoker-local wait.
fn phase_split(
    run: &RunningInvocation,
    hop: Hop,
    now: SimTime,
    cold_start_delay: SimDuration,
) -> PhaseRecord {
    let inv = run.invocation;
    let total_us = now.since(inv.arrival).as_micros();
    let sched_us = hop.sent_at.since(inv.arrival).as_micros();
    let bus_us = hop.delivered_at.since(hop.sent_at).as_micros();
    let coldstart_us = if run.cold {
        cold_start_delay.as_micros()
    } else {
        0
    };
    let exec_us = now.since(run.exec_start).as_micros();
    let queue_us = total_us.saturating_sub(sched_us + bus_us + coldstart_us + exec_us);
    debug_assert_eq!(
        sched_us + bus_us + queue_us + coldstart_us + exec_us,
        total_us,
        "phase components must tile invocation {}'s latency",
        inv.id
    );
    PhaseRecord {
        id: inv.id,
        arrival: inv.arrival,
        finished: now,
        cold: run.cold,
        sched_us,
        bus_us,
        queue_us,
        coldstart_us,
        exec_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_policy::IdleDecision;
    use hrv_trace::faas::AppId;
    use hrv_trace::time::SimDuration;
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    fn cfg() -> PlatformConfig {
        PlatformConfig {
            cold_start_delay: SimDuration::from_millis(500),
            cold_start_cpu_secs: 0.0,
            keep_alive: SimDuration::from_secs(60),
            ..PlatformConfig::default()
        }
    }

    fn inv(id: u64, app: u32, dur_secs: f64, mem: u64) -> Invocation {
        Invocation {
            id,
            function: FunctionId {
                app: AppId(app),
                func: 0,
            },
            arrival: SimTime::ZERO,
            duration: SimDuration::from_secs_f64(dur_secs),
            memory_mb: mem,
            cpu_demand: 1.0,
        }
    }

    fn fresh(cpus: u32, mem: u64) -> (InvokerState, hrv_sim::calendar::Calendar<Event>) {
        let mut iv = InvokerState::new(0, mem);
        let cal = hrv_sim::calendar::Calendar::new();
        iv.deploy(SimTime::ZERO, cpus);
        (iv, cal)
    }

    /// Drives the invoker's own timers until quiescent, returning all
    /// finished invocations. Ignores events addressed elsewhere.
    fn drive(
        iv: &mut InvokerState,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
        until: SimTime,
    ) -> Vec<RunningInvocation> {
        let mut finished = Vec::new();
        while let Some(at) = cal.peek_time() {
            if at >= until {
                break;
            }
            let ev = cal.pop().unwrap();
            match ev.event {
                Event::StartupDone { container, .. } => iv.startup_done(ev.at, container, cal, cfg),
                Event::Completion { .. } => finished.extend(iv.completion_tick(ev.at, cal, cfg)),
                Event::KeepAliveExpired { .. } => iv.keepalive_expired(ev.at, cal),
                Event::PrewarmReady { container, .. } => {
                    iv.prewarm_ready(ev.at, container, cal, cfg);
                }
                _ => {}
            }
        }
        finished
    }

    #[test]
    fn cold_then_warm_start() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        assert!(finished[0].cold);
        // Second invocation of the same function reuses the container.
        iv.deliver(SimTime::from_secs(10), inv(1, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.warm_starts, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(20));
        assert_eq!(finished.len(), 1);
        assert!(!finished[0].cold);
        assert_eq!(iv.container_count(), 1);
    }

    #[test]
    fn keep_alive_reaps_idle_containers() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(500));
        // Keep-alive (60 s) has long expired.
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
    }

    #[test]
    fn memory_pressure_evicts_lru_idle() {
        // Memory for exactly two 256 MiB containers.
        let (mut iv, mut cal) = fresh(8, 512);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 0.5, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(5));
        iv.deliver(SimTime::from_secs(5), inv(1, 2, 0.5, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(iv.container_count(), 2);
        // A third function forces out the LRU idle container (app 1).
        iv.deliver(SimTime::from_secs(10), inv(2, 3, 0.5, 256), &mut cal, &c);
        assert_eq!(iv.container_count(), 2);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(15));
        // App 1's container is gone: a new call to it cold-starts
        // (the fourth cold start, after apps 1, 2, and 3).
        iv.deliver(SimTime::from_secs(15), inv(3, 1, 0.5, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 4);
    }

    #[test]
    fn admission_control_queues_under_pressure() {
        let (mut iv, mut cal) = fresh(2, 64 * 1024);
        let c = cfg();
        // Two 10-second jobs saturate 2 CPUs; the third waits.
        for i in 0..3 {
            iv.deliver(SimTime::ZERO, inv(i, i as u32, 10.0, 256), &mut cal, &c);
        }
        // Cold starts happen for the first two; third stays queued.
        assert_eq!(iv.cold_starts, 2);
        assert_eq!(iv.queue_len(), 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 3);
        assert_eq!(iv.queue_len(), 0);
    }

    #[test]
    fn contention_stretches_execution() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0, // let them contend
            cold_start_delay: SimDuration::ZERO,
            ..cfg()
        };
        // Two 1-core jobs of 2 s on 1 CPU: processor sharing finishes both
        // at ~4 s.
        iv.deliver(SimTime::ZERO, inv(0, 1, 2.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 2.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(4));
    }

    #[test]
    fn resize_to_zero_stalls_and_recovery_resumes() {
        let (mut iv, mut cal) = fresh(2, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 2.0, 256), &mut cal, &c);
        // Let the cold start complete, then halt all CPUs at t=1.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        iv.resize(SimTime::from_secs(1), 0, &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert!(finished.is_empty(), "job finished with zero CPUs");
        // CPUs return at t=30: the job resumes and completes.
        iv.resize(SimTime::from_secs(30), 2, &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 1);
    }

    #[test]
    fn eviction_returns_all_work() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = cfg();
        for i in 0..4 {
            iv.deliver(SimTime::ZERO, inv(i, i as u32, 30.0, 256), &mut cal, &c);
        }
        iv.warn(SimTime::from_secs(9));
        assert!(iv.snapshot().eviction_pending);
        let work = iv.evict(SimTime::from_secs(10), &mut cal);
        assert_eq!(work.started.len() + work.queued.len(), 4);
        assert!(!iv.alive);
        assert_eq!(iv.container_count(), 0);
        // Post-eviction timers are ignored gracefully.
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert!(finished.is_empty());
    }

    #[test]
    fn eviction_returns_running_then_cold_starting_work_in_container_order() {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = cfg();
        // Container 0 runs a 1 s job and idles at 1.5 s; container 1
        // runs a 100 s job from its cold start's end at 0.5 s.
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 100.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(5));
        // At 5 s a warm start reuses container 0, container 2 prewarms,
        // and containers 3 and 4 cold-start invocations 6 and 5.
        let t5 = SimTime::from_secs(5);
        iv.deliver(t5, inv(2, 1, 100.0, 256), &mut cal, &c);
        let ttl = SimDuration::from_secs(60);
        assert!(iv.start_prewarm(t5, fid(9), 256, ttl, &mut cal, &c));
        iv.deliver(t5, inv(6, 6, 100.0, 256), &mut cal, &c);
        iv.deliver(t5, inv(5, 5, 100.0, 256), &mut cal, &c);
        assert_eq!((iv.container_count(), iv.cold_starts), (5, 4));
        // Evicted before the cold starts and the prewarm finish.
        let at = secs(5.2);
        let work = iv.evict(at, &mut cal);
        let run = |id, app, dur, cold, exec_start| RunningInvocation {
            invocation: inv(id, app, dur, 256),
            cold,
            exec_start,
        };
        assert_eq!(
            work.started,
            [
                run(2, 1, 100.0, false, t5),
                run(1, 2, 100.0, true, secs(0.5)),
                run(6, 6, 100.0, true, at),
                run(5, 5, 100.0, true, at),
            ]
        );
        assert!(work.queued.is_empty());
        assert_eq!(iv.wasted_prewarms, 1);
    }

    #[test]
    fn dispatch_hops_die_with_the_vm() {
        // Every invocation here dies with the VM, so the hops noted at
        // delivery go too: work implanted after a redeploy without a hop
        // must not inherit a dead life's.
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let hop = Hop {
            sent_at: SimTime::from_secs(4),
            delivered_at: SimTime::from_secs(5),
        };
        iv.hops.insert(8, hop);
        iv.evict(SimTime::from_secs(20), &mut cal);
        assert!(iv.hops.is_empty());
    }

    #[test]
    fn stale_startup_after_eviction_is_counted_not_processed() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 30.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 1);
        // Evict before the 500 ms StartupDone fires.
        let work = iv.evict(SimTime::from_micros(100_000), &mut cal);
        assert_eq!(work.started.len(), 1);
        assert_eq!(iv.dropped_completions, 0);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert!(finished.is_empty());
        // The stale StartupDone was dropped and accounted.
        assert_eq!(iv.dropped_completions, 1);
    }

    #[test]
    fn derate_slows_execution_but_not_the_advertised_cpus() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = PlatformConfig {
            cold_start_delay: SimDuration::ZERO,
            admission_pressure: 10.0, // let jobs contend
            ..cfg()
        };
        // Two 4-second 1-core jobs on 4 CPUs would finish at t=4 each;
        // derated to a quarter (1 effective core, GPS share 0.5 each)
        // they finish at t=8.
        iv.deliver(SimTime::ZERO, inv(0, 1, 4.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 4.0, 256), &mut cal, &c);
        iv.set_derate(SimTime::ZERO, 0.25, &mut cal, &c);
        // Advertised CPUs are unchanged; only effective capacity drops.
        assert_eq!(iv.snapshot().cpus, 4);
        assert_eq!(iv.cpus(), 4);
        // Bound the drive short of the keep-alive expiries so `cal.now()`
        // lands on the last completion.
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(9));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(8));
        // Clearing the derate restores full speed for the next pair.
        iv.set_derate(SimTime::from_secs(10), 1.0, &mut cal, &c);
        iv.deliver(SimTime::from_secs(10), inv(2, 1, 4.0, 256), &mut cal, &c);
        iv.deliver(SimTime::from_secs(10), inv(3, 2, 4.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(15));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(14));
    }

    #[test]
    fn snapshot_reports_state() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 5.0, 512), &mut cal, &c);
        let snap = iv.snapshot();
        assert_eq!(snap.cpus, 4);
        assert_eq!(snap.memory_used_mb, 512);
        assert!(!snap.eviction_pending);
    }

    #[test]
    fn oversized_invocation_never_starts() {
        let (mut iv, mut cal) = fresh(4, 256);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 512), &mut cal, &c);
        assert_eq!(iv.cold_starts, 0);
        assert_eq!(iv.queue_len(), 1);
    }

    fn fid(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    #[test]
    fn prewarm_spawns_parks_idle_and_serves_warm() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(7),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        assert_eq!(iv.prewarm_spawns, 1);
        assert_eq!(iv.snapshot().memory_used_mb, 256);
        // After the cold-start delay the container parks idle.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        assert_eq!(iv.container_count(), 1);
        // The next invocation of that function warm-starts on it.
        iv.deliver(SimTime::from_secs(1), inv(0, 7, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 0);
        assert_eq!(iv.warm_starts, 1);
        assert_eq!(iv.prewarm_hits, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        assert!(!finished[0].cold);
    }

    #[test]
    fn prewarm_skipped_when_function_already_warm() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 7, 1.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(iv.container_count(), 1);
        // The idle container makes the order moot.
        assert!(!iv.start_prewarm(
            SimTime::from_secs(10),
            fid(7),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        assert_eq!(iv.prewarm_spawns, 0);
    }

    #[test]
    fn prewarmed_idle_container_is_an_lru_victim() {
        // Memory for exactly two 256 MiB containers.
        let (mut iv, mut cal) = fresh(8, 512);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(9),
            256,
            SimDuration::from_secs(600),
            &mut cal,
            &c
        ));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        // Two real invocations need both slots: the never-used prewarm
        // is reaped first and counted wasted; memory accounting stays
        // conserved.
        iv.deliver(SimTime::from_secs(1), inv(0, 1, 5.0, 256), &mut cal, &c);
        iv.deliver(SimTime::from_secs(1), inv(1, 2, 5.0, 256), &mut cal, &c);
        assert_eq!(iv.container_count(), 2);
        assert_eq!(iv.snapshot().memory_used_mb, 512);
        assert_eq!(iv.wasted_prewarms, 1);
        assert_eq!(iv.prewarm_hits, 0);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert_eq!(finished.len(), 2);
    }

    #[test]
    fn prewarm_ttl_expiry_reaps_and_counts_waste() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(3),
            256,
            SimDuration::from_secs(30),
            &mut cal,
            &c
        ));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(300));
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        assert_eq!(iv.wasted_prewarms, 1);
        // ~30 s idle at 256 MiB (cold start ate the first 500 ms).
        assert!(iv.idle_mib_micros > 0);
    }

    #[test]
    fn eviction_with_inflight_prewarm_strands_nothing() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(3),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        // Evict before PrewarmReady fires.
        let work = iv.evict(SimTime::from_micros(100_000), &mut cal);
        assert!(work.started.is_empty() && work.queued.is_empty());
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        assert_eq!(iv.wasted_prewarms, 1);
        // The stale PrewarmReady is dropped and accounted, not processed.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert_eq!(iv.dropped_completions, 1);
        assert_eq!(iv.container_count(), 0);
    }

    #[test]
    fn null_policy_reaps_on_idle_but_reuses_same_tick() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.set_policy(hrv_policy::ColdStartConfig::Null.build());
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        // No keep-alive: the container is gone the moment it idles.
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        // And the next call cold-starts again.
        iv.deliver(SimTime::from_secs(10), inv(1, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 2);
    }

    #[test]
    fn warm_pool_bounds_idle_containers_per_function() {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0,
            ..cfg()
        };
        iv.set_policy(
            hrv_policy::ColdStartConfig::WarmPool(hrv_policy::WarmPoolConfig::default()).build(),
        );
        // Three concurrent calls of one function: three containers, but
        // only one may stay pooled once they all finish.
        for i in 0..3 {
            iv.deliver(SimTime::ZERO, inv(i, 5, 1.0, 256), &mut cal, &c);
        }
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert_eq!(finished.len(), 3);
        assert_eq!(iv.container_count(), 1);
        assert_eq!(iv.snapshot().memory_used_mb, 256);
    }

    #[test]
    fn warm_pool_of_two_keeps_the_second_and_reaps_the_third() {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0,
            ..cfg()
        };
        iv.set_policy(
            hrv_policy::ColdStartConfig::WarmPool(hrv_policy::WarmPoolConfig {
                per_function: 2,
                ..hrv_policy::WarmPoolConfig::default()
            })
            .build(),
        );
        // Three concurrent calls finishing one after the other: the
        // first two idle containers see 0 and 1 peers and are pooled,
        // the third sees 2 and is reaped.
        for i in 0..3 {
            iv.deliver(SimTime::ZERO, inv(i, 5, 1.0 + i as f64, 256), &mut cal, &c);
        }
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert_eq!(finished.len(), 3);
        assert_eq!(iv.container_count(), 2);
        assert_eq!(iv.snapshot().memory_used_mb, 512);
    }

    /// [`FixedKeepAlive`] behind the trait's default `reads_idle_peers`
    /// (true), logging the peer count each idle transition was shown.
    #[derive(Debug)]
    struct PeerLog(Arc<Mutex<Vec<usize>>>);

    impl ColdStartPolicy for PeerLog {
        fn observe_arrival(&mut self, _function: FunctionId, _now: SimTime) {}

        fn on_idle(&mut self, function: FunctionId, ctx: &IdleCtx) -> IdleDecision {
            self.0.lock().unwrap().push(ctx.idle_peers);
            FixedKeepAlive.on_idle(function, ctx)
        }

        fn name(&self) -> &'static str {
            "peer-log"
        }
    }

    /// Two functions, staggered and same-tick completions, warm reuse.
    fn idle_peer_scenario(iv: &mut InvokerState) -> (Vec<RunningInvocation>, Vec<SimTime>) {
        let mut cal = hrv_sim::calendar::Calendar::new();
        let c = PlatformConfig {
            admission_pressure: 10.0,
            ..cfg()
        };
        for (i, (app, dur)) in [(5, 1.0), (5, 2.0), (5, 2.0), (6, 1.5)]
            .into_iter()
            .enumerate()
        {
            iv.deliver(SimTime::ZERO, inv(i as u64, app, dur, 256), &mut cal, &c);
        }
        let mut finished = drive(iv, &mut cal, &c, SimTime::from_secs(10));
        iv.deliver(SimTime::from_secs(10), inv(4, 5, 1.0, 256), &mut cal, &c);
        finished.extend(drive(iv, &mut cal, &c, SimTime::from_secs(20)));
        // What is left on the calendar: the armed keep-alive expiries.
        let mut timers = Vec::new();
        while let Some(ev) = cal.pop() {
            timers.push(ev.at);
        }
        (finished, timers)
    }

    #[test]
    fn policy_on_the_default_sees_the_true_idle_peer_count() {
        let (mut iv, _) = fresh(8, 64 * 1024);
        let log = Arc::new(Mutex::new(Vec::new()));
        iv.set_policy(Box::new(PeerLog(Arc::clone(&log))));
        idle_peer_scenario(&mut iv);
        // App 5 idles at 1.5 s (no peer), app 6 at 2 s (none of its
        // own), app 5 twice in the 2.5 s tick (one peer, then two — the
        // first of the tick already counts), and after the warm reuse at
        // 10 s the returning container finds the other two idle.
        assert_eq!(*log.lock().unwrap(), vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn fixed_keep_alive_is_unchanged_by_the_unfilled_peer_count() {
        // `FixedKeepAlive` opts out of the count; `PeerLog` is the same
        // policy with the count filled in.
        let (mut lazy, _) = fresh(8, 64 * 1024);
        let (mut filled, _) = fresh(8, 64 * 1024);
        filled.set_policy(Box::new(PeerLog(Arc::default())));
        let a = idle_peer_scenario(&mut lazy);
        let b = idle_peer_scenario(&mut filled);
        assert_eq!(a, b);
        assert_eq!(a.0.len(), 5);
        assert_eq!(lazy.container_count(), filled.container_count());
        assert_eq!(
            (lazy.cold_starts, lazy.warm_starts),
            (filled.cold_starts, filled.warm_starts)
        );
        assert_eq!(lazy.idle_mib_micros, filled.idle_mib_micros);
    }

    /// A one-VM platform with four controller replicas and no workload,
    /// driven event by event. Envelopes are taken off the outbox and never
    /// delivered, so what remains is what the invoker sends, and when.
    struct OneVm {
        world: crate::world::PlatformWorld,
        cal: hrv_sim::calendar::Calendar<Event>,
    }

    impl OneVm {
        fn new(cfg: PlatformConfig, faults: hrv_fault::FaultPlan) -> Self {
            let mut cfg = cfg;
            cfg.sharding.replicas = 4;
            let vm = VmTrace::constant(
                SimTime::ZERO,
                SimTime::from_secs(3_600),
                hrv_trace::harvest::VmEnd::Censored,
                4,
                4_096,
            );
            let mut cal = hrv_sim::calendar::Calendar::new();
            let world = crate::world::PlatformWorld::from_stream_sharded_in(
                crate::world::ClusterSpec::from_traces(vec![vm]),
                Box::new(hrv_trace::stream::SortedTraceStream::new(Vec::new())),
                hrv_lb::policy::PolicyKind::Mws.build(),
                cfg,
                1,
                faults,
                crate::mailbox::ShardPlan::solo(),
                &mut cal,
            );
            OneVm { world, cal }
        }

        /// Puts `event` on the calendar at `secs`, as its sender would.
        fn at(&mut self, secs: f64, event: Event) {
            let at = SimTime::ZERO + SimDuration::from_secs_f64(secs);
            self.cal.schedule(at, event);
        }

        /// Handles everything due before `secs`; returns how many report
        /// rows each ping handled sent, over all replicas' copies, in ping
        /// order.
        fn reports_per_ping(&mut self, secs: u64) -> Vec<usize> {
            use hrv_sim::engine::World;
            let mut per_ping = Vec::new();
            while (self.cal.peek_time()).is_some_and(|t| t < SimTime::from_secs(secs)) {
                let ev = self.cal.pop().expect("peeked event exists");
                let ping = matches!(ev.event, Event::Ping { .. });
                self.world.handle(ev, &mut self.cal);
                let sent = self.world.take_outbox();
                let reports = (sent.iter())
                    .map(|env| match &env.event {
                        Event::PingReport { reports, .. } => reports.len(),
                        _ => 0,
                    })
                    .sum();
                if ping {
                    per_ping.push(reports);
                }
            }
            per_ping
        }

        fn skipped(&self) -> u64 {
            self.world
                .metrics
                .counters
                .get(CounterId::PingReportsSkipped)
        }
    }

    #[test]
    fn unchanged_pings_report_once_and_keep_their_timer() {
        let mut vm = OneVm::new(PlatformConfig::default(), hrv_fault::FaultPlan::none());
        // One 1 s ping per second: the first fans out to all four
        // replicas, the idle repeats send nothing but stay armed.
        assert_eq!(vm.reports_per_ping(6), [4, 0, 0, 0, 0]);
        assert_eq!(vm.skipped(), 4);
    }

    #[test]
    fn each_state_change_makes_the_next_ping_report() {
        let mut vm = OneVm::new(cfg(), hrv_fault::FaultPlan::none());
        // A 2 s invocation delivered at 2.2 s cold-starts until 2.7 s and
        // finishes at 4.7 s; then a resize and an eviction warning.
        let invocation = inv(0, 1, 2.0, 256);
        let sent_at = SimTime::from_secs(2);
        let deliver = Event::Deliver {
            invoker: 0,
            invocation,
            sent_at,
        };
        vm.at(2.2, deliver);
        vm.at(
            6.5,
            Event::VmCpu {
                invoker: 0,
                cpus: 2,
            },
        );
        vm.at(8.5, Event::VmWarn { invoker: 0 });
        // Pings at 1..=10 s: deliver → 3, completion → 5, resize → 7,
        // warning → 9; each change reports once and its repeat does not.
        assert_eq!(vm.reports_per_ping(11), [4, 0, 4, 0, 4, 0, 4, 0, 4, 0]);
    }

    #[test]
    fn first_ping_after_a_redeploy_always_reports() {
        let mut vm = OneVm::new(PlatformConfig::default(), hrv_fault::FaultPlan::none());
        // A crash at 2.5 s ends the VM's ping train (the 3 s firing finds
        // it dead); the redeploy at 3.5 s starts a new one at 4.5 s with
        // the same idle snapshot the last life reported at 1 s.
        vm.at(2.5, Event::FaultCrash { invoker: 0 });
        vm.at(3.5, Event::VmDeploy { invoker: 0 });
        assert_eq!(vm.reports_per_ping(6), [4, 0, 0, 4, 0]);
    }

    #[test]
    fn every_ping_reports_with_recovery_on_or_a_view_freeze_planned() {
        let mut recovery = PlatformConfig::default();
        recovery.recovery.enabled = true;
        let mut freeze = hrv_fault::FaultPlan::default();
        freeze.push(SimTime::from_secs(3_000), hrv_fault::FaultKind::ViewFreeze);
        freeze.push(SimTime::from_secs(3_001), hrv_fault::FaultKind::ViewThaw);
        freeze.finish();
        for (cfg, faults) in [
            (recovery, hrv_fault::FaultPlan::none()),
            (PlatformConfig::default(), freeze),
        ] {
            let mut vm = OneVm::new(cfg, faults);
            assert_eq!(vm.reports_per_ping(6), [4; 5]);
            assert_eq!(vm.skipped(), 0);
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    /// Where the invoker's one keep-alive timer is armed, if it is.
    fn reaper_at(iv: &InvokerState) -> Option<SimTime> {
        iv.reaper.map(|(at, _)| at)
    }

    /// `k` one-second invocations of distinct functions at t = 0: each
    /// cold-starts (0.5 s) and idles at 1.5 s with a 61.5 s deadline.
    fn idle_together(k: u64) -> (InvokerState, hrv_sim::calendar::Calendar<Event>) {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = cfg();
        for i in 0..k {
            iv.deliver(SimTime::ZERO, inv(i, i as u32, 1.0, 256), &mut cal, &c);
        }
        assert_eq!(
            drive(&mut iv, &mut cal, &c, SimTime::from_secs(10)).len(),
            k as usize
        );
        (iv, cal)
    }

    #[test]
    fn idle_containers_share_one_pending_timer() {
        let (iv, mut cal) = idle_together(5);
        assert_eq!(iv.container_count(), 5);
        // No completion is pending; the only event is the reaper, at the
        // (shared) earliest deadline.
        assert_eq!(cal.len(), 1);
        assert_eq!(reaper_at(&iv), Some(secs(61.5)));
        assert_eq!(cal.peek_time(), Some(secs(61.5)));
    }

    #[test]
    fn same_instant_deadlines_fire_once_per_container() {
        let (mut iv, mut cal) = idle_together(3);
        let mut fired = 0;
        while let Some(ev) = cal.pop() {
            assert!(matches!(ev.event, Event::KeepAliveExpired { invoker: 0 }));
            assert_eq!(ev.at, secs(61.5));
            let before = iv.container_count();
            iv.keepalive_expired(ev.at, &mut cal);
            assert_eq!(iv.container_count(), before - 1, "each firing reaps one");
            fired += 1;
        }
        assert_eq!(fired, 3);
        assert_eq!(reaper_at(&iv), None);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
    }

    #[test]
    fn warm_start_spares_its_container_and_moves_the_timer() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        // App 1 idles at 1.5 s (deadline 61.5 s), app 2 at 2.5 s (62.5 s).
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 2.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(reaper_at(&iv), Some(secs(61.5)));
        // A 100 s job warm-starts on app 1's container, which held the
        // armed deadline: the timer moves to app 2's.
        iv.deliver(SimTime::from_secs(10), inv(2, 1, 100.0, 256), &mut cal, &c);
        assert_eq!(iv.warm_starts, 1);
        assert_eq!(reaper_at(&iv), Some(secs(62.5)));
        // Past app 1's old deadline only app 2's container is gone.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(70));
        assert_eq!(iv.container_count(), 1);
        assert!(
            iv.running_invocation(0).is_some(),
            "the busy container survives"
        );
        assert_eq!(reaper_at(&iv), None);
        // It finishes at 110 s and is reaped on its own new deadline.
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(120));
        assert_eq!(finished.len(), 1);
        assert_eq!(reaper_at(&iv), Some(secs(170.0)));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(200));
        assert_eq!(iv.container_count(), 0);
        assert!(cal.is_empty());
    }

    /// A variable-TTL policy: 300 s for app 1, 30 s for every other app.
    #[derive(Debug)]
    struct TtlByApp;

    impl ColdStartPolicy for TtlByApp {
        fn observe_arrival(&mut self, _function: FunctionId, _now: SimTime) {}

        fn on_idle(&mut self, function: FunctionId, _ctx: &IdleCtx) -> IdleDecision {
            let secs = if function.app == AppId(1) { 300 } else { 30 };
            IdleDecision::keep(SimDuration::from_secs(secs))
        }

        fn name(&self) -> &'static str {
            "ttl-by-app"
        }
    }

    #[test]
    fn shorter_ttl_rearms_the_timer_earlier() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.set_policy(Box::new(TtlByApp));
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 2.0, 256), &mut cal, &c);
        // App 1 idles first (deadline 301.5 s); app 2's later idle spell
        // ends sooner (32.5 s) and takes the timer over.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(2));
        assert_eq!(reaper_at(&iv), Some(secs(301.5)));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(reaper_at(&iv), Some(secs(32.5)));
        assert_eq!(cal.len(), 1, "the later timer was cancelled");
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(40));
        assert_eq!(iv.container_count(), 1);
        assert_eq!(reaper_at(&iv), Some(secs(301.5)));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(400));
        assert_eq!(iv.container_count(), 0);
    }

    #[test]
    fn eviction_leaves_no_keep_alive_pending() {
        let (mut iv, mut cal) = idle_together(4);
        assert_eq!(cal.len(), 1);
        let work = iv.evict(SimTime::from_secs(20), &mut cal);
        assert!(work.started.is_empty() && work.queued.is_empty());
        assert_eq!(reaper_at(&iv), None);
        assert!(cal.is_empty());
        assert!(cal.pop().is_none());
    }

    /// The `BTreeMap<u64, Container>` the slab replaced, with the scans
    /// written as the invoker used to write them.
    #[derive(Default)]
    struct ModelStore(BTreeMap<u32, Container>);

    impl ModelStore {
        fn find_idle(&self, function: FunctionId) -> Option<u32> {
            self.0
                .values()
                .find(|c| c.idle && c.function == function)
                .map(|c| c.id)
        }

        fn idle_peers(&self, function: FunctionId) -> usize {
            self.0
                .values()
                .filter(|c| c.idle && c.function == function)
                .count()
        }

        fn lru_idle(&self) -> Option<u32> {
            self.0
                .values()
                .filter(|c| c.idle)
                .min_by_key(|c| (c.last_used, c.id))
                .map(|c| c.id)
        }
    }

    fn container(id: u32, app: u32, idle: bool, last_used: u64) -> Container {
        Container {
            id,
            function: fid(app),
            memory_mb: 256,
            idle,
            last_used: SimTime::from_secs(last_used),
            expires: None,
            prewarmed: false,
            served: 0,
        }
    }

    proptest! {
        /// The slab against the map it replaced under random inserts,
        /// removals and idle flips: the same warm container from
        /// `find_idle`, the same peer count, the same LRU victim (few
        /// distinct `last_used` values, so id tie-breaks are exercised)
        /// and the same contents in the same order after every step.
        #[test]
        fn container_store_matches_btreemap_model(
            ops in prop::collection::vec((0u32..6, 0u32..4, (any::<bool>(), 0u64..3), 0usize..64), 1..150),
        ) {
            let mut store = ContainerStore::default();
            let mut model = ModelStore::default();
            let mut next_id = 7u32;
            for (op, app, (idle, last_used), pick) in ops {
                let picked = model.0.keys().nth(pick % (model.0.len() + 1)).copied();
                match (op, picked) {
                    (0..=2, _) => {
                        store.insert(container(next_id, app, idle, last_used));
                        model.0.insert(next_id, container(next_id, app, idle, last_used));
                        next_id += 1;
                    }
                    (3, Some(cid)) => {
                        let (a, b) = (store.remove(cid), model.0.remove(&cid));
                        prop_assert_eq!(a.map(|c| c.id), b.map(|c| c.id));
                    }
                    (_, Some(cid)) => {
                        for c in [store.get_mut(cid).unwrap(), model.0.get_mut(&cid).unwrap()] {
                            c.idle = idle;
                            c.last_used = SimTime::from_secs(last_used);
                        }
                    }
                    (_, None) => {
                        prop_assert!(store.remove(next_id).is_none());
                        prop_assert!(store.get(next_id - 1).is_some() == model.0.contains_key(&(next_id - 1)));
                    }
                }
                prop_assert_eq!(store.find_idle(fid(app)), model.find_idle(fid(app)));
                prop_assert_eq!(store.idle_peers(fid(app)), model.idle_peers(fid(app)));
                prop_assert_eq!(store.lru_idle(), model.lru_idle());
                prop_assert_eq!(store.len(), model.0.len());
                let slab: Vec<(u32, bool)> = store.iter().map(|c| (c.id, c.idle)).collect();
                let map: Vec<(u32, bool)> = model.0.values().map(|c| (c.id, c.idle)).collect();
                prop_assert_eq!(slab, map);
            }
        }
    }
}
