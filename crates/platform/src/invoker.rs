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

use hrv_policy::{ColdStartPolicy, FixedKeepAlive, IdleCtx};
use hrv_sim::calendar::{EventCalendar, EventId};
use hrv_sim::ps::{JobId, PsQueue};
use hrv_telemetry::{PhaseRecord, SpanKind, NO_INVOCATION};
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::harvest::{VmTrace, EVICTION_GRACE};
use hrv_trace::rng::IdMap;
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::{PlatformConfig, VmTemplate};
use crate::event::{CompletionReport, Event, InvokerIndex, LossCause};
use crate::mailbox::{invoker_entity, EntityId};
use crate::metrics::{InvocationRecord, Outcome};
use crate::telemetry::Hop;
use crate::world::Ctx;

/// Slack for completion detection: the timer is rounded up to the next
/// microsecond, so finished jobs may retain up to ~rate·1 µs of demand.
const COMPLETION_SLACK: f64 = 1e-5;

/// Lifecycle state of one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Cold start in progress.
    Starting,
    /// Executing an invocation.
    Busy,
    /// Warm, waiting for the next invocation (keep-alive running).
    Idle,
}

/// One function container.
#[derive(Debug)]
pub struct Container {
    /// Container id (unique within the platform).
    pub id: u64,
    /// The function this container serves.
    pub function: FunctionId,
    /// Memory footprint, MiB.
    pub memory_mb: u64,
    /// Current state.
    pub state: ContainerState,
    /// Last time it finished serving (for LRU eviction; doubles as the
    /// idle-span start for warm memory-time accounting).
    pub last_used: SimTime,
    /// Pending keep-alive timer when idle.
    pub keepalive: Option<EventId>,
    /// Born from a cold-start policy's prewarm order (for hit/waste
    /// accounting).
    pub prewarmed: bool,
    /// Invocations this container has finished serving.
    pub served: u64,
}

/// One invoker's containers, kept sorted by id in one contiguous slab.
///
/// Ids come from the invoker's monotone counter, so an insert is a
/// `push`, a lookup a binary search and a removal a `Vec::remove`; the
/// scans (`find_idle`, `idle_peers`, `lru_idle`) run in ascending id
/// order — the order, and therefore the tie-breaks, of the
/// `BTreeMap<u64, Container>` this replaced. At the paper's operating
/// point an invoker holds ≈ 50 containers, ≈ 3 KB.
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

    fn position(&self, cid: u64) -> Option<usize> {
        self.slab.binary_search_by_key(&cid, |c| c.id).ok()
    }

    fn get(&self, cid: u64) -> Option<&Container> {
        self.position(cid).map(|i| &self.slab[i])
    }

    fn get_mut(&mut self, cid: u64) -> Option<&mut Container> {
        self.position(cid).map(|i| &mut self.slab[i])
    }

    /// Adds a container whose id is above every id present.
    fn insert(&mut self, c: Container) {
        debug_assert!(
            self.slab.last().is_none_or(|last| last.id < c.id),
            "container ids must be inserted in ascending order"
        );
        self.slab.push(c);
    }

    fn remove(&mut self, cid: u64) -> Option<Container> {
        self.position(cid).map(|i| self.slab.remove(i))
    }

    /// The lowest-id idle container of `function`.
    fn find_idle(&self, function: FunctionId) -> Option<u64> {
        self.slab
            .iter()
            .find(|c| c.state == ContainerState::Idle && c.function == function)
            .map(|c| c.id)
    }

    /// How many containers of `function` are idle.
    fn idle_peers(&self, function: FunctionId) -> usize {
        self.slab
            .iter()
            .filter(|c| c.state == ContainerState::Idle && c.function == function)
            .count()
    }

    /// The least recently used idle container (lowest id among equals).
    fn lru_idle(&self) -> Option<u64> {
        self.slab
            .iter()
            .filter(|c| c.state == ContainerState::Idle)
            .min_by_key(|c| (c.last_used, c.id))
            .map(|c| c.id)
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

/// Where an invoker slot's VM definition came from.
#[derive(Debug, Clone)]
pub(crate) enum SlotSource {
    Trace(VmTrace),
    Monitor(VmTemplate),
}

/// The first tick of the shared utilization-sampling grid at or after
/// `t` (grid alignment keeps the merged per-invoker rows coalescible).
pub(crate) fn first_sample_at(t: SimTime, interval: SimDuration) -> SimTime {
    let step = interval.as_micros();
    let us = t.since(SimTime::ZERO).as_micros();
    SimTime::ZERO + SimDuration::from_micros(us.div_ceil(step) * step)
}

/// The invoker state machine.
#[derive(Debug)]
pub struct InvokerState {
    /// Slot index in the platform's invoker table.
    pub index: InvokerIndex,
    /// True between deploy and eviction.
    pub alive: bool,
    /// True once the 30-second eviction warning arrived.
    pub warned: bool,
    /// When the warning arrived (for migration grace budgeting).
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
    /// Invocation parked in each starting container.
    starting: BTreeMap<u64, Invocation>,
    /// Invocations accepted but not yet started (admission / memory).
    queue: VecDeque<Invocation>,
    running: BTreeMap<u64, RunningInvocation>,
    completion_timer: Option<EventId>,
    /// The `(time, job)` pair the completion timer is armed for. Kept so
    /// `rearm_completion` can skip the cancel + reschedule when the PS
    /// queue's next completion has not actually changed — on a hot path
    /// (every deliver/resize/drain) this avoids most calendar churn.
    armed: Option<(SimTime, JobId)>,
    memory_used: u64,
    next_container: u64,
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
    /// TTL to arm when each in-flight prewarmed container becomes warm.
    prewarming: BTreeMap<u64, SimDuration>,
    /// Prewarm containers this invoker spawned.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers destroyed without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·s — the "wasted warm
    /// memory" axis of the policy grid. Idle spans still open at run end
    /// are censored.
    pub idle_mib_secs: f64,
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
}

impl InvokerState {
    /// Creates a not-yet-deployed invoker slot.
    pub fn new(index: InvokerIndex, memory_mb: u64) -> Self {
        InvokerState {
            index,
            alive: false,
            warned: false,
            warned_at: None,
            memory_mb,
            dropped_completions: 0,
            allocated_cpus: 0,
            derate: 1.0,
            ps: PsQueue::new(0.0),
            containers: ContainerStore::default(),
            starting: BTreeMap::new(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            completion_timer: None,
            armed: None,
            memory_used: 0,
            next_container: 0,
            starting_cap: 0.0,
            cold_starts: 0,
            warm_starts: 0,
            policy: Box::new(FixedKeepAlive),
            prewarm_requests: Vec::new(),
            prewarming: BTreeMap::new(),
            prewarm_spawns: 0,
            prewarm_hits: 0,
            wasted_prewarms: 0,
            idle_mib_secs: 0.0,
            tel_enabled: false,
            tel: Vec::new(),
            hops: IdMap::default(),
            seq: 0,
            slot: None,
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
        self.warned = false;
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
            eviction_pending: self.warned,
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

    fn container_id(&mut self) -> u64 {
        let id = (u64::from(self.index) << 32) | self.next_container;
        self.next_container += 1;
        id
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
            if let Some(cid) = self.containers.find_idle(front.function) {
                self.queue.pop_front();
                self.start_warm(now, cid, front, cal);
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
                Some(cid) => self.destroy_container(now, cid, cal),
                None => return false,
            }
        }
        true
    }

    fn destroy_container(&mut self, now: SimTime, cid: u64, cal: &mut impl EventCalendar<Event>) {
        let c = self
            .containers
            .remove(cid)
            .expect("destroying unknown container");
        debug_assert_eq!(
            c.state,
            ContainerState::Idle,
            "destroyed a non-idle container"
        );
        if let Some(ev) = c.keepalive {
            cal.cancel(ev);
        }
        self.idle_mib_secs += now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
        if c.prewarmed && c.served == 0 {
            self.wasted_prewarms += 1;
        }
        self.memory_used -= c.memory_mb;
    }

    fn start_warm(
        &mut self,
        now: SimTime,
        cid: u64,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let c = self.containers.get_mut(cid).expect("warm container exists");
        if let Some(ev) = c.keepalive.take() {
            cal.cancel(ev);
        }
        c.state = ContainerState::Busy;
        if c.prewarmed && c.served == 0 {
            self.prewarm_hits += 1;
        }
        self.idle_mib_secs += now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
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
        self.running.insert(
            cid,
            RunningInvocation {
                invocation,
                cold: false,
                exec_start: now,
            },
        );
    }

    fn start_cold(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        let cid = self.container_id();
        self.containers.insert(Container {
            id: cid,
            function: invocation.function,
            memory_mb: invocation.memory_mb,
            state: ContainerState::Starting,
            last_used: now,
            keepalive: None,
            prewarmed: false,
            served: 0,
        });
        self.memory_used += invocation.memory_mb;
        self.cold_starts += 1;
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ColdStartBegin));
        }
        self.starting.insert(cid, invocation);
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
        let Some(invocation) = self.starting.remove(&cid) else {
            // Container destroyed by eviction handling; same accounting.
            self.dropped_completions += 1;
            return;
        };
        self.starting_cap = (self.starting_cap - invocation.cpu_demand).max(0.0);
        let c = self
            .containers
            .get_mut(cid)
            .expect("starting container exists");
        c.state = ContainerState::Busy;
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
        self.running.insert(
            cid,
            RunningInvocation {
                invocation,
                cold: true,
                exec_start: now,
            },
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
        self.completion_timer = None;
        self.armed = None;
        self.ps.advance(now);
        let done = self.ps.take_completed(COMPLETION_SLACK);
        let mut finished = Vec::with_capacity(done.len());
        let mut reap_now: Vec<u64> = Vec::new();
        for JobId(cid) in done {
            let run = self
                .running
                .remove(&cid)
                .expect("completed job has a running record");
            let function = run.invocation.function;
            // Ask the lifecycle policy what to do with the idle
            // container. The peer count excludes this one (still Busy)
            // and is only taken for a policy that reads it.
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
            let c = self
                .containers
                .get_mut(cid)
                .expect("completed job has a container");
            c.state = ContainerState::Idle;
            c.last_used = now;
            c.served += 1;
            match decision.keep_alive {
                Some(ttl) => {
                    c.keepalive = Some(cal.schedule(
                        now.saturating_add(ttl),
                        Event::KeepAliveExpired {
                            invoker: self.index,
                            container: cid,
                        },
                    ));
                }
                // Zero keep-alive: reap after the drain pass below, so
                // same-tick queued work may still reuse the container.
                None => reap_now.push(cid),
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
        for cid in reap_now {
            if self
                .containers
                .get(cid)
                .is_some_and(|c| c.state == ContainerState::Idle)
            {
                self.destroy_container(now, cid, cal);
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
        if !self.alive || self.warned {
            return false;
        }
        // An idle or starting container for the function makes the
        // order moot (the keep-alive outlived the prediction, or an
        // invocation already cold-started one).
        if self
            .containers
            .iter()
            .any(|c| c.function == function && c.state != ContainerState::Busy)
        {
            return false;
        }
        if !self.make_room(now, memory_mb, cal) {
            return false;
        }
        let cid = self.container_id();
        self.containers.insert(Container {
            id: cid,
            function,
            memory_mb,
            state: ContainerState::Starting,
            last_used: now,
            keepalive: None,
            prewarmed: true,
            served: 0,
        });
        self.memory_used += memory_mb;
        self.prewarm_spawns += 1;
        self.prewarming.insert(cid, ttl);
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
        let Some(ttl) = self.prewarming.remove(&cid) else {
            self.dropped_completions += 1;
            return;
        };
        let c = self
            .containers
            .get_mut(cid)
            .expect("prewarming container exists");
        debug_assert_eq!(c.state, ContainerState::Starting);
        c.state = ContainerState::Idle;
        c.last_used = now;
        c.keepalive = Some(cal.schedule(
            now.saturating_add(ttl),
            Event::KeepAliveExpired {
                invoker: self.index,
                container: cid,
            },
        ));
        self.drain(now, cal, cfg);
    }

    /// Reaps an idle container whose keep-alive expired.
    pub fn keepalive_expired(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if !self.alive {
            return;
        }
        // The timer may have been cancelled logically but already popped;
        // only reap genuinely idle containers.
        if let Some(c) = self.containers.get_mut(cid) {
            if c.state == ContainerState::Idle {
                c.keepalive = None;
                self.destroy_container(now, cid, cal);
            }
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
            self.warned = true;
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
        self.warned = false;
        self.warned_at = None;
        self.ps.advance(now);
        if let Some(ev) = self.completion_timer.take() {
            cal.cancel(ev);
        }
        self.armed = None;
        for c in self.containers.iter() {
            if let Some(ev) = c.keepalive {
                cal.cancel(ev);
            }
            // Close the idle spans and charge speculative spawns that the
            // eviction kills before they ever served.
            if c.state == ContainerState::Idle {
                self.idle_mib_secs +=
                    now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
            }
            if c.prewarmed && c.served == 0 {
                self.wasted_prewarms += 1;
            }
        }
        self.prewarming.clear();
        self.prewarm_requests.clear();
        self.hops.clear();
        let mut started: Vec<RunningInvocation> =
            std::mem::take(&mut self.running).into_values().collect();
        for (_, invocation) in std::mem::take(&mut self.starting) {
            started.push(RunningInvocation {
                invocation,
                cold: true,
                exec_start: now,
            });
        }
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
        self.running.get(&cid)
    }

    /// Lists running invocations whose remaining demand exceeds
    /// `min_remaining_secs` — the migration candidates when the eviction
    /// warning arrives. Returns `(container, remaining_secs, memory_mb)`.
    pub fn migration_candidates(
        &mut self,
        now: SimTime,
        min_remaining_secs: f64,
    ) -> Vec<(u64, f64, u64)> {
        if !self.alive {
            return Vec::new();
        }
        self.ps.advance(now);
        self.running
            .iter()
            .filter_map(|(&cid, run)| {
                let remaining = self.ps.remaining(JobId(cid))?;
                if remaining / run.invocation.cpu_demand > min_remaining_secs {
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
        let run = self.running.remove(&cid)?;
        let c = self
            .containers
            .remove(cid)
            .expect("running container exists");
        debug_assert_eq!(c.state, ContainerState::Busy);
        self.memory_used -= c.memory_mb;
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
        let cid = self.container_id();
        self.containers.insert(Container {
            id: cid,
            function: run.invocation.function,
            memory_mb: run.invocation.memory_mb,
            state: ContainerState::Busy,
            last_used: now,
            keepalive: None,
            prewarmed: false,
            served: 1,
        });
        self.memory_used += run.invocation.memory_mb;
        self.ps
            .add(JobId(cid), remaining, run.invocation.cpu_demand);
        self.running.insert(cid, run);
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
        match self.ps.next_completion() {
            Some(next) => {
                if self.completion_timer.is_some() && self.armed == Some(next) {
                    return;
                }
                if let Some(ev) = self.completion_timer.take() {
                    cal.cancel(ev);
                }
                self.completion_timer = Some(cal.schedule(
                    next.0,
                    Event::Completion {
                        invoker: self.index,
                    },
                ));
                self.armed = Some(next);
            }
            None => {
                if let Some(ev) = self.completion_timer.take() {
                    cal.cancel(ev);
                }
                self.armed = None;
            }
        }
    }
}

/// The entity layer: one handler per invoker-bound [`Event`]. A handler
/// owns this invoker and nothing else; the calendar, the config and the
/// sinks come through `ctx`.
impl InvokerState {
    /// Builds the invoker for a platform slot, with the lifecycle policy
    /// and the span switch the config asks for.
    pub(crate) fn for_slot(index: InvokerIndex, slot: SlotSource, cfg: &PlatformConfig) -> Self {
        let memory_mb = match &slot {
            SlotSource::Trace(vm) => vm.memory_mb,
            SlotSource::Monitor(t) => t.memory_mb,
        };
        InvokerState {
            policy: cfg.coldstart.build(),
            tel_enabled: cfg.telemetry.enabled(),
            slot: Some(slot),
            ..InvokerState::new(index, memory_mb)
        }
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
            Event::KeepAliveExpired { container, .. } => {
                self.keepalive_expired(now, container, ctx.cal);
            }
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
            Event::Ping { .. } => self.on_ping(ctx),
            Event::VmDeploy { .. } => self.on_deploy(ctx),
            Event::SpawnVm { .. } => {
                // The router has just made this slot; join the shared
                // sampling grid, then come up like any other VM.
                if !cfg.sample_interval.is_zero() {
                    let invoker = self.index;
                    let at = first_sample_at(now, cfg.sample_interval);
                    ctx.cal.schedule(at, Event::Sample { invoker });
                }
                self.on_deploy(ctx);
            }
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
            Event::Sample { invoker } => {
                // One tick on the shared utilization-sampling grid. The
                // partial rows are coalesced into fleet-wide samples after
                // the run (after cross-shard merge), summed in invoker
                // order so the totals are bit-identical for every shard
                // count. The chain dies with the invoker.
                if !self.alive {
                    return;
                }
                let used = self.snapshot().cpus_in_use;
                ctx.metrics
                    .push_partial_sample(now, invoker, self.cpus(), used);
                ctx.cal
                    .schedule_after(cfg.sample_interval, Event::Sample { invoker });
            }
            other => unreachable!("{other:?} is not addressed to an invoker"),
        }
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
            let latency = now.since(inv.arrival).as_secs_f64();
            let exec = now.since(run.exec_start).as_secs_f64();
            if run.cold {
                ctx.metrics.cold_starts += 1;
            } else {
                ctx.metrics.warm_starts += 1;
            }
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
            ctx.metrics.push(InvocationRecord {
                id: inv.id,
                arrival: inv.arrival,
                finished: now,
                latency_secs: latency,
                exec_secs: exec,
                cold: run.cold,
                exec_started: true,
                outcome: Outcome::Completed,
            });
            let report = CompletionReport {
                function: inv.function,
                invocation: inv.id,
                memory_mb: inv.memory_mb,
                exec_duration: SimDuration::from_secs_f64(exec),
                // Reported as the cgroup's cores-while-running reading.
                cpu_cores: inv.cpu_demand,
                cold: run.cold,
                arrival: inv.arrival,
            };
            let invoker = self.index;
            self.send(ctx.cfg.bus_latency, Event::Report { invoker, report }, ctx);
        }
    }

    fn on_ping<C: EventCalendar<Event>>(&mut self, ctx: &mut Ctx<'_, C>) {
        if !self.alive {
            return;
        }
        let (invoker, snap) = (self.index, self.snapshot());
        // Every replica tracks the full fleet, so pings fan out to all of
        // them.
        ctx.broadcast(
            self.entity(),
            &mut self.seq,
            ctx.cfg.bus_latency,
            |replica| Event::PingReport {
                invoker,
                snap,
                replica,
            },
        );
        ctx.cal
            .schedule_after(ctx.cfg.ping_interval, Event::Ping { invoker });
    }

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
        ctx.cal
            .schedule_after(ctx.cfg.ping_interval, Event::Ping { invoker });
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
        let m = ctx.cfg.migration;
        if !m.enabled {
            return;
        }
        let Some(warned_at) = self.warned_at else {
            return; // raced with the eviction itself
        };
        if ctx.now >= warned_at + EVICTION_GRACE {
            return;
        }
        for (container, _remaining, memory_mb) in
            self.migration_candidates(ctx.now, m.min_remaining_secs)
        {
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
                Event::KeepAliveExpired { container, .. } => {
                    iv.keepalive_expired(ev.at, container, cal);
                }
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
        assert!(iv.idle_mib_secs > 0.0);
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
        assert_eq!(lazy.idle_mib_secs, filled.idle_mib_secs);
    }

    /// The `BTreeMap<u64, Container>` the slab replaced, with the scans
    /// written as the invoker used to write them.
    #[derive(Default)]
    struct ModelStore(BTreeMap<u64, Container>);

    impl ModelStore {
        fn find_idle(&self, function: FunctionId) -> Option<u64> {
            self.0
                .values()
                .find(|c| c.state == ContainerState::Idle && c.function == function)
                .map(|c| c.id)
        }

        fn idle_peers(&self, function: FunctionId) -> usize {
            self.0
                .values()
                .filter(|c| c.state == ContainerState::Idle && c.function == function)
                .count()
        }

        fn lru_idle(&self) -> Option<u64> {
            self.0
                .values()
                .filter(|c| c.state == ContainerState::Idle)
                .min_by_key(|c| (c.last_used, c.id))
                .map(|c| c.id)
        }
    }

    fn container(id: u64, app: u32, state: ContainerState, last_used: u64) -> Container {
        Container {
            id,
            function: fid(app),
            memory_mb: 256,
            state,
            last_used: SimTime::from_secs(last_used),
            keepalive: None,
            prewarmed: false,
            served: 0,
        }
    }

    proptest! {
        /// The slab against the map it replaced under random inserts,
        /// removals and state flips: the same warm container from
        /// `find_idle`, the same peer count, the same LRU victim (few
        /// distinct `last_used` values, so id tie-breaks are exercised)
        /// and the same contents in the same order after every step.
        #[test]
        fn container_store_matches_btreemap_model(
            ops in prop::collection::vec((0u32..6, 0u32..4, (0usize..3, 0u64..3), 0usize..64), 1..150),
        ) {
            const STATES: [ContainerState; 3] =
                [ContainerState::Starting, ContainerState::Busy, ContainerState::Idle];
            let mut store = ContainerStore::default();
            let mut model = ModelStore::default();
            let mut next_id = 7u64 << 32;
            for (op, app, (state, last_used), pick) in ops {
                let state = STATES[state];
                let picked = model.0.keys().nth(pick % (model.0.len() + 1)).copied();
                match (op, picked) {
                    (0..=2, _) => {
                        store.insert(container(next_id, app, state, last_used));
                        model.0.insert(next_id, container(next_id, app, state, last_used));
                        next_id += 1;
                    }
                    (3, Some(cid)) => {
                        let (a, b) = (store.remove(cid), model.0.remove(&cid));
                        prop_assert_eq!(a.map(|c| c.id), b.map(|c| c.id));
                    }
                    (_, Some(cid)) => {
                        for c in [store.get_mut(cid).unwrap(), model.0.get_mut(&cid).unwrap()] {
                            c.state = state;
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
                let slab: Vec<(u64, ContainerState)> = store.iter().map(|c| (c.id, c.state)).collect();
                let map: Vec<(u64, ContainerState)> = model.0.values().map(|c| (c.id, c.state)).collect();
                prop_assert_eq!(slab, map);
            }
        }
    }
}
