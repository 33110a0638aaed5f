//! The platform's event vocabulary.
//!
//! Every interaction in the system — client arrivals, controller↔invoker
//! messages, container lifecycle timers, VM resizes and evictions, and
//! periodic monitors — is one of these events on the shared calendar.

use hrv_lb::owner_of;
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::VmTemplate;
use crate::invoker::{HealthSnapshot, RunningInvocation};
use crate::mailbox::{invoker_entity, replica_entity, EntityId, CONTROLLER};
use crate::telemetry::Hop;

/// Index of a controller replica (`0 <= replica < replicas`). Replica 0
/// is the classic controller; with one replica every `replica` field in
/// this module is zero and the event stream is byte-identical to the
/// pre-replication platform.
pub type ReplicaIndex = u32;

/// One invoker's pending placement-charge delta, broadcast between
/// controller replicas inside [`Event::ViewDelta`] envelopes so each
/// replica's `ClusterView` accounts for its peers' in-flight placements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewDeltaRow {
    /// The invoker whose charges changed.
    pub invoker: InvokerIndex,
    /// Change in reserved-but-unreported memory, MiB (may be negative:
    /// completions release charges).
    pub memory_pending_mb: i64,
    /// Change in in-flight invocation count.
    pub inflight: i64,
    /// Change in in-flight CPU-seconds of expected demand.
    pub inflight_demand_secs: f64,
}

/// Index of an invoker in the platform's invoker table (stable for the
/// whole run; dead invokers keep their slot).
pub type InvokerIndex = u32;

/// Why an invocation's current placement was destroyed — determines the
/// detection delay before recovery can re-dispatch it. Travels inside
/// [`Event::WorkLost`] messages from invoker shards to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The hosting VM was evicted (warned or not); the controller learns
    /// of the death from ping loss after one ping interval.
    Eviction,
    /// Crash-stop kill: nothing announces the death, so detection waits
    /// for the health-probe timeout.
    Crash,
    /// The dispatch message landed on an already-dead invoker; silence
    /// until the probe timeout.
    DeadDelivery,
    /// The dispatch message itself was lost. The controller's send is
    /// fire-and-forget, so recovery re-rolls immediately (modeling an
    /// at-least-once bus retry) with only the backoff delay.
    DispatchDrop,
}

/// What an invoker tells the controller when an invocation finishes
/// (Section 6.2: the response carries measured duration and CPU usage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionReport {
    /// The finished invocation's function.
    pub function: FunctionId,
    /// The invocation id (for metrics joins).
    pub invocation: u64,
    /// Memory the placement had reserved, MiB.
    pub memory_mb: u64,
    /// Measured execution duration (queueing at the invoker excluded).
    pub exec_duration: SimDuration,
    /// Measured CPU usage in cores.
    pub cpu_cores: f64,
    /// Whether this invocation cold-started.
    pub cold: bool,
    /// When the invocation originally arrived at the controller.
    pub arrival: SimTime,
}

/// Every event the platform world can process.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A client request reaches the controller (through NGINX).
    Arrival(Invocation),
    /// The controller's placement message reaches an invoker.
    Deliver {
        /// Target invoker.
        invoker: InvokerIndex,
        /// The invocation being delivered.
        invocation: Invocation,
        /// When the controller put this dispatch on the bus. Rides in the
        /// event payload (payloads are not fingerprinted) so the
        /// invoker-owning shard can attribute the bus hop without a
        /// cross-shard lookup.
        sent_at: SimTime,
    },
    /// A cold container finished starting and can begin execution.
    StartupDone {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The container that finished starting.
        container: u64,
    },
    /// The invoker's processor-sharing queue predicts a completion now.
    Completion {
        /// The invoker whose queue should be checked.
        invoker: InvokerIndex,
    },
    /// An idle container's keep-alive expired.
    KeepAliveExpired {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The idle container to reap.
        container: u64,
    },
    /// A cold-start policy's prewarm order arrives at the invoker:
    /// spawn a container for `function` ahead of its predicted next
    /// arrival. Travels as a cross-entity envelope (delay at least one
    /// bus hop) so sharded runs deliver it in canonical order.
    Prewarm {
        /// Target invoker.
        invoker: InvokerIndex,
        /// The function to pre-spawn a container for.
        function: FunctionId,
        /// Memory footprint of the container, MiB.
        memory_mb: u64,
        /// Keep-alive TTL to arm once the container is warm.
        ttl: SimDuration,
    },
    /// A prewarmed container finished its cold start and parks as idle
    /// (invoker-local timer, like [`Event::StartupDone`]).
    PrewarmReady {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The container that finished warming.
        container: u64,
    },
    /// An invoker's periodic health-ping timer fires (invoker-local; the
    /// snapshot travels to the controller as [`Event::PingReport`]).
    Ping {
        /// The pinging invoker.
        invoker: InvokerIndex,
    },
    /// A health-ping snapshot reaches a controller replica, one bus hop
    /// after the invoker's [`Event::Ping`] timer fired. Broadcast: every
    /// replica receives its own copy so all cluster views track fleet
    /// health.
    PingReport {
        /// The pinging invoker.
        invoker: InvokerIndex,
        /// Health reading taken at ping time.
        snap: HealthSnapshot,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// An invoker's completion report reaches the controller.
    Report {
        /// The reporting invoker.
        invoker: InvokerIndex,
        /// The report payload.
        report: CompletionReport,
    },
    /// A controller replica learns an invoker is gone (ping loss after
    /// eviction). Broadcast to every replica.
    InvokerDown {
        /// The dead invoker.
        invoker: InvokerIndex,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// A VM (trace-driven or monitor-deployed) becomes ready.
    VmDeploy {
        /// The invoker slot coming online.
        invoker: InvokerIndex,
    },
    /// A controller replica learns a freshly deployed invoker is up, one
    /// bus hop after [`Event::VmDeploy`] ran on the invoker's shard.
    /// Broadcast to every replica.
    DeployNotice {
        /// The invoker that came online.
        invoker: InvokerIndex,
        /// CPUs it deployed with.
        cpus: u32,
        /// Memory it deployed with, MiB.
        memory_mb: u64,
        /// Whether the resource monitor requested this VM (releases the
        /// monitor's pending-CPU reservation; replica 0 runs the
        /// monitor).
        from_monitor: bool,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// The resource monitor's deploy order reaches the shard owning the
    /// new invoker slot after the template's deploy delay; the receiving
    /// shard materializes the slot and brings it up.
    SpawnVm {
        /// The invoker slot to create (controller-assigned, globally
        /// unique).
        invoker: InvokerIndex,
        /// What to deploy.
        template: VmTemplate,
    },
    /// An invoker shard tells the controller that in-flight work was
    /// destroyed (eviction, crash, or a delivery that found a corpse);
    /// the controller decides between re-dispatch and a loss record.
    WorkLost {
        /// The destroyed invocation.
        invocation: Invocation,
        /// Whether execution had begun.
        exec_started: bool,
        /// Whether it had cold-started.
        cold: bool,
        /// How the placement was destroyed.
        cause: LossCause,
    },
    /// The hosting VM's CPU allocation changed.
    VmCpu {
        /// Affected invoker.
        invoker: InvokerIndex,
        /// New CPU count.
        cpus: u32,
    },
    /// The hosting VM received its 30-second eviction warning.
    VmWarn {
        /// Affected invoker.
        invoker: InvokerIndex,
    },
    /// The hosting VM was evicted; everything on it dies.
    VmEvict {
        /// Affected invoker.
        invoker: InvokerIndex,
    },
    /// Deferred migration planning after an eviction warning (waits one
    /// ping round so other warned VMs are visible in the view).
    MigratePlan {
        /// The warned invoker to plan for.
        invoker: InvokerIndex,
    },
    /// A warned invoker asks the replica owning the invocation's function
    /// to resolve a live migration: pick a destination from the owner's
    /// cluster view and check the transfer fits the eviction grace.
    MigrateAsk {
        /// Source invoker (under eviction warning).
        src: InvokerIndex,
        /// Container id of the migrating invocation on the source.
        container: u64,
        /// The migrating invocation's function (routes to its owner).
        function: FunctionId,
        /// The invocation id (for controller bookkeeping joins).
        invocation: u64,
        /// Container memory footprint, MiB (sizes the state transfer).
        memory_mb: u64,
        /// When the source VM received its eviction warning (anchors the
        /// grace-period deadline at the deciding replica).
        warned_at: SimTime,
    },
    /// The owning replica's go-ahead reaches the warned source invoker:
    /// extract the running invocation and ship it to `dst`.
    MigrateExtract {
        /// Source invoker.
        src: InvokerIndex,
        /// Destination invoker chosen by the owning replica.
        dst: InvokerIndex,
        /// Container id to extract on the source.
        container: u64,
        /// State-transfer time (setup + per-GiB copy); the implant
        /// envelope travels with this delay.
        transfer: SimDuration,
    },
    /// A live migration's state transfer finishes at the destination:
    /// implant the extracted invocation and resume it.
    MigrateImplant {
        /// Destination invoker.
        dst: InvokerIndex,
        /// Source invoker (for the bounce path if the implant fails).
        src: InvokerIndex,
        /// The extracted running-invocation state. Boxed: migrations are
        /// rare and this is by far the largest payload, which every
        /// calendar slot would otherwise be sized for.
        run: Box<RunningInvocation>,
        /// Remaining CPU-seconds of demand at extraction time.
        remaining: f64,
        /// The dispatch hop the source noted at delivery (telemetry-enabled
        /// runs), so the phase row is cut where the invocation finishes.
        hop: Option<Hop>,
    },
    /// A failed implant bounces the extracted invocation back to its
    /// source, which re-implants it (or reports it lost if the source is
    /// already gone).
    MigrateBounce {
        /// The original source invoker.
        src: InvokerIndex,
        /// The extracted running-invocation state.
        run: Box<RunningInvocation>,
        /// Remaining CPU-seconds of demand.
        remaining: f64,
        /// The dispatch hop, on its way back with the state.
        hop: Option<Hop>,
    },
    /// A successful implant notifies the owning replica so its in-flight
    /// bookkeeping follows the invocation to the destination.
    MigrateCommit {
        /// The invocation id that moved.
        invocation: u64,
        /// Its function (routes to the owning replica).
        function: FunctionId,
        /// The destination invoker now hosting it.
        dst: InvokerIndex,
    },
    /// Fault injection: the VM dies crash-stop, with no warning and no
    /// notification — unlike [`Event::VmEvict`], nothing else is
    /// scheduled; detection is the health-probe machinery's job.
    FaultCrash {
        /// The killed invoker.
        invoker: InvokerIndex,
    },
    /// Fault injection: the invoker's effective PS capacity becomes
    /// `factor` of its allocated CPUs (`factor == 1.0` ends the window).
    FaultStraggler {
        /// Affected invoker.
        invoker: InvokerIndex,
        /// Fraction of allocated CPUs actually progressing.
        factor: f64,
    },
    /// Fault injection: the controller's cluster view freezes (pings are
    /// dropped) or thaws.
    FaultViewFreeze {
        /// `true` opens a staleness window, `false` closes it.
        frozen: bool,
    },
    /// Recovery: re-route an invocation whose previous placement was
    /// destroyed (unwarned kill, eviction, dead delivery) or whose
    /// dispatch message was lost. Fires after detection plus backoff.
    Redispatch {
        /// The invocation to route again.
        invocation: Invocation,
    },
    /// Recovery: a controller replica's periodic health-probe sweep,
    /// which quarantines silent invokers and removes long-dead ones.
    /// Each replica sweeps its own view on its own (identical) schedule.
    HealthSweep {
        /// The sweeping replica.
        replica: ReplicaIndex,
    },
    /// A controller replica retries its queue of unplaced invocations.
    RetryQueue {
        /// The retrying replica.
        replica: ReplicaIndex,
    },
    /// The resource monitor checks the capacity floor (replica 0 only).
    MonitorTick,
    /// Metrics sampling tick for one invoker's utilization contribution.
    /// Per-invoker (not fleet-wide) so the event count is independent of
    /// how invokers are partitioned over shards; partial samples are
    /// coalesced into fleet-total rows when runs are merged.
    Sample {
        /// The sampled invoker.
        invoker: InvokerIndex,
    },
    /// A controller replica's periodic view-reconciliation timer: when
    /// its pending placement-charge deltas are non-empty, it broadcasts
    /// them to peers as [`Event::ViewDelta`] envelopes. Only scheduled
    /// when more than one replica exists.
    ReconcileTick {
        /// The reconciling replica.
        replica: ReplicaIndex,
    },
    /// A peer replica's placement-charge deltas arrive: apply them to
    /// the local cluster view. Load-only updates — placeability epochs
    /// are untouched, so the MWS covering-set cache stays warm.
    ViewDelta {
        /// The receiving replica.
        replica: ReplicaIndex,
        /// Per-invoker charge deltas, in ascending invoker order.
        deltas: Vec<ViewDeltaRow>,
    },
}

impl Event {
    /// The entity that handles this event: the platform's one routing
    /// table. The router dispatches on it and `Ctx::send` addresses
    /// envelopes with it, so a payload cannot be sent to an entity other
    /// than the one that will handle it. Placement-path events go to the
    /// replica owning the function; broadcast copies and replica timers
    /// name their replica; the monitor and the view-freeze fault are
    /// replica 0's; everything else names its invoker.
    pub(crate) fn target(&self, replicas: u32) -> EntityId {
        match self {
            Event::Arrival(invocation)
            | Event::Redispatch { invocation }
            | Event::WorkLost { invocation, .. } => {
                replica_entity(owner_of(replicas, invocation.function))
            }
            Event::Report { report, .. } => replica_entity(owner_of(replicas, report.function)),
            Event::MigrateAsk { function, .. } | Event::MigrateCommit { function, .. } => {
                replica_entity(owner_of(replicas, *function))
            }
            Event::PingReport { replica, .. }
            | Event::InvokerDown { replica, .. }
            | Event::DeployNotice { replica, .. }
            | Event::ViewDelta { replica, .. }
            | Event::HealthSweep { replica }
            | Event::RetryQueue { replica }
            | Event::ReconcileTick { replica } => replica_entity(*replica),
            Event::MonitorTick | Event::FaultViewFreeze { .. } => CONTROLLER,
            Event::Deliver { invoker, .. }
            | Event::StartupDone { invoker, .. }
            | Event::Completion { invoker }
            | Event::KeepAliveExpired { invoker, .. }
            | Event::Prewarm { invoker, .. }
            | Event::PrewarmReady { invoker, .. }
            | Event::Ping { invoker }
            | Event::VmDeploy { invoker }
            | Event::SpawnVm { invoker, .. }
            | Event::VmCpu { invoker, .. }
            | Event::VmWarn { invoker }
            | Event::VmEvict { invoker }
            | Event::MigratePlan { invoker }
            | Event::FaultCrash { invoker }
            | Event::FaultStraggler { invoker, .. }
            | Event::Sample { invoker } => invoker_entity(*invoker),
            Event::MigrateExtract { src, .. } | Event::MigrateBounce { src, .. } => {
                invoker_entity(*src)
            }
            Event::MigrateImplant { dst, .. } => invoker_entity(*dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Entity;
    use hrv_trace::faas::AppId;

    const FUNCTION: FunctionId = FunctionId {
        app: AppId(7),
        func: 1,
    };
    const T: SimTime = SimTime::ZERO;

    fn invocation() -> Invocation {
        Invocation {
            id: 1,
            function: FUNCTION,
            arrival: T,
            duration: SimDuration::from_secs(1),
            memory_mb: 256,
            cpu_demand: 1.0,
        }
    }

    /// What DESIGN.md's message taxonomy (and its list of entity-local
    /// timers) says handles `ev`, and a value of the variant declared after
    /// `ev`'s. The match has no wildcard, so a new variant does not compile
    /// until it has a row here — and the walk below then holds
    /// `Event::target` to it.
    fn row(ev: &Event, replicas: u32) -> (Entity, Option<Event>) {
        let owner = Entity::Replica(owner_of(replicas, FUNCTION));
        // Broadcast copies and replica timers name the last replica;
        // invoker events name invoker 5, migrations run 5 -> 9.
        let replica = replicas - 1;
        let named = Entity::Replica(replica);
        let (invoker, src, dst) = (5, 5, 9);
        let on_invoker = Entity::Invoker(invoker);
        let invocation = invocation();
        let run = Box::new(RunningInvocation {
            invocation,
            cold: false,
            exec_start: T,
        });
        let container = 0;
        let (expected, next) = match ev {
            Event::Arrival(_) => (
                owner,
                Event::Deliver {
                    invoker,
                    invocation,
                    sent_at: T,
                },
            ),
            Event::Deliver { .. } => (on_invoker, Event::StartupDone { invoker, container }),
            Event::StartupDone { .. } => (on_invoker, Event::Completion { invoker }),
            Event::Completion { .. } => {
                (on_invoker, Event::KeepAliveExpired { invoker, container })
            }
            Event::KeepAliveExpired { .. } => (
                on_invoker,
                Event::Prewarm {
                    invoker,
                    function: FUNCTION,
                    memory_mb: 256,
                    ttl: SimDuration::ZERO,
                },
            ),
            Event::Prewarm { .. } => (on_invoker, Event::PrewarmReady { invoker, container }),
            Event::PrewarmReady { .. } => (on_invoker, Event::Ping { invoker }),
            Event::Ping { .. } => (
                on_invoker,
                Event::PingReport {
                    invoker,
                    snap: HealthSnapshot {
                        cpus: 4,
                        cpus_in_use: 0.0,
                        memory_used_mb: 0,
                        eviction_pending: false,
                        pressure: 0.0,
                    },
                    replica,
                },
            ),
            Event::PingReport { .. } => (
                named,
                Event::Report {
                    invoker,
                    report: CompletionReport {
                        function: FUNCTION,
                        invocation: 1,
                        memory_mb: 256,
                        exec_duration: SimDuration::ZERO,
                        cpu_cores: 1.0,
                        cold: false,
                        arrival: T,
                    },
                },
            ),
            Event::Report { .. } => (owner, Event::InvokerDown { invoker, replica }),
            Event::InvokerDown { .. } => (named, Event::VmDeploy { invoker }),
            Event::VmDeploy { .. } => (
                on_invoker,
                Event::DeployNotice {
                    invoker,
                    cpus: 4,
                    memory_mb: 1024,
                    from_monitor: false,
                    replica,
                },
            ),
            Event::DeployNotice { .. } => (
                named,
                Event::SpawnVm {
                    invoker,
                    template: VmTemplate {
                        cpus: 4,
                        memory_mb: 1024,
                        deploy_delay: SimDuration::from_secs(60),
                    },
                },
            ),
            Event::SpawnVm { .. } => (
                on_invoker,
                Event::WorkLost {
                    invocation,
                    exec_started: false,
                    cold: false,
                    cause: LossCause::Crash,
                },
            ),
            Event::WorkLost { .. } => (owner, Event::VmCpu { invoker, cpus: 2 }),
            Event::VmCpu { .. } => (on_invoker, Event::VmWarn { invoker }),
            Event::VmWarn { .. } => (on_invoker, Event::VmEvict { invoker }),
            Event::VmEvict { .. } => (on_invoker, Event::MigratePlan { invoker }),
            Event::MigratePlan { .. } => (
                on_invoker,
                Event::MigrateAsk {
                    src,
                    container,
                    function: FUNCTION,
                    invocation: 1,
                    memory_mb: 256,
                    warned_at: T,
                },
            ),
            Event::MigrateAsk { .. } => (
                owner,
                Event::MigrateExtract {
                    src,
                    dst,
                    container,
                    transfer: SimDuration::from_secs(1),
                },
            ),
            Event::MigrateExtract { .. } => (
                Entity::Invoker(src),
                Event::MigrateImplant {
                    dst,
                    src,
                    run: run.clone(),
                    remaining: 1.0,
                    hop: None,
                },
            ),
            Event::MigrateImplant { .. } => (
                Entity::Invoker(dst),
                Event::MigrateBounce {
                    src,
                    run,
                    remaining: 1.0,
                    hop: None,
                },
            ),
            Event::MigrateBounce { .. } => (
                Entity::Invoker(src),
                Event::MigrateCommit {
                    invocation: 1,
                    function: FUNCTION,
                    dst,
                },
            ),
            Event::MigrateCommit { .. } => (owner, Event::FaultCrash { invoker }),
            Event::FaultCrash { .. } => (
                on_invoker,
                Event::FaultStraggler {
                    invoker,
                    factor: 0.5,
                },
            ),
            Event::FaultStraggler { .. } => (on_invoker, Event::FaultViewFreeze { frozen: true }),
            Event::FaultViewFreeze { .. } => (Entity::Replica(0), Event::Redispatch { invocation }),
            Event::Redispatch { .. } => (owner, Event::HealthSweep { replica }),
            Event::HealthSweep { .. } => (named, Event::RetryQueue { replica }),
            Event::RetryQueue { .. } => (named, Event::MonitorTick),
            Event::MonitorTick => (Entity::Replica(0), Event::Sample { invoker }),
            Event::Sample { .. } => (on_invoker, Event::ReconcileTick { replica }),
            Event::ReconcileTick { .. } => (
                named,
                Event::ViewDelta {
                    replica,
                    deltas: vec![],
                },
            ),
            Event::ViewDelta { .. } => return (named, None),
        };
        (expected, Some(next))
    }

    #[test]
    fn every_variant_routes_to_the_entity_the_taxonomy_names() {
        for replicas in [1u32, 4] {
            let mut walked = 0;
            let mut next = Some(Event::Arrival(invocation()));
            while let Some(ev) = next {
                let (expected, after) = row(&ev, replicas);
                let target = ev.target(replicas);
                assert_eq!(Entity::of(target), expected, "{ev:?} at R={replicas}");
                if replicas == 1 && matches!(expected, Entity::Replica(_)) {
                    assert_eq!(target, CONTROLLER, "{ev:?}: one replica is entity 0");
                }
                walked += 1;
                next = after;
            }
            assert_eq!(walked, 34, "the walk must visit every variant");
        }
        // The owner-routed rows are only a test if the owner is not
        // always replica 0.
        assert_ne!(owner_of(4, FUNCTION), 0);
    }
}
