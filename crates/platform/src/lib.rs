//! # hrv-platform
//!
//! An OpenWhisk-like FaaS platform model running inside a deterministic
//! discrete-event simulation. Two kinds of entity do the work: controller
//! replicas (`replica`, wrapping [`controller`]: placement, fleet view,
//! health pings, recovery, the resource monitor) and invokers
//! ([`invoker`]: container pool, processor-sharing CPU contention,
//! admission control, VM resize and eviction handling). [`world`] wires a
//! cluster and a workload to them and routes each [`event`] to the one
//! entity it names; entities talk only through [`mailbox`] envelopes.
//! [`shard`] drives one world or several, [`metrics`] and [`telemetry`]
//! are what they write to, [`config`] what they read. The platform is the
//! testbed substitute for the paper's modified OpenWhisk deployment
//! (Section 6).

pub mod config;
pub mod controller;
pub mod event;
pub mod invoker;
pub mod mailbox;
pub mod metrics;
mod replica;
pub mod shard;
pub mod telemetry;
pub mod world;

/// Re-export of the telemetry crate so downstream crates (core, bench)
/// reach the flight recorder, span taxonomy, and exporters without a
/// direct dependency edge.
pub use hrv_telemetry as tel;

pub use config::{PlatformConfig, ResourceMonitorConfig, VmTemplate};
pub use hrv_telemetry::{FlightConfig, TelemetryConfig};
pub use metrics::{MetricsCollector, Outcome, RunMetrics};
pub use shard::ShardedSimulation;
pub use world::{ClusterSpec, PlatformWorld, SimOutput, Simulation};
