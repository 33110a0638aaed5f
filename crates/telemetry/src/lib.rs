//! Deterministic telemetry for the harvest-FaaS platform.
//!
//! Everything in this crate is keyed on **simulation time** — never wall
//! clock — so an enabled run records the same spans on every machine and
//! for every shard count, and a disabled run is byte-identical to a build
//! without the crate at all. The pieces:
//!
//! * [`TelemetryConfig`] — the platform-level switch. `Off` (the default)
//!   must add zero events, zero RNG draws, and zero record changes.
//! * [`SpanEvent`] / [`SpanKind`] — per-invocation lifecycle points
//!   (arrival → dispatch → bus hop → queue → cold start → execution →
//!   completion / eviction / retry / re-dispatch).
//! * [`FlightRecorder`] — a bounded per-entity ring buffer of spans with a
//!   canonical `(time, entity, seq)` merge order, so the union of shard
//!   recorders is invariant under the shard count.
//! * [`PhaseRecord`] / [`LatencyAttribution`] — the additive decomposition
//!   of every end-to-end latency into scheduling, bus, queue, cold-start
//!   and execution phases (integer microseconds; the parts sum exactly).
//! * [`CounterRegistry`] — diagnostic counters that have no
//!   `MetricsCollector` field (skipped ping reports); each is a per-shard
//!   partial sum that adds on merge.
//! * [`perfetto`] — a Chrome/Perfetto trace-event JSON exporter.
//! * [`dump`] — crash-dump rendering of the flight recorder's last
//!   [`dump::DUMP_LAST`] events for conservation / determinism failures.

pub mod attribution;
pub mod counters;
pub mod dump;
pub mod perfetto;
pub mod recorder;
pub mod span;

pub use attribution::{LatencyAttribution, PhaseComponents, PhaseRecord};
pub use counters::{CounterId, CounterRegistry};
pub use recorder::FlightRecorder;
pub use span::{SpanEvent, SpanKind, NO_INVOCATION};

use serde::{Deserialize, Serialize};

/// Flight-recorder sizing for an enabled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightConfig {
    /// Span ring capacity per entity (controller or invoker). Old spans
    /// are evicted FIFO per entity, which keeps the *retained* set
    /// shard-invariant: an entity's ring always holds its own last
    /// `ring_capacity` spans no matter which shard recorded them.
    pub ring_capacity: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { ring_capacity: 256 }
    }
}

/// The platform telemetry switch.
///
/// `Off` is the hard zero-cost contract: golden-fingerprint tests pin a
/// disabled run byte-identical to a build that predates this crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryConfig {
    /// No spans, no phase records, empty flight recorder.
    #[default]
    Off,
    /// Record lifecycle spans into a bounded flight recorder and emit
    /// per-invocation phase breakdowns.
    Flight(FlightConfig),
}

impl TelemetryConfig {
    /// An enabled config with default sizing.
    pub fn on() -> Self {
        TelemetryConfig::Flight(FlightConfig::default())
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        matches!(self, TelemetryConfig::Flight(_))
    }

    /// Per-entity span ring capacity (zero when off).
    pub fn ring_capacity(&self) -> usize {
        match self {
            TelemetryConfig::Off => 0,
            TelemetryConfig::Flight(f) => f.ring_capacity as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg, TelemetryConfig::Off);
        assert!(!cfg.enabled());
        assert_eq!(cfg.ring_capacity(), 0);
    }

    #[test]
    fn on_has_sane_sizing() {
        let cfg = TelemetryConfig::on();
        assert!(cfg.enabled());
        assert!(cfg.ring_capacity() >= 64);
        const { assert!(dump::DUMP_LAST >= 16) };
    }

    #[test]
    fn config_round_trips_through_json() {
        for cfg in [TelemetryConfig::Off, TelemetryConfig::on()] {
            let s = serde_json::to_string(&cfg).unwrap();
            let back: TelemetryConfig = serde_json::from_str(&s).unwrap();
            assert_eq!(back, cfg);
        }
    }
}
