//! Platform-side telemetry plumbing: the per-world [`TelemetrySink`].
//!
//! The sink owns this world's slice of the flight recorder. It is a
//! strict no-op when built from [`TelemetryConfig::Off`]: no ring
//! allocation, no calendar or RNG interaction — disabled runs stay
//! byte-identical to a build without the sink (pinned by the golden
//! fingerprints in `tests/determinism.rs`). The invocation-scoped
//! bookkeeping the phase attribution needs — the [`Hop`] — is not here:
//! it belongs to the invoker holding the invocation.

use hrv_telemetry::{FlightRecorder, SpanKind, TelemetryConfig};
use hrv_trace::time::SimTime;

/// Bus-hop timestamps of the dispatch that put an invocation on its
/// invoker. The invoker notes it at delivery, takes it at completion,
/// drops it with the rest of its state when the VM dies and ships it with
/// a migrating invocation, so the attempt that eventually completes is
/// the one the phase split describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// When the controller put the dispatch on the bus.
    pub sent_at: SimTime,
    /// When the invoker took it off the bus.
    pub delivered_at: SimTime,
}

/// One world's telemetry state. Sharded runs hold one sink per shard;
/// the recorders merge disjointly because every entity records on
/// exactly one shard.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    enabled: bool,
    /// The bounded per-entity span rings.
    pub recorder: FlightRecorder,
}

impl TelemetrySink {
    /// Builds the sink from the platform config's telemetry knob.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        TelemetrySink {
            enabled: cfg.enabled(),
            recorder: FlightRecorder::new(cfg.ring_capacity()),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one span event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, entity: u32, at: SimTime, invocation: u64, kind: SpanKind) {
        if self.enabled {
            self.recorder.record(entity, at, invocation, kind);
        }
    }

    /// Drains an invoker's buffered span events into the recorder under
    /// the invoker's entity id. The buffer stays empty (and allocation-
    /// free) for disabled runs because invokers only push when enabled.
    pub fn drain(&mut self, entity: u32, buf: &mut Vec<(SimTime, u64, SpanKind)>) {
        if buf.is_empty() {
            return;
        }
        for (at, invocation, kind) in buf.drain(..) {
            self.recorder.record(entity, at, invocation, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TelemetrySink::new(&TelemetryConfig::Off);
        s.record(0, SimTime::from_micros(1), 7, SpanKind::Arrival);
        assert!(s.recorder.is_empty());
    }

    #[test]
    fn drain_moves_buffered_events_under_the_entity() {
        let mut s = TelemetrySink::new(&TelemetryConfig::on());
        let mut buf = vec![(
            SimTime::from_micros(5),
            9,
            SpanKind::ExecBegin { cold: true },
        )];
        s.drain(4, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(s.recorder.len(), 1);
        assert_eq!(s.recorder.canonical_events()[0].entity, 4);
    }
}
