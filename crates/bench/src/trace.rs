//! The `experiments trace` exporter: one telemetry-enabled simulation of
//! the Section 7.2 asymmetric cluster, rendered as Chrome/Perfetto
//! trace-event JSON (`experiments trace --out run.json`). Load the file
//! in `chrome://tracing` or ui.perfetto.dev. Spans are keyed on
//! simulation time and merged in canonical `(time, entity, seq)` order,
//! so the JSON is byte-identical across machines and shard counts.

use harvest_faas::funcbench;
use harvest_faas::hrv_fault::FaultPlan;
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::config::PlatformConfig;
use harvest_faas::hrv_platform::world::{SimOutput, Simulation};
use harvest_faas::hrv_platform::TelemetryConfig;
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::SimDuration;

use crate::loadbalancing::asymmetric_cluster;
use crate::scale::Scale;

/// Trace workload sizing: small on purpose. The flight recorder keeps
/// each entity's last `ring_capacity` spans, and the JSON carries every
/// completed invocation's phase slices — a short run keeps the file
/// loadable in the Perfetto UI.
fn sizing(scale: Scale) -> (usize, f64, SimDuration) {
    match scale {
        Scale::Quick => (40, 4.0, SimDuration::from_mins(4)),
        Scale::Full => (120, 8.0, SimDuration::from_mins(10)),
    }
}

/// Runs the telemetry-enabled trace simulation on `shards` shards.
pub fn trace_run(scale: Scale, shards: u32) -> SimOutput {
    let (n_functions, rps, duration) = sizing(scale);
    let seeds = SeedFactory::new(2021).child("trace");
    let workload = funcbench::workload(n_functions, rps, &seeds);
    let trace = workload.invocations(duration, &seeds.child("arrivals"));
    let horizon = duration + SimDuration::from_mins(3);
    let cluster = asymmetric_cluster(horizon);
    let platform = PlatformConfig {
        telemetry: TelemetryConfig::on(),
        ..PlatformConfig::default()
    };
    let out = Simulation::sharded(
        cluster,
        trace,
        PolicyKind::Mws.build(),
        platform,
        seeds.seed_for("platform"),
        FaultPlan::none(),
        shards,
    )
    .run(horizon);
    out.assert_conservation();
    out
}

/// The Perfetto trace-event JSON for one run at the given shard count.
pub fn trace_json(scale: Scale, shards: u32) -> String {
    let out = trace_run(scale, shards);
    harvest_faas::hrv_platform::tel::perfetto::render(&out.recorder, &out.collector.phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_is_loadable_and_nonempty() {
        use harvest_faas::hrv_platform::tel::perfetto::TraceFile;
        let json = trace_json(Scale::Quick, 1);
        let parsed: TraceFile = serde_json::from_str(&json).unwrap();
        let events = &parsed.traceEvents;
        assert!(
            events.len() > 100,
            "expected a real trace, got {} events",
            events.len()
        );
        // Both process groups present: entity spans and invocation phases.
        assert!(events.iter().any(|e| e.pid == 0));
        assert!(events.iter().any(|e| e.pid == 1));
    }
}
