//! The benchmark's metric names: what `BENCHMARK.json` declares, in code.
//! A unit test holds the two equal.

use crate::timed::VARIANTS;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, higher_is_better: bool, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics, reported per workload with tracing off.
///
/// The PR driver holds a benchmark to its own bounds: over ten runs at ten
/// seeds, the distance between a metric's quartiles must stay within the
/// bound, a bound is at most 25 %, and a metric may never read 0. So:
///
/// - `failed_share` is 0 on these workloads by design; the bounded form
///   is its complement `sim_success_share`, and `failed_share` itself is
///   a per-layer diagnostic.
/// - The simulated metrics and `peak_rss_mb` are exact or near it at one
///   seed but move from seed to seed; their bounds are at least twice the
///   widest spread seven sets of ten seeds showed (README, "Baseline"),
///   which for `peak_rss_mb` is `policy_sweep`'s 12.4 %.
/// - The host-time metrics sit at the 25 % cap because the sandbox's
///   speed moves by more than the issue's 10 % between runs of one
///   binary. Below 25 % this gate leaves them unresolved; alternating
///   pairs (README) resolve them, and `run.sh --check` holds one commit
///   at one seed to the issue's 10 %.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("wall_s", "s", false, Some(0.25)),
        metric("cpu_s", "s", false, Some(0.25)),
        metric("sim_invocations_per_s", "1/s", true, Some(0.25)),
        metric("peak_rss_mb", "MiB", false, Some(0.25)),
        metric("setup_s", "s", false, Some(0.25)),
        metric("sim_success_share", "share", true, Some(0.001)),
        metric("sim_p99_latency_s", "s", false, Some(0.15)),
        metric("sim_cold_start_rate", "share", false, Some(0.04)),
    ]
}

/// Per-layer metrics, reported per workload from a traced run. A metric a
/// workload has no way to measure reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let lower = |name: &str, unit| metric(name, unit, false, None);
    let higher = |name: &str, unit| metric(name, unit, true, None);
    let mut m = vec![
        lower("trace.generate_s", "s"),
        higher("trace.invocations_per_s", "1/s"),
        lower("trace.cluster_build_s", "s"),
        lower("trace.stream.next_calls", "count"),
        lower("trace.stream.next_busy_s", "s"),
    ];
    for op in ["schedule", "cancel", "pop", "peek"] {
        m.push(lower(&format!("sim.calendar.{op}_calls"), "count"));
        m.push(lower(&format!("sim.calendar.{op}_busy_s"), "s"));
    }
    m.extend([
        higher("sim.calendar.cancel_hit_ratio", "ratio"),
        lower("sim.calendar.max_len", "count"),
        lower("sim.engine.events", "count"),
        higher("sim.engine.events_per_s", "1/s"),
        lower("sim.engine.rounds", "count"),
        higher("sim.engine.events_per_round", "ratio"),
        lower("sim.engine.driver_self_s", "s"),
        higher("sim.ps.completions_per_s.c8", "1/s"),
        higher("sim.ps.completions_per_s.c64", "1/s"),
        lower("lb.place_calls", "count"),
        lower("lb.place_busy_s", "s"),
        lower("lb.place_refused", "count"),
        higher("lb.placements_per_s", "1/s"),
        lower("lb.observe_busy_s", "s"),
        higher("lb.mws.cache_hit_ratio", "ratio"),
        higher("lb.view.updates_per_s.n38", "1/s"),
        higher("lb.view.updates_per_s.n1600", "1/s"),
        higher("lb.ring.walks_per_s.n1600", "1/s"),
    ]);
    for v in &VARIANTS[..VARIANTS.len() - 1] {
        m.push(lower(&format!("platform.handler.{v}.calls"), "count"));
        m.push(lower(&format!("platform.handler.{v}.self_s"), "s"));
    }
    m.extend([
        lower("platform.envelopes", "count"),
        lower("platform.envelopes_per_invocation", "ratio"),
        lower("platform.build_s", "s"),
        lower("platform.metrics.aggregate_s", "s"),
        lower("platform.metrics.records", "count"),
        lower("platform.metrics.conservation_gap", "count"),
        higher("platform.shard.speedup", "ratio"),
        higher("platform.shard.cpu_over_wall", "ratio"),
        lower("platform.shard.cpu_inflation", "ratio"),
        lower("platform.replica.placement_max_over_min", "ratio"),
        lower("policy.prewarm_spawns", "count"),
        higher("policy.prewarm_hit_ratio", "ratio"),
        lower("policy.wasted_prewarms", "count"),
        higher("policy.hybrid.decisions_per_s", "1/s"),
        lower("fault.compile_s", "s"),
        lower("fault.retries", "count"),
        lower("fault.redispatches", "count"),
        lower("fault.vm_crashes", "count"),
        lower("fault.lost", "count"),
        higher("fault.sampler.rolls_per_s", "1/s"),
        higher("telemetry.on_over_off", "ratio"),
        lower("telemetry.events_recorded", "count"),
        lower("telemetry.rss_delta_mb", "MiB"),
        higher("telemetry.recorder.records_per_s", "1/s"),
        higher("core.sweep.cells", "count"),
        lower("core.sweep.cell_s.median", "s"),
        lower("core.sweep.cell_s.max", "s"),
        higher("core.sweep.parallel_efficiency", "ratio"),
        lower("host.calib_s", "s"),
        lower("trace_overhead", "ratio"),
        higher("trace.ledger_over_wall", "ratio"),
        lower("failed_share", "share"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
    }

    fn text(v: &Value, key: &str) -> String {
        match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn list(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Seq(items)) => items.clone(),
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    fn declared(section: &str) -> Vec<Metric> {
        list(&manifest(), section)
            .iter()
            .map(|m| Metric {
                name: text(m, "name"),
                unit: Box::leak(text(m, "unit").into_boxed_str()),
                higher_is_better: match text(m, "better").as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => panic!("better is {other:?}"),
                },
                bound: match m.get("bound") {
                    Some(Value::F64(b)) => Some(*b),
                    None => None,
                    other => panic!("bound is {other:?}"),
                },
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                m.name.len() <= 64
                    && m.name.chars().all(ok)
                    && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "bad metric name {:?}",
                m.name
            );
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "bad unit {:?}",
                m.unit
            );
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        }
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn catalog_equals_benchmark_json() {
        assert_eq!(end_to_end(), declared("end_to_end"));
        assert_eq!(per_layer(), declared("per_layer"));
        let names: Vec<String> = list(&manifest(), "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, Workload::GATED.map(Workload::name));
    }
}
