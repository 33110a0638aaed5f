//! Output documents: the contract's one-line result, the full run's
//! metric table and `results.json`, the traced run's span file, and the
//! agreement rule of `--check`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::Serialize;

use crate::catalog::{self, Metric};
use crate::host;
use crate::session::{Session, Summary};
use crate::timed::{LedgerReport, SAMPLE_EVERY};
use crate::workloads::{sweep_workers, Workload, FLEET_S2_SHARDS};

/// A metric as the contract's result line carries it.
#[derive(Debug, Serialize)]
pub struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Debug, Serialize)]
struct FinalLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

fn with_units(
    declared: Vec<Metric>,
    value: impl Fn(&str) -> Option<f64>,
) -> BTreeMap<String, MetricValue> {
    declared
        .into_iter()
        .filter_map(|m| {
            let value = value(&m.name)?;
            Some((
                m.name,
                MetricValue {
                    value,
                    unit: m.unit.to_string(),
                },
            ))
        })
        .collect()
}

/// The declared end-to-end metrics out of a workload's summaries.
pub fn end_to_end_metrics(summaries: &BTreeMap<String, Summary>) -> BTreeMap<String, MetricValue> {
    with_units(catalog::end_to_end(), |name| {
        summaries.get(name).map(|s| s.median)
    })
}

/// The declared per-layer metrics out of a workload's layer values.
pub fn layer_metrics(values: &BTreeMap<String, f64>) -> BTreeMap<String, MetricValue> {
    with_units(catalog::per_layer(), |name| values.get(name).copied())
}

/// The contract's last line of standard output.
pub fn final_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
) -> Result<String, String> {
    serde_json::to_string(&FinalLine {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    })
    .map_err(|e| e.to_string())
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[derive(Debug, Serialize)]
struct SpanDoc {
    name: String,
    parent: String,
    calls: u64,
    timed: u64,
    busy_s: f64,
    self_s: f64,
}

#[derive(Debug, Serialize)]
struct RawDoc {
    name: String,
    parent: String,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Serialize)]
struct TraceDoc {
    stamp: BTreeMap<String, String>,
    workload: String,
    /// One event in this many was timed; `calls` counts all of them,
    /// `timed` the sampled ones, and the seconds are scaled estimates.
    sample_every: u64,
    /// What one clock read cost in this run, as its empty spans read it.
    clock_ns: f64,
    /// Seconds of clock reads removed from the estimates.
    clock_s: f64,
    spans: Vec<SpanDoc>,
    /// The first spans of the run, verbatim.
    first_spans: Vec<RawDoc>,
}

fn stamp(seed: u64, reps: usize) -> BTreeMap<String, String> {
    let mut stamp = host::stamp();
    stamp.insert("seed".into(), seed.to_string());
    stamp.insert("repetitions".into(), reps.to_string());
    stamp.insert("fleet_s2_shards".into(), FLEET_S2_SHARDS.to_string());
    stamp.insert("policy_sweep_workers".into(), sweep_workers().to_string());
    stamp.insert(
        "gated_workloads".into(),
        Workload::GATED.map(Workload::name).join(","),
    );
    stamp
}

/// Writes a traced run's aggregated spans to `trace-<workload>.json`.
pub fn write_trace(
    dir: &Path,
    workload: Workload,
    seed: u64,
    ledger: &LedgerReport,
) -> Result<(), String> {
    let doc = TraceDoc {
        stamp: stamp(seed, 1),
        workload: workload.name().to_string(),
        sample_every: SAMPLE_EVERY,
        clock_ns: ledger.clock_ns,
        clock_s: ledger.clock_s,
        spans: ledger
            .rows
            .iter()
            .map(|r| SpanDoc {
                name: r.name.to_string(),
                parent: r.parent.to_string(),
                calls: r.calls,
                timed: r.timed,
                busy_s: r.busy_s,
                self_s: r.self_s,
            })
            .collect(),
        first_spans: ledger
            .raw
            .iter()
            .map(|r| RawDoc {
                name: r.name.to_string(),
                parent: r.parent.to_string(),
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            })
            .collect(),
    };
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    write_file(dir, &format!("trace-{}.json", workload.name()), &text)
}

#[derive(Debug, Serialize)]
struct WorkloadDoc {
    fingerprint: String,
    end_to_end: BTreeMap<String, Summary>,
    per_layer: BTreeMap<String, f64>,
    /// Every run made: what each untraced repetition reported.
    repetitions: Vec<BTreeMap<String, f64>>,
}

#[derive(Debug, Serialize)]
struct ResultsDoc {
    stamp: BTreeMap<String, String>,
    workloads: BTreeMap<String, WorkloadDoc>,
}

/// Writes what `s` measured to `<stem>-seed<N>.json`: every workload that
/// ran, with its summaries and every repetition behind them.
pub fn write_results(dir: &Path, s: &Session, reps: usize, stem: &str) -> Result<(), String> {
    let doc = ResultsDoc {
        stamp: stamp(s.seed, reps),
        workloads: Workload::ALL
            .into_iter()
            .filter(|w| s.fingerprint(*w).is_some())
            .map(|w| {
                (
                    w.name().to_string(),
                    WorkloadDoc {
                        fingerprint: s.fingerprint(w).unwrap_or("").to_string(),
                        end_to_end: s.end_to_end(w),
                        per_layer: s.per_layer(w),
                        repetitions: s.repetitions(w),
                    },
                )
            })
            .collect(),
    };
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    write_file(dir, &format!("{stem}-seed{}.json", s.seed), &text)
}

/// Every metric of a full set by name, with its unit.
pub fn render(s: &Session, reps: usize) -> String {
    let mut out = String::new();
    for (k, v) in stamp(s.seed, reps) {
        let _ = writeln!(out, "# {k}: {v}");
    }
    let units = |declared: Vec<Metric>| -> BTreeMap<String, &'static str> {
        declared.into_iter().map(|m| (m.name, m.unit)).collect()
    };
    let (e2e_units, layer_units) = (units(catalog::end_to_end()), units(catalog::per_layer()));
    for w in Workload::ALL {
        let _ = writeln!(
            out,
            "\n== {} (fingerprint {})",
            w.name(),
            s.fingerprint(w).unwrap_or("-")
        );
        for (name, m) in s.end_to_end(w) {
            let unit = e2e_units.get(&name).copied().unwrap_or("share");
            let _ = writeln!(
                out,
                "{name:<40} {:>16.6} {unit:<6} q1 {:.6} q3 {:.6} n {}",
                m.median, m.q1, m.q3, m.n
            );
        }
        for (name, value) in s.per_layer(w) {
            if name != "failed_share" {
                let _ = writeln!(out, "{name:<40} {value:>16.6} {}", layer_units[&name]);
            }
        }
    }
    out
}

/// How far apart two sets' medians of a host-time metric may be.
const HOST_TIME_AGREEMENT: f64 = 0.10;
/// How far apart two sets' `setup_s` medians may be.
const SETUP_AGREEMENT: f64 = 0.25;

/// The agreement rule of `--check`: where two full sets of one commit on
/// one host disagree. Medians of `wall_s`, `cpu_s`,
/// `sim_invocations_per_s` and `peak_rss_mb` must agree within 10 % and
/// `setup_s` within 25 %; everything simulated — the `sim_*` metrics,
/// `failed_share`, every count, every fingerprint — must agree exactly.
pub fn disagreements(a: &Session, b: &Session) -> Vec<String> {
    let mut bad = Vec::new();
    let layers = catalog::per_layer();
    for w in Workload::ALL {
        if a.fingerprint(w) != b.fingerprint(w) {
            bad.push(format!("{}: fingerprints differ between sets", w.name()));
        }
        let (ea, eb) = (a.end_to_end(w), b.end_to_end(w));
        for m in catalog::end_to_end() {
            let (Some(x), Some(y)) = (ea.get(&m.name), eb.get(&m.name)) else {
                bad.push(format!("{} {}: missing from a set", w.name(), m.name));
                continue;
            };
            let bound = match m.name.as_str() {
                "setup_s" => SETUP_AGREEMENT,
                "wall_s" | "cpu_s" | "sim_invocations_per_s" | "peak_rss_mb" => HOST_TIME_AGREEMENT,
                _ => 0.0,
            };
            let apart = (x.median - y.median).abs() / x.median.abs().max(f64::MIN_POSITIVE);
            if apart > bound {
                bad.push(format!(
                    "{} {}: sets disagree by {:.2} % (allowed {:.0} %): {} vs {}",
                    w.name(),
                    m.name,
                    apart * 100.0,
                    bound * 100.0,
                    x.median,
                    y.median
                ));
            }
        }
        let (la, lb) = (a.per_layer(w), b.per_layer(w));
        for m in &layers {
            if (m.unit == "count" || m.name == "failed_share") && la[&m.name] != lb[&m.name] {
                bad.push(format!(
                    "{} {}: counts differ between sets: {} vs {}",
                    w.name(),
                    m.name,
                    la[&m.name],
                    lb[&m.name]
                ));
            }
        }
    }
    bad
}
