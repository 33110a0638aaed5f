//! Regenerates the paper's tables and figures as text reports.
//!
//! ```text
//! experiments [--scale quick|full] [--shards N] [--coldstart POLICY] [all | <name>...]
//! ```
//!
//! `--shards N` runs each latency-sweep point (fig12–fig17, ablation),
//! each chaos point and the `trace` run on `N` shards of the
//! deterministic multi-core driver; results are byte-identical for any
//! value, points with live migration or utilization sampling included.
//! The other simulations (strategy3, fig18, fig19–21, migration,
//! coldstart, attribution, streaming) run one world each — most of them
//! spread across cores by seed or grid cell instead — and ignore the
//! flag.
//!
//! `--coldstart fixed|hybrid|null|warmpool` runs the policy-grid rows for
//! that one cold-start policy (across all load balancers and VM types)
//! and exits — the fast path into the `coldstart` experiment.
//!
//! `experiments trace --out run.json` runs one telemetry-enabled
//! simulation and writes its flight recorder plus per-invocation phase
//! slices as Chrome/Perfetto trace-event JSON (open in `chrome://tracing`
//! or ui.perfetto.dev). The JSON is byte-identical for any `--shards`.
//!
//! `experiments streaming` drains the full-volume `F_large` stream
//! (10⁷ invocations at `--scale quick`, 10⁸ at `full`) and replays an
//! `F_large` shape through the platform with the record sink off, each
//! under a 256 MiB RSS-growth bound; it exits 1 if a bound fails or the
//! stream runs dry. Counts go to stdout, wall time and RSS to stderr.
//! Like `trace`, it is not part of `all`.
//!
//! Names: fig1..fig10, table1, strategy1, strategy3, fig12 (also renders
//! figs 13–14), fig15 (fig 16 left), fig17 (table 3, fig 16 right),
//! fig18, fig19 (figs 20–21, table 5).

use hrv_bench::scale::Scale;
use hrv_bench::{run, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut coldstart: Option<harvest_faas::hrv_policy::ColdStartConfig> = None;
    let mut shards = 1u32;
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let Some(v) = it.next() else {
                    eprintln!("--out requires a file path");
                    std::process::exit(2);
                };
                out_path = Some(v);
            }
            "--coldstart" => {
                let Some(v) = it.next() else {
                    eprintln!("--coldstart requires a policy: fixed|hybrid|null|warmpool");
                    std::process::exit(2);
                };
                let Some(cfg) = harvest_faas::hrv_policy::ColdStartConfig::parse(&v) else {
                    eprintln!("unknown cold-start policy {v:?}; use fixed|hybrid|null|warmpool");
                    std::process::exit(2);
                };
                coldstart = Some(cfg);
            }
            "--scale" => {
                let Some(v) = it.next() else {
                    eprintln!("--scale requires a value: quick|full");
                    std::process::exit(2);
                };
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use quick|full");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                let shards_arg = it.next().and_then(|v| v.parse::<u32>().ok());
                let Some(n) = shards_arg.filter(|&s| s >= 1) else {
                    eprintln!("--shards requires a positive integer");
                    std::process::exit(2);
                };
                shards = n;
                harvest_faas::experiment::set_default_shards(n);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--scale quick|full] [--shards N] \
                     [--coldstart fixed|hybrid|null|warmpool] \
                     [trace --out FILE | streaming | all | <name>...]"
                );
                eprintln!(
                    "--shards N shards each latency-sweep point (fig12-fig17, ablation), \
                     chaos point and trace run; other experiments run one world per cell"
                );
                eprintln!("experiments: {}", EXPERIMENTS.join(" "));
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    let tracing = names.iter().any(|n| n == "trace");
    if out_path.is_some() && !tracing {
        eprintln!("--out applies only to `trace`: experiments trace --out FILE");
        std::process::exit(2);
    }
    if tracing {
        let started = std::time::Instant::now();
        let json = hrv_bench::trace::trace_json(scale, shards);
        match &out_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!(
                    "[trace] {} bytes -> {path} in {:.1}s (open in ui.perfetto.dev)",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            None => println!("{json}"),
        }
        return;
    }
    if names.iter().any(|n| n == "streaming") {
        match hrv_bench::scale::streaming(scale) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("[streaming] {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(cfg) = coldstart {
        let started = std::time::Instant::now();
        let points = hrv_bench::coldstart::run_policy(cfg, scale);
        println!("{}", hrv_bench::coldstart::render(&points));
        eprintln!(
            "[coldstart:{}] done in {:.1}s",
            cfg.label(),
            started.elapsed().as_secs_f64()
        );
        return;
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for name in &names {
        let started = std::time::Instant::now();
        match run(name, scale) {
            Some(report) => {
                println!("{report}");
                eprintln!("[{name}] done in {:.1}s", started.elapsed().as_secs_f64());
            }
            None => {
                eprintln!(
                    "unknown experiment {name:?}; known: {}",
                    EXPERIMENTS.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
}
