//! The repo's claim benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hrv-benchmark [--seed N] [--out DIR]                          every workload, every metric
//! hrv-benchmark --check [--seed N] [--out DIR]                  two full sets that must agree
//! hrv-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! ```
//!
//! Every `(workload, repetition)` runs in a fresh child process: this
//! binary re-executed with `--child`.

mod catalog;
mod drives;
mod host;
mod inputs;
mod report;
mod session;
mod stats;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use session::Session;
use workloads::Workload;

/// Default seed (the replay experiments' seed).
const DEFAULT_SEED: u64 = 76;
/// Repetitions per workload of a full set.
const REPS: usize = 7;

struct Args {
    seed: u64,
    out: PathBuf,
    check: bool,
    workload: Option<Workload>,
    seconds: f64,
    trace: bool,
    child: Option<Workload>,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: DEFAULT_SEED,
        out: PathBuf::from("benchmark/out"),
        check: false,
        workload: None,
        seconds: 0.0,
        trace: false,
        child: None,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            a.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let workload = || {
            Workload::parse(&value).ok_or(format!(
                "unknown workload {value:?}; expected one of {}",
                Workload::ALL.map(Workload::name).join(", ")
            ))
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        let switch = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, got {value:?}")),
        };
        match flag.as_str() {
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()? as f64,
            "--out" => a.out = PathBuf::from(&value),
            "--workload" => a.workload = Some(workload()?),
            "--child" => a.child = Some(workload()?),
            "--trace" => a.trace = switch()?,
            "--traced" => a.traced = switch()?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

/// Child mode: one repetition in this process, its result as the last
/// line of stdout, its span ledger (when traced) under `out`.
fn child(workload: Workload, a: &Args) -> Result<(), String> {
    let r = workloads::run(workload, a.seed, a.traced);
    if let Some(ledger) = &r.ledger {
        report::write_trace(&a.out, workload, a.seed, ledger)?;
    }
    let doc = session::ChildDoc {
        fingerprint: format!("{:016x}", r.fingerprint),
        values: r.values,
    };
    println!(
        "{}",
        serde_json::to_string(&doc).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Contract mode: measures `workload` for `seconds`, prints one JSON line.
///
/// Untraced, it repeats the workload while another repetition still fits
/// the budget (always at least once) and reports medians. Traced, it runs
/// what the per-layer ledger needs once: the workload, its traced form,
/// its twin, and the isolated drives.
fn contract(workload: Workload, a: &Args) -> Result<bool, String> {
    let mut s = Session::new(a.seed, a.out.clone())?;
    let metrics = if a.trace {
        s.rep(workload)?;
        if let Some(twin) = workload.twin() {
            s.rep(twin)?;
        }
        if workload.traceable() {
            s.trace(workload)?;
        }
        s.drive();
        report::layer_metrics(&s.per_layer(workload))
    } else {
        let start = Instant::now();
        let mut longest = 0.0f64;
        loop {
            longest = longest.max(s.rep(workload)?);
            if start.elapsed().as_secs_f64() + longest > a.seconds {
                break;
            }
        }
        report::end_to_end_metrics(&s.end_to_end(workload))
    };
    let reps = s.repetitions(workload).len();
    report::write_results(&a.out, &s, reps, &format!("run-{}", workload.name()))?;
    let violations = s.violations();
    for v in &violations {
        eprintln!("hrv-benchmark: {v}");
    }
    // An operation is one replayed invocation; it failed if the replay it
    // was part of broke a rule above. Invocations the *simulated* platform
    // fails are the model's output and are reported as `failed_share`.
    let attempted = s.attempted();
    let failed = if violations.is_empty() { 0 } else { attempted };
    println!(
        "{}",
        report::final_line(violations.is_empty(), attempted, failed, metrics)?
    );
    Ok(violations.is_empty())
}

/// One full set: [`REPS`] repetitions of every workload, interleaved
/// round-robin so host drift lands on all of them, then the traced runs
/// and the isolated drives.
fn full_set(a: &Args, label: &str) -> Result<Session, String> {
    let mut s = Session::new(a.seed, a.out.clone())?;
    for rep in 1..=REPS {
        for w in Workload::ALL {
            eprintln!(
                "hrv-benchmark: {label}repetition {rep}/{REPS} of {}",
                w.name()
            );
            s.rep(w)?;
        }
    }
    for w in Workload::ALL.into_iter().filter(|w| w.traceable()) {
        eprintln!("hrv-benchmark: {label}traced run of {}", w.name());
        s.trace(w)?;
    }
    eprintln!("hrv-benchmark: {label}isolated layer drives");
    s.drive();
    Ok(s)
}

fn run() -> Result<bool, String> {
    let a = parse_args()?;
    if let Some(w) = a.child {
        return child(w, &a).map(|()| true);
    }
    if let Some(w) = a.workload {
        return contract(w, &a);
    }
    let first = full_set(&a, if a.check { "set 1: " } else { "" })?;
    let mut problems = first.violations();
    print!("{}", report::render(&first, REPS));
    report::write_results(&a.out, &first, REPS, "results")?;
    if a.check {
        let second = full_set(&a, "set 2: ")?;
        problems.extend(second.violations());
        print!("{}", report::render(&second, REPS));
        report::write_results(&a.out, &second, REPS, "results-check")?;
        problems.extend(report::disagreements(&first, &second));
    }
    for p in &problems {
        eprintln!("hrv-benchmark: {p}");
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hrv-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
