//! Generates and saves the calibrated synthetic traces as JSON, so the
//! same inputs can be inspected, versioned, or replayed outside the
//! simulator.
//!
//! ```text
//! trace-gen harvest --days 30 --out fleet.json [--seed N]
//! trace-gen workload --hours 2 --rps 20 --out trace.json [--seed N]
//! trace-gen physical --hours 24 --nodes 16 --out cluster.json [--seed N]
//! ```

use std::io::Write as _;

use harvest_faas::hrv_trace::faas::{Workload, WorkloadSpec};
use harvest_faas::hrv_trace::harvest::{FleetConfig, FleetTrace};
use harvest_faas::hrv_trace::physical::{PhysicalCluster, PhysicalClusterConfig};
use harvest_faas::hrv_trace::rng::SeedFactory;
use harvest_faas::hrv_trace::time::{SimDuration, MICROS_PER_SEC};

struct Args {
    kind: String,
    out: Option<String>,
    seed: u64,
    days: u64,
    hours: u64,
    rps: f64,
    nodes: usize,
    apps: usize,
}

/// Parses and validates the command line (without the program name), so
/// out-of-range input is a usage error before any generation starts.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        kind: String::new(),
        out: None,
        seed: 2021,
        days: 30,
        hours: 2,
        rps: 20.0,
        nodes: 16,
        apps: 119,
    };
    let mut it = argv.into_iter();
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => args.out = Some(value(&mut it, "--out")?),
            "--seed" => args.seed = value(&mut it, "--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--days" => args.days = value(&mut it, "--days")?.parse().map_err(|e| format!("{e}"))?,
            "--hours" => args.hours = value(&mut it, "--hours")?.parse().map_err(|e| format!("{e}"))?,
            "--rps" => args.rps = value(&mut it, "--rps")?.parse().map_err(|e| format!("{e}"))?,
            "--nodes" => args.nodes = value(&mut it, "--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--apps" => args.apps = value(&mut it, "--apps")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => return Err("usage: trace-gen <harvest|workload|physical> [--out F] [--seed N] [--days N] [--hours N] [--rps X] [--nodes N] [--apps N]".into()),
            other if args.kind.is_empty() && !other.starts_with('-') => {
                args.kind = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.kind.is_empty() {
        return Err("missing trace kind: harvest | workload | physical".into());
    }
    if args.apps < 2 {
        return Err(format!("--apps must be at least 2 (got {})", args.apps));
    }
    if !(args.rps.is_finite() && args.rps > 0.0) {
        return Err(format!("--rps must be finite and > 0 (got {})", args.rps));
    }
    for (flag, n) in [
        ("--nodes", args.nodes as u64),
        ("--hours", args.hours),
        ("--days", args.days),
    ] {
        if n == 0 {
            return Err(format!("{flag} must be at least 1 (got 0)"));
        }
    }
    // `SimDuration::from_{hours,days}` multiply unchecked; a horizon past
    // the u64 microsecond clock would wrap to a short one in release.
    for (flag, n, unit_secs) in [
        ("--hours", args.hours, 3_600),
        ("--days", args.days, 86_400),
    ] {
        if n.checked_mul(unit_secs * MICROS_PER_SEC).is_none() {
            return Err(format!(
                "{flag} {n} overflows the simulator's u64 microsecond clock"
            ));
        }
    }
    Ok(args)
}

fn emit(out: &Option<String>, json: String) -> std::io::Result<()> {
    match out {
        Some(path) => {
            std::fs::write(path, &json)?;
            eprintln!("wrote {} bytes to {path}", json.len());
        }
        None => {
            std::io::stdout().write_all(json.as_bytes())?;
        }
    }
    Ok(())
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let seeds = SeedFactory::new(args.seed);
    let json = match args.kind.as_str() {
        "harvest" => {
            let config = FleetConfig {
                horizon: SimDuration::from_days(args.days),
                ..FleetConfig::default()
            };
            let fleet = FleetTrace::generate(&config, &seeds);
            eprintln!(
                "harvest fleet: {} VMs over {} days",
                fleet.vms.len(),
                args.days
            );
            serde_json::to_string_pretty(&fleet).expect("serialize fleet")
        }
        "workload" => {
            let spec = WorkloadSpec::paper_fsmall().scaled(args.apps, args.rps);
            let workload = Workload::generate(&spec, &seeds);
            let trace = workload.invocations(SimDuration::from_hours(args.hours), &seeds);
            eprintln!(
                "workload: {} invocations over {} h ({} apps, {} rps)",
                trace.len(),
                args.hours,
                args.apps,
                args.rps
            );
            serde_json::to_string_pretty(&trace).expect("serialize workload")
        }
        "physical" => {
            let config = PhysicalClusterConfig {
                nodes: args.nodes,
                horizon: SimDuration::from_hours(args.hours),
                ..PhysicalClusterConfig::default()
            };
            let cluster = PhysicalCluster::generate(&config, &seeds);
            eprintln!(
                "physical cluster: {} nodes, {:.0} idle CPU-hours",
                args.nodes,
                cluster.idle_cpu_seconds() / 3_600.0
            );
            serde_json::to_string_pretty(&cluster).expect("serialize cluster")
        }
        other => {
            eprintln!("unknown trace kind {other:?}: harvest | workload | physical");
            std::process::exit(2);
        }
    };
    if let Err(e) = emit(&args.out, json) {
        eprintln!("write failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn out_of_range_values_are_usage_errors() {
        for (line, flag) in [
            ("workload --apps 0", "--apps"),
            ("workload --apps 1", "--apps"),
            ("workload --rps -1", "--rps"),
            ("workload --rps 0", "--rps"),
            ("workload --rps nan", "--rps"),
            ("workload --rps inf", "--rps"),
            ("physical --nodes 0", "--nodes"),
            ("workload --hours 0", "--hours"),
            ("harvest --days 0", "--days"),
            // The first values whose microsecond count exceeds u64::MAX.
            ("workload --hours 5124095577", "--hours"),
            ("harvest --days 213503983", "--days"),
        ] {
            let err = parse_line(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} accepted"));
            assert!(err.starts_with(flag), "{line:?}: {err}");
        }
    }

    #[test]
    fn smallest_valid_values_are_accepted() {
        let args = parse_line("workload --apps 2 --rps 0.5 --hours 1 --nodes 1 --days 1")
            .expect("valid line");
        assert_eq!(args.kind, "workload");
        assert_eq!((args.apps, args.hours, args.nodes, args.days), (2, 1, 1, 1));
        assert_eq!(args.rps, 0.5);
    }
}
