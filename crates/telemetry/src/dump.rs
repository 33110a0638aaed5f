//! Flight-recorder crash dumps.
//!
//! When a conservation or determinism check fails, the last thing anyone
//! wants is an assert message with no history. These helpers render the
//! recorder's trailing events (canonically merged across entities and
//! shards) as a plain-text dump and write it under a dump directory that
//! CI uploads as an artifact on failure.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::recorder::FlightRecorder;
use crate::span::NO_INVOCATION;

/// Default dump directory, relative to the workspace root. CI uploads
/// this path as an artifact when a test or smoke step fails.
pub const DEFAULT_DUMP_DIR: &str = "target/flight_recorder";

/// How many trailing events (canonically merged across entities and
/// shards) a crash dump renders.
pub const DUMP_LAST: usize = 64;

/// Renders the trailing `n` events of the canonical merge as text.
pub fn render(label: &str, recorder: &FlightRecorder, n: usize) -> String {
    let tail = recorder.tail(n);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder dump: {label} ({} of {} retained events, {} evicted)",
        tail.len(),
        recorder.len(),
        recorder.dropped(),
    );
    if tail.is_empty() {
        let _ = writeln!(
            out,
            "(empty — telemetry was off; rerun with TelemetryConfig::on())"
        );
        return out;
    }
    for ev in tail {
        let inv = if ev.invocation == NO_INVOCATION {
            "-".to_string()
        } else {
            format!("#{}", ev.invocation)
        };
        let _ = writeln!(
            out,
            "  {:>14}us entity={:<5} seq={:<8} inv={:<10} {:?}",
            ev.at.as_micros(),
            ev.entity,
            ev.seq,
            inv,
            ev.kind,
        );
    }
    out
}

/// Writes a dump file `<dir>/<label>-<pid>.log` and returns its path.
/// The process id keeps concurrently failing tests from clobbering each
/// other's dumps.
pub fn write(dir: &Path, label: &str, recorder: &FlightRecorder, n: usize) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}-{}.log", std::process::id()));
    fs::write(&path, render(label, recorder, n))?;
    Ok(path)
}

/// Best-effort dump of the trailing [`DUMP_LAST`] events to
/// [`DEFAULT_DUMP_DIR`] (resolved against the current working directory,
/// falling back to `CARGO_TARGET_DIR`-style relative paths being absent
/// in odd environments). Errors are swallowed — the dump must never mask
/// the original panic.
pub fn write_default(label: &str, recorder: &FlightRecorder) -> Option<PathBuf> {
    let dir = PathBuf::from(DEFAULT_DUMP_DIR);
    match write(&dir, label, recorder, DUMP_LAST) {
        Ok(p) => {
            eprintln!("flight recorder dumped to {}", p.display());
            Some(p)
        }
        Err(e) => {
            eprintln!("flight recorder dump to {} failed: {e}", dir.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;
    use hrv_trace::time::SimTime;

    #[test]
    fn render_mentions_label_and_events() {
        let mut r = FlightRecorder::new(4);
        r.record(0, SimTime::from_micros(42), 7, SpanKind::Arrival);
        let text = render("conservation", &r, 16);
        assert!(text.contains("conservation"));
        assert!(text.contains("42us"));
        assert!(text.contains("#7"));
    }

    #[test]
    fn empty_recorder_renders_hint() {
        let r = FlightRecorder::new(0);
        let text = render("determinism", &r, 16);
        assert!(text.contains("telemetry was off"));
    }

    #[test]
    fn write_creates_file_under_dir() {
        let mut r = FlightRecorder::new(4);
        r.record(1, SimTime::from_micros(1), 1, SpanKind::Redispatch);
        let dir = std::env::temp_dir().join("hrv-telemetry-dump-test");
        let path = write(&dir, "unit", &r, 8).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("Redispatch"));
        let _ = fs::remove_file(path);
    }
}
