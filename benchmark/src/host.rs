//! What the harness reads from the host: process CPU time, peak RSS, a
//! fixed spin that tells a slow host interval from a slow program, and
//! the machine stamp every output document carries.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, 100 on
/// every Linux ABI).
const CLK_TCK: f64 = 100.0;

/// User plus system CPU seconds this process (all threads, joined ones
/// included) has used, at the kernel's 10 ms tick. `None` off Linux.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Iterations of the calibration spin: ≈ 200 ms on the 2.1 GHz sandbox.
const CALIB_ITERS: u64 = 95_000_000;

/// Times a fixed arithmetic spin (an xorshift chain the compiler cannot
/// fold). The work never changes, so a run whose `host.calib_s` is high
/// ran on a slow host interval, whatever the program did.
pub fn calibration_spin() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine and build stamp of an output document. Unknown parts read
/// `"unknown"` (a checkout without `.git`, a host without
/// `/proc/cpuinfo`).
pub fn stamp() -> BTreeMap<String, String> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    [
        ("nproc", Some(nproc().to_string())),
        ("cpu_model", cpu_model),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.unwrap_or_else(|| "unknown".into())))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(process_cpu_secs().expect("stat parses") >= 0.0);
        assert!(peak_rss_mb().expect("status parses") > 0.0);
    }
}
