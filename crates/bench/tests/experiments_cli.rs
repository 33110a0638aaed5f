//! Command-line contract of the `experiments` binary.

use std::process::Command;

#[test]
fn out_without_trace_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!("experiments-out-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--out")
        .arg(&path)
        .arg("fig1")
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "an experiment ran: {out:?}");
    assert!(!path.exists(), "{} was written", path.display());
}
