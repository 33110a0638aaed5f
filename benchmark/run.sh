#!/usr/bin/env bash
# Builds the benchmark and runs it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N]                every workload, every metric
#   benchmark/run.sh --check [--seed N]        two full sets that must agree
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one workload, one JSON line
#
# Run it from the repository root. The build is release and offline; it
# honours CARGO_TARGET_DIR and defaults to benchmark/target. It is not
# --locked: benchmark/Cargo.lock pins nothing but path dependencies, and a
# later change to some crate's dependency list, which may not touch this
# directory, must not stop the benchmark from building.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/hrv-benchmark" --out "$here/out" "$@"
