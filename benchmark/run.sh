#!/usr/bin/env bash
# Builds the paper-regeneration binaries and the benchmark in release
# mode into one target directory, then runs the benchmark with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper-4cpu --seed 7 --seconds 10 --trace 0
#
# The target directory is $CARGO_TARGET_DIR, or .bench_build at the
# repository root. The build fails, and so does this script, when the
# simulator crates are not beside the benchmark.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p firefly-bench --bins
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
