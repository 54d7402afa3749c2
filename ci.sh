#!/usr/bin/env bash
# The canonical pre-PR check (see EXPERIMENTS.md). Fails fast, in the
# order cheapest-to-diagnose first: formatting, lints, doc links, then
# the tier-1 build-and-test gate from ROADMAP.md run over the whole
# workspace (integration tests, doctests, every crate — a superset of the
# root package's `cargo test -q`), then the benchmark package's own tests.
#
# FIREFLY_JOBS controls the experiment harness's worker-pool width for
# any sweeps the tests run; the results are bit-identical at any width.
set -euo pipefail
cd "$(dirname "$0")"

# Fails unless bench bin $1 prints the same `--smoke --json` bytes at
# FIREFLY_JOBS=1 and 4. With a second argument, each width writes its
# report to "$2-j<width>.json".
same_across_widths() {
    local bin="$1" out="${2:-}" j1 j4
    j1="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin "$bin" -- --smoke --json ${out:+--out "$out-j1.json"})"
    j4="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin "$bin" -- --smoke --json ${out:+--out "$out-j4.json"})"
    if [ "$j1" != "$j4" ]; then
        echo "$bin --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
        exit 1
    fi
}

# Each step starts with `step NAME`. On exit, pass or fail, the script
# prints every step's wall seconds (bash SECONDS: whole-second
# resolution) as a table, the failing step last.
step_times=()
step_name=""
step_start=$SECONDS
finish_step() {
    if [ -n "$step_name" ]; then
        step_times+=("$(printf '%6d  %s' $((SECONDS - step_start)) "$step_name")")
    fi
    step_name=""
}
step() {
    finish_step
    step_name="$1"
    step_start=$SECONDS
    echo "== $1"
}
report_steps() {
    finish_step
    echo "== wall seconds per step"
    printf '%s\n' "${step_times[@]}"
    printf '%6d  total\n' "$SECONDS"
}
trap report_steps EXIT

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc: RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# Every doc link must resolve: a link left dangling by a renamed or
# deleted item fails here rather than rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "tier-1: cargo build --release && cargo test --workspace -q"
cargo build --release
cargo test --workspace -q

step "benchmark: cargo test -q --manifest-path benchmark/Cargo.toml"
# The benchmark is a package of its own that drives the simulator through
# its public API (snapshot save/load included); its tests fail when that
# API breaks.
cargo test -q --manifest-path benchmark/Cargo.toml

step "fault_sweep --smoke"
cargo run --release -p firefly-bench --bin fault_sweep -- --smoke

step "model_check --smoke"
cargo run --release -p firefly-bench --bin model_check -- --smoke

step "model_check --protocol tardis --smoke (two-word lease-expiry space)"
# A Tardis-only run defaults to two tracked words, reaching the lease
# renewal paths (and the renewal-dependent timestamp mutants) that the
# all-protocol single-word smoke cannot.
cargo run --release -p firefly-bench --bin model_check -- --protocol tardis --smoke

step "soak --smoke (chaos kill/restore + resume equivalence)"
cargo run --release -p firefly-bench --bin soak -- --smoke

step "checkpoint/resume equivalence gate (deterministic across widths)"
same_across_widths soak

step "rpc_bandwidth --smoke (§6 4.6 Mb/s claim)"
cargo run --release -p firefly-bench --bin rpc_bandwidth -- --smoke > /dev/null

# Smoke-sized BENCH reports go to target/bench/. Each bench bin validates
# its report as it writes it and exits 1 when one of its gates fails; the
# committed BENCH_*.json files at the root come from full runs only.
bench_dir=target/bench
mkdir -p "$bench_dir"

step "bench: engine_bench --smoke -> $bench_dir/BENCH_6.json"
cargo run --release -p firefly-bench --bin engine_bench -- --smoke --out "$bench_dir/BENCH_6.json"

step "bench: fleet --smoke -> $bench_dir/BENCH_7.json"
cargo run --release -p firefly-bench --bin fleet -- --smoke --out "$bench_dir/BENCH_7.json"

step "bench: arbiter_sweep --smoke -> $bench_dir/BENCH_8.json"
cargo run --release -p firefly-bench --bin arbiter_sweep -- --smoke --out "$bench_dir/BENCH_8.json"

step "arbiter sweep determinism gate (bit-identical across widths)"
same_across_widths arbiter_sweep "$bench_dir/bench8"

step "bench: partition --smoke -> $bench_dir/BENCH_10.json"
cargo run --release -p firefly-bench --bin partition -- --smoke --out "$bench_dir/BENCH_10.json"

step "partition determinism gate (bit-identical across widths)"
same_across_widths partition "$bench_dir/bench10"

step "trace smoke: protocol_compare --smoke --trace + trace_check"
trace_file="$(mktemp /tmp/firefly-trace.XXXXXX.json)"
trap 'rm -f "$trace_file"; report_steps' EXIT
cargo run --release -p firefly-bench --bin protocol_compare -- --smoke --trace "$trace_file"
cargo run --release -p firefly-bench --bin trace_check -- "$trace_file"

step "protocol_compare determinism gate (bit-identical across widths)"
# One job per reference stream (six sharing levels, four CPU counts),
# each replaying its stream under all seven protocols.
same_across_widths protocol_compare

step "trace examples: protocol_trace, trace_timeline"
# Both render Figure 4 and the event timeline from the event ring; run
# them so the rendering paths execute in CI, not just compile.
cargo run --release -q --example protocol_trace > /dev/null
cargo run --release -q --example trace_timeline > /dev/null

echo "ci.sh: all checks passed"
