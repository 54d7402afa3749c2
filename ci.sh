#!/usr/bin/env bash
# The canonical pre-PR check (see EXPERIMENTS.md). Fails fast, in the
# order cheapest-to-diagnose first: formatting, lints, doc links, then
# the tier-1 build-and-test gate from ROADMAP.md run over the whole
# workspace (integration tests, doctests, every crate — a superset of the
# root package's `cargo test -q`), then the benchmark package's own tests
# and its checkpoint workload.
#
# FIREFLY_JOBS controls the experiment harness's worker-pool width for
# any sweeps the tests run; the results are bit-identical at any width.
set -euo pipefail
cd "$(dirname "$0")"

# Fails unless bench bin $1 prints the same `--smoke --json` bytes at
# FIREFLY_JOBS=1 and 4. With a second argument, each width writes its
# report to "$2-j<width>.json". The report is left in $smoke_json.
smoke_json=""
same_across_widths() {
    local bin="$1" out="${2:-}" j1 j4
    j1="$(FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin "$bin" -- --smoke --json ${out:+--out "$out-j1.json"})"
    j4="$(FIREFLY_JOBS=4 cargo run --release -q -p firefly-bench --bin "$bin" -- --smoke --json ${out:+--out "$out-j4.json"})"
    if [ "$j1" != "$j4" ]; then
        echo "$bin --smoke --json differs between FIREFLY_JOBS=1 and 4" >&2
        exit 1
    fi
    smoke_json="$j1"
}

# Fails unless the report text $2 equals the committed golden file $1.
# A change that moves a report on purpose regenerates its golden.
golden_dir=crates/bench/tests/golden
matches_golden() {
    if ! diff "$1" <(printf '%s\n' "$2") >&2; then
        echo "the report differs from the golden $1" >&2
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

step "benchmark: checkpoint workload for 1 s (correct, 0 failed)"
# The workload checks itself as it runs: a restored twin re-saves the
# image byte for byte, every operation leaves the twins with the same
# digest, and a restored fleet keeps at-most-once. Its last line is the
# JSON summary; any failed check fails the step.
ckpt="$(CARGO_TARGET_DIR=target bash benchmark/run.sh --workload checkpoint --seed 7 --seconds 1 --trace 0 | tail -n 1)"
case "$ckpt" in
    *'"correct":true'*'"failed":0'*) ;;
    *) echo "the checkpoint workload failed its checks: $ckpt" >&2; exit 1 ;;
esac

step "fault_sweep --smoke"
cargo run --release -p firefly-bench --bin fault_sweep -- --smoke

step "model_check --smoke"
cargo run --release -p firefly-bench --bin model_check -- --smoke

step "model_check --protocol tardis --smoke (two-word lease-expiry space) == golden"
# A Tardis-only run defaults to two tracked words, reaching the lease
# renewal paths (and the renewal-dependent timestamp mutants) that the
# all-protocol single-word smoke cannot.
tardis_json="$(cargo run --release -q -p firefly-bench --bin model_check -- --protocol tardis --smoke --json)"
matches_golden "$golden_dir/model_check_tardis_smoke.json" "$tardis_json"

step "model_check determinism gate (bit-identical across widths) == golden"
# The whole smoke report, mutation pass included: explored-state counts,
# first violations and surviving mutants must not depend on the width,
# and must not move at all unless the golden is regenerated.
same_across_widths model_check
matches_golden "$golden_dir/model_check_smoke.json" "$smoke_json"

step "soak --smoke (chaos kill/restore + resume equivalence)"
cargo run --release -p firefly-bench --bin soak -- --smoke

step "checkpoint/resume equivalence gate (deterministic across widths) == golden"
same_across_widths soak
matches_golden "$golden_dir/soak_smoke.json" "$smoke_json"

step "rpc_bandwidth --smoke (§6 4.6 Mb/s claim)"
cargo run --release -p firefly-bench --bin rpc_bandwidth -- --smoke > /dev/null

step "rpc_bandwidth determinism gate (bit-identical across widths) == golden"
same_across_widths rpc_bandwidth
matches_golden "$golden_dir/rpc_bandwidth_smoke.json" "$smoke_json"

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

step "bench goldens: full fleet, partition == BENCH_7.json, BENCH_10.json"
# The committed root reports come from full runs at the default seed.
# Everything in them is a function of the code, so a full run must
# reproduce each byte for byte; a change that moves a figure
# regenerates the file.
for bench in "fleet 7" "partition 10"; do
    read -r bin n <<< "$bench"
    cargo run --release -q -p firefly-bench --bin "$bin" -- --out "$bench_dir/BENCH_$n.full.json" > /dev/null
    if ! diff "BENCH_$n.json" "$bench_dir/BENCH_$n.full.json" >&2; then
        echo "a full $bin run differs from BENCH_$n.json" >&2
        exit 1
    fi
done

step "trace smoke: protocol_compare --smoke --trace + trace_check"
trace_file="$(mktemp /tmp/firefly-trace.XXXXXX.json)"
trap 'rm -f "$trace_file"; report_steps' EXIT
cargo run --release -p firefly-bench --bin protocol_compare -- --smoke --trace "$trace_file"
cargo run --release -p firefly-bench --bin trace_check -- "$trace_file"

step "protocol_compare determinism gate (bit-identical across widths)"
# One job per reference stream (six sharing levels, four CPU counts),
# each replaying its stream under all seven protocols.
same_across_widths protocol_compare

step "scaling, cache_sweep determinism gates (bit-identical across widths)"
# Table 1's processor-count sweep and footnote 4's cache geometries,
# one machine per job. Neither bin has a smoke size and both ignore
# `--smoke`, so these are full runs: about 1 s together at FIREFLY_JOBS=1.
same_across_widths scaling
same_across_widths cache_sweep

step "paper bins: the 17 paper-regeneration bins' stdout == golden"
# Every table and figure the paper regeneration prints, byte for byte at
# FIREFLY_JOBS=1: a change that makes the simulator faster must not move
# a single figure. About 3 s. A change that moves one on purpose
# regenerates its file (`FIREFLY_JOBS=1 target/release/<bin> >
# crates/bench/tests/golden/paper/<bin>.txt`).
for golden in "$golden_dir"/paper/*.txt; do
    bin="$(basename "$golden" .txt)"
    if ! FIREFLY_JOBS=1 cargo run --release -q -p firefly-bench --bin "$bin" | diff "$golden" - >&2; then
        echo "$bin's output differs from the golden $golden" >&2
        exit 1
    fi
done

step "examples: all nine run to completion, stdout == golden"
# Run every example so its paths execute in CI, not just compile
# (protocol_trace and trace_timeline render Figure 4 and the event
# timeline from the event ring; io_system, window_system and
# display_bitblt tick the I/O system's devices directly), and diff what
# each prints against crates/bench/tests/golden/examples/<name>.txt.
# About 1 s together.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    if ! cargo run --release -q --example "$name" | diff "$golden_dir/examples/$name.txt" - >&2; then
        echo "example $name's output differs from $golden_dir/examples/$name.txt" >&2
        exit 1
    fi
done

echo "ci.sh: all checks passed"
