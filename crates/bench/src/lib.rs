//! # firefly-bench
//!
//! The benchmark harness regenerating every table and figure in the
//! Firefly paper's evaluation, plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a binary; run them with
//! `cargo run --release -p firefly-bench --bin <name>`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — the §5.2 analytic estimate (exact) |
//! | `table2` | Table 2 — expected vs simulated exerciser measurement |
//! | `figure3` | Figure 3 — the protocol state machine |
//! | `figure4` | Figure 4 — MBus timing diagrams from a traced run |
//! | `scaling` | §5.2 — model vs cycle simulation, the 9-CPU knee |
//! | `protocol_compare` | Ablation A — six protocols across sharing levels |
//! | `migration_ablation` | Ablation B — AvoidMigration vs FreeMigration |
//! | `cache_sweep` | Ablation C — cache size and line size |
//! | `prefetch_ablation` | Ablation D — prefetch off/chip/perfect |
//! | `io_load` | §3/§5 — a saturated QBus uses ~30% of the MBus |
//! | `mdc_throughput` | §5 — 16 Mpixel/s fills, ~20k chars/s |
//! | `rpc_bandwidth` | §6 — 4.6 Mbit/s at ~3 threads |
//! | `cvax_upgrade` | §5.3 — the CVAX is 2.0–2.5× the MicroVAX |
//! | `model_sensitivity` | the §5.2 model's response to M, S, and bus speed |
//! | `parallel_make` | §6 — the parallel make speedup curve |
//! | `file_streaming` | §6 — file-system read-ahead depth vs throughput |
//! | `syscall_emulation` | footnote 5 — Ultrix emulation overhead vs service length |
//! | `fault_sweep` | §2 robustness — fault rate × protocol, recovery counters, N→N−1 degradation |
//! | `model_check` | §3 coherence — exhaustive small-config state enumeration, litmus suite, mutation smoke |
//!
//! The Criterion microbenchmarks (`cargo bench -p firefly-bench`) cover
//! the simulator's own hot paths: protocol decision tables, the cycle
//! engine, BitBlt, and the analytic model.

/// Shared output helpers for the experiment binaries.
pub mod report {
    /// Prints a section header.
    pub fn section(title: &str) {
        println!("\n=== {title} ===\n");
    }

    /// Prints a paper-vs-measured comparison line.
    pub fn compare(what: &str, paper: f64, measured: f64, unit: &str) {
        let ratio = if paper == 0.0 { f64::NAN } else { measured / paper };
        println!(
            "{what:<46} paper {paper:>9.2} {unit:<10} measured {measured:>9.2} ({ratio:>5.2}x)"
        );
    }

    /// `true` when the binary was invoked with `--json`: the experiment
    /// should emit a single machine-readable JSON document (via
    /// [`emit_json`]) instead of — or alongside — its plain-text tables.
    pub fn json_requested() -> bool {
        std::env::args().skip(1).any(|a| a == "--json")
    }

    /// Prints `value` as one line of JSON on stdout. This is the shared
    /// result emitter for every experiment binary: the schema is
    /// whatever the value's `Serialize` derive produces (for harness
    /// runs, see the README's "Running the evaluation in parallel").
    pub fn emit_json<T: serde::Serialize + ?Sized>(value: &T) {
        println!("{}", value.to_json());
    }

    /// Writes `doc` as one line of JSON to `path` and returns the JSON.
    /// This is the one writer of the `BENCH_N.json` reports: the schema
    /// is the report struct's `Serialize` derive, and the document is
    /// validated before it is written, so a report on disk parses.
    ///
    /// # Panics
    ///
    /// Panics when the JSON does not validate or `path` cannot be
    /// written.
    pub fn write<T: serde::Serialize + ?Sized>(path: &str, doc: &T) -> String {
        let json = doc.to_json();
        if let Err(e) = firefly_core::events::validate_json(&json) {
            panic!("{path}: report is not valid JSON: {e}");
        }
        std::fs::write(path, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        json
    }

    /// Names every failed condition of each `(name, failures)` gate on
    /// stderr and exits with status 1 if there was one.
    pub fn exit_on_failures(bin: &str, gates: &[(&str, Vec<&str>)]) {
        let mut failed = false;
        for (name, failures) in gates {
            for condition in failures {
                eprintln!("{bin}: {name} gate failed: {condition}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// The command line the seeded bench binaries (`arbiter_sweep`,
/// `engine_bench`, `fault_sweep`, `fleet`, `partition`, `soak`) share.
pub mod cli {
    /// `--smoke`, `--seed` and `--out`, as read by [`parse`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct BenchArgs {
        /// `--smoke`: CI sizing.
        pub smoke: bool,
        /// `--seed N` / `--seed=N`, decimal or `0x` hex; the binary's
        /// default when absent.
        pub seed: u64,
        /// `--out PATH` / `--out=PATH`, when given.
        pub out: Option<String>,
    }

    /// Reads the shared flags from the process arguments. Every other
    /// argument (`--json`, `--trace`) is left to its own reader.
    ///
    /// # Panics
    ///
    /// Panics when `--seed` or `--out` is missing its value or the seed
    /// is not an integer — flag misuse should fail loudly.
    pub fn parse(default_seed: u64) -> BenchArgs {
        parse_from(std::env::args().skip(1).collect(), default_seed)
    }

    fn parse_from(args: Vec<String>, default_seed: u64) -> BenchArgs {
        let mut parsed =
            BenchArgs { smoke: args.iter().any(|a| a == "--smoke"), seed: default_seed, out: None };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--seed" {
                parsed.seed = parse_seed(it.next().expect("--seed takes a value"));
            } else if let Some(v) = a.strip_prefix("--seed=") {
                parsed.seed = parse_seed(v);
            } else if a == "--out" {
                parsed.out = Some(it.next().expect("--out takes a path").clone());
            } else if let Some(v) = a.strip_prefix("--out=") {
                parsed.out = Some(v.to_string());
            }
        }
        parsed
    }

    fn parse_seed(v: &str) -> u64 {
        let v = v.trim();
        let parsed = if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            v.parse()
        };
        parsed.unwrap_or_else(|_| panic!("--seed wants an integer, got {v:?}"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(args: &[&str]) -> Vec<String> {
            args.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn defaults_apply_when_flags_are_absent() {
            let want = BenchArgs { smoke: false, seed: 7, out: None };
            assert_eq!(parse_from(argv(&["--json"]), 7), want);
        }

        #[test]
        fn both_spellings_and_hex_seeds_parse() {
            let want = BenchArgs { smoke: true, seed: 0x2a, out: Some("b.json".into()) };
            let spaced = argv(&["--smoke", "--seed", "42", "--out", "b.json"]);
            assert_eq!(parse_from(spaced, 7), want);
            assert_eq!(parse_from(argv(&["--out=b.json", "--seed=0x2a", "--smoke"]), 7), want);
        }

        #[test]
        #[should_panic(expected = "--seed wants an integer")]
        fn a_bad_seed_is_rejected() {
            let _ = parse_from(argv(&["--seed", "banana"]), 7);
        }

        #[test]
        #[should_panic(expected = "--out takes a path")]
        fn a_missing_out_path_is_rejected() {
            let _ = parse_from(argv(&["--out"]), 7);
        }
    }
}

/// Shared `--trace` support for the experiment binaries.
///
/// Any binary that accepts the flag runs its experiment as usual, then
/// captures one representative cycle-level run with event tracing
/// enabled and writes the Chrome trace-event JSON (load it in
/// `chrome://tracing` or Perfetto) to the given path:
///
/// ```text
/// cargo run --release -p firefly-bench --bin protocol_compare -- \
///     --trace /tmp/firefly.json --trace-limit 100000
/// ```
pub mod tracing {
    use firefly_core::events::chrome_trace;
    use firefly_core::fault::FaultConfig;
    use firefly_core::ProtocolKind;
    use firefly_sim::machine::FireflyBuilder;

    /// Where to write the trace and how many events to keep.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TraceOpts {
        /// Output path for the Chrome trace-event JSON.
        pub path: String,
        /// Event-ring capacity (`--trace-limit`, default 65 536); when a
        /// run emits more events than this, the oldest are dropped.
        pub limit: usize,
    }

    /// Parses `--trace <path>` / `--trace=<path>` and the optional
    /// `--trace-limit N` / `--trace-limit=N` from the process arguments.
    /// Returns `None` when `--trace` was not given.
    ///
    /// # Panics
    ///
    /// Panics when `--trace` is missing its path or `--trace-limit` is
    /// not a positive integer — flag misuse should fail loudly, not
    /// silently skip the trace.
    pub fn requested() -> Option<TraceOpts> {
        parse(std::env::args().skip(1))
    }

    fn parse(args: impl Iterator<Item = String>) -> Option<TraceOpts> {
        let mut path = None;
        let mut limit = 65_536usize;
        let mut it = args;
        while let Some(a) = it.next() {
            if a == "--trace" {
                path = Some(it.next().expect("--trace takes an output path"));
            } else if let Some(p) = a.strip_prefix("--trace=") {
                path = Some(p.to_string());
            } else if a == "--trace-limit" {
                limit = parse_limit(&it.next().expect("--trace-limit takes a value"));
            } else if let Some(v) = a.strip_prefix("--trace-limit=") {
                limit = parse_limit(v);
            }
        }
        path.map(|path| TraceOpts { path, limit })
    }

    fn parse_limit(v: &str) -> usize {
        let n: usize = v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("--trace-limit wants an integer, got {v:?}"));
        assert!(n > 0, "--trace-limit must be positive");
        n
    }

    /// Runs one traced cycle-level machine — `cpus` processors,
    /// `protocol`, an optional fault plan — for `cycles` bus cycles and
    /// writes the Chrome trace-event JSON to `opts.path`. Prints a
    /// one-line confirmation with the event count.
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be written.
    pub fn capture(
        opts: &TraceOpts,
        cpus: usize,
        protocol: ProtocolKind,
        faults: Option<FaultConfig>,
        cycles: u64,
    ) {
        let mut b = FireflyBuilder::microvax(cpus)
            .protocol(protocol)
            .seed(0xf1ef1e)
            .trace_events(opts.limit);
        if let Some(plan) = faults {
            b = b.faults(plan);
        }
        let mut m = b.build();
        m.run(cycles);
        let events = m.take_events();
        let json = chrome_trace(&events);
        std::fs::write(&opts.path, &json)
            .unwrap_or_else(|e| panic!("cannot write trace to {}: {e}", opts.path));
        println!(
            "trace: wrote {} event(s) from a {cpus}-CPU {} run over {cycles} cycles to {}",
            events.len(),
            protocol.name(),
            opts.path
        );
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(args: &[&str]) -> std::vec::IntoIter<String> {
            args.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
        }

        #[test]
        fn parse_recognises_both_flag_spellings() {
            assert_eq!(parse(argv(&[])), None);
            assert_eq!(parse(argv(&["--json"])), None);
            assert_eq!(
                parse(argv(&["--trace", "/tmp/t.json"])),
                Some(TraceOpts { path: "/tmp/t.json".into(), limit: 65_536 })
            );
            assert_eq!(
                parse(argv(&["--trace=/tmp/t.json", "--trace-limit=128"])),
                Some(TraceOpts { path: "/tmp/t.json".into(), limit: 128 })
            );
            assert_eq!(
                parse(argv(&["--smoke", "--trace", "x", "--trace-limit", "9"])),
                Some(TraceOpts { path: "x".into(), limit: 9 })
            );
        }

        #[test]
        #[should_panic(expected = "--trace-limit must be positive")]
        fn zero_limit_is_rejected() {
            let _ = parse(argv(&["--trace", "x", "--trace-limit", "0"]));
        }

        #[test]
        fn capture_writes_a_validating_trace() {
            let path = std::env::temp_dir().join("firefly-bench-capture-test.json");
            let opts = TraceOpts { path: path.to_string_lossy().into_owned(), limit: 4096 };
            capture(&opts, 2, ProtocolKind::Firefly, None, 5_000);
            let json = std::fs::read_to_string(&path).expect("trace written");
            firefly_core::events::validate_json(&json).expect("valid JSON");
            assert!(json.contains("\"traceEvents\""));
            let _ = std::fs::remove_file(&path);
        }
    }
}
