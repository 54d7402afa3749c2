//! Exhaustive model checking of the seven coherence protocols on small
//! configurations, in the style of Archibald & Baer's protocol survey:
//! enumerate *every* reachable state of a 2–3 cache system over one or
//! two memory words and a tiny value domain, applying the full
//! invariant battery (the structural `CoherenceChecker::check`
//! invariants plus write-serialization, single-writer order and
//! read-your-writes) at every state. The checker drives the *same* `MemSystem` cycle
//! engine and the same protocol decision tables as every simulation in
//! this workspace — nothing is re-modelled, so a pass certifies the
//! engine itself.
//!
//! Three passes per protocol:
//!
//! 1. **Exploration** — BFS with hash-consed states on the deterministic
//!    worker pool; state counts are identical at any `FIREFLY_JOBS`.
//! 2. **Litmus suite** — the built-in DSL tests (store buffering,
//!    message passing, single-location coherence) across *all*
//!    interleavings, through the explorer's own checked step and
//!    cross-checked against the reference simulator.
//! 3. **Mutation smoke** — one flipped transition-table entry at a
//!    time; every generated mutant must be caught by the checker, which
//!    guards the checker itself against vacuous passes.
//!
//! For the timestamped protocol (Tardis) the invariant battery grows
//! the timestamp invariants: lease structure inside
//! `CoherenceChecker::check` and each access's order in
//! `CoherenceChecker::check_access`. A Tardis-only run defaults to two
//! tracked words — a lease can only expire when
//! writes to a *second* line advance the writer's program timestamp,
//! so the single-word default would leave every renewal path (and the
//! renewal-dependent mutants) out of the explored space.
//!
//! Flags: `--protocol NAME` restricts to one protocol (default: all
//! seven); `--caches N`, `--lines N`, `--words N`, `--values N` and
//! `--depth N` size the configuration; `--json` emits the report as one
//! JSON document; `--smoke` is the CI gate — small closed spaces, all
//! seven protocols, exits nonzero on any violation or surviving mutant.

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_core::protocol::ProtocolKind;
use firefly_mc::explore::{counterexample, explore, McConfig};
use firefly_mc::litmus::{builtin_suite, run};
use firefly_mc::mutate::{mutant_table, mutation_smoke};
use serde::Serialize;

/// One litmus test's result under one protocol.
#[derive(Clone, Debug, Serialize)]
struct LitmusRow {
    name: String,
    interleavings: usize,
    distinct_outcomes: usize,
    passed: bool,
}

/// Everything the checker established about one protocol.
#[derive(Clone, Debug, Serialize)]
struct ProtocolRow {
    protocol: ProtocolKind,
    states: usize,
    transitions: usize,
    depth_reached: usize,
    complete: bool,
    violation: Option<String>,
    litmus: Vec<LitmusRow>,
    mutants: usize,
    mutants_killed: usize,
}

#[derive(Debug, Serialize)]
struct CheckReport {
    caches: usize,
    words: u32,
    values: u32,
    depth: usize,
    cache_lines: usize,
    mutation_pass: bool,
    protocols: Vec<ProtocolRow>,
}

fn usage() -> ! {
    eprintln!(
        "usage: model_check [--protocol NAME] [--caches N] [--lines N] [--words N]\n\
         \x20                  [--values N] [--depth N] [--no-mutants|--mutants] [--json] [--smoke]"
    );
    std::process::exit(2)
}

fn parse_num(flag: &str, v: Option<&String>) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| panic!("{flag} wants an integer"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    // `--smoke` closes the full space (depth bound high enough that BFS
    // terminates by fixpoint, asserted below); interactive runs default
    // to the same exhaustive settings.
    let mut caches = 2usize;
    let mut words: Option<u32> = None;
    let mut values = 2u32;
    let mut depth = 24usize;
    let mut cache_lines = 4usize;
    let mut protocols: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
    let mut mutants_enabled = true;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--protocol" => {
                let v = it.next().unwrap_or_else(|| usage());
                let kind = ProtocolKind::ALL
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(v))
                    .unwrap_or_else(|| panic!("unknown protocol {v:?}"));
                protocols = vec![kind];
            }
            "--caches" => caches = parse_num("--caches", it.next()),
            "--lines" => cache_lines = parse_num("--lines", it.next()),
            "--words" => words = Some(parse_num("--words", it.next()) as u32),
            "--values" => values = parse_num("--values", it.next()) as u32,
            "--depth" => depth = parse_num("--depth", it.next()),
            "--no-mutants" => mutants_enabled = false,
            "--mutants" => mutants_enabled = true,
            "--smoke" | "--json" => {}
            "--help" | "-h" => usage(),
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }

    // Timestamped protocols need a second tracked word before any lease
    // can expire; default to it for a timestamped-only run (an explicit
    // --words always wins).
    let words = words.unwrap_or(if protocols.iter().all(|k| k.is_timestamped()) { 2 } else { 1 });

    // The mutation kill-guarantees are proved for a 2-cache, ≥2-value
    // configuration (the dropped MShared asserter must be the sole
    // wired-OR contributor); other geometries skip the pass.
    if mutants_enabled && (caches != 2 || values < 2) {
        eprintln!("note: mutation pass needs --caches 2 and --values >= 2; skipping it");
        mutants_enabled = false;
    }

    let mut failed = false;
    let mut rows = Vec::new();
    for kind in &protocols {
        let cfg = McConfig::new(*kind)
            .with_caches(caches)
            .with_words(words)
            .with_values(values)
            .with_depth(depth)
            .with_cache_lines(cache_lines);

        // Pass 1: exhaustive exploration of the clean protocol.
        let rep = explore(&cfg);
        if let Some(v) = &rep.violation {
            failed = true;
            eprintln!("{}: VIOLATION after {:?}: {}", kind.name(), v.path, v.message);
            let ce = counterexample(&cfg, cfg.table(), v);
            eprintln!("{}", ce.timeline());
        }

        // Pass 2: the litmus suite, every interleaving.
        let mut litmus = Vec::new();
        for test in builtin_suite() {
            let out = run(&test, *kind);
            if let Some(v) = &out.violation {
                failed = true;
                eprintln!("{}: litmus {} FAILED: {}", kind.name(), test.name, v.message);
            }
            litmus.push(LitmusRow {
                name: out.name,
                interleavings: out.interleavings,
                distinct_outcomes: out.outcomes.len(),
                passed: out.violation.is_none(),
            });
        }

        // Pass 3: mutation smoke — the checker must catch every seeded
        // table mutant, or the green runs above prove nothing.
        let (mutants, mutants_killed) = if mutants_enabled {
            let (_, outcomes) = mutation_smoke(&cfg);
            let killed = outcomes.iter().filter(|o| o.caught).count();
            for o in outcomes.iter().filter(|o| !o.caught) {
                failed = true;
                eprintln!("{}: mutant SURVIVED: {}", kind.name(), o.mutation);
            }
            // Spot-check one counterexample end to end: the minimized
            // path must replay to the same violation under the mutant.
            if let Some(o) = outcomes.iter().find(|o| o.caught) {
                let v = o.violation.as_ref().expect("caught mutant carries a violation");
                let table = mutant_table(&cfg, o.mutation);
                if firefly_mc::replay_violation(&cfg, table, &v.path).is_none() {
                    failed = true;
                    eprintln!("{}: counterexample did not replay: {}", kind.name(), o.mutation);
                }
            }
            (outcomes.len(), killed)
        } else {
            (0, 0)
        };

        rows.push(ProtocolRow {
            protocol: *kind,
            states: rep.states,
            transitions: rep.transitions,
            depth_reached: rep.depth_reached,
            complete: rep.complete,
            violation: rep.violation.as_ref().map(|v| v.message.clone()),
            litmus,
            mutants,
            mutants_killed,
        });
    }

    if smoke {
        for r in &rows {
            assert!(r.complete, "{:?}: state space did not close at depth {depth}", r.protocol);
        }
    }

    if report::json_requested() {
        report::emit_json(&CheckReport {
            caches,
            words,
            values,
            depth,
            cache_lines,
            mutation_pass: mutants_enabled,
            protocols: rows,
        });
        if failed {
            std::process::exit(1);
        }
        return;
    }

    report::section(&format!(
        "model check: {caches} caches x {words} word(s), {values} values, depth {depth}"
    ));
    println!(
        "  {:<14} {:>8} {:>12} {:>6} {:>7} {:>14} {:>9}",
        "protocol", "states", "transitions", "depth", "closed", "litmus", "mutants"
    );
    for r in &rows {
        let lit_pass = r.litmus.iter().filter(|l| l.passed).count();
        println!(
            "  {:<14} {:>8} {:>12} {:>6} {:>7} {:>11}/{:<2} {:>5}/{:<3}",
            r.protocol.name(),
            r.states,
            r.transitions,
            r.depth_reached,
            if r.complete { "yes" } else { "no" },
            lit_pass,
            r.litmus.len(),
            r.mutants_killed,
            r.mutants,
        );
    }
    println!(
        "\nreading: every reachable state of the small configuration satisfies the full\n\
         invariant battery; all litmus interleavings agree with the reference simulator\n\
         and never show a forbidden (non-sequentially-consistent) outcome; and every\n\
         seeded transition-table mutant is caught, so the green rows are not vacuous."
    );

    if failed {
        std::process::exit(1);
    }
}
