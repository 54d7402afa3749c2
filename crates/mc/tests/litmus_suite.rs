//! The built-in litmus suite under every protocol, clean and
//! fault-overlapped. The MBus serializes all traffic, so every
//! protocol must be sequentially consistent: no forbidden outcome is
//! ever observable, under any interleaving, with or without
//! correctable fault injection.

use firefly_core::fault::FaultConfig;
use firefly_core::protocol::ProtocolKind;
use firefly_core::{ArbiterKind, BusMode};
use firefly_mc::explore::McConfig;
use firefly_mc::litmus::{builtin_suite, run, run_configured, run_with};
use firefly_mc::mutate::{mutant_table, mutations_for, record_exercise};
use firefly_mc::Mutation;

#[test]
fn suite_passes_under_every_protocol() {
    for kind in ProtocolKind::ALL {
        for test in builtin_suite() {
            let out = run(&test, kind);
            assert!(
                out.violation.is_none(),
                "{kind:?}/{}: {:?}",
                test.name,
                out.violation.map(|v| v.message)
            );
            assert!(out.interleavings > 1, "{}: degenerate interleaving count", test.name);
            assert!(!out.outcomes.is_empty(), "{}: no outcomes recorded", test.name);
        }
    }
}

/// Spurious `MShared` is *stale-true* information: a line may be marked
/// shared when it is not, which costs performance but never
/// correctness. Every interleaving must still pass the full invariant
/// battery and produce exactly the clean run's outcome set.
#[test]
fn fault_overlapped_runs_match_clean_outcomes() {
    let spurious =
        FaultConfig { seed: 0xf1f1, mshared_spurious_ppm: 250_000, ..FaultConfig::default() };
    let storm = FaultConfig::correctable(0xabcd, 40_000);
    for kind in ProtocolKind::ALL {
        for test in builtin_suite() {
            let clean = run(&test, kind);
            for (label, faults) in [("spurious-mshared", spurious), ("correctable-storm", storm)] {
                let faulty = run_with(&test, kind, faults);
                assert!(
                    faulty.violation.is_none(),
                    "{kind:?}/{}/{label}: {:?}",
                    test.name,
                    faulty.violation.map(|v| v.message)
                );
                assert_eq!(
                    clean.outcomes, faulty.outcomes,
                    "{kind:?}/{}/{label}: fault injection changed observable outcomes",
                    test.name
                );
            }
        }
    }
}

/// The runner itself is deterministic: same test, same protocol, same
/// outcome set and interleaving count on every invocation.
#[test]
fn runner_is_deterministic() {
    for test in builtin_suite() {
        let a = run(&test, ProtocolKind::Firefly);
        let b = run(&test, ProtocolKind::Firefly);
        assert_eq!(a.interleavings, b.interleavings);
        assert_eq!(a.outcomes, b.outcomes);
    }
}

/// The litmus runner checks each step with the explorer's battery,
/// Tardis timestamp order included: every timestamp-rule mutant of the
/// default Tardis table fails at least one built-in test with a
/// `timestamp order` violation.
#[test]
fn every_timestamp_mutant_fails_a_builtin_test() {
    for mutation in [
        Mutation::TsDropWtsBump,
        Mutation::TsGrantNoRenew,
        Mutation::TsServeStale,
        Mutation::TsSwapFill,
    ] {
        let mut table = ProtocolKind::Tardis.table();
        mutation.apply(&mut table);
        let caught = builtin_suite().iter().any(|test| {
            let out = run_configured(
                test,
                table,
                FaultConfig::default(),
                ArbiterKind::default(),
                BusMode::default(),
            );
            out.violation.is_some_and(|v| v.message.contains("timestamp order"))
        });
        assert!(caught, "{mutation}: no built-in test reported a timestamp order violation");
    }
}

/// The built-in suite against the explorer's own mutants: every mutant
/// `mutations_for` generates at `McConfig::new(kind)`, across all seven
/// protocols, run through every built-in test. A mutant is killed when
/// some test reports a violation. `rr-share` (two CPUs read a line
/// neither holds, then each writes and reads back) is what snoops a
/// clean exclusive copy with a read; without it the suite kills 55.
/// Three mutants still pass every built-in test (the explorer kills
/// them, `tests/mutation_kill.rs`):
///
/// * Firefly `snoop(D, Write): drop MShared assert`;
/// * Firefly `snoop(D, Write): force next state D`;
/// * WriteOnce `write_hit(V): silent dirty -> silent clean`.
#[test]
fn builtin_suite_kills_the_explorer_mutants() {
    let suite = builtin_suite();
    let (mut generated, mut survivors) = (0, Vec::new());
    for kind in ProtocolKind::ALL {
        let cfg = McConfig::new(kind);
        let (log, clean) = record_exercise(&cfg);
        assert!(clean.violation.is_none(), "{kind:?}: {:?}", clean.violation);
        for mutation in mutations_for(kind, &log) {
            generated += 1;
            let table = mutant_table(&cfg, mutation);
            let killed = suite.iter().any(|test| {
                let out = run_configured(
                    test,
                    table,
                    FaultConfig::default(),
                    ArbiterKind::default(),
                    BusMode::default(),
                );
                out.violation.is_some()
            });
            if !killed {
                survivors.push(format!("{kind:?} {mutation}"));
            }
        }
    }
    assert_eq!(generated, 69, "the explorer's mutant count moved");
    assert_eq!(
        survivors,
        [
            "Firefly snoop(D, Write): drop MShared assert",
            "Firefly snoop(D, Write): force next state D",
            "WriteOnce write_hit(V): silent dirty -> silent clean",
        ],
        "killed {} of {generated}",
        generated - survivors.len()
    );
}
