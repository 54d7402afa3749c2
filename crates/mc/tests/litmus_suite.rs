//! The built-in litmus suite under every protocol, clean and
//! fault-overlapped. The MBus serializes all traffic, so every
//! protocol must be sequentially consistent: no forbidden outcome is
//! ever observable, under any interleaving, with or without
//! correctable fault injection.

use firefly_core::fault::FaultConfig;
use firefly_core::protocol::ProtocolKind;
use firefly_core::{ArbiterKind, BusMode};
use firefly_mc::litmus::{builtin_suite, run, run_configured, run_with};
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
