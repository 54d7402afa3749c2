//! Targeted `MShared` staleness test. The Firefly's `MShared` line is a
//! wired-OR any card can glitch, and the two failure directions are not
//! symmetric:
//!
//! * **stale-true** (spurious assert): a line is marked shared when it
//!   is not. Pure conservatism — the protocol takes the shared path,
//!   loses a little performance, and stays correct. The checker must
//!   *tolerate* it.
//! * **stale-false** (dropped assert): a cache silently keeps a copy
//!   the requester believes is exclusive. That breaks the single-writer
//!   guarantee, and the checker must *reject* it.

use firefly_core::check::CoherenceChecker;
use firefly_core::config::SystemConfig;
use firefly_core::fault::FaultConfig;
use firefly_core::protocol::{BusOp, ProtocolKind};
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, CacheGeometry, PortId};
use firefly_mc::explore::{explore_with, McConfig};
use firefly_mc::mutate::{mutant_table, mutations_for, record_exercise, Mutation};
use std::collections::BTreeMap;

/// Stale-true: a heavy spurious-`MShared` plan over a ping-pong
/// workload. Every access still returns the oracle value and every
/// step passes the full invariant battery.
#[test]
fn spurious_mshared_is_tolerated() {
    let faults =
        FaultConfig { seed: 0x5afe, mshared_spurious_ppm: 300_000, ..FaultConfig::default() };
    let mut fired = 0;
    for kind in ProtocolKind::ALL {
        let cfg = SystemConfig::microvax(2)
            .with_cache(CacheGeometry::new(4, 1).unwrap())
            .with_memory_mb(1)
            .with_faults(faults);
        let mut sys = MemSystem::new(cfg, kind).unwrap();
        let checker = CoherenceChecker::new();
        let mut oracle: BTreeMap<Addr, u32> = BTreeMap::new();
        for i in 0..160u32 {
            let port = PortId::new((i % 2) as usize);
            let addr = Addr::from_word_index(i % 3);
            if i % 4 < 2 {
                sys.run_to_completion(port, Request::write(addr, i)).unwrap();
                oracle.insert(addr, i);
            } else {
                let got = sys.run_to_completion(port, Request::read(addr)).unwrap().value;
                let want = oracle.get(&addr).copied().unwrap_or(0);
                assert_eq!(got, want, "{kind:?}: step {i} read a stale value");
            }
            checker
                .check_serialized(&sys, &oracle)
                .unwrap_or_else(|e| panic!("{kind:?}: step {i}: stale-true rejected: {e}"));
        }
        fired += sys.fault_stats().mshared_spurious;
    }
    assert!(fired > 0, "the spurious-MShared plan never fired — the test is vacuous");
}

/// Stale-false, direct scenario: drop one snooper's `MShared` assert on
/// a read. CPU 0 loads a line; CPU 1 loads the same line but — under
/// the mutant — sees the bus unshared and fills exclusive while CPU 0
/// still holds a copy. The very next invariant check must fail.
#[test]
fn dropped_mshared_is_rejected() {
    let mut direct = 0;
    for kind in ProtocolKind::ALL {
        let table = kind.table();
        let [fill_alone, fill_shared] = table.read_fill;
        // The scenario is observable only where an unshared read fill
        // is exclusive and the filled state answers read snoops.
        if fill_alone.is_shared()
            || fill_alone == fill_shared
            || !table.snoop[fill_alone as usize][BusOp::Read as usize].assert_shared
        {
            continue;
        }
        let mc = McConfig::new(kind);
        let mutant =
            mutant_table(&mc, Mutation::SnoopDropShared { state: fill_alone, op: BusOp::Read });
        let cfg = SystemConfig::microvax(2)
            .with_cache(CacheGeometry::new(4, 1).unwrap())
            .with_memory_mb(1);
        let mut sys = MemSystem::with_table(cfg, mutant).unwrap();
        let addr = Addr::from_word_index(0);
        sys.run_to_completion(PortId::new(0), Request::read(addr)).unwrap();
        sys.run_to_completion(PortId::new(1), Request::read(addr)).unwrap();
        let err = CoherenceChecker::new().check(&sys);
        assert!(err.is_err(), "{kind:?}: stale-false MShared went undetected");
        direct += 1;
    }
    assert!(direct >= 3, "too few protocols exercised the direct stale-false scenario");
}

/// Stale-false, exhaustively: every `SnoopDropShared` mutant the
/// generator produces — for every protocol and every (state, op) it
/// deems detectable — is caught by the explorer.
#[test]
fn every_dropped_mshared_mutant_is_caught_by_exploration() {
    let mut total = 0;
    for kind in ProtocolKind::ALL {
        let cfg = McConfig::new(kind);
        let (log, _) = record_exercise(&cfg);
        for m in mutations_for(kind, &log) {
            if !matches!(m, Mutation::SnoopDropShared { .. }) {
                continue;
            }
            let rep = explore_with(&cfg, mutant_table(&cfg, m));
            assert!(rep.violation.is_some(), "{kind:?}: {m} survived exploration");
            total += 1;
        }
    }
    assert!(total > 0, "no SnoopDropShared mutants generated anywhere — vacuous test");
}
