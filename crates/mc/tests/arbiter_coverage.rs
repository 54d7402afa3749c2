//! PR-8 coverage: the model checker and litmus suite across every
//! arbitration policy and both bus modes.
//!
//! Model-checking and litmus traffic is *serialized* — one access on
//! the wires at a time — so the arbitration discipline and the split
//! pipeline must be observationally irrelevant: every policy × mode
//! must reproduce the **identical** reachable state graph and the
//! identical litmus outcome sets as the default fixed-priority unified
//! bus. A policy that could misroute a grant, deadlock a lone
//! requester, or let the split pipeline corrupt a single transaction
//! diverges (or violates) here immediately.

use firefly_core::protocol::ProtocolKind;
use firefly_core::{fault::FaultConfig, ArbiterKind, BusMode};
use firefly_mc::explore::{explore, McConfig};
use firefly_mc::litmus::{builtin_suite, run_configured};

#[test]
fn state_graph_is_identical_under_every_policy_and_mode() {
    let baseline = explore(&McConfig::new(ProtocolKind::Firefly));
    assert!(baseline.violation.is_none(), "baseline must be clean");
    assert!(baseline.complete, "baseline enumeration must close");
    for kind in ArbiterKind::ALL {
        for mode in [BusMode::Unified, BusMode::Split] {
            let cfg = McConfig::new(ProtocolKind::Firefly).with_arbiter(kind).with_bus_mode(mode);
            let rep = explore(&cfg);
            assert!(rep.violation.is_none(), "{kind:?}/{mode:?}: violation {:?}", rep.violation);
            assert_eq!(
                (rep.states, rep.transitions, rep.depth_reached, rep.complete),
                (baseline.states, baseline.transitions, baseline.depth_reached, baseline.complete),
                "{kind:?}/{mode:?}: serialized traffic must be policy-invariant"
            );
        }
    }
}

#[test]
fn litmus_outcomes_are_identical_under_every_policy_and_mode() {
    for test in builtin_suite() {
        let baseline = run_configured(
            &test,
            ProtocolKind::Firefly.table(),
            FaultConfig::default(),
            ArbiterKind::FixedPriority,
            BusMode::Unified,
        );
        assert!(baseline.violation.is_none(), "{}: baseline violation", test.name);
        for kind in ArbiterKind::ALL {
            for mode in [BusMode::Unified, BusMode::Split] {
                let out = run_configured(
                    &test,
                    ProtocolKind::Firefly.table(),
                    FaultConfig::default(),
                    kind,
                    mode,
                );
                assert!(
                    out.violation.is_none(),
                    "{} under {kind:?}/{mode:?}: {:?}",
                    test.name,
                    out.violation
                );
                assert_eq!(
                    out.outcomes, baseline.outcomes,
                    "{} under {kind:?}/{mode:?}: outcome set changed",
                    test.name
                );
            }
        }
    }
}
