//! Property tests of the MBus arbitration disciplines
//! ([`firefly_core::arbiter`]).
//!
//! These pin the contract the bus and the watchdog build on (see
//! `DESIGN.md`): every policy is **work-conserving** (never idles the
//! bus while a request line is raised, and never grants a line that
//! isn't raised), **deterministic** in `(requests, now, state)`,
//! **snapshot-round-trippable mid-grant**, and — for the policies that
//! advertise a [`grant_bound`] — grants a continuously raised request
//! within that bound even against adversarial competitors. Fixed
//! priority and I/O-favoring advertise no bound and are asserted unfair
//! *by construction*: the same adversary starves them forever.
//!
//! [`grant_bound`]: firefly_core::ArbiterKind::grant_bound

use firefly_core::arbiter::Arbiter;
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::{ArbiterKind, PortId, BUS_CYCLES_PER_OP};
use proptest::prelude::*;

/// A request-line strategy: each port independently raised-or-not, with
/// a raise cycle below `now`.
fn lines(ports: usize, now: u64) -> impl Strategy<Value = Vec<Option<u64>>> {
    prop::collection::vec((any::<bool>(), 0..now).prop_map(|(up, c)| up.then_some(c)), ports)
}

/// Replays `grants` into a fresh arbiter of `kind` (the only mutable
/// state any discipline carries is fed through `note_grant`).
fn policy_after(kind: ArbiterKind, grants: &[usize], ports: usize) -> Arbiter {
    let mut p = Arbiter::new(kind);
    for &g in grants {
        p.note_grant(PortId::new(g % ports));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Work conservation, both directions: some raised line ⇒ a grant,
    /// and any grant names a raised line. Holds for every policy, any
    /// request pattern, any grant history.
    #[test]
    fn every_policy_is_work_conserving(
        requests in lines(7, 10_000),
        grants in prop::collection::vec(0usize..7, 0..12),
        now in 10_000u64..20_000,
    ) {
        for kind in ArbiterKind::ALL {
            let p = policy_after(kind, &grants, 7);
            let winner = p.pick(&requests, now);
            let any = requests.iter().any(Option::is_some);
            prop_assert_eq!(winner.is_some(), any, "{:?}: work conservation", kind);
            if let Some(w) = winner {
                prop_assert!(
                    requests[w.index()].is_some(),
                    "{:?} granted port {} whose line is not raised",
                    kind,
                    w.index()
                );
            }
        }
    }

    /// Determinism: the same `(requests, now)` against the same grant
    /// history always picks the same winner — across repeated calls
    /// *and* across a freshly built policy fed the same history.
    #[test]
    fn every_policy_is_deterministic(
        requests in lines(7, 10_000),
        grants in prop::collection::vec(0usize..7, 0..12),
        now in 10_000u64..20_000,
    ) {
        for kind in ArbiterKind::ALL {
            let a = policy_after(kind, &grants, 7);
            let b = policy_after(kind, &grants, 7);
            prop_assert_eq!(a.pick(&requests, now), a.pick(&requests, now), "{:?}", kind);
            prop_assert_eq!(a.pick(&requests, now), b.pick(&requests, now), "{:?}", kind);
        }
    }

    /// Snapshot round-trip mid-grant: serializing a policy's state after
    /// an arbitrary grant history and loading it into a fresh instance
    /// reproduces every subsequent pick.
    #[test]
    fn every_policy_snapshot_round_trips_mid_grant(
        requests in lines(7, 10_000),
        grants in prop::collection::vec(0usize..7, 0..12),
        now in 10_000u64..20_000,
    ) {
        for kind in ArbiterKind::ALL {
            let original = policy_after(kind, &grants, 7);
            let mut w = SnapWriter::new();
            original.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = Arbiter::new(kind);
            restored.load_state(&mut SnapReader::new(&bytes)).expect("round trip");
            prop_assert_eq!(
                original.pick(&requests, now),
                restored.pick(&requests, now),
                "{:?}: restored policy diverged",
                kind
            );
        }
    }

    /// Fair policies grant a continuously raised request within their
    /// advertised [`ArbiterKind::grant_bound`], even when every other
    /// port re-raises its line the instant it is served (the worst case
    /// the bound is quoted for). The abstract bus model matches the real
    /// one where it matters: one grant per transaction, each holding the
    /// bus [`BUS_CYCLES_PER_OP`] cycles.
    #[test]
    fn fair_policies_grant_within_their_bound(
        ports in 2usize..9,
        victim_seed in 0usize..8,
        stagger in prop::collection::vec(0u64..4, 8),
    ) {
        let victim = victim_seed % ports;
        for kind in [ArbiterKind::Fcfs, ArbiterKind::RoundRobin, ArbiterKind::Aging] {
            let bound = kind.grant_bound(ports).expect("fair policies advertise a bound");
            let mut p = Arbiter::new(kind);
            // Every line raised from the start (staggered raise cycles
            // so FCFS ordering is nontrivial); competitors re-raise
            // immediately after every grant, the victim stays raised
            // until served.
            let mut requests: Vec<Option<u64>> =
                (0..ports).map(|i| Some(stagger[i % stagger.len()])).collect();
            let raised_at = requests[victim].unwrap();
            let mut now = 4u64; // first arbitration after the raises
            let mut served = None;
            for _ in 0..ports * 64 {
                let w = p.pick(&requests, now).expect("lines are raised");
                p.note_grant(w);
                if w.index() == victim {
                    served = Some(now);
                    break;
                }
                requests[w.index()] = Some(now); // adversary re-raises instantly
                now += BUS_CYCLES_PER_OP; // the grantee holds the bus
            }
            let served = served.unwrap_or_else(|| panic!("{kind:?}: victim never served"));
            prop_assert!(
                served - raised_at <= bound,
                "{:?}: victim waited {} > advertised bound {} ({} ports)",
                kind,
                served - raised_at,
                bound,
                ports
            );
        }
    }

    /// The unfair policies are unfair *by construction*: against the
    /// same instant-re-raise adversary on the favored port, the victim
    /// is never served — which is exactly why
    /// [`ArbiterKind::grant_bound`] returns `None` for them and the
    /// watchdog keeps its own budget there.
    #[test]
    fn unfair_policies_starve_under_a_monopolist(rounds in 50usize..200) {
        let ports = 4;
        for kind in [ArbiterKind::FixedPriority, ArbiterKind::IoFavoring] {
            prop_assert!(kind.grant_bound(ports).is_none(), "{:?} must advertise no bound", kind);
            let favored = match kind {
                ArbiterKind::FixedPriority => 0, // lowest port wins
                _ => ports - 1,                  // the I/O port wins
            };
            let victim = ports - 1 - favored; // the opposite end
            let mut p = Arbiter::new(kind);
            let mut requests: Vec<Option<u64>> = vec![None; ports];
            requests[favored] = Some(0);
            requests[victim] = Some(0);
            let mut now = 4u64;
            for _ in 0..rounds {
                let w = p.pick(&requests, now).expect("lines are raised");
                prop_assert_eq!(
                    w.index(),
                    favored,
                    "{:?}: the monopolist must win every arbitration",
                    kind
                );
                p.note_grant(w);
                requests[favored] = Some(now);
                now += BUS_CYCLES_PER_OP;
            }
            prop_assert!(requests[victim].is_some(), "the victim is still waiting, unserved");
        }
    }
}
