//! Mutation-testing smoke: one edited protocol-table entry at a time,
//! run through the *real* `MemSystem` engine via
//! `MemSystem::with_table`. The model checker must catch every
//! generated mutant under every protocol — otherwise its green runs
//! prove nothing — and every kill must come with a minimized,
//! replayable counterexample that renders through the standard
//! `timeline`/`chrome_trace` exporters.
//!
//! The mutation pass runs once per protocol ([`smoke`]) and every test
//! here reads that one result.

use firefly_core::events::validate_json;
use firefly_core::protocol::ProtocolKind;
use firefly_mc::explore::{counterexample, replay_violation, McConfig, McReport};
use firefly_mc::mutate::{
    mutant_table, mutation_smoke, mutations_for, record_exercise, MutationOutcome,
};
use std::sync::OnceLock;

/// [`mutation_smoke`] under `McConfig::new(kind)`, computed on first
/// use and shared by every test in this file.
fn smoke(kind: ProtocolKind) -> &'static (McReport, Vec<MutationOutcome>) {
    static PASSES: [OnceLock<(McReport, Vec<MutationOutcome>)>; ProtocolKind::ALL.len()] =
        [const { OnceLock::new() }; ProtocolKind::ALL.len()];
    let i = ProtocolKind::ALL.iter().position(|&k| k == kind).expect("a listed protocol");
    PASSES[i].get_or_init(|| mutation_smoke(&McConfig::new(kind)))
}

#[test]
fn every_generated_mutant_is_killed() {
    for kind in ProtocolKind::ALL {
        let (clean, outcomes) = smoke(kind);
        assert!(
            clean.violation.is_none(),
            "{kind:?}: the unmutated protocol violated: {:?}",
            clean.violation
        );
        assert!(clean.complete, "{kind:?}: recording run did not close the state space");
        assert!(!outcomes.is_empty(), "{kind:?}: no mutants generated — the pass is vacuous");
        for o in outcomes {
            assert!(o.caught, "{kind:?}: mutant survived exploration: {}", o.mutation);
            assert!(o.violation.is_some(), "{kind:?}: caught mutant lost its violation");
        }
    }
}

#[test]
fn counterexamples_are_minimal_and_replayable() {
    for kind in ProtocolKind::ALL {
        let cfg = McConfig::new(kind);
        for o in &smoke(kind).1 {
            let v = o.violation.as_ref().expect("caught mutant carries a violation");
            let mutation = o.mutation;
            let table = mutant_table(&cfg, mutation);

            // Replayable: the minimized path still violates from reset.
            assert!(
                replay_violation(&cfg, table, &v.path).is_some(),
                "{kind:?}/{mutation}: minimized path no longer violates"
            );
            // 1-minimal: dropping any single op loses the violation.
            for skip in 0..v.path.len() {
                let mut shorter = v.path.clone();
                shorter.remove(skip);
                assert!(
                    replay_violation(&cfg, table, &shorter).is_none(),
                    "{kind:?}/{mutation}: path not 1-minimal (op {skip} is removable)"
                );
            }
        }
    }
}

#[test]
fn counterexample_traces_render_through_the_standard_exporters() {
    // One protocol suffices for the exporter plumbing; the replay
    // property above already covers all seven.
    let kind = ProtocolKind::Firefly;
    let cfg = McConfig::new(kind);
    let mut rendered = 0;
    for o in &smoke(kind).1 {
        let v = o.violation.as_ref().expect("caught mutant carries a violation");
        let mutation = o.mutation;
        let ce = counterexample(&cfg, mutant_table(&cfg, mutation), v);
        assert!(!ce.events.is_empty(), "{mutation}: counterexample captured no events");
        validate_json(&ce.chrome_trace())
            .unwrap_or_else(|e| panic!("{mutation}: chrome trace is not valid JSON: {e}"));
        assert!(!ce.timeline().trim().is_empty(), "{mutation}: empty timeline");
        assert!(ce.script().contains(&format!("{}", v.path[0])), "{mutation}: script lost ops");
        rendered += 1;
    }
    assert!(rendered > 0, "no counterexamples rendered");
}

/// The mutants generated for `cfg`, as their `Display` strings, in
/// generation order. Records a clean run first, as the mutation pass
/// does.
fn generated_mutants(cfg: &McConfig) -> Vec<String> {
    let (log, clean) = record_exercise(cfg);
    assert!(clean.violation.is_none(), "{:?}: {:?}", cfg.protocol, clean.violation);
    mutations_for(cfg.protocol, &log).iter().map(|m| m.to_string()).collect()
}

/// Each protocol's mutant list under `McConfig::new(kind)`: the
/// explored entries decide the list, so a change to which entries the
/// engine consults, or to how a mutant names itself, shows up here.
fn expected_mutants(kind: ProtocolKind) -> &'static [&'static str] {
    match kind {
        ProtocolKind::Firefly => &[
            "read_fill: ignore MShared",
            "write_hit(V): silent dirty -> silent clean",
            "write_hit(D): silent dirty -> silent clean",
            "snoop(V, Read): drop MShared assert",
            "snoop(V, Read): force next state D",
            "snoop(V, Write): drop MShared assert",
            "snoop(V, Write): force next state D",
            "snoop(S, Write): drop MShared assert",
            "snoop(S, Write): force next state D",
            "snoop(D, Read): drop MShared assert",
            "snoop(D, Read): force next state D",
            "snoop(D, Write): drop MShared assert",
            "snoop(D, Write): force next state D",
            "after_write_bus(S, Write): ignore MShared",
        ],
        ProtocolKind::WriteThrough => {
            &["snoop(S, Read): force next state D", "snoop(S, Write): force next state D"]
        }
        ProtocolKind::WriteOnce => &[
            "write_hit(V): silent dirty -> silent clean",
            "write_hit(D): silent dirty -> silent clean",
            "snoop(V, Read): force next state D",
            "snoop(V, ReadOwned): force next state D",
            "snoop(S, Read): force next state D",
            "snoop(S, ReadOwned): force next state D",
            "snoop(S, Write): force next state D",
            "snoop(D, Read): force next state D",
            "snoop(D, ReadOwned): force next state D",
        ],
        ProtocolKind::Berkeley => &[
            "write_hit(D): silent dirty -> silent clean",
            "snoop(S, Read): force next state D",
            "snoop(S, ReadOwned): force next state D",
            "snoop(S, Invalidate): force next state D",
            "snoop(D, Read): force next state D",
            "snoop(D, ReadOwned): force next state D",
            "snoop(SD, Invalidate): force next state D",
        ],
        ProtocolKind::Illinois => &[
            "read_fill: ignore MShared",
            "write_hit(V): silent dirty -> silent clean",
            "write_hit(D): silent dirty -> silent clean",
            "snoop(V, Read): drop MShared assert",
            "snoop(V, Read): force next state D",
            "snoop(V, ReadOwned): force next state D",
            "snoop(S, Invalidate): force next state D",
            "snoop(D, Read): drop MShared assert",
            "snoop(D, Read): force next state D",
            "snoop(D, ReadOwned): force next state D",
        ],
        ProtocolKind::Dragon => &[
            "read_fill: ignore MShared",
            "write_hit(V): silent dirty -> silent clean",
            "write_hit(D): silent dirty -> silent clean",
            "snoop(V, Read): drop MShared assert",
            "snoop(V, Read): force next state D",
            "snoop(S, Update): drop MShared assert",
            "snoop(S, Update): force next state D",
            "snoop(D, Read): drop MShared assert",
            "snoop(D, Read): force next state D",
            "snoop(SD, Update): drop MShared assert",
            "snoop(SD, Update): force next state D",
            "after_write_bus(S, Update): ignore MShared",
            "after_write_bus(SD, Update): ignore MShared",
        ],
        ProtocolKind::Tardis => &[
            "read_fill: ignore MShared",
            "write_hit(V): silent dirty -> silent clean",
            "write_hit(D): silent dirty -> silent clean",
            "snoop(V, Read): drop MShared assert",
            "snoop(V, Read): force next state D",
            "snoop(V, ReadOwned): force next state D",
            "snoop(S, Invalidate): force next state D",
            "snoop(D, Read): drop MShared assert",
            "snoop(D, Read): force next state D",
            "snoop(D, ReadOwned): force next state D",
            "ts_write_order: drop the wts bump",
            "ts_fill: swap wts and rts",
            "ts_grant: never extend the lease",
            "ts_can_serve: serve past the lease end",
        ],
    }
}

/// Pins the exact mutant lists of the default configurations and of
/// the `model_check --smoke` configurations: all seven protocols at one
/// tracked word, and Tardis alone at two words, as `ci.sh` runs them.
#[test]
fn generated_mutant_lists_are_pinned() {
    let smoke = |kind, words| {
        McConfig::new(kind)
            .with_caches(2)
            .with_words(words)
            .with_values(2)
            .with_depth(24)
            .with_cache_lines(4)
    };
    let mut smoke_counts = Vec::new();
    for kind in ProtocolKind::ALL {
        let want = expected_mutants(kind);
        assert_eq!(generated_mutants(&McConfig::new(kind)), want, "{kind:?}: McConfig::new");
        // One tracked word never lets a Tardis lease expire, so the two
        // renewal mutants drop out of the all-protocol smoke run.
        let one_word = if kind.is_timestamped() { &want[..want.len() - 2] } else { want };
        let got = generated_mutants(&smoke(kind, 1));
        assert_eq!(got, one_word, "{kind:?}: smoke, one word");
        smoke_counts.push(got.len());
    }
    assert_eq!(smoke_counts, [14, 2, 9, 7, 10, 13, 12], "model_check --smoke mutant counts");
    let tardis = ProtocolKind::Tardis;
    assert_eq!(generated_mutants(&smoke(tardis, 2)), expected_mutants(tardis), "Tardis, two words");
}
