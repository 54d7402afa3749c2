//! Mutation testing for the model checker itself.
//!
//! A checker that never fires is indistinguishable from a correct
//! protocol; this module guards against that vacuity by flipping one
//! entry of a protocol's table at a time and asserting the explorer
//! *catches* every mutant. A mutant is a copy of the canonical
//! [`ProtocolTable`] with one entry edited ([`Mutation::apply`]), driven
//! through the real cycle engine by
//! [`MemSystem::with_table`](firefly_core::system::MemSystem::with_table),
//! so a surviving mutant indicts the checker, not a re-model of the
//! engine.
//!
//! Two passes keep the kill guarantee honest:
//!
//! 1. **Record** — an exhaustive run with the canonical table notes
//!    which table entries the configuration actually exercises
//!    ([`record_exercise`]; the engine keeps that record itself).
//! 2. **Mutate** — [`mutations_for`] generates mutants *only* on
//!    exercised entries, and only mutation shapes whose first exercise
//!    provably breaks an invariant (e.g. dropping a snooper's `MShared`
//!    assertion is generated only when the requester's not-shared fill
//!    is an exclusive state and the snooper survives the snoop — the
//!    exact conditions under which a stale-*false* `Shared` bit
//!    manifests as an exclusivity violation). Entries the small
//!    configuration never reaches generate nothing, so every generated
//!    mutant must die.

use crate::explore::{explore, explore_with, McConfig, McReport};
use firefly_core::protocol::{
    BusOp, ExerciseLog, LineState, ProtocolKind, ProtocolTable, TsRules, WriteHitEffect,
    WriteMissPolicy,
};
use std::fmt;

/// Runs an exhaustive exploration of `cfg` with its canonical table and
/// returns the table entries it exercised (plus the clean report, which
/// callers should assert is violation-free).
pub fn record_exercise(cfg: &McConfig) -> (ExerciseLog, McReport) {
    let report = explore(cfg);
    (report.exercised, report)
}

/// One single-entry corruption of a protocol's table.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// `read_fill` *ignores* the `MShared` response: its shared entry
    /// becomes the not-shared one — the stale-false fill: exclusive
    /// while another cache holds the line.
    ReadFillIgnoreShared,
    /// A silent dirtying write hit leaves the line marked *clean*
    /// (write-back responsibility silently dropped).
    WriteHitSilentClean {
        /// The write-hit state whose entry is corrupted.
        state: LineState,
    },
    /// The snooper matching `(state, op)` no longer asserts `MShared` —
    /// the wired-OR reads stale-*false* while the snooper keeps its
    /// copy.
    SnoopDropShared {
        /// Snooper state of the corrupted entry.
        state: LineState,
        /// Observed bus op of the corrupted entry.
        op: BusOp,
    },
    /// The snooper matching `(state, op)` transitions to
    /// [`LineState::DirtyExclusive`] instead of its table state.
    SnoopForceDirtyExclusive {
        /// Snooper state of the corrupted entry.
        state: LineState,
        /// Observed bus op of the corrupted entry.
        op: BusOp,
    },
    /// `after_write` for `state` *ignores* the `MShared` response: its
    /// shared entry becomes the not-shared one — the writer goes
    /// exclusive while sharers hold the line.
    AfterWriteIgnoreShared {
        /// Writer state of the corrupted entry.
        state: LineState,
        /// Write-hit bus op of the corrupted entry.
        op: BusOp,
    },
    /// The `write_order` rule drops its `+1`: a write lands *at* the
    /// lease end instead of after it, so the global write timestamp
    /// fails to strictly advance (Tardis only).
    TsDropWtsBump,
    /// The `grant` rule extends nothing: leases are handed out (and
    /// renewed) with their old expiry, so a renewal leaves the reader
    /// past its own lease (Tardis only).
    TsGrantNoRenew,
    /// The `can_serve` rule always says yes: reads are served locally
    /// past the lease end without renewing (Tardis only).
    TsServeStale,
    /// The `fill` rule installs `(rts, wts)` — the pair swapped — so any
    /// fill with a real lease carries `wts > rts` (Tardis only).
    TsSwapFill,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::ReadFillIgnoreShared => write!(f, "read_fill: ignore MShared"),
            Mutation::WriteHitSilentClean { state } => {
                write!(f, "write_hit({}): silent dirty -> silent clean", state.short())
            }
            Mutation::SnoopDropShared { state, op } => {
                write!(f, "snoop({}, {op}): drop MShared assert", state.short())
            }
            Mutation::SnoopForceDirtyExclusive { state, op } => {
                write!(f, "snoop({}, {op}): force next state D", state.short())
            }
            Mutation::AfterWriteIgnoreShared { state, op } => {
                write!(f, "after_write_bus({}, {op}): ignore MShared", state.short())
            }
            Mutation::TsDropWtsBump => write!(f, "ts_write_order: drop the wts bump"),
            Mutation::TsGrantNoRenew => write!(f, "ts_grant: never extend the lease"),
            Mutation::TsServeStale => write!(f, "ts_can_serve: serve past the lease end"),
            Mutation::TsSwapFill => write!(f, "ts_fill: swap wts and rts"),
        }
    }
}

impl Mutation {
    /// Applies this corruption to `table`: one entry edited, or one
    /// timestamp rule swapped.
    ///
    /// # Panics
    ///
    /// A timestamp mutation panics on a table without timestamp rules.
    pub fn apply(self, t: &mut ProtocolTable) {
        fn ts(t: &mut ProtocolTable) -> &mut TsRules {
            t.ts.as_mut().expect("timestamp mutant needs TsRules")
        }
        match self {
            // "Ignore" rather than "invert": the mutant diverges only on
            // shared fills, so its first divergence is exactly the
            // exercised entry the kill proof reasons about.
            Mutation::ReadFillIgnoreShared => t.read_fill[1] = t.read_fill[0],
            Mutation::WriteHitSilentClean { state } => {
                t.write_hit[state as usize] =
                    Some(WriteHitEffect::Silent(LineState::CleanExclusive));
            }
            Mutation::SnoopDropShared { state, op } => {
                t.snoop[state as usize][op as usize].assert_shared = false;
            }
            Mutation::SnoopForceDirtyExclusive { state, op } => {
                t.snoop[state as usize][op as usize].next = LineState::DirtyExclusive;
            }
            Mutation::AfterWriteIgnoreShared { state, .. } => {
                let after = &mut t.after_write[state as usize];
                after[1] = after[0];
            }
            Mutation::TsDropWtsBump => ts(t).write_order = |pts, g_rts| pts.max(g_rts),
            Mutation::TsGrantNoRenew => ts(t).grant = |_, _, g_rts| g_rts,
            Mutation::TsServeStale => ts(t).can_serve = |_, _| true,
            Mutation::TsSwapFill => ts(t).fill = |wts, rts| (rts, wts),
        }
    }
}

/// The configuration's canonical table with `mutation` applied.
pub fn mutant_table(cfg: &McConfig, mutation: Mutation) -> ProtocolTable {
    let mut table = cfg.table();
    mutation.apply(&mut table);
    table
}

/// True when every snooper that asserts `MShared` on `op` also keeps
/// its copy — the precondition for a dropped/ignored assertion to
/// leave a stale-*false* `Shared` bit behind.
fn sharers_survive(t: &ProtocolTable, op: BusOp) -> bool {
    // Probe only the protocol's declared states: tables are entitled to
    // hold anything for states they never produce.
    t.states.iter().all(|&s| {
        let r = t.snoop[s as usize][op as usize];
        !r.assert_shared || r.next.is_valid()
    })
}

/// True when every write-hit that takes `op` to the bus lands in a
/// non-shared (exclusive) state under a not-shared `MShared` response.
fn write_hits_go_exclusive(t: &ProtocolTable, op: BusOp) -> bool {
    t.states.iter().filter(|s| s.is_valid()).all(|&w| match t.write_hit_effect(w) {
        WriteHitEffect::Bus(o) if o == op => !t.after_write[w as usize][0].is_shared(),
        _ => true,
    })
}

/// Generates every guaranteed-detectable single-entry mutation of
/// `kind`'s table whose entry `log` shows was exercised.
///
/// Each generation rule encodes a proof sketch that the mutant's first
/// exercise breaks an invariant at the very next per-step check, so a
/// mutant surviving [`explore_with`] at the recording configuration is
/// always a checker bug, never an unlucky configuration.
pub fn mutations_for(kind: ProtocolKind, log: &ExerciseLog) -> Vec<Mutation> {
    let t = kind.table();
    let mut out = Vec::new();

    // Stale-false fill: a shared fill was observed, and the inverted
    // response would install an exclusive copy while the (surviving)
    // snooper still holds the line — exclusivity violation.
    if log.read_fill_shared[1] {
        let [unshared, shared] = t.read_fill;
        if unshared != shared && !unshared.is_shared() && sharers_survive(&t, BusOp::Read) {
            out.push(Mutation::ReadFillIgnoreShared);
        }
    }

    // Dropped write-back responsibility: a silent write hit that should
    // dirty the line leaves it clean — the line now disagrees with
    // memory while claiming cleanliness (clean-consistency violation).
    for &s in t.states {
        if s.is_valid() && log.write_hit[s as usize] {
            if let WriteHitEffect::Silent(next) = t.write_hit_effect(s) {
                if next.is_dirty() {
                    out.push(Mutation::WriteHitSilentClean { state: s });
                }
            }
        }
    }

    let snooped = LineState::ALL.into_iter().flat_map(|s| BusOp::ALL.map(|op| (s, op)));
    for (s, op) in snooped.filter(|&(s, op)| log.snoop[s as usize][op as usize]) {
        if !s.is_valid() {
            continue;
        }
        let r = t.snoop[s as usize][op as usize];

        // Stale-false MShared: only generated when the initiator's
        // not-shared outcome is exclusive while this snooper keeps its
        // copy, so the drop *must* manifest as an exclusivity breach.
        if r.assert_shared && r.next.is_valid() {
            let detectable = match op {
                BusOp::Read => {
                    let [f, shared] = t.read_fill;
                    f != shared && !f.is_shared()
                }
                BusOp::Write => {
                    let miss_ok = match t.write_miss {
                        WriteMissPolicy::WriteThrough { allocate } => {
                            allocate && !t.write_through_fill[0].is_shared()
                        }
                        _ => true,
                    };
                    miss_ok && write_hits_go_exclusive(&t, BusOp::Write)
                }
                BusOp::Update => write_hits_go_exclusive(&t, BusOp::Update),
                _ => false,
            };
            if detectable {
                out.push(Mutation::SnoopDropShared { state: s, op });
            }
        }

        // A snooper that usurps ownership: the initiator of any of
        // these ops either holds the line afterwards (dual copy with an
        // exclusive claimant) or wrote memory the usurper now shadows
        // with stale dirty data (write-serialization breach).
        let usurpable = matches!(
            op,
            BusOp::Read | BusOp::ReadOwned | BusOp::Write | BusOp::Update | BusOp::Invalidate
        );
        if usurpable && r.next != LineState::DirtyExclusive {
            out.push(Mutation::SnoopForceDirtyExclusive { state: s, op });
        }
    }

    // Stale-false on the write path: the writer saw MShared asserted,
    // and the inverted table entry sends it to an exclusive state while
    // the asserting snoopers survive.
    for w in LineState::ALL.into_iter().filter(|&w| log.after_write[w as usize][1]) {
        let Some(WriteHitEffect::Bus(op)) = t.write_hit[w as usize] else { continue };
        let [not_shared, shared] = t.after_write[w as usize];
        if not_shared != shared && !not_shared.is_shared() && sharers_survive(&t, op) {
            out.push(Mutation::AfterWriteIgnoreShared { state: w, op });
        }
    }

    // Timestamp mutants (Tardis). Each gate is the clean run's proof
    // that the breaking step is inside the explored space:
    //  * a write was ordered, so dropping the `+1` leaves `wts`
    //    unbumped at that very write (strict-advance violation);
    //  * a fill carried a real lease (`rts > wts`), so swapping the
    //    pair installs `wts > rts` at that very fill;
    //  * a lease expired, so the never-extend and serve-stale mutants
    //    divert the renewal path that run took — a renewal that leaves
    //    `rts < pts`, or a local read past its lease, respectively.
    if kind.is_timestamped() {
        if log.ts_write {
            out.push(Mutation::TsDropWtsBump);
        }
        if log.ts_fill_unequal {
            out.push(Mutation::TsSwapFill);
        }
        if log.ts_expired {
            out.push(Mutation::TsGrantNoRenew);
            out.push(Mutation::TsServeStale);
        }
    }
    out
}

/// The fate of one mutant.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The mutation applied.
    pub mutation: Mutation,
    /// Whether the explorer caught it (every generated mutant must be).
    pub caught: bool,
    /// The minimized counterexample path when caught.
    pub violation: Option<crate::explore::McViolation>,
}

/// The full mutation-testing pass for one configuration: record, then
/// kill. Returns the clean-run report and one outcome per mutant.
///
/// # Panics
///
/// Panics if `cfg.values < 2` — a single-value domain cannot
/// distinguish an overwrite from a refill, voiding several kill proofs.
pub fn mutation_smoke(cfg: &McConfig) -> (McReport, Vec<MutationOutcome>) {
    assert!(cfg.values >= 2, "mutation testing needs a value domain of at least 2");
    assert!(
        cfg.caches == 2,
        "mutation kill proofs assume a 2-cache configuration (sole MShared asserter)"
    );
    let (log, clean) = record_exercise(cfg);
    let outcomes = mutations_for(cfg.protocol, &log)
        .into_iter()
        .map(|mutation| {
            let report = explore_with(cfg, mutant_table(cfg, mutation));
            MutationOutcome {
                mutation,
                caught: report.violation.is_some(),
                violation: report.violation,
            }
        })
        .collect();
    (clean, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_run_is_clean_and_exercises_tables() {
        let cfg = McConfig::new(ProtocolKind::Firefly).with_depth(6);
        let (log, report) = record_exercise(&cfg);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(log.read_fill_shared[0] && log.read_fill_shared[1]);
        assert!(log.snoop.iter().flatten().any(|&b| b));
        assert!(log.write_hit.iter().any(|&b| b));
    }

    #[test]
    fn firefly_generates_multiple_mutation_kinds() {
        let cfg = McConfig::new(ProtocolKind::Firefly).with_depth(6);
        let (log, _) = record_exercise(&cfg);
        let muts = mutations_for(ProtocolKind::Firefly, &log);
        assert!(muts.contains(&Mutation::ReadFillIgnoreShared));
        assert!(muts.iter().any(|m| matches!(m, Mutation::WriteHitSilentClean { .. })));
        assert!(muts.iter().any(|m| matches!(m, Mutation::SnoopForceDirtyExclusive { .. })));
    }

    /// The default Tardis configuration reaches every timestamp rule —
    /// writes, leased fills, *and* an actual lease expiry — so all four
    /// timestamp mutant classes are generated.
    #[test]
    fn tardis_generates_every_timestamp_mutant() {
        let cfg = McConfig::new(ProtocolKind::Tardis);
        let (log, report) = record_exercise(&cfg);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(log.ts_write, "no write was timestamp-ordered");
        assert!(log.ts_fill_unequal, "no fill carried a real lease");
        assert!(log.ts_expired, "no lease expired in the explored space");
        let muts = mutations_for(ProtocolKind::Tardis, &log);
        for want in [
            Mutation::TsDropWtsBump,
            Mutation::TsSwapFill,
            Mutation::TsGrantNoRenew,
            Mutation::TsServeStale,
        ] {
            assert!(muts.contains(&want), "missing {want}");
        }
    }

    /// Untimestamped protocols never generate timestamp mutants.
    #[test]
    fn untimestamped_kinds_generate_no_timestamp_mutants() {
        let cfg = McConfig::new(ProtocolKind::Firefly).with_depth(6);
        let (log, _) = record_exercise(&cfg);
        assert!(!log.ts_write && !log.ts_fill_unequal && !log.ts_expired);
        let muts = mutations_for(ProtocolKind::Firefly, &log);
        assert!(muts.iter().all(|m| !matches!(
            m,
            Mutation::TsDropWtsBump
                | Mutation::TsSwapFill
                | Mutation::TsGrantNoRenew
                | Mutation::TsServeStale
        )));
    }
}
