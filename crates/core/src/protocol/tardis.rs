//! The Tardis timestamp-coherence protocol (Yu & Devadas, MIT CSAIL;
//! correctness proof in arXiv 1505.06459), adapted to the Firefly MBus.
//!
//! Tardis replaces the wired-OR snoop idiom the other six protocols
//! share with *logical time*: every line carries a write timestamp
//! `wts` (when it was last written) and a read timestamp `rts` (a lease
//! — the line may be read at any logical time up to `rts`), and every
//! CPU carries a program timestamp `pts` that only advances. A read is
//! ordered at some time in `[wts, rts]`; a write is ordered after every
//! outstanding lease (`rts + 1`). A reader whose `pts` has advanced past
//! its copy's lease re-validates with a data-less [`BusOp::Renew`]
//! instead of re-fetching the line.
//!
//! # The bus adaptation
//!
//! On a directory machine Tardis lets a write proceed while stale
//! leased copies are still being *read* elsewhere — physical time and
//! logical time decouple. This workspace's MBus serializes every
//! transaction and its memory model promises serialized read-your-writes
//! (pinned by the differential and litmus suites for all protocols), so
//! this adaptation keeps the *tag* behaviour MESI-like — a snooped write
//! physically expires other copies — while the *timestamp* machinery is
//! carried verbatim: leases, self-renewal, timestamp-ordered writes, and
//! the monotonicity invariants of the published proof, which
//! [`crate::check::CoherenceChecker::check_timestamp_order`] verifies at
//! every step. What remains observably Tardis is the traffic shape
//! (renewals instead of refills, no invalidation broadcast on a private
//! write) and the timestamp order itself, exactly the properties the
//! proof is about.
//!
//! The timestamp rules stay code: the five functions at the end of this
//! module, which the table holds as [`TsRules`] function pointers, so a
//! model-checking mutant swaps one rule as it flips one table entry.

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, TsRules,
    WriteHitEffect, WriteMissPolicy,
};

/// The Tardis timestamp protocol.
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::Tardis,
    states: &[
        LineState::Invalid,
        LineState::CleanExclusive,
        LineState::SharedClean,
        LineState::DirtyExclusive,
    ],
    read_fill: read_fill,
    write_miss: WriteMissPolicy::FillExclusive,
    write_hit: write_hit,
    after_write: after_write,
    snoop: snoop,
    ts: Some(TsRules { lease: 8, can_serve, grant, write_order, fill, read_advance }),
};

const fn read_fill(shared: bool) -> LineState {
    if shared {
        LineState::SharedClean
    } else {
        LineState::CleanExclusive
    }
}

const fn write_hit(state: LineState) -> Option<WriteHitEffect> {
    match state {
        // Exclusive writes are ordered purely by timestamp — no bus
        // traffic at all, the heart of Tardis's scalability claim.
        LineState::CleanExclusive | LineState::DirtyExclusive => {
            Some(WriteHitEffect::Silent(LineState::DirtyExclusive))
        }
        // A shared write must still expire the other physical copies on
        // a broadcast bus (see the module docs).
        LineState::SharedClean => Some(WriteHitEffect::Bus(BusOp::Invalidate)),
        LineState::Invalid | LineState::SharedDirty => None,
    }
}

/// After the invalidation from `SharedClean`.
const fn after_write(_state: LineState, _shared: bool) -> LineState {
    LineState::DirtyExclusive
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        BusOp::Read => SnoopResponse {
            next: LineState::SharedClean,
            assert_shared: true,
            supply: true,
            // Dirty data is flushed so memory (which owns the global
            // timestamps) is always current.
            flush_to_memory: state.is_dirty(),
            absorb: false,
        },
        BusOp::ReadOwned => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: state.is_dirty(),
            flush_to_memory: state.is_dirty(),
            absorb: false,
        },
        BusOp::Invalidate => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        // A foreign write-through (DMA input): the copy — and its
        // lease — is physically expired.
        BusOp::Write => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        // A renewal moves timestamps, not data or states; holders
        // acknowledge presence on the wired-OR line.
        BusOp::Renew => SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) },
        BusOp::WriteBack | BusOp::Update => {
            SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) }
        }
    }
}

/// A copy leased until `rts` serves a CPU at `pts` locally only while
/// the lease covers it.
fn can_serve(pts: u64, rts: u64) -> bool {
    pts <= rts
}

/// A fill or renewal extends the lease to cover the reader's `pts`
/// plus the lease length, and never moves it backward past the
/// existing grant `g_rts`.
fn grant(lease: u64, pts: u64, g_rts: u64) -> u64 {
    g_rts.max(pts.saturating_add(lease))
}

/// A write is ordered after every outstanding lease (`g_rts`,
/// exclusive) and never before the writer's own `pts`. Saturates
/// instead of wrapping at `u64::MAX`.
fn write_order(pts: u64, g_rts: u64) -> u64 {
    pts.max(g_rts.saturating_add(1))
}

/// A read fill installs the line's global `(wts, rts)` pair unchanged.
fn fill(wts: u64, rts: u64) -> (u64, u64) {
    (wts, rts)
}

/// Reads are ordered no earlier than the write they see.
fn read_advance(pts: u64, wts: u64) -> u64 {
    pts.max(wts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::*;

    const P: ProtocolTable = TABLE;

    fn rules() -> TsRules {
        P.ts.expect("Tardis is timestamped")
    }

    #[test]
    fn four_states_no_shared_dirty() {
        assert_eq!(P.states.len(), 4);
        assert!(!P.states.contains(&SharedDirty));
    }

    #[test]
    fn lease_is_advertised() {
        assert_eq!(rules().lease, 8);
    }

    #[test]
    fn exclusive_fill_when_unshared() {
        assert_eq!(P.read_fill, [CleanExclusive, SharedClean]);
    }

    #[test]
    fn exclusive_writes_are_silent() {
        assert_eq!(P.write_hit_effect(CleanExclusive), WriteHitEffect::Silent(DirtyExclusive));
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn shared_write_expires_other_copies() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Invalidate));
        assert_eq!(P.after_write[SharedClean as usize][0], DirtyExclusive);
    }

    #[test]
    fn write_miss_fills_exclusive() {
        assert_eq!(P.write_miss, WriteMissPolicy::FillExclusive);
    }

    #[test]
    fn snoop_read_demotes_and_supplies() {
        for s in [CleanExclusive, SharedClean] {
            let r = snoop(s, BusOp::Read);
            assert_eq!(r.next, SharedClean);
            assert!(r.supply && r.assert_shared);
            assert!(!r.flush_to_memory);
        }
        let r = snoop(DirtyExclusive, BusOp::Read);
        assert_eq!(r.next, SharedClean);
        assert!(r.supply && r.flush_to_memory, "dirty data reaches memory");
    }

    #[test]
    fn snoop_renew_keeps_state_and_acknowledges() {
        for s in [CleanExclusive, SharedClean, DirtyExclusive] {
            let r = snoop(s, BusOp::Renew);
            assert_eq!(r.next, s, "a renewal never changes tag state");
            assert!(r.assert_shared);
            assert!(!r.supply && !r.flush_to_memory && !r.absorb);
        }
        assert_eq!(snoop(Invalid, BusOp::Renew), SnoopResponse::ignore(Invalid));
    }

    #[test]
    fn snoop_write_class_ops_expire_the_copy() {
        for s in [CleanExclusive, SharedClean, DirtyExclusive] {
            assert_eq!(snoop(s, BusOp::Invalidate).next, Invalid);
            assert_eq!(snoop(s, BusOp::Write).next, Invalid);
            let ro = snoop(s, BusOp::ReadOwned);
            assert_eq!(ro.next, Invalid);
            assert_eq!(ro.supply, s.is_dirty());
        }
    }

    #[test]
    fn timestamp_rules_default_wiring() {
        let t = rules();
        // Grants cover pts + lease and never move backward.
        assert_eq!((t.grant)(t.lease, 0, 0), 8);
        assert_eq!((t.grant)(t.lease, 0, 100), 100);
        // Writes land strictly after the lease frontier.
        assert_eq!((t.write_order)(0, 0), 1);
        assert_eq!((t.write_order)(7, 3), 7);
        // Fills install the global pair unchanged; reads advance pts.
        assert_eq!((t.fill)(5, 9), (5, 9));
        assert_eq!((t.read_advance)(2, 5), 5);
        assert_eq!((t.read_advance)(7, 5), 7);
        // An expired lease cannot be served locally (this forces a Renew).
        assert!(!(t.can_serve)(12, 11));
    }

    #[test]
    fn timestamps_saturate_instead_of_wrapping() {
        let t = rules();
        assert_eq!((t.grant)(t.lease, u64::MAX, 0), u64::MAX);
        assert_eq!((t.write_order)(0, u64::MAX), u64::MAX);
        assert_eq!((t.write_order)(u64::MAX, u64::MAX), u64::MAX);
    }
}
