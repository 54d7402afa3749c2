//! Goodman's Write-Once protocol (ISCA 1983) — the first published snoopy
//! cache-coherence scheme.
//!
//! A hybrid: the *first* write to a line is written through (which both
//! updates memory and invalidates the other copies); subsequent writes are
//! handled write-back with no bus traffic. The post-first-write state,
//! which Goodman called *Reserved* — clean, exclusive, memory current —
//! maps onto [`LineState::CleanExclusive`] here.

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// Goodman's Write-Once protocol.
///
/// States: `Invalid`, `SharedClean` (Goodman's *Valid*), `CleanExclusive`
/// (Goodman's *Reserved*), `DirtyExclusive` (Goodman's *Dirty*).
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::WriteOnce,
    states: &[
        LineState::Invalid,
        LineState::SharedClean,
        LineState::CleanExclusive,
        LineState::DirtyExclusive,
    ],
    read_fill: read_fill,
    // Write misses fetch the line with intent to modify.
    write_miss: WriteMissPolicy::FillExclusive,
    write_hit: write_hit,
    after_write: after_write,
    snoop: snoop,
};

const fn read_fill(_shared: bool) -> LineState {
    // Goodman's original bus had no sharing feedback; all fills enter
    // the Valid (possibly-shared) state.
    LineState::SharedClean
}

const fn write_hit(state: LineState) -> Option<WriteHitEffect> {
    match state {
        // The write-once write: through to memory, invalidating others.
        LineState::SharedClean => Some(WriteHitEffect::Bus(BusOp::Write)),
        // Reserved or Dirty: local write-back behaviour.
        LineState::CleanExclusive | LineState::DirtyExclusive => {
            Some(WriteHitEffect::Silent(LineState::DirtyExclusive))
        }
        LineState::Invalid | LineState::SharedDirty => None,
    }
}

/// After the write-once write from `SharedClean`.
const fn after_write(_state: LineState, _shared: bool) -> LineState {
    // Memory now matches and everyone else invalidated: Reserved.
    LineState::CleanExclusive
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        BusOp::Read => SnoopResponse {
            next: LineState::SharedClean,
            assert_shared: true,
            supply: state.is_dirty(),
            flush_to_memory: state.is_dirty(),
            absorb: false,
        },
        // Observed write-once write: our copy is now stale — invalidate.
        // (The defining contrast with the Firefly, which absorbs.)
        BusOp::Write => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
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
        BusOp::WriteBack | BusOp::Update | BusOp::Renew => {
            SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::*;

    const P: ProtocolTable = TABLE;

    #[test]
    fn fills_are_always_potentially_shared() {
        assert_eq!(P.read_fill, [SharedClean; 2]);
    }

    #[test]
    fn first_write_goes_through_then_reserved() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Write));
        assert_eq!(P.after_write[SharedClean as usize][1], CleanExclusive);
    }

    #[test]
    fn second_write_is_silent() {
        assert_eq!(P.write_hit_effect(CleanExclusive), WriteHitEffect::Silent(DirtyExclusive));
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn observed_write_invalidates_unlike_firefly() {
        assert_eq!(snoop(SharedClean, BusOp::Write).next, Invalid);
        assert!(!snoop(SharedClean, BusOp::Write).absorb);
    }

    #[test]
    fn snoop_read_flushes_dirty() {
        let r = snoop(DirtyExclusive, BusOp::Read);
        assert!(r.supply && r.flush_to_memory);
        assert_eq!(r.next, SharedClean);
    }

    #[test]
    fn snoop_read_owned_invalidates() {
        for s in [SharedClean, CleanExclusive, DirtyExclusive] {
            assert_eq!(snoop(s, BusOp::ReadOwned).next, Invalid);
        }
    }

    #[test]
    fn write_miss_fetches_exclusive() {
        assert_eq!(P.write_miss, WriteMissPolicy::FillExclusive);
    }
}
