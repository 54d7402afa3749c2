//! The Illinois protocol (Papamarcos & Patel, ISCA 1984) — today called
//! MESI.
//!
//! A write-back invalidation protocol with an exclusive-clean state, so
//! private data incurs no invalidation traffic at all. It is the strongest
//! of the invalidation baselines and the standard point of comparison for
//! update protocols in the Archibald & Baer survey the paper cites.
//!
//! Mapping to the familiar MESI names:
//!
//! | here | MESI |
//! |---|---|
//! | [`LineState::Invalid`] | I |
//! | [`LineState::CleanExclusive`] | E |
//! | [`LineState::SharedClean`] | S |
//! | [`LineState::DirtyExclusive`] | M |

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// The Illinois (MESI) write-back invalidation protocol.
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::Illinois,
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
        // The E state lets private read-then-write run with zero bus
        // traffic.
        LineState::CleanExclusive | LineState::DirtyExclusive => {
            Some(WriteHitEffect::Silent(LineState::DirtyExclusive))
        }
        // Shared lines must be invalidated elsewhere before writing.
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
            // Illinois pioneered cache-to-cache supply of clean data.
            supply: true,
            // A dirty snooped line is flushed so memory becomes
            // current (unlike Berkeley/Dragon).
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
        // A foreign write-through (DMA input): our copy is stale.
        BusOp::Write => SnoopResponse {
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
    fn four_mesi_states() {
        assert_eq!(P.states.len(), 4);
        assert!(!P.states.contains(&SharedDirty));
    }

    #[test]
    fn exclusive_fill_when_unshared() {
        assert_eq!(P.read_fill, [CleanExclusive, SharedClean]);
    }

    #[test]
    fn silent_upgrade_from_exclusive() {
        assert_eq!(P.write_hit_effect(CleanExclusive), WriteHitEffect::Silent(DirtyExclusive));
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn shared_write_requires_invalidation() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Invalidate));
        assert_eq!(P.after_write[SharedClean as usize][0], DirtyExclusive);
    }

    #[test]
    fn write_miss_is_read_exclusive() {
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
    fn snoop_read_owned_invalidates() {
        for s in [CleanExclusive, SharedClean, DirtyExclusive] {
            let r = snoop(s, BusOp::ReadOwned);
            assert_eq!(r.next, Invalid);
            assert_eq!(r.supply, s.is_dirty());
        }
    }

    #[test]
    fn snoop_invalidate() {
        assert_eq!(snoop(SharedClean, BusOp::Invalidate).next, Invalid);
        assert_eq!(snoop(CleanExclusive, BusOp::Invalidate).next, Invalid);
    }
}
