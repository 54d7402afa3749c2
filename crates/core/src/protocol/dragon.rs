//! The Xerox Dragon update protocol (McCreight 1984).
//!
//! The paper names Dragon as the Firefly's closest relative: "The Xerox
//! Dragon uses a similar scheme." Both propagate writes to sharers by
//! *updating* rather than invalidating. They differ in where the current
//! value of a shared dirty datum lives:
//!
//! * Firefly write-throughs update **main memory and sharers**, so shared
//!   lines are always clean and there is no shared-dirty state.
//! * Dragon updates go **only to sharers**; main memory is left stale and
//!   one cache remains the *owner* ([`LineState::SharedDirty`]) responsible
//!   for the eventual write-back.
//!
//! Dragon therefore uses less memory bandwidth per shared write (memory is
//! not cycled) at the cost of a fifth state and owner bookkeeping — the
//! trade the protocol-comparison bench quantifies.

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// The Dragon write-back update protocol.
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::Dragon,
    states: &[
        LineState::Invalid,
        LineState::CleanExclusive,
        LineState::SharedClean,
        LineState::DirtyExclusive,
        LineState::SharedDirty,
    ],
    read_fill: read_fill,
    // Dragon write misses read the line, then apply the write-hit rule
    // (broadcasting an update if the fill found sharers).
    write_miss: WriteMissPolicy::FillThenWrite,
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
        LineState::CleanExclusive | LineState::DirtyExclusive => {
            Some(WriteHitEffect::Silent(LineState::DirtyExclusive))
        }
        // Shared write hits broadcast an update; memory is not written.
        LineState::SharedClean | LineState::SharedDirty => Some(WriteHitEffect::Bus(BusOp::Update)),
        LineState::Invalid => None,
    }
}

/// After the update from `SharedClean` or `SharedDirty`.
const fn after_write(_state: LineState, shared: bool) -> LineState {
    // The writer owns the line. If the update found no sharers the line
    // is once again exclusive and updates stop.
    if shared {
        LineState::SharedDirty
    } else {
        LineState::DirtyExclusive
    }
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        BusOp::Read => SnoopResponse {
            // Owners supply the line but, unlike Firefly, memory is
            // *not* made current: the supplier retains ownership.
            next: if state.is_dirty() { LineState::SharedDirty } else { LineState::SharedClean },
            assert_shared: true,
            supply: true,
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::Update => SnoopResponse {
            // Take the updated word; ownership passes to the updater.
            next: LineState::SharedClean,
            assert_shared: true,
            supply: false,
            flush_to_memory: false,
            absorb: true,
        },
        // A foreign write-through (DMA input on this machine): absorb
        // the data like an update — memory is written by the op itself.
        BusOp::Write => SnoopResponse {
            next: LineState::SharedClean,
            assert_shared: true,
            supply: false,
            flush_to_memory: false,
            absorb: true,
        },
        BusOp::WriteBack => SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) },
        BusOp::ReadOwned | BusOp::Invalidate | BusOp::Renew => {
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
    fn five_states() {
        assert_eq!(P.states.len(), 5);
        assert!(P.states.contains(&SharedDirty));
    }

    #[test]
    fn exclusive_writes_are_silent() {
        assert_eq!(P.write_hit_effect(CleanExclusive), WriteHitEffect::Silent(DirtyExclusive));
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn shared_writes_broadcast_updates() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Update));
        assert_eq!(P.write_hit_effect(SharedDirty), WriteHitEffect::Bus(BusOp::Update));
    }

    #[test]
    fn updates_do_not_touch_memory() {
        assert!(!BusOp::Update.updates_memory());
    }

    #[test]
    fn writer_owns_while_shared() {
        assert_eq!(P.after_write[SharedClean as usize][1], SharedDirty);
        assert_eq!(P.after_write[SharedDirty as usize][1], SharedDirty);
    }

    #[test]
    fn update_without_sharers_reverts_to_write_back() {
        assert_eq!(P.after_write[SharedClean as usize][0], DirtyExclusive);
        assert_eq!(P.after_write[SharedDirty as usize][0], DirtyExclusive);
    }

    #[test]
    fn snoop_update_passes_ownership() {
        let r = snoop(SharedDirty, BusOp::Update);
        assert_eq!(r.next, SharedClean, "previous owner demotes");
        assert!(r.absorb && r.assert_shared);
    }

    #[test]
    fn snoop_read_of_owner_supplies_without_flushing() {
        for s in [DirtyExclusive, SharedDirty] {
            let r = snoop(s, BusOp::Read);
            assert_eq!(r.next, SharedDirty, "owner keeps ownership");
            assert!(r.supply && r.assert_shared);
            assert!(!r.flush_to_memory, "Dragon leaves memory stale");
        }
    }

    #[test]
    fn snoop_read_of_clean_holder() {
        assert_eq!(snoop(CleanExclusive, BusOp::Read).next, SharedClean);
        assert_eq!(snoop(SharedClean, BusOp::Read).next, SharedClean);
    }

    #[test]
    fn owner_states_need_write_back() {
        assert!(SharedDirty.is_owner());
        assert!(DirtyExclusive.is_owner());
        assert!(!SharedClean.is_owner());
    }

    #[test]
    fn never_invalidates() {
        for s in [CleanExclusive, SharedClean, DirtyExclusive, SharedDirty] {
            for op in [BusOp::Read, BusOp::Update, BusOp::WriteBack] {
                assert_ne!(snoop(s, op).next, Invalid);
            }
        }
    }
}
