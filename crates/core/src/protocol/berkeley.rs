//! Berkeley Ownership (Katz, Eggers, Wood, Perkins & Sheldon, ISCA 1985).
//!
//! The paper cites Berkeley as "an example of an ownership protocol":
//! caches that wish to write a location first acquire *ownership*, which
//! carries both write permission and the write-back responsibility.
//! Dirty data moves cache-to-cache without ever updating main memory until
//! the owner victimizes the line. Writes to shared lines *invalidate* the
//! other copies — the behaviour §5.1 contrasts with the Firefly: it
//! "performs poorly when actual sharing occurs, since the invalidated
//! information must be reloaded when the CPU next references it."

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// The Berkeley Ownership protocol.
///
/// States used: `Invalid`, `SharedClean` (unowned), `SharedDirty`
/// (owned, possibly replicated), `DirtyExclusive` (owned, exclusive).
/// There is no exclusive-clean state: Berkeley does not detect exclusivity
/// on read fills.
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::Berkeley,
    states: &[
        LineState::Invalid,
        LineState::SharedClean,
        LineState::DirtyExclusive,
        LineState::SharedDirty,
    ],
    read_fill: read_fill,
    // Write misses fetch with ownership, invalidating all other copies.
    write_miss: WriteMissPolicy::FillExclusive,
    write_hit: write_hit,
    after_write: after_write,
    snoop: snoop,
    exclusive_fill: LineState::DirtyExclusive,
};

const fn read_fill(_shared: bool) -> LineState {
    // No exclusivity detection on reads: every fill is (potentially)
    // shared and unowned.
    LineState::SharedClean
}

const fn write_hit(state: LineState) -> Option<WriteHitEffect> {
    match state {
        LineState::DirtyExclusive => Some(WriteHitEffect::Silent(LineState::DirtyExclusive)),
        // Owned-but-shared and unowned lines must invalidate the other
        // copies before writing.
        LineState::SharedClean | LineState::SharedDirty => {
            Some(WriteHitEffect::Bus(BusOp::Invalidate))
        }
        LineState::Invalid | LineState::CleanExclusive => None,
    }
}

/// After the invalidation from `SharedClean` or `SharedDirty`.
const fn after_write(_state: LineState, _shared: bool) -> LineState {
    LineState::DirtyExclusive
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        BusOp::Read => SnoopResponse {
            // Only the owner supplies; memory is NOT updated — the
            // supplier remains owner, now in the shared-dirty state.
            next: if state.is_owner() { LineState::SharedDirty } else { state },
            assert_shared: true,
            supply: state.is_owner(),
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::ReadOwned => SnoopResponse {
            // Ownership (and the only current copy, if we own it)
            // passes to the requester; our copy dies.
            next: LineState::Invalid,
            assert_shared: false,
            supply: state.is_owner(),
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::Invalidate => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        // A victim write-back by the owner: other (clean) copies are
        // unaffected and remain valid.
        BusOp::WriteBack => SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) },
        // A foreign write-through (DMA input): our copy is stale.
        BusOp::Write => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::Update | BusOp::Renew => {
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
    fn no_exclusive_clean_state() {
        assert!(!P.states.contains(&CleanExclusive));
        assert_eq!(P.read_fill, [SharedClean; 2], "fills never exclusive");
    }

    #[test]
    fn write_miss_fetches_ownership() {
        assert_eq!(P.write_miss, WriteMissPolicy::FillExclusive);
        assert_eq!(P.exclusive_fill, DirtyExclusive);
    }

    #[test]
    fn write_hits_on_shared_invalidate() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Invalidate));
        assert_eq!(P.write_hit_effect(SharedDirty), WriteHitEffect::Bus(BusOp::Invalidate));
        assert_eq!(P.after_write[SharedClean as usize][1], DirtyExclusive);
    }

    #[test]
    fn exclusive_owner_writes_silently() {
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn snoop_read_only_owner_supplies() {
        let r = snoop(SharedClean, BusOp::Read);
        assert!(!r.supply, "unowned copies let memory supply");
        assert!(r.assert_shared);
        assert_eq!(r.next, SharedClean);

        let r = snoop(DirtyExclusive, BusOp::Read);
        assert!(r.supply);
        assert_eq!(r.next, SharedDirty, "owner demotes to shared-dirty but keeps ownership");
        assert!(!r.flush_to_memory, "memory stays stale");

        let r = snoop(SharedDirty, BusOp::Read);
        assert!(r.supply);
        assert_eq!(r.next, SharedDirty);
    }

    #[test]
    fn snoop_read_owned_invalidates_and_owner_supplies() {
        for s in [SharedClean, DirtyExclusive, SharedDirty] {
            let r = snoop(s, BusOp::ReadOwned);
            assert_eq!(r.next, Invalid);
            assert_eq!(r.supply, s.is_owner());
        }
    }

    #[test]
    fn snoop_invalidate_kills_copies() {
        for s in [SharedClean, SharedDirty] {
            assert_eq!(snoop(s, BusOp::Invalidate).next, Invalid);
        }
    }

    #[test]
    fn write_back_leaves_other_copies_valid() {
        // A shared-dirty victim write-back must not invalidate the clean
        // copies elsewhere.
        assert_eq!(snoop(SharedClean, BusOp::WriteBack).next, SharedClean);
    }

    #[test]
    fn invalid_ignores_all() {
        for op in [BusOp::Read, BusOp::ReadOwned, BusOp::Invalidate, BusOp::WriteBack] {
            assert_eq!(snoop(Invalid, op), SnoopResponse::ignore(Invalid));
        }
    }
}
