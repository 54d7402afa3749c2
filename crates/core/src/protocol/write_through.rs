//! Write-through with invalidation — the simplest coherent scheme.
//!
//! "The simplest protocol is write-through with invalidation, in which all
//! writes are sent to the main memory bus. Whenever a cache observes a
//! write directed to a line it contains, it invalidates its copy. This is
//! not a practical protocol for more than a few processors, because the
//! substantial write traffic will rapidly saturate the bus" (§5.1).
//!
//! Included as the paper's strawman baseline: the protocol-comparison
//! bench shows its bus load crossing saturation at a handful of CPUs.

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// Write-through with invalidation.
///
/// Only two stable line states exist: `Invalid` and `SharedClean` (memory
/// is always current, so nothing is ever dirty and no victim writes occur).
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::WriteThrough,
    states: &[LineState::Invalid, LineState::SharedClean],
    read_fill: read_fill,
    // Classic write-through caches are no-allocate on write miss.
    write_miss: WriteMissPolicy::WriteThrough { allocate: false },
    write_hit: write_hit,
    after_write: after_write,
    snoop: snoop,
};

const fn read_fill(_shared: bool) -> LineState {
    LineState::SharedClean
}

const fn write_hit(state: LineState) -> Option<WriteHitEffect> {
    match state {
        // Every write cycles the bus.
        LineState::SharedClean => Some(WriteHitEffect::Bus(BusOp::Write)),
        _ => None,
    }
}

/// After a write-through from `SharedClean`.
const fn after_write(_state: LineState, _shared: bool) -> LineState {
    LineState::SharedClean
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        // "Whenever a cache observes a write directed to a line it
        // contains, it invalidates its copy."
        BusOp::Write => SnoopResponse {
            next: LineState::Invalid,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::Read => SnoopResponse {
            // Memory is always current; let it supply.
            next: LineState::SharedClean,
            assert_shared: true,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        },
        BusOp::ReadOwned | BusOp::Invalidate => SnoopResponse {
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
    fn only_two_states() {
        assert_eq!(P.states, &[Invalid, SharedClean]);
    }

    #[test]
    fn every_write_hits_the_bus() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Write));
        assert_eq!(P.after_write[SharedClean as usize], [SharedClean; 2]);
    }

    #[test]
    fn write_miss_does_not_allocate() {
        assert_eq!(P.write_miss, WriteMissPolicy::WriteThrough { allocate: false });
    }

    #[test]
    fn observed_write_invalidates() {
        assert_eq!(snoop(SharedClean, BusOp::Write).next, Invalid);
    }

    #[test]
    fn nothing_is_ever_dirty() {
        for &s in P.states {
            assert!(!s.is_dirty());
        }
    }

    #[test]
    fn memory_supplies_reads() {
        let r = snoop(SharedClean, BusOp::Read);
        assert!(!r.supply);
        assert_eq!(r.next, SharedClean);
    }
}
