//! The Firefly coherence protocol — Figure 3 of the paper.
//!
//! The key idea: "a cache can detect when another cache shares a particular
//! location. For non-shared lines, a write-back strategy is used. ... For
//! locations that are shared, processor reads are serviced from the cache,
//! but when a processor write is done, the cache does write-through, and
//! other caches that share the datum are updated, as is main storage."
//!
//! The `MShared` wired-OR line carries the sharing information: it is
//! asserted during cycle 3 of every transaction by each snooping cache
//! that holds the addressed line.
//!
//! Distinctive behaviours, each pinned by a test below:
//!
//! * **Conditional write-through** — a write hit on a `Shared` line goes to
//!   the bus; on the response the writer learns whether sharing persists.
//!   "When a location ceases to be shared, only one extra write-through is
//!   done by the last cache that contains the location. This write does not
//!   receive MShared ... so the Shared tag is cleared and the cache reverts
//!   to doing write-back."
//! * **Longword write-miss optimization** — a write miss that covers a full
//!   line skips the fill: "the cache simply does write-through, leaving the
//!   line clean. The state of the shared tag is determined by the value on
//!   the MShared line."
//! * **No invalidation, ever** — sharers absorb write-through data in
//!   place; lines leave a cache only by replacement.
//! * **Cache-to-cache supply** — on a read, "if MShared was asserted, the
//!   caches that contain the line supply the data, and the memory is
//!   inhibited." A dirty snooped line is additionally flushed so memory
//!   becomes current (keeping the protocol free of a shared-dirty state).

use super::{
    protocol_table, BusOp, LineState, ProtocolKind, ProtocolTable, SnoopResponse, WriteHitEffect,
    WriteMissPolicy,
};

/// The Firefly conditional write-through protocol's table.
pub(super) const TABLE: ProtocolTable = protocol_table! {
    kind: ProtocolKind::Firefly,
    // The four states of Figure 3: no shared-dirty state exists because
    // writes to shared lines write through (leaving them clean) and
    // snooped dirty lines flush to memory as they are supplied.
    states: &[
        LineState::Invalid,
        LineState::CleanExclusive,
        LineState::SharedClean,
        LineState::DirtyExclusive,
    ],
    read_fill: read_fill,
    // The longword write-miss optimization. The cache layer falls back
    // to fill-then-write when the write does not cover a whole line.
    write_miss: WriteMissPolicy::WriteThrough { allocate: true },
    write_hit: write_hit,
    after_write: after_write,
    snoop: snoop,
};

const fn read_fill(shared: bool) -> LineState {
    // "When the read is done, the Shared tag is set to the value of
    // MShared returned by other caches."
    if shared {
        LineState::SharedClean
    } else {
        LineState::CleanExclusive
    }
}

const fn write_hit(state: LineState) -> Option<WriteHitEffect> {
    match state {
        // "A CPU write that hits in a nonshared line requires no MBus
        // traffic. The line is marked dirty..."
        LineState::CleanExclusive | LineState::DirtyExclusive => {
            Some(WriteHitEffect::Silent(LineState::DirtyExclusive))
        }
        // "If the line is shared, the cache does write-through..."
        LineState::SharedClean => Some(WriteHitEffect::Bus(BusOp::Write)),
        LineState::Invalid | LineState::SharedDirty => None,
    }
}

/// After a write-through from `SharedClean`.
const fn after_write(_state: LineState, shared: bool) -> LineState {
    // "In this case, the line is marked clean and shared" — unless the
    // write received no MShared, in which case sharing has ceased and
    // the cache reverts to write-back for this line.
    if shared {
        LineState::SharedClean
    } else {
        LineState::CleanExclusive
    }
}

const fn snoop(state: LineState, op: BusOp) -> SnoopResponse {
    if !state.is_valid() {
        return SnoopResponse::ignore(state);
    }
    match op {
        BusOp::Read => SnoopResponse {
            // Any holder sees its line become shared and supplies data.
            next: LineState::SharedClean,
            assert_shared: true,
            supply: true,
            // A dirty holder also updates memory during the transfer,
            // so every copy (incl. memory) is clean afterwards.
            flush_to_memory: state.is_dirty(),
            absorb: false,
        },
        BusOp::Write => SnoopResponse {
            // Another cache wrote through: take the new data in place.
            // This is how sharers are "updated, as is main storage".
            next: LineState::SharedClean,
            assert_shared: true,
            supply: false,
            flush_to_memory: false,
            absorb: true,
        },
        // A victim write-back concerns a line no other cache holds
        // (dirty implies exclusive in Firefly); nothing to do. We still
        // assert MShared if we hold the line — harmless and faithful to
        // the hardware, where MShared is a tag-match signal, but no
        // state changes.
        BusOp::WriteBack => SnoopResponse { assert_shared: true, ..SnoopResponse::ignore(state) },
        // Firefly never emits these; respond inertly so that mixed
        // tests and the transition-table printer stay total.
        BusOp::ReadOwned | BusOp::Update | BusOp::Invalidate | BusOp::Renew => {
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
    fn figure3_has_four_states() {
        assert_eq!(P.states.len(), 4);
        assert!(!P.states.contains(&SharedDirty));
    }

    // --- processor-side transitions of Figure 3 ---

    #[test]
    fn read_miss_fill_tracks_mshared() {
        assert_eq!(P.read_fill, [CleanExclusive, SharedClean]);
    }

    #[test]
    fn write_hit_valid_goes_dirty_silently() {
        assert_eq!(P.write_hit_effect(CleanExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn write_hit_dirty_stays_dirty_silently() {
        assert_eq!(P.write_hit_effect(DirtyExclusive), WriteHitEffect::Silent(DirtyExclusive));
    }

    #[test]
    fn write_hit_shared_writes_through() {
        assert_eq!(P.write_hit_effect(SharedClean), WriteHitEffect::Bus(BusOp::Write));
    }

    #[test]
    fn write_through_with_mshared_stays_shared_clean() {
        assert_eq!(P.after_write[SharedClean as usize][1], SharedClean);
    }

    #[test]
    fn last_sharer_reverts_to_write_back() {
        // "This write does not receive MShared from another cache, so the
        // Shared tag is cleared and the cache reverts to doing write-back."
        assert_eq!(P.after_write[SharedClean as usize][0], CleanExclusive);
    }

    #[test]
    fn write_miss_is_write_through_allocate() {
        assert_eq!(P.write_miss, WriteMissPolicy::WriteThrough { allocate: true });
        assert_eq!(P.write_through_fill, [CleanExclusive, SharedClean]);
    }

    // --- bus-side (snoop) transitions of Figure 3 ---

    #[test]
    fn snoop_read_makes_holder_shared_and_supplies() {
        for s in [CleanExclusive, SharedClean] {
            let r = snoop(s, BusOp::Read);
            assert_eq!(r.next, SharedClean);
            assert!(r.assert_shared);
            assert!(r.supply, "caches that contain the line supply the data");
            assert!(!r.flush_to_memory);
        }
    }

    #[test]
    fn snoop_read_of_dirty_line_flushes_memory() {
        let r = snoop(DirtyExclusive, BusOp::Read);
        assert_eq!(r.next, SharedClean);
        assert!(r.assert_shared && r.supply && r.flush_to_memory);
    }

    #[test]
    fn snoop_write_through_updates_copy_in_place() {
        for s in [CleanExclusive, SharedClean] {
            let r = snoop(s, BusOp::Write);
            assert_eq!(r.next, SharedClean);
            assert!(r.assert_shared);
            assert!(r.absorb, "sharers are updated, never invalidated");
            assert!(!r.supply);
        }
    }

    #[test]
    fn snoop_never_invalidates() {
        // The Firefly protocol has no invalidation: no reachable snoop
        // response moves a valid line to Invalid.
        for s in [CleanExclusive, SharedClean, DirtyExclusive] {
            for op in [BusOp::Read, BusOp::Write, BusOp::WriteBack] {
                assert_ne!(snoop(s, op).next, Invalid, "snoop({s:?},{op:?})");
            }
        }
    }

    #[test]
    fn snoop_invalid_ignores_everything() {
        for op in [BusOp::Read, BusOp::Write, BusOp::WriteBack] {
            let r = snoop(Invalid, op);
            assert_eq!(r, SnoopResponse::ignore(Invalid));
        }
    }

    /// The full Figure 3 diagram as one table: (state, stimulus) -> state.
    /// P = processor op, M = observed bus op, parenthesized = MShared.
    #[test]
    fn figure3_exhaustive() {
        // PRead hit: no state change, in every valid state.
        // (Read hits are always local in every protocol; the cache layer
        // guarantees it — here we pin the snoop/write tables.)
        let cases: &[(&str, LineState, LineState)] = &[
            // processor write transitions
            ("PWrite hit (V)", CleanExclusive, DirtyExclusive),
            ("PWrite hit (D)", DirtyExclusive, DirtyExclusive),
            // bus-observed transitions
            ("MRead snoop (V)", CleanExclusive, SharedClean),
            ("MRead snoop (S)", SharedClean, SharedClean),
            ("MRead snoop (D)", DirtyExclusive, SharedClean),
            ("MWrite snoop (V)", CleanExclusive, SharedClean),
            ("MWrite snoop (S)", SharedClean, SharedClean),
        ];
        for &(what, from, to) in cases {
            let got = if what.starts_with("PWrite") {
                match P.write_hit_effect(from) {
                    WriteHitEffect::Silent(n) => n,
                    WriteHitEffect::Bus(_) => P.after_write[from as usize][1],
                }
            } else if what.starts_with("MRead") {
                snoop(from, BusOp::Read).next
            } else {
                snoop(from, BusOp::Write).next
            };
            assert_eq!(got, to, "{what}: {} -> {}", from.short(), to.short());
        }
    }
}
