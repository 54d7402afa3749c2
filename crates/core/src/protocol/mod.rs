//! Snoopy cache-coherence protocols.
//!
//! The Firefly's contribution is its *conditional write-through* update
//! protocol ([`Firefly`]). Section 5.1 of the paper positions it against
//! the alternatives surveyed by Archibald & Baer (ACM TOCS 4(4), 1986),
//! all of which are implemented here as baselines:
//!
//! * [`WriteThrough`] — write-through with invalidation: every write goes
//!   to the bus; snoopers invalidate. "Not a practical protocol for more
//!   than a few processors" (§5.1).
//! * [`WriteOnce`] — Goodman's Write-Once: the first write to a line is
//!   written through (invalidating other copies), later writes are local.
//! * [`Berkeley`] — Berkeley Ownership: write-back with explicit ownership
//!   acquisition and invalidation; dirty data passed cache-to-cache without
//!   updating memory.
//! * [`Illinois`] — the Illinois protocol (MESI): write-back invalidation
//!   with an exclusive-clean state and cache-to-cache supply.
//! * [`Dragon`] — the Xerox Dragon: write-back *update* protocol, the
//!   Firefly's closest relative; updates do not write memory.
//! * [`Firefly`] — the Firefly protocol itself (Figure 3 of the paper).
//! * [`Tardis`] — the timestamp-ordered protocol of Yu & Devadas
//!   (arXiv 1505.06459), a post-1987 extension of the comparison: reads
//!   are leased until a logical expiry timestamp and writes are ordered
//!   by timestamp rather than by eager broadcast. The timestamp rules
//!   are the `ts_*` methods of [`Protocol`]; the snoop table carries the
//!   physical bus adaptation.
//!
//! All protocols are expressed against one five-state lattice
//! ([`LineState`]) and one bus vocabulary ([`BusOp`]); each protocol uses
//! only a subset of both. A generic cache ([`crate::cache`]) plus these
//! tables yields each machine; the same tables also drive the fast
//! reference-level simulator ([`crate::refsim`]).

mod berkeley;
mod dragon;
mod firefly;
mod illinois;
mod tardis;
mod write_once;
mod write_through;

pub use berkeley::Berkeley;
pub use dragon::Dragon;
pub use firefly::Firefly;
pub use illinois::Illinois;
pub use tardis::Tardis;
pub use write_once::WriteOnce;
pub use write_through::WriteThrough;

use serde::{Deserialize, Serialize};
use std::fmt;

/// The state of one cache line, unified across all seven protocols.
///
/// Each protocol uses a subset. In Firefly terms (Figure 3), the states
/// correspond to the `Valid`/`Dirty`/`Shared` tag bits:
///
/// | `LineState` | Firefly name | Dirty | Shared |
/// |---|---|---|---|
/// | `Invalid` | (empty slot) | – | – |
/// | `CleanExclusive` | Valid | 0 | 0 |
/// | `SharedClean` | Shared | 0 | 1 |
/// | `DirtyExclusive` | Dirty | 1 | 0 |
/// | `SharedDirty` | *(unused by Firefly)* | 1 | 1 |
///
/// `SharedDirty` exists for the ownership protocols (Berkeley, Dragon)
/// where a dirty line may be replicated and exactly one cache owns the
/// write-back responsibility.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum LineState {
    /// The slot holds no valid line.
    #[default]
    Invalid,
    /// Valid, consistent with memory, and no other cache holds it.
    CleanExclusive,
    /// Valid, consistent with memory (in Firefly/write-through protocols)
    /// and possibly present in other caches.
    SharedClean,
    /// Modified relative to memory; guaranteed the only cached copy. This
    /// cache must write the line back when it is victimized.
    DirtyExclusive,
    /// Modified relative to memory and possibly replicated; this cache is
    /// the *owner* (responsible for supplying data and writing back).
    SharedDirty,
}

impl LineState {
    /// Whether the slot holds a valid line.
    pub const fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// The Firefly `Dirty` tag bit: must this cache write the line back?
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::DirtyExclusive | LineState::SharedDirty)
    }

    /// The Firefly `Shared` tag bit.
    pub const fn is_shared(self) -> bool {
        matches!(self, LineState::SharedClean | LineState::SharedDirty)
    }

    /// Whether this cache owns the line (must supply data / write back).
    pub const fn is_owner(self) -> bool {
        self.is_dirty()
    }

    /// Short display name used in transition tables and traces.
    pub const fn short(self) -> &'static str {
        match self {
            LineState::Invalid => "I",
            LineState::CleanExclusive => "V",
            LineState::SharedClean => "S",
            LineState::DirtyExclusive => "D",
            LineState::SharedDirty => "SD",
        }
    }

    /// All five states, for exhaustive enumeration in tests and tables.
    pub const ALL: [LineState; 5] = [
        LineState::Invalid,
        LineState::CleanExclusive,
        LineState::SharedClean,
        LineState::DirtyExclusive,
        LineState::SharedDirty,
    ];
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LineState::Invalid => "Invalid",
            LineState::CleanExclusive => "Valid (clean, exclusive)",
            LineState::SharedClean => "Shared (clean)",
            LineState::DirtyExclusive => "Dirty (exclusive)",
            LineState::SharedDirty => "Shared-Dirty (owner)",
        };
        f.pad(name)
    }
}

/// A processor-side operation on the cache.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ProcOp {
    /// A read (instruction fetch or data read — the cache does not care).
    Read,
    /// A data write.
    Write,
}

/// The MBus transaction vocabulary, unified across protocols.
///
/// The real Firefly MBus has exactly two operations, `MRead` and `MWrite`
/// (Figure 4); they map to [`BusOp::Read`], [`BusOp::Write`] and
/// [`BusOp::WriteBack`] here (an MWrite is a write-through or a victim
/// write — electrically identical, semantically distinct for statistics
/// and for protocols where snoopers react differently). The remaining
/// operations exist for the baseline protocols.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BusOp {
    /// Fetch a line (Firefly `MRead`, classic `BusRd`).
    Read,
    /// Fetch a line with intent to modify, invalidating other copies
    /// (`BusRdX` — Berkeley, Illinois, Write-Once write misses).
    ReadOwned,
    /// Write data through to memory, visible to snoopers (Firefly `MWrite`
    /// used as a write-through; Goodman's write-once write).
    Write,
    /// Write a victimized dirty line back to memory. Snoopers do not
    /// change state (no other cache can be affected coherently).
    WriteBack,
    /// Broadcast a word update to sharers *without* updating memory
    /// (Dragon only).
    Update,
    /// Invalidate other copies without transferring data (Berkeley and
    /// Illinois write hits on shared lines).
    Invalidate,
    /// Renew a read lease without transferring data (Tardis only): the
    /// holder re-validates its copy against the global timestamp state
    /// instead of re-fetching the line.
    Renew,
}

impl BusOp {
    /// Whether the operation carries data onto the bus from the initiator.
    pub const fn carries_data(self) -> bool {
        matches!(self, BusOp::Write | BusOp::WriteBack | BusOp::Update)
    }

    /// Whether the operation returns line data to the initiator.
    pub const fn returns_data(self) -> bool {
        matches!(self, BusOp::Read | BusOp::ReadOwned)
    }

    /// Whether main memory is updated by this operation's payload.
    ///
    /// Dragon updates deliberately leave memory stale; everything else that
    /// carries data writes it to memory.
    pub const fn updates_memory(self) -> bool {
        matches!(self, BusOp::Write | BusOp::WriteBack)
    }

    /// The name the Firefly hardware would use, where one exists.
    pub const fn mbus_name(self) -> &'static str {
        match self {
            BusOp::Read | BusOp::ReadOwned => "MRead",
            BusOp::Write | BusOp::WriteBack => "MWrite",
            BusOp::Update => "MUpdate",
            BusOp::Invalidate => "MInval",
            BusOp::Renew => "MRenew",
        }
    }
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BusOp::Read => "Read",
            BusOp::ReadOwned => "ReadOwned",
            BusOp::Write => "Write",
            BusOp::WriteBack => "WriteBack",
            BusOp::Update => "Update",
            BusOp::Invalidate => "Invalidate",
            BusOp::Renew => "Renew",
        };
        f.pad(s)
    }
}

/// How a protocol services a write miss.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WriteMissPolicy {
    /// Issue a [`BusOp::Read`] fill, then apply the write-hit rules.
    /// (Dragon; also the fallback when a write does not cover a full line.)
    FillThenWrite,
    /// Issue a single [`BusOp::ReadOwned`]: fetch and invalidate others.
    /// (Berkeley, Illinois, Write-Once.)
    FillExclusive,
    /// Write the data through to memory with [`BusOp::Write`].
    ///
    /// With `allocate: true` the written line is installed clean — the
    /// Firefly longword write-miss optimization: "Instead of doing a read,
    /// then overwriting the line with write data, the cache simply does
    /// write-through, leaving the line clean" (§5.1). Only applicable when
    /// the write covers a whole line; the cache falls back to
    /// `FillThenWrite` otherwise.
    WriteThrough {
        /// Install the written line in the cache?
        allocate: bool,
    },
}

/// What a write hit requires of the cache.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WriteHitEffect {
    /// No bus traffic; the line moves to the given state.
    Silent(LineState),
    /// A bus operation is required; the resulting state comes from
    /// [`Protocol::after_write_bus`] once the `MShared` response is known.
    Bus(BusOp),
}

/// A snooping cache's reaction to an observed bus transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SnoopResponse {
    /// The line's next state in the snooping cache.
    pub next: LineState,
    /// Assert the wired-OR `MShared` line during cycle 3.
    pub assert_shared: bool,
    /// Supply the line data during cycle 4 (cache-to-cache transfer,
    /// inhibiting memory).
    pub supply: bool,
    /// Additionally write this cache's (dirty) copy to memory as part of
    /// the transaction, so memory ends up current (Firefly and Illinois
    /// dirty-snoop behaviour; Berkeley and Dragon leave memory stale).
    pub flush_to_memory: bool,
    /// Absorb the transaction's data payload into the local copy (how
    /// Firefly write-throughs and Dragon updates reach sharers).
    pub absorb: bool,
}

crate::snap_struct!(SnoopResponse { next, assert_shared, supply, flush_to_memory, absorb });

impl SnoopResponse {
    /// The do-nothing response (line not present, or op irrelevant).
    pub const fn ignore(state: LineState) -> Self {
        SnoopResponse {
            next: state,
            assert_shared: false,
            supply: false,
            flush_to_memory: false,
            absorb: false,
        }
    }
}

/// A snoopy cache-coherence protocol, expressed as the decision tables a
/// cache controller consults.
///
/// Implementations are stateless value types; all per-line state lives in
/// the cache. The contract mirrors the hardware decomposition:
///
/// * processor side — [`write_hit`](Protocol::write_hit),
///   [`write_miss_policy`](Protocol::write_miss_policy), read misses always
///   issue [`BusOp::Read`];
/// * fill side — [`read_fill_state`](Protocol::read_fill_state) and
///   friends, parameterized by the observed `MShared` response;
/// * snoop side — [`snoop`](Protocol::snoop).
///
/// The [`crate::check::CoherenceChecker`] verifies that any implementation
/// of this trait actually maintains coherence when run; the unit tests of
/// each implementation pin the exact transition tables.
pub trait Protocol: fmt::Debug + Send + Sync {
    /// The protocol's display name.
    fn name(&self) -> &'static str;

    /// The states this protocol can place a line in (for docs and tests).
    fn states(&self) -> &'static [LineState];

    /// State of a line filled by a [`BusOp::Read`], given whether any other
    /// cache asserted `MShared`.
    fn read_fill_state(&self, shared: bool) -> LineState;

    /// How this protocol services write misses.
    fn write_miss_policy(&self) -> WriteMissPolicy;

    /// State of a line filled by [`BusOp::ReadOwned`]. Defaults to
    /// [`LineState::DirtyExclusive`]; only meaningful for protocols whose
    /// [`write_miss_policy`](Protocol::write_miss_policy) is
    /// [`WriteMissPolicy::FillExclusive`].
    fn exclusive_fill_state(&self) -> LineState {
        LineState::DirtyExclusive
    }

    /// State of a line installed by a write-through-allocate write miss
    /// (Firefly only), given the observed `MShared` response.
    fn write_through_fill_state(&self, shared: bool) -> LineState {
        if shared {
            LineState::SharedClean
        } else {
            LineState::CleanExclusive
        }
    }

    /// What a write hit in `state` requires.
    ///
    /// Never called with [`LineState::Invalid`] (that is a miss).
    fn write_hit(&self, state: LineState) -> WriteHitEffect;

    /// The line's state after the bus operation demanded by a write hit
    /// completes, given the observed `MShared` response.
    fn after_write_bus(&self, state: LineState, op: BusOp, shared: bool) -> LineState;

    /// A snooping cache's reaction to seeing `op` for a line it holds in
    /// `state`. Called for every cache other than the initiator, including
    /// those that do not hold the line (`state == Invalid`).
    fn snoop(&self, state: LineState, op: BusOp) -> SnoopResponse;

    // ---- Timestamp rules (Tardis; Yu & Devadas, arXiv 1505.06459) ----
    //
    // A timestamped protocol orders accesses by logical timestamps: each
    // line carries a write timestamp `wts` (logical time of the last
    // write) and a read timestamp `rts` (lease expiry: the line may be
    // read at any logical time `<= rts`), and each CPU carries a program
    // timestamp `pts` that never decreases. The engine consults these
    // hooks only when [`ts_lease`](Protocol::ts_lease) is `Some`; the
    // defaults implement the Tardis rules so the mutation gate can wrap
    // and corrupt them exactly like the table entries.

    /// The lease length in logical ticks, or `None` for protocols without
    /// timestamp state (every snoopy baseline).
    fn ts_lease(&self) -> Option<u64> {
        None
    }

    /// May a CPU at program timestamp `pts` read a local copy leased
    /// until `rts` without bus traffic? Expired leases force a
    /// [`BusOp::Renew`].
    fn ts_can_serve(&self, pts: u64, rts: u64) -> bool {
        pts <= rts
    }

    /// The new global read timestamp granted by a fill or a renewal: the
    /// lease is extended to cover the reader's `pts` plus the lease
    /// length, and never moves backward past the existing grant `g_rts`.
    fn ts_grant(&self, pts: u64, g_rts: u64) -> u64 {
        let lease = self.ts_lease().unwrap_or(0);
        g_rts.max(pts.saturating_add(lease))
    }

    /// The logical timestamp a write is ordered at: after every
    /// outstanding lease (`g_rts`, exclusive) and never before the
    /// writer's own `pts`. Saturates instead of wrapping at `u64::MAX`.
    fn ts_write_order(&self, pts: u64, g_rts: u64) -> u64 {
        pts.max(g_rts.saturating_add(1))
    }

    /// The `(wts, rts)` pair installed in a cache by a read fill, given
    /// the line's global timestamps.
    fn ts_fill(&self, wts: u64, rts: u64) -> (u64, u64) {
        (wts, rts)
    }

    /// The reader's program timestamp after observing a line last written
    /// at `wts`: reads are ordered no earlier than the write they see.
    fn ts_read_advance(&self, pts: u64, wts: u64) -> u64 {
        pts.max(wts)
    }
}

/// Selects one of the seven built-in protocols.
///
/// # Examples
///
/// ```
/// use firefly_core::protocol::ProtocolKind;
///
/// let p = ProtocolKind::Firefly.build();
/// assert_eq!(p.name(), "Firefly");
/// assert_eq!(ProtocolKind::ALL.len(), 7);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The Firefly conditional write-through update protocol (Figure 3).
    #[default]
    Firefly,
    /// Write-through with invalidation.
    WriteThrough,
    /// Goodman's Write-Once.
    WriteOnce,
    /// Berkeley Ownership.
    Berkeley,
    /// The Illinois protocol (MESI).
    Illinois,
    /// The Xerox Dragon update protocol.
    Dragon,
    /// The Tardis timestamp-ordered protocol (leases + logical time).
    Tardis,
}

crate::snap_enum!(LineState {
    Invalid = 0,
    CleanExclusive = 1,
    SharedClean = 2,
    DirtyExclusive = 3,
    SharedDirty = 4,
});
crate::snap_enum!(ProcOp { Read = 0, Write = 1 });
crate::snap_enum!(BusOp {
    Read = 0,
    ReadOwned = 1,
    Write = 2,
    WriteBack = 3,
    Update = 4,
    Invalidate = 5,
    Renew = 6,
});
// Tags are indices into `ProtocolKind::ALL`.
crate::snap_enum!(ProtocolKind {
    Firefly = 0,
    WriteThrough = 1,
    WriteOnce = 2,
    Berkeley = 3,
    Illinois = 4,
    Dragon = 5,
    Tardis = 6,
});

impl ProtocolKind {
    /// All built-in protocols, in the order used by comparison tables.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Firefly,
        ProtocolKind::WriteThrough,
        ProtocolKind::WriteOnce,
        ProtocolKind::Berkeley,
        ProtocolKind::Illinois,
        ProtocolKind::Dragon,
        ProtocolKind::Tardis,
    ];

    /// Instantiates the protocol.
    pub fn build(self) -> Box<dyn Protocol> {
        match self {
            ProtocolKind::Firefly => Box::new(Firefly),
            ProtocolKind::WriteThrough => Box::new(WriteThrough),
            ProtocolKind::WriteOnce => Box::new(WriteOnce),
            ProtocolKind::Berkeley => Box::new(Berkeley),
            ProtocolKind::Illinois => Box::new(Illinois),
            ProtocolKind::Dragon => Box::new(Dragon),
            ProtocolKind::Tardis => Box::new(Tardis::default()),
        }
    }

    /// The protocol's display name without instantiating it.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Firefly => "Firefly",
            ProtocolKind::WriteThrough => "WriteThrough",
            ProtocolKind::WriteOnce => "WriteOnce",
            ProtocolKind::Berkeley => "Berkeley",
            ProtocolKind::Illinois => "Illinois",
            ProtocolKind::Dragon => "Dragon",
            ProtocolKind::Tardis => "Tardis",
        }
    }

    /// Whether the protocol propagates writes by *updating* sharers
    /// (Firefly, Dragon) rather than invalidating them.
    pub const fn is_update_based(self) -> bool {
        matches!(self, ProtocolKind::Firefly | ProtocolKind::Dragon)
    }

    /// Whether the protocol carries per-line timestamp state (Tardis):
    /// the engine plumbs `wts`/`rts`/`pts` and the checker applies
    /// [`crate::check::CoherenceChecker::check_timestamp_order`].
    pub const fn is_timestamped(self) -> bool {
        matches!(self, ProtocolKind::Tardis)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// Renders a protocol's full transition table as text (the Figure 3
/// reproduction prints this for the Firefly protocol).
///
/// The table enumerates, for every state the protocol uses:
/// * the effect of a processor read and write (hit rules), and
/// * the snoop reaction to every bus operation the protocol can emit.
pub fn transition_table(p: &dyn Protocol) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} protocol transition tables", p.name());
    let _ = writeln!(
        out,
        "states: {}",
        p.states().iter().map(|s| s.short()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "processor side (hits):");
    let _ = writeln!(out, "  {:<6} {:<10} PWrite", "state", "PRead");
    for &s in p.states() {
        if !s.is_valid() {
            continue;
        }
        let w = match p.write_hit(s) {
            WriteHitEffect::Silent(next) => format!("-> {} (no bus)", next.short()),
            WriteHitEffect::Bus(op) => {
                let sh = p.after_write_bus(s, op, true);
                let ns = p.after_write_bus(s, op, false);
                if sh == ns {
                    format!("{op} -> {}", sh.short())
                } else {
                    format!("{op} -> {}(shared)/{}(not)", sh.short(), ns.short())
                }
            }
        };
        let _ = writeln!(out, "  {:<6} {:<10} {}", s.short(), "hit", w);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "fills: read miss -> {}(shared)/{}(not); write miss: {:?}",
        p.read_fill_state(true).short(),
        p.read_fill_state(false).short(),
        p.write_miss_policy()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "snoop side:");
    let ops = [
        BusOp::Read,
        BusOp::ReadOwned,
        BusOp::Write,
        BusOp::WriteBack,
        BusOp::Update,
        BusOp::Invalidate,
        BusOp::Renew,
    ];
    let _ = writeln!(out, "  {:<6} {}", "state", ops.map(|o| format!("{o:<14}")).join(""));
    for &s in p.states() {
        let cells: Vec<String> = ops
            .iter()
            .map(|&op| {
                let r = p.snoop(s, op);
                let mut cell = format!("->{}", r.next.short());
                if r.assert_shared {
                    cell.push_str(",sh");
                }
                if r.supply {
                    cell.push_str(",sup");
                }
                if r.flush_to_memory {
                    cell.push_str(",fl");
                }
                if r.absorb {
                    cell.push_str(",abs");
                }
                format!("{cell:<14}")
            })
            .collect();
        let _ = writeln!(out, "  {:<6} {}", s.short(), cells.join(""));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_state_tag_bits() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::CleanExclusive.is_valid());
        assert!(!LineState::CleanExclusive.is_dirty());
        assert!(!LineState::CleanExclusive.is_shared());
        assert!(LineState::SharedClean.is_shared());
        assert!(!LineState::SharedClean.is_dirty());
        assert!(LineState::DirtyExclusive.is_dirty());
        assert!(!LineState::DirtyExclusive.is_shared());
        assert!(LineState::SharedDirty.is_dirty());
        assert!(LineState::SharedDirty.is_shared());
        assert!(LineState::SharedDirty.is_owner());
    }

    #[test]
    fn bus_op_properties() {
        assert!(BusOp::Write.carries_data());
        assert!(BusOp::Update.carries_data());
        assert!(!BusOp::Read.carries_data());
        assert!(BusOp::Read.returns_data());
        assert!(BusOp::ReadOwned.returns_data());
        assert!(!BusOp::Invalidate.returns_data());
        assert!(BusOp::Write.updates_memory());
        assert!(BusOp::WriteBack.updates_memory());
        assert!(!BusOp::Update.updates_memory(), "Dragon updates leave memory stale");
        assert_eq!(BusOp::Read.mbus_name(), "MRead");
        assert_eq!(BusOp::WriteBack.mbus_name(), "MWrite");
        assert!(!BusOp::Renew.carries_data(), "renewals move timestamps, not data");
        assert!(!BusOp::Renew.returns_data());
        assert!(!BusOp::Renew.updates_memory());
        assert_eq!(BusOp::Renew.mbus_name(), "MRenew");
    }

    #[test]
    fn all_protocols_build_and_name() {
        for kind in ProtocolKind::ALL {
            let p = kind.build();
            assert_eq!(p.name(), kind.name());
            assert!(!p.states().is_empty());
        }
    }

    #[test]
    fn update_based_classification() {
        assert!(ProtocolKind::Firefly.is_update_based());
        assert!(ProtocolKind::Dragon.is_update_based());
        assert!(!ProtocolKind::Illinois.is_update_based());
        assert!(!ProtocolKind::Berkeley.is_update_based());
        assert!(!ProtocolKind::Tardis.is_update_based());
        assert!(ProtocolKind::Tardis.is_timestamped());
        assert!(!ProtocolKind::Firefly.is_timestamped());
    }

    #[test]
    fn transition_table_renders_for_all() {
        for kind in ProtocolKind::ALL {
            let table = transition_table(kind.build().as_ref());
            assert!(table.contains(kind.name()));
            assert!(table.contains("snoop side"));
        }
    }

    /// Every protocol, in every valid state, must give *some* defined
    /// answer for a write hit and for every snoopable op; the answers must
    /// stay within the protocol's declared state set.
    #[test]
    fn closure_over_declared_states() {
        let ops = [
            BusOp::Read,
            BusOp::ReadOwned,
            BusOp::Write,
            BusOp::WriteBack,
            BusOp::Update,
            BusOp::Invalidate,
            BusOp::Renew,
        ];
        for kind in ProtocolKind::ALL {
            let p = kind.build();
            for &s in p.states() {
                for &op in &ops {
                    let r = p.snoop(s, op);
                    assert!(
                        p.states().contains(&r.next),
                        "{}: snoop({s:?}, {op:?}) left declared states: {:?}",
                        p.name(),
                        r.next
                    );
                }
                if s.is_valid() {
                    match p.write_hit(s) {
                        WriteHitEffect::Silent(n) => assert!(p.states().contains(&n)),
                        WriteHitEffect::Bus(op) => {
                            for shared in [false, true] {
                                let n = p.after_write_bus(s, op, shared);
                                assert!(p.states().contains(&n));
                            }
                        }
                    }
                }
            }
        }
    }
}
