//! Snoopy cache-coherence protocols, as data.
//!
//! The Firefly's contribution is its *conditional write-through* update
//! protocol ([`ProtocolKind::Firefly`]). Section 5.1 of the paper
//! positions it against the alternatives surveyed by Archibald & Baer
//! (ACM TOCS 4(4), 1986), all of which are implemented here as
//! baselines:
//!
//! * [`ProtocolKind::WriteThrough`] — write-through with invalidation:
//!   every write goes to the bus; snoopers invalidate. "Not a practical
//!   protocol for more than a few processors" (§5.1).
//! * [`ProtocolKind::WriteOnce`] — Goodman's Write-Once: the first write
//!   to a line is written through (invalidating other copies), later
//!   writes are local.
//! * [`ProtocolKind::Berkeley`] — Berkeley Ownership: write-back with
//!   explicit ownership acquisition and invalidation; dirty data passed
//!   cache-to-cache without updating memory.
//! * [`ProtocolKind::Illinois`] — the Illinois protocol (MESI):
//!   write-back invalidation with an exclusive-clean state and
//!   cache-to-cache supply.
//! * [`ProtocolKind::Dragon`] — the Xerox Dragon: write-back *update*
//!   protocol, the Firefly's closest relative; updates do not write
//!   memory.
//! * [`ProtocolKind::Firefly`] — the Firefly protocol itself (Figure 3
//!   of the paper).
//! * [`ProtocolKind::Tardis`] — the timestamp-ordered protocol of Yu &
//!   Devadas (arXiv 1505.06459), a post-1987 extension of the
//!   comparison: reads are leased until a logical expiry timestamp and
//!   writes are ordered by timestamp rather than by eager broadcast. The
//!   timestamp rules are code ([`TsRules`]); the snoop table carries the
//!   physical bus adaptation.
//!
//! Each protocol is one [`ProtocolTable`], a plain `Copy` value computed
//! at compile time from its module's decision functions (which keep the
//! paper's wording beside each rule) and returned by
//! [`ProtocolKind::table`]. All protocols are expressed against one
//! five-state lattice ([`LineState`]) and one bus vocabulary
//! ([`BusOp`]); each protocol uses only a subset of both. A generic
//! cache ([`crate::cache`]) plus a table yields each machine; the same
//! tables also drive the fast reference-level simulator
//! ([`crate::refsim`]), the model checker and [`transition_table`].

mod berkeley;
mod dragon;
mod firefly;
mod illinois;
mod tardis;
mod write_once;
mod write_through;

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
    /// All seven operations, in declaration order (the order of the
    /// snoop columns of a [`ProtocolTable`]).
    pub const ALL: [BusOp; 7] = [
        BusOp::Read,
        BusOp::ReadOwned,
        BusOp::Write,
        BusOp::WriteBack,
        BusOp::Update,
        BusOp::Invalidate,
        BusOp::Renew,
    ];

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
    /// [`ProtocolTable::after_write`] once the `MShared` response is known.
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

/// The timestamp rules of a timestamp-ordered protocol (Tardis; Yu &
/// Devadas, arXiv 1505.06459), as plain function pointers so that a
/// mutant can swap one rule.
///
/// A timestamped protocol orders accesses by logical timestamps: each
/// line carries a write timestamp `wts` (logical time of the last
/// write) and a read timestamp `rts` (lease expiry: the line may be
/// read at any logical time `<= rts`), and each CPU carries a program
/// timestamp `pts` that never decreases. The engine consults these
/// rules only when [`ProtocolTable::ts`] is `Some`.
#[derive(Copy, Clone, Debug)]
pub struct TsRules {
    /// The lease length in logical ticks. Longer leases mean fewer
    /// renewals but writes ordered further into the logical future.
    pub lease: u64,
    /// May a CPU at program timestamp `pts` read a local copy leased
    /// until `rts` without bus traffic? Expired leases force a
    /// [`BusOp::Renew`].
    pub can_serve: fn(pts: u64, rts: u64) -> bool,
    /// The new global read timestamp granted by a fill or a renewal,
    /// given the lease length, the reader's `pts` and the existing
    /// grant `g_rts`.
    pub grant: fn(lease: u64, pts: u64, g_rts: u64) -> u64,
    /// The logical timestamp a write by a CPU at `pts` is ordered at,
    /// given the outstanding lease end `g_rts`.
    pub write_order: fn(pts: u64, g_rts: u64) -> u64,
    /// The `(wts, rts)` pair installed in a cache by a read fill, given
    /// the line's global timestamps.
    pub fill: fn(wts: u64, rts: u64) -> (u64, u64),
    /// The reader's program timestamp after observing a line last
    /// written at `wts`.
    pub read_advance: fn(pts: u64, wts: u64) -> u64,
}

/// A snoopy cache-coherence protocol as the plain data a cache
/// controller consults: one value per protocol, read alike by the
/// cycle engine ([`crate::system::MemSystem`]), the reference-level
/// simulator ([`crate::refsim::RefSim`]), the model checker and
/// [`transition_table`].
///
/// The decomposition mirrors the hardware:
///
/// * processor side — [`write_hit`](Self::write_hit) and
///   [`write_miss`](Self::write_miss); read misses always issue
///   [`BusOp::Read`];
/// * fill side — [`read_fill`](Self::read_fill) and friends, indexed by
///   the observed `MShared` response (`false` = 0, `true` = 1);
/// * snoop side — [`snoop`](Self::snoop), indexed by the snooper's
///   state and the observed op (both as their declaration index).
///
/// Each protocol's module computes its table once, at compile time,
/// from its decision functions, so a table is inspected and perturbed
/// as data: a model-checking mutant is an edit of one entry of a copy.
/// The [`crate::check::CoherenceChecker`] verifies that a table
/// maintains coherence when run.
///
/// # Examples
///
/// ```
/// use firefly_core::protocol::{BusOp, LineState, ProtocolKind, WriteHitEffect};
///
/// let t = ProtocolKind::Firefly.table();
/// // A write hit on a shared line writes through...
/// assert_eq!(t.write_hit_effect(LineState::SharedClean), WriteHitEffect::Bus(BusOp::Write));
/// // ...and reverts to write-back if nobody asserted MShared:
/// assert_eq!(t.after_write[LineState::SharedClean as usize][0], LineState::CleanExclusive);
/// // Snoopers absorb the written word in place.
/// assert!(t.snoop[LineState::SharedClean as usize][BusOp::Write as usize].absorb);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct ProtocolTable {
    /// Which protocol this table is (a mutated copy keeps its kind).
    pub kind: ProtocolKind,
    /// The states this protocol can place a line in.
    pub states: &'static [LineState],
    /// State of a line filled by a [`BusOp::Read`], by `MShared`.
    pub read_fill: [LineState; 2],
    /// How this protocol services write misses.
    pub write_miss: WriteMissPolicy,
    /// State of a line filled by [`BusOp::ReadOwned`]; read only under
    /// [`WriteMissPolicy::FillExclusive`].
    pub exclusive_fill: LineState,
    /// State of a line installed by a write-through-allocate write miss
    /// (Firefly only), by `MShared`.
    pub write_through_fill: [LineState; 2],
    /// What a write hit requires, by state; `None` for states the
    /// protocol never write-hits in. Read it through
    /// [`write_hit_effect`](Self::write_hit_effect), which panics there.
    pub write_hit: [Option<WriteHitEffect>; 5],
    /// The writer's state after the bus operation its write hit
    /// demanded, by the state it wrote in and `MShared`. Each protocol
    /// has one write-hit bus op, so the op is implied.
    pub after_write: [[LineState; 2]; 5],
    /// A snooping cache's reaction to each op for a line it holds in
    /// each state (the engine consults only valid states).
    pub snoop: [[SnoopResponse; 7]; 5],
    /// The timestamp rules, or `None` for protocols without timestamp
    /// state (every snoopy baseline).
    pub ts: Option<TsRules>,
}

impl ProtocolTable {
    /// What a write hit in `state` requires.
    ///
    /// # Panics
    ///
    /// Panics for a state the protocol never write-hits in (`Invalid`
    /// is a miss, and no protocol writes in a state it does not use).
    pub fn write_hit_effect(&self, state: LineState) -> WriteHitEffect {
        self.write_hit[state as usize]
            .unwrap_or_else(|| panic!("{} write_hit on {state:?}", self.kind))
    }
}

/// Builds a protocol's [`ProtocolTable`] in a const context by
/// evaluating the protocol module's decision functions for every
/// state, op and `MShared` value. `exclusive_fill` defaults to
/// [`LineState::DirtyExclusive`] and `write_through_fill` to the
/// `MShared`-tracking clean fill; trailing `field: value` pairs
/// override any field.
macro_rules! protocol_table {
    (
        kind: $kind:expr,
        states: $states:expr,
        read_fill: $read_fill:path,
        write_miss: $write_miss:expr,
        write_hit: $write_hit:path,
        after_write: $after_write:path,
        snoop: $snoop:path
        $(, $field:ident: $value:expr)* $(,)?
    ) => {{
        use $crate::protocol::{BusOp, LineState, ProtocolTable, SnoopResponse};
        let mut t = ProtocolTable {
            kind: $kind,
            states: $states,
            read_fill: [$read_fill(false), $read_fill(true)],
            write_miss: $write_miss,
            exclusive_fill: LineState::DirtyExclusive,
            write_through_fill: [LineState::CleanExclusive, LineState::SharedClean],
            write_hit: [None; 5],
            after_write: [[LineState::Invalid; 2]; 5],
            snoop: [[SnoopResponse::ignore(LineState::Invalid); 7]; 5],
            ts: None,
        };
        let mut s = 0;
        while s < LineState::ALL.len() {
            let state = LineState::ALL[s];
            t.write_hit[s] = $write_hit(state);
            t.after_write[s] = [$after_write(state, false), $after_write(state, true)];
            let mut op = 0;
            while op < BusOp::ALL.len() {
                t.snoop[s][op] = $snoop(state, BusOp::ALL[op]);
                op += 1;
            }
            s += 1;
        }
        $(t.$field = $value;)*
        t
    }};
}
use protocol_table;

/// Which [`ProtocolTable`] entries a memory system consulted.
///
/// [`crate::system::MemSystem`] keeps one, always on, as derived
/// diagnostic state (never snapshotted). The model checker ORs the
/// records of every system it builds to learn which entries a
/// configuration exercises, and generates mutants only there.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ExerciseLog {
    /// `read_fill` entries read, by `MShared`.
    pub read_fill_shared: [bool; 2],
    /// `write_hit` entries read, by state.
    pub write_hit: [bool; 5],
    /// `after_write` entries read, by state and `MShared`.
    pub after_write: [[bool; 2]; 5],
    /// `snoop` entries read, by state and op.
    pub snoop: [[bool; 7]; 5],
    /// A CPU write was timestamp-ordered (`write_order` consulted).
    pub ts_write: bool,
    /// A read fill carried a lease strictly longer than its write
    /// timestamp — the only shape a swapped fill visibly corrupts.
    pub ts_fill_unequal: bool,
    /// `can_serve` said no — a lease actually expired, so renewal (and
    /// stale-serving) paths were taken.
    pub ts_expired: bool,
}

impl ExerciseLog {
    /// Adds every entry `other` consulted to this record.
    pub fn merge(&mut self, other: &ExerciseLog) {
        fn or<const N: usize>(a: &mut [bool; N], b: &[bool; N]) {
            a.iter_mut().zip(b).for_each(|(x, y)| *x |= y);
        }
        or(&mut self.read_fill_shared, &other.read_fill_shared);
        or(&mut self.write_hit, &other.write_hit);
        for s in 0..LineState::ALL.len() {
            or(&mut self.after_write[s], &other.after_write[s]);
            or(&mut self.snoop[s], &other.snoop[s]);
        }
        self.ts_write |= other.ts_write;
        self.ts_fill_unequal |= other.ts_fill_unequal;
        self.ts_expired |= other.ts_expired;
    }
}
/// Selects one of the seven built-in protocols.
///
/// # Examples
///
/// ```
/// use firefly_core::protocol::ProtocolKind;
///
/// let t = ProtocolKind::Firefly.table();
/// assert_eq!(t.kind.name(), "Firefly");
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

    /// The protocol's decision table.
    pub const fn table(self) -> ProtocolTable {
        match self {
            ProtocolKind::Firefly => firefly::TABLE,
            ProtocolKind::WriteThrough => write_through::TABLE,
            ProtocolKind::WriteOnce => write_once::TABLE,
            ProtocolKind::Berkeley => berkeley::TABLE,
            ProtocolKind::Illinois => illinois::TABLE,
            ProtocolKind::Dragon => dragon::TABLE,
            ProtocolKind::Tardis => tardis::TABLE,
        }
    }

    /// The protocol's display name.
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
/// reproduction prints this for every protocol).
///
/// The table enumerates, for every state the protocol uses:
/// * the effect of a processor read and write (hit rules), and
/// * the snoop reaction to every bus operation.
pub fn transition_table(t: &ProtocolTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} protocol transition tables", t.kind.name());
    let _ = writeln!(
        out,
        "states: {}",
        t.states.iter().map(|s| s.short()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "processor side (hits):");
    let _ = writeln!(out, "  {:<6} {:<10} PWrite", "state", "PRead");
    for &s in t.states {
        if !s.is_valid() {
            continue;
        }
        let w = match t.write_hit_effect(s) {
            WriteHitEffect::Silent(next) => format!("-> {} (no bus)", next.short()),
            WriteHitEffect::Bus(op) => {
                let [ns, sh] = t.after_write[s as usize];
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
        t.read_fill[1].short(),
        t.read_fill[0].short(),
        t.write_miss
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "snoop side:");
    let _ = writeln!(out, "  {:<6} {}", "state", BusOp::ALL.map(|o| format!("{o:<14}")).join(""));
    for &s in t.states {
        let cells: Vec<String> = t.snoop[s as usize]
            .iter()
            .map(|r| {
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

    /// Tables index states and ops by declaration order, which must
    /// match the `ALL` arrays the table builder walks.
    #[test]
    fn all_arrays_follow_declaration_order() {
        for (i, s) in LineState::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
        }
        for (i, op) in BusOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i);
        }
    }

    #[test]
    fn all_protocols_build_and_name() {
        for kind in ProtocolKind::ALL {
            let t = kind.table();
            assert_eq!(t.kind, kind);
            assert!(!t.states.is_empty());
            assert_eq!(t.ts.is_some(), kind.is_timestamped());
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
            let table = transition_table(&kind.table());
            assert!(table.contains(kind.name()));
            assert!(table.contains("snoop side"));
        }
    }

    #[test]
    #[should_panic(expected = "Firefly write_hit on SharedDirty")]
    fn write_hit_lookup_panics_on_unused_states() {
        ProtocolKind::Firefly.table().write_hit_effect(LineState::SharedDirty);
    }

    /// Every protocol, in every valid state, must give *some* defined
    /// answer for a write hit and for every snoopable op, and every
    /// fill the protocol can perform must land in a declared state.
    #[test]
    fn closure_over_declared_states() {
        for kind in ProtocolKind::ALL {
            let t = kind.table();
            let declared = |what: &str, s: LineState| {
                assert!(t.states.contains(&s), "{kind}: {what} left declared states: {s:?}");
            };
            for (shared, &s) in t.read_fill.iter().enumerate() {
                declared(&format!("read_fill[{shared}]"), s);
            }
            match t.write_miss {
                WriteMissPolicy::FillExclusive => declared("exclusive_fill", t.exclusive_fill),
                WriteMissPolicy::WriteThrough { allocate: true } => {
                    for (shared, &s) in t.write_through_fill.iter().enumerate() {
                        declared(&format!("write_through_fill[{shared}]"), s);
                    }
                }
                WriteMissPolicy::WriteThrough { allocate: false }
                | WriteMissPolicy::FillThenWrite => {}
            }
            for &s in t.states {
                for op in BusOp::ALL {
                    declared(
                        &format!("snoop({s:?}, {op:?})"),
                        t.snoop[s as usize][op as usize].next,
                    );
                }
                if s.is_valid() {
                    match t.write_hit_effect(s) {
                        WriteHitEffect::Silent(n) => declared(&format!("write_hit({s:?})"), n),
                        WriteHitEffect::Bus(_) => {
                            for n in t.after_write[s as usize] {
                                declared(&format!("after_write({s:?})"), n);
                            }
                        }
                    }
                }
            }
        }
    }
}
