//! The MBus: the Firefly's shared memory bus.
//!
//! Figure 4 of the paper fixes the timing this module reproduces:
//!
//! ```text
//! cycle 1   arbitration; winner places address + operation
//! cycle 2   write data driven (MWrite); all other caches probe tags
//! cycle 3   caches holding the line assert the wired-OR MShared
//! cycle 4   read data transferred — from memory, unless MShared was
//!           asserted, in which case the holding caches supply it and
//!           memory is inhibited
//! ```
//!
//! "There are only two operations, MRead and MWrite. Each requires four
//! 100 ns bus cycles." — one 4-byte transfer per 400 ns is the 10 MB/s
//! aggregate bandwidth quoted in §5. The paper's hardware arbitrates
//! with fixed priority ("the caches have fixed priority for access to
//! the MBus"), lowest [`PortId`] first; here the discipline is a
//! configuration axis ([`crate::arbiter`]) and the bus can optionally
//! pipeline two transactions at a two-cycle offset ([`BusMode::Split`]).
//!
//! This module owns the *mechanics*: requests, grants, phases, and the
//! [`TransactionRecord`] the Figure 4 reproduction prints (rebuilt from
//! `BusCompleted` events by [`crate::events::bus_records`]). Protocol
//! glue (snooping and state changes) lives in [`crate::system`].

use crate::addr::{LineId, PortId};
use crate::arbiter::{Arbiter, ArbiterKind, BusMode};
use crate::cache::LineData;
use crate::error::Error;
use crate::protocol::{BusOp, SnoopResponse};
use crate::snapshot::{Snap, SnapReader, SnapWriter};
use crate::stats::BusStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Data carried by a bus transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// No data (reads, invalidates).
    None,
    /// One word at a word offset within the line (write-throughs, updates).
    Word {
        /// Word offset within the line.
        offset: u8,
        /// The written value.
        value: u32,
    },
    /// A whole line (victim write-backs; one-word-line write-throughs).
    Line(LineData),
}

/// Where the read data of a transaction came from.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DataSource {
    /// No data returned (writes, invalidates).
    NotApplicable,
    /// Main memory supplied the data.
    Memory,
    /// A cache supplied the data; memory was inhibited.
    Cache(PortId),
}

impl Snap for Payload {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Payload::None => w.u8(0),
            Payload::Word { offset, value } => w.put(&(1u8, offset, value)),
            Payload::Line(d) => w.put(&(2u8, d)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => Payload::None,
            1 => Payload::Word { offset: r.get()?, value: r.get()? },
            2 => Payload::Line(r.get()?),
            t => return Err(Error::SnapshotCorrupt(format!("invalid Payload tag {t}"))),
        })
    }
}

impl Snap for DataSource {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            DataSource::NotApplicable => w.u8(0),
            DataSource::Memory => w.u8(1),
            DataSource::Cache(p) => w.put(&(2u8, p)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => DataSource::NotApplicable,
            1 => DataSource::Memory,
            2 => DataSource::Cache(r.get()?),
            t => return Err(Error::SnapshotCorrupt(format!("invalid DataSource tag {t}"))),
        })
    }
}

/// An in-flight bus transaction: the whole four-cycle object of
/// Figure 4, from its grant cycle through the probe responses and the
/// `MShared` result to any fault that dooms it. Each bus slot carries
/// its own context, so a slot without one cannot be represented.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// The port that won arbitration.
    pub initiator: PortId,
    /// The operation.
    pub op: BusOp,
    /// The line addressed.
    pub line: LineId,
    /// Data driven by the initiator.
    pub payload: Payload,
    /// Cycles completed so far (1 after the arbitration cycle).
    pub cycles_done: u8,
    /// The wired-OR `MShared` response (valid after cycle 3).
    pub mshared: bool,
    /// The arbitration (address) cycle; stamps the event trace and the
    /// Figure 4 log.
    pub start: u64,
    /// The other caches' responses from the cycle-2 tag probe:
    /// `(port index, response)`.
    pub snoop: Vec<(usize, SnoopResponse)>,
    /// An `MShared` drop doomed the transaction; it aborts at the end of
    /// its fourth cycle.
    pub fault: bool,
}

crate::snap_struct!(Transaction {
    initiator,
    op,
    line,
    payload,
    cycles_done,
    mshared,
    start,
    snoop,
    fault,
});

/// A completed transaction, as carried by a `BusCompleted` event (see
/// [`crate::events::bus_records`]).
///
/// Contains everything needed to draw the Figure 4 timing diagram.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TransactionRecord {
    /// Bus cycle in which arbitration for this transaction occurred.
    pub start_cycle: u64,
    /// The initiating port.
    pub initiator: PortId,
    /// The operation.
    pub op: BusOp,
    /// The line addressed.
    pub line: LineId,
    /// Whether `MShared` was asserted in cycle 3.
    pub mshared: bool,
    /// Who supplied read data in cycle 4.
    pub source: DataSource,
}

impl TransactionRecord {
    /// Renders this transaction as a per-cycle signal trace in the style
    /// of Figure 4 of the paper.
    pub fn timing_diagram(&self) -> String {
        let c = self.start_cycle;
        let mut out = String::new();
        out.push_str(&format!(
            "{} {} by {} (cycles {}..{})\n",
            self.op.mbus_name(),
            self.line,
            self.initiator,
            c,
            c + 3
        ));
        out.push_str(&format!(
            "  cycle {:>6}: arbitrate; {} drives address {}\n",
            c, self.initiator, self.line
        ));
        let data_note = if self.op.carries_data() { "initiator drives write data; " } else { "" };
        out.push_str(&format!(
            "  cycle {:>6}: {}other caches probe tag stores\n",
            c + 1,
            data_note
        ));
        out.push_str(&format!(
            "  cycle {:>6}: MShared {}\n",
            c + 2,
            if self.mshared { "ASSERTED" } else { "not asserted" }
        ));
        let xfer = match self.source {
            DataSource::NotApplicable => "no read data".to_string(),
            DataSource::Memory => "memory supplies read data".to_string(),
            DataSource::Cache(p) => format!("cache {p} supplies read data; memory inhibited"),
        };
        out.push_str(&format!("  cycle {:>6}: {xfer}\n", c + 3));
        out
    }
}

/// Renders a sequence of transactions as an ASCII waveform in the style
/// of Figure 4: one row per bus signal, one column per 100 ns cycle.
///
/// ```text
/// cycle    0123456789
/// op       MReaMWri
/// MADDR    A___A___
/// MDATA    ...R.W..
/// MSHARED  __*_____
/// ```
///
/// `A` marks the address cycle, `W`/`R` the write-data and read-data
/// cycles, `*` an asserted `MShared`.
pub fn waveform(records: &[TransactionRecord]) -> String {
    if records.is_empty() {
        return String::from("(no transactions)\n");
    }
    // Records are normally in start order, but callers may pass merged or
    // reordered records (e.g. reconstructed from an event stream), so the
    // window must span the min..max rather than trusting records[0].
    let start = records.iter().map(|r| r.start_cycle).min().expect("nonempty");
    let end = records.iter().map(|r| r.start_cycle + 4).max().expect("nonempty");
    let width = (end - start) as usize;
    let mut addr = vec![b'_'; width];
    let mut data = vec![b'.'; width];
    let mut shared = vec![b'_'; width];
    let mut ops = vec![b' '; width];
    for r in records {
        let o = (r.start_cycle - start) as usize;
        addr[o] = b'A';
        if r.op.carries_data() {
            data[o + 1] = b'W';
        }
        if r.mshared {
            shared[o + 2] = b'*';
        }
        if r.op.returns_data() {
            data[o + 3] = b'R';
        }
        let name = r.op.mbus_name().as_bytes();
        for (i, &c) in name.iter().take(4).enumerate() {
            ops[o + i] = c;
        }
    }
    let line = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let mut ruler = String::new();
    for c in 0..width {
        ruler.push(char::from_digit(((start as usize + c) % 10) as u32, 10).expect("digit"));
    }
    format!(
        "cycle    {ruler}\nop       {}\nMADDR    {}\nMDATA    {}\nMSHARED  {}\n",
        line(&ops),
        line(&addr),
        line(&data),
        line(&shared),
    )
}

/// In split-transaction mode a younger transaction's address phase may
/// start once every older transaction has cleared its address and
/// write-data cycles — an offset of two bus cycles, sustaining one
/// transaction per two cycles at saturation.
pub const SPLIT_OFFSET_CYCLES: u64 = 2;

/// The MBus: request lines, an [`Arbiter`], one (or, in split mode, two
/// pipelined) transaction(s) at a time, and statistics.
///
/// # Examples
///
/// ```
/// use firefly_core::bus::{Bus, Payload};
/// use firefly_core::protocol::BusOp;
/// use firefly_core::{LineId, PortId};
///
/// let mut bus = Bus::new(4);
/// bus.request(PortId::new(2), 0);
/// bus.request(PortId::new(1), 0);
/// // Default fixed priority: the lower port wins arbitration.
/// assert_eq!(bus.arbitrate(0), Some(PortId::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    /// Per-port request lines; `Some(cycle)` holds the raise cycle.
    requests: Vec<Option<u64>>,
    /// Derived: bit `i` set exactly when `requests[i]` is raised, so
    /// "anyone requesting?" is one test. Never snapshotted — rebuilt
    /// from `requests` on load.
    raised: u16,
    /// In-flight transactions, oldest first, each carrying its own
    /// controller context (grant cycle, probe responses, fault flag). At
    /// most one in [`BusMode::Unified`], at most two in [`BusMode::Split`].
    slots: Vec<Transaction>,
    mode: BusMode,
    arbiter: Arbiter,
    stats: BusStats,
}

impl Bus {
    /// Creates a bus with `ports` request lines, the paper's
    /// fixed-priority arbiter and the unified (serialized) bus.
    pub fn new(ports: usize) -> Self {
        Bus::with_config(ports, ArbiterKind::FixedPriority, BusMode::Unified)
    }

    /// Creates a bus with an explicit arbitration policy and transaction
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if `ports` exceeds 16, the most the MBus configurations
    /// allow.
    pub fn with_config(ports: usize, arbiter: ArbiterKind, mode: BusMode) -> Self {
        assert!(ports <= 16, "at most 16 bus ports, got {ports}");
        Bus {
            requests: vec![None; ports],
            raised: 0,
            slots: Vec::with_capacity(mode.max_in_flight()),
            mode,
            arbiter: Arbiter::new(arbiter),
            stats: BusStats::default(),
        }
    }

    /// Raises `port`'s bus request line at cycle `now`. Idempotent: a
    /// line that is already raised keeps its original raise cycle, so
    /// re-requesting cannot jump the FCFS/aging queue.
    pub fn request(&mut self, port: PortId, now: u64) {
        let slot = &mut self.requests[port.index()];
        if slot.is_none() {
            *slot = Some(now);
            self.raised |= 1 << port.index();
        }
    }

    /// Drops `port`'s request line.
    pub fn cancel_request(&mut self, port: PortId) {
        self.requests[port.index()] = None;
        self.raised &= !(1 << port.index());
    }

    /// Whether `port`'s request line is raised.
    pub(crate) fn is_requesting(&self, port: usize) -> bool {
        self.requests[port].is_some()
    }

    /// Whether any port is requesting.
    #[inline]
    pub fn has_requests(&self) -> bool {
        self.raised != 0
    }

    /// Whether any transaction is in flight.
    #[inline]
    pub fn is_busy(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The oldest in-flight transaction, if any.
    pub fn current(&self) -> Option<&Transaction> {
        self.slots.first()
    }

    /// All in-flight transactions, oldest first.
    pub fn slots(&self) -> &[Transaction] {
        &self.slots
    }

    /// The in-flight transaction in `slot` (0 = oldest), for the
    /// controller to record its probe responses and faults.
    pub(crate) fn slot_mut(&mut self, slot: usize) -> &mut Transaction {
        &mut self.slots[slot]
    }

    /// How many transactions are on the wires.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// The configured transaction mode.
    pub fn mode(&self) -> BusMode {
        self.mode
    }

    /// The policy's worst-case grant delay bound, if it gives one (see
    /// [`ArbiterKind::grant_bound`]).
    pub fn grant_bound(&self) -> Option<u64> {
        self.arbiter.kind().grant_bound(self.requests.len())
    }

    /// Whether a new transaction may be granted this cycle: a slot is
    /// free and (split mode) every in-flight transaction has cleared its
    /// address and write-data phases.
    pub fn can_grant(&self) -> bool {
        self.slots.len() < self.mode.max_in_flight()
            && self.slots.iter().all(|t| u64::from(t.cycles_done) >= SPLIT_OFFSET_CYCLES)
    }

    /// Picks the winning requester under the configured policy without
    /// starting a transaction. Returns `None` when nobody is requesting.
    pub fn arbitrate(&self, now: u64) -> Option<PortId> {
        if self.raised == 0 {
            return None;
        }
        self.arbiter.pick(&self.requests, now)
    }

    /// Starts a transaction for `initiator`, granted in cycle `now`,
    /// clearing its request line.
    ///
    /// # Panics
    ///
    /// Panics if the bus cannot accept a grant this cycle (unified: a
    /// transaction is already in flight; split: both slots occupied or
    /// the younger transaction has not cleared its address/data phases).
    pub fn begin(
        &mut self,
        initiator: PortId,
        op: BusOp,
        line: LineId,
        payload: Payload,
        now: u64,
    ) {
        assert!(self.can_grant(), "bus already busy");
        self.cancel_request(initiator);
        self.arbiter.note_grant(initiator);
        match op {
            BusOp::Read => self.stats.reads += 1,
            BusOp::ReadOwned => self.stats.read_owned += 1,
            BusOp::Write => self.stats.writes += 1,
            BusOp::WriteBack => self.stats.write_backs += 1,
            BusOp::Update => self.stats.updates += 1,
            BusOp::Invalidate => self.stats.invalidates += 1,
            BusOp::Renew => self.stats.renewals += 1,
        }
        self.slots.push(Transaction {
            initiator,
            op,
            line,
            payload,
            cycles_done: 0,
            mshared: false,
            start: now,
            snoop: Vec::new(),
            fault: false,
        });
    }

    /// Advances every in-flight transaction by one cycle; returns the
    /// oldest transaction when its fourth cycle completes. The grant
    /// offset guarantees at most one completion per cycle.
    ///
    /// The caller (the system) performs each transaction's snoop in its
    /// cycle 2 and feeds the `MShared` result via
    /// [`set_mshared_slot`](Bus::set_mshared_slot) before it completes.
    pub fn tick(&mut self) -> Option<Transaction> {
        if self.slots.is_empty() {
            return None;
        }
        self.stats.busy_cycles += 1;
        for txn in &mut self.slots {
            txn.cycles_done += 1;
        }
        if u64::from(self.slots[0].cycles_done) == crate::BUS_CYCLES_PER_OP {
            debug_assert!(
                self.slots
                    .iter()
                    .skip(1)
                    .all(|t| u64::from(t.cycles_done) < crate::BUS_CYCLES_PER_OP),
                "grant offset must serialize completions"
            );
            return Some(self.slots.remove(0));
        }
        None
    }

    /// Accounts one elapsed bus cycle (busy or idle).
    pub fn count_cycle(&mut self) {
        self.stats.total_cycles += 1;
    }

    /// Accounts `n` elapsed idle cycles in one add — the batched form of
    /// `n` [`count_cycle`](Bus::count_cycle) calls, used by the
    /// event-driven engine when it skips an idle span.
    ///
    /// # Panics
    ///
    /// Panics if the total-cycle counter would overflow. Debug builds
    /// additionally assert the bus really is idle (no transaction in
    /// flight, no request lines raised).
    #[inline]
    pub fn add_idle_cycles(&mut self, n: u64) {
        debug_assert!(!self.is_busy() && !self.has_requests(), "add_idle_cycles on a non-idle bus");
        self.stats.total_cycles =
            self.stats.total_cycles.checked_add(n).expect("bus cycle counter overflow");
    }

    /// Sets the wired-OR `MShared` response for the oldest in-flight
    /// transaction.
    pub fn set_mshared(&mut self, mshared: bool) {
        self.set_mshared_slot(0, mshared);
    }

    /// Sets the wired-OR `MShared` response for the in-flight
    /// transaction in `slot` (0 = oldest).
    pub fn set_mshared_slot(&mut self, slot: usize, mshared: bool) {
        if let Some(txn) = self.slots.get_mut(slot) {
            txn.mshared = mshared;
            if mshared {
                self.stats.mshared_asserted += 1;
            }
        }
    }

    /// Counts where a completed transaction's read data came from.
    pub fn record_completion(&mut self, source: DataSource) {
        match source {
            DataSource::Cache(_) => self.stats.cache_supplied += 1,
            DataSource::Memory => self.stats.memory_supplied += 1,
            DataSource::NotApplicable => {}
        }
    }

    /// The bus statistics so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.put(&self.requests);
        w.put(&self.slots);
        self.arbiter.save_state(w);
        w.put(&self.stats);
    }

    /// Restores a bus saved with [`save`](Bus::save) into one built with
    /// the same port count and mode. Every initiator and probe response
    /// must name one of those ports, and every slot must be a phase a
    /// running bus reaches: short of its last cycle, and at least the
    /// grant offset behind the transaction ahead of it.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let requests: Vec<Option<u64>> = r.get()?;
        if requests.len() != self.requests.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {} bus ports, system has {}",
                requests.len(),
                self.requests.len()
            )));
        }
        self.raised = requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .fold(0, |mask, (i, _)| mask | 1 << i);
        self.requests = requests;
        let slots: Vec<Transaction> = r.get()?;
        if slots.len() > self.mode.max_in_flight() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {} in-flight transactions, {} mode allows {}",
                slots.len(),
                self.mode.name(),
                self.mode.max_in_flight()
            )));
        }
        let ports = self.requests.len();
        if let Some(t) = slots.iter().find(|t| t.initiator.index() >= ports) {
            return Err(Error::SnapshotCorrupt(format!(
                "transaction from bad port {}",
                t.initiator
            )));
        }
        if let Some((p, _)) = slots.iter().flat_map(|t| &t.snoop).find(|(p, _)| *p >= ports) {
            return Err(Error::SnapshotCorrupt(format!("snoop response from bad port {p}")));
        }
        let phases: Vec<u64> = slots.iter().map(|t| u64::from(t.cycles_done)).collect();
        if phases.iter().any(|&c| c >= crate::BUS_CYCLES_PER_OP)
            || phases.windows(2).any(|w| w[0] < w[1] + SPLIT_OFFSET_CYCLES)
        {
            return Err(Error::SnapshotCorrupt(format!("in-flight phases {phases:?}")));
        }
        self.slots.clear();
        self.slots.extend(slots);
        self.arbiter.load_state(r)?;
        self.stats = r.get()?;
        Ok(())
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::None => f.write_str("-"),
            Payload::Word { offset, value } => write!(f, "w[{offset}]={value:#x}"),
            Payload::Line(d) => write!(f, "line {:x?}", d.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_priority_arbitration() {
        let mut bus = Bus::new(8);
        assert_eq!(bus.arbitrate(0), None);
        bus.request(PortId::new(5), 0);
        bus.request(PortId::new(3), 2);
        bus.request(PortId::new(7), 1);
        assert_eq!(bus.arbitrate(3), Some(PortId::new(3)));
    }

    /// A bus image whose slots no running bus reaches is corrupt: a
    /// transaction past its last cycle would never complete, and two at
    /// the same phase would complete together.
    #[test]
    fn unreachable_slot_phases_are_corrupt() {
        let reload = |bus: &Bus| {
            let mut w = SnapWriter::new();
            bus.save(&mut w);
            let bytes = w.into_bytes();
            let mut twin = Bus::with_config(4, ArbiterKind::FixedPriority, BusMode::Split);
            twin.load_state(&mut SnapReader::new(&bytes))
        };
        let mut bus = Bus::with_config(4, ArbiterKind::FixedPriority, BusMode::Split);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None, 0);
        bus.tick();
        bus.tick();
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None, 2);
        reload(&bus).expect("a pipelined pair loads");
        bus.slots[1].cycles_done = 1;
        assert!(matches!(reload(&bus), Err(Error::SnapshotCorrupt(_))), "offset of one cycle");
        bus.slots.truncate(1);
        bus.slots[0].cycles_done = 4;
        assert!(matches!(reload(&bus), Err(Error::SnapshotCorrupt(_))), "past the last cycle");
    }

    #[test]
    fn fcfs_bus_grants_oldest_request() {
        let mut bus = Bus::with_config(8, ArbiterKind::Fcfs, BusMode::Unified);
        bus.request(PortId::new(5), 0);
        bus.request(PortId::new(3), 2);
        assert_eq!(bus.arbitrate(3), Some(PortId::new(5)));
        // Re-raising an already-raised line must not refresh its age.
        bus.request(PortId::new(5), 9);
        assert_eq!(bus.arbitrate(9), Some(PortId::new(5)));
    }

    #[test]
    fn split_mode_pipelines_at_two_cycle_offset() {
        let mut bus = Bus::with_config(4, ArbiterKind::FixedPriority, BusMode::Split);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None, 0);
        assert!(!bus.can_grant(), "younger slot must wait out the address/data phases");
        assert!(bus.tick().is_none());
        assert!(!bus.can_grant());
        assert!(bus.tick().is_none());
        assert!(bus.can_grant(), "offset reached: a second transaction may start");
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None, 0);
        assert_eq!(bus.in_flight(), 2);
        assert!(!bus.can_grant(), "both slots occupied");
        assert!(bus.tick().is_none());
        let first = bus.tick().expect("oldest completes after its 4 cycles");
        assert_eq!(first.initiator, PortId::new(0));
        assert!(bus.tick().is_none());
        let second = bus.tick().expect("pipelined follower completes 2 cycles later");
        assert_eq!(second.initiator, PortId::new(1));
        assert_eq!(bus.stats().busy_cycles, 6, "6 busy cycles for 2 overlapped 4-cycle ops");
        assert!(!bus.is_busy());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn split_mode_rejects_grant_before_offset() {
        let mut bus = Bus::with_config(4, ArbiterKind::FixedPriority, BusMode::Split);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None, 0);
        bus.tick();
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None, 0);
    }

    #[test]
    fn transaction_takes_exactly_four_cycles() {
        let mut bus = Bus::new(2);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(9), Payload::None, 0);
        assert!(bus.tick().is_none());
        assert!(bus.tick().is_none());
        assert!(bus.tick().is_none());
        let done = bus.tick().expect("completes on the fourth cycle");
        assert_eq!(done.cycles_done, 4);
        assert!(!bus.is_busy());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn one_transaction_at_a_time() {
        let mut bus = Bus::new(2);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None, 0);
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None, 0);
    }

    #[test]
    fn begin_clears_request_line() {
        let mut bus = Bus::new(2);
        bus.request(PortId::new(1), 0);
        bus.begin(
            PortId::new(1),
            BusOp::Write,
            LineId::from_raw(1),
            Payload::Word { offset: 0, value: 1 },
            0,
        );
        assert!(!bus.has_requests());
    }

    /// The raised-line mask is derived state: it must agree with the
    /// request lines after every raise, re-raise, cancel and grant, in a
    /// clone, and in a bus loaded from an image with lines raised.
    #[test]
    fn raised_mask_tracks_request_lines() {
        let agrees = |bus: &Bus| {
            let scan = (0..bus.requests.len())
                .filter(|&i| bus.requests[i].is_some())
                .fold(0u16, |mask, i| mask | 1 << i);
            assert_eq!(bus.raised, scan, "mask {:#06x} vs lines {scan:#06x}", bus.raised);
            assert_eq!(bus.has_requests(), scan != 0);
        };
        let mut bus = Bus::with_config(16, ArbiterKind::RoundRobin, BusMode::Unified);
        agrees(&bus);
        for (port, now) in [(15, 1), (0, 2), (7, 3), (7, 9), (3, 4)] {
            bus.request(PortId::new(port), now);
            agrees(&bus);
        }
        bus.cancel_request(PortId::new(3));
        agrees(&bus);
        bus.cancel_request(PortId::new(3));
        agrees(&bus);
        let winner = bus.arbitrate(10).expect("three lines raised");
        bus.begin(winner, BusOp::Read, LineId::from_raw(1), Payload::None, 10);
        agrees(&bus);
        assert!(!bus.is_requesting(winner.index()));
        agrees(&bus.clone());

        let mut w = SnapWriter::new();
        bus.save(&mut w);
        let bytes = w.into_bytes();
        let mut loaded = Bus::with_config(16, ArbiterKind::RoundRobin, BusMode::Unified);
        loaded.request(PortId::new(3), 0);
        loaded.load_state(&mut SnapReader::new(&bytes)).expect("a saved bus loads");
        agrees(&loaded);
        assert_eq!(loaded.raised.count_ones(), 2, "two lines stay raised");
        for port in 0..16 {
            loaded.cancel_request(PortId::new(port));
        }
        agrees(&loaded);
        assert_eq!(loaded.arbitrate(11), None);
    }

    #[test]
    fn stats_count_op_kinds() {
        let mut bus = Bus::new(2);
        for (op, _) in [(BusOp::Read, ()), (BusOp::Write, ()), (BusOp::WriteBack, ())] {
            bus.begin(PortId::new(0), op, LineId::from_raw(1), Payload::None, 0);
            while bus.tick().is_none() {}
        }
        assert_eq!(bus.stats().reads, 1);
        assert_eq!(bus.stats().writes, 1);
        assert_eq!(bus.stats().write_backs, 1);
        assert_eq!(bus.stats().busy_cycles, 12);
    }

    #[test]
    fn timing_diagram_shows_a_cache_supplied_read() {
        let mut bus = Bus::new(2);
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(4), Payload::None, 0);
        bus.set_mshared(true);
        let mut txn = None;
        while txn.is_none() {
            txn = bus.tick();
        }
        let txn = txn.unwrap();
        bus.record_completion(DataSource::Cache(PortId::new(0)));
        assert_eq!(bus.stats().cache_supplied, 1);
        let rec = TransactionRecord {
            start_cycle: 10,
            initiator: txn.initiator,
            op: txn.op,
            line: txn.line,
            mshared: txn.mshared,
            source: DataSource::Cache(PortId::new(0)),
        };
        let diagram = rec.timing_diagram();
        assert!(diagram.contains("MRead"));
        assert!(diagram.contains("(cycles 10..13)"));
        assert!(diagram.contains("MShared ASSERTED"));
        assert!(diagram.contains("memory inhibited"));
    }

    #[test]
    fn waveform_renders_figure4_signals() {
        let recs = [
            TransactionRecord {
                start_cycle: 0,
                initiator: PortId::new(0),
                op: BusOp::Read,
                line: LineId::from_raw(1),
                mshared: true,
                source: DataSource::Cache(PortId::new(1)),
            },
            TransactionRecord {
                start_cycle: 4,
                initiator: PortId::new(1),
                op: BusOp::Write,
                line: LineId::from_raw(1),
                mshared: false,
                source: DataSource::NotApplicable,
            },
        ];
        let w = waveform(&recs);
        let lines: Vec<&str> = w.lines().collect();
        assert_eq!(lines.len(), 5);
        let maddr = lines[2].strip_prefix("MADDR    ").unwrap();
        assert_eq!(&maddr[0..1], "A", "address in cycle 1");
        assert_eq!(&maddr[4..5], "A", "back-to-back second op");
        let mdata = lines[3].strip_prefix("MDATA    ").unwrap();
        assert_eq!(&mdata[3..4], "R", "read data in cycle 4");
        assert_eq!(&mdata[5..6], "W", "write data in cycle 2 of op 2");
        let mshared = lines[4].strip_prefix("MSHARED  ").unwrap();
        assert_eq!(&mshared[2..3], "*", "MShared in cycle 3");
        assert_eq!(&mshared[6..7], "_", "not asserted for op 2");
    }

    #[test]
    fn waveform_accepts_out_of_order_records() {
        // Regression: the window start used to be records[0].start_cycle,
        // so a record earlier than the first entry underflowed the column
        // offset (debug panic, wild index in release).
        let recs = [
            TransactionRecord {
                start_cycle: 8,
                initiator: PortId::new(1),
                op: BusOp::Write,
                line: LineId::from_raw(2),
                mshared: false,
                source: DataSource::NotApplicable,
            },
            TransactionRecord {
                start_cycle: 0,
                initiator: PortId::new(0),
                op: BusOp::Read,
                line: LineId::from_raw(1),
                mshared: true,
                source: DataSource::Memory,
            },
        ];
        let w = waveform(&recs);
        let sorted = [recs[1], recs[0]];
        assert_eq!(w, waveform(&sorted), "order must not matter");
        let maddr = w.lines().nth(2).unwrap().strip_prefix("MADDR    ").unwrap();
        assert_eq!(&maddr[0..1], "A");
        assert_eq!(&maddr[8..9], "A");
    }

    #[test]
    fn waveform_empty() {
        assert!(waveform(&[]).contains("no transactions"));
    }

    #[test]
    fn mwrite_diagram_mentions_write_data() {
        let rec = TransactionRecord {
            start_cycle: 0,
            initiator: PortId::new(0),
            op: BusOp::Write,
            line: LineId::from_raw(1),
            mshared: false,
            source: DataSource::NotApplicable,
        };
        let d = rec.timing_diagram();
        assert!(d.contains("MWrite"));
        assert!(d.contains("write data"));
        assert!(d.contains("not asserted"));
    }
}
