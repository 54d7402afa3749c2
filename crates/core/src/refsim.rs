//! A fast, untimed, reference-level protocol simulator.
//!
//! "Several researchers have used trace-driven simulation to analyze the
//! effects of cache organization and choice of bus protocol on system
//! performance" (§5.2, citing Smith and — methodologically — Archibald &
//! Baer). This module is that instrument: it interleaves per-processor
//! reference streams through tag-only caches, reads the same
//! [`ProtocolTable`] as the cycle engine, and counts bus events. No
//! data and no timing, so it suits wide protocol/sharing sweeps: one
//! [`RefSim::access`] costs about 20 ns (median over the seven protocols
//! of six runs, each the best of five passes; 4 CPUs, 16 KB caches,
//! 300 k references of the paper-calibrated stream at S = 0.10 replayed
//! from memory, release build on a 2-vCPU shared VM). Generating the
//! synthetic reference costs over twice that, so a sweep replays one
//! stream under every protocol rather than regenerating it per protocol.
//!
//! Costs are assigned afterwards by [`CostModel`], which charges the
//! paper's two ticks per MBus operation and can fold in a bus-contention
//! factor from the §5.2 queuing model.

use crate::addr::{Addr, LineId};
use crate::config::CacheGeometry;
use crate::protocol::{
    BusOp, LineState, ProcOp, ProtocolKind, ProtocolTable, WriteHitEffect, WriteMissPolicy,
};
use serde::{Deserialize, Serialize};
use std::fmt;

crate::counters! {
    /// Bus-event counts accumulated by a [`RefSim`] run.
    pub struct RefSimStats [guard = refs()] {
        /// Processor reads simulated.
        pub reads: u64,
        /// Processor writes simulated.
        pub writes: u64,
        /// Read hits.
        pub read_hits: u64,
        /// Write hits.
        pub write_hits: u64,
        /// Bus fills (`Read`).
        pub bus_reads: u64,
        /// Bus exclusive fills (`ReadOwned`).
        pub bus_read_owned: u64,
        /// Write-throughs that found sharers.
        pub wt_shared: u64,
        /// Write-throughs that found no sharer.
        pub wt_unshared: u64,
        /// Victim write-backs.
        pub victim_writes: u64,
        /// Dragon updates sent.
        pub updates: u64,
        /// Invalidation transactions sent.
        pub invalidates: u64,
        /// Copies invalidated in other caches.
        pub invalidations_taken: u64,
        /// Copies updated in place in other caches.
        pub updates_absorbed: u64,
    }
}

impl RefSimStats {
    /// Total references.
    pub fn refs(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.refs() - self.read_hits - self.write_hits
    }

    /// Miss rate (the paper's `M`).
    pub fn miss_rate(&self) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.refs() as f64
        }
    }

    /// Total bus transactions.
    pub fn bus_ops(&self) -> u64 {
        self.bus_reads
            + self.bus_read_owned
            + self.wt_shared
            + self.wt_unshared
            + self.victim_writes
            + self.updates
            + self.invalidates
    }

    /// Bus transactions per processor reference — the figure of merit for
    /// the Firefly's cache ("shield the memory bus from the majority of
    /// references").
    pub fn bus_ops_per_ref(&self) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.bus_ops() as f64 / self.refs() as f64
        }
    }
}

/// Assigns time costs to reference-level event counts.
///
/// The default charges the paper's constants: each MBus operation is
/// `N = 2` CPU ticks, a base instruction stream of 11.9 ticks per
/// instruction with 2.13 references per instruction.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU ticks per MBus operation (paper: 2).
    pub ticks_per_bus_op: f64,
    /// Base (no-wait-state) ticks per instruction (paper: 11.9).
    pub base_tpi: f64,
    /// References per instruction (paper: 2.13).
    pub refs_per_instruction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { ticks_per_bus_op: 2.0, base_tpi: 11.9, refs_per_instruction: 2.13 }
    }
}

impl CostModel {
    /// Effective ticks per instruction implied by the measured bus events,
    /// at bus load `load` (using the paper's open-queue delay `N/(1-L)`).
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `[0, 1)`.
    pub fn tpi(&self, stats: &RefSimStats, load: f64) -> f64 {
        assert!((0.0..1.0).contains(&load), "load must be in [0,1), got {load}");
        let refs = stats.refs() as f64;
        if refs == 0.0 {
            return self.base_tpi;
        }
        let instructions = refs / self.refs_per_instruction;
        let bus_ticks = stats.bus_ops() as f64 * self.ticks_per_bus_op / (1.0 - load);
        self.base_tpi + bus_ticks / instructions
    }

    /// Relative performance (base TPI over effective TPI) at `load`.
    pub fn relative_performance(&self, stats: &RefSimStats, load: f64) -> f64 {
        self.base_tpi / self.tpi(stats, load)
    }
}

/// Tag-only caches driven by interleaved reference streams.
///
/// # Examples
///
/// ```
/// use firefly_core::refsim::RefSim;
/// use firefly_core::protocol::{ProcOp, ProtocolKind};
/// use firefly_core::{Addr, CacheGeometry};
///
/// let mut sim = RefSim::new(2, CacheGeometry::microvax(), ProtocolKind::Firefly);
/// sim.access(0, ProcOp::Write, Addr::new(0x100));
/// sim.access(1, ProcOp::Read, Addr::new(0x100));
/// sim.access(0, ProcOp::Write, Addr::new(0x100)); // write-through: shared
/// assert_eq!(sim.stats().wt_shared, 1);
/// ```
pub struct RefSim {
    table: ProtocolTable,
    geometry: CacheGeometry,
    /// Per-CPU direct-mapped tag stores, `geometry.lines()` slots each:
    /// slot index -> (tag, state). An `Invalid` state marks an empty slot,
    /// whatever its tag.
    caches: Vec<Vec<(u32, LineState)>>,
    stats: RefSimStats,
}

impl RefSim {
    /// Creates a simulator with `cpus` caches of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize, geometry: CacheGeometry, protocol: ProtocolKind) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        RefSim {
            table: protocol.table(),
            geometry,
            caches: vec![vec![(0, LineState::Invalid); geometry.lines()]; cpus],
            stats: RefSimStats::default(),
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.caches.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RefSimStats {
        &self.stats
    }

    /// The state of `line` in `cpu`'s cache.
    pub fn state_of(&self, cpu: usize, line: LineId) -> LineState {
        match self.caches[cpu][self.geometry.index_of(line)] {
            (tag, state) if tag == self.geometry.tag_of(line) => state,
            _ => LineState::Invalid,
        }
    }

    fn set_state(&mut self, cpu: usize, line: LineId, state: LineState) {
        self.caches[cpu][self.geometry.index_of(line)] = (self.geometry.tag_of(line), state);
    }

    /// Performs one bus operation: snoop all other caches, apply their
    /// responses, and return whether `MShared` was asserted.
    fn bus_op(&mut self, cpu: usize, line: LineId, op: BusOp) -> bool {
        match op {
            BusOp::Read => self.stats.bus_reads += 1,
            BusOp::ReadOwned => self.stats.bus_read_owned += 1,
            BusOp::Write => {} // classified by caller via mshared
            BusOp::WriteBack => self.stats.victim_writes += 1,
            BusOp::Update => self.stats.updates += 1,
            BusOp::Invalidate => self.stats.invalidates += 1,
            // The reference level has no notion of lease expiry, so it
            // never issues renewals; a Renew also never changes states.
            BusOp::Renew => {}
        }
        let mut mshared = false;
        for other in 0..self.caches.len() {
            if other == cpu {
                continue;
            }
            let state = self.state_of(other, line);
            if !state.is_valid() {
                continue;
            }
            let resp = self.table.snoop[state as usize][op as usize];
            mshared |= resp.assert_shared;
            if resp.absorb {
                self.stats.updates_absorbed += 1;
            }
            if resp.next == LineState::Invalid {
                self.stats.invalidations_taken += 1;
            }
            self.set_state(other, line, resp.next);
        }
        mshared
    }

    /// Victimizes the occupant of `line`'s slot if installation requires
    /// it, issuing the write-back when the occupant is an owner.
    fn victimize(&mut self, cpu: usize, line: LineId) {
        let idx = self.geometry.index_of(line);
        let (tag, state) = self.caches[cpu][idx];
        if tag != self.geometry.tag_of(line) && state.is_owner() {
            let victim = self.geometry.line_from(idx, tag);
            self.bus_op(cpu, victim, BusOp::WriteBack);
        }
    }

    /// Simulates one reference by `cpu`.
    pub fn access(&mut self, cpu: usize, op: ProcOp, addr: Addr) {
        let line = LineId::containing(addr, self.geometry.line_words());
        let state = self.state_of(cpu, line);
        match op {
            ProcOp::Read => {
                self.stats.reads += 1;
                if state.is_valid() {
                    self.stats.read_hits += 1;
                } else {
                    self.victimize(cpu, line);
                    let shared = self.bus_op(cpu, line, BusOp::Read);
                    self.set_state(cpu, line, self.table.read_fill[usize::from(shared)]);
                }
            }
            ProcOp::Write => {
                self.stats.writes += 1;
                if state.is_valid() {
                    self.stats.write_hits += 1;
                    self.write_hit(cpu, line, state);
                } else {
                    match self.table.write_miss {
                        WriteMissPolicy::WriteThrough { allocate }
                            if self.geometry.line_words() == 1 =>
                        {
                            if allocate {
                                self.victimize(cpu, line);
                            }
                            let shared = self.bus_op(cpu, line, BusOp::Write);
                            if shared {
                                self.stats.wt_shared += 1;
                            } else {
                                self.stats.wt_unshared += 1;
                            }
                            if allocate {
                                let fill = self.table.write_through_fill[usize::from(shared)];
                                self.set_state(cpu, line, fill);
                            }
                        }
                        WriteMissPolicy::WriteThrough { allocate: false } => {
                            let shared = self.bus_op(cpu, line, BusOp::Write);
                            if shared {
                                self.stats.wt_shared += 1;
                            } else {
                                self.stats.wt_unshared += 1;
                            }
                        }
                        WriteMissPolicy::FillExclusive => {
                            self.victimize(cpu, line);
                            self.bus_op(cpu, line, BusOp::ReadOwned);
                            self.set_state(cpu, line, self.table.exclusive_fill);
                        }
                        WriteMissPolicy::WriteThrough { .. } | WriteMissPolicy::FillThenWrite => {
                            self.victimize(cpu, line);
                            let shared = self.bus_op(cpu, line, BusOp::Read);
                            let fill = self.table.read_fill[usize::from(shared)];
                            self.set_state(cpu, line, fill);
                            self.write_hit(cpu, line, fill);
                        }
                    }
                }
            }
        }
    }

    fn write_hit(&mut self, cpu: usize, line: LineId, state: LineState) {
        match self.table.write_hit_effect(state) {
            WriteHitEffect::Silent(next) => self.set_state(cpu, line, next),
            WriteHitEffect::Bus(op) => {
                let shared = self.bus_op(cpu, line, op);
                if op == BusOp::Write {
                    if shared {
                        self.stats.wt_shared += 1;
                    } else {
                        self.stats.wt_unshared += 1;
                    }
                }
                let next = self.table.after_write[state as usize][usize::from(shared)];
                self.set_state(cpu, line, next);
            }
        }
    }
}

impl fmt::Debug for RefSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefSim")
            .field("cpus", &self.caches.len())
            .field("geometry", &self.geometry)
            .field("protocol", &self.table.kind.name())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cpus: usize, kind: ProtocolKind) -> RefSim {
        RefSim::new(cpus, CacheGeometry::new(64, 1).unwrap(), kind)
    }

    #[test]
    fn private_stream_is_mostly_hits() {
        let mut sim = tiny(1, ProtocolKind::Firefly);
        for round in 0..10 {
            for w in 0u32..16 {
                let op = if round % 4 == 0 { ProcOp::Write } else { ProcOp::Read };
                sim.access(0, op, Addr::from_word_index(w));
            }
        }
        assert_eq!(sim.stats().misses(), 16, "only cold misses");
    }

    #[test]
    fn firefly_ping_pong_writes_are_all_write_throughs() {
        let mut sim = tiny(2, ProtocolKind::Firefly);
        let a = Addr::new(0);
        sim.access(0, ProcOp::Read, a);
        sim.access(1, ProcOp::Read, a);
        for _ in 0..10 {
            sim.access(0, ProcOp::Write, a);
            sim.access(1, ProcOp::Write, a);
        }
        assert_eq!(sim.stats().wt_shared, 20, "all writes see the other sharer");
        assert_eq!(sim.stats().misses(), 2, "updates avoid re-miss");
    }

    #[test]
    fn illinois_ping_pong_writes_cause_invalidation_misses() {
        let mut sim = tiny(2, ProtocolKind::Illinois);
        let a = Addr::new(0);
        sim.access(0, ProcOp::Read, a);
        sim.access(1, ProcOp::Read, a);
        for _ in 0..10 {
            sim.access(0, ProcOp::Write, a);
            sim.access(1, ProcOp::Write, a);
        }
        // First write of each pair invalidates the other copy; the other
        // CPU's next write is then a miss.
        assert!(sim.stats().misses() > 10, "invalidation forces reloads: {:?}", sim.stats());
        assert!(sim.stats().invalidations_taken >= 10);
    }

    #[test]
    fn write_through_protocol_generates_per_write_traffic() {
        let mut sim = tiny(1, ProtocolKind::WriteThrough);
        let a = Addr::new(0);
        sim.access(0, ProcOp::Read, a);
        for _ in 0..100 {
            sim.access(0, ProcOp::Write, a);
        }
        assert_eq!(sim.stats().bus_ops(), 101, "every write cycles the bus");
    }

    #[test]
    fn firefly_private_writes_are_silent_after_first() {
        let mut sim = tiny(1, ProtocolKind::Firefly);
        let a = Addr::new(0);
        for _ in 0..100 {
            sim.access(0, ProcOp::Write, a);
        }
        // One write-through (the allocating miss), then dirty hits.
        assert_eq!(sim.stats().bus_ops(), 1);
    }

    #[test]
    fn victim_write_back_counted() {
        let mut sim = tiny(1, ProtocolKind::Firefly);
        let a = Addr::from_word_index(0);
        let conflict = Addr::from_word_index(64);
        sim.access(0, ProcOp::Write, a); // allocate clean
        sim.access(0, ProcOp::Write, a); // dirty
        sim.access(0, ProcOp::Read, conflict); // displaces dirty victim
        assert_eq!(sim.stats().victim_writes, 1);
    }

    #[test]
    fn last_sharer_write_through_is_unshared() {
        let mut sim = tiny(2, ProtocolKind::Firefly);
        let a = Addr::new(0);
        sim.access(0, ProcOp::Read, a);
        sim.access(1, ProcOp::Read, a);
        // CPU 1's copy is displaced by a conflicting fill.
        sim.access(1, ProcOp::Read, Addr::from_word_index(64));
        sim.access(0, ProcOp::Write, a);
        assert_eq!(sim.stats().wt_unshared, 1);
        assert_eq!(sim.state_of(0, LineId::from_raw(0)), LineState::CleanExclusive);
    }

    #[test]
    fn empty_slot_does_not_alias_tag_zero() {
        let mut sim = tiny(2, ProtocolKind::Berkeley);
        let (line0, conflict) = (LineId::from_raw(0), LineId::from_raw(64));
        // A fresh slot holds (tag 0, Invalid): line 0 has tag 0 but misses.
        assert_eq!(sim.state_of(0, line0), LineState::Invalid);
        assert_eq!(sim.state_of(1, line0), LineState::Invalid);
        // Filling a conflicting line over the empty slot writes nothing back.
        sim.access(0, ProcOp::Write, Addr::from_word_index(64));
        assert_eq!(sim.stats().victim_writes, 0);
        assert!(sim.state_of(0, conflict).is_owner());
        assert_eq!(sim.state_of(0, line0), LineState::Invalid);
        // The dirty occupant evicted by a conflict is written back once and
        // then reads back Invalid.
        sim.access(0, ProcOp::Read, Addr::from_word_index(0));
        assert_eq!(sim.stats().victim_writes, 1);
        assert_eq!(sim.state_of(0, conflict), LineState::Invalid);
        assert!(sim.state_of(0, line0).is_valid());
        // A copy invalidated by a snoop reads back Invalid, and a fill over
        // its slot writes nothing back even though it was once an owner.
        sim.access(0, ProcOp::Write, Addr::from_word_index(0));
        assert!(sim.state_of(0, line0).is_owner());
        sim.access(1, ProcOp::Write, Addr::from_word_index(0));
        assert_eq!(sim.state_of(0, line0), LineState::Invalid);
        sim.access(0, ProcOp::Read, Addr::from_word_index(64));
        assert_eq!(sim.stats().victim_writes, 1);
    }

    #[test]
    fn cost_model_matches_paper_at_zero_load() {
        let model = CostModel::default();
        let stats = RefSimStats::default();
        assert!((model.tpi(&stats, 0.0) - 11.9).abs() < 1e-9);
    }

    #[test]
    fn cost_model_charges_queue_delay() {
        let model = CostModel::default();
        let stats = RefSimStats {
            reads: 173,
            writes: 40,
            read_hits: 173,
            write_hits: 40,
            bus_reads: 10,
            ..Default::default()
        };
        let t0 = model.tpi(&stats, 0.0);
        let t5 = model.tpi(&stats, 0.5);
        // At 50% load each bus op takes twice as long.
        let instr = 213.0 / 2.13;
        assert!((t0 - (11.9 + 20.0 / instr)).abs() < 1e-9);
        assert!((t5 - (11.9 + 40.0 / instr)).abs() < 1e-9);
    }

    #[test]
    fn bus_ops_per_ref_reflects_shielding() {
        let mut sim = tiny(1, ProtocolKind::Firefly);
        for round in 0..50 {
            for w in 0u32..32 {
                let op = if round % 3 == 0 { ProcOp::Write } else { ProcOp::Read };
                sim.access(0, op, Addr::from_word_index(w));
            }
        }
        assert!(
            sim.stats().bus_ops_per_ref() < 0.05,
            "a private working set is shielded: {}",
            sim.stats().bus_ops_per_ref()
        );
    }
}
