//! The composed memory system: N snoopy caches on one MBus in front of
//! main memory.
//!
//! This is the cycle-level engine. Time advances in 100 ns bus cycles via
//! [`MemSystem::step`]. Each port (a processor's cache, or the I/O
//! processor's cache carrying DMA) accepts one outstanding [`Request`] at
//! a time; hits complete locally in the no-wait-state access time, misses
//! and write-throughs arbitrate for the MBus and occupy four-cycle
//! transactions with the Figure 4 phase structure. Every transaction is
//! snooped by every other cache, which may assert `MShared`, supply data
//! (inhibiting memory), flush a dirty copy to memory, absorb a
//! write-through, or invalidate — exactly as its [`ProtocolTable`] says.
//! The engine records which table entries it consulted
//! ([`MemSystem::exercised`]), so the model checker can learn what a
//! configuration exercises without wrapping the table.
//!
//! Tag-store interference is modeled: a processor access in flight at a
//! transaction's probe cycle is delayed by one CPU tick (the `SP` term of
//! the paper's performance model, §5.2).

use crate::addr::{Addr, LineId, PortId};
use crate::bus::{Bus, DataSource, Payload, Transaction};
use crate::cache::{Cache, LineData};
use crate::config::SystemConfig;
use crate::error::Error;
use crate::events::{Event, EventKind, EventRing, FaultClass};
use crate::fault::{site, EccInjector, FaultConfig, FaultSite};
use crate::memory::Memory;
use crate::protocol::{
    BusOp, ExerciseLog, LineState, ProcOp, ProtocolKind, ProtocolTable, TsRules, WriteHitEffect,
    WriteMissPolicy,
};
use crate::snapshot::{Snap, SnapReader, SnapWriter, SnapshotBuilder, SnapshotFile};
use crate::stats::{BusStats, CacheStats, FaultStats, LatencyStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Consecutive aborted attempts after which a bus operation stops
/// retrying and surfaces [`Error::BusParity`] instead of hanging.
const MAX_BUS_RETRIES: u8 = 8;

/// Whether an access comes from the processor or from a DMA device.
///
/// "DMA references to main memory are made through the I/O processor's
/// cache (although DMA misses do not allocate)" — §5.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// A processor reference (allocates on miss).
    Cpu,
    /// A DMA reference through the I/O processor's cache (no allocation).
    Dma,
}

crate::snap_enum!(AccessKind { Cpu = 0, Dma = 1 });

/// One memory access presented to a port.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Read or write.
    pub op: ProcOp,
    /// The byte address (word-aligned accesses are the VAX common case).
    pub addr: Addr,
    /// The value to write (ignored for reads).
    pub value: u32,
    /// Processor or DMA semantics.
    pub kind: AccessKind,
}

crate::snap_struct!(Request { op, addr, value, kind });

impl Request {
    /// A processor read of `addr`.
    pub fn read(addr: Addr) -> Self {
        Request { op: ProcOp::Read, addr, value: 0, kind: AccessKind::Cpu }
    }

    /// A processor write of `value` to `addr`.
    pub fn write(addr: Addr, value: u32) -> Self {
        Request { op: ProcOp::Write, addr, value, kind: AccessKind::Cpu }
    }

    /// A DMA read of `addr` (no allocation on miss).
    pub fn dma_read(addr: Addr) -> Self {
        Request { op: ProcOp::Read, addr, value: 0, kind: AccessKind::Dma }
    }

    /// A DMA write of `value` to `addr` (no allocation on miss).
    pub fn dma_write(addr: Addr, value: u32) -> Self {
        Request { op: ProcOp::Write, addr, value, kind: AccessKind::Dma }
    }
}

/// The outcome of a completed access.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AccessResult {
    /// The value read (for writes, the value written).
    pub value: u32,
    /// Whether the access hit in the cache (a write-through on a shared
    /// hit is still a hit; only fills count as misses).
    pub hit: bool,
    /// MBus transactions this access performed.
    pub bus_ops: u8,
    /// Whether a snoop probe to the tag store delayed the access one tick.
    pub probe_stalled: bool,
    /// Bus cycle at which the access was issued.
    pub issued_cycle: u64,
    /// Bus cycle at which the access completed.
    pub completed_cycle: u64,
}

impl AccessResult {
    /// Access latency in bus cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.completed_cycle - self.issued_cycle
    }
}

/// Why the current bus operation was issued (controller bookkeeping).
#[derive(Copy, Clone, Debug)]
enum OpPurpose {
    /// Write a dirty victim back before filling its slot.
    VictimWriteBack { victim: LineId },
    /// Fill the line for a read (or the read half of fill-then-write).
    ReadFill { install: bool },
    /// Fetch with ownership (`ReadOwned`).
    ExclusiveFill,
    /// Firefly longword write-miss / DMA or write-through-protocol write
    /// miss: write through, optionally installing the written line.
    WriteThroughMiss { allocate: bool },
    /// The bus half of a write hit (write-through / update / invalidate).
    WriteHitBus,
    /// Tardis lease renewal: re-validate a resident copy whose lease has
    /// expired against the global timestamp state, without moving data.
    LeaseRenew,
}

#[derive(Copy, Clone, Debug)]
enum Status {
    /// Waiting for (or in) a bus transaction issued for this purpose.
    WaitBus(OpPurpose),
    /// Logically complete; result deliverable at the given cycle.
    Finishing { at: u64 },
}

#[derive(Clone, Debug)]
struct Pending {
    req: Request,
    issued: u64,
    value: u32,
    hit: bool,
    bus_ops: u8,
    probe_stalled: bool,
    /// Aborted bus attempts so far (parity / `MShared` glitches).
    retries: u8,
    /// Cycle at which the bus request line was last raised (feeds the
    /// bus-acquisition-wait histogram at grant time).
    requested: u64,
    /// Watchdog escalations so far: each trip doubles the budget before
    /// the next, bounding total patience before the machine-check.
    wd_attempts: u8,
    status: Status,
}

/// A tag byte, then the variant's field.
impl Snap for OpPurpose {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            OpPurpose::VictimWriteBack { victim } => w.put(&(0u8, victim)),
            OpPurpose::ReadFill { install } => w.put(&(1u8, install)),
            OpPurpose::ExclusiveFill => w.u8(2),
            OpPurpose::WriteThroughMiss { allocate } => w.put(&(3u8, allocate)),
            OpPurpose::WriteHitBus => w.u8(4),
            OpPurpose::LeaseRenew => w.u8(5),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => OpPurpose::VictimWriteBack { victim: r.get()? },
            1 => OpPurpose::ReadFill { install: r.get()? },
            2 => OpPurpose::ExclusiveFill,
            3 => OpPurpose::WriteThroughMiss { allocate: r.get()? },
            4 => OpPurpose::WriteHitBus,
            5 => OpPurpose::LeaseRenew,
            t => return Err(Error::SnapshotCorrupt(format!("invalid bus purpose tag {t}"))),
        })
    }
}

impl Snap for Status {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Status::WaitBus(purpose) => w.put(&(0u8, purpose)),
            Status::Finishing { at } => w.put(&(1u8, at)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => Status::WaitBus(r.get()?),
            1 => Status::Finishing { at: r.get()? },
            t => return Err(Error::SnapshotCorrupt(format!("invalid pending status tag {t}"))),
        })
    }
}

crate::snap_struct!(Pending {
    req,
    issued,
    value,
    hit,
    bus_ops,
    probe_stalled,
    retries,
    requested,
    wd_attempts,
    status,
});

#[derive(Clone)]
struct PortCtl {
    cache: Cache,
    pending: Option<Pending>,
}

/// The bus- and cache-side fault sites. Memory-side ECC lives inside
/// [`Memory`]; device faults live in the I/O crate. Present only when
/// the configured [`FaultConfig`] enables at least one class.
#[derive(Clone)]
struct BusFaults {
    cfg: FaultConfig,
    arbiter: FaultSite,
    mshared: FaultSite,
    parity: FaultSite,
    /// One tag-parity site per port, so adding a port never perturbs
    /// another port's fault schedule.
    tags: Vec<FaultSite>,
}

impl BusFaults {
    fn new(cfg: FaultConfig, ports: usize) -> Self {
        BusFaults {
            arbiter: FaultSite::new(cfg.seed, site::ARBITER),
            mshared: FaultSite::new(cfg.seed, site::MSHARED),
            parity: FaultSite::new(cfg.seed, site::BUS_PARITY),
            tags: (0..ports).map(|i| FaultSite::new(cfg.seed, site::TAG_BASE + i as u64)).collect(),
            cfg,
        }
    }

    /// The sites' stream positions; the plan comes from the config.
    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.arbiter);
        w.put(&self.mshared);
        w.put(&self.parity);
        w.put(&self.tags);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.arbiter = r.get()?;
        self.mshared = r.get()?;
        self.parity = r.get()?;
        self.tags = sized(r.get()?, self.tags.len(), "tag-site")?;
        Ok(())
    }
}

/// Checks that a decoded per-port (or otherwise machine-sized) table has
/// the length the restoring machine was built with.
fn sized<T>(v: Vec<T>, want: usize, what: &str) -> Result<Vec<T>, Error> {
    if v.len() == want {
        Ok(v)
    } else {
        Err(Error::SnapshotCorrupt(format!(
            "snapshot {what} table has {} entries, the machine has {want}",
            v.len()
        )))
    }
}

/// The surfaced fault errors, as a tag byte and the variant's field.
/// Only the variants the engine emits are representable; a device name
/// maps back onto the known device set.
impl Snap for Error {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Error::BusParity => w.u8(0),
            Error::EccUncorrectable { addr } => w.put(&(1u8, *addr)),
            Error::DeviceTimeout { device } => {
                w.u8(2);
                w.str(device);
            }
            other => {
                debug_assert!(false, "unexpected fault error {other:?}");
                w.u8(0);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => Error::BusParity,
            1 => Error::EccUncorrectable { addr: r.get()? },
            2 => match r.str()? {
                "dma" => Error::DeviceTimeout { device: "dma" },
                "mbus" => Error::DeviceTimeout { device: "mbus" },
                "rqdx3" => Error::DeviceTimeout { device: "rqdx3" },
                "deqna" => Error::DeviceTimeout { device: "deqna" },
                d => return Err(Error::SnapshotCorrupt(format!("unknown device {d:?}"))),
            },
            t => return Err(Error::SnapshotCorrupt(format!("invalid fault-error tag {t}"))),
        })
    }
}

/// The Firefly memory system: caches, MBus, and main memory.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Clone)]
pub struct MemSystem {
    cfg: SystemConfig,
    table: ProtocolTable,
    /// Which table entries this system consulted. Derived diagnostic
    /// state, like `notified`: never snapshotted.
    exercised: ExerciseLog,
    ports: Vec<PortCtl>,
    bus: Bus,
    memory: Memory,
    cycle: u64,
    /// One bit per port, set when the port's access enters its local
    /// completion countdown ([`Status::Finishing`]) or the port goes
    /// offline; drained by [`take_notified`](MemSystem::take_notified).
    /// Derived state: never snapshotted.
    notified: Vec<u64>,
    /// Pending interprocessor-interrupt lines, one per port ("The MBus
    /// also provides facilities for system initialization and
    /// interprocessor interrupts", §5).
    ipi_pending: Vec<bool>,
    ipi_sent: u64,
    /// Bus/cache fault sites (`None` when injection is disabled).
    faults: Option<BusFaults>,
    /// Ports machine-checked out of the configuration (graceful
    /// degradation: an N-CPU system keeps running on N−1).
    offline: Vec<bool>,
    /// Derived: whether any port is offline (none ever comes back).
    /// Never snapshotted — recomputed from `offline` on load.
    has_offline: bool,
    /// Core-side fault counters (ECC counters live in [`Memory`] and are
    /// merged by [`MemSystem::fault_stats`]).
    fstats: FaultStats,
    /// Structured errors surfaced by uncorrectable faults.
    fault_errors: Vec<Error>,
    /// Aborted transactions waiting out their backoff:
    /// `(re-request cycle, initiator)`.
    deferred: Vec<(u64, PortId)>,
    /// Offlined ports whose caches still await their leaving-the-
    /// coherence-domain purge (deferred while a transaction is on the
    /// wires, since its snoopers must stay resident).
    purge_queue: Vec<usize>,
    /// Structured trace events (`None` when tracing is disabled, so the
    /// hot path pays one branch).
    events: Option<EventRing>,
    /// Latency histograms (always on: recording is a few integer ops).
    lat: LatencyStats,
    /// Bus-acquisition watchdog budget in cycles (`None` = disabled).
    watchdog: Option<u64>,
    /// Watchdog trips so far (escalations, not machine-checks).
    wd_trips: u64,
    /// Per-CPU program timestamps (Tardis `pts`; empty-use zeros for the
    /// untimestamped protocols). Monotonically non-decreasing.
    pts: Vec<u64>,
    /// Global per-line timestamp state owned by memory, keyed by raw
    /// line id: `(wts, rts)`. Lines never written nor leased are absent
    /// (implicitly `(0, 0)`), keeping the map as sparse as the memory
    /// image.
    mem_ts: std::collections::BTreeMap<u32, (u64, u64)>,
}

/// Pushes an event into the ring when tracing is enabled. A free
/// function rather than a method so emit points can run while other
/// fields of the system are mutably borrowed.
#[inline]
fn emit_into(events: &mut Option<EventRing>, cycle: u64, kind: EventKind) {
    if let Some(ring) = events {
        ring.emit(Event { cycle, kind });
    }
}

impl MemSystem {
    /// Builds a memory system from a configuration and protocol choice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is
    /// internally inconsistent.
    pub fn new(cfg: SystemConfig, protocol: ProtocolKind) -> Result<Self, Error> {
        Self::with_table(cfg, protocol.table())
    }

    /// Builds a memory system driving `table`, which may differ from
    /// its kind's canonical table.
    ///
    /// This is a verification hook: the model checker's mutation pass
    /// (`firefly-mc`) runs copies of the canonical table with one entry
    /// deliberately corrupted through the *real* engine, so a mutant
    /// that survives proves the checker vacuous, not the engine wrong.
    /// `table.kind` is reported as the
    /// [`protocol_kind`](Self::protocol_kind).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is
    /// internally inconsistent.
    pub fn with_table(cfg: SystemConfig, table: ProtocolTable) -> Result<Self, Error> {
        let ports = (0..cfg.ports())
            .map(|_| PortCtl { cache: Cache::new(cfg.cache()), pending: None })
            .collect();
        let fault_cfg = cfg.faults();
        let mut memory = Memory::with_modules(cfg.memory_bytes(), cfg.variant().module_bytes());
        memory.install_ecc(EccInjector::from_config(&fault_cfg));
        Ok(MemSystem {
            bus: Bus::with_config(cfg.ports(), cfg.arbiter(), cfg.bus_mode()),
            memory,
            table,
            exercised: ExerciseLog::default(),
            ports,
            ipi_pending: vec![false; cfg.ports()],
            ipi_sent: 0,
            faults: if fault_cfg.is_disabled() {
                None
            } else {
                Some(BusFaults::new(fault_cfg, cfg.ports()))
            },
            offline: vec![false; cfg.ports()],
            has_offline: false,
            fstats: FaultStats::default(),
            fault_errors: Vec::new(),
            deferred: Vec::new(),
            purge_queue: Vec::new(),
            events: match cfg.event_trace() {
                0 => None,
                cap => Some(EventRing::new(cap)),
            },
            lat: LatencyStats::default(),
            pts: vec![0; cfg.ports()],
            notified: vec![0; cfg.ports().div_ceil(64)],
            mem_ts: std::collections::BTreeMap::new(),
            cfg,
            cycle: 0,
            watchdog: None,
            wd_trips: 0,
        })
    }

    /// Whether the active protocol carries timestamp state (Tardis).
    #[inline]
    pub fn timestamps_enabled(&self) -> bool {
        self.table.ts.is_some()
    }

    /// The lease length of the active protocol's timestamp rules, if any.
    pub fn ts_lease(&self) -> Option<u64> {
        self.table.ts.map(|ts| ts.lease)
    }

    /// The active protocol's timestamp rules; only called once
    /// [`timestamps_enabled`](Self::timestamps_enabled) holds.
    fn ts_rules(&self) -> TsRules {
        self.table.ts.expect("timestamp rules of a timestamped protocol")
    }

    /// Which protocol-table entries this system has consulted since it
    /// was built.
    pub fn exercised(&self) -> &ExerciseLog {
        &self.exercised
    }

    /// `port`'s program timestamp (Tardis `pts`; 0 for untimestamped
    /// protocols).
    pub fn tardis_pts(&self, port: PortId) -> u64 {
        self.pts[port.index()]
    }

    /// The global `(wts, rts)` timestamp pair memory holds for `line`.
    pub fn tardis_global_ts(&self, line: LineId) -> (u64, u64) {
        self.mem_ts.get(&line.raw()).copied().unwrap_or((0, 0))
    }

    /// The `(wts, rts)` pair of `port`'s cached copy of `line`, if
    /// resident.
    pub fn tardis_line_ts(&self, port: PortId, line: LineId) -> Option<(u64, u64)> {
        self.ports[port.index()].cache.line_ts(line)
    }

    /// Iterates every line the global timestamp map tracks (lines ever
    /// written or leased) with its `(wts, rts)` pair, in line order.
    pub fn tardis_lines(&self) -> impl Iterator<Item = (LineId, (u64, u64))> + '_ {
        self.mem_ts.iter().map(|(&l, &ts)| (LineId::from_raw(l), ts))
    }

    /// The configuration this system was built with.
    #[inline]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The coherence protocol in use.
    pub fn protocol_kind(&self) -> ProtocolKind {
        self.table.kind
    }

    /// Elapsed bus cycles (100 ns each).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Begins an access on `port`.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchPort`] — `port` beyond the configured port count.
    /// * [`Error::PortOffline`] — the port has been machine-checked out
    ///   of the configuration by [`offline_cpu`](MemSystem::offline_cpu).
    /// * [`Error::PortBusy`] — the port has an unfinished or unpolled
    ///   access.
    /// * [`Error::AddressOutOfRange`] — the address is beyond installed
    ///   memory.
    pub fn begin(&mut self, port: PortId, req: Request) -> Result<(), Error> {
        if port.index() >= self.ports.len() {
            return Err(Error::NoSuchPort(port));
        }
        if self.offline[port.index()] {
            return Err(Error::PortOffline(port));
        }
        self.memory.check(req.addr)?;
        if self.ports[port.index()].pending.is_some() {
            return Err(Error::PortBusy(port));
        }

        // Cache tag-parity fault: a flipped tag bit makes a resident line
        // unrecognizable, so the controller invalidates it and the next
        // access refetches. Only clean lines are eligible — a dirty line's
        // sole copy cannot be dropped, and the clean-only restriction is
        // what keeps this fault class value-safe.
        if let Some(f) = &mut self.faults {
            if req.kind == AccessKind::Cpu && f.tags[port.index()].fires(f.cfg.tag_flip_ppm) {
                let clean: Vec<(LineId, LineState)> = self.ports[port.index()]
                    .cache
                    .iter_resident()
                    .filter(|(_, s, _)| !s.is_owner())
                    .map(|(l, s, _)| (l, s))
                    .collect();
                if !clean.is_empty() {
                    let (victim, vstate) = clean[f.tags[port.index()].pick(clean.len())];
                    self.ports[port.index()].cache.evict(victim);
                    self.fstats.tag_flips += 1;
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::FaultInjected { class: FaultClass::TagFlip },
                    );
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::Transition {
                            port,
                            line: victim,
                            from: vstate,
                            to: LineState::Invalid,
                        },
                    );
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::FaultRecovered { class: FaultClass::TagFlip },
                    );
                }
            }
        }

        // Classify for the counters (Table 2 categories).
        let line = self.line_of(req.addr);
        let was_hit = self.ports[port.index()].cache.state_of(line).is_valid();
        {
            let stats = self.ports[port.index()].cache.stats_mut();
            match (req.kind, req.op) {
                (AccessKind::Cpu, ProcOp::Read) => stats.cpu_reads += 1,
                (AccessKind::Cpu, ProcOp::Write) => stats.cpu_writes += 1,
                (AccessKind::Dma, ProcOp::Read) => stats.dma_reads += 1,
                (AccessKind::Dma, ProcOp::Write) => stats.dma_writes += 1,
            }
            if req.kind == AccessKind::Cpu {
                match (req.op, was_hit) {
                    (ProcOp::Read, true) => stats.read_hits += 1,
                    (ProcOp::Read, false) => stats.read_misses += 1,
                    (ProcOp::Write, true) => stats.write_hits += 1,
                    (ProcOp::Write, false) => stats.write_misses += 1,
                }
            }
        }

        self.ports[port.index()].pending = Some(Pending {
            req,
            issued: self.cycle,
            value: req.value,
            hit: was_hit,
            bus_ops: 0,
            probe_stalled: false,
            retries: 0,
            requested: self.cycle,
            wd_attempts: 0,
            status: Status::Finishing { at: u64::MAX }, // placeholder
        });
        self.try_progress(port.index());
        Ok(())
    }

    /// Retrieves the result of a completed access on `port`, if its
    /// completion time has been reached.
    pub fn poll(&mut self, port: PortId) -> Option<AccessResult> {
        let ctl = &mut self.ports[port.index()];
        if let Some(p) = &ctl.pending {
            if let Status::Finishing { at } = p.status {
                if self.cycle >= at {
                    let p = ctl.pending.take().expect("checked above");
                    // Latency distributions for the metrics layer: miss
                    // penalty over all misses, service time for DMA.
                    let latency = at - p.issued;
                    if !p.hit {
                        self.lat.miss_penalty.record(latency);
                    }
                    if p.req.kind == AccessKind::Dma {
                        self.lat.dma_service.record(latency);
                    }
                    return Some(AccessResult {
                        value: p.value,
                        hit: p.hit,
                        bus_ops: p.bus_ops,
                        probe_stalled: p.probe_stalled,
                        issued_cycle: p.issued,
                        completed_cycle: at,
                    });
                }
            }
        }
        None
    }

    /// Advances the system by one 100 ns bus cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.bus.count_cycle();
        // An idle cycle has nothing below to do: no retry to mature, no
        // requester to arbitrate (so no arbiter fault draw), nothing on
        // the wires, no purge, and no port waiting on the bus to reap or
        // to time out.
        if self.is_idle() {
            return;
        }

        // Aborted transactions whose backoff has elapsed re-raise their
        // bus request lines and compete in this cycle's arbitration.
        if !self.deferred.is_empty() {
            let cycle = self.cycle;
            let mut i = 0;
            while i < self.deferred.len() {
                if self.deferred[i].0 <= cycle {
                    let (_, port) = self.deferred.swap_remove(i);
                    self.bus.request(port, cycle);
                } else {
                    i += 1;
                }
            }
        }

        // Arbitration: the bus grants the policy's winner and the winning
        // transaction's first (address) cycle is this cycle. An injected
        // arbiter glitch withholds every grant for one cycle.
        if self.bus.can_grant() && !self.arbitration_stalled() {
            while let Some(port) = self.bus.arbitrate(self.cycle) {
                match self.build_grant(port.index()) {
                    Some((op, line, payload)) => {
                        // Split-mode hazard gate: a younger transaction
                        // must not address a cache index any in-flight
                        // transaction touches — the older transaction's
                        // completion (fills, victims, snooper changes)
                        // stays confined to its own index, keeping the
                        // younger probe's result valid until commit. The
                        // older transaction drains within four cycles, so
                        // head-of-line blocking here cannot deadlock.
                        // (Unified mode grants only on an empty bus, so
                        // this loop body never runs there.)
                        let geo = self.cfg.cache();
                        if self
                            .bus
                            .slots()
                            .iter()
                            .any(|t| geo.index_of(t.line) == geo.index_of(line))
                        {
                            break;
                        }
                        let waited = self.ports[port.index()]
                            .pending
                            .as_ref()
                            .map_or(0, |p| self.cycle.saturating_sub(p.requested));
                        self.lat.bus_wait.record(waited);
                        self.bus.begin(port, op, line, payload, self.cycle);
                        emit_into(
                            &mut self.events,
                            self.cycle,
                            EventKind::BusIssued { initiator: port, op, line },
                        );
                        break;
                    }
                    None => {
                        // Re-planning found no bus need after all (state
                        // changed while waiting); the access completed
                        // locally. Try the next requester.
                        self.bus.cancel_request(port);
                    }
                }
            }
        }

        if self.bus.is_busy() {
            // Per-slot phase processing, oldest transaction first. In
            // unified mode exactly one slot is occupied and this matches
            // the historical single-transaction sequence cycle for cycle.
            for slot in 0..self.bus.in_flight() {
                // Which cycle of this transaction is executing now?
                let phase = self.bus.slots()[slot].cycles_done + 1;
                if phase == 2 {
                    self.snoop_probe(slot);
                } else if phase == 3 {
                    let mut mshared =
                        self.bus.slots()[slot].snoop.iter().any(|(_, r)| r.assert_shared);
                    if let Some(f) = &mut self.faults {
                        if mshared && f.mshared.fires(f.cfg.mshared_drop_ppm) {
                            // The wired-OR lost an assertion. The asserting
                            // cache detects the mismatch and the transaction
                            // aborts in cycle 4: a stale-*false* Shared bit
                            // must never reach a protocol decision (checker
                            // invariant 5 only tolerates stale-*true*).
                            self.fstats.mshared_drops += 1;
                            self.bus.slot_mut(slot).fault = true;
                            emit_into(
                                &mut self.events,
                                self.cycle,
                                EventKind::FaultInjected { class: FaultClass::MSharedDrop },
                            );
                        } else if !mshared && f.mshared.fires(f.cfg.mshared_spurious_ppm) {
                            // A spurious assertion is honored conservatively:
                            // treating an unshared line as shared is always
                            // safe, merely slower.
                            self.fstats.mshared_spurious += 1;
                            mshared = true;
                            emit_into(
                                &mut self.events,
                                self.cycle,
                                EventKind::FaultInjected { class: FaultClass::MSharedSpurious },
                            );
                        }
                    }
                    self.bus.set_mshared_slot(slot, mshared);
                    if mshared {
                        let line = self.bus.slots()[slot].line;
                        emit_into(
                            &mut self.events,
                            self.cycle,
                            EventKind::MSharedAsserted { line },
                        );
                    }
                }
            }
            if let Some(txn) = self.bus.tick() {
                let mut aborted = txn.fault;
                if let Some(f) = &mut self.faults {
                    let has_data = txn.op.carries_data() || txn.op.returns_data();
                    if has_data && f.parity.fires(f.cfg.bus_parity_ppm) {
                        // "The MBus and the memory are protected by
                        // parity" (§2): a data-cycle parity error is
                        // detected before any state commits, so the
                        // transaction aborts and retries.
                        self.fstats.parity_errors += 1;
                        aborted = true;
                        emit_into(
                            &mut self.events,
                            self.cycle,
                            EventKind::FaultInjected { class: FaultClass::BusParity },
                        );
                    }
                }
                if aborted {
                    self.retry_transaction(txn);
                } else {
                    self.complete_transaction(txn);
                }
            }
        }

        if self.has_offline {
            if !self.purge_queue.is_empty() && !self.bus.is_busy() {
                while let Some(i) = self.purge_queue.pop() {
                    self.purge_cache(i);
                }
            }
            self.reap_offline();
        }

        if self.watchdog.is_some() {
            self.check_watchdog();
        }
    }

    /// Whether a [`step`](MemSystem::step) right now would do nothing but
    /// advance the cycle counters — no transaction on the wires, no bus
    /// request lines raised, no deferred retry maturing, no pending
    /// coherence-domain purge, and so no port waiting on the bus.
    ///
    /// Four flag tests, no scan. A port waiting on the bus always has a
    /// raised request line, a transaction of its own in flight or a
    /// deferred retry — every transition keeps that so, and
    /// [`restore`](MemSystem::restore) refuses an image that breaks it —
    /// so the bus and retry terms cover the waiting ports. Debug builds
    /// check that implication on every call.
    ///
    /// This is the event-driven engine's skip predicate: while it holds,
    /// any number of steps can be replaced by one
    /// [`advance_idle`](MemSystem::advance_idle) with bit-identical
    /// state. Note that ports may still be counting down a *local*
    /// completion (the `Finishing` countdown); those have a known completion
    /// cycle ([`completion_cycle`](MemSystem::completion_cycle)) and cap
    /// how far the driver may jump.
    #[inline]
    pub fn is_idle(&self) -> bool {
        let idle = !self.bus.is_busy()
            && !self.bus.has_requests()
            && self.deferred.is_empty()
            && self.purge_queue.is_empty();
        debug_assert!(
            !idle
                || self.ports.iter().all(|c| !matches!(
                    c.pending,
                    Some(Pending { status: Status::WaitBus(_), .. })
                )),
            "a port waits on the bus with no request, transaction or retry"
        );
        idle
    }

    /// Takes one port from the set of ports whose access entered its
    /// local completion countdown, or that went offline, since the set
    /// was last drained; `None` when the set is empty.
    ///
    /// The event-driven engine drains the set after every
    /// [`step`](MemSystem::step), so a processor waiting on the bus
    /// sleeps until its completion cycle is known instead of polling.
    /// Ports nobody drains stay in the set: it holds at most one entry
    /// per port.
    #[inline]
    pub fn take_notified(&mut self) -> Option<PortId> {
        for (w, word) in self.notified.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(PortId::new(w * 64 + bit));
            }
        }
        None
    }

    /// Whether `port` holds an access that has not been polled yet,
    /// waiting on the bus or counting down its completion.
    #[inline]
    pub fn has_access(&self, port: PortId) -> bool {
        self.ports[port.index()].pending.is_some()
    }

    /// The cycle at which `port`'s pending access completes locally, if
    /// it is in the `Finishing` countdown. `None` while the
    /// access is still waiting on the bus (its completion cycle is not
    /// yet known) or when nothing is pending.
    #[inline]
    pub fn completion_cycle(&self, port: PortId) -> Option<u64> {
        match &self.ports[port.index()].pending {
            Some(Pending { status: Status::Finishing { at }, .. }) => Some(*at),
            _ => None,
        }
    }

    /// Advances an idle system by `n` cycles in one jump: exactly the
    /// state change of `n` consecutive [`step`](MemSystem::step) calls
    /// while [`is_idle`](MemSystem::is_idle) holds — the cycle counter
    /// and the bus's total-cycle counter move, nothing else. An idle
    /// `step` returns after those same two counters, so the event engine
    /// folds a quiet cycle's step and the idle span after it into one
    /// call.
    ///
    /// No watchdog deadline can be jumped past: deadlines only exist for
    /// ports waiting on the bus, and an idle system has none (debug
    /// builds check this inside `is_idle`).
    ///
    /// # Panics
    ///
    /// Panics if the jump would overflow the cycle counter. Debug builds
    /// additionally assert the system is idle.
    #[inline]
    pub fn advance_idle(&mut self, n: u64) {
        debug_assert!(self.is_idle(), "advance_idle on a non-idle system");
        self.cycle = self.cycle.checked_add(n).expect("cycle counter overflow");
        self.bus.add_idle_cycles(n);
    }

    /// Arms (or disarms, with `None`) the bus-acquisition watchdog: a
    /// port left waiting for the MBus longer than `budget` cycles trips
    /// the watchdog. Each trip doubles the budget for that access
    /// (bounded exponential backoff); after three escalations the port
    /// is machine-checked off the bus with
    /// [`Error::DeviceTimeout`] — the machine degrades to N−1 rather
    /// than hanging on a wedged arbiter.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// Watchdog escalations so far (trips that re-armed with a doubled
    /// budget, not counting the final machine-check).
    pub fn watchdog_trips(&self) -> u64 {
        self.wd_trips
    }

    /// Scans for ports starved of the bus past the watchdog budget.
    ///
    /// Every in-flight transaction's initiator is exempt — it *has* the
    /// bus; the watchdog exists for requesters that never win
    /// arbitration (fixed priority guarantees starvation is possible
    /// whenever a higher port monopolizes the bus).
    ///
    /// Escalation is policy-aware: under a fair arbitration policy the
    /// worst-case grant delay is bounded ([`ArbiterKind::grant_bound`]),
    /// so that bound floors the patience — an aggressively small budget
    /// can no longer mistake a fair policy's ordinary queueing delay for
    /// a wedged arbiter and spuriously machine-check a healthy port.
    /// Fixed-priority and I/O-favoring give no bound (starvation is real
    /// there) and keep the configured budget unchanged.
    ///
    /// [`ArbiterKind::grant_bound`]: crate::arbiter::ArbiterKind::grant_bound
    fn check_watchdog(&mut self) {
        let budget = self.watchdog.expect("checked by caller");
        let budget = match self.bus.grant_bound() {
            Some(bound) => budget.max(bound),
            None => budget,
        };
        let in_flight: Vec<usize> = self.bus.slots().iter().map(|t| t.initiator.index()).collect();
        let mut expired: Vec<PortId> = Vec::new();
        for (i, ctl) in self.ports.iter_mut().enumerate() {
            if in_flight.contains(&i) || self.offline[i] {
                continue;
            }
            let Some(p) = &mut ctl.pending else { continue };
            if !matches!(p.status, Status::WaitBus(_)) {
                continue;
            }
            let patience = budget << p.wd_attempts.min(6);
            if self.cycle.saturating_sub(p.requested) < patience {
                continue;
            }
            if p.wd_attempts < 3 {
                p.wd_attempts += 1;
                p.requested = self.cycle;
                self.wd_trips += 1;
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::FaultInjected { class: FaultClass::Watchdog },
                );
            } else {
                expired.push(PortId::new(i));
            }
        }
        for port in expired {
            self.fault_errors.push(Error::DeviceTimeout { device: "mbus" });
            let _ = self.offline_cpu(port);
        }
    }

    /// Draws the arbiter fault site; a firing stalls every grant for the
    /// current cycle. Only cycles with an actual requester draw, so a
    /// zero rate leaves the schedule untouched.
    fn arbitration_stalled(&mut self) -> bool {
        if !self.bus.has_requests() {
            return false;
        }
        if let Some(f) = &mut self.faults {
            if f.arbiter.fires(f.cfg.arb_stall_ppm) {
                self.fstats.arb_stalls += 1;
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::FaultInjected { class: FaultClass::ArbStall },
                );
                return true;
            }
        }
        false
    }

    /// Completes a transaction that survived the fault checks, then
    /// drains any uncorrectable ECC events its data transfer tripped:
    /// they are logged as structured errors and — for a processor
    /// access — machine-check the initiating CPU off the bus.
    fn complete_transaction(&mut self, txn: Transaction) {
        let initiator = txn.initiator;
        let was_cpu = self.ports[initiator.index()]
            .pending
            .as_ref()
            .is_some_and(|p| p.req.kind == AccessKind::Cpu);
        // The memory-side ECC counters are cumulative; the delta across
        // finish_transaction attributes corrected events to this
        // transaction for the trace. Only sampled when tracing is on.
        let corrected_before = if self.events.is_some() { self.memory.ecc_corrected() } else { 0 };
        self.finish_transaction(txn);
        if self.events.is_some() {
            let corrected = self.memory.ecc_corrected().saturating_sub(corrected_before);
            for _ in 0..corrected {
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::FaultInjected { class: FaultClass::EccCorrected },
                );
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::FaultRecovered { class: FaultClass::EccCorrected },
                );
            }
        }
        let errs = self.memory.drain_ecc_errors();
        if !errs.is_empty() {
            for _ in &errs {
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::FaultInjected { class: FaultClass::EccUncorrectable },
                );
            }
            self.fault_errors.extend(errs);
            if was_cpu {
                let _ = self.offline_cpu(initiator);
            }
        }
    }

    /// Aborts a faulted transaction: no state has committed (all state
    /// updates happen in cycle 4, after the parity and `MShared` checks),
    /// so the initiator simply re-requests the bus after a bounded
    /// exponential backoff. Past [`MAX_BUS_RETRIES`] the hard error is
    /// logged and the data is let through — the machine must degrade,
    /// never hang.
    fn retry_transaction(&mut self, mut txn: Transaction) {
        let port = txn.initiator;
        let retries = {
            let p = self.ports[port.index()]
                .pending
                .as_mut()
                .expect("faulted transaction has a pending access");
            p.retries += 1;
            p.retries
        };
        if retries > MAX_BUS_RETRIES {
            self.fault_errors.push(Error::BusParity);
            // Let the data through with the snoop responses dropped —
            // the aborted probe's answers are not trustworthy.
            txn.snoop.clear();
            self.complete_transaction(txn);
            return;
        }
        self.fstats.bus_retries += 1;
        emit_into(
            &mut self.events,
            self.cycle,
            EventKind::FaultRecovered { class: FaultClass::BusRetry },
        );
        let backoff = 1u64 << retries.min(6);
        self.deferred.push((self.cycle + backoff, port));
    }

    /// Drops bus-waiting work owned by offlined ports. A transaction
    /// already on the wires is left to complete (the bus owns it); its
    /// delivered-but-never-polled result is harmless.
    fn reap_offline(&mut self) {
        for i in 0..self.ports.len() {
            if !self.offline[i] || self.ports[i].pending.is_none() {
                continue;
            }
            if self.bus.slots().iter().any(|t| t.initiator.index() == i) {
                continue;
            }
            if matches!(self.ports[i].pending, Some(Pending { status: Status::WaitBus(_), .. })) {
                self.bus.cancel_request(PortId::new(i));
                self.ports[i].pending = None;
                self.deferred.retain(|&(_, p)| p.index() != i);
            }
        }
    }

    /// Runs a single access to completion, stepping the whole system
    /// (other ports' outstanding accesses progress too).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`begin`](MemSystem::begin); returns
    /// [`Error::DeviceTimeout`] if the access fails to complete within a
    /// generous bound (a wedged bus, or a simulator bug).
    pub fn run_to_completion(&mut self, port: PortId, req: Request) -> Result<AccessResult, Error> {
        self.begin(port, req)?;
        for _ in 0..1_000_000 {
            if let Some(r) = self.poll(port) {
                return Ok(r);
            }
            self.step();
        }
        Err(Error::DeviceTimeout { device: "mbus" })
    }

    /// Whether no bus transaction is in flight and no port is waiting on
    /// one (accesses may still be counting down local completion time).
    pub fn is_quiescent(&self) -> bool {
        !self.bus.is_busy()
            && self
                .ports
                .iter()
                .all(|c| !matches!(c.pending, Some(Pending { status: Status::WaitBus(_), .. })))
    }

    // ---- introspection --------------------------------------------------

    /// Per-port cache statistics.
    pub fn cache_stats(&self, port: PortId) -> &CacheStats {
        self.ports[port.index()].cache.stats()
    }

    /// Bus statistics.
    pub fn bus_stats(&self) -> &BusStats {
        self.bus.stats()
    }

    /// Whether structured event tracing is enabled
    /// (see [`SystemConfig::with_event_trace`]).
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// The structured trace events captured so far, oldest first (empty
    /// when tracing is disabled). The ring is left intact.
    pub fn events(&self) -> Vec<Event> {
        self.events.as_ref().map(EventRing::snapshot).unwrap_or_default()
    }

    /// Drains the structured trace events, oldest first.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.as_mut().map(EventRing::take).unwrap_or_default()
    }

    /// Events discarded because the trace ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, EventRing::dropped)
    }

    /// Records an externally generated event (scheduler, devices) with
    /// the current bus cycle. A no-op when tracing is disabled.
    pub fn emit_event(&mut self, kind: EventKind) {
        emit_into(&mut self.events, self.cycle, kind);
    }

    /// The latency histograms: miss penalty, bus-acquisition wait, and
    /// DMA service time, in bus cycles.
    pub fn latency_stats(&self) -> &LatencyStats {
        &self.lat
    }

    /// The state of `line` in `port`'s cache.
    pub fn peek_state(&self, port: PortId, line: LineId) -> LineState {
        self.ports[port.index()].cache.state_of(line)
    }

    /// The data of `line` in `port`'s cache, if resident.
    pub fn peek_line(&self, port: PortId, line: LineId) -> Option<LineData> {
        self.ports[port.index()].cache.line_data(line)
    }

    /// The current memory word at `addr` (no statistics side effects).
    pub fn peek_memory_word(&self, addr: Addr) -> u32 {
        self.memory.peek_word(addr)
    }

    /// Per-module word traffic `(reads, writes)` — module 0 is the
    /// master ("one master four-megabyte module, and up to three slave
    /// modules", §5).
    pub fn module_traffic(&self) -> Vec<(u64, u64)> {
        (0..self.memory.modules()).map(|i| self.memory.module_traffic(i)).collect()
    }

    /// Iterates over the resident lines of `port`'s cache.
    pub fn resident_lines(&self, port: PortId) -> Vec<(LineId, LineState, LineData)> {
        self.ports[port.index()].cache.iter_resident().collect()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Takes `port` out of the configuration (processor machine-check).
    /// The remaining processors keep running: an N-CPU Firefly degrades
    /// to N−1 instead of halting. Idempotent; any bus-waiting access on
    /// the port is dropped, and further [`begin`](MemSystem::begin)
    /// calls return [`Error::PortOffline`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchPort`] if `port` does not exist.
    pub fn offline_cpu(&mut self, port: PortId) -> Result<(), Error> {
        if port.index() >= self.ports.len() {
            return Err(Error::NoSuchPort(port));
        }
        if !self.offline[port.index()] {
            self.offline[port.index()] = true;
            self.has_offline = true;
            self.fstats.cpus_offlined += 1;
            self.notify(port.index());
            emit_into(&mut self.events, self.cycle, EventKind::CpuOffline { port });
            // The port leaves the coherence domain: written-back owners
            // keep their data reachable, everything else is dropped (in
            // particular any line poisoned by the fault that killed it).
            // A transaction on the wires may still name this cache as a
            // snooper, so the purge waits for the bus to go idle.
            if self.bus.is_busy() {
                self.purge_queue.push(port.index());
            } else {
                self.purge_cache(port.index());
            }
        }
        self.reap_offline();
        Ok(())
    }

    /// Writes back `port`'s owned lines and invalidates its cache.
    fn purge_cache(&mut self, port: usize) {
        let dirty: Vec<(LineId, LineData)> = self.ports[port]
            .cache
            .iter_resident()
            .filter(|(_, s, _)| s.is_owner())
            .map(|(l, _, d)| (l, d))
            .collect();
        for (line, data) in dirty {
            self.memory.write_line(line, &data);
        }
        self.ports[port].cache.clear();
    }

    /// Whether `port` exists and has not been offlined.
    #[inline]
    pub fn is_online(&self, port: PortId) -> bool {
        port.index() < self.offline.len() && !self.offline[port.index()]
    }

    /// Ports still in the configuration.
    pub fn online_count(&self) -> usize {
        self.offline.iter().filter(|&&off| !off).count()
    }

    /// Fault-injection and recovery counters, with the memory-side ECC
    /// counters merged in.
    pub fn fault_stats(&self) -> FaultStats {
        let mut f = self.fstats;
        f.ecc_corrected = self.memory.ecc_corrected();
        f.ecc_uncorrected = self.memory.ecc_uncorrected();
        f.scrubs = self.memory.ecc_scrubs();
        f
    }

    /// Structured errors surfaced by uncorrectable faults (double-bit
    /// ECC, exhausted retry budgets) in arrival order.
    pub fn fault_errors(&self) -> &[Error] {
        &self.fault_errors
    }

    /// Takes the accumulated fault errors.
    pub fn drain_fault_errors(&mut self) -> Vec<Error> {
        std::mem::take(&mut self.fault_errors)
    }

    /// Posts an interprocessor interrupt to `target` (the MBus carries
    /// dedicated interrupt lines beside the transaction wires). This is
    /// how any processor pokes the I/O processor to start a network
    /// transfer (§3, footnote 2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchPort`] if `target` does not exist.
    pub fn post_interrupt(&mut self, target: PortId) -> Result<(), Error> {
        if target.index() >= self.ipi_pending.len() {
            return Err(Error::NoSuchPort(target));
        }
        self.ipi_pending[target.index()] = true;
        self.ipi_sent += 1;
        Ok(())
    }

    /// Reads and clears `port`'s pending interprocessor interrupt.
    pub fn take_interrupt(&mut self, port: PortId) -> bool {
        std::mem::take(&mut self.ipi_pending[port.index()])
    }

    /// Whether `port` has an interprocessor interrupt waiting to be taken.
    pub fn has_interrupt(&self, port: PortId) -> bool {
        self.ipi_pending[port.index()]
    }

    /// Interprocessor interrupts posted so far.
    pub fn interrupts_sent(&self) -> u64 {
        self.ipi_sent
    }

    /// Invalidates every cache (cold-start studies). The system must be
    /// quiescent.
    ///
    /// # Panics
    ///
    /// Panics if called while a bus transaction or bus-waiting access is
    /// in flight.
    pub fn flush_caches(&mut self) {
        assert!(self.is_quiescent(), "flush_caches requires a quiescent system");
        // Dirty data must survive the flush: write owners back first.
        for i in 0..self.ports.len() {
            let dirty: Vec<(LineId, LineData)> = self.ports[i]
                .cache
                .iter_resident()
                .filter(|(_, s, _)| s.is_owner())
                .map(|(l, _, d)| (l, d))
                .collect();
            for (line, data) in dirty {
                self.memory.write_line(line, &data);
            }
            self.ports[i].cache.clear();
        }
    }

    // ---- checkpoint / restore -------------------------------------------

    /// Serializes the complete machine state into a versioned snapshot.
    ///
    /// The snapshot captures everything that affects future behaviour:
    /// every cache's tags, states and data; the bus arbiter, in-flight
    /// transaction and statistics; the memory image and ECC injector
    /// stream; every fault site's RNG position; all statistics and
    /// latency histograms; and the watchdog state. A system restored
    /// with [`MemSystem::restore`] and stepped forward is bit-identical
    /// — same stats, same event trace, same memory image — to the
    /// uninterrupted run.
    ///
    /// Snapshots are canonical: saving, restoring and saving again
    /// yields byte-identical output.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        self.save_sections(&mut b);
        b.finish()
    }

    /// Writes [`save_snapshot`](MemSystem::save_snapshot)'s sections into
    /// `b`, which may be a machine image's [`SnapshotBuilder::image`].
    pub fn save_sections(&self, b: &mut SnapshotBuilder) {
        b.section("config", |w| w.put(&self.cfg));
        b.section("system", |w| {
            w.put(&(self.table.kind, self.cycle));
            w.put(&self.ipi_pending);
            w.put(&self.ipi_sent);
            w.put(&self.offline);
            w.put(&self.fstats);
            w.put(&self.fault_errors);
            w.put(&self.deferred);
            w.put(&self.purge_queue);
            w.put(&self.lat);
            // The budget word is written even when the watchdog is off.
            w.put(&(self.watchdog.is_some(), self.watchdog.unwrap_or(0)));
            w.put(&self.wd_trips);
            w.put(&self.pts);
            w.put(&self.mem_ts);
        });
        b.section("ports", |w| {
            for ctl in &self.ports {
                ctl.cache.save(w);
                w.put(&ctl.pending);
            }
        });
        b.section("bus", |w| self.bus.save(w));
        b.section("memory", |w| self.memory.save(w));
        b.section("faults", |w| {
            w.bool(self.faults.is_some());
            if let Some(f) = &self.faults {
                f.save_state(w);
            }
        });
        b.section("events", |w| {
            w.bool(self.events.is_some());
            if let Some(ring) = &self.events {
                ring.save(w);
            }
        });
    }

    /// Reconstructs a memory system from a
    /// [`save_snapshot`](MemSystem::save_snapshot) image.
    ///
    /// # Errors
    ///
    /// * [`Error::SnapshotVersion`] — the image was written by an
    ///   incompatible codec version.
    /// * [`Error::SnapshotCorrupt`] — the image fails its checksum or
    ///   contains out-of-range state.
    /// * [`Error::InvalidConfig`] — the embedded configuration is
    ///   inconsistent (should be unreachable for genuine snapshots).
    pub fn restore(bytes: &[u8]) -> Result<Self, Error> {
        Self::restore_file(&SnapshotFile::parse(bytes)?)
    }

    /// Reconstructs a memory system from an already-parsed
    /// [`save_snapshot`](MemSystem::save_snapshot) image, such as one
    /// nested in a machine checkpoint and reached with
    /// [`SnapshotFile::nested`].
    ///
    /// # Errors
    ///
    /// As [`restore`](MemSystem::restore), less the container checks
    /// that parsing made.
    pub fn restore_file(file: &SnapshotFile<'_>) -> Result<Self, Error> {
        let mut r = file.section("config")?;
        let cfg: SystemConfig = r.get()?;
        r.expect_end()?;
        let ports = cfg.ports();
        // Each cache slot takes 21 + 4·line_words bytes of the "ports"
        // section (state byte, tag, data, two timestamps): refuse a
        // geometry the image cannot hold before allocating the caches it
        // describes.
        let slot_bytes = 21 + 4 * cfg.cache().line_words();
        let slots = ports.saturating_mul(cfg.cache().lines());
        if slots.saturating_mul(slot_bytes) > file.section("ports")?.remaining() {
            return Err(Error::SnapshotCorrupt(format!(
                "{slots} cache slots do not fit the ports section"
            )));
        }

        let mut r = file.section("system")?;
        let (kind, cycle) = r.get()?;
        let mut sys = MemSystem::new(cfg, kind)?;
        sys.cycle = cycle;
        sys.ipi_pending = sized(r.get()?, ports, "ipi")?;
        sys.ipi_sent = r.get()?;
        sys.offline = sized(r.get()?, ports, "offline")?;
        sys.has_offline = sys.offline.contains(&true);
        sys.fstats = r.get()?;
        sys.fault_errors = r.get()?;
        sys.deferred = r.get()?;
        sys.purge_queue = r.get()?;
        sys.lat = r.get()?;
        let (has_wd, budget): (bool, u64) = r.get()?;
        sys.watchdog = has_wd.then_some(budget);
        sys.wd_trips = r.get()?;
        sys.pts = sized(r.get()?, ports, "program-timestamp")?;
        sys.mem_ts = r.get()?;
        if let Some((line, (wts, rts))) = sys.mem_ts.iter().find(|(_, (w, r))| w > r) {
            return Err(Error::SnapshotCorrupt(format!(
                "line {line} global timestamps out of order ({wts} > {rts})"
            )));
        }
        r.expect_end()?;

        let mut r = file.section("ports")?;
        for ctl in &mut sys.ports {
            ctl.cache.load_state(&mut r)?;
            ctl.pending = r.get()?;
        }
        r.expect_end()?;

        let mut r = file.section("bus")?;
        sys.bus.load_state(&mut r)?;
        r.expect_end()?;
        // Each in-flight transaction completes into its initiator's
        // access, which waits on the bus until then.
        let waits = |i: usize| {
            matches!(sys.ports[i].pending, Some(Pending { status: Status::WaitBus(_), .. }))
        };
        if let Some(t) = sys.bus.slots().iter().find(|t| !waits(t.initiator.index())) {
            return Err(Error::SnapshotCorrupt(format!(
                "in-flight transaction from {} has no access waiting on it",
                t.initiator
            )));
        }
        // Conversely, an access waiting on the bus is served by a raised
        // request line, a transaction of its own in flight or a deferred
        // retry; with none of them it would wait forever.
        let served = |i: usize| {
            sys.bus.is_requesting(i)
                || sys.bus.slots().iter().any(|t| t.initiator.index() == i)
                || sys.deferred.iter().any(|&(_, p)| p.index() == i)
        };
        if let Some(i) = (0..ports).find(|&i| waits(i) && !served(i)) {
            return Err(Error::SnapshotCorrupt(format!(
                "port {i} waits on the bus with no request, transaction or retry"
            )));
        }

        let mut r = file.section("memory")?;
        sys.memory.load_state(&mut r)?;
        r.expect_end()?;

        let mut r = file.section("faults")?;
        if r.get::<bool>()? != sys.faults.is_some() {
            return Err(Error::SnapshotCorrupt(
                "snapshot fault-plan presence does not match the configuration".to_string(),
            ));
        }
        if let Some(f) = &mut sys.faults {
            f.load_state(&mut r)?;
        }
        r.expect_end()?;

        let mut r = file.section("events")?;
        if r.get::<bool>()? != sys.events.is_some() {
            return Err(Error::SnapshotCorrupt(
                "snapshot event-trace presence does not match the configuration".to_string(),
            ));
        }
        if let Some(ring) = &mut sys.events {
            ring.load_state(&mut r)?;
        }
        r.expect_end()?;

        Ok(sys)
    }

    // ---- controller internals -------------------------------------------

    fn line_of(&self, addr: Addr) -> LineId {
        LineId::containing(addr, self.cfg.cache().line_words())
    }

    fn word_offset(&self, addr: Addr) -> usize {
        self.line_of(addr).word_offset(addr, self.cfg.cache().line_words())
    }

    /// Marks the access on `port` complete, deliverable no earlier than
    /// the no-wait-state hit time and `extra` cycles from now.
    fn finish(&mut self, port: usize, extra: u64) {
        let hit_cycles = self.cfg.variant().hit_cycles();
        let p = self.ports[port].pending.as_mut().expect("finish without pending");
        let at = (p.issued + hit_cycles).max(self.cycle + extra);
        p.status = Status::Finishing { at };
        self.notify(port);
    }

    /// Looks up (and records) what a write hit in `state` requires.
    fn write_hit(&mut self, state: LineState) -> WriteHitEffect {
        self.exercised.write_hit[state as usize] = true;
        self.table.write_hit_effect(state)
    }

    fn notify(&mut self, port: usize) {
        self.notified[port / 64] |= 1 << (port % 64);
    }

    /// Orders a write by `port` into the timestamp history of `line`:
    /// bumps the global pair to `(t, t)` and, for CPU writes, advances
    /// the writer's program timestamp to `t`. DMA has no program order;
    /// its writes simply serialize after every outstanding lease.
    fn ts_write(&mut self, port: usize, line: LineId, kind: AccessKind) -> u64 {
        let write_order = self.ts_rules().write_order;
        let g = self.mem_ts.entry(line.raw()).or_insert((0, 0));
        let t = match kind {
            AccessKind::Cpu => {
                self.exercised.ts_write = true;
                write_order(self.pts[port], g.1)
            }
            AccessKind::Dma => g.0.max(g.1).saturating_add(1),
        };
        *g = (t, t);
        if kind == AccessKind::Cpu {
            self.pts[port] = t;
        }
        t
    }

    /// Grants (or extends) a read lease on `line` to `port`, advances
    /// the port's program timestamp past the line's write timestamp,
    /// and returns the granted global `(wts, rts)` pair.
    fn ts_read_grant(&mut self, port: usize, line: LineId) -> (u64, u64) {
        let ts = self.ts_rules();
        let pts = self.pts[port];
        let g = self.mem_ts.entry(line.raw()).or_insert((0, 0));
        g.1 = (ts.grant)(ts.lease, pts, g.1);
        let (wts, rts) = *g;
        self.pts[port] = (ts.read_advance)(pts, wts);
        (wts, rts)
    }

    /// Applies any local effects possible for `port`'s pending access and
    /// returns the next bus purpose, or `None` if the access completed.
    fn plan_local(&mut self, port: usize) -> Option<OpPurpose> {
        let req = self.ports[port].pending.as_ref().expect("plan without pending").req;
        let line = self.line_of(req.addr);
        let state = self.ports[port].cache.state_of(line);
        let lw = self.cfg.cache().line_words();

        match req.op {
            ProcOp::Read => {
                if state.is_valid() {
                    if req.kind == AccessKind::Cpu && self.timestamps_enabled() {
                        let ts = self.ts_rules();
                        let (wts, rts) =
                            self.ports[port].cache.line_ts(line).expect("valid line has ts");
                        if !(ts.can_serve)(self.pts[port], rts) {
                            // Lease expired relative to this CPU's program
                            // timestamp: renew on the bus before serving.
                            self.exercised.ts_expired = true;
                            return Some(OpPurpose::LeaseRenew);
                        }
                        self.pts[port] = (ts.read_advance)(self.pts[port], wts);
                    }
                    let v = self.ports[port].cache.read_word(req.addr).expect("valid line");
                    self.ports[port].pending.as_mut().expect("pending").value = v;
                    self.finish(port, 0);
                    None
                } else if req.kind == AccessKind::Dma {
                    // DMA misses do not allocate: plain bus read.
                    Some(OpPurpose::ReadFill { install: false })
                } else {
                    self.victim_or(port, line, OpPurpose::ReadFill { install: true })
                }
            }
            ProcOp::Write => {
                if state.is_valid() {
                    match self.write_hit(state) {
                        WriteHitEffect::Silent(next) => {
                            self.ports[port].cache.write_word(req.addr, req.value);
                            self.ports[port].cache.set_state(line, next);
                            if self.timestamps_enabled() {
                                let t = self.ts_write(port, line, req.kind);
                                self.ports[port].cache.set_line_ts(line, t, t);
                            }
                            if next != state {
                                emit_into(
                                    &mut self.events,
                                    self.cycle,
                                    EventKind::Transition {
                                        port: PortId::new(port),
                                        line,
                                        from: state,
                                        to: next,
                                    },
                                );
                            }
                            self.finish(port, 0);
                            None
                        }
                        WriteHitEffect::Bus(_) => Some(OpPurpose::WriteHitBus),
                    }
                } else if req.kind == AccessKind::Dma {
                    // DMA write miss: write through, never allocate.
                    Some(OpPurpose::WriteThroughMiss { allocate: false })
                } else {
                    match self.table.write_miss {
                        WriteMissPolicy::WriteThrough { allocate } if lw == 1 => {
                            if allocate {
                                self.victim_or(
                                    port,
                                    line,
                                    OpPurpose::WriteThroughMiss { allocate: true },
                                )
                            } else {
                                Some(OpPurpose::WriteThroughMiss { allocate: false })
                            }
                        }
                        // A partial-line write cannot use the write-through
                        // optimization: fall back to fill-then-write.
                        WriteMissPolicy::WriteThrough { .. } | WriteMissPolicy::FillThenWrite => {
                            self.victim_or(port, line, OpPurpose::ReadFill { install: true })
                        }
                        WriteMissPolicy::FillExclusive => {
                            self.victim_or(port, line, OpPurpose::ExclusiveFill)
                        }
                    }
                }
            }
        }
    }

    /// If installing `line` would displace a dirty owner, schedule the
    /// victim write-back first; otherwise proceed with `then`.
    fn victim_or(&self, port: usize, line: LineId, then: OpPurpose) -> Option<OpPurpose> {
        match self.ports[port].cache.victim_of(line) {
            Some((victim, vstate)) if vstate.is_owner() => {
                Some(OpPurpose::VictimWriteBack { victim })
            }
            _ => Some(then),
        }
    }

    /// Plans the pending access and either finishes it locally or raises
    /// the bus request line.
    fn try_progress(&mut self, port: usize) {
        if let Some(purpose) = self.plan_local(port) {
            let cycle = self.cycle;
            let p = self.ports[port].pending.as_mut().expect("pending");
            p.status = Status::WaitBus(purpose);
            p.requested = cycle;
            self.bus.request(PortId::new(port), cycle);
        }
    }

    /// Called at grant time: re-plans (the cache state may have changed
    /// while waiting) and constructs the transaction, or returns `None`
    /// if the access no longer needs the bus.
    fn build_grant(&mut self, port: usize) -> Option<(BusOp, LineId, Payload)> {
        let purpose = self.plan_local(port)?;
        self.ports[port].pending.as_mut().expect("pending").status = Status::WaitBus(purpose);

        let req = self.ports[port].pending.as_ref().expect("pending").req;
        let line = self.line_of(req.addr);
        let lw = self.cfg.cache().line_words();
        Some(match purpose {
            OpPurpose::VictimWriteBack { victim } => {
                let data = self.ports[port].cache.line_data(victim).expect("victim is resident");
                (BusOp::WriteBack, victim, Payload::Line(data))
            }
            OpPurpose::ReadFill { .. } => (BusOp::Read, line, Payload::None),
            OpPurpose::ExclusiveFill => (BusOp::ReadOwned, line, Payload::None),
            OpPurpose::WriteThroughMiss { .. } => {
                let payload = if lw == 1 {
                    Payload::Line(LineData::from_word(req.value))
                } else {
                    Payload::Word { offset: self.word_offset(req.addr) as u8, value: req.value }
                };
                (BusOp::Write, line, payload)
            }
            OpPurpose::WriteHitBus => {
                let state = self.ports[port].cache.state_of(line);
                let op = match self.write_hit(state) {
                    WriteHitEffect::Bus(op) => op,
                    WriteHitEffect::Silent(_) => unreachable!("plan_local handles silent hits"),
                };
                let payload = match op {
                    BusOp::Invalidate => Payload::None,
                    _ => {
                        Payload::Word { offset: self.word_offset(req.addr) as u8, value: req.value }
                    }
                };
                (op, line, payload)
            }
            OpPurpose::LeaseRenew => (BusOp::Renew, line, Payload::None),
        })
    }

    /// Cycle 2 of the transaction in `slot`: all other caches probe
    /// their tag stores and prepare their snoop responses; concurrent
    /// local accesses are delayed one tick.
    fn snoop_probe(&mut self, slot: usize) {
        // Only the header fields matter to the probe; copying them out
        // avoids cloning the whole transaction (payload included) on
        // every snooped cycle.
        let txn = &self.bus.slots()[slot];
        let (initiator, line, op) = (txn.initiator, txn.line, txn.op);
        let mut snoop = Vec::new();
        let tick = self.cfg.variant().cycles_per_tick();
        for i in 0..self.ports.len() {
            if i == initiator.index() {
                continue;
            }
            let state = self.ports[i].cache.state_of(line);
            if state.is_valid() {
                self.exercised.snoop[state as usize][op as usize] = true;
                snoop.push((i, self.table.snoop[state as usize][op as usize]));
            }
            // Tag-store interference (the paper's SP term): a hit in
            // flight on this port at the probe cycle loses one tick.
            let cycle = self.cycle;
            if let Some(p) = &mut self.ports[i].pending {
                if let Status::Finishing { at } = &mut p.status {
                    if *at > cycle && p.hit && !p.probe_stalled {
                        *at += tick;
                        p.probe_stalled = true;
                        self.ports[i].cache.stats_mut().probe_stalls += 1;
                    }
                }
            }
        }
        self.bus.slot_mut(slot).snoop = snoop;
    }

    /// Cycle 4: data transfer and all state updates.
    fn finish_transaction(&mut self, txn: Transaction) {
        let line = txn.line;
        let lw = self.cfg.cache().line_words();

        // Dirty snooped copies flush to memory first (Firefly, Illinois).
        for &(p, resp) in &txn.snoop {
            if resp.flush_to_memory {
                let data = self.ports[p].cache.line_data(line).expect("flusher is resident");
                self.memory.write_line(line, &data);
            }
        }

        // Read data: cache-to-cache supply inhibits memory.
        let supplier = txn.snoop.iter().find(|(_, r)| r.supply).map(|&(p, _)| p);
        let (read_data, source) = if txn.op.returns_data() {
            match supplier {
                Some(p) => {
                    let d = self.ports[p].cache.line_data(line).expect("supplier is resident");
                    (Some(d), DataSource::Cache(PortId::new(p)))
                }
                None => (Some(self.memory.read_line(line, lw)), DataSource::Memory),
            }
        } else {
            (None, DataSource::NotApplicable)
        };
        self.bus.record_completion(source);
        // Stamped with the start cycle so exporters render the full
        // four-cycle Figure 4 span.
        emit_into(
            &mut self.events,
            txn.start,
            EventKind::BusCompleted {
                initiator: txn.initiator,
                op: txn.op,
                line,
                mshared: txn.mshared,
                source,
            },
        );

        // Memory effects of the payload.
        if txn.op.updates_memory() {
            match txn.payload {
                Payload::Word { offset, value } => {
                    self.memory.write_word(line.base_addr(lw).add_words(offset.into()), value);
                }
                Payload::Line(d) => self.memory.write_line(line, &d),
                Payload::None => debug_assert!(false, "{} without payload", txn.op),
            }
        }

        // Snooper state changes and absorbs.
        let invalidating = matches!(txn.op, BusOp::ReadOwned | BusOp::Invalidate | BusOp::Write);
        for i in 0..txn.snoop.len() {
            let (p, resp) = txn.snoop[i];
            let ctl = &mut self.ports[p];
            if resp.absorb {
                match txn.payload {
                    Payload::Word { offset, value } => {
                        ctl.cache.absorb_word(line, offset.into(), value);
                    }
                    Payload::Line(d) => ctl.cache.absorb_line(line, &d),
                    Payload::None => {}
                }
                ctl.cache.stats_mut().updates_absorbed += 1;
            }
            if resp.supply {
                ctl.cache.stats_mut().supplies += 1;
            }
            let before = ctl.cache.state_of(line);
            if before.is_valid() {
                if resp.next == LineState::Invalid {
                    ctl.cache.evict(line);
                    if invalidating {
                        ctl.cache.stats_mut().invalidations_taken += 1;
                    }
                } else {
                    ctl.cache.set_state(line, resp.next);
                }
                if resp.next != before {
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::Transition {
                            port: PortId::new(p),
                            line,
                            from: before,
                            to: resp.next,
                        },
                    );
                }
            }
        }

        // Initiator effects.
        self.on_bus_complete(txn, read_data);
    }

    fn on_bus_complete(&mut self, txn: Transaction, data: Option<LineData>) {
        let port = txn.initiator.index();
        let miss_extra = self.cfg.variant().miss_extra_cycles();
        let (purpose, req) = {
            let p = self.ports[port].pending.as_mut().expect("initiator has pending");
            p.bus_ops += 1;
            let purpose = match p.status {
                Status::WaitBus(purpose) => purpose,
                Status::Finishing { .. } => unreachable!("bus completion for finished access"),
            };
            (purpose, p.req)
        };
        let line = self.line_of(req.addr);
        let offset = self.word_offset(req.addr);

        match purpose {
            OpPurpose::VictimWriteBack { victim } => {
                let cache = &mut self.ports[port].cache;
                cache.stats_mut().victim_writes += 1;
                let vstate = cache.state_of(victim);
                cache.evict(victim);
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::Transition {
                        port: txn.initiator,
                        line: victim,
                        from: vstate,
                        to: LineState::Invalid,
                    },
                );
                // The slot is free: plan the fill.
                self.try_progress(port);
            }
            OpPurpose::ReadFill { install } => {
                self.ports[port].cache.stats_mut().bus_reads += 1;
                let d = data.expect("read returns data");
                if install {
                    let shared = usize::from(txn.mshared);
                    self.exercised.read_fill_shared[shared] = true;
                    let state = self.table.read_fill[shared];
                    self.ports[port].cache.fill(line, d, state);
                    if self.timestamps_enabled() && req.kind == AccessKind::Cpu {
                        let (gwts, grts) = self.ts_read_grant(port, line);
                        self.exercised.ts_fill_unequal |= gwts != grts;
                        let (wts, rts) = (self.ts_rules().fill)(gwts, grts);
                        self.ports[port].cache.set_line_ts(line, wts, rts);
                    }
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::Transition {
                            port: txn.initiator,
                            line,
                            from: LineState::Invalid,
                            to: state,
                        },
                    );
                }
                if req.op == ProcOp::Read {
                    self.ports[port].pending.as_mut().expect("pending").value = d.get(offset);
                    self.finish(port, miss_extra);
                } else {
                    // Fill-then-write: the line is now resident; the write
                    // proceeds as a hit (possibly needing another bus op).
                    self.try_progress(port);
                }
            }
            OpPurpose::ExclusiveFill => {
                self.ports[port].cache.stats_mut().bus_read_owned += 1;
                let mut d = data.expect("read-owned returns data");
                d.set(offset, req.value);
                let state = self.table.exclusive_fill;
                self.ports[port].cache.fill(line, d, state);
                if self.timestamps_enabled() {
                    let t = self.ts_write(port, line, req.kind);
                    self.ports[port].cache.set_line_ts(line, t, t);
                }
                emit_into(
                    &mut self.events,
                    self.cycle,
                    EventKind::Transition {
                        port: txn.initiator,
                        line,
                        from: LineState::Invalid,
                        to: state,
                    },
                );
                self.finish(port, miss_extra);
            }
            OpPurpose::WriteThroughMiss { allocate } => {
                {
                    let stats = self.ports[port].cache.stats_mut();
                    if txn.mshared {
                        stats.wt_shared += 1;
                    } else {
                        stats.wt_unshared += 1;
                    }
                }
                if self.timestamps_enabled() {
                    // Under Tardis only DMA writes take this path (CPU
                    // write misses fill exclusively); the write still
                    // serializes after every outstanding lease.
                    self.ts_write(port, line, req.kind);
                }
                if allocate {
                    debug_assert_eq!(self.cfg.cache().line_words(), 1);
                    let state = self.table.write_through_fill[usize::from(txn.mshared)];
                    self.ports[port].cache.fill(line, LineData::from_word(req.value), state);
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::Transition {
                            port: txn.initiator,
                            line,
                            from: LineState::Invalid,
                            to: state,
                        },
                    );
                }
                self.finish(port, miss_extra);
            }
            OpPurpose::WriteHitBus => {
                let prev = self.ports[port].cache.state_of(line);
                debug_assert!(prev.is_valid(), "write-hit line vanished mid-transaction");
                self.ports[port].cache.write_word(req.addr, req.value);
                if self.timestamps_enabled() {
                    let t = self.ts_write(port, line, req.kind);
                    self.ports[port].cache.set_line_ts(line, t, t);
                }
                let shared = usize::from(txn.mshared);
                self.exercised.after_write[prev as usize][shared] = true;
                let next = self.table.after_write[prev as usize][shared];
                self.ports[port].cache.set_state(line, next);
                if next != prev {
                    emit_into(
                        &mut self.events,
                        self.cycle,
                        EventKind::Transition { port: txn.initiator, line, from: prev, to: next },
                    );
                }
                let stats = self.ports[port].cache.stats_mut();
                match txn.op {
                    BusOp::Write => {
                        if txn.mshared {
                            stats.wt_shared += 1;
                        } else {
                            stats.wt_unshared += 1;
                        }
                    }
                    BusOp::Update => stats.updates_sent += 1,
                    BusOp::Invalidate => stats.invalidates_sent += 1,
                    _ => debug_assert!(false, "unexpected write-hit op {}", txn.op),
                }
                self.finish(port, 0);
            }
            OpPurpose::LeaseRenew => {
                debug_assert!(
                    self.ports[port].cache.state_of(line).is_valid(),
                    "renewed line vanished mid-transaction"
                );
                self.ports[port].cache.stats_mut().renewals_sent += 1;
                let (gwts, grts) = self.ts_read_grant(port, line);
                self.ports[port].cache.set_line_ts(line, gwts, grts);
                let v = self.ports[port].cache.read_word(req.addr).expect("renewed line");
                self.ports[port].pending.as_mut().expect("pending").value = v;
                self.finish(port, 0);
            }
        }
    }
}

impl fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemSystem")
            .field("config", &self.cfg)
            .field("protocol", &self.table.kind)
            .field("cycle", &self.cycle)
            .field("bus", &self.bus.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{ArbiterKind, BusMode};

    fn sys(ports: usize, kind: ProtocolKind) -> MemSystem {
        MemSystem::new(SystemConfig::microvax(ports), kind).expect("valid config")
    }

    #[test]
    fn read_of_uninitialized_memory_is_zero() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let r = s.run_to_completion(PortId::new(0), Request::read(Addr::new(0x100))).unwrap();
        assert_eq!(r.value, 0);
        assert!(!r.hit);
        assert_eq!(r.bus_ops, 1);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let a = Addr::new(0x200);
        s.run_to_completion(PortId::new(0), Request::write(a, 1234)).unwrap();
        let r = s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        assert_eq!(r.value, 1234);
        assert!(r.hit, "second access hits");
    }

    #[test]
    fn hit_latency_is_no_wait_state_access() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let a = Addr::new(0x300);
        s.run_to_completion(PortId::new(0), Request::write(a, 1)).unwrap();
        let r = s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        // MicroVAX: 400 ns = 4 bus cycles, no wait states.
        assert_eq!(r.latency_cycles(), 4);
    }

    #[test]
    fn miss_latency_adds_one_tick_beyond_bus_op() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let r = s.run_to_completion(PortId::new(0), Request::read(Addr::new(0x400))).unwrap();
        // Arbitration + 4-cycle MRead + 1 tick (2 cycles) miss penalty.
        // The transaction starts on the step after begin, so latency is
        // 1 (grant) + 3 (rest of op) + 2 (penalty) counted from issue.
        assert_eq!(r.latency_cycles(), 6);
    }

    #[test]
    fn firefly_write_miss_uses_single_mwrite() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let r = s.run_to_completion(PortId::new(0), Request::write(Addr::new(0x500), 7)).unwrap();
        assert_eq!(r.bus_ops, 1);
        assert_eq!(s.bus_stats().writes, 1, "one MWrite, no MRead");
        assert_eq!(s.bus_stats().reads, 0);
        // Line installed clean-exclusive; memory updated.
        let line = LineId::containing(Addr::new(0x500), 1);
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::CleanExclusive);
        assert_eq!(s.peek_memory_word(Addr::new(0x500)), 7);
    }

    #[test]
    fn sharing_detected_via_mshared() {
        let mut s = sys(2, ProtocolKind::Firefly);
        let a = Addr::new(0x600);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::CleanExclusive);
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        // Both become shared; port 0 supplied the data.
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::SharedClean);
        assert_eq!(s.peek_state(PortId::new(1), line), LineState::SharedClean);
        assert_eq!(s.cache_stats(PortId::new(0)).supplies, 1);
        assert_eq!(s.bus_stats().cache_supplied, 1);
    }

    #[test]
    fn firefly_shared_write_updates_other_caches_and_memory() {
        let mut s = sys(3, ProtocolKind::Firefly);
        let a = Addr::new(0x700);
        let line = LineId::containing(a, 1);
        for p in 0..3 {
            s.run_to_completion(PortId::new(p), Request::read(a)).unwrap();
        }
        s.run_to_completion(PortId::new(0), Request::write(a, 55)).unwrap();
        // All copies updated in place, memory updated, everyone shared.
        for p in 0..3 {
            assert_eq!(s.peek_line(PortId::new(p), line).unwrap().get(0), 55, "port {p}");
            assert_eq!(s.peek_state(PortId::new(p), line), LineState::SharedClean);
        }
        assert_eq!(s.peek_memory_word(a), 55);
        assert_eq!(s.cache_stats(PortId::new(0)).wt_shared, 1);
    }

    #[test]
    fn last_sharer_write_reverts_to_write_back() {
        let mut s = sys(2, ProtocolKind::Firefly);
        let a = Addr::new(0x800);
        let line = LineId::containing(a, 1);
        // Make the line shared in both caches.
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        // Displace port 1's copy by reading a conflicting line.
        let conflict = Addr::from_word_index(a.word_index() + 4096);
        s.run_to_completion(PortId::new(1), Request::read(conflict)).unwrap();
        assert_eq!(s.peek_state(PortId::new(1), line), LineState::Invalid);
        // Port 0 still believes the line is shared: one final write-through.
        s.run_to_completion(PortId::new(0), Request::write(a, 9)).unwrap();
        assert_eq!(s.cache_stats(PortId::new(0)).wt_unshared, 1);
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::CleanExclusive);
        // The next write is silent (write-back mode).
        let before = s.bus_stats().ops();
        s.run_to_completion(PortId::new(0), Request::write(a, 10)).unwrap();
        assert_eq!(s.bus_stats().ops(), before, "no bus traffic for exclusive write hit");
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::DirtyExclusive);
    }

    #[test]
    fn dirty_line_supplied_to_reader_and_flushed() {
        let mut s = sys(2, ProtocolKind::Firefly);
        let a = Addr::new(0x900);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(0), Request::write(a, 77)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 78)).unwrap(); // now dirty
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::DirtyExclusive);
        let r = s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        assert_eq!(r.value, 78, "reader gets the dirty data cache-to-cache");
        assert_eq!(s.peek_memory_word(a), 78, "memory flushed during the supply");
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::SharedClean);
        assert_eq!(s.peek_state(PortId::new(1), line), LineState::SharedClean);
    }

    #[test]
    fn victim_write_back_preserves_dirty_data() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let a = Addr::new(0xa00);
        s.run_to_completion(PortId::new(0), Request::write(a, 5)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 6)).unwrap(); // dirty
                                                                            // Conflict: same index, different tag (16 KB cache, 4096 lines).
        let conflict = Addr::from_word_index(a.word_index() + 4096);
        let r = s.run_to_completion(PortId::new(0), Request::read(conflict)).unwrap();
        assert_eq!(r.bus_ops, 2, "victim write + fill read");
        assert_eq!(s.cache_stats(PortId::new(0)).victim_writes, 1);
        assert_eq!(s.peek_memory_word(a), 6, "dirty victim reached memory");
        // And the data is recoverable.
        let r = s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        assert_eq!(r.value, 6);
    }

    #[test]
    fn clean_victim_is_dropped_silently() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let a = Addr::new(0xb00);
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap(); // clean
        let conflict = Addr::from_word_index(a.word_index() + 4096);
        let r = s.run_to_completion(PortId::new(0), Request::read(conflict)).unwrap();
        assert_eq!(r.bus_ops, 1, "no victim write for a clean line");
        assert_eq!(s.cache_stats(PortId::new(0)).victim_writes, 0);
    }

    #[test]
    fn illinois_invalidates_sharers_on_write() {
        let mut s = sys(2, ProtocolKind::Illinois);
        let a = Addr::new(0xc00);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 3)).unwrap();
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::DirtyExclusive);
        assert_eq!(s.peek_state(PortId::new(1), line), LineState::Invalid);
        assert_eq!(s.cache_stats(PortId::new(1)).invalidations_taken, 1);
        // The reader re-fetches and gets the new value via supply+flush.
        let r = s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        assert_eq!(r.value, 3);
        assert_eq!(s.peek_memory_word(a), 3);
    }

    #[test]
    fn berkeley_dirty_sharing_leaves_memory_stale() {
        let mut s = sys(2, ProtocolKind::Berkeley);
        let a = Addr::new(0xd00);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(0), Request::write(a, 42)).unwrap();
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::DirtyExclusive);
        let r = s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        assert_eq!(r.value, 42, "owner supplies cache-to-cache");
        assert_eq!(
            s.peek_state(PortId::new(0), line),
            LineState::SharedDirty,
            "owner keeps ownership"
        );
        assert_eq!(s.peek_memory_word(a), 0, "Berkeley does not update memory on supply");
    }

    #[test]
    fn dragon_update_reaches_sharers_not_memory() {
        let mut s = sys(2, ProtocolKind::Dragon);
        let a = Addr::new(0xe00);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 9)).unwrap();
        assert_eq!(s.peek_line(PortId::new(1), line).unwrap().get(0), 9, "sharer updated");
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::SharedDirty, "writer owns");
        assert_eq!(s.peek_memory_word(a), 0, "memory left stale");
        assert_eq!(s.cache_stats(PortId::new(0)).updates_sent, 1);
    }

    #[test]
    fn write_through_protocol_cycles_bus_on_every_write() {
        let mut s = sys(1, ProtocolKind::WriteThrough);
        let a = Addr::new(0xf00);
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        for i in 0..5 {
            s.run_to_completion(PortId::new(0), Request::write(a, i)).unwrap();
        }
        assert_eq!(s.bus_stats().writes, 5);
    }

    #[test]
    fn dma_read_does_not_allocate() {
        let mut s = sys(2, ProtocolKind::Firefly);
        let a = Addr::new(0x1100);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(1), Request::write(a, 31)).unwrap();
        let r = s.run_to_completion(PortId::new(0), Request::dma_read(a)).unwrap();
        assert_eq!(r.value, 31);
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::Invalid, "no allocation");
        assert_eq!(s.cache_stats(PortId::new(0)).dma_reads, 1);
    }

    #[test]
    fn dma_write_updates_sharers_without_allocating() {
        let mut s = sys(3, ProtocolKind::Firefly);
        let a = Addr::new(0x1200);
        let line = LineId::containing(a, 1);
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(2), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(0), Request::dma_write(a, 88)).unwrap();
        assert_eq!(s.peek_state(PortId::new(0), line), LineState::Invalid, "no allocation");
        assert_eq!(s.peek_memory_word(a), 88);
        for p in [1, 2] {
            assert_eq!(s.peek_line(PortId::new(p), line).unwrap().get(0), 88, "port {p} absorbed");
        }
    }

    #[test]
    fn fixed_priority_orders_contending_ports() {
        let mut s = sys(3, ProtocolKind::Firefly);
        // Three simultaneous read misses to distinct lines.
        for p in 0..3 {
            s.begin(PortId::new(p), Request::read(Addr::new(0x2000 + 0x100 * p as u32))).unwrap();
        }
        let mut done: Vec<(usize, u64)> = Vec::new();
        for _ in 0..100 {
            s.step();
            for p in 0..3 {
                if let Some(r) = s.poll(PortId::new(p)) {
                    done.push((p, r.completed_cycle));
                }
            }
            if done.len() == 3 {
                break;
            }
        }
        assert_eq!(done.len(), 3);
        done.sort_by_key(|&(_, c)| c);
        assert_eq!(done[0].0, 0, "port 0 has highest priority");
        assert_eq!(done[1].0, 1);
        assert_eq!(done[2].0, 2);
    }

    #[test]
    fn port_busy_and_bad_port_errors() {
        let mut s = sys(1, ProtocolKind::Firefly);
        s.begin(PortId::new(0), Request::read(Addr::new(0))).unwrap();
        assert_eq!(
            s.begin(PortId::new(0), Request::read(Addr::new(4))),
            Err(Error::PortBusy(PortId::new(0)))
        );
        assert_eq!(
            s.begin(PortId::new(1), Request::read(Addr::new(4))),
            Err(Error::NoSuchPort(PortId::new(1)))
        );
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let too_far = Addr::new(16 << 20);
        assert!(matches!(
            s.begin(PortId::new(0), Request::read(too_far)),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn bus_load_accounts_busy_cycles() {
        let mut s = sys(1, ProtocolKind::Firefly);
        // One miss: 4 busy cycles out of however many elapsed.
        s.run_to_completion(PortId::new(0), Request::read(Addr::new(0x42_00))).unwrap();
        assert_eq!(s.bus_stats().busy_cycles, 4);
        assert!(s.bus_stats().total_cycles >= 4);
    }

    #[test]
    fn probe_stall_delays_concurrent_hit() {
        let mut s = sys(2, ProtocolKind::Firefly);
        let hot = Addr::new(0x3000);
        s.run_to_completion(PortId::new(1), Request::read(hot)).unwrap();
        // Port 0 misses (owns the bus); port 1 then issues a hit that
        // collides with the probe cycle.
        s.begin(PortId::new(0), Request::read(Addr::new(0x4000))).unwrap();
        s.step(); // arbitration + address cycle
        s.begin(PortId::new(1), Request::read(hot)).unwrap();
        s.step(); // probe cycle: port 1's hit is stalled
        let mut r1 = None;
        for _ in 0..20 {
            s.step();
            if r1.is_none() {
                r1 = s.poll(PortId::new(1));
            }
        }
        let r1 = r1.expect("hit completes");
        assert!(r1.probe_stalled);
        assert_eq!(r1.latency_cycles(), 4 + 2, "one extra tick (2 cycles)");
        assert_eq!(s.cache_stats(PortId::new(1)).probe_stalls, 1);
    }

    #[test]
    fn flush_caches_preserves_dirty_data() {
        let mut s = sys(1, ProtocolKind::Firefly);
        let a = Addr::new(0x5000);
        s.run_to_completion(PortId::new(0), Request::write(a, 1)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 2)).unwrap(); // dirty
        s.flush_caches();
        assert_eq!(s.peek_memory_word(a), 2);
        let r = s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        assert!(!r.hit, "cold after flush");
        assert_eq!(r.value, 2);
    }

    #[test]
    fn interprocessor_interrupts_deliver_once() {
        let mut s = sys(3, ProtocolKind::Firefly);
        assert!(!s.take_interrupt(PortId::new(0)));
        s.post_interrupt(PortId::new(0)).unwrap();
        s.post_interrupt(PortId::new(2)).unwrap();
        assert!(s.take_interrupt(PortId::new(0)), "delivered");
        assert!(!s.take_interrupt(PortId::new(0)), "cleared on take");
        assert!(!s.take_interrupt(PortId::new(1)), "not broadcast");
        assert!(s.take_interrupt(PortId::new(2)));
        assert_eq!(s.interrupts_sent(), 2);
        assert_eq!(s.post_interrupt(PortId::new(9)), Err(Error::NoSuchPort(PortId::new(9))));
    }

    #[test]
    fn multiword_lines_fill_whole_line() {
        let cfg = SystemConfig::microvax(1).with_cache(crate::CacheGeometry::new(1024, 4).unwrap());
        let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
        let base = Addr::new(0x6000);
        // Write one word (partial-line write miss -> fill-then-write).
        let r = s.run_to_completion(PortId::new(0), Request::write(base.add_words(1), 11)).unwrap();
        assert_eq!(r.bus_ops, 1, "fill; write is then a silent hit");
        // Neighbouring words now hit.
        let r = s.run_to_completion(PortId::new(0), Request::read(base)).unwrap();
        assert!(r.hit, "spatial locality with multi-word lines");
        let r = s.run_to_completion(PortId::new(0), Request::read(base.add_words(1))).unwrap();
        assert_eq!(r.value, 11);
    }

    // ---- fault injection and graceful degradation -----------------------

    #[test]
    fn zero_rate_fault_plan_is_bit_identical_to_none() {
        // Installing an all-zero plan (even with a nonzero seed) must not
        // perturb a single cycle or counter.
        let drive = |cfg: SystemConfig| {
            let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
            for i in 0..50u32 {
                let a = Addr::from_word_index(i % 12);
                s.run_to_completion(PortId::new((i % 2) as usize), Request::write(a, i)).unwrap();
                s.run_to_completion(PortId::new(((i + 1) % 2) as usize), Request::read(a)).unwrap();
            }
            (s.cycle(), *s.bus_stats(), *s.cache_stats(PortId::new(0)))
        };
        let plain = drive(SystemConfig::microvax(2));
        let zeroed = drive(
            SystemConfig::microvax(2)
                .with_faults(FaultConfig { seed: 0xdead, ..FaultConfig::default() }),
        );
        assert_eq!(plain, zeroed);
    }

    #[test]
    fn correctable_faults_preserve_values() {
        let cfg = SystemConfig::microvax(2).with_faults(FaultConfig::correctable(0xfa01, 20_000));
        let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
        for i in 0..200u32 {
            let a = Addr::from_word_index(i % 24);
            s.run_to_completion(PortId::new((i % 2) as usize), Request::write(a, i)).unwrap();
            let r =
                s.run_to_completion(PortId::new(((i + 1) % 2) as usize), Request::read(a)).unwrap();
            assert_eq!(r.value, i, "correctable faults never corrupt a value");
        }
        let f = s.fault_stats();
        assert!(f.total_injected() > 0, "2% per site over 400 accesses must fire: {f:?}");
        assert_eq!(f.ecc_uncorrected, 0);
        assert_eq!(f.cpus_offlined, 0);
        assert!(s.fault_errors().is_empty(), "no hard errors under a correctable-only plan");
        assert_eq!(s.online_count(), 2);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = |seed: u64| {
            let cfg = SystemConfig::microvax(3).with_faults(FaultConfig::correctable(seed, 50_000));
            let mut s = MemSystem::new(cfg, ProtocolKind::Dragon).unwrap();
            for i in 0..300u32 {
                let a = Addr::from_word_index((i * 7) % 48);
                let req = if i % 3 == 0 { Request::write(a, i) } else { Request::read(a) };
                s.run_to_completion(PortId::new((i % 3) as usize), req).unwrap();
            }
            (s.fault_stats(), s.cycle())
        };
        assert_eq!(run(11), run(11), "same seed, same schedule, same counters");
        assert_ne!(run(11), run(12), "different seeds diverge");
    }

    #[test]
    fn uncorrectable_ecc_surfaces_error_and_offlines_cpu() {
        let faults =
            FaultConfig { seed: 3, ecc_double_ppm: crate::fault::PPM, ..FaultConfig::default() };
        let cfg = SystemConfig::microvax(2).with_faults(faults);
        let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
        // Every memory read suffers a double-bit error: the first CPU miss
        // machine-checks the initiator. No panic anywhere.
        let r = s.run_to_completion(PortId::new(0), Request::read(Addr::new(0x40)));
        assert!(r.is_ok(), "the access itself completes; the error is out of band");
        assert!(
            s.fault_errors().iter().any(|e| matches!(e, Error::EccUncorrectable { .. })),
            "uncorrectable fault surfaced as a structured error"
        );
        assert!(!s.is_online(PortId::new(0)), "initiator machine-checked");
        assert_eq!(s.online_count(), 1, "system degrades to N-1 instead of halting");
        assert_eq!(s.fault_stats().cpus_offlined, 1);
        assert!(!s.drain_fault_errors().is_empty());
        assert!(s.fault_errors().is_empty(), "drain empties the log");
    }

    #[test]
    fn offline_cpu_degrades_and_rejects_new_work() {
        let mut s = sys(3, ProtocolKind::Firefly);
        let a = Addr::new(0x10);
        s.run_to_completion(PortId::new(1), Request::write(a, 1)).unwrap();
        s.offline_cpu(PortId::new(1)).unwrap();
        s.offline_cpu(PortId::new(1)).unwrap(); // idempotent
        assert!(!s.is_online(PortId::new(1)));
        assert_eq!(s.online_count(), 2);
        assert_eq!(s.fault_stats().cpus_offlined, 1, "idempotent offlining counts once");
        assert_eq!(
            s.begin(PortId::new(1), Request::read(a)),
            Err(Error::PortOffline(PortId::new(1)))
        );
        assert_eq!(s.offline_cpu(PortId::new(9)), Err(Error::NoSuchPort(PortId::new(9))));
        // The survivors keep running and still see port 1's last write.
        let r = s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        assert_eq!(r.value, 1);
    }

    #[test]
    fn offline_mid_wait_drops_the_queued_request() {
        let mut s = sys(2, ProtocolKind::Firefly);
        // Port 0 owns the bus with a miss; port 1 queues a miss behind it.
        s.begin(PortId::new(0), Request::read(Addr::new(0x100))).unwrap();
        s.step();
        s.begin(PortId::new(1), Request::read(Addr::new(0x200))).unwrap();
        s.offline_cpu(PortId::new(1)).unwrap();
        let mut r0 = None;
        for _ in 0..20 {
            s.step();
            if r0.is_none() {
                r0 = s.poll(PortId::new(1));
            }
            if r0.is_none() {
                r0 = s.poll(PortId::new(0)).inspect(|r| {
                    assert_eq!(r.value, 0);
                });
            }
        }
        assert!(r0.is_some(), "the survivor's access completes");
        assert!(s.is_quiescent(), "the dead port's queued miss was dropped, not leaked");
        assert!(s.poll(PortId::new(1)).is_none());
    }

    /// A busy 3-port system with faults and tracing enabled: the richest
    /// state a snapshot has to carry.
    fn busy_sys(kind: ProtocolKind) -> MemSystem {
        busy_sys_on(kind, ArbiterKind::FixedPriority, BusMode::Unified)
    }

    /// [`busy_sys`] under an explicit arbiter and bus mode.
    fn busy_sys_on(kind: ProtocolKind, arbiter: ArbiterKind, mode: BusMode) -> MemSystem {
        let cfg = SystemConfig::microvax(3)
            .with_event_trace(64)
            .with_faults(FaultConfig::correctable(7, 20_000))
            .with_arbiter(arbiter)
            .with_bus_mode(mode);
        let mut s = MemSystem::new(cfg, kind).expect("valid config");
        for round in 0..40u32 {
            for p in 0..3usize {
                let addr = Addr::from_word_index((round * 7 + p as u32 * 3) % 32);
                let req = if (round + p as u32).is_multiple_of(3) {
                    Request::write(addr, round * 100 + p as u32)
                } else {
                    Request::read(addr)
                };
                let _ = s.run_to_completion(PortId::new(p), req);
            }
        }
        // Leave accesses mid-flight so Pending/bus/snoop state is live.
        s.begin(PortId::new(0), Request::read(Addr::from_word_index(40))).unwrap();
        s.step();
        s.begin(PortId::new(1), Request::write(Addr::from_word_index(41), 9)).unwrap();
        s.step();
        // Split mode: step on until the second transaction is granted.
        while s.bus.in_flight() < mode.max_in_flight() && s.bus.in_flight() > 0 {
            s.step();
        }
        s
    }

    #[test]
    fn snapshot_save_restore_save_is_byte_identical() {
        for kind in ProtocolKind::ALL {
            let s = busy_sys(kind);
            let bytes = s.save_snapshot();
            let restored = MemSystem::restore(&bytes).expect("restore");
            assert_eq!(restored.save_snapshot(), bytes, "{kind:?}");
        }
    }

    /// A restored twin and a cloned twin both continue exactly as the
    /// original does. The round-robin split-bus variant puts a rotation
    /// point and a second in-flight transaction into the copied state.
    #[test]
    fn snapshot_resume_is_bit_identical_to_uninterrupted_run() {
        let variants = [
            (ArbiterKind::FixedPriority, BusMode::Unified),
            (ArbiterKind::RoundRobin, BusMode::Split),
        ];
        for kind in ProtocolKind::ALL {
            for (arbiter, mode) in variants {
                let mut a = busy_sys_on(kind, arbiter, mode);
                assert_eq!(a.bus.in_flight(), mode.max_in_flight(), "{kind:?} {mode:?}");
                let mut b = MemSystem::restore(&a.save_snapshot()).expect("restore");
                let mut c = a.clone();
                for round in 0..30u32 {
                    for p in 0..3usize {
                        let addr = Addr::from_word_index((round * 5 + p as u32) % 48);
                        let req = if round % 2 == 0 {
                            Request::write(addr, round + 1)
                        } else {
                            Request::read(addr)
                        };
                        let ra = a.run_to_completion(PortId::new(p), req);
                        let rb = b.run_to_completion(PortId::new(p), req);
                        let rc = c.run_to_completion(PortId::new(p), req);
                        assert_eq!(ra, rb, "{kind:?} {arbiter:?} round {round} port {p}");
                        assert_eq!(ra, rc, "{kind:?} {arbiter:?} clone, round {round} port {p}");
                    }
                }
                let bytes = a.save_snapshot();
                for (twin, t) in [("restored", &b), ("cloned", &c)] {
                    assert_eq!(a.cycle(), t.cycle(), "{kind:?} {arbiter:?} {twin}");
                    assert_eq!(a.bus_stats(), t.bus_stats(), "{kind:?} {arbiter:?} {twin}");
                    assert_eq!(a.fault_stats(), t.fault_stats(), "{kind:?} {arbiter:?} {twin}");
                    assert_eq!(a.events(), t.events(), "{kind:?} {arbiter:?} {twin}");
                    assert_eq!(bytes, t.save_snapshot(), "{kind:?} {arbiter:?} {twin} diverged");
                }
            }
        }
    }

    #[test]
    fn snapshot_rejects_corruption_and_version_skew() {
        let s = busy_sys(ProtocolKind::Firefly);
        let bytes = s.save_snapshot();
        // Bit flip anywhere fails the checksum.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x40;
        assert!(matches!(MemSystem::restore(&bad), Err(Error::SnapshotCorrupt(_))));
        assert!(matches!(MemSystem::restore(&[]), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn watchdog_starved_port_escalates_then_degrades() {
        let cfg = SystemConfig::microvax(2).with_event_trace(256);
        let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).expect("valid config");
        s.set_watchdog(Some(16));
        // Seed a line shared by both caches, then put port 0 in a steady
        // write-through-hit loop on it: every hit re-requests the bus the
        // same cycle its predecessor's result is polled, and fixed
        // lowest-port-first priority hands port 0 every grant. Port 1's
        // read of an unrelated line never wins arbitration.
        let a = Addr::from_word_index(0);
        s.run_to_completion(PortId::new(1), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(0), Request::read(a)).unwrap();
        s.run_to_completion(PortId::new(0), Request::write(a, 1)).unwrap();
        assert_eq!(s.peek_state(PortId::new(0), LineId::from_raw(0)), LineState::SharedClean);
        s.begin(PortId::new(0), Request::write(a, 2)).unwrap();
        s.begin(PortId::new(1), Request::read(Addr::from_word_index(500))).unwrap();
        for _ in 0..2000 {
            s.step();
            if s.poll(PortId::new(0)).is_some() {
                s.begin(PortId::new(0), Request::write(a, 3)).unwrap();
            }
            if !s.is_online(PortId::new(1)) {
                break;
            }
        }
        assert!(!s.is_online(PortId::new(1)), "starved port machine-checked");
        assert!(s.watchdog_trips() >= 3, "escalated through the backoff ladder first");
        assert!(
            s.fault_errors().iter().any(|e| matches!(e, Error::DeviceTimeout { device: "mbus" })),
            "timeout surfaced as a structured error"
        );
        let events = s.events();
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::FaultInjected { class: FaultClass::Watchdog }
            )),
            "watchdog trips appear in the event trace"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CpuOffline { port } if port.index() == 1)),
            "degradation appears in the event trace"
        );
        // The monopolist keeps running: degraded, not hung. Drain its
        // outstanding write first.
        for _ in 0..100 {
            if s.poll(PortId::new(0)).is_some() {
                break;
            }
            s.step();
        }
        let r = s.run_to_completion(PortId::new(0), Request::read(Addr::from_word_index(3)));
        assert!(r.is_ok());
    }

    #[test]
    fn watchdog_disabled_by_default_and_disarmable() {
        let mut s = sys(2, ProtocolKind::Firefly);
        assert_eq!(s.watchdog_trips(), 0);
        s.set_watchdog(Some(8));
        s.set_watchdog(None);
        s.run_to_completion(PortId::new(0), Request::read(Addr::new(0x40))).unwrap();
        assert_eq!(s.watchdog_trips(), 0);
    }
}
