//! The cycle-driven processor model.
//!
//! A [`Processor`] owns one MBus port of a
//! [`MemSystem`] and executes an endless
//! [`RefStream`]. Between instruction fetches it "computes" for exactly
//! the number of cycles that makes the configured no-wait-state TPI
//! emerge; each reference is then a real request through the cache, so
//! misses, write-throughs, bus queueing, and tag-probe interference slow
//! it down exactly as the hardware would be slowed.
//!
//! The driver contract: call [`Processor::tick`] once, for every
//! processor, per [`MemSystem::step`] — the [`drive`] helper does this
//! for any set of [`Agent`]s.

use crate::config::CpuConfig;
use crate::icache::ICache;
use firefly_core::agent::Agent;
use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, Error, PortId};
use firefly_trace::{MemRef, RefKind, RefStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Range;

firefly_core::counters! {
    /// Counters kept by each processor.
    pub struct CpuStats {
        /// Instructions executed (counted at instruction fetches).
        pub instructions: u64,
        /// Real instruction fetches issued to the memory system.
        pub ifetches: u64,
        /// Data reads issued.
        pub data_reads: u64,
        /// Data writes issued.
        pub data_writes: u64,
        /// Instruction fetches satisfied by the on-chip cache (CVAX).
        pub icache_hits: u64,
        /// Wasted (mispath) prefetch references issued.
        pub wasted_prefetches: u64,
        /// Cycles this processor has been ticked.
        pub cycles: u64,
        /// Cycles spent with a memory request outstanding.
        pub memory_wait_cycles: u64,
    }
}

impl CpuStats {
    /// References issued to the board cache (including wasted prefetches,
    /// excluding on-chip hits — they never leave the chip).
    pub fn board_refs(&self) -> u64 {
        self.ifetches + self.data_reads + self.data_writes + self.wasted_prefetches
    }

    /// Reads issued to the board cache.
    pub fn board_reads(&self) -> u64 {
        self.ifetches + self.data_reads + self.wasted_prefetches
    }

    /// Effective ticks per instruction, for a tick of `cycles_per_tick`
    /// bus cycles.
    pub fn tpi(&self, cycles_per_tick: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / cycles_per_tick as f64 / self.instructions as f64
        }
    }

    /// References per second of simulated time, in thousands
    /// (the Table 2 unit).
    pub fn krefs_per_second(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            let seconds = self.cycles as f64 * firefly_core::BUS_CYCLE_NS as f64 * 1e-9;
            self.board_refs() as f64 / seconds / 1e3
        }
    }

    /// Read:write ratio of board references (Table 2 discusses its shift
    /// from 4.7:1 to 3.8:1 under load).
    pub fn read_write_ratio(&self) -> f64 {
        if self.data_writes == 0 {
            f64::INFINITY
        } else {
            self.board_reads() as f64 / self.data_writes as f64
        }
    }
}

#[derive(Debug)]
enum State {
    /// Counting down compute time before issuing `pending`.
    Computing { cycles_left: u64 },
    /// A request is outstanding at the memory system.
    WaitingMem { kind: RefKind, is_prefetch: bool },
}

/// One simulated processor bound to one MBus port.
pub struct Processor {
    port: PortId,
    cfg: CpuConfig,
    stream: Box<dyn RefStream>,
    icache: Option<ICache>,
    rng: SmallRng,
    state: State,
    pending: Option<MemRef>,
    /// Fractional compute cycles carried between instructions.
    carry: f64,
    /// Prefetch overlap refund to apply against upcoming compute.
    refund: f64,
    /// Address of the most recently issued reference (prefetch-ahead base).
    last_addr: Addr,
    /// Fractional instruction count carried between fetches: each fetch
    /// represents `1/mix.instr_reads` architectural instructions.
    instr_carry: f64,
    /// Exponential moving average of recent access latencies (cycles);
    /// the prefetcher's view of how loaded the machine is.
    ema_latency: f64,
    stats: CpuStats,
    /// Architectural instructions per fetch, `1/mix.instr_reads`: fixed
    /// by the configuration, so divided out once.
    instrs_per_fetch: f64,
    /// Compute cycles per fetch: the per-instruction budget over
    /// `mix.instr_reads`.
    gap_per_fetch: f64,
}

/// `x.floor()` for a non-negative accumulator, without the libm call
/// `f64::floor` is on baseline x86-64: the truncating cast rounds toward
/// zero, which is the floor for `0 <= x < 2^64`, and both conversions are
/// exact there.
#[inline]
fn floor_nonneg(x: f64) -> f64 {
    debug_assert!((0.0..18_446_744_073_709_551_616.0).contains(&x), "floor of {x}");
    (x as u64) as f64
}

impl Processor {
    /// Creates a processor for `port` executing `stream`.
    ///
    /// # Panics
    ///
    /// Panics if the prefetch configuration is invalid.
    pub fn new(port: PortId, cfg: CpuConfig, stream: Box<dyn RefStream>, seed: u64) -> Self {
        cfg.prefetch.validate().unwrap_or_else(|e| panic!("invalid prefetch config: {e}"));
        let mut p = Processor {
            port,
            cfg,
            stream,
            icache: cfg.onchip_icache_words.map(ICache::new),
            rng: SmallRng::seed_from_u64(seed ^ 0xc0ff_ee00 ^ port.index() as u64),
            state: State::Computing { cycles_left: 0 },
            pending: None,
            carry: 0.0,
            refund: 0.0,
            last_addr: Addr::new(0),
            instr_carry: 0.0,
            ema_latency: cfg.variant.hit_cycles() as f64,
            stats: CpuStats::default(),
            instrs_per_fetch: 1.0 / cfg.mix.instr_reads,
            gap_per_fetch: cfg.compute_cycles_per_instruction() / cfg.mix.instr_reads,
        };
        p.schedule_next();
        p
    }

    /// The port this processor drives.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// The processor's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The counters so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// On-chip I-cache statistics, if the variant has one.
    pub fn icache(&self) -> Option<&ICache> {
        self.icache.as_ref()
    }

    /// Pulls the next reference and schedules its compute gap.
    fn schedule_next(&mut self) {
        let r = self.stream.next_ref();
        let mut gap = 0.0;
        if r.kind == RefKind::InstrRead {
            // Instruction boundary: spend the per-instruction compute
            // budget (normalized by the fetch rate so the average comes
            // out exactly right), minus any prefetch-overlap refund.
            // Each fetch stands for 1/IR architectural instructions
            // (IR = 0.95 fetches per instruction).
            self.instr_carry += self.instrs_per_fetch;
            let whole = floor_nonneg(self.instr_carry);
            self.stats.instructions += whole as u64;
            self.instr_carry -= whole;
            gap = self.gap_per_fetch;
            let refund = self.refund.min(gap);
            gap -= refund;
            self.refund -= refund;
        }
        let total = gap + self.carry;
        let cycles = floor_nonneg(total);
        self.carry = total - cycles;
        self.pending = Some(r);
        self.state = State::Computing { cycles_left: cycles as u64 };
    }

    /// Issues `r` to the memory system (or satisfies it on-chip).
    fn issue(&mut self, r: MemRef, sys: &mut MemSystem) {
        if r.kind == RefKind::InstrRead {
            if let Some(ic) = &mut self.icache {
                if ic.probe(r.addr) {
                    // On-chip hit: one CVAX cycle (the issue tick itself),
                    // no board access.
                    self.stats.icache_hits += 1;
                    self.schedule_next();
                    return;
                }
            }
        }
        self.last_addr = r.addr;
        let req = match r.kind {
            RefKind::DataWrite => Request::write(r.addr, self.rng.gen()),
            _ => Request::read(r.addr),
        };
        match r.kind {
            RefKind::InstrRead => self.stats.ifetches += 1,
            RefKind::DataRead => self.stats.data_reads += 1,
            RefKind::DataWrite => self.stats.data_writes += 1,
        }
        sys.begin(self.port, req)
            .unwrap_or_else(|e| panic!("processor {} issue failed: {e}", self.port));
        self.state = State::WaitingMem { kind: r.kind, is_prefetch: false };
    }

    /// Issues a wasted (mispath) prefetch near `after`, if it stays in
    /// installed memory.
    fn issue_waste_prefetch(&mut self, after: Addr, sys: &mut MemSystem) -> bool {
        let ahead = self.rng.gen_range(1..=8u32);
        let addr = after.add_words(ahead);
        if sys.begin(self.port, Request::read(addr)).is_err() {
            return false;
        }
        self.stats.wasted_prefetches += 1;
        self.state = State::WaitingMem { kind: RefKind::InstrRead, is_prefetch: true };
        true
    }

    /// Advances the processor by one bus cycle. Call exactly once per
    /// [`MemSystem::step`].
    pub fn tick(&mut self, sys: &mut MemSystem) {
        self.stats.cycles += 1;
        match &mut self.state {
            State::Computing { cycles_left } => {
                if *cycles_left > 0 {
                    *cycles_left -= 1;
                } else {
                    let r = self.pending.take().expect("computing towards a pending ref");
                    self.issue(r, sys);
                }
            }
            State::WaitingMem { kind, is_prefetch } => {
                let (kind, is_prefetch) = (*kind, *is_prefetch);
                self.stats.memory_wait_cycles += 1;
                if let Some(result) = sys.poll(self.port) {
                    let latency = result.latency_cycles();
                    // Track machine load as the prefetcher's issue logic
                    // sees it: recent average access latency.
                    self.ema_latency = 0.95 * self.ema_latency + 0.05 * latency as f64;
                    let pf = &self.cfg.prefetch;
                    if kind == RefKind::InstrRead && !is_prefetch && pf.enabled {
                        // Overlap: part of the fetch ran under earlier
                        // instructions' execution.
                        self.refund += latency as f64 * pf.overlap;
                        // Waste: mispath prefetch — suppressed when the
                        // machine is visibly loaded ("prefetches occur
                        // less frequently when bus loading slows
                        // non-prefetch references", §5.3).
                        let unloaded = self.ema_latency
                            <= (self.cfg.variant.hit_cycles() + pf.backoff_slack_cycles) as f64;
                        let base = self.last_addr;
                        if unloaded
                            && self.rng.gen_bool(pf.waste_prob)
                            && self.issue_waste_prefetch(base, sys)
                        {
                            return;
                        }
                    }
                    self.schedule_next();
                }
            }
        }
    }

    /// Whether the processor waits on an access it issued to its port
    /// (rather than computing towards its next reference).
    pub fn waits_on_memory(&self) -> bool {
        matches!(self.state, State::WaitingMem { .. })
    }
}

/// A processor owns its one port and is frozen once that port is offline.
/// The methods are `#[inline]` so that a driver instantiated in another
/// crate inlines them as it did when the driver took processors only.
impl Agent for Processor {
    #[inline]
    fn ports(&self) -> Range<usize> {
        self.port.index()..self.port.index() + 1
    }

    #[inline]
    fn frozen(&self, sys: &MemSystem) -> bool {
        !sys.is_online(self.port)
    }

    #[inline]
    fn tick(&mut self, sys: &mut MemSystem) {
        Processor::tick(self, sys);
    }

    /// Computing: every tick with `cycles_left > 0` only decrements, and
    /// the issue happens on the tick after it reaches zero. Waiting on
    /// memory: the first successful poll is at the access's local
    /// completion cycle. A probe stall can still move that completion
    /// later; a tick at the earlier cycle is then a pure wait tick.
    #[inline]
    fn wake(&self, from: u64, sys: &MemSystem) -> u64 {
        match self.state {
            State::Computing { cycles_left } => from.saturating_add(cycles_left),
            State::WaitingMem { .. } => {
                sys.completion_cycle(self.port).map_or(u64::MAX, |at| at.max(from))
            }
        }
    }

    #[inline]
    fn advance_idle(&mut self, n: u64, _sys: &MemSystem) {
        self.stats.cycles += n;
        match &mut self.state {
            State::Computing { cycles_left } => *cycles_left -= n,
            State::WaitingMem { .. } => self.stats.memory_wait_cycles += n,
        }
    }
}

impl Snap for State {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            State::Computing { cycles_left } => w.put(&(0u8, cycles_left)),
            State::WaitingMem { kind, is_prefetch } => w.put(&(1u8, kind, is_prefetch)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => State::Computing { cycles_left: r.get()? },
            1 => State::WaitingMem { kind: r.get()?, is_prefetch: r.get()? },
            t => return Err(Error::SnapshotCorrupt(format!("invalid cpu state tag {t}"))),
        })
    }
}

impl Processor {
    /// Serializes the processor's complete dynamic state — RNG, execution
    /// state, fractional-cycle accumulators, counters, on-chip cache, and
    /// the reference stream — for a machine checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotUnsupported`] if the reference stream
    /// does not implement
    /// [`RefStream::save_state`].
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), Error> {
        w.put(&self.rng);
        w.put(&self.state);
        w.put(&self.pending);
        w.put(&(self.carry, self.refund, self.last_addr));
        w.put(&(self.instr_carry, self.ema_latency, self.stats));
        w.bool(self.icache.is_some());
        if let Some(ic) = &self.icache {
            ic.save(w);
        }
        self.stream.save_state(w)
    }

    /// Restores state captured by [`Processor::save_state`] into a
    /// processor built with the same configuration, port, and stream
    /// constructor arguments.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] for out-of-range payloads, a
    /// pending reference outside the stream's regions or an on-chip-cache
    /// presence mismatch, and
    /// [`Error::SnapshotUnsupported`] if the stream cannot restore.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.rng = r.get()?;
        self.state = r.get()?;
        self.pending = r.get()?;
        // A computing processor issues its pending reference next; a
        // waiting one has none.
        match (&self.state, self.pending) {
            (State::Computing { .. }, Some(m)) if self.stream.holds(m.addr) => {}
            (State::WaitingMem { .. }, None) => {}
            (state, pending) => {
                return Err(Error::SnapshotCorrupt(format!(
                    "processor state {state:?} with pending reference {pending:?}"
                )))
            }
        }
        (self.carry, self.refund, self.last_addr) = r.get()?;
        (self.instr_carry, self.ema_latency, self.stats) = r.get()?;
        match (&mut self.icache, r.get::<bool>()?) {
            (Some(ic), true) => ic.load(r)?,
            (None, false) => {}
            _ => {
                return Err(Error::SnapshotCorrupt(
                    "on-chip i-cache presence differs between snapshot and processor".into(),
                ))
            }
        }
        self.stream.load_state(r)
    }
}

impl fmt::Debug for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Processor")
            .field("port", &self.port)
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Which driver advances a machine. Both produce **bit-identical**
/// results — statistics, event traces, latency histograms, snapshot
/// bytes — on every protocol and for every kind of agent; the
/// differential suite (`tests/engine_equivalence.rs`) holds them to it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, serde::Serialize)]
pub enum EngineMode {
    /// The discrete-event engine ([`drive_events`]): each cycle ticks
    /// only the agents with something to do, and idle spans are skipped
    /// in one jump. The default.
    #[default]
    EventDriven,
    /// The cycle-by-cycle engine ([`drive`]), kept as the reference
    /// implementation the event engine is tested against.
    Ticked,
}

impl EngineMode {
    /// Runs `agents` against `sys` for `cycles` bus cycles on this
    /// engine, returning the event engine's counters (all zero when
    /// ticked).
    pub fn run<A: Agent>(self, agents: &mut [A], sys: &mut MemSystem, cycles: u64) -> EngineStats {
        match self {
            EngineMode::EventDriven => drive_events(agents, sys, cycles),
            EngineMode::Ticked => {
                drive(agents, sys, cycles);
                EngineStats::default()
            }
        }
    }
}

/// Runs `agents` against `sys` for `cycles` bus cycles.
///
/// The canonical driver loop and the reference engine: each agent ticks
/// once, in slice order, then the memory system steps once. Frozen agents
/// (processors whose port has been machine-checked offline,
/// [`MemSystem::offline_cpu`]) are skipped, so an N-CPU run degrades to
/// N−1 instead of aborting.
pub fn drive<A: Agent>(agents: &mut [A], sys: &mut MemSystem, cycles: u64) {
    for _ in 0..cycles {
        for a in agents.iter_mut() {
            if !a.frozen(sys) {
                a.tick(sys);
            }
        }
        sys.step();
    }
}

firefly_core::counters! {
    /// Host-side counters from one [`drive_events`] call: how the engine
    /// spent the run, for performance reporting (`BENCH_6.json`). These are
    /// measurements *of* the simulator, not simulated state — they are not
    /// part of any snapshot and never affect results. `ticked_iterations +
    /// cycles_skipped` equals the cycles run.
    pub struct EngineStats {
        /// Idle skips that landed on a wake-up cycle (rather than on the
        /// run horizon).
        pub events_fired: u64,
        /// Idle spans jumped in one step.
        pub idle_skips: u64,
        /// Total cycles covered by those jumps.
        pub cycles_skipped: u64,
        /// Cycles stepped one at a time.
        pub ticked_iterations: u64,
    }
}

impl EngineStats {
    /// Folds another run's counters into this one: `*self += other`.
    pub fn absorb(&mut self, other: EngineStats) {
        *self += other;
    }
}

/// Where one driven agent's counters stand and when it next needs a real
/// tick.
#[derive(Copy, Clone)]
struct Clock {
    /// Every tick before this cycle has been applied or credited.
    settled: u64,
    /// The agent's [`wake`](Agent::wake) cycle.
    wake: u64,
}

impl Clock {
    /// A frozen agent: never ticked, never credited.
    const FROZEN: Clock = Clock { settled: u64::MAX, wake: u64::MAX };
}

/// The event-driven form of [`drive`]: bit-identical results (counters,
/// traces, histograms, snapshots), but a cycle costs only the agents
/// that do something in it.
///
/// Each driven agent has a clock: the cycle its counters are settled to,
/// and its wake cycle — the first cycle whose tick is more than
/// bookkeeping. A computing processor wakes when its compute gap ends, an
/// agent with a known local completion wakes at that cycle, and an agent
/// waiting on the bus sleeps until the memory system reports its
/// completion ([`MemSystem::take_notified`], drained after every step,
/// naming a port the agent owns). Each cycle the agents due in it tick,
/// in slice order, before the step; each is first credited its skipped
/// pure ticks in one add. A tick changes only its own agent's wake cycle,
/// and a step changes a sleeper's only through a notification or a probe
/// stall, which moves a completion later: an agent woken early ticks a
/// pure wait tick and sleeps again.
///
/// When no agent is due before a later cycle and the memory system is
/// idle ([`MemSystem::is_idle`]), the driver jumps to the earliest
/// wake-up in one [`MemSystem::advance_idle`]. A cycle whose due agents
/// leave the memory system idle folds its own step into that jump: an
/// idle step only moves the cycle counters, which the jump moves too. It
/// is still counted as one stepped iteration plus, when the jump passes
/// the next cycle, one idle skip, as if stepped and then skipped. A
/// frozen agent is settled at the cycle its port went offline; every
/// other agent is settled to the horizon when the call returns.
///
/// Clocks are rebuilt from machine state on every call, so a checkpoint
/// needs no scheduler section, and agents may be changed between calls
/// (threads spawned, devices handed work, interrupts posted).
pub fn drive_events<A: Agent>(agents: &mut [A], sys: &mut MemSystem, cycles: u64) -> EngineStats {
    let mut stats = EngineStats::default();
    let Some(end) = sys.cycle().checked_add(cycles) else {
        // Absurd horizon (would overflow the cycle counter): the ticked
        // loop would panic on the wrap too, so just tick.
        drive(agents, sys, cycles);
        return stats;
    };
    let start = sys.cycle();
    // Slice position of each port's agent.
    let mut slot = vec![None; sys.config().ports()];
    for (i, a) in agents.iter().enumerate() {
        for port in a.ports() {
            if let Some(s) = slot.get_mut(port) {
                debug_assert!(s.is_none(), "port {port} has two agents");
                *s = Some(i);
            }
        }
    }
    let mut clocks: Vec<Clock> = agents
        .iter()
        .map(|a| {
            if a.frozen(sys) {
                Clock::FROZEN
            } else {
                Clock { settled: start, wake: a.wake(start, sys) }
            }
        })
        .collect();
    // Every clock was just derived from the current state.
    while sys.take_notified().is_some() {}
    let mut next = clocks.iter().map(|c| c.wake).min().unwrap_or(u64::MAX);

    // Counts an idle skip over the cycles `from..to`.
    let count_skip = |stats: &mut EngineStats, from: u64, to: u64| {
        stats.idle_skips += 1;
        stats.cycles_skipped += to - from;
        if to < end {
            stats.events_fired += 1;
        }
    };

    while sys.cycle() < end {
        let now = sys.cycle();
        if next > now && sys.is_idle() {
            let to = next.min(end);
            sys.advance_idle(to - now);
            count_skip(&mut stats, now, to);
            continue;
        }
        let mut changed = false;
        if next <= now {
            for (a, c) in agents.iter_mut().zip(&mut clocks) {
                if c.wake <= now {
                    a.advance_idle(now - c.settled, sys);
                    a.tick(sys);
                    c.settled = now + 1;
                    c.wake = a.wake(now + 1, sys);
                    changed = true;
                }
            }
        }
        stats.ticked_iterations += 1;
        // An idle step would only move the cycle counters, which the jump
        // below moves too, so such a cycle's step is folded into it.
        let idle = sys.is_idle();
        if !idle {
            sys.step();
        }
        while let Some(port) = sys.take_notified() {
            let Some(i) = slot[port.index()] else { continue };
            let c = &mut clocks[i];
            if !agents[i].frozen(sys) {
                c.wake = agents[i].wake(c.settled, sys);
            } else if c.settled != u64::MAX {
                // Offline from the cycle just stepped on: its tick at the
                // cycle before was the last.
                agents[i].advance_idle(now + 1 - c.settled, sys);
                *c = Clock::FROZEN;
            }
            changed = true;
        }
        if changed {
            next = clocks.iter().map(|c| c.wake).min().unwrap_or(u64::MAX);
        }
        if idle {
            // This cycle's step and the idle span after it, in one jump.
            let to = next.min(end).max(now + 1);
            sys.advance_idle(to - now);
            if to > now + 1 {
                count_skip(&mut stats, now + 1, to);
            }
        }
    }
    for (a, c) in agents.iter_mut().zip(&clocks) {
        if c.settled < end {
            a.advance_idle(end - c.settled, sys);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::PrefetchConfig;
    use firefly_core::config::SystemConfig;
    use firefly_core::protocol::ProtocolKind;
    use firefly_trace::{LocalityParams, SyntheticWorkload};

    fn build(
        cpus: usize,
        cpu_cfg: CpuConfig,
        params: LocalityParams,
    ) -> (Vec<Processor>, MemSystem) {
        let sys_cfg = match cpu_cfg.variant {
            firefly_core::MachineVariant::MicroVax => SystemConfig::microvax(cpus),
            firefly_core::MachineVariant::CVax => SystemConfig::cvax(cpus),
        };
        let sys = MemSystem::new(sys_cfg, ProtocolKind::Firefly).unwrap();
        let fleet = SyntheticWorkload::fleet(cpus, params, 17);
        let processors = fleet
            .into_iter()
            .enumerate()
            .map(|(i, w)| Processor::new(PortId::new(i), cpu_cfg, Box::new(w), 100 + i as u64))
            .collect();
        (processors, sys)
    }

    /// With an always-hitting workload the configured base TPI must
    /// emerge (this validates the compute-gap accounting end to end).
    #[test]
    fn base_tpi_emerges_when_everything_hits() {
        // A tiny looping workload that lives entirely in the cache.
        let params = LocalityParams {
            instr_region_words: 512,
            mean_body_words: 32.0,
            mean_iterations: 1000.0,
            hot_words: 256,
            cold_words: 1, // never used:
            hot_fraction: 1.0,
            shared_fraction: 0.0,
            ..LocalityParams::paper_calibrated()
        };
        let (mut cpus, mut sys) = build(1, CpuConfig::microvax(), params);
        drive(&mut cpus, &mut sys, 400_000);
        let tpi = cpus[0].stats().tpi(2);
        assert!((tpi - 11.9).abs() < 0.6, "warm single-CPU TPI should approach 11.9, got {tpi:.2}");
    }

    /// The Table 2 one-CPU expectation: ~850 K refs/s without prefetch.
    #[test]
    fn one_cpu_reference_rate_near_expected() {
        let (mut cpus, mut sys) =
            build(1, CpuConfig::microvax(), LocalityParams::paper_calibrated());
        drive(&mut cpus, &mut sys, 300_000); // warm up
        let warm_refs = cpus[0].stats().board_refs();
        let warm_cycles = cpus[0].stats().cycles;
        drive(&mut cpus, &mut sys, 700_000);
        let refs = cpus[0].stats().board_refs() - warm_refs;
        let secs = (cpus[0].stats().cycles - warm_cycles) as f64 * 100e-9;
        let krefs = refs as f64 / secs / 1e3;
        assert!((730.0..950.0).contains(&krefs), "one-CPU rate {krefs:.0} K refs/s, expected ~850");
    }

    /// Prefetching raises the reference rate well above the no-prefetch
    /// expectation (the Table 2 "surprise").
    #[test]
    fn prefetch_raises_reference_rate() {
        let base = CpuConfig::microvax();
        let pf = base.with_prefetch(PrefetchConfig::microvax_chip());
        let rate = |cfg: CpuConfig| {
            let (mut cpus, mut sys) = build(1, cfg, LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 600_000);
            cpus[0].stats().krefs_per_second()
        };
        let off = rate(base);
        let on = rate(pf);
        assert!(
            on > off * 1.2,
            "prefetch should lift the reference rate by >20%: off {off:.0}, on {on:.0}"
        );
    }

    /// Perfect prefetch lifts the instruction rate (lowers TPI) without
    /// wasted references.
    #[test]
    fn perfect_prefetch_lowers_tpi() {
        let rate = |cfg: CpuConfig| {
            let (mut cpus, mut sys) = build(1, cfg, LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 600_000);
            (cpus[0].stats().tpi(2), cpus[0].stats().wasted_prefetches)
        };
        let (tpi_off, _) = rate(CpuConfig::microvax());
        let (tpi_on, wasted) = rate(CpuConfig::microvax().with_prefetch(PrefetchConfig::perfect()));
        assert!(tpi_on < tpi_off - 0.8, "perfect prefetch: {tpi_off:.2} -> {tpi_on:.2}");
        assert_eq!(wasted, 0);
    }

    /// §5.3's load signature: "prefetches occur less frequently when bus
    /// loading slows non-prefetch references" — the read:write ratio
    /// falls as CPUs are added.
    #[test]
    fn prefetch_backs_off_under_load() {
        let cfg = CpuConfig::microvax().with_prefetch(PrefetchConfig::microvax_chip());
        let run = |n: usize| {
            let (mut cpus, mut sys) = build(n, cfg, LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 500_000);
            let s = cpus[0].stats();
            (s.read_write_ratio(), s.wasted_prefetches as f64 / s.instructions as f64)
        };
        let (rw1, waste1) = run(1);
        let (rw5, waste5) = run(5);
        assert!(rw5 < rw1 - 0.3, "R:W should fall under load: {rw1:.2} -> {rw5:.2}");
        assert!(
            waste5 < waste1 * 0.8,
            "wasted prefetches per instruction should fall: {waste1:.3} -> {waste5:.3}"
        );
    }

    /// The CVAX on-chip I-cache absorbs instruction fetches.
    #[test]
    fn cvax_icache_filters_fetches() {
        let (mut cpus, mut sys) = build(1, CpuConfig::cvax(), LocalityParams::paper_calibrated());
        drive(&mut cpus, &mut sys, 300_000);
        let ic = cpus[0].icache().expect("CVAX has an on-chip cache");
        assert!(ic.hits() > 0, "on-chip hits occur");
        let s = cpus[0].stats();
        assert!(s.icache_hits > s.ifetches / 4, "a decent fraction of fetches stay on-chip: {s:?}");
    }

    /// CVAX is 2.0-2.5x a MicroVAX on the same (uncontended) workload —
    /// the §5.3 upgrade claim.
    #[test]
    fn cvax_speedup_in_paper_range() {
        let perf = |cfg: CpuConfig| {
            let (mut cpus, mut sys) = build(1, cfg, LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 800_000);
            // instructions per second
            cpus[0].stats().instructions as f64 / (cpus[0].stats().cycles as f64 * 100e-9)
        };
        let mv = perf(CpuConfig::microvax());
        let cv = perf(CpuConfig::cvax());
        let speedup = cv / mv;
        assert!((1.9..2.7).contains(&speedup), "CVAX speedup {speedup:.2}, paper reports 2.0-2.5");
    }

    /// Five CPUs slow each other through the shared bus.
    #[test]
    fn bus_contention_slows_processors() {
        let tpi_of = |n: usize| {
            let (mut cpus, mut sys) =
                build(n, CpuConfig::microvax(), LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 400_000);
            (cpus[0].stats().tpi(2), sys.bus_stats().load())
        };
        let (tpi1, load1) = tpi_of(1);
        let (tpi5, load5) = tpi_of(5);
        assert!(tpi5 > tpi1 + 0.3, "5-CPU TPI {tpi5:.2} vs 1-CPU {tpi1:.2}");
        assert!(load5 > load1 * 3.0, "bus load {load1:.2} -> {load5:.2}");
    }

    /// Checkpoint a processor+memory system mid-run and resume into fresh
    /// twins: the continuation must be bit-identical to the uninterrupted
    /// run (stats, cycle count, and a fresh snapshot of each side).
    #[test]
    fn snapshot_resume_is_bit_identical() {
        for cfg in [
            CpuConfig::microvax().with_prefetch(PrefetchConfig::microvax_chip()),
            CpuConfig::cvax(),
        ] {
            let (mut cpus, mut sys) = build(3, cfg, LocalityParams::paper_calibrated());
            drive(&mut cpus, &mut sys, 50_000);
            let sys_bytes = sys.save_snapshot();
            let cpu_bytes: Vec<Vec<u8>> = cpus
                .iter()
                .map(|p| {
                    let mut w = firefly_core::snapshot::SnapWriter::new();
                    p.save_state(&mut w).expect("save");
                    w.into_bytes()
                })
                .collect();

            // Twins built with different seeds: every divergence must be
            // erased by the restore.
            let mut sys2 = MemSystem::restore(&sys_bytes).expect("restore");
            let fleet = SyntheticWorkload::fleet(3, LocalityParams::paper_calibrated(), 17);
            let mut cpus2: Vec<Processor> = fleet
                .into_iter()
                .enumerate()
                .map(|(i, w)| Processor::new(PortId::new(i), cfg, Box::new(w), 9_000 + i as u64))
                .collect();
            for (p, bytes) in cpus2.iter_mut().zip(&cpu_bytes) {
                p.load_state(&mut firefly_core::snapshot::SnapReader::new(bytes)).expect("load");
            }

            drive(&mut cpus, &mut sys, 50_000);
            drive(&mut cpus2, &mut sys2, 50_000);
            for (a, b) in cpus.iter().zip(&cpus2) {
                assert_eq!(a.stats(), b.stats());
            }
            assert_eq!(sys.cycle(), sys2.cycle());
            assert_eq!(sys.save_snapshot(), sys2.save_snapshot());
        }
    }

    #[test]
    fn snapshot_rejects_icache_presence_mismatch() {
        let (cpus, _sys) = build(1, CpuConfig::cvax(), LocalityParams::paper_calibrated());
        let mut w = firefly_core::snapshot::SnapWriter::new();
        cpus[0].save_state(&mut w).expect("save");
        let bytes = w.into_bytes();
        let (mut plain, _sys) = build(1, CpuConfig::microvax(), LocalityParams::paper_calibrated());
        let err = plain[0]
            .load_state(&mut firefly_core::snapshot::SnapReader::new(&bytes))
            .expect_err("presence mismatch");
        assert!(matches!(err, firefly_core::Error::SnapshotCorrupt(_)), "{err}");
    }

    /// The cast floor agrees with `f64::floor`, bit for bit, across its
    /// domain's edges: zero, fractions, the last fractional doubles below
    /// 2^52 and 2^53, and integers up to the largest double below 2^64.
    #[test]
    fn cast_floor_matches_libm_floor() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let edges = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            below(1.0),
            1.0,
            1.5,
            11.9,
            below(2f64.powi(52)),
            2f64.powi(52) + 0.5,
            below(2f64.powi(53)),
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            below(2f64.powi(64)),
        ];
        for x in edges {
            assert_eq!(floor_nonneg(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
        }
    }

    #[test]
    fn stats_accessors() {
        let s = CpuStats {
            instructions: 100,
            ifetches: 95,
            data_reads: 78,
            data_writes: 40,
            wasted_prefetches: 7,
            cycles: 2380,
            ..Default::default()
        };
        assert_eq!(s.board_refs(), 220);
        assert_eq!(s.board_reads(), 180);
        assert!((s.tpi(2) - 11.9).abs() < 1e-9);
        assert!((s.read_write_ratio() - 4.5).abs() < 1e-9);
    }
}
