//! The Topaz runtime: threads executing on simulated processors over the
//! real simulated memory system.
//!
//! Each processor runs one thread at a time. A thread's operations expand
//! into *real memory references* — instruction fetches from the shared
//! code region, stack and heap data references, reads and writes of lock
//! words, condition words and scheduler words — issued through the
//! processor's cache port. The coherence traffic Table 2 measures
//! (write-throughs receiving `MShared`, migrations doubling working
//! sets, probe stalls) therefore *emerges* from the protocol rather than
//! being scripted.

use crate::ids::{CondId, MutexId, SemId, ThreadId};
use crate::layout;
use crate::program::{Script, ScriptId, ThreadOp};
use crate::sched::{MigrationPolicy, Scheduler};
use firefly_core::agent::Agent;
use firefly_core::config::SystemConfig;
use firefly_core::events::{Event, EventKind};
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, MachineVariant, PortId, ProtocolKind};
use firefly_cpu::processor::EngineStats;
use firefly_cpu::{CpuConfig, EngineMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Idle cycles before an `AvoidMigration` CPU steals a foreign thread.
pub const STEAL_PATIENCE_CYCLES: u64 = 200;
/// Instructions charged to every context switch (Nub dispatch path).
pub const CONTEXT_SWITCH_INSTRUCTIONS: u32 = 40;
/// Condition waits time out after this many cycles (models Topaz alerts;
/// keeps exercisers deadlock-free).
pub const WAIT_TIMEOUT_CYCLES: u64 = 20_000;
/// Expired condition waits are swept on cycles that are multiples of
/// this.
const TIMEOUT_SWEEP_CYCLES: u64 = 64;

/// Configuration of a Topaz machine.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TopazConfig {
    /// Number of processors.
    pub cpus: usize,
    /// Processor timing model.
    pub cpu: CpuConfig,
    /// Coherence protocol (the Firefly's, unless running an ablation).
    pub protocol: ProtocolKind,
    /// Scheduler migration policy.
    pub migration: MigrationPolicy,
    /// Size of the shared data buffer in words.
    pub shared_buffer_words: u32,
    /// The driver that runs the machine (see [`EngineMode`]).
    pub engine: EngineMode,
    /// Event-trace ring capacity (0 disables tracing). When enabled the
    /// memory system records structured bus/coherence/fault events and
    /// the runtime adds scheduler context switches; drain them with
    /// [`TopazMachine::take_events`].
    pub trace_events: usize,
    /// RNG seed (everything downstream is deterministic given this).
    pub seed: u64,
}

impl TopazConfig {
    /// A MicroVAX Firefly with `cpus` processors and Taos defaults.
    pub fn microvax(cpus: usize) -> Self {
        TopazConfig {
            cpus,
            cpu: CpuConfig::microvax(),
            protocol: ProtocolKind::Firefly,
            migration: MigrationPolicy::AvoidMigration,
            shared_buffer_words: 2048,
            engine: EngineMode::default(),
            trace_events: 0,
            seed: 0xf1ef,
        }
    }

    /// A CVAX Firefly with `cpus` processors.
    pub fn cvax(cpus: usize) -> Self {
        TopazConfig { cpu: CpuConfig::cvax(), ..TopazConfig::microvax(cpus) }
    }
}

/// Runtime event counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct TopazStats {
    /// Thread dispatches onto a processor.
    pub dispatches: u64,
    /// Dispatches that moved a thread to a different processor.
    pub migrations: u64,
    /// Successful mutex acquisitions.
    pub lock_acquires: u64,
    /// Mutex acquisitions that had to block.
    pub lock_contentions: u64,
    /// Signal/Broadcast operations executed.
    pub signals: u64,
    /// Threads woken by signals.
    pub wakeups: u64,
    /// Condition waits that timed out.
    pub timeouts: u64,
    /// Processor-cycles spent with no runnable thread.
    pub idle_cycles: u64,
    /// Threads that have exited.
    pub thread_exits: u64,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Status {
    Ready,
    Running(usize),
    BlockedMutex(MutexId),
    BlockedCond(CondId),
    BlockedSem(SemId),
    /// Waiting in JoinChildren for forked threads to exit.
    Joining,
    Exited,
}

/// Per-thread reference generator: shared code, private stack (hot),
/// private heap (cold).
#[derive(Debug)]
struct ThreadGen {
    rng: SmallRng,
    body_start: u32,
    body_len: u32,
    body_pos: u32,
    iters_left: u32,
    stack: Addr,
    heap: Addr,
}

impl ThreadGen {
    fn new(t: ThreadId, seed: u64) -> Self {
        let mut g = ThreadGen {
            rng: SmallRng::seed_from_u64(
                seed ^ (t.index() as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
            ),
            body_start: 0,
            body_len: 1,
            body_pos: 0,
            iters_left: 0,
            stack: layout::stack_base(t),
            heap: layout::heap_base(t),
        };
        g.new_body();
        g
    }

    fn new_body(&mut self) {
        self.body_len = self.rng.gen_range(8..48);
        self.body_start = self.rng.gen_range(0..layout::CODE_WORDS);
        self.body_pos = 0;
        self.iters_left = self.rng.gen_range(8..24);
    }

    fn next_pc(&mut self) -> Addr {
        let w = (self.body_start + self.body_pos) % layout::CODE_WORDS;
        self.body_pos += 1;
        if self.body_pos >= self.body_len {
            self.body_pos = 0;
            self.iters_left = self.iters_left.saturating_sub(1);
            if self.iters_left == 0 {
                self.new_body();
            }
        }
        layout::CODE_BASE.add_words(w)
    }

    /// The reference bundle of one instruction (VAX mix).
    fn bundle(&mut self, out: &mut VecDeque<QueuedRef>, gap: u64) {
        out.push_back(QueuedRef { addr: self.next_pc(), write: false, gap_before: gap });
        if self.rng.gen_bool(0.78 / 0.95) {
            out.push_back(QueuedRef { addr: self.data_addr(), write: false, gap_before: 0 });
        }
        if self.rng.gen_bool(0.40 / 0.95) {
            out.push_back(QueuedRef { addr: self.data_addr(), write: true, gap_before: 0 });
        }
    }

    fn data_addr(&mut self) -> Addr {
        if self.rng.gen_bool(0.90) {
            self.stack.add_words(self.rng.gen_range(0..layout::STACK_WORDS))
        } else {
            // A modest per-thread heap: Topaz threads are light; the big
            // cold footprints live in Ultrix address spaces, not here.
            self.heap.add_words(self.rng.gen_range(0..layout::HEAP_WORDS / 16))
        }
    }
}

#[derive(Debug)]
struct Thread {
    script: Script,
    pc: usize,
    status: Status,
    last_cpu: Option<usize>,
    gen: ThreadGen,
    blocked_since: u64,
    /// Live children forked by this thread (for JoinChildren).
    live_children: u32,
    /// The parent waiting in JoinChildren, if any.
    parent: Option<ThreadId>,
}

#[derive(Debug, Default)]
struct Mutex {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct Cond {
    waiters: VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct Sem {
    count: u32,
    waiters: VecDeque<ThreadId>,
}

#[derive(Copy, Clone, Debug)]
struct QueuedRef {
    addr: Addr,
    write: bool,
    gap_before: u64,
}

#[derive(Copy, Clone, PartialEq, Debug)]
enum Commit {
    /// Move to the next op.
    Advance,
    /// Begin the current op without advancing the pc (used after the
    /// context-switch prologue: the dispatched thread has not yet
    /// executed the op it was dispatched to run).
    StartCurrent,
    /// Try to take the mutex.
    LockAttempt(MutexId),
    /// Release the mutex (passing it to a waiter if any).
    Release(MutexId),
    /// Block on the condition.
    WaitBlock(CondId),
    /// Wake one (or all) waiters.
    SignalWake(CondId, bool),
    /// Requeue and switch.
    YieldNow,
    /// Semaphore P: decrement or block.
    SemDown(SemId),
    /// Semaphore V: increment, waking one waiter.
    SemUp(SemId),
    /// Fork a child from a registered script.
    ForkChild(ScriptId),
    /// Block until all forked children exit.
    JoinWait,
    /// Terminate the thread.
    ExitNow,
}

#[derive(Debug)]
enum EngineState {
    /// Computing until cycle `until`: earlier ticks only wait, the tick
    /// at `until` moves on.
    Computing {
        until: u64,
    },
    WaitingMem,
}

#[derive(Debug)]
struct Engine {
    port: PortId,
    current: Option<ThreadId>,
    state: EngineState,
    refq: VecDeque<QueuedRef>,
    commit: Commit,
    /// Remaining instructions of an in-progress Compute op.
    compute_left: u32,
    gap_carry: f64,
}

impl Engine {
    /// Queues back-to-back references to `word`, one per entry of
    /// `writes` (true for a write), and the commit that follows them.
    fn touch(&mut self, word: Addr, writes: &[bool], commit: Commit) {
        for &write in writes {
            self.refq.push_back(QueuedRef { addr: word, write, gap_before: 0 });
        }
        self.commit = commit;
    }
}

/// A Topaz machine: processors, scheduler, threads, and the memory
/// system underneath, and, if built [`with_io`](TopazMachine::with_io),
/// an I/O system `I` on its bus.
///
/// # Examples
///
/// ```
/// use firefly_topaz::{Script, ThreadOp, TopazConfig, TopazMachine};
///
/// let mut m = TopazMachine::new(TopazConfig::microvax(2));
/// m.spawn(Script::new(vec![
///     ThreadOp::Compute { instructions: 200 },
///     ThreadOp::Exit,
/// ]));
/// m.run(100_000);
/// assert_eq!(m.stats().thread_exits, 1);
/// ```
pub struct TopazMachine<I = NoIo> {
    sys: MemSystem,
    cpus: CpuSet,
    io: Option<I>,
}

/// The I/O system of a machine built without one: there is none.
#[derive(Debug)]
pub enum NoIo {}

impl Agent for NoIo {
    fn ports(&self) -> Range<usize> {
        match *self {}
    }

    fn tick(&mut self, _sys: &mut MemSystem) {
        match *self {}
    }

    fn wake(&self, _from: u64, _sys: &MemSystem) -> u64 {
        match *self {}
    }

    fn advance_idle(&mut self, _n: u64, _sys: &MemSystem) {
        match *self {}
    }
}

/// The processors with their shared scheduler and threads: one agent of
/// the drivers, owning ports `0..cpus`, because an engine's commit can
/// make a thread runnable for another engine in the same cycle.
#[derive(Debug)]
struct CpuSet {
    cfg: TopazConfig,
    engines: Vec<Engine>,
    sched: Scheduler,
    threads: Vec<Thread>,
    mutexes: Vec<Mutex>,
    conds: Vec<Cond>,
    sems: Vec<Sem>,
    scripts: Vec<Script>,
    stats: TopazStats,
    /// The first cycle at which an idle engine may dispatch or a timeout
    /// sweep wakes a waiter, as of the last change to the ready queue or
    /// the waiters ([`refresh`](CpuSet::refresh)): the part of the wake
    /// cycle that crediting idle ticks leaves in place.
    ready_wake: u64,
    /// Whether a dispatch or a commit in this tick may have moved
    /// `ready_wake`.
    stale: bool,
    /// The earliest wake among engines running a thread, as of the last
    /// tick, but for those waiting on an access whose completion cycle
    /// the bus had not yet fixed: bit `cpu` of `unfixed` (at most 16
    /// ports).
    busy_wake: u64,
    unfixed: u32,
}

impl TopazMachine {
    /// Builds an empty machine (no threads yet).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by the memory system.
    pub fn new(cfg: TopazConfig) -> Self {
        TopazMachine::assemble(cfg, None)
    }
}

impl<I: Agent> TopazMachine<I> {
    /// Builds an empty machine whose I/O system, made by `attach` for its
    /// DMA port (one more port after the processors), ticks after the
    /// processors in every cycle — for example
    /// `TopazMachine::with_io(cfg, IoSystem::on_port)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by the memory system.
    pub fn with_io(cfg: TopazConfig, attach: impl FnOnce(PortId) -> I) -> Self {
        TopazMachine::assemble(cfg, Some(attach(PortId::new(cfg.cpus))))
    }

    fn assemble(cfg: TopazConfig, io: Option<I>) -> Self {
        let ports = cfg.cpus + usize::from(io.is_some());
        let sys_cfg = match cfg.cpu.variant {
            MachineVariant::MicroVax => SystemConfig::microvax(ports),
            MachineVariant::CVax => SystemConfig::cvax(ports),
        }
        .with_event_trace(cfg.trace_events);
        let sys = MemSystem::new(sys_cfg, cfg.protocol).expect("valid Topaz configuration");
        let engines = (0..cfg.cpus)
            .map(|i| Engine {
                port: PortId::new(i),
                current: None,
                state: EngineState::Computing { until: 0 },
                refq: VecDeque::new(),
                commit: Commit::Advance,
                compute_left: 0,
                gap_carry: 0.0,
            })
            .collect();
        let cpus = CpuSet {
            sched: Scheduler::new(cfg.cpus, cfg.migration, STEAL_PATIENCE_CYCLES),
            engines,
            threads: Vec::new(),
            mutexes: Vec::new(),
            conds: Vec::new(),
            sems: Vec::new(),
            scripts: Vec::new(),
            stats: TopazStats::default(),
            ready_wake: u64::MAX,
            stale: false,
            busy_wake: u64::MAX,
            unfixed: 0,
            cfg,
        };
        TopazMachine { sys, cpus, io }
    }

    /// Forks a new thread running `script`. Threads can be spawned before
    /// or during a run.
    ///
    /// # Panics
    ///
    /// Panics if the layout's thread limit is exceeded.
    pub fn spawn(&mut self, script: Script) -> ThreadId {
        let t = self.cpus.add_thread(script, None);
        self.cpus.refresh(self.sys.cycle());
        t
    }

    /// Registers a script so running threads can [`ThreadOp::Fork`] it.
    pub fn register_script(&mut self, script: Script) -> ScriptId {
        self.cpus.scripts.push(script);
        ScriptId(self.cpus.scripts.len() as u32 - 1)
    }

    /// Creates a mutex.
    pub fn create_mutex(&mut self) -> MutexId {
        self.cpus.mutexes.push(Mutex::default());
        MutexId::new(self.cpus.mutexes.len() as u32 - 1)
    }

    /// Creates a condition variable.
    pub fn create_cond(&mut self) -> CondId {
        self.cpus.conds.push(Cond::default());
        CondId::new(self.cpus.conds.len() as u32 - 1)
    }

    /// Creates a counting semaphore with an initial count.
    pub fn create_sem(&mut self, initial: u32) -> SemId {
        self.cpus.sems.push(Sem { count: initial, waiters: VecDeque::new() });
        SemId::new(self.cpus.sems.len() as u32 - 1)
    }

    /// Runs the machine for `cycles` bus cycles on its
    /// [`engine`](TopazConfig::engine), the CPU set before the I/O system
    /// in each cycle, and returns the event engine's counters for the
    /// run.
    pub fn run(&mut self, cycles: u64) -> EngineStats {
        let engine = self.cpus.cfg.engine;
        match &mut self.io {
            None => engine.run(std::slice::from_mut(&mut self.cpus), &mut self.sys, cycles),
            Some(io) => {
                let mut agents: [&mut dyn Agent; 2] = [&mut self.cpus, io];
                engine.run(&mut agents, &mut self.sys, cycles)
            }
        }
    }

    /// Elapsed bus cycles: the memory system's clock.
    pub fn cycle(&self) -> u64 {
        self.sys.cycle()
    }

    /// Runtime counters.
    pub fn stats(&self) -> &TopazStats {
        &self.cpus.stats
    }

    /// The memory system (for its Table 2 counters).
    pub fn memory(&self) -> &MemSystem {
        &self.sys
    }

    /// Mutable access to the memory system (e.g. to post an
    /// interprocessor interrupt between runs).
    pub fn memory_mut(&mut self) -> &mut MemSystem {
        &mut self.sys
    }

    /// The I/O system, if attached.
    pub fn io(&self) -> Option<&I> {
        self.io.as_ref()
    }

    /// Mutable access to the I/O system, if attached.
    pub fn io_mut(&mut self) -> Option<&mut I> {
        self.io.as_mut()
    }

    /// Whether thread `t` has exited.
    pub fn is_exited(&self, t: ThreadId) -> bool {
        matches!(self.cpus.threads[t.index()].status, Status::Exited)
    }

    /// Whether every spawned thread has exited (join-all).
    pub fn all_exited(&self) -> bool {
        self.cpus.threads.iter().all(|t| matches!(t.status, Status::Exited))
    }

    /// Scheduler dispatch/migration counts.
    pub fn migrations(&self) -> u64 {
        self.cpus.sched.migrations()
    }

    /// The structured trace events captured so far — bus, coherence,
    /// fault, *and* scheduler context-switch events interleaved on the
    /// same cycle clock. Empty unless [`TopazConfig::trace_events`] is
    /// non-zero. Leaves the ring intact.
    pub fn events(&self) -> Vec<Event> {
        self.sys.events()
    }

    /// Drains the structured trace events captured so far.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.sys.take_events()
    }
}

/// The CPU set ticks every engine in a cycle where one is due: an engine
/// that is not due ticks a pure bookkeeping tick, and an idle one finds
/// out only at its turn whether an earlier engine's commit has made a
/// thread runnable for it.
impl Agent for CpuSet {
    fn ports(&self) -> Range<usize> {
        0..self.engines.len()
    }

    fn tick(&mut self, sys: &mut MemSystem) {
        let from = sys.cycle() + 1;
        (self.busy_wake, self.unfixed) = (u64::MAX, 0);
        for cpu in 0..self.engines.len() {
            self.tick_engine(cpu, sys);
            let e = &self.engines[cpu];
            let wake = match (e.current, &e.state) {
                (None, _) => u64::MAX,
                (Some(_), EngineState::Computing { until }) => *until,
                (Some(_), EngineState::WaitingMem) => match sys.completion_cycle(e.port) {
                    Some(at) => at.max(from),
                    None => {
                        self.unfixed |= 1 << cpu;
                        u64::MAX
                    }
                },
            };
            self.busy_wake = self.busy_wake.min(wake);
        }
        // The sweep that follows this cycle's step.
        if (from.is_multiple_of(TIMEOUT_SWEEP_CYCLES) && self.sweep_timeouts(from)) || self.stale {
            self.refresh(from);
        }
    }

    /// Crediting idle ticks moves no engine's wake cycle, so only the
    /// unfixed completions are looked up again.
    fn wake(&self, from: u64, sys: &MemSystem) -> u64 {
        let unfixed =
            self.engines.iter().enumerate().filter(|&(cpu, _)| self.unfixed >> cpu & 1 == 1);
        let fixed = unfixed.filter_map(|(_, e)| sys.completion_cycle(e.port));
        fixed.fold(self.busy_wake.min(self.ready_wake), u64::min).max(from)
    }

    /// Only idle engines count their ticks; the others keep deadlines.
    fn advance_idle(&mut self, n: u64, sys: &MemSystem) {
        if n == 0 {
            return;
        }
        for (cpu, e) in self.engines.iter().enumerate() {
            if e.current.is_none() {
                self.sched.note_idle_cycles(cpu, n);
                self.stats.idle_cycles += n;
            }
        }
        let now = sys.cycle();
        if now.is_multiple_of(TIMEOUT_SWEEP_CYCLES) && self.sweep_timeouts(now) {
            self.refresh(now);
        }
    }
}

impl CpuSet {
    /// Recomputes [`ready_wake`](CpuSet::ready_wake) for a set settled to
    /// `from`. Each condition queue holds its waiters in blocking order.
    fn refresh(&mut self, from: u64) {
        let idle = self.engines.iter().enumerate().filter(|(_, e)| e.current.is_none());
        let dispatch = idle.map(|(cpu, _)| self.sched.dispatch_cycle(cpu, from));
        let oldest = self.conds.iter().filter_map(|c| c.waiters.front());
        let sweep = oldest
            .map(|w| self.threads[w.index()].blocked_since + WAIT_TIMEOUT_CYCLES)
            .min()
            .map_or(u64::MAX, |at| at.max(from + 1).next_multiple_of(TIMEOUT_SWEEP_CYCLES));
        self.ready_wake = dispatch.fold(sweep, u64::min);
        self.stale = false;
    }

    fn tick_engine(&mut self, cpu: usize, sys: &mut MemSystem) {
        // Dispatch if idle.
        if self.engines[cpu].current.is_none() {
            match self.sched.dispatch(cpu) {
                Some((t, migrated)) => {
                    self.stale = true;
                    self.stats.dispatches += 1;
                    self.stats.migrations = self.sched.migrations();
                    if sys.events_enabled() {
                        sys.emit_event(EventKind::ContextSwitch {
                            cpu: cpu as u32,
                            thread: t.index() as u32,
                            migrated,
                        });
                    }
                    let th = &mut self.threads[t.index()];
                    th.status = Status::Running(cpu);
                    th.last_cpu = Some(cpu);
                    self.engines[cpu].current = Some(t);
                    // Context-switch cost: Nub scheduler work (a few
                    // scheduler-word references plus dispatch-path
                    // instructions).
                    let e = &mut self.engines[cpu];
                    e.refq.clear();
                    for i in 0..4u32 {
                        e.refq.push_back(QueuedRef {
                            addr: layout::sched_word(cpu as u32 * 8 + i),
                            write: i % 2 == 1,
                            gap_before: 0,
                        });
                    }
                    e.compute_left = CONTEXT_SWITCH_INSTRUCTIONS;
                    e.commit = Commit::StartCurrent;
                    e.state = EngineState::Computing { until: sys.cycle() };
                }
                None => {
                    self.sched.note_idle(cpu);
                    self.stats.idle_cycles += 1;
                    return;
                }
            }
        }

        let acts = match self.engines[cpu].state {
            EngineState::Computing { until } => until <= sys.cycle(),
            EngineState::WaitingMem => sys.poll(self.engines[cpu].port).is_some(),
        };
        if acts {
            self.advance_work(cpu, sys);
        }
    }

    /// Issues the next queued reference, refills the queue from the
    /// in-progress op, or applies the op's commit action.
    fn advance_work(&mut self, cpu: usize, sys: &mut MemSystem) {
        loop {
            // Issue the next reference if one is queued.
            if let Some(r) = self.engines[cpu].refq.pop_front() {
                if r.gap_before > 0 {
                    self.engines[cpu].refq.push_front(QueuedRef { gap_before: 0, ..r });
                    let until = sys.cycle() + 1 + r.gap_before;
                    self.engines[cpu].state = EngineState::Computing { until };
                    return;
                }
                let req = if r.write {
                    Request::write(r.addr, sys.cycle() as u32)
                } else {
                    Request::read(r.addr)
                };
                let port = self.engines[cpu].port;
                sys.begin(port, req).unwrap_or_else(|e| panic!("CPU {cpu} reference failed: {e}"));
                self.engines[cpu].state = EngineState::WaitingMem;
                return;
            }

            // Queue drained: more compute instructions?
            if self.engines[cpu].compute_left > 0 {
                let t = self.engines[cpu].current.expect("engine has a thread");
                let gap = {
                    let e = &mut self.engines[cpu];
                    let total = self.cfg.cpu.compute_cycles_per_instruction() / 0.95 + e.gap_carry;
                    let whole = total.floor();
                    e.gap_carry = total - whole;
                    whole as u64
                };
                self.engines[cpu].compute_left -= 1;
                let th = &mut self.threads[t.index()];
                let mut q = std::mem::take(&mut self.engines[cpu].refq);
                th.gen.bundle(&mut q, gap);
                self.engines[cpu].refq = q;
                continue;
            }

            // Op finished: apply its commit.
            if self.apply_commit(cpu, sys.cycle()) {
                // Thread still on this CPU: start its next op.
                self.start_op(cpu);
                continue;
            }
            return; // switched away or idle
        }
    }

    /// Applies the pending commit. Returns whether the engine still has
    /// a running thread afterwards.
    fn apply_commit(&mut self, cpu: usize, now: u64) -> bool {
        let t = self.engines[cpu].current.expect("commit with a thread");
        let commit = self.engines[cpu].commit;
        self.stale = true;
        match commit {
            Commit::Advance => {}
            Commit::StartCurrent => return true,
            Commit::LockAttempt(m) => {
                let mx = &mut self.mutexes[m.index()];
                match mx.holder {
                    None => {
                        mx.holder = Some(t);
                        self.stats.lock_acquires += 1;
                    }
                    Some(h) => {
                        assert_ne!(h, t, "{t} relocked {m} it already holds");
                        mx.waiters.push_back(t);
                        self.stats.lock_contentions += 1;
                        return self.block(cpu, Status::BlockedMutex(m), now);
                    }
                }
            }
            Commit::Release(m) => {
                let mx = &mut self.mutexes[m.index()];
                assert_eq!(mx.holder, Some(t), "{t} released {m} it does not hold");
                // Direct hand-off: the waiter owns the mutex and resumes
                // past its Lock op.
                mx.holder = mx.waiters.pop_front();
                if let Some(w) = mx.holder {
                    self.stats.lock_acquires += 1;
                    self.resume(w);
                }
            }
            Commit::WaitBlock(c) => {
                self.conds[c.index()].waiters.push_back(t);
                return self.block(cpu, Status::BlockedCond(c), now);
            }
            Commit::SignalWake(c, broadcast) => {
                self.stats.signals += 1;
                let n = if broadcast { usize::MAX } else { 1 };
                for _ in 0..n {
                    let Some(w) = self.conds[c.index()].waiters.pop_front() else { break };
                    self.stats.wakeups += 1;
                    self.resume(w);
                }
            }
            Commit::YieldNow => {
                let th = &mut self.threads[t.index()];
                th.pc += 1;
                th.status = Status::Ready;
                self.sched.enqueue(t, Some(cpu));
                self.engines[cpu].current = None;
                return false;
            }
            Commit::SemDown(sm) => {
                let sem = &mut self.sems[sm.index()];
                if sem.count == 0 {
                    sem.waiters.push_back(t);
                    return self.block(cpu, Status::BlockedSem(sm), now);
                }
                sem.count -= 1;
            }
            Commit::SemUp(sm) => match self.sems[sm.index()].waiters.pop_front() {
                // Direct hand-off: the waiter consumes the V.
                Some(w) => {
                    self.stats.wakeups += 1;
                    self.resume(w);
                }
                None => self.sems[sm.index()].count += 1,
            },
            Commit::ForkChild(sid) => {
                assert!(sid.index() < self.scripts.len(), "script {sid:?} not registered");
                self.add_thread(self.scripts[sid.index()].clone(), Some(t));
                self.threads[t.index()].live_children += 1;
            }
            Commit::JoinWait => {
                if self.threads[t.index()].live_children > 0 {
                    return self.block(cpu, Status::Joining, now);
                }
            }
            Commit::ExitNow => {
                self.threads[t.index()].status = Status::Exited;
                self.stats.thread_exits += 1;
                self.engines[cpu].current = None;
                // Notify a joining parent.
                if let Some(parent) = self.threads[t.index()].parent {
                    let pt = &mut self.threads[parent.index()];
                    pt.live_children -= 1;
                    if pt.live_children == 0 && matches!(pt.status, Status::Joining) {
                        self.resume(parent);
                    }
                }
                return false;
            }
        }
        self.threads[t.index()].pc += 1;
        true
    }

    /// Adds a runnable thread running `script`, forked by `parent`.
    fn add_thread(&mut self, script: Script, parent: Option<ThreadId>) -> ThreadId {
        assert!(
            self.threads.len() < layout::MAX_THREADS,
            "the address-space layout supports at most {} threads",
            layout::MAX_THREADS
        );
        let t = ThreadId::new(self.threads.len() as u32);
        self.threads.push(Thread {
            script,
            pc: 0,
            status: Status::Ready,
            last_cpu: None,
            gen: ThreadGen::new(t, self.cfg.seed),
            blocked_since: 0,
            live_children: 0,
            parent,
        });
        self.sched.enqueue(t, None);
        t
    }

    /// Makes blocked thread `w` runnable past the op it blocked in.
    fn resume(&mut self, w: ThreadId) {
        let th = &mut self.threads[w.index()];
        th.status = Status::Ready;
        th.pc += 1;
        let last = th.last_cpu;
        self.sched.enqueue(w, last);
    }

    /// Blocks `cpu`'s thread in `status` from cycle `now`, leaving the
    /// engine idle; false, for [`apply_commit`](CpuSet::apply_commit).
    fn block(&mut self, cpu: usize, status: Status, now: u64) -> bool {
        let t = self.engines[cpu].current.take().expect("blocking a running thread");
        let th = &mut self.threads[t.index()];
        th.status = status;
        th.blocked_since = now;
        false
    }

    /// Loads the current thread's op at its pc into the engine.
    fn start_op(&mut self, cpu: usize) {
        let t = self.engines[cpu].current.expect("start_op with a thread");
        let op = {
            let th = &self.threads[t.index()];
            th.script.op_at(th.pc)
        };
        let shared_words = self.cfg.shared_buffer_words;
        let e = &mut self.engines[cpu];
        e.refq.clear();
        e.compute_left = 0;
        match op {
            ThreadOp::Compute { instructions } => {
                e.compute_left = instructions;
                e.commit = Commit::Advance;
            }
            ThreadOp::TouchShared { words, write_fraction } => {
                let th = &mut self.threads[t.index()];
                let start: u32 = th.gen.rng.gen_range(0..shared_words.max(1));
                for i in 0..words {
                    let write = th.gen.rng.gen_bool(f64::from(write_fraction));
                    e.refq.push_back(QueuedRef {
                        addr: layout::shared_word(start + i, shared_words),
                        write,
                        gap_before: if i == 0 { 0 } else { 2 },
                    });
                }
                e.commit = Commit::Advance;
            }
            // Interlocked test-and-set traffic on the lock, condition or
            // semaphore word: a read, then a write.
            ThreadOp::Lock(m) => {
                e.touch(layout::mutex_word(m), &[false, true], Commit::LockAttempt(m))
            }
            ThreadOp::Unlock(m) => e.touch(layout::mutex_word(m), &[true], Commit::Release(m)),
            ThreadOp::Wait(c) => {
                e.touch(layout::cond_word(c), &[false, true], Commit::WaitBlock(c))
            }
            ThreadOp::Signal(c) => {
                e.touch(layout::cond_word(c), &[false, true], Commit::SignalWake(c, false));
            }
            ThreadOp::Broadcast(c) => {
                e.touch(layout::cond_word(c), &[false, true], Commit::SignalWake(c, true));
            }
            ThreadOp::Yield => e.touch(layout::sched_word(cpu as u32), &[false], Commit::YieldNow),
            ThreadOp::SemP(sm) => {
                e.touch(layout::sem_word(sm), &[false, true], Commit::SemDown(sm))
            }
            ThreadOp::SemV(sm) => e.touch(layout::sem_word(sm), &[false, true], Commit::SemUp(sm)),
            // The Fork and Join paths touch the scheduler structures.
            ThreadOp::Fork(sid) => {
                e.touch(layout::sched_word(64 + cpu as u32), &[true], Commit::ForkChild(sid));
            }
            ThreadOp::JoinChildren => {
                e.touch(layout::sched_word(128 + cpu as u32), &[false], Commit::JoinWait);
            }
            ThreadOp::Exit => {
                e.commit = Commit::ExitNow;
            }
        }
        // Validate sync object ids eagerly for a clear panic.
        match op {
            ThreadOp::Lock(m) | ThreadOp::Unlock(m) => {
                assert!(m.index() < self.mutexes.len(), "{m} does not exist");
            }
            ThreadOp::Wait(c) | ThreadOp::Signal(c) | ThreadOp::Broadcast(c) => {
                assert!(c.index() < self.conds.len(), "{c} does not exist");
            }
            ThreadOp::SemP(sm) | ThreadOp::SemV(sm) => {
                assert!(sm.index() < self.sems.len(), "{sm} does not exist");
            }
            _ => {}
        }
    }

    /// Wakes condition waiters whose timeout expired, on a sweep cycle
    /// (a multiple of [`TIMEOUT_SWEEP_CYCLES`]). Returns whether it woke
    /// any.
    fn sweep_timeouts(&mut self, now: u64) -> bool {
        let mut woken: Vec<ThreadId> = Vec::new();
        for cond in &mut self.conds {
            cond.waiters.retain(|&w| {
                let th = &self.threads[w.index()];
                if now.saturating_sub(th.blocked_since) >= WAIT_TIMEOUT_CYCLES {
                    woken.push(w);
                    false
                } else {
                    true
                }
            });
        }
        for &w in &woken {
            self.stats.timeouts += 1;
            self.resume(w);
        }
        !woken.is_empty()
    }
}

impl<I> fmt::Debug for TopazMachine<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TopazMachine")
            .field("cpus", &self.cpus.cfg.cpus)
            .field("threads", &self.cpus.threads.len())
            .field("cycle", &self.sys.cycle())
            .field("stats", &self.cpus.stats)
            .field("io", &self.io.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_exit(n: u32) -> Script {
        Script::new(vec![ThreadOp::Compute { instructions: n }, ThreadOp::Exit])
    }

    #[test]
    fn single_thread_computes_and_exits() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        let t = m.spawn(compute_exit(500));
        m.run(80_000);
        assert!(m.is_exited(t));
        assert_eq!(m.stats().thread_exits, 1);
        assert!(m.memory().cache_stats(PortId::new(0)).cpu_refs() > 500);
    }

    #[test]
    fn threads_spread_across_cpus() {
        let mut m = TopazMachine::new(TopazConfig::microvax(4));
        for _ in 0..4 {
            m.spawn(compute_exit(2_000));
        }
        m.run(300_000);
        assert!(m.all_exited());
        // Every CPU did work.
        for p in 0..4 {
            assert!(m.memory().cache_stats(PortId::new(p)).cpu_refs() > 1_000, "CPU {p} sat idle");
        }
    }

    #[test]
    fn tracing_captures_context_switches_on_the_bus_clock() {
        let mut cfg = TopazConfig::microvax(2);
        cfg.trace_events = 1 << 17;
        let mut m = TopazMachine::new(cfg);
        for _ in 0..3 {
            m.spawn(compute_exit(1_000));
        }
        m.run(150_000);
        assert!(m.all_exited());
        assert_eq!(m.memory().events_dropped(), 0, "ring sized for the whole run");
        let events = m.events();
        let switches: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ContextSwitch { cpu, thread, .. } => Some((e.cycle, cpu, thread)),
                _ => None,
            })
            .collect();
        assert_eq!(switches.len() as u64, m.stats().dispatches);
        assert!(switches.iter().any(|&(_, cpu, _)| cpu == 1), "second CPU dispatched");
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::BusCompleted { .. })),
            "scheduler events interleave with bus traffic"
        );
        // Draining empties the ring; an untraced machine records nothing.
        assert!(!m.take_events().is_empty());
        assert!(m.events().is_empty());
        let mut plain = TopazMachine::new(TopazConfig::microvax(1));
        plain.spawn(compute_exit(100));
        plain.run(20_000);
        assert!(plain.events().is_empty());
    }

    #[test]
    fn mutex_provides_mutual_exclusion_and_counts_contention() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let mx = m.create_mutex();
        for _ in 0..2 {
            m.spawn(Script::new(vec![
                ThreadOp::Lock(mx),
                ThreadOp::Compute { instructions: 300 },
                ThreadOp::Unlock(mx),
                ThreadOp::Exit,
            ]));
        }
        m.run(200_000);
        assert!(m.all_exited());
        assert_eq!(m.stats().lock_acquires, 2);
        assert!(m.stats().lock_contentions >= 1, "the critical sections overlap");
    }

    #[test]
    fn condition_signal_wakes_waiter() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let c = m.create_cond();
        m.spawn(Script::new(vec![ThreadOp::Wait(c), ThreadOp::Exit]));
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 500 },
            ThreadOp::Signal(c),
            ThreadOp::Exit,
        ]));
        m.run(200_000);
        assert!(m.all_exited());
        assert_eq!(m.stats().wakeups, 1);
        assert_eq!(m.stats().timeouts, 0);
    }

    #[test]
    fn broadcast_wakes_everyone() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let c = m.create_cond();
        for _ in 0..3 {
            m.spawn(Script::new(vec![ThreadOp::Wait(c), ThreadOp::Exit]));
        }
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 300 },
            ThreadOp::Broadcast(c),
            ThreadOp::Exit,
        ]));
        m.run(400_000);
        assert!(m.all_exited());
        assert_eq!(m.stats().wakeups, 3);
    }

    #[test]
    fn wait_times_out_instead_of_deadlocking() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        let c = m.create_cond();
        m.spawn(Script::new(vec![ThreadOp::Wait(c), ThreadOp::Exit]));
        m.run(100_000);
        assert!(m.all_exited(), "timeout rescued the waiter");
        assert_eq!(m.stats().timeouts, 1);
    }

    #[test]
    fn yield_round_robins_on_one_cpu() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        for _ in 0..2 {
            m.spawn(Script::new(vec![
                ThreadOp::Compute { instructions: 50 },
                ThreadOp::Yield,
                ThreadOp::Compute { instructions: 50 },
                ThreadOp::Exit,
            ]));
        }
        m.run(150_000);
        assert!(m.all_exited());
        assert!(m.stats().dispatches >= 4, "yield forces redispatch");
    }

    #[test]
    fn fork_and_join_children() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let child = m.register_script(Script::new(vec![
            ThreadOp::Compute { instructions: 150 },
            ThreadOp::Exit,
        ]));
        m.spawn(Script::new(vec![
            ThreadOp::Fork(child),
            ThreadOp::Fork(child),
            ThreadOp::Fork(child),
            ThreadOp::JoinChildren,
            ThreadOp::Compute { instructions: 10 },
            ThreadOp::Exit,
        ]));
        m.run(300_000);
        assert!(m.all_exited(), "parent joined all three children: {:?}", m.stats());
        assert_eq!(m.stats().thread_exits, 4);
    }

    #[test]
    fn join_with_no_children_is_immediate() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        m.spawn(Script::new(vec![ThreadOp::JoinChildren, ThreadOp::Exit]));
        m.run(50_000);
        assert!(m.all_exited());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn fork_of_unregistered_script_panics() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        m.spawn(Script::new(vec![ThreadOp::Fork(crate::program::ScriptId(9)), ThreadOp::Exit]));
        m.run(50_000);
    }

    #[test]
    fn semaphore_v_before_p_is_not_lost() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let sm = m.create_sem(0);
        // The V-er runs (and finishes) long before the P-er arrives.
        m.spawn(Script::new(vec![ThreadOp::SemV(sm), ThreadOp::Exit]));
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 400 },
            ThreadOp::SemP(sm),
            ThreadOp::Exit,
        ]));
        m.run(100_000);
        assert!(m.all_exited(), "the early V satisfied the late P: {:?}", m.stats());
        assert_eq!(m.stats().timeouts, 0);
    }

    #[test]
    fn semaphore_p_blocks_until_v() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        let sm = m.create_sem(0);
        m.spawn(Script::new(vec![ThreadOp::SemP(sm), ThreadOp::Exit]));
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 300 },
            ThreadOp::SemV(sm),
            ThreadOp::Exit,
        ]));
        m.run(100_000);
        assert!(m.all_exited());
        assert_eq!(m.stats().wakeups, 1, "the P-er was woken by the V");
    }

    #[test]
    fn semaphore_counts_permits() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        let sm = m.create_sem(2);
        // Three P's against an initial count of 2 and one V.
        m.spawn(Script::new(vec![
            ThreadOp::SemP(sm),
            ThreadOp::SemP(sm),
            ThreadOp::SemP(sm),
            ThreadOp::Exit,
        ]));
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 200 },
            ThreadOp::SemV(sm),
            ThreadOp::Exit,
        ]));
        m.run(200_000);
        assert!(m.all_exited(), "{:?}", m.stats());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_without_hold_panics() {
        let mut m = TopazMachine::new(TopazConfig::microvax(1));
        let mx = m.create_mutex();
        m.spawn(Script::new(vec![ThreadOp::Unlock(mx), ThreadOp::Exit]));
        m.run(50_000);
    }

    #[test]
    fn avoid_migration_migrates_less_than_free() {
        let migs = |policy| {
            let mut cfg = TopazConfig::microvax(4);
            cfg.migration = policy;
            let mut m = TopazMachine::new(cfg);
            for _ in 0..8 {
                m.spawn(Script::new(vec![
                    ThreadOp::Compute { instructions: 100 },
                    ThreadOp::Yield,
                ]));
            }
            m.run(300_000);
            (m.migrations(), m.stats().dispatches)
        };
        let (avoid, d1) = migs(MigrationPolicy::AvoidMigration);
        let (free, d2) = migs(MigrationPolicy::FreeMigration);
        assert!(d1 > 50 && d2 > 50, "both ran ({d1}, {d2} dispatches)");
        assert!(
            (avoid as f64) < (free as f64) * 0.5,
            "affinity scheduling migrates far less: avoid={avoid}, free={free}"
        );
    }

    #[test]
    fn shared_touches_create_coherence_traffic() {
        let mut m = TopazMachine::new(TopazConfig::microvax(2));
        for _ in 0..2 {
            m.spawn(Script::new(vec![
                ThreadOp::TouchShared { words: 32, write_fraction: 0.5 },
                ThreadOp::Yield,
            ]));
        }
        m.run(300_000);
        let wt: u64 = (0..2).map(|p| m.memory().cache_stats(PortId::new(p)).wt_shared).sum();
        assert!(wt > 10, "shared writes must write through with MShared: {wt}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = TopazMachine::new(TopazConfig::microvax(2));
            let mx = m.create_mutex();
            for _ in 0..3 {
                m.spawn(Script::new(vec![
                    ThreadOp::Lock(mx),
                    ThreadOp::TouchShared { words: 8, write_fraction: 0.5 },
                    ThreadOp::Unlock(mx),
                    ThreadOp::Yield,
                ]));
            }
            m.run(120_000);
            (*m.stats(), m.memory().bus_stats().ops())
        };
        assert_eq!(run(), run());
    }
}
