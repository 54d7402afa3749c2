//! The DMA engine: paced word transfers through the I/O processor's
//! cache.
//!
//! "Both controllers are direct memory access (DMA) devices, and do data
//! transfers directly to Firefly memory through the I/O processor's
//! cache" — and "DMA misses do not allocate" (§3, §5). The pacing
//! default reproduces the §5 bandwidth statement: "When fully loaded,
//! the QBus consumes about 30% of the main memory bandwidth" — the MBus
//! moves a word per 400 ns, so a saturated QBus moves roughly a word per
//! 1.3 µs.

use firefly_core::events::{EventKind, FaultClass};
use firefly_core::fault::{site, FaultConfig, FaultSite};
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, Error, PortId};
use std::collections::VecDeque;
use std::fmt;

/// Cycles (100 ns) between QBus word transfers at full load: ≈30% of
/// the MBus's one-word-per-4-cycles bandwidth.
pub const DEFAULT_CYCLES_PER_WORD: u64 = 13;

/// Consecutive timeouts after which a transfer stops retrying, logs
/// [`Error::DeviceTimeout`], and is forced through.
pub const MAX_DEVICE_RETRIES: u8 = 6;

/// Watchdog trips after which a wedged word is abandoned (with an
/// [`Error::DeviceTimeout`]) instead of retried through a device reset.
pub const MAX_WATCHDOG_RESETS: u8 = 3;

/// QBus timeout fault state (see [`firefly_core::fault`]).
#[derive(Debug)]
struct DmaFaults {
    site: FaultSite,
    timeout_ppm: u32,
    /// Consecutive timeouts for the word at the head of the queue.
    attempt: u8,
    timeouts: u64,
    retries: u64,
    errors: Vec<Error>,
}

/// One queued DMA word operation (addresses already QBus-translated).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DmaOp {
    /// Read a word from Firefly memory (device input from memory).
    Read {
        /// Physical address.
        addr: Addr,
        /// Caller-chosen tag returned with the completion.
        tag: u32,
    },
    /// Write a word to Firefly memory (device output to memory).
    Write {
        /// Physical address.
        addr: Addr,
        /// The value written.
        value: u32,
        /// Caller-chosen tag returned with the completion.
        tag: u32,
    },
}

impl DmaOp {
    /// The operation's completion: a read returns `read`, a write its
    /// own value.
    pub fn complete(self, read: u32) -> DmaCompletion {
        match self {
            DmaOp::Read { addr, tag } => DmaCompletion { addr, value: read, was_read: true, tag },
            DmaOp::Write { addr, value, tag } => {
                DmaCompletion { addr, value, was_read: false, tag }
            }
        }
    }
}

/// A completed DMA word operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DmaCompletion {
    /// The physical address accessed.
    pub addr: Addr,
    /// The value read (or the value that was written).
    pub value: u32,
    /// Whether this was a read.
    pub was_read: bool,
    /// The tag supplied with the operation.
    pub tag: u32,
}

/// The word-at-a-time DMA engine on the I/O processor's port.
///
/// Multiple devices enqueue [`DmaOp`]s; the engine issues them in order,
/// paced to the QBus rate, as `dma_read`/`dma_write` requests on port 0
/// (so they traverse the I/O processor's snoopy cache without
/// allocating).
pub struct DmaEngine {
    pub(crate) port: PortId,
    queue: VecDeque<DmaOp>,
    cycles_per_word: u64,
    countdown: u64,
    in_flight: Option<DmaOp>,
    words_read: u64,
    words_written: u64,
    faults: Option<DmaFaults>,
    /// Cycles an in-flight word may go unacknowledged before the
    /// watchdog resets the device. `None` disables the watchdog.
    watchdog: Option<u64>,
    /// Cycles the current in-flight word has been outstanding.
    age: u64,
    /// Consecutive watchdog resets for the word at the head of the line.
    wd_attempts: u8,
    /// Watchdog trips so far (resets plus abandonments).
    wd_trips: u64,
    /// Test hook: the device stops acknowledging completions.
    wedged: bool,
    /// A watchdog-abandoned word is still outstanding at the memory
    /// system; its stale completion must be drained before the next
    /// issue (the port allows one outstanding access).
    discard: bool,
    /// Hard [`Error::DeviceTimeout`] records from exhausted watchdogs.
    wd_errors: Vec<Error>,
}

impl DmaEngine {
    /// An engine on the I/O processor's port with default QBus pacing.
    pub fn new() -> Self {
        DmaEngine::with_pacing(DEFAULT_CYCLES_PER_WORD)
    }

    /// An engine with explicit pacing (cycles between word issues).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_word` is zero.
    pub fn with_pacing(cycles_per_word: u64) -> Self {
        DmaEngine::on_port(PortId::new(0), cycles_per_word)
    }

    /// An engine on an explicit port. Use this when the I/O processor's
    /// port also carries a simulated CPU: the MemSystem allows one
    /// outstanding access per port, so DMA then needs a port of its own
    /// (a no-allocate port is behaviourally identical to sharing the I/O
    /// cache, because DMA leaves that cache empty anyway).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_word` is zero.
    pub fn on_port(port: PortId, cycles_per_word: u64) -> Self {
        assert!(cycles_per_word > 0, "pacing must be nonzero");
        DmaEngine {
            port,
            queue: VecDeque::new(),
            cycles_per_word,
            countdown: 0,
            in_flight: None,
            words_read: 0,
            words_written: 0,
            faults: None,
            watchdog: None,
            age: 0,
            wd_attempts: 0,
            wd_trips: 0,
            wedged: false,
            discard: false,
            wd_errors: Vec::new(),
        }
    }

    /// Arms (or with `None` disarms) the device watchdog: an in-flight
    /// word unacknowledged for more than `budget` cycles resets the
    /// device and retries, with the patience doubling on each
    /// consecutive reset; after [`MAX_WATCHDOG_RESETS`] the word is
    /// abandoned with an [`Error::DeviceTimeout`] so the engine degrades
    /// instead of hanging the transfer queue forever.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// Watchdog trips so far (device resets plus abandonments).
    pub fn watchdog_trips(&self) -> u64 {
        self.wd_trips
    }

    /// Test hook: wedges the device — it stops acknowledging
    /// completions, as a hung controller would. Only a watchdog reset
    /// (or [`DmaEngine::unwedge`]) recovers it.
    pub fn wedge(&mut self) {
        self.wedged = true;
    }

    /// Test hook: un-wedges the device by hand.
    pub fn unwedge(&mut self) {
        self.wedged = false;
    }

    /// Installs the QBus timeout fault model. A zero `dma_timeout_ppm`
    /// rate leaves the engine untouched.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.faults = if cfg.dma_timeout_ppm == 0 {
            None
        } else {
            Some(DmaFaults {
                site: FaultSite::new(cfg.seed, site::DMA),
                timeout_ppm: cfg.dma_timeout_ppm,
                attempt: 0,
                timeouts: 0,
                retries: 0,
                errors: Vec::new(),
            })
        };
    }

    /// Injected QBus timeouts so far.
    pub fn timeouts(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.timeouts)
    }

    /// Timed-out words retried (with backoff) rather than abandoned.
    pub fn device_retries(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.retries)
    }

    /// Takes the accumulated [`Error::DeviceTimeout`] records (transfers
    /// whose retry budget ran out, or words the watchdog abandoned).
    pub fn drain_fault_errors(&mut self) -> Vec<Error> {
        let mut out = std::mem::take(&mut self.wd_errors);
        if let Some(f) = &mut self.faults {
            out.append(&mut f.errors);
        }
        out
    }

    /// Queues an operation.
    pub fn enqueue(&mut self, op: DmaOp) {
        self.queue.push_back(op);
    }

    /// Queued operations not yet issued.
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// Whether the engine has nothing queued or in flight (including an
    /// abandoned word whose stale completion is still being drained).
    pub fn is_idle(&self) -> bool {
        self.backlog() == 0 && !self.discard
    }

    /// Words read from memory so far.
    pub fn words_read(&self) -> u64 {
        self.words_read
    }

    /// Words written to memory so far.
    pub fn words_written(&self) -> u64 {
        self.words_written
    }

    /// Advances one bus cycle: polls the in-flight word and issues the
    /// next when the pacing interval allows. Call once per
    /// [`MemSystem::step`]. Returns a completion when a word finishes.
    pub fn tick(&mut self, sys: &mut MemSystem) -> Option<DmaCompletion> {
        // The pacing interval runs concurrently with the in-flight word:
        // it spaces *issues*, it is not a post-completion delay.
        self.countdown = self.countdown.saturating_sub(1);
        if self.discard {
            // A watchdog-abandoned word is still outstanding at the
            // memory system; its completion belongs to nobody. Drain it
            // before anything else may issue on this port.
            if sys.poll(self.port).is_some() {
                self.discard = false;
            }
            return None;
        }
        if let Some(op) = self.in_flight {
            if !self.wedged {
                if let Some(result) = sys.poll(self.port) {
                    self.in_flight = None;
                    self.age = 0;
                    self.wd_attempts = 0;
                    match op {
                        DmaOp::Read { .. } => self.words_read += 1,
                        DmaOp::Write { .. } => self.words_written += 1,
                    }
                    return Some(op.complete(result.value));
                }
            }
            self.age += 1;
            self.check_watchdog(sys);
            return None;
        }
        if self.countdown > 0 {
            return None;
        }
        if let Some(op) = self.queue.pop_front() {
            // QBus timeout fault: the word fails to issue and retries
            // after an exponential backoff. Past the retry budget the
            // hard error is logged and the word is forced through — a
            // wedged engine would stall every transfer queued behind it.
            if let Some(f) = &mut self.faults {
                if f.site.fires(f.timeout_ppm) {
                    f.timeouts += 1;
                    f.attempt += 1;
                    if f.attempt <= MAX_DEVICE_RETRIES {
                        f.retries += 1;
                        self.countdown = self.cycles_per_word << f.attempt;
                        self.queue.push_front(op);
                        return None;
                    }
                    f.errors.push(Error::DeviceTimeout { device: "dma" });
                }
                f.attempt = 0;
            }
            let req = match op {
                DmaOp::Read { addr, .. } => Request::dma_read(addr),
                DmaOp::Write { addr, value, .. } => Request::dma_write(addr, value),
            };
            sys.begin(self.port, req).unwrap_or_else(|e| panic!("DMA issue failed: {e}"));
            self.in_flight = Some(op);
            self.age = 0;
            self.countdown = self.cycles_per_word;
        }
        None
    }

    /// The first cycle from `from` on that its tick acts: a poll that
    /// succeeds, a watchdog trip, or an issue once the pacing runs out.
    pub(crate) fn wake(&self, from: u64, sys: &MemSystem) -> u64 {
        let completion = sys.completion_cycle(self.port).map_or(u64::MAX, |at| at.max(from));
        if self.discard {
            return completion;
        }
        match self.in_flight {
            Some(_) => {
                let done = if self.wedged { u64::MAX } else { completion };
                let trip = self.watchdog.map_or(u64::MAX, |budget| {
                    from.saturating_add(
                        (budget << self.wd_attempts.min(6)).saturating_sub(self.age),
                    )
                });
                done.min(trip)
            }
            None if !self.queue.is_empty() => from + self.countdown.saturating_sub(1),
            None => u64::MAX,
        }
    }

    /// Credits `n` ticks before [`wake`](DmaEngine::wake).
    pub(crate) fn advance_idle(&mut self, n: u64) {
        self.countdown = self.countdown.saturating_sub(n);
        if self.in_flight.is_some() {
            self.age += n;
        }
    }

    /// Fires the watchdog when the in-flight word has outlived its
    /// (backed-off) patience: resets the device and retries the word,
    /// or abandons it once the reset budget is exhausted.
    fn check_watchdog(&mut self, sys: &mut MemSystem) {
        let Some(budget) = self.watchdog else { return };
        // Bounded exponential backoff: each consecutive reset doubles
        // the patience before the next trip.
        let patience = budget << self.wd_attempts.min(6);
        if self.age <= patience {
            return;
        }
        let op = self.in_flight.take().expect("watchdog only runs with a word in flight");
        self.wd_trips += 1;
        self.age = 0;
        // Device reset clears the wedge; the request already issued to
        // the memory system cannot be recalled, so its completion is
        // drained and discarded before the port is reused.
        self.wedged = false;
        self.discard = true;
        sys.emit_event(EventKind::FaultInjected { class: FaultClass::Watchdog });
        if self.wd_attempts < MAX_WATCHDOG_RESETS {
            self.wd_attempts += 1;
            self.queue.push_front(op);
            self.countdown = self.cycles_per_word << self.wd_attempts;
        } else {
            // Degrade, don't hang: drop the word and let the queue
            // behind it proceed.
            self.wd_attempts = 0;
            self.wd_errors.push(Error::DeviceTimeout { device: "dma" });
        }
    }
}

impl Default for DmaEngine {
    fn default() -> Self {
        DmaEngine::new()
    }
}

impl fmt::Debug for DmaEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DmaEngine")
            .field("backlog", &self.backlog())
            .field("words_read", &self.words_read)
            .field("words_written", &self.words_written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_core::config::SystemConfig;
    use firefly_core::protocol::ProtocolKind;

    fn sys() -> MemSystem {
        MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap()
    }

    fn drain(engine: &mut DmaEngine, sys: &mut MemSystem, max: u64) -> Vec<DmaCompletion> {
        let mut out = Vec::new();
        for _ in 0..max {
            if let Some(c) = engine.tick(sys) {
                out.push(c);
            }
            sys.step();
            if engine.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = sys();
        let mut dma = DmaEngine::with_pacing(2);
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x100), value: 77, tag: 1 });
        dma.enqueue(DmaOp::Read { addr: Addr::new(0x100), tag: 2 });
        let done = drain(&mut dma, &mut s, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].value, 77);
        assert!(done[1].was_read);
        assert_eq!(done[1].tag, 2);
        assert_eq!(dma.words_read(), 1);
        assert_eq!(dma.words_written(), 1);
    }

    #[test]
    fn dma_does_not_allocate_in_io_cache() {
        let mut s = sys();
        let mut dma = DmaEngine::with_pacing(1);
        for i in 0..16 {
            dma.enqueue(DmaOp::Write { addr: Addr::new(0x1000 + i * 4), value: i, tag: i });
        }
        drain(&mut dma, &mut s, 2000);
        assert_eq!(s.resident_lines(PortId::new(0)).len(), 0, "DMA misses must not allocate");
        assert_eq!(s.cache_stats(PortId::new(0)).dma_writes, 16);
    }

    /// The §5 claim: a saturated QBus uses about 30% of MBus bandwidth.
    #[test]
    fn saturated_qbus_uses_about_thirty_percent_of_the_bus() {
        let mut s = sys();
        let mut dma = DmaEngine::new(); // default pacing
        for i in 0..400u32 {
            dma.enqueue(DmaOp::Write { addr: Addr::new(0x2000 + i * 4), value: i, tag: 0 });
        }
        while !dma.is_idle() {
            dma.tick(&mut s);
            s.step();
        }
        let load = s.bus_stats().load();
        assert!(
            (0.22..0.38).contains(&load),
            "saturated QBus bus load {load:.2}, paper says ~0.30"
        );
    }

    #[test]
    fn pacing_throttles_issue_rate() {
        let mut s = sys();
        let mut dma = DmaEngine::with_pacing(50);
        for i in 0..4u32 {
            dma.enqueue(DmaOp::Write { addr: Addr::new(i * 4), value: i, tag: 0 });
        }
        let mut cycles = 0u64;
        while !dma.is_idle() {
            dma.tick(&mut s);
            s.step();
            cycles += 1;
        }
        assert!(cycles >= 150, "4 words at 50-cycle pacing took only {cycles}");
    }

    #[test]
    #[should_panic(expected = "pacing")]
    fn zero_pacing_rejected() {
        let _ = DmaEngine::with_pacing(0);
    }

    #[test]
    fn timeouts_retry_with_backoff_and_still_complete() {
        use firefly_core::fault::{FaultConfig, PPM};
        let mut s = sys();
        let mut dma = DmaEngine::with_pacing(1);
        // Every issue times out: each word burns its full retry budget,
        // logs a hard error, and is then forced through.
        dma.install_faults(&FaultConfig {
            seed: 7,
            dma_timeout_ppm: PPM,
            ..FaultConfig::default()
        });
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x100), value: 9, tag: 1 });
        dma.enqueue(DmaOp::Read { addr: Addr::new(0x100), tag: 2 });
        let done = drain(&mut dma, &mut s, 5_000);
        assert_eq!(done.len(), 2, "transfers survive a 100% timeout rate");
        assert_eq!(done[1].value, 9);
        assert_eq!(dma.device_retries(), 2 * u64::from(MAX_DEVICE_RETRIES));
        assert_eq!(dma.timeouts(), 2 * (u64::from(MAX_DEVICE_RETRIES) + 1));
        assert_eq!(dma.drain_fault_errors().len(), 2, "one exhausted budget per word");
        assert!(dma.drain_fault_errors().is_empty(), "drain empties the log");
    }

    #[test]
    fn watchdog_resets_a_transient_wedge_and_the_word_completes() {
        let mut s = sys();
        let mut dma = DmaEngine::with_pacing(1);
        dma.set_watchdog(Some(16));
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x300), value: 5, tag: 9 });
        let mut done = Vec::new();
        for i in 0..400 {
            if i == 3 {
                dma.wedge(); // the controller hangs once, mid-transfer
            }
            if let Some(c) = dma.tick(&mut s) {
                done.push(c);
            }
            s.step();
        }
        assert_eq!(dma.watchdog_trips(), 1, "one device reset recovers a transient wedge");
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].value, done[0].tag), (5, 9));
        assert!(dma.drain_fault_errors().is_empty(), "no hard error for a recovered word");
        assert!(dma.is_idle());
    }

    #[test]
    fn watchdog_abandons_a_dead_device_word_and_degrades() {
        let cfg = SystemConfig::microvax(2).with_event_trace(256);
        let mut s = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
        let mut dma = DmaEngine::with_pacing(1);
        dma.set_watchdog(Some(8));
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x400), value: 1, tag: 0 });
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x404), value: 2, tag: 1 });
        let mut done = Vec::new();
        let mut dead = true;
        for _ in 0..4_000 {
            if dead {
                dma.wedge(); // re-wedge after every reset: the device is gone
            }
            if let Some(c) = dma.tick(&mut s) {
                done.push(c);
            }
            s.step();
            if dma.watchdog_trips() > u64::from(MAX_WATCHDOG_RESETS) {
                dead = false; // the dead word was abandoned; device replaced
            }
        }
        assert_eq!(
            dma.watchdog_trips(),
            u64::from(MAX_WATCHDOG_RESETS) + 1,
            "escalating resets, then abandonment"
        );
        let errors = dma.drain_fault_errors();
        assert!(
            matches!(errors.as_slice(), [Error::DeviceTimeout { device: "dma" }]),
            "abandonment records the hard error: {errors:?}"
        );
        assert_eq!(done.len(), 1, "the queue drains past the dead word");
        assert_eq!(done[0].tag, 1);
        assert!(dma.is_idle(), "the engine degrades rather than hangs");
        let wd_events = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultInjected { class: FaultClass::Watchdog }))
            .count();
        assert_eq!(wd_events as u64, dma.watchdog_trips(), "every trip is a machine-check event");
    }

    #[test]
    fn zero_timeout_rate_changes_nothing() {
        let run = |install: bool| {
            let mut s = sys();
            let mut dma = DmaEngine::with_pacing(3);
            if install {
                let cfg = firefly_core::fault::FaultConfig { seed: 5, ..Default::default() };
                dma.install_faults(&cfg);
            }
            for i in 0..8u32 {
                dma.enqueue(DmaOp::Write { addr: Addr::new(0x200 + i * 4), value: i, tag: i });
            }
            let done = drain(&mut dma, &mut s, 2_000);
            (done, s.cycle())
        };
        assert_eq!(run(false), run(true));
    }
}
