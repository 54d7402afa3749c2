//! The RQDX3 disk controller.
//!
//! "a buffered controller for rigid and floppy disks (RQDX3)". The
//! controller moves 512-byte blocks between its drive and Firefly memory
//! by DMA. Timing uses a conventional seek + rotation + transfer model
//! (an RD53-class drive: ~30 ms average seek, 3600 rpm, ~0.6 ms per
//! block transfer). §3 notes the software consequence: "the disk is
//! buffered from applications by a large read cache and a large write
//! buffer", so the paper never optimized disk initiation latency — and
//! neither does this model.

use crate::dma::{DmaCompletion, DmaOp};
use firefly_core::fault::{site, FaultConfig, FaultSite};
use firefly_core::{Addr, Error};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Words per 512-byte block.
pub const BLOCK_WORDS: u32 = 128;
/// Blocks per cylinder in the timing model.
pub const BLOCKS_PER_CYLINDER: u32 = 64;

/// Disk timing parameters, in 100 ns bus cycles.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DiskTiming {
    /// Fixed command overhead.
    pub overhead: u64,
    /// Seek cost per cylinder of travel.
    pub seek_per_cylinder: u64,
    /// Average rotational latency (half a revolution at 3600 rpm ≈ 8.3 ms).
    pub rotation: u64,
    /// Media transfer time for one block.
    pub transfer: u64,
}

impl Default for DiskTiming {
    fn default() -> Self {
        DiskTiming {
            overhead: 5_000,        // 0.5 ms controller/firmware
            seek_per_cylinder: 300, // 30 µs/cyl (~30 ms full sweep over 1000 cyl)
            rotation: 83_000,       // 8.3 ms
            transfer: 6_000,        // 0.6 ms per 512 B
        }
    }
}

/// A queued block request.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DiskRequest {
    /// Read block `lba` into memory at `addr`.
    Read {
        /// Logical block address.
        lba: u32,
        /// Destination in Firefly memory.
        addr: Addr,
    },
    /// Write block `lba` from memory at `addr`.
    Write {
        /// Logical block address.
        lba: u32,
        /// Source in Firefly memory.
        addr: Addr,
    },
}

impl DiskRequest {
    fn lba(&self) -> u32 {
        match *self {
            DiskRequest::Read { lba, .. } | DiskRequest::Write { lba, .. } => lba,
        }
    }
}

/// RQDX3 statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Blocks read from the drive.
    pub reads: u64,
    /// Blocks written to the drive.
    pub writes: u64,
    /// Total cycles spent in mechanical delay (seek + rotation + media).
    pub mechanical_cycles: u64,
}

#[derive(Debug)]
enum DiskState {
    Idle,
    /// Mechanical delay before the transfer.
    Seeking {
        req: DiskRequest,
        cycles: u64,
    },
    /// Moving words by DMA: for reads, drive→memory; writes, memory→drive.
    Transferring {
        req: DiskRequest,
        word: u32,
        staged: Vec<u32>,
    },
}

/// Media read-error fault state: a failed sector read costs one extra
/// rotation and a retry, like a real drive's ECC retry loop.
#[derive(Debug)]
struct DiskFaults {
    site: FaultSite,
    read_error_ppm: u32,
    /// Consecutive failed attempts on the current request.
    attempt: u8,
    read_errors: u64,
    retries: u64,
    errors: Vec<Error>,
}

/// The disk controller plus its drive.
pub struct Rqdx3 {
    timing: DiskTiming,
    blocks: HashMap<u32, Box<[u32]>>,
    queue: VecDeque<DiskRequest>,
    state: DiskState,
    head_cylinder: u32,
    interrupt: bool,
    stats: DiskStats,
    faults: Option<DiskFaults>,
}

impl Rqdx3 {
    /// A controller with default timing and an empty (zero-filled) drive.
    pub fn new() -> Self {
        Rqdx3::with_timing(DiskTiming::default())
    }

    /// A controller with explicit timing.
    pub fn with_timing(timing: DiskTiming) -> Self {
        Rqdx3 {
            timing,
            blocks: HashMap::new(),
            queue: VecDeque::new(),
            state: DiskState::Idle,
            head_cylinder: 0,
            interrupt: false,
            stats: DiskStats::default(),
            faults: None,
        }
    }

    /// Installs the media read-error fault model. A zero
    /// `disk_read_error_ppm` rate leaves the controller untouched.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.faults = if cfg.disk_read_error_ppm == 0 {
            None
        } else {
            Some(DiskFaults {
                site: FaultSite::new(cfg.seed, site::RQDX3),
                read_error_ppm: cfg.disk_read_error_ppm,
                attempt: 0,
                read_errors: 0,
                retries: 0,
                errors: Vec::new(),
            })
        };
    }

    /// Injected media read errors so far.
    pub fn read_errors(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.read_errors)
    }

    /// Failed reads recovered by waiting a rotation and retrying.
    pub fn read_retries(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.retries)
    }

    /// Takes the accumulated [`Error::DeviceTimeout`] records (reads
    /// whose retry budget ran out).
    pub fn drain_fault_errors(&mut self) -> Vec<Error> {
        self.faults.as_mut().map_or_else(Vec::new, |f| std::mem::take(&mut f.errors))
    }

    /// Queues a request.
    pub fn submit(&mut self, req: DiskRequest) {
        self.queue.push_back(req);
    }

    /// Whether the controller has work queued or in progress.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || !matches!(self.state, DiskState::Idle)
    }

    /// Reads and clears the completion interrupt.
    pub fn take_interrupt(&mut self) -> bool {
        std::mem::take(&mut self.interrupt)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Directly inspects a drive block word (test/debug backdoor).
    pub fn peek_block_word(&self, lba: u32, word: u32) -> u32 {
        self.blocks.get(&lba).map_or(0, |b| b[word as usize])
    }

    /// Directly initializes a drive block (e.g. a preloaded filesystem).
    pub fn load_block(&mut self, lba: u32, words: &[u32]) {
        assert_eq!(words.len() as u32, BLOCK_WORDS, "a block is {BLOCK_WORDS} words");
        self.blocks.insert(lba, words.to_vec().into_boxed_slice());
    }

    fn mechanical_delay(&mut self, lba: u32) -> u64 {
        let cyl = lba / BLOCKS_PER_CYLINDER;
        let travel = cyl.abs_diff(self.head_cylinder);
        self.head_cylinder = cyl;
        self.timing.overhead
            + self.timing.seek_per_cylinder * u64::from(travel)
            + self.timing.rotation
            + self.timing.transfer
    }

    /// Advances timers one cycle.
    pub fn tick(&mut self) {
        match &mut self.state {
            DiskState::Idle => {
                if let Some(req) = self.queue.pop_front() {
                    let delay = self.mechanical_delay(req.lba());
                    self.stats.mechanical_cycles += delay;
                    self.state = DiskState::Seeking { req, cycles: delay };
                }
            }
            DiskState::Seeking { req, cycles } => {
                *cycles = cycles.saturating_sub(1);
                if *cycles == 0 {
                    let req = *req;
                    // Media read-error fault: the sector fails its ECC
                    // check as the head reaches it; the drive waits one
                    // full rotation and tries again. Past the retry
                    // budget the error is logged and the (possibly
                    // marginal) data is transferred anyway.
                    if let Some(f) = &mut self.faults {
                        if matches!(req, DiskRequest::Read { .. }) {
                            if f.site.fires(f.read_error_ppm) {
                                f.read_errors += 1;
                                f.attempt += 1;
                                if f.attempt <= crate::dma::MAX_DEVICE_RETRIES {
                                    f.retries += 1;
                                    let extra = self.timing.rotation;
                                    self.stats.mechanical_cycles += extra;
                                    self.state = DiskState::Seeking { req, cycles: extra };
                                    return;
                                }
                                f.errors.push(Error::DeviceTimeout { device: "rqdx3" });
                            }
                            f.attempt = 0;
                        }
                    }
                    self.state = DiskState::Transferring { req, word: 0, staged: Vec::new() };
                }
            }
            DiskState::Transferring { .. } => {}
        }
    }

    /// The first cycle from `from` on that its tick, or while the DMA
    /// engine is `dma_idle` its [`wants_dma`](Rqdx3::wants_dma), acts.
    pub(crate) fn wake(&self, from: u64, dma_idle: bool) -> u64 {
        match self.state {
            DiskState::Idle if !self.queue.is_empty() => from,
            DiskState::Seeking { cycles, .. } => from + cycles.saturating_sub(1),
            DiskState::Transferring { .. } if dma_idle => from,
            _ => u64::MAX,
        }
    }

    /// Credits `n` ticks before [`wake`](Rqdx3::wake).
    pub(crate) fn advance_idle(&mut self, n: u64) {
        if let DiskState::Seeking { cycles, .. } = &mut self.state {
            *cycles -= n;
        }
    }

    /// The next DMA word the controller wants, if any.
    pub fn wants_dma(&mut self) -> Option<DmaOp> {
        if let DiskState::Transferring { req, word, .. } = &self.state {
            if *word < BLOCK_WORDS {
                return Some(match *req {
                    DiskRequest::Read { lba, addr } => DmaOp::Write {
                        addr: addr.add_words(*word),
                        value: self.blocks.get(&lba).map_or(0, |b| b[*word as usize]),
                        tag: *word,
                    },
                    DiskRequest::Write { addr, .. } => {
                        DmaOp::Read { addr: addr.add_words(*word), tag: *word }
                    }
                });
            }
        }
        None
    }

    /// Feeds a DMA completion back.
    pub fn on_completion(&mut self, c: DmaCompletion) {
        if let DiskState::Transferring { req, word, staged } = &mut self.state {
            if c.was_read {
                staged.push(c.value);
            }
            *word += 1;
            if *word == BLOCK_WORDS {
                match *req {
                    DiskRequest::Read { .. } => {
                        self.stats.reads += 1;
                    }
                    DiskRequest::Write { lba, .. } => {
                        let mut block = vec![0u32; BLOCK_WORDS as usize];
                        block.copy_from_slice(staged);
                        self.blocks.insert(lba, block.into_boxed_slice());
                        self.stats.writes += 1;
                    }
                }
                self.state = DiskState::Idle;
                self.interrupt = true;
            }
        }
    }
}

impl Default for Rqdx3 {
    fn default() -> Self {
        Rqdx3::new()
    }
}

impl fmt::Debug for Rqdx3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rqdx3")
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(d: &mut Rqdx3, mut mem: impl FnMut(&DmaOp) -> u32, max: u64) -> u64 {
        let mut cycles = 0;
        for _ in 0..max {
            if let Some(op) = d.wants_dma() {
                d.on_completion(op.complete(mem(&op)));
            }
            d.tick();
            cycles += 1;
            if !d.is_busy() {
                break;
            }
        }
        cycles
    }

    #[test]
    fn write_then_read_roundtrips_through_the_drive() {
        let mut d = Rqdx3::new();
        // Write block 5 from "memory" where word i holds i*3.
        d.submit(DiskRequest::Write { lba: 5, addr: Addr::new(0x4000) });
        run(
            &mut d,
            |op| match op {
                DmaOp::Read { addr, .. } => (addr.byte() - 0x4000) / 4 * 3,
                _ => 0,
            },
            500_000,
        );
        assert_eq!(d.stats().writes, 1);
        assert!(d.take_interrupt());
        assert_eq!(d.peek_block_word(5, 10), 30);

        // Read it back to memory and capture the DMA writes.
        let mut seen = Vec::new();
        d.submit(DiskRequest::Read { lba: 5, addr: Addr::new(0x8000) });
        run(
            &mut d,
            |op| {
                if let DmaOp::Write { value, .. } = op {
                    seen.push(*value);
                }
                0
            },
            500_000,
        );
        assert_eq!(seen.len(), BLOCK_WORDS as usize);
        assert_eq!(seen[10], 30);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn seek_distance_costs_time() {
        let mut near = Rqdx3::new();
        near.submit(DiskRequest::Read { lba: 0, addr: Addr::new(0) });
        let t_near = run(&mut near, |_| 0, 10_000_000);

        let mut far = Rqdx3::new();
        far.submit(DiskRequest::Read { lba: 64_000, addr: Addr::new(0) });
        let t_far = run(&mut far, |_| 0, 10_000_000);
        assert!(
            t_far > t_near + 100_000,
            "a 1000-cylinder seek adds ~30 ms: near {t_near}, far {t_far}"
        );
    }

    #[test]
    fn sequential_blocks_amortize_the_seek() {
        let mut d = Rqdx3::new();
        for lba in 0..4 {
            d.submit(DiskRequest::Read { lba, addr: Addr::new(0) });
        }
        let total = run(&mut d, |_| 0, 10_000_000);
        // Four same-cylinder reads: one mechanical pattern each but no
        // long seeks; bounded by 4 * (overhead+rotation+transfer) plus
        // transfer DMA.
        assert!(total < 4 * 120_000, "sequential reads took {total}");
        assert_eq!(d.stats().reads, 4);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut d = Rqdx3::new();
        let mut all_zero = true;
        d.submit(DiskRequest::Read { lba: 999, addr: Addr::new(0) });
        run(
            &mut d,
            |op| {
                if let DmaOp::Write { value, .. } = op {
                    all_zero &= *value == 0;
                }
                0
            },
            10_000_000,
        );
        assert!(all_zero);
    }

    #[test]
    fn load_block_backdoor() {
        let mut d = Rqdx3::new();
        let data: Vec<u32> = (0..BLOCK_WORDS).collect();
        d.load_block(7, &data);
        assert_eq!(d.peek_block_word(7, 100), 100);
    }

    #[test]
    fn read_errors_reseek_and_still_deliver() {
        use firefly_core::fault::{FaultConfig, PPM};
        // Fast mechanics so a 100% read-error rate stays cheap to run.
        let timing = DiskTiming { overhead: 10, seek_per_cylinder: 1, rotation: 50, transfer: 10 };
        let mut d = Rqdx3::with_timing(timing);
        d.install_faults(&FaultConfig { seed: 4, disk_read_error_ppm: PPM, ..Default::default() });
        let data: Vec<u32> = (0..BLOCK_WORDS).map(|w| w * 2).collect();
        d.load_block(3, &data);
        d.submit(DiskRequest::Read { lba: 3, addr: Addr::new(0x1000) });
        let mut seen = Vec::new();
        run(
            &mut d,
            |op| {
                if let DmaOp::Write { value, .. } = op {
                    seen.push(*value);
                }
                0
            },
            100_000,
        );
        assert_eq!(d.stats().reads, 1, "the read completes despite a 100% error rate");
        assert_eq!(seen[10], 20, "retried data is intact");
        let budget = u64::from(crate::dma::MAX_DEVICE_RETRIES);
        assert_eq!(d.read_retries(), budget);
        assert_eq!(d.read_errors(), budget + 1);
        assert_eq!(d.drain_fault_errors().len(), 1, "the exhausted budget was logged");

        // Writes never draw the read-error site.
        d.submit(DiskRequest::Write { lba: 9, addr: Addr::new(0x2000) });
        let before = d.read_errors();
        run(&mut d, |_| 1, 100_000);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.read_errors(), before);
    }
}
