//! Read-ahead and write-behind over the disk — the §6 file-system
//! claim: "The file system uses multiple threads to do read-ahead and
//! write-behind" (and §3: "the disk is buffered from applications by a
//! large read cache and a large write buffer").
//!
//! The mechanism, stripped to its essentials: a consumer that issues
//! one block request, waits, and then consumes, leaves the drive idle
//! during every consume; keeping `depth` requests outstanding keeps the
//! drive streaming. Symmetrically, write-behind lets the writer run
//! ahead of the medium until the buffer fills.

use crate::rqdx3::{DiskRequest, Rqdx3};
use firefly_core::Addr;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Outcome of a streaming run.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StreamRun {
    /// Blocks moved.
    pub blocks: u32,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Cycles the consumer/producer spent blocked on the disk.
    pub stalled_cycles: u64,
}

impl StreamRun {
    /// Effective throughput in KB per second of simulated time.
    pub fn kb_per_second(&self) -> f64 {
        let seconds = self.cycles as f64 * 100e-9;
        f64::from(self.blocks) * 0.5 / seconds
    }
}

/// Sequentially reads `blocks` blocks starting at `first_lba`, keeping
/// up to `depth` requests outstanding, with the consumer spending
/// `consume_cycles` per block (the application's processing time).
///
/// Runs the disk standalone (DMA completions synthesized directly), so
/// the comparison isolates the read-ahead effect.
///
/// # Panics
///
/// Panics if `depth` or `blocks` is zero, or the run wedges.
pub fn stream_read(
    disk: &mut Rqdx3,
    first_lba: u32,
    blocks: u32,
    depth: u32,
    consume_cycles: u64,
) -> StreamRun {
    assert!(depth > 0, "depth must be nonzero");
    assert!(blocks > 0, "must read at least one block");
    let buffer = Addr::new(0x0040_0000);

    let mut submitted = 0u32;
    let mut completed: VecDeque<u32> = VecDeque::new(); // lbas ready to consume
    let mut consumed = 0u32;
    let mut consuming: Option<u64> = None; // countdown
    let mut cycles = 0u64;
    let mut stalled = 0u64;

    while consumed < blocks {
        // Keep at most `depth` blocks beyond the consumer in flight or
        // buffered: depth 1 is demand paging, depth > 1 is read-ahead.
        while submitted < blocks && submitted - consumed < depth {
            disk.submit(DiskRequest::Read { lba: first_lba + submitted, addr: buffer });
            submitted += 1;
        }

        // Drive the disk (standalone DMA: complete words immediately).
        if let Some(op) = disk.wants_dma() {
            disk.on_completion(op.complete(0));
        }
        disk.tick();
        if disk.take_interrupt() {
            completed.push_back(consumed + completed.len() as u32);
        }

        // The consumer.
        match &mut consuming {
            Some(left) => {
                *left -= 1;
                if *left == 0 {
                    consuming = None;
                    consumed += 1;
                }
            }
            None => {
                if completed.pop_front().is_some() {
                    consuming = Some(consume_cycles.max(1));
                } else {
                    stalled += 1;
                }
            }
        }

        cycles += 1;
        assert!(cycles < 1_000_000_000, "stream wedged");
    }
    StreamRun { blocks, cycles, stalled_cycles: stalled }
}

/// A write-behind buffer: the application "writes" blocks instantly
/// into buffer slots; the drain trickles them to the disk.
///
/// Models the §3 observation that buffering makes disk-start latency
/// irrelevant: the writer only blocks when the buffer is full.
#[derive(Debug)]
pub struct WriteBehindBuffer {
    capacity: usize,
    queued: VecDeque<u32>, // lbas awaiting the medium
    writer_blocked_cycles: u64,
    absorbed: u64,
}

impl WriteBehindBuffer {
    /// A buffer of `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        WriteBehindBuffer {
            capacity,
            queued: VecDeque::new(),
            writer_blocked_cycles: 0,
            absorbed: 0,
        }
    }

    /// The application writes block `lba`. Returns whether the write was
    /// absorbed immediately (buffer had room).
    pub fn write(&mut self, lba: u32) -> bool {
        if self.queued.len() < self.capacity {
            self.queued.push_back(lba);
            self.absorbed += 1;
            true
        } else {
            self.writer_blocked_cycles += 1;
            false
        }
    }

    /// Drains one queued block to the disk if it is idle.
    pub fn drain(&mut self, disk: &mut Rqdx3) {
        if !disk.is_busy() {
            if let Some(lba) = self.queued.pop_front() {
                disk.submit(DiskRequest::Write { lba, addr: Addr::new(0x0048_0000) });
            }
        }
    }

    /// Blocks currently buffered.
    pub fn depth(&self) -> usize {
        self.queued.len()
    }

    /// Writes absorbed without blocking.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Cycles the writer spent blocked on a full buffer.
    pub fn writer_blocked_cycles(&self) -> u64 {
        self.writer_blocked_cycles
    }
}

impl fmt::Display for StreamRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks in {:.1} ms ({:.0} KB/s, consumer stalled {:.1} ms)",
            self.blocks,
            self.cycles as f64 * 100e-6,
            self.kb_per_second(),
            self.stalled_cycles as f64 * 100e-6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §6: read-ahead pays — deeper windows stream faster.
    #[test]
    fn read_ahead_speeds_up_sequential_reads() {
        let run = |depth| {
            let mut disk = Rqdx3::new();
            stream_read(&mut disk, 0, 24, depth, 60_000)
        };
        let d1 = run(1);
        let d4 = run(4);
        assert!(
            d4.cycles * 10 < d1.cycles * 9,
            "depth 4 ({}) should beat depth 1 ({}) by >10%",
            d4.cycles,
            d1.cycles
        );
        assert!(d4.stalled_cycles < d1.stalled_cycles / 2, "consumer stalls shrink");
    }

    #[test]
    fn deeper_than_needed_does_not_hurt() {
        let run = |depth| {
            let mut disk = Rqdx3::new();
            stream_read(&mut disk, 0, 16, depth, 20_000).cycles
        };
        let d4 = run(4);
        let d8 = run(8);
        assert!(d8 <= d4 + d4 / 20, "depth 8 ({d8}) ~ depth 4 ({d4})");
    }

    /// §3: write-behind absorbs bursts; the writer only blocks when the
    /// buffer fills.
    #[test]
    fn write_behind_absorbs_bursts() {
        let mut disk = Rqdx3::new();
        let mut buf = WriteBehindBuffer::new(8);
        // Burst of 8: all absorbed instantly.
        for lba in 0..8 {
            assert!(buf.write(lba), "block {lba} absorbed");
        }
        // The ninth blocks until the drain makes room.
        assert!(!buf.write(8));
        let mut cycles = 0u64;
        while !buf.write(8) {
            buf.drain(&mut disk);
            if let Some(op) = disk.wants_dma() {
                disk.on_completion(op.complete(7));
            }
            disk.tick();
            cycles += 1;
            assert!(cycles < 100_000_000, "drain wedged");
        }
        assert_eq!(buf.absorbed(), 9);
        assert!(buf.writer_blocked_cycles() > 0);
        // Eventually everything reaches the medium.
        while buf.depth() > 0 || disk.is_busy() {
            buf.drain(&mut disk);
            if let Some(op) = disk.wants_dma() {
                disk.on_completion(op.complete(7));
            }
            disk.tick();
            cycles += 1;
            assert!(cycles < 300_000_000);
        }
        assert_eq!(disk.stats().writes, 9);
    }

    #[test]
    fn stream_run_reports() {
        let mut disk = Rqdx3::new();
        let r = stream_read(&mut disk, 0, 4, 2, 1_000);
        assert_eq!(r.blocks, 4);
        assert!(r.kb_per_second() > 0.0);
        assert!(r.to_string().contains("blocks"));
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_rejected() {
        let mut disk = Rqdx3::new();
        let _ = stream_read(&mut disk, 0, 1, 0, 1);
    }
}
