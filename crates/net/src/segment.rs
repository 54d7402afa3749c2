//! A cycle-driven shared Ethernet segment with CSMA/CD arbitration.
//!
//! The Firefly's DEQNA put the whole workstation cluster on one 10 Mb/s
//! coax: every NIC sees every frame, senses carrier before transmitting,
//! and on collision backs off a random number of slot times (truncated
//! binary exponential backoff). This module models that shared medium at
//! the same 100 ns cycle grain as the rest of the simulator:
//!
//! * the wire carries one frame at a time, at the DEQNA's
//!   [`WIRE_CYCLES_PER_WORD`] pacing (0.8 bit/cycle = 8 Mb/s, below
//!   the coax's nominal 10 Mb/s);
//! * each NIC has bounded TX/RX rings in the spirit of the
//!   [`Deqna`](../firefly_io) device's rings — a full ring backpressures
//!   (TX) or drops with a counted overflow (RX);
//! * when several NICs are ready on an idle wire they collide and each
//!   re-arms after `k` slot times, `k` drawn from a doubling window;
//! * an optional [`NetFaultConfig`] plan injects drop / duplicate /
//!   reorder / corrupt / partition faults from seeded streams.
//!
//! Everything — arbitration, backoff draws, fault draws — is a pure
//! function of the configuration, so a segment stepped N cycles is
//! bit-identical across runs and across checkpoint/restore.

use crate::fault::{NetFaultConfig, NetFaults};
use firefly_core::snapshot::{crc32, SnapReader, SnapWriter};
use firefly_core::{Error, PREAMBLE_WORDS, WIRE_CYCLES_PER_WORD};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-frame header/trailer overhead (addresses, type, FCS) in bytes.
pub const HEADER_BYTES: usize = 26;

/// One Ethernet slot time (512 bit times) on the cycle grid.
pub const SLOT_CYCLES: u64 = 640;

/// Truncated binary exponential backoff: the contention window stops
/// doubling after this many collisions (2^6 = 64 slots, ~41k cycles).
///
/// Real 802.3 doubles to 2^10 but also abandons a frame after 16
/// attempts; we never abandon (loss is injected only by the fault
/// plan), so an uncapped exponent would let the *capture effect* —
/// a streaky winner compounding a loser's window — starve a busy NIC
/// for hundreds of thousands of cycles. Truncating earlier bounds a
/// contention loser's sleep instead.
pub const BACKOFF_EXP_CAP: u32 = 6;

/// Wire occupancy of a frame with `payload_len` payload bytes.
pub fn frame_cycles(payload_len: usize) -> u64 {
    let words = ((payload_len + HEADER_BYTES) as u64).div_ceil(4);
    (words + PREAMBLE_WORDS) * WIRE_CYCLES_PER_WORD
}

/// One frame on the segment: source/destination NIC indices, an opaque
/// payload, and a CRC-32 computed at enqueue time. Fault injection may
/// flip payload bits in flight; the receiving NIC recomputes the CRC
/// and rejects mismatches, so corruption is never delivered upward.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Transmitting NIC index.
    pub src: usize,
    /// Destination NIC index.
    pub dst: usize,
    /// Opaque payload bytes (the RPC layer's encoded message).
    pub payload: Vec<u8>,
    /// CRC-32 of the payload as computed by the sender.
    pub checksum: u32,
}

impl Frame {
    /// A frame with the checksum computed from the payload.
    pub fn new(src: usize, dst: usize, payload: Vec<u8>) -> Self {
        let checksum = crc32(&payload);
        Frame { src, dst, payload, checksum }
    }

    /// Whether the payload still matches the sender's checksum.
    pub fn intact(&self) -> bool {
        crc32(&self.payload) == self.checksum
    }
}

firefly_core::snap_struct!(Frame { src, dst, payload, checksum });

/// Segment shape: NIC count, ring bounds, backoff seed, fault plan.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct SegmentConfig {
    /// Number of NICs (stations) on the segment.
    pub nics: usize,
    /// Per-NIC TX ring capacity (enqueue fails when full — backpressure).
    pub tx_ring: usize,
    /// Per-NIC RX ring capacity (delivery drops when full, counted).
    pub rx_ring: usize,
    /// Seed for the collision-backoff draws.
    pub seed: u64,
    /// Network fault plan (default: disabled).
    pub faults: NetFaultConfig,
}

impl SegmentConfig {
    /// A segment with `nics` stations and the default ring bounds.
    pub fn new(nics: usize) -> Self {
        SegmentConfig {
            nics,
            tx_ring: 64,
            rx_ring: 256,
            seed: 0,
            faults: NetFaultConfig::default(),
        }
    }
}

firefly_core::snap_struct!(SegmentConfig { nics, tx_ring, rx_ring, seed, faults });

firefly_core::counters! {
    /// Segment-wide counters (all cumulative).
    pub struct SegmentStats {
        /// Frames accepted into a TX ring.
        pub tx_enqueued: u64,
        /// Enqueue attempts rejected (ring full or NIC offline).
        pub tx_rejected: u64,
        /// Frames that finished transmission on the wire.
        pub frames_sent: u64,
        /// Payload bytes carried by sent frames.
        pub bytes_sent: u64,
        /// Frames delivered into an RX ring.
        pub frames_delivered: u64,
        /// Collision events (one per contention round with ≥2 ready NICs).
        pub collisions: u64,
        /// Cycles the wire spent carrying a frame.
        pub wire_busy_cycles: u64,
        /// Frames dropped by the fault plan's drop class.
        pub fault_drops: u64,
        /// Extra deliveries injected by the duplicate class.
        pub fault_dups: u64,
        /// Frames delayed by the reorder class.
        pub fault_reorders: u64,
        /// Frames whose payload the corrupt class bit-flipped.
        pub fault_corrupts: u64,
        /// Frames rejected by the receiving NIC's CRC check.
        pub crc_rejects: u64,
        /// Frames dropped because the partition severed the path.
        pub partition_drops: u64,
        /// Frames dropped because the destination RX ring was full.
        pub rx_overflows: u64,
        /// Frames dropped because the destination NIC was offline.
        pub offline_drops: u64,
    }
}

/// One station's attachment point: bounded rings plus backoff state.
#[derive(Clone, Debug)]
struct Nic {
    online: bool,
    tx: VecDeque<Frame>,
    rx: VecDeque<Frame>,
    /// Cycle at which this NIC may next contend for the wire.
    backoff_until: u64,
    /// Consecutive collisions for the frame at the head of `tx`.
    attempts: u32,
}

impl Nic {
    fn new() -> Self {
        Nic {
            online: true,
            tx: VecDeque::new(),
            rx: VecDeque::new(),
            backoff_until: 0,
            attempts: 0,
        }
    }
}

firefly_core::snap_struct!(Nic { online, tx, rx, backoff_until, attempts });

/// The shared segment: NICs, the (single-frame) wire, delayed frames
/// from the reorder class, backoff RNG, fault sites, and counters.
#[derive(Clone, Debug)]
pub struct EtherSegment {
    cfg: SegmentConfig,
    cycle: u64,
    nics: Vec<Nic>,
    /// `(completes_at, frame)` currently occupying the wire.
    wire: Option<(u64, Frame)>,
    /// Reordered frames awaiting their `(deliver_at, frame)` slot.
    delayed: VecDeque<(u64, Frame)>,
    backoff_rng: SmallRng,
    faults: Option<NetFaults>,
    stats: SegmentStats,
}

impl EtherSegment {
    /// A fresh idle segment.
    pub fn new(cfg: SegmentConfig) -> Self {
        assert!(cfg.nics > 0, "a segment needs at least one NIC");
        assert!(cfg.tx_ring > 0 && cfg.rx_ring > 0, "ring capacities must be positive");
        EtherSegment {
            cycle: 0,
            nics: (0..cfg.nics).map(|_| Nic::new()).collect(),
            wire: None,
            delayed: VecDeque::new(),
            backoff_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xe7fe_11e7_5e91_1e57),
            faults: NetFaults::from_config(&cfg.faults),
            stats: SegmentStats::default(),
            cfg,
        }
    }

    /// The segment's configuration.
    pub fn config(&self) -> &SegmentConfig {
        &self.cfg
    }

    /// Cycles stepped so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SegmentStats {
        self.stats
    }

    /// Frames waiting in `nic`'s TX ring.
    pub fn tx_queued(&self, nic: usize) -> usize {
        self.nics[nic].tx.len()
    }

    /// Frames waiting in `nic`'s RX ring.
    pub fn rx_queued(&self, nic: usize) -> usize {
        self.nics[nic].rx.len()
    }

    /// `(backoff_until, attempts)` for `nic` — its CSMA/CD contention
    /// state, exposed for diagnostics.
    pub fn backoff_state(&self, nic: usize) -> (u64, u32) {
        (self.nics[nic].backoff_until, self.nics[nic].attempts)
    }

    /// Whether `nic` is attached and powered.
    pub fn is_online(&self, nic: usize) -> bool {
        self.nics[nic].online
    }

    /// Powers a NIC on or off. Powering off clears its rings and drops
    /// any in-flight frame addressed to it at delivery time — the model
    /// of a crashed machine going dark mid-conversation.
    pub fn set_online(&mut self, nic: usize, online: bool) {
        let n = &mut self.nics[nic];
        n.online = online;
        if !online {
            n.tx.clear();
            n.rx.clear();
            n.backoff_until = 0;
            n.attempts = 0;
        }
    }

    /// Queues a frame on its source NIC's TX ring. Returns `false`
    /// (counted) when the ring is full or the NIC is offline — the
    /// caller's backpressure signal. A caller that has not built its
    /// frame yet should use [`enqueue_with`](EtherSegment::enqueue_with).
    pub fn enqueue(&mut self, frame: Frame) -> bool {
        self.enqueue_with(frame.src, || frame)
    }

    /// Whether NIC `src` would refuse an enqueue now: it is offline or
    /// its TX ring is full. Only a tick (which may start a frame from
    /// the ring) or a power change alters the answer, so a sender that
    /// finds its ring refusing may sleep until the segment's next event.
    #[inline]
    pub fn refuses(&self, src: usize) -> bool {
        let nic = &self.nics[src];
        !nic.online || nic.tx.len() >= self.cfg.tx_ring
    }

    /// Counts `n` refused enqueues at once: the `tx_rejected` that `n`
    /// [`enqueue_with`](EtherSegment::enqueue_with) calls on a NIC that
    /// [`refuses`](EtherSegment::refuses) would count.
    pub fn count_refusals(&mut self, n: u64) {
        self.stats.tx_rejected += n;
    }

    /// Queues the frame `build` returns on NIC `src`'s TX ring, calling
    /// `build` only if the ring takes it. A refusal (exactly when
    /// [`refuses`](EtherSegment::refuses) holds) counts `tx_rejected`
    /// and costs nothing else: no payload is encoded or checksummed and
    /// no frame is built or cloned. `build` may move a frame out of the
    /// caller's own queue, which then stays untouched on refusal.
    /// Returns whether the frame was queued.
    pub fn enqueue_with(&mut self, src: usize, build: impl FnOnce() -> Frame) -> bool {
        if self.refuses(src) {
            self.stats.tx_rejected += 1;
            return false;
        }
        let frame = build();
        assert_eq!(frame.src, src, "frame built for another NIC's ring");
        assert!(frame.dst < self.cfg.nics, "NIC index out of range");
        self.nics[src].tx.push_back(frame);
        self.stats.tx_enqueued += 1;
        true
    }

    /// Pops the next received frame for `nic`, if any.
    pub fn recv(&mut self, nic: usize) -> Option<Frame> {
        self.nics[nic].rx.pop_front()
    }

    /// Advances the segment one cycle: completes the in-flight frame,
    /// releases delayed (reordered) frames, and arbitrates the idle wire
    /// among ready NICs (single contender transmits; several collide and
    /// back off).
    pub fn tick(&mut self) {
        self.cycle += 1;
        let now = self.cycle;

        if self.wire.is_some() {
            self.stats.wire_busy_cycles += 1;
        }
        if let Some((done_at, _)) = self.wire {
            if done_at <= now {
                let (_, frame) = self.wire.take().expect("wire frame present");
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += frame.payload.len() as u64;
                self.deliver(frame);
            }
        }

        // Release reordered frames whose delay has elapsed, preserving
        // queue order among those due on the same cycle.
        for _ in 0..self.delayed.len() {
            let (at, frame) = self.delayed.pop_front().expect("delayed entry");
            if at <= now {
                self.deliver_to_rx(frame);
            } else {
                self.delayed.push_back((at, frame));
            }
        }

        if self.wire.is_none() {
            self.arbitrate(now);
        }
    }

    /// The next cycle at which [`tick`](EtherSegment::tick) does more
    /// than advance the clock: the in-flight frame's completion or, on
    /// an idle wire, the earliest backoff expiry among online NICs with
    /// queued frames; and any delayed (reordered) frame's release.
    /// `u64::MAX` when nothing is pending. Derived from the state alone,
    /// so skipping to it needs nothing stored.
    #[inline]
    pub fn next_event(&self) -> u64 {
        let wire = match &self.wire {
            Some((done_at, _)) => *done_at,
            None => self
                .nics
                .iter()
                .filter(|n| n.online && !n.tx.is_empty())
                .map(|n| n.backoff_until)
                .min()
                .unwrap_or(u64::MAX),
        };
        let delayed = self.delayed.iter().map(|&(at, _)| at).min().unwrap_or(u64::MAX);
        wire.min(delayed).max(self.cycle + 1)
    }

    /// Advances the clock to `cycle` in one jump. Short of
    /// [`next_event`](EtherSegment::next_event) a tick only moves the
    /// clock and, while a frame is in flight, counts a busy wire cycle,
    /// so this leaves exactly the state ticking there would.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert!(
            cycle >= self.cycle && cycle < self.next_event(),
            "skip from {} to {cycle} crosses a segment event",
            self.cycle
        );
        if self.wire.is_some() {
            self.stats.wire_busy_cycles += cycle - self.cycle;
        }
        self.cycle = cycle;
    }

    /// CSMA/CD contention round on an idle wire.
    fn arbitrate(&mut self, now: u64) {
        let mut contenders: Vec<usize> = Vec::new();
        for (i, nic) in self.nics.iter().enumerate() {
            if nic.online && !nic.tx.is_empty() && nic.backoff_until <= now {
                contenders.push(i);
            }
        }
        match contenders.len() {
            0 => {}
            1 => {
                let nic = &mut self.nics[contenders[0]];
                nic.attempts = 0;
                let frame = nic.tx.pop_front().expect("contender has a frame");
                let done_at = now + frame_cycles(frame.payload.len());
                self.wire = Some((done_at, frame));
            }
            _ => {
                self.stats.collisions += 1;
                for &i in &contenders {
                    let attempts = (self.nics[i].attempts + 1).min(BACKOFF_EXP_CAP);
                    self.nics[i].attempts = attempts;
                    let window = 1u64 << attempts;
                    let slots = self.backoff_rng.gen_range(0..window);
                    self.nics[i].backoff_until = now + 1 + slots * SLOT_CYCLES;
                }
            }
        }
    }

    /// Runs a completed frame through the fault pipeline, then into the
    /// destination RX ring.
    fn deliver(&mut self, mut frame: Frame) {
        let mut duplicate = false;
        let mut reorder_delay = None;
        if let Some(f) = &mut self.faults {
            if f.cfg.severed(self.cycle, frame.src, frame.dst) {
                self.stats.partition_drops += 1;
                return;
            }
            if f.corrupt.fires(f.cfg.corrupt_ppm) && !frame.payload.is_empty() {
                let bit = f.corrupt.pick(frame.payload.len() * 8);
                frame.payload[bit / 8] ^= 1 << (bit % 8);
                self.stats.fault_corrupts += 1;
            }
            if f.drop.fires(f.cfg.drop_ppm) {
                self.stats.fault_drops += 1;
                return;
            }
            if f.dup.fires(f.cfg.dup_ppm) {
                self.stats.fault_dups += 1;
                duplicate = true;
            }
            if f.reorder.fires(f.cfg.reorder_ppm) {
                self.stats.fault_reorders += 1;
                reorder_delay =
                    Some(1 + f.reorder.pick(f.cfg.reorder_window.max(1) as usize) as u64);
            }
        }
        if duplicate {
            self.deliver_to_rx(frame.clone());
        }
        match reorder_delay {
            Some(delay) => self.delayed.push_back((self.cycle + delay, frame)),
            None => self.deliver_to_rx(frame),
        }
    }

    /// Final hop: CRC check, online check, bounded RX ring.
    fn deliver_to_rx(&mut self, frame: Frame) {
        if !frame.intact() {
            self.stats.crc_rejects += 1;
            return;
        }
        let nic = &mut self.nics[frame.dst];
        if !nic.online {
            self.stats.offline_drops += 1;
            return;
        }
        if nic.rx.len() >= self.cfg.rx_ring {
            self.stats.rx_overflows += 1;
            return;
        }
        nic.rx.push_back(frame);
        self.stats.frames_delivered += 1;
    }

    /// Serializes the complete segment state (config guard + wire +
    /// rings + RNG streams + counters) into a snapshot section payload.
    /// The NICs carry no count: the embedded config has it.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.cfg, self.cycle));
        for nic in &self.nics {
            w.put(nic);
        }
        w.put(&self.wire);
        w.put(&self.delayed);
        w.put(&self.backoff_rng);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.save_state(w);
        }
        w.put(&self.stats);
    }

    /// Rebuilds a segment from state captured by [`save`](EtherSegment::save).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] on truncation or on a payload
    /// inconsistent with its own embedded configuration.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (cfg, cycle): (SegmentConfig, u64) = r.get()?;
        if cfg.nics == 0 || cfg.tx_ring == 0 || cfg.rx_ring == 0 {
            return Err(Error::SnapshotCorrupt("degenerate segment config".into()));
        }
        let nics = (0..cfg.nics).map(|_| r.get()).collect::<Result<Vec<Nic>, _>>()?;
        let wire: Option<(u64, Frame)> = r.get()?;
        let delayed: VecDeque<(u64, Frame)> = r.get()?;
        let backoff_rng = r.get()?;
        let faults = if r.get()? {
            Some(NetFaults::load_state(&cfg.faults, r)?)
        } else {
            if !cfg.faults.is_disabled() {
                return Err(Error::SnapshotCorrupt("fault plan enabled but no site state".into()));
            }
            None
        };
        let frames = nics.iter().flat_map(|n| n.tx.iter().chain(&n.rx));
        if frames
            .chain(wire.iter().chain(&delayed).map(|(_, f)| f))
            .any(|f| f.src >= cfg.nics || f.dst >= cfg.nics)
        {
            return Err(Error::SnapshotCorrupt("frame addressed off the segment".into()));
        }
        Ok(EtherSegment { cfg, cycle, nics, wire, delayed, backoff_rng, faults, stats: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(nics: usize) -> EtherSegment {
        EtherSegment::new(SegmentConfig::new(nics))
    }

    fn run(seg: &mut EtherSegment, cycles: u64) {
        for _ in 0..cycles {
            seg.tick();
        }
    }

    #[test]
    fn single_sender_delivers_after_wire_time() {
        let mut seg = quiet(2);
        let payload = vec![0xab; 100];
        assert!(seg.enqueue(Frame::new(0, 1, payload.clone())));
        let cycles = frame_cycles(100);
        // One cycle to win arbitration, `cycles` on the wire.
        run(&mut seg, cycles);
        assert!(seg.recv(1).is_none(), "not delivered before wire time elapses");
        run(&mut seg, 2);
        let got = seg.recv(1).expect("frame delivered");
        assert_eq!(got.payload, payload);
        assert_eq!(seg.stats().frames_delivered, 1);
        assert_eq!(seg.stats().collisions, 0);
    }

    #[test]
    fn two_ready_nics_collide_then_both_get_through() {
        let mut seg = quiet(3);
        assert!(seg.enqueue(Frame::new(0, 2, vec![1; 64])));
        assert!(seg.enqueue(Frame::new(1, 2, vec![2; 64])));
        run(&mut seg, 300_000);
        assert!(seg.stats().collisions >= 1, "simultaneous ready NICs must collide");
        assert_eq!(seg.stats().frames_delivered, 2);
        let a = seg.recv(2).expect("first frame");
        let b = seg.recv(2).expect("second frame");
        assert_ne!(a.payload, b.payload);
    }

    #[test]
    fn tx_ring_backpressures_when_full() {
        let mut cfg = SegmentConfig::new(2);
        cfg.tx_ring = 2;
        let mut seg = EtherSegment::new(cfg);
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        assert!(!seg.enqueue(Frame::new(0, 1, vec![0; 8])), "third enqueue must backpressure");
        assert_eq!(seg.stats().tx_rejected, 1);
    }

    #[test]
    fn a_refused_enqueue_builds_nothing_and_an_accepted_frame_is_moved() {
        let mut cfg = SegmentConfig::new(3);
        cfg.tx_ring = 1;
        let mut seg = EtherSegment::new(cfg);
        let frame = Frame::new(0, 1, vec![3; 64]);
        let payload = frame.payload.as_ptr();
        assert!(seg.enqueue_with(0, || frame));
        assert_eq!(seg.nics[0].tx[0].payload.as_ptr(), payload, "the ring holds the frame built");
        seg.set_online(2, false);
        let mut built = 0;
        for src in [0, 2] {
            let queued = seg.enqueue_with(src, || {
                built += 1;
                Frame::new(src, 1, vec![0; 8])
            });
            assert!(!queued, "full ring and offline NIC both refuse");
        }
        assert_eq!(built, 0, "a refusal never calls the builder");
        assert_eq!((seg.stats().tx_enqueued, seg.stats().tx_rejected), (1, 2));
    }

    #[test]
    fn rx_ring_overflow_drops_counted() {
        let mut cfg = SegmentConfig::new(2);
        cfg.rx_ring = 1;
        let mut seg = EtherSegment::new(cfg);
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        run(&mut seg, 100_000);
        assert_eq!(seg.stats().frames_delivered, 1);
        assert_eq!(seg.stats().rx_overflows, 1);
    }

    #[test]
    fn offline_destination_drops_frames() {
        let mut seg = quiet(2);
        seg.set_online(1, false);
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        run(&mut seg, 10_000);
        assert_eq!(seg.stats().offline_drops, 1);
        assert!(seg.recv(1).is_none());
    }

    #[test]
    fn offline_source_rejects_enqueue() {
        let mut seg = quiet(2);
        seg.set_online(0, false);
        assert!(!seg.enqueue(Frame::new(0, 1, vec![0; 8])));
        assert_eq!(seg.stats().tx_rejected, 1);
    }

    #[test]
    fn corrupt_frames_are_crc_rejected_not_delivered() {
        let mut cfg = SegmentConfig::new(2);
        cfg.faults = NetFaultConfig {
            seed: 11,
            corrupt_ppm: firefly_core::fault::PPM, // corrupt every frame
            ..NetFaultConfig::default()
        };
        let mut seg = EtherSegment::new(cfg);
        assert!(seg.enqueue(Frame::new(0, 1, vec![7; 32])));
        run(&mut seg, 10_000);
        let s = seg.stats();
        assert_eq!(s.fault_corrupts, 1);
        assert_eq!(s.crc_rejects, 1);
        assert_eq!(s.frames_delivered, 0);
    }

    #[test]
    fn dup_class_delivers_twice() {
        let mut cfg = SegmentConfig::new(2);
        cfg.faults = NetFaultConfig {
            seed: 11,
            dup_ppm: firefly_core::fault::PPM,
            ..NetFaultConfig::default()
        };
        let mut seg = EtherSegment::new(cfg);
        assert!(seg.enqueue(Frame::new(0, 1, vec![7; 32])));
        run(&mut seg, 10_000);
        assert_eq!(seg.stats().frames_delivered, 2);
        assert!(seg.recv(1).is_some());
        assert!(seg.recv(1).is_some());
    }

    #[test]
    fn partition_severs_cross_boundary_traffic() {
        let mut cfg = SegmentConfig::new(4);
        cfg.faults = NetFaultConfig { seed: 3, ..NetFaultConfig::default() }
            .with_partition(crate::fault::PartitionPlan { from: 0, until: 1 << 40, boundary: 2 });
        let mut seg = EtherSegment::new(cfg);
        assert!(seg.enqueue(Frame::new(0, 3, vec![1; 16]))); // crosses
        assert!(seg.enqueue(Frame::new(0, 1, vec![2; 16]))); // same side
        run(&mut seg, 100_000);
        assert_eq!(seg.stats().partition_drops, 1);
        assert_eq!(seg.stats().frames_delivered, 1);
        assert_eq!(seg.recv(1).expect("same-side frame").payload, vec![2; 16]);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let mut cfg = SegmentConfig::new(4);
        cfg.seed = 99;
        cfg.faults = NetFaultConfig::lossy(5, 50_000);
        let mut a = EtherSegment::new(cfg);
        let mut b = EtherSegment::new(cfg);
        for step in 0..50_000u64 {
            if step % 977 == 0 {
                let src = (step % 4) as usize;
                let dst = (src + 1) % 4;
                let f = Frame::new(src, dst, vec![(step % 251) as u8; 40]);
                assert_eq!(a.enqueue(f.clone()), b.enqueue(f));
            }
            a.tick();
            b.tick();
        }
        assert_eq!(a.stats(), b.stats());
        for nic in 0..4 {
            loop {
                let (fa, fb) = (a.recv(nic), b.recv(nic));
                assert_eq!(fa, fb);
                if fa.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_identical() {
        let mut cfg = SegmentConfig::new(3);
        cfg.seed = 17;
        cfg.faults = NetFaultConfig::lossy(21, 80_000);
        let mut seg = EtherSegment::new(cfg);
        let mut twin = EtherSegment::new(cfg);
        // Load traffic so the wire, rings, and delay queue are non-empty
        // at the cut point.
        for step in 0..20_000u64 {
            if step % 313 == 0 {
                let f = Frame::new((step % 3) as usize, ((step + 1) % 3) as usize, vec![9; 200]);
                seg.enqueue(f.clone());
                twin.enqueue(f);
            }
            seg.tick();
            twin.tick();
        }
        let mut w = SnapWriter::new();
        seg.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EtherSegment::load(&mut r).unwrap();
        r.expect_end().unwrap();
        // The restored segment and the uninterrupted twin must agree
        // from here on, including re-saved bytes.
        for _ in 0..30_000 {
            twin.tick();
            restored.tick();
        }
        assert_eq!(twin.stats(), restored.stats());
        let mut w1 = SnapWriter::new();
        twin.save(&mut w1);
        let mut w2 = SnapWriter::new();
        restored.save(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn frame_addressed_off_the_segment_is_corrupt() {
        let mut seg = quiet(2);
        let payload = vec![0x5a; 16];
        assert!(seg.enqueue(Frame::new(0, 1, payload.clone())));
        let mut w = SnapWriter::new();
        seg.save(&mut w);
        let mut bytes = w.into_bytes();
        // The queued frame: src 0, dst 1, then the length-prefixed payload.
        let mut pattern = [0u64, 1, 16].iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>();
        pattern.extend(&payload);
        let at = bytes.windows(pattern.len()).position(|w| w == pattern).expect("frame bytes");
        bytes[at + 8] = 7;
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(EtherSegment::load(&mut r), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn frame_cycles_matches_deqna_pacing() {
        // 100 payload bytes + 26 overhead = 126 bytes → 32 words, plus
        // 2 preamble words, at 40 cycles/word.
        assert_eq!(frame_cycles(100), (32 + 2) * 40);
    }
}
