//! The DEQNA Ethernet controller.
//!
//! "For the disk and network interfaces, we chose to use standard DEC
//! devices ... and an Ethernet controller (DEQNA)." Transmit and receive
//! move packet data by DMA through the I/O processor's cache. The
//! interesting architectural detail is footnote 2: "Any processor can
//! enqueue work for the network and then initiate the transfer by a
//! specialized interprocessor interrupt to the I/O processor. The few
//! instructions necessary to start the network controller are coded
//! directly in the I/O processor's interprocessor interrupt service
//! routine." — modeled here by [`Deqna::kick`].

use crate::dma::{DmaCompletion, DmaOp};
use firefly_core::fault::{site, FaultConfig, FaultSite};
use firefly_core::{Addr, PREAMBLE_WORDS, WIRE_CYCLES_PER_WORD};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// A packet on the simulated wire (word-packed payload plus byte length).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Packet {
    /// Payload words (big-endian byte packing).
    pub words: Vec<u32>,
    /// Exact byte length.
    pub bytes: u32,
}

impl Packet {
    /// Builds a packet of `bytes` zero bytes (tests overwrite words).
    pub fn zeroed(bytes: u32) -> Self {
        Packet { words: vec![0; bytes.div_ceil(4) as usize], bytes }
    }
}

firefly_core::counters! {
    /// DEQNA statistics.
    pub struct DeqnaStats {
        /// Packets transmitted.
        pub tx_packets: u64,
        /// Bytes transmitted.
        pub tx_bytes: u64,
        /// Packets received into memory.
        pub rx_packets: u64,
        /// Bytes received.
        pub rx_bytes: u64,
        /// Interprocessor kicks received.
        pub kicks: u64,
        /// Receive packets dropped for want of a posted buffer.
        pub rx_dropped: u64,
        /// Zero-length (runt) frames rejected at the wire: there is nothing
        /// to DMA, so accepting one would wedge the receive engine.
        pub rx_runts: u64,
    }
}

#[derive(Debug)]
enum TxState {
    Idle,
    /// DMA-reading the packet out of memory.
    Fetching {
        addr: Addr,
        bytes: u32,
        got: Vec<u32>,
    },
    /// Occupying the wire.
    Sending {
        packet: Packet,
        cycles: u64,
    },
}

#[derive(Debug)]
enum RxState {
    Idle,
    /// DMA-writing a received packet into a posted buffer.
    Storing {
        packet: Packet,
        buffer: Addr,
        next_word: u32,
    },
}

/// The Ethernet controller.
#[derive(Debug)]
pub struct Deqna {
    /// Pending transmit descriptors: (memory address, byte length).
    tx_queue: VecDeque<(Addr, u32)>,
    /// Whether the start routine has been run since the last enqueue.
    started: bool,
    tx: TxState,
    rx: RxState,
    /// Posted receive buffers: (address, capacity bytes).
    rx_buffers: VecDeque<(Addr, u32)>,
    /// Packets that arrived from the wire, awaiting a buffer.
    rx_pending: VecDeque<Packet>,
    /// Packets fully transmitted (readable by a test or a peer model).
    tx_done: VecDeque<Packet>,
    /// Receive-complete interrupt flag.
    rx_interrupt: bool,
    /// Transmit-complete interrupt flag.
    tx_interrupt: bool,
    stats: DeqnaStats,
    /// Wire-level packet-loss fault model.
    faults: Option<WireFaults>,
}

/// Ethernet packet-loss fault state. Loss is inherently uncorrectable at
/// this layer — retransmission belongs to the protocols above — so the
/// controller only counts it.
#[derive(Debug)]
struct WireFaults {
    site: FaultSite,
    drop_ppm: u32,
    dropped: u64,
}

impl Deqna {
    /// A quiescent controller.
    pub fn new() -> Self {
        Deqna {
            tx_queue: VecDeque::new(),
            started: false,
            tx: TxState::Idle,
            rx: RxState::Idle,
            rx_buffers: VecDeque::new(),
            rx_pending: VecDeque::new(),
            tx_done: VecDeque::new(),
            rx_interrupt: false,
            tx_interrupt: false,
            stats: DeqnaStats::default(),
            faults: None,
        }
    }

    /// Installs the wire packet-loss fault model. A zero
    /// `packet_drop_ppm` rate leaves the controller untouched.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.faults = if cfg.packet_drop_ppm == 0 {
            None
        } else {
            Some(WireFaults {
                site: FaultSite::new(cfg.seed, site::DEQNA),
                drop_ppm: cfg.packet_drop_ppm,
                dropped: 0,
            })
        };
    }

    /// Packets lost on the simulated wire by the fault model (distinct
    /// from [`DeqnaStats::rx_dropped`], buffer exhaustion).
    pub fn wire_dropped(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped)
    }

    /// Enqueues a transmit of `bytes` starting at `addr` (any processor
    /// may do this — the abstraction is symmetric).
    pub fn enqueue_tx(&mut self, addr: Addr, bytes: u32) {
        assert!(bytes > 0, "empty packets are not transmittable");
        self.tx_queue.push_back((addr, bytes));
        self.started = false;
    }

    /// The specialized interprocessor interrupt: the I/O processor's
    /// service routine starts the controller.
    pub fn kick(&mut self) {
        self.stats.kicks += 1;
        self.started = true;
    }

    /// Posts a receive buffer of `capacity` bytes at `addr`.
    pub fn post_rx_buffer(&mut self, addr: Addr, capacity: u32) {
        self.rx_buffers.push_back((addr, capacity));
    }

    /// Delivers a packet from the wire (a peer model or test calls this).
    /// The packet-loss fault model may eat it before the controller ever
    /// sees it.
    pub fn deliver(&mut self, packet: Packet) {
        if let Some(f) = &mut self.faults {
            if f.site.fires(f.drop_ppm) {
                f.dropped += 1;
                return;
            }
        }
        // Reject runts at the wire. A zero-length frame has no words to
        // DMA: if it ever reached `RxState::Storing`, `wants_dma` would
        // never issue a write, no completion would ever arrive, and the
        // receive engine would sit in `Storing` forever with every later
        // packet stuck behind it.
        if packet.bytes == 0 || packet.words.is_empty() {
            self.stats.rx_runts += 1;
            return;
        }
        self.rx_pending.push_back(packet);
    }

    /// Takes a fully transmitted packet off the "wire".
    pub fn take_transmitted(&mut self) -> Option<Packet> {
        self.tx_done.pop_front()
    }

    /// Reads and clears the receive interrupt.
    pub fn take_rx_interrupt(&mut self) -> bool {
        std::mem::take(&mut self.rx_interrupt)
    }

    /// Reads and clears the transmit interrupt.
    pub fn take_tx_interrupt(&mut self) -> bool {
        std::mem::take(&mut self.tx_interrupt)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DeqnaStats {
        &self.stats
    }

    /// Advances wire timing one cycle.
    pub fn tick(&mut self) {
        if let TxState::Sending { cycles, .. } = &mut self.tx {
            *cycles = cycles.saturating_sub(1);
            if *cycles == 0 {
                let TxState::Sending { packet, .. } =
                    std::mem::replace(&mut self.tx, TxState::Idle)
                else {
                    unreachable!()
                };
                self.stats.tx_packets += 1;
                self.stats.tx_bytes += u64::from(packet.bytes);
                self.tx_done.push_back(packet);
                self.tx_interrupt = true;
            }
        }
        // Start storing a received packet when a buffer is available.
        if matches!(self.rx, RxState::Idle) {
            if let Some(packet) = self.rx_pending.pop_front() {
                match self.rx_buffers.pop_front() {
                    Some((buffer, capacity)) if capacity >= packet.bytes => {
                        self.rx = RxState::Storing { packet, buffer, next_word: 0 };
                    }
                    Some(_) | None => {
                        self.stats.rx_dropped += 1;
                    }
                }
            }
        }
    }

    /// The first cycle from `from` on that its tick, or while the DMA
    /// engine is `dma_idle` its [`wants_dma`](Deqna::wants_dma), acts.
    pub(crate) fn wake(&self, from: u64, dma_idle: bool) -> u64 {
        match (&self.rx, &self.tx) {
            (RxState::Idle, _) if !self.rx_pending.is_empty() => from,
            (RxState::Storing { .. }, _) if dma_idle => from,
            (_, TxState::Sending { cycles, .. }) => from + cycles.saturating_sub(1),
            (_, TxState::Idle) if dma_idle && self.started && !self.tx_queue.is_empty() => from,
            (_, TxState::Fetching { .. }) if dma_idle => from,
            _ => u64::MAX,
        }
    }

    /// Credits `n` ticks before [`wake`](Deqna::wake).
    pub(crate) fn advance_idle(&mut self, n: u64) {
        if let TxState::Sending { cycles, .. } = &mut self.tx {
            *cycles -= n;
        }
    }

    /// The next DMA word the controller wants, if any.
    pub fn wants_dma(&mut self) -> Option<DmaOp> {
        // Receive storing takes priority (the wire does not wait).
        if let RxState::Storing { packet, buffer, next_word } = &self.rx {
            let w = *next_word;
            if (w as usize) < packet.words.len() {
                return Some(DmaOp::Write {
                    addr: buffer.add_words(w),
                    value: packet.words[w as usize],
                    tag: 2,
                });
            }
        }
        match &self.tx {
            TxState::Idle => {
                if self.started {
                    if let Some((addr, bytes)) = self.tx_queue.pop_front() {
                        self.tx = TxState::Fetching { addr, bytes, got: Vec::new() };
                        return self.wants_dma();
                    }
                }
                None
            }
            TxState::Fetching { addr, bytes, got } => {
                let words = bytes.div_ceil(4);
                if (got.len() as u32) < words {
                    Some(DmaOp::Read { addr: addr.add_words(got.len() as u32), tag: 1 })
                } else {
                    None
                }
            }
            TxState::Sending { .. } => None,
        }
    }

    /// Feeds a DMA completion back.
    pub fn on_completion(&mut self, c: DmaCompletion) {
        match c.tag {
            1 => {
                if let TxState::Fetching { bytes, got, .. } = &mut self.tx {
                    got.push(c.value);
                    let words = bytes.div_ceil(4);
                    if got.len() as u32 == words {
                        let packet = Packet { words: std::mem::take(got), bytes: *bytes };
                        // Preamble + words on the 8 Mb/s wire.
                        let cycles = (u64::from(words) + PREAMBLE_WORDS) * WIRE_CYCLES_PER_WORD;
                        self.tx = TxState::Sending { packet, cycles };
                    }
                }
            }
            2 => {
                if let RxState::Storing { packet, next_word, .. } = &mut self.rx {
                    *next_word += 1;
                    if *next_word as usize >= packet.words.len() {
                        self.stats.rx_packets += 1;
                        self.stats.rx_bytes += u64::from(packet.bytes);
                        self.rx = RxState::Idle;
                        self.rx_interrupt = true;
                    }
                }
            }
            _ => {}
        }
    }
}

impl Default for Deqna {
    fn default() -> Self {
        Deqna::new()
    }
}

impl fmt::Display for DeqnaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx {} pkts / {} B, rx {} pkts / {} B, {} kicks, {} dropped, {} runts",
            self.tx_packets,
            self.tx_bytes,
            self.rx_packets,
            self.rx_bytes,
            self.kicks,
            self.rx_dropped,
            self.rx_runts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the controller against a closure-memory.
    fn run(d: &mut Deqna, mut mem: impl FnMut(&DmaOp) -> u32, cycles: u64) {
        for _ in 0..cycles {
            if let Some(op) = d.wants_dma() {
                d.on_completion(op.complete(mem(&op)));
            }
            d.tick();
        }
    }

    #[test]
    fn transmit_needs_a_kick() {
        let mut d = Deqna::new();
        d.enqueue_tx(Addr::new(0x1000), 64);
        run(&mut d, |_| 0xabcd, 1_000);
        assert_eq!(d.stats().tx_packets, 0, "no kick, no transmit");
        d.kick();
        run(&mut d, |_| 0xabcd, 5_000);
        assert_eq!(d.stats().tx_packets, 1);
        assert_eq!(d.stats().tx_bytes, 64);
        let pkt = d.take_transmitted().expect("packet on the wire");
        assert_eq!(pkt.words.len(), 16);
        assert!(pkt.words.iter().all(|&w| w == 0xabcd));
        assert!(d.take_tx_interrupt());
    }

    #[test]
    fn wire_time_is_eight_megabits() {
        let mut d = Deqna::new();
        d.enqueue_tx(Addr::new(0), 1500);
        d.kick();
        let mut cycles = 0u64;
        while d.stats().tx_packets == 0 {
            if let Some(op) = d.wants_dma() {
                d.on_completion(op.complete(0));
            }
            d.tick();
            cycles += 1;
            assert!(cycles < 100_000);
        }
        // 375 one-cycle word fetches, then (375 + 2 preamble words) × 40
        // = 15,080 wire cycles, the first in the last fetch's cycle: 1500 B
        // in 1.5 ms on the wire, 8 Mb/s.
        assert_eq!(cycles, 374 + 15_080, "1500 B tx took {cycles} cycles");
    }

    #[test]
    fn receive_stores_into_posted_buffer_and_interrupts() {
        let mut d = Deqna::new();
        let mut written: Vec<(u32, u32)> = Vec::new();
        d.post_rx_buffer(Addr::new(0x8000), 128);
        let mut pkt = Packet::zeroed(12);
        pkt.words = vec![1, 2, 3];
        d.deliver(pkt);
        run(
            &mut d,
            |op| {
                if let DmaOp::Write { addr, value, .. } = op {
                    written.push((addr.byte(), *value));
                }
                0
            },
            1_000,
        );
        assert_eq!(d.stats().rx_packets, 1);
        assert!(d.take_rx_interrupt());
        assert_eq!(written, vec![(0x8000, 1), (0x8004, 2), (0x8008, 3)]);
    }

    #[test]
    fn receive_without_buffer_is_dropped() {
        let mut d = Deqna::new();
        d.deliver(Packet::zeroed(64));
        run(&mut d, |_| 0, 100);
        assert_eq!(d.stats().rx_dropped, 1);
        assert_eq!(d.stats().rx_packets, 0);
    }

    #[test]
    fn undersized_buffer_drops() {
        let mut d = Deqna::new();
        d.post_rx_buffer(Addr::new(0x8000), 16);
        d.deliver(Packet::zeroed(64));
        run(&mut d, |_| 0, 100);
        assert_eq!(d.stats().rx_dropped, 1);
    }

    #[test]
    #[should_panic(expected = "empty packets")]
    fn empty_tx_rejected() {
        let mut d = Deqna::new();
        d.enqueue_tx(Addr::new(0), 0);
    }

    #[test]
    fn rx_buffer_exhaustion_drops_overflow_and_recovers() {
        // Two posted buffers, five delivered packets: two stored, three
        // dropped — and a freshly posted buffer afterwards receives
        // again (exhaustion is not a terminal state).
        let mut d = Deqna::new();
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.post_rx_buffer(Addr::new(0x9000), 128);
        for _ in 0..5 {
            d.deliver(Packet::zeroed(64));
        }
        run(&mut d, |_| 0, 5_000);
        assert_eq!(d.stats().rx_packets, 2);
        assert_eq!(d.stats().rx_dropped, 3);
        d.post_rx_buffer(Addr::new(0xa000), 128);
        d.deliver(Packet::zeroed(64));
        run(&mut d, |_| 0, 5_000);
        assert_eq!(d.stats().rx_packets, 3, "controller must recover after exhaustion");
        assert_eq!(d.stats().rx_dropped, 3);
    }

    #[test]
    fn zero_length_packet_is_a_runt_and_does_not_wedge_receive() {
        // Regression: a zero-length frame used to enter RxState::Storing
        // with no words to DMA and wedge the receive engine forever.
        let mut d = Deqna::new();
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.deliver(Packet { words: vec![], bytes: 0 });
        let mut pkt = Packet::zeroed(8);
        pkt.words = vec![7, 9];
        d.deliver(pkt);
        run(&mut d, |_| 0, 1_000);
        assert_eq!(d.stats().rx_runts, 1, "the runt is counted");
        assert_eq!(d.stats().rx_packets, 1, "the packet behind the runt must land");
        assert_eq!(d.stats().rx_dropped, 0, "a runt neither consumes nor drops a buffer");
        assert!(d.take_rx_interrupt());
    }

    #[test]
    fn interrupt_flags_clear_on_take() {
        let mut d = Deqna::new();
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.deliver(Packet::zeroed(16));
        d.enqueue_tx(Addr::new(0x1000), 16);
        d.kick();
        run(&mut d, |_| 0, 5_000);
        assert!(d.take_rx_interrupt(), "first take observes the rx interrupt");
        assert!(!d.take_rx_interrupt(), "second take must see it cleared");
        assert!(d.take_tx_interrupt(), "first take observes the tx interrupt");
        assert!(!d.take_tx_interrupt(), "second take must see it cleared");
    }

    #[test]
    fn stats_delta_subtracts_field_by_field() {
        let mut d = Deqna::new();
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.deliver(Packet::zeroed(16));
        run(&mut d, |_| 0, 1_000);
        let before = *d.stats();
        d.enqueue_tx(Addr::new(0x1000), 64);
        d.kick();
        d.deliver(Packet { words: vec![], bytes: 0 }); // runt
        run(&mut d, |_| 0, 5_000);
        let delta = d.stats().delta(&before);
        assert_eq!(
            delta,
            DeqnaStats {
                tx_packets: 1,
                tx_bytes: 64,
                rx_packets: 0,
                rx_bytes: 0,
                kicks: 1,
                rx_dropped: 0,
                rx_runts: 1
            }
        );
        // Self-delta is all zero.
        assert_eq!(d.stats().delta(d.stats()), DeqnaStats::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misordered snapshots")]
    fn stats_delta_rejects_misordered_snapshots() {
        let newer = DeqnaStats { tx_packets: 3, ..Default::default() };
        let older = DeqnaStats::default();
        let _ = older.delta(&newer);
    }

    #[test]
    fn wire_faults_drop_packets_before_the_controller() {
        use firefly_core::fault::{FaultConfig, PPM};
        let mut d = Deqna::new();
        d.install_faults(&FaultConfig { seed: 2, packet_drop_ppm: PPM, ..Default::default() });
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.deliver(Packet::zeroed(12));
        run(&mut d, |_| 0, 200);
        assert_eq!(d.wire_dropped(), 1);
        assert_eq!(d.stats().rx_packets, 0);
        assert_eq!(d.stats().rx_dropped, 0, "wire loss is not buffer exhaustion");
        // Zero rate is a no-op install.
        let mut d = Deqna::new();
        d.install_faults(&FaultConfig { seed: 2, ..Default::default() });
        d.post_rx_buffer(Addr::new(0x8000), 128);
        d.deliver(Packet::zeroed(12));
        run(&mut d, |_| 0, 200);
        assert_eq!(d.stats().rx_packets, 1);
        assert_eq!(d.wire_dropped(), 0);
    }
}
