//! The composed I/O system: QBus devices arbitrated onto the I/O
//! processor's cache port.
//!
//! On the real machine the RQDX3, DEQNA, and MDC all master the QBus,
//! which reaches memory through the primary processor's cache (Figure 1).
//! Here one [`DmaEngine`] owns port 0 and the devices take turns:
//! round-robin, one word at a time, which is a fair approximation of
//! QBus arbitration.

use crate::deqna::Deqna;
use crate::dma::{DmaEngine, DmaOp};
use crate::mdc::Mdc;
use crate::qbus::QBus;
use crate::rqdx3::Rqdx3;
use firefly_core::agent::Agent;
use firefly_core::fault::FaultConfig;
use firefly_core::stats::FaultStats;
use firefly_core::system::MemSystem;
use firefly_core::{Error, PortId};
use std::fmt;
use std::ops::Range;

/// Which device a tagged DMA word belongs to.
const DEV_MDC: u32 = 1 << 28;
const DEV_DEQNA: u32 = 2 << 28;
const DEV_DISK: u32 = 3 << 28;
/// Extra display controllers are devices 4..16.
const DEV_EXTRA0: u32 = 4 << 28;
const DEV_MASK: u32 = 0xf << 28;
/// The most extra displays one QBus can carry in this model.
pub const MAX_EXTRA_DISPLAYS: usize = 12;

/// The Firefly I/O subsystem.
///
/// # Examples
///
/// ```
/// use firefly_core::config::SystemConfig;
/// use firefly_core::protocol::ProtocolKind;
/// use firefly_core::system::MemSystem;
/// use firefly_io::IoSystem;
///
/// let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
/// let mut io = IoSystem::new();
/// for _ in 0..1000 {
///     io.tick(&mut sys);
///     sys.step();
/// }
/// // The MDC has started polling its work queue by DMA.
/// assert!(io.mdc().stats().polls > 0);
/// ```
pub struct IoSystem {
    qbus: QBus,
    dma: DmaEngine,
    mdc: Mdc,
    deqna: Deqna,
    disk: Rqdx3,
    /// Additional display controllers ("many SRC researchers now have
    /// multiple displays", §5).
    extra_displays: Vec<Mdc>,
    /// Round-robin pointer over the devices.
    next_device: u8,
}

/// The I/O processor's port index, whose interprocessor-interrupt
/// service routine starts the network controller (§3, footnote 2):
/// port 0, the primary processor wired to the QBus (Figure 1).
const IO_CPU_PORT: usize = 0;

impl IoSystem {
    /// A full complement of devices with default settings, DMA on port 0.
    pub fn new() -> Self {
        IoSystem::on_port(PortId::new(0))
    }

    /// A full complement of devices with DMA on an explicit port (see
    /// [`DmaEngine::on_port`]).
    pub fn on_port(port: PortId) -> Self {
        IoSystem {
            qbus: QBus::new(),
            dma: DmaEngine::on_port(port, crate::dma::DEFAULT_CYCLES_PER_WORD),
            mdc: Mdc::new(),
            deqna: Deqna::new(),
            disk: Rqdx3::new(),
            extra_displays: Vec::new(),
            next_device: 0,
        }
    }

    /// Plugs in an additional display controller — "it is easy to plug
    /// multiple display controllers into a single Firefly, and the
    /// marginal cost is dominated by the cost of the extra monitor"
    /// (§5). Returns its index for [`IoSystem::extra_display`].
    ///
    /// The new controller polls its own work queue at
    /// `WQ_BASE + 0x4000·(index+1)` with a matching deposit area.
    ///
    /// # Panics
    ///
    /// Panics beyond [`MAX_EXTRA_DISPLAYS`] controllers.
    pub fn add_display(&mut self) -> usize {
        assert!(
            self.extra_displays.len() < MAX_EXTRA_DISPLAYS,
            "at most {MAX_EXTRA_DISPLAYS} extra displays"
        );
        let i = self.extra_displays.len();
        let stride = 0x4000 * (i as u32 + 1);
        self.extra_displays.push(Mdc::with_queue(
            firefly_core::Addr::new(crate::mdc::WQ_BASE.byte() + stride),
            firefly_core::Addr::new(crate::mdc::MOUSE_KEYBOARD_BASE.byte() + stride),
        ));
        i
    }

    /// An extra display controller by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn extra_display(&self, i: usize) -> &Mdc {
        &self.extra_displays[i]
    }

    /// The QBus map registers.
    pub fn qbus(&mut self) -> &mut QBus {
        &mut self.qbus
    }

    /// The display controller.
    pub fn mdc(&self) -> &Mdc {
        &self.mdc
    }

    /// The Ethernet controller.
    pub fn deqna(&self) -> &Deqna {
        &self.deqna
    }

    /// Mutable access to the Ethernet controller.
    pub fn deqna_mut(&mut self) -> &mut Deqna {
        &mut self.deqna
    }

    /// The disk controller.
    pub fn disk(&self) -> &Rqdx3 {
        &self.disk
    }

    /// Mutable access to the disk controller.
    pub fn disk_mut(&mut self) -> &mut Rqdx3 {
        &mut self.disk
    }

    /// The shared DMA engine (for traffic statistics).
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    /// Installs the device-level fault models (QBus timeouts, DEQNA
    /// packet loss, RQDX3 media read errors) from one plan. Zero-rate
    /// classes are no-ops, so the same [`FaultConfig`] that drives the
    /// memory system can be passed straight through.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.dma.install_faults(cfg);
        self.deqna.install_faults(cfg);
        self.disk.install_faults(cfg);
    }

    /// Device-side fault and recovery counters (the memory-system
    /// counters live in [`MemSystem::fault_stats`]).
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            dma_timeouts: self.dma.timeouts(),
            device_retries: self.dma.device_retries() + self.disk.read_retries(),
            packets_dropped: self.deqna.wire_dropped(),
            disk_read_errors: self.disk.read_errors(),
            ..FaultStats::default()
        }
    }

    /// Takes the structured errors from every device (exhausted retry
    /// budgets surface as [`Error::DeviceTimeout`]).
    pub fn drain_fault_errors(&mut self) -> Vec<Error> {
        let mut errors = self.dma.drain_fault_errors();
        errors.extend(self.disk.drain_fault_errors());
        errors
    }

    /// Advances the whole I/O system one bus cycle. Call once per
    /// [`MemSystem::step`].
    pub fn tick(&mut self, sys: &mut MemSystem) {
        // The interprocessor-interrupt service routine: "the few
        // instructions necessary to start the network controller are
        // coded directly in the I/O processor's interprocessor interrupt
        // service routine" (§3, footnote 2). Any processor can
        // `post_interrupt` the I/O processor to start a transmit.
        if sys.take_interrupt(PortId::new(IO_CPU_PORT)) {
            self.deqna.kick();
        }

        // Complete any finished word and route it home by tag.
        if let Some(mut done) = self.dma.tick(sys) {
            let device = done.tag & DEV_MASK;
            done.tag &= !DEV_MASK;
            match device {
                DEV_MDC => self.mdc.on_completion(done),
                DEV_DEQNA => self.deqna.on_completion(done),
                DEV_DISK => self.disk.on_completion(done),
                other if other >= DEV_EXTRA0 => {
                    let i = ((other >> 28) - 4) as usize;
                    if let Some(d) = self.extra_displays.get_mut(i) {
                        d.on_completion(done);
                    }
                }
                _ => {}
            }
        }

        // Hand the engine one more word, round-robin across devices.
        if self.dma.is_idle() {
            let n = 3 + self.extra_displays.len() as u8;
            for i in 0..n {
                let dev = (self.next_device + i) % n;
                let tagged = match dev {
                    0 => self.mdc.wants_dma().map(|op| retag(op, DEV_MDC)),
                    1 => self.deqna.wants_dma().map(|op| retag(op, DEV_DEQNA)),
                    2 => self.disk.wants_dma().map(|op| retag(op, DEV_DISK)),
                    d => {
                        let i = (d - 3) as usize;
                        let device_bits = (4 + i as u32) << 28;
                        self.extra_displays[i].wants_dma().map(|op| retag(op, device_bits))
                    }
                };
                if let Some(op) = tagged {
                    self.dma.enqueue(op);
                    self.next_device = (dev + 1) % n;
                    break;
                }
            }
        }

        self.mdc.tick();
        self.deqna.tick();
        self.disk.tick();
        for d in &mut self.extra_displays {
            d.tick();
        }
    }
}

/// The I/O system is the agent on its DMA port. Nothing freezes it: it
/// keeps ticking whatever becomes of that port.
impl Agent for IoSystem {
    fn ports(&self) -> Range<usize> {
        let port = self.dma.port.index();
        port..port + 1
    }

    fn tick(&mut self, sys: &mut MemSystem) {
        IoSystem::tick(self, sys);
    }

    /// The earliest of its parts' wakes. A device's wish for a DMA word
    /// counts only while the engine is idle: a busy engine next takes one
    /// on a tick that is its own wake.
    fn wake(&self, from: u64, sys: &MemSystem) -> u64 {
        if sys.has_interrupt(PortId::new(IO_CPU_PORT)) {
            return from;
        }
        let idle = self.dma.is_idle();
        let displays = std::iter::once(&self.mdc).chain(&self.extra_displays);
        displays
            .map(|d| d.wake(from, idle))
            .chain([
                self.dma.wake(from, sys),
                self.deqna.wake(from, idle),
                self.disk.wake(from, idle),
            ])
            .min()
            .expect("the system has devices")
    }

    fn advance_idle(&mut self, n: u64, _sys: &MemSystem) {
        self.dma.advance_idle(n);
        self.mdc.advance_idle(n);
        self.deqna.advance_idle(n);
        self.disk.advance_idle(n);
        for d in &mut self.extra_displays {
            d.advance_idle(n);
        }
    }
}

fn retag(op: DmaOp, device: u32) -> DmaOp {
    match op {
        DmaOp::Read { addr, tag } => DmaOp::Read { addr, tag: tag | device },
        DmaOp::Write { addr, value, tag } => DmaOp::Write { addr, value, tag: tag | device },
    }
}

impl Default for IoSystem {
    fn default() -> Self {
        IoSystem::new()
    }
}

impl fmt::Debug for IoSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoSystem")
            .field("dma", &self.dma)
            .field("mdc", &self.mdc)
            .field("deqna", &self.deqna)
            .field("disk", &self.disk)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdc::{self, encode_fill};
    use crate::raster::RasterOp;
    use crate::rqdx3::DiskRequest;
    use firefly_core::config::SystemConfig;
    use firefly_core::protocol::ProtocolKind;
    use firefly_core::system::Request;
    use firefly_core::{Addr, PortId, ProtocolKind as PK};

    fn sys() -> MemSystem {
        MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap()
    }

    fn run(io: &mut IoSystem, sys: &mut MemSystem, cycles: u64) {
        for _ in 0..cycles {
            io.tick(sys);
            sys.step();
        }
    }

    /// A CPU enqueues a fill command in main memory; the MDC finds it by
    /// polling and paints — the "fully symmetric access" path of §3.
    #[test]
    fn cpu_enqueues_display_command_via_memory() {
        let mut s = sys();
        let mut io = IoSystem::new();
        let cpu = PortId::new(1); // a *secondary* processor drives the display
        let cmd = encode_fill(50, 60, 16, 4, RasterOp::Set);
        for (i, w) in cmd.iter().enumerate() {
            s.run_to_completion(cpu, Request::write(Mdc::slot_word(0, i as u32), *w)).unwrap();
        }
        // Advance the tail: one command available.
        s.run_to_completion(cpu, Request::write(mdc::WQ_BASE, 1)).unwrap();
        run(&mut io, &mut s, 60_000);
        assert_eq!(io.mdc().stats().commands, 1);
        assert_eq!(io.mdc().framebuffer().count_set_rect(50, 60, 16, 4), 64);
    }

    #[test]
    fn disk_write_reads_cpu_data_through_io_cache() {
        let mut s = sys();
        let mut io = IoSystem::new();
        let cpu = PortId::new(1);
        let buf = Addr::new(0x0060_0000);
        for i in 0..crate::rqdx3::BLOCK_WORDS {
            s.run_to_completion(cpu, Request::write(buf.add_words(i), i + 7)).unwrap();
        }
        io.disk_mut().submit(DiskRequest::Write { lba: 3, addr: buf });
        run(&mut io, &mut s, 2_000_000);
        assert_eq!(io.disk().stats().writes, 1);
        assert_eq!(io.disk().peek_block_word(3, 9), 16);
        assert_eq!(
            s.resident_lines(PortId::new(0)).len(),
            0,
            "DMA traffic left nothing in the I/O cache"
        );
    }

    #[test]
    fn ethernet_rx_is_visible_to_cpus() {
        let mut s = sys();
        let mut io = IoSystem::new();
        let buf = Addr::new(0x0070_0000);
        io.deqna_mut().post_rx_buffer(buf, 64);
        let mut pkt = crate::deqna::Packet::zeroed(8);
        pkt.words = vec![0xdead_beef, 0x1234_5678];
        io.deqna_mut().deliver(pkt);
        run(&mut io, &mut s, 50_000);
        assert_eq!(io.deqna().stats().rx_packets, 1);
        let r = s.run_to_completion(PortId::new(1), Request::read(buf)).unwrap();
        assert_eq!(r.value, 0xdead_beef);
        let r = s.run_to_completion(PortId::new(1), Request::read(buf.add_words(1))).unwrap();
        assert_eq!(r.value, 0x1234_5678);
    }

    #[test]
    fn devices_share_the_port_without_starvation() {
        let mut s = sys();
        let mut io = IoSystem::new();
        // Disk busy + ethernet tx + display polling, all at once.
        io.disk_mut().submit(DiskRequest::Read { lba: 0, addr: Addr::new(0x0050_0000) });
        io.deqna_mut().enqueue_tx(Addr::new(0x0051_0000), 256);
        io.deqna_mut().kick();
        run(&mut io, &mut s, 2_000_000);
        assert_eq!(io.disk().stats().reads, 1);
        assert_eq!(io.deqna().stats().tx_packets, 1);
        assert!(io.mdc().stats().polls > 100);
    }

    /// Footnote 2 end to end: a *secondary* processor enqueues network
    /// work and pokes the I/O processor over the MBus interrupt lines;
    /// the service routine starts the DEQNA.
    #[test]
    fn interprocessor_interrupt_starts_the_network() {
        let mut s = sys();
        let mut io = IoSystem::new();
        io.deqna_mut().enqueue_tx(Addr::new(0x0051_0000), 128);
        run(&mut io, &mut s, 5_000);
        assert_eq!(io.deqna().stats().tx_packets, 0, "nothing starts without the kick");
        // The secondary CPU (port 1) posts the interrupt to port 0.
        s.post_interrupt(PortId::new(0)).unwrap();
        run(&mut io, &mut s, 80_000);
        assert_eq!(io.deqna().stats().tx_packets, 1);
        assert_eq!(io.deqna().stats().kicks, 1);
    }

    /// "Many SRC researchers now have multiple displays": two MDCs on
    /// one QBus, each polling its own queue, both painting.
    #[test]
    fn two_displays_paint_independently() {
        let mut s = sys();
        let mut io = IoSystem::new();
        let second = io.add_display();
        let cpu = PortId::new(1);

        // A command for each display, in each display's own queue.
        let cmd0 = encode_fill(10, 10, 8, 8, RasterOp::Set);
        for (i, w) in cmd0.iter().enumerate() {
            s.run_to_completion(cpu, Request::write(Mdc::slot_word(0, i as u32), *w)).unwrap();
        }
        s.run_to_completion(cpu, Request::write(mdc::WQ_BASE, 1)).unwrap();

        let cmd1 = encode_fill(500, 300, 4, 4, RasterOp::Set);
        let q1 = io.extra_display(second).queue_base();
        for (i, w) in cmd1.iter().enumerate() {
            let slot = io.extra_display(second).my_slot_word(0, i as u32);
            s.run_to_completion(cpu, Request::write(slot, *w)).unwrap();
        }
        s.run_to_completion(cpu, Request::write(q1, 1)).unwrap();

        run(&mut io, &mut s, 80_000);
        assert_eq!(io.mdc().stats().commands, 1);
        assert_eq!(io.extra_display(second).stats().commands, 1);
        assert_eq!(io.mdc().framebuffer().count_set_rect(10, 10, 8, 8), 64);
        assert_eq!(io.extra_display(second).framebuffer().count_set_rect(500, 300, 4, 4), 16);
        // Each painted only its own frame buffer.
        assert_eq!(io.mdc().framebuffer().count_set_rect(500, 300, 4, 4), 0);
    }

    #[test]
    fn protocol_choice_does_not_break_dma() {
        // DMA coherence must hold under the invalidation baselines too.
        for kind in [PK::Illinois, PK::Berkeley, PK::Dragon] {
            let mut s = MemSystem::new(SystemConfig::microvax(2), kind).unwrap();
            let mut io = IoSystem::new();
            let buf = Addr::new(0x0070_0000);
            // CPU caches the word first, then DMA overwrites it.
            s.run_to_completion(PortId::new(1), Request::write(buf, 1)).unwrap();
            io.deqna_mut().post_rx_buffer(buf, 8);
            let mut pkt = crate::deqna::Packet::zeroed(4);
            pkt.words = vec![42];
            io.deqna_mut().deliver(pkt);
            run(&mut io, &mut s, 50_000);
            let r = s.run_to_completion(PortId::new(1), Request::read(buf)).unwrap();
            assert_eq!(r.value, 42, "{kind:?}: CPU must see DMA data");
        }
    }
}
