//! The §3/§5 QBus bandwidth claim: "When fully loaded, the QBus consumes
//! about 30% of the main memory bandwidth. The average I/O load is much
//! lower." — and what that load does to the processors sharing the bus.

#![deny(unsafe_code)]

use firefly_core::Addr;
use firefly_io::dma::{DmaEngine, DmaOp};
use firefly_sim::FireflyBuilder;

fn main() {
    println!("QBus load on the MBus\n");

    // 1. A saturated QBus alone: its share of MBus bandwidth.
    let cfg = firefly_core::config::SystemConfig::microvax(2);
    let mut sys = firefly_core::system::MemSystem::new(cfg, firefly_core::ProtocolKind::Firefly)
        .expect("config ok");
    let mut dma = DmaEngine::new();
    for i in 0..2_000u32 {
        dma.enqueue(DmaOp::Write { addr: Addr::new(0x0040_0000 + i * 4), value: i, tag: 0 });
    }
    while !dma.is_idle() {
        dma.tick(&mut sys);
        sys.step();
    }
    println!(
        "saturated QBus, idle CPUs: bus load L = {:.2}   (paper: ~0.30)",
        sys.bus_stats().load()
    );
    // Per-module traffic: DMA writes land in the second 4 MB module.
    let modules = sys.module_traffic();
    println!(
        "memory module word writes (master + slaves): {:?}",
        modules.iter().map(|&(_, w)| w).collect::<Vec<_>>()
    );

    // 2. Five busy CPUs with and without a saturated disk.
    let mut base_machine = FireflyBuilder::microvax(5).seed(42).build();
    let base = base_machine.measure(150_000, 300_000);

    let mut loaded = FireflyBuilder::microvax(5).with_io().seed(42).build();
    {
        let io = loaded.io_mut().expect("io attached");
        for lba in 0..64 {
            io.disk_mut().submit(firefly_io::rqdx3::DiskRequest::Read {
                lba,
                addr: Addr::new(0x0040_0000 + lba * 512),
            });
        }
    }
    let with_io = loaded.measure(150_000, 300_000);

    println!("\nfive-CPU machine:");
    println!(
        "  without I/O:          L = {:.2}, per-CPU {:.0}K refs/s, TPI {:.1}",
        base.bus_load, base.total_k, base.tpi
    );
    println!(
        "  with busy disk DMA:   L = {:.2}, per-CPU {:.0}K refs/s, TPI {:.1}",
        with_io.bus_load, with_io.total_k, with_io.tpi
    );
    let dma_words =
        loaded.io().map(|io| io.dma().words_read() + io.dma().words_written()).unwrap_or(0);
    println!(
        "\nthe disk's real duty cycle is tiny ({dma_words} DMA words in the window):\n\
         \"the average I/O load is much lower\" — the 30% figure is the QBus's ceiling,\n\
         not its habit."
    );
}
