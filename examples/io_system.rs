//! The I/O system end to end: disk blocks, Ethernet packets through the
//! QBus map registers, the interprocessor "kick", and the §6 RPC
//! transfer, run on the fleet's cycle-level Ethernet segment.
//!
//! ```sh
//! cargo run --release --example io_system
//! ```

use firefly::core::config::SystemConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, PortId};
use firefly::io::rqdx3::DiskRequest;
use firefly::io::IoSystem;
use firefly::sim::fleet::run_rpc_transfer;

fn main() -> Result<(), firefly::core::Error> {
    let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly)?;
    let mut io = IoSystem::new();
    let cpu = PortId::new(1);

    // --- QBus mapping -----------------------------------------------------
    let buf = Addr::new(0x0060_0000);
    let qaddr = io.qbus().map_buffer(16, buf, 2048).expect("map ok");
    println!("QBus: mapped 2 KB at QBus address {qaddr:#x} -> physical {buf}");

    // --- disk: write a block, read it back --------------------------------
    for i in 0..128u32 {
        sys.run_to_completion(cpu, Request::write(buf.add_words(i), 0xd15c_0000 | i))?;
    }
    io.disk_mut().submit(DiskRequest::Write { lba: 42, addr: buf });
    io.disk_mut().submit(DiskRequest::Read { lba: 42, addr: buf.add_words(128) });
    let t0 = sys.cycle();
    while io.disk().is_busy() {
        io.tick(&mut sys);
        sys.step();
    }
    let r = sys.run_to_completion(cpu, Request::read(buf.add_words(128 + 5)))?;
    println!(
        "RQDX3: wrote + read back block 42 in {:.1} ms; word 5 round-tripped as {:#x}",
        (sys.cycle() - t0) as f64 * 100e-9 * 1e3,
        r.value
    );
    assert_eq!(r.value, 0xd15c_0005);

    // --- Ethernet: any CPU enqueues, then kicks the I/O processor ---------
    io.deqna_mut().enqueue_tx(buf, 256);
    io.deqna_mut().kick(); // the specialized interprocessor interrupt
    while io.deqna().stats().tx_packets == 0 {
        io.tick(&mut sys);
        sys.step();
    }
    println!("DEQNA: {}", io.deqna().stats());

    // --- RPC: one client, one server on the fleet's segment ---------------
    println!("\nRPC data transfer (\"multiple outstanding calls\", §6):");
    for threads in 1..=6 {
        let run = run_rpc_transfer(threads, 1_000, 1);
        let bar = "#".repeat((run.goodput_mbps * 8.0) as usize);
        println!(
            "  {} thread(s): {:>4.2} Mbit/s  (mean {:.1} outstanding)  {bar}",
            run.threads, run.goodput_mbps, run.mean_outstanding
        );
    }
    println!("  paper: \"4.6 megabits per second using an average of three concurrent threads\"");
    Ok(())
}
