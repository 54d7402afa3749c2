//! A live walk through the Firefly coherence protocol: Figure 3 (the
//! cache-line state machine) and Figure 4 (MBus timing), reproduced from
//! a running two-processor system.
//!
//! ```sh
//! cargo run --release --example protocol_trace
//! ```

use firefly::core::config::SystemConfig;
use firefly::core::events::bus_records;
use firefly::core::protocol::{transition_table, ProtocolKind};
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, LineId, PortId};

fn main() -> Result<(), firefly::core::Error> {
    println!("=== Figure 3: the Firefly protocol transition tables ===\n");
    println!("{}", transition_table(ProtocolKind::Firefly.build().as_ref()));

    println!("=== the same transitions, live on a two-processor system ===\n");
    let cfg = SystemConfig::microvax(2).with_event_trace(1 << 12);
    let mut sys = MemSystem::new(cfg, ProtocolKind::Firefly)?;
    let a = Addr::new(0x1000);
    let line = LineId::containing(a, 1);
    let p0 = PortId::new(0);
    let p1 = PortId::new(1);

    let show = |sys: &MemSystem, what: &str| {
        println!(
            "{what:<44} P0: {:<3} P1: {:<3} memory: {:#x}",
            sys.peek_state(p0, line).short(),
            sys.peek_state(p1, line).short(),
            sys.peek_memory_word(a)
        );
    };

    show(&sys, "initially");
    sys.run_to_completion(p0, Request::read(a))?;
    show(&sys, "P0 reads (miss -> Valid, exclusive)");
    sys.run_to_completion(p0, Request::write(a, 0x11))?;
    show(&sys, "P0 writes (silent; Valid -> Dirty)");
    sys.run_to_completion(p1, Request::read(a))?;
    show(&sys, "P1 reads (P0 supplies + flushes; both Shared)");
    sys.run_to_completion(p0, Request::write(a, 0x22))?;
    show(&sys, "P0 writes (write-through updates P1 + memory)");
    // Displace P1's copy with a conflicting line.
    sys.run_to_completion(p1, Request::read(Addr::from_word_index(a.word_index() + 4096)))?;
    show(&sys, "P1's copy displaced by a conflicting fill");
    sys.run_to_completion(p0, Request::write(a, 0x33))?;
    show(&sys, "P0 writes (no MShared: reverts to write-back)");
    sys.run_to_completion(p0, Request::write(a, 0x44))?;
    show(&sys, "P0 writes again (silent: Dirty)");

    println!("\n=== Figure 4: MBus timing of the transactions above ===\n");
    for rec in bus_records(&sys.events()) {
        println!("{}", rec.timing_diagram());
    }
    Ok(())
}
