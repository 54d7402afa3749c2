//! Regenerates Figure 4: MBus timing — arbitration/address in cycle 1,
//! write data and tag probes in cycle 2, MShared in cycle 3, data
//! transfer (memory or cache-supplied) in cycle 4 — from a live traced
//! run of the cycle-accurate bus.
//!
//! The same scenario then replays under every protocol on the
//! experiment harness's worker pool, showing how each one schedules the
//! identical request sequence on the bus.

#![deny(unsafe_code)]

use firefly_core::bus::{waveform, TransactionRecord};
use firefly_core::config::SystemConfig;
use firefly_core::events::bus_records;
use firefly_core::protocol::ProtocolKind;
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, PortId};
use firefly_sim::harness::run_jobs;

/// Runs the Figure-4 scenario — fill, cache-to-cache read,
/// write-through, dirty victimization — under `kind` with event tracing
/// on, returning the system and its completed bus transactions.
fn traced_scenario(
    kind: ProtocolKind,
) -> Result<(MemSystem, Vec<TransactionRecord>), firefly_core::Error> {
    let cfg = SystemConfig::microvax(2).with_event_trace(1 << 12);
    let mut sys = MemSystem::new(cfg, kind)?;
    let a = Addr::new(0x1000);

    sys.run_to_completion(PortId::new(0), Request::read(a))?; // MRead from memory
    sys.run_to_completion(PortId::new(1), Request::read(a))?; // MRead supplied by P0
    sys.run_to_completion(PortId::new(0), Request::write(a, 7))?; // MWrite (write-through)

    // P1 re-reads the line: a cache hit under the update protocols, a
    // re-miss (extra bus transaction) under the invalidation protocols.
    sys.run_to_completion(PortId::new(1), Request::read(a))?;
    // Build a dirty line and displace it.
    let b = Addr::new(0x2000);
    sys.run_to_completion(PortId::new(0), Request::write(b, 1))?;
    sys.run_to_completion(PortId::new(0), Request::write(b, 2))?; // silent (dirty)
    sys.run_to_completion(
        PortId::new(0),
        Request::read(Addr::from_word_index(b.word_index() + 4096)),
    )?;
    let records = bus_records(&sys.events());
    Ok((sys, records))
}

fn main() -> Result<(), firefly_core::Error> {
    println!("Figure 4: MBus Timing (each operation = four 100 ns cycles)\n");
    println!("scenario: P0 fills a line; P1 reads it (cache-to-cache supply);");
    println!("P0 writes it (write-through); P0 victimizes a dirty line.\n");

    let runs = run_jobs(&ProtocolKind::ALL, |&kind| traced_scenario(kind).map(|run| (kind, run)));

    let (_, (sys, records)) = runs
        .iter()
        .flatten()
        .find(|(k, _)| *k == ProtocolKind::Firefly)
        .expect("ALL contains Firefly");
    for rec in records {
        println!("{}", rec.timing_diagram());
    }

    println!(
        "the same transactions as a waveform (A=address, W/R=data, *=MShared):
"
    );
    println!("{}", waveform(records));
    println!("bus statistics: {:?}", sys.bus_stats());

    println!("\nthe same scenario under every protocol (bus transactions it costs):\n");
    println!("  {:<14} {:>12} {:>12}", "protocol", "transactions", "bus cycles");
    for run in &runs {
        let (kind, (_, records)) = run.as_ref().map_err(Clone::clone)?;
        let cycles: u64 = records.len() as u64 * 4;
        println!("  {:<14} {:>12} {:>12}", kind.name(), records.len(), cycles);
    }
    println!(
        "\nreading: update protocols resolve the shared write in one word-sized\n\
         transaction; invalidation protocols re-fetch the line on the next read."
    );
    Ok(())
}
