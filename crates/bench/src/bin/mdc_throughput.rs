//! The §5 display-controller claims: "The MDC can paint a large area of
//! the screen at 16 megapixels per second, and can paint approximately
//! 20,000 10-point characters per second."

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_core::config::SystemConfig;
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, PortId, ProtocolKind};
use firefly_io::mdc::{self, encode_fill, encode_paint, Mdc};
use firefly_io::{IoSystem, RasterOp};

/// Runs the I/O system until the MDC has executed `commands` commands.
fn run_until(sys: &mut MemSystem, io: &mut IoSystem, commands: u64) -> u64 {
    let start = sys.cycle();
    while io.mdc().stats().commands < commands {
        io.tick(sys);
        sys.step();
        assert!(sys.cycle() - start < 200_000_000, "MDC wedged");
    }
    // Drain the final busy period.
    let polls = io.mdc().stats().polls;
    while io.mdc().stats().polls < polls + 2 {
        io.tick(sys);
        sys.step();
    }
    sys.cycle() - start
}

fn main() {
    // --- large-area fill rate ---------------------------------------------
    let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
    let mut io = IoSystem::new();
    let cpu = PortId::new(1);
    let fills = 4u64;
    for slot in 0..fills {
        let cmd = encode_fill(
            0,
            0,
            1024,
            512,
            if slot % 2 == 0 { RasterOp::Set } else { RasterOp::Clear },
        );
        for (i, w) in cmd.iter().enumerate() {
            sys.run_to_completion(cpu, Request::write(Mdc::slot_word(slot as u32, i as u32), *w))
                .unwrap();
        }
    }
    sys.run_to_completion(cpu, Request::write(mdc::WQ_BASE, fills as u32)).unwrap();
    let cycles = run_until(&mut sys, &mut io, fills);
    let pixels = io.mdc().stats().pixels as f64;
    let mpx_s = pixels / (cycles as f64 * 100e-9) / 1e6;

    // --- character paint rate ----------------------------------------------
    let mut sys2 = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
    let mut io2 = IoSystem::new();
    let text_addr = Addr::new(0x0040_0000);
    for i in 0..32u32 {
        sys2.run_to_completion(cpu, Request::write(text_addr.add_words(i), 0x4142_4344)).unwrap();
    }
    let lines = 16u64;
    for slot in 0..lines {
        let cmd = encode_paint(0, (slot as u32 % 48) * 16, text_addr, 120, RasterOp::Copy);
        for (i, w) in cmd.iter().enumerate() {
            sys2.run_to_completion(cpu, Request::write(Mdc::slot_word(slot as u32, i as u32), *w))
                .unwrap();
        }
    }
    sys2.run_to_completion(cpu, Request::write(mdc::WQ_BASE, lines as u32)).unwrap();
    let cycles2 = run_until(&mut sys2, &mut io2, lines);
    let chars = io2.mdc().stats().chars as f64;
    let chars_s = chars / (cycles2 as f64 * 100e-9);

    println!("MDC throughput\n");
    report::compare("large-area fill (Mpixel/s)", 16.0, mpx_s, "Mpx/s");
    report::compare("character painting (chars/s)", 20_000.0, chars_s, "chars/s");
    println!(
        "\n({} pixels over {:.1} ms; {} chars over {:.1} ms; {} work-queue polls)",
        pixels as u64,
        cycles as f64 * 100e-6,
        chars as u64,
        cycles2 as f64 * 100e-6,
        io.mdc().stats().polls + io2.mdc().stats().polls
    );
}
