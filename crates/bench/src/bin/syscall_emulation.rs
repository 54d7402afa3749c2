//! Footnote 5, quantified: Ultrix system calls "are emulated, and are
//! therefore somewhat slower in Topaz than they would have been had we
//! simply ported Ultrix. Most of the speed difference ... is due to the
//! context switch necessary because Taos runs as a user mode address
//! space. Longer-running system services do not suffer as much."

#![deny(unsafe_code)]

use firefly_topaz::ultrix::syscall_comparison;
use firefly_topaz::TopazConfig;

fn main() {
    println!("Ultrix emulation: syscalls served by a user-mode Taos over RPC\n");
    println!(
        "{:>22} {:>14} {:>14} {:>10}",
        "service instructions", "emulated cyc", "native cyc", "slowdown"
    );
    for service in [20u32, 100, 400, 1_000, 4_000] {
        let c = syscall_comparison(TopazConfig::microvax(1), 20, 60, service);
        println!(
            "{service:>22} {:>14.0} {:>14.0} {:>9.2}x",
            c.emulated_cycles,
            c.native_cycles,
            c.slowdown()
        );
    }
    println!("\nwith a second processor for the Taos server (\"the use of parallelism at");
    println!("the lowest levels of the system helps to compensate\", §6):");
    for service in [100u32, 1_000] {
        let one = syscall_comparison(TopazConfig::microvax(1), 20, 60, service);
        let two = syscall_comparison(TopazConfig::microvax(2), 20, 60, service);
        println!(
            "  service {service:>5}: 1-CPU {:.2}x -> 2-CPU {:.2}x",
            one.slowdown(),
            two.slowdown()
        );
    }
}
