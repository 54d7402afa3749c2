//! The §5.3 upgrade claim: "the upgrade has improved execution speeds by
//! factors of 2.0 to 2.5" with "approximately the same bus load per
//! processor" — less than other CVAX systems' 2.5-3.2x because the
//! Firefly kept the on-chip cache I-only and retained the original MBus
//! timing.

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_sim::FireflyBuilder;

fn main() {
    println!("CVAX upgrade (same workload, MicroVAX vs CVAX machines)\n");
    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>12}",
        "machine", "K instr/s", "bus load", "miss rate", "K refs/s/CPU"
    );
    let mut rows = Vec::new();
    for cpus in [1usize, 5] {
        for cvax in [false, true] {
            let mut m = if cvax {
                FireflyBuilder::cvax(cpus).seed(42).build()
            } else {
                FireflyBuilder::microvax(cpus).seed(42).build()
            };
            let r = m.measure(250_000, 500_000);
            println!(
                "{:<22} {:>12.0} {:>10.2} {:>10.3} {:>12.0}",
                format!("{}-CPU {}", cpus, if cvax { "CVAX" } else { "MicroVAX" }),
                r.instructions_per_cpu_k,
                r.bus_load,
                r.miss_rate,
                r.total_k
            );
            rows.push((cpus, cvax, r));
        }
    }
    let speedup1 = rows[1].2.instructions_per_cpu_k / rows[0].2.instructions_per_cpu_k;
    let speedup5 = rows[3].2.instructions_per_cpu_k / rows[2].2.instructions_per_cpu_k;
    println!();
    report::compare("1-CPU speedup", 2.25, speedup1, "x (2.0-2.5)");
    report::compare("5-CPU speedup", 2.25, speedup5, "x (2.0-2.5)");
    println!(
        "\nbus load per processor: MicroVAX {:.2} vs CVAX {:.2} at 5 CPUs \
         (paper: \"approximately the same\")",
        rows[2].2.bus_load, rows[3].2.bus_load
    );
    println!(
        "the 64 KB board cache + on-chip I-cache cut per-CPU bus traffic enough to\n\
         feed 2x-faster processors from the unchanged 10 MB/s MBus."
    );
}
