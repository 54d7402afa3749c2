//! Ablation D: instruction prefetching — the mechanism behind the
//! Table 2 "surprise" (§5.3).
//!
//! "We would expect a one-CPU system to make about 850K references per
//! second ... Instead, we see 1350K references. Part of the discrepancy
//! can be explained by the fact that the CPU chip does instruction
//! prefetching, which was not simulated. If the prefetching were
//! perfect ... the reference rate would be 1014K references/sec."

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_cpu::{CpuConfig, PrefetchConfig};
use firefly_sim::FireflyBuilder;

fn run(cfg: CpuConfig, cpus: usize) -> firefly_sim::Measurement {
    let mut m = FireflyBuilder::microvax(cpus).cpu_config(cfg).seed(42).build();
    m.measure(300_000, 700_000)
}

fn main() {
    println!("Ablation D: instruction prefetch on the one-CPU machine\n");
    println!(
        "{:<26} {:>12} {:>8} {:>14} {:>10}",
        "prefetcher", "K refs/s", "TPI", "wasted K/s", "R:W ratio"
    );
    let cases = [
        ("off (paper's Expected)", PrefetchConfig::disabled()),
        ("perfect (§5.3 thought)", PrefetchConfig::perfect()),
        ("chip model (Actual)", PrefetchConfig::microvax_chip()),
    ];
    let mut rows = Vec::new();
    for (name, pf) in cases {
        let r = run(CpuConfig::microvax().with_prefetch(pf), 1);
        println!(
            "{name:<26} {:>12.0} {:>8.1} {:>14.0} {:>10.1}",
            r.total_k, r.tpi, r.wasted_prefetch_k, r.read_write_ratio
        );
        rows.push(r);
    }

    report::section("paper anchors");
    report::compare("expected (no prefetch) K refs/s", 850.0, rows[0].total_k, "K/s");
    report::compare("perfect prefetch K refs/s", 1014.0, rows[1].total_k, "K/s");
    report::compare("measured (chip) K refs/s", 1350.0, rows[2].total_k, "K/s");
    report::compare("perfect-prefetch TPI", 10.5, rows[1].tpi, "ticks");

    // The load-sensitivity signature: the prefetcher backs off on a
    // loaded bus, moving the read:write ratio toward the demand mix.
    let one = run(CpuConfig::microvax().with_prefetch(PrefetchConfig::microvax_chip()), 1);
    let five = run(CpuConfig::microvax().with_prefetch(PrefetchConfig::microvax_chip()), 5);
    println!(
        "\nload sensitivity (paper: R:W falls 4.7:1 -> 3.8:1 between 1 and 5 CPUs):\n\
         simulated R:W {:.1}:1 (1 CPU, L={:.2}) -> {:.1}:1 (5 CPUs, L={:.2})",
        one.read_write_ratio, one.bus_load, five.read_write_ratio, five.bus_load
    );
}
