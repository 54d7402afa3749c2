//! Regenerates Table 2: Firefly Measured Performance (§5.3).
//!
//! Expected columns come from the analytic model (exact); Actual columns
//! come from the simulated Topaz Threads exerciser. The paper's hardware
//! numbers are printed for comparison. Absolute rates differ (the real
//! MicroVAX prefetcher inflated the hardware's reference rate; see the
//! `prefetch_ablation` binary), but the documented signature holds:
//! heavy MShared write-through traffic, one-CPU miss rate above the
//! trace-driven prediction, and few victim writes.

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_sim::table2::paper;
use firefly_sim::table2_report;

fn main() {
    let t = table2_report(400_000, 1_000_000);
    println!("{t}");

    report::section("paper vs simulation (Actual columns)");
    report::compare("one-CPU total (K refs/s)", paper::ONE_CPU.2, t.actual_one.total_k, "K/s");
    report::compare("one-CPU bus load L", paper::ONE_CPU_LOAD, t.actual_one.bus_load, "");
    report::compare("one-CPU miss rate M", paper::ONE_CPU_MISS, t.actual_one.miss_rate, "");
    report::compare(
        "five-CPU total per CPU (K refs/s)",
        paper::FIVE_CPU.2,
        t.actual_five.total_k,
        "K/s",
    );
    report::compare("five-CPU bus load L", paper::FIVE_CPU_LOAD, t.actual_five.bus_load, "");
    report::compare("five-CPU miss rate M", paper::FIVE_CPU_MISS, t.actual_five.miss_rate, "");
    report::compare(
        "five-CPU MShared write-through fraction",
        paper::FIVE_CPU_SHARED_WF,
        t.actual_five.shared_write_fraction,
        "",
    );
    println!(
        "\nsignature checks: victims ({:.0}K) << write-throughs ({:.0}K) because \
         write-throughs leave lines clean;\nexerciser sharing ({:.0}%) far above the \
         model's assumed 10%.",
        t.actual_five.victims_k,
        t.actual_five.wt_shared_k + t.actual_five.wt_unshared_k,
        t.actual_five.shared_write_fraction * 100.0,
    );
}
