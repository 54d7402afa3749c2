//! Fleet serving benchmark: the BENCH_7 trajectory point.
//!
//! Three measurements of the multi-machine RPC fleet
//! (`firefly_sim::fleet`):
//!
//! 1. **Saturation curve** — goodput and latency quantiles (p50 / p99 /
//!    p999) versus offered load on a healthy fleet, from light load to
//!    past the wire's capacity. The knee is where the outstanding-call
//!    cap starts shedding.
//! 2. **Retry storm** — the same seeded service-tier slowdown under the
//!    naive and the budgeted retry disciplines. The gate
//!    (`fleet::storm::gate`): naive retries must collapse — timeout
//!    amplification outliving its trigger — while the budgeted policy
//!    recovers.
//! 3. **Machine crash** — one of three servers dies mid-run; the gate
//!    (`fleet::crash::gate`) is graceful N→N−1 degradation, a measured
//!    recovery time, and a clean at-most-once oracle.
//!
//! Flags: `--smoke` (CI sizing), `--seed N`, `--out PATH` (default
//! `BENCH_7.json`), `--json`. Names each failed gate condition on
//! stderr and exits nonzero if there is one.

#![deny(unsafe_code)]

use firefly_bench::cli::{self, BenchArgs};
use firefly_bench::report;
use firefly_sim::fleet::{
    crash, goodput_mbps, run_crash_failover, run_retry_storm, storm, CrashOutcome, Fleet,
    FleetConfig, StormOutcome,
};
use serde::Serialize;

/// One offered-load cell of the saturation sweep.
#[derive(Clone, Debug, Serialize)]
struct SaturationPoint {
    /// Poisson arrival rate per client, calls per million cycles.
    arrivals_per_mcycle: u64,
    /// Offered request-payload load across the fleet, Mb/s.
    offered_mbps: f64,
    /// Acknowledged goodput, Mb/s.
    goodput_mbps: f64,
    /// Acknowledged calls.
    acked: u64,
    /// Submissions shed at client backlogs (backpressure engaged).
    shed: u64,
    /// Requests shed at server run queues.
    server_shed: u64,
    /// Median acknowledged latency, cycles.
    p50: u64,
    /// 99th-percentile latency, cycles.
    p99: u64,
    /// 99.9th-percentile latency, cycles.
    p999: u64,
    /// Fraction of cycles the wire was busy.
    wire_utilization: f64,
    /// CSMA/CD collisions.
    collisions: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    seed: u64,
    smoke: bool,
    saturation: Vec<SaturationPoint>,
    storm_naive: StormOutcome,
    storm_budgeted: StormOutcome,
    crash: CrashOutcome,
    pass: bool,
}

/// Runs one saturation cell: a healthy serving fleet at the given
/// arrival rate for `cycles` cycles.
fn saturation_point(seed: u64, arrivals: u64, cycles: u64) -> SaturationPoint {
    let mut cfg = FleetConfig::serving(2, 6, seed);
    cfg.arrivals_per_mcycle = arrivals;
    let mut fleet = Fleet::new(cfg);
    fleet.run(cycles);
    let report = fleet.report();
    // Offered load = everything the generator submitted (shed or not)
    // priced at the mean acknowledged payload size.
    let submitted: u64 = (0..cfg.clients).map(|i| fleet.client_stats(i).submitted).sum();
    let mean_payload = if report.acked == 0 {
        0.0
    } else {
        report.acked_payload_bytes as f64 / report.acked as f64
    };
    SaturationPoint {
        arrivals_per_mcycle: arrivals,
        offered_mbps: goodput_mbps((submitted as f64 * mean_payload) as u64, cycles),
        goodput_mbps: report.goodput_mbps,
        acked: report.acked,
        shed: report.shed,
        server_shed: report.server_shed,
        p50: report.p50,
        p99: report.p99,
        p999: report.p999,
        wire_utilization: report.wire_utilization,
        collisions: report.collisions,
    }
}

fn main() {
    let BenchArgs { smoke, seed, out } = cli::parse(0x000f_1ee7_u64);
    let out = out.unwrap_or_else(|| String::from("BENCH_7.json"));

    let sat_cycles: u64 = if smoke { 800_000 } else { 4_000_000 };
    let sat_rates: &[u64] = if smoke { &[10, 40] } else { &[5, 10, 20, 40, 80, 160] };

    let saturation: Vec<SaturationPoint> =
        sat_rates.iter().map(|&r| saturation_point(seed, r, sat_cycles)).collect();

    let storm_naive = run_retry_storm(seed, true);
    let storm_budgeted = run_retry_storm(seed, false);
    let crash_outcome = run_crash_failover(seed);

    let gates = [
        ("storm", storm::gate(&storm_naive, &storm_budgeted)),
        ("crash", crash::gate(&crash_outcome)),
    ];
    let pass = gates.iter().all(|(_, failures)| failures.is_empty());

    let doc = BenchReport {
        bench: "BENCH_7".to_string(),
        seed,
        smoke,
        saturation,
        storm_naive,
        storm_budgeted,
        crash: crash_outcome,
        pass,
    };
    let json = report::write(&out, &doc);

    if report::json_requested() {
        println!("{json}");
    } else {
        report::section(&format!("fleet bench: RPC serving over lossy Ethernet (seed {seed:#x})"));
        println!(
            "  {:>9} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7}",
            "calls/Mc",
            "offered Mb/s",
            "goodput Mb/s",
            "acked",
            "shed",
            "p50",
            "p99",
            "p999",
            "wire"
        );
        for p in &doc.saturation {
            println!(
                "  {:>9} {:>12.3} {:>12.3} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6.1}%",
                p.arrivals_per_mcycle,
                p.offered_mbps,
                p.goodput_mbps,
                p.acked,
                p.shed,
                p.p50,
                p.p99,
                p.p999,
                p.wire_utilization * 100.0
            );
        }
        for s in [&doc.storm_naive, &doc.storm_budgeted] {
            println!(
                "\n  storm[{}]: baseline {:.3} Mb/s, during {:.3}, recovery {:.3} ({:.0}% of baseline)",
                if s.naive { "naive" } else { "budgeted" },
                s.baseline_mbps,
                s.storm_mbps,
                s.recovery_mbps,
                s.recovery_fraction * 100.0
            );
            println!(
                "    acked {} failed {} shed {} retries {} timeouts {} collisions {} dup-hits {}",
                s.acked, s.failed, s.shed, s.retries, s.timeouts, s.collisions, s.dup_cache_hits
            );
        }
        let c = &doc.crash;
        println!(
            "\n  crash: baseline {:.3} Mb/s, degraded {:.3} ({:.0}%), recovery {} cycles, failed {}",
            c.baseline_mbps,
            c.degraded_mbps,
            c.degraded_fraction * 100.0,
            c.recovery_cycles.map_or_else(|| "never".to_string(), |v| v.to_string()),
            c.failed
        );
        println!("\n  gates: {}", if pass { "pass" } else { "FAIL (see stderr)" });
        println!("  wrote {out}");
    }
    report::exit_on_failures("fleet", &gates);
}
