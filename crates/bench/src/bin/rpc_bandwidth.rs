//! The §6 RPC claim: "The remote server can sustain a bandwidth of 4.6
//! megabits per second using an average of three concurrent threads."
//!
//! Each thread count runs the cycle-level fleet preset
//! [`FleetConfig::rpc_transfer`]: one client, one server and the wire
//! between them.
//!
//! Flags: `--smoke` shrinks the call count for CI; `--json` emits one
//! machine-readable document (config, sweep, the 3-thread claim check)
//! instead of the tables.

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_sim::fleet::{run_rpc_transfer, FleetConfig, TransferOutcome};
use firefly_sim::harness::run_jobs;
use serde::Serialize;

/// The fleet seed every thread count runs at.
const SEED: u64 = 0x000f_1ee7;

#[derive(Debug, Serialize)]
struct JsonDoc {
    smoke: bool,
    calls: u64,
    config: FleetConfig,
    sweep: Vec<TransferOutcome>,
    three_threads: TransferOutcome,
    paper_mbps: f64,
    pass: bool,
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let calls: u64 = if smoke { 500 } else { 2_000 };
    let threads: Vec<usize> = (1..=8).collect();
    let sweep = run_jobs(&threads, |&t| run_rpc_transfer(t, calls, SEED));
    let three = sweep[2];
    // The paper's sustained figure, with slack for the fleet's service
    // jitter and wire contention.
    let pass = three.goodput_mbps >= 4.0 && three.goodput_mbps <= 5.2;

    if report::json_requested() {
        report::emit_json(&JsonDoc {
            smoke,
            calls,
            config: FleetConfig::rpc_transfer(3, SEED),
            sweep,
            three_threads: three,
            paper_mbps: 4.6,
            pass,
        });
    } else {
        let cfg = FleetConfig::rpc_transfer(1, SEED);
        println!("RPC data transfer, multiple outstanding calls\n");
        println!(
            "one client, one server on the simulated Ethernet: {} B per call, \
             server CPU {} + {} cycles (+ up to 1/8 jitter) per call, one at a time\n",
            cfg.payload_max,
            cfg.service_cycles,
            cfg.payload_max / 4
        );

        println!("{:>8} {:>12} {:>18}", "threads", "Mbit/s", "mean outstanding");
        for run in &sweep {
            println!(
                "{:>8} {:>12.2} {:>18.2}",
                run.threads, run.goodput_mbps, run.mean_outstanding
            );
        }

        println!();
        report::compare("bandwidth at 3 threads (Mbit/s)", 4.6, three.goodput_mbps, "Mb/s");
        report::compare("threads to saturate", 3.0, three.mean_outstanding, "threads");
    }
    if !pass {
        eprintln!(
            "rpc_bandwidth: 3-thread bandwidth {:.2} Mb/s is outside the paper's 4.6 Mb/s claim",
            three.goodput_mbps
        );
        std::process::exit(1);
    }
}
