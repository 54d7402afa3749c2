//! The §5.2 scaling analysis, model vs cycle-level simulation: bus load,
//! TPI, and total performance from 1 to 12 processors, and where the
//! marginal processor stops paying.
//!
//! The simulation points run in parallel on the experiment harness
//! (`FIREFLY_JOBS` controls the worker count); the numbers are
//! bit-identical at any width. Pass `--json` for the simulated points
//! as JSON, or `--trace <file>` to also capture one traced 8-CPU run
//! as Chrome trace-event JSON.

#![deny(unsafe_code)]

use firefly_bench::{report, tracing};
use firefly_core::ProtocolKind;
use firefly_model::{format_table1, Params};
use firefly_sim::sweep::{format_sweep, scaling_sweep};

fn main() {
    let p = Params::microvax();
    let counts = [1, 2, 4, 6, 8, 10, 12];

    if let Some(opts) = tracing::requested() {
        tracing::capture(&opts, 8, ProtocolKind::Firefly, None, 50_000);
    }

    let points = scaling_sweep(&counts, ProtocolKind::Firefly, 42, 200_000, 400_000);
    if report::json_requested() {
        report::emit_json(&points);
        return;
    }

    println!("analytic model:\n");
    println!("{}", format_table1(&p.estimates(counts.iter().copied())));

    println!("cycle-level simulation (same workload per CPU):\n");
    println!("{}", format_sweep(&points));

    println!("bus load, side by side:");
    for (&np, sim) in counts.iter().zip(&points) {
        let est = p.estimate(np);
        println!(
            "  NP={np:<3} model L={:.2}  simulated L={:.2}   delta {:+.2}",
            est.load,
            sim.load,
            sim.load - est.load
        );
    }
    println!(
        "\nthe simulation runs slightly ahead of the model because the real \
         (and simulated)\nexerciser produces fewer victim writes than the model's \
         D=0.25 charge — write-throughs\nleave lines clean, exactly as §5.3 observes.\n"
    );
}
