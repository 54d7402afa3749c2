//! Sensitivity of the §5.2 model to its inputs — including the one the
//! authors guessed (S) and later measured to be 3x larger.
//!
//! The four sweeps are independent, so they evaluate on the experiment
//! harness's worker pool and print in the paper's order.

#![deny(unsafe_code)]

use firefly_model::sensitivity::{
    knee_after_miss_rate, sweep_bus_speed, sweep_miss_rate, sweep_sharing,
};
use firefly_model::Params;
use firefly_sim::harness::run_jobs;

/// A sweep family evaluated as one harness job, returning its formatted block.
type Section = Box<dyn Fn(&Params) -> String + Sync>;

fn main() {
    let base = Params::microvax();

    // One job per sweep family; each returns its fully formatted block.
    let sections: Vec<Section> = vec![
        Box::new(|base| {
            let mut out = String::from(
                "shared-write fraction S (paper assumed .1; exerciser measured .33):\n",
            );
            for p in sweep_sharing(base, 5, &[0.0, 0.1, 0.2, 0.33, 0.5]) {
                out.push_str(&format!("  S={:.2}  {}\n", p.value, p.estimate));
            }
            out.push_str("  -> the guess barely matters: SW is the smallest term.\n");
            out
        }),
        Box::new(|base| {
            let mut out = String::from("miss rate M (the cache lever; CVAX halved it):\n");
            for p in sweep_miss_rate(base, 5, &[0.3, 0.2, 0.15, 0.1, 0.05]) {
                out.push_str(&format!("  M={:.2}  {}\n", p.value, p.estimate));
            }
            out
        }),
        Box::new(|base| {
            let mut out = String::from("bus speed (x the 10 MB/s MBus), at NP = 12:\n");
            for p in sweep_bus_speed(base, 12, &[1.0, 2.0, 4.0]) {
                out.push_str(&format!("  {:>3.0}x  {}\n", p.value, p.estimate));
            }
            out
        }),
        Box::new(|base| {
            let mut out =
                String::from("knee vs miss rate (processors worth adding at 0.5 threshold):\n");
            for m in [0.3, 0.2, 0.1, 0.05] {
                out.push_str(&format!(
                    "  M={m:.2} -> {} processors\n",
                    knee_after_miss_rate(base, m, 0.5)
                ));
            }
            out
        }),
    ];
    let blocks = run_jobs(&sections, |section| section(&base));

    println!("model sensitivity at NP = 5 (the standard machine)\n");
    for block in blocks {
        println!("{block}");
    }
}
