//! Ablation C: cache geometry (footnote 4 of the paper).
//!
//! "This is an abnormally large miss rate for a 16 kilobyte cache. We
//! attribute it to the small line size (4 bytes). A larger line would
//! probably have reduced the miss rate considerably, but it would have
//! complicated the design ... Since the penalty for a miss is only one
//! tick if the MBus is available ... we did not pursue a larger line."
//!
//! Also the §5.2 closing remark: "In the CVAX version of the system, we
//! chose to quadruple the cache size."
//!
//! The six full-machine geometry points run in parallel on the
//! experiment harness; pass `--json` for each geometry's label and
//! measurement as JSON.

#![deny(unsafe_code)]

use firefly_bench::report;
use firefly_core::{CacheGeometry, ProtocolKind};
use firefly_sim::harness::run_jobs;
use firefly_sim::{FireflyBuilder, Measurement};
use firefly_trace::analyze::{firefly_design_space, miss_ratio_curve};
use firefly_trace::{LocalityParams, SyntheticWorkload};
use serde::Serialize;

/// One geometry point of part 2.
#[derive(Debug, Serialize)]
struct GeometryPoint {
    label: &'static str,
    measurement: Measurement,
}

fn main() {
    let cases: &[(&str, usize, usize)] = &[
        ("4 KB, 4-byte lines", 1024, 1),
        ("16 KB, 4-byte lines *", 4096, 1),
        ("16 KB, 16-byte lines", 1024, 4),
        ("16 KB, 32-byte lines", 512, 8),
        ("64 KB, 4-byte lines (CVAX)", 16384, 1),
        ("64 KB, 16-byte lines", 4096, 4),
    ];
    let points = run_jobs(cases, |&(label, lines, words)| GeometryPoint {
        label,
        measurement: FireflyBuilder::microvax(5)
            .protocol(ProtocolKind::Firefly)
            .cache(CacheGeometry::new(lines, words).expect("valid geometry"))
            .seed(42)
            .build()
            .measure(200_000, 400_000),
    });
    if report::json_requested() {
        report::emit_json(&points);
        return;
    }

    println!("Ablation C, part 1: the workload's miss-ratio curve (single");
    println!("processor, tag simulation — the Zukowski-style instrument):\n");
    let mut stream = SyntheticWorkload::fleet(1, LocalityParams::paper_calibrated(), 5).remove(0);
    for p in miss_ratio_curve(&mut stream, &firefly_design_space(), 200_000, 400_000) {
        println!("  {p}");
    }
    println!();

    println!("Ablation C, part 2: cache geometry on the 5-CPU machine\n");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>12}",
        "geometry", "miss rate", "bus load", "TPI", "K refs/s/CPU"
    );
    for GeometryPoint { label, measurement: r } in &points {
        println!(
            "{:<26} {:>10.3} {:>10.2} {:>9.1} {:>12.0}",
            label, r.miss_rate, r.bus_load, r.tpi, r.total_k
        );
    }
    println!("\n(* the machine as built; the paper's measured M≈0.2 for one CPU)");
    println!(
        "reading: larger lines exploit the spatial locality the 4-byte line forfeits\n\
         (footnote 4), and the CVAX-size cache cuts the miss rate enough to keep the\n\
         original MBus viable under 2x-faster processors (§5.3).\n"
    );
}
