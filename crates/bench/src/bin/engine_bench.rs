//! The engine performance trajectory: ticked vs event-driven
//! cycles/sec, written to `BENCH_6.json`.
//!
//! This is the first measured point of the BENCH series the ISSUEs call
//! for: every run records how fast the simulator simulates, so later
//! PRs have a trajectory to regress against. Three measurements:
//!
//! 1. **Idle-heavy scaling sweep** — a compute-bound configuration
//!    (`base_tpi` ~100× the MicroVAX, i.e. long think times between
//!    references) across CPU counts. This is the workload class the
//!    event engine exists for; the acceptance gate demands ≥10×
//!    simulated-cycles/sec over the ticked engine at the best point.
//! 2. **Paper-calibrated points** — the honest number on the paper's
//!    own reference mix at 1, 4 and 8 CPUs, where the bus is busier and
//!    skips are shorter (8 CPUs saturate it).
//! 3. **Soak restore throughput** — full-machine checkpoint + restore
//!    round-trips per second, the knob that prices the chaos soak.
//!
//! Every sweep point also cross-checks the two engines' bus statistics
//! byte-for-byte, so the speedup being reported is the speedup of an
//! *equivalent* simulation (the deep differential lives in
//! `tests/engine_equivalence.rs`).
//!
//! Flags: `--smoke` (CI sizing), `--seed N`, `--out PATH` (default
//! `BENCH_6.json`), `--json` (echo the document to stdout). Exits
//! nonzero when the headline speedup misses the ≥10× target.

#![deny(unsafe_code)]

use firefly_bench::cli::{self, BenchArgs};
use firefly_bench::report;
use firefly_core::protocol::ProtocolKind;
use firefly_cpu::CpuConfig;
use firefly_sim::machine::{EngineMode, Firefly, FireflyBuilder, Workload};
use firefly_trace::LocalityParams;
use serde::Serialize;
use std::time::Instant;

/// The acceptance bar from ISSUE 6: the event engine must simulate at
/// least this many times more cycles per second than the ticked engine
/// on the idle-heavy sweep.
const TARGET_SPEEDUP: f64 = 10.0;

/// One (configuration, CPU count) cell of the sweep.
#[derive(Clone, Debug, Serialize)]
struct SweepPoint {
    /// `"idle-heavy"` or `"paper"`.
    config: String,
    cpus: usize,
    cycles: u64,
    ticked_wall_ns: u64,
    event_wall_ns: u64,
    ticked_cycles_per_sec: f64,
    event_cycles_per_sec: f64,
    speedup: f64,
    /// Scheduler wake-ups fired by the event engine.
    events_fired: u64,
    events_per_sec: f64,
    idle_skips: u64,
    cycles_skipped: u64,
    ticked_iterations: u64,
}

#[derive(Clone, Debug, Serialize)]
struct SoakPoint {
    restores: u64,
    wall_ns: u64,
    restores_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    seed: u64,
    smoke: bool,
    target_speedup: f64,
    /// Max speedup across the idle-heavy sweep points — the gated number.
    headline_speedup: f64,
    sweep: Vec<SweepPoint>,
    soak: SoakPoint,
    pass: bool,
}

fn wall_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Builds one machine of the given configuration on the given engine.
fn build(config: &str, cpus: usize, seed: u64, engine: EngineMode) -> Firefly {
    let mut b = FireflyBuilder::microvax(cpus)
        .protocol(ProtocolKind::Firefly)
        .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
        .seed(seed)
        .engine(engine);
    if config == "idle-heavy" {
        // Compute-bound CPUs: ~100× the MicroVAX's think time between
        // references — the workstation-idle regime (editor think time,
        // long FP microcode) where the bus is almost always quiet and
        // compute gaps run to ~1000 cycles.
        b = b.cpu_config(CpuConfig { base_tpi: 1_190.0, ..CpuConfig::microvax() });
    }
    b.build()
}

/// Runs one sweep cell: the same seeded machine on both engines, timed,
/// with the reached bus statistics cross-checked byte-for-byte.
fn sweep_point(config: &str, cpus: usize, cycles: u64, seed: u64) -> SweepPoint {
    let mut ticked = build(config, cpus, seed, EngineMode::Ticked);
    let t0 = Instant::now();
    ticked.run(cycles);
    let ticked_wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    let mut events = build(config, cpus, seed, EngineMode::EventDriven);
    let t0 = Instant::now();
    events.run(cycles);
    let event_wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    assert_eq!(
        ticked.memory().bus_stats().to_json(),
        events.memory().bus_stats().to_json(),
        "{config}/{cpus} CPUs: the engines diverged — the measured speedup would be meaningless"
    );

    let es = events.engine_stats();
    let (tw, ew) = (wall_secs(ticked_wall_ns).max(1e-9), wall_secs(event_wall_ns).max(1e-9));
    SweepPoint {
        config: config.to_string(),
        cpus,
        cycles,
        ticked_wall_ns,
        event_wall_ns,
        ticked_cycles_per_sec: cycles as f64 / tw,
        event_cycles_per_sec: cycles as f64 / ew,
        speedup: (cycles as f64 / ew) / (cycles as f64 / tw),
        events_fired: es.events_fired,
        events_per_sec: es.events_fired as f64 / ew,
        idle_skips: es.idle_skips,
        cycles_skipped: es.cycles_skipped,
        ticked_iterations: es.ticked_iterations,
    }
}

/// Times full-machine checkpoint + restore round-trips, with a short
/// run between each so every image is taken from a fresh state.
fn soak_point(seed: u64, restores: u64) -> SoakPoint {
    let mut m = build("paper", 3, seed, EngineMode::EventDriven);
    m.run(20_000);
    let t0 = Instant::now();
    for _ in 0..restores {
        let img = m.save_snapshot().expect("snapshot");
        m.load_snapshot(&img).expect("restore");
        m.run(100);
    }
    let wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    SoakPoint {
        restores,
        wall_ns,
        restores_per_sec: restores as f64 / wall_secs(wall_ns).max(1e-9),
    }
}

fn main() {
    let BenchArgs { smoke, seed, out } = cli::parse(0x6e61_6368_u64);
    let out = out.unwrap_or_else(|| String::from("BENCH_6.json"));

    let cycles: u64 = if smoke { 1_500_000 } else { 10_000_000 };
    let idle_cpus: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let paper_cpus: &[usize] = if smoke { &[1] } else { &[1, 4, 8] };
    let restores: u64 = if smoke { 150 } else { 1_000 };

    let mut sweep = Vec::new();
    for &cpus in idle_cpus {
        sweep.push(sweep_point("idle-heavy", cpus, cycles, seed ^ cpus as u64));
    }
    for &cpus in paper_cpus {
        sweep.push(sweep_point("paper", cpus, cycles, seed ^ (cpus as u64) << 8));
    }
    let soak = soak_point(seed, restores);

    let headline =
        sweep.iter().filter(|p| p.config == "idle-heavy").map(|p| p.speedup).fold(0.0f64, f64::max);
    let pass = headline >= TARGET_SPEEDUP;

    let doc = BenchReport {
        bench: "BENCH_6".to_string(),
        seed,
        smoke,
        target_speedup: TARGET_SPEEDUP,
        headline_speedup: headline,
        sweep,
        soak,
        pass,
    };
    let json = report::write(&out, &doc);

    if report::json_requested() {
        println!("{json}");
    } else {
        report::section(&format!(
            "engine bench: ticked vs event-driven, {cycles} cycles/point (seed {seed:#x})"
        ));
        println!(
            "  {:<11} {:>4} {:>14} {:>14} {:>8} {:>13} {:>11}",
            "config", "cpus", "ticked cyc/s", "event cyc/s", "speedup", "events/s", "idle skips"
        );
        for p in &doc.sweep {
            println!(
                "  {:<11} {:>4} {:>14.0} {:>14.0} {:>7.1}x {:>13.0} {:>11}",
                p.config,
                p.cpus,
                p.ticked_cycles_per_sec,
                p.event_cycles_per_sec,
                p.speedup,
                p.events_per_sec,
                p.idle_skips
            );
        }
        println!(
            "\n  soak: {:.0} checkpoint+restore round-trips/sec ({} restores)",
            doc.soak.restores_per_sec, doc.soak.restores
        );
        println!(
            "  headline: {:.1}x on the idle-heavy sweep (target >= {:.0}x) -> {}",
            headline,
            TARGET_SPEEDUP,
            if pass { "pass" } else { "FAIL" }
        );
        println!("  wrote {out}");
    }
    if !pass {
        eprintln!(
            "engine_bench: headline speedup {headline:.2}x misses the {TARGET_SPEEDUP:.0}x target"
        );
        std::process::exit(1);
    }
}
