//! Ablation A: the seven coherence protocols under varying degrees of
//! sharing — the §5.1 design space, quantified with the Archibald & Baer
//! reference-level methodology.
//!
//! The money row: under real sharing, write-through-invalidate saturates
//! the bus, invalidation protocols (Write-Once, Berkeley, Illinois) pay
//! re-miss traffic, and the update protocols (Firefly, Dragon) keep bus
//! operations per reference lowest.
//!
//! As in Archibald & Baer's trace-driven study, one reference stream is
//! replayed under every protocol: each job generates the stream for one
//! sharing level (or one processor count) once and applies every
//! reference to seven reference-level simulators in lockstep, one per
//! protocol. The six sharing levels and four processor counts fan out
//! across the experiment harness's worker pool. Pass `--json` for the
//! grids as JSON, `--smoke` for CI-sized grids, and `--trace <file>` to
//! also capture one cycle-level Firefly run as Chrome trace-event JSON.

#![deny(unsafe_code)]

use firefly_bench::{report, tracing};
use firefly_core::protocol::ProtocolKind;
use firefly_core::refsim::{CostModel, RefSim, RefSimStats};
use firefly_core::CacheGeometry;
use firefly_sim::harness::run_jobs;
use firefly_trace::{LocalityParams, RefStream, SyntheticWorkload};
use serde::Serialize;

/// One (protocol, sharing-level) cell of the design-space grid.
#[derive(Copy, Clone, Debug, Serialize)]
struct SharingCell {
    protocol: ProtocolKind,
    sharing: f64,
    bus_ops_per_ref: f64,
    miss_rate: f64,
    est_bus_load: f64,
}

/// One (protocol, NP) cell of the total-performance grid.
#[derive(Copy, Clone, Debug, Serialize)]
struct PerformanceCell {
    protocol: ProtocolKind,
    cpus: usize,
    est_bus_load: f64,
    total_performance: f64,
}

#[derive(Debug, Serialize)]
struct Grids {
    sharing: Vec<SharingCell>,
    performance: Vec<PerformanceCell>,
}

/// Replays one synthetic stream (`cpus` processors, shared fraction
/// `sharing`, seed 7) under every protocol of [`ProtocolKind::ALL`] in
/// lockstep, and returns each protocol's counts over the measure window:
/// `refs` round-robin rounds after `refs / 4` warm-up rounds.
fn replay(cpus: usize, sharing: f64, refs: usize) -> [RefSimStats; ProtocolKind::ALL.len()] {
    let params = LocalityParams {
        shared_fraction: sharing,
        shared_words: 512,
        ..LocalityParams::paper_calibrated()
    };
    let mut fleet = SyntheticWorkload::fleet(cpus, params, 7);
    let mut sims = ProtocolKind::ALL.map(|k| RefSim::new(cpus, CacheGeometry::microvax(), k));
    let mut rounds = |sims: &mut [RefSim], n: usize| {
        for _ in 0..n {
            for (cpu, w) in fleet.iter_mut().enumerate() {
                let r = w.next_ref();
                for sim in sims.iter_mut() {
                    sim.access(cpu, r.kind.proc_op(), r.addr);
                }
            }
        }
    };
    rounds(&mut sims, refs / 4);
    let warm = sims.each_ref().map(|s| *s.stats());
    rounds(&mut sims, refs);
    std::array::from_fn(|p| sims[p].stats().delta(&warm[p]))
}

/// One protocol's measured figures at `cpus` processors: bus operations
/// per reference, miss rate, and the bus load that traffic would induce.
fn figures(d: &RefSimStats, cpus: usize) -> (f64, f64, f64) {
    let d_refs = d.refs() as f64;
    let d_ops = d.bus_ops() as f64;
    let d_miss = d.misses() as f64;
    let bus_per_ref = d_ops / d_refs;
    // The bus load this traffic would induce with `cpus` processors:
    // the self-consistent fixed point of the §5.2 queue model
    // (L = NP · ops-per-tick · N, ops-per-tick = opi / TPI(L)).
    let model = CostModel::default();
    let opi = d_ops / (d_refs / model.refs_per_instruction);
    let mut load = 0.0f64;
    for _ in 0..100 {
        let tpi = model.base_tpi + opi * model.ticks_per_bus_op / (1.0 - load) + 0.852 * load;
        load = (cpus as f64 * opi * model.ticks_per_bus_op / tpi).min(0.95);
    }
    (bus_per_ref, d_miss / d_refs, load)
}

/// Total system performance at `cpus` via the self-consistent load
/// (Archibald & Baer's figure of merit, computed with the paper's
/// queue model). One protocol's measure-window counts supply both the
/// fixed-point load and the bus-ops-per-instruction it recomputes TPI
/// from.
fn total_performance(d: &RefSimStats, cpus: usize) -> (f64, f64) {
    let (bpr, _, load) = figures(d, cpus);
    let model = CostModel::default();
    let opi = bpr * model.refs_per_instruction;
    let tpi = model.base_tpi + opi * model.ticks_per_bus_op / (1.0 - load.min(0.94)) + 0.852 * load;
    (load, cpus as f64 * model.base_tpi / tpi)
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (sharing_refs, perf_refs) = if smoke { (3_000, 2_000) } else { (60_000, 40_000) };
    let sharing_levels = [0.0, 0.05, 0.1, 0.2, 0.33, 0.5];
    let counts = [2usize, 4, 6, 8];

    // The grids are reference-level; a `--trace` request additionally
    // captures one cycle-level Firefly run so the bus/coherence events
    // have real MBus timing behind them.
    if let Some(opts) = tracing::requested() {
        tracing::capture(&opts, 4, ProtocolKind::Firefly, None, if smoke { 8_000 } else { 50_000 });
    }

    // One job per stream: each owns its fleet and its seven reference
    // simulators.
    let sharing_rows = run_jobs(&sharing_levels, |&sharing| replay(4, sharing, sharing_refs));
    let sharing_cells: Vec<SharingCell> = sharing_levels
        .iter()
        .zip(&sharing_rows)
        .flat_map(|(&sharing, row)| {
            ProtocolKind::ALL.into_iter().zip(row).map(move |(kind, d)| {
                let (bpr, miss, load) = figures(d, 4);
                SharingCell {
                    protocol: kind,
                    sharing,
                    bus_ops_per_ref: bpr,
                    miss_rate: miss,
                    est_bus_load: load,
                }
            })
        })
        .collect();

    // The rows come back per processor count; the grid is reported per
    // protocol, so transpose.
    let perf_rows = run_jobs(&counts, |&n| replay(n, 0.10, perf_refs));
    let perf_cells: Vec<PerformanceCell> = ProtocolKind::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(p, kind)| {
            counts.iter().zip(&perf_rows).map(move |(&n, row)| {
                let (load, tp) = total_performance(&row[p], n);
                PerformanceCell {
                    protocol: kind,
                    cpus: n,
                    est_bus_load: load,
                    total_performance: tp,
                }
            })
        })
        .collect();

    if report::json_requested() {
        report::emit_json(&Grids { sharing: sharing_cells, performance: perf_cells });
        return;
    }

    println!("Ablation A: protocol comparison (reference-level, 16 KB caches, 4 CPUs)\n");
    let mut cells = sharing_cells.iter();
    for sharing in sharing_levels {
        println!("shared fraction S = {sharing:.2}:");
        println!(
            "  {:<14} {:>14} {:>10} {:>16}",
            "protocol", "bus ops/ref", "miss rate", "est. bus load"
        );
        for _ in ProtocolKind::ALL {
            let c = cells.next().expect("one cell per (sharing, protocol)");
            println!(
                "  {:<14} {:>14.4} {:>10.3} {:>16.2}",
                c.protocol.name(),
                c.bus_ops_per_ref,
                c.miss_rate,
                c.est_bus_load
            );
        }
        println!();
    }
    println!(
        "reading: at S=0 all write-back protocols coincide (write-through floods the bus);\n\
         as S grows, invalidation protocols re-miss on ping-ponged data while the update\n\
         protocols (Firefly, Dragon) pay only word-sized write-throughs/updates.\n"
    );

    // The Archibald & Baer figure: total system performance vs CPUs.
    println!("total system performance vs processors (S = 0.10, queue-model TP):\n");
    print!("  {:<14}", "protocol");
    for n in counts {
        print!("{:>10}", format!("NP={n}"));
    }
    println!();
    let mut cells = perf_cells.iter();
    for kind in ProtocolKind::ALL {
        print!("  {:<14}", kind.name());
        for _ in counts {
            let c = cells.next().expect("one cell per (protocol, NP)");
            print!("{:>10.2}", c.total_performance);
        }
        println!();
    }
    println!(
        "\nthe Firefly holds the highest curve; write-through-invalidate flattens first —\n\
         the Archibald & Baer conclusion the paper's protocol choice rests on."
    );
}
