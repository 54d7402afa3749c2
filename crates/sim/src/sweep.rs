//! Processor-count sweeps: simulation versus the §5.2 analytic model.
//!
//! Sweep points are independent machine configurations, so they run on
//! the parallel [`crate::harness`]; the emitted numbers are a pure
//! function of the configuration and do not depend on the worker count.

use crate::harness::{run_jobs_with, worker_count};
use crate::machine::FireflyBuilder;
use crate::measure::Measurement;
use firefly_core::ProtocolKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One point of a scaling sweep: the simulated analogue of a Table 1 row.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Processor count NP.
    pub cpus: usize,
    /// Measured bus load L.
    pub load: f64,
    /// Measured effective TPI.
    pub tpi: f64,
    /// Relative per-processor performance RP (vs. the 1-CPU zero-load
    /// baseline).
    pub relative_performance: f64,
    /// Total performance TP = NP · RP.
    pub total_performance: f64,
    /// The full measurement behind the row.
    pub measurement: Measurement,
}

impl fmt::Display for ScalingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NP={:<3} L={:.2}  TPI={:<5.1} RP={:.2}  TP={:.2}",
            self.cpus, self.load, self.tpi, self.relative_performance, self.total_performance
        )
    }
}

/// Sweeps processor count over `counts`, measuring each configuration
/// with the same per-CPU workload — the simulated Table 1 — normalized
/// against an ideal (zero-load) single processor: one CPU running the
/// same workload against a *contention-free* memory system approximated
/// by the measured 1-CPU machine with its own (small) self-load
/// corrected out using the paper's queue model.
pub fn scaling_sweep(
    counts: &[usize],
    protocol: ProtocolKind,
    seed: u64,
    warmup: u64,
    window: u64,
) -> Vec<ScalingPoint> {
    scaling_sweep_on(worker_count(), counts, protocol, seed, warmup, window)
}

/// [`scaling_sweep`] on an explicit number of harness workers. The
/// points are bit-identical for every `workers` value.
pub fn scaling_sweep_on(
    workers: usize,
    counts: &[usize],
    protocol: ProtocolKind,
    seed: u64,
    warmup: u64,
    window: u64,
) -> Vec<ScalingPoint> {
    let measure = |cpus| {
        FireflyBuilder::microvax(cpus).protocol(protocol).seed(seed).build().measure(warmup, window)
    };
    // Measure the 1-CPU machine, then correct its small self-induced bus
    // delay out to get the no-wait-state baseline rate.
    let m1 = measure(1);
    // instr_rate ∝ 1/TPI: scale measured rate up by TPI(measured)/base.
    let base_tpi = 11.9;
    let base_rate = m1.instructions_per_cpu_k * (m1.tpi / base_tpi);
    run_jobs_with(workers, counts, |&cpus| {
        // The 1-CPU point is the baseline run: same seed, same result.
        let m = if cpus == 1 { m1 } else { measure(cpus) };
        let rp = if base_rate == 0.0 { 0.0 } else { m.instructions_per_cpu_k / base_rate };
        ScalingPoint {
            cpus,
            load: m.bus_load,
            tpi: m.tpi,
            relative_performance: rp,
            total_performance: rp * cpus as f64,
            measurement: m,
        }
    })
}

/// Formats a sweep as a Table 1-shaped block.
pub fn format_sweep(points: &[ScalingPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<30}", "NP (number of processors):");
    for p in points {
        let _ = write!(out, "{:>6}", p.cpus);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "L (bus loading):");
    for p in points {
        let _ = write!(out, "{:>6.2}", p.load);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "TPI (ticks per instruction):");
    for p in points {
        let _ = write!(out, "{:>6.1}", p.tpi);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "RP (relative performance):");
    for p in points {
        let _ = write!(out, "{:>6.2}", p.relative_performance);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "TP (total performance):");
    for p in points {
        let _ = write!(out, "{:>6.2}", p.total_performance);
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_diminishing_returns() {
        let pts = scaling_sweep(&[1, 4, 8], ProtocolKind::Firefly, 11, 120_000, 250_000);
        assert_eq!(pts.len(), 3);
        assert!(pts[1].load > pts[0].load && pts[2].load > pts[1].load, "load grows");
        assert!(pts[1].tpi > pts[0].tpi && pts[2].tpi > pts[1].tpi, "TPI grows");
        assert!(pts[2].total_performance > pts[1].total_performance, "TP still increases at 8");
        let gain_1_to_4 = pts[1].total_performance - pts[0].total_performance;
        let gain_4_to_8 = pts[2].total_performance - pts[1].total_performance;
        assert!(
            gain_4_to_8 / 4.0 < gain_1_to_4 / 3.0,
            "marginal processors are worth less: {gain_1_to_4:.2}/3 vs {gain_4_to_8:.2}/4"
        );
    }

    #[test]
    fn format_matches_table_layout() {
        let pts = scaling_sweep(&[1, 2], ProtocolKind::Firefly, 11, 50_000, 100_000);
        let s = format_sweep(&pts);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("TP (total performance):"));
    }

    #[test]
    fn sweep_points_identical_across_worker_counts() {
        let serial = scaling_sweep_on(1, &[1, 2, 3], ProtocolKind::Firefly, 11, 20_000, 40_000);
        let parallel = scaling_sweep_on(4, &[1, 2, 3], ProtocolKind::Firefly, 11, 20_000, 40_000);
        assert_eq!(serial, parallel);
        assert_eq!(format_sweep(&serial), format_sweep(&parallel));
    }
}
