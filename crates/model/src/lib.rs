//! # firefly-model
//!
//! The Firefly analytic performance model — a faithful transcription of
//! §5.2 "Hardware Performance Estimate" of the paper, the model that
//! produces **Table 1**.
//!
//! The model's structure: trace-driven simulation characterizes a single
//! processor and its cache (miss rate `M`, dirty fraction `D`), VAX
//! measurements fix the reference mix (`IR`, `DR`, `DW`), an assumed
//! sharing fraction `S` covers the absent multiprocessor traces, and an
//! open queuing network models the bus: an MBus operation that takes `N`
//! ticks in isolation takes `N/(1-L)` ticks at bus load `L`.
//!
//! Three effects inflate the base 11.9 ticks per instruction:
//!
//! * **SM** — misses: `TR · M · (1+D) · N/(1-L)`
//! * **SW** — write-throughs: `DW · S · N/(1-L)`
//! * **SP** — tag-store probes by other caches: `TR · (1-M) · (1/N) · L`
//!
//! giving `TPI(L) = 11.9 + 1.145/(1-L) + 0.85·L` with the paper's
//! constants. The processor count needed to produce load `L` is
//! `NP = L·TPI / 1.145`, and total system performance is
//! `TP = NP · 11.9/TPI`.
//!
//! ## Reproducing Table 1
//!
//! ```
//! use firefly_model::Params;
//!
//! let table = Params::microvax().table1();
//! let row8 = &table[3]; // NP = 8
//! assert_eq!(row8.processors, 8);
//! assert!((row8.load - 0.60).abs() < 0.005);
//! assert!((row8.tpi - 15.3).abs() < 0.05);
//! assert!((row8.total_performance - 6.23).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fmt;

pub mod disciplines;
pub mod sensitivity;
mod table2;

pub use disciplines::Discipline;
pub use table2::{ExpectedRates, Table2Expected};

/// The model's input parameters, with the paper's §5.2 values as the
/// MicroVAX defaults.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Params {
    /// Instruction reads per instruction (Emer & Clark: 0.95).
    pub instr_reads: f64,
    /// Data reads per instruction (0.78).
    pub data_reads: f64,
    /// Data writes per instruction (0.40).
    pub data_writes: f64,
    /// Cache miss rate `M` (trace-driven: 0.2 for the 16 KB, 4-byte-line
    /// Firefly cache — "abnormally large ... we attribute it to the small
    /// line size").
    pub miss_rate: f64,
    /// Fraction `D` of cache entries that are dirty (0.25).
    pub dirty_fraction: f64,
    /// Fraction `S` of writes that touch shared data ("we arbitrarily
    /// assumed" 0.1).
    pub shared_write_fraction: f64,
    /// Base no-wait-state ticks per instruction (MicroVAX: 11.9).
    pub base_tpi: f64,
    /// CPU ticks per MBus operation `N` (2).
    pub bus_ticks_per_op: f64,
    /// Tick duration in nanoseconds (MicroVAX: 200).
    pub tick_ns: f64,
    /// Hardware ticks a miss adds beyond its bus operation ("misses add
    /// only one cycle to a MicroVAX CPU access": 1 tick; CVAX: 4).
    pub miss_penalty_ticks: f64,
}

impl Params {
    /// The paper's MicroVAX Firefly parameters.
    pub fn microvax() -> Self {
        Params {
            instr_reads: 0.95,
            data_reads: 0.78,
            data_writes: 0.40,
            miss_rate: 0.2,
            dirty_fraction: 0.25,
            shared_write_fraction: 0.1,
            base_tpi: 11.9,
            bus_ticks_per_op: 2.0,
            tick_ns: 200.0,
            miss_penalty_ticks: 1.0,
        }
    }

    /// A CVAX-flavoured parameter set: the paper assumed the bigger board
    /// cache (and I-only on-chip cache) would cut the miss rate enough to
    /// compensate for the 2× faster processor on the unchanged MBus.
    /// An MBus op still takes 400 ns, which is now 4 CPU ticks.
    pub fn cvax() -> Self {
        Params {
            miss_rate: 0.1,
            bus_ticks_per_op: 4.0,
            tick_ns: 100.0,
            miss_penalty_ticks: 4.0,
            ..Params::microvax()
        }
    }

    /// Ticks per instruction of an *isolated* (bus-uncontended) single
    /// processor: each miss costs its hardware penalty plus the fill, and
    /// each dirty victim costs one MBus write.
    ///
    /// This is the accounting behind Table 2's one-CPU "Expected" column:
    /// "a Firefly cache that adds one tick to every operation that
    /// misses, plus two ticks for every dirty victim write" — which
    /// yields the paper's ~850 K refs/s. (Write-through cost is omitted,
    /// as the paper omits it: a single-CPU system has no sharers.)
    pub fn isolated_tpi(&self) -> f64 {
        let miss_refs = self.refs_per_instruction() * self.miss_rate;
        self.base_tpi
            + miss_refs * self.miss_penalty_ticks
            + miss_refs * self.dirty_fraction * self.bus_ticks_per_op
    }

    /// Reference rate of an isolated single processor, in K refs/s.
    pub fn isolated_krefs_per_second(&self) -> f64 {
        let instr_per_sec = 1e9 / (self.isolated_tpi() * self.tick_ns);
        instr_per_sec * self.refs_per_instruction() / 1e3
    }

    /// Total references per instruction `TR = IR + DR + DW` (2.13).
    pub fn refs_per_instruction(&self) -> f64 {
        self.instr_reads + self.data_reads + self.data_writes
    }

    /// Reads per instruction (instruction + data reads).
    pub fn reads_per_instruction(&self) -> f64 {
        self.instr_reads + self.data_reads
    }

    /// MBus operations per instruction, before queueing:
    /// misses (fill + dirty victim) plus write-throughs.
    pub fn bus_ops_per_instruction(&self) -> f64 {
        self.refs_per_instruction() * self.miss_rate * (1.0 + self.dirty_fraction)
            + self.data_writes * self.shared_write_fraction
    }

    /// The miss term `SM(L)` in ticks per instruction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn sm(&self, load: f64) -> f64 {
        assert_load(load);
        self.refs_per_instruction()
            * self.miss_rate
            * (1.0 + self.dirty_fraction)
            * self.bus_ticks_per_op
            / (1.0 - load)
    }

    /// The write-through term `SW(L)` in ticks per instruction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn sw(&self, load: f64) -> f64 {
        assert_load(load);
        self.data_writes * self.shared_write_fraction * self.bus_ticks_per_op / (1.0 - load)
    }

    /// The tag-probe interference term `SP(L)` in ticks per instruction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn sp(&self, load: f64) -> f64 {
        assert_load(load);
        self.refs_per_instruction() * (1.0 - self.miss_rate) * load / self.bus_ticks_per_op
    }

    /// Effective ticks per instruction at bus load `load`:
    /// `TPI = base + SM + SW + SP`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn tpi(&self, load: f64) -> f64 {
        self.base_tpi + self.sm(load) + self.sw(load) + self.sp(load)
    }

    /// Relative performance of one processor at load `load`
    /// (`RP = base_tpi / TPI`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn relative_performance(&self, load: f64) -> f64 {
        self.base_tpi / self.tpi(load)
    }

    /// The number of processors that produces bus load `load`:
    /// `NP = (L/N) / ((1/TPI) · bus_ops_per_instruction)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn processors_at_load(&self, load: f64) -> f64 {
        assert_load(load);
        let ops_per_tick_per_cpu = self.bus_ops_per_instruction() / self.tpi(load);
        (load / self.bus_ticks_per_op) / ops_per_tick_per_cpu
    }

    /// Total system performance at load `load`, relative to one processor
    /// with no-wait-state memory (`TP = NP · RP`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn total_performance(&self, load: f64) -> f64 {
        self.processors_at_load(load) * self.relative_performance(load)
    }

    /// Inverts [`processors_at_load`](Params::processors_at_load): the bus
    /// load produced by `np` processors, found by bisection.
    ///
    /// `NP(L)` is strictly increasing on `[0, 1)`, so the solution is
    /// unique. Returns load in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `np` is not positive and finite.
    pub fn load_for_processors(&self, np: f64) -> f64 {
        assert!(np > 0.0 && np.is_finite(), "processor count must be positive, got {np}");
        let (mut lo, mut hi) = (0.0_f64, 1.0 - 1e-12);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.processors_at_load(mid) < np {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// One row of Table 1 for an integer processor count.
    pub fn estimate(&self, processors: usize) -> Estimate {
        let load = self.load_for_processors(processors as f64);
        Estimate {
            processors,
            load,
            tpi: self.tpi(load),
            relative_performance: self.relative_performance(load),
            total_performance: processors as f64 * self.relative_performance(load),
        }
    }

    /// Table 1 of the paper: NP ∈ {2, 4, 6, 8, 10, 12}.
    pub fn table1(&self) -> Vec<Estimate> {
        [2, 4, 6, 8, 10, 12].iter().map(|&np| self.estimate(np)).collect()
    }

    /// Estimates for arbitrary processor counts.
    pub fn estimates<I>(&self, counts: I) -> Vec<Estimate>
    where
        I: IntoIterator<Item = usize>,
    {
        counts.into_iter().map(|np| self.estimate(np)).collect()
    }

    /// Single-processor reference rate in thousands of references per
    /// second at bus load `load` — the "Expected" methodology of Table 2.
    ///
    /// One instruction takes `TPI(L)` ticks of `tick_ns`; each makes
    /// `TR` references.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= load < 1`.
    pub fn krefs_per_second(&self, load: f64) -> f64 {
        let instr_per_sec = 1e9 / (self.tpi(load) * self.tick_ns);
        instr_per_sec * self.refs_per_instruction() / 1e3
    }

    /// The marginal value of the `np+1`-th processor:
    /// `TP(np+1) - TP(np)`.
    pub fn marginal_gain(&self, np: usize) -> f64 {
        self.estimate(np + 1).total_performance - self.estimate(np).total_performance
    }

    /// The largest processor count whose addition still contributes at
    /// least `threshold` of a full processor — the paper's "perhaps nine
    /// processors before the marginal improvement ... becomes
    /// unattractive" knee (threshold 0.5 reproduces nine).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < 1`.
    pub fn knee(&self, threshold: f64) -> usize {
        assert!(threshold > 0.0 && threshold < 1.0, "threshold must be in (0,1)");
        let mut knee = 1;
        for np in 2..64 {
            if self.marginal_gain(np - 1) >= threshold {
                knee = np;
            } else {
                break;
            }
        }
        knee
    }
}

fn assert_load(load: f64) {
    assert!((0.0..1.0).contains(&load), "bus load must be in [0,1), got {load}");
}

/// One row of Table 1.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Estimate {
    /// NP — number of processors.
    pub processors: usize,
    /// L — bus load.
    pub load: f64,
    /// TPI — effective ticks per instruction.
    pub tpi: f64,
    /// RP — relative performance of each processor.
    pub relative_performance: f64,
    /// TP — total performance relative to one no-wait-state processor.
    pub total_performance: f64,
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NP={:<3} L={:.2}  TPI={:<5.1} RP={:.2}  TP={:.2}",
            self.processors, self.load, self.tpi, self.relative_performance, self.total_performance
        )
    }
}

/// Formats a slice of estimates in the layout of Table 1 of the paper.
pub fn format_table1(rows: &[Estimate]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<30}", "NP (number of processors):");
    for r in rows {
        let _ = write!(out, "{:>6}", r.processors);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "L (bus loading):");
    for r in rows {
        let _ = write!(out, "{:>6.2}", r.load);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "TPI (ticks per instruction):");
    for r in rows {
        let _ = write!(out, "{:>6.1}", r.tpi);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "RP (relative performance):");
    for r in rows {
        let _ = write!(out, "{:>6.2}", r.relative_performance);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<30}", "TP (total performance):");
    for r in rows {
        let _ = write!(out, "{:>6.2}", r.total_performance);
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::microvax()
    }

    #[test]
    fn paper_constants() {
        assert!((p().refs_per_instruction() - 2.13).abs() < 1e-12);
        // SM numerator: 2.13 * 0.2 * 1.25 * 2 = 1.065
        assert!((p().sm(0.0) - 1.065).abs() < 1e-12);
        // SW numerator: 0.40 * 0.1 * 2 = 0.08
        assert!((p().sw(0.0) - 0.08).abs() < 1e-12);
        // SP slope: 2.13 * 0.8 / 2 = 0.852 (the paper rounds to .85)
        assert!((p().sp(1.0 - 1e-9) - 0.852).abs() < 1e-6);
    }

    #[test]
    fn tpi_closed_form() {
        // TPI = 11.9 + 1.145/(1-L) + 0.852 L
        for l in [0.0, 0.1, 0.33, 0.6, 0.78] {
            let expect = 11.9 + 1.145 / (1.0 - l) + 0.852 * l;
            assert!((p().tpi(l) - expect).abs() < 1e-9, "L={l}");
        }
    }

    #[test]
    fn np_closed_form() {
        // NP = L * TPI / 1.145
        for l in [0.1, 0.33, 0.6] {
            let expect = l * p().tpi(l) / 1.145;
            assert!((p().processors_at_load(l) - expect).abs() < 1e-9);
        }
    }

    /// Every cell of Table 1, against the paper (table rounding).
    #[test]
    fn table1_matches_paper() {
        let rows = p().table1();
        // (NP, L, TPI, RP, TP); the paper's table omits L and TPI for
        // NP=2 (typesetting), RP/TP are printed.
        type PaperRow = (usize, Option<f64>, Option<f64>, f64, f64);
        let paper: [PaperRow; 6] = [
            (2, None, None, 0.89, 1.77),
            (4, Some(0.33), Some(13.9), 0.85, 3.43),
            (6, Some(0.47), Some(14.5), 0.82, 4.93),
            (8, Some(0.60), Some(15.3), 0.78, 6.23),
            (10, Some(0.70), Some(16.3), 0.72, 7.29),
            (12, Some(0.78), Some(17.7), 0.67, 8.07),
        ];
        for (row, (np, l, tpi, rp, tp)) in rows.iter().zip(paper) {
            assert_eq!(row.processors, np);
            if let Some(l) = l {
                assert!((row.load - l).abs() < 0.005, "NP={np} L: got {:.3}", row.load);
            }
            if let Some(tpi) = tpi {
                assert!((row.tpi - tpi).abs() < 0.05, "NP={np} TPI: got {:.2}", row.tpi);
            }
            // The paper truncates RP to two digits (e.g. 0.857 -> .85).
            assert!(
                (row.relative_performance - rp).abs() < 0.01,
                "NP={np} RP: got {:.3}",
                row.relative_performance
            );
            assert!(
                (row.total_performance - tp).abs() < 0.005,
                "NP={np} TP: got {:.3}",
                row.total_performance
            );
        }
    }

    #[test]
    fn standard_five_processor_machine() {
        // "The standard five-processor configuration delivers somewhat
        // more than four times the performance of a single processor ...
        // The average bus load on the standard machine is 0.4 and each
        // processor runs at about 85% of a no-wait-state system."
        let e = p().estimate(5);
        assert!(e.total_performance > 4.0 && e.total_performance < 4.5, "TP={e:?}");
        assert!((e.load - 0.4).abs() < 0.01, "L={:.3}", e.load);
        assert!((e.relative_performance - 0.85).abs() < 0.01);
    }

    #[test]
    fn nine_processor_knee() {
        // "the Firefly MBus can support perhaps nine processors before the
        // marginal improvement ... becomes unattractive."
        assert_eq!(p().knee(0.5), 9);
    }

    #[test]
    fn load_inversion_roundtrips() {
        for np in 1..=12 {
            let l = p().load_for_processors(np as f64);
            assert!((p().processors_at_load(l) - np as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn monotonicity() {
        let rows = p().estimates(1..=12);
        for w in rows.windows(2) {
            assert!(w[1].load > w[0].load, "load increases with NP");
            assert!(w[1].tpi > w[0].tpi, "TPI increases with NP");
            assert!(w[1].relative_performance < w[0].relative_performance);
            assert!(
                w[1].total_performance > w[0].total_performance,
                "TP still increasing through 12"
            );
        }
    }

    #[test]
    fn single_cpu_expected_rate_matches_table2() {
        // Table 2 expects ~850 K refs/sec for an isolated one-CPU system
        // and ~752 K per CPU at the five-CPU load.
        let k = p().isolated_krefs_per_second();
        assert!((k - 849.0).abs() < 3.0, "one-CPU expected {k:.0} K refs/s");
        let five_cpu_load = p().load_for_processors(5.0);
        let k5 = p().krefs_per_second(five_cpu_load);
        assert!((k5 - 752.0).abs() < 3.0, "five-CPU expected {k5:.0} K refs/s");
    }

    #[test]
    fn format_table1_layout() {
        let s = format_table1(&p().table1());
        assert!(s.contains("NP (number of processors):"));
        assert!(s.contains("TP (total performance):"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "bus load")]
    fn load_bounds_enforced() {
        let _ = p().tpi(1.0);
    }

    #[test]
    fn cvax_params_sane() {
        let c = Params::cvax();
        assert!(c.bus_ops_per_instruction() < p().bus_ops_per_instruction());
        // Per-CPU bus load similar: halved miss traffic, doubled speed.
        let l1 = c.load_for_processors(5.0);
        let l0 = p().load_for_processors(5.0);
        assert!((l1 - l0).abs() < 0.15, "CVAX 5-CPU load {l1:.2} vs MicroVAX {l0:.2}");
    }

    #[test]
    fn marginal_gain_decreasing() {
        let mut prev = f64::INFINITY;
        for np in 1..12 {
            let g = p().marginal_gain(np);
            assert!(g < prev, "diminishing returns at NP={np}");
            prev = g;
        }
    }
}
