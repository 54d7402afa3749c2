//! The metric tables and the per-run metric report.
//!
//! These tables are the benchmark's definition; `BENCHMARK.json` at the
//! repository root repeats them for the tools that read it, and a test
//! holds the two equal.

use crate::workloads::regen::PAPER_BINS;
use firefly_core::ProtocolKind;

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `true` when `new` is an improvement on `old`.
    pub fn improves(self, new: f64, old: f64) -> bool {
        match self {
            Better::Lower => new < old,
            Better::Higher => new > old,
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when `new` is better).
    pub fn regression(self, new: f64, old: f64) -> f64 {
        let change = (new - old) / old;
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

/// One metric: its name, unit, direction and (end-to-end metrics only)
/// the share of the baseline median by which it may worsen before a
/// change counts as a regression.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// Unit as printed beside the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound for end-to-end metrics; `None` for per-layer.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound }
}

/// No bound may exceed this share of the baseline median.
pub const MAX_BOUND: f64 = 0.25;

/// Host-visible metrics, reported by every workload in an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", Better::Lower, Some(0.25)),
        def("op_ms", "ms", Better::Lower, Some(0.24)),
        def("peak_rss_mb", "MB", Better::Lower, Some(0.15)),
    ]
}

/// Lower-case protocol name used in per-protocol metric names.
pub fn protocol_key(p: ProtocolKind) -> String {
    p.name().to_ascii_lowercase()
}

/// Per-layer metrics, reported by every workload in a traced run. A
/// layer the workload never calls reports 0: a share of no time, a
/// count of nothing.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("trace.null_span_ns", "ns", Lower, None),
        def("trace.overhead_frac", "frac", Lower, None),
        def("trace.traced_op_ms", "ms", Lower, None),
        def("host.ref_kernel_ms", "ms", Lower, None),
        def("cpu.tick_share", "frac", Lower, None),
        def("core.step_busy_share", "frac", Lower, None),
        def("core.step_idle_share", "frac", Lower, None),
        def("core.loop_share", "frac", Lower, None),
        def("core.step_busy_frac", "frac", Lower, None),
        def("core.bus_load", "frac", Lower, None),
        def("core.miss_rate", "frac", Lower, None),
        def("core.bus_ops_per_kcycle", "1/kcycle", Lower, None),
        def("engine.ticked_frac", "frac", Lower, None),
        def("engine.idle_skips_per_mcycle", "1/Mcycle", Higher, None),
        def("engine.event_speedup", "x", Higher, None),
        def("trace.next_ref_share", "frac", Lower, None),
    ];
    for p in ProtocolKind::ALL {
        v.push(def(&format!("core.{}_share", protocol_key(p)), "frac", Lower, None));
    }
    v.extend([
        def("fleet.step_wire_idle_share", "frac", Lower, None),
        def("fleet.wire_idle_frac", "frac", Higher, None),
        def("fleet.timeouts_per_mcycle", "1/Mcycle", Lower, None),
        def("fleet.frames_per_mcycle", "1/Mcycle", Lower, None),
        def("net.segment_share", "frac", Lower, None),
        def("net.server_share", "frac", Lower, None),
        def("net.client_share", "frac", Lower, None),
        def("net.loop_share", "frac", Lower, None),
        def("net.client_pending_mean", "count", Lower, None),
        def("snapshot.machine_save_share", "frac", Lower, None),
        def("snapshot.machine_load_share", "frac", Lower, None),
        def("snapshot.machine_run_share", "frac", Lower, None),
        def("snapshot.fleet_save_share", "frac", Lower, None),
        def("snapshot.fleet_load_share", "frac", Lower, None),
        def("snapshot.fleet_run_share", "frac", Lower, None),
        def("snapshot.machine_mb", "MB", Lower, None),
        def("snapshot.fleet_kb", "KB", Lower, None),
    ]);
    for bin in PAPER_BINS {
        v.push(def(&format!("regen.{bin}_share"), "frac", Lower, None));
    }
    v
}

/// `true` for a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `part / whole`, or 0 when `whole` is 0: a share of no time.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The values one run reports against a metric table.
#[derive(Clone, Debug)]
pub struct Report {
    defs: Vec<MetricDef>,
    values: Vec<Option<f64>>,
}

impl Report {
    /// A report over `defs` with every value unset.
    pub fn new(defs: Vec<MetricDef>) -> Self {
        let values = vec![None; defs.len()];
        Report { defs, values }
    }

    /// A report over `defs` with every value 0.
    pub fn zeroed(defs: Vec<MetricDef>) -> Self {
        let values = vec![Some(0.0); defs.len()];
        Report { defs, values }
    }

    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the table or `value` is not finite:
    /// both are bugs in the benchmark, not in the program measured.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some(value);
    }

    /// `(definition, value)` for every metric, in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric left unset.
    pub fn entries(&self) -> Result<Vec<(&MetricDef, f64)>, String> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                v.map(|v| (d, v)).ok_or_else(|| format!("metric {} was not measured", d.name))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "bad unit for {}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn end_to_end_bounds_are_set_and_setup_has_the_largest() {
        let e2e = end_to_end();
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for d in &e2e {
            let b = d.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= MAX_BOUND);
            assert!(b <= setup.bound.unwrap());
        }
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn invalid_names_are_rejected() {
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("core.access_ns.firefly-2"));
    }

    #[test]
    fn report_needs_every_metric() {
        let mut r = Report::new(end_to_end());
        assert!(r.entries().is_err());
        for d in end_to_end() {
            r.set(&d.name, 1.0);
        }
        assert_eq!(r.entries().unwrap().len(), end_to_end().len());
        assert_eq!(Report::zeroed(per_layer()).entries().unwrap().len(), per_layer().len());
    }

    #[test]
    fn regression_sign_follows_direction() {
        assert!(Better::Lower.regression(11.0, 10.0) > 0.0);
        assert!(Better::Higher.regression(11.0, 10.0) < 0.0);
        assert!(Better::Higher.improves(2.0, 1.0) && Better::Lower.improves(1.0, 2.0));
    }
}
