//! One invocation: a workload set up several times, then operations
//! until the time budget is spent, every output checked.

use crate::metrics::{end_to_end, per_layer, Report};
use crate::spans::Tracer;
use crate::speed::{scale, Speed};
use crate::stats::median;
use crate::workloads::{Bench, Kind, Op, Size, DEFAULT_SEED};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed every simulated input derives from.
    pub seed: u64,
    /// How long to keep starting operations.
    pub budget: Duration,
    /// The traced pass instead of the untraced one.
    pub trace: bool,
    /// Full or smoke size.
    pub size: Size,
    /// Where the traced pass writes its Chrome trace (not written when
    /// `None`).
    pub trace_dir: Option<PathBuf>,
}

/// What one run found.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Checked operations: set-ups plus timed operations.
    pub attempted: u64,
    /// Operations whose checks failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub report: Report,
    /// Raw times, the trace file written, and one line per failed check
    /// (the first few).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    ///
    /// # Errors
    ///
    /// When a metric of the table was not measured.
    pub fn json_line(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .report
            .entries()?
            .into_iter()
            .map(|(d, v)| {
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    crate::json::quote(&d.name),
                    crate::json::quote(d.unit)
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

/// Digest gate: the first value seen is the reference unless a golden
/// value was given; every later value must match it.
struct Gate {
    expect: Option<u64>,
    what: &'static str,
}

impl Gate {
    fn check(&mut self, got: u64) -> Result<(), String> {
        let expect = *self.expect.get_or_insert(got);
        if got == expect {
            Ok(())
        } else {
            Err(format!("{} digest {got:#018x}, expected {expect:#018x}", self.what))
        }
    }
}

/// Failure notes kept per run; later failures are only counted.
const MAX_NOTES: usize = 8;

/// Tallies checked operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    info: Vec<String>,
}

impl Checks {
    fn note(&mut self, note: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    fn op(&mut self, result: Result<Op, String>, gate: &mut Gate) -> Option<Op> {
        self.attempted += 1;
        match result.and_then(|op| gate.check(op.digest).map(|()| op)) {
            Ok(op) => Some(op),
            Err(e) => {
                self.failed += 1;
                self.note(e);
                None
            }
        }
    }

    fn setup(&mut self, bench: &Bench, gate: &mut Gate) {
        self.attempted += 1;
        if let Err(e) = gate.check(bench.setup_digest()) {
            self.failed += 1;
            self.note(e);
        }
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// When the workload cannot be set up, no operation succeeded, or the
/// traced pass's own output is malformed: there is then no result.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let golden =
        if cfg.seed == DEFAULT_SEED && cfg.size == Size::Full { cfg.kind.golden() } else { None };
    let mut setup_gate = Gate { expect: golden.map(|g| g.setup), what: "set-up" };
    let mut op_gate = Gate { expect: golden.map(|g| g.op), what: "operation" };
    let mut checks = Checks::default();
    let setups = if cfg.trace { 1 } else { SETUPS };
    let mut speed = Speed::default();
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups {
        drop(bench.take());
        speed.sample();
        let t = Instant::now();
        let b = Bench::setup(cfg.kind, cfg.seed, cfg.size)?;
        setup_s.push(t.elapsed().as_secs_f64());
        checks.setup(&b, &mut setup_gate);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_ref = speed.take();
    let report = if cfg.trace {
        traced(cfg, &mut bench, &mut speed, &mut checks, &mut op_gate)?
    } else {
        let mut op_ns = Vec::new();
        for_budget(cfg.budget, || {
            if let Some(op) = checks.op(bench.op(&mut speed), &mut op_gate) {
                op_ns.push(op.ns as f64);
            }
        });
        let op_ref = speed.take();
        if op_ns.is_empty() {
            return Err(format!("no operation succeeded: {}", checks.notes.join("; ")));
        }
        let (setup, op) = (median(&setup_s), median(&op_ns) / 1e6);
        checks.info.push(format!(
            "raw medians: set-up {setup:.4} s, operation {op:.3} ms; reference kernel {:.3} ms at set-up, {:.3} ms at operations",
            median(&setup_ref) / 1e6,
            median(&op_ref) / 1e6
        ));
        let mut r = Report::new(end_to_end());
        r.set("setup_s", setup * scale(&setup_ref));
        r.set("op_ms", op * scale(&op_ref));
        r.set("peak_rss_mb", bench.peak_rss_mb()?);
        r
    };
    Ok(RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        report,
        notes: checks.info.into_iter().chain(checks.notes).collect(),
    })
}

/// Calls `f` once, then again until `budget` has passed since the first
/// call began.
fn for_budget(budget: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        f();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// The traced pass: untraced and traced operations alternate until the
/// budget is spent, so the overhead compares like with like.
fn traced(
    cfg: &RunConfig,
    bench: &mut Bench,
    speed: &mut Speed,
    checks: &mut Checks,
    gate: &mut Gate,
) -> Result<Report, String> {
    bench.prepare_trace()?;
    let mut tr = Tracer::new();
    let (mut base_ns, mut traced_ns) = (Vec::new(), Vec::new());
    for_budget(cfg.budget, || {
        let plain = checks.op(bench.op(speed), gate);
        let attempt = bench.traced_op(&mut tr);
        let base = attempt.as_ref().ok().and_then(|t| t.base_ns).or(plain.map(|p| p.ns));
        if let Some(t) = checks.op(attempt.map(|t| t.op), gate) {
            traced_ns.push(t.ns as f64);
            base_ns.extend(base.map(|ns| ns as f64));
        }
    });
    if traced_ns.is_empty() || base_ns.is_empty() {
        return Err(format!("no traced operation succeeded: {}", checks.notes.join("; ")));
    }
    let mut r = Report::zeroed(per_layer());
    let traced = median(&traced_ns);
    r.set("trace.null_span_ns", tr.null().outer_ns);
    r.set("trace.traced_op_ms", traced / 1e6);
    r.set("trace.overhead_frac", traced / median(&base_ns) - 1.0);
    r.set("host.ref_kernel_ms", median(&speed.take()) / 1e6);
    bench.layer_metrics(&tr, &mut r);
    let json = tr.chrome_json();
    firefly_core::events::validate_json(&json).map_err(|e| format!("chrome trace: {e}"))?;
    if let Some(dir) = &cfg.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", cfg.kind.name()));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        checks.info.push(format!("chrome trace: {} ({} spans)", path.display(), tr.spans().len()));
    }
    Ok(r)
}
