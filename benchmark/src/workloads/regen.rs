//! `paper-regen`: the paper-regeneration binaries, run as a reader runs
//! them.
//!
//! The binaries come from the repository's `firefly-bench` package and
//! sit beside this benchmark's executable when both are built into one
//! target directory (as `run.sh` does). Each must exit 0; their text is
//! not compared, so a change that legitimately re-derives a table does
//! not fail the benchmark.

use super::{ns_since, Op, Size};
use crate::metrics::{ratio, Report};
use crate::spans::Tracer;
use crate::speed::Speed;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The paper-regeneration binaries of `firefly-bench`: every table and
/// figure binary except `fault_sweep` and `model_check`, which are
/// robustness checks rather than paper results.
pub const PAPER_BINS: [&str; 17] = [
    "table1",
    "table2",
    "figure3",
    "figure4",
    "scaling",
    "protocol_compare",
    "migration_ablation",
    "cache_sweep",
    "prefetch_ablation",
    "io_load",
    "mdc_throughput",
    "rpc_bandwidth",
    "cvax_upgrade",
    "model_sensitivity",
    "parallel_make",
    "file_streaming",
    "syscall_emulation",
];

/// The binaries run as set-up: the paper's two tables, one analytic and
/// one simulated, so set-up covers locating the binaries, cold process
/// starts and a short simulation (a few process starts alone take
/// milliseconds and spread too widely to compare).
const SETUP_BINS: [&str; 2] = ["table1", "table2"];

/// Worker threads each binary's experiment harness gets. One: on a
/// small shared host a second worker made pass times spread several
/// times wider, and the harness's own determinism gates already cover
/// wider pools.
pub const JOBS: &str = "1";

const PASS: &str = "regen.pass";

/// A located set of binaries.
#[derive(Debug)]
pub struct Regen {
    bins: Vec<(&'static str, PathBuf)>,
}

impl Regen {
    /// Locates the binaries and runs the set-up ones. At [`Size::Smoke`]
    /// three stand-ins that run `true` take their place, so tests need
    /// no built binaries.
    ///
    /// # Errors
    ///
    /// When a binary is missing or a set-up run fails.
    pub fn new(size: Size) -> Result<Self, String> {
        let bins: Vec<(&'static str, PathBuf)> = match size {
            Size::Smoke => PAPER_BINS[..3].iter().map(|&b| (b, PathBuf::from("true"))).collect(),
            Size::Full => {
                let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
                let dir = exe.parent().ok_or("executable has no directory")?;
                let bins: Vec<_> = PAPER_BINS.iter().map(|&b| (b, dir.join(b))).collect();
                if let Some((_, missing)) = bins.iter().find(|(_, p)| !p.is_file()) {
                    return Err(format!(
                        "{} is missing: build firefly-bench into the same target directory",
                        missing.display()
                    ));
                }
                bins
            }
        };
        let regen = Regen { bins };
        for (name, path) in regen.bins.iter().filter(|(n, _)| SETUP_BINS.contains(n)) {
            run_bin(name, path)?;
        }
        Ok(regen)
    }

    /// Runs every binary once, sampling the host-speed reference
    /// (untimed) before each.
    ///
    /// # Errors
    ///
    /// When a binary cannot start or exits non-zero.
    pub fn op(&mut self, speed: &mut Speed) -> Result<Op, String> {
        let mut ns = 0;
        for (name, path) in &self.bins {
            speed.sample();
            let t = Instant::now();
            run_bin(name, path)?;
            ns += ns_since(t);
        }
        Ok(Op { ns, digest: 0 })
    }

    /// Runs every binary once, a span per binary under one root span.
    ///
    /// # Errors
    ///
    /// As for [`Regen::op`].
    pub fn traced_op(&mut self, tr: &mut Tracer) -> Result<Op, String> {
        let t = Instant::now();
        let start = tr.now();
        for (name, path) in &self.bins {
            let a = tr.now();
            run_bin(name, path)?;
            tr.child(name, a, tr.now());
        }
        tr.unit(PASS, start, tr.now());
        Ok(Op { ns: ns_since(t), digest: 0 })
    }

    /// Each binary's share of a pass.
    pub fn layer_metrics(&self, tr: &Tracer, r: &mut Report) {
        let names: Vec<&str> = self.bins.iter().map(|(n, _)| *n).collect();
        let total = tr.self_ns(&names) + tr.total(PASS).self_ns;
        for name in names {
            r.set(&format!("regen.{name}_share"), ratio(tr.total(name).self_ns, total));
        }
    }
}

fn run_bin(name: &str, path: &PathBuf) -> Result<(), String> {
    let out = Command::new(path)
        .env("FIREFLY_JOBS", JOBS)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{name}: cannot start {}: {e}", path.display()))?;
    if out.status.success() {
        Ok(())
    } else {
        let err = String::from_utf8_lossy(&out.stderr);
        Err(format!("{name}: {}: {}", out.status, err.lines().last().unwrap_or("")))
    }
}
