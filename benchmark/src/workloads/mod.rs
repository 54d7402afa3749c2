//! The six workloads.
//!
//! Each is a closed-loop batch: a set-up builds and warms the simulated
//! system and checkpoints it; one *operation* restores that checkpoint
//! (untimed) and simulates a fixed amount of work (timed). Every
//! operation therefore simulates exactly the same thing, so operation
//! times are comparable across a run and across commits, and every
//! operation's digest must equal every other's.
//!
//! | workload | operation |
//! |---|---|
//! | `paper-4cpu` | 1 M cycles of the paper's mix on four MicroVAX CPUs |
//! | `sharing-8cpu` | 100 k cycles of a write-sharing mix on eight CPUs, once per protocol |
//! | `fleet-serving` | 2 M cycles of a healthy, mostly idle RPC fleet |
//! | `fleet-storm` | 50 k cycles inside a naive-retry storm |
//! | `checkpoint` | one machine and ten fleet snapshot round trips |
//! | `paper-regen` | one pass over the seventeen paper-regeneration binaries |

pub(crate) mod checkpoint;
pub(crate) mod fleets;
pub(crate) mod machines;
pub(crate) mod regen;

use crate::metrics::Report;
use crate::spans::Tracer;
use crate::speed::Speed;

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 7;

/// A workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's mix at four CPUs on the event engine.
    Paper4,
    /// Heavy write sharing at eight CPUs under all seven protocols.
    Sharing8,
    /// A healthy, mostly idle RPC fleet.
    FleetServing,
    /// A fleet in a naive-retry storm.
    FleetStorm,
    /// Snapshot save and load of a machine and a fleet.
    Checkpoint,
    /// The paper-regeneration binaries, run as subprocesses.
    PaperRegen,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 6] = [
        Kind::Paper4,
        Kind::Sharing8,
        Kind::FleetServing,
        Kind::FleetStorm,
        Kind::Checkpoint,
        Kind::PaperRegen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper4 => "paper-4cpu",
            Kind::Sharing8 => "sharing-8cpu",
            Kind::FleetServing => "fleet-serving",
            Kind::FleetStorm => "fleet-storm",
            Kind::Checkpoint => "checkpoint",
            Kind::PaperRegen => "paper-regen",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Default-seed digests of the set-up and of one operation, or
    /// `None` for a workload whose outputs are checked otherwise.
    pub fn golden(self) -> Option<Golden> {
        let (setup, op) = match self {
            Kind::Paper4 => (0x5d75_afa7_1fba_9adc, 0xda8e_e168_b7cf_1838),
            Kind::Sharing8 => (0x03c3_d688_8e71_99d4, 0xebe8_415b_dd52_df8f),
            Kind::FleetServing => (0xcefb_da58_9b59_f692, 0x0b90_0b5b_7f5b_f17f),
            Kind::FleetStorm => (0x619c_32be_0532_5456, 0xea5c_bed9_4bfb_b753),
            Kind::Checkpoint => (0xfe11_ea69_1bce_1ab2, 0x0850_1420_457c_cb91),
            Kind::PaperRegen => return None,
        };
        Some(Golden { setup, op })
    }
}

/// Digests a workload must reproduce at [`DEFAULT_SEED`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Golden {
    /// Digest of the state the set-up leaves.
    pub setup: u64,
    /// Digest of the state one operation leaves.
    pub op: u64,
}

/// How much simulated work a run does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A hundredth of the cycles, for tests.
    Smoke,
}

impl Size {
    /// `full` cycles at this size.
    pub fn cycles(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 100).max(100),
        }
    }
}

/// One timed operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    /// Host time of the timed part, ns.
    pub ns: u64,
    /// Digest of the simulated outcome.
    pub digest: u64,
}

/// One traced operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct TracedOp {
    /// The traced run of the operation.
    pub op: Op,
    /// Host time of the same operation run untraced on the same path,
    /// when that path differs from [`Bench::op`]'s (the machines trace
    /// the ticked engine, not the event engine).
    pub base_ns: Option<u64>,
}

/// A set-up workload, ready to run operations.
#[derive(Debug)]
pub(crate) enum Bench {
    /// `paper-4cpu` and `sharing-8cpu`.
    Machines(Box<machines::Machines>),
    /// `fleet-serving` and `fleet-storm`.
    Fleet(Box<fleets::FleetBench>),
    /// `checkpoint`.
    Checkpoint(Box<checkpoint::Checkpoint>),
    /// `paper-regen`.
    Regen(regen::Regen),
}

impl Bench {
    /// Builds and warms `kind` from `seed`: the timed set-up.
    ///
    /// # Errors
    ///
    /// When the workload cannot be built (for `paper-regen`, when the
    /// binaries are missing or the warm-up run fails).
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Result<Bench, String> {
        Ok(match kind {
            Kind::Paper4 => Bench::Machines(Box::new(machines::Machines::paper4(seed, size)?)),
            Kind::Sharing8 => Bench::Machines(Box::new(machines::Machines::sharing8(seed, size)?)),
            Kind::FleetServing => Bench::Fleet(Box::new(fleets::FleetBench::serving(seed, size)?)),
            Kind::FleetStorm => Bench::Fleet(Box::new(fleets::FleetBench::storm(seed, size)?)),
            Kind::Checkpoint => {
                Bench::Checkpoint(Box::new(checkpoint::Checkpoint::new(seed, size)?))
            }
            Kind::PaperRegen => Bench::Regen(regen::Regen::new(size)?),
        })
    }

    /// Digest of the state the set-up left.
    pub fn setup_digest(&self) -> u64 {
        match self {
            Bench::Machines(b) => b.setup_digest(),
            Bench::Fleet(b) => b.setup_digest(),
            Bench::Checkpoint(b) => b.setup_digest(),
            Bench::Regen(_) => 0,
        }
    }

    /// Runs one operation, sampling the host-speed reference before it
    /// (before each binary for `paper-regen`, whose operation lasts
    /// seconds).
    ///
    /// # Errors
    ///
    /// When a step of the operation fails or one of its own checks does
    /// not hold.
    pub fn op(&mut self, speed: &mut Speed) -> Result<Op, String> {
        if let Bench::Regen(b) = self {
            return b.op(speed);
        }
        speed.sample();
        match self {
            Bench::Machines(b) => b.op(),
            Bench::Fleet(b) => b.op(),
            Bench::Checkpoint(b) => b.op(),
            Bench::Regen(_) => unreachable!("handled above"),
        }
    }

    /// Builds what the traced pass needs beyond the set-up.
    ///
    /// # Errors
    ///
    /// As for [`Bench::op`].
    pub fn prepare_trace(&mut self) -> Result<(), String> {
        match self {
            Bench::Machines(b) => b.prepare_trace(),
            Bench::Fleet(b) => b.prepare_trace(),
            Bench::Checkpoint(_) | Bench::Regen(_) => Ok(()),
        }
    }

    /// Runs one operation with sampled spans into `tr`.
    ///
    /// # Errors
    ///
    /// As for [`Bench::op`].
    pub fn traced_op(&mut self, tr: &mut Tracer) -> Result<TracedOp, String> {
        match self {
            Bench::Machines(b) => b.traced_op(tr),
            Bench::Fleet(b) => b.traced_op(tr),
            Bench::Checkpoint(b) => b.traced_op(tr).map(|op| TracedOp { op, base_ns: None }),
            Bench::Regen(b) => b.traced_op(tr).map(|op| TracedOp { op, base_ns: None }),
        }
    }

    /// Fills this workload's per-layer metrics from the spans in `tr`
    /// and the counters gathered by its operations.
    pub fn layer_metrics(&self, tr: &Tracer, r: &mut Report) {
        match self {
            Bench::Machines(b) => b.layer_metrics(tr, r),
            Bench::Fleet(b) => b.layer_metrics(tr, r),
            Bench::Checkpoint(b) => b.layer_metrics(tr, r),
            Bench::Regen(b) => b.layer_metrics(tr, r),
        }
    }

    /// Peak resident memory of what ran the simulation, MB: this process
    /// for the in-process workloads, the largest child for
    /// `paper-regen`.
    ///
    /// # Errors
    ///
    /// When the operating system does not report it.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        match self {
            Bench::Regen(_) => crate::host::children_peak_rss_mb(),
            _ => crate::host::peak_rss_mb(),
        }
    }
}

/// Nanoseconds elapsed since `t`.
pub(crate) fn ns_since(t: std::time::Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
