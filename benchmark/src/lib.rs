//! # firefly-benchmark
//!
//! One benchmark for the Firefly simulator. Six fixed workloads are
//! measured from outside, through the simulator crates' public API
//! only; every run checks the simulated outputs against digests, and a
//! separate traced pass splits host time by layer.
//!
//! * [`metrics`] — the metric tables `BENCHMARK.json` mirrors.
//! * [`workloads`] — the six workloads: set-up, one timed operation, and
//!   its traced twin.
//! * [`run`] — one invocation: repeated set-ups, operations until the
//!   time budget is spent, correctness gates, the result line.
//! * [`suite`] — every workload several times in child processes, and
//!   `compare` over two result files.
//! * `spans` — the sampled span recorder of the traced pass.
//! * `speed` — the host-speed reference times are reported against.
//! * `digest`, [`stats`], [`json`], [`host`] — support.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! their bounds.

#![warn(missing_docs)]

pub(crate) mod digest;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub(crate) mod spans;
pub(crate) mod speed;
pub mod stats;
pub mod suite;
pub mod workloads;
