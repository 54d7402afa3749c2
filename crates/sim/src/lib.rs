//! # firefly-sim
//!
//! The full-system Firefly simulator: a builder that assembles
//! processors ([`firefly_cpu`]), the coherent memory system
//! ([`firefly_core`]), optional I/O devices ([`firefly_io`]) and a
//! workload ([`firefly_trace`]) into one machine, plus the measurement
//! harness that reports in the units of the paper's Table 2.
//!
//! ```
//! use firefly_sim::{FireflyBuilder, Workload};
//!
//! // The standard machine: five MicroVAX processors, 16 MB, Firefly
//! // protocol, the calibrated synthetic workload.
//! let mut machine = FireflyBuilder::microvax(5).build();
//! let m = machine.measure(50_000, 100_000);
//! assert!(m.bus_load > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod fleet;
pub mod harness;
pub mod machine;
pub mod measure;
pub mod sweep;
pub mod table2;

pub use fleet::{
    goodput_mbps, run_crash_failover, run_retry_storm, CrashOutcome, Fleet, FleetConfig,
    FleetEngineStats, FleetReport, SlowdownWindow, StormOutcome,
};
pub use harness::{run_jobs, run_jobs_with, worker_count};
pub use machine::{EngineMode, Firefly, FireflyBuilder, Workload};
pub use measure::Measurement;
pub use sweep::{format_sweep, scaling_sweep, scaling_sweep_on, ScalingPoint};
pub use table2::{table2_report, Table2};
