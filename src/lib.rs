//! # firefly
//!
//! A Rust reproduction of the DEC SRC **Firefly multiprocessor
//! workstation** (Thacker, Stewart & Satterthwaite, ASPLOS 1987): the
//! snoopy-coherent memory system with the Firefly *conditional
//! write-through* protocol, a cycle-accurate MBus, processor and I/O
//! models, the Topaz threads runtime, and the analytic performance model
//! — everything needed to regenerate every table and figure in the
//! paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! one roof. See the individual crates for the deep documentation:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `firefly-core` | protocols, caches, MBus, memory, checker |
//! | [`cpu`] | `firefly-cpu` | MicroVAX/CVAX processor models, prefetch |
//! | [`trace`] | `firefly-trace` | reference streams, synthetic workloads |
//! | [`topaz`] | `firefly-topaz` | threads, scheduler, exerciser, RPC |
//! | [`io`] | `firefly-io` | QBus, DMA, Ethernet, disk, display (MDC) |
//! | [`net`] | `firefly-net` | shared Ethernet segment, faults, Topaz-style RPC transport |
//! | [`model`] | `firefly-model` | the §5.2 queuing model (Table 1) |
//! | [`sim`] | `firefly-sim` | machine builder & measurement harness |
//! | [`mc`] | `firefly-mc` | exhaustive model checker, litmus tests, mutation smoke |
//!
//! ## Quickstart
//!
//! ```
//! use firefly::sim::FireflyBuilder;
//!
//! // The standard five-processor machine running the calibrated
//! // workload; measure a window and compare to the model.
//! let mut machine = FireflyBuilder::microvax(5).build();
//! let measured = machine.measure(100_000, 200_000);
//!
//! let model = firefly::model::Params::microvax().estimate(5);
//! // The simulated bus load lands near the model's prediction (0.40).
//! assert!((measured.bus_load - model.load).abs() < 0.15);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use firefly_core as core;
pub use firefly_cpu as cpu;
pub use firefly_io as io;
pub use firefly_mc as mc;
pub use firefly_model as model;
pub use firefly_net as net;
pub use firefly_sim as sim;
pub use firefly_topaz as topaz;
pub use firefly_trace as trace;

/// The version of this reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
