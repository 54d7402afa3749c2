//! # firefly-cpu
//!
//! Processor models for the Firefly simulator.
//!
//! The paper abstracts its CPUs to exactly what this crate implements:
//! the MicroVAX 78032 is "an 11.9 tick-per-instruction implementation of
//! the VAX architecture when operating with a memory that introduces no
//! wait states", making 2.13 memory references per instruction in the
//! Emer & Clark mix; the CVAX 78034 runs twice the clock with a 1 KB
//! on-chip cache "configured to store only instruction references".
//!
//! * [`config`] — per-variant timing and feature configuration.
//! * [`processor`] — the cycle-driven processor: executes a reference
//!   stream against a [`firefly_core::system::MemSystem`] port,
//!   interleaving computed think-time so that the no-wait-state TPI
//!   emerges exactly — and the two drivers, ticked and event-driven,
//!   that advance every machine's [`Agent`]s.
//! * [`prefetch`] — the instruction prefetcher, the mechanism §5.3 uses
//!   to explain why the measured reference rate (1350 K/s) exceeded the
//!   simulated expectation (850 K/s).
//! * [`icache`] — the CVAX on-chip instruction-only cache.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod config;
pub mod icache;
pub mod prefetch;
pub mod processor;

pub use config::CpuConfig;
pub use firefly_core::agent::Agent;
pub use icache::ICache;
pub use prefetch::PrefetchConfig;
pub use processor::{CpuStats, EngineMode, Processor};
