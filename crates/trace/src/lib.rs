//! # firefly-trace
//!
//! Memory-reference streams and synthetic workload generators for the
//! Firefly simulator.
//!
//! The paper's performance analysis rests on trace-driven simulation of
//! VAX programs ("Trace-driven simulation of the MicroVAX CPU ... showed
//! it to be an 11.9 tick-per-instruction implementation ... a single
//! processor Firefly cache achieves a miss rate M of 0.2, and ... the
//! fraction D of cache entries that are dirty is 0.25"). Those traces are
//! long gone; this crate provides the substitute documented in DESIGN.md:
//! synthetic generators whose knobs are calibrated so the simulated cache
//! reproduces the paper's measured statistics — and can then be *swept*
//! to explore the neighbourhood the original traces could not.
//!
//! * [`refs`] — reference types, the [`refs::RefStream`] trait, and the
//!   Emer & Clark VAX reference mix.
//! * [`synth`] — a locality-model generator: looping instruction fetch,
//!   hot/cold data working sets, and a shared region with a controllable
//!   fraction of shared writes (`S`).
//! * [`multiprogram`] — context-switching over several address spaces,
//!   the mechanism behind the elevated one-CPU miss rate of Table 2
//!   ("possibly due to cold-start effects caused by rapid context
//!   switching").
//! * [`analyze`] — miss-ratio-curve measurement across cache geometries
//!   (the instrument behind footnote 4's design discussion).
//! * [`snapdump`] — a text debug form for binary machine snapshots.
//!
//! Streams are never written to files: the `protocol_compare` bin
//! generates each stream once and replays it in memory under every
//! protocol in lockstep, through `firefly_core::refsim`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod analyze;
pub mod multiprogram;
pub mod refs;
pub mod snapdump;
pub mod synth;

pub use analyze::{miss_ratio_curve, GeometryPoint};
pub use multiprogram::MultiprogramWorkload;
pub use refs::{MemRef, RefKind, RefStream, VaxMix};
pub use synth::{LocalityParams, SyntheticWorkload};
