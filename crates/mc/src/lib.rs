//! # firefly-mc
//!
//! An exhaustive model checker for the Firefly memory system's seven
//! coherence protocols, in the small-configuration tradition of
//! Archibald & Baer's protocol survey: a handful of caches, one or two
//! memory words, a tiny value domain — small enough to enumerate every
//! reachable state, large enough that every sharing pattern a protocol
//! distinguishes (exclusive, shared, ping-ponged, updated, invalidated,
//! victimized) is reachable.
//!
//! The paper's coherence contract is one sentence — "the caches are
//! coherent, so that all processors see a consistent view of main
//! memory" (§3). The workspace's property tests *sample* that contract
//! on random workloads; this crate *enumerates* it:
//!
//! * [`explore()`] — BFS over the reachable state space, driving the
//!   same [`firefly_core::system::MemSystem`] cycle engine and the same
//!   [`firefly_core::ProtocolTable`] as every simulation, with the full
//!   invariant battery (the five [`firefly_core::check::CoherenceChecker`]
//!   structural invariants plus write-serialization, single-writer
//!   order, and read-your-writes) applied at **every** reachable state.
//!   States are hash-consed; expansion fans out on the deterministic
//!   worker pool, so counts are identical at any `FIREFLY_JOBS` width.
//! * [`litmus`] — a litmus-test DSL (store buffering, message passing,
//!   single-location coherence, …) whose runner enumerates *all*
//!   interleavings, cross-checks the engine against the reference-level
//!   simulator, and replays fault-overlapped variants.
//! * [`mutate`] — mutation testing of the checker itself: a mutant is a
//!   copy of the protocol's table with one entry edited (or one
//!   timestamp rule swapped), run through the real engine via
//!   [`firefly_core::system::MemSystem::with_table`]; every generated
//!   mutant must be caught.
//! * On any violation, a minimized op path is re-run with event tracing
//!   and rendered through the existing `timeline`/`chrome_trace`
//!   exporters ([`explore::Counterexample`]) so failures are directly
//!   debuggable.
//!
//! The `model_check` binary in `firefly-bench` surfaces all of this on
//! the command line; `model_check --smoke` is the CI gate.

#![warn(missing_docs)]

pub mod explore;
pub mod litmus;
pub mod mutate;

pub use explore::{
    counterexample, explore, explore_with, explore_workers, replay_violation, Counterexample,
    McConfig, McOp, McReport, McViolation,
};
pub use litmus::{builtin_suite, LitmusOutcome, LitmusTest};
pub use mutate::{
    mutant_table, mutation_smoke, mutations_for, record_exercise, Mutation, MutationOutcome,
};
