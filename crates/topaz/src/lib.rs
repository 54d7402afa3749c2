//! # firefly-topaz
//!
//! A simulation of **Topaz**, the Firefly's software system — specifically
//! the parts the paper's evaluation depends on:
//!
//! * the Threads package — "multiple threads of control in a single
//!   address space", with `Fork`/`Join`, `Mutex` (the Modula-2+ `LOCK`
//!   statement), and condition variables (`Wait`/`Signal`/`Broadcast`);
//! * the Taos scheduler, which "goes to some effort to avoid process
//!   migration" because under conditional write-through "most of the
//!   writeable data for a process will be in both the old and the new
//!   cache until the data is displaced" (§5.1) — both the avoiding and
//!   the free-migration policy are implemented, for the ablation;
//! * the Threads **exerciser** of §5.3 — the sharing- and
//!   synchronization-heavy program behind Table 2: threads that
//!   "deliberately block and reschedule themselves".
//!
//! The §6 RPC transport runs cycle by cycle on the simulated Ethernet in
//! `firefly-net` and `firefly-sim::fleet`.
//!
//! Everything here runs on the *real* simulated memory system: lock
//! words, condition words, scheduler queues, thread stacks and the
//! shared buffer are all addresses in simulated main memory, so
//! synchronization generates genuine coherence traffic — the
//! write-throughs, `MShared` responses and migrations that Table 2
//! counts are emergent, not scripted.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod exerciser;
pub mod ids;
pub mod layout;
pub mod program;
pub mod runtime;
pub mod sched;
pub mod ultrix;
pub mod workloads;

pub use exerciser::{ExerciserConfig, ExerciserReport};
pub use ids::{CondId, MutexId, SemId, ThreadId};
pub use program::{Script, ScriptId, ThreadOp};
pub use runtime::{NoIo, TopazConfig, TopazMachine, TopazStats};
pub use sched::MigrationPolicy;
