//! # firefly-net
//!
//! The wire between Fireflies. The paper's §6 measured Topaz RPC at
//! 4.6 Mb/s over the DEQNA's 10 Mb/s Ethernet; this crate models that
//! path as a first-class simulated subsystem so a *fleet* of Fireflies
//! can serve production-style traffic:
//!
//! * [`segment`] — a cycle-driven shared Ethernet segment: CSMA/CD
//!   arbitration with truncated binary exponential backoff, bounded
//!   per-NIC TX/RX rings, and 8 Mb/s wire pacing on the 100 ns grid;
//! * [`fault`] — a seeded deterministic network fault plan (drop,
//!   duplicate, reorder, corrupt-with-CRC-reject, partition) extending
//!   the machine-level `firefly_core::fault` machinery to the wire;
//! * [`rpc`] — a message-passing Topaz-style RPC transport: request
//!   ids with at-most-once server semantics, per-call timeouts with
//!   exponential backoff and jitter, bounded retry budgets, and an
//!   outstanding-call cap that backpressures the load generator;
//! * [`health`] — the partition-tolerance state machine: per-server
//!   closed→open→half-open circuit breakers that let clients fail fast
//!   during a split instead of burning retry budget.
//!
//! Every component serializes its complete state (including RNG stream
//! positions) through `firefly_core::snapshot`, so a fleet checkpoint
//! nests segment and endpoint sections and resumes bit-identically.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod fault;
pub mod health;
pub mod rpc;
pub mod segment;

pub use fault::{NetFaultConfig, PartitionPlan, MAX_PARTITION_WINDOWS};
pub use health::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use rpc::{RetryPolicy, RpcClient, RpcClientStats, RpcMsg, RpcServer, RpcServerStats};
pub use segment::{frame_cycles, EtherSegment, Frame, SegmentConfig, SegmentStats};
