//! # firefly-core
//!
//! The memory system of the DEC SRC **Firefly** multiprocessor workstation
//! (Thacker, Stewart & Satterthwaite, ASPLOS 1987), rebuilt in Rust as a
//! simulator substrate.
//!
//! The Firefly attaches one to seven VAX processors to a single main memory
//! over a 10 MB/s bus (the *MBus*). Each processor sits behind a small
//! direct-mapped *snoopy* cache whose job is not to reduce access latency but
//! to shield the bus from most processor references. Coherence is maintained
//! by the **Firefly protocol**: an update-based scheme with *conditional
//! write-through* — lines held by a single cache are handled write-back;
//! lines observed to be shared (via the wired-OR `MShared` bus signal) are
//! written through so that every sharer and main memory stay current.
//!
//! This crate provides:
//!
//! * [`protocol`] — the Firefly protocol state machine (Figure 3 of the
//!   paper) together with the classic alternatives it is evaluated against:
//!   write-through-invalidate, Write-Once (Goodman), Berkeley Ownership,
//!   Illinois (MESI) and the Xerox Dragon update protocol.
//! * [`cache`] — a direct-mapped cache with per-line `Dirty`/`Shared` tags
//!   that stores real data, so coherence is *checkable*, not assumed.
//! * [`bus`] — a cycle-accurate MBus: fixed-priority arbitration, four
//!   100 ns cycles per transaction, `MShared` asserted in cycle 3, data
//!   transferred in cycle 4, cache-to-cache supply with memory inhibit
//!   (Figure 4 of the paper).
//! * [`memory`] — master/slave main-memory modules with a sparse backing
//!   store (4 MB modules on the MicroVAX Firefly, 32 MB on the CVAX).
//! * [`fault`] — a deterministic, seed-reproducible fault-injection plan
//!   modelling the failure modes the real hardware guarded against (MBus
//!   parity, `MShared` glitches, memory ECC, device timeouts), paired with
//!   the recovery paths that keep the machine running.
//! * [`system`] — the composition: N caches snooping one bus in front of
//!   main memory, stepped one bus cycle at a time, with processor- and
//!   DMA-side ports.
//! * [`agent`] — what a driver needs of each owner of ports (a
//!   processor, the I/O system, the Topaz CPU set) to advance it.
//! * [`refsim`] — a fast reference-level (untimed) protocol simulator in the
//!   style of Archibald & Baer, for wide protocol-comparison sweeps.
//! * [`check`] — a coherence invariant checker used by the property tests.
//! * [`stats`] — the event counters that reproduce the measurement
//!   categories of Table 2 of the paper, plus latency histograms.
//! * [`events`] — cycle-stamped event tracing (the software stand-in for
//!   the paper's per-cache hardware event counter) with Chrome-trace and
//!   text-timeline exporters.
//! * [`snapshot`] — a versioned, dependency-free binary codec for
//!   checkpoint/restore: a run checkpointed at cycle C and resumed is
//!   bit-identical to the uninterrupted run.
//!
//! ## Quick example
//!
//! Two processors sharing a word under the Firefly protocol. The second
//! processor's read miss pulls the line from the first cache (which asserts
//! `MShared`); the subsequent write by processor 0 is a *write-through*
//! that updates processor 1's copy in place:
//!
//! ```
//! use firefly_core::config::SystemConfig;
//! use firefly_core::protocol::ProtocolKind;
//! use firefly_core::system::{MemSystem, Request};
//! use firefly_core::{Addr, PortId};
//!
//! # fn main() -> Result<(), firefly_core::Error> {
//! let cfg = SystemConfig::microvax(2);
//! let mut sys = MemSystem::new(cfg, ProtocolKind::Firefly)?;
//! let addr = Addr::new(0x1000);
//!
//! sys.run_to_completion(PortId::new(0), Request::write(addr, 42))?;
//! let r = sys.run_to_completion(PortId::new(1), Request::read(addr))?;
//! assert_eq!(r.value, 42);
//!
//! // Processor 0 writes again: the line is shared now, so this is a
//! // write-through and processor 1 sees the new value with a cache hit.
//! sys.run_to_completion(PortId::new(0), Request::write(addr, 99))?;
//! let r = sys.run_to_completion(PortId::new(1), Request::read(addr))?;
//! assert_eq!(r.value, 99);
//! assert!(r.hit);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod addr;
pub mod agent;
pub mod arbiter;
pub mod bus;
pub mod cache;
pub mod check;
pub mod config;
pub mod error;
pub mod events;
pub mod fault;
pub mod memory;
pub mod protocol;
pub mod refsim;
pub mod snapshot;
pub mod stats;
pub mod system;

pub use addr::{Addr, LineId, PortId};
pub use arbiter::{ArbiterKind, BusMode};
pub use config::{CacheGeometry, MachineVariant, SystemConfig};
pub use error::Error;
pub use protocol::{LineState, ProtocolKind, ProtocolTable};

/// One MBus cycle is 100 ns (Figure 4 of the paper).
pub const BUS_CYCLE_NS: u64 = 100;

/// An MBus transaction (MRead or MWrite) occupies exactly four bus cycles.
pub const BUS_CYCLES_PER_OP: u64 = 4;

/// A MicroVAX CPU tick is 200 ns; an MBus operation is `N = 2` ticks.
pub const MICROVAX_TICK_NS: u64 = 200;

/// A CVAX CPU tick is 100 ns ("processor cycles are twice as fast").
pub const CVAX_TICK_NS: u64 = 100;

/// Ethernet wire pacing shared by the DEQNA device model and the fleet's
/// segment: one 32-bit word per 40 cycles (4 µs), 0.8 bit per 100 ns
/// cycle, which is 8 Mb/s, not the DEQNA's nominal 10 Mb/s.
pub const WIRE_CYCLES_PER_WORD: u64 = 40;

/// Preamble and start-frame delimiter charged per Ethernet frame, in
/// words.
pub const PREAMBLE_WORDS: u64 = 2;
