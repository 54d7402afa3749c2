//! The coherence invariant checker.
//!
//! "The caches are coherent, so that all processors see a consistent view
//! of main memory" — the abstract's one-sentence contract. This module
//! makes it checkable. Because [`crate::cache::Cache`] stores real data,
//! the checker verifies *values*, not just protocol bookkeeping:
//!
//! 1. **Value agreement** — every cached copy of a line holds identical
//!    data.
//! 2. **Clean consistency** — if no cache owns (is dirty in) a line, every
//!    cached copy equals main memory.
//! 3. **Single owner** — at most one cache is in an owner (dirty) state
//!    for a line.
//! 4. **Exclusivity** — a line in an exclusive state (`CleanExclusive` or
//!    `DirtyExclusive`) is cached nowhere else.
//! 5. **Shared conservatism** — if two or more caches hold a line, none of
//!    them may be in an exclusive state (the `Shared` tag may be stale-
//!    *true*, never stale-*false*).
//! 6. **Timestamp sanity** (Tardis only, vacuous for the untimestamped
//!    protocols) — every lease contains its write (`wts <= rts`),
//!    locally and globally; a cached copy carries the global write
//!    timestamp exactly and never a longer lease than memory granted.
//!
//! [`CoherenceChecker::check_serialized`] adds the *serialization*
//! invariants on top, given an external oracle of last-written values
//! (the MBus serializes all traffic, so "the last write" is well
//! defined):
//!
//! 7. **Write serialization** — every cached copy of a written word holds
//!    the oracle value; no cache may see an older write once the bus has
//!    carried a newer one.
//! 8. **Single-writer order** — when no cache owns the line, main memory
//!    itself holds the oracle value (a dirty owner is the only licence
//!    for memory to lag).
//!
//! [`CoherenceChecker::check_access`] adds the *order* invariants of one
//! completed CPU access under the Tardis protocol family (Yu & Devadas,
//! arXiv 1505.06459), vacuous for the untimestamped protocols:
//!
//! 9. **Write monotonicity** — a write strictly advances the line's
//!    global write timestamp, and no access moves a program timestamp
//!    backwards.
//! 10. **Lease discipline** — a read served without the bus was covered
//!     by an unexpired lease (`pts <= rts`), and a read that did use the
//!     bus left the copy it kept leased at least to the reader's new
//!     program timestamp.
//!
//! The property tests run millions of random accesses through every
//! protocol and call [`CoherenceChecker::check`] at quiescent points;
//! the model checker (`firefly-mc`) calls all three entry points at
//! *every* reachable state of small configurations, through the one
//! checked step its explorer and litmus runner share.

use crate::error::Error;
use crate::protocol::{LineState, ProcOp};
use crate::system::MemSystem;
use crate::{Addr, LineId, PortId};
use std::collections::{BTreeMap, HashMap};

/// The pre-state of one completed CPU access, captured by the caller
/// *before* issuing it, for [`CoherenceChecker::check_access`].
///
/// The timestamp invariants are order properties — "a write advanced the
/// write timestamp", "a local read was covered by a lease" — so the
/// checker needs a before/after pair, not just the quiescent after
/// state. Everything here is cheap to capture: two accessor calls on the
/// system about to run the access.
#[derive(Debug, Clone, Copy)]
pub struct TsAccess {
    /// The issuing port.
    pub port: usize,
    /// Read or write.
    pub op: ProcOp,
    /// The accessed address.
    pub addr: Addr,
    /// Bus transactions the access needed (`0` = served locally), from
    /// [`crate::system::AccessResult::bus_ops`].
    pub bus_ops: u8,
    /// The issuer's program timestamp before the access.
    pub pre_pts: u64,
    /// The line's global write timestamp before the access.
    pub pre_wts: u64,
}

/// Checks the coherence invariants of a quiescent [`MemSystem`].
///
/// # Examples
///
/// ```
/// use firefly_core::check::CoherenceChecker;
/// use firefly_core::config::SystemConfig;
/// use firefly_core::protocol::ProtocolKind;
/// use firefly_core::system::{MemSystem, Request};
/// use firefly_core::{Addr, PortId};
///
/// # fn main() -> Result<(), firefly_core::Error> {
/// let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly)?;
/// sys.run_to_completion(PortId::new(0), Request::write(Addr::new(0x10), 1))?;
/// sys.run_to_completion(PortId::new(1), Request::read(Addr::new(0x10)))?;
/// CoherenceChecker::new().check(&sys)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct CoherenceChecker {
    _private: (),
}

impl CoherenceChecker {
    /// Creates a checker.
    pub fn new() -> Self {
        CoherenceChecker { _private: () }
    }

    /// Verifies the structural invariants (1)–(6); (6) only for a
    /// protocol with timestamp rules.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoherenceViolation`] describing the first
    /// violated invariant.
    ///
    /// # Panics
    ///
    /// Panics if the system is not [quiescent](MemSystem::is_quiescent) —
    /// mid-transaction states are legitimately transiently inconsistent.
    pub fn check(&self, sys: &MemSystem) -> Result<(), Error> {
        assert!(sys.is_quiescent(), "coherence can only be checked at quiescent points");
        let line_words = sys.config().cache().line_words();

        // Collect every cached line across all ports.
        let mut holders: HashMap<LineId, Vec<(usize, LineState, Vec<u32>)>> = HashMap::new();
        for p in 0..sys.port_count() {
            for (line, state, data) in sys.resident_lines(PortId::new(p)) {
                holders.entry(line).or_default().push((p, state, data.as_slice().to_vec()));
            }
        }

        for (line, copies) in &holders {
            // (1) value agreement
            let first = &copies[0].2;
            for (p, _, data) in copies {
                if data != first {
                    return Err(Error::CoherenceViolation(format!(
                        "line {line}: cache P{} holds {:x?} but cache P{} holds {:x?}",
                        copies[0].0, first, p, data
                    )));
                }
            }

            // (3) single owner
            let owners: Vec<usize> =
                copies.iter().filter(|(_, s, _)| s.is_owner()).map(|&(p, _, _)| p).collect();
            if owners.len() > 1 {
                return Err(Error::CoherenceViolation(format!(
                    "line {line}: multiple owners {owners:?}"
                )));
            }

            // (4)/(5) exclusivity
            if copies.len() > 1 {
                for (p, s, _) in copies {
                    if matches!(s, LineState::CleanExclusive | LineState::DirtyExclusive) {
                        return Err(Error::CoherenceViolation(format!(
                            "line {line}: P{p} is in exclusive state {s:?} \
                             but {} caches hold the line",
                            copies.len()
                        )));
                    }
                }
            }

            // (2) clean copies match memory
            if owners.is_empty() {
                let base = line.base_addr(line_words);
                for (i, &cached) in first.iter().enumerate().take(line_words) {
                    let mem = sys.peek_memory_word(base.add_words(i as u32));
                    if mem != cached {
                        return Err(Error::CoherenceViolation(format!(
                            "line {line} word {i}: clean cached value {cached:#x} \
                             but memory holds {mem:#x}"
                        )));
                    }
                }
            }
        }
        Self::check_timestamp_structure(sys)
    }

    /// Invariant (6), a no-op for protocols without timestamp rules. It
    /// re-states Yu & Devadas's lease discipline on this engine's state:
    /// every lease contains its write (`wts <= rts`), a cached copy is
    /// exactly the version memory last recorded (`local wts == global
    /// wts` — on the broadcast MBus a write physically expires every
    /// other copy, so a resident copy can never be an old version), and
    /// no cache claims a longer lease than memory granted (`local rts <=
    /// global rts`). Together with the value invariants this gives the
    /// paper's read rule: a read at timestamp `t in [wts, rts]` observes
    /// the value of the last write with `wts <= t`.
    fn check_timestamp_structure(sys: &MemSystem) -> Result<(), Error> {
        if !sys.timestamps_enabled() {
            return Ok(());
        }
        for p in 0..sys.port_count() {
            let port = PortId::new(p);
            for (line, _, _) in sys.resident_lines(port) {
                let (wts, rts) =
                    sys.tardis_line_ts(port, line).expect("resident line has timestamps");
                let (gwts, grts) = sys.tardis_global_ts(line);
                if wts > rts {
                    return Err(Error::CoherenceViolation(format!(
                        "timestamp order: line {line} at P{p} has wts {wts} > rts {rts}"
                    )));
                }
                if wts != gwts {
                    return Err(Error::CoherenceViolation(format!(
                        "timestamp order: line {line} at P{p} is version wts {wts} but \
                         memory last recorded wts {gwts}"
                    )));
                }
                if rts > grts {
                    return Err(Error::CoherenceViolation(format!(
                        "timestamp order: line {line} at P{p} claims a lease to {rts} but \
                         memory only granted {grts}"
                    )));
                }
            }
        }
        for (line, (gwts, grts)) in sys.tardis_lines() {
            if gwts > grts {
                return Err(Error::CoherenceViolation(format!(
                    "timestamp order: line {line} global wts {gwts} > rts {grts}"
                )));
            }
        }
        Ok(())
    }

    /// Verifies [`check`](Self::check)'s invariants *plus* the
    /// serialization invariants (7)/(8) against `oracle`, a map from
    /// word-aligned address to the value of the last write the bus
    /// carried to that word (or its initial value if never written).
    ///
    /// A `BTreeMap` rather than a `HashMap` so the first reported
    /// violation is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoherenceViolation`] describing the first
    /// violated invariant.
    ///
    /// # Panics
    ///
    /// Panics if the system is not [quiescent](MemSystem::is_quiescent).
    pub fn check_serialized(
        &self,
        sys: &MemSystem,
        oracle: &BTreeMap<Addr, u32>,
    ) -> Result<(), Error> {
        self.check(sys)?;
        let line_words = sys.config().cache().line_words();

        for (&addr, &want) in oracle {
            let line = LineId::containing(addr, line_words);
            let offset = line.word_offset(addr, line_words);
            let mut dirty_somewhere = false;

            // (7) write serialization: every cached copy sees the last
            // write — there is no state in which one cache still serves
            // an overwritten value.
            for p in 0..sys.port_count() {
                let port = PortId::new(p);
                if let Some(data) = sys.peek_line(port, line) {
                    let got = data.get(offset);
                    if got != want {
                        return Err(Error::CoherenceViolation(format!(
                            "write serialization: {addr} cached by P{p} as {got:#x} \
                             but the last serialized write was {want:#x}"
                        )));
                    }
                    if sys.peek_state(port, line).is_dirty() {
                        dirty_somewhere = true;
                    }
                }
            }

            // (8) single-writer order: memory may lag the last write only
            // while a dirty owner stands ready to supply/write it back.
            if !dirty_somewhere {
                let mem = sys.peek_memory_word(addr);
                if mem != want {
                    return Err(Error::CoherenceViolation(format!(
                        "single-writer order: no cache owns {addr} yet memory holds \
                         {mem:#x} instead of the last serialized write {want:#x}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Verifies the order invariants (9)/(10) of the CPU access `a`
    /// describes, which has just completed. A no-op for protocols
    /// without timestamp rules.
    ///
    /// A write strictly advanced the global write timestamp, no access
    /// moved the issuer's program timestamp backwards, a bus-free read
    /// was covered by its lease (`pre_pts <= rts`), and a read that went
    /// to the bus holds a lease reaching its new program timestamp. The
    /// structural timestamp invariant (6) is [`check`](Self::check)'s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoherenceViolation`] describing the first
    /// violated invariant.
    ///
    /// # Panics
    ///
    /// Panics if the system is not [quiescent](MemSystem::is_quiescent).
    pub fn check_access(&self, sys: &MemSystem, a: &TsAccess) -> Result<(), Error> {
        assert!(sys.is_quiescent(), "timestamps can only be checked at quiescent points");
        if !sys.timestamps_enabled() {
            return Ok(());
        }
        let line_words = sys.config().cache().line_words();
        let line = LineId::containing(a.addr, line_words);
        let port = PortId::new(a.port);
        let pts = sys.tardis_pts(port);
        if pts < a.pre_pts {
            return Err(Error::CoherenceViolation(format!(
                "timestamp order: P{} program timestamp moved backwards {} -> {pts}",
                a.port, a.pre_pts
            )));
        }
        match a.op {
            ProcOp::Write => {
                let (gwts, _) = sys.tardis_global_ts(line);
                if gwts <= a.pre_wts {
                    return Err(Error::CoherenceViolation(format!(
                        "timestamp order: write to {} left line {line} at wts {gwts}, \
                         not after the previous wts {}",
                        a.addr, a.pre_wts
                    )));
                }
            }
            ProcOp::Read => {
                let Some((_, rts)) = sys.tardis_line_ts(port, line) else {
                    // The copy it read straight through (DMA-style or
                    // uninstalled) or lost since: nothing local to hold
                    // to a lease.
                    return Ok(());
                };
                if a.bus_ops == 0 {
                    // Served without the bus: the lease must have covered
                    // the reader's program timestamp at issue.
                    if a.pre_pts > rts {
                        return Err(Error::CoherenceViolation(format!(
                            "timestamp order: P{} read {} locally at pts {} past the \
                             lease end rts {rts}",
                            a.port, a.addr, a.pre_pts
                        )));
                    }
                } else if pts > rts {
                    // Went to the bus (fill or renewal) yet kept a copy
                    // whose lease already fails to cover the reader.
                    return Err(Error::CoherenceViolation(format!(
                        "timestamp order: P{} read {} via the bus but holds a lease \
                         only to rts {rts}, short of its pts {pts}",
                        a.port, a.addr
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::protocol::ProtocolKind;
    use crate::system::Request;
    use crate::Addr;

    fn run_pattern(kind: ProtocolKind) {
        let mut sys = MemSystem::new(SystemConfig::microvax(4), kind).unwrap();
        let checker = CoherenceChecker::new();
        // A deterministic mixed pattern over a small footprint: heavy
        // sharing, conflict misses, and ping-ponged writes.
        for round in 0u32..50 {
            for p in 0..4 {
                let addr = Addr::from_word_index((round * 7 + p as u32 * 3) % 32);
                let port = PortId::new(p);
                if (round + p as u32).is_multiple_of(3) {
                    sys.run_to_completion(port, Request::write(addr, round * 100 + p as u32))
                        .unwrap();
                } else {
                    sys.run_to_completion(port, Request::read(addr)).unwrap();
                }
            }
            checker.check(&sys).unwrap_or_else(|e| panic!("{kind:?} round {round}: {e}"));
        }
    }

    #[test]
    fn firefly_maintains_invariants() {
        run_pattern(ProtocolKind::Firefly);
    }

    #[test]
    fn dragon_maintains_invariants() {
        run_pattern(ProtocolKind::Dragon);
    }

    #[test]
    fn berkeley_maintains_invariants() {
        run_pattern(ProtocolKind::Berkeley);
    }

    #[test]
    fn illinois_maintains_invariants() {
        run_pattern(ProtocolKind::Illinois);
    }

    #[test]
    fn write_once_maintains_invariants() {
        run_pattern(ProtocolKind::WriteOnce);
    }

    #[test]
    fn write_through_maintains_invariants() {
        run_pattern(ProtocolKind::WriteThrough);
    }

    #[test]
    fn tardis_maintains_invariants() {
        run_pattern(ProtocolKind::Tardis);
    }

    /// The timestamp invariants hold at every step of the mixed pattern,
    /// checking each completed access's order properties as the model
    /// checker does. With the default lease of 8 the pattern renews
    /// leases, so both serve paths of invariant (10) are exercised.
    #[test]
    fn tardis_timestamp_order_holds_per_access() {
        let mut sys = MemSystem::new(SystemConfig::microvax(4), ProtocolKind::Tardis).unwrap();
        let checker = CoherenceChecker::new();
        let mut renewed = 0;
        for round in 0u32..80 {
            for p in 0..4 {
                let addr = Addr::from_word_index((round * 7 + p as u32 * 3) % 32);
                let port = PortId::new(p);
                let line = LineId::containing(addr, 1);
                let write = (round + p as u32).is_multiple_of(3);
                let access = TsAccess {
                    port: p,
                    op: if write { ProcOp::Write } else { ProcOp::Read },
                    addr,
                    bus_ops: 0,
                    pre_pts: sys.tardis_pts(port),
                    pre_wts: sys.tardis_global_ts(line).0,
                };
                let req = if write {
                    crate::system::Request::write(addr, round * 100 + p as u32)
                } else {
                    crate::system::Request::read(addr)
                };
                let r = sys.run_to_completion(port, req).unwrap();
                if !write && r.hit && r.bus_ops > 0 {
                    renewed += 1;
                }
                checker
                    .check(&sys)
                    .and_then(|()| {
                        checker.check_access(&sys, &TsAccess { bus_ops: r.bus_ops, ..access })
                    })
                    .unwrap_or_else(|e| panic!("round {round} P{p}: {e}"));
            }
        }
        assert!(renewed > 0, "the pattern never renewed a lease");
    }

    /// The access half of the oracle rejects a read served locally past
    /// its lease — the observable symptom of a stale-lease-serving
    /// implementation bug (mutation `TsServeStale` in `firefly-mc`).
    #[test]
    fn timestamp_oracle_rejects_stale_lease_serving() {
        let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Tardis).unwrap();
        let addr = Addr::new(0x40);
        let other = Addr::new(0x80);
        sys.run_to_completion(PortId::new(0), crate::system::Request::read(addr)).unwrap();
        let (_, rts) = sys.tardis_line_ts(PortId::new(0), LineId::containing(addr, 1)).unwrap();
        // Drive the program timestamp past the lease end with writes to
        // an unrelated line (each write orders strictly later).
        while sys.tardis_pts(PortId::new(0)) <= rts {
            sys.run_to_completion(PortId::new(0), crate::system::Request::write(other, 7)).unwrap();
        }
        // Claim the read was served with no bus op from the current
        // program timestamp, which is beyond the lease end: a correct
        // engine would have renewed, so the oracle must reject.
        let bogus = TsAccess {
            port: 0,
            op: ProcOp::Read,
            addr,
            bus_ops: 0,
            pre_pts: sys.tardis_pts(PortId::new(0)),
            pre_wts: 0,
        };
        let err = CoherenceChecker::new().check_access(&sys, &bogus).unwrap_err();
        assert!(err.to_string().contains("past the lease end"), "{err}");
    }

    /// `check_access` is vacuous for untimestamped protocols.
    #[test]
    fn timestamp_oracle_is_vacuous_without_timestamps() {
        let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
        let addr = Addr::new(0x40);
        sys.run_to_completion(PortId::new(0), crate::system::Request::read(addr)).unwrap();
        let bogus =
            TsAccess { port: 0, op: ProcOp::Read, addr, bus_ops: 0, pre_pts: u64::MAX, pre_wts: 0 };
        CoherenceChecker::new().check_access(&sys, &bogus).unwrap();
    }

    #[test]
    fn empty_system_is_coherent() {
        let sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
        CoherenceChecker::new().check(&sys).unwrap();
    }

    /// The serialization invariants hold at every step of a ping-ponged
    /// write pattern, under every protocol.
    #[test]
    fn serialized_invariants_hold_per_step() {
        for kind in ProtocolKind::ALL {
            let mut sys = MemSystem::new(SystemConfig::microvax(3), kind).unwrap();
            let checker = CoherenceChecker::new();
            let mut oracle = BTreeMap::new();
            for round in 0u32..60 {
                let word = round % 4;
                let addr = Addr::from_word_index(word);
                let port = PortId::new((round as usize) % 3);
                if round % 3 == 0 {
                    sys.run_to_completion(port, Request::write(addr, round + 1)).unwrap();
                    oracle.insert(addr, round + 1);
                } else {
                    let got = sys.run_to_completion(port, Request::read(addr)).unwrap().value;
                    let want = oracle.get(&addr).copied().unwrap_or(0);
                    assert_eq!(got, want, "{kind:?}: read-your-writes broken at round {round}");
                }
                checker
                    .check_serialized(&sys, &oracle)
                    .unwrap_or_else(|e| panic!("{kind:?} round {round}: {e}"));
            }
        }
    }
}
