//! Pluggable MBus arbitration policies and the bus transaction-pipelining
//! mode.
//!
//! The real Firefly hardwires fixed priority: "the caches have fixed
//! priority for access to the MBus" (§5), which structurally starves
//! high-numbered ports whenever a lower port monopolizes the bus. Nikolov
//! & Lerato ("Comparison of the Performance of Two Service Disciplines
//! for a Shared Bus Multiprocessor with Private Caches", arXiv
//! 1004.3560) study exactly this architecture under different service
//! disciplines; this module makes the discipline a configuration axis:
//!
//! * [`ArbiterKind::FixedPriority`] — the paper's hardware (lowest port
//!   wins). Unfair by construction; the default, bit-identical to the
//!   historical behavior.
//! * [`ArbiterKind::Fcfs`] — grants the request line that has been
//!   raised longest (Nikolov & Lerato's FCFS discipline).
//! * [`ArbiterKind::RoundRobin`] — rotating daisy-chain priority: the
//!   scan starts after the last grantee.
//! * [`ArbiterKind::Aging`] — dynamic priority: a port's nominal (index)
//!   priority improves one step for every [`AGING_QUANTUM`] cycles it
//!   has waited, so every wait is bounded while short waits still favor
//!   low ports.
//! * [`ArbiterKind::IoFavoring`] — the highest port (by convention the
//!   I/O processor, whose DMA ring deadlines are the tightest) always
//!   wins; the rest are served FCFS.
//!
//! Every policy is *work-conserving* (never idles the bus while a
//! request line is raised) and a deterministic function of the raised
//! request lines, their raise cycles, and the policy's own serialized
//! state — the property tests in `crates/core/tests/arbiter_props.rs`
//! pin all of this down.
//!
//! [`BusMode`] selects between the paper's unified four-cycle bus and a
//! split-transaction variant where a second transaction's address phase
//! may start once the previous transaction has cleared its own address
//! and write-data cycles — see [`crate::bus`] for the pipelining rules.

use crate::addr::PortId;
use crate::error::Error;
use crate::snapshot::{SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Cycles of waiting that improve a port's effective priority by one
/// step under [`ArbiterKind::Aging`]. With 16 ports a request is
/// guaranteed to out-rank every competitor within `15 × 8 = 120` cycles
/// of waiting, bounding the worst-case grant delay.
pub const AGING_QUANTUM: u64 = 8;

/// The arbitration discipline the MBus uses to pick among raised
/// request lines.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ArbiterKind {
    /// Lowest port number wins (the paper's hardware). Unfair: a low
    /// port that re-requests every cycle starves everyone above it.
    #[default]
    FixedPriority,
    /// First come, first served by request-raise cycle (ties go to the
    /// lower port).
    Fcfs,
    /// Rotating priority starting after the last grantee.
    RoundRobin,
    /// Index priority demoted by waiting time: effective priority is
    /// `port − waited/AGING_QUANTUM`, lowest wins. Bounded waiting.
    Aging,
    /// The highest port (the I/O processor) preempts; others are FCFS.
    IoFavoring,
}

impl ArbiterKind {
    /// All policies, in serialization-tag order.
    pub const ALL: [ArbiterKind; 5] = [
        ArbiterKind::FixedPriority,
        ArbiterKind::Fcfs,
        ArbiterKind::RoundRobin,
        ArbiterKind::Aging,
        ArbiterKind::IoFavoring,
    ];

    /// A short stable name (JSON reports, bench output).
    pub fn name(self) -> &'static str {
        match self {
            ArbiterKind::FixedPriority => "fixed",
            ArbiterKind::Fcfs => "fcfs",
            ArbiterKind::RoundRobin => "round_robin",
            ArbiterKind::Aging => "aging",
            ArbiterKind::IoFavoring => "io_favoring",
        }
    }

    /// Builds the policy implementation for this kind.
    pub fn build(self) -> Box<dyn ArbiterPolicy> {
        match self {
            ArbiterKind::FixedPriority => Box::new(FixedPriority),
            ArbiterKind::Fcfs => Box::new(Fcfs),
            ArbiterKind::RoundRobin => Box::new(RoundRobin { last_granted: None }),
            ArbiterKind::Aging => Box::new(Aging),
            ArbiterKind::IoFavoring => Box::new(IoFavoring),
        }
    }

    /// An upper bound, in bus cycles, on how long a continuously raised
    /// request can wait before this policy must grant it — `None` for
    /// policies that give no such guarantee (fixed priority can starve a
    /// port forever; I/O-favoring can starve everyone below the I/O
    /// port). The watchdog uses this as a patience floor so a fair
    /// policy's ordinary queueing delay is never mistaken for a wedged
    /// arbiter.
    pub fn grant_bound(self, ports: usize) -> Option<u64> {
        let p = ports as u64;
        match self {
            ArbiterKind::FixedPriority | ArbiterKind::IoFavoring => None,
            // Behind at most ports−1 earlier requests, each holding the
            // bus for one transaction; doubled for retry slack.
            ArbiterKind::Fcfs | ArbiterKind::RoundRobin => Some(p * crate::BUS_CYCLES_PER_OP * 2),
            // Out-ranks every zero-wait competitor after
            // (ports−1)×AGING_QUANTUM cycles, plus transaction drain.
            ArbiterKind::Aging => Some(p * AGING_QUANTUM + p * crate::BUS_CYCLES_PER_OP * 2),
        }
    }
}

crate::snap_enum!(ArbiterKind {
    FixedPriority = 0,
    Fcfs = 1,
    RoundRobin = 2,
    Aging = 3,
    IoFavoring = 4,
});

/// Whether MBus transactions are serialized or pipelined.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum BusMode {
    /// One transaction at a time (the paper's Figure 4 timing). The
    /// default; cycle-exact with the historical engine.
    #[default]
    Unified,
    /// Split transactions: a second transaction's address phase may
    /// overlap an earlier transaction's MShared/data phases, sustaining
    /// one transaction per two cycles instead of one per four.
    Split,
}

impl BusMode {
    /// A short stable name (JSON reports, bench output).
    pub fn name(self) -> &'static str {
        match self {
            BusMode::Unified => "unified",
            BusMode::Split => "split",
        }
    }

    /// The most transactions that may be on the wires at once.
    pub const fn max_in_flight(self) -> usize {
        match self {
            BusMode::Unified => 1,
            BusMode::Split => 2,
        }
    }
}

crate::snap_enum!(BusMode { Unified = 0, Split = 1 });

/// An arbitration discipline: picks a winner among raised request lines.
///
/// `requests[i]` is `Some(cycle)` while port `i`'s request line is
/// raised, holding the cycle it was raised; `now` is the arbitration
/// cycle. Implementations must be work-conserving (return `Some` when
/// any line is raised) and deterministic in `(requests, now, state)`.
pub trait ArbiterPolicy: std::fmt::Debug + Send {
    /// The configured kind this policy implements.
    fn kind(&self) -> ArbiterKind;

    /// Picks the winning requester, or `None` when no line is raised.
    fn pick(&self, requests: &[Option<u64>], now: u64) -> Option<PortId>;

    /// Observes a grant (rotating policies advance their state here).
    fn note_grant(&mut self, _port: PortId) {}

    /// Serializes the policy's dynamic state (most policies are
    /// stateless; round-robin carries its rotation point).
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`save_state`](ArbiterPolicy::save_state).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] for out-of-range payloads.
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), Error> {
        Ok(())
    }
}

/// Lowest raised port wins — the paper's hardware.
#[derive(Debug)]
struct FixedPriority;

impl ArbiterPolicy for FixedPriority {
    fn kind(&self) -> ArbiterKind {
        ArbiterKind::FixedPriority
    }

    fn pick(&self, requests: &[Option<u64>], _now: u64) -> Option<PortId> {
        requests.iter().position(Option::is_some).map(PortId::new)
    }
}

/// Longest-raised request wins; ties go to the lower port.
#[derive(Debug)]
struct Fcfs;

impl ArbiterPolicy for Fcfs {
    fn kind(&self) -> ArbiterKind {
        ArbiterKind::Fcfs
    }

    fn pick(&self, requests: &[Option<u64>], _now: u64) -> Option<PortId> {
        requests
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|raised| (raised, i)))
            .min()
            .map(|(_, i)| PortId::new(i))
    }
}

/// Rotating priority: the scan starts just past the last grantee.
#[derive(Debug)]
struct RoundRobin {
    last_granted: Option<usize>,
}

impl ArbiterPolicy for RoundRobin {
    fn kind(&self) -> ArbiterKind {
        ArbiterKind::RoundRobin
    }

    fn pick(&self, requests: &[Option<u64>], _now: u64) -> Option<PortId> {
        let n = requests.len();
        let start = self.last_granted.map_or(0, |g| (g + 1) % n);
        (0..n).map(|k| (start + k) % n).find(|&i| requests[i].is_some()).map(PortId::new)
    }

    fn note_grant(&mut self, port: PortId) {
        self.last_granted = Some(port.index());
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.last_granted);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.last_granted = match r.get()? {
            Some(g) if g >= 16 => {
                return Err(Error::SnapshotCorrupt(format!("round-robin grant point {g}")))
            }
            g => g,
        };
        Ok(())
    }
}

/// Index priority demoted by waiting: `port − waited/AGING_QUANTUM`,
/// minimum wins, ties to the lower port. Every wait is bounded: after
/// `(ports−1) × AGING_QUANTUM` cycles a request out-ranks any fresh one.
#[derive(Debug)]
struct Aging;

impl ArbiterPolicy for Aging {
    fn kind(&self) -> ArbiterKind {
        ArbiterKind::Aging
    }

    fn pick(&self, requests: &[Option<u64>], now: u64) -> Option<PortId> {
        requests
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.map(|raised| {
                    let waited = now.saturating_sub(raised);
                    (i as i64 - (waited / AGING_QUANTUM) as i64, i)
                })
            })
            .min()
            .map(|(_, i)| PortId::new(i))
    }
}

/// The highest port (the I/O processor's cache) always wins; the rest
/// are served FCFS.
#[derive(Debug)]
struct IoFavoring;

impl ArbiterPolicy for IoFavoring {
    fn kind(&self) -> ArbiterKind {
        ArbiterKind::IoFavoring
    }

    fn pick(&self, requests: &[Option<u64>], _now: u64) -> Option<PortId> {
        let io = requests.len() - 1;
        if requests[io].is_some() {
            return Some(PortId::new(io));
        }
        Fcfs.pick(requests, _now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raised: &[(usize, u64)], ports: usize) -> Vec<Option<u64>> {
        let mut v = vec![None; ports];
        for &(i, c) in raised {
            v[i] = Some(c);
        }
        v
    }

    #[test]
    fn fixed_priority_picks_lowest_port() {
        let a = ArbiterKind::FixedPriority.build();
        assert_eq!(a.pick(&req(&[(5, 0), (3, 9), (7, 1)], 8), 10), Some(PortId::new(3)));
        assert_eq!(a.pick(&req(&[], 8), 10), None);
    }

    #[test]
    fn fcfs_picks_oldest_request_ties_to_lower_port() {
        let a = ArbiterKind::Fcfs.build();
        assert_eq!(a.pick(&req(&[(1, 7), (6, 2)], 8), 10), Some(PortId::new(6)));
        assert_eq!(a.pick(&req(&[(4, 5), (2, 5)], 8), 10), Some(PortId::new(2)));
    }

    #[test]
    fn round_robin_rotates_past_last_grantee() {
        let mut a = ArbiterKind::RoundRobin.build();
        let r = req(&[(0, 0), (2, 0), (5, 0)], 8);
        assert_eq!(a.pick(&r, 1), Some(PortId::new(0)));
        a.note_grant(PortId::new(0));
        assert_eq!(a.pick(&r, 2), Some(PortId::new(2)));
        a.note_grant(PortId::new(2));
        assert_eq!(a.pick(&r, 3), Some(PortId::new(5)));
        a.note_grant(PortId::new(5));
        assert_eq!(a.pick(&r, 4), Some(PortId::new(0)), "wraps around");
    }

    #[test]
    fn aging_promotes_long_waiters() {
        let a = ArbiterKind::Aging.build();
        // Port 7 has waited 60 cycles (7 − 60/8 = 0, ties to lower port
        // 0 at score 0)… one more quantum and it out-ranks port 0.
        let r = req(&[(0, 100), (7, 40)], 8);
        assert_eq!(a.pick(&r, 100), Some(PortId::new(0)), "equal score: lower port");
        assert_eq!(a.pick(&req(&[(0, 108), (7, 40)], 8), 108), Some(PortId::new(7)));
    }

    #[test]
    fn io_favoring_preempts_with_top_port() {
        let a = ArbiterKind::IoFavoring.build();
        assert_eq!(a.pick(&req(&[(0, 0), (7, 99)], 8), 100), Some(PortId::new(7)));
        assert_eq!(a.pick(&req(&[(3, 5), (1, 9)], 8), 100), Some(PortId::new(3)), "rest are FCFS");
    }

    #[test]
    fn grant_bounds_exist_exactly_for_fair_policies() {
        for kind in ArbiterKind::ALL {
            let bound = kind.grant_bound(4);
            match kind {
                ArbiterKind::FixedPriority | ArbiterKind::IoFavoring => assert!(bound.is_none()),
                _ => assert!(bound.unwrap() > 0, "{kind:?}"),
            }
        }
    }

    fn roundtrip<T: crate::snapshot::Snap>(v: &T) -> Result<T, Error> {
        let mut w = SnapWriter::new();
        w.put(v);
        SnapReader::new(&w.into_bytes()).get()
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in ArbiterKind::ALL {
            assert_eq!(roundtrip(&kind).unwrap(), kind);
            assert_eq!(kind.build().kind(), kind);
        }
        assert!(SnapReader::new(&[99]).get::<ArbiterKind>().is_err());
        for mode in [BusMode::Unified, BusMode::Split] {
            assert_eq!(roundtrip(&mode).unwrap(), mode);
        }
        assert!(SnapReader::new(&[9]).get::<BusMode>().is_err());
    }
}
