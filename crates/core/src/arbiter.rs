//! MBus arbitration disciplines and the bus transaction-pipelining mode.
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
//! The discipline is plain data: one [`Arbiter`] value holds the kind
//! and round-robin's rotation point, and picks a winner with one
//! `match`, so the bus (and the whole memory system) stays `Clone`.
//! Every discipline is *work-conserving* (never idles the bus while a
//! request line is raised) and a deterministic function of the raised
//! request lines, their raise cycles, and the arbiter's own serialized
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

/// The MBus arbiter: the configured discipline plus the one piece of
/// state any discipline carries, round-robin's rotation point.
///
/// [`pick`](Arbiter::pick) reads `requests[i]`, which is `Some(cycle)`
/// while port `i`'s request line is raised and holds the cycle it was
/// raised; `now` is the arbitration cycle. Every discipline is
/// work-conserving (returns `Some` when any line is raised) and
/// deterministic in `(requests, now, self)`.
#[derive(Copy, Clone, Debug)]
pub struct Arbiter {
    kind: ArbiterKind,
    /// The last grantee; only [`ArbiterKind::RoundRobin`] reads it.
    last_granted: Option<usize>,
}

impl Arbiter {
    /// A fresh arbiter for `kind`.
    pub fn new(kind: ArbiterKind) -> Self {
        Arbiter { kind, last_granted: None }
    }

    /// The configured discipline.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Picks the winning requester, or `None` when no line is raised.
    pub fn pick(&self, requests: &[Option<u64>], now: u64) -> Option<PortId> {
        let raised = || requests.iter().enumerate().filter_map(|(i, r)| r.map(|c| (c, i)));
        let winner = match self.kind {
            // Lowest raised port wins: the paper's hardware.
            ArbiterKind::FixedPriority => requests.iter().position(Option::is_some),
            // Rotating priority: the scan starts just past the last grantee.
            ArbiterKind::RoundRobin => {
                let n = requests.len();
                let start = self.last_granted.map_or(0, |g| (g + 1) % n);
                (0..n).map(|k| (start + k) % n).find(|&i| requests[i].is_some())
            }
            // Index priority demoted by waiting, `port − waited/AGING_QUANTUM`;
            // minimum wins, ties to the lower port.
            ArbiterKind::Aging => raised()
                .map(|(c, i)| (i as i64 - (now.saturating_sub(c) / AGING_QUANTUM) as i64, i))
                .min()
                .map(|(_, i)| i),
            // The highest port (the I/O processor's cache) preempts ...
            ArbiterKind::IoFavoring if requests.last().is_some_and(Option::is_some) => {
                Some(requests.len() - 1)
            }
            // ... and otherwise, as under FCFS, the longest-raised request
            // wins, ties to the lower port.
            ArbiterKind::Fcfs | ArbiterKind::IoFavoring => raised().min().map(|(_, i)| i),
        };
        winner.map(PortId::new)
    }

    /// Observes a grant (round-robin advances its rotation point here).
    pub fn note_grant(&mut self, port: PortId) {
        self.last_granted = Some(port.index());
    }

    /// Serializes the arbiter's dynamic state: round-robin's rotation
    /// point, and nothing for the stateless disciplines.
    pub fn save_state(&self, w: &mut SnapWriter) {
        if self.kind == ArbiterKind::RoundRobin {
            w.put(&self.last_granted);
        }
    }

    /// Restores state written by [`save_state`](Arbiter::save_state).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] for out-of-range payloads.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        if self.kind == ArbiterKind::RoundRobin {
            self.last_granted = match r.get()? {
                Some(g) if g >= 16 => {
                    return Err(Error::SnapshotCorrupt(format!("round-robin grant point {g}")))
                }
                g => g,
            };
        }
        Ok(())
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
        let a = Arbiter::new(ArbiterKind::FixedPriority);
        assert_eq!(a.pick(&req(&[(5, 0), (3, 9), (7, 1)], 8), 10), Some(PortId::new(3)));
        assert_eq!(a.pick(&req(&[], 8), 10), None);
    }

    #[test]
    fn fcfs_picks_oldest_request_ties_to_lower_port() {
        let a = Arbiter::new(ArbiterKind::Fcfs);
        assert_eq!(a.pick(&req(&[(1, 7), (6, 2)], 8), 10), Some(PortId::new(6)));
        assert_eq!(a.pick(&req(&[(4, 5), (2, 5)], 8), 10), Some(PortId::new(2)));
    }

    #[test]
    fn round_robin_rotates_past_last_grantee() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
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
        let a = Arbiter::new(ArbiterKind::Aging);
        // Port 7 has waited 60 cycles (7 − 60/8 = 0, ties to lower port
        // 0 at score 0)… one more quantum and it out-ranks port 0.
        let r = req(&[(0, 100), (7, 40)], 8);
        assert_eq!(a.pick(&r, 100), Some(PortId::new(0)), "equal score: lower port");
        assert_eq!(a.pick(&req(&[(0, 108), (7, 40)], 8), 108), Some(PortId::new(7)));
    }

    #[test]
    fn io_favoring_preempts_with_top_port() {
        let a = Arbiter::new(ArbiterKind::IoFavoring);
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
            assert_eq!(Arbiter::new(kind).kind(), kind);
        }
        assert!(SnapReader::new(&[99]).get::<ArbiterKind>().is_err());
        for mode in [BusMode::Unified, BusMode::Split] {
            assert_eq!(roundtrip(&mode).unwrap(), mode);
        }
        assert!(SnapReader::new(&[9]).get::<BusMode>().is_err());
    }
}
