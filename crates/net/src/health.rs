//! Circuit breaking for the RPC fleet.
//!
//! Fail-stop crashes (PR 7) are the easy half of the §6 networked-fleet
//! story: a dead machine stays dead, and the retry budget bounds the
//! damage. Partitions are nastier — a minority-side client can reach
//! *no* server, every call times out at full price, and when the
//! network heals the accumulated retry backlog arrives as a thundering
//! herd. This module provides the client-side state machine that turns
//! that failure mode into a cheap, bounded one:
//! [`CircuitBreaker`], the classic closed → open → half-open machine,
//! one per (client, server) binding. Consecutive failures trip it open;
//! while open, requests fail fast *at the client* (no wire traffic, no
//! retry budget burned); after a deterministic (seeded-jitter) cooling
//! window it admits a bounded number of half-open probes, and probe
//! successes close it again. Repeated re-opens back the cooling window
//! off exponentially so a flapping partition cannot turn the probe
//! traffic itself into a storm.
//!
//! The breaker serializes its complete state (including its jitter RNG
//! position) through `firefly_core::snapshot`, so a fleet checkpoint
//! cut mid-partition resumes bit-identically.

use firefly_core::fault::PPM;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The three circuit-breaker states.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: requests fail fast until the cooling window elapses.
    Open,
    /// Probing: a bounded number of requests are admitted; their fate
    /// decides between re-opening and closing.
    HalfOpen,
}

firefly_core::snap_enum!(BreakerState { Closed = 0, Open = 1, HalfOpen = 2 });

/// Circuit-breaker tuning knobs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub fail_threshold: u32,
    /// Base cooling window after the first trip, in cycles.
    pub open_base: u64,
    /// Ceiling on the backed-off cooling window, in cycles.
    pub open_cap: u64,
    /// Probes admitted per half-open episode.
    pub probe_quota: u32,
    /// Probe successes required to close from half-open.
    pub close_after: u32,
    /// Additive jitter on the cooling window as a fraction in ppm, so
    /// a fleet of clients tripped by the same partition does not probe
    /// in lockstep when it heals.
    pub jitter_ppm: u32,
}

impl BreakerConfig {
    /// The default production tuning: trip after `fail_threshold`
    /// consecutive failures, cool for `open_base` doubling up to 8×,
    /// probe twice, close on the first success.
    pub fn with_threshold(fail_threshold: u32, open_base: u64) -> Self {
        assert!(fail_threshold > 0, "fail threshold must be positive");
        assert!(open_base > 0, "cooling window must be positive");
        BreakerConfig {
            fail_threshold,
            open_base,
            open_cap: open_base.saturating_mul(8),
            probe_quota: 2,
            close_after: 1,
            jitter_ppm: 250_000,
        }
    }
}

firefly_core::snap_struct!(BreakerConfig {
    fail_threshold,
    open_base,
    open_cap,
    probe_quota,
    close_after,
    jitter_ppm,
});

firefly_core::counters! {
    /// Cumulative breaker counters.
    pub struct BreakerStats {
        /// Times the breaker tripped open (from closed or half-open).
        pub opened: u64,
        /// Requests rejected while open — each one a timeout's worth of
        /// retry budget *not* burned on an unreachable server.
        pub fast_fails: u64,
        /// Half-open probes admitted.
        pub probes: u64,
        /// Times the breaker closed from half-open.
        pub closed: u64,
    }
}

/// One closed → open → half-open circuit breaker.
///
/// Deterministic by construction: transitions depend only on the call
/// sequence and the seeded jitter stream, so two clients with the same
/// seed and the same observations trip, probe and close on exactly the
/// same cycles — and a snapshot cut between any two calls restores a
/// bit-identical machine.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Consecutive failures while closed.
    failures: u32,
    /// Consecutive open episodes without an intervening close (drives
    /// the cooling-window backoff).
    reopens: u32,
    /// First cycle at which an open breaker goes half-open.
    open_until: u64,
    /// Probes admitted in the current half-open episode.
    probes_inflight: u32,
    /// Probe successes in the current half-open episode.
    probe_successes: u32,
    rng: SmallRng,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning and jitter seed.
    pub fn new(cfg: BreakerConfig, seed: u64) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            failures: 0,
            reopens: 0,
            open_until: 0,
            probes_inflight: 0,
            probe_successes: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0xc1bc_0107_b4ea_be55),
            stats: BreakerStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Cumulative counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Cycle at which an open breaker starts probing (0 when closed).
    pub fn open_until(&self) -> u64 {
        self.open_until
    }

    /// Admission check for one request at `now`. Open breakers turn
    /// half-open once the cooling window has elapsed; half-open
    /// breakers admit up to the probe quota. Returns `false` — a fast
    /// local failure, counted — when the request must not be sent.
    pub fn admit(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probes_inflight = 1;
                    self.probe_successes = 0;
                    self.stats.probes += 1;
                    true
                } else {
                    self.stats.fast_fails += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_inflight < self.cfg.probe_quota {
                    self.probes_inflight += 1;
                    self.stats.probes += 1;
                    true
                } else {
                    self.stats.fast_fails += 1;
                    false
                }
            }
        }
    }

    /// Records a successful round trip to the peer.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.failures = 0,
            // A reply arriving while open is the same evidence a probe
            // would gather — start a half-open episode and credit it.
            BreakerState::Open | BreakerState::HalfOpen => {
                if self.state == BreakerState::Open {
                    self.probes_inflight = 0;
                    self.probe_successes = 0;
                    self.state = BreakerState::HalfOpen;
                }
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.close_after {
                    self.state = BreakerState::Closed;
                    self.failures = 0;
                    self.reopens = 0;
                    self.probes_inflight = 0;
                    self.probe_successes = 0;
                    self.stats.closed += 1;
                }
            }
        }
    }

    /// Records a failed attempt (timeout or give-up) at `now`.
    pub fn on_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.cfg.fail_threshold {
                    self.trip(now);
                }
            }
            // A failed probe re-opens with a deeper cooling window.
            BreakerState::HalfOpen => self.trip(now),
            // Stragglers failing while open carry no new information.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.reopens = self.reopens.saturating_add(1);
        let exp = (self.reopens - 1).min(20);
        let mut window =
            self.cfg.open_base.saturating_mul(1u64 << exp.min(63)).min(self.cfg.open_cap);
        if self.cfg.jitter_ppm > 0 {
            window += window.saturating_mul(u64::from(self.rng.gen_range(0..self.cfg.jitter_ppm)))
                / u64::from(PPM);
        }
        self.state = BreakerState::Open;
        self.open_until = now.saturating_add(window.max(1));
        self.failures = 0;
        self.probes_inflight = 0;
        self.probe_successes = 0;
        self.stats.opened += 1;
    }
}

// The complete breaker state, including the jitter RNG position.
firefly_core::snap_struct!(CircuitBreaker {
    cfg,
    state,
    failures,
    reopens,
    open_until,
    probes_inflight,
    probe_successes,
    rng,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};

    #[test]
    fn breaker_trips_probes_and_closes() {
        let mut b = CircuitBreaker::new(BreakerConfig::with_threshold(3, 10_000), 7);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(0));
        b.on_failure(100);
        b.on_failure(200);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_failure(300);
        assert_eq!(b.state(), BreakerState::Open);
        let until = b.open_until();
        assert!(until > 300 + 10_000 - 1, "cooling window at least the base");
        // While cooling: fail fast.
        assert!(!b.admit(until - 1));
        assert_eq!(b.stats().fast_fails, 1);
        // Window elapsed: exactly the probe quota is admitted.
        assert!(b.admit(until));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admit(until + 1), "second probe within quota");
        assert!(!b.admit(until + 2), "quota exhausted");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().closed, 1);
    }

    #[test]
    fn failed_probe_reopens_with_backoff() {
        let mut cfg = BreakerConfig::with_threshold(1, 1_000);
        cfg.jitter_ppm = 0;
        let mut b = CircuitBreaker::new(cfg, 1);
        b.on_failure(0);
        assert_eq!(b.open_until(), 1_000);
        assert!(b.admit(1_000), "probe admitted");
        b.on_failure(1_000);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_until(), 1_000 + 2_000, "window doubled");
        assert!(b.admit(3_000));
        b.on_failure(3_000);
        assert_eq!(b.open_until(), 3_000 + 4_000, "window doubled again");
        // The cap binds eventually.
        for k in 0..10 {
            let at = b.open_until();
            assert!(b.admit(at));
            b.on_failure(at + k);
        }
        let at = b.open_until();
        assert!(b.admit(at));
        b.on_failure(at);
        assert_eq!(b.open_until() - at, cfg.open_cap, "cooling window capped");
    }

    #[test]
    fn success_while_open_starts_half_open_episode() {
        let mut b = CircuitBreaker::new(BreakerConfig::with_threshold(1, 100_000), 3);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        // A straggler reply lands while the window is still cooling.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed, "close_after=1 closes on the success");
    }

    #[test]
    fn breaker_snapshot_roundtrips_bit_identically() {
        let mut b = CircuitBreaker::new(BreakerConfig::with_threshold(2, 5_000), 99);
        b.on_failure(10);
        b.on_failure(20);
        assert!(!b.admit(30));
        let mut w = SnapWriter::new();
        b.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut c = CircuitBreaker::load(&mut r).unwrap();
        r.expect_end().unwrap();
        // Drive both through the same sequence; they must agree at
        // every step, including re-saved bytes (RNG position included).
        let until = b.open_until();
        for now in [until, until + 1, until + 2] {
            assert_eq!(b.admit(now), c.admit(now));
            assert_eq!(b.state(), c.state());
        }
        b.on_failure(until + 3);
        c.on_failure(until + 3);
        assert_eq!(b.open_until(), c.open_until());
        let mut w1 = SnapWriter::new();
        b.save(&mut w1);
        let mut w2 = SnapWriter::new();
        c.save(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }
}
