//! Property tests of the partition-tolerance machinery
//! ([`firefly_net::health`] and the client in [`firefly_net::rpc`]).
//!
//! The fleet experiments (`BENCH_10`) lean on shapes that must hold for
//! *every* input, not just the scenario seeds:
//!
//! * the circuit breaker is a pure function of its observation sequence
//!   and jitter seed, and a snapshot cut between any two observations
//!   restores a bit-identical machine;
//! * a call to two servers completes at most once, with the canonical
//!   result, no matter what the wire does to its copies;
//! * every half-open probe a client's breakers hand out goes with a
//!   frame on its TX ring: a send the ring refuses asks no breaker.

use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};
use firefly_net::{
    BreakerConfig, BreakerState, CircuitBreaker, EtherSegment, NetFaultConfig, RetryPolicy,
    RpcClient, RpcServer, SegmentConfig,
};
use proptest::prelude::*;

/// One observation fed to a circuit breaker. Times are deltas so the
/// generated sequence is always causally ordered.
#[derive(Copy, Clone, Debug)]
enum BreakerOp {
    /// `admit(now)` after advancing `now` by the delta.
    Admit(u64),
    /// `on_success()`.
    Success,
    /// `on_failure(now)` after advancing `now` by the delta.
    Failure(u64),
}

fn breaker_ops() -> impl Strategy<Value = Vec<BreakerOp>> {
    let op = (0u8..3, 0u64..30_000).prop_map(|(tag, dt)| match tag {
        0 => BreakerOp::Admit(dt),
        1 => BreakerOp::Success,
        _ => BreakerOp::Failure(dt),
    });
    prop::collection::vec(op, 1..120)
}

/// Drives one op, returning the advanced clock.
fn apply(b: &mut CircuitBreaker, now: &mut u64, op: BreakerOp) -> Option<bool> {
    match op {
        BreakerOp::Admit(dt) => {
            *now += dt;
            Some(b.admit(*now))
        }
        BreakerOp::Success => {
            b.on_success();
            None
        }
        BreakerOp::Failure(dt) => {
            *now += dt;
            b.on_failure(*now);
            None
        }
    }
}

fn save_bytes(b: &CircuitBreaker) -> Vec<u8> {
    let mut w = SnapWriter::new();
    b.save(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The breaker is deterministic in `(seed, observations)` and its
    /// snapshot is lossless: cut the sequence at any point, round-trip
    /// the state through bytes, and the restored machine makes the same
    /// decision at every remaining step — and re-saves to the same
    /// bytes, jitter RNG position included.
    #[test]
    fn breaker_snapshot_cut_anywhere_is_bit_identical(
        ops in breaker_ops(),
        cut in 0usize..120,
        fail_threshold in 1u32..6,
        open_base in 1_000u64..50_000,
        seed in any::<u64>(),
    ) {
        let cut = cut.min(ops.len());
        let cfg = BreakerConfig::with_threshold(fail_threshold, open_base);
        let mut a = CircuitBreaker::new(cfg, seed);
        let mut now = 0;
        for &op in &ops[..cut] {
            apply(&mut a, &mut now, op);
        }

        let bytes = save_bytes(&a);
        let mut r = SnapReader::new(&bytes);
        let mut b = CircuitBreaker::load(&mut r).expect("snapshot must restore");
        r.expect_end().expect("no trailing bytes");
        prop_assert_eq!(save_bytes(&b), bytes.clone(), "save→load→save must be a fixed point");

        let mut now_b = now;
        for &op in &ops[cut..] {
            let da = apply(&mut a, &mut now, op);
            let db = apply(&mut b, &mut now_b, op);
            prop_assert_eq!(da, db, "admit decisions diverged after restore");
            prop_assert_eq!(a.state(), b.state());
            prop_assert_eq!(a.open_until(), b.open_until());
        }
        prop_assert_eq!(save_bytes(&a), save_bytes(&b), "final states diverged");
    }

    /// Breaker safety invariants over arbitrary observation sequences:
    /// an open breaker admits nothing before its window elapses, the
    /// cooling window is bounded by the cap plus its jitter, and every
    /// rejection is counted as a fast fail.
    #[test]
    fn breaker_never_admits_while_cooling(
        ops in breaker_ops(),
        fail_threshold in 1u32..6,
        open_base in 1_000u64..50_000,
        seed in any::<u64>(),
    ) {
        let cfg = BreakerConfig::with_threshold(fail_threshold, open_base);
        let mut b = CircuitBreaker::new(cfg, seed);
        let mut now = 0;
        for &op in &ops {
            let state_before = b.state();
            let until = b.open_until();
            let fast_fails_before = b.stats().fast_fails;
            let decision = apply(&mut b, &mut now, op);
            if let Some(admitted) = decision {
                if state_before == BreakerState::Open && now < until {
                    prop_assert!(!admitted, "admitted at {} inside cooling window {}", now, until);
                }
                prop_assert_eq!(
                    b.stats().fast_fails,
                    fast_fails_before + u64::from(!admitted),
                    "every rejection is a fast fail, every admission is not"
                );
            }
            if b.state() == BreakerState::Open && state_before != BreakerState::Open {
                // Freshly tripped: the window is positive and bounded by
                // the cap plus maximal jitter.
                prop_assert!(b.open_until() > now);
                let max_window = cfg.open_cap + cfg.open_cap * u64::from(cfg.jitter_ppm) / 1_000_000;
                prop_assert!(
                    b.open_until() - now <= max_window.max(1),
                    "cooling window {} exceeds cap {}",
                    b.open_until() - now, max_window
                );
            }
        }
        prop_assert!(b.stats().closed <= b.stats().opened, "cannot close more than it opened");
    }

    /// A call to two servers completes at most once with the canonical
    /// result, whatever the wire drops, duplicates or reorders: the
    /// first reply wins, later ones are ignored, and no server executes
    /// one id twice.
    #[test]
    fn two_server_calls_complete_at_most_once(
        seed in any::<u64>(),
        drop_ppm in 0u32..300_000,
        dup_ppm in 0u32..500_000,
        reorder_ppm in 0u32..300_000,
        calls in 1usize..8,
    ) {
        let mut cfg = SegmentConfig::new(3);
        cfg.seed = seed;
        cfg.faults = NetFaultConfig {
            seed: seed ^ 0x5eed_f00d,
            drop_ppm,
            dup_ppm,
            reorder_ppm,
            reorder_window: 20_000,
            ..NetFaultConfig::default()
        };
        let mut seg = EtherSegment::new(cfg);
        let mut servers =
            [RpcServer::new(0, 2, 2_000, seed ^ 1), RpcServer::new(1, 2, 2_000, seed ^ 2)];
        let policy = RetryPolicy::budgeted(40_000);
        let mut client = RpcClient::new(2, vec![0, 1], policy, seed ^ 3);
        for _ in 0..calls {
            prop_assert!(client.submit(seg.cycle(), 200));
        }
        for _ in 0..2_000_000u64 {
            seg.tick();
            let now = seg.cycle();
            for s in &mut servers {
                s.tick(now, &mut seg);
            }
            client.tick(now, &mut seg);
            if client.outstanding() == 0 && client.backlogged() == 0 {
                break;
            }
        }
        let cs = client.stats();
        prop_assert_eq!(
            cs.acked + cs.failed,
            calls as u64,
            "every call resolves exactly once"
        );
        // No sequence number completes twice — first reply wins, later
        // ones are ignored — and every completion is backed by an
        // execution on the server that acked it.
        let mut seen = std::collections::BTreeSet::new();
        for &(seq, server) in client.completions() {
            prop_assert!(seen.insert(seq), "call {} completed twice", seq);
            prop_assert!(server < 2, "acked by unknown server {}", server);
            prop_assert!(
                servers[server as usize].executions().contains_key(&(2, seq)),
                "call {} acked by server {} with no execution", seq, server
            );
        }
        // At-most-once holds per server under failover + duplication: a
        // failed-over call may land the same id on *both* servers, but
        // no server ever executes one id twice.
        for s in &servers {
            for (&id, &count) in s.executions() {
                prop_assert_eq!(count, 1, "request {:?} executed twice on one server", id);
            }
        }
    }

    /// One client of three servers under a random breaker policy
    /// (backoff factor 0 to 3, random failover and attempt budgets), on one- to three-frame TX rings and a lossy
    /// wire, with client and server NICs switched off and on at random:
    /// after every client tick, its breakers' `probes` rose by no more
    /// than the frames it queued.
    #[test]
    fn breaker_probes_ride_on_queued_frames(
        seed in any::<u64>(),
        timeout in 500u64..5_000,
        backoff_factor in 0u32..4,
        failover_after in 1u32..4,
        max_attempts in 0u32..10,
        (threshold, open_base) in (1u32..4, 1u64..20_000),
        tx_ring in 1usize..4,
        drop_ppm in 0u32..500_000,
        schedule in prop::collection::vec((0u64..8_000, 0usize..4, 1usize..6), 1..10),
    ) {
        let mut cfg = SegmentConfig::new(4);
        cfg.seed = seed;
        cfg.tx_ring = tx_ring;
        cfg.faults = NetFaultConfig { seed: seed ^ 0x9b0b, drop_ppm, ..NetFaultConfig::default() };
        let mut seg = EtherSegment::new(cfg);
        let mut servers: Vec<RpcServer> =
            (0..3).map(|i| RpcServer::new(i, 1, 1_500, seed ^ u64::from(i))).collect();
        let mut policy = RetryPolicy::resilient(timeout);
        policy.backoff_factor = backoff_factor;
        policy.failover_after = failover_after;
        policy.max_attempts = max_attempts;
        policy.breaker = Some(BreakerConfig::with_threshold(threshold, open_base));
        let mut client = RpcClient::new(3, vec![0, 1, 2], policy, seed);
        let probes = |c: &RpcClient| -> u64 {
            (0..3).map(|slot| c.breaker_stats(slot).expect("breakers on").probes).sum()
        };
        for (gap, toggle, calls) in schedule {
            for _ in 0..gap {
                seg.tick();
                let now = seg.cycle();
                for s in &mut servers {
                    if seg.is_online(s.nic() as usize) {
                        s.tick(now, &mut seg);
                    }
                }
                let (probes_before, queued_before) = (probes(&client), seg.stats().tx_enqueued);
                client.tick(now, &mut seg);
                let probed = probes(&client) - probes_before;
                let queued = seg.stats().tx_enqueued - queued_before;
                prop_assert!(probed <= queued, "{} probes for {} frames at {}", probed, queued, now);
            }
            // NIC 3 is the client; 0..3 are the servers.
            let online = !seg.is_online(toggle);
            seg.set_online(toggle, online);
            for _ in 0..calls {
                client.submit(seg.cycle(), 200);
            }
        }
    }
}
