//! Property tests of the derived horizons the fleet skips by
//! ([`EtherSegment::next_event`], [`RpcServer::next_event`],
//! [`RpcClient::next_event`]) and the refusals credited in place of the
//! ticks a ring-blocked sender sleeps through.
//!
//! A skipping fleet is only bit-identical to a ticking one if no horizon
//! is ever late. For every input:
//!
//! * a segment that jumps with `skip_to(next_event() - 1)` and then
//!   ticks once saves the same bytes as one ticked every cycle, under
//!   random enqueue schedules, fault plans (drop, duplicate, reorder,
//!   corrupt, partition windows) and NIC power toggles;
//! * ticking a server or client at any cycle short of its
//!   `next_event(now, seg)`, with the segment not ticked, saves the same
//!   bytes, its own and the segment's, as crediting it one refusal when
//!   it is ring-blocked and doing nothing when it is not;
//! * a [`RpcClient::replayable`] client ticked only at its own
//!   `next_event`s, with the cycles between credited, saves the same
//!   bytes, its own and the segment's, as a twin ticked every cycle, up
//!   to the segment's next event.
//!
//! It also checks the lazy send path the endpoints use: feeding a
//! segment through [`EtherSegment::enqueue_with`] accepts and refuses
//! exactly when an eager [`EtherSegment::enqueue`] of the built frame
//! does (source online with TX ring space), calls the builder only on
//! acceptance, and leaves the same counters and ring contents.

use firefly_core::snapshot::SnapWriter;
use firefly_net::{
    EtherSegment, Frame, NetFaultConfig, PartitionPlan, RetryPolicy, RpcClient, RpcServer,
    SegmentConfig,
};
use proptest::prelude::*;

/// One scheduled perturbation, applied after `gap` cycles have run.
#[derive(Copy, Clone, Debug)]
enum Op {
    /// Queue a frame `src → dst` with a `len`-byte payload.
    Enqueue { src: usize, dst: usize, len: usize },
    /// Flip a NIC's power.
    Toggle(usize),
    /// Drain a NIC's RX ring.
    Drain(usize),
}

/// Two enqueues for every toggle or drain.
fn op() -> impl Strategy<Value = Op> {
    (0..6u8, 0..8usize, 0..8usize, 0..400usize).prop_map(|(kind, a, b, len)| match kind {
        0 => Op::Toggle(a),
        1 => Op::Drain(a),
        _ => Op::Enqueue { src: a, dst: b, len },
    })
}

/// A fault rate: zero half the time, else up to 40%.
fn rate() -> impl Strategy<Value = u32> {
    (0..800_000u32).prop_map(|r| r.saturating_sub(400_000))
}

/// Every fault class at its own rate, plus up to two partition windows.
fn fault_plan() -> impl Strategy<Value = NetFaultConfig> {
    let windows = proptest::collection::vec((0..40_000u64, 1..40_000u64, 1..8usize), 0..3);
    (any::<u64>(), (rate(), rate(), rate(), rate()), 1..5_000u64, windows).prop_map(
        |(seed, (drop_ppm, dup_ppm, reorder_ppm, corrupt_ppm), reorder_window, windows)| {
            let mut plan = NetFaultConfig {
                seed,
                drop_ppm,
                dup_ppm,
                reorder_ppm,
                reorder_window,
                corrupt_ppm,
                ..NetFaultConfig::default()
            };
            for (from, len, boundary) in windows {
                plan.add_partition(PartitionPlan { from, until: from + len, boundary });
            }
            plan
        },
    )
}

fn segment_bytes(seg: &EtherSegment) -> Vec<u8> {
    let mut w = SnapWriter::new();
    seg.save(&mut w);
    w.into_bytes()
}

fn server_bytes(server: &RpcServer) -> Vec<u8> {
    let mut w = SnapWriter::new();
    server.save(&mut w);
    w.into_bytes()
}

fn client_bytes(client: &RpcClient) -> Vec<u8> {
    let mut w = SnapWriter::new();
    client.save(&mut w);
    w.into_bytes()
}

/// Advances `seg` to `target` by skipping to the cycle before each event
/// and ticking through the event itself.
fn skip_until(seg: &mut EtherSegment, target: u64) {
    while seg.cycle() < target {
        seg.skip_to((seg.next_event() - 1).min(target));
        if seg.cycle() < target {
            seg.tick();
        }
    }
}

/// Checks that ticking `server` and `client` at `at` — each short of its
/// own horizon — leaves every saved byte as crediting a ring-blocked
/// sender its one refusal (and an unblocked one nothing) would.
fn assert_quiet_at(
    seg: &EtherSegment,
    server: &RpcServer,
    client: &RpcClient,
    now: u64,
    pick: u64,
) {
    let (mut server_seg, mut client_seg) = (seg.clone(), seg.clone());
    let mut credited = client.clone();
    if server.ring_blocked(seg) {
        server.credit_refusals(1, &mut server_seg);
    }
    if client.ring_blocked(seg) {
        credited.credit_refusals(1, &mut client_seg);
    }
    let (server_seg_after, client_seg_after) =
        (segment_bytes(&server_seg), segment_bytes(&client_seg));
    let (server_before, client_after) = (server_bytes(server), client_bytes(&credited));
    let (server_horizon, client_horizon) =
        (server.next_event(now, seg), client.next_event(now, seg));
    for horizon in [server_horizon, client_horizon] {
        assert!(horizon > now, "a horizon at or before now");
    }
    // The first, last and one random cycle strictly between now and the
    // horizon (none when the horizon is the next cycle).
    let probe = |horizon: u64| match horizon - now - 1 {
        0 => Vec::new(),
        span => vec![now + 1, now + 1 + pick % span, horizon - 1],
    };
    for at in probe(server_horizon) {
        let (mut seg, mut server) = (seg.clone(), server.clone());
        server.tick(at, &mut seg);
        assert!(
            server_bytes(&server) == server_before,
            "server acted at {at}, before {now}'s horizon"
        );
        assert!(segment_bytes(&seg) == server_seg_after, "server touched the wire at {at}");
    }
    for at in probe(client_horizon) {
        let (mut seg, mut client) = (seg.clone(), client.clone());
        client.tick(at, &mut seg);
        assert!(
            client_bytes(&client) == client_after,
            "client acted at {at}, before {now}'s horizon"
        );
        assert!(segment_bytes(&seg) == client_seg_after, "client touched the wire at {at}");
    }
}

/// Longest stretch one replay check covers: the segment's next event
/// is `u64::MAX` while the wire is idle.
const REPLAY_SPAN: u64 = 10_000;

/// Cycles between replay checks; prime.
const REPLAY_STRIDE: u64 = 397;

/// Checks that `client`, [`RpcClient::replayable`] on `seg` at `now`,
/// run to the cycle before the segment's next event (at most
/// [`REPLAY_SPAN`] on) by ticks at its own events with the gaps
/// credited, saves the same bytes as a twin ticked at every cycle, and
/// leaves the segment with the same bytes.
fn assert_replay_matches_ticking(seg: &EtherSegment, client: &RpcClient, now: u64) {
    let until = (seg.next_event() - 1).min(now + REPLAY_SPAN);
    let (mut ticked, mut ticked_seg) = (client.clone(), seg.clone());
    for at in now + 1..=until {
        ticked.tick(at, &mut ticked_seg);
    }
    let (mut replayed, mut replayed_seg) = (client.clone(), seg.clone());
    let mut at = now;
    loop {
        let event = replayed.next_event(at, &replayed_seg);
        let quiet = event.min(until + 1) - 1 - at;
        if quiet > 0 && replayed.ring_blocked(&replayed_seg) {
            replayed.credit_refusals(quiet, &mut replayed_seg);
        }
        if event > until {
            break;
        }
        replayed.tick(event, &mut replayed_seg);
        at = event;
    }
    assert!(replayed.replayable(&replayed_seg), "a replay left the client unreplayable");
    assert!(client_bytes(&replayed) == client_bytes(&ticked), "replay diverged by {until}");
    assert!(segment_bytes(&replayed_seg) == segment_bytes(&ticked_seg), "segment diverged");
    assert_eq!(replayed.stats(), ticked.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skipping to the cycle before each event and ticking it saves the
    /// same bytes, and receives the same frames, as ticking every cycle.
    #[test]
    fn segment_skip_matches_ticking(
        nics in 2..8usize,
        tx_ring in 1..6usize,
        rx_ring in 1..6usize,
        seed in any::<u64>(),
        faults in fault_plan(),
        schedule in proptest::collection::vec((0..6_000u64, op()), 1..60),
    ) {
        let cfg = SegmentConfig { nics, tx_ring, rx_ring, seed, faults };
        let mut ticked = EtherSegment::new(cfg);
        let mut skipping = EtherSegment::new(cfg);
        for (gap, op) in schedule {
            let target = ticked.cycle() + gap;
            while ticked.cycle() < target {
                ticked.tick();
            }
            skip_until(&mut skipping, target);
            prop_assert!(segment_bytes(&ticked) == segment_bytes(&skipping), "diverged by {target}");
            match op {
                Op::Enqueue { src, dst, len } => {
                    let frame = Frame::new(src % nics, dst % nics, vec![len as u8; len]);
                    prop_assert_eq!(ticked.enqueue(frame.clone()), skipping.enqueue(frame));
                }
                Op::Toggle(nic) => {
                    let online = !ticked.is_online(nic % nics);
                    ticked.set_online(nic % nics, online);
                    skipping.set_online(nic % nics, online);
                }
                Op::Drain(nic) => loop {
                    let (a, b) = (ticked.recv(nic % nics), skipping.recv(nic % nics));
                    prop_assert_eq!(&a, &b);
                    if a.is_none() {
                        break;
                    }
                },
            }
        }
        let end = ticked.cycle() + 50_000;
        while ticked.cycle() < end {
            ticked.tick();
        }
        skip_until(&mut skipping, end);
        prop_assert!(segment_bytes(&ticked) == segment_bytes(&skipping), "diverged by {end}");
    }

    /// The same random enqueues, ticks, drains and NIC power toggles,
    /// fed eagerly (frame built first) to one segment and lazily to a
    /// twin: every enqueue has the same outcome, the one the ring-space
    /// rule predicts, and the twins save the same bytes throughout.
    #[test]
    fn lazy_enqueue_matches_eager(
        nics in 2..8usize,
        tx_ring in 1..6usize,
        seed in any::<u64>(),
        faults in fault_plan(),
        schedule in proptest::collection::vec((0..3_000u64, op()), 1..80),
    ) {
        let cfg = SegmentConfig { nics, tx_ring, rx_ring: 4, seed, faults };
        let mut eager = EtherSegment::new(cfg);
        let mut lazy = EtherSegment::new(cfg);
        let mut built = 0u64;
        for (gap, op) in schedule {
            for _ in 0..gap {
                eager.tick();
                lazy.tick();
            }
            match op {
                Op::Enqueue { src, dst, len } => {
                    let (src, dst) = (src % nics, dst % nics);
                    let room = eager.is_online(src) && eager.tx_queued(src) < tx_ring;
                    let before = eager.stats();
                    let took = eager.enqueue(Frame::new(src, dst, vec![len as u8; len]));
                    let lazy_took = lazy.enqueue_with(src, || {
                        built += 1;
                        Frame::new(src, dst, vec![len as u8; len])
                    });
                    prop_assert_eq!(took, room);
                    prop_assert_eq!(lazy_took, room);
                    let after = eager.stats();
                    prop_assert_eq!(after.tx_enqueued - before.tx_enqueued, u64::from(room));
                    prop_assert_eq!(after.tx_rejected - before.tx_rejected, u64::from(!room));
                }
                Op::Toggle(nic) => {
                    let online = !eager.is_online(nic % nics);
                    eager.set_online(nic % nics, online);
                    lazy.set_online(nic % nics, online);
                }
                Op::Drain(nic) => loop {
                    let (a, b) = (eager.recv(nic % nics), lazy.recv(nic % nics));
                    prop_assert_eq!(&a, &b);
                    if a.is_none() {
                        break;
                    }
                },
            }
            prop_assert_eq!(built, eager.stats().tx_enqueued, "built exactly the accepted frames");
            prop_assert_eq!(eager.stats(), lazy.stats());
            prop_assert!(segment_bytes(&eager) == segment_bytes(&lazy), "rings diverged");
        }
    }

    /// A server and a client on a faulty wire, driven by random call
    /// bursts: after every cycle, ticking either endpoint again at any
    /// cycle short of its horizon is a no-op.
    #[test]
    fn endpoints_are_quiet_before_their_horizons(
        policy in 0..3u8,
        timeout in 500..20_000u64,
        threads in 1..4usize,
        service in 50..6_000u64,
        tx_ring in 1..4usize,
        seed in any::<u64>(),
        faults in fault_plan(),
        bursts in proptest::collection::vec((0..15_000u64, 0..6usize, 1..600u32), 1..12),
        picks in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let policy = match policy {
            0 => RetryPolicy::naive(timeout),
            1 => RetryPolicy::budgeted(timeout),
            _ => RetryPolicy::resilient(timeout),
        };
        let cfg = SegmentConfig { nics: 3, tx_ring, rx_ring: 4, seed, faults };
        let mut seg = EtherSegment::new(cfg);
        let mut server = RpcServer::new(0, threads, service, seed);
        server.set_queue_cap(4);
        let mut client = RpcClient::new(1, vec![0, 2], policy, seed);
        let mut checks = 0usize;
        for (gap, calls, bytes) in bursts {
            let end = seg.cycle() + gap.max(1);
            while seg.cycle() < end {
                seg.tick();
                let now = seg.cycle();
                server.tick(now, &mut seg);
                client.tick(now, &mut seg);
                if now.is_multiple_of(97) {
                    let pick = picks[checks % picks.len()];
                    assert_quiet_at(&seg, &server, &client, now, pick);
                    checks += 1;
                }
            }
            for _ in 0..calls {
                client.submit(seg.cycle(), bytes);
            }
        }
    }

    /// A server and a client on a faulty wire with one- to three-frame
    /// TX rings, under a random policy (backoff factor 0 to 3, any
    /// outstanding cap, breakers and a deadline each on or off), driven
    /// by call bursts and
    /// random power toggles of either NIC: whenever the client is
    /// replayable, replaying it to the segment's next event matches
    /// ticking it every cycle.
    #[test]
    fn replayed_client_matches_ticking(
        timeout in 500..10_000u64,
        backoff_factor in 0..4u32,
        max_outstanding in 0..10usize,
        (breakers, deadline) in (any::<bool>(), any::<bool>()),
        tx_ring in 1..4usize,
        seed in any::<u64>(),
        faults in fault_plan(),
        bursts in proptest::collection::vec((0..15_000u64, 0..8usize, 0..4usize), 1..12),
    ) {
        let mut policy = RetryPolicy::resilient(timeout);
        policy.backoff_factor = backoff_factor;
        policy.max_outstanding = max_outstanding;
        if !breakers {
            policy.breaker = None;
        }
        if !deadline {
            policy.deadline = 0;
        }
        let cfg = SegmentConfig { nics: 3, tx_ring, rx_ring: 4, seed, faults };
        let mut seg = EtherSegment::new(cfg);
        let mut server = RpcServer::new(0, 1, 1_000, seed);
        let mut client = RpcClient::new(1, vec![0, 2], policy, seed);
        for (gap, calls, toggle) in bursts {
            let end = seg.cycle() + gap.max(1);
            while seg.cycle() < end {
                seg.tick();
                let now = seg.cycle();
                if seg.is_online(0) {
                    server.tick(now, &mut seg);
                }
                client.tick(now, &mut seg);
                if now.is_multiple_of(REPLAY_STRIDE) && client.replayable(&seg) {
                    assert_replay_matches_ticking(&seg, &client, now);
                }
            }
            for _ in 0..calls {
                client.submit(seg.cycle(), 300);
            }
            // Toggle 0 powers the server's NIC, 1 the client's; others
            // leave both alone.
            if toggle < 2 {
                let online = !seg.is_online(toggle);
                seg.set_online(toggle, online);
            }
        }
    }
}
