//! Differential protocol testing: one seeded pseudo-random request
//! stream, replayed through every coherence protocol at two levels of
//! the stack.
//!
//! Because the MBus serializes all traffic and every protocol must
//! implement the same memory semantics, a request stream issued one
//! access at a time must produce **identical read values under all seven
//! protocols** — the protocols may only differ in *how* (bus traffic,
//! cache states), never in *what* (data). Meanwhile the reference-level
//! simulator ([`firefly::core::refsim::RefSim`]) applies the same
//! protocol tables without data or timing, so the cycle-accurate
//! engine's cache states must track it move for move.
//!
//! Every test here is seeded and deterministic; a failure reproduces
//! exactly from the printed access index.

use firefly::core::check::CoherenceChecker;
use firefly::core::config::SystemConfig;
use firefly::core::protocol::{ProcOp, ProtocolKind};
use firefly::core::refsim::RefSim;
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, CacheGeometry, LineId, PortId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One scripted access.
#[derive(Clone, Copy, Debug)]
struct Access {
    cpu: usize,
    write: bool,
    word: u32,
    value: u32,
}

/// A seeded pseudo-random request stream. Word indices are drawn from a
/// small window so lines collide, alias in the cache, and ping-pong
/// between CPUs — the regime where protocols actually disagree when
/// they are wrong.
fn stream(seed: u64, cpus: usize, words: u32, len: usize) -> Vec<Access> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Access {
            cpu: rng.gen_range(0..cpus),
            write: rng.gen_bool(0.4),
            word: rng.gen_range(0..words),
            value: rng.gen(),
        })
        .collect()
}

fn tiny_system(cpus: usize, geometry: CacheGeometry, kind: ProtocolKind) -> MemSystem {
    let cfg = SystemConfig::microvax(cpus).with_cache(geometry);
    MemSystem::new(cfg, kind).unwrap()
}

/// Replays `accesses` through a cycle-accurate system under `kind`,
/// returning every read's value. At each quiescent checkpoint the
/// coherence invariants are checked and (with single-word lines) the
/// cache states are compared against the reference-level simulator.
fn replay(
    kind: ProtocolKind,
    geometry: CacheGeometry,
    cpus: usize,
    words: u32,
    accesses: &[Access],
    check_every: usize,
    compare_refsim: bool,
) -> Vec<u32> {
    let mut sys = tiny_system(cpus, geometry, kind);
    let mut reference = RefSim::new(cpus, geometry, kind);
    let mut reads = Vec::new();

    for (i, a) in accesses.iter().enumerate() {
        let addr = Addr::from_word_index(a.word);
        let port = PortId::new(a.cpu);
        if a.write {
            sys.run_to_completion(port, Request::write(addr, a.value)).unwrap();
            reference.access(a.cpu, ProcOp::Write, addr);
        } else {
            reads.push(sys.run_to_completion(port, Request::read(addr)).unwrap().value);
            reference.access(a.cpu, ProcOp::Read, addr);
        }

        if (i + 1) % check_every == 0 || i + 1 == accesses.len() {
            // run_to_completion drains the bus, so the system is at a
            // quiescent point and the invariants must all hold.
            assert!(sys.is_quiescent(), "{kind:?}: not quiescent after access #{i}");
            CoherenceChecker::new()
                .check(&sys)
                .unwrap_or_else(|e| panic!("{kind:?}: invariant violated after access #{i}: {e}"));

            if compare_refsim {
                for cpu in 0..cpus {
                    for w in 0..words {
                        let line =
                            LineId::containing(Addr::from_word_index(w), geometry.line_words());
                        assert_eq!(
                            sys.peek_state(PortId::new(cpu), line),
                            reference.state_of(cpu, line),
                            "{kind:?}: CPU {cpu} line {line:?} diverged from the \
                             reference simulator after access #{i}"
                        );
                    }
                }
            }
        }
    }
    reads
}

/// The headline differential: 10,000 seeded requests per protocol,
/// single-word lines, heavy aliasing. All seven protocols must return
/// identical read values, track the reference simulator's states, and
/// keep every invariant at each checkpoint.
#[test]
fn seven_protocols_agree_on_ten_thousand_requests() {
    let (cpus, words) = (4, 96);
    let geometry = CacheGeometry::new(16, 1).unwrap();
    let accesses = stream(0xd1ff_0001, cpus, words, 10_000);

    let baseline = replay(ProtocolKind::Firefly, geometry, cpus, words, &accesses, 1_000, true);
    for kind in ProtocolKind::ALL {
        if kind == ProtocolKind::Firefly {
            continue;
        }
        let reads = replay(kind, geometry, cpus, words, &accesses, 1_000, true);
        assert_eq!(reads.len(), baseline.len(), "{kind:?}: read count diverged from Firefly");
        for (n, (got, want)) in reads.iter().zip(&baseline).enumerate() {
            assert_eq!(
                got, want,
                "{kind:?}: read #{n} returned {got:#x}, Firefly returned {want:#x} \
                 — protocols disagree on data"
            );
        }
    }
}

/// The same differential with multi-word lines: partial-line writes take
/// the fill-then-write path, victimization moves whole lines, and false
/// sharing appears. Values must still be identical everywhere.
#[test]
fn seven_protocols_agree_with_multiword_lines() {
    let (cpus, words) = (3, 128);
    let geometry = CacheGeometry::new(8, 4).unwrap();
    let accesses = stream(0xd1ff_0002, cpus, words, 10_000);

    let baseline = replay(ProtocolKind::Firefly, geometry, cpus, words, &accesses, 2_000, false);
    for kind in ProtocolKind::ALL {
        if kind == ProtocolKind::Firefly {
            continue;
        }
        let reads = replay(kind, geometry, cpus, words, &accesses, 2_000, false);
        assert_eq!(reads, baseline, "{kind:?} diverged from Firefly on read values");
    }
}

/// A write-heavy stream over a single hot line set: maximum ping-pong,
/// updates and invalidations in every direction.
#[test]
fn seven_protocols_agree_under_write_pressure() {
    let (cpus, words) = (4, 16);
    let geometry = CacheGeometry::new(8, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xd1ff_0003);
    let accesses: Vec<Access> = (0..10_000)
        .map(|_| Access {
            cpu: rng.gen_range(0..cpus),
            write: rng.gen_bool(0.75),
            word: rng.gen_range(0..words),
            value: rng.gen(),
        })
        .collect();

    let baseline = replay(ProtocolKind::Firefly, geometry, cpus, words, &accesses, 500, true);
    for kind in ProtocolKind::ALL {
        if kind == ProtocolKind::Firefly {
            continue;
        }
        let reads = replay(kind, geometry, cpus, words, &accesses, 500, true);
        assert_eq!(reads, baseline, "{kind:?} diverged from Firefly on read values");
    }
}

/// The reference-level simulator also counts traffic; this pins the
/// qualitative protocol ordering the paper's §5.1 design choice rests
/// on, derived from the same differential stream.
#[test]
fn differential_stream_reproduces_the_design_space_ordering() {
    let (cpus, words) = (4, 48);
    let geometry = CacheGeometry::new(16, 1).unwrap();
    let accesses = stream(0xd1ff_0004, cpus, words, 20_000);

    let bus_ops = |kind: ProtocolKind| -> u64 {
        let mut reference = RefSim::new(cpus, geometry, kind);
        for a in &accesses {
            let op = if a.write { ProcOp::Write } else { ProcOp::Read };
            reference.access(a.cpu, op, Addr::from_word_index(a.word));
        }
        reference.stats().bus_ops()
    };

    let firefly = bus_ops(ProtocolKind::Firefly);
    let write_through = bus_ops(ProtocolKind::WriteThrough);
    let illinois = bus_ops(ProtocolKind::Illinois);
    assert!(
        firefly < write_through,
        "under sharing, write-through must flood the bus relative to Firefly \
         ({firefly} vs {write_through})"
    );
    assert!(
        firefly < illinois,
        "under ping-pong sharing, invalidation re-misses must cost more than updates \
         ({firefly} vs {illinois})"
    );
}

/// PR-8 arbitration coverage: the same serialized differential, but the
/// axis under test is the *bus configuration* — every arbitration
/// policy × bus mode, across all seven protocols. One access is on the
/// wires at a time, so the discipline and the split pipeline must be
/// observationally irrelevant: read values identical to the
/// fixed-priority unified baseline, invariants clean at every
/// checkpoint. A policy that could misroute a grant or a split pipeline
/// that could corrupt a lone transaction shows up as a data diff here.
#[test]
fn seven_protocols_agree_under_every_policy_and_bus_mode() {
    use firefly::core::{ArbiterKind, BusMode};

    let (cpus, words) = (4, 48);
    let geometry = CacheGeometry::new(8, 1).unwrap();
    let accesses = stream(0xd1ff_0008, cpus, words, 2_000);

    let replay_configured = |kind: ProtocolKind, arbiter: ArbiterKind, mode: BusMode| -> Vec<u32> {
        let cfg = SystemConfig::microvax(cpus)
            .with_cache(geometry)
            .with_arbiter(arbiter)
            .with_bus_mode(mode);
        let mut sys = MemSystem::new(cfg, kind).unwrap();
        let mut reads = Vec::new();
        for (i, a) in accesses.iter().enumerate() {
            let addr = Addr::from_word_index(a.word);
            let port = PortId::new(a.cpu);
            if a.write {
                sys.run_to_completion(port, Request::write(addr, a.value)).unwrap();
            } else {
                reads.push(sys.run_to_completion(port, Request::read(addr)).unwrap().value);
            }
            if (i + 1) % 500 == 0 || i + 1 == accesses.len() {
                assert!(
                    sys.is_quiescent(),
                    "{kind:?}/{arbiter:?}/{mode:?}: not quiescent after access #{i}"
                );
                CoherenceChecker::new().check(&sys).unwrap_or_else(|e| {
                    panic!("{kind:?}/{arbiter:?}/{mode:?}: invariant violated after #{i}: {e}")
                });
            }
        }
        reads
    };

    for kind in ProtocolKind::ALL {
        let baseline = replay_configured(kind, ArbiterKind::FixedPriority, BusMode::Unified);
        for arbiter in ArbiterKind::ALL {
            for mode in [BusMode::Unified, BusMode::Split] {
                if (arbiter, mode) == (ArbiterKind::FixedPriority, BusMode::Unified) {
                    continue;
                }
                let reads = replay_configured(kind, arbiter, mode);
                assert_eq!(
                    reads, baseline,
                    "{kind:?} under {arbiter:?}/{mode:?}: serialized reads diverged \
                     from the fixed-priority unified bus"
                );
            }
        }
    }
}

/// Tardis vs the reference simulator, lease-renewal-heavy: a 10,000
/// request stream where each CPU keeps a hot read-mostly word resident
/// while its own writes march the program timestamp forward, so leases
/// expire and renew continuously. Tag states must track [`RefSim`] in
/// lockstep at every checkpoint, the timestamp oracle must hold, and
/// the read values must match the plain Firefly replay of the same
/// stream — renewals are bookkeeping, never data.
#[test]
fn tardis_renewal_heavy_stream_stays_in_refsim_lockstep() {
    let (cpus, words) = (4, 24);
    let geometry = CacheGeometry::new(16, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xd1ff_0009);
    // 60% reads of a per-CPU hot word (leases held and re-validated),
    // 40% writes to a scattered word (pts advances, leases expire).
    let accesses: Vec<Access> = (0..10_000)
        .map(|_| {
            let cpu = rng.gen_range(0..cpus);
            if rng.gen_bool(0.6) {
                Access { cpu, write: false, word: cpu as u32, value: 0 }
            } else {
                Access { cpu, write: true, word: rng.gen_range(4..words), value: rng.gen() }
            }
        })
        .collect();

    let baseline = replay(ProtocolKind::Firefly, geometry, cpus, words, &accesses, 1_000, true);

    let mut sys = tiny_system(cpus, geometry, ProtocolKind::Tardis);
    let mut reference = RefSim::new(cpus, geometry, ProtocolKind::Tardis);
    let checker = CoherenceChecker::new();
    let mut reads = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        let addr = Addr::from_word_index(a.word);
        let port = PortId::new(a.cpu);
        if a.write {
            sys.run_to_completion(port, Request::write(addr, a.value)).unwrap();
            reference.access(a.cpu, ProcOp::Write, addr);
        } else {
            reads.push(sys.run_to_completion(port, Request::read(addr)).unwrap().value);
            reference.access(a.cpu, ProcOp::Read, addr);
        }
        if (i + 1) % 1_000 == 0 || i + 1 == accesses.len() {
            checker
                .check(&sys)
                .unwrap_or_else(|e| panic!("Tardis: violated after access #{i}: {e}"));
            for cpu in 0..cpus {
                for w in 0..words {
                    let line = LineId::containing(Addr::from_word_index(w), geometry.line_words());
                    assert_eq!(
                        sys.peek_state(PortId::new(cpu), line),
                        reference.state_of(cpu, line),
                        "Tardis: CPU {cpu} line {line:?} diverged from the \
                         reference simulator after access #{i}"
                    );
                }
            }
        }
    }
    assert_eq!(reads, baseline, "Tardis diverged from Firefly on read values");
    assert!(
        sys.bus_stats().renewals > 100,
        "stream renewed only {} leases — not renewal-heavy",
        sys.bus_stats().renewals
    );
}
