//! Crash-consistency acceptance tests for the snapshot subsystem.
//!
//! The contract under test: a machine checkpointed at cycle C and
//! resumed from that snapshot is **bit-identical** to the uninterrupted
//! run — same cycle count, same serialized statistics, same event
//! trace, same bytes when re-snapshotted — for every coherence
//! protocol, with an active fault-injection plan. A snapshot that does
//! not satisfy this is not a checkpoint, it is a guess.
//!
//! Alongside the equivalence gate:
//! * `restore(save(s))` is a fixed point at arbitrary (including
//!   mid-transaction) points of a random request stream, and
//! * version-skewed or corrupted images are rejected with structured
//!   errors — never a panic, never a silently wrong machine.

use firefly::core::config::SystemConfig;
use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::snapshot::{crc32, SnapshotFile, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, CacheGeometry, Error, PortId};
use firefly::sim::FireflyBuilder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Serializes every statistics surface of a machine to one JSON string,
/// so "the stats are identical" is a byte comparison, not a field-by-
/// field sample.
fn stats_json(machine: &firefly::sim::Firefly) -> String {
    let mut parts = Vec::new();
    parts.push(machine.memory().bus_stats().to_json());
    parts.push(machine.fault_stats().to_json());
    for p in machine.processors() {
        parts.push(p.stats().to_json());
    }
    parts.join(",")
}

/// The ISSUE acceptance gate: for all seven protocols, checkpoint at
/// cycle C under a nonzero fault plan, resume into a differently-seeded
/// twin, and demand byte-identical stats JSON, event-trace bytes, and
/// re-snapshot images after both sides run the same distance.
#[test]
fn resume_is_bit_identical_for_every_protocol() {
    for kind in ProtocolKind::ALL {
        let build = |seed: u64| {
            FireflyBuilder::microvax(3)
                .protocol(kind)
                .seed(seed)
                .trace_events(512)
                .faults(FaultConfig::correctable(0x5eed_0001, 20_000))
                .build()
        };

        let mut machine = build(7);
        machine.run(40_000);
        let snap = machine.save_snapshot().unwrap_or_else(|e| panic!("{kind:?}: save: {e}"));

        // The twin is built with a different seed: every RNG stream it
        // would have used must be overwritten by the snapshot.
        let mut twin = build(0xdead_beef);
        twin.load_snapshot(&snap).unwrap_or_else(|e| panic!("{kind:?}: load: {e}"));

        machine.run(40_000);
        twin.run(40_000);

        assert_eq!(machine.memory().cycle(), twin.memory().cycle(), "{kind:?}: cycle diverged");
        assert_eq!(stats_json(&machine), stats_json(&twin), "{kind:?}: stats JSON diverged");
        assert_eq!(
            format!("{:?}", machine.events()),
            format!("{:?}", twin.events()),
            "{kind:?}: event trace diverged"
        );
        assert!(
            machine.fault_stats().total_injected() > 0,
            "{kind:?}: fault plan never fired — the test is not exercising fault state"
        );
        assert_eq!(
            machine.save_snapshot().unwrap(),
            twin.save_snapshot().unwrap(),
            "{kind:?}: re-snapshot bytes diverged"
        );
    }
}

/// `save(restore(save(s))) == save(s)` at arbitrary cut points of a
/// seeded random request stream — including points where bus
/// transactions are mid-flight — and the restored system finishes the
/// stream with identical read values.
#[test]
fn restore_of_save_is_a_fixed_point_mid_stream() {
    let (cpus, words) = (4, 64);
    for kind in ProtocolKind::ALL {
        let cfg = SystemConfig::microvax(cpus).with_cache(CacheGeometry::new(16, 2).unwrap());
        let mut sys = MemSystem::new(cfg, kind).unwrap();
        let mut rng = SmallRng::seed_from_u64(0xf1f0 ^ kind as u64);

        for i in 0..400 {
            let port = PortId::new(rng.gen_range(0..cpus));
            let addr = Addr::from_word_index(rng.gen_range(0..words));
            let req = if rng.gen_bool(0.4) {
                Request::write(addr, rng.gen())
            } else {
                Request::read(addr)
            };
            if rng.gen_bool(0.15) {
                // Cut mid-transaction: issue, advance a few cycles, and
                // snapshot with the bus transaction still in flight.
                sys.begin(port, req).unwrap();
                for _ in 0..rng.gen_range(1..6) {
                    sys.step();
                }
                let snap = sys.save_snapshot();
                let restored = MemSystem::restore(&snap)
                    .unwrap_or_else(|e| panic!("{kind:?}: restore at access #{i}: {e}"));
                assert_eq!(
                    restored.save_snapshot(),
                    snap,
                    "{kind:?}: save∘restore is not a fixed point at access #{i}"
                );
                sys = restored;
                // Drain the in-flight access on the restored system.
                while sys.poll(port).is_none() {
                    sys.step();
                }
            } else {
                sys.run_to_completion(port, req).unwrap();
            }
        }

        // A quiescent-point cut, for symmetry with the mid-flight cuts.
        assert!(sys.is_quiescent());
        let snap = sys.save_snapshot();
        let restored = MemSystem::restore(&snap).unwrap();
        assert_eq!(restored.save_snapshot(), snap, "{kind:?}: quiescent fixed point");
    }
}

/// Tardis-specific crash consistency: cut the machine with a lease
/// renewal *on the wires* — the reader's lease has expired, the
/// data-less `Renew` transaction is mid-flight, and every timestamp
/// (per-CPU `pts`, global and per-line `(wts, rts)`) is live state the
/// image must carry. `save ∘ restore` must be a byte fixed point at
/// that cut, the restored system must reproduce the original's
/// timestamps exactly, and draining the in-flight renewal must finish
/// with the correct value and a renewed lease that the timestamp
/// oracle accepts.
#[test]
fn tardis_snapshot_roundtrips_with_live_leases_in_flight() {
    use firefly::core::check::CoherenceChecker;
    use firefly::core::LineId;

    let cpus = 2;
    let cfg = SystemConfig::microvax(cpus).with_cache(CacheGeometry::new(8, 1).unwrap());
    let mut sys = MemSystem::new(cfg, ProtocolKind::Tardis).unwrap();
    let reader = PortId::new(0);
    let hot = Addr::from_word_index(0);
    let hot_line = LineId::containing(hot, 1);

    // Lease the hot word, then expire the lease with private writes
    // (each write advances the reader's program timestamp).
    sys.run_to_completion(reader, Request::read(hot)).unwrap();
    let (_, rts) = sys.tardis_global_ts(hot_line);
    let mut k = 0u32;
    while sys.tardis_pts(reader) <= rts {
        sys.run_to_completion(reader, Request::write(Addr::from_word_index(1), k)).unwrap();
        k += 1;
    }

    // Issue the renewing read and cut with the Renew transaction
    // mid-flight on the bus.
    sys.begin(reader, Request::read(hot)).unwrap();
    sys.step();
    sys.step();
    assert!(!sys.is_quiescent(), "the renewal must still be in flight at the cut");
    let snap = sys.save_snapshot();
    let mut restored = MemSystem::restore(&snap).expect("mid-renewal image restores");
    assert_eq!(restored.save_snapshot(), snap, "save∘restore is not a fixed point mid-renewal");

    // The restored system carries the exact timestamp state.
    for p in 0..cpus {
        assert_eq!(
            restored.tardis_pts(PortId::new(p)),
            sys.tardis_pts(PortId::new(p)),
            "P{p} pts diverged across the snapshot"
        );
    }
    assert_eq!(restored.tardis_global_ts(hot_line), sys.tardis_global_ts(hot_line));
    assert_eq!(restored.tardis_line_ts(reader, hot_line), sys.tardis_line_ts(reader, hot_line));

    // Both the original and the restored system drain the renewal to
    // the same value, and end in oracle-clean, freshly-leased states.
    for s in [&mut sys, &mut restored] {
        let r = loop {
            if let Some(r) = s.poll(reader) {
                break r;
            }
            s.step();
        };
        assert_eq!(r.value, 0, "the hot word was never written — the renewal must read 0");
        assert!(s.cache_stats(reader).renewals_sent > 0, "the drained access never renewed");
        let (_, new_rts) = s.tardis_global_ts(hot_line);
        assert!(new_rts >= s.tardis_pts(reader), "renewed lease does not cover the reader");
        CoherenceChecker::new().check(s).unwrap();
    }
    assert_eq!(
        sys.save_snapshot(),
        restored.save_snapshot(),
        "original and restored systems diverged after draining the renewal"
    );
}

/// The event-driven engine's scheduler state is *derived*: every wake-up
/// is a pure function of processor and memory-system state, so a
/// checkpoint needs no scheduler section. This pins the consequence: a
/// snapshot cut **between two scheduled events** (mid compute-gap, with
/// pending local completions outstanding) restores to the same
/// next-event cycle, and the resumed machine re-snapshots to the same
/// bytes as the uninterrupted run.
#[test]
fn scheduler_state_roundtrips_between_scheduled_events() {
    use firefly::sim::EngineMode;

    /// The next-interesting-cycle the event driver would rebuild: the
    /// earliest wake-up across the online processors, the current cycle
    /// while one waits on the bus (`u64::MAX` when all are offline).
    fn next_event_cycle(machine: &firefly::sim::Firefly) -> u64 {
        use firefly::cpu::Agent;
        let sys = machine.memory();
        machine
            .processors()
            .iter()
            .filter(|p| sys.is_online(p.port()))
            .map(|p| match p.wake(sys.cycle(), sys) {
                u64::MAX => sys.cycle(),
                wake => wake,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    for kind in [ProtocolKind::Firefly, ProtocolKind::Illinois] {
        let build = |seed: u64| {
            FireflyBuilder::microvax(3)
                .protocol(kind)
                .seed(seed)
                .engine(EngineMode::EventDriven)
                .build()
        };
        let mut machine = build(21);
        // Walk forward from an arbitrary point until the cut lands
        // strictly *between* two scheduled events (inside a compute gap,
        // not on a wake-up boundary).
        machine.run(12_345);
        let mut guard = 0;
        while next_event_cycle(&machine) <= machine.memory().cycle() {
            machine.run(1);
            guard += 1;
            assert!(guard < 10_000, "{kind:?}: no between-events cut found");
        }
        let next = next_event_cycle(&machine);
        assert!(next > machine.memory().cycle());

        let snap = machine.save_snapshot().unwrap();
        let mut twin = build(909);
        twin.load_snapshot(&snap).unwrap();
        assert_eq!(
            next_event_cycle(&twin),
            next,
            "{kind:?}: restored machine rebuilds a different next-event cycle"
        );
        assert_eq!(
            twin.save_snapshot().unwrap(),
            snap,
            "{kind:?}: restore must be a byte-level fixed point"
        );

        machine.run(12_345);
        twin.run(12_345);
        assert_eq!(
            machine.save_snapshot().unwrap(),
            twin.save_snapshot().unwrap(),
            "{kind:?}: resumed run diverged from the uninterrupted one"
        );
    }
}

/// Patches the little-endian version word of a valid image and repairs
/// the trailing CRC so only the version differs.
fn with_version(image: &[u8], version: u32) -> Vec<u8> {
    let mut bytes = image.to_vec();
    let body_len = bytes.len() - 4;
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let crc = crc32(&bytes[..body_len]);
    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Offsets at which the container's structure changes: the start of
/// each section's name length, name, payload length and payload, and
/// the CRC trailer.
fn section_boundaries(image: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(image[8..12].try_into().unwrap());
    let mut at = 12;
    let mut out = Vec::new();
    for _ in 0..count {
        let name = at + 8;
        let payload_len = name + word(at);
        let payload = payload_len + 8;
        out.extend([at, name, payload_len, payload]);
        at = payload + word(payload_len);
    }
    out.push(at);
    out
}

/// Pinned regressions: skewed, corrupted, truncated, and garbage images
/// must come back as structured errors, never panics.
#[test]
fn version_skew_and_corruption_are_rejected_with_structured_errors() {
    let cfg = SystemConfig::microvax(2);
    let mut sys = MemSystem::new(cfg, ProtocolKind::Firefly).unwrap();
    sys.run_to_completion(PortId::new(0), Request::write(Addr::from_word_index(3), 99)).unwrap();
    let image = sys.save_snapshot();
    assert_eq!(&image[..4], &SNAPSHOT_MAGIC, "image must lead with the FFSN magic");

    // A future version is refused with both versions reported.
    match MemSystem::restore(&with_version(&image, 999)) {
        Err(Error::SnapshotVersion { found, supported }) => {
            assert_eq!(found, 999);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("version skew: expected SnapshotVersion, got {other:?}"),
    }

    // A flipped payload byte fails the CRC before any field is decoded.
    let mut corrupt = image.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(
        matches!(MemSystem::restore(&corrupt), Err(Error::SnapshotCorrupt(_))),
        "bit flip must fail the checksum"
    );

    // Truncations are errors, not panics. Every prefix fails the CRC
    // before any field is decoded (`tests/snapshot_fuzz.rs` reaches the
    // decoders), so cut where the container's own parsing changes: in
    // the header, around each section boundary, and at a fixed stride.
    let mut cuts: Vec<usize> = (0..=12).collect();
    for b in section_boundaries(&image) {
        cuts.extend([b - 1, b, b + 1]);
    }
    cuts.extend((0..image.len()).step_by(997));
    cuts.retain(|&c| c < image.len());
    for cut in cuts {
        assert!(
            MemSystem::restore(&image[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // Arbitrary garbage is rejected too.
    let garbage: Vec<u8> = (0u32..64).map(|i| (i * 37) as u8).collect();
    assert!(MemSystem::restore(&garbage).is_err());

    // The machine-level loader refuses a snapshot from a different
    // machine shape rather than restoring half a machine.
    let mut machine = FireflyBuilder::microvax(2).build();
    machine.run(1_000);
    let snap = machine.save_snapshot().unwrap();
    let mut wrong_shape = FireflyBuilder::microvax(3).build();
    assert!(wrong_shape.load_snapshot(&snap).is_err(), "CPU-count mismatch must be rejected");
}

/// The debug dump of a machine image lists the memory system's nested
/// image section by section, indented under `memsys` and before the
/// processors.
#[test]
fn dump_lists_the_nested_memory_system_under_memsys() {
    let mut m = FireflyBuilder::microvax(2).seed(9).trace_events(32).build();
    m.run(2_000);
    let text = firefly::trace::snapdump::dump_snapshot(&m.save_snapshot().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let at = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix));
    let memsys = at("section memsys:").expect("memsys listed");
    let cpu0 = at("section cpu0:").expect("cpu0 listed");
    for inner in ["config", "memory", "events"] {
        let line =
            at(&format!("    section {inner}:")).unwrap_or_else(|| panic!("{inner}:\n{text}"));
        assert!(memsys < line && line < cpu0, "{inner} is not under memsys:\n{text}");
    }
}

/// The `memsys` section of a machine image is the memory system's own
/// image behind a `u64` length, written in place by a child builder: a
/// reader that takes it with `SnapReader::bytes` gets exactly what
/// `MemSystem::save_snapshot` writes, and `MemSystem::restore` accepts
/// it without going through `SnapshotFile::nested`.
#[test]
fn memsys_section_is_the_memory_systems_own_image() {
    let mut m = FireflyBuilder::microvax(4)
        .seed(5)
        .trace_events(64)
        .faults(FaultConfig::correctable(0x5eed_0031, 20_000))
        .build();
    m.run(30_000);
    let image = m.save_snapshot().unwrap();
    let file = SnapshotFile::parse(&image).unwrap();
    let mut r = file.section("memsys").unwrap();
    let inner = r.bytes().unwrap();
    r.expect_end().unwrap();
    let own = m.memory().save_snapshot();
    assert!(own.len() > 100_000, "a warm image holds memory pages: {} bytes", own.len());
    assert_eq!(inner, own.as_slice());
    let sys = MemSystem::restore(inner).unwrap();
    assert_eq!(sys.save_snapshot(), own, "restore then save is the identity");
}
