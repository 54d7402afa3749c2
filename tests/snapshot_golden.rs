//! Pinned FFSN bytes: the length and CRC-32 of snapshot images taken
//! from a fixed set of deterministic states.
//!
//! The fixed-point tests in `tests/snapshot.rs` prove that save and load
//! agree with each other. They cannot see a format change that both
//! sides make consistently — a reordered field, a widened integer, a
//! dropped length prefix — because such an image still round-trips.
//! This file can: every state below is rebuilt from seeds, and its image
//! must keep exactly the length and checksum recorded here. A deliberate
//! format change bumps `SNAPSHOT_VERSION` and re-records these values.

use firefly::core::config::SystemConfig;
use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::snapshot::{crc32, SnapWriter, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, CacheGeometry, PortId};
use firefly::sim::fleet::partition;
use firefly::sim::{FireflyBuilder, Fleet, FleetConfig};
use firefly::topaz::sched::{MigrationPolicy, Scheduler};
use firefly::topaz::ThreadId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `(state name, image length, CRC-32 of the image)`. For an FFSN
/// container the CRC is taken over the body, which makes it the value
/// the container stores in its own trailer; the CRC of a whole container
/// is the same constant for every image.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("memsys-Firefly", 14339, 0x0694b441),
    ("memsys-WriteThrough", 14319, 0xb2da4b1c),
    ("memsys-WriteOnce", 14417, 0x873834dd),
    ("memsys-Berkeley", 14431, 0x48971942),
    ("memsys-Illinois", 14424, 0x1cd3d66f),
    ("memsys-Dragon", 14351, 0xfeb4086a),
    ("memsys-Tardis", 15391, 0x34754ffe),
    ("machine-microvax4", 909008, 0x6a81012c),
    ("machine-cvax4", 2304914, 0xe9754c62),
    ("topaz-scheduler", 112, 0xbe34dbbc),
    ("fleet-partition-mid-split", 16762, 0xbfe666af),
];

/// A 4-port memory system under `kind` with a correctable fault plan and
/// event tracing on, run through a seeded request stream and cut with a
/// transaction in flight.
fn memsys_image(kind: ProtocolKind) -> Vec<u8> {
    let cpus = 4;
    let cfg = SystemConfig::microvax(cpus)
        .with_cache(CacheGeometry::new(32, 2).unwrap())
        .with_event_trace(256)
        .with_faults(FaultConfig::correctable(0x5eed_0002, 20_000));
    let mut sys = MemSystem::new(cfg, kind).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x601d ^ kind as u64);
    for _ in 0..300 {
        let port = PortId::new(rng.gen_range(0..cpus));
        let addr = Addr::from_word_index(rng.gen_range(0..96));
        let req =
            if rng.gen_bool(0.4) { Request::write(addr, rng.gen()) } else { Request::read(addr) };
        sys.run_to_completion(port, req).unwrap();
    }
    sys.begin(PortId::new(1), Request::write(Addr::from_word_index(200), 0xfeed)).unwrap();
    sys.step();
    sys.step();
    assert!(!sys.is_quiescent(), "{kind:?}: the cut must land mid-transaction");
    sys.save_snapshot()
}

fn scheduler_image() -> Vec<u8> {
    let mut s = Scheduler::new(4, MigrationPolicy::AvoidMigration, 40);
    for t in 0..6 {
        s.enqueue(ThreadId::new(t), if t % 3 == 0 { None } else { Some(t as usize % 4) });
    }
    let _ = s.dispatch(1);
    let _ = s.dispatch(2);
    for _ in 0..17 {
        s.note_idle(3);
    }
    let _ = s.dispatch(0);
    let mut w = SnapWriter::new();
    s.save(&mut w);
    w.into_bytes()
}

fn images() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for kind in ProtocolKind::ALL {
        out.push((format!("memsys-{}", kind.name()), memsys_image(kind)));
    }
    let mut mv = FireflyBuilder::microvax(4).seed(11).build();
    mv.run(30_000);
    out.push(("machine-microvax4".into(), mv.save_snapshot().unwrap()));
    let mut cv = FireflyBuilder::cvax(4).seed(12).build();
    cv.run(30_000);
    out.push(("machine-cvax4".into(), cv.save_snapshot().unwrap()));
    out.push(("topaz-scheduler".into(), scheduler_image()));
    let mut fleet = Fleet::new(FleetConfig::partition_heal(5, true));
    fleet.run_until(partition::SPLIT_FROM + 150_000);
    out.push(("fleet-partition-mid-split".into(), fleet.save_snapshot()));
    out
}

#[test]
fn snapshot_bytes_match_the_recorded_goldens() {
    assert_eq!(SNAPSHOT_VERSION, 7, "a format change re-records the goldens below");
    let actual: Vec<(String, usize, u32)> = images()
        .into_iter()
        .map(|(name, img)| {
            let body = if img.starts_with(&SNAPSHOT_MAGIC) { &img[..img.len() - 4] } else { &img };
            (name, img.len(), crc32(body))
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, len, crc)| format!("    ({name:?}, {len}, {crc:#010x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "state set changed; actual:\n{listing}");
    for ((name, len, crc), &(g_name, g_len, g_crc)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, g_name, "state order changed; actual:\n{listing}");
        assert_eq!(
            (*len, *crc),
            (g_len, g_crc),
            "{name}: FFSN bytes changed (len, crc); actual:\n{listing}"
        );
    }
}
