//! Decoder robustness: corrupt bytes *inside* snapshot sections.
//!
//! A flipped byte anywhere in an FFSN image fails the container's CRC
//! before a single field is decoded, so corruption tests that only
//! damage the container never reach the field decoders. These tests
//! damage a section's payload and then rebuild the container around it
//! with a valid CRC, so every loader — machine, memory system, caches,
//! bus, fault sites, event ring, processors, reference streams, segment,
//! RPC endpoints — sees hostile input. The property: each load returns
//! `Ok` or a structured [`Error`], never a panic and never an abort in
//! the allocator.

use firefly::core::config::SystemConfig;
use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::snapshot::{SnapWriter, SnapshotBuilder, SnapshotFile, SNAPSHOT_MAGIC};
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, CacheGeometry, Error, PortId};
use firefly::net::{RetryPolicy, RpcClient};
use firefly::sim::fleet::partition;
use firefly::sim::{Firefly, FireflyBuilder, Fleet, FleetConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a seeded, dependency-free mutation stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A container's `(name, payload)` sections, in file order.
type Sections = Vec<(String, Vec<u8>)>;

/// The sections of `image`.
fn sections(image: &[u8]) -> Sections {
    let file = SnapshotFile::parse(image).expect("a valid image");
    let names: Vec<String> = file.sections().map(|(n, _)| n.to_string()).collect();
    names
        .into_iter()
        .map(|name| {
            let mut r = file.section(&name).unwrap();
            let payload = (0..r.remaining()).map(|_| r.u8().unwrap()).collect();
            (name, payload)
        })
        .collect()
}

fn rebuild(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (name, payload) in sections {
        b.section(name, |w| payload.iter().for_each(|&x| w.u8(x)));
    }
    b.finish()
}

/// Damages `payload` in place: a bit flip, a byte overwrite, a hostile
/// eight-byte value (the width of every length prefix), or a truncation.
/// Returns what it did, for the failure report.
fn mutate(payload: &mut Vec<u8>, rng: &mut Mix) -> String {
    if payload.is_empty() {
        payload.push(rng.next() as u8);
        return "grew an empty payload".into();
    }
    let at = rng.below(payload.len());
    match rng.below(4) {
        0 => {
            let bit = rng.below(8);
            payload[at] ^= 1 << bit;
            format!("flipped bit {bit} of byte {at}")
        }
        1 => {
            let v = rng.next() as u8;
            payload[at] = v;
            format!("set byte {at} to {v:#04x}")
        }
        2 => {
            let hostile =
                [u64::MAX, 1 << 60, 1 << 32, payload.len() as u64 * 2, rng.next()][rng.below(5)];
            let end = (at + 8).min(payload.len());
            payload[at..end].copy_from_slice(&hostile.to_le_bytes()[..end - at]);
            format!("wrote {hostile:#x} at byte {at}")
        }
        _ => {
            payload.truncate(at);
            format!("truncated to {at} bytes")
        }
    }
}

/// A corrupted copy of `image`: one to three mutations inside one
/// section. A section holding a nested, length-prefixed FFSN image (the
/// machine's memory system) is usually descended into, so the nested
/// decoders are reached too.
fn corrupt(image: &[u8], rng: &mut Mix) -> (Vec<u8>, String) {
    let mut secs = sections(image);
    let i = rng.below(secs.len());
    let (name, payload) = &mut secs[i];
    let nested = payload.len() > 12 && payload[8..12] == SNAPSHOT_MAGIC;
    let what = if nested && rng.below(5) != 0 {
        let (inner, what) = corrupt(&payload[8..], rng);
        let mut w = SnapWriter::new();
        w.bytes(&inner);
        *payload = w.into_bytes();
        format!("{name}/{what}")
    } else {
        let what: Vec<String> = (0..1 + rng.below(3)).map(|_| mutate(payload, rng)).collect();
        format!("{name}: {}", what.join(", "))
    };
    (rebuild(&secs), what)
}

/// Runs `iterations` corrupted loads of `image` through `load` and
/// fails listing every load that panicked.
fn fuzz(
    label: &str,
    image: &[u8],
    seed: u64,
    iterations: usize,
    mut load: impl FnMut(&[u8]) -> Result<(), Error>,
) {
    let mut rng = Mix(seed);
    let mut panics = Vec::new();
    let (mut ok, mut rejected) = (0, 0);
    for it in 0..iterations {
        let (bytes, what) = corrupt(image, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| load(&bytes))) {
            Ok(Ok(())) => ok += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panics.push(format!("iteration {it}: {what}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{label}: loads panicked instead of erroring:\n{}",
        panics.join("\n")
    );
    assert!(rejected > iterations / 2, "{label}: only {rejected} of {iterations} loads rejected");
    assert!(ok + rejected == iterations);
}

fn machine(builder: fn() -> FireflyBuilder, cycles: u64) -> (Vec<u8>, Firefly) {
    let mut m = builder().build();
    m.run(cycles);
    (m.save_snapshot().unwrap(), builder().build())
}

#[test]
fn corrupt_machine_sections_are_structured_errors() {
    let (image, mut twin) = machine(
        || {
            FireflyBuilder::microvax(2)
                .seed(3)
                .trace_events(64)
                .faults(FaultConfig::correctable(0xf022, 20_000))
        },
        8_000,
    );
    fuzz("microvax", &image, 0x5eed_f022, 600, |b| twin.load_snapshot(b));

    // The CVAX processors carry an on-chip i-cache section of their own.
    let (image, mut twin) = machine(|| FireflyBuilder::cvax(1).seed(4), 4_000);
    fuzz("cvax", &image, 0x5eed_c7a8, 150, |b| twin.load_snapshot(b));
}

#[test]
fn corrupt_fleet_sections_are_structured_errors() {
    let cfg = FleetConfig::partition_heal(5, true);
    let mut fleet = Fleet::new(cfg);
    fleet.run_until(partition::SPLIT_FROM + 50_000);
    let image = fleet.save_snapshot();
    let mut twin = Fleet::new(cfg);
    fuzz("fleet", &image, 0x5eed_f1ee, 1_500, |b| twin.load_snapshot(b));
}

/// A raw `RpcClient::load` payload (no container, so no CRC) whose
/// server count is 2^60 once aborted the process allocating for it.
#[test]
fn rpc_client_with_a_huge_server_count_is_corrupt_not_an_abort() {
    let client = RpcClient::new(3, vec![0, 1], RetryPolicy::budgeted(1_000), 9);
    let mut w = SnapWriter::new();
    client.save(&mut w);
    // NIC and a breaker-less policy take 69 bytes; the server count
    // follows.
    let mut payload = w.into_bytes()[..69].to_vec();
    payload.extend_from_slice(&(1u64 << 60).to_le_bytes());
    assert_eq!(payload.len(), 77);
    let mut r = firefly::core::snapshot::SnapReader::new(&payload);
    assert!(matches!(RpcClient::load(&mut r), Err(Error::SnapshotCorrupt(_))));
}

/// Sizes in the embedded configuration are untrusted: a cache geometry
/// or event-ring capacity decoded from a corrupt image must not be
/// allocated before the image has shown it can hold that much state.
#[test]
fn huge_configured_sizes_are_corrupt_not_an_abort() {
    let mut m = FireflyBuilder::microvax(1).trace_events(16).build();
    m.run(1_000);
    let image = m.save_snapshot().unwrap();
    let secs = sections(&image);
    let memsys = &secs.iter().find(|(n, _)| n == "memsys").unwrap().1;
    // The config section starts with the variant byte, then the port
    // count, the cache's line count and words per line, the memory
    // size and the event-ring capacity. Each patched word must first
    // hold the configured value, so a stale offset fails here instead
    // of corrupting some other field.
    let lines = CacheGeometry::microvax().lines() as u64;
    for (at, configured, value) in [(9, lines, 1u64 << 40), (33, 16, 1 << 60)] {
        let mut inner = sections(&memsys[8..]);
        let word = &mut inner[0].1[at..at + 8];
        assert_eq!(u64::from_le_bytes(word.try_into().unwrap()), configured, "config word at {at}");
        word.copy_from_slice(&value.to_le_bytes());
        let mut w = SnapWriter::new();
        w.bytes(&rebuild(&inner));
        let mut patched = secs.clone();
        patched.iter_mut().find(|(n, _)| n == "memsys").unwrap().1 = w.into_bytes();
        let mut twin = FireflyBuilder::microvax(1).trace_events(16).build();
        assert!(
            matches!(twin.load_snapshot(&rebuild(&patched)), Err(Error::SnapshotCorrupt(_))),
            "config word at {at} set to {value:#x}"
        );
    }
}

/// The container's own section count is untrusted too.
#[test]
fn a_huge_section_count_is_corrupt_not_an_abort() {
    let mut bytes = SnapshotBuilder::new().finish();
    bytes.truncate(bytes.len() - 4);
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = firefly::core::snapshot::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    assert!(matches!(SnapshotFile::parse(&bytes), Err(Error::SnapshotCorrupt(_))));
}

/// The `memsys` section of a machine image, its index among the
/// sections, and a freshly built twin to load damaged copies into.
fn memsys_section() -> (Sections, usize, Firefly) {
    let (image, twin) = machine(|| FireflyBuilder::microvax(2).seed(6), 6_000);
    let secs = sections(&image);
    assert_eq!(rebuild(&secs), image, "rebuilding an intact image is the identity");
    let at = secs.iter().position(|(n, _)| n == "memsys").unwrap();
    (secs, at, twin)
}

/// The memory system's nested image carries a CRC trailer of its own.
/// Damage to that trailer, or to one inner byte under an intact
/// trailer, must fail the load even though the outer container's CRC
/// is recomputed to match the damaged bytes.
#[test]
fn a_damaged_nested_image_under_a_valid_outer_crc_is_corrupt() {
    let (secs, at, mut twin) = memsys_section();
    let len = secs[at].1.len();
    // Past the eight-byte length prefix: the inner magic, the inner
    // body's middle, and the first and last bytes of the inner trailer.
    for (what, offset) in
        [("inner magic", 8), ("inner body", len / 2), ("trailer", len - 4), ("trailer", len - 1)]
    {
        let mut patched = secs.clone();
        patched[at].1[offset] ^= 0x5a;
        assert!(
            matches!(twin.load_snapshot(&rebuild(&patched)), Err(Error::SnapshotCorrupt(_))),
            "{what} byte {offset} of {len}"
        );
    }
    let intact = rebuild(&secs);
    twin.load_snapshot(&intact).expect("the intact image still loads");
}

/// Every single-bit flip inside the `memsys` payload (length prefix,
/// inner header, sections, trailer) under a recomputed outer CRC is
/// `SnapshotCorrupt`: the inner CRC catches every one of them.
#[test]
fn single_bit_flips_across_the_nested_image_are_corrupt() {
    let (secs, at, mut twin) = memsys_section();
    let len = secs[at].1.len();
    let mut rng = Mix(0x5eed_b17f);
    let edges = (0..24).chain(len - 12..len);
    let offsets: Vec<usize> = edges.chain((0..96).map(|_| rng.below(len))).collect();
    for offset in offsets {
        let bit = rng.below(8);
        let mut patched = secs.clone();
        patched[at].1[offset] ^= 1 << bit;
        assert!(
            matches!(twin.load_snapshot(&rebuild(&patched)), Err(Error::SnapshotCorrupt(_))),
            "bit {bit} of byte {offset} of {len}"
        );
    }
}

/// Byte 196 of the `cpu0` section below is the top byte of the address
/// the processor's reference stream has queued next. Each flip moves
/// that address past the 16 MB the stream layout fits in; such an
/// image once loaded with `Ok`, and the processor's first issue of the
/// reference panicked. The restore bounds every saved reference by the
/// regions the stream was built with.
#[test]
fn a_queued_reference_past_installed_memory_is_corrupt() {
    let (secs, _, _) = memsys_section();
    let cpu0 = secs.iter().position(|(n, _)| n == "cpu0").unwrap();
    assert_eq!(secs[cpu0].1[196], 0, "the top byte of a queued address below 16 MB");
    for mask in [0x01, 0x10, 0x40, 0x80, 0xff] {
        let mut patched = secs.clone();
        patched[cpu0].1[196] ^= mask;
        let mut twin = FireflyBuilder::microvax(2).seed(6).build();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let loaded = twin.load_snapshot(&rebuild(&patched));
            if loaded.is_ok() {
                twin.run(10_000);
            }
            loaded
        }));
        assert!(
            matches!(result, Ok(Err(Error::SnapshotCorrupt(_)))),
            "byte 196 ^ {mask:#04x}: {result:?}"
        );
    }
}

/// A machine image with a second `cpu0` section once loaded (the first
/// copy won) and then re-saved to different bytes. A container that
/// repeats a section name is corrupt.
#[test]
fn a_repeated_section_name_is_corrupt() {
    let (image, mut twin) = machine(|| FireflyBuilder::microvax(2).seed(8), 3_000);
    let mut secs = sections(&image);
    let cpu0 = secs.iter().find(|(n, _)| n == "cpu0").unwrap().clone();
    secs.push(cpu0);
    match twin.load_snapshot(&rebuild(&secs)) {
        Err(Error::SnapshotCorrupt(msg)) => assert_eq!(msg, "repeated section \"cpu0\""),
        other => panic!("expected a repeated-section error, got {other:?}"),
    }
    twin.load_snapshot(&image).expect("the original image loads");
    assert_eq!(twin.save_snapshot().unwrap(), image);
}

/// The sections of a 2-CPU memory-system image at rest, and of the same
/// system cut two cycles into port 0's read miss.
fn idle_and_mid_transaction_images() -> (Sections, Sections) {
    let mut sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
    sys.run_to_completion(PortId::new(1), Request::write(Addr::new(0x40), 7)).unwrap();
    let idle = sections(&sys.save_snapshot());
    sys.begin(PortId::new(0), Request::read(Addr::new(0x8000))).unwrap();
    sys.step();
    sys.step();
    assert!(!sys.is_quiescent(), "the cut must land mid-transaction");
    (idle, sections(&sys.save_snapshot()))
}

/// Each section of a memory-system image is well formed on its own, so
/// one lifted from another image of the same machine passes every
/// field check. The `system`, `ports` or `bus` section of an idle image
/// spliced into an image cut two cycles into a read miss (and the
/// reverse) must load and run, or be rejected, never panic: no section
/// may hold state that only another section's agreement keeps
/// consistent, unless the loader checks that agreement.
#[test]
fn sections_spliced_across_a_bus_transaction_load_and_run_or_are_corrupt() {
    let (idle, mid) = idle_and_mid_transaction_images();
    for name in ["system", "ports", "bus"] {
        for (host, donor, way) in [(&mid, &idle, "idle into mid"), (&idle, &mid, "mid into idle")] {
            let mut spliced = host.clone();
            let section = donor.iter().find(|(n, _)| n == name).unwrap().1.clone();
            spliced.iter_mut().find(|(n, _)| n == name).unwrap().1 = section;
            match MemSystem::restore(&rebuild(&spliced)) {
                Ok(mut sys) => {
                    for _ in 0..1_000 {
                        sys.step();
                    }
                }
                Err(Error::SnapshotCorrupt(_)) => {}
                Err(e) => panic!("{name} {way}: expected Ok or SnapshotCorrupt, got {e:?}"),
            }
        }
    }
}

/// The idle image's `bus` section in the mid-transaction image leaves
/// port 0's read waiting on the bus with its request line down and no
/// transaction of its own: it once loaded with `Ok` and never completed.
#[test]
fn an_access_waiting_on_a_bus_that_will_never_serve_it_is_corrupt() {
    let (idle, mut spliced) = idle_and_mid_transaction_images();
    let bus = idle.iter().find(|(n, _)| n == "bus").unwrap().1.clone();
    spliced.iter_mut().find(|(n, _)| n == "bus").unwrap().1 = bus;
    match MemSystem::restore(&rebuild(&spliced)) {
        Err(Error::SnapshotCorrupt(msg)) => {
            assert_eq!(msg, "port 0 waits on the bus with no request, transaction or retry")
        }
        Ok(mut sys) => {
            for _ in 0..100_000 {
                sys.step();
            }
            panic!("the image loaded; idle after 100,000 steps: {}", sys.is_idle());
        }
        Err(e) => panic!("expected SnapshotCorrupt, got {e:?}"),
    }
}

/// A `cpu<i>` section is well formed on its own, so one lifted from
/// another image of the same run passes every field check. Spliced over
/// a port that disagrees with it, a processor waiting on memory would
/// wait forever on a port with no access, and a computing one would
/// panic at its next issue on a port still holding one. Every ordered
/// pair of images of a 2-CPU run, saved every 7 cycles, swaps one
/// processor's section: the load must be `SnapshotCorrupt`, or the
/// machine must run on with both processors issuing again.
#[test]
fn a_processor_spliced_over_a_port_that_disagrees_is_corrupt() {
    let build = || FireflyBuilder::microvax(2).seed(6).build();
    let mut m = build();
    let images: Vec<Sections> = (0..24)
        .map(|_| {
            m.run(7);
            sections(&m.save_snapshot().unwrap())
        })
        .collect();
    let (mut rejected, mut ran) = (0, 0);
    let mut twin = build();
    for (h, host) in images.iter().enumerate() {
        for (d, donor) in images.iter().enumerate().filter(|&(d, _)| d != h) {
            let name = format!("cpu{}", (h + d) % 2);
            let mut spliced = host.clone();
            let section = donor.iter().find(|(n, _)| *n == name).unwrap().1.clone();
            spliced.iter_mut().find(|(n, _)| *n == name).unwrap().1 = section;
            let run =
                catch_unwind(AssertUnwindSafe(|| match twin.load_snapshot(&rebuild(&spliced)) {
                    Ok(()) => {
                        let before: Vec<u64> =
                            twin.processors().iter().map(|p| p.stats().board_refs()).collect();
                        twin.run(2_000);
                        let stuck = twin
                            .processors()
                            .iter()
                            .zip(&before)
                            .any(|(p, &b)| p.stats().board_refs() == b);
                        Ok(stuck)
                    }
                    Err(e) => Err(e),
                }));
            match run {
                Ok(Ok(false)) => ran += 1,
                Ok(Ok(true)) => {
                    panic!("{name} of image {d} into image {h}: a processor never issued again")
                }
                Ok(Err(Error::SnapshotCorrupt(_))) => {
                    rejected += 1;
                    // A failed load leaves the processors half restored.
                    twin = build();
                }
                Ok(Err(e)) => panic!(
                    "{name} of image {d} into image {h}: expected SnapshotCorrupt, got {e:?}"
                ),
                Err(_) => {
                    panic!("{name} of image {d} into image {h}: the spliced machine panicked")
                }
            }
        }
    }
    assert!(rejected > 0 && ran > 0, "{rejected} splices rejected, {ran} ran");
}
