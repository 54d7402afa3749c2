//! Differential equivalence suite: the event-driven engine versus the
//! ticked reference engine.
//!
//! The event-driven core ([`firefly_cpu::processor::drive_events`], the
//! default behind [`firefly::sim::EngineMode`]) ticks only the processors
//! due in a cycle, crediting their skipped bookkeeping ticks in one add,
//! and skips idle spans in one jump. Its contract is strict: **bit-identical
//! results** — statistics JSON, event traces, latency histograms,
//! snapshot bytes — on every protocol, under fault injection, and across
//! mid-run checkpoints. These tests drive both engines from the same
//! seed in lockstep and hold them to that contract byte for byte; any
//! divergence means the skip predicate admitted a cycle that was not
//! actually idle.

use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::system::Request;
use firefly::core::Addr;
use firefly::cpu::processor::EngineStats;
use firefly::cpu::Agent;
use firefly::io::mdc::{encode_fill, WQ_BASE};
use firefly::io::raster::RasterOp;
use firefly::io::rqdx3::DiskRequest;
use firefly::io::{IoSystem, Mdc};
use firefly::sim::{EngineMode, Firefly, FireflyBuilder, Workload};
use firefly::topaz::{
    ExerciserConfig, MigrationPolicy, NoIo, Script, ThreadOp, TopazConfig, TopazMachine, TopazStats,
};
use firefly::trace::LocalityParams;
use firefly_core::PortId;
use serde::Serialize;

/// Serializes every statistics surface of a machine to one JSON string,
/// so "the stats are identical" is a byte comparison.
fn stats_json(machine: &Firefly) -> String {
    let mut parts = Vec::new();
    parts.push(machine.memory().bus_stats().to_json());
    parts.push(machine.fault_stats().to_json());
    for p in machine.processors() {
        parts.push(p.stats().to_json());
    }
    parts.join(",")
}

/// The latency histograms, via their Debug rendering (bin-exact).
fn latency_debug(machine: &Firefly) -> String {
    format!("{:?}", machine.memory().latency_stats())
}

fn build(kind: ProtocolKind, engine: EngineMode, faults: FaultConfig) -> Firefly {
    FireflyBuilder::microvax(3)
        .protocol(kind)
        .seed(0xe4e4 ^ kind as u64)
        .trace_events(2048)
        .faults(faults)
        .engine(engine)
        .build()
}

/// Runs `machine` in `chunks` chunks of `chunk` cycles, returning the
/// stats JSON after every chunk (so a divergence is localized to the
/// chunk that introduced it, not discovered at the end).
fn run_chunked(machine: &mut Firefly, chunk: u64, chunks: usize) -> Vec<String> {
    (0..chunks)
        .map(|_| {
            machine.run(chunk);
            stats_json(machine)
        })
        .collect()
}

/// The headline differential: all seven protocols, both engines from
/// the same seed, compared in lockstep every 10k cycles. 120k cycles at
/// the paper's ~12 ticks per instruction gives each 3-CPU machine well
/// over 10,000 memory requests.
#[test]
fn engines_bit_identical_on_all_seven_protocols() {
    for kind in ProtocolKind::ALL {
        let mut ticked = build(kind, EngineMode::Ticked, FaultConfig::default());
        let mut events = build(kind, EngineMode::EventDriven, FaultConfig::default());

        let t = run_chunked(&mut ticked, 10_000, 12);
        let e = run_chunked(&mut events, 10_000, 12);
        for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
            assert_eq!(tj, ej, "{kind:?}: stats JSON diverged in chunk {i}");
        }

        let refs: u64 =
            (0..3).map(|p| ticked.memory().cache_stats(PortId::new(p)).cpu_refs()).sum();
        assert!(refs > 10_000, "{kind:?}: only {refs} requests — the differential is too weak");

        assert_eq!(
            format!("{:?}", ticked.events()),
            format!("{:?}", events.events()),
            "{kind:?}: event traces diverged"
        );
        assert_eq!(
            latency_debug(&ticked),
            latency_debug(&events),
            "{kind:?}: latency histograms diverged"
        );
        assert_eq!(
            ticked.save_snapshot().unwrap(),
            events.save_snapshot().unwrap(),
            "{kind:?}: snapshot bytes diverged"
        );
    }
}

/// The same differential under an active fault plan: bus parity aborts
/// and retry backoff, MShared glitches, arbiter stalls, and correctable
/// ECC all perturb the schedule, and every RNG draw must land on the
/// same cycle in both engines.
#[test]
fn engines_bit_identical_under_fault_injection() {
    for kind in ProtocolKind::ALL {
        let plan = FaultConfig::correctable(0xfau64 ^ kind as u64, 20_000);
        let mut ticked = build(kind, EngineMode::Ticked, plan);
        let mut events = build(kind, EngineMode::EventDriven, plan);

        let t = run_chunked(&mut ticked, 10_000, 8);
        let e = run_chunked(&mut events, 10_000, 8);
        for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
            assert_eq!(tj, ej, "{kind:?}: stats JSON diverged under faults in chunk {i}");
        }
        assert!(
            ticked.fault_stats().total_injected() > 0,
            "{kind:?}: the plan never fired — the test is not exercising fault schedules"
        );
        assert_eq!(
            format!("{:?}", ticked.events()),
            format!("{:?}", events.events()),
            "{kind:?}: event traces diverged under faults"
        );
        assert_eq!(
            ticked.save_snapshot().unwrap(),
            events.save_snapshot().unwrap(),
            "{kind:?}: snapshot bytes diverged under faults"
        );
    }
}

/// A checkpoint taken by one engine restores into the other: the
/// snapshot format is engine-agnostic because the scheduler's state is
/// derived, not stored. Each engine continues from the other's
/// checkpoint bit-identically to the uninterrupted run.
#[test]
fn checkpoints_cross_engines_bit_identically() {
    for kind in [
        ProtocolKind::Firefly,
        ProtocolKind::Berkeley,
        ProtocolKind::WriteThrough,
        // Tardis checkpoints carry live leases and per-CPU program
        // timestamps; they must cross engines like any other state.
        ProtocolKind::Tardis,
    ] {
        let plan = FaultConfig::correctable(0xc0c0, 25_000);
        let mut events = build(kind, EngineMode::EventDriven, plan);
        events.run(30_000);
        let snap = events.save_snapshot().unwrap();

        // Resume the event-engine checkpoint on the ticked engine (and
        // vice versa via the uninterrupted event machine).
        let mut ticked = build(kind, EngineMode::Ticked, plan);
        ticked.load_snapshot(&snap).unwrap();

        events.run(30_000);
        ticked.run(30_000);

        assert_eq!(events.memory().cycle(), ticked.memory().cycle(), "{kind:?}: cycles");
        assert_eq!(stats_json(&events), stats_json(&ticked), "{kind:?}: stats after crossover");
        assert_eq!(
            events.save_snapshot().unwrap(),
            ticked.save_snapshot().unwrap(),
            "{kind:?}: snapshots diverged after the cross-engine resume"
        );
    }
}

/// The multiprogram workload context-switches every quantum and streams
/// through cold caches — a different idle-span profile (long compute
/// gaps, bursty misses) than the steady-state synthetic stream.
#[test]
fn engines_agree_on_the_multiprogram_workload() {
    let workload = Workload::Multiprogram {
        processes: 3,
        quantum: 1_500,
        params: LocalityParams::paper_calibrated(),
    };
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(workload)
            .protocol(ProtocolKind::Dragon)
            .seed(0x777)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    ticked.run(80_000);
    events.run(80_000);
    assert_eq!(stats_json(&ticked), stats_json(&events));
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// The PR-8 busy-bus regression point, exactly as `arbiter_sweep`'s
/// timed gate runs it: paper-mix 4 CPUs on the default (fixed-priority,
/// unified) bus, where the bus is busy two cycles in three and most
/// cycles are stepped one at a time with only the due processors
/// ticked. The perf gate lives in the bench; *this* pins the other half
/// of the claim — those cycles are bit-identical to ticking, chunk by
/// chunk.
#[test]
fn busy_bus_paper_mix_point_stays_bit_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .protocol(ProtocolKind::Firefly)
            .seed(0x8a8b ^ 0xb)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    let t = run_chunked(&mut ticked, 20_000, 6);
    let e = run_chunked(&mut events, 20_000, 6);
    for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
        assert_eq!(tj, ej, "busy-bus point: stats JSON diverged in chunk {i}");
    }
    assert!(
        ticked.memory().bus_stats().load() > 0.25,
        "the point is supposed to be busy: load {:.2}",
        ticked.memory().bus_stats().load()
    );
    let stats = events.engine_stats();
    assert!(stats.ticked_iterations > 0, "busy cycles must be stepped one at a time");
    assert!(stats.idle_skips > 0, "the short joint-idle windows must still be skipped");
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// Every arbitration policy × bus mode, both engines: the skip
/// predicate knows nothing about the arbiter, so pluggable arbitration
/// must not cost the event engine its bit-identity — under a rotating
/// grant state (round-robin, aging) and with two transactions pipelined
/// on the split bus alike. Runs the sweep under both the invalidating
/// workhorse (Firefly) and the timestamped protocol (Tardis), whose
/// data-less lease renewals add a bus-operation shape the skip
/// predicate has to schedule like any other transaction.
#[test]
fn engines_bit_identical_across_policies_and_bus_modes() {
    use firefly::core::{ArbiterKind, BusMode};

    for proto in [ProtocolKind::Firefly, ProtocolKind::Tardis] {
        for kind in ArbiterKind::ALL {
            for mode in [BusMode::Unified, BusMode::Split] {
                let build = |engine| {
                    FireflyBuilder::microvax(4)
                        .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
                        .protocol(proto)
                        .arbiter(kind)
                        .bus_mode(mode)
                        .seed(0x1bb ^ kind as u64)
                        .engine(engine)
                        .build()
                };
                let mut ticked = build(EngineMode::Ticked);
                let mut events = build(EngineMode::EventDriven);
                ticked.run(60_000);
                events.run(60_000);
                assert_eq!(
                    stats_json(&ticked),
                    stats_json(&events),
                    "{proto:?}/{kind:?}/{mode:?}: stats diverged"
                );
                assert_eq!(
                    ticked.save_snapshot().unwrap(),
                    events.save_snapshot().unwrap(),
                    "{proto:?}/{kind:?}/{mode:?}: snapshot bytes diverged"
                );
            }
        }
    }
}

/// The busy-bus shape under Tardis: the paper-mix point where the bus
/// is saturated, with lease renewals live in the transaction stream.
/// Chunk-by-chunk bit-identity between the engines, and the run must
/// actually renew — a renewal-free run would leave the new `Renew` bus
/// operation untested here.
#[test]
fn tardis_busy_bus_renewals_stay_bit_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(4)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .protocol(ProtocolKind::Tardis)
            .seed(0x8a8b ^ 0x7)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    let t = run_chunked(&mut ticked, 20_000, 6);
    let e = run_chunked(&mut events, 20_000, 6);
    for (i, (tj, ej)) in t.iter().zip(&e).enumerate() {
        assert_eq!(tj, ej, "Tardis busy-bus: stats JSON diverged in chunk {i}");
    }
    assert!(
        ticked.memory().bus_stats().renewals > 0,
        "the Tardis paper-mix run never renewed a lease — the differential misses Renew"
    );
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// An idle-heavy configuration (one CPU, high hit rate, long compute
/// gaps) is where the event engine actually skips; make sure the reached
/// state is still identical and the cycle counters add up exactly.
#[test]
fn idle_heavy_single_cpu_run_is_identical() {
    let build = |engine| {
        FireflyBuilder::microvax(1)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .seed(42)
            .engine(engine)
            .build()
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    ticked.run(200_000);
    events.run(200_000);
    assert_eq!(ticked.memory().cycle(), 200_000);
    assert_eq!(events.memory().cycle(), 200_000);
    assert_eq!(ticked.memory().bus_stats().total_cycles, 200_000);
    assert_eq!(events.memory().bus_stats().total_cycles, 200_000);
    assert_eq!(stats_json(&ticked), stats_json(&events));
    assert_eq!(ticked.save_snapshot().unwrap(), events.save_snapshot().unwrap());
}

/// Offlined processors and tiny chunks: double-bit ECC machine-checks
/// CPUs off the bus mid-run, and on seeds 4–6 a tight bus watchdog also
/// machine-checks CPUs starved while they wait on the bus, the one
/// offlining no access completion reports. Runs cut into chunks from 1
/// to 20,000 cycles end the event engine's call at every kind of point
/// (mid compute gap, mid transaction, on a wake-up). After every chunk
/// each processor's counters and the machine's snapshot bytes must
/// equal the ticked engine's, and the engine must account for every
/// cycle run.
#[test]
fn engines_bit_identical_with_offlining_in_small_chunks() {
    let build = |kind: ProtocolKind, seed: u64, engine| {
        let mut m = FireflyBuilder::microvax(4)
            .protocol(kind)
            .seed(seed)
            .faults(FaultConfig::uniform(seed, 3_000))
            .engine(engine)
            .build();
        m.memory_mut().set_watchdog((seed > 3).then_some(2));
        m
    };
    let (mut offlined, mut starved) = (0, 0);
    for kind in ProtocolKind::ALL {
        for seed in 1..=6u64 {
            let mut ticked = build(kind, seed, EngineMode::Ticked);
            let mut events = build(kind, seed, EngineMode::EventDriven);
            for (i, &chunk) in CHUNKS.iter().enumerate() {
                ticked.run(chunk);
                events.run(chunk);
                for (t, e) in ticked.processors().iter().zip(events.processors()) {
                    assert_eq!(t.stats(), e.stats(), "{kind:?}/{seed}: cpu stats, chunk {i}");
                }
                assert_eq!(
                    ticked.save_snapshot().unwrap(),
                    events.save_snapshot().unwrap(),
                    "{kind:?}/{seed}: snapshot bytes diverged in chunk {i}"
                );
            }
            let es = events.engine_stats();
            assert_eq!(
                es.ticked_iterations + es.cycles_skipped,
                CHUNKS.iter().sum::<u64>(),
                "{kind:?}/{seed}: every cycle is stepped or skipped exactly once"
            );
            offlined += ticked.fault_stats().cpus_offlined;
            starved += ticked
                .memory()
                .fault_errors()
                .iter()
                .filter(|e| matches!(e, firefly_core::Error::DeviceTimeout { .. }))
                .count();
        }
    }
    assert!(offlined > 0, "no CPU was offlined — the test misses the offlining path");
    assert!(starved > 0, "the watchdog offlined no CPU — the test misses a bus-waiting offline");
}

/// The event engine's own counters on two fixed runs of the paper mix,
/// 200,000 cycles at 4 CPUs and at 1, pinned to the values the engine
/// has always reported. A quiet cycle is folded into the idle jump that
/// follows it, and must still count as the one stepped iteration plus
/// the one skip it used to take, so `BENCH_6.json`'s and
/// `BENCH_8.json`'s engine columns keep their meaning.
#[test]
fn engine_stats_are_pinned_on_the_paper_mix() {
    use firefly::cpu::processor::EngineStats;
    let run = |cpus: usize| {
        let mut m = FireflyBuilder::microvax(cpus)
            .workload(Workload::Synthetic(LocalityParams::paper_calibrated()))
            .protocol(ProtocolKind::Firefly)
            .seed(0x5eed ^ cpus as u64)
            .engine(EngineMode::EventDriven)
            .build();
        m.run(200_000);
        m.engine_stats()
    };
    assert_eq!(
        run(4),
        EngineStats {
            events_fired: 32_181,
            idle_skips: 32_181,
            cycles_skipped: 64_743,
            ticked_iterations: 135_257,
        }
    );
    assert_eq!(
        run(1),
        EngineStats {
            events_fired: 24_554,
            idle_skips: 24_555,
            cycles_skipped: 151_460,
            ticked_iterations: 48_540,
        }
    );
}

/// The chunk sizes the offlining test cuts its runs into.
const CHUNKS: [u64; 9] = [1, 2, 3, 5, 7, 11, 997, 5_000, 20_000];

/// Every device counter of an I/O system, as one string.
fn device_stats(io: &IoSystem) -> String {
    format!(
        "{:?} {:?} {:?} dma {} {} {:?}",
        io.mdc().stats(),
        io.deqna().stats(),
        io.disk().stats(),
        io.dma().words_read(),
        io.dma().words_written(),
        io.fault_stats()
    )
}

/// Hands the I/O system work on every device: three disk reads, a
/// transmit (started by an interprocessor interrupt the caller posts),
/// and two received packets into posted buffers. The display controller
/// polls its work queue throughout.
fn give_io_work(io: &mut IoSystem) {
    for lba in 0..3 {
        io.disk_mut().submit(DiskRequest::Read { lba, addr: Addr::new(0x0050_0000 + lba * 512) });
    }
    io.deqna_mut().enqueue_tx(Addr::new(0x0052_0000), 256);
    for i in 0..2 {
        io.deqna_mut().post_rx_buffer(Addr::new(0x0070_0000 + i * 0x100), 64);
        let mut pkt = firefly::io::deqna::Packet::zeroed(16);
        pkt.words = vec![0xaa55_0000 + i, i, 7, 9];
        io.deqna_mut().deliver(pkt);
    }
}

/// A packet that arrives from the wire between chunk `i` and the next.
fn hand_io_work_between_runs(i: usize, io: &mut IoSystem) {
    if i == 7 {
        io.deqna_mut().post_rx_buffer(Addr::new(0x0071_0000), 64);
        io.deqna_mut().deliver(firefly::io::deqna::Packet::zeroed(24));
    }
}

/// A Topaz machine's I/O system, as far as the tests look at it.
trait TopazIo: Agent {
    /// Its device counters, or nothing.
    fn stats(&self) -> String;
    /// Hands it the work that arrives between chunk `i` and the next.
    fn between_runs(&mut self, _i: usize) {}
}

impl TopazIo for NoIo {
    fn stats(&self) -> String {
        match *self {}
    }
}

impl TopazIo for IoSystem {
    fn stats(&self) -> String {
        device_stats(self)
    }

    fn between_runs(&mut self, i: usize) {
        hand_io_work_between_runs(i, self);
    }
}

/// Everything a Topaz run leaves behind that the engines must agree on.
fn topaz_state<I: TopazIo>(
    m: &TopazMachine<I>,
) -> (u64, TopazStats, Vec<u8>, String, Option<String>) {
    (
        m.cycle(),
        *m.stats(),
        m.memory().save_snapshot(),
        format!("{:?}", m.events()),
        m.io().map(TopazIo::stats),
    )
}

/// The Table 2 exerciser on four CPUs, plus one thread that waits on a
/// condition nobody signals, so a timeout sweep must wake it.
fn exerciser(policy: MigrationPolicy, engine: EngineMode) -> TopazMachine {
    let mut m = TopazMachine::new(exerciser_config(policy, engine));
    populate_exerciser(&mut m);
    m
}

/// The exerciser's configuration on four CPUs.
fn exerciser_config(policy: MigrationPolicy, engine: EngineMode) -> TopazConfig {
    let mut cfg = ExerciserConfig::table2(4).topaz;
    cfg.migration = policy;
    cfg.engine = engine;
    cfg.trace_events = 4096;
    cfg
}

/// Creates the exerciser's threads and synchronization objects, and the
/// thread that times out.
fn populate_exerciser<I: Agent>(m: &mut TopazMachine<I>) {
    let ex = ExerciserConfig::table2(4);
    for _ in 0..ex.mutexes {
        m.create_mutex();
    }
    for _ in 0..ex.conds {
        m.create_cond();
    }
    let unsignalled = m.create_cond();
    for i in 0..ex.threads {
        m.spawn(ex.script(i));
    }
    m.spawn(Script::new(vec![ThreadOp::Wait(unsignalled), ThreadOp::Exit]));
}

/// Two CPUs that spend long stretches idle: two threads share CPU 0
/// by yielding, a third exits early so that CPU 1 must steal (under
/// `AvoidMigration`, once its patience runs out), and two waits on
/// conditions nobody signals time out after everything else has exited.
fn steals_and_timeouts(policy: MigrationPolicy, engine: EngineMode) -> TopazMachine {
    let mut cfg = TopazConfig::microvax(2);
    cfg.migration = policy;
    cfg.engine = engine;
    cfg.trace_events = 4096;
    let mut m = TopazMachine::new(cfg);
    let (c0, c1) = (m.create_cond(), m.create_cond());
    let slice = ThreadOp::Compute { instructions: 150 };
    let share =
        Script::new(vec![slice, ThreadOp::Yield, slice, ThreadOp::Yield, slice, ThreadOp::Exit]);
    m.spawn(share.clone());
    m.spawn(Script::new(vec![ThreadOp::Compute { instructions: 300 }, ThreadOp::Exit]));
    m.spawn(share);
    m.spawn(Script::new(vec![ThreadOp::Wait(c0), ThreadOp::Exit]));
    m.spawn(Script::new(vec![
        ThreadOp::Compute { instructions: 40 },
        ThreadOp::Wait(c1),
        ThreadOp::Compute { instructions: 40 },
        ThreadOp::Exit,
    ]));
    m
}

/// Runs both Topaz machines through the chunk sizes `rounds` times,
/// comparing after every chunk, and returns the event engine's counters.
fn topaz_lockstep<I: TopazIo>(
    ticked: &mut TopazMachine<I>,
    events: &mut TopazMachine<I>,
    rounds: usize,
    what: &str,
) -> EngineStats {
    let mut stats = EngineStats::default();
    for (i, &chunk) in CHUNKS.iter().cycle().take(rounds * CHUNKS.len()).enumerate() {
        for m in [&mut *ticked, &mut *events] {
            if let Some(io) = m.io_mut() {
                io.between_runs(i);
            }
            if i == 4 && m.io().is_some() {
                // Footnote 2: a CPU starts the transmit with an interrupt.
                m.memory_mut().post_interrupt(PortId::new(0)).unwrap();
            }
        }
        assert_eq!(ticked.run(chunk), EngineStats::default(), "{what}: the ticked engine counts");
        stats += events.run(chunk);
        assert!(topaz_state(ticked) == topaz_state(events), "{what}: diverged in chunk {i}");
    }
    let cycles = rounds as u64 * CHUNKS.iter().sum::<u64>();
    assert_eq!(stats.ticked_iterations + stats.cycles_skipped, cycles, "{what}");
    stats
}

/// (a) The Topaz CPU set as one agent: the exerciser, and a mostly idle
/// machine, under both migration policies, chunk by chunk, including
/// condition waits that time out. Same-cycle hand-offs (an unlock
/// dispatched by a later idle engine in the same cycle), stealing
/// patience and the 64-cycle timeout sweep all have to land on the
/// ticked engine's cycles.
#[test]
fn topaz_engines_bit_identical_in_small_chunks() {
    for policy in [MigrationPolicy::AvoidMigration, MigrationPolicy::FreeMigration] {
        let mut ticked = steals_and_timeouts(policy, EngineMode::Ticked);
        let mut events = steals_and_timeouts(policy, EngineMode::EventDriven);
        topaz_lockstep(&mut ticked, &mut events, 2, &format!("{policy:?}, idle"));
        let s = ticked.stats();
        assert!(ticked.all_exited() && s.timeouts == 2 && s.migrations > 0, "{policy:?}: {s:?}");

        let mut ticked = exerciser(policy, EngineMode::Ticked);
        let mut events = exerciser(policy, EngineMode::EventDriven);
        let stats = topaz_lockstep(&mut ticked, &mut events, 2, &format!("{policy:?}"));
        let s = ticked.stats();
        assert!(s.timeouts > 0 && s.wakeups > 0, "{policy:?}: {s:?}");
        if policy == MigrationPolicy::AvoidMigration {
            assert_eq!(
                stats,
                EngineStats {
                    events_fired: 6_937,
                    idle_skips: 6_942,
                    cycles_skipped: 12_043,
                    ticked_iterations: 40_009,
                }
            );
        }
    }
}

/// (c) A Topaz machine with the I/O system attached: the CPU set and the
/// DMA engine's port share the bus, and the I/O system ticks after the
/// CPU set in every cycle.
#[test]
fn topaz_with_io_engines_bit_identical_in_small_chunks() {
    let build = |engine| {
        let cfg = exerciser_config(MigrationPolicy::AvoidMigration, engine);
        let mut m = TopazMachine::with_io(cfg, IoSystem::on_port);
        populate_exerciser(&mut m);
        give_io_work(m.io_mut().unwrap());
        m
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    topaz_lockstep(&mut ticked, &mut events, 4, "Topaz with I/O");
    let io = ticked.io().unwrap();
    assert!(io.disk().stats().reads > 0, "{}", device_stats(io));
    assert_eq!(io.deqna().stats().tx_packets, 1, "{}", device_stats(io));
    assert_eq!(io.deqna().stats().rx_packets, 3, "{}", device_stats(io));
}

/// (b) An I/O machine: processors and the I/O system as agents of one
/// driver, with the disk, the Ethernet controller and the display
/// controller busy, under a double-bit ECC plan that machine-checks a
/// processor off the bus.
#[test]
fn io_machine_engines_bit_identical_with_offlining_in_small_chunks() {
    let build = |engine| {
        let plan = FaultConfig { seed: 0xdead, ecc_double_ppm: 300, ..FaultConfig::default() };
        let mut m = FireflyBuilder::microvax(3)
            .with_io()
            .seed(0x10)
            .trace_events(2048)
            .faults(plan)
            .engine(engine)
            .build();
        // A fill command in the display's work queue keeps it painting.
        let cmd = encode_fill(50, 60, 400, 300, RasterOp::Set);
        let sys = m.memory_mut();
        for (i, w) in cmd.iter().enumerate() {
            sys.run_to_completion(PortId::new(1), Request::write(Mdc::slot_word(0, i as u32), *w))
                .unwrap();
        }
        sys.run_to_completion(PortId::new(1), Request::write(WQ_BASE, 1)).unwrap();
        give_io_work(m.io_mut().unwrap());
        m
    };
    let state = |m: &Firefly| {
        (stats_json(m), device_stats(m.io().unwrap()), m.memory().save_snapshot(), m.events())
    };
    let mut ticked = build(EngineMode::Ticked);
    let mut events = build(EngineMode::EventDriven);
    for round in 0..7 {
        for (i, &chunk) in CHUNKS.iter().enumerate() {
            for m in [&mut ticked, &mut events] {
                hand_io_work_between_runs(i, m.io_mut().unwrap());
                if round == 0 && i == 4 {
                    m.memory_mut().post_interrupt(PortId::new(0)).unwrap();
                }
            }
            ticked.run(chunk);
            events.run(chunk);
            assert!(state(&ticked) == state(&events), "round {round}: diverged in chunk {i}");
        }
    }
    let io = ticked.io().unwrap();
    assert!(ticked.fault_stats().cpus_offlined > 0, "no CPU went offline");
    assert!(
        io.mdc().stats().commands == 1 && io.mdc().stats().deposits > 0,
        "{}",
        device_stats(io)
    );
    assert!(io.disk().stats().reads > 0, "{}", device_stats(io));
    assert_eq!(io.deqna().stats().tx_packets, 1, "{}", device_stats(io));
    assert_eq!(
        events.engine_stats(),
        EngineStats {
            events_fired: 30_117,
            idle_skips: 30_140,
            cycles_skipped: 97_900,
            ticked_iterations: 84_282,
        }
    );
}
