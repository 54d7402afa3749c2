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
use firefly::sim::{EngineMode, Firefly, FireflyBuilder, Workload};
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
    const CHUNKS: [u64; 9] = [1, 2, 3, 5, 7, 11, 997, 5_000, 20_000];
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
