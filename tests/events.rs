//! Cross-crate tests of the event-tracing layer: determinism of the
//! captured stream, the content guarantees the exporters rely on, and
//! the zero-impact contract of the disabled path.

use firefly::core::config::SystemConfig;
use firefly::core::events::{bus_records, chrome_trace, timeline, validate_json, EventKind};
use firefly::core::fault::FaultConfig;
use firefly::core::protocol::ProtocolKind;
use firefly::core::system::{MemSystem, Request};
use firefly::core::{Addr, CacheGeometry, PortId};
use firefly::sim::harness::run_jobs_with;
use firefly::sim::FireflyBuilder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn traced_run(cycles: u64, faults: Option<FaultConfig>) -> Vec<firefly::core::events::Event> {
    let mut b = FireflyBuilder::microvax(3).seed(0xabcd).trace_events(1 << 18);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    let mut m = b.build();
    m.run(cycles);
    m.take_events()
}

/// The same seed produces a byte-identical Chrome trace on repeated
/// runs — the exporter output, not just the event values, is pinned.
#[test]
fn trace_is_byte_identical_across_runs() {
    let a = traced_run(20_000, None);
    let b = traced_run(20_000, None);
    assert_eq!(a, b, "event streams replay exactly");
    assert_eq!(chrome_trace(&a), chrome_trace(&b));
    assert_eq!(timeline(&a), timeline(&b));
}

/// `bus_records` is the Figure 4 record of every bus transaction: on a
/// fault-free system run to quiescence under contention, it holds one
/// record per transaction the bus counted, in start order.
#[test]
fn bus_records_cover_every_transaction() {
    let cpus = 4;
    for kind in ProtocolKind::ALL {
        let cfg = SystemConfig::microvax(cpus)
            .with_cache(CacheGeometry::new(32, 2).unwrap())
            .with_event_trace(1 << 16);
        let mut sys = MemSystem::new(cfg, kind).unwrap();
        let mut rng = SmallRng::seed_from_u64(0xb05 ^ kind as u64);
        let mut request = move || {
            let addr = Addr::from_word_index(rng.gen_range(0..96));
            if rng.gen_bool(0.4) {
                Request::write(addr, rng.gen())
            } else {
                Request::read(addr)
            }
        };
        for p in 0..cpus {
            sys.begin(PortId::new(p), request()).unwrap();
        }
        for _ in 0..4_000 {
            sys.step();
            for p in 0..cpus {
                if sys.poll(PortId::new(p)).is_some() {
                    sys.begin(PortId::new(p), request()).unwrap();
                }
            }
        }
        while !sys.is_quiescent() {
            sys.step();
        }
        let events = sys.events();
        assert_eq!(sys.events_dropped(), 0, "{kind:?}: the ring must hold the whole run");
        let records = bus_records(&events);
        assert!(records.len() > 100, "{kind:?}: the stream must contend for the bus");
        assert_eq!(records.len() as u64, sys.bus_stats().ops(), "{kind:?}");
        assert!(
            records.windows(2).all(|w| w[0].start_cycle <= w[1].start_cycle),
            "{kind:?}: records are in start order"
        );
    }
}

/// Capturing events inside harness jobs is independent of the worker
/// count: 1 worker and N workers see identical streams per job.
#[test]
fn trace_is_identical_across_worker_counts() {
    let seeds = [1u64, 2, 3, 4];
    let capture = |workers| {
        run_jobs_with(workers, &seeds, |&seed| {
            let mut m = FireflyBuilder::microvax(2).seed(seed).trace_events(1 << 16).build();
            m.run(8_000);
            m.take_events()
        })
    };
    assert_eq!(capture(1), capture(4), "streams must not depend on FIREFLY_JOBS");
}

/// A traced run under a correctable fault plan contains every event
/// family the exporters document: bus transactions, coherence
/// transitions, and paired fault injection/recovery — and the exported
/// JSON validates.
#[test]
fn traced_fault_run_has_all_event_families() {
    let events = traced_run(30_000, Some(FaultConfig::correctable(0xf1ef, 20_000)));
    let mut issued = 0;
    let mut completed = 0;
    let mut transitions = 0;
    let mut injected = 0;
    let mut recovered = 0;
    for e in &events {
        match e.kind {
            EventKind::BusIssued { .. } => issued += 1,
            EventKind::BusCompleted { .. } => completed += 1,
            EventKind::Transition { .. } => transitions += 1,
            EventKind::FaultInjected { .. } => injected += 1,
            EventKind::FaultRecovered { .. } => recovered += 1,
            _ => {}
        }
    }
    assert!(issued > 0 && completed > 0, "bus traffic traced");
    assert!(transitions > 0, "coherence transitions traced");
    assert!(injected > 0 && recovered > 0, "fault round-trips traced");

    let json = chrome_trace(&events);
    validate_json(&json).expect("exporter emits valid JSON");
    for needle in ["\"traceEvents\"", "inject ", "recover ", "MRead"] {
        assert!(json.contains(needle), "missing {needle}");
    }
}

/// Tracing observes, never perturbs: a traced and an untraced machine
/// with the same seed produce identical simulation counters, and the
/// untraced machine records nothing.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let run = |trace: usize| {
        let mut m = FireflyBuilder::microvax(3).seed(77).trace_events(trace).build();
        m.run(15_000);
        let cache: Vec<_> = (0..3).map(|p| *m.memory().cache_stats(PortId::new(p))).collect();
        (cache, *m.memory().bus_stats(), m.events().len())
    };
    let (cache_off, bus_off, n_off) = run(0);
    let (cache_on, bus_on, n_on) = run(1 << 16);
    assert_eq!(cache_off, cache_on, "cache counters identical with tracing on");
    assert_eq!(bus_off, bus_on, "bus counters identical with tracing on");
    assert_eq!(n_off, 0, "disabled tracing records nothing");
    assert!(n_on > 0, "enabled tracing records the run");
}

/// The latency histograms are always on and populated by any busy run,
/// and they are as deterministic as the counters.
#[test]
fn latency_histograms_are_populated_and_deterministic() {
    let run = || {
        let mut m = FireflyBuilder::microvax(4).seed(5).build();
        m.run(20_000);
        *m.memory().latency_stats()
    };
    let lat = run();
    assert!(lat.miss_penalty.count() > 0, "misses were measured");
    assert!(lat.bus_wait.count() > 0, "bus waits were measured");
    assert!(lat.miss_penalty.quantile(0.5) >= 4, "a miss costs at least one bus transaction");
    assert_eq!(lat, run(), "histograms replay exactly");
}

/// The Topaz runtime interleaves scheduler context-switch events with
/// the memory system's bus events on one cycle clock.
#[test]
fn topaz_context_switches_share_the_event_clock() {
    use firefly::topaz::{Script, ThreadOp, TopazConfig, TopazMachine};
    let mut cfg = TopazConfig::microvax(2);
    cfg.trace_events = 1 << 17;
    let mut m = TopazMachine::new(cfg);
    for _ in 0..3 {
        m.spawn(Script::new(vec![ThreadOp::Compute { instructions: 800 }, ThreadOp::Exit]));
    }
    m.run(120_000);
    let events = m.take_events();
    let switch = events.iter().find(|e| matches!(e.kind, EventKind::ContextSwitch { .. }));
    let bus = events.iter().find(|e| matches!(e.kind, EventKind::BusCompleted { .. }));
    assert!(switch.is_some(), "dispatches traced");
    assert!(bus.is_some(), "bus traffic traced");
    let json = chrome_trace(&events);
    validate_json(&json).expect("topaz trace validates");
    assert!(json.contains("dispatch t"), "context switches appear in the export");
}
