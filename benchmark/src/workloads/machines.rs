//! `paper-4cpu` and `sharing-8cpu`: whole Firefly machines.
//!
//! The timed operation runs [`Firefly::run`] on the event engine. The
//! traced operation cannot look inside that call, so it loads the same
//! checkpoint into a free-standing memory system and processors built
//! from the public constructors [`FireflyBuilder::build`] uses, and
//! drives them with the ticked reference loop (tick every online
//! processor, then step), timing one cycle in
//! [`SAMPLE_EVERY`](crate::spans::SAMPLE_EVERY) and running the rest
//! through [`drive`] itself. Its final digest must equal the event
//! engine's, which checks engine equivalence on every traced run.

use super::{ns_since, Op, Size, TracedOp};
use crate::digest;
use crate::metrics::{protocol_key, ratio, Report};
use crate::spans::{Tracer, SAMPLE_EVERY};
use firefly_core::snapshot::SnapshotFile;
use firefly_core::stats::{BusStats, CacheStats};
use firefly_core::system::MemSystem;
use firefly_core::{Error, PortId, ProtocolKind};
use firefly_cpu::processor::{drive, EngineStats};
use firefly_cpu::{CpuConfig, Processor};
use firefly_sim::{Firefly, FireflyBuilder, Workload};
use firefly_trace::{LocalityParams, RefStream, SyntheticWorkload};
use std::hint::black_box;
use std::time::Instant;

/// Shape of a machine workload.
#[derive(Copy, Clone, Debug)]
struct Spec {
    cpus: usize,
    params: LocalityParams,
    warm: u64,
    op_cycles: u64,
}

/// One machine per protocol under test, with its checkpoint.
struct Slot {
    protocol: ProtocolKind,
    live: Firefly,
    image: Vec<u8>,
    mirror: Option<Mirror>,
}

/// Counters gathered across operations for the per-layer metrics.
#[derive(Debug, Default)]
struct Tally {
    event_ns: Vec<f64>,
    ticked_ns: Vec<f64>,
    per_protocol_ns: Vec<f64>,
    engine: EngineStats,
    cycles: u64,
    bus_busy_cycles: u64,
    bus_ops: u64,
    cache: CacheStats,
    next_ref_ns: f64,
}

/// A set-up machine workload.
pub struct Machines {
    spec: Spec,
    seed: u64,
    slots: Vec<Slot>,
    setup_digest: u64,
    tally: Tally,
}

impl std::fmt::Debug for Machines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machines").field("spec", &self.spec).field("seed", &self.seed).finish()
    }
}

impl Machines {
    /// `paper-4cpu`: four MicroVAX CPUs, the calibrated paper mix, the
    /// Firefly protocol; 2 M warm cycles, 1 M cycles per operation.
    ///
    /// # Errors
    ///
    /// When the warm machine cannot be checkpointed.
    pub fn paper4(seed: u64, size: Size) -> Result<Self, String> {
        let spec = Spec {
            cpus: 4,
            params: LocalityParams::paper_calibrated(),
            warm: size.cycles(2_000_000),
            op_cycles: size.cycles(1_000_000),
        };
        Self::new(spec, &[ProtocolKind::Firefly], seed)
    }

    /// `sharing-8cpu`: eight CPUs, the heavy write-sharing mix, each of
    /// the seven protocols in turn; 200 k warm cycles and 100 k cycles
    /// per protocol per operation.
    ///
    /// # Errors
    ///
    /// When a warm machine cannot be checkpointed.
    pub fn sharing8(seed: u64, size: Size) -> Result<Self, String> {
        let spec = Spec {
            cpus: 8,
            params: LocalityParams::sharing_heavy(),
            warm: size.cycles(200_000),
            op_cycles: size.cycles(100_000),
        };
        Self::new(spec, &ProtocolKind::ALL, seed)
    }

    fn new(spec: Spec, protocols: &[ProtocolKind], seed: u64) -> Result<Self, String> {
        let mut slots = Vec::with_capacity(protocols.len());
        for &protocol in protocols {
            let mut live = FireflyBuilder::microvax(spec.cpus)
                .protocol(protocol)
                .workload(Workload::Synthetic(spec.params))
                .seed(seed)
                .build();
            live.run(spec.warm);
            let image = live.save_snapshot().map_err(|e| format!("{protocol}: save: {e}"))?;
            slots.push(Slot { protocol, live, image, mirror: None });
        }
        let setup_digest = digest::combine(
            &slots.iter().map(|s| digest::machine(s.live.memory())).collect::<Vec<_>>(),
        );
        let tally = Tally { per_protocol_ns: vec![0.0; slots.len()], ..Tally::default() };
        Ok(Machines { spec, seed, slots, setup_digest, tally })
    }

    /// Digest of the warm machines.
    pub fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    /// Restores each machine and runs it on the event engine.
    ///
    /// # Errors
    ///
    /// When a checkpoint fails to load.
    pub fn op(&mut self) -> Result<Op, String> {
        let mut ns = 0;
        let mut digests = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.live
                .load_snapshot(&slot.image)
                .map_err(|e| format!("{}: load: {e}", slot.protocol))?;
            let engine = slot.live.engine_stats();
            let (bus, cache) = counters(slot.live.memory());
            let t = Instant::now();
            slot.live.run(self.spec.op_cycles);
            let dt = ns_since(t);
            ns += dt;
            self.tally.per_protocol_ns[i] += dt as f64;
            let after = slot.live.engine_stats();
            self.tally.engine.absorb(EngineStats {
                events_fired: after.events_fired - engine.events_fired,
                idle_skips: after.idle_skips - engine.idle_skips,
                cycles_skipped: after.cycles_skipped - engine.cycles_skipped,
                ticked_iterations: after.ticked_iterations - engine.ticked_iterations,
            });
            let (bus_after, cache_after) = counters(slot.live.memory());
            let bus = bus_after.delta(&bus);
            self.tally.bus_busy_cycles += bus.busy_cycles;
            self.tally.bus_ops += bus.ops();
            self.tally.cache += cache_after.delta(&cache);
            self.tally.cycles += self.spec.op_cycles;
            digests.push(digest::machine(slot.live.memory()));
        }
        self.tally.event_ns.push(ns as f64);
        Ok(Op { ns, digest: digest::combine(&digests) })
    }

    /// Builds one free-standing mirror per machine and times the
    /// reference-stream generator alone.
    ///
    /// # Errors
    ///
    /// Never, today; kept fallible like the other workloads.
    pub fn prepare_trace(&mut self) -> Result<(), String> {
        for slot in &mut self.slots {
            slot.mirror = Some(Mirror::new(self.spec, self.seed));
        }
        self.tally.next_ref_ns = next_ref_ns(self.spec.params, self.seed, self.spec.op_cycles);
        Ok(())
    }

    /// Runs each mirror untraced on [`drive`] (the overhead baseline),
    /// then again traced, from the same checkpoint.
    ///
    /// # Errors
    ///
    /// When a checkpoint fails to load into a mirror, or the traced and
    /// untraced digests differ.
    pub fn traced_op(&mut self, tr: &mut Tracer) -> Result<TracedOp, String> {
        let (mut base_ns, mut ns) = (0, 0);
        let mut digests = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            let protocol = slot.protocol;
            let m = slot.mirror.as_mut().ok_or("traced op before prepare_trace")?;
            m.load(&slot.image).map_err(|e| format!("{protocol}: mirror load: {e}"))?;
            let t = Instant::now();
            m.run(self.spec.op_cycles);
            base_ns += ns_since(t);
            let untraced = m.digest();
            m.load(&slot.image).map_err(|e| format!("{protocol}: mirror load: {e}"))?;
            let t = Instant::now();
            m.run_traced(self.spec.op_cycles, tr);
            ns += ns_since(t);
            let traced = m.digest();
            if traced != untraced {
                return Err(format!(
                    "{protocol}: traced digest {traced:#x} != untraced {untraced:#x}"
                ));
            }
            digests.push(traced);
        }
        self.tally.ticked_ns.push(base_ns as f64);
        Ok(TracedOp { op: Op { ns, digest: digest::combine(&digests) }, base_ns: Some(base_ns) })
    }

    /// Shares of the reference loop, engine and simulated counters.
    pub fn layer_metrics(&self, tr: &Tracer, r: &mut Report) {
        let t = &self.tally;
        let total = tr.self_ns(&[CYCLE, TICK, STEP_BUSY, STEP_IDLE]);
        r.set("cpu.tick_share", ratio(tr.total(TICK).self_ns, total));
        r.set("core.step_busy_share", ratio(tr.total(STEP_BUSY).self_ns, total));
        r.set("core.step_idle_share", ratio(tr.total(STEP_IDLE).self_ns, total));
        r.set("core.loop_share", ratio(tr.total(CYCLE).self_ns, total));
        let (busy, idle) = (tr.total(STEP_BUSY).calls as f64, tr.total(STEP_IDLE).calls as f64);
        r.set("core.step_busy_frac", ratio(busy, busy + idle));
        r.set("core.bus_load", ratio(t.bus_busy_cycles as f64, t.cycles as f64));
        r.set("core.miss_rate", t.cache.miss_rate());
        r.set("core.bus_ops_per_kcycle", ratio(t.bus_ops as f64 * 1e3, t.cycles as f64));
        r.set("engine.ticked_frac", ratio(t.engine.ticked_iterations as f64, t.cycles as f64));
        r.set(
            "engine.idle_skips_per_mcycle",
            ratio(t.engine.idle_skips as f64 * 1e6, t.cycles as f64),
        );
        if !t.event_ns.is_empty() && !t.ticked_ns.is_empty() {
            let event = crate::stats::median(&t.event_ns);
            r.set("engine.event_speedup", ratio(crate::stats::median(&t.ticked_ns), event));
            let refs_per_op = ratio(t.cache.cpu_refs() as f64, t.event_ns.len() as f64);
            r.set("trace.next_ref_share", ratio(t.next_ref_ns * refs_per_op, event));
        }
        let all: f64 = t.per_protocol_ns.iter().sum();
        for (slot, ns) in self.slots.iter().zip(&t.per_protocol_ns) {
            r.set(&format!("core.{}_share", protocol_key(slot.protocol)), ratio(*ns, all));
        }
    }
}

const CYCLE: &str = "core.cycle";
const TICK: &str = "cpu.tick";
const STEP_BUSY: &str = "core.step_busy";
const STEP_IDLE: &str = "core.step_idle";

fn counters(sys: &MemSystem) -> (BusStats, CacheStats) {
    let mut cache = CacheStats::default();
    for port in 0..sys.port_count() {
        cache += *sys.cache_stats(PortId::new(port));
    }
    (*sys.bus_stats(), cache)
}

/// Median host ns of one [`SyntheticWorkload::next_ref`], timed in
/// batches of `batch` calls.
fn next_ref_ns(params: LocalityParams, seed: u64, batch: u64) -> f64 {
    let mut w = SyntheticWorkload::fleet(1, params, seed).remove(0);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(w.next_ref());
            }
            ns_since(t) as f64 / batch as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// A memory system and processors assembled outside [`Firefly`], so the
/// traced loop can time each call.
struct Mirror {
    procs: Vec<Processor>,
    sys: Option<MemSystem>,
}

impl Mirror {
    /// Processors as [`FireflyBuilder::build`] makes them for a
    /// synthetic MicroVAX workload; the memory system comes from the
    /// first checkpoint loaded.
    fn new(spec: Spec, seed: u64) -> Self {
        let procs = SyntheticWorkload::fleet(spec.cpus, spec.params, seed)
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let stream: Box<dyn RefStream> = Box::new(w);
                Processor::new(PortId::new(i), CpuConfig::microvax(), stream, seed ^ i as u64)
            })
            .collect();
        Mirror { procs, sys: None }
    }

    /// Loads a [`Firefly::save_snapshot`] image, section by section.
    fn load(&mut self, image: &[u8]) -> Result<(), Error> {
        let file = SnapshotFile::parse(image)?;
        let mut r = file.section("machine")?;
        let cpus = r.usize()?;
        if cpus != self.procs.len() {
            return Err(Error::SnapshotCorrupt(format!("{cpus} CPUs in the image")));
        }
        r.expect_end()?;
        let mut r = file.section("memsys")?;
        let sys = MemSystem::restore(r.bytes()?)?;
        r.expect_end()?;
        for (i, p) in self.procs.iter_mut().enumerate() {
            let mut r = file.section(&format!("cpu{i}"))?;
            p.load_state(&mut r)?;
            r.expect_end()?;
        }
        self.sys = Some(sys);
        Ok(())
    }

    fn sys(&mut self) -> &mut MemSystem {
        self.sys.as_mut().expect("a checkpoint is loaded before the mirror runs")
    }

    fn digest(&mut self) -> u64 {
        digest::machine(self.sys())
    }

    fn run(&mut self, cycles: u64) {
        let sys = self.sys.as_mut().expect("a checkpoint is loaded before the mirror runs");
        drive(&mut self.procs, sys, cycles);
    }

    /// The reference loop with one cycle in [`SAMPLE_EVERY`] timed: a
    /// `core.cycle` root span holding a `cpu.tick` per online processor
    /// and one `core.step_busy` or `core.step_idle`, classified by
    /// [`MemSystem::is_idle`] before the step.
    fn run_traced(&mut self, cycles: u64, tr: &mut Tracer) {
        let sys = self.sys.as_mut().expect("a checkpoint is loaded before the mirror runs");
        let mut left = cycles;
        while left > 0 {
            let t0 = tr.now();
            for p in self.procs.iter_mut() {
                if sys.is_online(p.port()) {
                    let a = tr.now();
                    p.tick(sys);
                    let b = tr.now();
                    tr.child(TICK, a, b);
                }
            }
            let idle = sys.is_idle();
            let a = tr.now();
            sys.step();
            let b = tr.now();
            tr.child(if idle { STEP_IDLE } else { STEP_BUSY }, a, b);
            tr.unit(CYCLE, t0, tr.now());
            left -= 1;
            let plain = left.min(SAMPLE_EVERY - 1);
            drive(&mut self.procs, sys, plain);
            left -= plain;
        }
    }
}
