//! The machine builder and the assembled Firefly.

use firefly_core::config::SystemConfig;
use firefly_core::fault::FaultConfig;
use firefly_core::snapshot::{SnapshotBuilder, SnapshotFile};
use firefly_core::stats::FaultStats;
use firefly_core::system::MemSystem;
use firefly_core::{
    ArbiterKind, BusMode, CacheGeometry, Error, MachineVariant, PortId, ProtocolKind,
};
use firefly_cpu::processor::{EngineStats, Processor};
pub use firefly_cpu::EngineMode;
use firefly_cpu::{Agent, CpuConfig};
use firefly_io::IoSystem;
use firefly_trace::{LocalityParams, MultiprogramWorkload, RefStream, SyntheticWorkload};
use std::fmt;

/// What the processors execute.
#[derive(Copy, Clone, PartialEq, Debug, serde::Serialize)]
pub enum Workload {
    /// Each processor runs the calibrated synthetic locality stream with
    /// the given parameters (disjoint private regions, common shared
    /// region).
    Synthetic(LocalityParams),
    /// Each processor time-slices several synthetic processes (the
    /// cold-start/context-switch regime of §5.3).
    Multiprogram {
        /// Processes per processor.
        processes: usize,
        /// References per scheduling quantum.
        quantum: u64,
        /// Locality parameters of each process.
        params: LocalityParams,
    },
}

impl Default for Workload {
    fn default() -> Self {
        Workload::Synthetic(LocalityParams::paper_calibrated())
    }
}

/// Builds [`Firefly`] machines.
///
/// # Examples
///
/// ```
/// use firefly_sim::FireflyBuilder;
/// use firefly_core::ProtocolKind;
///
/// let machine = FireflyBuilder::microvax(3)
///     .protocol(ProtocolKind::Dragon)
///     .seed(7)
///     .build();
/// assert_eq!(machine.cpus(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct FireflyBuilder {
    variant: MachineVariant,
    cpus: usize,
    memory_mb: u64,
    protocol: ProtocolKind,
    cache: Option<CacheGeometry>,
    cpu_config: Option<CpuConfig>,
    workload: Workload,
    io: bool,
    seed: u64,
    trace_events: usize,
    faults: FaultConfig,
    engine: EngineMode,
    arbiter: ArbiterKind,
    bus_mode: BusMode,
}

impl FireflyBuilder {
    /// A MicroVAX Firefly with `cpus` processors and 16 MB.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cpus <= 14` (the synthetic workload layout
    /// limit; the real machine stopped at seven).
    pub fn microvax(cpus: usize) -> Self {
        assert!((1..=14).contains(&cpus), "1..=14 processors supported, got {cpus}");
        FireflyBuilder {
            variant: MachineVariant::MicroVax,
            cpus,
            memory_mb: 16,
            protocol: ProtocolKind::Firefly,
            cache: None,
            cpu_config: None,
            workload: Workload::default(),
            io: false,
            seed: 0xf1ef1e,
            trace_events: 0,
            faults: FaultConfig::default(),
            engine: EngineMode::default(),
            arbiter: ArbiterKind::default(),
            bus_mode: BusMode::default(),
        }
    }

    /// A CVAX Firefly with `cpus` processors and 128 MB.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cpus <= 14`.
    pub fn cvax(cpus: usize) -> Self {
        FireflyBuilder {
            variant: MachineVariant::CVax,
            memory_mb: 128,
            ..FireflyBuilder::microvax(cpus)
        }
    }

    /// Overrides the coherence protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the cache geometry (cache-sweep ablation).
    pub fn cache(mut self, cache: CacheGeometry) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the processor configuration (e.g. to enable prefetch).
    pub fn cpu_config(mut self, cpu: CpuConfig) -> Self {
        self.cpu_config = Some(cpu);
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Attaches the I/O system (QBus devices on port 0's cache).
    ///
    /// Port 0 then carries *both* its processor and DMA; the paper's
    /// machine works the same way.
    pub fn with_io(mut self) -> Self {
        self.io = true;
        self
    }

    /// Sets the RNG seed (runs are deterministic given it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets main memory size in megabytes.
    pub fn memory_mb(mut self, mb: u64) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Enables structured event tracing (see [`firefly_core::events`])
    /// into a ring of at most `capacity` events. Zero — the default —
    /// keeps tracing off and the hot path untouched.
    pub fn trace_events(mut self, capacity: usize) -> Self {
        self.trace_events = capacity;
        self
    }

    /// Selects the simulation engine. The default is
    /// [`EngineMode::EventDriven`]; pass [`EngineMode::Ticked`] to run
    /// on the cycle-by-cycle reference engine.
    pub fn engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the MBus arbitration discipline (see
    /// [`firefly_core::arbiter`]). The default is the hardware's
    /// fixed-priority daisy chain.
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Selects the MBus transaction mode: the paper's unified
    /// one-at-a-time bus (default) or the split-transaction variant that
    /// pipelines two transactions at a two-cycle offset.
    pub fn bus_mode(mut self, mode: BusMode) -> Self {
        self.bus_mode = mode;
        self
    }

    /// Installs a fault-injection plan (see [`firefly_core::fault`]).
    /// The plan drives the memory system's bus/ECC/tag fault sites and,
    /// when I/O is attached, the device-level sites too. The default
    /// (all-zero) plan leaves the machine bit-identical.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Assembles the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g.
    /// memory beyond the variant's limit).
    pub fn build(self) -> Firefly {
        // With I/O attached, the DMA engine gets its own (no-allocate)
        // port after the processors.
        let ports = self.cpus + usize::from(self.io);
        let mut sys_cfg = match self.variant {
            MachineVariant::MicroVax => SystemConfig::microvax(ports),
            MachineVariant::CVax => SystemConfig::cvax(ports),
        }
        .with_memory_mb(self.memory_mb)
        .with_event_trace(self.trace_events)
        .with_faults(self.faults)
        .with_arbiter(self.arbiter)
        .with_bus_mode(self.bus_mode);
        if let Some(cache) = self.cache {
            sys_cfg = sys_cfg.with_cache(cache);
        }
        let sys = MemSystem::new(sys_cfg, self.protocol).expect("consistent configuration");

        let cpu_cfg = self.cpu_config.unwrap_or(match self.variant {
            MachineVariant::MicroVax => CpuConfig::microvax(),
            MachineVariant::CVax => CpuConfig::cvax(),
        });

        let streams: Vec<Box<dyn RefStream>> = match self.workload {
            Workload::Synthetic(params) => SyntheticWorkload::fleet(self.cpus, params, self.seed)
                .into_iter()
                .map(|w| Box::new(w) as Box<dyn RefStream>)
                .collect(),
            Workload::Multiprogram { processes, quantum, params } => (0..self.cpus)
                .map(|i| {
                    Box::new(MultiprogramWorkload::new(
                        processes,
                        quantum,
                        params,
                        self.seed ^ (i as u64) << 32,
                    )) as Box<dyn RefStream>
                })
                .collect(),
        };

        let processors = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Processor::new(PortId::new(i), cpu_cfg, s, self.seed ^ i as u64))
            .collect();

        let io = if self.io {
            let mut io = IoSystem::on_port(PortId::new(self.cpus));
            io.install_faults(&self.faults);
            Some(io)
        } else {
            None
        };
        Firefly {
            sys,
            processors,
            io,
            cpu_cfg,
            engine: self.engine,
            engine_stats: EngineStats::default(),
        }
    }
}

/// An assembled Firefly system (Figure 1 of the paper).
pub struct Firefly {
    sys: MemSystem,
    processors: Vec<Processor>,
    io: Option<IoSystem>,
    cpu_cfg: CpuConfig,
    engine: EngineMode,
    engine_stats: EngineStats,
}

impl Firefly {
    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.processors.len()
    }

    /// The memory system.
    pub fn memory(&self) -> &MemSystem {
        &self.sys
    }

    /// Mutable access to the memory system (e.g. to flush caches).
    pub fn memory_mut(&mut self) -> &mut MemSystem {
        &mut self.sys
    }

    /// The processors.
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// The processor configuration in force.
    pub fn cpu_config(&self) -> &CpuConfig {
        &self.cpu_cfg
    }

    /// The I/O system, if attached.
    pub fn io(&self) -> Option<&IoSystem> {
        self.io.as_ref()
    }

    /// Mutable access to the I/O system, if attached.
    pub fn io_mut(&mut self) -> Option<&mut IoSystem> {
        self.io.as_mut()
    }

    /// The engine this machine runs on.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Accumulated host-side event-engine counters (wake-ups fired, idle
    /// spans skipped) across every [`run`](Self::run) so far. All zero
    /// on the ticked engine. These measure the simulator, not the
    /// machine: they are excluded from snapshots and never influence
    /// results.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Runs the machine for `cycles` bus cycles on its engine. Processors
    /// whose port has been machine-checked offline are frozen rather than
    /// ticked, so a degraded machine keeps running on the survivors. An
    /// attached I/O system is the last agent in each cycle, after the
    /// processors.
    pub fn run(&mut self, cycles: u64) {
        self.engine_stats += match &mut self.io {
            None => self.engine.run(&mut self.processors, &mut self.sys, cycles),
            Some(io) => {
                let mut agents: Vec<&mut dyn Agent> =
                    self.processors.iter_mut().map(|p| p as &mut dyn Agent).collect();
                agents.push(io);
                self.engine.run(&mut agents, &mut self.sys, cycles)
            }
        };
    }

    /// Combined fault-injection and recovery counters: the memory
    /// system's (bus, ECC, tags, offlinings) merged with the attached
    /// devices' (QBus timeouts, packet loss, disk read errors).
    pub fn fault_stats(&self) -> FaultStats {
        let mut f = self.sys.fault_stats();
        if let Some(io) = &self.io {
            f += io.fault_stats();
        }
        f
    }

    /// Takes the structured errors surfaced by uncorrectable faults from
    /// the memory system and every attached device.
    pub fn drain_fault_errors(&mut self) -> Vec<Error> {
        let mut errors = self.sys.drain_fault_errors();
        if let Some(io) = &mut self.io {
            errors.extend(io.drain_fault_errors());
        }
        errors
    }

    /// The structured trace events captured so far (empty unless built
    /// with [`FireflyBuilder::trace_events`]). Leaves the ring intact.
    pub fn events(&self) -> Vec<firefly_core::events::Event> {
        self.sys.events()
    }

    /// Drains the structured trace events captured so far.
    pub fn take_events(&mut self) -> Vec<firefly_core::events::Event> {
        self.sys.take_events()
    }

    /// Serializes the complete machine state — memory system and every
    /// processor, including their reference streams and RNGs — into a
    /// self-describing checkpoint image. A machine restored from it with
    /// [`Firefly::load_snapshot`] continues **bit-identically** to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotUnsupported`] when the I/O system is
    /// attached (device state is not checkpointable), or when a
    /// processor's reference stream cannot serialize itself.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, Error> {
        if self.io.is_some() {
            return Err(Error::SnapshotUnsupported("io system state"));
        }
        let mut b = SnapshotBuilder::new();
        b.section("machine", |w| w.put(&self.processors.len()));
        b.image("memsys", |b| self.sys.save_sections(b));
        for (i, p) in self.processors.iter().enumerate() {
            b.section(&format!("cpu{i}"), |w| p.save_state(w))?;
        }
        Ok(b.finish())
    }

    /// Restores a checkpoint taken with [`Firefly::save_snapshot`] into
    /// this machine, which must have been built from the same
    /// configuration (any seed — every seeded stream is overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] / [`Error::SnapshotVersion`]
    /// for damaged or version-skewed images, and
    /// [`Error::SnapshotCorrupt`] when the image's CPU count, protocol
    /// or memory-system configuration (cache geometry, memory size, …)
    /// does not match this machine, or when an online processor waits
    /// on memory while its port holds no access (or the reverse).
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), Error> {
        if self.io.is_some() {
            return Err(Error::SnapshotUnsupported("io system state"));
        }
        let file = SnapshotFile::parse(bytes)?;
        let mut r = file.section("machine")?;
        let cpus: usize = r.get()?;
        if cpus != self.processors.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {cpus} CPUs, machine has {}",
                self.processors.len()
            )));
        }
        r.expect_end()?;
        let sys = MemSystem::restore_file(&file.nested("memsys")?)?;
        if sys.config() != self.sys.config() || sys.protocol_kind() != self.sys.protocol_kind() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot memory system ({} {:?}) does not match the machine's ({} {:?})",
                sys.protocol_kind(),
                sys.config(),
                self.sys.protocol_kind(),
                self.sys.config()
            )));
        }
        // The memory system is fully validated above; processor loads
        // mutate in place, so on a processor-level error the machine
        // must be discarded (rebuild it and load again).
        for (i, p) in self.processors.iter_mut().enumerate() {
            let mut r = file.section(&format!("cpu{i}"))?;
            p.load_state(&mut r)?;
            r.expect_end()?;
        }
        // A processor waits on memory exactly while its port holds the
        // access: one waiting over an empty port would wait forever, and
        // one computing over a busy port could never issue. An offline
        // port's processor is frozen and may disagree.
        if let Some(p) = self
            .processors
            .iter()
            .find(|p| sys.is_online(p.port()) && p.waits_on_memory() != sys.has_access(p.port()))
        {
            return Err(Error::SnapshotCorrupt(format!(
                "processor on {} {} memory, but its port {} an access",
                p.port(),
                if p.waits_on_memory() { "waits on" } else { "does not wait on" },
                if sys.has_access(p.port()) { "holds" } else { "holds no" }
            )));
        }
        self.sys = sys;
        Ok(())
    }

    /// Warm-up then measure: returns a [`crate::Measurement`] over the
    /// measurement window.
    pub fn measure(&mut self, warmup_cycles: u64, measure_cycles: u64) -> crate::Measurement {
        self.run(warmup_cycles);
        let snap = crate::measure::Snapshot::take(self);
        self.run(measure_cycles);
        snap.finish(self, measure_cycles)
    }

    /// A structural inventory of the machine (the Figure 1 diagram in
    /// text form).
    pub fn inventory(&self) -> String {
        use std::fmt::Write as _;
        let cfg = self.sys.config();
        let mut s = String::new();
        let _ = writeln!(s, "Firefly system ({:?})", cfg.variant());
        let _ = writeln!(
            s,
            "  {} processor(s), each behind a {} KB direct-mapped cache ({} x {}-byte lines)",
            self.cpus(),
            cfg.cache().size_bytes() / 1024,
            cfg.cache().lines(),
            cfg.cache().line_words() * 4,
        );
        let _ = writeln!(
            s,
            "  MBus: 10 MB/s, 4 x 100 ns cycles per transfer, protocol = {}",
            self.sys.protocol_kind()
        );
        let _ = writeln!(
            s,
            "  main memory: {} MB in {} module(s)",
            cfg.memory_bytes() >> 20,
            cfg.memory_modules()
        );
        match &self.io {
            Some(_) => {
                let _ = writeln!(
                    s,
                    "  QBus on P0 (the I/O processor): RQDX3 disk, DEQNA Ethernet, MDC display"
                );
            }
            None => {
                let _ = writeln!(s, "  (no I/O devices attached)");
            }
        }
        s
    }
}

impl fmt::Debug for Firefly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Firefly")
            .field("cpus", &self.cpus())
            .field("protocol", &self.sys.protocol_kind())
            .field("io", &self.io.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_core::protocol::ProtocolKind;

    #[test]
    fn builder_defaults() {
        let m = FireflyBuilder::microvax(5).build();
        assert_eq!(m.cpus(), 5);
        assert_eq!(m.memory().protocol_kind(), ProtocolKind::Firefly);
        assert_eq!(m.memory().config().memory_bytes(), 16 << 20);
        assert!(m.io().is_none());
    }

    #[test]
    fn cvax_builder() {
        let m = FireflyBuilder::cvax(4).build();
        assert_eq!(m.memory().config().cache().size_bytes(), 64 * 1024);
        assert_eq!(m.memory().config().memory_bytes(), 128 << 20);
    }

    #[test]
    fn machine_runs_and_makes_references() {
        let mut m = FireflyBuilder::microvax(2).seed(3).build();
        m.run(50_000);
        for p in 0..2 {
            assert!(m.memory().cache_stats(PortId::new(p)).cpu_refs() > 1_000, "CPU {p}");
        }
    }

    #[test]
    fn io_attached_machine_runs() {
        let mut m = FireflyBuilder::microvax(2).with_io().build();
        m.run(30_000);
        assert!(m.io().unwrap().mdc().stats().polls > 0, "the MDC polls its queue");
    }

    #[test]
    fn inventory_mentions_the_parts() {
        let m = FireflyBuilder::microvax(5).with_io().build();
        let inv = m.inventory();
        assert!(inv.contains("5 processor(s)"));
        assert!(inv.contains("16 KB"));
        assert!(inv.contains("QBus"));
        assert!(inv.contains("MDC"));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = FireflyBuilder::microvax(3).seed(seed).build();
            m.run(40_000);
            m.memory().bus_stats().ops()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn event_tracing_captures_bus_and_transitions() {
        use firefly_core::events::EventKind;
        let mut m = FireflyBuilder::microvax(2).seed(3).trace_events(4096).build();
        m.run(5_000);
        let evts = m.events();
        assert!(evts.iter().any(|e| matches!(e.kind, EventKind::BusCompleted { .. })));
        assert!(evts.iter().any(|e| matches!(e.kind, EventKind::Transition { .. })));
        assert!(!m.take_events().is_empty());
        assert!(m.events().is_empty(), "take drains the ring");
        // Untraced machines stay silent and free.
        let mut m = FireflyBuilder::microvax(2).seed(3).build();
        m.run(1_000);
        assert!(m.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=14")]
    fn too_many_cpus_rejected() {
        let _ = FireflyBuilder::microvax(15);
    }

    #[test]
    fn builder_installs_a_fault_plan_end_to_end() {
        let plan = FaultConfig::correctable(0xfab1e, 40_000);
        let mut m = FireflyBuilder::microvax(3).seed(7).with_io().faults(plan).build();
        m.run(60_000);
        let f = m.fault_stats();
        assert!(f.total_injected() > 0, "a 4% plan fires within 60k cycles: {f:?}");
        assert_eq!(f.ecc_uncorrected, 0, "correctable plan never loses data");
        assert_eq!(f.cpus_offlined, 0);
        assert!(m.drain_fault_errors().is_empty(), "correctable faults surface no errors");
    }

    #[test]
    fn uncorrectable_plan_degrades_without_panicking() {
        let plan = FaultConfig { seed: 0xdead, ecc_double_ppm: 2_000, ..FaultConfig::default() };
        let mut m = FireflyBuilder::microvax(4).seed(11).faults(plan).build();
        m.run(20_000);
        let f = m.fault_stats();
        assert!(f.ecc_uncorrected > 0, "2000 ppm double-bit faults fire in 20k cycles");
        assert!(f.cpus_offlined > 0, "uncorrectable ECC machine-checks the initiator");
        let online = m.memory().online_count();
        assert!((1..4).contains(&online), "the machine degrades to survivors, got {online}");
        let errors = m.drain_fault_errors();
        assert!(
            errors.iter().any(|e| matches!(e, Error::EccUncorrectable { .. })),
            "errors: {errors:?}"
        );
        // The degraded machine keeps running on the remaining CPUs.
        let before = m.memory().bus_stats().ops();
        m.run(20_000);
        assert!(m.memory().bus_stats().ops() > before, "survivors still make bus references");
    }

    #[test]
    fn snapshot_resume_is_bit_identical_for_both_workloads() {
        for workload in [
            Workload::default(),
            Workload::Multiprogram {
                processes: 3,
                quantum: 2_000,
                params: LocalityParams::paper_calibrated(),
            },
        ] {
            let build = |seed| {
                FireflyBuilder::microvax(3)
                    .workload(workload)
                    .protocol(ProtocolKind::Dragon)
                    .seed(seed)
                    .trace_events(512)
                    .faults(FaultConfig::correctable(0xf00d, 25_000))
                    .build()
            };
            let mut m = build(7);
            m.run(30_000);
            let snap = m.save_snapshot().expect("snapshot");
            // Same builder, *different* seed: restore must erase it all.
            let mut twin = build(999);
            twin.load_snapshot(&snap).expect("load");
            m.run(30_000);
            twin.run(30_000);
            assert_eq!(m.memory().cycle(), twin.memory().cycle());
            assert_eq!(m.events(), twin.events());
            assert_eq!(m.fault_stats(), twin.fault_stats());
            assert_eq!(
                m.save_snapshot().unwrap(),
                twin.save_snapshot().unwrap(),
                "continuations are byte-identical"
            );
        }
    }

    #[test]
    fn snapshot_rejects_io_machines_and_shape_mismatches() {
        let m = FireflyBuilder::microvax(2).with_io().build();
        assert!(matches!(m.save_snapshot(), Err(Error::SnapshotUnsupported(_))));

        let m2 = FireflyBuilder::microvax(2).build();
        let snap = m2.save_snapshot().unwrap();
        let mut wrong = FireflyBuilder::microvax(3).build();
        assert!(matches!(wrong.load_snapshot(&snap), Err(Error::SnapshotCorrupt(_))));

        // Same CPU count, another memory system: the image must not
        // replace the machine's protocol, cache geometry or memory size.
        let snap = FireflyBuilder::microvax(4).build().save_snapshot().unwrap();
        for mut other in [
            FireflyBuilder::microvax(4).protocol(ProtocolKind::Dragon).build(),
            FireflyBuilder::microvax(4).cache(CacheGeometry::new(256, 1).unwrap()).build(),
            FireflyBuilder::microvax(4).memory_mb(4).build(),
        ] {
            let before = (other.memory().protocol_kind(), other.memory().config().clone());
            assert!(matches!(other.load_snapshot(&snap), Err(Error::SnapshotCorrupt(_))));
            assert_eq!((other.memory().protocol_kind(), other.memory().config().clone()), before);
        }
        assert!(matches!(
            FireflyBuilder::microvax(2).build().load_snapshot(b"junk"),
            Err(Error::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn fault_injection_is_seed_reproducible_at_machine_level() {
        let run = |seed| {
            let plan = FaultConfig::correctable(seed, 30_000);
            let mut m = FireflyBuilder::microvax(3).seed(5).with_io().faults(plan).build();
            m.run(50_000);
            (m.memory().bus_stats().ops(), m.fault_stats())
        };
        assert_eq!(run(0xabc), run(0xabc));
        assert_ne!(run(0xabc).1, run(0xabd).1);
    }
}
