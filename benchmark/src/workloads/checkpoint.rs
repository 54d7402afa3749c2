//! `checkpoint`: snapshot encode and decode of a machine and a fleet.
//!
//! One operation is a machine round trip (save the warm machine, load
//! the image into a twin, run the twin [`RUN_CYCLES`]) followed by
//! [`FLEET_TRIPS`] fleet round trips of the same shape. The originals
//! never advance, so every operation leaves the twins in the same state.
//! On the first untraced operation and every tenth after it, the twins
//! are saved again straight after loading (untimed) and must give back
//! the image byte for byte.

use super::{ns_since, Op, Size};
use crate::digest;
use crate::metrics::{ratio, Report};
use crate::spans::Tracer;
use firefly_sim::{Firefly, FireflyBuilder, Fleet, FleetConfig};
use std::time::Instant;

/// Cycles each twin runs after its load, so the restored state is used.
pub const RUN_CYCLES: u64 = 1_000;

/// Fleet round trips per operation.
pub const FLEET_TRIPS: usize = 10;

/// A set-up checkpoint workload.
pub struct Checkpoint {
    machine: Firefly,
    machine_twin: Firefly,
    fleet: Fleet,
    fleet_twin: Fleet,
    ops: u64,
    setup_digest: u64,
    machine_bytes: usize,
    fleet_bytes: usize,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint").field("ops", &self.ops).finish()
    }
}

const ROOT: &str = "snapshot.round_trips";
const MACHINE_SAVE: &str = "snapshot.machine_save";
const MACHINE_LOAD: &str = "snapshot.machine_load";
const MACHINE_RUN: &str = "snapshot.machine_run";
const FLEET_SAVE: &str = "snapshot.fleet_save";
const FLEET_LOAD: &str = "snapshot.fleet_load";
const FLEET_RUN: &str = "snapshot.fleet_run";

/// Times the operation's parts: into a tracer as child spans, or into a
/// plain sum.
enum Clock<'a> {
    Plain(u64),
    Traced(&'a mut Tracer),
}

impl Clock<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self {
            Clock::Plain(sum) => {
                let t = Instant::now();
                let out = f();
                *sum += ns_since(t);
                out
            }
            Clock::Traced(tr) => {
                let a = tr.now();
                let out = f();
                let b = tr.now();
                tr.child(name, a, b);
                out
            }
        }
    }
}

impl Checkpoint {
    /// A four-CPU paper machine warmed 2 M cycles and the partition-heal
    /// fleet (resilient policy) run to cycle 1.5 M, mid-partition, each
    /// with a twin built from the same configuration.
    ///
    /// # Errors
    ///
    /// Never, today; kept fallible like the other workloads.
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        let builder = FireflyBuilder::microvax(4).seed(seed);
        let mut machine = builder.clone().build();
        machine.run(size.cycles(2_000_000));
        let cfg = FleetConfig::partition_heal(seed, true);
        let mut fleet = Fleet::new(cfg);
        fleet.run_until(size.cycles(1_500_000));
        let setup_digest =
            digest::combine(&[digest::machine(machine.memory()), digest::fleet(&fleet)]);
        Ok(Checkpoint {
            machine,
            machine_twin: builder.build(),
            fleet,
            fleet_twin: Fleet::new(cfg),
            ops: 0,
            setup_digest,
            machine_bytes: 0,
            fleet_bytes: 0,
        })
    }

    /// Digest of the warm machine and fleet.
    pub fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    /// One operation, timed by its parts.
    ///
    /// # Errors
    ///
    /// When a save or load fails, or a re-save is not a fixed point.
    pub fn op(&mut self) -> Result<Op, String> {
        let mut clock = Clock::Plain(0);
        let digest = self.round_trips(&mut clock)?;
        let Clock::Plain(ns) = clock else { unreachable!("plain clock") };
        Ok(Op { ns, digest })
    }

    /// One operation with a span per part under one root span.
    ///
    /// # Errors
    ///
    /// As for [`Checkpoint::op`].
    pub fn traced_op(&mut self, tr: &mut Tracer) -> Result<Op, String> {
        let t = Instant::now();
        let start = tr.now();
        let digest = self.round_trips(&mut Clock::Traced(tr))?;
        tr.unit(ROOT, start, tr.now());
        Ok(Op { ns: ns_since(t), digest })
    }

    fn round_trips(&mut self, clock: &mut Clock<'_>) -> Result<u64, String> {
        // Traced operations skip the re-save: it would land in the root
        // span's self time.
        let fixed_point = self.ops.is_multiple_of(10) && matches!(clock, Clock::Plain(_));
        self.ops += 1;
        let machine = &self.machine;
        let image = clock
            .time(MACHINE_SAVE, || machine.save_snapshot())
            .map_err(|e| format!("save: {e}"))?;
        let twin = &mut self.machine_twin;
        clock
            .time(MACHINE_LOAD, || twin.load_snapshot(&image))
            .map_err(|e| format!("load: {e}"))?;
        if fixed_point && twin.save_snapshot().map_err(|e| format!("re-save: {e}"))? != image {
            return Err("machine image is not a save/load fixed point".into());
        }
        clock.time(MACHINE_RUN, || twin.run(RUN_CYCLES));
        self.machine_bytes = image.len();
        for trip in 0..FLEET_TRIPS {
            let fleet = &self.fleet;
            let image = clock.time(FLEET_SAVE, || fleet.save_snapshot());
            let twin = &mut self.fleet_twin;
            clock
                .time(FLEET_LOAD, || twin.load_snapshot(&image))
                .map_err(|e| format!("fleet load: {e}"))?;
            if fixed_point && trip == 0 && twin.save_snapshot() != image {
                return Err("fleet image is not a save/load fixed point".into());
            }
            clock.time(FLEET_RUN, || twin.run(RUN_CYCLES));
            self.fleet_bytes = image.len();
        }
        if fixed_point {
            if let Some(v) = self.fleet_twin.check_at_most_once().first() {
                return Err(format!("at-most-once violated after restore: {v}"));
            }
        }
        Ok(digest::combine(&[
            digest::machine(self.machine_twin.memory()),
            digest::fleet(&self.fleet_twin),
        ]))
    }

    /// Each part's share of the round trips, and the image sizes.
    pub fn layer_metrics(&self, tr: &Tracer, r: &mut Report) {
        let parts = [MACHINE_SAVE, MACHINE_LOAD, MACHINE_RUN, FLEET_SAVE, FLEET_LOAD, FLEET_RUN];
        let total = tr.self_ns(&parts) + tr.total(ROOT).self_ns;
        for name in parts {
            r.set(&format!("{name}_share"), ratio(tr.total(name).self_ns, total));
        }
        r.set("snapshot.machine_mb", self.machine_bytes as f64 / 1e6);
        r.set("snapshot.fleet_kb", self.fleet_bytes as f64 / 1e3);
    }
}
