//! Exhaustive reachable-state exploration of small configurations.
//!
//! The explorer drives the *same* cycle-level engine
//! ([`firefly_core::system::MemSystem`]) and the same [`ProtocolTable`]
//! as every other consumer — nothing is re-modeled — and applies the
//! full invariant battery at **every** reachable state, not just at
//! sampled quiescent points:
//!
//! * the structural [`CoherenceChecker::check`] invariants, Tardis
//!   timestamp structure included,
//! * the serialization invariants
//!   ([`CoherenceChecker::check_serialized`]): write serialization and
//!   single-writer order against an oracle of last-written values,
//! * the order of each completed access under Tardis
//!   ([`CoherenceChecker::check_access`]),
//! * read-your-writes: every read returns the last serialized write.
//!
//! Every access goes through [`McOp::issue`], and every checked access
//! through one step, `apply_checked`, that runs that battery: expansion,
//! [`replay_violation`], [`counterexample`] and the litmus runner
//! ([`crate::litmus`]) all share it, so a check added there reaches all
//! four.
//!
//! States are hash-consed by their observable footprint (per-cache
//! resident lines with state and data, plus the tracked memory words);
//! anything that re-derives from the footprint — cycle counters,
//! statistics — is deliberately excluded so the BFS closes. A state is
//! *represented* by its shortest op path from reset, which is what
//! minimization and [`McViolation`] report. Expansion replays that path
//! once and then tries each op on a clone of the replayed `MemSystem`;
//! at model-checking scale a replay is a few hundred bus cycles. The
//! default configurations close in about a second or less, but the
//! space grows fast with the configuration: Tardis at 3 caches × 2
//! words has about a million states. The frontier holds paths, not
//! systems: storing a system per frontier state would trade a short
//! replay for the memory of every state's caches and main memory at
//! once.
//!
//! Each BFS level fans its expansions out on the deterministic worker
//! pool ([`firefly_sim::harness::run_jobs`]); results are merged in job
//! order, so explored-state counts and the first violation found are
//! bit-identical at any `FIREFLY_JOBS` width. Every engine built records
//! which table entries it consulted; the report ORs those records
//! ([`McReport::exercised`]), which is what the mutation pass reads.

use firefly_core::check::{CoherenceChecker, TsAccess};
use firefly_core::config::SystemConfig;
use firefly_core::events::{chrome_trace, timeline, Event};
use firefly_core::protocol::{ExerciseLog, ProcOp, ProtocolKind, ProtocolTable};
use firefly_core::system::{AccessResult, MemSystem, Request};
use firefly_core::{Addr, CacheGeometry, Error, LineId, PortId};
use firefly_core::{ArbiterKind, BusMode};
use firefly_sim::harness::panic_message;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One model-checking operation: a processor access to a tracked word.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum McOp {
    /// CPU `cpu` reads tracked word `word`.
    Read {
        /// Issuing processor index.
        cpu: usize,
        /// Tracked word index.
        word: u32,
    },
    /// CPU `cpu` writes `value` to tracked word `word`.
    Write {
        /// Issuing processor index.
        cpu: usize,
        /// Tracked word index.
        word: u32,
        /// Value written (drawn from the small model domain).
        value: u32,
    },
}

impl McOp {
    pub(crate) fn addr(self) -> Addr {
        match self {
            McOp::Read { word, .. } | McOp::Write { word, .. } => Addr::from_word_index(word),
        }
    }

    /// The issuing CPU and the kind of access.
    pub(crate) fn access(self) -> (usize, ProcOp) {
        match self {
            McOp::Read { cpu, .. } => (cpu, ProcOp::Read),
            McOp::Write { cpu, .. } => (cpu, ProcOp::Write),
        }
    }

    /// Runs this op on `sys` to completion and, once a write completes,
    /// records its value in `oracle` (the last serialized write to each
    /// word, which the checks judge against). Every access the model
    /// checker makes, checked or replayed, goes through here.
    ///
    /// # Errors
    ///
    /// Returns the engine's error if the access fails; `oracle` is then
    /// left as it was.
    pub fn issue(
        self,
        sys: &mut MemSystem,
        oracle: &mut BTreeMap<Addr, u32>,
    ) -> Result<AccessResult, Error> {
        let addr = self.addr();
        let (cpu, req) = match self {
            McOp::Read { cpu, .. } => (cpu, Request::read(addr)),
            McOp::Write { cpu, value, .. } => (cpu, Request::write(addr, value)),
        };
        let done = sys.run_to_completion(PortId::new(cpu), req)?;
        if let McOp::Write { value, .. } = self {
            oracle.insert(addr, value);
        }
        Ok(done)
    }
}

impl fmt::Display for McOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McOp::Read { cpu, word } => write!(f, "P{cpu} R x{word}"),
            McOp::Write { cpu, word, value } => write!(f, "P{cpu} W x{word}={value}"),
        }
    }
}

/// A small configuration to enumerate exhaustively.
#[derive(Clone, Debug, Serialize)]
pub struct McConfig {
    /// The protocol under check.
    pub protocol: ProtocolKind,
    /// Number of caches/processors (2–3 suffices per Archibald & Baer).
    pub caches: usize,
    /// Number of distinct tracked memory words (1–2).
    pub words: u32,
    /// Size of the write-value domain (values `1..=values`; memory
    /// starts at 0, so `values >= 2` distinguishes any overwrite).
    pub values: u32,
    /// BFS depth bound (operations from reset).
    pub depth: usize,
    /// Cache slots; set to 1 to force every tracked word into one slot
    /// and exercise victimization/write-back paths.
    pub cache_lines: usize,
    /// The MBus arbitration policy. Accesses are serialized (one on the
    /// wires at a time), so every policy must yield the *identical*
    /// state graph — checking under each proves a policy cannot corrupt
    /// single-transaction semantics.
    pub arbiter: ArbiterKind,
    /// The bus transaction mode; like the arbiter, serialized traffic
    /// must make it observationally irrelevant.
    pub bus_mode: BusMode,
    /// The lease length used for timestamped protocols (ignored
    /// otherwise). Model checking wants the *shortest* lease: the
    /// timestamp rules are lease-independent, a short lease makes
    /// renewal paths reachable at shallow depth, and the timestamp
    /// abstraction clamps at `lease + 4`, so a short lease also keeps
    /// the reachable space small.
    pub lease: u64,
}

impl McConfig {
    /// The default checking configuration: 2 caches, 1 word, 2 values —
    /// the smallest configuration in which every sharing pattern of a
    /// line (exclusive, shared, ping-ponged, updated, invalidated) is
    /// reachable.
    ///
    /// Timestamped protocols (Tardis) default to 2 words instead:
    /// expiring a lease on one line requires writes that advance the
    /// writer's program timestamp *without* invalidating that line, so
    /// renewal paths are unreachable with a single tracked word. Their
    /// larger timestamped space closes at depth 11 under the default
    /// one-cycle model-checking lease; 12 leaves a margin.
    pub fn new(protocol: ProtocolKind) -> Self {
        let timestamped = protocol.is_timestamped();
        McConfig {
            protocol,
            caches: 2,
            words: if timestamped { 2 } else { 1 },
            values: 2,
            depth: if timestamped { 12 } else { 6 },
            cache_lines: 4,
            arbiter: ArbiterKind::default(),
            bus_mode: BusMode::default(),
            lease: 1,
        }
    }

    /// Sets the number of caches.
    pub fn with_caches(mut self, caches: usize) -> Self {
        self.caches = caches;
        self
    }

    /// Sets the number of tracked words.
    pub fn with_words(mut self, words: u32) -> Self {
        self.words = words;
        self
    }

    /// Sets the write-value domain size.
    pub fn with_values(mut self, values: u32) -> Self {
        self.values = values;
        self
    }

    /// Sets the BFS depth bound.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Sets the cache-slot count (1 forces conflict evictions).
    pub fn with_cache_lines(mut self, cache_lines: usize) -> Self {
        self.cache_lines = cache_lines;
        self
    }

    /// Sets the MBus arbitration policy to check under.
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Sets the bus transaction mode to check under.
    pub fn with_bus_mode(mut self, bus_mode: BusMode) -> Self {
        self.bus_mode = bus_mode;
        self
    }

    /// The canonical table for this configuration: the protocol's,
    /// except that timestamped kinds take the configured lease. The
    /// mutation pass edits copies of *this* table, so the clean run and
    /// every mutant agree on the lease.
    pub fn table(&self) -> ProtocolTable {
        let mut table = self.protocol.table();
        if let Some(ts) = &mut table.ts {
            ts.lease = self.lease;
        }
        table
    }

    /// Every operation any processor can perform on the tracked words.
    pub fn alphabet(&self) -> Vec<McOp> {
        let mut ops = Vec::new();
        for cpu in 0..self.caches {
            for word in 0..self.words {
                ops.push(McOp::Read { cpu, word });
                for value in 1..=self.values {
                    ops.push(McOp::Write { cpu, word, value });
                }
            }
        }
        ops
    }

    /// The engine configuration: `caches` ports with `cache_lines`
    /// one-word slots, 1 MB of memory, and the configured arbiter and
    /// bus mode.
    pub(crate) fn system_config(&self) -> SystemConfig {
        let geometry = CacheGeometry::new(self.cache_lines, 1)
            .expect("model-checking cache_lines must be a nonzero power of two");
        SystemConfig::microvax(self.caches)
            .with_cache(geometry)
            .with_memory_mb(1)
            .with_arbiter(self.arbiter)
            .with_bus_mode(self.bus_mode)
    }
}

/// An invariant violation found during exploration, with the op path
/// that reproduces it from reset.
#[derive(Clone, Debug, Serialize)]
pub struct McViolation {
    /// Minimized reproducing path (replay from reset, in order).
    pub path: Vec<McOp>,
    /// Length of the path as originally found, before minimization.
    pub raw_len: usize,
    /// The violated invariant, as reported by the checker.
    pub message: String,
}

/// The result of exploring one configuration.
#[derive(Clone, Debug, Serialize)]
pub struct McReport {
    /// The configuration explored.
    pub config: McConfig,
    /// Distinct reachable states visited (including the reset state).
    pub states: usize,
    /// Transitions (state × op expansions) examined.
    pub transitions: usize,
    /// Depth at which the frontier emptied, or `config.depth` if the
    /// bound was hit first.
    pub depth_reached: usize,
    /// Whether the reachable space closed before the depth bound — when
    /// true, the enumeration is *exhaustive*, not merely bounded.
    pub complete: bool,
    /// The first violation found, if any (`None` for a healthy protocol).
    pub violation: Option<McViolation>,
    /// The table entries the exploration's engines consulted (OR of
    /// every built system's record, so identical at any worker width).
    pub exercised: ExerciseLog,
}

/// The per-path replay outcome: the hash-consed key of the state the
/// path leads to, or the first invariant violation along it.
type StepResult = Result<StateKey, String>;

/// A state's observable footprint, canonicalized for hash-consing.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StateKey {
    /// Per port: resident lines as `(line, state index, data words)`,
    /// sorted by line id.
    ports: Vec<Vec<(u32, u8, Vec<u32>)>>,
    /// The tracked memory words.
    memory: Vec<u32>,
    /// The timestamp footprint (Tardis only; empty otherwise): program
    /// timestamps, global `(wts, rts)` pairs of the tracked lines, and
    /// the `(wts, rts)` pairs of every resident copy, in that order.
    ///
    /// Raw timestamps grow without bound, so they are *abstracted*:
    /// shifted down by their minimum and clamped at `lease + 4`. The
    /// protocol's timestamp rules only compare values at most a lease
    /// apart (serve if `pts <= rts`; grant `max(rts, pts + lease)`;
    /// order writes at `max(pts, rts + 1)`), so gaps beyond the clamp
    /// behave identically and the BFS closes. The abstraction only
    /// merges exploration — every visited state is still fully checked.
    ts: Vec<u64>,
}

fn state_key(cfg: &McConfig, sys: &MemSystem) -> StateKey {
    let mut ports = Vec::with_capacity(cfg.caches);
    for p in 0..cfg.caches {
        let mut resident: Vec<(u32, u8, Vec<u32>)> = sys
            .resident_lines(PortId::new(p))
            .into_iter()
            .map(|(line, state, data)| (line.raw(), state as u8, data.as_slice().to_vec()))
            .collect();
        resident.sort_unstable();
        ports.push(resident);
    }
    let memory = (0..cfg.words).map(|w| sys.peek_memory_word(Addr::from_word_index(w))).collect();
    let mut ts: Vec<u64> = Vec::new();
    if let Some(lease) = sys.ts_lease() {
        for p in 0..cfg.caches {
            ts.push(sys.tardis_pts(PortId::new(p)));
        }
        for line in tracked_lines(cfg) {
            let (wts, rts) = sys.tardis_global_ts(line);
            ts.push(wts);
            ts.push(rts);
        }
        // Residency itself is already in `ports`, so conditional
        // inclusion here cannot make distinct states collide.
        for p in 0..cfg.caches {
            for line in tracked_lines(cfg) {
                if let Some((wts, rts)) = sys.tardis_line_ts(PortId::new(p), line) {
                    ts.push(wts);
                    ts.push(rts);
                }
            }
        }
        let min = ts.iter().copied().min().unwrap_or(0);
        let cap = lease.saturating_add(4);
        for t in &mut ts {
            *t = (*t - min).min(cap);
        }
    }
    StateKey { ports, memory, ts }
}

fn build_system(cfg: &McConfig, table: ProtocolTable) -> MemSystem {
    MemSystem::with_table(cfg.system_config(), table)
        .expect("model-checking configuration is valid")
}

/// The invariant battery at reset, before any op has run.
pub(crate) fn check_reset(sys: &MemSystem) -> Result<(), String> {
    CoherenceChecker::new().check(sys).map_err(|e| format!("at reset: {e}"))
}

/// The checked step: issues `op` ([`McOp::issue`]) and runs the full
/// per-step invariant battery — read-your-writes, then
/// [`CoherenceChecker::check_serialized`], then
/// [`CoherenceChecker::check_access`]. Returns the value the op read
/// (for a write, the value written) or the first violation.
pub(crate) fn apply_checked(
    sys: &mut MemSystem,
    oracle: &mut BTreeMap<Addr, u32>,
    op: McOp,
) -> Result<u32, String> {
    let addr = op.addr();
    let (port, proc_op) = op.access();
    // Timestamp order properties are before/after relations: capture
    // the pre-state `check_access` needs (unused without timestamp
    // rules).
    let line = LineId::containing(addr, sys.config().cache().line_words());
    let pre = TsAccess {
        port,
        op: proc_op,
        addr,
        bus_ops: 0,
        pre_pts: sys.tardis_pts(PortId::new(port)),
        pre_wts: sys.tardis_global_ts(line).0,
    };
    let done = op.issue(sys, oracle).map_err(|e| format!("engine error applying [{op}]: {e}"))?;
    if let McOp::Read { .. } = op {
        let want = oracle.get(&addr).copied().unwrap_or(0);
        if done.value != want {
            return Err(format!(
                "read-your-writes: [{op}] returned {:#x} but the last \
                 serialized write to {addr} was {want:#x}",
                done.value
            ));
        }
    }
    let checker = CoherenceChecker::new();
    checker
        .check_serialized(sys, oracle)
        .and_then(|()| checker.check_access(sys, &TsAccess { bus_ops: done.bus_ops, ..pre }))
        .map_err(|e| format!("after [{op}]: {e}"))?;
    Ok(done.value)
}

/// Replays `path` from reset with full per-step checking. Returns the
/// first violation, or `None` if the path is clean. Engine panics
/// (mutants can trip debug assertions) are reported as violations.
pub fn replay_violation(cfg: &McConfig, table: ProtocolTable, path: &[McOp]) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut sys = build_system(cfg, table);
        let mut oracle = BTreeMap::new();
        check_reset(&sys)?;
        path.iter().try_for_each(|&op| apply_checked(&mut sys, &mut oracle, op).map(drop))
    }))
    .unwrap_or_else(|payload| Err(format!("engine panic: {}", panic_message(payload))))
    .err()
}

/// Expands one state (represented by its path): replays the path once,
/// then tries every op in the alphabet on a clone of the replayed
/// system and oracle, reporting each successor's key or the violation
/// it triggers, and the table entries the trials consulted. A clone per
/// op keeps each trial independent — a violating op must not poison
/// its siblings — and a trial that panics merges no exercise record.
fn expand(cfg: &McConfig, table: ProtocolTable, path: &[McOp]) -> (Vec<StepResult>, ExerciseLog) {
    let mut exercised = ExerciseLog::default();
    let mut sys = build_system(cfg, table);
    let mut oracle = BTreeMap::new();
    for &prev in path {
        // The path was validated when its own state was discovered;
        // only the new ops need checking.
        prev.issue(&mut sys, &mut oracle).expect("validated prefix replays cleanly");
    }
    let results = cfg
        .alphabet()
        .iter()
        .map(|&op| {
            let key = catch_unwind(AssertUnwindSafe(|| {
                let mut sys = sys.clone();
                let mut oracle = oracle.clone();
                let result = apply_checked(&mut sys, &mut oracle, op).map(|_| state_key(cfg, &sys));
                exercised.merge(sys.exercised());
                result
            }));
            key.unwrap_or_else(|_| {
                // Re-derive the panic message with full checking so the
                // report points at the first broken step.
                let mut trial = path.to_vec();
                trial.push(op);
                Err(replay_violation(cfg, table, &trial)
                    .unwrap_or_else(|| "engine panic during expansion".to_string()))
            })
        })
        .collect();
    (results, exercised)
}

/// Exhaustively explores `cfg` with its canonical table
/// ([`McConfig::table`]).
pub fn explore(cfg: &McConfig) -> McReport {
    explore_with(cfg, cfg.table())
}

/// Exhaustively explores `cfg` driving `table` (a mutant, in the
/// mutation pass). The worker-pool width comes from `FIREFLY_JOBS`;
/// results are identical at any width.
pub fn explore_with(cfg: &McConfig, table: ProtocolTable) -> McReport {
    explore_workers(cfg, table, firefly_sim::harness::worker_count())
}

/// [`explore_with`] at an explicit worker-pool width (the determinism
/// tests compare widths directly instead of racing the environment).
pub fn explore_workers(cfg: &McConfig, table: ProtocolTable, workers: usize) -> McReport {
    let mut report = McReport {
        config: cfg.clone(),
        states: 0,
        transitions: 0,
        depth_reached: 0,
        complete: false,
        violation: None,
        exercised: ExerciseLog::default(),
    };

    // The reset state.
    let init = catch_unwind(AssertUnwindSafe(|| {
        let sys = build_system(cfg, table);
        check_reset(&sys).map(|()| state_key(cfg, &sys))
    }))
    .unwrap_or_else(|_| Err("engine panic at reset".to_string()));
    let init_key = match init {
        Ok(k) => k,
        Err(message) => {
            report.violation = Some(McViolation { path: Vec::new(), raw_len: 0, message });
            return report;
        }
    };

    let mut seen: HashSet<StateKey> = HashSet::new();
    seen.insert(init_key);
    report.states = 1;

    let alphabet = cfg.alphabet();
    let mut frontier: Vec<Vec<McOp>> = vec![Vec::new()];
    for level in 0..cfg.depth {
        let expansions = firefly_sim::harness::run_jobs_with(workers, &frontier, |path| {
            expand(cfg, table, path)
        });

        let mut next: Vec<Vec<McOp>> = Vec::new();
        for (path, (results, exercised)) in frontier.iter().zip(&expansions) {
            report.exercised.merge(exercised);
            for (op, outcome) in alphabet.iter().zip(results) {
                report.transitions += 1;
                match outcome {
                    Err(message) => {
                        let mut raw = path.clone();
                        raw.push(*op);
                        report.depth_reached = level + 1;
                        report.violation = Some(minimize(cfg, table, raw, message.clone()));
                        return report;
                    }
                    Ok(key) => {
                        if seen.insert(key.clone()) {
                            report.states += 1;
                            let mut extended = path.clone();
                            extended.push(*op);
                            next.push(extended);
                        }
                    }
                }
            }
        }
        report.depth_reached = level + 1;
        if next.is_empty() {
            report.complete = true;
            break;
        }
        frontier = next;
    }
    report
}

/// Greedy delta-debugging: repeatedly drop ops that the violation does
/// not need. The result is 1-minimal — removing any single remaining op
/// makes the violation disappear.
fn minimize(cfg: &McConfig, table: ProtocolTable, raw: Vec<McOp>, message: String) -> McViolation {
    let raw_len = raw.len();
    let mut path = raw;
    let mut message = message;
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < path.len() {
            let mut candidate = path.clone();
            candidate.remove(i);
            if let Some(m) = replay_violation(cfg, table, &candidate) {
                path = candidate;
                message = m;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    McViolation { path, raw_len, message }
}

/// A minimized, replayable counterexample with its rendered traces.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The minimized op path (replay from reset).
    pub ops: Vec<McOp>,
    /// The violated invariant.
    pub message: String,
    /// The cycle-level events of the replay.
    pub events: Vec<Event>,
}

impl Counterexample {
    /// The human-readable MBus timeline of the replay
    /// (see [`firefly_core::events::timeline`]).
    pub fn timeline(&self) -> String {
        timeline(&self.events)
    }

    /// The Chrome trace-event JSON of the replay (load in Perfetto;
    /// see [`firefly_core::events::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }

    /// The op path as one replayable line per step.
    pub fn script(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{i:>3}: {op}\n"));
        }
        out
    }
}

/// Replays a violation through the checked step with event tracing
/// enabled and packages the resulting cycle-level trace. Events are
/// captured up to and including the violating step (even when that step
/// panics the engine); the replay stops there.
pub fn counterexample(
    cfg: &McConfig,
    table: ProtocolTable,
    violation: &McViolation,
) -> Counterexample {
    let syscfg = cfg.system_config().with_event_trace(65_536);
    let mut sys =
        MemSystem::with_table(syscfg, table).expect("model-checking configuration is valid");
    let mut oracle = BTreeMap::new();
    for &op in &violation.path {
        // A mutant engine may panic mid-step; the ring still holds
        // everything emitted before the panic.
        let step = catch_unwind(AssertUnwindSafe(|| apply_checked(&mut sys, &mut oracle, op)));
        if !matches!(step, Ok(Ok(_))) {
            break;
        }
    }
    Counterexample {
        ops: violation.path.clone(),
        message: violation.message.clone(),
        events: sys.events(),
    }
}

/// The tracked lines of a configuration, one per tracked word (the
/// state key's timestamp footprint walks them).
pub fn tracked_lines(cfg: &McConfig) -> Vec<LineId> {
    (0..cfg.words).map(|w| LineId::containing(Addr::from_word_index(w), 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_covers_every_cpu_word_value() {
        let cfg = McConfig::new(ProtocolKind::Firefly);
        // 2 cpus × 1 word × (1 read + 2 writes)
        assert_eq!(cfg.alphabet().len(), 6);
    }

    #[test]
    fn firefly_default_config_closes_clean() {
        let report = explore(&McConfig::new(ProtocolKind::Firefly).with_depth(8));
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete, "state space must close before depth 8");
        assert!(report.states > 10, "expected a nontrivial space, got {}", report.states);
    }

    #[test]
    fn tardis_default_config_closes_clean() {
        let report = explore(&McConfig::new(ProtocolKind::Tardis));
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete, "timestamp abstraction must close the space");
        assert!(report.states > 10, "expected a nontrivial space, got {}", report.states);
    }

    #[test]
    fn exploration_is_deterministic_across_worker_counts() {
        let cfg = McConfig::new(ProtocolKind::Dragon).with_depth(5);
        let a = explore_workers(&cfg, cfg.table(), 1);
        for workers in [2, 3, 7] {
            let b = explore_workers(&cfg, cfg.table(), workers);
            assert_eq!(a.states, b.states, "state count diverged at {workers} workers");
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.complete, b.complete);
            assert_eq!(a.exercised, b.exercised, "exercise record diverged at {workers} workers");
        }
    }

    #[test]
    fn conflict_geometry_reaches_victim_paths() {
        // One cache slot and two words: every fill evicts the other
        // word, so write-back victimization is in the explored space.
        let cfg =
            McConfig::new(ProtocolKind::Berkeley).with_words(2).with_cache_lines(1).with_depth(4);
        let report = explore(&cfg);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.states > 20);
    }
}
