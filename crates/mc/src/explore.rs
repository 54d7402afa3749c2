//! Exhaustive reachable-state exploration of small configurations.
//!
//! The explorer drives the *same* cycle-level engine
//! ([`firefly_core::system::MemSystem`]) and the same [`ProtocolTable`]
//! as every other consumer — nothing is re-modeled — and applies the
//! full invariant battery at **every** reachable state, not just at
//! sampled quiescent points:
//!
//! * the five [`CoherenceChecker`] structural invariants,
//! * the serialization invariants
//!   ([`CoherenceChecker::check_serialized`]): write serialization and
//!   single-writer order against an oracle of last-written values,
//! * read-your-writes: every read returns the last serialized write.
//!
//! States are hash-consed by their observable footprint (per-cache
//! resident lines with state and data, plus the tracked memory words);
//! anything that re-derives from the footprint — cycle counters,
//! statistics — is deliberately excluded so the BFS closes. Because
//! `MemSystem` is not `Clone`, a state is *represented* by its shortest
//! op path from reset and expansion replays that path; at model-checking
//! scale (2–3 caches, 1–2 words) a replay is a few hundred bus cycles
//! and the whole space closes in well under a second.
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
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, CacheGeometry, LineId, PortId};
use firefly_core::{ArbiterKind, BusMode};
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
    fn addr(self) -> Addr {
        match self {
            McOp::Read { word, .. } | McOp::Write { word, .. } => Addr::from_word_index(word),
        }
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

    /// Sets the lease length for timestamped protocols.
    pub fn with_ts_lease(mut self, lease: u64) -> Self {
        self.lease = lease;
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

    fn system_config(&self) -> SystemConfig {
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

/// Applies one op and runs the full per-step invariant battery.
/// Returns the violation message, if any.
fn apply_checked(
    sys: &mut MemSystem,
    oracle: &mut BTreeMap<Addr, u32>,
    checker: &CoherenceChecker,
    op: McOp,
) -> Option<String> {
    let addr = op.addr();
    // Timestamp order properties are before/after relations: capture the
    // pre-state the oracle needs (Tardis only).
    let pre = sys.timestamps_enabled().then(|| {
        let (cpu, proc_op) = match op {
            McOp::Read { cpu, .. } => (cpu, ProcOp::Read),
            McOp::Write { cpu, .. } => (cpu, ProcOp::Write),
        };
        TsAccess {
            port: cpu,
            op: proc_op,
            addr,
            bus_ops: 0,
            pre_pts: sys.tardis_pts(PortId::new(cpu)),
            pre_wts: sys.tardis_global_ts(LineId::containing(addr, 1)).0,
        }
    });
    let result = match op {
        McOp::Read { cpu, .. } => sys.run_to_completion(PortId::new(cpu), Request::read(addr)),
        McOp::Write { cpu, value, .. } => {
            let r = sys.run_to_completion(PortId::new(cpu), Request::write(addr, value));
            if r.is_ok() {
                oracle.insert(addr, value);
            }
            r
        }
    };
    let outcome = match result {
        Ok(done) => done,
        Err(e) => return Some(format!("engine error applying [{op}]: {e}")),
    };
    if let McOp::Read { .. } = op {
        let want = oracle.get(&addr).copied().unwrap_or(0);
        if outcome.value != want {
            return Some(format!(
                "read-your-writes: [{op}] returned {:#x} but the last \
                 serialized write to {addr} was {want:#x}",
                outcome.value
            ));
        }
    }
    if let Err(e) = checker.check_serialized(sys, oracle) {
        return Some(format!("after [{op}]: {e}"));
    }
    let access = pre.map(|a| TsAccess { bus_ops: outcome.bus_ops, ..a });
    checker.check_timestamp_order(sys, access.as_ref()).err().map(|e| format!("after [{op}]: {e}"))
}

/// Replays `path` from reset with full per-step checking. Returns the
/// first violation, or `None` if the path is clean. Engine panics
/// (mutants can trip debug assertions) are reported as violations.
pub fn replay_violation(cfg: &McConfig, table: ProtocolTable, path: &[McOp]) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sys = build_system(cfg, table);
        let mut oracle = BTreeMap::new();
        let checker = CoherenceChecker::new();
        if let Err(e) = checker.check(&sys).and_then(|()| checker.check_timestamp_order(&sys, None))
        {
            return Some(format!("at reset: {e}"));
        }
        for &op in path {
            if let Some(v) = apply_checked(&mut sys, &mut oracle, &checker, op) {
                return Some(v);
            }
        }
        None
    }));
    match outcome {
        Ok(v) => v,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Some(format!("engine panic: {msg}"))
        }
    }
}

/// Expands one state (represented by its path): replays the path, then
/// tries every op in the alphabet, reporting each successor's key or
/// the violation it triggers, and the table entries the trials
/// consulted. One rebuild per op keeps each trial independent — a
/// violating op must not poison its siblings.
fn expand(cfg: &McConfig, table: ProtocolTable, path: &[McOp]) -> (Vec<StepResult>, ExerciseLog) {
    let mut exercised = ExerciseLog::default();
    let results = cfg
        .alphabet()
        .iter()
        .map(|&op| {
            let mut trial: Vec<McOp> = path.to_vec();
            trial.push(op);
            let key = catch_unwind(AssertUnwindSafe(|| {
                let mut sys = build_system(cfg, table);
                let mut oracle = BTreeMap::new();
                let checker = CoherenceChecker::new();
                for &prev in path {
                    // The prefix was validated when its own state was
                    // discovered; only the new op needs checking.
                    apply(&mut sys, &mut oracle, prev);
                }
                let result = match apply_checked(&mut sys, &mut oracle, &checker, op) {
                    Some(v) => Err(v),
                    None => Ok(state_key(cfg, &sys)),
                };
                exercised.merge(sys.exercised());
                result
            }));
            match key {
                Ok(r) => r,
                Err(_) => {
                    // Re-derive the panic message with full checking so
                    // the report points at the first broken step.
                    Err(replay_violation(cfg, table, &trial)
                        .unwrap_or_else(|| "engine panic during expansion".to_string()))
                }
            }
        })
        .collect();
    (results, exercised)
}

/// Applies one op without invariant checking (validated-prefix replay).
fn apply(sys: &mut MemSystem, oracle: &mut BTreeMap<Addr, u32>, op: McOp) {
    let addr = op.addr();
    match op {
        McOp::Read { cpu, .. } => {
            sys.run_to_completion(PortId::new(cpu), Request::read(addr))
                .expect("validated prefix replays cleanly");
        }
        McOp::Write { cpu, value, .. } => {
            sys.run_to_completion(PortId::new(cpu), Request::write(addr, value))
                .expect("validated prefix replays cleanly");
            oracle.insert(addr, value);
        }
    }
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
    let checker = CoherenceChecker::new();
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
        checker
            .check(&sys)
            .and_then(|()| checker.check_timestamp_order(&sys, None))
            .map(|()| state_key(cfg, &sys))
            .map_err(|e| format!("at reset: {e}"))
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

/// Replays a violation with event tracing enabled and packages the
/// resulting cycle-level trace. Events are captured up to and including
/// the violating step (even when that step panics the engine).
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
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let addr = op.addr();
            match op {
                McOp::Read { cpu, .. } => {
                    let _ = sys.run_to_completion(PortId::new(cpu), Request::read(addr));
                }
                McOp::Write { cpu, value, .. } => {
                    if sys.run_to_completion(PortId::new(cpu), Request::write(addr, value)).is_ok()
                    {
                        oracle.insert(addr, value);
                    }
                }
            }
        }));
    }
    Counterexample {
        ops: violation.path.clone(),
        message: violation.message.clone(),
        events: sys.events(),
    }
}

/// The tracked lines of a configuration (used by litmus RefSim
/// cross-checks and reporting).
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
