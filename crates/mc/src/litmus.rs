//! A litmus-test DSL and its exhaustive-interleaving runner.
//!
//! Litmus tests are the memory-model community's unit tests: tiny
//! per-CPU programs plus a set of *forbidden* final register
//! valuations. The MBus serializes every access (one transaction on the
//! wires at a time, and [`McOp::issue`] retires each access before the
//! next issues), so the Firefly guarantees sequential
//! consistency by construction — the classic weak-memory outcomes
//! (store-buffering's `r0=0 & r1=0`, message-passing's stale flag) must
//! be unobservable under **every** interleaving and every protocol.
//!
//! The runner enumerates *all* order-preserving interleavings of the
//! programs and replays each through the cycle engine with the
//! explorer's own checked step ([`mod@crate::explore`]): every access runs
//! the same invariant battery the explorer applies at every state,
//! Tardis timestamp structure and per-access order included. After each
//! step the tag states are also cross-checked against the
//! reference-level simulator ([`RefSim`]) driving the same protocol
//! kind. Fault-overlapped variants rerun the same schedules with a
//! [`FaultConfig`]; recovery must leave every outcome unchanged.
//!
//! # Syntax
//!
//! ```text
//! # store buffering (SB)
//! test sb
//! cpu 0: W x 1 ; R y -> r0
//! cpu 1: W y 1 ; R x -> r1
//! forbid r0 = 0 & r1 = 0
//! ```
//!
//! Locations (`x`, `y`, …) map to distinct memory words in order of
//! first appearance; registers are per-test names bound by reads;
//! `forbid` clauses are conjunctions over final register values, any
//! number of clauses per test.

use crate::explore::{apply_checked, check_reset, McConfig, McOp};
use firefly_core::config::SystemConfig;
use firefly_core::fault::FaultConfig;
use firefly_core::protocol::{ProtocolKind, ProtocolTable};
use firefly_core::refsim::RefSim;
use firefly_core::system::MemSystem;
use firefly_core::{Addr, LineId, PortId};
use firefly_core::{ArbiterKind, BusMode};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One instruction of a litmus program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LitmusOp {
    /// Store `value` to location index `loc`.
    Write {
        /// Location index (into [`LitmusTest::locations`]).
        loc: usize,
        /// Value stored.
        value: u32,
    },
    /// Load location index `loc` into register `reg`.
    Read {
        /// Location index (into [`LitmusTest::locations`]).
        loc: usize,
        /// Destination register name.
        reg: String,
    },
}

/// A parsed litmus test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LitmusTest {
    /// Test name (from the `test` line).
    pub name: String,
    /// Per-CPU programs, indexed by CPU number.
    pub programs: Vec<Vec<LitmusOp>>,
    /// Forbidden final valuations: each clause is a conjunction of
    /// `(register, value)` equalities; observing any clause is a
    /// violation.
    pub forbidden: Vec<Vec<(String, u32)>>,
    /// Location names, in order of first appearance (the index is the
    /// memory word used).
    pub locations: Vec<String>,
}

/// Parses the DSL. Returns a readable error naming the offending line.
pub fn parse(text: &str) -> Result<LitmusTest, String> {
    let mut name = None;
    let mut programs: Vec<Vec<LitmusOp>> = Vec::new();
    let mut forbidden = Vec::new();
    let mut locations: Vec<String> = Vec::new();

    let loc_index = |ident: &str, locations: &mut Vec<String>| -> usize {
        match locations.iter().position(|l| l == ident) {
            Some(i) => i,
            None => {
                locations.push(ident.to_string());
                locations.len() - 1
            }
        }
    };

    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", n + 1);

        if let Some(rest) = line.strip_prefix("test ") {
            if name.is_some() {
                return Err(err("duplicate test line"));
            }
            let t = rest.trim();
            if t.is_empty() || !t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(err("test name must be [A-Za-z0-9_-]+"));
            }
            name = Some(t.to_string());
        } else if let Some(rest) = line.strip_prefix("cpu ") {
            let (idx, prog) = rest.split_once(':').ok_or_else(|| err("expected `cpu N: ops`"))?;
            let cpu: usize = idx.trim().parse().map_err(|_| err("cpu index must be an integer"))?;
            if cpu != programs.len() {
                return Err(err("cpu programs must appear in order 0, 1, …"));
            }
            let mut ops = Vec::new();
            for chunk in prog.split(';') {
                let toks: Vec<&str> = chunk.split_whitespace().collect();
                match toks.as_slice() {
                    ["W", loc, val] => {
                        let value = val.parse().map_err(|_| err("bad write value"))?;
                        ops.push(LitmusOp::Write { loc: loc_index(loc, &mut locations), value });
                    }
                    ["R", loc, "->", reg] => ops.push(LitmusOp::Read {
                        loc: loc_index(loc, &mut locations),
                        reg: (*reg).to_string(),
                    }),
                    [] => return Err(err("empty instruction")),
                    _ => return Err(err("expected `W loc val` or `R loc -> reg`")),
                }
            }
            if ops.is_empty() {
                return Err(err("cpu program has no instructions"));
            }
            programs.push(ops);
        } else if let Some(rest) = line.strip_prefix("forbid ") {
            let mut clause = Vec::new();
            for cond in rest.split('&') {
                let (reg, val) =
                    cond.split_once('=').ok_or_else(|| err("expected `reg = value`"))?;
                let value = val.trim().parse().map_err(|_| err("bad condition value"))?;
                clause.push((reg.trim().to_string(), value));
            }
            forbidden.push(clause);
        } else {
            return Err(err("expected `test`, `cpu`, or `forbid`"));
        }
    }

    let name = name.ok_or("missing `test` line")?;
    if programs.is_empty() {
        return Err("no cpu programs".to_string());
    }
    if programs.len() > 3 {
        return Err("at most 3 cpus (exhaustive interleaving)".to_string());
    }

    // Every register in a forbid clause must be bound by some read.
    let bound: BTreeSet<&str> = programs
        .iter()
        .flatten()
        .filter_map(|op| match op {
            LitmusOp::Read { reg, .. } => Some(reg.as_str()),
            LitmusOp::Write { .. } => None,
        })
        .collect();
    for clause in &forbidden {
        for (reg, _) in clause {
            if !bound.contains(reg.as_str()) {
                return Err(format!("forbid references unbound register {reg}"));
            }
        }
    }
    Ok(LitmusTest { name, programs, forbidden, locations })
}

/// Renders a test back to its canonical DSL text; `parse(&render(t))`
/// round-trips (the proptest suite pins this).
pub fn render(test: &LitmusTest) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "test {}", test.name);
    for (cpu, prog) in test.programs.iter().enumerate() {
        let ops: Vec<String> = prog
            .iter()
            .map(|op| match op {
                LitmusOp::Write { loc, value } => format!("W {} {value}", test.locations[*loc]),
                LitmusOp::Read { loc, reg } => format!("R {} -> {reg}", test.locations[*loc]),
            })
            .collect();
        let _ = writeln!(out, "cpu {cpu}: {}", ops.join(" ; "));
    }
    for clause in &test.forbidden {
        let conds: Vec<String> = clause.iter().map(|(reg, val)| format!("{reg} = {val}")).collect();
        let _ = writeln!(out, "forbid {}", conds.join(" & "));
    }
    out
}

/// Enumerates every order-preserving interleaving of the programs as
/// `(cpu, instruction index)` schedules.
pub fn interleavings(test: &LitmusTest) -> Vec<Vec<(usize, usize)>> {
    fn recurse(
        progress: &mut Vec<usize>,
        lens: &[usize],
        schedule: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
    ) {
        if progress.iter().zip(lens).all(|(&p, &l)| p == l) {
            out.push(schedule.clone());
            return;
        }
        for cpu in 0..lens.len() {
            if progress[cpu] < lens[cpu] {
                schedule.push((cpu, progress[cpu]));
                progress[cpu] += 1;
                recurse(progress, lens, schedule, out);
                progress[cpu] -= 1;
                schedule.pop();
            }
        }
    }
    let lens: Vec<usize> = test.programs.iter().map(Vec::len).collect();
    let mut out = Vec::new();
    recurse(&mut vec![0; lens.len()], &lens, &mut Vec::new(), &mut out);
    out
}

/// A forbidden outcome (or invariant violation) observed under one
/// specific schedule.
#[derive(Clone, Debug)]
pub struct LitmusViolation {
    /// The schedule that produced it, as explorer ops (replayable with
    /// [`crate::explore::replay_violation`] and renderable with
    /// [`crate::explore::counterexample`]).
    pub ops: Vec<McOp>,
    /// What went wrong.
    pub message: String,
}

/// The outcome of running one litmus test under one protocol.
#[derive(Clone, Debug)]
pub struct LitmusOutcome {
    /// Test name.
    pub name: String,
    /// Number of interleavings enumerated.
    pub interleavings: usize,
    /// Every distinct final register valuation observed (sorted, so the
    /// set is directly comparable across protocols and fault plans).
    pub outcomes: BTreeSet<Vec<(String, u32)>>,
    /// The first violation, if any.
    pub violation: Option<LitmusViolation>,
}

/// Converts a schedule into explorer ops (for replay and rendering).
fn schedule_ops(test: &LitmusTest, schedule: &[(usize, usize)]) -> Vec<McOp> {
    schedule
        .iter()
        .map(|&(cpu, i)| match &test.programs[cpu][i] {
            LitmusOp::Write { loc, value } => McOp::Write { cpu, word: *loc as u32, value: *value },
            LitmusOp::Read { loc, .. } => McOp::Read { cpu, word: *loc as u32 },
        })
        .collect()
}

/// Runs `test` under `kind` with no fault injection.
pub fn run(test: &LitmusTest, kind: ProtocolKind) -> LitmusOutcome {
    run_with(test, kind, FaultConfig::default())
}

/// Runs `test` under `kind` with `faults` injected.
///
/// Every interleaving is replayed through the cycle engine with the
/// full per-step invariant battery; with injection disabled, cache tag
/// states are additionally compared against [`RefSim`] move for move
/// (faults legitimately perturb tag states — a spurious `MShared` makes
/// the `Shared` bit stale-*true* — so the differential only applies to
/// fault-free runs; data and outcomes must match regardless).
pub fn run_with(test: &LitmusTest, kind: ProtocolKind, faults: FaultConfig) -> LitmusOutcome {
    run_configured(test, kind.table(), faults, ArbiterKind::default(), BusMode::default())
}

/// Runs `test` driving `table` (a mutant, in the mutation tests) with
/// `faults`, on a bus using `arbiter` and `bus_mode`. Litmus traffic is
/// serialized (one access on the wires at a time), so every arbitration
/// policy and both bus modes must produce the *same* outcome set — a
/// policy that could misroute, drop, or corrupt a lone transaction
/// fails here immediately. The reference simulator runs `table.kind`'s
/// canonical table.
pub fn run_configured(
    test: &LitmusTest,
    table: ProtocolTable,
    faults: FaultConfig,
    arbiter: ArbiterKind,
    bus_mode: BusMode,
) -> LitmusOutcome {
    let syscfg = system_config(test, table.kind)
        .with_arbiter(arbiter)
        .with_bus_mode(bus_mode)
        .with_faults(faults);
    let schedules = interleavings(test);
    let mut outcome = LitmusOutcome {
        name: test.name.clone(),
        interleavings: schedules.len(),
        outcomes: BTreeSet::new(),
        violation: None,
    };

    for schedule in &schedules {
        let ops = schedule_ops(test, schedule);
        let regs = match run_schedule(test, table, &syscfg, schedule, &ops) {
            Ok(regs) => regs,
            Err(message) => {
                outcome.violation = Some(LitmusViolation { ops, message });
                return outcome;
            }
        };

        // Forbidden-outcome assertions over the final register file.
        for clause in &test.forbidden {
            if clause.iter().all(|(reg, val)| regs.get(reg) == Some(val)) {
                let shown: Vec<String> = clause.iter().map(|(r, v)| format!("{r}={v}")).collect();
                outcome.violation = Some(LitmusViolation {
                    ops,
                    message: format!(
                        "forbidden outcome {{{}}} observed — sequential consistency broken",
                        shown.join(" & ")
                    ),
                });
                return outcome;
            }
        }
        outcome.outcomes.insert(regs.into_iter().collect());
    }
    outcome
}

/// The engine configuration for `test`: one port per program, built by
/// the same helper as the explorer's ([`McConfig`]'s default four
/// one-word cache slots and 1 MB of memory).
fn system_config(test: &LitmusTest, kind: ProtocolKind) -> SystemConfig {
    McConfig::new(kind).with_caches(test.programs.len()).system_config()
}

/// Replays one schedule (`ops` is its explorer form) through the
/// checked step. Without fault injection the tag states are compared
/// against [`RefSim`] after every step. Returns the final register file
/// or the first violation.
fn run_schedule(
    test: &LitmusTest,
    table: ProtocolTable,
    syscfg: &SystemConfig,
    schedule: &[(usize, usize)],
    ops: &[McOp],
) -> Result<BTreeMap<String, u32>, String> {
    let cpus = test.programs.len();
    let mut sys =
        MemSystem::with_table(syscfg.clone(), table).expect("litmus configuration is valid");
    let mut reference = RefSim::new(cpus, syscfg.cache(), table.kind);
    let compare_refsim = syscfg.faults().is_disabled();
    let mut oracle = BTreeMap::new();
    let mut regs = BTreeMap::new();
    check_reset(&sys)?;
    for (step, (&(cpu, i), &op)) in schedule.iter().zip(ops).enumerate() {
        let value =
            apply_checked(&mut sys, &mut oracle, op).map_err(|e| format!("step {step}: {e}"))?;
        reference.access(cpu, op.access().1, op.addr());
        if let LitmusOp::Read { reg, .. } = &test.programs[cpu][i] {
            regs.insert(reg.clone(), value);
        }
        if compare_refsim {
            for c in 0..cpus {
                for (w, loc) in test.locations.iter().enumerate() {
                    let line = LineId::containing(Addr::from_word_index(w as u32), 1);
                    let got = sys.peek_state(PortId::new(c), line);
                    let want = reference.state_of(c, line);
                    if got != want {
                        return Err(format!(
                            "step {step}: CPU {c} tag state for {loc} is {got:?} but the \
                             reference simulator (same tables) says {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(regs)
}

/// The built-in suite: the classic shapes every SC machine must pass,
/// plus timestamp-sensitive variants that straddle a Tardis lease.
///
/// * `sb` — store buffering: both CPUs must not read 0.
/// * `mp` — message passing: seeing the flag implies seeing the datum.
/// * `corr` — coherence of a single location: reads of one location
///   never go backwards.
/// * `coww` — single-location write serialization observed by a third
///   party: the final value is one of the two writes (enforced by the
///   oracle), and a reader never sees a value neither CPU wrote.
/// * `mp-lease` — message passing where the reader caches the datum
///   early, then performs enough private writes to push its program
///   timestamp past the datum's lease (the default Tardis lease is 8
///   cycles; ten writes guarantee strict expiry). The re-read after
///   seeing the flag must renew. A stale-lease serve cannot show in the
///   values: the writer's snooped write already expired the reader's
///   copy physically, so any copy still resident holds the current
///   value, and the read-your-writes oracle and the forbid clause both
///   pass. The per-access lease-discipline check
///   ([`CoherenceChecker::check_access`](firefly_core::check::CoherenceChecker::check_access))
///   is what catches it. Untimestamped protocols run the same
///   schedules and must agree.
/// * `sb-lease` — store buffering with the first flag read's lease
///   deliberately expired before the second read: reads of the flag
///   must never go backwards across the renewal boundary, and, as in
///   `mp-lease`, the second read must renew rather than serve past its
///   lease.
/// * `raw-ts` — same-cycle read-after-write: each CPU reads its own
///   store back with zero intervening operations, exercising the
///   `pts == rts` lease boundary (a write grants exactly `(t, t)`, so
///   the immediate self-read is served at lease-edge equality).
/// * `rr-share` — read-read sharing: both CPUs read a line neither
///   holds, so the second read snoops a clean exclusive copy; then each
///   writes and reads its own write back. It is the only built-in shape
///   that snoops a clean exclusive line with a read. Against the
///   explorer's mutants at `McConfig::new` the suite kills 66 of 69
///   with it (55 without); the three survivors are named in
///   `tests/litmus_suite.rs`.
pub fn builtin_suite() -> Vec<LitmusTest> {
    const TEXTS: [&str; 8] = [
        "# store buffering\n\
         test sb\n\
         cpu 0: W x 1 ; R y -> r0\n\
         cpu 1: W y 1 ; R x -> r1\n\
         forbid r0 = 0 & r1 = 0\n",
        "# message passing\n\
         test mp\n\
         cpu 0: W x 1 ; W y 1\n\
         cpu 1: R y -> r0 ; R x -> r1\n\
         forbid r0 = 1 & r1 = 0\n",
        "# coherence of a single location (CoRR)\n\
         test corr\n\
         cpu 0: W x 1\n\
         cpu 1: R x -> r0 ; R x -> r1\n\
         forbid r0 = 1 & r1 = 0\n",
        "# write serialization seen by a reader (CoWW + observer)\n\
         test coww\n\
         cpu 0: W x 1 ; W x 2\n\
         cpu 1: R x -> r0 ; R x -> r1\n\
         forbid r0 = 2 & r1 = 1\n",
        "# message passing across a lease expiry: the reader caches x\n\
         # early, expires its lease with ten private writes, then must\n\
         # still see the datum once the flag is visible\n\
         test mp-lease\n\
         cpu 0: W x 1 ; W y 1\n\
         cpu 1: R x -> r0 ; W z 1 ; W z 2 ; W z 3 ; W z 4 ; W z 5 ; \
                W z 6 ; W z 7 ; W z 8 ; W z 9 ; W z 10 ; R y -> r1 ; R x -> r2\n\
         forbid r1 = 1 & r2 = 0\n",
        "# store buffering with the flag's lease expired between reads:\n\
         # reads of y must not go backwards across the renewal\n\
         test sb-lease\n\
         cpu 0: W x 1 ; R y -> r0 ; W z 1 ; W z 2 ; W z 3 ; W z 4 ; \
                W z 5 ; W z 6 ; W z 7 ; W z 8 ; W z 9 ; W z 10 ; R y -> r1\n\
         cpu 1: W y 1 ; R x -> r2\n\
         forbid r0 = 0 & r2 = 0\n\
         forbid r0 = 1 & r1 = 0\n",
        "# same-cycle read-after-write: self-reads at the pts == rts\n\
         # lease boundary; opposing orders of the two writes cannot\n\
         # both be observed\n\
         test raw-ts\n\
         cpu 0: W x 1 ; R x -> r0\n\
         cpu 1: W x 2 ; R x -> r1\n\
         forbid r0 = 0\n\
         forbid r1 = 0\n\
         forbid r0 = 2 & r1 = 1\n",
        "# read-read sharing: both CPUs read a line neither holds, so a\n\
         # clean exclusive copy is snooped by a read, then each writes\n\
         # and reads its own write back\n\
         test rr-share\n\
         cpu 0: R x -> r0 ; W x 1 ; R x -> r3\n\
         cpu 1: R x -> r1 ; W x 2 ; R x -> r2\n\
         forbid r0 = 1\n\
         forbid r1 = 2\n\
         forbid r3 = 0\n\
         forbid r2 = 0\n\
         forbid r3 = 2 & r2 = 1\n",
    ];
    TEXTS.iter().map(|t| parse(t).expect("built-in litmus tests parse")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("test t\n").is_err(), "no programs");
        assert!(parse("test t\ncpu 0: Q x 1\n").is_err(), "bad opcode");
        assert!(parse("test t\ncpu 1: W x 1\n").is_err(), "cpu out of order");
        assert!(parse("test t\ncpu 0: W x 1\nforbid r9 = 0\n").is_err(), "unbound register");
    }

    #[test]
    fn builtin_suite_round_trips() {
        for test in builtin_suite() {
            let again = parse(&render(&test)).expect("rendered test parses");
            assert_eq!(again, test);
        }
    }

    #[test]
    fn interleaving_count_is_the_binomial() {
        let sb = &builtin_suite()[0];
        // C(4, 2) order-preserving merges of two 2-op programs.
        assert_eq!(interleavings(sb).len(), 6);
    }

    #[test]
    fn suite_passes_on_firefly() {
        for test in builtin_suite() {
            let out = run(&test, ProtocolKind::Firefly);
            assert!(out.violation.is_none(), "{}: {:?}", test.name, out.violation);
            assert!(out.interleavings >= 3);
        }
    }

    /// The lease-straddling tests are not vacuous: under Tardis, the
    /// schedule that runs CPU 0 to completion first leaves the reader's
    /// early copy of `x` resident, so its ten private writes expire the
    /// lease and the final `R x` must be served by a bus renewal.
    #[test]
    fn lease_tests_actually_renew_under_tardis() {
        let test = builtin_suite()
            .into_iter()
            .find(|t| t.name == "mp-lease")
            .expect("mp-lease is a built-in");
        let cfg = system_config(&test, ProtocolKind::Tardis);
        let mut sys =
            MemSystem::new(cfg, ProtocolKind::Tardis).expect("litmus configuration is valid");
        let sequential: Vec<(usize, usize)> = (0..test.programs.len())
            .flat_map(|cpu| (0..test.programs[cpu].len()).map(move |i| (cpu, i)))
            .collect();
        let mut oracle = BTreeMap::new();
        for op in schedule_ops(&test, &sequential) {
            op.issue(&mut sys, &mut oracle).unwrap();
        }
        assert!(
            sys.bus_stats().renewals > 0,
            "mp-lease's sequential schedule never renewed a lease — the test is vacuous"
        );
        assert!(sys.cache_stats(PortId::new(1)).renewals_sent > 0, "reader never renewed");
    }
}
