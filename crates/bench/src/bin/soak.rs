//! Chaos soak: crash-consistency of checkpoint/restore under sustained
//! load, fault injection, and deliberate kill/resume points.
//!
//! Long experiment campaigns die for boring reasons — OOM killers,
//! preempted batch nodes, power loss. The snapshot subsystem
//! (`firefly_core::snapshot`) exists so such a death costs one
//! checkpoint interval, not the run; this soak is the adversarial proof.
//! Two phases, both pure functions of `--seed`:
//!
//! 1. **Memory-system chaos** — per protocol, a seeded random request
//!    stream (heavy aliasing, correctable fault plan active) is
//!    interrupted at random points by simulated `kill -9`s: the machine
//!    is serialized, discarded, and rebuilt from the image — sometimes
//!    with bus transactions **in flight**. After every resume the image
//!    must re-serialize byte-identically, and at every quiescent
//!    checkpoint the full [`CoherenceChecker`] battery plus the
//!    serialization oracle must hold.
//! 2. **Full-machine resume equivalence** — per protocol, a machine is
//!    checkpointed mid-run and resumed into a differently-seeded twin;
//!    the continuation must be bit-identical (cycle count, fault stats,
//!    event trace, and the next snapshot image).
//!
//! 3. **Fleet chaos** — a three-server RPC fleet on a lossy Ethernet
//!    (`firefly_sim::fleet`) is driven through seeded random machine
//!    kills and mid-flight whole-fleet snapshot/restores; after every
//!    restore the continuation must match an uninterrupted twin
//!    bit-for-bit, and the at-most-once oracle must stay clean
//!    throughout.
//!
//! Violations are collected, not panicked on, so one bad protocol still
//! yields the full deterministic triage table; any violation makes the
//! process exit nonzero. Flags: `--seed N`, `--smoke` (CI sizing),
//! `--json`.

#![deny(unsafe_code)]

use firefly_bench::cli::{self, BenchArgs};
use firefly_bench::report;
use firefly_core::check::CoherenceChecker;
use firefly_core::config::SystemConfig;
use firefly_core::fault::FaultConfig;
use firefly_core::protocol::ProtocolKind;
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, CacheGeometry, PortId};
use firefly_sim::fleet::{Fleet, FleetConfig};
use firefly_sim::harness::run_jobs;
use firefly_sim::machine::FireflyBuilder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;

/// Word window for the chaos stream: small enough to alias and
/// ping-pong, large enough to exercise victimization.
const WORDS: u32 = 96;
const CPUS: usize = 4;

/// One protocol's chaos-phase outcome.
#[derive(Clone, Debug, Serialize)]
struct ChaosCell {
    protocol: ProtocolKind,
    accesses: u64,
    cycles: u64,
    kills: u64,
    midflight_kills: u64,
    checks: u64,
    faults_injected: u64,
    violations: Vec<String>,
}

/// One protocol's resume-equivalence outcome.
#[derive(Clone, Debug, Serialize)]
struct ResumeCell {
    protocol: ProtocolKind,
    cycles: u64,
    violations: Vec<String>,
}

/// One seed's fleet-chaos outcome.
#[derive(Clone, Debug, Serialize)]
struct FleetCell {
    seed: u64,
    cycles: u64,
    restores: u64,
    server_kills: u64,
    acked: u64,
    violations: Vec<String>,
}

#[derive(Debug, Serialize)]
struct SoakReport {
    seed: u64,
    smoke: bool,
    chaos: Vec<ChaosCell>,
    resume: Vec<ResumeCell>,
    fleet: Vec<FleetCell>,
    violations: usize,
}

/// Serializes, discards, and restores the machine — a simulated
/// `kill -9` + resume. The restored machine must re-serialize to the
/// identical image (the checkpoint is a fixed point).
fn kill_and_restore(sys: &mut MemSystem, context: &str, violations: &mut Vec<String>) -> bool {
    let img = sys.save_snapshot();
    match MemSystem::restore(&img) {
        Ok(restored) => {
            if restored.save_snapshot() != img {
                violations.push(format!("{context}: restored machine re-serializes differently"));
                return false;
            }
            *sys = restored;
            true
        }
        Err(e) => {
            violations.push(format!("{context}: restore failed: {e}"));
            false
        }
    }
}

/// Phase 1 for one protocol.
fn chaos_cell(kind: ProtocolKind, seed: u64, accesses: u64) -> ChaosCell {
    let geometry = CacheGeometry::new(16, 2).expect("valid geometry");
    let cfg = SystemConfig::microvax(CPUS)
        .with_cache(geometry)
        .with_faults(FaultConfig::correctable(seed ^ 0x00fa_0175, 20_000));
    let mut sys = MemSystem::new(cfg, kind).expect("valid config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle: BTreeMap<Addr, u32> = BTreeMap::new();
    let mut cell = ChaosCell {
        protocol: kind,
        accesses: 0,
        cycles: 0,
        kills: 0,
        midflight_kills: 0,
        checks: 0,
        faults_injected: 0,
        violations: Vec::new(),
    };

    for i in 0..accesses {
        let port = PortId::new(rng.gen_range(0..CPUS));
        let addr = Addr::from_word_index(rng.gen_range(0..WORDS));
        if rng.gen_bool(0.4) {
            let value: u32 = rng.gen();
            sys.run_to_completion(port, Request::write(addr, value)).expect("write completes");
            oracle.insert(addr, value);
        } else {
            sys.run_to_completion(port, Request::read(addr)).expect("read completes");
        }
        cell.accesses += 1;

        // A quiescent kill point roughly every ~150 accesses.
        if rng.gen_bool(1.0 / 150.0)
            && kill_and_restore(&mut sys, &format!("{kind} access #{i}"), &mut cell.violations)
        {
            cell.kills += 1;
        }

        // A mid-flight kill roughly every ~300 accesses: issue a burst,
        // advance into the middle of the bus transaction, then kill.
        // At most one write per burst so the serialization oracle stays
        // well defined regardless of arbitration order.
        if rng.gen_bool(1.0 / 300.0) {
            let mut pending: Vec<(PortId, Option<(Addr, u32)>)> = Vec::new();
            let mut wrote = false;
            for p in 0..CPUS {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let port = PortId::new(p);
                let addr = Addr::from_word_index(rng.gen_range(0..WORDS));
                if !wrote && rng.gen_bool(0.3) {
                    let value: u32 = rng.gen();
                    if sys.begin(port, Request::write(addr, value)).is_ok() {
                        wrote = true;
                        pending.push((port, Some((addr, value))));
                    }
                } else if sys.begin(port, Request::read(addr)).is_ok() {
                    pending.push((port, None));
                }
            }
            for _ in 0..rng.gen_range(1..8) {
                sys.step();
            }
            if kill_and_restore(&mut sys, &format!("{kind} mid-flight #{i}"), &mut cell.violations)
            {
                cell.midflight_kills += 1;
            }
            // Drain the resumed machine back to quiescence.
            let mut guard = 0u32;
            while !pending.is_empty() {
                sys.step();
                pending.retain(|&(port, write)| {
                    if sys.poll(port).is_some() {
                        if let Some((addr, value)) = write {
                            oracle.insert(addr, value);
                        }
                        false
                    } else {
                        true
                    }
                });
                guard += 1;
                if guard > 100_000 {
                    cell.violations
                        .push(format!("{kind} mid-flight #{i}: resumed machine never drained"));
                    break;
                }
            }
        }

        if (i + 1) % 500 == 0 || i + 1 == accesses {
            cell.checks += 1;
            if let Err(e) = CoherenceChecker::new().check_serialized(&sys, &oracle) {
                cell.violations.push(format!("{kind} access #{i}: {e}"));
            }
        }
    }
    cell.cycles = sys.cycle();
    cell.faults_injected = sys.fault_stats().total_injected();
    cell
}

/// Phase 2 for one protocol.
fn resume_cell(kind: ProtocolKind, seed: u64, warm: u64, run: u64) -> ResumeCell {
    let build = |s: u64| {
        FireflyBuilder::microvax(3)
            .protocol(kind)
            .seed(s)
            .trace_events(512)
            .faults(FaultConfig::correctable(seed ^ 0x50a4, 25_000))
            .build()
    };
    let mut violations = Vec::new();
    let mut m = build(seed);
    m.run(warm);
    match m.save_snapshot() {
        Err(e) => violations.push(format!("{kind}: snapshot failed: {e}")),
        Ok(img) => {
            // The twin is built with a different seed: restore must
            // erase every trace of it.
            let mut twin = build(seed ^ 0xffff_ffff);
            if let Err(e) = twin.load_snapshot(&img) {
                violations.push(format!("{kind}: load failed: {e}"));
            } else {
                m.run(run);
                twin.run(run);
                if m.memory().cycle() != twin.memory().cycle() {
                    violations.push(format!(
                        "{kind}: cycle count diverged ({} vs {})",
                        m.memory().cycle(),
                        twin.memory().cycle()
                    ));
                }
                if m.fault_stats() != twin.fault_stats() {
                    violations.push(format!("{kind}: fault stats diverged"));
                }
                if m.events() != twin.events() {
                    violations.push(format!("{kind}: event traces diverged"));
                }
                for (p, (a, b)) in m.processors().iter().zip(twin.processors()).enumerate() {
                    if a.stats() != b.stats() {
                        violations.push(format!("{kind}: CPU {p} stats diverged"));
                    }
                }
                match (m.save_snapshot(), twin.save_snapshot()) {
                    (Ok(a), Ok(b)) if a == b => {}
                    (Ok(_), Ok(_)) => {
                        violations.push(format!("{kind}: continuation snapshots differ"))
                    }
                    (a, b) => violations.push(format!(
                        "{kind}: re-snapshot failed ({} / {})",
                        a.is_ok(),
                        b.is_ok()
                    )),
                }
            }
        }
    }
    ResumeCell { protocol: kind, cycles: warm + run, violations }
}

/// Phase 3 for one seed: a lossy-wire RPC fleet survives random server
/// kills and mid-flight whole-fleet restores.
fn fleet_cell(seed: u64, total_cycles: u64) -> FleetCell {
    let cfg = FleetConfig::crash_failover(seed);
    let mut fleet = Fleet::new(cfg);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf1ee_7f1e_e7f1_ee70);
    let mut cell = FleetCell {
        seed,
        cycles: total_cycles,
        restores: 0,
        server_kills: 0,
        acked: 0,
        violations: Vec::new(),
    };

    while fleet.cycle() < total_cycles {
        let chunk: u64 = rng.gen_range(20_000..120_000);
        let target = (fleet.cycle() + chunk).min(total_cycles);
        fleet.run_until(target);

        match rng.gen_range(0..4u32) {
            // Kill a random still-online server, never the last one —
            // a fully dead tier measures nothing.
            0 if fleet.online_servers() > 1 => {
                let victims: Vec<usize> =
                    (0..cfg.servers).filter(|&i| fleet.server_online(i)).collect();
                fleet.kill_server(victims[rng.gen_range(0..victims.len() as u64) as usize]);
                cell.server_kills += 1;
            }
            // Mid-flight kill -9 + restore: serialize the whole fleet
            // (armed retry timers, in-flight frames, backoff state and
            // all), rebuild from the image, and require the restored
            // fleet's continuation to match the original bit-for-bit.
            1 => {
                let img = fleet.save_snapshot();
                let mut twin = Fleet::new(cfg);
                match twin.load_snapshot(&img) {
                    Err(e) => {
                        cell.violations.push(format!("fleet seed {seed:#x}: restore failed: {e}"));
                    }
                    Ok(()) => {
                        // The kill cost the dead-server bits too: the
                        // snapshot must carry which machines are down.
                        let probe = (fleet.cycle() + 60_000).min(total_cycles + 60_000);
                        fleet.run_until(probe);
                        twin.run_until(probe);
                        if fleet.stats_json() != twin.stats_json() {
                            cell.violations.push(format!(
                                "fleet seed {seed:#x}: stats diverged after restore at {probe}"
                            ));
                        }
                        if fleet.save_snapshot() != twin.save_snapshot() {
                            cell.violations.push(format!(
                                "fleet seed {seed:#x}: re-snapshot diverged after restore"
                            ));
                        }
                        // Continue from the restored fleet: the rest of
                        // the soak runs on the resumed image.
                        fleet = twin;
                        cell.restores += 1;
                    }
                }
            }
            _ => {}
        }

        for v in fleet.check_at_most_once() {
            cell.violations.push(format!("fleet seed {seed:#x} cycle {}: {v}", fleet.cycle()));
        }
    }
    cell.acked = fleet.report().acked;
    if cell.acked == 0 {
        cell.violations
            .push(format!("fleet seed {seed:#x}: no calls acknowledged over the whole soak"));
    }
    cell
}

fn main() {
    let BenchArgs { smoke, seed, .. } = cli::parse(0x50a4_f1ef_u64);

    let accesses: u64 = if smoke { 2_500 } else { 60_000 };
    let (warm, run) = if smoke { (10_000, 10_000) } else { (120_000, 150_000) };

    // Every protocol is an independent machine: fan both phases out as
    // one grid so results are deterministic for any FIREFLY_JOBS width.
    let grid: Vec<(usize, ProtocolKind)> = ProtocolKind::ALL.into_iter().enumerate().collect();
    let chaos = run_jobs(&grid, |&(pi, kind)| {
        chaos_cell(kind, seed ^ (pi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15), accesses)
    });
    let resume = run_jobs(&grid, |&(pi, kind)| {
        resume_cell(kind, seed ^ (pi as u64).rotate_left(31), warm, run)
    });

    let fleet_cycles: u64 = if smoke { 800_000 } else { 3_000_000 };
    let fleet_seeds: Vec<u64> =
        (0..if smoke { 2u64 } else { 4 }).map(|i| seed ^ i.wrapping_mul(0x9e37)).collect();
    let fleet = run_jobs(&fleet_seeds, |&s| fleet_cell(s, fleet_cycles));

    let violations: usize = chaos.iter().map(|c| c.violations.len()).sum::<usize>()
        + resume.iter().map(|c| c.violations.len()).sum::<usize>()
        + fleet.iter().map(|c| c.violations.len()).sum::<usize>();

    if report::json_requested() {
        report::emit_json(&SoakReport { seed, smoke, chaos, resume, fleet, violations });
        if violations > 0 {
            std::process::exit(1);
        }
        return;
    }

    report::section(&format!(
        "chaos soak: kill/restore under load ({CPUS} CPUs, seed {seed:#x}, \
         {accesses} accesses/protocol)"
    ));
    println!(
        "  {:<14} {:>9} {:>9} {:>6} {:>10} {:>7} {:>8} {:>11}",
        "protocol", "accesses", "cycles", "kills", "mid-flight", "checks", "faults", "violations"
    );
    for c in &chaos {
        println!(
            "  {:<14} {:>9} {:>9} {:>6} {:>10} {:>7} {:>8} {:>11}",
            c.protocol.name(),
            c.accesses,
            c.cycles,
            c.kills,
            c.midflight_kills,
            c.checks,
            c.faults_injected,
            c.violations.len(),
        );
    }

    report::section("resume equivalence: checkpointed twin vs uninterrupted run");
    println!("  {:<14} {:>9} {:>11}", "protocol", "cycles", "violations");
    for r in &resume {
        println!("  {:<14} {:>9} {:>11}", r.protocol.name(), r.cycles, r.violations.len());
    }

    report::section("fleet chaos: server kills + mid-flight fleet restores on a lossy wire");
    println!(
        "  {:<12} {:>9} {:>9} {:>6} {:>8} {:>11}",
        "seed", "cycles", "restores", "kills", "acked", "violations"
    );
    for f in &fleet {
        println!(
            "  {:<#12x} {:>9} {:>9} {:>6} {:>8} {:>11}",
            f.seed,
            f.cycles,
            f.restores,
            f.server_kills,
            f.acked,
            f.violations.len()
        );
    }

    if violations > 0 {
        eprintln!("\ntriage ({violations} violation(s)):");
        for v in chaos
            .iter()
            .flat_map(|c| &c.violations)
            .chain(resume.iter().flat_map(|r| &r.violations))
            .chain(fleet.iter().flat_map(|f| &f.violations))
        {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "\nreading: every kill point — quiescent, mid-transaction, or fleet-wide with\n\
         frames in flight — resumed into a machine whose continuation is byte-identical;\n\
         every quiescent checkpoint passed the full coherence battery against the\n\
         write-serialization oracle; and no server kill ever broke at-most-once."
    );
}
