//! Partition-tolerance benchmark: the BENCH_10 trajectory point.
//!
//! Six scenarios of the self-healing fleet (`firefly_sim::fleet`), run
//! through the `FIREFLY_JOBS` worker pool so the document doubles as a
//! determinism witness:
//!
//! 1. **Partition heal, resilient vs budgeted** — the minority clients
//!    lose every server for 1.2 Mcycles. Gates
//!    (`fleet::partition::heal_gate`): with circuit breakers the
//!    minority trips all nine (client, server) breakers mid-split and
//!    fails fast instead of burning timeouts; split-side goodput beats
//!    plain budgeted retries; post-heal timely goodput recovers and
//!    every breaker re-closes.
//! 2. **Flapping partition** — three sever/heal rounds. Gates
//!    (`fleet::partition::flapping_gate`): the breakers trip every
//!    round, none sticks open at the end, and the fleet still heals.
//! 3. **Kill + revive** — a dead server rejoins under a fresh epoch.
//!    Gates (`fleet::rejoin::gate`): stale requests bounce with
//!    `Rebind` (never execute), the victim serves again, and full-fleet
//!    goodput recovers.
//! 4. **Brownout shedding on/off** — the same seeded overload with and
//!    without the server admission controller. Gates
//!    (`fleet::brownout::gate`): explicit `Shed` replies beat silent
//!    queue drops on timely goodput, abandon no calls, and cut the p99.
//!
//! Every gate also requires a clean at-most-once oracle.
//!
//! Flags: `--smoke` (recorded; the grid is already CI-sized), `--seed
//! N`, `--out PATH` (default `BENCH_10.json`), `--json` (prints the
//! deterministic slice — no wall clock — for the jobs-width identity
//! gate). Names each failed gate condition on stderr and exits nonzero
//! if there is one.

use firefly_bench::cli::{self, BenchArgs};
use firefly_bench::report;
use firefly_sim::fleet::{
    brownout, partition, rejoin, run_brownout, run_flapping_partition, run_partition_heal,
    run_rejoin, BrownoutOutcome, PartitionOutcome, RejoinOutcome,
};
use firefly_sim::harness::run_jobs;
use serde::Serialize;
use std::time::Instant;

/// One scenario of the benchmark grid.
#[derive(Copy, Clone, Debug)]
enum Job {
    Partition { resilient: bool },
    Flapping,
    Rejoin,
    Brownout { shedding: bool },
}

/// The matching outcome (the grid is heterogeneous).
enum Out {
    Partition(PartitionOutcome),
    Rejoin(RejoinOutcome),
    Brownout(BrownoutOutcome),
}

/// The deterministic slice of the report — everything `--json` prints.
#[derive(Debug, Serialize)]
struct DeterministicReport {
    bench: String,
    seed: u64,
    smoke: bool,
    partition_resilient: PartitionOutcome,
    partition_budgeted: PartitionOutcome,
    flapping: PartitionOutcome,
    rejoin: RejoinOutcome,
    brownout_shed: BrownoutOutcome,
    brownout_silent: BrownoutOutcome,
}

/// The full document written to `--out`.
#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    seed: u64,
    smoke: bool,
    wall_ns: u64,
    partition_resilient: PartitionOutcome,
    partition_budgeted: PartitionOutcome,
    flapping: PartitionOutcome,
    rejoin: RejoinOutcome,
    brownout_shed: BrownoutOutcome,
    brownout_silent: BrownoutOutcome,
    pass: bool,
}

fn main() {
    let BenchArgs { smoke, seed, out } = cli::parse(0x000f_1ee7_u64);
    let out = out.unwrap_or_else(|| String::from("BENCH_10.json"));

    let t0 = Instant::now();
    let jobs = [
        Job::Partition { resilient: true },
        Job::Partition { resilient: false },
        Job::Flapping,
        Job::Rejoin,
        Job::Brownout { shedding: true },
        Job::Brownout { shedding: false },
    ];
    let mut outs: Vec<Out> = run_jobs(&jobs, |job| match *job {
        Job::Partition { resilient } => Out::Partition(run_partition_heal(seed, resilient)),
        Job::Flapping => Out::Partition(run_flapping_partition(seed)),
        Job::Rejoin => Out::Rejoin(run_rejoin(seed)),
        Job::Brownout { shedding } => Out::Brownout(run_brownout(seed, shedding)),
    });
    let wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    // run_jobs preserves job order; unpack in reverse to move out.
    let brownout_silent = match outs.pop() {
        Some(Out::Brownout(o)) => o,
        _ => unreachable!(),
    };
    let brownout_shed = match outs.pop() {
        Some(Out::Brownout(o)) => o,
        _ => unreachable!(),
    };
    let rejoin = match outs.pop() {
        Some(Out::Rejoin(o)) => o,
        _ => unreachable!(),
    };
    let flapping = match outs.pop() {
        Some(Out::Partition(o)) => o,
        _ => unreachable!(),
    };
    let partition_budgeted = match outs.pop() {
        Some(Out::Partition(o)) => o,
        _ => unreachable!(),
    };
    let partition_resilient = match outs.pop() {
        Some(Out::Partition(o)) => o,
        _ => unreachable!(),
    };

    let gates = [
        ("partition", partition::heal_gate(&partition_resilient, &partition_budgeted)),
        ("flapping", partition::flapping_gate(&flapping)),
        ("rejoin", rejoin::gate(&rejoin)),
        ("brownout", brownout::gate(&brownout_shed, &brownout_silent)),
    ];
    let pass = gates.iter().all(|(_, failures)| failures.is_empty());

    let deterministic = DeterministicReport {
        bench: "BENCH_10".to_string(),
        seed,
        smoke,
        partition_resilient,
        partition_budgeted,
        flapping,
        rejoin,
        brownout_shed,
        brownout_silent,
    };
    let doc = BenchReport {
        bench: deterministic.bench.clone(),
        seed,
        smoke,
        wall_ns,
        partition_resilient: deterministic.partition_resilient.clone(),
        partition_budgeted: deterministic.partition_budgeted.clone(),
        flapping: deterministic.flapping.clone(),
        rejoin: deterministic.rejoin.clone(),
        brownout_shed: deterministic.brownout_shed.clone(),
        brownout_silent: deterministic.brownout_silent.clone(),
        pass,
    };
    report::write(&out, &doc);

    if report::json_requested() {
        println!("{}", deterministic.to_json());
    } else {
        report::section(&format!(
            "partition bench: self-healing fleet under splits and overload (seed {seed:#x})"
        ));
        for (name, p) in [
            ("resilient", &doc.partition_resilient),
            ("budgeted ", &doc.partition_budgeted),
            ("flapping ", &doc.flapping),
        ] {
            println!(
                "  {name}: baseline {:.3} Mb/s, split {:.3}, recovered {:.3} ({:.0}%), \
                 minority timeouts {} fast-fails {} breakers mid/end {}/{}",
                p.baseline_mbps,
                p.split_mbps,
                p.recovered_mbps,
                p.recovery_fraction * 100.0,
                p.minority_split_timeouts,
                p.minority_split_fast_fails,
                p.minority_open_breakers_mid_split,
                p.minority_open_breakers_at_end,
            );
        }
        let r = &doc.rejoin;
        println!(
            "\n  rejoin: baseline {:.3} Mb/s, outage {:.3}, recovered {:.3} ({:.0}%), \
             epoch {}, executed-after {}, rebinds {}",
            r.baseline_mbps,
            r.outage_mbps,
            r.recovered_mbps,
            r.recovery_fraction * 100.0,
            r.victim_epoch,
            r.victim_executed_after_revive,
            r.rebinds,
        );
        for b in [&doc.brownout_shed, &doc.brownout_silent] {
            println!(
                "\n  brownout[{}]: goodput {:.3} Mb/s, timely {}/{}, failed {}, \
                 timeouts {}, shed-replied {}, silent-drops {}, p99 {}",
                if b.shedding { "shed" } else { "silent" },
                b.goodput_mbps,
                b.acked_timely,
                b.acked,
                b.failed,
                b.timeouts,
                b.server_shed_replied,
                b.server_shed_silent,
                b.p99,
            );
        }
        println!("\n  gates: {}", if pass { "pass" } else { "FAIL (see stderr)" });
        println!("  wrote {out}");
    }
    report::exit_on_failures("partition", &gates);
}
