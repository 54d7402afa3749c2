//! Fleet-level robustness gates: the retry-storm and machine-crash
//! experiments from `firefly::sim::fleet`, plus jobs-width invariance
//! and whole-fleet checkpoint/restore bit-identity.
//!
//! These are the headline assertions of the lossy-Ethernet RPC work:
//!
//! * naive retries turn a healed slowdown into persistent congestive
//!   collapse, while budgeted backoff recovers;
//! * killing one Firefly degrades the fleet gracefully to N−1 without
//!   ever violating at-most-once semantics;
//! * every outcome is a pure function of the seed, at any
//!   `FIREFLY_JOBS` width, and across a snapshot/restore boundary.

use firefly::sim::fleet::{
    crash, run_brownout, run_crash_failover, run_flapping_partition, run_partition_heal,
    run_rejoin, run_retry_storm, storm, Fleet, FleetConfig,
};
use firefly::sim::harness::run_jobs_with;
use serde::Serialize;

/// The seed the `fleet` bench bin and CI use.
const SEED: u64 = 0x000f_1ee7;

/// The headline experiment: the same seeded service-tier slowdown is
/// survivable or fatal depending only on the client retry discipline.
#[test]
fn retry_storm_collapses_naive_and_recovers_budgeted() {
    let naive = run_retry_storm(SEED, true);
    let budgeted = run_retry_storm(SEED, false);

    // Both disciplines serve the same baseline before the slowdown.
    assert!(naive.baseline_mbps > 1.0, "naive baseline {:.3}", naive.baseline_mbps);
    assert!(budgeted.baseline_mbps > 1.0, "budgeted baseline {:.3}", budgeted.baseline_mbps);

    // Naive: timeout amplification outlives the trigger. Post-heal
    // timely goodput stays under half of baseline (in practice ~0).
    assert!(
        naive.recovery_fraction < 0.5,
        "naive should stay collapsed after the heal, recovered {:.0}%",
        naive.recovery_fraction * 100.0
    );
    // Budgeted: backoff + budgets + admission control recover ≥90%.
    assert!(
        budgeted.recovery_fraction >= 0.9,
        "budgeted should recover ≥90% of baseline, got {:.0}%",
        budgeted.recovery_fraction * 100.0
    );

    // The mechanism, not just the outcome: the naive client's fixed
    // timeout keeps firing (mostly into a full TX ring) orders of
    // magnitude more often than the backed-off one, and nobody breaks
    // at-most-once while doing so.
    assert!(
        naive.timeouts > 100 * budgeted.timeouts,
        "naive {} timeouts vs budgeted {}",
        naive.timeouts,
        budgeted.timeouts
    );
    assert_eq!(naive.failed, 0, "the naive policy never gives up");
    assert_eq!(naive.oracle_violations, 0);
    assert_eq!(budgeted.oracle_violations, 0);
}

/// Storm outcomes are a pure function of `(seed, naive)`: the bench's
/// job grid serializes bit-identically at one worker and at four,
/// regardless of scheduling.
#[test]
fn storm_outcomes_are_bit_identical_across_worker_counts() {
    let jobs: Vec<(u64, bool)> = vec![(SEED, true), (SEED, false), (13, false)];
    let run = |workers: usize| -> Vec<String> {
        run_jobs_with(workers, &jobs, |&(seed, naive)| run_retry_storm(seed, naive).to_json())
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial, wide, "storm outcomes diverged between 1 and 4 workers");
}

/// Kill one of three servers mid-run: clients fail over, the fleet
/// serves on at N−1 capacity, and no acknowledged call is lost or
/// executed twice.
#[test]
fn machine_crash_degrades_gracefully() {
    let outcome = run_crash_failover(SEED);
    assert!(outcome.baseline_mbps > 1.0, "baseline {:.3}", outcome.baseline_mbps);
    assert!(
        outcome.degraded_fraction >= 0.8,
        "steady-state N−1 goodput must hold ≥80% of baseline, got {:.0}%",
        outcome.degraded_fraction * 100.0
    );
    let recovery = outcome.recovery_cycles.expect("a post-kill window must regain 80% of baseline");
    assert!(
        recovery <= crash::END - crash::KILL_AT,
        "recovery {} cycles exceeds the post-kill span",
        recovery
    );
    assert_eq!(outcome.oracle_violations, 0, "at-most-once must survive the crash");
}

/// The at-most-once oracle holds on the live fleet object too, with the
/// kill issued mid-flight rather than by the canned scenario.
#[test]
fn at_most_once_survives_a_mid_flight_kill() {
    let mut fleet = Fleet::new(FleetConfig::crash_failover(99));
    fleet.run_until(700_000);
    fleet.kill_server(crash::VICTIM);
    assert_eq!(fleet.online_servers(), fleet.config().servers - 1);
    fleet.run_until(2_000_000);
    let violations = fleet.check_at_most_once();
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    assert!(fleet.report().acked > 0);
}

/// Whole-fleet checkpoint/restore: snapshot mid-storm (the nastiest
/// state — deep backlogs, armed retry timers, in-flight frames), restore
/// into a fresh fleet, and the two runs are indistinguishable — stats
/// JSON, event trace, and the bytes of a *second* snapshot.
#[test]
fn fleet_snapshot_resumes_bit_identically() {
    let cfg = FleetConfig::retry_storm(SEED, false);
    let mut original = Fleet::new(cfg);
    original.run_until(storm::SLOW_FROM + 300_000); // mid-storm
    let snap = original.save_snapshot();

    let mut resumed = Fleet::new(cfg);
    resumed.load_snapshot(&snap).expect("snapshot must restore");
    assert_eq!(resumed.cycle(), original.cycle());

    // Drive both to the same later cycle and compare everything
    // observable.
    let target = storm::SLOW_UNTIL + 100_000;
    original.run_until(target);
    resumed.run_until(target);
    assert_eq!(original.stats_json(), resumed.stats_json(), "stats diverged after restore");
    assert_eq!(original.events(), resumed.events(), "event traces diverged after restore");
    assert_eq!(
        original.save_snapshot(),
        resumed.save_snapshot(),
        "re-snapshot bytes diverged after restore"
    );
}

/// The partition headline: sever the minority clients from every
/// server for 1.2 Mcycles. With plain budgeted retries they grind
/// against the dead wire; with circuit breakers they trip, fail fast,
/// and the whole fleet heals to ≥85% of baseline once the split mends.
#[test]
fn partition_fails_fast_in_minority_and_heals() {
    let resilient = run_partition_heal(SEED, true);
    let budgeted = run_partition_heal(SEED, false);

    // Before the split the breaker never trips, so the two disciplines
    // are not merely similar — they are the same simulation.
    assert!(resilient.baseline_mbps > 1.0, "baseline {:.3}", resilient.baseline_mbps);
    assert_eq!(
        resilient.baseline_mbps, budgeted.baseline_mbps,
        "pre-split behaviour must be identical across policies"
    );

    // During the split the minority's breakers are all open and its
    // calls fail fast instead of burning the retry budget.
    assert_eq!(
        resilient.minority_open_breakers_mid_split, 9,
        "all 3 minority clients × 3 servers should be tripped mid-split"
    );
    assert_eq!(budgeted.minority_open_breakers_mid_split, 0);
    assert!(
        resilient.minority_split_fast_fails >= 20,
        "minority fast-fails {}",
        resilient.minority_split_fast_fails
    );
    assert_eq!(budgeted.minority_split_fast_fails, 0);
    assert!(
        2 * resilient.minority_split_timeouts < budgeted.minority_split_timeouts,
        "breakers should spare most minority timeouts: {} vs {}",
        resilient.minority_split_timeouts,
        budgeted.minority_split_timeouts
    );

    // Fleet-wide, fail-fast keeps the majority side breathing while the
    // split is open and spares an order of magnitude of timeouts.
    assert!(
        resilient.split_mbps > 1.5 * budgeted.split_mbps,
        "split goodput {:.3} vs budgeted {:.3}",
        resilient.split_mbps,
        budgeted.split_mbps
    );
    assert!(
        budgeted.timeouts > 4 * resilient.timeouts,
        "budgeted {} timeouts vs resilient {}",
        budgeted.timeouts,
        resilient.timeouts
    );
    assert!(
        resilient.failed < budgeted.failed,
        "resilient abandons fewer calls: {} vs {}",
        resilient.failed,
        budgeted.failed
    );

    // After the heal: half-open probes re-close every breaker and
    // timely goodput returns to ≥85% of baseline within the window.
    assert_eq!(resilient.minority_open_breakers_at_end, 0, "breakers must re-close post-heal");
    assert!(
        resilient.recovery_fraction >= 0.85,
        "post-heal timely goodput must reach ≥85% of baseline, got {:.0}%",
        resilient.recovery_fraction * 100.0
    );
    resilient.recovery_cycles.expect("a post-heal window must regain 90% of baseline");

    assert_eq!(resilient.oracle_violations, 0);
    assert_eq!(budgeted.oracle_violations, 0);
}

/// A flapping partition (3 sever/heal rounds) is the classic breaker
/// killer: each heal must re-close the breakers, each re-split must
/// re-trip them, and none may stick open once the weather clears.
#[test]
fn flapping_partition_recloses_breakers_every_round() {
    let outcome = run_flapping_partition(SEED);
    assert!(
        outcome.minority_breaker_opens >= outcome.severed_windows as u64,
        "breakers should trip across the flaps: {} opens over {} windows",
        outcome.minority_breaker_opens,
        outcome.severed_windows
    );
    assert!(outcome.minority_split_fast_fails > 0);
    assert_eq!(outcome.minority_open_breakers_at_end, 0, "a breaker stuck open after the heal");
    assert!(
        outcome.recovery_fraction >= 0.85,
        "flapping recovery {:.0}%",
        outcome.recovery_fraction * 100.0
    );
    assert_eq!(outcome.oracle_violations, 0);
}

/// Kill a server, then bring it back: the revived machine must rejoin
/// under a fresh epoch, bounce stale requests with `Rebind` instead of
/// executing them (at-most-once survives the restart), and the fleet
/// must regain baseline goodput at full N.
#[test]
fn revived_server_rejoins_and_the_fleet_recovers() {
    let outcome = run_rejoin(SEED);
    assert_eq!(outcome.victim_epoch, 1, "one restart = epoch 1");
    assert!(
        outcome.victim_executed_after_revive > 0,
        "the revived server must re-enter the serving rotation"
    );
    assert!(outcome.rebinds >= 1, "stale requests must bounce, not execute");
    assert!(
        outcome.outage_mbps > 0.5,
        "the surviving pair must keep serving through the outage, got {:.3}",
        outcome.outage_mbps
    );
    assert!(
        outcome.recovery_fraction >= 0.85,
        "post-revive goodput must reach ≥85% of baseline, got {:.0}%",
        outcome.recovery_fraction * 100.0
    );
    assert_eq!(outcome.oracle_violations, 0, "at-most-once must survive the restart");
}

/// Brownout: the same seeded overload, with and without the server
/// admission controller. Explicit `Shed` replies convert slow timeout
/// deaths into fast, cheap rejections — higher timely goodput, no
/// abandoned calls, and a far shorter tail.
#[test]
fn brownout_shedding_beats_silent_collapse() {
    let shed = run_brownout(SEED, true);
    let silent = run_brownout(SEED, false);

    assert!(shed.server_shed_replied > 100, "shed replies {}", shed.server_shed_replied);
    assert_eq!(shed.server_shed_silent, 0);
    assert_eq!(silent.server_shed_replied, 0);
    assert!(silent.server_shed_silent > 100, "silent drops {}", silent.server_shed_silent);

    assert!(
        shed.goodput_mbps > silent.goodput_mbps,
        "shedding goodput {:.3} vs silent {:.3}",
        shed.goodput_mbps,
        silent.goodput_mbps
    );
    assert_eq!(shed.acked_timely, shed.acked, "every shedding-arm ack should meet the SLA");
    assert!(silent.acked_timely < silent.acked, "silent drops should blow the SLA for some");
    assert_eq!(shed.failed, 0, "no call should be abandoned when overload is explicit");
    assert!(
        4 * shed.timeouts < silent.timeouts,
        "shed replies should spare most timeouts: {} vs {}",
        shed.timeouts,
        silent.timeouts
    );
    assert!(
        2 * shed.p99 < silent.p99,
        "explicit shedding should at least halve the p99: {} vs {}",
        shed.p99,
        silent.p99
    );
    assert_eq!(shed.oracle_violations, 0);
    assert_eq!(silent.oracle_violations, 0);
}

/// Every partition-era outcome is a pure function of the seed: the full
/// scenario grid serializes bit-identically at one worker and at four.
#[test]
fn partition_outcomes_are_bit_identical_across_worker_counts() {
    let jobs: Vec<u8> = vec![0, 1, 2, 3, 4];
    let run = |workers: usize| -> Vec<String> {
        run_jobs_with(workers, &jobs, |&job| match job {
            0 => run_partition_heal(SEED, true).to_json(),
            1 => run_partition_heal(SEED, false).to_json(),
            2 => run_flapping_partition(SEED).to_json(),
            3 => run_rejoin(SEED).to_json(),
            _ => run_brownout(SEED, true).to_json(),
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial, wide, "partition outcomes diverged between 1 and 4 workers");
}

/// A snapshot only restores into a fleet with the identical config.
#[test]
fn fleet_snapshot_rejects_config_mismatch() {
    let mut a = Fleet::new(FleetConfig::serving(2, 3, 5));
    a.run(50_000);
    let snap = a.save_snapshot();

    let mut b = Fleet::new(FleetConfig::serving(2, 4, 5));
    let before = b.stats_json();
    assert!(b.load_snapshot(&snap).is_err(), "config mismatch must be rejected");
    assert_eq!(b.stats_json(), before, "a failed restore must leave the fleet unchanged");
}
