//! Fleet-level robustness gates: the scenario experiments from
//! `firefly::sim::fleet`, plus whole-fleet checkpoint/restore
//! bit-identity.
//!
//! Each scenario test runs its seeded outcomes through the scenario's
//! gate function (`storm::gate`, `crash::gate`, …) — the same
//! conditions the `fleet` and `partition` bench bins enforce — and then
//! asserts the mechanism behind the outcome, which is not gated there:
//!
//! * naive retries turn a healed slowdown into persistent congestive
//!   collapse, while budgeted backoff recovers;
//! * killing one Firefly degrades the fleet gracefully to N−1 without
//!   ever violating at-most-once semantics;
//! * every outcome survives a snapshot/restore boundary unchanged.
//!
//! Jobs-width invariance of the scenario runners is checked in
//! `tests/fleet_equivalence.rs`.

use firefly::sim::fleet::{
    brownout, crash, partition, rejoin, run_brownout, run_crash_failover, run_flapping_partition,
    run_partition_heal, run_rejoin, run_retry_storm, storm, Fleet, FleetConfig,
};

/// The seed the `fleet` bench bin and CI use.
const SEED: u64 = 0x000f_1ee7;

/// The headline experiment: the same seeded service-tier slowdown is
/// survivable or fatal depending only on the client retry discipline.
#[test]
fn retry_storm_collapses_naive_and_recovers_budgeted() {
    let naive = run_retry_storm(SEED, true);
    let budgeted = run_retry_storm(SEED, false);

    // Naive: timeout amplification outlives the trigger (post-heal
    // timely goodput is in practice ~0). Budgeted: backoff + budgets +
    // admission control recover.
    assert_eq!(storm::gate(&naive, &budgeted), Vec::<&str>::new());

    // Both disciplines serve the same baseline before the slowdown.
    assert!(naive.baseline_mbps > 1.0, "naive baseline {:.3}", naive.baseline_mbps);
    assert!(budgeted.baseline_mbps > 1.0, "budgeted baseline {:.3}", budgeted.baseline_mbps);

    // The mechanism, not just the outcome: the naive client's fixed
    // timeout keeps firing (mostly into a full TX ring) orders of
    // magnitude more often than the backed-off one.
    assert!(
        naive.timeouts > 100 * budgeted.timeouts,
        "naive {} timeouts vs budgeted {}",
        naive.timeouts,
        budgeted.timeouts
    );
    assert_eq!(naive.failed, 0, "the naive policy never gives up");
}

/// Kill one of three servers mid-run: clients fail over, the fleet
/// serves on at N−1 capacity, and no acknowledged call is lost or
/// executed twice.
#[test]
fn machine_crash_degrades_gracefully() {
    let outcome = run_crash_failover(SEED);
    assert_eq!(crash::gate(&outcome), Vec::<&str>::new());
    assert!(outcome.baseline_mbps > 1.0, "baseline {:.3}", outcome.baseline_mbps);
    let recovery = outcome.recovery_cycles.expect("the gate requires a recovery");
    assert!(
        recovery <= crash::END - crash::KILL_AT,
        "recovery {} cycles exceeds the post-kill span",
        recovery
    );
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
/// and the whole fleet heals once the split mends: every breaker
/// re-closes and timely goodput returns within the window.
#[test]
fn partition_fails_fast_in_minority_and_heals() {
    let resilient = run_partition_heal(SEED, true);
    let budgeted = run_partition_heal(SEED, false);
    assert_eq!(partition::heal_gate(&resilient, &budgeted), Vec::<&str>::new());

    // Before the split the breaker never trips, so the two disciplines
    // are not merely similar — they are the same simulation.
    assert!(resilient.baseline_mbps > 1.0, "baseline {:.3}", resilient.baseline_mbps);
    assert_eq!(
        resilient.baseline_mbps, budgeted.baseline_mbps,
        "pre-split behaviour must be identical across policies"
    );

    // During the split the minority's calls fail fast instead of
    // burning the retry budget.
    assert_eq!(budgeted.minority_open_breakers_mid_split, 0);
    assert!(
        2 * resilient.minority_split_timeouts < budgeted.minority_split_timeouts,
        "breakers should spare most minority timeouts: {} vs {}",
        resilient.minority_split_timeouts,
        budgeted.minority_split_timeouts
    );

    // Fleet-wide, fail-fast spares an order of magnitude of timeouts.
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
}

/// A flapping partition (3 sever/heal rounds) is the classic breaker
/// killer: each heal must re-close the breakers, each re-split must
/// re-trip them, and none may stick open once the weather clears.
#[test]
fn flapping_partition_recloses_breakers_every_round() {
    let outcome = run_flapping_partition(SEED);
    assert_eq!(partition::flapping_gate(&outcome), Vec::<&str>::new());
    assert!(outcome.minority_split_fast_fails > 0);
}

/// Kill a server, then bring it back: the revived machine must rejoin
/// under a fresh epoch, bounce stale requests with `Rebind` instead of
/// executing them (at-most-once survives the restart), and the fleet
/// must regain baseline goodput at full N.
#[test]
fn revived_server_rejoins_and_the_fleet_recovers() {
    let outcome = run_rejoin(SEED);
    assert_eq!(rejoin::gate(&outcome), Vec::<&str>::new());
    assert!(
        outcome.outage_mbps > 0.5,
        "the surviving pair must keep serving through the outage, got {:.3}",
        outcome.outage_mbps
    );
}

/// Brownout: the same seeded overload, with and without the server
/// admission controller. Explicit `Shed` replies convert slow timeout
/// deaths into fast, cheap rejections — higher timely goodput, no
/// abandoned calls, and a far shorter tail.
#[test]
fn brownout_shedding_beats_silent_collapse() {
    let shed = run_brownout(SEED, true);
    let silent = run_brownout(SEED, false);
    assert_eq!(brownout::gate(&shed, &silent), Vec::<&str>::new());

    assert!(shed.server_shed_replied > 100, "shed replies {}", shed.server_shed_replied);
    assert_eq!(shed.server_shed_silent, 0);
    assert_eq!(silent.server_shed_replied, 0);
    assert!(silent.server_shed_silent > 100, "silent drops {}", silent.server_shed_silent);
    assert_eq!(shed.acked_timely, shed.acked, "every shedding-arm ack should meet the SLA");
    assert!(silent.acked_timely < silent.acked, "silent drops should blow the SLA for some");
    assert!(
        4 * shed.timeouts < silent.timeouts,
        "shed replies should spare most timeouts: {} vs {}",
        shed.timeouts,
        silent.timeouts
    );
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
