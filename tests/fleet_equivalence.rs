//! Differential equivalence suite: the fleet's event-skipping
//! [`Fleet::run_until`] versus its single-cycle [`Fleet::step`].
//!
//! `run_until` steps one cycle, then jumps the clock to the cycle before
//! the fleet's next wire, timer, arrival or service event. Its contract
//! is the event engine's: **bit-identical results** — stats JSON, the
//! fleet trace and snapshot bytes — to stepping every cycle. Every
//! scenario config runs as two twins from the same seed, one stepped
//! and one skipping, compared at cuts a prime stride apart so they land
//! mid-frame and mid-backoff rather than on the scenarios' round window
//! edges. Crash and revive actions hit both twins at the same cycle. Any
//! divergence means a skip crossed a cycle that was not idle.

use firefly::sim::fleet::{
    brownout, crash, partition, rejoin, run_brownout, run_crash_failover, run_flapping_partition,
    run_partition_heal, run_rejoin, run_retry_storm, storm, Fleet, FleetConfig,
};
use firefly::sim::harness::run_jobs_with;
use serde::Serialize;

/// The seed the `fleet` and `partition` bench bins use.
const SEED: u64 = 0x000f_1ee7;

/// Cycles between comparisons; prime.
const STRIDE: u64 = 100_003;

/// A fleet-level action applied to both twins at the same cycle.
#[derive(Copy, Clone, Debug)]
enum Action {
    Kill(usize),
    Revive(usize),
}

impl Action {
    fn apply(self, fleet: &mut Fleet) {
        match self {
            Action::Kill(i) => fleet.kill_server(i),
            Action::Revive(i) => fleet.revive_server(i),
        }
    }
}

fn tick_until(fleet: &mut Fleet, target: u64) {
    while fleet.cycle() < target {
        fleet.step();
    }
}

/// Asserts that `a` and `b` agree on everything observable.
fn assert_same(a: &Fleet, b: &Fleet, what: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{what}: cycles differ");
    assert_eq!(a.stats_json(), b.stats_json(), "{what}: stats JSON diverged");
    assert_eq!(a.events(), b.events(), "{what}: events diverged");
    assert!(a.save_snapshot() == b.save_snapshot(), "{what}: snapshot bytes diverged");
}

/// Runs a stepped and a skipping twin of `cfg` to `end`, applying
/// `actions` at their cycles, and compares them at every cut.
///
/// At the first cut past the middle each twin's snapshot is also
/// resumed under the other engine: the skipping resume runs to `end`
/// beside the twins, the stepped resume one stride (it is the slow
/// one), and each must match the uninterrupted stepped twin. Returns
/// the stepped twin.
fn differential(name: &str, cfg: FleetConfig, end: u64, actions: &[(u64, Action)]) -> Fleet {
    let mut ticked = Fleet::new(cfg);
    let mut skipping = Fleet::new(cfg);
    let mut cuts: Vec<u64> = (1..=end / STRIDE).map(|k| k * STRIDE).collect();
    cuts.extend(actions.iter().map(|&(at, _)| at));
    cuts.push(end);
    cuts.sort_unstable();
    cuts.dedup();
    let mut resumed_skipping: Option<Fleet> = None;
    let mut resumed_ticked: Option<(Fleet, u64)> = None;
    for cut in cuts {
        tick_until(&mut ticked, cut);
        skipping.run_until(cut);
        assert_same(&ticked, &skipping, &format!("{name} at cycle {cut}"));
        if let Some(fleet) = &mut resumed_skipping {
            fleet.run_until(cut);
            assert_same(&ticked, fleet, &format!("{name}: stepped image resumed skipping, {cut}"));
        }
        if let Some((mut fleet, from)) = resumed_ticked.take() {
            tick_until(&mut fleet, cut);
            assert_same(&ticked, &fleet, &format!("{name}: skipping image from {from} stepped"));
        }
        if resumed_skipping.is_none() && cut >= end / 2 && cut < end {
            let mut fleet = Fleet::new(cfg);
            fleet.load_snapshot(&ticked.save_snapshot()).expect("stepped image loads");
            resumed_skipping = Some(fleet);
            let mut fleet = Fleet::new(cfg);
            fleet.load_snapshot(&skipping.save_snapshot()).expect("skipping image loads");
            resumed_ticked = Some((fleet, cut));
        }
        for &(_, action) in actions.iter().filter(|&&(at, _)| at == cut) {
            action.apply(&mut ticked);
            action.apply(&mut skipping);
            if let Some(fleet) = &mut resumed_skipping {
                action.apply(fleet);
            }
        }
    }
    assert!(resumed_skipping.is_some(), "{name}: the run never crossed its middle");
    assert!(ticked.report().acked > 0, "{name}: the fleet served nothing");
    assert!(ticked.check_at_most_once().is_empty(), "{name}: at-most-once violated");
    ticked
}

#[test]
fn serving_fleet_skips_bit_identically() {
    differential("serving", FleetConfig::serving(2, 6, SEED), 1_500_000, &[]);
}

/// Through the storm's onset only: the naive storm is the one scenario
/// the skip barely shortens, so its stepped twin is this suite's cost.
#[test]
fn naive_retry_storm_skips_bit_identically() {
    let cfg = FleetConfig::retry_storm(SEED, true);
    let fleet = differential("naive storm", cfg, storm::SLOW_FROM + 800_000, &[]);
    let timeouts = fleet.report().timeouts;
    assert!(timeouts > 10_000, "the storm never broke: {timeouts} timeouts");
}

#[test]
fn budgeted_retry_storm_skips_bit_identically() {
    differential(
        "budgeted storm",
        FleetConfig::retry_storm(SEED, false),
        storm::RECOVERY_UNTIL,
        &[],
    );
}

#[test]
fn partition_heal_skips_bit_identically() {
    for resilient in [true, false] {
        differential(
            &format!("partition (resilient {resilient})"),
            FleetConfig::partition_heal(SEED, resilient),
            partition::END,
            &[],
        );
    }
}

#[test]
fn flapping_partition_skips_bit_identically() {
    differential("flapping", FleetConfig::flapping_partition(SEED), partition::END, &[]);
}

#[test]
fn brownout_skips_bit_identically() {
    for shedding in [true, false] {
        differential(
            &format!("brownout (shedding {shedding})"),
            FleetConfig::brownout_overload(SEED, shedding),
            brownout::END,
            &[],
        );
    }
}

#[test]
fn crash_failover_skips_bit_identically() {
    differential(
        "crash",
        FleetConfig::crash_failover(SEED),
        crash::END,
        &[(crash::KILL_AT, Action::Kill(crash::VICTIM))],
    );
}

#[test]
fn rejoin_after_crash_skips_bit_identically() {
    differential(
        "rejoin",
        FleetConfig::rejoin_after_crash(SEED),
        rejoin::END,
        &[
            (rejoin::KILL_AT, Action::Kill(rejoin::VICTIM)),
            (rejoin::REVIVE_AT, Action::Revive(rejoin::VICTIM)),
        ],
    );
}

/// The scenario runners, which run through the skipping engine, are a
/// pure function of the seed at one worker and at four: every runner at
/// the bench seed, and the budgeted storm at a second seed.
#[test]
fn scenario_runners_are_bit_identical_across_worker_counts() {
    let jobs: Vec<u8> = (0..10).collect();
    let run = |workers: usize| -> Vec<String> {
        run_jobs_with(workers, &jobs, |&job| match job {
            0 => run_retry_storm(SEED, true).to_json(),
            1 => run_retry_storm(SEED, false).to_json(),
            2 => run_retry_storm(13, false).to_json(),
            3 => run_crash_failover(SEED).to_json(),
            4 => run_partition_heal(SEED, true).to_json(),
            5 => run_partition_heal(SEED, false).to_json(),
            6 => run_flapping_partition(SEED).to_json(),
            7 => run_rejoin(SEED).to_json(),
            8 => run_brownout(SEED, true).to_json(),
            _ => run_brownout(SEED, false).to_json(),
        })
    };
    // The two widths run side by side: the naive storm dominates each.
    let runs = run_jobs_with(2, &[1, 4], |&workers| run(workers));
    assert_eq!(runs[0], runs[1], "scenario outcomes diverged between 1 and 4 workers");
}
