//! Deterministic-replay tests for the parallel experiment harness: the
//! same experiment grid must produce bit-identical results (values *and*
//! ordering) at any worker-pool width.

use firefly::core::{CacheGeometry, ProtocolKind};
use firefly::sim::harness::run_jobs_with;
use firefly::sim::sweep::{format_sweep, scaling_sweep_on};
use firefly::sim::{FireflyBuilder, Measurement};
use serde::Serialize;
use std::collections::HashSet;

/// A mixed grid: varying CPU counts, protocols, geometries, and seeds.
fn mixed_grid() -> Vec<FireflyBuilder> {
    let mut grid = Vec::new();
    for cpus in [1usize, 2, 3] {
        grid.push(FireflyBuilder::microvax(cpus).seed(11));
    }
    for kind in [ProtocolKind::Dragon, ProtocolKind::Illinois, ProtocolKind::WriteOnce] {
        grid.push(FireflyBuilder::microvax(2).protocol(kind).seed(23));
    }
    grid.push(FireflyBuilder::microvax(2).cache(CacheGeometry::new(16384, 1).unwrap()).seed(31));
    grid
}

/// Every point of the mixed grid, measured on `workers` workers.
fn measure_grid(workers: usize) -> Vec<Measurement> {
    run_jobs_with(workers, &mixed_grid(), |b| b.clone().build().measure(10_000, 20_000))
}

/// Bit-identical measurements — including their order — at one worker
/// versus many, and again on a repeated parallel run (no run-to-run
/// scheduling sensitivity).
#[test]
fn experiment_grid_is_bit_identical_across_worker_counts() {
    let serial = measure_grid(1);
    let parallel = measure_grid(8);
    let parallel_again = measure_grid(3);

    assert_eq!(serial, parallel, "1 worker vs 8 workers diverged");
    assert_eq!(parallel, parallel_again, "8 workers vs 3 workers diverged");

    // The measurements serialize identically too.
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// The acceptance benchmark: a scaling sweep over 1..=8 CPUs renders a
/// byte-identical Table-1 block at 1 worker and N workers.
#[test]
fn scaling_sweep_formats_identically_at_any_width() {
    let counts: Vec<usize> = (1..=8).collect();
    let serial = scaling_sweep_on(1, &counts, ProtocolKind::Firefly, 42, 40_000, 80_000);
    let parallel = scaling_sweep_on(8, &counts, ProtocolKind::Firefly, 42, 40_000, 80_000);

    assert_eq!(
        format_sweep(&serial),
        format_sweep(&parallel),
        "formatted sweep must be byte-identical at 1 vs 8 workers"
    );
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// The generic pool preserves submission order even when later jobs
/// finish long before earlier ones.
#[test]
fn job_order_is_submission_order_not_completion_order() {
    // Front-load the expensive jobs so cheap ones finish first.
    let jobs: Vec<u64> = (0..32).map(|i| if i < 4 { 400_000 } else { 100 }).collect();
    let results = run_jobs_with(8, &jobs, |&n| {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        (n, acc)
    });
    for (i, (n, _)) in results.iter().enumerate() {
        assert_eq!(*n, jobs[i], "slot {i} holds the wrong job's result");
    }
}

/// `FIREFLY_JOBS` is read by `worker_count`, but an explicit width in
/// `run_jobs_with` always wins — so tests pinning widths are immune to
/// the environment: one worker runs every job on the caller's thread,
/// and two workers never run jobs on more than two threads.
#[test]
fn explicit_width_overrides_environment() {
    let jobs: Vec<u64> = (0..16).collect();
    let threads = |workers| run_jobs_with(workers, &jobs, |_| std::thread::current().id());
    assert!(threads(1).iter().all(|&id| id == std::thread::current().id()));
    let distinct = threads(2).into_iter().collect::<HashSet<_>>().len();
    assert!(distinct <= 2, "{distinct} threads ran jobs on a 2-worker pool");
}
