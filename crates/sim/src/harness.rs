//! The parallel experiment harness.
//!
//! The paper's evaluation is a grid of *independent* simulator
//! configurations — processor counts × protocols × cache geometries
//! (Tables 1–2, Figures 3–4, the Archibald & Baer-style protocol
//! comparison). Every point of such a grid is a self-contained,
//! deterministic simulation, so [`run_jobs`] / [`run_jobs_with`] fan
//! them out across a [`std::thread::scope`]-based worker pool and
//! reassemble the results in submission order. A job is any closure
//! over a `Sync` job description returning a `Send` result; a machine
//! point is typically `FireflyBuilder::…build().measure(warmup,
//! window)`.
//!
//! # Determinism
//!
//! Every job carries its own seed and owns all of its state (machine,
//! RNGs, statistics); the pool shares nothing but the job list and the
//! result slots. Results are written back by job index, so the output
//! is **bit-identical for any worker count and any scheduling order**
//! — `tests/harness.rs` at the workspace root asserts this, down to
//! the formatted sweep text.
//!
//! # Worker count
//!
//! [`worker_count`] honours the `FIREFLY_JOBS` environment variable
//! (any positive integer) and otherwise uses
//! [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use firefly_core::ProtocolKind;
//! use firefly_sim::harness::run_jobs_with;
//! use firefly_sim::FireflyBuilder;
//!
//! let points = run_jobs_with(2, &[1usize, 2], |&cpus| {
//!     FireflyBuilder::microvax(cpus)
//!         .protocol(ProtocolKind::Firefly)
//!         .seed(7)
//!         .build()
//!         .measure(5_000, 10_000)
//! });
//! assert_eq!(points.len(), 2);
//! assert!(points[1].bus_load > 0.0);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker-pool width: `FIREFLY_JOBS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("FIREFLY_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("FIREFLY_JOBS={v:?} is not a positive integer; using available parallelism");
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders a [`catch_unwind`] payload as the panic message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over `jobs` on [`worker_count`] workers. See [`run_jobs_with`].
pub fn run_jobs<J, R, F>(jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_jobs_with(worker_count(), jobs, f)
}

/// Runs `f` over every job on a scoped pool of `workers` threads,
/// returning results in job order (index `i` of the output is job `i`'s
/// result, regardless of which worker ran it or when it finished).
///
/// Work is distributed by an atomic cursor (work stealing at job
/// granularity), so uneven job costs — an 8-CPU simulation next to a
/// 1-CPU one — still pack tightly.
///
/// # Panics
///
/// Panics if any job panics: every job runs under
/// [`std::panic::catch_unwind`], so the whole grid completes first,
/// then the earliest failure (by job index) is re-raised with its
/// original message.
pub fn run_jobs_with<J, R, F>(workers: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_jobs_catch_with(workers, jobs, f)
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| match outcome {
            Ok(r) => r,
            Err(msg) => panic!("job {i} panicked: {msg}"),
        })
        .collect()
}

/// The pool behind [`run_jobs_with`], with each job run under
/// [`std::panic::catch_unwind`]: a panicking job becomes
/// `Err(panic message)` in its slot while every other job still runs to
/// completion, so the outcome vector is deterministic — same jobs, same
/// `Ok`/`Err` pattern — for any worker count.
fn run_jobs_catch_with<J, R, F>(workers: usize, jobs: &[J], f: F) -> Vec<Result<R, String>>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let catch = |job: &J| catch_unwind(AssertUnwindSafe(|| f(job))).map_err(panic_message);

    let workers = workers.max(1).min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(catch).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = catch(job);
                // `catch` never unwinds, so the lock can only be held by
                // a writer that completed; recover from a stale poison
                // flag rather than losing the grid.
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("scope joined every worker, so every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_jobs_with(8, &jobs, |&j| j * j);
        assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_jobs_with(4, &empty, |&j| j).is_empty());
        assert_eq!(run_jobs_with(4, &[9u32], |&j| j + 1), vec![10]);
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // Job cost varies 100x; the atomic cursor must still cover all.
        let jobs: Vec<usize> = (0..40).map(|i| if i % 7 == 0 { 200_000 } else { 2_000 }).collect();
        let out = run_jobs_with(5, &jobs, |&n| (0..n).map(|i| i as u64).sum::<u64>());
        for (i, (&n, &got)) in jobs.iter().zip(&out).enumerate() {
            assert_eq!(got, (n as u64 * (n as u64 - 1)) / 2, "job {i}");
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn panicking_job_is_isolated_and_the_rest_complete() {
        let jobs: Vec<u32> = (0..16).collect();
        let out = run_jobs_catch_with(4, &jobs, |&j| {
            assert!(j != 5, "job five exploded");
            j * 10
        });
        for (i, outcome) in out.iter().enumerate() {
            if i == 5 {
                let msg = outcome.as_ref().unwrap_err();
                assert!(msg.contains("job five exploded"), "got {msg:?}");
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &(i as u32 * 10));
            }
        }
    }

    #[test]
    fn catch_outcomes_match_across_worker_counts() {
        let jobs: Vec<u32> = (0..12).collect();
        let run = |workers| {
            run_jobs_catch_with(workers, &jobs, |&j| {
                assert!(j % 5 != 3, "bad job {j}");
                j + 1
            })
        };
        assert_eq!(run(1), run(6), "Ok/Err pattern must not depend on the worker count");
    }

    #[test]
    #[should_panic(expected = "job five exploded")]
    fn run_jobs_with_still_propagates_the_first_failure() {
        let jobs: Vec<u32> = (0..8).collect();
        let _ = run_jobs_with(3, &jobs, |&j| {
            assert!(j != 5, "job five exploded");
            j
        });
    }
}
