//! The parallel experiment harness.
//!
//! The paper's evaluation is a grid of *independent* simulator
//! configurations — processor counts × protocols × cache geometries
//! (Tables 1–2, Figures 3–4, the Archibald & Baer-style protocol
//! comparison). Every point of such a grid is a self-contained,
//! deterministic simulation, so the harness fans them out across a
//! [`std::thread::scope`]-based worker pool and reassembles the results
//! in submission order:
//!
//! * [`run_jobs`] / [`run_jobs_with`] — the generic fan-out: any
//!   `Sync` job type, any `Send` result, order-preserving.
//! * [`run_jobs_catch_with`] — the same fan-out with per-job panic
//!   isolation: a panicking job becomes `Err(message)` in its slot and
//!   the rest of the grid still completes.
//! * [`ExperimentSpec`] → [`ExperimentResult`] — the machine-level job:
//!   one full-system configuration, warmed up and measured, with
//!   host-side throughput counters
//!   ([`firefly_core::stats::HostCounters`]) captured per job.
//! * [`run_experiments`] / [`run_experiments_with`] — a spec grid in,
//!   a [`HarnessRun`] out (results + timings + the harness's own
//!   speedup), JSON-emittable via [`HarnessRun::to_json`].
//!
//! # Determinism
//!
//! Every job carries its own seed and owns all of its state (machine,
//! RNGs, statistics); the pool shares nothing but the job list and the
//! result slots. Results are written back by job index, so the output
//! is **bit-identical for any worker count and any scheduling order**
//! — `tests/harness.rs` at the workspace root asserts this, down to
//! the formatted sweep text. Wall-clock counters live *outside*
//! [`ExperimentResult`] (in [`CompletedExperiment::host`]) precisely so
//! the deterministic payload stays comparable with `==`.
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
//! use firefly_sim::harness::{run_experiments_with, ExperimentSpec};
//! use firefly_core::ProtocolKind;
//!
//! let specs: Vec<ExperimentSpec> = [1usize, 2]
//!     .iter()
//!     .map(|&cpus| {
//!         ExperimentSpec::new(format!("np{cpus}"), cpus)
//!             .protocol(ProtocolKind::Firefly)
//!             .seed(7)
//!             .window(5_000, 10_000)
//!     })
//!     .collect();
//! let run = run_experiments_with(2, specs);
//! assert_eq!(run.jobs.len(), 2);
//! assert!(run.jobs[1].result.measurement.bus_load > 0.0);
//! assert!(run.speedup > 0.0);
//! ```

use crate::machine::{FireflyBuilder, Workload};
use crate::measure::Measurement;
use firefly_core::fault::FaultConfig;
use firefly_core::stats::{HostCounters, HostSpan};
use firefly_core::{CacheGeometry, MachineVariant, ProtocolKind};
use firefly_cpu::CpuConfig;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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
/// Panics if any job panics: every job is still isolated with
/// [`run_jobs_catch_with`], so the whole grid completes first, then the
/// earliest failure (by job index) is re-raised with its original
/// message.
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

/// Like [`run_jobs_with`], but each job runs under
/// [`std::panic::catch_unwind`]: a panicking job becomes
/// `Err(panic message)` in its slot while every other job still runs to
/// completion. One faulty configuration therefore cannot take down a
/// whole sweep, and the outcome vector is deterministic — same jobs,
/// same `Ok`/`Err` pattern — for any worker count.
pub fn run_jobs_catch_with<J, R, F>(workers: usize, jobs: &[J], f: F) -> Vec<Result<R, String>>
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

/// One experiment: a full machine configuration plus its measurement
/// window. Construct with [`ExperimentSpec::new`] and the builder-style
/// setters; run a grid of them with [`run_experiments`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ExperimentSpec {
    /// Display label ("NP=4", "64 KB, 16-byte lines", …).
    pub label: String,
    /// Machine generation.
    pub variant: MachineVariant,
    /// Processor count (1..=14).
    pub cpus: usize,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Cache-geometry override (`None` = the variant's default).
    pub cache: Option<CacheGeometry>,
    /// Processor-configuration override (e.g. prefetch enabled).
    pub cpu_config: Option<CpuConfig>,
    /// What the processors execute.
    pub workload: Workload,
    /// Attach the I/O system to port 0.
    pub io: bool,
    /// Deterministic fault-injection plan (`None` = fault-free).
    pub faults: Option<FaultConfig>,
    /// RNG seed; results are a pure function of the spec including it.
    pub seed: u64,
    /// Warm-up bus cycles before the window opens.
    pub warmup: u64,
    /// Measurement-window bus cycles.
    pub window: u64,
    /// Checkpoint interval in bus cycles (`None` = no checkpointing).
    /// When set, the job snapshots the machine every interval and a
    /// panicking run is retried **once** from its last checkpoint
    /// instead of losing the whole window; chunk boundaries are
    /// deterministic, so results stay bit-identical with and without a
    /// crash.
    pub checkpoint_every: Option<u64>,
}

impl ExperimentSpec {
    /// A MicroVAX spec with the calibrated workload, Firefly protocol,
    /// and a 200k/400k-cycle measurement window.
    pub fn new(label: impl Into<String>, cpus: usize) -> Self {
        ExperimentSpec {
            label: label.into(),
            variant: MachineVariant::MicroVax,
            cpus,
            protocol: ProtocolKind::Firefly,
            cache: None,
            cpu_config: None,
            workload: Workload::default(),
            io: false,
            faults: None,
            seed: 0xf1ef1e,
            warmup: 200_000,
            window: 400_000,
            checkpoint_every: None,
        }
    }

    /// Enables periodic checkpointing every `cycles` bus cycles (see
    /// [`ExperimentSpec::checkpoint_every`]).
    pub fn checkpoint(mut self, cycles: u64) -> Self {
        self.checkpoint_every = Some(cycles);
        self
    }

    /// Selects the machine generation.
    pub fn variant(mut self, variant: MachineVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the coherence protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the cache geometry.
    pub fn cache(mut self, cache: CacheGeometry) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the processor configuration.
    pub fn cpu_config(mut self, cfg: CpuConfig) -> Self {
        self.cpu_config = Some(cfg);
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Attaches the I/O system.
    pub fn with_io(mut self) -> Self {
        self.io = true;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets warm-up and measurement-window lengths (bus cycles).
    pub fn window(mut self, warmup: u64, window: u64) -> Self {
        self.warmup = warmup;
        self.window = window;
        self
    }

    /// The [`FireflyBuilder`] this spec describes.
    pub fn builder(&self) -> FireflyBuilder {
        let mut b = match self.variant {
            MachineVariant::MicroVax => FireflyBuilder::microvax(self.cpus),
            MachineVariant::CVax => FireflyBuilder::cvax(self.cpus),
        }
        .protocol(self.protocol)
        .workload(self.workload)
        .seed(self.seed);
        if let Some(c) = self.cache {
            b = b.cache(c);
        }
        if let Some(c) = self.cpu_config {
            b = b.cpu_config(c);
        }
        if self.io {
            b = b.with_io();
        }
        if let Some(f) = self.faults {
            b = b.faults(f);
        }
        b
    }

    /// Builds the machine, runs warm-up + window, and returns the
    /// deterministic measurement together with host-side counters. With
    /// [`ExperimentSpec::checkpoint_every`] set, the run is chunked and
    /// a crash resumes once from the last checkpoint.
    pub fn run(&self) -> CompletedExperiment {
        match self.checkpoint_every {
            None => self.run_plain(),
            Some(k) => self.run_checkpointed(k, None),
        }
    }

    fn run_plain(&self) -> CompletedExperiment {
        let start = Instant::now();
        let elapsed_ns =
            |since: Instant| u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let span = |name: &str, from: Instant, opened_at: Instant| HostSpan {
            name: name.to_string(),
            start_ns: u64::try_from((opened_at - from).as_nanos()).unwrap_or(u64::MAX),
            dur_ns: elapsed_ns(opened_at),
        };

        let build_at = Instant::now();
        let mut machine = self.builder().build();
        let build_span = span("build", start, build_at);

        let warmup_at = Instant::now();
        machine.run(self.warmup);
        let warmup_span = span("warmup", start, warmup_at);

        let window_at = Instant::now();
        let snap = crate::measure::Snapshot::take(&machine);
        machine.run(self.window);
        let measurement = snap.finish(&machine, self.window);
        let window_span = span("window", start, window_at);

        let instructions: u64 = machine.processors().iter().map(|p| p.stats().instructions).sum();
        let host = HostCounters {
            wall_ns: elapsed_ns(start),
            instructions,
            sim_cycles: self.warmup + self.window,
        };
        CompletedExperiment {
            result: ExperimentResult {
                label: self.label.clone(),
                cpus: self.cpus,
                protocol: self.protocol,
                seed: self.seed,
                measurement,
                failed: None,
                last_checkpoint: None,
            },
            host,
            spans: vec![build_span, warmup_span, window_span],
        }
    }

    /// The checkpointed run: warm-up + window in chunks of at most `k`
    /// cycles (always aligned to the warm-up boundary so the window
    /// opens at exactly the same cycle as an unchunked run), a machine
    /// snapshot after every healthy chunk, and a single retry from the
    /// last snapshot when a chunk panics. `sabotage(cycles_done)` is a
    /// test hook invoked inside the protected region after every chunk.
    fn run_checkpointed(&self, k: u64, sabotage: Option<&dyn Fn(u64)>) -> CompletedExperiment {
        let start = Instant::now();
        let elapsed_ns =
            |since: Instant| u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let build_at = Instant::now();
        let mut machine = self.builder().build();
        let build_span = HostSpan {
            name: "build".to_string(),
            start_ns: u64::try_from((build_at - start).as_nanos()).unwrap_or(u64::MAX),
            dur_ns: elapsed_ns(build_at),
        };

        let k = k.max(1);
        let total = self.warmup + self.window;
        let mut done = 0u64;
        let mut checkpoint: Option<(u64, Vec<u8>)> = None;
        let mut baseline: Option<crate::measure::Snapshot> = None;
        let mut crashed: Option<String> = None;
        let mut retried = false;
        let run_at = Instant::now();
        while done < total {
            if done == self.warmup && baseline.is_none() {
                baseline = Some(crate::measure::Snapshot::take(&machine));
            }
            let step =
                if done < self.warmup { k.min(self.warmup - done) } else { k.min(total - done) };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                machine.run(step);
                if let Some(hook) = sabotage {
                    hook(done + step);
                }
            }));
            match outcome {
                Ok(()) => {
                    done += step;
                    // An unsnapshottable machine (I/O attached) simply
                    // runs on without crash protection.
                    if let Ok(bytes) = machine.save_snapshot() {
                        checkpoint = Some((done, bytes));
                    }
                }
                Err(payload) => {
                    let msg = panic_message(payload);
                    if retried {
                        crashed = Some(msg);
                        break;
                    }
                    retried = true;
                    // The panicked machine is suspect; rebuild and
                    // resume from the last good checkpoint (or from
                    // scratch when none was taken yet).
                    machine = self.builder().build();
                    done = match &checkpoint {
                        Some((cycle, bytes)) if machine.load_snapshot(bytes).is_ok() => *cycle,
                        _ => 0,
                    };
                    if done < self.warmup {
                        baseline = None;
                    }
                }
            }
        }
        let run_span = HostSpan {
            name: "run".to_string(),
            start_ns: u64::try_from((run_at - start).as_nanos()).unwrap_or(u64::MAX),
            dur_ns: elapsed_ns(run_at),
        };
        let last_checkpoint = checkpoint.as_ref().map(|(cycle, _)| *cycle);

        let measurement = match (&crashed, baseline) {
            (None, Some(snap)) => snap.finish(&machine, self.window),
            _ => Measurement::default(),
        };
        let instructions: u64 = machine.processors().iter().map(|p| p.stats().instructions).sum();
        let host = HostCounters { wall_ns: elapsed_ns(start), instructions, sim_cycles: done };
        CompletedExperiment {
            result: ExperimentResult {
                label: self.label.clone(),
                cpus: self.cpus,
                protocol: self.protocol,
                seed: self.seed,
                measurement,
                failed: crashed,
                last_checkpoint,
            },
            host,
            spans: vec![build_span, run_span],
        }
    }

    /// The placeholder outcome for a job that panicked: a zeroed
    /// measurement with the panic message in
    /// [`ExperimentResult::failed`], so a sweep stays rectangular and
    /// deterministic even when one configuration dies.
    fn failed(&self, message: String) -> CompletedExperiment {
        CompletedExperiment {
            result: ExperimentResult {
                label: self.label.clone(),
                cpus: self.cpus,
                protocol: self.protocol,
                seed: self.seed,
                measurement: Measurement::default(),
                failed: Some(message),
                last_checkpoint: None,
            },
            host: HostCounters::default(),
            spans: Vec::new(),
        }
    }
}

/// The deterministic outcome of one [`ExperimentSpec`]: everything here
/// is a pure function of the spec, so equal specs compare equal with
/// `==` no matter where or when they ran.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// The spec's label.
    pub label: String,
    /// Processor count.
    pub cpus: usize,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// The seed the job ran with.
    pub seed: u64,
    /// The measurement over the spec's window (all-zero when the job
    /// failed).
    pub measurement: Measurement,
    /// `Some(panic message)` when the job panicked instead of
    /// completing; `None` for a healthy run.
    pub failed: Option<String>,
    /// Cycle of the job's last machine checkpoint (`None` unless
    /// [`ExperimentSpec::checkpoint_every`] was set and at least one
    /// snapshot was taken). For a failed job this is the resume point a
    /// triage run can restart from.
    pub last_checkpoint: Option<u64>,
}

/// An [`ExperimentResult`] plus the host-side counters of the job that
/// produced it (which are *not* deterministic and therefore kept out of
/// the result).
#[derive(Clone, Debug, Serialize)]
pub struct CompletedExperiment {
    /// The deterministic payload.
    pub result: ExperimentResult,
    /// Host wall-clock and throughput counters for this job.
    pub host: HostCounters,
    /// Host-timing spans for the job's build, warm-up, and measurement
    /// stages (empty for a job that panicked). Like
    /// [`CompletedExperiment::host`], these are wall-clock readings and
    /// therefore *not* deterministic.
    pub spans: Vec<HostSpan>,
}

/// A completed grid: per-job results and the harness's own performance
/// accounting.
#[derive(Clone, Debug, Serialize)]
pub struct HarnessRun {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole grid.
    pub wall_ns: u64,
    /// Σ per-job wall-clock ÷ grid wall-clock — the parallel speedup
    /// actually achieved (≈ `workers` when jobs pack well).
    pub speedup: f64,
    /// Per-job outcomes, in spec order.
    pub jobs: Vec<CompletedExperiment>,
}

impl HarnessRun {
    /// The deterministic results, in spec order.
    pub fn results(&self) -> impl Iterator<Item = &ExperimentResult> {
        self.jobs.iter().map(|j| &j.result)
    }

    /// Aggregated host counters over all jobs (`wall_ns` is the *sum*
    /// of per-job wall time — CPU time, roughly — not the elapsed time;
    /// compare with [`HarnessRun::wall_ns`] for the speedup).
    pub fn total_host(&self) -> HostCounters {
        self.jobs.iter().map(|j| j.host).sum()
    }

    /// A one-line human summary of the harness's own performance.
    pub fn summary(&self) -> String {
        let total = self.total_host();
        format!(
            "harness: {} job(s) on {} worker(s) in {:.2}s \
             (busy {:.2}s, speedup {:.2}x, {:.1}M simulated instr/s)",
            self.jobs.len(),
            self.workers,
            self.wall_ns as f64 * 1e-9,
            total.wall_ns as f64 * 1e-9,
            self.speedup,
            total.instructions as f64 / (self.wall_ns.max(1) as f64 * 1e-9) / 1e6,
        )
    }

    /// The run as a JSON document (schema documented in the README's
    /// "Running the evaluation in parallel" section).
    pub fn to_json(&self) -> String {
        Serialize::to_json(self)
    }
}

/// Runs a spec grid on [`worker_count`] workers.
pub fn run_experiments(specs: Vec<ExperimentSpec>) -> HarnessRun {
    run_experiments_with(worker_count(), specs)
}

/// Runs a spec grid on `workers` workers. Results come back in spec
/// order and are bit-identical for every `workers` value. A job that
/// panics is isolated: its slot carries a zeroed measurement with
/// [`ExperimentResult::failed`] set, and every other job still
/// completes.
pub fn run_experiments_with(workers: usize, specs: Vec<ExperimentSpec>) -> HarnessRun {
    let start = Instant::now();
    let jobs = run_jobs_catch_with(workers, &specs, ExperimentSpec::run)
        .into_iter()
        .zip(&specs)
        .map(|(outcome, spec)| outcome.unwrap_or_else(|msg| spec.failed(msg)))
        .collect::<Vec<_>>();
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let busy_ns: u64 = jobs.iter().map(|j| j.host.wall_ns).sum();
    HarnessRun {
        workers: workers.max(1).min(specs.len().max(1)),
        wall_ns,
        speedup: busy_ns as f64 / wall_ns.max(1) as f64,
        jobs,
    }
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
    fn experiment_results_identical_across_worker_counts() {
        let grid = || {
            vec![
                ExperimentSpec::new("a", 1).seed(3).window(5_000, 10_000),
                ExperimentSpec::new("b", 2).seed(3).window(5_000, 10_000),
                ExperimentSpec::new("c", 2)
                    .protocol(ProtocolKind::Dragon)
                    .seed(4)
                    .window(5_000, 10_000),
            ]
        };
        let serial = run_experiments_with(1, grid());
        let parallel = run_experiments_with(4, grid());
        let a: Vec<_> = serial.results().collect();
        let b: Vec<_> = parallel.results().collect();
        assert_eq!(a, b, "results must not depend on the worker count");
    }

    #[test]
    fn spec_builder_round_trips_configuration() {
        let spec = ExperimentSpec::new("x", 3)
            .variant(MachineVariant::CVax)
            .protocol(ProtocolKind::Illinois)
            .seed(9)
            .window(1_000, 2_000);
        let m = spec.builder().build();
        assert_eq!(m.cpus(), 3);
        assert_eq!(m.memory().protocol_kind(), ProtocolKind::Illinois);
        assert_eq!(m.memory().config().memory_bytes(), 128 << 20);
    }

    #[test]
    fn completed_experiment_carries_host_counters() {
        let done = ExperimentSpec::new("h", 1).window(2_000, 4_000).run();
        assert_eq!(done.host.sim_cycles, 6_000);
        assert!(done.host.instructions > 0);
        assert!(done.host.wall_ns > 0);
        assert!(done.host.instructions_per_sec() > 0.0);
    }

    #[test]
    fn completed_experiment_carries_stage_spans() {
        let done = ExperimentSpec::new("s", 1).window(2_000, 4_000).run();
        let names: Vec<&str> = done.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["build", "warmup", "window"]);
        // Stages open in order and the spans nest inside the job's wall
        // time.
        for pair in done.spans.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
        for s in &done.spans {
            assert!(s.start_ns.saturating_add(s.dur_ns) <= done.host.wall_ns, "{s:?}");
        }
        // A panicked job carries no spans.
        let failed = ExperimentSpec::new("bad", 0).failed("boom".into());
        assert!(failed.spans.is_empty());
    }

    #[test]
    fn harness_json_has_the_documented_shape() {
        let run = run_experiments_with(2, vec![ExperimentSpec::new("j", 1).window(1_000, 2_000)]);
        let json = run.to_json();
        for key in [
            "\"workers\":",
            "\"speedup\":",
            "\"jobs\":",
            "\"measurement\":",
            "\"host\":",
            "\"wall_ns\":",
            "\"label\":\"j\"",
            "\"protocol\":\"Firefly\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
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

    #[test]
    fn failed_experiment_yields_a_structured_slot_not_a_crash() {
        // cpus = 0 panics inside FireflyBuilder::microvax, i.e. inside
        // the job — the grid must absorb it.
        let grid = || {
            vec![
                ExperimentSpec::new("ok", 1).seed(2).window(1_000, 2_000),
                ExperimentSpec::new("bad", 0),
                ExperimentSpec::new("also-ok", 2).seed(2).window(1_000, 2_000),
            ]
        };
        let serial = run_experiments_with(1, grid());
        let parallel = run_experiments_with(3, grid());
        for run in [&serial, &parallel] {
            assert_eq!(run.jobs.len(), 3);
            assert!(run.jobs[0].result.failed.is_none());
            assert!(run.jobs[2].result.failed.is_none());
            let failed = run.jobs[1].result.failed.as_ref().expect("bad spec fails");
            assert!(failed.contains("1..=14"), "panic message survives: {failed:?}");
            assert_eq!(run.jobs[1].result.measurement, Measurement::default());
            assert_eq!(run.jobs[1].result.label, "bad");
        }
        let a: Vec<_> = serial.results().collect();
        let b: Vec<_> = parallel.results().collect();
        assert_eq!(a, b, "failure slots are deterministic across worker counts");
    }

    #[test]
    fn checkpointed_run_matches_the_plain_run_bit_for_bit() {
        let spec = ExperimentSpec::new("ck", 2).seed(8).window(6_000, 12_000);
        let plain = spec.clone().run();
        let chunked = spec.checkpoint(4_000).run();
        assert_eq!(chunked.result.measurement, plain.result.measurement);
        assert!(chunked.result.failed.is_none());
        assert_eq!(chunked.result.last_checkpoint, Some(18_000));
    }

    #[test]
    fn crashed_chunk_resumes_from_the_last_checkpoint() {
        use std::cell::Cell;
        let spec = ExperimentSpec::new("crash", 2).seed(8).window(6_000, 12_000);
        let clean = spec.clone().checkpoint(4_000).run();

        // One transient crash two chunks into the window: the job must
        // resume from the 10_000-cycle checkpoint and finish with a
        // measurement identical to the crash-free run.
        let fired = Cell::new(false);
        let sabotage = |cycles: u64| {
            if cycles >= 14_000 && !fired.replace(true) {
                panic!("transient fault at {cycles}");
            }
        };
        let survived = spec.clone().checkpoint(4_000).run_checkpointed(4_000, Some(&sabotage));
        assert!(survived.result.failed.is_none(), "{:?}", survived.result.failed);
        assert_eq!(survived.result.measurement, clean.result.measurement);

        // A persistent crash exhausts the single retry: the panic
        // message and the resume point are both captured for triage.
        let always = |cycles: u64| {
            if cycles >= 14_000 {
                panic!("persistent fault at {cycles}");
            }
        };
        let dead = spec.checkpoint(4_000).run_checkpointed(4_000, Some(&always));
        let msg = dead.result.failed.as_ref().expect("persistent crash fails the job");
        assert!(msg.contains("persistent fault"), "{msg:?}");
        assert_eq!(dead.result.last_checkpoint, Some(10_000), "triage knows the resume point");
        assert_eq!(dead.result.measurement, Measurement::default());
    }

    #[test]
    fn spec_fault_plan_reaches_the_machine_and_stays_deterministic() {
        let spec = || {
            ExperimentSpec::new("faulty", 2)
                .seed(6)
                .faults(FaultConfig::correctable(0xcafe, 30_000))
                .window(5_000, 10_000)
        };
        let serial = run_experiments_with(1, vec![spec(), spec()]);
        let r: Vec<_> = serial.results().collect();
        assert_eq!(r[0], r[1], "same faulty spec, same result");
        assert!(r[0].failed.is_none(), "correctable faults never kill a job");
        // And the plan actually perturbs the run relative to fault-free.
        let clean = ExperimentSpec::new("clean", 2).seed(6).window(5_000, 10_000).run();
        assert_ne!(clean.result.measurement, r[0].measurement);
    }
}
