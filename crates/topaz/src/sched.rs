//! The Taos thread scheduler.
//!
//! §5.1 explains the design constraint: under conditional write-through,
//! "if processes are allowed to move freely between processors, the
//! number of unnecessary writes could be significant, since most of the
//! writeable data for a process will be in both the old and the new cache
//! until the data is displaced by the activity of another process. For
//! this reason, the Topaz scheduler goes to some effort to avoid process
//! migration."
//!
//! Both policies are implemented so the cost of free migration can be
//! measured (the migration ablation bench):
//!
//! * [`MigrationPolicy::AvoidMigration`] — an idle processor prefers
//!   threads that last ran on it; it steals a foreign thread only after
//!   a patience interval, so the machine still makes progress.
//! * [`MigrationPolicy::FreeMigration`] — strict FIFO: any idle
//!   processor takes the oldest runnable thread.

use crate::ids::ThreadId;
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::Error;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Whether the scheduler avoids moving threads between processors.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum MigrationPolicy {
    /// The Taos behaviour: prefer the thread's previous processor.
    #[default]
    AvoidMigration,
    /// Strict FIFO dispatch regardless of cache affinity.
    FreeMigration,
}

firefly_core::snap_enum!(MigrationPolicy { AvoidMigration = 0, FreeMigration = 1 });

/// The ready queue plus dispatch policy.
#[derive(Debug)]
pub struct Scheduler {
    policy: MigrationPolicy,
    /// FIFO of runnable threads with their last CPU (None = never ran).
    ready: VecDeque<(ThreadId, Option<usize>)>,
    /// Idle cycles accumulated per CPU since its last dispatch, used as
    /// stealing patience under `AvoidMigration`.
    idle: Vec<u64>,
    /// How long an idle CPU holds out for an affine thread before
    /// stealing (in bus cycles).
    steal_patience: u64,
    dispatches: u64,
    migrations: u64,
}

impl Scheduler {
    /// Creates a scheduler for `cpus` processors.
    pub fn new(cpus: usize, policy: MigrationPolicy, steal_patience: u64) -> Self {
        Scheduler {
            policy,
            ready: VecDeque::new(),
            idle: vec![0; cpus],
            steal_patience,
            dispatches: 0,
            migrations: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> MigrationPolicy {
        self.policy
    }

    /// Makes a thread runnable.
    pub fn enqueue(&mut self, t: ThreadId, last_cpu: Option<usize>) {
        debug_assert!(!self.ready.iter().any(|&(q, _)| q == t), "{t} enqueued twice");
        self.ready.push_back((t, last_cpu));
    }

    /// Number of runnable threads.
    pub fn runnable(&self) -> usize {
        self.ready.len()
    }

    /// Records one idle cycle on `cpu` (builds stealing patience).
    pub fn note_idle(&mut self, cpu: usize) {
        self.idle[cpu] += 1;
    }

    /// Records `cycles` idle cycles on `cpu` at once.
    pub fn note_idle_cycles(&mut self, cpu: usize, cycles: u64) {
        self.idle[cpu] += cycles;
    }

    /// The first cycle at or after `from` at which [`dispatch`] on an
    /// idle `cpu`, noting one idle cycle per cycle, picks a thread if
    /// nothing is enqueued meanwhile; `u64::MAX` if it never would.
    ///
    /// [`dispatch`]: Scheduler::dispatch
    pub fn dispatch_cycle(&self, cpu: usize, from: u64) -> u64 {
        let affine = |&(_, last): &(ThreadId, Option<usize>)| last.is_none() || last == Some(cpu);
        match self.policy {
            _ if self.ready.is_empty() => u64::MAX,
            MigrationPolicy::AvoidMigration if !self.ready.iter().any(affine) => {
                from + self.steal_patience.saturating_sub(self.idle[cpu])
            }
            _ => from,
        }
    }

    /// Picks the next thread for an idle `cpu`, or `None` if the policy
    /// prefers to keep waiting (or nothing is runnable).
    ///
    /// Returns the thread and whether dispatching it is a migration.
    pub fn dispatch(&mut self, cpu: usize) -> Option<(ThreadId, bool)> {
        if self.ready.is_empty() {
            return None;
        }
        let pick = match self.policy {
            MigrationPolicy::FreeMigration => Some(0),
            MigrationPolicy::AvoidMigration => {
                // Prefer an affine (or never-run) thread; otherwise steal
                // only once patience runs out.
                let affine =
                    self.ready.iter().position(|&(_, last)| last.is_none() || last == Some(cpu));
                match affine {
                    Some(i) => Some(i),
                    None if self.idle[cpu] >= self.steal_patience => Some(0),
                    None => None,
                }
            }
        };
        let i = pick?;
        let (t, last) = self.ready.remove(i).expect("index from position");
        let migrated = matches!(last, Some(prev) if prev != cpu);
        self.dispatches += 1;
        if migrated {
            self.migrations += 1;
        }
        self.idle[cpu] = 0;
        Some((t, migrated))
    }

    /// Total dispatches so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Dispatches that moved a thread to a different processor.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Serializes the ready queue, per-CPU idle counters, and dispatch
    /// statistics for a machine checkpoint.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.policy, self.steal_patience));
        w.put(&self.ready);
        w.put(&self.idle);
        w.put(&(self.dispatches, self.migrations));
    }

    /// Restores state captured by [`Scheduler::save`] into a scheduler
    /// built for the same machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] if the policy tag is invalid,
    /// the CPU count differs, or a recorded last-CPU is out of range.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let (policy, steal_patience) = r.get()?;
        let ready: VecDeque<(ThreadId, Option<usize>)> = r.get()?;
        if let Some(cpu) =
            ready.iter().filter_map(|&(_, last)| last).find(|&c| c >= self.idle.len())
        {
            return Err(Error::SnapshotCorrupt(format!("last CPU {cpu} out of range")));
        }
        let idle: Vec<u64> = r.get()?;
        if idle.len() != self.idle.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {} CPUs, scheduler has {}",
                idle.len(),
                self.idle.len()
            )));
        }
        (self.policy, self.steal_patience, self.ready, self.idle) =
            (policy, steal_patience, ready, idle);
        (self.dispatches, self.migrations) = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_migration_is_fifo() {
        let mut s = Scheduler::new(2, MigrationPolicy::FreeMigration, 100);
        s.enqueue(ThreadId::new(1), Some(0));
        s.enqueue(ThreadId::new(2), Some(1));
        let (t, migrated) = s.dispatch(1).unwrap();
        assert_eq!(t, ThreadId::new(1));
        assert!(migrated, "thread 1 last ran on CPU 0");
    }

    #[test]
    fn avoid_migration_prefers_affine() {
        let mut s = Scheduler::new(2, MigrationPolicy::AvoidMigration, 100);
        s.enqueue(ThreadId::new(1), Some(0));
        s.enqueue(ThreadId::new(2), Some(1));
        let (t, migrated) = s.dispatch(1).unwrap();
        assert_eq!(t, ThreadId::new(2), "CPU 1 skips the foreign thread");
        assert!(!migrated);
    }

    #[test]
    fn avoid_migration_steals_after_patience() {
        let mut s = Scheduler::new(2, MigrationPolicy::AvoidMigration, 10);
        s.enqueue(ThreadId::new(1), Some(0));
        assert!(s.dispatch(1).is_none(), "affinity elsewhere, patience not expired");
        for _ in 0..10 {
            s.note_idle(1);
        }
        let (t, migrated) = s.dispatch(1).unwrap();
        assert_eq!(t, ThreadId::new(1));
        assert!(migrated);
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn never_run_threads_dispatch_anywhere_without_migration() {
        let mut s = Scheduler::new(4, MigrationPolicy::AvoidMigration, 100);
        s.enqueue(ThreadId::new(9), None);
        let (t, migrated) = s.dispatch(3).unwrap();
        assert_eq!(t, ThreadId::new(9));
        assert!(!migrated);
    }

    #[test]
    fn empty_queue_dispatches_nothing() {
        let mut s = Scheduler::new(1, MigrationPolicy::FreeMigration, 0);
        assert!(s.dispatch(0).is_none());
        assert_eq!(s.runnable(), 0);
    }

    #[test]
    fn snapshot_roundtrips_queue_order_and_patience() {
        let mut s = Scheduler::new(3, MigrationPolicy::AvoidMigration, 10);
        s.enqueue(ThreadId::new(1), Some(0));
        s.enqueue(ThreadId::new(3), Some(2));
        let _ = s.dispatch(0); // t1, affine
        for _ in 0..7 {
            s.note_idle(1);
        }
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();

        let mut twin = Scheduler::new(3, MigrationPolicy::FreeMigration, 999);
        twin.load(&mut SnapReader::new(&bytes)).expect("load");
        assert_eq!(twin.runnable(), s.runnable());
        assert_eq!(twin.dispatches(), s.dispatches());
        // Identical future behaviour: CPU 1's partial patience resumes.
        for side in [&mut s, &mut twin] {
            assert!(side.dispatch(1).is_none(), "t3 is foreign, patience not expired");
            for _ in 0..3 {
                side.note_idle(1);
            }
            assert_eq!(side.dispatch(1), Some((ThreadId::new(3), true)), "steal at 10 idles");
        }
        assert_eq!(twin.migrations(), s.migrations());

        // Machine-shape mismatch is rejected.
        let mut wrong = Scheduler::new(2, MigrationPolicy::AvoidMigration, 10);
        assert!(matches!(wrong.load(&mut SnapReader::new(&bytes)), Err(Error::SnapshotCorrupt(_))));
    }
}
