//! Property tests for Tardis timestamp arithmetic and bookkeeping.
//!
//! Three families, mirroring the invariants of Yu & Devadas's Tardis
//! (checked structurally by `CoherenceChecker::check`):
//!
//! 1. **Monotonicity** — under arbitrary interleavings of reads and
//!    writes, every program timestamp (`pts`), every global write
//!    timestamp (`wts`), and every global read timestamp (`rts`) is
//!    non-decreasing, and `wts` advances *strictly* on each write.
//! 2. **Renewal order** — a lease renewal never moves `rts` backward,
//!    and the renewed lease always covers the renewing CPU's `pts`.
//! 3. **Saturation** — the timestamp operators saturate at `u64::MAX`
//!    instead of wrapping, so a (physically unreachable) overflow can
//!    never reorder logical time.
//!
//! Everything here is seeded by proptest's deterministic RNG and runs
//! single-threaded through `MemSystem`, so results are bit-identical
//! regardless of `FIREFLY_JOBS`.

use firefly_core::check::CoherenceChecker;
use firefly_core::config::SystemConfig;
use firefly_core::protocol::{ProtocolKind, TsRules};
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, CacheGeometry, LineId, PortId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn tardis_system(cpus: usize, lease: u64) -> MemSystem {
    let cfg = SystemConfig::microvax(cpus).with_cache(CacheGeometry::new(8, 1).unwrap());
    let mut table = ProtocolKind::Tardis.table();
    table.ts = Some(tardis_rules(lease));
    MemSystem::with_table(cfg, table).unwrap()
}

/// The Tardis timestamp rules at `lease`.
fn tardis_rules(lease: u64) -> TsRules {
    TsRules { lease, ..ProtocolKind::Tardis.table().ts.unwrap() }
}

/// Snapshot of every timestamp the system exposes, for cross-step
/// monotonicity comparison.
fn ts_snapshot(sys: &MemSystem, cpus: usize) -> (Vec<u64>, BTreeMap<u32, (u64, u64)>) {
    let pts = (0..cpus).map(|p| sys.tardis_pts(PortId::new(p))).collect();
    let global = sys.tardis_lines().map(|(l, ts)| (l.raw(), ts)).collect();
    (pts, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings never move any timestamp backwards, and
    /// writes advance the written line's `wts` strictly.
    #[test]
    fn timestamps_are_monotone_under_arbitrary_interleavings(
        script in prop::collection::vec((0..3usize, any::<bool>(), 0u32..6), 1..120),
        lease in 1u64..12,
    ) {
        let cpus = 3;
        let mut sys = tardis_system(cpus, lease);
        let checker = CoherenceChecker::new();
        let (mut pts, mut global) = ts_snapshot(&sys, cpus);
        for (i, &(cpu, write, word)) in script.iter().enumerate() {
            let addr = Addr::from_word_index(word);
            let req = if write { Request::write(addr, i as u32) } else { Request::read(addr) };
            sys.run_to_completion(PortId::new(cpu), req).unwrap();
            checker.check(&sys).unwrap_or_else(|e| panic!("step {i}: {e}"));

            let (new_pts, new_global) = ts_snapshot(&sys, cpus);
            for p in 0..cpus {
                prop_assert!(new_pts[p] >= pts[p], "step {}: P{} pts went backwards", i, p);
            }
            for (&l, &(wts, rts)) in &new_global {
                let (old_wts, old_rts) = global.get(&l).copied().unwrap_or((0, 0));
                prop_assert!(wts >= old_wts, "step {}: line {} wts went backwards", i, l);
                prop_assert!(rts >= old_rts, "step {}: line {} rts went backwards", i, l);
            }
            if write {
                let line = LineId::containing(addr, 1);
                let (wts, _) = sys.tardis_global_ts(line);
                let (old_wts, _) = global.get(&line.raw()).copied().unwrap_or((0, 0));
                prop_assert!(wts > old_wts, "step {}: write did not advance wts strictly", i);
            }
            pts = new_pts;
            global = new_global;
        }
    }

    /// Forced lease renewals: a reader caches a line, expires its own
    /// lease with private writes, and re-reads. The renewal must leave
    /// `rts` no smaller than before and at least the reader's `pts`,
    /// and must actually travel the bus.
    #[test]
    fn lease_renewal_never_moves_rts_backward(
        lease in 1u64..10,
        expiring_writes in 1usize..24,
        reread_rounds in 1usize..4,
    ) {
        let mut sys = tardis_system(2, lease);
        let hot = Addr::from_word_index(0);
        let hot_line = LineId::containing(hot, 1);
        let private = Addr::from_word_index(1);
        let reader = PortId::new(0);

        sys.run_to_completion(reader, Request::read(hot)).unwrap();
        let mut renewed = 0u64;
        for round in 0..reread_rounds {
            let (_, rts_before) = sys.tardis_global_ts(hot_line);
            for k in 0..expiring_writes {
                sys.run_to_completion(reader, Request::write(private, k as u32)).unwrap();
            }
            sys.run_to_completion(reader, Request::read(hot)).unwrap();

            let (wts, rts_after) = sys.tardis_global_ts(hot_line);
            let pts = sys.tardis_pts(reader);
            prop_assert!(rts_after >= rts_before,
                "round {}: renewal moved rts {} -> {}", round, rts_before, rts_after);
            prop_assert!(rts_after >= pts,
                "round {}: renewed lease {} does not cover pts {}", round, rts_after, pts);
            prop_assert!(wts <= rts_after, "round {}: wts {} above rts {}", round, wts, rts_after);
            let local = sys.tardis_line_ts(reader, hot_line)
                .expect("hot line stays resident — nothing evicts or invalidates it");
            prop_assert_eq!(local, (wts, rts_after), "round {}: local lease diverges", round);
            renewed = sys.cache_stats(reader).renewals_sent;
        }
        // Enough private writes always push pts past the lease end, so
        // at least one round genuinely renewed over the bus.
        if expiring_writes as u64 > lease + 1 {
            prop_assert!(renewed > 0, "lease {} never expired after {} writes",
                lease, expiring_writes);
            prop_assert_eq!(sys.bus_stats().renewals, renewed, "bus/cache renewal counts differ");
        }
    }

    /// The timestamp operators saturate at `u64::MAX` — no wraparound
    /// can ever order a later event before an earlier one.
    #[test]
    fn timestamp_arithmetic_saturates_at_u64_max(
        lease in 1u64..1_000,
        pts_pick in 0usize..5,
        g_rts_pick in 0usize..5,
    ) {
        let edges = [0u64, 1, 1 << 32, u64::MAX - 1, u64::MAX];
        let (pts, g_rts) = (edges[pts_pick], [0u64, 7, 1 << 40, u64::MAX - 1, u64::MAX][g_rts_pick]);
        let t = tardis_rules(lease);

        let w = (t.write_order)(pts, g_rts);
        prop_assert!(w >= pts, "write order below pts");
        prop_assert!(w >= g_rts.min(u64::MAX - 1), "write order below the expired lease");
        prop_assert!(w > g_rts || g_rts == u64::MAX, "write did not pass the lease end");

        let granted = (t.grant)(t.lease, pts, g_rts);
        prop_assert!(granted >= g_rts, "grant moved rts backwards");
        prop_assert!(granted >= pts.saturating_add(lease),
            "grant shorter than one lease past pts");
        prop_assert!(granted >= pts, "grant does not cover the reader");

        let advanced = (t.read_advance)(pts, g_rts);
        prop_assert!(advanced >= pts && advanced >= g_rts, "read advance lost ordering");

        // Explicit saturation pins: the exact edge values stay at MAX.
        prop_assert_eq!((t.write_order)(u64::MAX, u64::MAX), u64::MAX);
        prop_assert_eq!((t.grant)(t.lease, u64::MAX, 0), u64::MAX);
        prop_assert_eq!((t.read_advance)(u64::MAX, 0), u64::MAX);
    }

    /// The whole timestamped run is deterministic: identical scripts
    /// produce bit-identical timestamp state and statistics.
    #[test]
    fn timestamped_runs_are_deterministic(
        script in prop::collection::vec((0..2usize, any::<bool>(), 0u32..5), 1..60),
    ) {
        let run = |script: &[(usize, bool, u32)]| {
            let default_lease = ProtocolKind::Tardis.table().ts.unwrap().lease;
            let mut sys = tardis_system(2, default_lease);
            for &(cpu, write, word) in script {
                let addr = Addr::from_word_index(word);
                let req = if write { Request::write(addr, word) } else { Request::read(addr) };
                sys.run_to_completion(PortId::new(cpu), req).unwrap();
            }
            let snap = ts_snapshot(&sys, 2);
            let renewals = sys.bus_stats().renewals;
            (snap, renewals)
        };
        prop_assert_eq!(run(&script), run(&script), "identical scripts diverged");
    }
}
