//! Seeded deterministic network fault model for the shared segment.
//!
//! The PR-2 fault machinery ([`firefly_core::fault`]) models faults
//! *inside* one machine; this module extends the same idiom to the wire
//! between machines. Every fault class draws from its own
//! [`FaultSite`] stream, so a network fault schedule is a pure function
//! of `(seed, rates)` — bit-identical across runs, harness worker
//! counts, and checkpoint/restore (the raw RNG words are serialized).
//!
//! Fault classes and what the transport layer sees:
//!
//! | class     | observable effect                                      |
//! |-----------|--------------------------------------------------------|
//! | drop      | frame vanishes (client times out, retries)             |
//! | duplicate | frame delivered twice (server dedups via request id)   |
//! | reorder   | frame delayed a bounded number of cycles               |
//! | corrupt   | payload bit flip → receiver CRC check rejects the frame |
//! | partition | frames crossing a boundary dropped during a window     |

use firefly_core::fault::FaultSite;
use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};
use firefly_core::Error;
use serde::{Deserialize, Serialize};

/// Fault-site identifiers for the network classes. These extend the
/// well-known machine-level ids in [`firefly_core::fault::site`]
/// (0x01–0x22, 0x100+) without colliding.
pub mod site {
    /// Wire frame-drop site.
    pub const NET_DROP: u64 = 0x40;
    /// Frame-duplication site.
    pub const NET_DUP: u64 = 0x41;
    /// Frame-reorder (bounded delay) site.
    pub const NET_REORDER: u64 = 0x42;
    /// Payload-corruption site (receiver CRC rejects).
    pub const NET_CORRUPT: u64 = 0x43;
}

/// A temporary two-sided partition of the segment: during the cycle
/// window `[from, until)` every frame whose endpoints straddle
/// `boundary` (NICs `< boundary` on one side, `>= boundary` on the
/// other) is dropped.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// First cycle of the partition window.
    pub from: u64,
    /// First cycle after the partition heals.
    pub until: u64,
    /// NIC index splitting the segment into two sides.
    pub boundary: usize,
}

impl PartitionPlan {
    /// Whether a frame from `src` to `dst` is severed at `cycle`.
    pub fn severs(&self, cycle: u64, src: usize, dst: usize) -> bool {
        cycle >= self.from && cycle < self.until && (src < self.boundary) != (dst < self.boundary)
    }
}

/// Maximum partition windows in one plan. A fixed-capacity array keeps
/// [`NetFaultConfig`] `Copy` (it is embedded by value in segment and
/// fleet configs); eight windows is plenty for any flapping schedule
/// worth simulating.
pub const MAX_PARTITION_WINDOWS: usize = 8;

/// Network fault plan: a seed plus per-class rates in events per
/// million frames (ppm), mirroring [`firefly_core::fault::FaultConfig`].
///
/// The default has every rate at zero and no partition, which disables
/// injection entirely — no RNG state is created or consumed, so a
/// zero-rate plan leaves segment behavior bit-identical to no plan.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct NetFaultConfig {
    /// Seed from which every network fault site derives its stream.
    pub seed: u64,
    /// Frames silently dropped on the wire.
    pub drop_ppm: u32,
    /// Frames delivered twice.
    pub dup_ppm: u32,
    /// Frames delayed (re-ordered past later traffic).
    pub reorder_ppm: u32,
    /// Maximum extra delay, in cycles, for a reordered frame.
    pub reorder_window: u64,
    /// Frames with a payload bit flipped (receiver CRC rejects).
    pub corrupt_ppm: u32,
    /// Timed two-sided partition windows (unused slots `None`). A
    /// flapping partition is a sequence of disjoint windows over the
    /// same boundary; PR 10 generalized this from a single
    /// `Option<PartitionPlan>`.
    pub partitions: [Option<PartitionPlan>; MAX_PARTITION_WINDOWS],
}

impl NetFaultConfig {
    /// True when every rate is zero and no partition is planned.
    pub fn is_disabled(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.reorder_ppm == 0
            && self.corrupt_ppm == 0
            && self.partitions.iter().all(Option::is_none)
    }

    /// Adds a partition window in the first free slot.
    ///
    /// # Panics
    ///
    /// Panics when all [`MAX_PARTITION_WINDOWS`] slots are taken.
    pub fn add_partition(&mut self, plan: PartitionPlan) {
        let slot = self
            .partitions
            .iter_mut()
            .find(|s| s.is_none())
            .expect("more than MAX_PARTITION_WINDOWS partition windows");
        *slot = Some(plan);
    }

    /// Builder form of [`add_partition`](NetFaultConfig::add_partition).
    #[must_use]
    pub fn with_partition(mut self, plan: PartitionPlan) -> Self {
        self.add_partition(plan);
        self
    }

    /// Whether any window severs a frame from `src` to `dst` at `cycle`.
    pub fn severed(&self, cycle: u64, src: usize, dst: usize) -> bool {
        self.partitions.iter().flatten().any(|p| p.severs(cycle, src, dst))
    }

    /// A lossy-wire preset: drop/dup/reorder/corrupt all at `rate_ppm`
    /// with a small reorder window, no partition.
    pub fn lossy(seed: u64, rate_ppm: u32) -> Self {
        NetFaultConfig {
            seed,
            drop_ppm: rate_ppm,
            dup_ppm: rate_ppm,
            reorder_ppm: rate_ppm,
            reorder_window: 2_000,
            corrupt_ppm: rate_ppm,
            partitions: [None; MAX_PARTITION_WINDOWS],
        }
    }
}

firefly_core::snap_struct!(PartitionPlan { from, until, boundary });

/// The rates, then the partition field: a format tag byte, always `2`,
/// and the list of windows. Tags `0`/`1` were the single-window layout
/// that snapshot version 4 retired; they are rejected like any other.
impl Snap for NetFaultConfig {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.seed, self.drop_ppm, self.dup_ppm, self.reorder_ppm));
        w.put(&(self.reorder_window, self.corrupt_ppm, 2u8));
        w.put(&self.partitions.iter().flatten().copied().collect::<Vec<_>>());
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (seed, drop_ppm, dup_ppm, reorder_ppm) = r.get()?;
        let (reorder_window, corrupt_ppm, tag): (u64, u32, u8) = r.get()?;
        if tag != 2 {
            return Err(Error::SnapshotCorrupt(format!("unknown partition format tag {tag}")));
        }
        let windows: Vec<PartitionPlan> = r.get()?;
        if windows.len() > MAX_PARTITION_WINDOWS {
            return Err(Error::SnapshotCorrupt(format!(
                "{} partition windows exceeds the {MAX_PARTITION_WINDOWS} cap",
                windows.len()
            )));
        }
        let mut partitions = [None; MAX_PARTITION_WINDOWS];
        for (slot, plan) in partitions.iter_mut().zip(windows) {
            *slot = Some(plan);
        }
        Ok(NetFaultConfig {
            seed,
            drop_ppm,
            dup_ppm,
            reorder_ppm,
            reorder_window,
            corrupt_ppm,
            partitions,
        })
    }
}

/// The live fault sites for one segment (present only when the plan is
/// enabled, so a disabled plan costs nothing on the delivery path).
#[derive(Clone, Debug)]
pub(crate) struct NetFaults {
    pub(crate) cfg: NetFaultConfig,
    pub(crate) drop: FaultSite,
    pub(crate) dup: FaultSite,
    pub(crate) reorder: FaultSite,
    pub(crate) corrupt: FaultSite,
}

impl NetFaults {
    pub(crate) fn from_config(cfg: &NetFaultConfig) -> Option<Self> {
        if cfg.is_disabled() {
            return None;
        }
        Some(NetFaults {
            cfg: *cfg,
            drop: FaultSite::new(cfg.seed, site::NET_DROP),
            dup: FaultSite::new(cfg.seed, site::NET_DUP),
            reorder: FaultSite::new(cfg.seed, site::NET_REORDER),
            corrupt: FaultSite::new(cfg.seed, site::NET_CORRUPT),
        })
    }

    /// Serializes the mutable stream positions (the plan itself is a
    /// config guard saved separately).
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.drop);
        w.put(&self.dup);
        w.put(&self.reorder);
        w.put(&self.corrupt);
    }

    pub(crate) fn load_state(cfg: &NetFaultConfig, r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(NetFaults {
            cfg: *cfg,
            drop: r.get()?,
            dup: r.get()?,
            reorder: r.get()?,
            corrupt: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(NetFaultConfig::default().is_disabled());
        assert!(NetFaults::from_config(&NetFaultConfig::default()).is_none());
    }

    #[test]
    fn lossy_preset_enables_every_class() {
        let cfg = NetFaultConfig::lossy(7, 1_000);
        assert!(!cfg.is_disabled());
        assert!(NetFaults::from_config(&cfg).is_some());
    }

    #[test]
    fn partition_severs_only_across_the_boundary_in_window() {
        let p = PartitionPlan { from: 100, until: 200, boundary: 2 };
        assert!(p.severs(100, 0, 3));
        assert!(p.severs(199, 3, 1));
        assert!(!p.severs(99, 0, 3), "before the window");
        assert!(!p.severs(200, 0, 3), "after the window");
        assert!(!p.severs(150, 0, 1), "same side");
        assert!(!p.severs(150, 2, 3), "same side");
    }

    #[test]
    fn flapping_windows_sever_independently() {
        let cfg = NetFaultConfig::default()
            .with_partition(PartitionPlan { from: 100, until: 200, boundary: 2 })
            .with_partition(PartitionPlan { from: 300, until: 400, boundary: 2 });
        assert!(!cfg.is_disabled());
        assert!(cfg.severed(150, 0, 3));
        assert!(!cfg.severed(250, 0, 3), "healed between windows");
        assert!(cfg.severed(350, 0, 3), "second window");
        assert!(!cfg.severed(400, 0, 3));
    }

    #[test]
    fn config_roundtrip() {
        let cfg = NetFaultConfig::lossy(9, 250)
            .with_partition(PartitionPlan { from: 1, until: 2, boundary: 3 })
            .with_partition(PartitionPlan { from: 5, until: 9, boundary: 3 });
        let mut w = SnapWriter::new();
        w.put(&cfg);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<NetFaultConfig>().unwrap(), cfg);
        r.expect_end().unwrap();
    }

    #[test]
    fn unknown_partition_tag_rejected() {
        let mut w = SnapWriter::new();
        w.put(&NetFaultConfig::lossy(9, 250));
        let mut bytes = w.into_bytes();
        // The tag byte sits after the seed, three rates, the reorder
        // window and the corrupt rate.
        let tag = 8 + 3 * 4 + 8 + 4;
        assert_eq!(bytes[tag], 2, "the current layout's tag");
        for bad in [0u8, 1, 3, 7, 0xff] {
            bytes[tag] = bad;
            let err = SnapReader::new(&bytes).get::<NetFaultConfig>().unwrap_err();
            assert!(matches!(err, Error::SnapshotCorrupt(_)), "tag {bad}: {err:?}");
        }
    }
}
