//! Deterministic fault injection.
//!
//! The real Firefly carried hardware defenses the paper mentions only in
//! passing: "the MBus and the memory are protected by parity" (§2), the
//! wired-OR `MShared` line the coherence protocol trusts absolutely, and
//! QBus devices that can stall or lose work. This module makes those
//! failure modes *injectable* so the recovery paths can be exercised:
//! every fault site draws from its own seeded stream, so a fault schedule
//! is a pure function of `(seed, rates)` — bit-identical across runs and
//! across harness worker counts.
//!
//! Fault classes and the recovery paired with each:
//!
//! | class                         | recovery                               |
//! |-------------------------------|----------------------------------------|
//! | `MShared` drop / spurious     | wired-OR mismatch → abort & retry /    |
//! |                               | conservative sharing (safe by inv. 5)  |
//! | arbitration stall             | re-arbitrate next cycle                |
//! | MBus data parity              | bounded retry, then [`Error::BusParity`] |
//! | single-bit ECC                | corrected in flight + scrubbed         |
//! | double-bit ECC                | [`Error::EccUncorrectable`], CPU offline |
//! | cache tag parity (bit flip)   | invalidate-and-refetch (clean lines)   |
//! | DMA timeout                   | exponential backoff, bounded retries   |
//! | DEQNA packet drop             | upper-layer retransmit (counted)       |
//! | RQDX3 soft read error         | re-seek and re-read                    |
//!
//! Rates are integer *events per million draws* (ppm) so configurations
//! stay `Eq`/hashable. A rate of zero is a strict no-op: the site does
//! not even consume generator state, so a zero-rate plan leaves every
//! cycle-accurate result bit-identical to a run with no plan at all.

use crate::error::Error;
use crate::snapshot::{SnapReader, SnapWriter};
use crate::Addr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One million — the denominator of every fault rate.
pub const PPM: u32 = 1_000_000;

/// Per-class fault rates (events per million draws) plus the plan seed.
///
/// The default configuration has every rate at zero, which disables
/// injection entirely (no RNG state is created or consumed).
///
/// # Examples
///
/// ```
/// use firefly_core::fault::FaultConfig;
///
/// let quiet = FaultConfig::default();
/// assert!(quiet.is_disabled());
///
/// let noisy = FaultConfig::correctable(7, 1_000);
/// assert!(!noisy.is_disabled());
/// assert_eq!(noisy.ecc_double_ppm, 0, "correctable preset injects no data loss");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed from which every fault site derives its private stream.
    pub seed: u64,
    /// `MShared` assertions dropped by the wired-OR (detected, retried).
    pub mshared_drop_ppm: u32,
    /// Spurious `MShared` assertions (safe: sharing may be over-reported).
    pub mshared_spurious_ppm: u32,
    /// Arbitration grants withheld for one cycle.
    pub arb_stall_ppm: u32,
    /// Data-cycle parity errors on MBus transfers (abort and retry).
    pub bus_parity_ppm: u32,
    /// Single-bit (correctable) memory ECC events per word read.
    pub ecc_single_ppm: u32,
    /// Double-bit (uncorrectable) memory ECC events per word read.
    pub ecc_double_ppm: u32,
    /// Cache tag-parity hits forcing invalidate-and-refetch of a clean line.
    pub tag_flip_ppm: u32,
    /// DMA word transfers that time out and back off.
    pub dma_timeout_ppm: u32,
    /// DEQNA receive packets dropped on the wire.
    pub packet_drop_ppm: u32,
    /// RQDX3 soft read errors forcing a re-seek.
    pub disk_read_error_ppm: u32,
}

impl FaultConfig {
    /// True when every rate is zero — injection is fully disabled.
    pub fn is_disabled(&self) -> bool {
        self.mshared_drop_ppm == 0
            && self.mshared_spurious_ppm == 0
            && self.arb_stall_ppm == 0
            && self.bus_parity_ppm == 0
            && self.ecc_single_ppm == 0
            && self.ecc_double_ppm == 0
            && self.tag_flip_ppm == 0
            && self.dma_timeout_ppm == 0
            && self.packet_drop_ppm == 0
            && self.disk_read_error_ppm == 0
    }

    /// A plan injecting only faults whose recovery restores the exact
    /// fault-free *values*: spurious/dropped `MShared`, arbitration
    /// stalls, bus parity (retried), single-bit ECC (corrected) and tag
    /// flips (refetched). Timing may change; no datum may.
    pub fn correctable(seed: u64, rate_ppm: u32) -> Self {
        FaultConfig {
            seed,
            mshared_drop_ppm: rate_ppm,
            mshared_spurious_ppm: rate_ppm,
            arb_stall_ppm: rate_ppm,
            bus_parity_ppm: rate_ppm,
            ecc_single_ppm: rate_ppm,
            tag_flip_ppm: rate_ppm,
            ..FaultConfig::default()
        }
    }

    /// A plan injecting every fault class — including uncorrectable
    /// double-bit ECC and device-level faults — at a uniform rate.
    pub fn uniform(seed: u64, rate_ppm: u32) -> Self {
        FaultConfig {
            seed,
            mshared_drop_ppm: rate_ppm,
            mshared_spurious_ppm: rate_ppm,
            arb_stall_ppm: rate_ppm,
            bus_parity_ppm: rate_ppm,
            ecc_single_ppm: rate_ppm,
            ecc_double_ppm: rate_ppm,
            tag_flip_ppm: rate_ppm,
            dma_timeout_ppm: rate_ppm,
            packet_drop_ppm: rate_ppm,
            disk_read_error_ppm: rate_ppm,
        }
    }
}

crate::snap_struct!(FaultConfig {
    seed,
    mshared_drop_ppm,
    mshared_spurious_ppm,
    arb_stall_ppm,
    bus_parity_ppm,
    ecc_single_ppm,
    ecc_double_ppm,
    tag_flip_ppm,
    dma_timeout_ppm,
    packet_drop_ppm,
    disk_read_error_ppm,
});

/// Mixes the plan seed with a site identifier so each site gets an
/// independent stream (SplitMix64 finalizer — the same mixer the RNG's
/// own seeding uses, applied once more over `seed ^ site`).
fn site_seed(seed: u64, site: u64) -> u64 {
    let mut z = seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Well-known site identifiers, so independent components can derive
/// non-colliding streams from one plan seed.
pub mod site {
    /// Bus arbitration stall site.
    pub const ARBITER: u64 = 0x01;
    /// `MShared` wired-OR glitch site.
    pub const MSHARED: u64 = 0x02;
    /// MBus data-parity site.
    pub const BUS_PARITY: u64 = 0x03;
    /// Memory ECC site.
    pub const ECC: u64 = 0x04;
    /// Base for per-port cache tag sites (add the port index).
    pub const TAG_BASE: u64 = 0x100;
    /// DMA engine timeout site.
    pub const DMA: u64 = 0x20;
    /// DEQNA wire-drop site.
    pub const DEQNA: u64 = 0x21;
    /// RQDX3 soft-error site.
    pub const RQDX3: u64 = 0x22;
}

/// One fault site: a private deterministic stream plus the draw logic.
///
/// A draw at rate zero returns `false` *without consuming generator
/// state*, so sites can be wired unconditionally into hot paths and
/// still be exact no-ops when their class is disabled.
///
/// # Examples
///
/// ```
/// use firefly_core::fault::{site, FaultSite};
///
/// let mut a = FaultSite::new(42, site::ECC);
/// let mut b = FaultSite::new(42, site::ECC);
/// for _ in 0..1000 {
///     assert_eq!(a.fires(5_000), b.fires(5_000), "same seed, same schedule");
/// }
/// assert!(!a.fires(0), "zero rate never fires");
/// ```
#[derive(Clone, Debug)]
pub struct FaultSite {
    rng: SmallRng,
}

impl FaultSite {
    /// A site drawing from the stream identified by `(seed, id)`.
    pub fn new(seed: u64, id: u64) -> Self {
        FaultSite { rng: SmallRng::seed_from_u64(site_seed(seed, id)) }
    }

    /// Draws once: does this event fault? `rate_ppm == 0` is a strict
    /// no-op (no generator state consumed).
    pub fn fires(&mut self, rate_ppm: u32) -> bool {
        if rate_ppm == 0 {
            return false;
        }
        self.rng.gen_range(0..PPM) < rate_ppm
    }

    /// A deterministic choice in `0..n` (for picking fault victims).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from an empty set");
        self.rng.gen_range(0..n)
    }
}

// The raw generator words: the stream *position* is machine state, and
// re-seeding on restore would replay or skip fault draws.
crate::snap_struct!(FaultSite { rng });

/// The memory-side ECC model: a fault site plus correction bookkeeping.
///
/// Wired into [`crate::memory::Memory`]'s word-read path. A single-bit
/// event is *corrected in flight* — the returned word is unchanged and
/// the scrubber rewrites the cell (counted, no data effect). A double-bit
/// event flips two bits of the returned word and records an
/// [`Error::EccUncorrectable`] for the system layer to act on.
#[derive(Clone, Debug)]
pub struct EccInjector {
    single_ppm: u32,
    double_ppm: u32,
    state: EccState,
}

/// The injector's mutable state — stream position, counters, and the
/// addresses of uncorrectable events not yet drained; the rates come
/// from the plan.
#[derive(Clone, Debug)]
struct EccState {
    site: FaultSite,
    corrected: u64,
    uncorrected: u64,
    scrubs: u64,
    errors: Vec<Addr>,
}

crate::snap_struct!(EccState { site, corrected, uncorrected, scrubs, errors });

impl EccInjector {
    /// An injector for the plan, or `None` when both ECC rates are zero.
    pub fn from_config(cfg: &FaultConfig) -> Option<Self> {
        if cfg.ecc_single_ppm == 0 && cfg.ecc_double_ppm == 0 {
            return None;
        }
        Some(EccInjector {
            single_ppm: cfg.ecc_single_ppm,
            double_ppm: cfg.ecc_double_ppm,
            state: EccState {
                site: FaultSite::new(cfg.seed, site::ECC),
                corrected: 0,
                uncorrected: 0,
                scrubs: 0,
                errors: Vec::new(),
            },
        })
    }

    /// Filters one word read at `addr` through the ECC model and returns
    /// what the bus actually sees.
    pub fn apply(&mut self, addr: Addr, word: u32) -> u32 {
        let st = &mut self.state;
        if st.site.fires(self.single_ppm) {
            // Single-bit flip: the ECC logic corrects it before the word
            // leaves the module, and the scrubber rewrites the cell.
            st.corrected += 1;
            st.scrubs += 1;
            return word;
        }
        if st.site.fires(self.double_ppm) {
            st.uncorrected += 1;
            st.errors.push(addr);
            let b1 = st.site.pick(32) as u32;
            let b2 = (b1 + 1 + st.site.pick(31) as u32) % 32;
            return word ^ (1 << b1) ^ (1 << b2);
        }
        word
    }

    /// Single-bit events corrected.
    pub fn corrected(&self) -> u64 {
        self.state.corrected
    }

    /// Double-bit events detected but not correctable.
    pub fn uncorrected(&self) -> u64 {
        self.state.uncorrected
    }

    /// Scrubber rewrites performed (one per corrected event).
    pub fn scrubs(&self) -> u64 {
        self.state.scrubs
    }

    /// Takes the accumulated uncorrectable-error records.
    pub fn drain_errors(&mut self) -> Vec<Error> {
        self.state.errors.drain(..).map(|addr| Error::EccUncorrectable { addr }).collect()
    }

    /// Serializes the mutable state; the rates come from the plan at
    /// rebuild time.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.state);
    }

    /// Restores state captured by [`save_state`](EccInjector::save_state)
    /// into an injector freshly built from the same plan.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.state = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        assert!(FaultConfig::default().is_disabled());
        assert!(!FaultConfig::correctable(1, 10).is_disabled());
        assert!(!FaultConfig::uniform(1, 10).is_disabled());
    }

    #[test]
    fn correctable_preset_has_no_lossy_classes() {
        let c = FaultConfig::correctable(3, 500);
        assert_eq!(c.ecc_double_ppm, 0);
        assert_eq!(c.dma_timeout_ppm, 0);
        assert_eq!(c.packet_drop_ppm, 0);
        assert_eq!(c.disk_read_error_ppm, 0);
    }

    #[test]
    fn sites_are_deterministic_and_independent() {
        let mut a = FaultSite::new(9, site::ECC);
        let mut b = FaultSite::new(9, site::ECC);
        let mut other = FaultSite::new(9, site::DMA);
        let (mut same, mut diff) = (0, 0);
        for _ in 0..10_000 {
            let fa = a.fires(100_000);
            assert_eq!(fa, b.fires(100_000));
            if fa == other.fires(100_000) {
                same += 1;
            } else {
                diff += 1;
            }
        }
        assert!(diff > 0, "distinct sites must not share a stream ({same} agreements)");
    }

    #[test]
    fn zero_rate_consumes_no_state() {
        let mut a = FaultSite::new(5, site::ARBITER);
        let mut b = FaultSite::new(5, site::ARBITER);
        for _ in 0..100 {
            assert!(!a.fires(0));
        }
        // `a` drew nothing, so both streams are still in lock-step.
        for _ in 0..100 {
            assert_eq!(a.fires(250_000), b.fires(250_000));
        }
    }

    #[test]
    fn rates_are_roughly_calibrated() {
        let mut s = FaultSite::new(11, site::BUS_PARITY);
        let hits = (0..100_000).filter(|_| s.fires(100_000)).count();
        assert!((8_000..12_000).contains(&hits), "10% rate drew {hits}/100000");
    }

    #[test]
    fn ecc_injector_counts_and_flips() {
        // Single-bit only: values pass through unchanged, every event counted.
        let cfg = FaultConfig { seed: 2, ecc_single_ppm: PPM, ..FaultConfig::default() };
        let mut ecc = EccInjector::from_config(&cfg).unwrap();
        for w in 0..50u32 {
            assert_eq!(ecc.apply(Addr::from_word_index(w), w), w);
        }
        assert_eq!(ecc.corrected(), 50);
        assert_eq!(ecc.scrubs(), 50);
        assert_eq!(ecc.uncorrected(), 0);
        assert!(ecc.drain_errors().is_empty());

        // Double-bit only: exactly two bits flip and an error is recorded.
        let cfg = FaultConfig { seed: 2, ecc_double_ppm: PPM, ..FaultConfig::default() };
        let mut ecc = EccInjector::from_config(&cfg).unwrap();
        let addr = Addr::from_word_index(7);
        let out = ecc.apply(addr, 0xdead_beef);
        assert_eq!((out ^ 0xdead_beef).count_ones(), 2, "double-bit flip");
        assert_eq!(ecc.uncorrected(), 1);
        assert_eq!(ecc.drain_errors(), vec![Error::EccUncorrectable { addr }]);
        assert!(ecc.drain_errors().is_empty(), "drain empties the log");
    }

    #[test]
    fn site_snapshot_resumes_the_exact_stream() {
        let mut live = FaultSite::new(3, site::MSHARED);
        for _ in 0..137 {
            let _ = live.fires(40_000);
        }
        let mut w = SnapWriter::new();
        w.put(&live);
        let bytes = w.into_bytes();
        let mut restored: FaultSite = SnapReader::new(&bytes).get().unwrap();
        for _ in 0..1000 {
            assert_eq!(live.fires(40_000), restored.fires(40_000));
        }
    }

    #[test]
    fn ecc_injector_state_roundtrip() {
        let cfg = FaultConfig {
            seed: 4,
            ecc_single_ppm: 300_000,
            ecc_double_ppm: 300_000,
            ..FaultConfig::default()
        };
        let mut live = EccInjector::from_config(&cfg).unwrap();
        for i in 0..200u32 {
            let _ = live.apply(Addr::from_word_index(i), i);
        }
        let mut w = SnapWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = EccInjector::from_config(&cfg).unwrap();
        restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.corrected(), live.corrected());
        assert_eq!(restored.uncorrected(), live.uncorrected());
        for i in 0..200u32 {
            assert_eq!(
                live.apply(Addr::from_word_index(i), i),
                restored.apply(Addr::from_word_index(i), i),
                "restored injector must continue the identical schedule"
            );
        }
        assert_eq!(live.drain_errors(), restored.drain_errors());
    }

    #[test]
    fn ecc_injector_absent_when_disabled() {
        assert!(EccInjector::from_config(&FaultConfig::default()).is_none());
        let only_bus = FaultConfig { bus_parity_ppm: 10, ..FaultConfig::default() };
        assert!(EccInjector::from_config(&only_bus).is_none());
    }
}
