//! The CVAX on-chip instruction cache.
//!
//! "The CVAX processor itself includes a 1024 byte on-chip cache. To
//! simplify the problem of maintaining memory coherence, we have chosen
//! to configure that cache to store only instruction references, not
//! data." (§5)
//!
//! Because it holds only instructions — and simulated workloads never
//! write code — the on-chip cache needs no snooping: exactly the
//! simplification the designers bought. It is a tag-only filter in front
//! of the board cache; a hit costs one CVAX cycle and generates no board
//! access at all.

use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::{Addr, Error, LineId};

/// A direct-mapped, instruction-only, tag-store-only on-chip cache.
///
/// # Examples
///
/// ```
/// use firefly_cpu::ICache;
/// use firefly_core::Addr;
///
/// let mut ic = ICache::new(256); // 1 KB: 256 four-byte entries
/// assert!(!ic.probe(Addr::new(0x1000)), "cold miss");
/// assert!(ic.probe(Addr::new(0x1000)), "now hits");
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    tags: Vec<Option<u32>>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Creates an on-chip cache of `words` one-word entries.
    ///
    /// # Panics
    ///
    /// Panics unless `words` is a power of two.
    pub fn new(words: usize) -> Self {
        assert!(words.is_power_of_two() && words > 0, "entry count must be a power of two");
        ICache { tags: vec![None; words], hits: 0, misses: 0 }
    }

    /// Probes (and fills on miss). Returns whether the fetch hit on-chip.
    pub fn probe(&mut self, addr: Addr) -> bool {
        let line = LineId::containing(addr, 1);
        let idx = (line.raw() as usize) % self.tags.len();
        let tag = line.raw() / self.tags.len() as u32;
        if self.tags[idx] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.tags[idx] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// On-chip hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// On-chip misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate (0 before any probe).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates everything (context switch to a new address space).
    pub fn clear(&mut self) {
        self.tags.fill(None);
    }

    /// Serializes the tag store and counters for a machine checkpoint.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&self.tags);
        w.put(&(self.hits, self.misses));
    }

    /// Restores state captured by [`ICache::save`] into a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] if the snapshot's entry count
    /// does not match this cache.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let tags: Vec<Option<u32>> = r.get()?;
        if tags.len() != self.tags.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot i-cache has {} entries, cache has {}",
                tags.len(),
                self.tags.len()
            )));
        }
        self.tags = tags;
        (self.hits, self.misses) = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_fits_and_hits() {
        let mut ic = ICache::new(256);
        // A 64-word loop iterated 10 times: 64 cold misses, rest hits.
        for _ in 0..10 {
            for w in 0u32..64 {
                ic.probe(Addr::from_word_index(w));
            }
        }
        assert_eq!(ic.misses(), 64);
        assert_eq!(ic.hits(), 576);
        assert!(ic.hit_rate() > 0.89);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut ic = ICache::new(256);
        let a = Addr::from_word_index(0);
        let b = Addr::from_word_index(256); // same slot, different tag
        assert!(!ic.probe(a));
        assert!(!ic.probe(b));
        assert!(!ic.probe(a), "b evicted a");
    }

    #[test]
    fn clear_cools_the_cache() {
        let mut ic = ICache::new(256);
        ic.probe(Addr::new(0));
        ic.clear();
        assert!(!ic.probe(Addr::new(0)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn size_must_be_power_of_two() {
        let _ = ICache::new(100);
    }

    #[test]
    fn snapshot_roundtrips_tags_and_counters() {
        let mut ic = ICache::new(64);
        for w in 0u32..40 {
            ic.probe(Addr::from_word_index(w * 3));
        }
        let mut w = SnapWriter::new();
        ic.save(&mut w);
        let bytes = w.into_bytes();
        let mut twin = ICache::new(64);
        twin.load(&mut SnapReader::new(&bytes)).expect("load");
        assert_eq!(twin.hits(), ic.hits());
        assert_eq!(twin.misses(), ic.misses());
        // The restored tag store behaves identically from here on.
        for w in 0u32..80 {
            assert_eq!(
                ic.probe(Addr::from_word_index(w * 3)),
                twin.probe(Addr::from_word_index(w * 3))
            );
        }
        // Geometry mismatch is rejected.
        let mut small = ICache::new(32);
        assert!(matches!(small.load(&mut SnapReader::new(&bytes)), Err(Error::SnapshotCorrupt(_))));
    }
}
