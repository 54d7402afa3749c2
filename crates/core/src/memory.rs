//! Main memory: master and slave storage modules behind the MBus.
//!
//! The original Firefly packaged main memory "as one master four-megabyte
//! module, and up to three slave modules of the same size"; the CVAX
//! version uses 32 MB modules up to 128 MB. The modules share one port on
//! the MBus and supply read data during cycle 4 of a transaction unless a
//! cache asserts `MShared` and supplies the data itself.
//!
//! Storage is sparse (page-granular) so a full 128 MB machine costs only
//! what the workload touches. Uninitialized memory reads as zero, which
//! keeps simulations deterministic.
//!
//! The page table is a flat vector indexed by page number, grown to the
//! highest page touched: a lookup is one bounds check and one load, no
//! hash. Its slots cost a pointer each — 256 KB for a fully touched
//! 128 MB machine, a few KB for a typical workload — and walking it in
//! order gives the snapshot its canonical page order without a sort.
//! Modules are powers of two, so a module index is a shift.

use crate::addr::{Addr, LineId};
use crate::cache::LineData;
use crate::error::Error;
use crate::fault::EccInjector;
use crate::snapshot::{SnapReader, SnapWriter};
use std::fmt;

/// Words per allocation page of the sparse store (4 KB pages).
const PAGE_WORDS: usize = 1024;

/// One allocated page.
type Page = Box<[u32; PAGE_WORDS]>;

/// The Firefly main-memory system.
///
/// # Examples
///
/// ```
/// use firefly_core::memory::Memory;
/// use firefly_core::Addr;
///
/// let mut mem = Memory::new(16 << 20);
/// let a = Addr::new(0x1000);
/// assert_eq!(mem.read_word(a), 0, "uninitialized memory reads as zero");
/// mem.write_word(a, 0xdead_beef);
/// assert_eq!(mem.read_word(a), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct Memory {
    bytes: u64,
    /// `log2` of the module size.
    module_shift: u32,
    /// Page `k` holds words `k·PAGE_WORDS ..`; `None` reads as zeros.
    /// Never longer than one past the highest page touched.
    pages: Vec<Option<Page>>,
    /// How many of `pages` are `Some`.
    resident: usize,
    reads: u64,
    writes: u64,
    /// Per-module (reads, writes) — module 0 is the master.
    module_traffic: Vec<(u64, u64)>,
    /// Memory ECC fault model; `None` when injection is disabled.
    ecc: Option<EccInjector>,
}

impl Memory {
    /// Creates a memory of `bytes` bytes in 4 MB (MicroVAX-style)
    /// modules.
    pub fn new(bytes: u64) -> Self {
        Memory::with_modules(bytes, 4 << 20)
    }

    /// Creates a memory of `bytes` bytes in modules of `module_bytes`
    /// ("one master four-megabyte module, and up to three slave modules"
    /// on the original machine; 32 MB modules on the CVAX).
    ///
    /// # Panics
    ///
    /// Panics unless `module_bytes` is a power of two.
    pub fn with_modules(bytes: u64, module_bytes: u64) -> Self {
        assert!(module_bytes.is_power_of_two(), "module size {module_bytes} is not a power of two");
        let modules = bytes.div_ceil(module_bytes).max(1) as usize;
        Memory {
            bytes,
            module_shift: module_bytes.trailing_zeros(),
            pages: Vec::new(),
            resident: 0,
            reads: 0,
            writes: 0,
            module_traffic: vec![(0, 0); modules],
            ecc: None,
        }
    }

    /// Installs the memory-side ECC fault model (see [`crate::fault`]).
    /// A `None` injector (both ECC rates zero) leaves reads untouched.
    pub fn install_ecc(&mut self, ecc: Option<EccInjector>) {
        self.ecc = ecc;
    }

    /// Single-bit ECC events corrected in flight.
    pub fn ecc_corrected(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::corrected)
    }

    /// Double-bit ECC events detected but not correctable.
    pub fn ecc_uncorrected(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::uncorrected)
    }

    /// Scrubber rewrites performed after corrected events.
    pub fn ecc_scrubs(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::scrubs)
    }

    /// Takes the accumulated [`Error::EccUncorrectable`] records.
    pub fn drain_ecc_errors(&mut self) -> Vec<Error> {
        self.ecc.as_mut().map_or_else(Vec::new, EccInjector::drain_errors)
    }

    /// Number of storage modules.
    pub fn modules(&self) -> usize {
        self.module_traffic.len()
    }

    /// Which module services `addr` (module 0 is the master).
    #[inline]
    pub fn module_of(&self, addr: Addr) -> usize {
        ((u64::from(addr.byte()) >> self.module_shift) as usize).min(self.modules() - 1)
    }

    /// Page `k`, materialized (zero-filled) if needed.
    fn page_mut(&mut self, k: usize) -> &mut Page {
        if k >= self.pages.len() {
            self.pages.resize_with(k + 1, || None);
        }
        let slot = &mut self.pages[k];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0u32; PAGE_WORDS]))
    }

    /// Word (reads, writes) serviced by module `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn module_traffic(&self, i: usize) -> (u64, u64) {
        self.module_traffic[i]
    }

    /// Installed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes
    }

    /// Whether `addr` falls within installed memory.
    pub fn contains(&self, addr: Addr) -> bool {
        u64::from(addr.byte()) < self.bytes
    }

    /// Validates that `addr` is installed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when the address is beyond
    /// installed memory.
    pub fn check(&self, addr: Addr) -> Result<(), Error> {
        if self.contains(addr) {
            Ok(())
        } else {
            Err(Error::AddressOutOfRange { addr, memory_bytes: self.bytes })
        }
    }

    /// Reads the 32-bit word containing `addr`, filtered through the ECC
    /// fault model when one is installed.
    pub fn read_word(&mut self, addr: Addr) -> u32 {
        self.reads += 1;
        let module = self.module_of(addr);
        self.module_traffic[module].0 += 1;
        let word = self.peek_word(addr);
        match &mut self.ecc {
            Some(ecc) => ecc.apply(addr, word),
            None => word,
        }
    }

    /// Reads a word without counting it as bus traffic (for checkers and
    /// debug introspection).
    pub fn peek_word(&self, addr: Addr) -> u32 {
        let w = addr.word_index() as usize;
        self.pages.get(w / PAGE_WORDS).and_then(Option::as_ref).map_or(0, |p| p[w % PAGE_WORDS])
    }

    /// Writes the 32-bit word containing `addr`.
    pub fn write_word(&mut self, addr: Addr, value: u32) {
        self.writes += 1;
        let module = self.module_of(addr);
        self.module_traffic[module].1 += 1;
        let w = addr.word_index();
        self.page_mut(w as usize / PAGE_WORDS)[w as usize % PAGE_WORDS] = value;
    }

    /// Reads a whole cache line.
    ///
    /// Lines are size-aligned and pages are a power-of-two multiple of
    /// every line size, so the whole line lives in one page: the page
    /// map is probed once and the words copied out in a batch, with the
    /// traffic counters and per-word ECC draws applied in exactly the
    /// order the word-at-a-time path would have.
    pub fn read_line(&mut self, line: LineId, line_words: usize) -> LineData {
        let base = line.base_addr(line_words);
        let w0 = base.word_index();
        let slot = w0 as usize % PAGE_WORDS;
        if slot + line_words > PAGE_WORDS {
            // Unaligned straddle (impossible for real geometries; keep
            // the slow path for robustness).
            let mut data = LineData::zeroed(line_words);
            for i in 0..line_words {
                data.set(i, self.read_word(base.add_words(i as u32)));
            }
            return data;
        }
        self.reads += line_words as u64;
        let mut data = LineData::zeroed(line_words);
        let page = self.pages.get(w0 as usize / PAGE_WORDS).and_then(Option::as_ref);
        let (shift, modules) = (self.module_shift, self.module_traffic.len());
        for i in 0..line_words {
            let addr = base.add_words(i as u32);
            let module = ((u64::from(addr.byte()) >> shift) as usize).min(modules - 1);
            self.module_traffic[module].0 += 1;
            let word = page.map_or(0, |p| p[slot + i]);
            data.set(
                i,
                match &mut self.ecc {
                    Some(ecc) => ecc.apply(addr, word),
                    None => word,
                },
            );
        }
        data
    }

    /// Writes a whole cache line (batched like
    /// [`read_line`](Memory::read_line): one page-map probe per line).
    pub fn write_line(&mut self, line: LineId, data: &LineData) {
        let line_words = data.len();
        let base = line.base_addr(line_words);
        let w0 = base.word_index();
        let slot = w0 as usize % PAGE_WORDS;
        if slot + line_words > PAGE_WORDS {
            for i in 0..line_words {
                self.write_word(base.add_words(i as u32), data.get(i));
            }
            return;
        }
        self.writes += line_words as u64;
        let (shift, modules) = (self.module_shift, self.module_traffic.len());
        for i in 0..line_words {
            let addr = base.add_words(i as u32);
            let module = ((u64::from(addr.byte()) >> shift) as usize).min(modules - 1);
            self.module_traffic[module].1 += 1;
        }
        let page = self.page_mut(w0 as usize / PAGE_WORDS);
        for i in 0..line_words {
            page[slot + i] = data.get(i);
        }
    }

    /// Word reads serviced (for bandwidth accounting).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Word writes serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of 4 KB pages actually materialized.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.reads, self.writes));
        w.put(&self.module_traffic);
        // Sparse image, pages in index order so the encoding is canonical
        // (save → restore → save must be byte-identical). Each page is
        // one word batch, byte-identical to the per-word encoding.
        w.usize(self.resident);
        for (k, page) in self.pages.iter().enumerate() {
            if let Some(page) = page {
                w.put(&(k as u32));
                w.u32_words(&page[..]);
            }
        }
        w.bool(self.ecc.is_some());
        if let Some(ecc) = &self.ecc {
            ecc.save_state(w);
        }
    }

    /// Restores memory saved with [`save`](Memory::save) into one built
    /// with the same size, modules and ECC plan.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let (reads, writes) = r.get()?;
        let module_traffic: Vec<(u64, u64)> = r.get()?;
        if module_traffic.len() != self.module_traffic.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {} memory modules, system has {}",
                module_traffic.len(),
                self.module_traffic.len()
            )));
        }
        (self.reads, self.writes, self.module_traffic) = (reads, writes, module_traffic);
        let n_pages: usize = r.get()?;
        self.pages.clear();
        self.resident = 0;
        // Pages must be in strictly increasing order, as `save` writes
        // them, so that an accepted image re-saves to the same bytes;
        // and each must start inside installed memory.
        let mut prev = None;
        for _ in 0..n_pages {
            let key: u32 = r.get()?;
            if let Some(p) = prev.filter(|&p| key <= p) {
                return Err(Error::SnapshotCorrupt(format!("memory page {key} follows page {p}")));
            }
            if u64::from(key) * (PAGE_WORDS as u64 * 4) >= self.bytes {
                return Err(Error::SnapshotCorrupt(format!(
                    "memory page {key} lies past the {}-byte capacity",
                    self.bytes
                )));
            }
            r.u32_words_into(&mut self.page_mut(key as usize)[..])?;
            prev = Some(key);
        }
        let has_ecc: bool = r.get()?;
        if has_ecc != self.ecc.is_some() {
            return Err(Error::SnapshotCorrupt(
                "snapshot ECC-injector presence does not match the fault plan".into(),
            ));
        }
        if let Some(ecc) = &mut self.ecc {
            ecc.load_state(r)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("capacity_mb", &(self.bytes >> 20))
            .field("resident_pages", &self.resident)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn zero_fill_semantics() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.read_word(Addr::new(0xf000)), 0);
    }

    #[test]
    fn word_roundtrip_and_isolation() {
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0x100), 7);
        m.write_word(Addr::new(0x104), 8);
        assert_eq!(m.read_word(Addr::new(0x100)), 7);
        assert_eq!(m.read_word(Addr::new(0x104)), 8);
        assert_eq!(m.read_word(Addr::new(0x108)), 0);
    }

    #[test]
    fn line_roundtrip_multiword() {
        let mut m = Memory::new(1 << 20);
        let line = LineId::containing(Addr::new(0x2000), 4);
        let mut d = LineData::zeroed(4);
        for i in 0..4 {
            d.set(i, (i as u32 + 1) * 11);
        }
        m.write_line(line, &d);
        assert_eq!(m.read_line(line, 4), d);
        assert_eq!(m.read_word(Addr::new(0x2004)), 22);
    }

    #[test]
    fn bounds_checking() {
        let m = Memory::new(16 << 20);
        assert!(m.check(Addr::new((16 << 20) - 4)).is_ok());
        assert!(matches!(m.check(Addr::new(16 << 20)), Err(Error::AddressOutOfRange { .. })));
    }

    #[test]
    fn sparse_residency() {
        let mut m = Memory::new(128 << 20);
        assert_eq!(m.resident_pages(), 0);
        m.write_word(Addr::new(0), 1);
        m.write_word(Addr::new(64 << 20), 1);
        assert_eq!(m.resident_pages(), 2, "only touched pages materialize");
    }

    #[test]
    fn modules_partition_the_address_space() {
        // A 16 MB MicroVAX memory: master + three 4 MB slaves.
        let m = Memory::new(16 << 20);
        assert_eq!(m.modules(), 4);
        assert_eq!(m.module_of(Addr::new(0)), 0);
        assert_eq!(m.module_of(Addr::new((4 << 20) - 4)), 0);
        assert_eq!(m.module_of(Addr::new(4 << 20)), 1);
        assert_eq!(m.module_of(Addr::new((16 << 20) - 4)), 3);
        // CVAX-style 32 MB modules.
        let m = Memory::with_modules(128 << 20, 32 << 20);
        assert_eq!(m.modules(), 4);
        assert_eq!(m.module_of(Addr::new(64 << 20)), 2);
    }

    #[test]
    fn module_traffic_attributed() {
        let mut m = Memory::new(16 << 20);
        m.write_word(Addr::new(0x100), 1); // master
        m.write_word(Addr::new(5 << 20), 2); // slave 1
        let _ = m.read_word(Addr::new(5 << 20));
        assert_eq!(m.module_traffic(0), (0, 1));
        assert_eq!(m.module_traffic(1), (1, 1));
        assert_eq!(m.module_traffic(2), (0, 0));
    }

    #[test]
    fn ecc_injection_hooks_into_reads() {
        use crate::fault::{EccInjector, FaultConfig, PPM};
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0x40), 0x1234);
        let cfg = FaultConfig { seed: 1, ecc_single_ppm: PPM, ..FaultConfig::default() };
        m.install_ecc(EccInjector::from_config(&cfg));
        assert_eq!(m.read_word(Addr::new(0x40)), 0x1234, "single-bit events are corrected");
        assert_eq!(m.ecc_corrected(), 1);
        assert_eq!(m.ecc_scrubs(), 1);
        assert!(m.drain_ecc_errors().is_empty());

        let cfg = FaultConfig { seed: 1, ecc_double_ppm: PPM, ..FaultConfig::default() };
        m.install_ecc(EccInjector::from_config(&cfg));
        assert_ne!(m.read_word(Addr::new(0x40)), 0x1234, "double-bit events corrupt the word");
        assert_eq!(m.ecc_uncorrected(), 1);
        assert_eq!(m.drain_ecc_errors().len(), 1);
        assert_eq!(m.peek_word(Addr::new(0x40)), 0x1234, "the stored cell is untouched");
    }

    /// A hand-built image of a 1 MB memory holding the given pages in
    /// the given order, page `k` filled with the word `k`.
    fn image(pages: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(&(0u64, 0u64));
        w.put(&vec![(0u64, 0u64)]);
        w.usize(pages.len());
        for &k in pages {
            w.put(&k);
            w.u32_words(&[k; PAGE_WORDS]);
        }
        w.bool(false);
        w.into_bytes()
    }

    fn load(img: &[u8]) -> Result<Memory, Error> {
        let mut m = Memory::new(1 << 20);
        let mut r = SnapReader::new(img);
        m.load_state(&mut r)?;
        r.expect_end()?;
        Ok(m)
    }

    #[test]
    fn ordered_pages_load_and_resave_identically() {
        let img = image(&[3, 5, 255]);
        let m = load(&img).unwrap();
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.peek_word(Addr::new(5 * 4096)), 5);
        let mut w = SnapWriter::new();
        m.save(&mut w);
        assert_eq!(w.into_bytes(), img);
    }

    #[test]
    fn out_of_order_repeated_or_out_of_range_pages_are_corrupt() {
        // 1 MB holds pages 0..=255.
        for pages in [&[5, 3][..], &[3, 3], &[256], &[3, 10_000]] {
            assert!(
                matches!(load(&image(pages)), Err(Error::SnapshotCorrupt(_))),
                "pages {pages:?} must be rejected"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A 128 MB CVAX memory against a `BTreeMap` of every word ever
        /// written: random word and line reads and writes on the first
        /// page, one in the middle and the last page below the top of
        /// memory, with save/load round trips between them. Every read,
        /// the per-module traffic and the resident-page count agree, and
        /// each image re-saves to the same bytes.
        #[test]
        fn memory_matches_a_word_map_model(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..3, 0u32..PAGE_WORDS as u32, proptest::prelude::any::<u32>(), 0u32..4),
                1..120,
            ),
        ) {
            const BYTES: u64 = 128 << 20;
            const MODULE: u64 = 32 << 20;
            let top_page = (BYTES / 4 / PAGE_WORDS as u64 - 1) as u32;
            let mut m = Memory::with_modules(BYTES, MODULE);
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            let mut traffic = [(0u64, 0u64); 4];
            for (kind, page, offset, value, width) in ops {
                let page = [0, top_page / 2, top_page][page];
                let line_words = 1usize << width;
                let word = page * PAGE_WORDS as u32 + (offset & !(line_words as u32 - 1));
                let module = |w: u32| (u64::from(w) * 4 / MODULE) as usize;
                match kind {
                    0 => {
                        m.write_word(Addr::from_word_index(word), value);
                        model.insert(word, value);
                        traffic[module(word)].1 += 1;
                    }
                    1 => {
                        let want = model.get(&word).copied().unwrap_or(0);
                        assert_eq!(m.read_word(Addr::from_word_index(word)), want, "word {word:#x}");
                        traffic[module(word)].0 += 1;
                    }
                    2 => {
                        let line = LineId::containing(Addr::from_word_index(word), line_words);
                        let mut data = LineData::zeroed(line_words);
                        for i in 0..line_words {
                            let v = value.wrapping_add(i as u32);
                            data.set(i, v);
                            model.insert(word + i as u32, v);
                            traffic[module(word)].1 += 1;
                        }
                        m.write_line(line, &data);
                    }
                    3 => {
                        let line = LineId::containing(Addr::from_word_index(word), line_words);
                        let data = m.read_line(line, line_words);
                        for i in 0..line_words {
                            let w = word + i as u32;
                            assert_eq!(data.get(i), model.get(&w).copied().unwrap_or(0), "line word {w:#x}");
                            traffic[module(w)].0 += 1;
                        }
                    }
                    _ => {
                        let mut w = SnapWriter::new();
                        m.save(&mut w);
                        let img = w.into_bytes();
                        let mut twin = Memory::with_modules(BYTES, MODULE);
                        let mut r = SnapReader::new(&img);
                        twin.load_state(&mut r).expect("a saved memory loads");
                        r.expect_end().expect("the image is consumed");
                        let mut w = SnapWriter::new();
                        twin.save(&mut w);
                        assert_eq!(w.into_bytes(), img, "save → load → save");
                        m = twin;
                    }
                }
                let pages: BTreeSet<u32> = model.keys().map(|w| w / PAGE_WORDS as u32).collect();
                assert_eq!(m.resident_pages(), pages.len());
                for (i, &t) in traffic.iter().enumerate() {
                    assert_eq!(m.module_traffic(i), t, "module {i}");
                }
            }
            for (&w, &v) in &model {
                assert_eq!(m.peek_word(Addr::from_word_index(w)), v);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn module_size_must_be_a_power_of_two() {
        let _ = Memory::with_modules(12 << 20, 3 << 20);
    }

    #[test]
    fn counters_track_traffic() {
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0), 1);
        let _ = m.read_word(Addr::new(0));
        let _ = m.read_word(Addr::new(4));
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 2);
    }
}
