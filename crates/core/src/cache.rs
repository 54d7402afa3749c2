//! The direct-mapped Firefly board cache.
//!
//! "Each cache is direct mapped, and in the original version of the
//! system, contained 4096 four-byte lines." Each line carries the two tag
//! bits of §5.1 — `Dirty` and `Shared` — which together with the valid bit
//! form the [`LineState`]. Unusually for a simulator, the cache stores
//! *real data words*: coherence in this codebase is verified against
//! values, not merely against state-machine bookkeeping.
//!
//! This module is pure mechanism (tag match, fill, victimize, absorb);
//! all *policy* lives in [`crate::protocol`] and the controller logic in
//! [`crate::system`].

use crate::addr::{Addr, LineId};
use crate::config::{CacheGeometry, MAX_LINE_WORDS};
use crate::error::Error;
use crate::protocol::LineState;
use crate::snapshot::{Snap, SnapReader, SnapWriter};
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The data payload of one cache line (1–16 words).
///
/// A fixed-capacity inline array: line data is copied on every bus
/// transfer, and the simulator's hot loop must not allocate.
///
/// # Examples
///
/// ```
/// use firefly_core::cache::LineData;
///
/// let mut d = LineData::zeroed(4);
/// d.set(2, 99);
/// assert_eq!(d.get(2), 99);
/// assert_eq!(d.as_slice(), &[0, 0, 99, 0]);
/// let single = LineData::from_word(7);
/// assert_eq!(single.len(), 1);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LineData {
    words: [u32; MAX_LINE_WORDS],
    len: u8,
}

impl LineData {
    /// A zero-filled line of `line_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` is 0 or exceeds [`MAX_LINE_WORDS`].
    pub fn zeroed(line_words: usize) -> Self {
        assert!(
            (1..=MAX_LINE_WORDS).contains(&line_words),
            "line length must be 1..={MAX_LINE_WORDS}, got {line_words}"
        );
        LineData { words: [0; MAX_LINE_WORDS], len: line_words as u8 }
    }

    /// A one-word line holding `value` — the common Firefly case.
    pub fn from_word(value: u32) -> Self {
        let mut d = LineData::zeroed(1);
        d.set(0, value);
        d
    }

    /// Builds a line from a slice of words.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or longer than [`MAX_LINE_WORDS`].
    pub fn from_words(words: &[u32]) -> Self {
        let mut d = LineData::zeroed(words.len());
        d.words[..words.len()].copy_from_slice(words);
        d
    }

    /// Number of words in the line.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the line holds zero words (never true for a constructed line).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len()`.
    pub fn get(&self, offset: usize) -> u32 {
        assert!(offset < self.len(), "offset {offset} out of line of {} words", self.len());
        self.words[offset]
    }

    /// Sets the word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len()`.
    pub fn set(&mut self, offset: usize, value: u32) {
        assert!(offset < self.len(), "offset {offset} out of line of {} words", self.len());
        self.words[offset] = value;
    }

    /// The line's words as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.words[..self.len()]
    }
}

/// The word count, then the words: the length travels with the data,
/// so a loader can check it against the cache geometry.
impl Snap for LineData {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.len);
        for word in self.as_slice() {
            w.put(word);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let len = usize::from(r.get::<u8>()?);
        if !(1..=MAX_LINE_WORDS).contains(&len) {
            return Err(Error::SnapshotCorrupt(format!("invalid line length {len}")));
        }
        let mut d = LineData::zeroed(len);
        for word in &mut d.words[..len] {
            *word = r.get()?;
        }
        Ok(d)
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData({:x?})", self.as_slice())
    }
}

/// A direct-mapped snoopy cache.
///
/// # Examples
///
/// ```
/// use firefly_core::cache::{Cache, LineData};
/// use firefly_core::protocol::LineState;
/// use firefly_core::{Addr, CacheGeometry, LineId};
///
/// let mut c = Cache::new(CacheGeometry::microvax());
/// let line = LineId::containing(Addr::new(0x40), 1);
/// assert_eq!(c.state_of(line), LineState::Invalid);
/// c.fill(line, LineData::from_word(5), LineState::CleanExclusive);
/// assert_eq!(c.state_of(line), LineState::CleanExclusive);
/// assert_eq!(c.read_word(Addr::new(0x40)), Some(5));
/// ```
#[derive(Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// Per slot: the tag, and the state (valid/dirty/shared). An invalid
    /// slot keeps its last tag, data and timestamps, which snapshots
    /// record.
    tags: Vec<(u32, LineState)>,
    /// `line_words` words per slot.
    words: Vec<u32>,
    /// Per slot, for the timestamped protocol (Tardis): the logical time
    /// of the last write to the copy (`wts`) and its lease expiry (`rts`;
    /// the copy may be read at logical times `<= rts`).
    ts: Vec<(u64, u64)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let lines = geometry.lines();
        Cache {
            geometry,
            tags: vec![(0, LineState::Invalid); lines],
            words: vec![0; lines * geometry.line_words()],
            ts: vec![(0, 0); lines],
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The slot `line` maps to, if `line` is resident there.
    #[inline]
    fn resident(&self, line: LineId) -> Option<usize> {
        let idx = self.geometry.index_of(line);
        let (tag, state) = self.tags[idx];
        (state.is_valid() && tag == self.geometry.tag_of(line)).then_some(idx)
    }

    /// The words of slot `idx`.
    fn slot_words(&self, idx: usize) -> &[u32] {
        let lw = self.geometry.line_words();
        &self.words[idx * lw..(idx + 1) * lw]
    }

    fn slot_words_mut(&mut self, idx: usize) -> &mut [u32] {
        let lw = self.geometry.line_words();
        &mut self.words[idx * lw..(idx + 1) * lw]
    }

    /// The state of `line` in this cache ([`LineState::Invalid`] if the
    /// slot holds a different tag or nothing).
    #[inline]
    pub fn state_of(&self, line: LineId) -> LineState {
        self.resident(line).map_or(LineState::Invalid, |idx| self.tags[idx].1)
    }

    /// Sets the state of a resident line; setting [`LineState::Invalid`]
    /// evicts it.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is not resident.
    pub fn set_state(&mut self, line: LineId, state: LineState) {
        debug_assert!(self.resident(line).is_some(), "set_state on non-resident line {line:?}");
        self.tags[self.geometry.index_of(line)].1 = state;
    }

    /// Installs `line` with the given data and state, replacing whatever
    /// occupied the slot. The caller must have victimized any dirty
    /// occupant first.
    pub fn fill(&mut self, line: LineId, data: LineData, state: LineState) {
        debug_assert_eq!(data.len(), self.geometry.line_words());
        debug_assert!(state.is_valid(), "fill with Invalid state");
        let idx = self.geometry.index_of(line);
        self.tags[idx] = (self.geometry.tag_of(line), state);
        self.slot_words_mut(idx).copy_from_slice(data.as_slice());
        self.ts[idx] = (0, 0);
    }

    /// The `(wts, rts)` timestamps of `line` if it is resident.
    pub fn line_ts(&self, line: LineId) -> Option<(u64, u64)> {
        self.resident(line).map(|idx| self.ts[idx])
    }

    /// Sets the timestamps of a resident line. No-op if not resident
    /// (the copy — and its lease — may have been expired by a snoop
    /// between issue and completion).
    pub fn set_line_ts(&mut self, line: LineId, wts: u64, rts: u64) {
        if let Some(idx) = self.resident(line) {
            self.ts[idx] = (wts, rts);
        }
    }

    /// Evicts `line` if resident (no write-back — mechanism only).
    pub fn evict(&mut self, line: LineId) {
        let idx = self.geometry.index_of(line);
        if self.tags[idx].0 == self.geometry.tag_of(line) {
            self.tags[idx].1 = LineState::Invalid;
        }
    }

    /// The current occupant of the slot `line` maps to, if it is a valid
    /// *different* line (i.e. the victim a fill of `line` would displace),
    /// and its state. [`line_data`](Cache::line_data) reads its data.
    pub fn victim_of(&self, line: LineId) -> Option<(LineId, LineState)> {
        let idx = self.geometry.index_of(line);
        let (tag, state) = self.tags[idx];
        if state.is_valid() && tag != self.geometry.tag_of(line) {
            Some((self.geometry.line_from(idx, tag), state))
        } else {
            None
        }
    }

    /// Reads the word at `addr` if its line is resident.
    pub fn read_word(&self, addr: Addr) -> Option<u32> {
        let lw = self.geometry.line_words();
        let line = LineId::containing(addr, lw);
        self.resident(line).map(|idx| self.words[idx * lw + line.word_offset(addr, lw)])
    }

    /// Writes the word at `addr` if its line is resident. Returns whether
    /// the write landed. Does not touch the state bits; callers pair this
    /// with [`set_state`](Cache::set_state) per the protocol tables.
    pub fn write_word(&mut self, addr: Addr, value: u32) -> bool {
        let lw = self.geometry.line_words();
        let line = LineId::containing(addr, lw);
        match self.resident(line) {
            Some(idx) => {
                self.words[idx * lw + line.word_offset(addr, lw)] = value;
                true
            }
            None => false,
        }
    }

    /// The full data of `line` if resident.
    pub fn line_data(&self, line: LineId) -> Option<LineData> {
        self.resident(line).map(|idx| LineData::from_words(self.slot_words(idx)))
    }

    /// Overwrites one word of a resident line (used to absorb a snooped
    /// write-through or update). No-op if the line is not resident.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the line.
    pub fn absorb_word(&mut self, line: LineId, offset: usize, value: u32) {
        if let Some(idx) = self.resident(line) {
            self.slot_words_mut(idx)[offset] = value;
        }
    }

    /// Overwrites the whole data of a resident line.
    pub fn absorb_line(&mut self, line: LineId, data: &LineData) {
        if let Some(idx) = self.resident(line) {
            self.slot_words_mut(idx).copy_from_slice(data.as_slice());
        }
    }

    /// Iterates over all resident lines as `(line, state, data)`.
    pub fn iter_resident(&self) -> impl Iterator<Item = (LineId, LineState, LineData)> + '_ {
        self.tags.iter().enumerate().filter(|(_, (_, state))| state.is_valid()).map(
            move |(idx, &(tag, state))| {
                let data = LineData::from_words(self.slot_words(idx));
                (self.geometry.line_from(idx, tag), state, data)
            },
        )
    }

    /// Number of resident (valid) lines.
    pub fn resident_count(&self) -> usize {
        self.tags.iter().filter(|(_, state)| state.is_valid()).count()
    }

    /// This cache's event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the counters (controllers update them).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Invalidates every line (a cache flush; used for cold-start studies).
    pub fn clear(&mut self) {
        for (_, state) in &mut self.tags {
            *state = LineState::Invalid;
        }
    }

    /// The counters, then one record per slot: state, tag, the line's
    /// words, `wts`, `rts`. The geometry fixes the slot count and line
    /// length, so neither is written. The data is written straight from
    /// the slot.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.put(&self.stats);
        for (idx, &(tag, state)) in self.tags.iter().enumerate() {
            w.put(&state);
            w.put(&tag);
            w.u32_words(self.slot_words(idx));
            w.put(&self.ts[idx]);
        }
    }

    /// Restores a cache saved with [`save`](Cache::save) into one built
    /// with the same geometry.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.stats = r.get()?;
        for idx in 0..self.tags.len() {
            let state = r.get()?;
            let tag = r.get()?;
            r.u32_words_into(self.slot_words_mut(idx))?;
            self.tags[idx] = (tag, state);
            self.ts[idx] = r.get()?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("geometry", &self.geometry)
            .field("resident", &self.resident_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheGeometry::new(16, 1).unwrap())
    }

    #[test]
    fn empty_cache_misses_everything() {
        let c = small();
        assert_eq!(c.state_of(LineId::from_raw(3)), LineState::Invalid);
        assert_eq!(c.read_word(Addr::new(0xc)), None);
        assert_eq!(c.resident_count(), 0);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = small();
        let line = LineId::from_raw(3);
        c.fill(line, LineData::from_word(42), LineState::SharedClean);
        assert_eq!(c.state_of(line), LineState::SharedClean);
        assert_eq!(c.read_word(Addr::from_word_index(3)), Some(42));
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn conflicting_tag_is_a_miss_and_a_victim() {
        let mut c = small();
        let a = LineId::from_raw(3);
        let b = LineId::from_raw(3 + 16); // same index, different tag
        c.fill(a, LineData::from_word(1), LineState::DirtyExclusive);
        assert_eq!(c.state_of(b), LineState::Invalid);
        let (victim, state) = c.victim_of(b).expect("dirty occupant is the victim");
        assert_eq!(victim, a);
        assert_eq!(state, LineState::DirtyExclusive);
        assert_eq!(c.line_data(victim).expect("victim is resident").get(0), 1);
        // The victim of the *same* line is nothing.
        assert!(c.victim_of(a).is_none());
    }

    #[test]
    fn fill_replaces_victim() {
        let mut c = small();
        let a = LineId::from_raw(3);
        let b = LineId::from_raw(19);
        c.fill(a, LineData::from_word(1), LineState::CleanExclusive);
        c.fill(b, LineData::from_word(2), LineState::CleanExclusive);
        assert_eq!(c.state_of(a), LineState::Invalid);
        assert_eq!(c.state_of(b), LineState::CleanExclusive);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn write_word_respects_residency() {
        let mut c = small();
        assert!(!c.write_word(Addr::new(0), 9));
        c.fill(LineId::from_raw(0), LineData::from_word(0), LineState::CleanExclusive);
        assert!(c.write_word(Addr::new(0), 9));
        assert_eq!(c.read_word(Addr::new(0)), Some(9));
    }

    #[test]
    fn absorb_updates_resident_copies_only() {
        let mut c = small();
        let line = LineId::from_raw(5);
        c.absorb_word(line, 0, 1); // not resident: no-op, no panic
        c.fill(line, LineData::from_word(0), LineState::SharedClean);
        c.absorb_word(line, 0, 77);
        assert_eq!(c.read_word(Addr::from_word_index(5)), Some(77));
    }

    #[test]
    fn multiword_line_offsets() {
        let mut c = Cache::new(CacheGeometry::new(8, 4).unwrap());
        let addr = Addr::new(0x34); // word 13, line 3, offset 1
        let line = LineId::containing(addr, 4);
        c.fill(line, LineData::from_words(&[10, 11, 12, 13]), LineState::CleanExclusive);
        assert_eq!(c.read_word(addr), Some(11));
        c.write_word(addr, 99);
        assert_eq!(c.line_data(line).unwrap().as_slice(), &[10, 99, 12, 13]);
    }

    #[test]
    fn iter_resident_sees_all() {
        let mut c = small();
        c.fill(LineId::from_raw(1), LineData::from_word(1), LineState::SharedClean);
        c.fill(LineId::from_raw(2), LineData::from_word(2), LineState::DirtyExclusive);
        let mut lines: Vec<_> = c.iter_resident().map(|(l, s, _)| (l.raw(), s)).collect();
        lines.sort_by_key(|&(raw, _)| raw);
        assert_eq!(lines, vec![(1, LineState::SharedClean), (2, LineState::DirtyExclusive)]);
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.fill(LineId::from_raw(1), LineData::from_word(1), LineState::SharedClean);
        c.clear();
        assert_eq!(c.resident_count(), 0);
    }

    /// A four-word-line cache through mixed states, timestamps, absorbs,
    /// conflicts and evictions: save, load, save again gives the same
    /// bytes, and the bytes' CRC-32 is pinned, so the in-memory layout can
    /// change without changing the per-slot snapshot record. (The snapshot
    /// goldens only cover one-word lines.)
    #[test]
    fn multiword_cache_bytes_are_a_pinned_fixed_point() {
        let geo = CacheGeometry::new(64, 4).unwrap();
        let states = [
            LineState::SharedClean,
            LineState::CleanExclusive,
            LineState::DirtyExclusive,
            LineState::SharedDirty,
        ];
        let mut c = Cache::new(geo);
        for i in 0..48u32 {
            // Stride 5 over 240 lines: later fills displace earlier ones.
            let line = LineId::from_raw(i * 5);
            c.fill(line, LineData::from_words(&[i, i + 1, i * 7, !i]), states[i as usize % 4]);
            if i % 3 == 0 {
                c.set_line_ts(line, u64::from(i), u64::from(i) + 8);
            }
            if i % 4 == 1 {
                c.absorb_word(line, i as usize % 4, 0xdead_0000 | i);
            }
            if i % 7 == 0 {
                c.absorb_line(line, &LineData::from_words(&[9, 8, 7, i]));
            }
            if i % 6 == 5 {
                c.set_state(line, LineState::SharedClean);
            }
            if i % 11 == 0 {
                c.evict(line);
            }
        }
        // Misses leave their slots alone.
        c.evict(LineId::from_raw(1_000));
        c.set_line_ts(LineId::from_raw(1_001), 99, 99);
        c.absorb_word(LineId::from_raw(1_002), 0, 99);
        c.stats_mut().read_hits = 17;

        let save = |c: &Cache| {
            let mut w = SnapWriter::new();
            c.save(&mut w);
            w.into_bytes()
        };
        let bytes = save(&c);
        let mut back = Cache::new(geo);
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(save(&back), bytes, "save -> load -> save is a fixed point");
        assert_eq!(back.resident_count(), c.resident_count());
        assert_eq!(crate::snapshot::crc32(&bytes), 0x7045_5418, "multi-word cache bytes changed");
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn line_data_bounds() {
        let d = LineData::zeroed(2);
        let _ = d.get(2);
    }
}
