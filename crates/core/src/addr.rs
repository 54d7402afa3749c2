//! Physical addresses, cache line identifiers, and port identifiers.
//!
//! The Firefly is a 32-bit machine with a 24-bit physical address space in
//! its original version (16 MB) and a 27-bit space in the CVAX version
//! (128 MB). Memory is word (32-bit) oriented; the caches use four-byte
//! lines, so a *line* and a *word* coincide in the real machine. The types
//! here keep byte addresses, word indices and line numbers statically
//! distinct, as the arithmetic between them is where simulators rot.

use crate::snapshot::{Snap, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A physical byte address.
///
/// Firefly processors issue 32-bit virtual addresses, but everything below
/// the processor pins — cache, MBus, memory — deals in physical addresses.
/// This simulator works in physical addresses throughout (address
/// translation is modeled at the workload layer, where it matters for
/// locality, not here).
///
/// # Examples
///
/// ```
/// use firefly_core::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.word_index(), 0x48d);
/// assert_eq!(a.word_aligned(), Addr::new(0x1234));
/// assert_eq!(Addr::new(0x1236).word_aligned(), Addr::new(0x1234));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Addr(u32);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(byte: u32) -> Self {
        Addr(byte)
    }

    /// Creates an address from a word (longword) index.
    pub const fn from_word_index(word: u32) -> Self {
        Addr(word << 2)
    }

    /// The raw byte value.
    pub const fn byte(self) -> u32 {
        self.0
    }

    /// The index of the 32-bit word containing this address.
    pub const fn word_index(self) -> u32 {
        self.0 >> 2
    }

    /// This address rounded down to its word boundary.
    pub const fn word_aligned(self) -> Self {
        Addr(self.0 & !3)
    }

    /// Whether the address is longword (32-bit) aligned.
    ///
    /// In the VAX, most writes are to aligned longwords; the Firefly cache
    /// exploits this with its write-miss optimization.
    pub const fn is_word_aligned(self) -> bool {
        self.0 & 3 == 0
    }

    /// The address `words` 32-bit words above this one.
    pub const fn add_words(self, words: u32) -> Self {
        Addr(self.0.wrapping_add(words << 2))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#010x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(byte: u32) -> Self {
        Addr(byte)
    }
}

impl From<Addr> for u32 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A global cache-line number: the word index divided by the line length.
///
/// `LineId` is what travels on the MBus: transactions name whole lines.
/// With the Firefly's one-word lines, `LineId` equals the word index; the
/// distinction matters only for the cache-geometry ablations.
///
/// # Examples
///
/// ```
/// use firefly_core::{Addr, LineId};
///
/// // One-word lines: the line id is the word index.
/// let id = LineId::containing(Addr::new(0x1000), 1);
/// assert_eq!(id.raw(), 0x400);
/// // Four-word (16-byte) lines:
/// let id = LineId::containing(Addr::new(0x1000), 4);
/// assert_eq!(id.raw(), 0x100);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LineId(u32);

impl LineId {
    /// The line containing `addr`, for lines of `line_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` is not a power of two.
    pub fn containing(addr: Addr, line_words: usize) -> Self {
        assert!(line_words.is_power_of_two(), "line_words must be a power of two");
        LineId(addr.word_index() >> line_words.trailing_zeros())
    }

    /// Constructs a line id from its raw number.
    pub const fn from_raw(raw: u32) -> Self {
        LineId(raw)
    }

    /// The raw line number.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The byte address of the first word of this line.
    pub fn base_addr(self, line_words: usize) -> Addr {
        Addr::from_word_index(self.0 * line_words as u32)
    }

    /// The offset in words of `addr` within this line.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` does not fall inside this line,
    /// or if `line_words` is not a power of two (the offset is a mask).
    pub fn word_offset(self, addr: Addr, line_words: usize) -> usize {
        debug_assert_eq!(LineId::containing(addr, line_words), self);
        addr.word_index() as usize & (line_words - 1)
    }
}

impl fmt::Debug for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineId({:#x})", self.0)
    }
}

impl fmt::Display for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Identifies one cache/processor port on the MBus.
///
/// Port 0 is, by Firefly convention, the *primary* processor — the one
/// wired to the QBus and therefore the I/O processor. Ports are also the
/// fixed MBus arbitration priority: lower numbers win ("the caches have
/// fixed priority for access to the MBus", §5.2).
///
/// # Examples
///
/// ```
/// use firefly_core::PortId;
///
/// let io = PortId::new(0);
/// assert!(io.is_io_processor());
/// assert!(PortId::new(3) > io);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(u8);

impl PortId {
    /// Creates a port id. The Firefly supports at most 16 bus ports.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub fn new(n: usize) -> Self {
        assert!(n < 16, "the MBus supports at most 16 ports, got {n}");
        PortId(n as u8)
    }

    /// The port's index, usable for indexing per-port tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the primary (I/O) processor's port.
    pub const fn is_io_processor(self) -> bool {
        self.0 == 0
    }
}

crate::snap_struct!(Addr(0));
crate::snap_struct!(LineId(0));

/// One byte; out-of-range ids are rejected instead of panicking on
/// corrupt input.
impl Snap for PortId {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.0);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, crate::error::Error> {
        match r.u8()? {
            n if n < 16 => Ok(PortId(n)),
            n => Err(crate::error::Error::SnapshotCorrupt(format!("invalid port id {n}"))),
        }
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortId({})", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_word_arithmetic() {
        let a = Addr::new(0x0000_1004);
        assert_eq!(a.word_index(), 0x401);
        assert_eq!(a.word_aligned(), a);
        assert!(a.is_word_aligned());
        assert_eq!(a.add_words(3), Addr::new(0x1010));
        assert_eq!(Addr::from_word_index(0x401), a);
    }

    #[test]
    fn addr_unaligned() {
        let a = Addr::new(0x1007);
        assert!(!a.is_word_aligned());
        assert_eq!(a.word_aligned(), Addr::new(0x1004));
        assert_eq!(a.word_index(), 0x401);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr::new(0xff).to_string(), "0x000000ff");
        assert_eq!(format!("{:?}", Addr::new(0xff)), "Addr(0x000000ff)");
    }

    #[test]
    fn line_of_one_word_lines_is_word_index() {
        let a = Addr::new(0x2004);
        assert_eq!(LineId::containing(a, 1).raw(), a.word_index());
        assert_eq!(LineId::containing(a, 1).base_addr(1), a.word_aligned());
    }

    #[test]
    fn line_of_multiword_lines() {
        let a = Addr::new(0x2004);
        let id = LineId::containing(a, 4);
        assert_eq!(id.raw(), 0x801 / 4);
        assert_eq!(id.base_addr(4), Addr::new(0x2000));
        assert_eq!(id.word_offset(a, 4), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn line_rejects_non_power_of_two() {
        let _ = LineId::containing(Addr::new(0), 3);
    }

    #[test]
    fn port_ordering_is_priority() {
        assert!(PortId::new(0) < PortId::new(1));
        assert!(PortId::new(0).is_io_processor());
        assert!(!PortId::new(5).is_io_processor());
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn port_bounds() {
        let _ = PortId::new(16);
    }

    #[test]
    fn addr_wrapping_add_does_not_panic() {
        let a = Addr::new(!3);
        let _ = a.add_words(5);
    }
}
