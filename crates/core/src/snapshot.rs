//! Versioned, dependency-free binary snapshots of simulator state.
//!
//! The Firefly was designed to keep running: Topaz survives processor
//! removal, and the paper's measurements were gathered over long runs.
//! This module gives the *simulator* the same durability. A snapshot
//! captures the complete machine state — cache tags/state/data, the bus
//! arbiter and any in-flight transaction, the sparse memory image, every
//! fault-injector RNG stream, the statistics counters and latency
//! histograms — so that a run checkpointed at cycle C and resumed is
//! bit-identical to the uninterrupted run.
//!
//! # Format
//!
//! ```text
//! magic    "FFSN" (4 bytes)
//! version  u32 LE                     — see [`SNAPSHOT_VERSION`]
//! count    u32 LE                     — number of sections
//! section* name (len-prefixed UTF-8), payload length u64 LE, payload
//! crc      u32 LE                     — CRC-32 (IEEE) of everything above
//! ```
//!
//! All integers are little-endian. The format is self-contained — the
//! vendored `serde` facade serializes but cannot parse, so nothing here
//! depends on it.
//!
//! # Cost
//!
//! A warm four-CPU machine image is about 2.73 MB, most of it the
//! memory pages, and it nests the memory system's own image, with its
//! own CRC trailer, inside one section. A [`SnapshotBuilder`] writes
//! every section, nested images included, in place into one buffer
//! rather than copying finished payloads in. Each direction checksums
//! every byte once. On save, [`SnapshotBuilder::image`] runs a child builder that
//! seals its own trailer, and the outer CRC steps over the finished
//! image by CRC-32 algebra instead of reading it again. On load,
//! [`SnapshotFile::parse`] checks the outer CRC in one pass and keeps
//! the register at both ends of the nested image's section, from which
//! [`SnapshotFile::nested`] derives the inner image's CRC. The algebra
//! is zlib's `crc32_combine`: the register update is linear over GF(2),
//! so stepping over `n` bytes is a multiply by x^(8n) mod P, built from
//! a table of x^(2^k) in O(log n).
//!
//! [`crc32`] has two paths that give the same register. On an x86-64
//! CPU with `pclmulqdq`, an input of 64 bytes or more is folded by
//! carry-less multiply, about 0.056 ns per byte on a 2-vCPU Xeon VM;
//! with the cache codec's batched slots, that cut a machine save from
//! 2.9 to 1.4 ms and a load from 2.6 to 1.0 ms. Everything else
//! (other targets and CPUs, and inputs under 64 bytes) takes
//! slicing-by-16 over a 16 KB table set built at compile time, about
//! 0.56 ns per byte, which also checksums the carry-less path's last
//! 0–15 bytes. The path is chosen from the CPU and the input length
//! alone.
//!
//! # One encoding per type
//!
//! Section payloads are built from [`Snap`] values: a type's `save` and
//! `load` live in one impl, so the two directions cannot drift apart.
//! Plain-data types get that impl from [`snap_struct!`](crate::snap_struct),
//! which lists each field once and emits both directions (the struct
//! literal it builds on load also makes the compiler reject a field
//! missing from the list), and fieldless enums get it from
//! [`snap_enum!`](crate::snap_enum), which lists each `Variant = tag`
//! once. The generic impls here fix the shared layout: a `Vec`,
//! `VecDeque`, `BTreeMap` or `BTreeSet` is a `usize` length and then its
//! elements,
//! an `Option` a `bool` and then the value, a tuple or fixed array its
//! elements in order with no prefix.
//!
//! Each fact is written once. A shape the `config` section fixes (the
//! port count, a cache's slot count and line length, the memory size,
//! an event ring's capacity) appears in no other section: the loader
//! builds the machine from the config and reads each section into that
//! shape. An in-flight bus transaction carries its own grant cycle,
//! probe responses and fault flag, so no second queue has to agree
//! with the bus.
//!
//! Only two kinds of impl are written by hand, each with its save and
//! load side by side: loaders that check the image against the machine
//! they restore into (per-port table lengths, probe responses naming a
//! port, in-flight transaction count, timestamp order), and enums whose
//! variants carry data. Where a historical layout is not the generic
//! encoding, the one impl that owns it says so.
//!
//! # Why the RNG streams are serialized
//!
//! Fault injection draws from per-site deterministic generators whose
//! *position* in the stream is part of the machine state: re-seeding on
//! restore would replay or skip fault draws and break resume-equivalence.
//! Snapshots therefore record the raw xoshiro256++ words of every site.

use crate::error::Error;
use rand::rngs::SmallRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::Range;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// The codec version this build writes and the only one it reads.
///
/// Version 2 added the arbitration policy and bus mode to the config
/// section, raise-cycle request lines and pipelined transaction slots to
/// the bus section, and the per-transaction context queue to the system
/// section. Version 3 added the Tardis timestamp state: renewal counters
/// in the bus and cache statistics, per-slot `wts`/`rts` words in each
/// cache section, and per-CPU program timestamps plus the global
/// per-line timestamp map in the system section. Version 4 added the
/// partition-tolerance state: the network fault plan's partition field
/// became a tagged window list, RPC clients gained circuit breakers, a
/// failure detector, per-server epochs and hedging state, and RPC
/// servers gained an epoch, brownout watermark and ack-below ledger.
/// Version 5 dropped the bus log: the config section lost its bus-trace
/// flag, the bus section its optional transaction log, and the fleet's
/// meta section saves its event ring in place of the string trace.
/// Version 6 dropped state nothing read: RPC clients lost the failure
/// detector, the retry policy its hedge delay and each pending call its
/// first-send and hedge cycles; the system section lost the any-port-
/// offline flag, which is derived from the offline list on load.
/// Version 7 stores each fact once: every in-flight bus slot carries
/// its own grant cycle, probe responses and fault flag, and the system
/// section lost its separate transaction-context queue; the ports
/// section lost its port count, each cache its slot count and per-slot
/// line length, memory its size and module size, and every event ring
/// its capacity, all of which the configuration fixes; the fleet's meta
/// section lost its cycle and server-liveness list, which its segment
/// holds.
pub const SNAPSHOT_VERSION: u32 = 7;

/// The four magic bytes at the start of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FFSN";

/// Builds the sixteen slicing tables of CRC-32 (IEEE 802.3, reflected)
/// at compile time. Table 0 is the classic byte table; entry `i` of
/// table `k` is the CRC register after byte `i` is followed by `k` zero
/// bytes, so one step can fold sixteen bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The slicing tables, 16 KB in all.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, as used for the snapshot trailer and the
/// network frame checksums.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The raw CRC-32 register after `bytes`, starting from `reg`: no
/// initial or final inversion, so a pass can be split at any byte and
/// resumed.
///
/// On an x86-64 CPU with `pclmulqdq`, an input of at least 64 bytes is
/// folded by carry-less multiply (`clmul`), about ten times faster than
/// slicing-by-16, and its last 0–15 bytes go through
/// [`crc32_slicing`]. Other targets and CPUs, and shorter inputs, take
/// [`crc32_slicing`] alone. The choice depends only on the CPU and the
/// length; both paths give the same register.
fn crc32_update(reg: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((reg, tail)) = clmul::fold(reg, bytes) {
        return crc32_slicing(reg, tail);
    }
    crc32_slicing(reg, bytes)
}

/// [`crc32_update`] by slicing-by-16, the portable path: each step XORs
/// the register into the next sixteen bytes and looks every byte up in
/// its own table, so the sixteen lookups are independent loads instead
/// of a chain of one per byte. A tail of fewer than sixteen bytes takes
/// one 8-byte and one 4-byte slicing step where it is long enough, and
/// its last 0–3 bytes one at a time.
fn crc32_slicing(mut c: u32, bytes: &[u8]) -> u32 {
    let (blocks, mut tail) = bytes.as_chunks::<16>();
    for block in blocks {
        c = crc32_slice(c, block);
    }
    if let Some((block, rest)) = tail.split_first_chunk::<8>() {
        c = crc32_slice(c, block);
        tail = rest;
    }
    if let Some((block, rest)) = tail.split_first_chunk::<4>() {
        c = crc32_slice(c, block);
        tail = rest;
    }
    for &b in tail {
        c = CRC_TABLES[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c
}

/// One slicing step over the `N` bytes of `block` (`4 <= N <= 16`): the
/// register XORed into its first four bytes, then byte `j` looked up in
/// table `N - 1 - j`.
#[inline]
fn crc32_slice<const N: usize>(c: u32, block: &[u8; N]) -> u32 {
    let mut x = *block;
    for (b, r) in x.iter_mut().zip(c.to_le_bytes()) {
        *b ^= r;
    }
    x.iter().zip(CRC_TABLES[..N].iter().rev()).fold(0, |acc, (&b, t)| acc ^ t[usize::from(b)])
}

/// `a · b mod P` over GF(2), in the reflected representation the
/// register uses (bit 31 is x^0): zlib's `multmodp`.
const fn crc_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { 0xedb8_8320 ^ (b >> 1) } else { b >> 1 };
    }
    p
}

/// `x^(2^k) mod P` for `k` in `0..32`, each entry the square of the one
/// before. P is irreducible of degree 32, so x^(2^32) is x again and
/// the table wraps.
const fn crc_x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    t[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        t[k] = crc_mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

static CRC_X2N: [u32; 32] = crc_x2n();

/// The register after `len` zero bytes from `reg`: `reg · x^(8·len)
/// mod P`, in one multiply per set bit of `len` (zlib's
/// `crc32_combine` algebra). The register update is linear, so
/// `crc32_update(r, d) == crc_shift(r, d.len()) ^ crc32_update(0, d)`:
/// a pass can step over bytes whose own contribution is already known.
fn crc_shift(mut reg: u32, len: usize) -> u32 {
    let (mut n, mut k) = (len, 3);
    while n != 0 {
        if n & 1 != 0 {
            reg = crc_mul(CRC_X2N[k & 31], reg);
        }
        n >>= 1;
        k += 1;
    }
    reg
}

/// The register any complete image leaves behind, trailer included,
/// when checksummed from the usual `!0`: appending a CRC to the bytes
/// it covers always lands the register here, and no other trailer does.
const CRC_RESIDUE: u32 = 0xdebb_20e3;

/// The register after `len` bytes of a complete image, from `reg`,
/// without reading them. The image's own pass from `!0` ends at
/// [`CRC_RESIDUE`], so by linearity its pass from `reg` ends at
/// `crc_shift(reg ^ !0, len) ^ CRC_RESIDUE`. Conversely, a pass over
/// `len` bytes from `reg` ends there only if those bytes are a complete
/// image whose trailer matches its body.
fn crc_skip_image(reg: u32, len: usize) -> u32 {
    crc_shift(reg ^ !0, len) ^ CRC_RESIDUE
}

fn corrupt(msg: impl Into<String>) -> Error {
    Error::SnapshotCorrupt(msg.into())
}

/// A little-endian binary writer for snapshot section payloads.
///
/// # Examples
///
/// ```
/// use firefly_core::snapshot::{SnapReader, SnapWriter};
///
/// let mut w = SnapWriter::new();
/// w.u32(7);
/// w.str("hello");
/// let bytes = w.into_bytes();
/// let mut r = SnapReader::new(&bytes);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.str().unwrap(), "hello");
/// ```
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its raw bit pattern (exact round-trip).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a slice of `u32` words, little-endian, with no length
    /// prefix: byte-identical to calling [`u32`](SnapWriter::u32) once
    /// per word, but the buffer grows once and is filled in place. Used
    /// for the sparse memory image, whose pages dominate snapshot size.
    pub fn u32_words(&mut self, words: &[u32]) {
        let start = self.buf.len();
        self.buf.resize(start + words.len() * 4, 0);
        for (dst, w) in self.buf[start..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends `v` in its [`Snap`] encoding.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }

    /// Appends a `u64` length and then what `save` writes, and patches
    /// the length in afterwards.
    fn length<R>(&mut self, save: impl FnOnce(&mut Self) -> R) -> R {
        self.u64(0);
        let at = self.buf.len();
        let out = save(self);
        let len = (self.buf.len() - at) as u64;
        self.buf[at - 8..at].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked little-endian reader over a snapshot section payload.
///
/// Every accessor returns [`Error::SnapshotCorrupt`] on truncation or an
/// out-of-range encoded value — a corrupt snapshot never panics.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            corrupt(format!("truncated: wanted {n} bytes at offset {}", self.pos))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    #[inline]
    pub fn usize(&mut self) -> Result<usize, Error> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("length exceeds usize"))
    }

    /// Reads a `bool` (rejecting any byte other than 0 or 1).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads an `f64` from its raw bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Fills `out` with little-endian `u32` words written by
    /// [`SnapWriter::u32_words`] (or an equivalent per-word sequence):
    /// one bounds check for the whole batch.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] if fewer than `4 * out.len()` bytes
    /// remain.
    pub fn u32_words_into(&mut self, out: &mut [u32]) -> Result<(), Error> {
        let raw = self.take(out.len() * 4)?;
        for (dst, src) in out.iter_mut().zip(raw.chunks_exact(4)) {
            *dst = u32::from_le_bytes(src.try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, Error> {
        std::str::from_utf8(self.bytes()?).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    /// Reads a value in its [`Snap`] encoding.
    ///
    /// # Errors
    ///
    /// Whatever `T`'s loader reports for truncated or invalid input.
    pub fn get<T: Snap>(&mut self) -> Result<T, Error> {
        T::load(self)
    }

    /// Reads a `usize` length prefix for a collection about to be
    /// decoded, and the capacity to reserve for it: never more than the
    /// bytes left, since every element takes at least one. A corrupt
    /// length then fails on truncation instead of asking the allocator
    /// for more memory than exists.
    fn len_prefix(&mut self) -> Result<(usize, usize), Error> {
        let n = self.usize()?;
        Ok((n, n.min(self.remaining())))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`Error::SnapshotCorrupt`] unless the payload was
    /// consumed exactly.
    pub fn expect_end(&self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes in section", self.remaining())))
        }
    }
}

/// Assembles a snapshot container out of named sections, in place in
/// one buffer.
///
/// # Examples
///
/// ```
/// use firefly_core::snapshot::{SnapshotBuilder, SnapshotFile};
///
/// let mut b = SnapshotBuilder::new();
/// b.section("answer", |w| w.u64(42));
/// b.image("inner", |b| b.section("word", |w| w.u32(7)));
/// let bytes = b.finish();
/// let file = SnapshotFile::parse(&bytes).unwrap();
/// assert_eq!(file.section("answer").unwrap().u64().unwrap(), 42);
/// assert_eq!(file.nested("inner").unwrap().section("word").unwrap().u32().unwrap(), 7);
/// ```
#[derive(Debug)]
pub struct SnapshotBuilder {
    /// The outermost image so far; this one starts at `start`.
    w: SnapWriter,
    start: usize,
    count: u32,
    /// Where each image nested directly in this one lies in `w`.
    images: Vec<Range<usize>>,
}

impl Default for SnapshotBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotBuilder {
    /// Creates a builder holding only the header.
    pub fn new() -> Self {
        Self::within(SnapWriter::new())
    }

    /// Starts an image's header at the end of `w`.
    fn within(mut w: SnapWriter) -> Self {
        let start = w.buf.len();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u32(0); // the section count, patched by `seal`
        SnapshotBuilder { w, start, count: 0, images: Vec::new() }
    }

    /// Appends a named section whose payload `save` writes in place,
    /// and returns what `save` returns. Order is preserved and
    /// significant for byte-identity (restored machines must re-save
    /// identically).
    pub fn section<R>(&mut self, name: &str, save: impl FnOnce(&mut SnapWriter) -> R) -> R {
        self.count += 1;
        self.w.str(name);
        self.w.length(save)
    }

    /// Appends a named section holding a complete snapshot image that
    /// `save` builds in place through a child builder, behind a `u64`
    /// length: the same bytes as [`SnapWriter::bytes`] of the child's
    /// finished image, read back with [`SnapshotFile::nested`]. The
    /// child seals its own trailer, so this builder's checksum steps
    /// over the image without reading it.
    pub fn image<R>(&mut self, name: &str, save: impl FnOnce(&mut SnapshotBuilder) -> R) -> R {
        let (out, image) = self.section(name, |w| {
            w.length(|w| {
                let mut child = Self::within(std::mem::take(w));
                let (out, start) = (save(&mut child), child.start);
                *w = child.seal();
                (out, start..w.buf.len())
            })
        });
        self.images.push(image);
        out
    }

    /// Patches the count and appends the CRC trailer, from one pass
    /// that steps over each nested image (sealed before this one).
    fn seal(mut self) -> SnapWriter {
        self.w.buf[self.start + 8..self.start + 12].copy_from_slice(&self.count.to_le_bytes());
        let (mut reg, mut read) = (!0, self.start);
        for image in &self.images {
            reg = crc32_update(reg, &self.w.buf[read..image.start]);
            reg = crc_skip_image(reg, image.len());
            read = image.end;
        }
        let crc = !crc32_update(reg, &self.w.buf[read..]);
        self.w.u32(crc);
        self.w
    }

    /// The finished container: magic, version, sections, CRC trailer.
    pub fn finish(self) -> Vec<u8> {
        self.seal().into_bytes()
    }
}

/// A parsed snapshot container: named sections over borrowed bytes.
pub struct SnapshotFile<'a> {
    /// The image less its trailer.
    body: &'a [u8],
    /// Each section's name and where its payload lies in `body`.
    sections: Vec<(&'a str, Range<usize>)>,
    /// `(section, register before, register after)` for each payload
    /// that may hold a nested image, from
    /// [`parse`](SnapshotFile::parse)'s pass; empty for an image that
    /// [`nested`](SnapshotFile::nested) verified without a pass.
    crcs: Vec<(usize, u32, u32)>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and validates a snapshot container, checksumming every
    /// byte once.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] on bad magic, truncation, a repeated
    /// section name, or checksum mismatch; [`Error::SnapshotVersion`]
    /// when the header version is not [`SNAPSHOT_VERSION`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, Error> {
        if bytes.len() < 12 + 4 {
            return Err(corrupt(format!("{} bytes is too short for a snapshot", bytes.len())));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        // One pass over the body. It pauses at both ends of each payload
        // that starts like a length-prefixed image, to keep the register
        // there for `nested`; splitting at every payload would cost each
        // small section a byte-at-a-time tail. A body that does not
        // parse is checksummed whole, so a damaged image still reports
        // its checksum first.
        let sections = Self::layout(body);
        let (mut reg, mut read) = (!0, 0);
        let mut crcs = Vec::new();
        for (i, (_, payload)) in sections.iter().flatten().enumerate() {
            if body[payload.clone()].get(8..12) == Some(&SNAPSHOT_MAGIC) {
                let before = crc32_update(reg, &body[read..payload.start]);
                reg = crc32_update(before, &body[payload.clone()]);
                crcs.push((i, before, reg));
                read = payload.end;
            }
        }
        if !crc32_update(reg, &body[read..]) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        Ok(SnapshotFile { body, sections: sections?, crcs })
    }

    /// Reads the header and section table of `body` (an image less its
    /// trailer) without checksumming it: each section's name and where
    /// its payload lies.
    fn layout(body: &'a [u8]) -> Result<Vec<(&'a str, Range<usize>)>, Error> {
        let mut r = SnapReader::new(body);
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(corrupt(format!("bad magic {magic:02x?}")));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::SnapshotVersion { found: version, supported: SNAPSHOT_VERSION });
        }
        let count = r.u32()?;
        let mut sections = Vec::with_capacity((count as usize).min(r.remaining()));
        let mut names = BTreeSet::new();
        for _ in 0..count {
            let name_len = r.usize()?;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| corrupt("section name is not UTF-8"))?;
            // `section` finds the first of a name, so a second copy
            // would be dropped on load and the image would not re-save.
            if !names.insert(name) {
                return Err(corrupt(format!("repeated section {name:?}")));
            }
            let payload_len = r.usize()?;
            let start = r.pos;
            r.take(payload_len)?;
            sections.push((name, start..r.pos));
        }
        r.expect_end()?;
        Ok(sections)
    }

    /// The snapshot image nested in the named section by
    /// [`SnapshotBuilder::image`], parsed.
    ///
    /// The image's own CRC is derived from the registers this file's
    /// pass recorded at the section's ends rather than by a second pass
    /// over it, and the image is accepted only when its trailer matches
    /// its body, as [`parse`](SnapshotFile::parse) would check.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] when the section is absent or holds
    /// anything but one length-prefixed image, and whatever
    /// [`parse`](SnapshotFile::parse) reports for a damaged image.
    pub fn nested(&self, name: &str) -> Result<SnapshotFile<'a>, Error> {
        let (i, payload) = self.find(name)?;
        let mut r = SnapReader::new(payload);
        let image = r.bytes()?;
        let verified = self.crcs.iter().any(|&(at, before, after)| {
            at == i
                && r.remaining() == 0
                && image.len() >= 12 + 4
                && after == crc_skip_image(crc32_update(before, &payload[..8]), image.len())
        });
        let file = if verified {
            let body = &image[..image.len() - 4];
            SnapshotFile { body, sections: Self::layout(body)?, crcs: Vec::new() }
        } else {
            Self::parse(image)?
        };
        r.expect_end()?;
        Ok(file)
    }

    /// The index and payload of the named section.
    fn find(&self, name: &str) -> Result<(usize, &'a [u8]), Error> {
        self.sections
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| (i, &self.body[self.sections[i].1.clone()]))
            .ok_or_else(|| corrupt(format!("missing section {name:?}")))
    }

    /// A reader over the named section's payload.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] when the section is absent.
    pub fn section(&self, name: &str) -> Result<SnapReader<'a>, Error> {
        self.find(name).map(|(_, payload)| SnapReader::new(payload))
    }

    /// Iterates over `(name, payload length)` in file order — the hook
    /// the text debug dumper in `firefly-trace` walks.
    pub fn sections(&self) -> impl Iterator<Item = (&'a str, usize)> + '_ {
        self.sections.iter().map(|(n, p)| (*n, p.len()))
    }
}

/// A value with one snapshot encoding, saved and loaded by one impl.
///
/// Implement it with [`snap_struct!`](crate::snap_struct) for plain data
/// and [`snap_enum!`](crate::snap_enum) for fieldless enums; see the
/// module docs for the generic layouts and when an impl is hand-written.
///
/// # Examples
///
/// ```
/// use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Window {
///     from: u64,
///     until: u64,
///     ports: Vec<u8>,
/// }
/// firefly_core::snap_struct!(Window { from, until, ports });
///
/// let win = Window { from: 3, until: 9, ports: vec![1, 2] };
/// let mut w = SnapWriter::new();
/// w.put(&win);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 8 + 8 + 2, "two u64s, a length, two bytes");
/// assert_eq!(SnapReader::new(&bytes).get::<Window>().unwrap(), win);
/// ```
pub trait Snap: Sized {
    /// Appends this value's encoding.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes a value written by [`save`](Snap::save).
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] on truncation or an out-of-range
    /// encoded value. A loader never panics and never allocates more
    /// than the input could hold.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error>;
}

/// Implements [`Snap`] for a struct by listing each of its fields once,
/// in encoding order: `save` writes them in that order and `load` reads
/// them back into a struct literal, so a field missing from the list is a
/// compile error rather than a silently dropped value.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Pair {
///     left: u32,
///     right: Option<u64>,
/// }
/// firefly_core::snap_struct!(Pair { left, right });
/// ```
///
/// A newtype lists its one field by position: `snap_struct!(Meters(0))`.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident(0)) => {
        impl $crate::snapshot::Snap for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $crate::snapshot::Snap::save(&self.0, w);
            }

            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::Error> {
                ::core::result::Result::Ok($ty(r.get()?))
            }
        }
    };
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::Snap::save(&self.$field, w);)*
            }

            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::Error> {
                ::core::result::Result::Ok($ty { $($field: r.get()?,)* })
            }
        }
    };
}

/// Implements [`Snap`] for a fieldless enum as a one-byte tag, listing
/// each `Variant = tag` once. Loading any other byte is
/// [`Error::SnapshotCorrupt`].
///
/// ```
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// enum Light {
///     Off,
///     On,
/// }
/// firefly_core::snap_enum!(Light { Off = 0, On = 1 });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                w.u8(match self {
                    $($ty::$variant => $tag,)*
                });
            }

            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::Error> {
                match r.u8()? {
                    $($tag => ::core::result::Result::Ok($ty::$variant),)*
                    t => ::core::result::Result::Err($crate::Error::SnapshotCorrupt(format!(
                        concat!("invalid ", stringify!($ty), " tag {}"),
                        t
                    ))),
                }
            }
        }
    };
}

// `#[inline]` lets the per-field calls inline across crates (the
// workspace builds without LTO): RPC messages go through these on every
// frame, not only at checkpoints.
macro_rules! snap_primitive {
    ($($ty:ty => $method:ident),* $(,)?) => {
        $(impl Snap for $ty {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }

            #[inline]
            fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
                r.$method()
            }
        })*
    };
}

snap_primitive!(u8 => u8, u32 => u32, u64 => u64, usize => usize, bool => bool, f64 => f64);

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        r.str().map(str::to_owned)
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (n, cap) = r.len_prefix()?;
        let mut out = Vec::with_capacity(cap);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (n, cap) = r.len_prefix()?;
        let mut out = VecDeque::with_capacity(cap);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

/// Entries in key order, so the encoding is canonical. A repeated key
/// is corrupt: it could not have come from a map.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (n, _) = r.len_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            if out.insert(k, V::load(r)?).is_some() {
                return Err(corrupt("repeated map key"));
            }
        }
        Ok(out)
    }
}

/// Elements in order, so the encoding is canonical. A repeated element
/// is corrupt: it could not have come from a set.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (n, _) = r.len_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            if !out.insert(T::load(r)?) {
                return Err(corrupt("repeated set element"));
            }
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        if r.bool()? {
            T::load(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::load(r)?;
        }
        Ok(out)
    }
}

macro_rules! snap_tuple {
    ($($name:ident),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            #[allow(non_snake_case)]
            fn save(&self, w: &mut SnapWriter) {
                let ($($name,)+) = self;
                $($name.save(w);)+
            }

            fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A, B);
snap_tuple!(A, B, C);
snap_tuple!(A, B, C, D);

/// The raw xoshiro256++ state words: the stream *position* is machine
/// state (see the module docs).
impl Snap for SmallRng {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.state());
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(SmallRng::from_state(r.get()?))
    }
}

impl fmt::Debug for SnapshotFile<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotFile")
            .field("sections", &self.sections().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(0xab);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(17);
        w.bool(true);
        w.bool(false);
        w.f64(-0.25);
        w.bytes(&[1, 2, 3]);
        w.str("snapshot");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 17);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.25);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "snapshot");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.bool(), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn container_roundtrip_and_order() {
        let mut b = SnapshotBuilder::new();
        b.section("alpha", raw(&[1, 2, 3]));
        b.section("beta", |_| ());
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).unwrap();
        let names: Vec<_> = file.sections().collect();
        assert_eq!(names, vec![("alpha", 3), ("beta", 0)]);
        assert_eq!(file.section("beta").unwrap().remaining(), 0);
        assert!(matches!(file.section("gamma"), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[0] = b'X';
        // Fix up the CRC so the magic check itself is exercised.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(SnapshotFile::parse(&bytes), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn version_skew_rejected() {
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        match SnapshotFile::parse(&bytes) {
            Err(Error::SnapshotVersion { found, supported }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let mut b = SnapshotBuilder::new();
        b.section("s", raw(&[0u8; 64]));
        let mut bytes = b.finish();
        bytes[20] ^= 0x10;
        assert!(matches!(SnapshotFile::parse(&bytes), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn truncated_container_rejected() {
        let bytes = SnapshotBuilder::new().finish();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotFile::parse(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix must not parse"
            );
        }
    }

    #[test]
    fn generic_layouts_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert(3u32, (7u64, true));
        map.insert(1u32, (0u64, false));
        let value = (
            vec![Some(1u8), None],
            VecDeque::from(vec![String::from("a"), String::from("bc")]),
            map,
            [5u64; 3],
        );
        let mut w = SnapWriter::new();
        w.put(&value);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<(Vec<Option<u8>>, VecDeque<String>, _, [u64; 3])>().unwrap(), value);
        r.expect_end().unwrap();
    }

    #[test]
    fn huge_encoded_lengths_fail_on_truncation_without_allocating() {
        let mut w = SnapWriter::new();
        w.u64(1 << 60);
        w.u64(9);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).get::<Vec<u64>>(),
            Err(Error::SnapshotCorrupt(_))
        ));
        assert!(matches!(
            SnapReader::new(&bytes).get::<VecDeque<(u64, u64)>>(),
            Err(Error::SnapshotCorrupt(_))
        ));
        assert!(matches!(
            SnapReader::new(&bytes).get::<BTreeMap<u64, u64>>(),
            Err(Error::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn repeated_map_key_is_corrupt() {
        let mut w = SnapWriter::new();
        w.put(&vec![(1u32, 2u32), (1u32, 3u32)]);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).get::<BTreeMap<u32, u32>>(),
            Err(Error::SnapshotCorrupt(_))
        ));
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        Idle,
        Busy,
    }
    crate::snap_enum!(Mode { Idle = 0, Busy = 7 });

    #[test]
    fn snap_enum_uses_the_listed_tags_and_rejects_others() {
        let mut w = SnapWriter::new();
        w.put(&Mode::Busy);
        w.put(&Mode::Idle);
        assert_eq!(w.into_bytes(), vec![7, 0]);
        assert_eq!(SnapReader::new(&[7]).get::<Mode>().unwrap(), Mode::Busy);
        match SnapReader::new(&[1]).get::<Mode>() {
            Err(Error::SnapshotCorrupt(msg)) => assert_eq!(msg, "invalid Mode tag 1"),
            other => panic!("expected a corrupt-tag error, got {other:?}"),
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// CRC-32 (IEEE, reflected) one bit at a time: the table builder's
    /// inner loop applied to each byte, with no table at all.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// `n` bytes from a fixed splitmix64 stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// The carry-less-multiply path as [`crc32_update`] takes it, with
    /// its tail by slicing; `None` where it declines the input: below
    /// 64 bytes, on a CPU without `pclmulqdq`, or off x86-64.
    fn crc32_clmul(reg: u32, bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        return clmul::fold(reg, bytes).map(|(reg, tail)| crc32_slicing(reg, tail));
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    #[test]
    fn crc32_matches_a_bitwise_reference_at_every_length_and_offset() {
        let has_clmul = crc32_clmul(0, &[0; 64]).is_some();
        let buf = seeded_bytes(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                let want = crc32_bitwise(s);
                assert_eq!(!crc32_slicing(!0, s), want, "slicing, start {start}, length {len}");
                let clmul = crc32_clmul(!0, s);
                assert_eq!(clmul.is_some(), has_clmul && len >= 64, "clmul takes {len} bytes");
                if let Some(reg) = clmul {
                    assert_eq!(!reg, want, "clmul, start {start}, length {len}");
                }
                assert_eq!(crc32(s), want, "start {start}, length {len}");
            }
        }
        // About the size of a warm four-CPU machine image.
        let big = seeded_bytes(2_750_000);
        let want = crc32_bitwise(&big);
        assert_eq!(!crc32_slicing(!0, &big), want);
        assert_eq!(crc32_clmul(!0, &big).map(|reg| !reg), has_clmul.then_some(want));
        assert_eq!(crc32(&big), want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A pass split anywhere, on either side of the 64-byte
        /// carry-less-multiply threshold, resumes from the register the
        /// first part left, from any starting register.
        #[test]
        fn crc32_update_resumes_at_any_split(
            reg in proptest::prelude::any::<u32>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=300),
            at in 0usize..=300,
        ) {
            let reg = if reg == !0 { 0x5a5a_5a5a } else { reg };
            let (a, b) = data.split_at(at.min(data.len()));
            assert_eq!(crc32_update(reg, &data), crc32_update(crc32_update(reg, a), b));
        }
    }

    #[test]
    fn crc_x2n_squares_from_x_and_wraps_after_32() {
        assert_eq!(CRC_X2N[0], 1 << 30, "x");
        for k in 1..32 {
            assert_eq!(CRC_X2N[k], crc_mul(CRC_X2N[k - 1], CRC_X2N[k - 1]), "entry {k}");
        }
        assert_eq!(crc_mul(CRC_X2N[31], CRC_X2N[31]), CRC_X2N[0], "x^(2^32) = x");
    }

    #[test]
    fn crc_shift_is_a_run_of_zero_bytes() {
        let zeros = vec![0u8; 4100];
        for reg in [0, !0, 0x1234_5678, CRC_RESIDUE] {
            for len in (0..=257).chain([1024, 4096, 4100]) {
                assert_eq!(crc_shift(reg, len), crc32_update(reg, &zeros[..len]), "{len} bytes");
            }
        }
    }

    /// `crc32(a ++ b)` from `crc32(a)`'s register, `b`'s length and
    /// `b`'s own pass from zero.
    fn combined(a: &[u8], b: &[u8]) -> u32 {
        !(crc_shift(crc32_update(!0, a), b.len()) ^ crc32_update(0, b))
    }

    #[test]
    fn crc_shift_combines_every_split() {
        let buf = seeded_bytes(257);
        for len in 0..=buf.len() {
            let whole = crc32(&buf[..len]);
            for split in 0..=len {
                let (a, b) = buf[..len].split_at(split);
                assert_eq!(combined(a, b), whole, "length {len} split at {split}");
            }
        }
        // About the size of a warm four-CPU machine image. A tail of
        // 2^21 - 1 bytes sets every bit of the shift length up to 20,
        // so it multiplies by every table entry from x^8 to x^(2^23).
        let big = seeded_bytes(2_750_000);
        let whole = crc32(&big);
        let all_bits = big.len() - ((1 << 21) - 1);
        for split in [0, 1, 12, 4097, 1 << 20, all_bits, 2_749_999, 2_750_000] {
            let (a, b) = big.split_at(split);
            assert_eq!(combined(a, b), whole, "split at {split}");
        }
    }

    /// A section saver that writes `bytes` as they are.
    fn raw(bytes: &[u8]) -> impl FnOnce(&mut SnapWriter) + '_ {
        move |w| w.buf.extend_from_slice(bytes)
    }

    /// Fills `b` with one section of `n` payload bytes.
    fn fill(b: &mut SnapshotBuilder, n: usize) {
        b.section("data", raw(&seeded_bytes(n)));
    }

    /// A finished image of `n` payload bytes in one section.
    fn image_of(n: usize) -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        fill(&mut b, n);
        b.finish()
    }

    #[test]
    fn every_image_leaves_the_residue_and_can_be_stepped_over() {
        for n in [0, 1, 15, 16, 17, 255, 4096, 100_003] {
            let image = image_of(n);
            assert_eq!(crc32_update(!0, &image), CRC_RESIDUE, "{n}-byte payload");
            for reg in [0, !0, 0xdead_beef] {
                assert_eq!(crc_skip_image(reg, image.len()), crc32_update(reg, &image));
            }
        }
    }

    #[test]
    fn image_sections_are_byte_equal_to_length_prefixed_bytes() {
        for n in [0, 1, 15, 16, 17, 255, 4096, 100_003] {
            let (mut with_image, mut with_bytes) = (SnapshotBuilder::new(), SnapshotBuilder::new());
            for b in [&mut with_image, &mut with_bytes] {
                b.section("before", raw(&[1, 2, 3]));
            }
            with_image.image("inner", |b| fill(b, n));
            with_bytes.section("inner", |w| w.bytes(&image_of(n)));
            for b in [&mut with_image, &mut with_bytes] {
                b.image("second", |b| fill(b, 3));
                b.section("after", raw(&seeded_bytes(n % 37)));
            }
            let bytes = with_image.finish();
            assert_eq!(bytes, with_bytes.finish(), "{n}-byte payload");
            assert_eq!(crc32_update(!0, &bytes), CRC_RESIDUE);
        }
    }

    #[test]
    fn nested_reads_an_image_section() {
        let outer_of = |b: &mut SnapshotBuilder| {
            b.section("outer", |w| w.u8(9));
            b.image("inner", |b| fill(b, 40));
        };
        let mut b = SnapshotBuilder::new();
        outer_of(&mut b);
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).unwrap();
        let inner = file.nested("inner").unwrap();
        assert_eq!(inner.sections().collect::<Vec<_>>(), vec![("data", 40)]);
        assert_eq!(inner.section("data").unwrap().remaining(), 40);
        // A finished image written as bytes nests too; its own nested
        // image is reached without a recorded pass and parsed in full.
        let mut b = SnapshotBuilder::new();
        b.section("again", |w| w.bytes(&bytes));
        let by_bytes = b.finish();
        let outer = SnapshotFile::parse(&by_bytes).unwrap();
        assert!(outer.nested("again").unwrap().nested("inner").is_ok());
        // The same image built two deep through child builders, in one
        // pass: byte-equal, so each level's trailer matches its body.
        let mut b = SnapshotBuilder::new();
        b.image("again", outer_of);
        let in_place = b.finish();
        assert_eq!(in_place, by_bytes);
        let outer = SnapshotFile::parse(&in_place).unwrap();
        let inner = outer.nested("again").unwrap().nested("inner").unwrap();
        assert_eq!(inner.section("data").unwrap().remaining(), 40);
        assert!(matches!(file.nested("outer"), Err(Error::SnapshotCorrupt(_))));
        assert!(matches!(file.nested("absent"), Err(Error::SnapshotCorrupt(_))));
    }

    /// `bytes` with its trailer recomputed over everything before it.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn nested_rejects_a_damaged_image_under_a_valid_outer_crc() {
        let mut b = SnapshotBuilder::new();
        b.image("inner", |b| fill(b, 64));
        let bytes = b.finish();
        // Header 12, name length 8, name 5, payload length 8, image
        // length 8: the image runs from byte 41 to the outer trailer.
        let image = 41..bytes.len() - 4;
        for at in [image.start, image.start + 30, image.end - 4, image.end - 1] {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x20;
            let damaged = resealed(damaged);
            let file = SnapshotFile::parse(&damaged).unwrap();
            match file.nested("inner") {
                Err(Error::SnapshotCorrupt(msg)) => assert_eq!(msg, "CRC mismatch", "byte {at}"),
                other => panic!("byte {at}: expected a CRC mismatch, got {other:?}"),
            }
        }
        // A length prefix that leaves bytes over is not one image.
        let mut b = SnapshotBuilder::new();
        b.section("inner", |w| {
            w.bytes(&image_of(5));
            w.u8(0);
        });
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).unwrap();
        assert!(matches!(file.nested("inner"), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn repeated_section_names_are_corrupt() {
        let mut b = SnapshotBuilder::new();
        b.section("cpu0", |w| w.u8(1));
        b.section("cpu1", |w| w.u8(2));
        b.section("cpu0", |w| w.u8(3));
        match SnapshotFile::parse(&b.finish()) {
            Err(Error::SnapshotCorrupt(msg)) => assert_eq!(msg, "repeated section \"cpu0\""),
            other => panic!("expected a repeated-section error, got {other:?}"),
        }
    }

    #[test]
    fn u32_words_matches_one_u32_per_word_after_any_prefix() {
        let bytes = seeded_bytes(4 * 1025);
        let words: Vec<u32> =
            bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        for prefix in 0..4 {
            for n in 0..=words.len() {
                let (mut batch, mut single) = (SnapWriter::new(), SnapWriter::new());
                for w in [&mut batch, &mut single] {
                    for p in 0..prefix {
                        w.u8(p as u8);
                    }
                }
                batch.u32_words(&words[..n]);
                for &v in &words[..n] {
                    single.u32(v);
                }
                assert_eq!(batch.into_bytes(), single.into_bytes(), "prefix {prefix}, {n} words");
            }
        }
    }
}
