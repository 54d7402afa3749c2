//! Reference types and the stream abstraction.

use firefly_core::protocol::ProcOp;
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::{Addr, Error};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a memory reference, in the three-way split of the VAX
/// characterization the paper uses (Emer & Clark).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum RefKind {
    /// An instruction-stream read.
    InstrRead,
    /// A data read.
    DataRead,
    /// A data write.
    DataWrite,
}

impl RefKind {
    /// Whether the reference reads memory.
    pub const fn is_read(self) -> bool {
        !matches!(self, RefKind::DataWrite)
    }

    /// The processor-side operation the cache sees.
    pub const fn proc_op(self) -> ProcOp {
        match self {
            RefKind::DataWrite => ProcOp::Write,
            _ => ProcOp::Read,
        }
    }
}

impl fmt::Display for RefKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefKind::InstrRead => "ifetch",
            RefKind::DataRead => "read",
            RefKind::DataWrite => "write",
        };
        f.pad(s)
    }
}

/// One memory reference.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MemRef {
    /// The (physical) byte address.
    pub addr: Addr,
    /// Instruction read, data read, or data write.
    pub kind: RefKind,
}

impl MemRef {
    /// An instruction fetch at `addr`.
    pub fn ifetch(addr: Addr) -> Self {
        MemRef { addr, kind: RefKind::InstrRead }
    }

    /// A data read at `addr`.
    pub fn read(addr: Addr) -> Self {
        MemRef { addr, kind: RefKind::DataRead }
    }

    /// A data write at `addr`.
    pub fn write(addr: Addr) -> Self {
        MemRef { addr, kind: RefKind::DataWrite }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
    }
}

/// An endless source of memory references (one simulated processor's
/// demand stream).
///
/// Streams are infinite: workload generators loop forever, and the
/// driver decides how long to run. Use [`RefStream::take_refs`] to get a
/// finite iterator.
pub trait RefStream {
    /// Produces the next reference.
    fn next_ref(&mut self) -> MemRef;

    /// A finite iterator over the next `n` references.
    fn take_refs(&mut self, n: usize) -> TakeRefs<'_, Self>
    where
        Self: Sized,
    {
        TakeRefs { stream: self, remaining: n }
    }

    /// Whether `addr` lies in a region this stream can reference. A
    /// restore checks every saved reference against it, so a corrupt
    /// image cannot send a processor past installed memory. Streams
    /// that restore state bound it by their constructor arguments; the
    /// default, for streams that cannot, holds everywhere.
    fn holds(&self, addr: Addr) -> bool {
        let _ = addr;
        true
    }

    /// Serializes the stream's dynamic state for a machine checkpoint.
    ///
    /// A stream restored onto a freshly built twin (same constructor
    /// arguments) via [`load_state`](RefStream::load_state) must produce
    /// the identical future reference sequence.
    ///
    /// # Errors
    ///
    /// The default implementation returns [`Error::SnapshotUnsupported`]:
    /// streams that cannot checkpoint (ad-hoc test streams) make the
    /// whole machine snapshot fail loudly instead of resuming from
    /// silently wrong state.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), Error> {
        let _ = w;
        Err(Error::SnapshotUnsupported("this reference stream"))
    }

    /// Restores state captured by [`save_state`](RefStream::save_state)
    /// into a stream built with the same constructor arguments.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotUnsupported`] by default, and
    /// [`Error::SnapshotCorrupt`] for out-of-range payloads.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let _ = r;
        Err(Error::SnapshotUnsupported("this reference stream"))
    }
}

firefly_core::snap_enum!(RefKind { InstrRead = 0, DataRead = 1, DataWrite = 2 });
firefly_core::snap_struct!(MemRef { addr, kind });

/// Iterator over a bounded prefix of a stream.
/// Created by [`RefStream::take_refs`].
#[derive(Debug)]
pub struct TakeRefs<'a, S> {
    stream: &'a mut S,
    remaining: usize,
}

impl<S: RefStream> Iterator for TakeRefs<'_, S> {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            None
        } else {
            self.remaining -= 1;
            Some(self.stream.next_ref())
        }
    }
}

/// The VAX reference mix: references per instruction by kind.
///
/// "Measurements made on the VAX show that a typical instruction does
/// .95 instruction reads per instruction, .78 data reads, and .40 data
/// writes, for a total of 2.13 references per instruction. This is an
/// architectural property valid across a wide range of applications."
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct VaxMix {
    /// Instruction reads per instruction.
    pub instr_reads: f64,
    /// Data reads per instruction.
    pub data_reads: f64,
    /// Data writes per instruction.
    pub data_writes: f64,
}

impl Default for VaxMix {
    fn default() -> Self {
        VaxMix { instr_reads: 0.95, data_reads: 0.78, data_writes: 0.40 }
    }
}

impl VaxMix {
    /// Total references per instruction (2.13 with the defaults).
    pub fn total(&self) -> f64 {
        self.instr_reads + self.data_reads + self.data_writes
    }

    /// The read:write ratio (≈ 4.3:1 with the defaults).
    pub fn read_write_ratio(&self) -> f64 {
        (self.instr_reads + self.data_reads) / self.data_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vax_mix_totals() {
        let mix = VaxMix::default();
        assert!((mix.total() - 2.13).abs() < 1e-12);
        assert!((mix.read_write_ratio() - 4.325).abs() < 0.001);
    }

    #[test]
    fn kind_to_proc_op() {
        assert_eq!(RefKind::InstrRead.proc_op(), ProcOp::Read);
        assert_eq!(RefKind::DataRead.proc_op(), ProcOp::Read);
        assert_eq!(RefKind::DataWrite.proc_op(), ProcOp::Write);
        assert!(RefKind::InstrRead.is_read());
        assert!(!RefKind::DataWrite.is_read());
    }

    struct Counter(u32);
    impl RefStream for Counter {
        fn next_ref(&mut self) -> MemRef {
            self.0 += 1;
            MemRef::read(Addr::from_word_index(self.0))
        }
    }

    #[test]
    fn take_refs_bounds_the_stream() {
        let mut c = Counter(0);
        let v: Vec<MemRef> = c.take_refs(3).collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].addr, Addr::from_word_index(3));
        // The stream continues afterwards.
        assert_eq!(c.next_ref().addr, Addr::from_word_index(4));
    }

    #[test]
    fn display_forms() {
        let r = MemRef::write(Addr::new(0x10));
        assert_eq!(r.to_string(), "write 0x00000010");
    }
}
