//! A multiprogrammed (context-switching) workload.
//!
//! §5.3 observes that the measured one-CPU miss rate (0.3) exceeded the
//! trace-driven prediction (0.2), "possibly due to cold-start effects
//! caused by rapid context switching". This workload reproduces the
//! mechanism: several synthetic processes share one processor; every
//! quantum the stream switches to the next process, whose working set
//! has meanwhile been partially evicted.
//!
//! It also models the coarse-grained concurrency of §2 ("workstation
//! users like to keep several activities running at once — profiling an
//! application while compiling a module while reading mail").

use crate::refs::{MemRef, RefStream};
use crate::synth::{LocalityParams, SyntheticWorkload, PRIVATE_STRIDE};
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::{Addr, Error};

/// Round-robin context switching over several synthetic processes.
///
/// # Examples
///
/// ```
/// use firefly_trace::{LocalityParams, MultiprogramWorkload, RefStream};
///
/// let mut w = MultiprogramWorkload::new(
///     3,                                   // processes
///     5_000,                               // references per quantum
///     LocalityParams::paper_calibrated(),
///     1,                                   // seed
/// );
/// let _ = w.next_ref();
/// assert_eq!(w.context_switches(), 0);
/// ```
#[derive(Debug)]
pub struct MultiprogramWorkload {
    processes: Vec<SyntheticWorkload>,
    quantum_refs: u64,
    current: usize,
    refs_in_quantum: u64,
    switches: u64,
}

impl MultiprogramWorkload {
    /// Creates `processes` synthetic processes switched every
    /// `quantum_refs` references.
    ///
    /// The processes are laid out like a [`SyntheticWorkload::fleet`], so
    /// up to 14 fit below 16 MB — but they all run on *one* CPU.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is 0, `quantum_refs` is 0, or the layout
    /// does not fit (see [`SyntheticWorkload::fleet`]).
    pub fn new(processes: usize, quantum_refs: u64, params: LocalityParams, seed: u64) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(quantum_refs > 0, "quantum must be nonzero");
        MultiprogramWorkload {
            processes: SyntheticWorkload::fleet(processes, params, seed),
            quantum_refs,
            current: 0,
            refs_in_quantum: 0,
            switches: 0,
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.processes.len()
    }

    /// Context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.switches
    }

    /// The private-region base address of process `i` (useful for
    /// footprint assertions in tests).
    pub fn process_base(&self, i: usize) -> Addr {
        Addr::new(crate::synth::PRIVATE_BASE.byte() + i as u32 * PRIVATE_STRIDE)
    }
}

impl RefStream for MultiprogramWorkload {
    fn next_ref(&mut self) -> MemRef {
        if self.refs_in_quantum >= self.quantum_refs {
            self.refs_in_quantum = 0;
            self.current = (self.current + 1) % self.processes.len();
            self.switches += 1;
        }
        self.refs_in_quantum += 1;
        self.processes[self.current].next_ref()
    }

    fn holds(&self, addr: Addr) -> bool {
        self.processes.iter().any(|p| p.holds(addr))
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), Error> {
        w.usize(self.processes.len());
        for p in &self.processes {
            p.save_state(w)?;
        }
        w.put(&(self.current, self.refs_in_quantum, self.switches));
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let n: usize = r.get()?;
        if n != self.processes.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {n} processes, stream has {}",
                self.processes.len()
            )));
        }
        for p in &mut self.processes {
            p.load_state(r)?;
        }
        let (current, refs_in_quantum, switches) = r.get()?;
        if current >= self.processes.len() {
            return Err(Error::SnapshotCorrupt(format!("process index {current} out of range")));
        }
        (self.current, self.refs_in_quantum, self.switches) = (current, refs_in_quantum, switches);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_core::protocol::ProtocolKind;
    use firefly_core::refsim::RefSim;
    use firefly_core::CacheGeometry;

    #[test]
    fn switches_happen_on_quantum_boundaries() {
        let mut w = MultiprogramWorkload::new(3, 100, LocalityParams::paper_calibrated(), 7);
        for _ in 0..100 {
            let _ = w.next_ref();
        }
        assert_eq!(w.context_switches(), 0);
        let _ = w.next_ref();
        assert_eq!(w.context_switches(), 1);
        for _ in 0..500 {
            let _ = w.next_ref();
        }
        assert_eq!(w.context_switches(), 6);
    }

    #[test]
    fn single_process_never_switches() {
        let mut w = MultiprogramWorkload::new(1, 10, LocalityParams::paper_calibrated(), 7);
        for _ in 0..1000 {
            let _ = w.next_ref();
        }
        // The round-robin "switch" back to the same process still counts
        // quanta, but there is only one working set — verify footprint.
        let base = w.process_base(0).byte();
        for r in w.take_refs(1000) {
            let b = r.addr.byte();
            let private = (crate::synth::PRIVATE_BASE.byte()..).contains(&b);
            if private {
                assert_eq!(
                    (b - crate::synth::PRIVATE_BASE.byte()) / PRIVATE_STRIDE,
                    (base - crate::synth::PRIVATE_BASE.byte()) / PRIVATE_STRIDE
                );
            }
        }
    }

    #[test]
    fn snapshot_resumes_across_context_switches() {
        let params = LocalityParams::paper_calibrated();
        let mut a = MultiprogramWorkload::new(3, 250, params, 5);
        for _ in 0..1_000 {
            let _ = a.next_ref();
        }
        let mut w = SnapWriter::new();
        a.save_state(&mut w).expect("save");
        let bytes = w.into_bytes();
        let mut b = MultiprogramWorkload::new(3, 250, params, 5);
        b.load_state(&mut SnapReader::new(&bytes)).expect("load");
        assert_eq!(b.context_switches(), a.context_switches());
        for i in 0..2_000 {
            assert_eq!(a.next_ref(), b.next_ref(), "ref {i}");
        }
        // Process-count mismatch is rejected, not silently misapplied.
        let mut c = MultiprogramWorkload::new(4, 250, params, 5);
        assert!(matches!(
            c.load_state(&mut SnapReader::new(&bytes)),
            Err(Error::SnapshotCorrupt(_))
        ));
    }

    /// The Table 2 mechanism: rapid context switching raises the miss
    /// rate well above the single-process calibration (0.2 -> ~0.3).
    #[test]
    fn context_switching_raises_miss_rate() {
        let params = LocalityParams::paper_calibrated();
        let measure = |stream: &mut dyn RefStream| {
            let mut sim = RefSim::new(1, CacheGeometry::microvax(), ProtocolKind::Firefly);
            for _ in 0..150_000 {
                let r = stream.next_ref();
                sim.access(0, r.kind.proc_op(), r.addr);
            }
            let warm = *sim.stats();
            for _ in 0..300_000 {
                let r = stream.next_ref();
                sim.access(0, r.kind.proc_op(), r.addr);
            }
            (sim.stats().misses() - warm.misses()) as f64
                / (sim.stats().refs() - warm.refs()) as f64
        };
        let mut single = SyntheticWorkload::fleet(1, params, 3).remove(0);
        let m_single = measure(&mut single);
        let mut multi = MultiprogramWorkload::new(4, 4_000, params, 3);
        let m_multi = measure(&mut multi);
        assert!(
            m_multi > m_single + 0.04,
            "switching must raise the miss rate: single {m_single:.3}, multi {m_multi:.3}"
        );
    }
}
