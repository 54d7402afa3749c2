//! The synthetic locality-model workload generator.
//!
//! Substitutes for the VAX program traces behind the paper's §5.2
//! numbers. The model has three parts:
//!
//! * **Instruction stream** — execution proceeds in *loop bodies*: a run
//!   of sequential fetches of geometric length, re-executed a geometric
//!   number of times, then a jump to a fresh body elsewhere in the code
//!   region. First iterations miss, re-iterations hit: the i-stream miss
//!   rate is ≈ 1/mean-iterations. This is what makes a 4-byte-line cache
//!   workable at all (footnote 4: the small line forfeits spatial
//!   locality, so *temporal* locality must carry the hit rate).
//! * **Data stream** — a hot working set that fits in the cache (reused,
//!   mostly hits) and a cold region much larger than the cache (mostly
//!   misses), mixed by `hot_fraction`.
//! * **Shared region** — a fraction of data references target a region
//!   common to all processors; the write portion of that traffic is the
//!   paper's `S` (assumed 0.1 in §5.2; measured ~0.33 for the Threads
//!   exerciser in §5.3).
//!
//! Defaults are calibrated (see the tests) so a single MicroVAX cache
//! sees the paper's M ≈ 0.2 and D ≈ 0.25.

use crate::refs::{MemRef, RefStream, VaxMix};
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::{Addr, Error};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs of the synthetic locality model.
///
/// # Examples
///
/// ```
/// use firefly_trace::LocalityParams;
///
/// let p = LocalityParams::paper_calibrated();
/// assert!(p.shared_fraction < 0.2, "light sharing by default");
/// let heavy = LocalityParams { shared_fraction: 0.5, ..p };
/// assert!(heavy.validate().is_ok());
/// ```
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct LocalityParams {
    /// The per-instruction reference mix.
    pub mix: VaxMix,
    /// Size of the code region in words.
    pub instr_region_words: u32,
    /// Mean loop-body length in words (geometric).
    pub mean_body_words: f64,
    /// Mean times each body is re-executed (geometric); the i-stream miss
    /// rate is roughly the reciprocal.
    pub mean_iterations: f64,
    /// Hot data working-set size in words (should fit in the cache).
    pub hot_words: u32,
    /// Warm data region size in words — larger than the MicroVAX cache
    /// but within the CVAX cache, so cache size visibly moves the miss
    /// rate (the assumption behind the CVAX upgrade, §5.3).
    pub warm_words: u32,
    /// Cold data region size in words (should dwarf any cache).
    pub cold_words: u32,
    /// Probability a private data reference hits the hot set.
    pub hot_fraction: f64,
    /// Probability a private, non-hot data reference hits the warm set
    /// (the rest go cold).
    pub warm_fraction: f64,
    /// Size of the cross-processor shared region in words.
    pub shared_words: u32,
    /// Probability a data reference (read or write) targets the shared
    /// region. Applied to writes, this is the model's `S`.
    pub shared_fraction: f64,
}

impl LocalityParams {
    /// Defaults calibrated to the paper's single-CPU measurements
    /// (M ≈ 0.2, D ≈ 0.25 on the 16 KB, one-word-line cache).
    pub fn paper_calibrated() -> Self {
        LocalityParams {
            mix: VaxMix::default(),
            instr_region_words: 16 * 1024,
            mean_body_words: 24.0,
            mean_iterations: 12.0,
            hot_words: 1024,
            warm_words: 12 * 1024,
            cold_words: 128 * 1024,
            hot_fraction: 0.86,
            warm_fraction: 0.70,
            shared_words: 2048,
            shared_fraction: 0.10,
        }
    }

    /// A sharing-heavy variant approximating the Threads exerciser of
    /// §5.3 (a third of writes hit shared data).
    pub fn sharing_heavy() -> Self {
        LocalityParams {
            shared_fraction: 0.33,
            shared_words: 1024,
            ..LocalityParams::paper_calibrated()
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a probability is
    /// outside `[0, 1]`, a mean is non-positive, or a region is empty.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("hot_fraction", self.hot_fraction),
            ("warm_fraction", self.warm_fraction),
            ("shared_fraction", self.shared_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        for (name, m) in
            [("mean_body_words", self.mean_body_words), ("mean_iterations", self.mean_iterations)]
        {
            if m < 1.0 {
                return Err(format!("{name} must be >= 1, got {m}"));
            }
        }
        for (name, w) in [
            ("instr_region_words", self.instr_region_words),
            ("hot_words", self.hot_words),
            ("warm_words", self.warm_words),
            ("cold_words", self.cold_words),
            ("shared_words", self.shared_words),
        ] {
            if w == 0 {
                return Err(format!("{name} must be nonzero"));
            }
        }
        Ok(())
    }

    /// Bytes of private address space one generator needs.
    pub fn private_span_bytes(&self) -> u32 {
        (self.instr_region_words + self.hot_words + self.warm_words + self.cold_words) * 4
    }
}

/// The fixed base of the shared region used by [`SyntheticWorkload::fleet`].
pub const SHARED_BASE: Addr = Addr::new(0x0010_0000);

/// The fixed base of per-CPU private regions used by
/// [`SyntheticWorkload::fleet`]; each CPU gets a 1 MB stride.
pub const PRIVATE_BASE: Addr = Addr::new(0x0020_0000);

/// Per-CPU private stride for [`SyntheticWorkload::fleet`].
pub const PRIVATE_STRIDE: u32 = 0x0010_0000;

/// One processor's synthetic reference stream.
///
/// # Examples
///
/// ```
/// use firefly_trace::{LocalityParams, RefStream, SyntheticWorkload};
///
/// let mut streams = SyntheticWorkload::fleet(2, LocalityParams::paper_calibrated(), 7);
/// let r = streams[0].next_ref();
/// let _ = r.addr;
/// ```
#[derive(Debug)]
pub struct SyntheticWorkload {
    params: LocalityParams,
    rng: SmallRng,
    /// Base of the code region.
    instr_base: Addr,
    /// Base of the hot data set.
    hot_base: Addr,
    /// Base of the warm data region.
    warm_base: Addr,
    /// Base of the cold data region.
    cold_base: Addr,
    /// Base of the shared region (common across the fleet).
    shared_base: Addr,
    /// Current loop body: start word offset in the code region.
    body_start: u32,
    /// Length of the current body in words.
    body_len: u32,
    /// Position within the body.
    body_pos: u32,
    /// Remaining re-executions of the current body.
    iterations_left: u32,
    /// References generated but not yet consumed.
    queue: VecDeque<MemRef>,
    instructions: u64,
}

impl SyntheticWorkload {
    /// Creates one stream with explicit region bases.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`LocalityParams::validate`].
    pub fn new(
        params: LocalityParams,
        instr_base: Addr,
        hot_base: Addr,
        warm_base: Addr,
        cold_base: Addr,
        shared_base: Addr,
        seed: u64,
    ) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid LocalityParams: {e}"));
        let mut w = SyntheticWorkload {
            params,
            rng: SmallRng::seed_from_u64(seed),
            instr_base,
            hot_base,
            warm_base,
            cold_base,
            shared_base,
            body_start: 0,
            body_len: 1,
            body_pos: 0,
            iterations_left: 0,
            queue: VecDeque::new(),
            instructions: 0,
        };
        w.new_body();
        w
    }

    /// Builds `cpus` streams with disjoint private regions and a common
    /// shared region, laid out in the low 16 MB (so they fit either
    /// Firefly generation).
    ///
    /// # Panics
    ///
    /// Panics if the layout would not fit below 16 MB (at most 14 CPUs
    /// with the default region sizes) or parameters are invalid.
    pub fn fleet(cpus: usize, params: LocalityParams, seed: u64) -> Vec<SyntheticWorkload> {
        assert!(
            PRIVATE_BASE.byte() + cpus as u32 * PRIVATE_STRIDE <= 16 << 20,
            "{cpus} CPUs do not fit the 16 MB layout"
        );
        assert!(
            params.private_span_bytes() <= PRIVATE_STRIDE,
            "private regions exceed the per-CPU stride"
        );
        (0..cpus)
            .map(|cpu| {
                let base = PRIVATE_BASE.byte() + cpu as u32 * PRIVATE_STRIDE;
                let instr = Addr::new(base);
                let hot = Addr::new(base + params.instr_region_words * 4);
                let warm = Addr::new(base + (params.instr_region_words + params.hot_words) * 4);
                let cold = Addr::new(
                    base + (params.instr_region_words + params.hot_words + params.warm_words) * 4,
                );
                SyntheticWorkload::new(
                    params,
                    instr,
                    hot,
                    warm,
                    cold,
                    SHARED_BASE,
                    seed ^ (cpu as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )
            })
            .collect()
    }

    /// The parameters in use.
    pub fn params(&self) -> &LocalityParams {
        &self.params
    }

    /// Instructions generated so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Geometric sample with the given mean (>= 1).
    fn geometric(rng: &mut SmallRng, mean: f64) -> u32 {
        let p = 1.0 / mean;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u32
    }

    fn new_body(&mut self) {
        self.body_len = Self::geometric(&mut self.rng, self.params.mean_body_words)
            .min(self.params.instr_region_words);
        self.body_start = self.rng.gen_range(0..self.params.instr_region_words);
        self.body_pos = 0;
        self.iterations_left = Self::geometric(&mut self.rng, self.params.mean_iterations);
    }

    fn next_pc(&mut self) -> Addr {
        let word = (self.body_start + self.body_pos) % self.params.instr_region_words;
        self.body_pos += 1;
        if self.body_pos >= self.body_len {
            self.body_pos = 0;
            self.iterations_left = self.iterations_left.saturating_sub(1);
            if self.iterations_left == 0 {
                self.new_body();
            }
        }
        self.instr_base.add_words(word)
    }

    fn data_addr(&mut self) -> Addr {
        if self.rng.gen_bool(self.params.shared_fraction) {
            let w = self.rng.gen_range(0..self.params.shared_words);
            self.shared_base.add_words(w)
        } else if self.rng.gen_bool(self.params.hot_fraction) {
            let w = self.rng.gen_range(0..self.params.hot_words);
            self.hot_base.add_words(w)
        } else if self.rng.gen_bool(self.params.warm_fraction) {
            let w = self.rng.gen_range(0..self.params.warm_words);
            self.warm_base.add_words(w)
        } else {
            let w = self.rng.gen_range(0..self.params.cold_words);
            self.cold_base.add_words(w)
        }
    }

    /// Generates the reference bundle of one instruction into the queue.
    fn generate_instruction(&mut self) {
        self.instructions += 1;
        let mix = self.params.mix;
        if self.rng.gen_bool(mix.instr_reads.min(1.0)) {
            let pc = self.next_pc();
            self.queue.push_back(MemRef::ifetch(pc));
        }
        if self.rng.gen_bool(mix.data_reads.min(1.0)) {
            let a = self.data_addr();
            self.queue.push_back(MemRef::read(a));
        }
        if self.rng.gen_bool(mix.data_writes.min(1.0)) {
            let a = self.data_addr();
            self.queue.push_back(MemRef::write(a));
        }
    }
}

impl RefStream for SyntheticWorkload {
    fn next_ref(&mut self) -> MemRef {
        loop {
            if let Some(r) = self.queue.pop_front() {
                return r;
            }
            self.generate_instruction();
        }
    }

    fn holds(&self, addr: Addr) -> bool {
        let p = &self.params;
        [
            (self.instr_base, p.instr_region_words),
            (self.hot_base, p.hot_words),
            (self.warm_base, p.warm_words),
            (self.cold_base, p.cold_words),
            (self.shared_base, p.shared_words),
        ]
        .iter()
        .any(|&(base, words)| (addr.byte().wrapping_sub(base.byte()) / 4) < words)
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), Error> {
        w.put(&self.rng);
        w.put(&(self.body_start, self.body_len, self.body_pos, self.iterations_left));
        w.put(&self.queue);
        w.put(&self.instructions);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.rng = r.get()?;
        (self.body_start, self.body_len, self.body_pos, self.iterations_left) = r.get()?;
        self.queue = r.get()?;
        self.instructions = r.get()?;
        let (start, len, pos) = (self.body_start, self.body_len, self.body_pos);
        let words = self.params.instr_region_words;
        if start >= words || len > words || pos >= len {
            return Err(Error::SnapshotCorrupt(format!(
                "loop body {pos}/{len} at word {start} outside the {words}-word code region"
            )));
        }
        if let Some(m) = self.queue.iter().find(|m| !self.holds(m.addr)) {
            return Err(Error::SnapshotCorrupt(format!(
                "queued reference {m} outside the stream's regions"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::RefKind;
    use firefly_core::protocol::ProtocolKind;
    use firefly_core::refsim::RefSim;
    use firefly_core::CacheGeometry;

    #[test]
    fn validation_catches_bad_params() {
        let mut p = LocalityParams::paper_calibrated();
        p.hot_fraction = 1.5;
        assert!(p.validate().unwrap_err().contains("hot_fraction"));
        let mut p = LocalityParams::paper_calibrated();
        p.cold_words = 0;
        assert!(p.validate().is_err());
        let mut p = LocalityParams::paper_calibrated();
        p.mean_iterations = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = LocalityParams::paper_calibrated();
        let mut a = SyntheticWorkload::fleet(1, p, 42).remove(0);
        let mut b = SyntheticWorkload::fleet(1, p, 42).remove(0);
        for _ in 0..1000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
        let mut c = SyntheticWorkload::fleet(1, p, 43).remove(0);
        let same = (0..1000).filter(|_| a.next_ref() == c.next_ref()).count();
        assert!(same < 100, "different seeds diverge");
    }

    #[test]
    fn mix_ratios_converge() {
        let p = LocalityParams::paper_calibrated();
        let mut w = SyntheticWorkload::fleet(1, p, 1).remove(0);
        let (mut i, mut r, mut wr) = (0u32, 0u32, 0u32);
        let n = 100_000;
        for _ in 0..n {
            match w.next_ref().kind {
                RefKind::InstrRead => i += 1,
                RefKind::DataRead => r += 1,
                RefKind::DataWrite => wr += 1,
            }
        }
        let total = (i + r + wr) as f64;
        assert!((i as f64 / total - 0.95 / 2.13).abs() < 0.01);
        assert!((r as f64 / total - 0.78 / 2.13).abs() < 0.01);
        assert!((wr as f64 / total - 0.40 / 2.13).abs() < 0.01);
    }

    #[test]
    fn fleet_regions_are_disjoint_and_shared_is_common() {
        let p = LocalityParams::paper_calibrated();
        let mut fleet = SyntheticWorkload::fleet(4, p, 9);
        let mut private_seen: Vec<std::collections::HashSet<u32>> = vec![Default::default(); 4];
        let mut shared_hit = [false; 4];
        for (cpu, w) in fleet.iter_mut().enumerate() {
            for r in w.take_refs(20_000) {
                let b = r.addr.byte();
                if b >= SHARED_BASE.byte() && b < SHARED_BASE.byte() + p.shared_words * 4 {
                    shared_hit[cpu] = true;
                } else {
                    private_seen[cpu].insert(b / PRIVATE_STRIDE);
                }
            }
        }
        for cpu in 0..4 {
            assert!(shared_hit[cpu], "cpu {cpu} never touched the shared region");
            assert_eq!(private_seen[cpu].len(), 1, "cpu {cpu} strayed beyond its stride");
        }
        let strides: std::collections::HashSet<_> =
            private_seen.iter().map(|s| *s.iter().next().unwrap()).collect();
        assert_eq!(strides.len(), 4, "private strides are distinct");
    }

    /// The calibration the whole reproduction leans on: a single MicroVAX
    /// cache must see the paper's miss rate M ≈ 0.2 (±0.05).
    #[test]
    fn calibrated_miss_rate_matches_paper() {
        let p = LocalityParams::paper_calibrated();
        let mut w = SyntheticWorkload::fleet(1, p, 2).remove(0);
        let mut sim = RefSim::new(1, CacheGeometry::microvax(), ProtocolKind::Firefly);
        // Warm up, then measure.
        for r in w.take_refs(200_000) {
            sim.access(0, r.kind.proc_op(), r.addr);
        }
        let warm = *sim.stats();
        for r in w.take_refs(400_000) {
            sim.access(0, r.kind.proc_op(), r.addr);
        }
        let m = (sim.stats().misses() - warm.misses()) as f64
            / (sim.stats().refs() - warm.refs()) as f64;
        assert!((0.15..=0.25).contains(&m), "calibrated miss rate {m:.3}, want ~0.2");
    }

    #[test]
    fn addresses_stay_below_16mb() {
        let p = LocalityParams::paper_calibrated();
        let mut fleet = SyntheticWorkload::fleet(12, p, 3);
        for w in fleet.iter_mut() {
            for r in w.take_refs(5_000) {
                assert!(r.addr.byte() < 16 << 20, "{}", r.addr);
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn fleet_rejects_too_many_cpus() {
        let _ = SyntheticWorkload::fleet(15, LocalityParams::paper_calibrated(), 0);
    }

    #[test]
    fn snapshot_resumes_the_exact_reference_sequence() {
        let p = LocalityParams::paper_calibrated();
        let mut a = SyntheticWorkload::fleet(1, p, 11).remove(0);
        for _ in 0..5_000 {
            let _ = a.next_ref();
        }
        let mut w = SnapWriter::new();
        a.save_state(&mut w).expect("synthetic streams snapshot");
        let bytes = w.into_bytes();
        // Restore into a freshly built twin mid-queue.
        let mut b = SyntheticWorkload::fleet(1, p, 999).remove(0);
        let mut r = SnapReader::new(&bytes);
        b.load_state(&mut r).expect("load");
        r.expect_end().expect("fully consumed");
        assert_eq!(b.instructions(), a.instructions());
        for i in 0..10_000 {
            assert_eq!(a.next_ref(), b.next_ref(), "ref {i}");
        }
    }

    #[test]
    fn geometric_mean_is_roughly_right() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| SyntheticWorkload::geometric(&mut rng, 6.0) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.3, "geometric mean {mean:.2}");
    }
}
