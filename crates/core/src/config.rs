//! Machine configurations: cache geometry, memory size, timing presets.
//!
//! Two hardware generations are modeled, straight from §5 of the paper:
//!
//! | | MicroVAX Firefly (1985) | CVAX Firefly (1987) |
//! |---|---|---|
//! | CPU | MicroVAX 78032, 200 ns tick | CVAX 78034, 100 ns tick |
//! | Board cache | 16 KB: 4096 × 4-byte lines | 64 KB: 16384 × 4-byte lines |
//! | Cache hit | 400 ns, no wait states | 200 ns, no wait states |
//! | Miss penalty | +1 CPU tick | +4 CPU cycles |
//! | Main memory | 4–16 MB (4 MB modules) | up to 128 MB (32 MB modules) |
//! | MBus | 10 MB/s, 400 ns per 4-byte transfer | unchanged |

use crate::arbiter::{ArbiterKind, BusMode};
use crate::error::Error;
use crate::fault::FaultConfig;
use crate::snapshot::{Snap, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// The largest line size (in words) the simulator supports.
pub const MAX_LINE_WORDS: usize = 16;

/// The geometry of a direct-mapped cache.
///
/// The real Firefly caches are direct mapped with one-word (4-byte) lines —
/// chosen so the cache, bus and storage modules stay simple (footnote 4 of
/// the paper). Larger line sizes are supported here for the cache-geometry
/// ablation.
///
/// # Examples
///
/// ```
/// use firefly_core::CacheGeometry;
///
/// let g = CacheGeometry::microvax();
/// assert_eq!(g.lines(), 4096);
/// assert_eq!(g.line_words(), 1);
/// assert_eq!(g.size_bytes(), 16 * 1024);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheGeometry {
    lines: usize,
    line_words: usize,
}

impl CacheGeometry {
    /// Creates a geometry with `lines` lines of `line_words` 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless both values are powers of two
    /// and `line_words <= MAX_LINE_WORDS`.
    pub fn new(lines: usize, line_words: usize) -> Result<Self, Error> {
        if !lines.is_power_of_two() || lines == 0 {
            return Err(Error::InvalidConfig(format!(
                "cache line count must be a power of two, got {lines}"
            )));
        }
        if !line_words.is_power_of_two() || line_words > MAX_LINE_WORDS {
            return Err(Error::InvalidConfig(format!(
                "line size must be a power of two <= {MAX_LINE_WORDS} words, got {line_words}"
            )));
        }
        Ok(CacheGeometry { lines, line_words })
    }

    /// The 16 KB MicroVAX Firefly board cache: 4096 four-byte lines.
    pub fn microvax() -> Self {
        CacheGeometry { lines: 4096, line_words: 1 }
    }

    /// The 64 KB CVAX Firefly board cache: 16384 four-byte lines.
    pub fn cvax() -> Self {
        CacheGeometry { lines: 16384, line_words: 1 }
    }

    /// Number of lines.
    pub const fn lines(&self) -> usize {
        self.lines
    }

    /// Words per line.
    pub const fn line_words(&self) -> usize {
        self.line_words
    }

    /// Total data capacity in bytes.
    pub const fn size_bytes(&self) -> usize {
        self.lines * self.line_words * 4
    }

    /// The cache set index for a line (direct mapped: line id modulo lines).
    ///
    /// `lines` is a power of two (`new` and the snapshot decoder enforce
    /// it), so the modulo is a mask; the same holds for the divisions in
    /// [`tag_of`](Self::tag_of) and [`line_from`](Self::line_from).
    pub fn index_of(&self, line: crate::LineId) -> usize {
        line.raw() as usize & (self.lines - 1)
    }

    /// The tag stored for a line (the line id divided by the line count).
    pub fn tag_of(&self, line: crate::LineId) -> u32 {
        line.raw() >> self.lines.trailing_zeros()
    }

    /// Reconstructs a line id from an index and tag.
    pub fn line_from(&self, index: usize, tag: u32) -> crate::LineId {
        crate::LineId::from_raw((tag << self.lines.trailing_zeros()) | index as u32)
    }
}

/// Which hardware generation a configuration models.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum MachineVariant {
    /// The original 1985 machine: MicroVAX 78032 processors.
    #[default]
    MicroVax,
    /// The 1987 upgrade: CVAX 78034 processors, bigger caches and memory.
    CVax,
}

impl MachineVariant {
    /// CPU tick duration in nanoseconds (200 ns MicroVAX, 100 ns CVAX).
    pub const fn tick_ns(self) -> u64 {
        match self {
            MachineVariant::MicroVax => crate::MICROVAX_TICK_NS,
            MachineVariant::CVax => crate::CVAX_TICK_NS,
        }
    }

    /// Bus cycles (100 ns) per CPU tick.
    pub const fn cycles_per_tick(self) -> u64 {
        self.tick_ns() / crate::BUS_CYCLE_NS
    }

    /// Cache hit time in bus cycles: a full no-wait-state access.
    ///
    /// MicroVAX: 400 ns (memory cycle time the chip requires); CVAX: 200 ns
    /// ("memory cycles that hit in the cache complete in 200 ns with no
    /// wait states").
    pub const fn hit_cycles(self) -> u64 {
        match self {
            MachineVariant::MicroVax => 4,
            MachineVariant::CVax => 2,
        }
    }

    /// Extra latency a miss adds beyond its bus transactions, in bus cycles.
    ///
    /// "Misses add only one cycle to a MicroVAX CPU access" (one 200 ns
    /// tick = 2 bus cycles); "cache misses add four CVAX cycles" (4 × 100 ns
    /// = 4 bus cycles).
    pub const fn miss_extra_cycles(self) -> u64 {
        match self {
            MachineVariant::MicroVax => 2,
            MachineVariant::CVax => 4,
        }
    }

    /// The maximum physical memory the variant supports, in bytes.
    pub const fn max_memory_bytes(self) -> u64 {
        match self {
            MachineVariant::MicroVax => 16 << 20,
            MachineVariant::CVax => 128 << 20,
        }
    }

    /// Size of one memory module in bytes (4 MB master/slaves; 32 MB CVAX).
    pub const fn module_bytes(self) -> u64 {
        match self {
            MachineVariant::MicroVax => 4 << 20,
            MachineVariant::CVax => 32 << 20,
        }
    }

    /// Default board cache geometry for the variant.
    pub fn cache(self) -> CacheGeometry {
        match self {
            MachineVariant::MicroVax => CacheGeometry::microvax(),
            MachineVariant::CVax => CacheGeometry::cvax(),
        }
    }
}

/// Configuration for a complete memory system: N ports, caches, memory.
///
/// Build one with [`SystemConfig::microvax`] / [`SystemConfig::cvax`] and
/// customize with the `with_*` methods.
///
/// # Examples
///
/// ```
/// use firefly_core::{CacheGeometry, SystemConfig};
///
/// // A five-processor standard Firefly with 16 MB of memory.
/// let cfg = SystemConfig::microvax(5).with_memory_mb(16);
/// assert_eq!(cfg.ports(), 5);
///
/// // An ablation configuration: 4-word lines.
/// let cfg = cfg.with_cache(CacheGeometry::new(1024, 4).unwrap());
/// assert_eq!(cfg.cache().line_words(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    variant: MachineVariant,
    ports: usize,
    cache: CacheGeometry,
    memory_bytes: u64,
    event_trace: usize,
    faults: FaultConfig,
    arbiter: ArbiterKind,
    bus_mode: BusMode,
}

impl SystemConfig {
    /// A MicroVAX Firefly with `ports` processors and 16 MB of memory.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is 0 or greater than 16.
    pub fn microvax(ports: usize) -> Self {
        assert!((1..=16).contains(&ports), "1..=16 bus ports required, got {ports}");
        SystemConfig {
            variant: MachineVariant::MicroVax,
            ports,
            cache: CacheGeometry::microvax(),
            memory_bytes: 16 << 20,
            event_trace: 0,
            faults: FaultConfig::default(),
            arbiter: ArbiterKind::FixedPriority,
            bus_mode: BusMode::Unified,
        }
    }

    /// A CVAX Firefly with `ports` processors and 128 MB of memory.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is 0 or greater than 16.
    pub fn cvax(ports: usize) -> Self {
        assert!((1..=16).contains(&ports), "1..=16 bus ports required, got {ports}");
        SystemConfig {
            variant: MachineVariant::CVax,
            ports,
            cache: CacheGeometry::cvax(),
            memory_bytes: 128 << 20,
            event_trace: 0,
            faults: FaultConfig::default(),
            arbiter: ArbiterKind::FixedPriority,
            bus_mode: BusMode::Unified,
        }
    }

    /// Replaces the cache geometry (for ablations).
    pub fn with_cache(mut self, cache: CacheGeometry) -> Self {
        self.cache = cache;
        self
    }

    /// Sets main memory size in megabytes.
    ///
    /// # Panics
    ///
    /// Panics if the size exceeds the variant's physical limit
    /// (16 MB MicroVAX, 128 MB CVAX) or is zero. For a non-panicking
    /// variant suited to untrusted input, see
    /// [`try_with_memory_mb`](SystemConfig::try_with_memory_mb).
    pub fn with_memory_mb(self, mb: u64) -> Self {
        match self.try_with_memory_mb(mb) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets main memory size in megabytes, rejecting invalid sizes with
    /// [`Error::InvalidConfig`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the size is zero or exceeds
    /// the variant's physical limit (16 MB MicroVAX, 128 MB CVAX).
    pub fn try_with_memory_mb(mut self, mb: u64) -> Result<Self, Error> {
        let bytes = mb << 20;
        if bytes == 0 {
            return Err(Error::InvalidConfig("memory size must be nonzero".to_string()));
        }
        if bytes > self.variant.max_memory_bytes() {
            return Err(Error::InvalidConfig(format!(
                "{:?} supports at most {} MB of physical memory, got {mb} MB",
                self.variant,
                self.variant.max_memory_bytes() >> 20,
            )));
        }
        self.memory_bytes = bytes;
        Ok(self)
    }

    /// Enables structured event tracing (see [`crate::events`]) into a
    /// ring buffer of at most `capacity` events. Zero — the default —
    /// disables tracing entirely, leaving the hot path untouched.
    pub fn with_event_trace(mut self, capacity: usize) -> Self {
        self.event_trace = capacity;
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]).
    ///
    /// The default plan has every rate at zero, which leaves the system
    /// bit-identical to one built without this call.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the MBus arbitration policy (see [`crate::arbiter`]).
    ///
    /// The default, [`ArbiterKind::FixedPriority`], is the paper's
    /// hardware and is bit-identical to configurations that never call
    /// this.
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Selects unified (default, the paper's timing) or split-transaction
    /// MBus operation (see [`BusMode`]).
    pub fn with_bus_mode(mut self, mode: BusMode) -> Self {
        self.bus_mode = mode;
        self
    }

    /// The hardware generation.
    pub const fn variant(&self) -> MachineVariant {
        self.variant
    }

    /// Number of cache ports on the MBus.
    pub const fn ports(&self) -> usize {
        self.ports
    }

    /// The per-processor cache geometry.
    pub const fn cache(&self) -> CacheGeometry {
        self.cache
    }

    /// Main memory size in bytes.
    pub const fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Event-ring capacity for structured tracing (0 = disabled).
    pub const fn event_trace(&self) -> usize {
        self.event_trace
    }

    /// The fault-injection plan (all rates zero by default).
    pub const fn faults(&self) -> FaultConfig {
        self.faults
    }

    /// The MBus arbitration policy.
    pub const fn arbiter(&self) -> ArbiterKind {
        self.arbiter
    }

    /// The MBus transaction mode.
    pub const fn bus_mode(&self) -> BusMode {
        self.bus_mode
    }

    /// Number of memory modules implied by the memory size.
    pub fn memory_modules(&self) -> usize {
        self.memory_bytes.div_ceil(self.variant.module_bytes()) as usize
    }
}

crate::snap_enum!(MachineVariant { MicroVax = 0, CVax = 1 });

/// Decoded through [`CacheGeometry::new`], so a corrupt image cannot
/// build a geometry the simulator would reject.
impl Snap for CacheGeometry {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.lines, self.line_words));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (lines, line_words) = r.get()?;
        CacheGeometry::new(lines, line_words)
            .map_err(|e| Error::SnapshotCorrupt(format!("bad cache geometry: {e}")))
    }
}

/// Rejects port counts and memory sizes no machine can have.
impl Snap for SystemConfig {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.variant, self.ports, self.cache, self.memory_bytes));
        w.put(&(self.event_trace, self.faults));
        w.put(&(self.arbiter, self.bus_mode));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (variant, ports, cache, memory_bytes): (MachineVariant, usize, _, u64) = r.get()?;
        if !(1..=16).contains(&ports) {
            return Err(Error::SnapshotCorrupt(format!("invalid port count {ports}")));
        }
        if memory_bytes == 0 || memory_bytes > variant.max_memory_bytes() {
            return Err(Error::SnapshotCorrupt(format!("invalid memory size {memory_bytes}")));
        }
        Ok(SystemConfig {
            variant,
            ports,
            cache,
            memory_bytes,
            event_trace: r.get()?,
            faults: r.get()?,
            arbiter: r.get()?,
            bus_mode: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineId;

    #[test]
    fn microvax_cache_is_16kb() {
        let g = CacheGeometry::microvax();
        assert_eq!(g.size_bytes(), 16 * 1024);
        assert_eq!(g.lines(), 4096);
    }

    #[test]
    fn cvax_cache_is_64kb() {
        let g = CacheGeometry::cvax();
        assert_eq!(g.size_bytes(), 64 * 1024);
    }

    #[test]
    fn geometry_rejects_bad_values() {
        assert!(CacheGeometry::new(100, 1).is_err());
        assert!(CacheGeometry::new(128, 3).is_err());
        assert!(CacheGeometry::new(128, 32).is_err());
        assert!(CacheGeometry::new(128, 4).is_ok());
    }

    #[test]
    fn index_tag_roundtrip() {
        let g = CacheGeometry::new(256, 4).unwrap();
        for raw in [0u32, 1, 255, 256, 1000, 123_456] {
            let line = LineId::from_raw(raw);
            let idx = g.index_of(line);
            let tag = g.tag_of(line);
            assert_eq!(g.line_from(idx, tag), line);
        }
    }

    /// Pins the shift/mask index arithmetic to the division it replaced,
    /// over every valid geometry, on pseudo-random line ids and addresses
    /// plus the edges (0, the geometry's own boundaries, `u32::MAX`).
    #[test]
    fn shift_mask_forms_match_division() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        };
        for lines in (0..=14).map(|k| 1usize << k) {
            for line_words in (0..=4).map(|k| 1usize << k) {
                let g = CacheGeometry::new(lines, line_words).unwrap();
                let (l, w) = (lines as u32, line_words as u32);
                let edges = [0, 1, l - 1, l, l + 1, u32::MAX - 1, u32::MAX];
                for raw in edges.into_iter().chain((0..256).map(|_| next())) {
                    let line = LineId::from_raw(raw);
                    assert_eq!(g.index_of(line), (raw % l) as usize, "{g:?} {raw:#x}");
                    assert_eq!(g.tag_of(line), raw / l, "{g:?} {raw:#x}");
                    assert_eq!(g.line_from(g.index_of(line), g.tag_of(line)), line);

                    let addr = crate::Addr::new(raw);
                    let word = addr.word_index();
                    let containing = LineId::containing(addr, line_words);
                    assert_eq!(containing.raw(), word / w, "{g:?} {raw:#x}");
                    assert_eq!(
                        containing.word_offset(addr, line_words),
                        (word % w) as usize,
                        "{g:?} {raw:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_tags_same_index_collide() {
        let g = CacheGeometry::microvax();
        let a = LineId::from_raw(5);
        let b = LineId::from_raw(5 + 4096);
        assert_eq!(g.index_of(a), g.index_of(b));
        assert_ne!(g.tag_of(a), g.tag_of(b));
    }

    #[test]
    fn variant_timing_constants() {
        assert_eq!(MachineVariant::MicroVax.tick_ns(), 200);
        assert_eq!(MachineVariant::CVax.tick_ns(), 100);
        assert_eq!(MachineVariant::MicroVax.cycles_per_tick(), 2);
        assert_eq!(MachineVariant::MicroVax.hit_cycles(), 4);
        assert_eq!(MachineVariant::CVax.hit_cycles(), 2);
        assert_eq!(MachineVariant::MicroVax.miss_extra_cycles(), 2);
        assert_eq!(MachineVariant::CVax.miss_extra_cycles(), 4);
    }

    #[test]
    fn memory_limits_enforced() {
        let cfg = SystemConfig::microvax(5);
        assert_eq!(cfg.memory_bytes(), 16 << 20);
        assert_eq!(cfg.memory_modules(), 4);
        let cfg = SystemConfig::cvax(4).with_memory_mb(128);
        assert_eq!(cfg.memory_modules(), 4);
    }

    #[test]
    fn fault_plan_defaults_off_and_installs() {
        let cfg = SystemConfig::microvax(2);
        assert!(cfg.faults().is_disabled());
        let cfg = cfg.with_faults(crate::fault::FaultConfig::correctable(9, 100));
        assert_eq!(cfg.faults().seed, 9);
        assert_eq!(cfg.faults().ecc_single_ppm, 100);
    }

    #[test]
    #[should_panic(expected = "at most 16 MB")]
    fn microvax_memory_capped_at_16mb() {
        let _ = SystemConfig::microvax(2).with_memory_mb(64);
    }

    #[test]
    #[should_panic(expected = "bus ports")]
    fn zero_ports_rejected() {
        let _ = SystemConfig::microvax(0);
    }
}
