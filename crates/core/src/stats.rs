//! Event counters — the software equivalent of the hardware counter the
//! paper used for Table 2 ("The reference rates are measured using a
//! counter connected to the hardware").
//!
//! The MBus write classification follows §5.3 exactly: "Our measurement
//! method can distinguish three categories of MBus write: Non-victim
//! writes that receive MShared from other caches, non-victim writes that
//! do not receive MShared, and victim writes."
//!
//! Every `u64` counter struct in the workspace that is snapshotted,
//! subtracted or summed is declared through
//! [`counters!`](crate::counters), which lists each field once.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Declares a struct of cumulative `u64` counters, listing each field
/// once, and derives everything that walks the fields from that one
/// list:
///
/// * the `pub struct` itself, deriving `Copy, Clone, PartialEq, Eq,
///   Debug, Default, Serialize, Deserialize`;
/// * [`Snap`](crate::snapshot::Snap) through
///   [`snap_struct!`](crate::snap_struct), in declaration order;
/// * `AddAssign` and `iter::Sum`, field by field;
/// * `delta(&self, earlier)`, the increments since an earlier reading,
///   saturating to zero per field rather than wrapping.
///
/// `delta` `debug_assert`s that `earlier` really is earlier. An optional
/// `[guard = …]` after the name picks one monotone reading to compare —
/// a field or a method call on the struct; without one, every field is
/// compared.
///
/// # Examples
///
/// ```
/// firefly_core::counters! {
///     /// Doors and windows opened.
///     pub struct Openings [guard = total()] {
///         /// Doors opened.
///         pub doors: u64,
///         /// Windows opened.
///         pub windows: u64,
///     }
/// }
///
/// impl Openings {
///     fn total(&self) -> u64 {
///         self.doors + self.windows
///     }
/// }
///
/// let early = Openings { doors: 1, windows: 2 };
/// let mut late = early;
/// late += Openings { doors: 3, windows: 0 };
/// assert_eq!(late.delta(&early), Openings { doors: 3, windows: 0 });
/// assert_eq!([early, late].into_iter().sum::<Openings>().doors, 5);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $([guard = $($guard:tt)+])? {
            $($(#[$field_meta:meta])* pub $field:ident: u64,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, Debug, Default, ::serde::Serialize, ::serde::Deserialize)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        $crate::snap_struct!($name { $($field),* });

        impl ::core::ops::AddAssign for $name {
            fn add_assign(&mut self, o: Self) {
                $(self.$field += o.$field;)*
            }
        }

        impl ::core::iter::Sum for $name {
            fn sum<I: ::core::iter::Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |mut total, s| {
                    total += s;
                    total
                })
            }
        }

        impl $name {
            /// The counter increments since `earlier` (for measurement
            /// windows).
            ///
            /// Saturates to zero per field in release builds if the
            /// snapshots are misordered, rather than wrapping.
            ///
            /// # Panics
            ///
            /// Panics (in debug builds) if `earlier` is not actually
            /// earlier.
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                debug_assert!(
                    $crate::counters!(@ordered self, earlier, [$($($guard)+)?] $($field)*),
                    concat!(
                        stringify!($name),
                        "::delta against a later snapshot (misordered snapshots): {:?} < {:?}"
                    ),
                    self,
                    earlier
                );
                $name { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }
        }
    };
    (@ordered $now:ident, $then:ident, [$($guard:tt)+] $($field:ident)*) => {
        $now.$($guard)+ >= $then.$($guard)+
    };
    (@ordered $now:ident, $then:ident, [] $($field:ident)*) => {
        true $(&& $now.$field >= $then.$field)*
    };
}

counters! {
    /// Per-cache event counters.
    ///
    /// # Examples
    ///
    /// ```
    /// use firefly_core::stats::CacheStats;
    ///
    /// let mut s = CacheStats::default();
    /// s.cpu_reads = 90;
    /// s.read_misses = 9;
    /// s.cpu_writes = 10;
    /// s.write_misses = 1;
    /// assert!((s.miss_rate() - 0.1).abs() < 1e-12);
    /// ```
    pub struct CacheStats [guard = cpu_refs()] {
        /// Processor-issued reads (instruction and data).
        pub cpu_reads: u64,
        /// Processor-issued writes.
        pub cpu_writes: u64,
        /// Reads that hit.
        pub read_hits: u64,
        /// Writes that hit.
        pub write_hits: u64,
        /// Reads that missed.
        pub read_misses: u64,
        /// Writes that missed.
        pub write_misses: u64,
        /// DMA references routed through this cache (I/O processor only).
        pub dma_reads: u64,
        /// DMA writes routed through this cache.
        pub dma_writes: u64,
        /// MBus read (fill) transactions issued.
        pub bus_reads: u64,
        /// MBus read-owned transactions issued (invalidation protocols).
        pub bus_read_owned: u64,
        /// Non-victim MBus writes that received `MShared` — writes to data
        /// actually shared at that moment.
        pub wt_shared: u64,
        /// Non-victim MBus writes that did not receive `MShared` — the "last
        /// sharer" write-throughs after which the cache reverts to write-back.
        pub wt_unshared: u64,
        /// Victim (write-back) MBus writes.
        pub victim_writes: u64,
        /// Dragon update transactions issued.
        pub updates_sent: u64,
        /// Invalidation transactions issued.
        pub invalidates_sent: u64,
        /// Tardis lease-renewal transactions issued.
        pub renewals_sent: u64,
        /// Foreign write/update payloads absorbed into a local copy.
        pub updates_absorbed: u64,
        /// Local copies killed by snooped invalidating traffic.
        pub invalidations_taken: u64,
        /// Transactions for which this cache supplied the data.
        pub supplies: u64,
        /// CPU accesses delayed one tick by a snoop probe to the tag store
        /// (the SP term of the paper's model).
        pub probe_stalls: u64,
    }
}

impl CacheStats {
    /// Total processor references seen.
    pub fn cpu_refs(&self) -> u64 {
        self.cpu_reads + self.cpu_writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over all processor references (the paper's `M`).
    ///
    /// Returns 0 when no references have been made.
    pub fn miss_rate(&self) -> f64 {
        let refs = self.cpu_refs();
        if refs == 0 {
            0.0
        } else {
            self.misses() as f64 / refs as f64
        }
    }

    /// All MBus write transactions (the three §5.3 categories).
    pub fn bus_writes(&self) -> u64 {
        self.wt_shared + self.wt_unshared + self.victim_writes
    }

    /// All MBus transactions this cache initiated.
    pub fn bus_ops(&self) -> u64 {
        self.bus_reads
            + self.bus_read_owned
            + self.bus_writes()
            + self.updates_sent
            + self.invalidates_sent
            + self.renewals_sent
    }
}

counters! {
    /// MBus-level counters.
    pub struct BusStats [guard = total_cycles] {
        /// Cycles during which a transaction occupied the bus.
        pub busy_cycles: u64,
        /// Total cycles elapsed.
        pub total_cycles: u64,
        /// MRead transactions.
        pub reads: u64,
        /// Read-owned transactions.
        pub read_owned: u64,
        /// Write-through MWrite transactions.
        pub writes: u64,
        /// Victim MWrite transactions.
        pub write_backs: u64,
        /// Dragon update transactions.
        pub updates: u64,
        /// Invalidate transactions.
        pub invalidates: u64,
        /// Tardis lease-renewal transactions.
        pub renewals: u64,
        /// Transactions during which `MShared` was asserted.
        pub mshared_asserted: u64,
        /// Read data supplied cache-to-cache (memory inhibited).
        pub cache_supplied: u64,
        /// Read data supplied by main memory.
        pub memory_supplied: u64,
    }
}

impl BusStats {
    /// Total transactions.
    pub fn ops(&self) -> u64 {
        self.reads
            + self.read_owned
            + self.writes
            + self.write_backs
            + self.updates
            + self.invalidates
            + self.renewals
    }

    /// The bus load `L`: fraction of non-idle bus cycles.
    ///
    /// Returns 0 before any cycle has elapsed.
    pub fn load(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

counters! {
    /// Fault-injection and recovery counters (see [`crate::fault`]).
    ///
    /// Each counter pairs an injected fault class with the recovery action
    /// that absorbed it, so a sweep can report *corrected / retried /
    /// uncorrected* totals the way the real machine's error logs would.
    ///
    /// # Examples
    ///
    /// ```
    /// use firefly_core::stats::FaultStats;
    ///
    /// let mut f = FaultStats { ecc_corrected: 3, ..Default::default() };
    /// f += FaultStats { ecc_corrected: 2, bus_retries: 1, ..Default::default() };
    /// assert_eq!(f.ecc_corrected, 5);
    /// assert_eq!(f.total_injected(), 5, "retries are recoveries, not injections");
    /// ```
    pub struct FaultStats [guard = total_injected()] {
        /// `MShared` assertions lost on the wired-OR (detected, retried).
        pub mshared_drops: u64,
        /// Spurious `MShared` assertions (conservatively honored).
        pub mshared_spurious: u64,
        /// Arbitration grants withheld for a cycle.
        pub arb_stalls: u64,
        /// Data-cycle parity errors on MBus transfers.
        pub parity_errors: u64,
        /// MBus transactions aborted and reissued (parity or `MShared` drop).
        pub bus_retries: u64,
        /// Single-bit memory ECC events corrected in flight.
        pub ecc_corrected: u64,
        /// Double-bit memory ECC events (detected, not correctable).
        pub ecc_uncorrected: u64,
        /// Scrubber rewrites after corrected ECC events.
        pub scrubs: u64,
        /// Cache tag-parity hits recovered by invalidate-and-refetch.
        pub tag_flips: u64,
        /// DMA word transfers that timed out and backed off.
        pub dma_timeouts: u64,
        /// Device-level retries (DMA backoffs plus disk re-seeks).
        pub device_retries: u64,
        /// DEQNA receive packets dropped on the wire.
        pub packets_dropped: u64,
        /// RQDX3 soft read errors recovered by re-seeking.
        pub disk_read_errors: u64,
        /// Processors offlined after uncorrectable faults.
        pub cpus_offlined: u64,
    }
}

impl FaultStats {
    /// Total faults injected (every class, before recovery).
    pub fn total_injected(&self) -> u64 {
        self.mshared_drops
            + self.mshared_spurious
            + self.arb_stalls
            + self.parity_errors
            + self.ecc_corrected
            + self.ecc_uncorrected
            + self.tag_flips
            + self.dma_timeouts
            + self.packets_dropped
            + self.disk_read_errors
    }

    /// Faults whose recovery fully restored the fault-free outcome.
    pub fn total_recovered(&self) -> u64 {
        self.total_injected() - self.ecc_uncorrected - self.packets_dropped
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-footprint latency histogram with power-of-two buckets.
///
/// Bucket 0 holds the value 0; bucket `b` (for `b ≥ 1`) holds values in
/// `[2^(b-1), 2^b)`, with everything at or above `2^30` clamped into the
/// last bucket. Recording is two adds and a handful of compares — cheap
/// enough to stay on unconditionally, and entirely deterministic.
///
/// # Examples
///
/// ```
/// use firefly_core::stats::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [4, 5, 6, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), 4);
/// assert_eq!(h.max(), 100);
/// assert!((h.mean() - 28.75).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`q` in 0..=1): the inclusive
    /// top of the first bucket whose cumulative count reaches `q`,
    /// clamped to the observed maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let top = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return top.min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts (bucket `b` covers `[2^(b-1), 2^b)`; bucket 0
    /// is the value 0).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// One-line summary: `n=… mean=… min=… p50<=… p99<=… max=…`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} min={} p50<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.min(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max
        )
    }
}

// The raw fields, including the `u64::MAX` empty-`min` sentinel: the
// public `min` accessor masks it to 0 and so cannot rebuild the struct.
crate::snap_struct!(Histogram { counts, count, sum, min, max });

impl AddAssign for Histogram {
    fn add_assign(&mut self, o: Self) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += b;
        }
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// Latency histograms in MBus cycles — the distributions behind the
/// paper's averaged miss-penalty and bus-contention numbers.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Cycles from issue to completion for processor accesses that
    /// missed in the cache.
    pub miss_penalty: Histogram,
    /// Cycles a granted transaction waited from first bus request to
    /// the grant (arbitration + bus-busy time).
    pub bus_wait: Histogram,
    /// Cycles from issue to completion for DMA accesses.
    pub dma_service: Histogram,
}

impl LatencyStats {
    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "miss penalty  {}\nbus wait      {}\ndma service   {}",
            self.miss_penalty.summary(),
            self.bus_wait.summary(),
            self.dma_service.summary()
        )
    }
}

crate::snap_struct!(LatencyStats { miss_penalty, bus_wait, dma_service });

impl AddAssign for LatencyStats {
    fn add_assign(&mut self, o: Self) {
        self.miss_penalty += o.miss_penalty;
        self.bus_wait += o.bus_wait;
        self.dma_service += o.dma_service;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn bus_write_categories_sum() {
        let s = CacheStats { wt_shared: 3, wt_unshared: 2, victim_writes: 5, ..Default::default() };
        assert_eq!(s.bus_writes(), 10);
    }

    #[test]
    fn bus_ops_totals() {
        let s = CacheStats {
            bus_reads: 4,
            bus_read_owned: 1,
            wt_shared: 2,
            updates_sent: 3,
            invalidates_sent: 1,
            ..Default::default()
        };
        assert_eq!(s.bus_ops(), 11);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CacheStats { cpu_reads: 1, supplies: 2, ..Default::default() };
        let b = CacheStats { cpu_reads: 10, supplies: 5, ..Default::default() };
        a += b;
        assert_eq!(a.cpu_reads, 11);
        assert_eq!(a.supplies, 7);
    }

    #[test]
    fn load_is_busy_fraction() {
        let s = BusStats { busy_cycles: 40, total_cycles: 100, ..Default::default() };
        assert!((s.load() - 0.4).abs() < 1e-12);
        assert_eq!(BusStats::default().load(), 0.0);
    }

    #[test]
    fn fault_stats_totals_and_delta() {
        let early = FaultStats { ecc_corrected: 2, bus_retries: 1, ..Default::default() };
        let late = FaultStats {
            ecc_corrected: 5,
            ecc_uncorrected: 1,
            bus_retries: 4,
            packets_dropped: 2,
            ..Default::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.ecc_corrected, 3);
        assert_eq!(d.bus_retries, 3);
        assert_eq!(late.total_injected(), 8);
        assert_eq!(late.total_recovered(), 5);
    }

    // Regression for the delta bugfix sweep: a misordered snapshot pair
    // must trip the debug assertion instead of silently wrapping…
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "later snapshot")]
    fn bus_delta_misordered_panics_in_debug() {
        let early = BusStats { total_cycles: 10, ..Default::default() };
        let late = BusStats { total_cycles: 50, ..Default::default() };
        let _ = early.delta(&late);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "later snapshot")]
    fn fault_delta_misordered_panics_in_debug() {
        let early = FaultStats { tag_flips: 1, ..Default::default() };
        let late = FaultStats { tag_flips: 7, ..Default::default() };
        let _ = early.delta(&late);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "later snapshot")]
    fn cache_delta_misordered_panics_in_debug() {
        let early = CacheStats { cpu_reads: 1, ..Default::default() };
        let late = CacheStats { cpu_reads: 9, ..Default::default() };
        let _ = early.delta(&late);
    }

    // …and a pair that passes the guard field but would wrap another
    // field saturates to zero in every build profile (before the fix,
    // these wrapped to u64::MAX - k).
    #[test]
    fn bus_delta_saturates_instead_of_wrapping() {
        let early = BusStats { total_cycles: 10, reads: 5, ..Default::default() };
        let late = BusStats { total_cycles: 10, reads: 3, ..Default::default() };
        let d = late.delta(&early);
        assert_eq!(d.reads, 0, "saturating, not wrapping");
        assert_eq!(d.total_cycles, 0);
    }

    #[test]
    fn fault_delta_saturates_instead_of_wrapping() {
        let early = FaultStats { tag_flips: 2, bus_retries: 9, ..Default::default() };
        let late = FaultStats { tag_flips: 2, bus_retries: 4, ..Default::default() };
        let d = late.delta(&early);
        assert_eq!(d.bus_retries, 0, "saturating, not wrapping");
    }

    #[test]
    fn cache_delta_saturates_instead_of_wrapping() {
        let early = CacheStats { cpu_reads: 3, supplies: 8, ..Default::default() };
        let late = CacheStats { cpu_reads: 3, supplies: 2, ..Default::default() };
        let d = late.delta(&early);
        assert_eq!(d.supplies, 0, "saturating, not wrapping");
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let b = h.buckets();
        assert_eq!(b[0], 1, "bucket 0 holds the value 0");
        assert_eq!(b[1], 1, "bucket 1 holds [1,2)");
        assert_eq!(b[2], 2, "bucket 2 holds [2,4)");
        assert_eq!(b[3], 1, "bucket 3 holds [4,8)");
    }

    #[test]
    fn histogram_quantile_bounds_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 100, "clamped to the observed max");
        let p50 = h.quantile(0.5);
        assert!((32..=100).contains(&p50), "p50 of 1..=100 in bucket terms, got {p50}");
        assert!(h.summary().contains("n=100"));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::default();
        a.record(3);
        let mut b = Histogram::default();
        b.record(300);
        a += b;
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 300);
        assert_eq!(a.sum(), 303);
    }

    #[test]
    fn latency_stats_summary_names_all_three() {
        let mut l = LatencyStats::default();
        l.miss_penalty.record(12);
        l.bus_wait.record(4);
        l.dma_service.record(9);
        let s = l.summary();
        assert!(s.contains("miss penalty"));
        assert!(s.contains("bus wait"));
        assert!(s.contains("dma service"));
    }

    #[test]
    fn histogram_snapshot_roundtrip_preserves_empty_sentinel() {
        use crate::snapshot::{SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        w.put(&Histogram::default());
        let bytes = w.into_bytes();
        let mut back: Histogram = SnapReader::new(&bytes).get().unwrap();
        assert_eq!(back, Histogram::default(), "raw min sentinel survives");
        back.record(7);
        assert_eq!(back.min(), 7, "restored empty histogram still tracks min correctly");

        let mut h = Histogram::default();
        h.record(0);
        h.record(12345);
        let mut w = SnapWriter::new();
        w.put(&h);
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).get::<Histogram>().unwrap(), h);
    }
}
