//! FNV-1a digests over simulated counters.
//!
//! Each digest reads counter structs field by field. It never hashes
//! histogram quantiles or library-rendered JSON, so changes to how the
//! simulator renders or buckets its statistics cannot move a digest;
//! only a change to what was simulated can.

use firefly_core::stats::{BusStats, CacheStats};
use firefly_core::system::MemSystem;
use firefly_core::PortId;
use firefly_net::{RpcClientStats, RpcServerStats, SegmentStats};
use firefly_sim::Fleet;

/// A 64-bit FNV-1a hasher fed whole `u64` words.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `words`, each as eight little-endian bytes.
    pub fn words(&mut self, words: &[u64]) -> &mut Self {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn bus(h: &mut Fnv, s: &BusStats) {
    h.words(&[
        s.busy_cycles,
        s.total_cycles,
        s.reads,
        s.read_owned,
        s.writes,
        s.write_backs,
        s.updates,
        s.invalidates,
        s.renewals,
        s.mshared_asserted,
        s.cache_supplied,
        s.memory_supplied,
    ]);
}

fn cache(h: &mut Fnv, s: &CacheStats) {
    h.words(&[
        s.cpu_reads,
        s.cpu_writes,
        s.read_hits,
        s.write_hits,
        s.read_misses,
        s.write_misses,
        s.dma_reads,
        s.dma_writes,
        s.bus_reads,
        s.bus_read_owned,
        s.wt_shared,
        s.wt_unshared,
        s.victim_writes,
        s.updates_sent,
        s.invalidates_sent,
        s.renewals_sent,
        s.updates_absorbed,
        s.invalidations_taken,
        s.supplies,
        s.probe_stalls,
    ]);
}

/// Digest of a memory system: its cycle, the bus counters and every
/// port's cache counters.
pub fn machine(sys: &MemSystem) -> u64 {
    let mut h = Fnv::default();
    h.words(&[sys.cycle()]);
    bus(&mut h, sys.bus_stats());
    for port in 0..sys.port_count() {
        cache(&mut h, sys.cache_stats(PortId::new(port)));
    }
    h.finish()
}

fn segment(h: &mut Fnv, s: &SegmentStats) {
    h.words(&[
        s.tx_enqueued,
        s.tx_rejected,
        s.frames_sent,
        s.bytes_sent,
        s.frames_delivered,
        s.collisions,
        s.wire_busy_cycles,
        s.fault_drops,
        s.fault_dups,
        s.fault_reorders,
        s.fault_corrupts,
        s.crc_rejects,
        s.partition_drops,
        s.rx_overflows,
        s.offline_drops,
    ]);
}

fn server(h: &mut Fnv, s: &RpcServerStats) {
    h.words(&[
        s.received,
        s.executed,
        s.dup_cache_hits,
        s.dup_in_progress,
        s.shed,
        s.replies_sent,
        s.replies_dropped,
        s.decode_rejects,
        s.tx_ring_full,
        s.shed_replied,
        s.rebinds_sent,
        s.evictions_refused,
    ]);
}

fn client(h: &mut Fnv, s: &RpcClientStats) {
    h.words(&[
        s.submitted,
        s.shed,
        s.acked,
        s.acked_payload_bytes,
        s.acked_timely,
        s.acked_timely_bytes,
        s.failed,
        s.timeouts,
        s.retries,
        s.dup_replies,
        s.tx_ring_full,
        s.retries_deferred,
        s.decode_rejects,
        s.fast_failed,
        s.shed_replies,
        s.rebinds,
        s.hedges,
    ]);
}

/// Digest of a fleet: its cycle, the wire counters, every server's and
/// every client's RPC counters.
pub fn fleet(f: &Fleet) -> u64 {
    let cfg = f.config();
    let mut h = Fnv::default();
    h.words(&[f.cycle()]);
    segment(&mut h, &f.segment_stats());
    for i in 0..cfg.servers {
        server(&mut h, &f.server_stats(i));
    }
    for i in 0..cfg.clients {
        client(&mut h, &f.client_stats(i));
    }
    h.finish()
}

/// Folds several digests into one, order-sensitively.
pub fn combine(parts: &[u64]) -> u64 {
    Fnv::default().words(parts).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector_and_is_order_sensitive() {
        // FNV-1a 64 of eight zero bytes.
        assert_eq!(Fnv::default().words(&[0]).finish(), 0xa8c7_f832_281a_39c5);
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }
}
