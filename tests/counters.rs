//! Laws of the impls `counters!` generates, checked on every counter
//! struct in the workspace: `delta` undoes `+=`, `Sum` agrees with `+=`,
//! and the snapshot encoding round-trips exactly, one `u64` per field in
//! declaration order.

use firefly_core::snapshot::{Snap, SnapReader, SnapWriter};
use firefly_core::stats::{BusStats, CacheStats, FaultStats};
use firefly_cpu::processor::EngineStats;
use firefly_cpu::CpuStats;
use firefly_io::deqna::DeqnaStats;
use firefly_net::{BreakerStats, RpcClientStats, RpcServerStats, SegmentStats};
use firefly_sim::FleetEngineStats;
use proptest::prelude::*;

/// More words than any counter struct has fields.
const WORDS: usize = 24;

/// Field values stay below this, so neither `a + b` nor a guard that
/// sums fields can overflow.
const MAX: u64 = 1 << 40;

fn encode(words: &[u64]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    for v in words {
        w.put(v);
    }
    w.into_bytes()
}

/// A random instance: each field of a counter struct is one `u64` of its
/// encoding, so decoding random words fills every field. Returns the
/// value and the bytes it consumed.
fn decode<T: Snap>(bytes: &[u8]) -> (T, &[u8]) {
    let mut r = SnapReader::new(bytes);
    let value = r.get().expect("enough words for every field");
    let used = bytes.len() - r.remaining();
    (value, &bytes[..used])
}

fn save<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

macro_rules! check_laws {
    ($a:expr, $b:expr; $($ty:ty),+ $(,)?) => {$({
        let (a_bytes, b_bytes) = (encode(&$a), encode(&$b));
        let (a, a_used) = decode::<$ty>(&a_bytes);
        let (b, _) = decode::<$ty>(&b_bytes);
        let mut sum = a;
        sum += b;
        prop_assert_eq!(sum.delta(&a), b, "{}: (a += b).delta(a) != b", stringify!($ty));
        prop_assert_eq!([a, b].into_iter().sum::<$ty>(), sum, "{}: sum != a + b", stringify!($ty));
        prop_assert_eq!(save(&a), a_used, "{}: fields out of declaration order", stringify!($ty));
        let back: $ty = SnapReader::new(&save(&sum)).get().expect("round trip");
        prop_assert_eq!(back, sum, "{}: snapshot round trip", stringify!($ty));
    })+};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counter_structs_obey_the_generated_laws(
        a in prop::collection::vec(0..MAX, WORDS),
        b in prop::collection::vec(0..MAX, WORDS),
    ) {
        check_laws!(
            a, b;
            CacheStats,
            BusStats,
            FaultStats,
            DeqnaStats,
            CpuStats,
            EngineStats,
            SegmentStats,
            RpcClientStats,
            RpcServerStats,
            BreakerStats,
            FleetEngineStats,
        );
    }
}
