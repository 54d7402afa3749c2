//! A fleet of Fireflies sharing one Ethernet segment.
//!
//! The paper's Fireflies were not standalone machines: §2 describes the
//! DEQNA Ethernet controller precisely because SRC ran Topaz RPC between
//! workstations. This module builds that fleet: N simulated Fireflies
//! (a server tier and a client tier) attached to one cycle-driven
//! [`EtherSegment`], with an open-loop Poisson load generator driving
//! heavy-tailed RPC traffic through the retrying transport in
//! [`firefly_net::rpc`].
//!
//! Everything is deterministic from [`FleetConfig::seed`] — arrivals,
//! payload sizes, CSMA/CD backoff, service-time jitter, retry jitter and
//! injected wire faults all derive from it — so a fleet run is a pure
//! function of its config regardless of host parallelism, and the whole
//! fleet checkpoints into one FFSN container that resumes bit-identically
//! ([`Fleet::save_snapshot`] / [`Fleet::load_snapshot`]).
//!
//! Six headline experiments live here so tests, the soak harness and
//! the `fleet` / `partition` bench bins share one implementation:
//!
//! * [`run_retry_storm`] — a server-tier slowdown window under a naive
//!   retry discipline drives timeout amplification into congestive
//!   collapse that persists after the servers heal; the budgeted
//!   discipline (exponential backoff, jitter, retry budget,
//!   outstanding-call cap) sheds load and recovers.
//! * [`run_crash_failover`] — one Firefly is killed mid-run; clients
//!   fail over to the surviving servers and the fleet degrades from N to
//!   N−1 gracefully, never losing or duplicating an acknowledged call.
//! * [`run_partition_heal`] — the wire splits: a minority of clients
//!   loses every server for a window. With circuit breakers the cut-off
//!   clients fail fast instead of burning retries; when the partition
//!   heals, half-open probes re-admit the servers and goodput recovers.
//! * [`run_flapping_partition`] — the same split opens and heals
//!   repeatedly; breakers must re-trip each time and the at-most-once
//!   oracle must stay clean through every transition.
//! * [`run_rejoin`] — a server is killed and later *revived*
//!   ([`Fleet::revive_server`]): it restarts cold under a fresh epoch,
//!   bounces stale requests with `Rebind` instead of executing them, and
//!   breaker probes fold it back into rotation.
//! * [`run_brownout`] — a sustained overload with the server-side
//!   admission controller on versus off: explicit `Shed` replies release
//!   doomed calls in one round trip where silent queue drops burn the
//!   full timeout ladder.
//!
//! [`run_rpc_transfer`] runs the paper's own §6 measurement on the same
//! fleet: one client keeping a fixed number of calls outstanding to one
//! server, behind the `rpc_bandwidth` bin and the §6 claim test.

use firefly_core::events::{Event, EventKind, EventRing};
use firefly_core::snapshot::{SnapshotBuilder, SnapshotFile};
use firefly_core::stats::Histogram;
use firefly_core::Error;
use firefly_net::rpc::{RetryPolicy, RpcClient, RpcClientStats, RpcServer, RpcServerStats};
use firefly_net::segment::{EtherSegment, SegmentConfig, SegmentStats};
use firefly_net::{BreakerConfig, BreakerState, NetFaultConfig, PartitionPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeSet;

/// The names of the `(name, holds)` gate conditions that do not hold,
/// in order. Each scenario module's `gate` is built on this; its pass
/// is an empty list.
fn failures(conditions: &[(&'static str, bool)]) -> Vec<&'static str> {
    conditions.iter().filter(|&&(_, holds)| !holds).map(|&(name, _)| name).collect()
}

/// Cycle windows, knobs and the pass/fail gate for the retry-storm
/// scenario. They are public so tests, the soak harness and the bench
/// bin measure the same phases and judge them by the same conditions.
pub mod storm {
    use super::{failures, StormOutcome};

    /// Baseline goodput window starts here (after warm-up).
    pub const BASE_FROM: u64 = 400_000;
    /// Baseline window ends where the slowdown begins.
    pub const BASE_UNTIL: u64 = SLOW_FROM;
    /// Service tier slows down at this cycle.
    pub const SLOW_FROM: u64 = 1_200_000;
    /// Service tier heals at this cycle.
    pub const SLOW_UNTIL: u64 = 2_600_000;
    /// Recovery goodput window starts here (past the budgeted policy's
    /// deepest backoff, so residual retries have drained).
    pub const RECOVERY_FROM: u64 = 3_600_000;
    /// End of the scenario and of the recovery window.
    pub const RECOVERY_UNTIL: u64 = 4_600_000;
    /// Service-time multiplier during the slowdown.
    pub const SLOW_FACTOR: u32 = 60;
    /// Initial per-call timeout for both retry disciplines — above the
    /// healthy fleet's p99 round trip, so neither discipline retries
    /// spuriously at baseline.
    pub const TIMEOUT: u64 = 40_000;

    /// Gate: the naive discipline's post-heal recovery fraction stays
    /// below this — the collapse outlives its trigger.
    pub const NAIVE_RECOVERY_MAX: f64 = 0.5;
    /// Gate: the budgeted discipline recovers at least this fraction of
    /// baseline.
    pub const BUDGETED_RECOVERY_MIN: f64 = 0.9;

    /// The retry-storm gate over the naive and budgeted runs of one
    /// seed: the names of the conditions that do not hold.
    pub fn gate(naive: &StormOutcome, budgeted: &StormOutcome) -> Vec<&'static str> {
        failures(&[
            (
                "naive.recovery_fraction < NAIVE_RECOVERY_MAX",
                naive.recovery_fraction < NAIVE_RECOVERY_MAX,
            ),
            (
                "budgeted.recovery_fraction >= BUDGETED_RECOVERY_MIN",
                budgeted.recovery_fraction >= BUDGETED_RECOVERY_MIN,
            ),
            ("naive.oracle_violations == 0", naive.oracle_violations == 0),
            ("budgeted.oracle_violations == 0", budgeted.oracle_violations == 0),
        ])
    }
}

/// Cycle windows, knobs and the gate for the machine-crash failover
/// scenario.
pub mod crash {
    use super::{failures, CrashOutcome};

    /// Baseline goodput window starts here (after warm-up).
    pub const BASE_FROM: u64 = 400_000;
    /// The victim server is killed at this cycle.
    pub const KILL_AT: u64 = 1_200_000;
    /// End of the scenario.
    pub const END: u64 = 3_200_000;
    /// Post-kill goodput is sampled in windows of this many cycles.
    pub const WINDOW: u64 = 200_000;
    /// Initial per-call timeout (the workload is service-bound, so the
    /// timeout sits above the typical round trip).
    pub const TIMEOUT: u64 = 60_000;
    /// NIC index of the server that crashes.
    pub const VICTIM: usize = 0;

    /// Gate: steady post-kill goodput on N−1 servers holds at least
    /// this fraction of baseline.
    pub const DEGRADED_MIN: f64 = 0.8;

    /// The machine-crash gate: the names of the conditions that do not
    /// hold.
    pub fn gate(o: &CrashOutcome) -> Vec<&'static str> {
        failures(&[
            ("degraded_fraction >= DEGRADED_MIN", o.degraded_fraction >= DEGRADED_MIN),
            ("recovery_cycles.is_some()", o.recovery_cycles.is_some()),
            ("oracle_violations == 0", o.oracle_violations == 0),
        ])
    }
}

/// Cycle windows, knobs and gates for the network-partition scenarios
/// ([`run_partition_heal`], [`run_flapping_partition`]).
///
/// Topology: three servers (NICs 0–2) and six clients (NICs 3–8). The
/// partition [`BOUNDARY`](partition::BOUNDARY) is 6, so the split strands
/// the last three clients (fleet client indices
/// [`MINORITY_FROM`](partition::MINORITY_FROM)`..clients`, NICs
/// 6–8) on a side with **no servers** while the majority side keeps
/// serving undisturbed.
pub mod partition {
    use super::{failures, PartitionOutcome};

    /// Baseline goodput window starts here (after warm-up).
    pub const BASE_FROM: u64 = 400_000;
    /// The wire splits at this cycle.
    pub const SPLIT_FROM: u64 = 1_200_000;
    /// The partition heals at this cycle.
    pub const SPLIT_UNTIL: u64 = 2_400_000;
    /// End of the scenario.
    pub const END: u64 = 4_400_000;
    /// Post-heal goodput is sampled in windows of this many cycles.
    pub const WINDOW: u64 = 200_000;
    /// Initial per-call timeout for every discipline under test.
    pub const TIMEOUT: u64 = 40_000;
    /// NIC index splitting the segment: servers and the first three
    /// clients on one side, the minority clients on the other.
    pub const BOUNDARY: usize = 6;
    /// First *client index* (not NIC) on the minority side.
    pub const MINORITY_FROM: usize = 3;
    /// Severed windows in the flapping variant.
    pub const FLAPS: usize = 3;
    /// Length of each severed window while flapping.
    pub const FLAP_SEVERED: u64 = 250_000;
    /// Healed gap between consecutive severed windows.
    pub const FLAP_HEALED: u64 = 150_000;

    /// Gate: post-heal timely goodput reaches at least this fraction of
    /// baseline, after a single split and after flapping.
    pub const RECOVERY_MIN: f64 = 0.85;
    /// Gate: resilient split-side goodput exceeds this multiple of the
    /// budgeted policy's.
    pub const SPLIT_GAIN_MIN: f64 = 1.5;
    /// Gate: every minority breaker (3 clients × 3 servers) is open
    /// mid-split under the resilient policy.
    pub const MINORITY_BREAKERS: usize = 9;
    /// Gate: the resilient minority fails at least this many calls fast
    /// during the split.
    pub const MINORITY_FAST_FAILS_MIN: u64 = 20;

    /// The partition-heal gate over the resilient and budgeted runs of
    /// one seed: the names of the conditions that do not hold.
    pub fn heal_gate(
        resilient: &PartitionOutcome,
        budgeted: &PartitionOutcome,
    ) -> Vec<&'static str> {
        failures(&[
            (
                "resilient.recovery_fraction >= RECOVERY_MIN",
                resilient.recovery_fraction >= RECOVERY_MIN,
            ),
            ("resilient.recovery_cycles.is_some()", resilient.recovery_cycles.is_some()),
            (
                "resilient.split_mbps > SPLIT_GAIN_MIN * budgeted.split_mbps",
                resilient.split_mbps > SPLIT_GAIN_MIN * budgeted.split_mbps,
            ),
            (
                "resilient.minority_open_breakers_mid_split == MINORITY_BREAKERS",
                resilient.minority_open_breakers_mid_split == MINORITY_BREAKERS,
            ),
            (
                "resilient.minority_open_breakers_at_end == 0",
                resilient.minority_open_breakers_at_end == 0,
            ),
            (
                "resilient.minority_split_fast_fails >= MINORITY_FAST_FAILS_MIN",
                resilient.minority_split_fast_fails >= MINORITY_FAST_FAILS_MIN,
            ),
            ("budgeted.minority_split_fast_fails == 0", budgeted.minority_split_fast_fails == 0),
            ("resilient.oracle_violations == 0", resilient.oracle_violations == 0),
            ("budgeted.oracle_violations == 0", budgeted.oracle_violations == 0),
        ])
    }

    /// The flapping-partition gate: the names of the conditions that do
    /// not hold.
    pub fn flapping_gate(o: &PartitionOutcome) -> Vec<&'static str> {
        failures(&[
            ("recovery_fraction >= RECOVERY_MIN", o.recovery_fraction >= RECOVERY_MIN),
            (
                "minority_breaker_opens >= severed_windows",
                o.minority_breaker_opens >= o.severed_windows as u64,
            ),
            ("minority_open_breakers_at_end == 0", o.minority_open_breakers_at_end == 0),
            ("oracle_violations == 0", o.oracle_violations == 0),
        ])
    }
}

/// Cycle windows, knobs and the gate for the kill-then-revive scenario
/// ([`run_rejoin`]).
pub mod rejoin {
    use super::{failures, RejoinOutcome};

    /// Baseline goodput window starts here (after warm-up).
    pub const BASE_FROM: u64 = 400_000;
    /// The victim server is killed at this cycle.
    pub const KILL_AT: u64 = 1_200_000;
    /// The victim is revived (cold restart, fresh epoch) at this cycle.
    pub const REVIVE_AT: u64 = 2_200_000;
    /// End of the scenario.
    pub const END: u64 = 4_200_000;
    /// Post-revive goodput is sampled in windows of this many cycles.
    pub const WINDOW: u64 = 200_000;
    /// Initial per-call timeout (service-bound workload, as in `crash`).
    pub const TIMEOUT: u64 = 60_000;
    /// NIC index of the server that dies and rejoins.
    pub const VICTIM: usize = 0;

    /// Gate: the revived victim's epoch (one restart).
    pub const VICTIM_EPOCH: u32 = 1;
    /// Gate: at least this many stale calls bounce with `Rebind`.
    pub const REBINDS_MIN: u64 = 1;
    /// Gate: post-revive goodput reaches at least this fraction of
    /// baseline.
    pub const RECOVERY_MIN: f64 = 0.85;

    /// The kill-then-revive gate: the names of the conditions that do
    /// not hold.
    pub fn gate(o: &RejoinOutcome) -> Vec<&'static str> {
        failures(&[
            ("victim_epoch == VICTIM_EPOCH", o.victim_epoch == VICTIM_EPOCH),
            ("victim_executed_after_revive > 0", o.victim_executed_after_revive > 0),
            ("rebinds >= REBINDS_MIN", o.rebinds >= REBINDS_MIN),
            ("recovery_fraction >= RECOVERY_MIN", o.recovery_fraction >= RECOVERY_MIN),
            ("oracle_violations == 0", o.oracle_violations == 0),
        ])
    }
}

/// Cycle windows, knobs and the gate for the overload-shedding scenario
/// ([`run_brownout`]).
///
/// The workload is service-bound on purpose: two servers of three
/// 30k-cycle workers give 200 calls/Mcycle of capacity against 240
/// offered, so the excess piles up in the 8-deep run queues — exactly
/// where the brownout admission controller lives — rather than on the
/// wire or at the client outstanding-call cap.
pub mod brownout {
    use super::{failures, BrownoutOutcome};

    /// Goodput measurement starts here (after warm-up).
    pub const BASE_FROM: u64 = 400_000;
    /// End of the scenario.
    pub const END: u64 = 2_400_000;
    /// Initial per-call timeout — above a full run-queue's draining
    /// time, so admitted calls are not doomed by queueing delay alone.
    pub const TIMEOUT: u64 = 120_000;
    /// Base service time per request.
    pub const SERVICE_CYCLES: u64 = 30_000;
    /// Server run-queue bound.
    pub const QUEUE_CAP: usize = 8;
    /// Brownout watermark (run-queue depth where shedding starts) when
    /// the admission controller is on.
    pub const WATERMARK: usize = 4;
    /// Per-client offered load, calls per million cycles — ~20% over
    /// the two-server service capacity, sustained for the whole run.
    pub const ARRIVALS_PER_MCYCLE: u64 = 40;

    /// Gate: explicit shedding divides the silent-drop p99 by more than
    /// this factor.
    pub const P99_FACTOR: u64 = 2;

    /// The brownout gate over the shedding and silent-drop runs of one
    /// seed: the names of the conditions that do not hold.
    pub fn gate(shed: &BrownoutOutcome, silent: &BrownoutOutcome) -> Vec<&'static str> {
        failures(&[
            ("shed.goodput_mbps > silent.goodput_mbps", shed.goodput_mbps > silent.goodput_mbps),
            ("shed.failed == 0", shed.failed == 0),
            ("shed.server_shed_replied > 0", shed.server_shed_replied > 0),
            ("silent.server_shed_silent > 0", silent.server_shed_silent > 0),
            ("P99_FACTOR * shed.p99 < silent.p99", P99_FACTOR * shed.p99 < silent.p99),
            ("shed.oracle_violations == 0", shed.oracle_violations == 0),
            ("silent.oracle_violations == 0", silent.oracle_violations == 0),
        ])
    }
}

/// A timed service-tier slowdown: every server's service times are
/// multiplied by `factor` for cycles in `[from, until)`. This is the
/// retry-storm trigger — think of it as a fleet-wide GC pause or an
/// overloaded disk behind the RPC servers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct SlowdownWindow {
    /// First slow cycle.
    pub from: u64,
    /// First fast cycle after the window.
    pub until: u64,
    /// Service-time multiplier while slow.
    pub factor: u32,
}

/// Complete description of a fleet. A [`Fleet`] is a pure function of
/// this config: equal configs produce bit-identical runs.
#[derive(Copy, Clone, PartialEq, Debug, Serialize)]
pub struct FleetConfig {
    /// Server machines (NICs `0..servers`).
    pub servers: usize,
    /// Client machines (NICs `servers..servers + clients`).
    pub clients: usize,
    /// Worker threads per server (the Firefly's spare processors).
    pub server_threads: usize,
    /// Base service time per request, in cycles.
    pub service_cycles: u64,
    /// Server run-queue bound; requests beyond it are shed.
    pub server_queue_cap: usize,
    /// At-most-once reply-cache entries retained per client.
    pub reply_cache_per_client: usize,
    /// Poisson arrival rate per client, in calls per million cycles.
    pub arrivals_per_mcycle: u64,
    /// Smallest request payload, in bytes (Pareto location).
    pub payload_min: u32,
    /// Request payloads are clipped to this many bytes.
    pub payload_max: u32,
    /// Pareto tail exponent × 1000 (1300 = a heavy 1.3 tail).
    pub pareto_alpha_x1000: u32,
    /// Client retry discipline.
    pub policy: RetryPolicy,
    /// Master seed for every RNG stream in the fleet.
    pub seed: u64,
    /// Per-NIC TX ring depth.
    pub tx_ring: usize,
    /// Per-NIC RX ring depth.
    pub rx_ring: usize,
    /// Wire fault plan (drop / dup / reorder / corrupt / partition).
    pub faults: NetFaultConfig,
    /// Optional service-tier slowdown window.
    pub slowdown: Option<SlowdownWindow>,
    /// Server brownout watermark: run-queue depth where the admission
    /// controller starts shedding the lowest-priority requests with
    /// explicit `Shed` replies (0 = off, the legacy silent-drop path).
    pub brownout_watermark: usize,
}

impl FleetConfig {
    /// A small healthy serving fleet: no faults, no slowdown, budgeted
    /// retries. The starting point every scenario perturbs.
    pub fn serving(servers: usize, clients: usize, seed: u64) -> Self {
        FleetConfig {
            servers,
            clients,
            server_threads: 3,
            service_cycles: 2_500,
            server_queue_cap: 32,
            reply_cache_per_client: 4_096,
            arrivals_per_mcycle: 20,
            payload_min: 96,
            payload_max: 768,
            pareto_alpha_x1000: 1_300,
            policy: RetryPolicy::budgeted(storm::TIMEOUT),
            seed,
            tx_ring: 64,
            rx_ring: 256,
            faults: NetFaultConfig::default(),
            slowdown: None,
            brownout_watermark: 0,
        }
    }

    /// The retry-storm scenario: two servers, six clients, a 1% lossy
    /// wire, and a deep service slowdown over
    /// [`storm::SLOW_FROM`]`..`[`storm::SLOW_UNTIL`]. With `naive`
    /// retries (fixed timeout, no budget, no outstanding cap) the
    /// slowdown turns into a retransmission flood that outlives the
    /// trigger; the budgeted discipline sheds and recovers.
    pub fn retry_storm(seed: u64, naive: bool) -> Self {
        let mut cfg = FleetConfig::serving(2, 6, seed);
        // ~45% offered wire load: comfortably stable for both
        // disciplines until the slowdown hits.
        cfg.arrivals_per_mcycle = 15;
        cfg.policy = if naive {
            RetryPolicy::naive(storm::TIMEOUT)
        } else {
            RetryPolicy::budgeted(storm::TIMEOUT)
        };
        cfg.faults = NetFaultConfig {
            seed: seed ^ 0x5709_0e7f_a017_90b1,
            drop_ppm: 10_000,
            ..NetFaultConfig::default()
        };
        cfg.slowdown = Some(SlowdownWindow {
            from: storm::SLOW_FROM,
            until: storm::SLOW_UNTIL,
            factor: storm::SLOW_FACTOR,
        });
        // Shallow TX rings: a deep ring full of stale retransmissions
        // outlives the storm by millions of cycles and poisons the
        // recovery measurement for *both* disciplines.
        cfg.tx_ring = 16;
        cfg
    }

    /// The machine-crash scenario: three servers, six clients, a
    /// service-bound workload (small payloads, long service times) on a
    /// 1% lossy wire. [`crash::VICTIM`] dies at [`crash::KILL_AT`];
    /// clients fail over to the survivors.
    pub fn crash_failover(seed: u64) -> Self {
        let mut cfg = FleetConfig::serving(3, 6, seed);
        cfg.service_cycles = 20_000;
        // Shed fast rather than queue deep: with a deep run queue the
        // queueing delay dwarfs the client timeout, and every timed-out
        // call duplicates its work onto another server — eating the
        // N−1 capacity margin exactly when it matters.
        cfg.server_queue_cap = 8;
        cfg.arrivals_per_mcycle = 25;
        cfg.payload_min = 64;
        cfg.payload_max = 256;
        cfg.policy = RetryPolicy::budgeted(crash::TIMEOUT);
        // No give-up deadline here: this scenario measures graceful
        // degradation of *raw* goodput under N→N−1 capacity, and a
        // third of fresh calls burn two timeouts on the dead server
        // before rotating. Patient callers wait out the failover; an
        // SLA deadline would convert that wait into failures and gut
        // the degraded-goodput measurement.
        cfg.policy.deadline = 0;
        cfg.faults = NetFaultConfig {
            seed: seed ^ 0x0c4a_54f4_110e_4a7d,
            drop_ppm: 10_000,
            ..NetFaultConfig::default()
        };
        cfg
    }

    /// The partition-tolerant retry discipline the fleet scenarios run:
    /// budgeted retries plus per-server circuit breakers. The breaker
    /// deviates from [`RetryPolicy::resilient`]'s, tuned against this
    /// workload's heavy latency tail: the trip threshold is six
    /// consecutive failures rather than three, because routine tail
    /// timeouts cluster in twos and threes on a perfectly healthy slot;
    /// only a dead or unreachable server produces six in a row. The
    /// cooling-window cap stays small enough that the worst post-heal
    /// probe delay (cap + jitter) sits well inside the scenario's
    /// recovery measurement span.
    fn resilient_partition_policy(timeout: u64) -> RetryPolicy {
        let mut policy = RetryPolicy::resilient(timeout);
        policy.breaker = Some(BreakerConfig {
            fail_threshold: 6,
            open_base: timeout.saturating_mul(4),
            open_cap: timeout.saturating_mul(12),
            probe_quota: 2,
            close_after: 1,
            jitter_ppm: 250_000,
        });
        policy
    }

    /// The network-partition scenario: three servers, six clients, a 1%
    /// lossy wire, and a split over
    /// [`partition::SPLIT_FROM`]`..`[`partition::SPLIT_UNTIL`] that
    /// strands the last three clients with no servers. `resilient`
    /// selects breakers; `false` runs the plain budgeted
    /// discipline for contrast (every minority call burns its full
    /// retry ladder instead of failing fast).
    pub fn partition_heal(seed: u64, resilient: bool) -> Self {
        let mut cfg = FleetConfig::serving(3, 6, seed);
        cfg.policy = if resilient {
            Self::resilient_partition_policy(partition::TIMEOUT)
        } else {
            RetryPolicy::budgeted(partition::TIMEOUT)
        };
        cfg.faults = NetFaultConfig {
            seed: seed ^ 0x7e4a_11bd_93d0_66c3,
            drop_ppm: 10_000,
            ..NetFaultConfig::default()
        }
        .with_partition(PartitionPlan {
            from: partition::SPLIT_FROM,
            until: partition::SPLIT_UNTIL,
            boundary: partition::BOUNDARY,
        });
        cfg
    }

    /// The flapping-partition scenario: the same split as
    /// [`FleetConfig::partition_heal`] but opening and healing
    /// [`partition::FLAPS`] times, always under the resilient policy.
    pub fn flapping_partition(seed: u64) -> Self {
        let mut cfg = Self::partition_heal(seed, true);
        cfg.faults = NetFaultConfig {
            seed: seed ^ 0x7e4a_11bd_93d0_66c3,
            drop_ppm: 10_000,
            ..NetFaultConfig::default()
        };
        for k in 0..partition::FLAPS as u64 {
            let from =
                partition::SPLIT_FROM + k * (partition::FLAP_SEVERED + partition::FLAP_HEALED);
            cfg.faults.add_partition(PartitionPlan {
                from,
                until: from + partition::FLAP_SEVERED,
                boundary: partition::BOUNDARY,
            });
        }
        cfg
    }

    /// The kill-then-revive scenario: the crash-failover fleet under
    /// the resilient policy. [`rejoin::VICTIM`] dies at
    /// [`rejoin::KILL_AT`] and is revived cold at [`rejoin::REVIVE_AT`]
    /// — fresh epoch, empty reply cache — so stale requests bounce with
    /// `Rebind` and breaker probes fold it back into rotation.
    pub fn rejoin_after_crash(seed: u64) -> Self {
        let mut cfg = FleetConfig::crash_failover(seed);
        cfg.policy = Self::resilient_partition_policy(rejoin::TIMEOUT);
        cfg
    }

    /// The overload-shedding scenario: two servers, six clients, no
    /// wire faults, offered load ~25% over service capacity. With
    /// `shedding` the brownout admission controller rejects the
    /// lowest-priority requests explicitly; without it the run queue
    /// silently drops the excess and clients burn the timeout ladder.
    pub fn brownout_overload(seed: u64, shedding: bool) -> Self {
        let mut cfg = FleetConfig::serving(2, 6, seed);
        cfg.service_cycles = brownout::SERVICE_CYCLES;
        cfg.server_queue_cap = brownout::QUEUE_CAP;
        cfg.arrivals_per_mcycle = brownout::ARRIVALS_PER_MCYCLE;
        cfg.payload_min = 64;
        cfg.payload_max = 96;
        cfg.policy = RetryPolicy::budgeted(brownout::TIMEOUT);
        cfg.brownout_watermark = if shedding { brownout::WATERMARK } else { 0 };
        cfg
    }

    /// The §6 RPC data transfer: one client moving full 1460-byte
    /// frames to one server with `threads` calls outstanding, each a
    /// Topaz thread making synchronous calls. The server runs one call
    /// at a time, the serial bottleneck, for 2.5 ms on average. The
    /// client always has a call waiting: arrivals come faster than
    /// twice the one-thread call rate, and the timeout never fires.
    pub fn rpc_transfer(threads: usize, seed: u64) -> Self {
        const PAYLOAD: u32 = 1_460;
        let mut cfg = FleetConfig::serving(1, 1, seed);
        cfg.server_threads = 1;
        // The mean service time is (service_cycles + payload / 4)
        // · 17/16, its jitter uniform in 0..=base/8: 25,000 cycles.
        cfg.service_cycles = 25_000 * 16 / 17 - u64::from(PAYLOAD) / 4;
        cfg.payload_min = PAYLOAD;
        cfg.payload_max = PAYLOAD;
        cfg.arrivals_per_mcycle = 100;
        cfg.policy = RetryPolicy::naive(50_000_000);
        cfg.policy.max_outstanding = threads;
        cfg.policy.queue_cap = 16;
        cfg
    }

    /// The segment a fleet of this shape attaches to: one NIC per
    /// machine, servers first.
    fn segment_config(&self) -> SegmentConfig {
        let mut seg = SegmentConfig::new(self.servers + self.clients);
        seg.tx_ring = self.tx_ring;
        seg.rx_ring = self.rx_ring;
        seg.seed = self.seed;
        seg.faults = self.faults;
        seg
    }

    fn validate(&self) {
        assert!(self.servers >= 1, "fleet needs at least one server");
        assert!(self.clients >= 1, "fleet needs at least one client");
        assert!(self.arrivals_per_mcycle >= 1, "arrival rate must be positive");
        assert!(self.payload_min >= 1, "payloads must be non-empty");
        assert!(self.payload_min <= self.payload_max, "payload range inverted");
        assert!(self.pareto_alpha_x1000 >= 1, "Pareto exponent must be positive");
    }
}

/// Goodput in Mb/s: acknowledged payload bits over a cycle window, on
/// the 100 ns grid (1 bit/cycle = 10 Mb/s, the nominal Ethernet rate;
/// the simulated wire carries 0.8 bit/cycle).
pub fn goodput_mbps(payload_bytes: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        payload_bytes as f64 * 8.0 / cycles as f64 * 10.0
    }
}

/// Exponential inter-arrival sample for a Poisson process of
/// `per_mcycle` events per million cycles, quantized up to ≥ 1 cycle.
fn sample_interarrival(rng: &mut SmallRng, per_mcycle: u64) -> u64 {
    let u: f64 = rng.gen();
    let dt = -(1.0 - u).ln() * 1_000_000.0 / per_mcycle as f64;
    (dt.ceil() as u64).clamp(1, 100_000_000)
}

/// Bounded-Pareto payload sample: heavy-tailed above `min`, clipped to
/// `max`.
fn sample_payload(rng: &mut SmallRng, min: u32, max: u32, alpha_x1000: u32) -> u32 {
    let u: f64 = rng.gen();
    let alpha = f64::from(alpha_x1000) / 1_000.0;
    let x = f64::from(min) / (1.0 - u).powf(1.0 / alpha);
    if x >= f64::from(max) {
        max
    } else {
        (x as u32).max(min)
    }
}

/// One client machine: its RPC endpoint plus the open-loop load
/// generator that drives it.
#[derive(Debug)]
struct ClientHost {
    rpc: RpcClient,
    arrivals: SmallRng,
    /// Per-call priority stream, separate from `arrivals` so enabling
    /// priorities perturbs neither arrival times nor payload sizes.
    priorities: SmallRng,
    next_arrival: u64,
}

impl ClientHost {
    fn new(cfg: &FleetConfig, idx: usize) -> Self {
        let nic = (cfg.servers + idx) as u32;
        let servers: Vec<u32> = (0..cfg.servers as u32).collect();
        let rpc_seed = cfg.seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(u64::from(nic) + 1);
        let arrival_seed = cfg.seed ^ 0xd1b5_4a32_d192_ed03_u64.wrapping_mul(u64::from(nic) + 1);
        let prio_seed = cfg.seed ^ 0x94d0_49bb_1331_11eb_u64.wrapping_mul(u64::from(nic) + 1);
        let mut arrivals = SmallRng::seed_from_u64(arrival_seed);
        let next_arrival = sample_interarrival(&mut arrivals, cfg.arrivals_per_mcycle);
        ClientHost {
            rpc: RpcClient::new(nic, servers, cfg.policy, rpc_seed),
            arrivals,
            priorities: SmallRng::seed_from_u64(prio_seed),
            next_arrival,
        }
    }

    fn tick(&mut self, now: u64, cfg: &FleetConfig, seg: &mut EtherSegment) {
        while self.next_arrival <= now {
            let bytes = sample_payload(
                &mut self.arrivals,
                cfg.payload_min,
                cfg.payload_max,
                cfg.pareto_alpha_x1000,
            );
            let priority = (self.priorities.gen::<u32>() >> 24) as u8;
            self.rpc.submit_with_priority(now, bytes, priority);
            self.next_arrival += sample_interarrival(&mut self.arrivals, cfg.arrivals_per_mcycle);
        }
        self.rpc.tick(now, seg);
    }

    /// The next cycle after `now` at which [`tick`](ClientHost::tick)
    /// does more than count a refused enqueue, given the segment does
    /// not tick first: the next arrival or the endpoint's own next
    /// event.
    fn next_event(&self, now: u64, seg: &EtherSegment) -> u64 {
        self.rpc.next_event(now, seg).min(self.next_arrival)
    }

    /// Runs a [`replayable`](RpcClient::replayable) client from `now`
    /// through `until` with the segment not ticking, as stepping would:
    /// a tick at each of its own events, and between them, while it is
    /// ring-blocked, one credited refusal per cycle.
    fn replay(
        &mut self,
        now: u64,
        until: u64,
        cfg: &FleetConfig,
        seg: &mut EtherSegment,
        engine: &mut FleetEngineStats,
    ) {
        let mut at = now;
        loop {
            let event = self.next_event(at, seg);
            let quiet = event.min(until + 1) - 1 - at;
            if quiet > 0 && self.rpc.ring_blocked(seg) {
                self.rpc.credit_refusals(quiet, seg);
                engine.credited_refusals += quiet;
            }
            if event > until {
                return;
            }
            self.tick(event, cfg, seg);
            engine.replayed_ticks += 1;
            at = event;
        }
    }
}

firefly_core::snap_struct!(ClientHost { rpc, arrivals, priorities, next_arrival });

/// Fleet-wide aggregate counters and latency quantiles, serializable to
/// JSON for benches and equivalence checks.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct FleetReport {
    /// Fleet cycle at report time.
    pub cycle: u64,
    /// Acknowledged calls across all clients.
    pub acked: u64,
    /// Calls abandoned after exhausting the retry budget.
    pub failed: u64,
    /// Submissions shed at the client backlog cap.
    pub shed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Per-call timeouts fired.
    pub timeouts: u64,
    /// Calls failed fast by open circuit breakers (no wire traffic).
    pub fast_failed: u64,
    /// Calls terminated by an explicit server `Shed` reply.
    pub shed_replies: u64,
    /// Calls bounced by a stale server epoch and re-issued fresh.
    pub rebinds: u64,
    /// Always 0: no client sends hedge copies. Kept so the reports
    /// that name it stay as they were.
    pub hedges: u64,
    /// Acknowledged request payload bytes (the goodput numerator).
    pub acked_payload_bytes: u64,
    /// Acknowledgements that met the timeliness SLA.
    pub acked_timely: u64,
    /// Whole-run goodput in Mb/s.
    pub goodput_mbps: f64,
    /// Median acknowledged-call latency, in cycles.
    pub p50: u64,
    /// 99th-percentile latency, in cycles.
    pub p99: u64,
    /// 99.9th-percentile latency, in cycles.
    pub p999: u64,
    /// First-time executions across all servers.
    pub server_executed: u64,
    /// Duplicate requests answered from reply caches.
    pub server_dup_cache_hits: u64,
    /// Requests shed at server run queues (silently dropped).
    pub server_shed: u64,
    /// Requests rejected with explicit brownout `Shed` replies.
    pub server_shed_replied: u64,
    /// Stale-epoch requests bounced with `Rebind`.
    pub server_rebinds_sent: u64,
    /// Reply-cache evictions refused to protect at-most-once.
    pub server_evictions_refused: u64,
    /// CSMA/CD collisions on the segment.
    pub collisions: u64,
    /// Frames carried by the wire.
    pub frames_sent: u64,
    /// Frames rejected by receiver CRC (corruption faults).
    pub crc_rejects: u64,
    /// Frames lost to injected drops.
    pub fault_drops: u64,
    /// Fraction of cycles the wire was busy.
    pub wire_utilization: f64,
    /// Servers still online.
    pub online_servers: usize,
}

/// How many events a fleet's [`EventRing`] retains. A run emits only a
/// few (one per server crash or revival), so nothing is dropped in
/// practice; past the bound the ring keeps the newest.
pub const EVENT_CAPACITY: usize = 4_096;

firefly_core::counters! {
    /// How [`Fleet::run_until`] spent a run: host-side bookkeeping of
    /// the skipping engine, not simulated state. They are never
    /// snapshotted, and [`Fleet::step`] counts none of them.
    pub struct FleetEngineStats {
        /// Cycles stepped one at a time: a segment tick and the
        /// endpoints due in it.
        pub steps: u64,
        /// Jumps over cycles in which no endpoint was due.
        pub jumps: u64,
        /// Cycles those jumps crossed.
        pub cycles_jumped: u64,
        /// Refused enqueues credited to ring-blocked senders in place
        /// of the ticks they slept through.
        pub credited_refusals: u64,
        /// Client ticks run inside jumps by replayable clients.
        pub replayed_ticks: u64,
    }
}

/// N simulated Fireflies on one Ethernet segment: a server tier, a
/// client tier, and the wire between them.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    segment: EtherSegment,
    servers: Vec<RpcServer>,
    clients: Vec<ClientHost>,
    events: EventRing,
    engine: FleetEngineStats,
}

impl Fleet {
    /// Builds a fleet at cycle zero from its config.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (no servers, no clients, zero
    /// arrival rate, empty or inverted payload range).
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate();
        let segment = EtherSegment::new(cfg.segment_config());
        let servers: Vec<RpcServer> = (0..cfg.servers)
            .map(|i| {
                let seed = cfg.seed ^ 0xa076_1d64_78bd_642f_u64.wrapping_mul(i as u64 + 1);
                let mut s = RpcServer::new(i as u32, cfg.server_threads, cfg.service_cycles, seed);
                s.set_queue_cap(cfg.server_queue_cap);
                s.set_cache_per_client(cfg.reply_cache_per_client);
                s.set_slowdown(cfg.slowdown.map(|w| (w.from, w.until, w.factor)));
                s.set_brownout(cfg.brownout_watermark);
                s
            })
            .collect();
        let clients: Vec<ClientHost> = (0..cfg.clients).map(|i| ClientHost::new(&cfg, i)).collect();
        Fleet {
            cfg,
            segment,
            servers,
            clients,
            events: EventRing::new(EVENT_CAPACITY),
            engine: FleetEngineStats::default(),
        }
    }

    /// The fleet's config.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Current fleet cycle: the segment's clock.
    pub fn cycle(&self) -> u64 {
        self.segment.cycle()
    }

    /// Advances the fleet one cycle: wire first, then servers, then
    /// clients — a fixed order so runs are deterministic. This is the
    /// reference that [`run_until`](Fleet::run_until)'s skips must match.
    pub fn step(&mut self) {
        self.segment.tick();
        let now = self.segment.cycle();
        for (i, s) in self.servers.iter_mut().enumerate() {
            if self.segment.is_online(i) {
                s.tick(now, &mut self.segment);
            }
        }
        let cfg = self.cfg;
        for c in &mut self.clients {
            c.tick(now, &cfg, &mut self.segment);
        }
    }

    /// Runs `cycles` additional cycles.
    pub fn run(&mut self, cycles: u64) {
        self.run_until(self.cycle() + cycles);
    }

    /// Runs until the fleet cycle reaches `target` (no-op if already
    /// there). Bit-identical to calling [`step`](Fleet::step) until
    /// then, but each cycle ticks only the endpoints due in it, and
    /// after each such step the clock jumps straight to the cycle before
    /// the fleet's next event.
    ///
    /// An endpoint that is not due would, on its tick, either do nothing
    /// or, while it is *ring-blocked* (a sender whose TX ring refuses
    /// it: [`RpcClient::ring_blocked`], [`RpcServer::ring_blocked`]),
    /// only have one enqueue refused and counted. So it is not ticked:
    /// a blocked one is credited one refusal per cycle it sleeps
    /// through, in one add for a whole jump. Its ring can free only at a
    /// segment event, which ends any jump, and whether it is due is
    /// read afresh after every segment tick.
    ///
    /// A [`replayable`](RpcClient::replayable) client (its ring refuses
    /// it and its RX ring is empty) does not bound a jump at all: a
    /// client touches the segment only through its own NIC's rings and
    /// the refusal counter, so until the segment's next event every
    /// enqueue it tries is refused and nothing it reads can change. It
    /// is run through its own timers and arrivals inside the jump,
    /// eagerly, and left at the jump's last cycle like every other
    /// endpoint. Every wake is derived from state, none stored, so a
    /// snapshot needs no engine section.
    pub fn run_until(&mut self, target: u64) {
        while self.cycle() < target {
            self.step_due();
            let idle_until = (self.next_event() - 1).min(target);
            if idle_until > self.cycle() {
                self.engine.jumps += 1;
                self.engine.cycles_jumped += idle_until - self.cycle();
                self.sleep_until(idle_until);
                self.segment.skip_to(idle_until);
            }
        }
    }

    /// [`step`](Fleet::step), ticking only the endpoints due in the new
    /// cycle and crediting each ring-blocked one that is not due its
    /// single refusal.
    fn step_due(&mut self) {
        self.segment.tick();
        let now = self.segment.cycle();
        self.engine.steps += 1;
        let seg = &mut self.segment;
        for (i, s) in self.servers.iter_mut().enumerate() {
            if !seg.is_online(i) {
                continue;
            }
            if s.next_event(now - 1, seg) <= now {
                s.tick(now, seg);
            } else if s.ring_blocked(seg) {
                s.credit_refusals(1, seg);
                self.engine.credited_refusals += 1;
            }
        }
        let cfg = self.cfg;
        for c in &mut self.clients {
            if c.next_event(now - 1, seg) <= now {
                c.tick(now, &cfg, seg);
            } else if c.rpc.ring_blocked(seg) {
                c.rpc.credit_refusals(1, seg);
                self.engine.credited_refusals += 1;
            }
        }
    }

    /// Brings every live endpoint from the current cycle to `until`, a
    /// jump's last cycle, with the segment not ticking: each
    /// ring-blocked server is credited its refusals and each replayable
    /// client is [`replay`](ClientHost::replay)ed. No other endpoint is
    /// due or blocked before the jump ends.
    fn sleep_until(&mut self, until: u64) {
        let (now, seg) = (self.segment.cycle(), &mut self.segment);
        let cycles = until - now;
        for (i, s) in self.servers.iter().enumerate() {
            if seg.is_online(i) && s.ring_blocked(seg) {
                s.credit_refusals(cycles, seg);
                self.engine.credited_refusals += cycles;
            }
        }
        let cfg = self.cfg;
        for c in &mut self.clients {
            if c.rpc.replayable(seg) {
                c.replay(now, until, &cfg, seg, &mut self.engine);
            } else {
                debug_assert!(!c.rpc.ring_blocked(seg), "a blocked client left out of a jump");
            }
        }
    }

    /// What [`run_until`](Fleet::run_until) has done on this fleet so
    /// far: steps, jumps, cycles jumped and credited refusals. Host-side
    /// only: a loaded snapshot neither carries nor resets them.
    pub fn engine_stats(&self) -> FleetEngineStats {
        self.engine
    }

    /// The next cycle at which a step does more than advance the clock,
    /// credit ring-blocked senders and replay replayable clients: the
    /// earliest of the segment's next event and each live endpoint's
    /// (which is the next cycle for an endpoint with frames in its RX
    /// ring), leaving out every [`replayable`](RpcClient::replayable)
    /// client, which touches the segment only through its own NIC's
    /// rings and the refusal counter and so runs inside the jump. A
    /// ring-blocked server's own event is its next job completion; its
    /// ring frees only at a segment event. Partition and slowdown edges
    /// are no wake-ups: they are read only at frame delivery and at job
    /// start, which are events already. Breakers are lazy in `now` and
    /// consulted only inside those actions.
    fn next_event(&self) -> u64 {
        let (now, seg) = (self.segment.cycle(), &self.segment);
        let servers = (self.servers.iter().enumerate())
            .filter(|&(i, _)| seg.is_online(i))
            .map(|(_, s)| s.next_event(now, seg));
        let clients = (self.clients.iter())
            .filter(|c| !c.rpc.replayable(seg))
            .map(|c| c.next_event(now, seg));
        let mut events = servers.chain(clients);
        let mut at = self.segment.next_event();
        while at > now + 1 {
            match events.next() {
                Some(event) => at = at.min(event),
                None => break,
            }
        }
        at
    }

    /// Crashes server `i` mid-run: its NIC goes offline (rings dropped,
    /// in-flight frames to it are lost) and it stops executing. Its
    /// execution ledger is retained for the at-most-once oracle.
    pub fn kill_server(&mut self, i: usize) {
        assert!(i < self.cfg.servers, "no such server");
        if self.segment.is_online(i) {
            self.segment.set_online(i, false);
            self.emit(EventKind::ServerCrashed { server: i as u32 });
        }
    }

    /// Revives a crashed server: a deterministic cold restart. The
    /// machine comes back under a **fresh epoch** with an empty run
    /// queue and reply cache (its execution ledger survives for the
    /// at-most-once oracle), and its NIC re-attaches with drained
    /// rings. Requests still carrying the old epoch are bounced with
    /// `Rebind` rather than executed, so a revived server can never
    /// double-execute a call it already served before the crash.
    /// No-op if the server is already online.
    pub fn revive_server(&mut self, i: usize) {
        assert!(i < self.cfg.servers, "no such server");
        if !self.segment.is_online(i) {
            self.servers[i].restart();
            self.segment.set_online(i, true);
            let epoch = self.servers[i].epoch();
            self.emit(EventKind::ServerRevived { server: i as u32, epoch });
        }
    }

    /// True while server `i` is alive: its NIC is on the segment.
    pub fn server_online(&self, i: usize) -> bool {
        self.segment.is_online(i)
    }

    /// Restart epoch of server `i` (0 = never restarted).
    pub fn server_epoch(&self, i: usize) -> u32 {
        self.servers[i].epoch()
    }

    /// Circuit-breaker state of `client`'s breaker for server slot
    /// `slot` (`None` when the policy runs without breakers).
    pub fn breaker_state(&self, client: usize, slot: usize) -> Option<BreakerState> {
        self.clients[client].rpc.breaker_state(slot)
    }

    /// Total open episodes across `client`'s breakers — how many times
    /// any of them tripped over the whole run (0 with breakers off).
    pub fn breaker_opens(&self, client: usize) -> u64 {
        (0..self.cfg.servers)
            .filter_map(|s| self.clients[client].rpc.breaker_stats(s))
            .map(|st| st.opened)
            .sum()
    }

    /// How many of `client`'s per-server breakers are *not* closed —
    /// the observable the partition gates sample mid-split.
    pub fn open_breakers(&self, client: usize) -> usize {
        (0..self.cfg.servers)
            .filter(|&s| {
                matches!(
                    self.clients[client].rpc.breaker_state(s),
                    Some(BreakerState::Open | BreakerState::HalfOpen)
                )
            })
            .count()
    }

    /// Number of servers currently alive.
    pub fn online_servers(&self) -> usize {
        (0..self.cfg.servers).filter(|&i| self.segment.is_online(i)).count()
    }

    fn emit(&mut self, kind: EventKind) {
        self.events.emit(Event { cycle: self.cycle(), kind });
    }

    /// Retained events (server crashes and revivals), oldest first. The
    /// ring holds the newest [`EVENT_CAPACITY`] of them.
    pub fn events(&self) -> Vec<Event> {
        self.events.snapshot()
    }

    /// Wire-level counters.
    pub fn segment_stats(&self) -> SegmentStats {
        self.segment.stats()
    }

    /// Counters for server `i` (valid for crashed servers too).
    pub fn server_stats(&self, i: usize) -> RpcServerStats {
        self.servers[i].stats()
    }

    /// Counters for client `i`.
    pub fn client_stats(&self, i: usize) -> RpcClientStats {
        self.clients[i].rpc.stats()
    }

    /// Client `i`'s RPC endpoint, for inspection.
    pub fn client(&self, i: usize) -> &RpcClient {
        &self.clients[i].rpc
    }

    /// The segment, for inspection.
    pub fn segment(&self) -> &EtherSegment {
        &self.segment
    }

    /// Total acknowledged request payload bytes across all clients —
    /// the goodput numerator. Sampled at window edges by the scenario
    /// runners.
    pub fn acked_payload_bytes(&self) -> u64 {
        self.client_totals().acked_payload_bytes
    }

    /// Acknowledged payload bytes that met the timeliness SLA
    /// (submission → ack within [`firefly_net::rpc::TIMELY_SLA_TIMEOUTS`]
    /// timeouts). The *useful*-goodput numerator: late acks drain
    /// backlog but serve nobody.
    pub fn acked_timely_bytes(&self) -> u64 {
        self.client_totals().acked_timely_bytes
    }

    /// Client counters summed over every client.
    fn client_totals(&self) -> RpcClientStats {
        self.clients.iter().map(|c| c.rpc.stats()).sum()
    }

    /// Merged acknowledged-call latency histogram across all clients.
    pub fn latency(&self) -> Histogram {
        let mut h = Histogram::default();
        for c in &self.clients {
            h += *c.rpc.latency();
        }
        h
    }

    /// Checks the at-most-once contract. Returns one line per
    /// violation (empty = clean):
    ///
    /// * no client completed the same call twice;
    /// * every acknowledged call is backed by an execution on the
    ///   acking server;
    /// * no server executed the same `(client, seq)` more than once.
    pub fn check_at_most_once(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for c in &self.clients {
            let nic = c.rpc.nic();
            let mut seen = BTreeSet::new();
            for &(seq, server) in c.rpc.completions() {
                if !seen.insert(seq) {
                    violations.push(format!("client {nic} completed seq {seq} twice"));
                }
                let backed = (server as usize) < self.servers.len()
                    && self.servers[server as usize].executions().contains_key(&(nic, seq));
                if !backed {
                    violations.push(format!(
                        "client {nic} seq {seq} acked by server {server} with no execution"
                    ));
                }
            }
        }
        for s in &self.servers {
            for (&(client, seq), &n) in s.executions() {
                if n > 1 {
                    violations.push(format!(
                        "server {} executed client {client} seq {seq} {n} times",
                        s.nic()
                    ));
                }
            }
        }
        violations
    }

    /// Aggregate counters and latency quantiles for the whole run.
    pub fn report(&self) -> FleetReport {
        let c = self.client_totals();
        let s: RpcServerStats = self.servers.iter().map(RpcServer::stats).sum();
        let seg = self.segment.stats();
        let lat = self.latency();
        FleetReport {
            cycle: self.cycle(),
            acked: c.acked,
            failed: c.failed,
            shed: c.shed,
            retries: c.retries,
            timeouts: c.timeouts,
            fast_failed: c.fast_failed,
            shed_replies: c.shed_replies,
            rebinds: c.rebinds,
            hedges: c.hedges,
            acked_payload_bytes: c.acked_payload_bytes,
            acked_timely: c.acked_timely,
            goodput_mbps: goodput_mbps(c.acked_payload_bytes, self.cycle()),
            p50: lat.quantile(0.50),
            p99: lat.quantile(0.99),
            p999: lat.quantile(0.999),
            server_executed: s.executed,
            server_dup_cache_hits: s.dup_cache_hits,
            server_shed: s.shed,
            server_shed_replied: s.shed_replied,
            server_rebinds_sent: s.rebinds_sent,
            server_evictions_refused: s.evictions_refused,
            collisions: seg.collisions,
            frames_sent: seg.frames_sent,
            crc_rejects: seg.crc_rejects,
            fault_drops: seg.fault_drops,
            wire_utilization: if self.cycle() == 0 {
                0.0
            } else {
                seg.wire_busy_cycles as f64 / self.cycle() as f64
            },
            online_servers: self.online_servers(),
        }
    }

    /// The report as canonical JSON — the fleet's observable state for
    /// equivalence checks (jobs-width invariance, resume bit-identity).
    pub fn stats_json(&self) -> String {
        self.report().to_json()
    }

    /// Serializes the entire fleet — wire, every machine, every RNG
    /// stream, the event ring — into one FFSN container nesting
    /// per-machine sections.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        b.section("fleet/meta", |w| {
            w.str(&self.cfg.to_json());
            self.events.save(w);
        });
        b.section("fleet/segment", |w| self.segment.save(w));
        for (i, s) in self.servers.iter().enumerate() {
            b.section(&format!("fleet/server{i}"), |w| s.save(w));
        }
        for (i, c) in self.clients.iter().enumerate() {
            b.section(&format!("fleet/client{i}"), |w| w.put(c));
        }
        b.finish()
    }

    /// Restores a snapshot taken from a fleet with the *same config*
    /// into this one. On success the fleet is bit-identical to the
    /// checkpointed one; on error it is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] if the container is damaged,
    /// a section is missing or trailing, the embedded config does not
    /// match this fleet's, a nested section belongs to another fleet
    /// shape (segment config, server NIC or thread count, client NIC or
    /// server list), or the segment has a client NIC offline.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), Error> {
        let file = SnapshotFile::parse(bytes)?;
        let mut meta = file.section("fleet/meta")?;
        if meta.str()? != self.cfg.to_json() {
            return Err(Error::SnapshotCorrupt("fleet config mismatch".into()));
        }
        let mut events = EventRing::new(EVENT_CAPACITY);
        events.load_state(&mut meta)?;
        meta.expect_end()?;
        let mut seg = file.section("fleet/segment")?;
        let segment = EtherSegment::load(&mut seg)?;
        seg.expect_end()?;
        // Each nested section must be this fleet's own: a foreign one
        // can be self-consistent yet index past this fleet's NICs.
        if *segment.config() != self.cfg.segment_config() {
            return Err(Error::SnapshotCorrupt("fleet segment config mismatch".into()));
        }
        // Only `kill_server` and `revive_server` toggle a NIC, and only a
        // server's: client NICs never go offline.
        let mut client_nics = self.cfg.servers..self.cfg.servers + self.cfg.clients;
        if let Some(nic) = client_nics.find(|&nic| !segment.is_online(nic)) {
            return Err(Error::SnapshotCorrupt(format!("fleet client NIC {nic} is offline")));
        }
        let mut servers = Vec::with_capacity(self.cfg.servers);
        for i in 0..self.cfg.servers {
            let mut r = file.section(&format!("fleet/server{i}"))?;
            let server = RpcServer::load(&mut r)?;
            r.expect_end()?;
            if server.nic() as usize != i || server.threads() != self.cfg.server_threads {
                return Err(Error::SnapshotCorrupt(format!("fleet/server{i} is not server {i}")));
            }
            servers.push(server);
        }
        let server_nics = 0..self.cfg.servers as u32;
        let mut clients = Vec::with_capacity(self.cfg.clients);
        for i in 0..self.cfg.clients {
            let mut r = file.section(&format!("fleet/client{i}"))?;
            let client: ClientHost = r.get()?;
            r.expect_end()?;
            if client.rpc.nic() as usize != self.cfg.servers + i
                || !client.rpc.servers().iter().copied().eq(server_nics.clone())
            {
                return Err(Error::SnapshotCorrupt(format!("fleet/client{i} is not client {i}")));
            }
            clients.push(client);
        }
        self.segment = segment;
        self.servers = servers;
        self.clients = clients;
        self.events = events;
        Ok(())
    }
}

/// Outcome of one retry-storm run: goodput in the baseline, slowdown
/// and post-heal recovery windows, plus the counters that explain the
/// mechanism.
#[derive(Clone, Default, PartialEq, Debug, Serialize)]
pub struct StormOutcome {
    /// True for the naive discipline, false for the budgeted one.
    pub naive: bool,
    /// *Timely* goodput over the pre-slowdown baseline window, Mb/s
    /// (acks within the SLA; at baseline effectively all of them).
    pub baseline_mbps: f64,
    /// Timely goodput while the service tier is slow, Mb/s.
    pub storm_mbps: f64,
    /// Timely goodput over the post-heal recovery window, Mb/s. Late
    /// acks that merely drain the storm backlog do not count — a burst
    /// of million-cycle-old replies is not a recovered service.
    pub recovery_mbps: f64,
    /// `recovery_mbps / baseline_mbps` — the headline metric.
    pub recovery_fraction: f64,
    /// Raw (SLA-blind) goodput over the recovery window, Mb/s, for
    /// comparison with `recovery_mbps`.
    pub recovery_raw_mbps: f64,
    /// Acknowledged calls.
    pub acked: u64,
    /// Calls abandoned after the retry budget.
    pub failed: u64,
    /// Submissions shed at the client backlog cap.
    pub shed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// CSMA/CD collisions.
    pub collisions: u64,
    /// Duplicate requests absorbed by server reply caches.
    pub dup_cache_hits: u64,
    /// Median acknowledged latency, cycles.
    pub p50: u64,
    /// 99th-percentile latency, cycles.
    pub p99: u64,
    /// 99.9th-percentile latency, cycles.
    pub p999: u64,
    /// At-most-once oracle violations (must be zero).
    pub oracle_violations: usize,
}

/// Runs the retry-storm experiment to completion. Deterministic in
/// `(seed, naive)`.
pub fn run_retry_storm(seed: u64, naive: bool) -> StormOutcome {
    let mut fleet = Fleet::new(FleetConfig::retry_storm(seed, naive));
    fleet.run_until(storm::BASE_FROM);
    let b0 = fleet.acked_timely_bytes();
    fleet.run_until(storm::BASE_UNTIL);
    let b1 = fleet.acked_timely_bytes();
    fleet.run_until(storm::SLOW_UNTIL);
    let s1 = fleet.acked_timely_bytes();
    fleet.run_until(storm::RECOVERY_FROM);
    let r0 = fleet.acked_timely_bytes();
    let r0_raw = fleet.acked_payload_bytes();
    fleet.run_until(storm::RECOVERY_UNTIL);
    let r1 = fleet.acked_timely_bytes();
    let r1_raw = fleet.acked_payload_bytes();
    let recovery_span = storm::RECOVERY_UNTIL - storm::RECOVERY_FROM;
    let baseline_mbps = goodput_mbps(b1 - b0, storm::BASE_UNTIL - storm::BASE_FROM);
    let recovery_mbps = goodput_mbps(r1 - r0, recovery_span);
    let report = fleet.report();
    StormOutcome {
        naive,
        baseline_mbps,
        storm_mbps: goodput_mbps(s1 - b1, storm::SLOW_UNTIL - storm::SLOW_FROM),
        recovery_mbps,
        recovery_fraction: if baseline_mbps > 0.0 { recovery_mbps / baseline_mbps } else { 0.0 },
        recovery_raw_mbps: goodput_mbps(r1_raw - r0_raw, recovery_span),
        acked: report.acked,
        failed: report.failed,
        shed: report.shed,
        retries: report.retries,
        timeouts: report.timeouts,
        collisions: report.collisions,
        dup_cache_hits: report.server_dup_cache_hits,
        p50: report.p50,
        p99: report.p99,
        p999: report.p999,
        oracle_violations: fleet.check_at_most_once().len(),
    }
}

/// Outcome of one §6 RPC data transfer ([`run_rpc_transfer`]).
#[derive(Copy, Clone, PartialEq, Debug, Serialize)]
pub struct TransferOutcome {
    /// Calls the client kept outstanding.
    pub threads: usize,
    /// Calls acknowledged.
    pub calls: u64,
    /// Cycles the transfer took.
    pub cycles: u64,
    /// Acknowledged payload over those cycles, Mb/s.
    pub goodput_mbps: f64,
    /// Calls outstanding, sampled every 10,000 cycles and averaged.
    pub mean_outstanding: f64,
}

/// Runs [`FleetConfig::rpc_transfer`] with `threads` outstanding calls
/// until at least `calls` are acknowledged, checking at each sample of
/// the outstanding count. Deterministic in `(threads, calls, seed)`.
pub fn run_rpc_transfer(threads: usize, calls: u64, seed: u64) -> TransferOutcome {
    const SAMPLE_CYCLES: u64 = 10_000;
    let mut fleet = Fleet::new(FleetConfig::rpc_transfer(threads, seed));
    let (mut samples, mut outstanding) = (0u64, 0u64);
    while fleet.client_stats(0).acked < calls {
        fleet.run(SAMPLE_CYCLES);
        samples += 1;
        outstanding += fleet.client(0).outstanding() as u64;
    }
    TransferOutcome {
        threads,
        calls: fleet.client_stats(0).acked,
        cycles: fleet.cycle(),
        goodput_mbps: goodput_mbps(fleet.acked_payload_bytes(), fleet.cycle()),
        mean_outstanding: outstanding as f64 / samples.max(1) as f64,
    }
}

/// Goodput after a fleet event (a kill, a heal, a revive), from
/// [`post_event_windows`].
struct PostEvent {
    /// Goodput of each window, Mb/s, in order.
    windows_mbps: Vec<f64>,
    /// Cycles from the event until a window first reached the threshold
    /// (`None` = never).
    recovery_cycles: Option<u64>,
    /// Goodput over the second half of the span measured as one wide
    /// window: the individual 200k-cycle windows hold only a few dozen
    /// calls each and are too noisy for a gate.
    settled_mbps: f64,
}

/// Runs `fleet` from its current cycle (the event) to `end` in
/// `window`-cycle steps, sampling the goodput numerator `bytes` at each
/// window edge, and finds the first window at or above `threshold_mbps`.
fn post_event_windows(
    fleet: &mut Fleet,
    bytes: fn(&Fleet) -> u64,
    window: u64,
    end: u64,
    threshold_mbps: f64,
) -> PostEvent {
    let mid = fleet.cycle() + (end - fleet.cycle()) / 2;
    let mut windows_mbps = Vec::new();
    let mut prev = bytes(fleet);
    let mut mid_bytes = prev;
    let mut t = fleet.cycle();
    while t < end {
        t += window;
        fleet.run_until(t);
        let cur = bytes(fleet);
        windows_mbps.push(goodput_mbps(cur - prev, window));
        prev = cur;
        if t == mid {
            mid_bytes = cur;
        }
    }
    let recovery_cycles =
        windows_mbps.iter().position(|&g| g >= threshold_mbps).map(|i| (i as u64 + 1) * window);
    PostEvent {
        windows_mbps,
        recovery_cycles,
        settled_mbps: goodput_mbps(prev - mid_bytes, end - mid),
    }
}

/// Outcome of one machine-crash run: goodput before the kill, the
/// post-kill window trajectory, and how long the fleet took to get back
/// to 80% of baseline on N−1 servers.
#[derive(Clone, Default, PartialEq, Debug, Serialize)]
pub struct CrashOutcome {
    /// Goodput over the pre-kill baseline window, Mb/s.
    pub baseline_mbps: f64,
    /// Goodput over the final post-kill window span, Mb/s.
    pub degraded_mbps: f64,
    /// `degraded_mbps / baseline_mbps` — graceful degradation metric.
    pub degraded_fraction: f64,
    /// Cycles from the kill until a [`crash::WINDOW`]-sized window first
    /// reached 80% of baseline goodput (`None` = never recovered).
    pub recovery_cycles: Option<u64>,
    /// Goodput of each post-kill window, Mb/s, in order.
    pub windows_mbps: Vec<f64>,
    /// Acknowledged calls.
    pub acked: u64,
    /// Calls abandoned after the retry budget.
    pub failed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Median acknowledged latency, cycles.
    pub p50: u64,
    /// 99th-percentile latency, cycles.
    pub p99: u64,
    /// At-most-once oracle violations (must be zero).
    pub oracle_violations: usize,
}

/// Runs the machine-crash failover experiment to completion.
/// Deterministic in `seed`.
pub fn run_crash_failover(seed: u64) -> CrashOutcome {
    let mut fleet = Fleet::new(FleetConfig::crash_failover(seed));
    fleet.run_until(crash::BASE_FROM);
    let b0 = fleet.acked_payload_bytes();
    fleet.run_until(crash::KILL_AT);
    let b1 = fleet.acked_payload_bytes();
    let baseline_mbps = goodput_mbps(b1 - b0, crash::KILL_AT - crash::BASE_FROM);
    fleet.kill_server(crash::VICTIM);
    let after = post_event_windows(
        &mut fleet,
        Fleet::acked_payload_bytes,
        crash::WINDOW,
        crash::END,
        0.8 * baseline_mbps,
    );
    let degraded_mbps = after.settled_mbps;
    let report = fleet.report();
    CrashOutcome {
        baseline_mbps,
        degraded_mbps,
        degraded_fraction: if baseline_mbps > 0.0 { degraded_mbps / baseline_mbps } else { 0.0 },
        recovery_cycles: after.recovery_cycles,
        windows_mbps: after.windows_mbps,
        acked: report.acked,
        failed: report.failed,
        retries: report.retries,
        p50: report.p50,
        p99: report.p99,
        oracle_violations: fleet.check_at_most_once().len(),
    }
}

/// Outcome of one partition run (single split or flapping): baseline
/// versus split goodput, what the stranded minority paid, and how fast
/// the fleet got back to baseline after the heal.
#[derive(Clone, Default, PartialEq, Debug, Serialize)]
pub struct PartitionOutcome {
    /// True under the circuit-breaker policy, false for plain budgeted
    /// retries.
    pub resilient: bool,
    /// Severed windows in the fault plan (1 = single split).
    pub severed_windows: usize,
    /// Timely goodput over the pre-split baseline window, Mb/s.
    pub baseline_mbps: f64,
    /// Timely goodput while the partition is (intermittently) open,
    /// Mb/s — the majority side keeps this near half of baseline.
    pub split_mbps: f64,
    /// Timely goodput over the second half of the post-heal span, Mb/s.
    pub recovered_mbps: f64,
    /// `recovered_mbps / baseline_mbps` — the headline heal metric.
    pub recovery_fraction: f64,
    /// Cycles from the heal until a [`partition::WINDOW`]-sized window
    /// first reached 90% of baseline (`None` = never).
    pub recovery_cycles: Option<u64>,
    /// Timely goodput of each post-heal window, Mb/s, in order.
    pub windows_mbps: Vec<f64>,
    /// Timeouts burned by the minority clients during the split.
    pub minority_split_timeouts: u64,
    /// Retransmissions sent by the minority clients during the split.
    pub minority_split_retries: u64,
    /// Calls the minority clients failed fast at open breakers during
    /// the split (0 with breakers off).
    pub minority_split_fast_fails: u64,
    /// Non-closed minority breakers sampled mid-split (out of
    /// 3 clients × 3 servers = 9; 0 with breakers off).
    pub minority_open_breakers_mid_split: usize,
    /// Non-closed minority breakers at the end of the run — healed
    /// probes should have closed them all.
    pub minority_open_breakers_at_end: usize,
    /// Open episodes across all minority breakers over the whole run.
    pub minority_breaker_opens: u64,
    /// Acknowledged calls.
    pub acked: u64,
    /// Calls abandoned after the retry budget or give-up deadline.
    pub failed: u64,
    /// Submissions shed at the client backlog cap.
    pub shed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// Calls failed fast by open breakers, fleet-wide.
    pub fast_failed: u64,
    /// Always 0: no client sends hedge copies. Kept so the reports
    /// that name it stay as they were.
    pub hedges: u64,
    /// Calls bounced by a stale epoch and re-issued.
    pub rebinds: u64,
    /// Median acknowledged latency, cycles.
    pub p50: u64,
    /// 99th-percentile latency, cycles.
    pub p99: u64,
    /// At-most-once oracle violations (must be zero).
    pub oracle_violations: usize,
}

/// Client counters summed over the minority-side clients.
fn minority_totals(fleet: &Fleet) -> RpcClientStats {
    (partition::MINORITY_FROM..fleet.config().clients).map(|c| fleet.client_stats(c)).sum()
}

fn run_partition_scenario(cfg: FleetConfig, severed_windows: usize) -> PartitionOutcome {
    let resilient = cfg.policy.breaker.is_some();
    let clients = cfg.clients;
    let mut fleet = Fleet::new(cfg);
    fleet.run_until(partition::BASE_FROM);
    let b0 = fleet.acked_timely_bytes();
    fleet.run_until(partition::SPLIT_FROM);
    let b1 = fleet.acked_timely_bytes();
    let baseline_mbps = goodput_mbps(b1 - b0, partition::SPLIT_FROM - partition::BASE_FROM);
    let minority_at_split = minority_totals(&fleet);
    let mid_split = partition::SPLIT_FROM + (partition::SPLIT_UNTIL - partition::SPLIT_FROM) / 2;
    fleet.run_until(mid_split);
    let minority_open_breakers_mid_split: usize =
        (partition::MINORITY_FROM..clients).map(|c| fleet.open_breakers(c)).sum();
    fleet.run_until(partition::SPLIT_UNTIL);
    let s1 = fleet.acked_timely_bytes();
    let minority_split = minority_totals(&fleet).delta(&minority_at_split);
    let after = post_event_windows(
        &mut fleet,
        Fleet::acked_timely_bytes,
        partition::WINDOW,
        partition::END,
        0.9 * baseline_mbps,
    );
    let recovered_mbps = after.settled_mbps;
    let report = fleet.report();
    PartitionOutcome {
        resilient,
        severed_windows,
        baseline_mbps,
        split_mbps: goodput_mbps(s1 - b1, partition::SPLIT_UNTIL - partition::SPLIT_FROM),
        recovered_mbps,
        recovery_fraction: if baseline_mbps > 0.0 { recovered_mbps / baseline_mbps } else { 0.0 },
        recovery_cycles: after.recovery_cycles,
        windows_mbps: after.windows_mbps,
        minority_split_timeouts: minority_split.timeouts,
        minority_split_retries: minority_split.retries,
        minority_split_fast_fails: minority_split.fast_failed,
        minority_open_breakers_mid_split,
        minority_open_breakers_at_end: (partition::MINORITY_FROM..clients)
            .map(|c| fleet.open_breakers(c))
            .sum(),
        minority_breaker_opens: (partition::MINORITY_FROM..clients)
            .map(|c| fleet.breaker_opens(c))
            .sum(),
        acked: report.acked,
        failed: report.failed,
        shed: report.shed,
        retries: report.retries,
        timeouts: report.timeouts,
        fast_failed: report.fast_failed,
        hedges: report.hedges,
        rebinds: report.rebinds,
        p50: report.p50,
        p99: report.p99,
        oracle_violations: fleet.check_at_most_once().len(),
    }
}

/// Runs the single-split partition-and-heal experiment to completion.
/// Deterministic in `(seed, resilient)`.
pub fn run_partition_heal(seed: u64, resilient: bool) -> PartitionOutcome {
    run_partition_scenario(FleetConfig::partition_heal(seed, resilient), 1)
}

/// Runs the flapping-partition experiment (always resilient) to
/// completion. Deterministic in `seed`.
pub fn run_flapping_partition(seed: u64) -> PartitionOutcome {
    run_partition_scenario(FleetConfig::flapping_partition(seed), partition::FLAPS)
}

/// Outcome of one kill-then-revive run: goodput through the outage and
/// after the rejoin, plus the evidence that the revived machine really
/// rejoined (fresh epoch, stale requests bounced, new work executed).
#[derive(Clone, Default, PartialEq, Debug, Serialize)]
pub struct RejoinOutcome {
    /// Goodput over the pre-kill baseline window (3 servers), Mb/s.
    pub baseline_mbps: f64,
    /// Goodput while the victim is down (2 servers), Mb/s.
    pub outage_mbps: f64,
    /// Goodput over the second half of the post-revive span, Mb/s.
    pub recovered_mbps: f64,
    /// `recovered_mbps / baseline_mbps` — the rejoin headline.
    pub recovery_fraction: f64,
    /// Cycles from the revive until a [`rejoin::WINDOW`]-sized window
    /// first reached 90% of baseline (`None` = never).
    pub recovery_cycles: Option<u64>,
    /// Goodput of each post-revive window, Mb/s, in order.
    pub windows_mbps: Vec<f64>,
    /// The victim's epoch after the revive (1 = restarted once).
    pub victim_epoch: u32,
    /// First-time executions on the victim *after* the revive — proof
    /// it rejoined the serving rotation.
    pub victim_executed_after_revive: u64,
    /// Client calls bounced by the victim's fresh epoch and re-issued.
    pub rebinds: u64,
    /// Calls failed fast at open breakers while the victim was down.
    pub fast_failed: u64,
    /// Acknowledged calls.
    pub acked: u64,
    /// Calls abandoned after the retry budget or give-up deadline.
    pub failed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// At-most-once oracle violations (must be zero).
    pub oracle_violations: usize,
}

/// Runs the kill-then-revive experiment to completion. Deterministic
/// in `seed`.
pub fn run_rejoin(seed: u64) -> RejoinOutcome {
    let mut fleet = Fleet::new(FleetConfig::rejoin_after_crash(seed));
    fleet.run_until(rejoin::BASE_FROM);
    let b0 = fleet.acked_payload_bytes();
    fleet.run_until(rejoin::KILL_AT);
    let b1 = fleet.acked_payload_bytes();
    let baseline_mbps = goodput_mbps(b1 - b0, rejoin::KILL_AT - rejoin::BASE_FROM);
    fleet.kill_server(rejoin::VICTIM);
    fleet.run_until(rejoin::REVIVE_AT);
    let o1 = fleet.acked_payload_bytes();
    let outage_mbps = goodput_mbps(o1 - b1, rejoin::REVIVE_AT - rejoin::KILL_AT);
    fleet.revive_server(rejoin::VICTIM);
    let victim_executed_at_revive = fleet.server_stats(rejoin::VICTIM).executed;
    let after = post_event_windows(
        &mut fleet,
        Fleet::acked_payload_bytes,
        rejoin::WINDOW,
        rejoin::END,
        0.9 * baseline_mbps,
    );
    let recovered_mbps = after.settled_mbps;
    let report = fleet.report();
    RejoinOutcome {
        baseline_mbps,
        outage_mbps,
        recovered_mbps,
        recovery_fraction: if baseline_mbps > 0.0 { recovered_mbps / baseline_mbps } else { 0.0 },
        recovery_cycles: after.recovery_cycles,
        windows_mbps: after.windows_mbps,
        victim_epoch: fleet.server_epoch(rejoin::VICTIM),
        victim_executed_after_revive: fleet.server_stats(rejoin::VICTIM).executed
            - victim_executed_at_revive,
        rebinds: report.rebinds,
        fast_failed: report.fast_failed,
        acked: report.acked,
        failed: report.failed,
        retries: report.retries,
        timeouts: report.timeouts,
        oracle_violations: fleet.check_at_most_once().len(),
    }
}

/// Outcome of one overload run with the brownout admission controller
/// on or off: what explicit shed replies buy over silent queue drops.
#[derive(Clone, Default, PartialEq, Debug, Serialize)]
pub struct BrownoutOutcome {
    /// True with the admission controller on.
    pub shedding: bool,
    /// Timely goodput over the measurement window, Mb/s.
    pub goodput_mbps: f64,
    /// Acknowledged calls.
    pub acked: u64,
    /// Acknowledgements that met the timeliness SLA.
    pub acked_timely: u64,
    /// Calls abandoned after the retry budget or give-up deadline.
    pub failed: u64,
    /// Calls terminated in one round trip by an explicit `Shed` reply.
    pub shed_replies: u64,
    /// Timeouts fired (the silent-drop path burns these instead).
    pub timeouts: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Submissions shed at client backlog caps.
    pub client_shed: u64,
    /// Requests silently dropped at server run queues.
    pub server_shed_silent: u64,
    /// Requests rejected with explicit brownout `Shed` replies.
    pub server_shed_replied: u64,
    /// Median acknowledged latency, cycles.
    pub p50: u64,
    /// 99th-percentile latency, cycles.
    pub p99: u64,
    /// At-most-once oracle violations (must be zero).
    pub oracle_violations: usize,
}

/// Runs the overload-shedding experiment to completion. Deterministic
/// in `(seed, shedding)`.
pub fn run_brownout(seed: u64, shedding: bool) -> BrownoutOutcome {
    let mut fleet = Fleet::new(FleetConfig::brownout_overload(seed, shedding));
    fleet.run_until(brownout::BASE_FROM);
    let b0 = fleet.acked_timely_bytes();
    fleet.run_until(brownout::END);
    let b1 = fleet.acked_timely_bytes();
    let report = fleet.report();
    BrownoutOutcome {
        shedding,
        goodput_mbps: goodput_mbps(b1 - b0, brownout::END - brownout::BASE_FROM),
        acked: report.acked,
        acked_timely: report.acked_timely,
        failed: report.failed,
        shed_replies: report.shed_replies,
        timeouts: report.timeouts,
        retries: report.retries,
        client_shed: report.shed,
        server_shed_silent: report.server_shed,
        server_shed_replied: report.server_shed_replied,
        p50: report.p50,
        p99: report.p99,
        oracle_violations: fleet.check_at_most_once().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_fleet_serves_traffic() {
        let mut fleet = Fleet::new(FleetConfig::serving(2, 4, 7));
        fleet.run(300_000);
        let report = fleet.report();
        assert!(report.acked > 10, "expected acks, got {}", report.acked);
        assert_eq!(report.failed, 0, "no failures on a clean fleet");
        assert!(fleet.check_at_most_once().is_empty());
    }

    /// The §6 preset measures the server, not the load generator or the
    /// retry path: past its first calls the client always has a call
    /// waiting behind `threads` outstanding, and no timer ever fires.
    #[test]
    fn rpc_transfer_keeps_its_threads_busy_without_retrying() {
        for threads in [1, 3, 8] {
            let mut fleet = Fleet::new(FleetConfig::rpc_transfer(threads, 5));
            fleet.run(1_000_000);
            for _ in 0..100 {
                fleet.run(37_003);
                assert!(fleet.client(0).backlogged() > 0, "{threads} threads: backlog ran dry");
            }
            let report = fleet.report();
            assert!(report.acked > 100, "{threads} threads: {} calls", report.acked);
            assert_eq!((report.timeouts, report.retries), (0, 0), "{threads} threads");
            assert_eq!(fleet.client(0).outstanding(), threads);
        }
    }

    #[test]
    fn equal_configs_run_bit_identically() {
        let mut a = Fleet::new(FleetConfig::serving(2, 3, 99));
        let mut b = Fleet::new(FleetConfig::serving(2, 3, 99));
        a.run(250_000);
        b.run(250_000);
        assert_eq!(a.stats_json(), b.stats_json());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Fleet::new(FleetConfig::serving(2, 3, 1));
        let mut b = Fleet::new(FleetConfig::serving(2, 3, 2));
        a.run(250_000);
        b.run(250_000);
        assert_ne!(a.stats_json(), b.stats_json());
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let mut cfg = FleetConfig::serving(2, 3, 42);
        cfg.faults =
            NetFaultConfig { seed: 5, drop_ppm: 20_000, dup_ppm: 5_000, ..Default::default() };
        let mut original = Fleet::new(cfg);
        original.run(150_000);
        let snap = original.save_snapshot();
        original.run(120_000);

        let mut resumed = Fleet::new(cfg);
        resumed.load_snapshot(&snap).expect("snapshot loads");
        assert_eq!(resumed.cycle(), 150_000);
        resumed.run(120_000);

        assert_eq!(original.stats_json(), resumed.stats_json());
        assert_eq!(original.events(), resumed.events());
        assert_eq!(original.save_snapshot(), resumed.save_snapshot());
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let mut a = Fleet::new(FleetConfig::serving(2, 3, 1));
        a.run(50_000);
        let snap = a.save_snapshot();
        let mut other = Fleet::new(FleetConfig::serving(2, 3, 2));
        assert!(other.load_snapshot(&snap).is_err());
        // The failed load must leave the target untouched.
        assert_eq!(other.cycle(), 0);
    }

    /// A `serving(2, 6)` image with section `name` replaced by section
    /// `donor_name` of a fleet built from `donor`, container CRC
    /// rebuilt, loaded into a fresh `serving(2, 6)` fleet.
    fn load_transplant(name: &str, donor: FleetConfig, donor_name: &str) -> Result<(), Error> {
        let cfg = FleetConfig::serving(2, 6, 3);
        let mut host = Fleet::new(cfg);
        host.run(60_000);
        let mut donor = Fleet::new(donor);
        donor.run(60_000);
        let (image, donor_image) = (host.save_snapshot(), donor.save_snapshot());
        let (file, donor_file) = (SnapshotFile::parse(&image)?, SnapshotFile::parse(&donor_image)?);
        let mut b = SnapshotBuilder::new();
        for (section, _) in file.sections() {
            let mut r = if section == name {
                donor_file.section(donor_name)?
            } else {
                file.section(section)?
            };
            b.section(section, |w| (0..r.remaining()).try_for_each(|_| r.u8().map(|x| w.u8(x))))?;
        }
        let mut fleet = Fleet::new(cfg);
        let loaded = fleet.load_snapshot(&b.finish());
        assert_eq!(fleet.cycle(), 0, "a rejected image must leave the fleet unchanged");
        loaded
    }

    fn assert_corrupt(loaded: Result<(), Error>) {
        assert!(matches!(loaded, Err(Error::SnapshotCorrupt(_))), "loaded {loaded:?}");
    }

    #[test]
    fn foreign_segment_section_is_rejected() {
        assert_corrupt(load_transplant(
            "fleet/segment",
            FleetConfig::serving(1, 1, 3),
            "fleet/segment",
        ));
    }

    #[test]
    fn server_section_in_another_slot_is_rejected() {
        assert_corrupt(load_transplant(
            "fleet/server1",
            FleetConfig::serving(2, 6, 3),
            "fleet/server0",
        ));
    }

    #[test]
    fn server_with_another_thread_count_is_rejected() {
        let donor = FleetConfig { server_threads: 2, ..FleetConfig::serving(2, 6, 3) };
        assert_corrupt(load_transplant("fleet/server0", donor, "fleet/server0"));
    }

    #[test]
    fn client_section_in_another_slot_is_rejected() {
        assert_corrupt(load_transplant(
            "fleet/client1",
            FleetConfig::serving(2, 6, 3),
            "fleet/client0",
        ));
    }

    #[test]
    fn client_of_another_server_tier_is_rejected() {
        // Client 0 of three servers sits at NIC 3, as client 1 of two
        // does, but calls a server this fleet does not have.
        assert_corrupt(load_transplant(
            "fleet/client1",
            FleetConfig::serving(3, 5, 3),
            "fleet/client0",
        ));
    }

    #[test]
    fn offline_client_nic_is_rejected() {
        let cfg = FleetConfig::serving(2, 6, 3);
        let mut host = Fleet::new(cfg);
        host.run(60_000);
        host.segment.set_online(2, false);
        let mut fleet = Fleet::new(cfg);
        assert_corrupt(fleet.load_snapshot(&host.save_snapshot()));
        assert_eq!(fleet.cycle(), 0, "a rejected image must leave the fleet unchanged");
    }

    #[test]
    fn killed_server_fleet_keeps_serving() {
        let mut fleet = Fleet::new(FleetConfig::serving(3, 4, 11));
        fleet.run(150_000);
        fleet.kill_server(1);
        assert!(!fleet.server_online(1));
        assert_eq!(fleet.online_servers(), 2);
        let before = fleet.report().acked;
        fleet.run(200_000);
        let after = fleet.report().acked;
        assert!(after > before, "fleet wedged after a kill: {before} → {after}");
        assert!(fleet.check_at_most_once().is_empty());
        let crash = Event { cycle: 150_000, kind: EventKind::ServerCrashed { server: 1 } };
        assert_eq!(fleet.events(), [crash]);
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn storm_probe() {
        let mut fleet = Fleet::new(FleetConfig::retry_storm(0x000f_1ee7, false));
        let mut prev = 0u64;
        let mut t = 0u64;
        while t < storm::RECOVERY_UNTIL {
            t += 200_000;
            fleet.run_until(t);
            let cur = fleet.acked_payload_bytes();
            let outstanding: Vec<usize> =
                (0..6).map(|i| fleet.clients[i].rpc.outstanding()).collect();
            let backlog: Vec<usize> = (0..6).map(|i| fleet.clients[i].rpc.backlogged()).collect();
            let queued: Vec<usize> = (0..2).map(|i| fleet.servers[i].queued()).collect();
            let rbl: Vec<usize> = (0..2).map(|i| fleet.servers[i].reply_backlogged()).collect();
            let txq: Vec<usize> = (0..8).map(|i| fleet.segment.tx_queued(i)).collect();
            let bo: Vec<(u64, u32)> = (0..8)
                .map(|i| {
                    let (until, att) = fleet.segment.backoff_state(i);
                    (until.saturating_sub(t), att)
                })
                .collect();
            let seg = fleet.segment_stats();
            println!(
                "t={t:>9} goodput={:.3} out={outstanding:?} back={backlog:?} srvq={queued:?} rbl={rbl:?} txq={txq:?} coll={} txrej={} frames={} busy={}",
                goodput_mbps(cur - prev, 200_000),
                seg.collisions,
                seg.tx_rejected,
                seg.frames_sent,
                seg.wire_busy_cycles,
            );
            println!("           backoff(remaining,attempts)={bo:?}");
            let cs: Vec<_> = (0..6).map(|i| fleet.client_stats(i)).collect();
            let ss: Vec<_> = (0..2).map(|i| fleet.server_stats(i)).collect();
            println!(
                "           Δclient acked={} retries={} timeouts={} ringfull={} | Δserver recv={} exec={} duphit={} repl_sent={} shed={}",
                cs.iter().map(|s| s.acked).sum::<u64>(),
                cs.iter().map(|s| s.retries).sum::<u64>(),
                cs.iter().map(|s| s.timeouts).sum::<u64>(),
                cs.iter().map(|s| s.tx_ring_full).sum::<u64>(),
                ss.iter().map(|s| s.received).sum::<u64>(),
                ss.iter().map(|s| s.executed).sum::<u64>(),
                ss.iter().map(|s| s.dup_cache_hits).sum::<u64>(),
                ss.iter().map(|s| s.replies_sent).sum::<u64>(),
                ss.iter().map(|s| s.shed).sum::<u64>(),
            );
            prev = cur;
        }
        println!("end: {}", fleet.stats_json());
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn crash_probe() {
        let mut fleet = Fleet::new(FleetConfig::crash_failover(0x000f_1ee7));
        fleet.run_until(crash::KILL_AT);
        println!("--- at kill: {}", fleet.stats_json());
        fleet.kill_server(crash::VICTIM);
        fleet.run_until(crash::END);
        println!("--- at end: {}", fleet.stats_json());
        for i in 0..3 {
            println!("server {i}: {}", fleet.server_stats(i).to_json());
        }
        for i in 0..6 {
            println!("client {i}: {}", fleet.client_stats(i).to_json());
        }
        println!("seg: {}", fleet.segment_stats().to_json());
    }

    #[test]
    fn snapshot_after_a_kill_reloads_the_server_dead() {
        let cfg = FleetConfig::serving(3, 4, 17);
        let mut original = Fleet::new(cfg);
        original.run(120_000);
        original.kill_server(1);
        original.run(30_000);
        let snap = original.save_snapshot();

        let mut resumed = Fleet::new(cfg);
        resumed.load_snapshot(&snap).expect("snapshot loads");
        assert!(!resumed.server_online(1));
        assert_eq!(resumed.online_servers(), 2);
        for fleet in [&mut original, &mut resumed] {
            fleet.run(100_000);
            fleet.revive_server(1);
            fleet.run(100_000);
        }
        assert!(resumed.server_online(1));
        assert_eq!(resumed.server_epoch(1), 1, "the revival is a fresh epoch");
        assert_eq!(original.stats_json(), resumed.stats_json());
        assert_eq!(original.events(), resumed.events());
        assert_eq!(original.save_snapshot(), resumed.save_snapshot());
    }

    #[test]
    fn revived_server_rejoins_under_a_fresh_epoch() {
        let mut fleet = Fleet::new(FleetConfig::serving(2, 4, 13));
        fleet.run(150_000);
        fleet.kill_server(0);
        fleet.run(200_000);
        assert_eq!(fleet.online_servers(), 1);
        let executed_dead = fleet.server_stats(0).executed;
        fleet.revive_server(0);
        assert!(fleet.server_online(0));
        assert_eq!(fleet.server_epoch(0), 1);
        fleet.run(400_000);
        // The revived server went back into rotation and did fresh
        // work; stale-epoch retransmissions were bounced, not re-run.
        assert!(
            fleet.server_stats(0).executed > executed_dead,
            "revived server executed nothing new"
        );
        assert!(fleet.check_at_most_once().is_empty());
        let events = fleet.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::ServerCrashed { server: 0 }));
        assert_eq!(
            events[1],
            Event { cycle: 350_000, kind: EventKind::ServerRevived { server: 0, epoch: 1 } }
        );
        // Reviving an online server is a no-op.
        fleet.revive_server(0);
        assert_eq!(fleet.events().len(), 2);
    }

    #[test]
    fn brownout_watermark_reaches_the_servers() {
        let mut fleet = Fleet::new(FleetConfig::brownout_overload(7, true));
        fleet.run(400_000);
        let report = fleet.report();
        assert!(report.server_shed_replied > 0, "overloaded fleet never shed explicitly");
        assert!(report.shed_replies > 0, "no client saw a shed reply");
        assert!(fleet.check_at_most_once().is_empty());
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn partition_probe() {
        for resilient in [false, true] {
            let o = run_partition_heal(0x000f_1ee7, resilient);
            println!("--- resilient={resilient}: {}", o.to_json());
        }
        let o = run_flapping_partition(0x000f_1ee7);
        println!("--- flapping: {}", o.to_json());
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn rejoin_probe() {
        let o = run_rejoin(0x000f_1ee7);
        println!("--- rejoin: {}", o.to_json());
    }

    #[test]
    #[ignore = "diagnostic probe"]
    fn brownout_probe() {
        for shedding in [false, true] {
            let o = run_brownout(0x000f_1ee7, shedding);
            println!("--- shedding={shedding}: {}", o.to_json());
        }
    }

    /// One gate boundary case: an edit to a passing pair of outcomes
    /// and the one failure the gate must then name (`None`: it must
    /// still pass).
    type Case<T> = (fn(&mut T, &mut T), Option<&'static str>);

    /// Applies each case to a fresh copy of the passing pair `base` and
    /// checks that `gate` names exactly the expected failure.
    fn check_gate<T: Clone>(
        base: (T, T),
        gate: impl Fn(&T, &T) -> Vec<&'static str>,
        cases: &[Case<T>],
    ) {
        assert_eq!(gate(&base.0, &base.1), Vec::<&str>::new(), "the base pair must pass");
        for (i, &(edit, want)) in cases.iter().enumerate() {
            let (mut a, mut b) = base.clone();
            edit(&mut a, &mut b);
            assert_eq!(gate(&a, &b), Vec::from_iter(want), "case {i}");
        }
    }

    /// Each gated field moved just across its threshold, then onto it:
    /// a strict comparison fails on the threshold, an inclusive one
    /// passes. A condition dropped from a gate fails its cases here.
    #[test]
    fn gates_name_each_failure_at_its_boundary() {
        let naive = StormOutcome { naive: true, ..Default::default() };
        let budgeted = StormOutcome { recovery_fraction: 1.0, ..Default::default() };
        check_gate(
            (naive, budgeted),
            storm::gate,
            &[
                (
                    |n, _| n.recovery_fraction = storm::NAIVE_RECOVERY_MAX.next_up(),
                    Some("naive.recovery_fraction < NAIVE_RECOVERY_MAX"),
                ),
                (
                    |n, _| n.recovery_fraction = storm::NAIVE_RECOVERY_MAX,
                    Some("naive.recovery_fraction < NAIVE_RECOVERY_MAX"),
                ),
                (
                    |_, b| b.recovery_fraction = storm::BUDGETED_RECOVERY_MIN.next_down(),
                    Some("budgeted.recovery_fraction >= BUDGETED_RECOVERY_MIN"),
                ),
                (|_, b| b.recovery_fraction = storm::BUDGETED_RECOVERY_MIN, None),
                (|n, _| n.oracle_violations = 1, Some("naive.oracle_violations == 0")),
                (|_, b| b.oracle_violations = 1, Some("budgeted.oracle_violations == 0")),
            ],
        );

        let crash =
            CrashOutcome { degraded_fraction: 1.0, recovery_cycles: Some(1), ..Default::default() };
        check_gate(
            (crash.clone(), crash),
            |o, _| crash::gate(o),
            &[
                (
                    |o, _| o.degraded_fraction = crash::DEGRADED_MIN.next_down(),
                    Some("degraded_fraction >= DEGRADED_MIN"),
                ),
                (|o, _| o.degraded_fraction = crash::DEGRADED_MIN, None),
                (|o, _| o.recovery_cycles = None, Some("recovery_cycles.is_some()")),
                (|o, _| o.oracle_violations = 1, Some("oracle_violations == 0")),
            ],
        );

        let resilient = PartitionOutcome {
            resilient: true,
            recovery_fraction: 1.0,
            recovery_cycles: Some(1),
            split_mbps: 2.0,
            minority_open_breakers_mid_split: partition::MINORITY_BREAKERS,
            minority_split_fast_fails: 2 * partition::MINORITY_FAST_FAILS_MIN,
            ..Default::default()
        };
        let budgeted = PartitionOutcome { split_mbps: 1.0, ..Default::default() };
        check_gate(
            (resilient, budgeted),
            partition::heal_gate,
            &[
                (
                    |r, _| r.recovery_fraction = partition::RECOVERY_MIN.next_down(),
                    Some("resilient.recovery_fraction >= RECOVERY_MIN"),
                ),
                (|r, _| r.recovery_fraction = partition::RECOVERY_MIN, None),
                (|r, _| r.recovery_cycles = None, Some("resilient.recovery_cycles.is_some()")),
                (
                    |r, _| r.split_mbps = partition::SPLIT_GAIN_MIN.next_down(),
                    Some("resilient.split_mbps > SPLIT_GAIN_MIN * budgeted.split_mbps"),
                ),
                (
                    |r, _| r.split_mbps = partition::SPLIT_GAIN_MIN,
                    Some("resilient.split_mbps > SPLIT_GAIN_MIN * budgeted.split_mbps"),
                ),
                (
                    |r, _| r.minority_open_breakers_mid_split = partition::MINORITY_BREAKERS - 1,
                    Some("resilient.minority_open_breakers_mid_split == MINORITY_BREAKERS"),
                ),
                (
                    |r, _| r.minority_open_breakers_mid_split = partition::MINORITY_BREAKERS + 1,
                    Some("resilient.minority_open_breakers_mid_split == MINORITY_BREAKERS"),
                ),
                (
                    |r, _| r.minority_open_breakers_at_end = 1,
                    Some("resilient.minority_open_breakers_at_end == 0"),
                ),
                (
                    |r, _| r.minority_split_fast_fails = partition::MINORITY_FAST_FAILS_MIN - 1,
                    Some("resilient.minority_split_fast_fails >= MINORITY_FAST_FAILS_MIN"),
                ),
                (|r, _| r.minority_split_fast_fails = partition::MINORITY_FAST_FAILS_MIN, None),
                (
                    |_, b| b.minority_split_fast_fails = 1,
                    Some("budgeted.minority_split_fast_fails == 0"),
                ),
                (|r, _| r.oracle_violations = 1, Some("resilient.oracle_violations == 0")),
                (|_, b| b.oracle_violations = 1, Some("budgeted.oracle_violations == 0")),
            ],
        );

        let flapping = PartitionOutcome {
            resilient: true,
            severed_windows: partition::FLAPS,
            recovery_fraction: 1.0,
            minority_breaker_opens: 2 * partition::FLAPS as u64,
            ..Default::default()
        };
        check_gate(
            (flapping.clone(), flapping),
            |o, _| partition::flapping_gate(o),
            &[
                (
                    |o, _| o.recovery_fraction = partition::RECOVERY_MIN.next_down(),
                    Some("recovery_fraction >= RECOVERY_MIN"),
                ),
                (|o, _| o.recovery_fraction = partition::RECOVERY_MIN, None),
                (
                    |o, _| o.minority_breaker_opens = o.severed_windows as u64 - 1,
                    Some("minority_breaker_opens >= severed_windows"),
                ),
                (|o, _| o.minority_breaker_opens = o.severed_windows as u64, None),
                (
                    |o, _| o.minority_open_breakers_at_end = 1,
                    Some("minority_open_breakers_at_end == 0"),
                ),
                (|o, _| o.oracle_violations = 1, Some("oracle_violations == 0")),
            ],
        );

        let rejoined = RejoinOutcome {
            recovery_fraction: 1.0,
            victim_epoch: rejoin::VICTIM_EPOCH,
            victim_executed_after_revive: 1,
            rebinds: 2 * rejoin::REBINDS_MIN,
            ..Default::default()
        };
        check_gate(
            (rejoined.clone(), rejoined),
            |o, _| rejoin::gate(o),
            &[
                (
                    |o, _| o.victim_epoch = rejoin::VICTIM_EPOCH - 1,
                    Some("victim_epoch == VICTIM_EPOCH"),
                ),
                (
                    |o, _| o.victim_epoch = rejoin::VICTIM_EPOCH + 1,
                    Some("victim_epoch == VICTIM_EPOCH"),
                ),
                (
                    |o, _| o.victim_executed_after_revive = 0,
                    Some("victim_executed_after_revive > 0"),
                ),
                (|o, _| o.rebinds = rejoin::REBINDS_MIN - 1, Some("rebinds >= REBINDS_MIN")),
                (|o, _| o.rebinds = rejoin::REBINDS_MIN, None),
                (
                    |o, _| o.recovery_fraction = rejoin::RECOVERY_MIN.next_down(),
                    Some("recovery_fraction >= RECOVERY_MIN"),
                ),
                (|o, _| o.recovery_fraction = rejoin::RECOVERY_MIN, None),
                (|o, _| o.oracle_violations = 1, Some("oracle_violations == 0")),
            ],
        );

        let shed = BrownoutOutcome {
            shedding: true,
            goodput_mbps: 2.0,
            server_shed_replied: 1,
            p99: 1_000,
            ..Default::default()
        };
        let silent = BrownoutOutcome {
            goodput_mbps: 1.0,
            server_shed_silent: 1,
            p99: 3 * brownout::P99_FACTOR * 1_000,
            ..Default::default()
        };
        check_gate(
            (shed, silent),
            brownout::gate,
            &[
                (
                    |s, q| s.goodput_mbps = q.goodput_mbps.next_down(),
                    Some("shed.goodput_mbps > silent.goodput_mbps"),
                ),
                (
                    |s, q| s.goodput_mbps = q.goodput_mbps,
                    Some("shed.goodput_mbps > silent.goodput_mbps"),
                ),
                (|s, _| s.failed = 1, Some("shed.failed == 0")),
                (|s, _| s.server_shed_replied = 0, Some("shed.server_shed_replied > 0")),
                (|_, q| q.server_shed_silent = 0, Some("silent.server_shed_silent > 0")),
                (
                    |s, q| q.p99 = brownout::P99_FACTOR * s.p99 - 1,
                    Some("P99_FACTOR * shed.p99 < silent.p99"),
                ),
                (
                    |s, q| q.p99 = brownout::P99_FACTOR * s.p99,
                    Some("P99_FACTOR * shed.p99 < silent.p99"),
                ),
                (|s, q| q.p99 = brownout::P99_FACTOR * s.p99 + 1, None),
                (|s, _| s.oracle_violations = 1, Some("shed.oracle_violations == 0")),
                (|_, q| q.oracle_violations = 1, Some("silent.oracle_violations == 0")),
            ],
        );
    }

    #[test]
    fn payload_sampler_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = sample_payload(&mut rng, 96, 768, 1_300);
            assert!((96..=768).contains(&v));
        }
    }

    #[test]
    fn interarrival_sampler_is_positive_and_sane() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut sum = 0u64;
        const N: u64 = 20_000;
        for _ in 0..N {
            sum += sample_interarrival(&mut rng, 20);
        }
        let mean = sum as f64 / N as f64;
        // Expected mean 50_000 cycles at 20 calls/Mcycle.
        assert!((40_000.0..60_000.0).contains(&mean), "mean {mean}");
    }
}
