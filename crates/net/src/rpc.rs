//! A message-passing Topaz-style RPC transport over the shared segment.
//!
//! This is the repository's one model of the §6 RPC path: real frames
//! on a real (simulated) wire, run for the bandwidth claim by
//! `firefly_sim::fleet::run_rpc_transfer`. Clients carry request ids,
//! servers keep a reply cache for **at-most-once** execution, and loss
//! is handled by per-call timeouts with exponential backoff,
//! deterministic jitter, bounded retry budgets, and a client-side
//! outstanding-call cap that backpressures the load generator.
//!
//! Two policies matter for the retry-storm experiments:
//!
//! * [`RetryPolicy::naive`] — fixed timeout, unlimited retries, no
//!   outstanding cap. Under a server slowdown the pending set grows
//!   without bound and every timeout feeds another frame to the wire:
//!   timeout amplification sustains congestive collapse even after the
//!   server heals.
//! * [`RetryPolicy::budgeted`] — exponential backoff with jitter, a
//!   bounded retry budget, and an outstanding-call cap. Excess load is
//!   shed at the client (counted, cheap) instead of on the wire, so the
//!   fleet recovers as soon as the slowdown clears.
//!
//! Semantics note (vs. the paper): Topaz RPC ran on a reliable-enough
//! LAN and promised exactly-once in the absence of crashes. This
//! transport promises **at-most-once per server binding**: a server
//! never executes the same `(client, seq)` twice (duplicates hit the
//! reply cache or the in-progress set), and a client never completes a
//! call twice (the pending entry is removed on first reply). A call
//! that fails over to another server after a lost reply may execute on
//! both servers — visible to the oracle, invisible to the client.
//!
//! PR 10 added the partition-tolerance layer on both ends:
//!
//! * **Circuit breakers** (client, see [`crate::health`]) — with
//!   [`RetryPolicy::resilient`], every server binding gets a
//!   closed→open→half-open breaker. Timeouts trip it; an open breaker
//!   fails calls fast at the client (no wire traffic, no retry budget)
//!   and gates both initial server selection and `failover_after`
//!   rotation. Half-open probes re-admit a healed or revived server.
//! * **Brownout load shedding** (server) — above a queue watermark the
//!   server rejects the lowest-priority requests with an explicit
//!   [`RpcMsg::Shed`] reply. A shed is cheap, immediate, and keeps the
//!   breaker closed — the opposite of a silent drop, which costs the
//!   client a full timeout and reads as a dead server.
//! * **Epoch rebinding** (both) — a server restart increments its
//!   epoch and cold-starts the reply cache; requests stamped with a
//!   stale epoch are answered with [`RpcMsg::Rebind`] (never executed),
//!   and the client re-issues under a fresh id. A pre-crash duplicate
//!   can therefore never double-execute against a cold cache.
//! * **Acknowledged-window eviction** (server) — requests carry
//!   `ack_below`, the client's lowest still-retransmittable sequence
//!   number; the reply cache refuses to evict entries at or above it,
//!   so cache pressure can no longer break at-most-once.

use crate::health::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::segment::{EtherSegment, Frame};
use firefly_core::fault::PPM;
use firefly_core::snapshot::{crc32, Snap, SnapReader, SnapWriter};
use firefly_core::stats::Histogram;
use firefly_core::Error;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Wire padding target for replies: with the segment's 26 header bytes
/// this makes a reply frame 120 bytes — the paper's Topaz RPC reply
/// packet size.
pub const REPLY_PAYLOAD_BYTES: usize = 94;

/// How long a client waits before re-attempting a *retransmission*
/// that was rejected by a full TX ring (pure backpressure, consumes no
/// retry budget). Each re-attempt is a timer event: it counts a timeout
/// and may draw the failover RNG, so it is ticked, not credited. A
/// client whose ring refuses it is [`RpcClient::replayable`], though,
/// so these ticks run inside a fleet jump, off the fleet's clock. Fresh
/// calls are not paced by this: a client whose backlog is blocked on a
/// full ring sleeps until its next real event, and the refusals it
/// would have counted meanwhile are credited in bulk
/// ([`RpcClient::credit_refusals`]).
pub const TX_RETRY_CYCLES: u64 = 32;

/// One RPC message. Requests are padded to their declared payload size
/// so wire occupancy and service cost both scale with the (heavy-tailed)
/// request size; server responses are padded to [`REPLY_PAYLOAD_BYTES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RpcMsg {
    /// A client call: `(client, seq)` is the globally unique request id.
    Request {
        /// Client NIC index.
        client: u32,
        /// Per-client sequence number.
        seq: u64,
        /// Server NIC index this attempt targets.
        server: u32,
        /// Declared payload size in bytes (frame is padded to this).
        payload_bytes: u32,
        /// Send attempt number (1 = first transmission).
        attempt: u32,
        /// Scheduling priority (0 = lowest, 255 = highest); brownout
        /// shedding rejects the lowest priorities first.
        priority: u8,
        /// Server epoch the client believes it is bound to; a mismatch
        /// is answered with [`RpcMsg::Rebind`] instead of executing.
        epoch: u32,
        /// Lowest sequence number this client could still retransmit:
        /// everything below is completed or abandoned, so the server's
        /// reply cache may safely evict it.
        ack_below: u64,
    },
    /// A server response carrying the deterministic result.
    Reply {
        /// Client NIC index the reply is addressed to.
        client: u32,
        /// Request sequence number being answered.
        seq: u64,
        /// Server NIC index that answered.
        server: u32,
        /// Execution result (deterministic function of the id).
        result: u32,
        /// The server's current epoch (keeps the client's binding hot).
        epoch: u32,
    },
    /// An explicit brownout rejection: the server is alive but chose
    /// not to execute this call. Terminal at the client — cheap and
    /// immediate, unlike the full-timeout cost of a silent drop.
    Shed {
        /// Client NIC index the rejection is addressed to.
        client: u32,
        /// Request sequence number being rejected.
        seq: u64,
        /// Server NIC index that shed the call.
        server: u32,
    },
    /// An epoch mismatch: the server restarted since the client bound
    /// to it, so the request was **not** executed (its reply-cache
    /// context is gone). The client adopts the new epoch and re-issues
    /// the call under a fresh sequence number.
    Rebind {
        /// Client NIC index the notice is addressed to.
        client: u32,
        /// Request sequence number that was refused.
        seq: u64,
        /// Server NIC index that refused it.
        server: u32,
        /// The server's current epoch.
        epoch: u32,
    },
}

/// A kind byte (1 request, 2 reply, 3 shed, 4 rebind), then the
/// variant's fields in declaration order.
impl Snap for RpcMsg {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            RpcMsg::Request {
                client,
                seq,
                server,
                payload_bytes,
                attempt,
                priority,
                epoch,
                ack_below,
            } => {
                w.put(&(1u8, client, seq, server));
                w.put(&(payload_bytes, attempt, priority));
                w.put(&(epoch, ack_below));
            }
            RpcMsg::Reply { client, seq, server, result, epoch } => {
                w.put(&(2u8, client, seq, server));
                w.put(&(result, epoch));
            }
            RpcMsg::Shed { client, seq, server } => w.put(&(3u8, client, seq, server)),
            RpcMsg::Rebind { client, seq, server, epoch } => {
                w.put(&(4u8, client, seq, server));
                w.put(&epoch);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            1 => RpcMsg::Request {
                client: r.get()?,
                seq: r.get()?,
                server: r.get()?,
                payload_bytes: r.get()?,
                attempt: r.get()?,
                priority: r.get()?,
                epoch: r.get()?,
                ack_below: r.get()?,
            },
            2 => RpcMsg::Reply {
                client: r.get()?,
                seq: r.get()?,
                server: r.get()?,
                result: r.get()?,
                epoch: r.get()?,
            },
            3 => RpcMsg::Shed { client: r.get()?, seq: r.get()?, server: r.get()? },
            4 => RpcMsg::Rebind {
                client: r.get()?,
                seq: r.get()?,
                server: r.get()?,
                epoch: r.get()?,
            },
            t => return Err(Error::SnapshotCorrupt(format!("invalid RpcMsg kind {t}"))),
        })
    }
}

impl RpcMsg {
    /// Serializes the message, padding to its wire size.
    pub fn encode(&self) -> Vec<u8> {
        let pad = match *self {
            RpcMsg::Request { payload_bytes, .. } => payload_bytes as usize,
            _ => REPLY_PAYLOAD_BYTES,
        };
        let mut w = SnapWriter::new();
        w.put(self);
        let mut bytes = w.into_bytes();
        if bytes.len() < pad {
            bytes.resize(pad, 0);
        }
        bytes
    }

    /// The frame carrying this message from NIC `src` to NIC `dst`.
    /// Senders build it inside [`EtherSegment::enqueue_with`], so a
    /// refused send encodes and checksums nothing unless it keeps the
    /// frame (a reply spilled to the server's backlog).
    fn frame(&self, src: u32, dst: u32) -> Frame {
        Frame::new(src as usize, dst as usize, self.encode())
    }

    /// Parses a message, ignoring wire padding. `None` on garbage (the
    /// caller counts and drops — a corrupt frame is not a protocol
    /// error).
    pub fn decode(bytes: &[u8]) -> Option<RpcMsg> {
        SnapReader::new(bytes).get().ok()
    }
}

/// The deterministic "work" a server performs for request `(client,
/// seq)` — a pure function so independent runs and restored snapshots
/// agree on every result.
pub fn result_of(client: u32, seq: u64) -> u32 {
    let mut bytes = [0u8; 12];
    bytes[..4].copy_from_slice(&client.to_le_bytes());
    bytes[4..].copy_from_slice(&seq.to_le_bytes());
    crc32(&bytes)
}

/// Timeliness SLA as a multiple of the policy's initial timeout: an
/// acknowledgement later than this after submission is counted as acked
/// but not *timely* — it drains backlog without serving the caller.
pub const TIMELY_SLA_TIMEOUTS: u64 = 4;

/// Client-side retry discipline.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Initial per-call timeout in cycles.
    pub timeout: u64,
    /// Total send attempts allowed per call (0 = unlimited).
    pub max_attempts: u32,
    /// Timeout multiplier per retry (1 = fixed timeout).
    pub backoff_factor: u32,
    /// Ceiling on the backed-off timeout, in cycles.
    pub backoff_cap: u64,
    /// Additive jitter as a fraction of the timeout, in ppm (0..=1e6).
    pub jitter_ppm: u32,
    /// Outstanding-call cap (0 = unlimited). Calls beyond it wait in the
    /// client backlog — the backpressure signal to the load generator.
    pub max_outstanding: usize,
    /// Client backlog bound; submissions beyond it are shed (counted).
    pub queue_cap: usize,
    /// Attempts on one server before a timeout rotates the call to
    /// another (1 = fail over on the first timeout). A higher threshold
    /// distinguishes a dead machine from a slow one and avoids
    /// re-executing congestion-delayed calls on a second server.
    pub failover_after: u32,
    /// Give-up deadline in cycles from submission (0 = retry forever).
    /// A call still unacknowledged past it fails back to the caller and
    /// releases its outstanding-call slot — without a deadline, calls
    /// stranded by an outage hog the slots long after it heals and
    /// starve fresh traffic out of admission.
    pub deadline: u64,
    /// Per-server circuit-breaker tuning (`None` = breakers off, the
    /// pre-PR-10 behavior bit-for-bit).
    pub breaker: Option<BreakerConfig>,
}

impl RetryPolicy {
    /// The storm-prone discipline: fixed timeout, unlimited retries,
    /// unlimited outstanding calls, unbounded backlog.
    pub fn naive(timeout: u64) -> Self {
        RetryPolicy {
            timeout,
            max_attempts: 0,
            backoff_factor: 1,
            backoff_cap: timeout,
            jitter_ppm: 0,
            max_outstanding: 0,
            queue_cap: usize::MAX,
            failover_after: 1,
            deadline: 0,
            breaker: None,
        }
    }

    /// The production discipline: exponential backoff with jitter, a
    /// bounded retry budget, and outstanding-call admission control.
    ///
    /// The knobs balance two failure modes: a deep backoff cap starves
    /// the client after an outage heals (a sleeping retry still holds
    /// an outstanding-call slot), while a shallow cap plus a generous
    /// outstanding cap lets the accumulated pending set retry fast
    /// enough to saturate the wire on its own.
    pub fn budgeted(timeout: u64) -> Self {
        RetryPolicy {
            timeout,
            max_attempts: 8,
            backoff_factor: 2,
            backoff_cap: timeout.saturating_mul(16),
            jitter_ppm: 250_000,
            max_outstanding: 8,
            queue_cap: 128,
            failover_after: 2,
            deadline: timeout.saturating_mul(8),
            breaker: None,
        }
    }

    /// The partition-tolerant discipline: [`budgeted`] plus per-server
    /// circuit breakers.
    ///
    /// The breaker trips after 3 consecutive timeouts on one binding
    /// and cools for 8 timeouts' worth of cycles (doubling to 64× on
    /// repeated re-opens), so a client cut off by a partition burns a
    /// handful of timeouts per server and then fails fast locally until
    /// half-open probes find the wire healed.
    ///
    /// [`budgeted`]: RetryPolicy::budgeted
    pub fn resilient(timeout: u64) -> Self {
        RetryPolicy {
            breaker: Some(BreakerConfig::with_threshold(3, timeout.saturating_mul(8))),
            ..Self::budgeted(timeout)
        }
    }
}

// `queue_cap` may be `usize::MAX` (unbounded); it round-trips as the
// `u64` every `usize` is written as.
firefly_core::snap_struct!(RetryPolicy {
    timeout,
    max_attempts,
    backoff_factor,
    backoff_cap,
    jitter_ppm,
    max_outstanding,
    queue_cap,
    failover_after,
    deadline,
    breaker,
});

firefly_core::counters! {
    /// Client-side cumulative counters.
    pub struct RpcClientStats {
        /// Calls submitted by the load generator.
        pub submitted: u64,
        /// Submissions shed because the backlog was full.
        pub shed: u64,
        /// Calls acknowledged (first reply accepted).
        pub acked: u64,
        /// Payload bytes of acknowledged calls.
        pub acked_payload_bytes: u64,
        /// Acknowledgements that arrived within the timeliness SLA
        /// ([`TIMELY_SLA_TIMEOUTS`] × the policy timeout after submission).
        pub acked_timely: u64,
        /// Payload bytes of timely acknowledgements — the numerator for
        /// *useful* goodput: a reply that arrives long after the caller
        /// needed it drains backlog but serves nobody.
        pub acked_timely_bytes: u64,
        /// Calls abandoned after exhausting the retry budget.
        pub failed: u64,
        /// Timeout expirations observed.
        pub timeouts: u64,
        /// Retransmissions placed on the wire.
        pub retries: u64,
        /// Replies for calls no longer pending (late or duplicate).
        pub dup_replies: u64,
        /// Transmit attempts rejected by a full TX ring.
        pub tx_ring_full: u64,
        /// Retransmissions deferred because the local TX ring still held
        /// undelivered frames (backoff disciplines only).
        pub retries_deferred: u64,
        /// Frames that failed to decode at the client.
        pub decode_rejects: u64,
        /// Calls failed fast by open circuit breakers (no wire traffic, no
        /// timeout paid) — the partition fast path.
        pub fast_failed: u64,
        /// Calls terminated by an explicit server `Shed` reply.
        pub shed_replies: u64,
        /// Calls bounced by a server epoch mismatch and re-issued under a
        /// fresh sequence number.
        pub rebinds: u64,
        /// Always 0: the transport sends no hedge copies. Kept so the
        /// counter layouts and reports that name it stay as they were.
        pub hedges: u64,
    }
}

/// One in-flight call.
#[derive(Copy, Clone, Debug)]
struct Pending {
    /// Index into the client's server list this attempt targets.
    server_slot: usize,
    payload_bytes: u32,
    /// Scheduling priority stamped on every transmission.
    priority: u8,
    /// Sends so far (1 after the initial transmission).
    attempts: u32,
    /// Cycle the caller submitted the call — latency and the timeliness
    /// SLA are measured from here, so backlog wait counts.
    submitted: u64,
    /// Cycle at which the call next needs client attention: a timeout,
    /// or a re-poll of a retransmission the TX ring refused.
    timeout_at: u64,
}

firefly_core::snap_struct!(Pending {
    server_slot,
    payload_bytes,
    priority,
    attempts,
    submitted,
    timeout_at,
});

/// What [`RpcClient::send`] did with one transmission.
enum Sent {
    /// The frame is on the TX ring, bound to this server slot.
    Wire(usize),
    /// The TX ring refused it (full, or the NIC offline); counted.
    RingRefused,
    /// Every breaker asked refused it.
    NoServer,
}

/// The client endpoint: request-id allocation, the pending table,
/// timeout/retry machinery, and the completion log the at-most-once
/// oracle audits.
#[derive(Clone, Debug)]
pub struct RpcClient {
    nic: u32,
    policy: RetryPolicy,
    servers: Vec<u32>,
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    /// Derived: earliest `timeout_at` across `pending` (may be stale-low
    /// after an ack; a scan that finds nothing due simply re-tightens
    /// it). Never serialized — recomputed on load.
    next_deadline: u64,
    /// Scratch for the sequence numbers due in one tick; empty between
    /// ticks and never serialized.
    due: Vec<u64>,
    backlog: VecDeque<(u32, u64, u8)>,
    /// One circuit breaker per server slot (empty when the policy has
    /// breakers off).
    breakers: Vec<CircuitBreaker>,
    /// Believed server epoch per slot (servers start at 0; a `Rebind`
    /// or any reply updates the binding).
    epochs: Vec<u32>,
    rng: SmallRng,
    stats: RpcClientStats,
    latency: Histogram,
    /// `(seq, acking server)` in acknowledgement order.
    completions: Vec<(u64, u32)>,
}

impl RpcClient {
    /// A client at NIC `nic` calling the given servers under `policy`.
    pub fn new(nic: u32, servers: Vec<u32>, policy: RetryPolicy, seed: u64) -> Self {
        assert!(!servers.is_empty(), "a client needs at least one server");
        let client_seed = seed ^ (u64::from(nic)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let breakers = match policy.breaker {
            None => Vec::new(),
            Some(cfg) => (0..servers.len())
                .map(|slot| CircuitBreaker::new(cfg, client_seed.wrapping_add(slot as u64)))
                .collect(),
        };
        RpcClient {
            nic,
            policy,
            epochs: vec![0; servers.len()],
            breakers,
            servers,
            next_seq: 0,
            pending: BTreeMap::new(),
            next_deadline: u64::MAX,
            due: Vec::new(),
            backlog: VecDeque::new(),
            rng: SmallRng::seed_from_u64(client_seed),
            stats: RpcClientStats::default(),
            latency: Histogram::default(),
            completions: Vec::new(),
        }
    }

    /// This client's NIC index.
    pub fn nic(&self) -> u32 {
        self.nic
    }

    /// The server NICs this client calls, by slot.
    pub fn servers(&self) -> &[u32] {
        &self.servers
    }

    /// Cumulative counters.
    pub fn stats(&self) -> RpcClientStats {
        self.stats
    }

    /// End-to-end latency (submission-to-ack, in cycles) of acked calls.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Calls currently awaiting a reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Submissions admitted but not yet sent (outstanding cap reached).
    pub fn backlogged(&self) -> usize {
        self.backlog.len()
    }

    /// The `(seq, acking server)` completion log, in ack order.
    pub fn completions(&self) -> &[(u64, u32)] {
        &self.completions
    }

    /// Breaker state for the server at `slot` (`None` = breakers off).
    pub fn breaker_state(&self, slot: usize) -> Option<BreakerState> {
        self.breakers.get(slot).map(CircuitBreaker::state)
    }

    /// Breaker counters for the server at `slot` (`None` = breakers off).
    pub fn breaker_stats(&self, slot: usize) -> Option<BreakerStats> {
        self.breakers.get(slot).map(CircuitBreaker::stats)
    }

    /// Offers one call of `payload_bytes` to the transport at top
    /// priority. Returns `false` (and counts a shed) when the backlog
    /// is full — the backpressure signal the open-loop load generator
    /// observes.
    pub fn submit(&mut self, now: u64, payload_bytes: u32) -> bool {
        self.submit_with_priority(now, payload_bytes, u8::MAX)
    }

    /// [`submit`](RpcClient::submit) with an explicit priority
    /// (0 = lowest, 255 = highest); brownout servers shed the lowest
    /// priorities first.
    pub fn submit_with_priority(&mut self, now: u64, payload_bytes: u32, priority: u8) -> bool {
        self.stats.submitted += 1;
        if self.policy.queue_cap != usize::MAX && self.backlog.len() >= self.policy.queue_cap {
            self.stats.shed += 1;
            return false;
        }
        self.backlog.push_back((payload_bytes, now, priority));
        true
    }

    /// Whether the backlog holds a call the outstanding cap lets in.
    fn can_admit(&self) -> bool {
        !self.backlog.is_empty()
            && (self.policy.max_outstanding == 0
                || self.pending.len() < self.policy.max_outstanding)
    }

    /// The next cycle after `now` at which [`tick`](RpcClient::tick)
    /// does more than count a refused enqueue, given the segment does
    /// not tick first: `now + 1` while frames wait in the RX ring or the
    /// backlog can admit a call that is not
    /// [`ring_blocked`](RpcClient::ring_blocked), else the earliest
    /// timeout. A tick short of it changes nothing, or, while
    /// the client is ring-blocked, only counts the one refusal that
    /// [`credit_refusals`](RpcClient::credit_refusals) credits. The
    /// timer may be stale-low after an ack; waking on it is a scan that
    /// finds nothing due.
    ///
    /// A tick touches the segment only through this client's own NIC's
    /// rings and the refusal counter, and never reads its clock. So
    /// while the client is [`replayable`](RpcClient::replayable), its
    /// ticks at its own events, with refusals credited between them,
    /// may run ahead of the segment up to the segment's next event.
    #[inline]
    pub fn next_event(&self, now: u64, seg: &EtherSegment) -> u64 {
        if seg.rx_queued(self.nic as usize) > 0 || (self.can_admit() && !self.ring_blocked(seg)) {
            now + 1
        } else {
            self.next_deadline.max(now + 1)
        }
    }

    /// Whether this client is ring-blocked: its backlog can admit a
    /// call and `seg` [`refuses`](EtherSegment::refuses) its NIC. The
    /// admission loop checks the ring before it asks any breaker, so a
    /// tick of a ring-blocked client that receives nothing and has no
    /// timer due has one enqueue refused and counted, and does nothing
    /// else, whatever state its breakers are in.
    pub fn ring_blocked(&self, seg: &EtherSegment) -> bool {
        self.can_admit() && seg.refuses(self.nic as usize)
    }

    /// Whether `seg` refuses this client's NIC and holds nothing in its
    /// RX ring. Neither can change before the segment's next event, and
    /// while both hold every enqueue the client tries is refused, so a
    /// tick changes only the client's own state and `seg`'s refusal
    /// counter, and reads nothing of `seg` that can change. Such a
    /// client can be run ahead of the segment through its own
    /// [`next_event`](RpcClient::next_event)s.
    pub fn replayable(&self, seg: &EtherSegment) -> bool {
        let nic = self.nic as usize;
        seg.refuses(nic) && seg.rx_queued(nic) == 0
    }

    /// Counts what `n` ticks of a [`ring_blocked`](RpcClient::ring_blocked)
    /// client short of its [`next_event`](RpcClient::next_event) would
    /// count: `n` refused enqueues here (`tx_ring_full`) and on `seg`
    /// (`tx_rejected`). No breaker is consulted, so none moves.
    pub fn credit_refusals(&mut self, n: u64, seg: &mut EtherSegment) {
        debug_assert!(self.ring_blocked(seg), "credited refusals to a client that is not blocked");
        self.stats.tx_ring_full += n;
        seg.count_refusals(n);
    }

    /// Lowest sequence number this client could still retransmit;
    /// stamped on every request so the server's reply cache knows what
    /// is safe to evict.
    fn ack_below(&self) -> u64 {
        self.pending.keys().next().copied().unwrap_or(self.next_seq)
    }

    /// Feeds the breaker of server NIC `server` a success and adopts
    /// its epoch, if the NIC is one of ours.
    fn note_server_alive(&mut self, server: u32, epoch: Option<u32>) {
        let Some(slot) = self.servers.iter().position(|&s| s == server) else { return };
        if let Some(b) = self.breakers.get_mut(slot) {
            b.on_success();
        }
        if let Some(e) = epoch {
            self.epochs[slot] = self.epochs[slot].max(e);
        }
    }

    /// First slot, rotating through every server from `start` (taken
    /// modulo the server count), whose breaker admits a request at
    /// `now`. With breakers off every slot admits. `None` means every
    /// breaker refused — the caller fails fast.
    fn admitted_slot(&mut self, start: usize, now: u64) -> Option<usize> {
        let len = self.servers.len();
        if self.breakers.is_empty() {
            return Some(start % len);
        }
        (start..start + len).map(|i| i % len).find(|&slot| self.breakers[slot].admit(now))
    }

    /// Timeout for the send numbered `attempts` (1-based), with
    /// exponential backoff and deterministic jitter per the policy.
    fn next_timeout(&mut self, attempts: u32) -> u64 {
        let exp = attempts.saturating_sub(1).min(20);
        let factor = u64::from(self.policy.backoff_factor).saturating_pow(exp);
        let mut t = self
            .policy
            .timeout
            .saturating_mul(factor)
            .min(self.policy.backoff_cap.max(self.policy.timeout));
        if self.policy.jitter_ppm > 0 {
            t += t.saturating_mul(u64::from(self.rng.gen_range(0..self.policy.jitter_ppm)))
                / u64::from(PPM);
        }
        t
    }

    /// Next timer expiry for a call submitted at `submitted`, wanting to
    /// wait `t` from `now` — clamped so the give-up deadline (when set)
    /// is noticed as soon as it passes, not a whole backoff later.
    fn arm_at(&self, submitted: u64, now: u64, t: u64) -> u64 {
        let at = now + t;
        if self.policy.deadline == 0 {
            at
        } else {
            at.min((submitted + self.policy.deadline).max(now + 1))
        }
    }

    /// One transmission of call `seq` (`payload_bytes`, `priority`),
    /// numbered `attempt`, to the first server from slot `start` on
    /// ([`admitted_slot`](RpcClient::admitted_slot)) whose breaker
    /// admits it. The only path by which a request reaches the wire:
    /// the first send and every retransmit go through it, and each asks
    /// the ring before any breaker. A refusal counts `tx_ring_full`
    /// here and `tx_rejected` on `seg`, as every refused enqueue does,
    /// and spends no probe; so every probe a breaker hands out goes
    /// with a frame on the ring.
    fn send(
        &mut self,
        seq: u64,
        (payload_bytes, priority): (u32, u8),
        start: usize,
        attempt: u32,
        seg: &mut EtherSegment,
        now: u64,
    ) -> Sent {
        let nic = self.nic as usize;
        if seg.refuses(nic) {
            self.stats.tx_ring_full += 1;
            seg.count_refusals(1);
            return Sent::RingRefused;
        }
        let Some(slot) = self.admitted_slot(start, now) else { return Sent::NoServer };
        let server = self.servers[slot];
        let msg = RpcMsg::Request {
            client: self.nic,
            seq,
            server,
            payload_bytes,
            attempt,
            priority,
            epoch: self.epochs[slot],
            ack_below: self.ack_below(),
        };
        let queued = seg.enqueue_with(nic, || msg.frame(self.nic, server));
        debug_assert!(queued, "a ring that did not refuse took the frame");
        Sent::Wire(slot)
    }

    /// Acts on due call `seq`, whose pending entry `p` this updates in
    /// place: counts its timeout and then fails it, defers it or
    /// retransmits it. Returns whether it stays pending.
    fn expire(&mut self, seq: u64, p: &mut Pending, now: u64, seg: &mut EtherSegment) -> bool {
        self.stats.timeouts += 1;
        if let Some(b) = self.breakers.get_mut(p.server_slot) {
            b.on_failure(now);
        }
        let past_deadline =
            self.policy.deadline > 0 && now.saturating_sub(p.submitted) >= self.policy.deadline;
        if past_deadline
            || (self.policy.max_attempts != 0 && p.attempts >= self.policy.max_attempts)
        {
            self.stats.failed += 1;
            return false;
        }
        if self.policy.backoff_factor > 1 && seg.tx_queued(self.nic as usize) > 0 {
            // The local TX ring still holds undelivered frames — possibly
            // this call's previous copy. A backoff discipline reads that
            // as congestion and re-arms the timer (no budget consumed, no
            // failover): retransmitting now would only queue a duplicate
            // behind a frame that hasn't even left the host, and fresh
            // calls deserve the ring slots more.
            self.stats.retries_deferred += 1;
            let t = self.next_timeout(p.attempts.max(1));
            p.timeout_at = self.arm_at(p.submitted, now, t);
            return true;
        }
        let len = self.servers.len();
        // Enough timeouts on one server look like a dead machine, not a
        // slow one — fail over to a uniformly random *other* server.
        // Rotating on the very first timeout re-executes every
        // congestion-delayed call on a second machine (cross-server
        // duplicate work); deterministic round-robin would herd every
        // client's orphaned calls onto the same survivor. With breakers
        // on, the first slot from there whose breaker admits takes the
        // call; none at all means the whole fleet looks partitioned
        // away, so the call fails fast instead of burning budget on a
        // wire that eats every frame.
        let from = if len > 1 && p.attempts >= self.policy.failover_after {
            let step = 1 + self.rng.gen_range(0..len as u64 - 1) as usize;
            (p.server_slot + step) % len
        } else {
            p.server_slot
        };
        let attempt = p.attempts + 1;
        match self.send(seq, (p.payload_bytes, p.priority), from, attempt, seg, now) {
            Sent::Wire(slot) => {
                let t = self.next_timeout(attempt);
                p.timeout_at = self.arm_at(p.submitted, now, t);
                p.server_slot = slot;
                p.attempts = attempt;
                self.stats.retries += 1;
            }
            Sent::RingRefused => {
                // The local NIC can't even queue the retransmission —
                // that's a congestion signal. A backoff discipline paces
                // the next try like a timeout (without consuming budget);
                // a no-backoff discipline stays true to itself and
                // re-polls eagerly, refilling every freed ring slot and
                // keeping the wire saturated with retries.
                let t = if self.policy.backoff_factor <= 1 {
                    TX_RETRY_CYCLES
                } else {
                    self.next_timeout(p.attempts.max(1)).max(TX_RETRY_CYCLES)
                };
                p.timeout_at = self.arm_at(p.submitted, now, t);
                p.server_slot = from;
            }
            Sent::NoServer => {
                self.stats.fast_failed += 1;
                return false;
            }
        }
        true
    }

    /// One cycle of client work: absorb replies, expire timeouts and
    /// retransmit (or fail) overdue calls, then admit backlog up to the
    /// outstanding cap.
    pub fn tick(&mut self, now: u64, seg: &mut EtherSegment) {
        while let Some(frame) = seg.recv(self.nic as usize) {
            match RpcMsg::decode(&frame.payload) {
                Some(RpcMsg::Reply { client, seq, server, epoch, .. }) if client == self.nic => {
                    self.note_server_alive(server, Some(epoch));
                    if let Some(p) = self.pending.remove(&seq) {
                        self.stats.acked += 1;
                        self.stats.acked_payload_bytes += u64::from(p.payload_bytes);
                        let lat = now.saturating_sub(p.submitted);
                        if lat <= self.policy.timeout.saturating_mul(TIMELY_SLA_TIMEOUTS) {
                            self.stats.acked_timely += 1;
                            self.stats.acked_timely_bytes += u64::from(p.payload_bytes);
                        }
                        self.latency.record(lat);
                        self.completions.push((seq, server));
                    } else {
                        self.stats.dup_replies += 1;
                    }
                }
                Some(RpcMsg::Shed { client, seq, server }) if client == self.nic => {
                    // The server is alive and answered instantly — the
                    // opposite of a timeout. Terminal for this call.
                    self.note_server_alive(server, None);
                    if self.pending.remove(&seq).is_some() {
                        self.stats.shed_replies += 1;
                    } else {
                        self.stats.dup_replies += 1;
                    }
                }
                Some(RpcMsg::Rebind { client, seq, server, epoch }) if client == self.nic => {
                    self.note_server_alive(server, Some(epoch));
                    if let Some(p) = self.pending.remove(&seq) {
                        // The restarted server refused to execute (its
                        // reply-cache context for us is gone). Nothing
                        // ran, so re-issue at the head of the backlog
                        // under a fresh sequence number, keeping the
                        // original submission cycle for latency/SLA.
                        self.stats.rebinds += 1;
                        self.backlog.push_front((p.payload_bytes, p.submitted, p.priority));
                    } else {
                        self.stats.dup_replies += 1;
                    }
                }
                Some(_) => self.stats.dup_replies += 1,
                None => self.stats.decode_rejects += 1,
            }
        }

        if now >= self.next_deadline {
            // One scan splits the due calls (in seq order) from the
            // earliest timeout of the rest; each due call is then read
            // once and written back (or removed) once, and its new
            // timeout folds into that minimum.
            let mut due = std::mem::take(&mut self.due);
            let mut next = u64::MAX;
            for (&seq, p) in &self.pending {
                match p.timeout_at {
                    at if at <= now => due.push(seq),
                    at => next = next.min(at),
                }
            }
            for &seq in &due {
                let mut p = self.pending[&seq];
                if self.expire(seq, &mut p, now, seg) {
                    next = next.min(p.timeout_at);
                    self.pending.insert(seq, p);
                } else {
                    self.pending.remove(&seq);
                }
            }
            due.clear();
            self.due = due;
            self.next_deadline = next;
        }

        while self.can_admit() {
            let (payload_bytes, submitted, priority) =
                *self.backlog.front().expect("backlog non-empty");
            let seq = self.next_seq;
            let call = (payload_bytes, priority);
            let server_slot = match self.send(seq, call, seq as usize, 1, seg, now) {
                Sent::Wire(slot) => slot,
                Sent::RingRefused => break,
                Sent::NoServer => {
                    // Every server's breaker refused: the fleet is
                    // unreachable from here. Fail the call locally —
                    // this is the partition fast path that spends
                    // neither wire bandwidth nor retry budget.
                    self.backlog.pop_front();
                    self.next_seq += 1;
                    self.stats.fast_failed += 1;
                    continue;
                }
            };
            self.backlog.pop_front();
            self.next_seq += 1;
            let t = self.next_timeout(1);
            let timeout_at = now + self.arm_at(submitted, now, t).saturating_sub(now).max(1);
            self.pending.insert(
                seq,
                Pending {
                    server_slot,
                    payload_bytes,
                    priority,
                    attempts: 1,
                    submitted,
                    timeout_at,
                },
            );
            self.next_deadline = self.next_deadline.min(timeout_at);
        }
    }

    /// Serializes the complete client state. The epochs carry no
    /// count: there is one per server.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.nic, self.policy));
        w.put(&self.servers);
        w.put(&self.next_seq);
        w.put(&self.pending);
        w.put(&self.backlog);
        for epoch in &self.epochs {
            w.put(epoch);
        }
        w.put(&self.breakers);
        w.put(&self.rng);
        w.put(&(self.stats, self.latency));
        w.put(&self.completions);
    }

    /// Rebuilds a client from state captured by [`save`](RpcClient::save).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] on truncation, a degenerate
    /// server list, a pending call bound to a slot past it, or a
    /// pending call at or past `next_seq` (admission would reuse its
    /// sequence number and overwrite it).
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (nic, policy) = r.get()?;
        let servers: Vec<u32> = r.get()?;
        if servers.is_empty() {
            return Err(Error::SnapshotCorrupt("client with no servers".into()));
        }
        let next_seq: u64 = r.get()?;
        let pending: BTreeMap<u64, Pending> = r.get()?;
        if pending.values().any(|p| p.server_slot >= servers.len()) {
            return Err(Error::SnapshotCorrupt("pending call bound to no server slot".into()));
        }
        if pending.last_key_value().is_some_and(|(&seq, _)| seq >= next_seq) {
            return Err(Error::SnapshotCorrupt("pending call at or past next_seq".into()));
        }
        let backlog = r.get()?;
        let epochs = servers.iter().map(|_| r.get()).collect::<Result<_, _>>()?;
        let breakers: Vec<CircuitBreaker> = r.get()?;
        if !breakers.is_empty() && breakers.len() != servers.len() {
            return Err(Error::SnapshotCorrupt("breaker/server count mismatch".into()));
        }
        let rng = r.get()?;
        let (stats, latency) = r.get()?;
        let next_deadline = pending.values().map(|p| p.timeout_at).min().unwrap_or(u64::MAX);
        Ok(RpcClient {
            nic,
            policy,
            servers,
            next_seq,
            pending,
            next_deadline,
            due: Vec::new(),
            backlog,
            breakers,
            epochs,
            rng,
            stats,
            latency,
            completions: r.get()?,
        })
    }
}

/// The inherent [`RpcClient::save`] and [`RpcClient::load`], for structs
/// that embed a client.
impl Snap for RpcClient {
    fn save(&self, w: &mut SnapWriter) {
        RpcClient::save(self, w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        RpcClient::load(r)
    }
}

firefly_core::counters! {
    /// Server-side cumulative counters.
    pub struct RpcServerStats {
        /// Request frames received (including duplicates).
        pub received: u64,
        /// Requests executed (first-time work).
        pub executed: u64,
        /// Duplicate requests answered from the reply cache (no re-execute).
        pub dup_cache_hits: u64,
        /// Duplicate requests already queued or running (dropped).
        pub dup_in_progress: u64,
        /// Requests shed because the service queue was full.
        pub shed: u64,
        /// Replies placed on the wire.
        pub replies_sent: u64,
        /// Replies dropped because the reply backlog overflowed.
        pub replies_dropped: u64,
        /// Frames that failed to decode at the server.
        pub decode_rejects: u64,
        /// Transmit attempts rejected by a full TX ring.
        pub tx_ring_full: u64,
        /// Requests rejected with an explicit brownout `Shed` reply.
        pub shed_replied: u64,
        /// Stale-epoch requests answered with `Rebind` (never executed).
        pub rebinds_sent: u64,
        /// Reply-cache evictions refused because the entry was still inside
        /// some client's retransmission window (at-most-once protection).
        pub evictions_refused: u64,
    }
}

/// A queued or running request.
#[derive(Clone, Debug)]
struct Job {
    client: u32,
    seq: u64,
    payload_bytes: u32,
    priority: u8,
    /// Completion cycle once running (0 while queued).
    done_at: u64,
}

firefly_core::snap_struct!(Job { client, seq, payload_bytes, priority, done_at });

/// Bound on the server's outgoing-reply backlog (replies waiting for TX
/// ring space). Overflow drops the reply; the client retries and hits
/// the reply cache. Kept shallow deliberately: a deep backlog acts as a
/// dam of stale duplicate replies that floods the wire in one burst
/// whenever the server wins a CSMA/CD streak.
pub const REPLY_BACKLOG_CAP: usize = 32;

/// The server endpoint: a bounded service queue feeding `threads`
/// worker threads (the paper's Topaz RPC server ran ~3), a reply cache
/// keyed by request id for at-most-once execution, and an execution log
/// for the oracle.
#[derive(Clone, Debug)]
pub struct RpcServer {
    nic: u32,
    threads: usize,
    service_cycles: u64,
    queue_cap: usize,
    cache_per_client: usize,
    /// Brownout watermark: above this queue depth the lowest-priority
    /// requests get an explicit `Shed` reply (0 = shedding off, a full
    /// queue drops silently as before PR 10).
    brownout_watermark: usize,
    /// Incarnation number, bumped by [`restart`](RpcServer::restart).
    /// Requests stamped with another epoch are refused with `Rebind`.
    epoch: u32,
    /// `(from, until, factor)` — service times multiply by `factor`
    /// inside the window (the retry-storm trigger).
    slowdown: Option<(u64, u64, u32)>,
    queue: VecDeque<Job>,
    running: Vec<Option<Job>>,
    in_progress: BTreeSet<(u32, u64)>,
    reply_cache: BTreeMap<(u32, u64), u32>,
    /// Derived: cached-reply count per client (rebuilt on load, never
    /// serialized), so pruning is O(evictions) not O(range scan).
    cache_counts: BTreeMap<u32, usize>,
    /// Highest `ack_below` seen per client: sequence numbers below it
    /// can never be retransmitted, so their cached replies are safe to
    /// evict — and nothing else is.
    ack_below: BTreeMap<u32, u64>,
    /// Execution counts per request id — the at-most-once oracle's
    /// ground truth. Grows with unique requests; scenario-sized.
    executed: BTreeMap<(u32, u64), u32>,
    reply_backlog: VecDeque<Frame>,
    rng: SmallRng,
    stats: RpcServerStats,
}

impl RpcServer {
    /// A server at NIC `nic` with `threads` workers and a base service
    /// time of `service_cycles` per request.
    pub fn new(nic: u32, threads: usize, service_cycles: u64, seed: u64) -> Self {
        assert!(threads > 0, "a server needs at least one thread");
        RpcServer {
            nic,
            threads,
            service_cycles,
            queue_cap: 64,
            cache_per_client: 4096,
            brownout_watermark: 0,
            epoch: 0,
            slowdown: None,
            queue: VecDeque::new(),
            running: vec![None; threads],
            in_progress: BTreeSet::new(),
            reply_cache: BTreeMap::new(),
            cache_counts: BTreeMap::new(),
            ack_below: BTreeMap::new(),
            executed: BTreeMap::new(),
            reply_backlog: VecDeque::new(),
            rng: SmallRng::seed_from_u64(
                seed ^ (u64::from(nic)).wrapping_mul(0xbf58_476d_1ce4_e5b9),
            ),
            stats: RpcServerStats::default(),
        }
    }

    /// Bounds the service queue (default 64).
    pub fn set_queue_cap(&mut self, cap: usize) {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
    }

    /// Bounds the per-client reply cache (default 4096 ids).
    pub fn set_cache_per_client(&mut self, cap: usize) {
        assert!(cap > 0, "reply cache capacity must be positive");
        self.cache_per_client = cap;
    }

    /// Enables brownout shedding above `watermark` queued requests
    /// (0 disables it). Must sit below the queue cap to leave shedding
    /// any room to discriminate by priority.
    pub fn set_brownout(&mut self, watermark: usize) {
        assert!(
            watermark == 0 || watermark < self.queue_cap,
            "brownout watermark must sit below the queue cap"
        );
        self.brownout_watermark = watermark;
    }

    /// Installs (or clears) a service-time slowdown window.
    pub fn set_slowdown(&mut self, window: Option<(u64, u64, u32)>) {
        self.slowdown = window;
    }

    /// Cold restart after a crash: a new epoch with empty queues and an
    /// empty reply cache. The execution ledger (the oracle's ground
    /// truth), cumulative stats, and the RNG stream survive — they are
    /// instrumentation, not machine state. Epoch rebinding is what
    /// keeps the cold cache safe: any pre-crash duplicate still on the
    /// wire carries the old epoch and is refused, never re-executed.
    pub fn restart(&mut self) {
        self.epoch += 1;
        self.queue.clear();
        for slot in &mut self.running {
            *slot = None;
        }
        self.in_progress.clear();
        self.reply_cache.clear();
        self.cache_counts.clear();
        self.ack_below.clear();
        self.reply_backlog.clear();
    }

    /// This server's NIC index.
    pub fn nic(&self) -> u32 {
        self.nic
    }

    /// Worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Cumulative counters.
    pub fn stats(&self) -> RpcServerStats {
        self.stats
    }

    /// Requests queued but not yet running.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Replies waiting for TX ring space.
    pub fn reply_backlogged(&self) -> usize {
        self.reply_backlog.len()
    }

    /// Execution counts per request id, for the oracle.
    pub fn executions(&self) -> &BTreeMap<(u32, u64), u32> {
        &self.executed
    }

    /// Service time for one request at `now` (base + per-word unmarshal
    /// cost + deterministic jitter, amplified inside the slowdown
    /// window).
    fn service_time(&mut self, now: u64, payload_bytes: u32) -> u64 {
        let base = self.service_cycles + u64::from(payload_bytes) / 4;
        let jitter = self.rng.gen_range(0..=base / 8);
        let mut t = base + jitter;
        if let Some((from, until, factor)) = self.slowdown {
            if now >= from && now < until {
                t = t.saturating_mul(u64::from(factor));
            }
        }
        t.max(1)
    }

    /// The next cycle after `now` at which [`tick`](RpcServer::tick)
    /// does more than count a refused enqueue, given the segment does
    /// not tick first: `now + 1` while frames wait in the RX ring,
    /// replies wait for TX ring space the ring would give, or a worker
    /// is free with work queued; else the earliest running job's
    /// completion. `u64::MAX` when idle. A tick short of it changes
    /// nothing, or, while the server is
    /// [`ring_blocked`](RpcServer::ring_blocked), only counts the one
    /// refusal that [`credit_refusals`](RpcServer::credit_refusals)
    /// credits.
    #[inline]
    pub fn next_event(&self, now: u64, seg: &EtherSegment) -> u64 {
        let free_worker = self.running.iter().any(Option::is_none);
        if seg.rx_queued(self.nic as usize) > 0
            || (!self.reply_backlog.is_empty() && !seg.refuses(self.nic as usize))
            || (free_worker && !self.queue.is_empty())
        {
            return now + 1;
        }
        self.running.iter().flatten().map(|job| job.done_at).min().unwrap_or(u64::MAX).max(now + 1)
    }

    /// Whether replies wait for TX ring space that `seg` refuses. A tick
    /// of a ring-blocked server that receives nothing and finishes no
    /// job has its backlog flush refused and counted, and does nothing
    /// else.
    pub fn ring_blocked(&self, seg: &EtherSegment) -> bool {
        !self.reply_backlog.is_empty() && seg.refuses(self.nic as usize)
    }

    /// Counts what `n` ticks of a [`ring_blocked`](RpcServer::ring_blocked)
    /// server short of its [`next_event`](RpcServer::next_event) would
    /// count: `n` refused flushes on `seg` (`tx_rejected`). The server's
    /// own counters see none of them.
    pub fn credit_refusals(&self, n: u64, seg: &mut EtherSegment) {
        debug_assert!(self.ring_blocked(seg), "credited refusals to a server that is not blocked");
        seg.count_refusals(n);
    }

    /// Queues `msg` to a client, spilling to the bounded reply backlog
    /// when the TX ring is full.
    fn send_to_client(&mut self, client: u32, msg: RpcMsg, seg: &mut EtherSegment) {
        if seg.enqueue_with(self.nic as usize, || msg.frame(self.nic, client)) {
            self.stats.replies_sent += 1;
        } else if self.reply_backlog.len() < REPLY_BACKLOG_CAP {
            self.stats.tx_ring_full += 1;
            self.reply_backlog.push_back(msg.frame(self.nic, client));
        } else {
            self.stats.replies_dropped += 1;
        }
    }

    fn send_reply(&mut self, client: u32, seq: u64, result: u32, seg: &mut EtherSegment) {
        let msg = RpcMsg::Reply { client, seq, server: self.nic, result, epoch: self.epoch };
        self.send_to_client(client, msg, seg);
    }

    /// The brownout admission cutoff (`None` = shedding off): requests
    /// with priority below the cutoff are shed. Zero below the
    /// watermark (admit everything), then rising linearly with queue
    /// depth to 256 at the queue cap (admit nothing) — the deeper the
    /// brownout, the better a request must be to get in.
    fn brownout_cutoff(&self) -> Option<u32> {
        if self.brownout_watermark == 0 {
            return None;
        }
        let depth = self.queue.len();
        if depth < self.brownout_watermark {
            return Some(0);
        }
        let span = (self.queue_cap - self.brownout_watermark).max(1);
        let over = depth - self.brownout_watermark;
        Some((((over + 1) * 256) / span).min(256) as u32)
    }

    /// Records a freshly executed reply and evicts the oldest cached
    /// entries for `client` beyond the per-client bound — but only
    /// entries the client has declared unretransmittable (sequence
    /// numbers below its `ack_below`). Evicting a still-live entry
    /// would let a delayed duplicate re-execute, so under pressure the
    /// cache refuses (and counts) the eviction instead: at-most-once is
    /// never traded for the memory bound.
    fn cache_reply(&mut self, client: u32, seq: u64, result: u32) {
        if self.reply_cache.insert((client, seq), result).is_none() {
            *self.cache_counts.entry(client).or_insert(0) += 1;
        }
        let safe_below = self.ack_below.get(&client).copied().unwrap_or(0);
        let count = self.cache_counts.get_mut(&client).expect("count just ensured");
        while *count > self.cache_per_client {
            let key = *self
                .reply_cache
                .range((client, 0)..=(client, u64::MAX))
                .next()
                .map(|(k, _)| k)
                .expect("count says entries exist");
            if key.1 >= safe_below {
                self.stats.evictions_refused += 1;
                break;
            }
            self.reply_cache.remove(&key);
            *count -= 1;
        }
    }

    /// One cycle of server work: flush the reply backlog, absorb and
    /// dedup requests, complete finished jobs, start queued ones.
    pub fn tick(&mut self, now: u64, seg: &mut EtherSegment) {
        // The ring takes the backlog's head by move; a refusal leaves it
        // in place.
        while !self.reply_backlog.is_empty() {
            let backlog = &mut self.reply_backlog;
            if !seg.enqueue_with(self.nic as usize, || backlog.pop_front().expect("non-empty")) {
                break;
            }
            self.stats.replies_sent += 1;
        }

        while let Some(frame) = seg.recv(self.nic as usize) {
            match RpcMsg::decode(&frame.payload) {
                Some(RpcMsg::Request {
                    client,
                    seq,
                    payload_bytes,
                    priority,
                    epoch,
                    ack_below,
                    ..
                }) => {
                    self.stats.received += 1;
                    let floor = self.ack_below.entry(client).or_insert(0);
                    *floor = (*floor).max(ack_below);
                    if epoch != self.epoch {
                        // A binding from another incarnation: our reply
                        // cache for it is gone, so executing could
                        // double-execute a pre-restart call. Refuse and
                        // let the client re-issue under a fresh id.
                        self.stats.rebinds_sent += 1;
                        let msg =
                            RpcMsg::Rebind { client, seq, server: self.nic, epoch: self.epoch };
                        self.send_to_client(client, msg, seg);
                    } else if let Some(&result) = self.reply_cache.get(&(client, seq)) {
                        self.stats.dup_cache_hits += 1;
                        self.send_reply(client, seq, result, seg);
                    } else if self.in_progress.contains(&(client, seq)) {
                        self.stats.dup_in_progress += 1;
                    } else if let Some(cutoff) = self.brownout_cutoff() {
                        if u32::from(priority) >= cutoff {
                            self.in_progress.insert((client, seq));
                            self.queue.push_back(Job {
                                client,
                                seq,
                                payload_bytes,
                                priority,
                                done_at: 0,
                            });
                        } else {
                            // Brownout: an explicit, immediate rejection.
                            // Costs one reply frame now; a silent drop
                            // costs the client a full timeout and a
                            // retransmission later.
                            self.stats.shed_replied += 1;
                            let msg = RpcMsg::Shed { client, seq, server: self.nic };
                            self.send_to_client(client, msg, seg);
                        }
                    } else if self.queue.len() >= self.queue_cap {
                        self.stats.shed += 1;
                    } else {
                        self.in_progress.insert((client, seq));
                        self.queue.push_back(Job {
                            client,
                            seq,
                            payload_bytes,
                            priority,
                            done_at: 0,
                        });
                    }
                }
                Some(_) | None => self.stats.decode_rejects += 1,
            }
        }

        for slot in 0..self.running.len() {
            let finished = matches!(&self.running[slot], Some(job) if job.done_at <= now);
            if finished {
                let job = self.running[slot].take().expect("finished job");
                let result = result_of(job.client, job.seq);
                *self.executed.entry((job.client, job.seq)).or_insert(0) += 1;
                self.cache_reply(job.client, job.seq, result);
                self.in_progress.remove(&(job.client, job.seq));
                self.stats.executed += 1;
                self.send_reply(job.client, job.seq, result, seg);
            }
            if self.running[slot].is_none() {
                if let Some(mut job) = self.queue.pop_front() {
                    job.done_at = now + self.service_time(now, job.payload_bytes);
                    self.running[slot] = Some(job);
                }
            }
        }
    }

    /// Serializes the complete server state. The running slots carry
    /// no count: there is one per thread.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&(self.nic, self.threads, self.service_cycles));
        w.put(&(self.queue_cap, self.cache_per_client, self.brownout_watermark, self.epoch));
        w.put(&self.slowdown);
        w.put(&self.queue);
        for slot in &self.running {
            w.put(slot);
        }
        w.put(&self.in_progress);
        w.put(&self.reply_cache);
        w.put(&self.ack_below);
        w.put(&self.executed);
        w.put(&self.reply_backlog);
        w.put(&self.rng);
        w.put(&self.stats);
    }

    /// Rebuilds a server from state captured by [`save`](RpcServer::save).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] on truncation or a degenerate
    /// thread count.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        let (nic, threads, service_cycles) = r.get()?;
        if threads == 0 {
            return Err(Error::SnapshotCorrupt("server with no threads".into()));
        }
        let (queue_cap, cache_per_client, brownout_watermark, epoch) = r.get()?;
        let slowdown = r.get()?;
        let queue = r.get()?;
        let running = (0..threads).map(|_| r.get()).collect::<Result<_, _>>()?;
        let in_progress = r.get()?;
        let reply_cache: BTreeMap<(u32, u64), u32> = r.get()?;
        let mut cache_counts = BTreeMap::new();
        for &(c, _) in reply_cache.keys() {
            *cache_counts.entry(c).or_insert(0) += 1;
        }
        let ack_below = r.get()?;
        let executed = r.get()?;
        let reply_backlog = r.get()?;
        let rng = r.get()?;
        Ok(RpcServer {
            nic,
            threads,
            service_cycles,
            queue_cap,
            cache_per_client,
            brownout_watermark,
            epoch,
            slowdown,
            queue,
            running,
            in_progress,
            reply_cache,
            cache_counts,
            ack_below,
            executed,
            reply_backlog,
            rng,
            stats: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFaultConfig;
    use crate::segment::SegmentConfig;

    /// One server (NIC 0), one client (NIC 1), lock-stepped.
    struct Pair {
        seg: EtherSegment,
        server: RpcServer,
        client: RpcClient,
    }

    impl Pair {
        fn new(policy: RetryPolicy, faults: NetFaultConfig) -> Self {
            let mut cfg = SegmentConfig::new(2);
            cfg.seed = 42;
            cfg.faults = faults;
            Pair {
                seg: EtherSegment::new(cfg),
                server: RpcServer::new(0, 3, 2_000, 7),
                client: RpcClient::new(1, vec![0], policy, 7),
            }
        }

        fn step(&mut self) {
            self.seg.tick();
            let now = self.seg.cycle();
            self.server.tick(now, &mut self.seg);
            self.client.tick(now, &mut self.seg);
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.step();
            }
        }
    }

    #[test]
    fn calls_complete_on_a_clean_wire() {
        let mut p = Pair::new(RetryPolicy::budgeted(20_000), NetFaultConfig::default());
        for _ in 0..5 {
            assert!(p.client.submit(p.seg.cycle(), 300));
        }
        p.run(200_000);
        let cs = p.client.stats();
        assert_eq!(cs.acked, 5);
        assert_eq!(cs.failed, 0);
        assert_eq!(cs.acked_payload_bytes, 1_500);
        assert_eq!(p.client.latency().count(), 5);
        assert!(p.client.latency().min() > 0);
        assert_eq!(p.server.stats().executed, 5);
    }

    #[test]
    fn duplicated_frames_execute_once() {
        // Duplicate every frame on the wire: requests arrive twice,
        // replies arrive twice. The server must execute each id once
        // and the client must complete each call once.
        let faults = NetFaultConfig { seed: 5, dup_ppm: PPM, ..NetFaultConfig::default() };
        let mut p = Pair::new(RetryPolicy::budgeted(20_000), faults);
        for _ in 0..4 {
            assert!(p.client.submit(p.seg.cycle(), 200));
        }
        p.run(300_000);
        let cs = p.client.stats();
        assert_eq!(cs.acked, 4);
        assert!(cs.dup_replies > 0, "duplicate replies must be observed and ignored");
        for (&id, &count) in p.server.executions() {
            assert_eq!(count, 1, "request {id:?} executed more than once");
        }
        assert_eq!(p.server.stats().executed, 4);
        assert!(
            p.server.stats().dup_cache_hits + p.server.stats().dup_in_progress > 0,
            "duplicate requests must hit the dedup paths"
        );
    }

    #[test]
    fn lossy_wire_is_survived_by_retries() {
        // Drop ~30% of frames; the budgeted policy's retries must still
        // land every call.
        let faults = NetFaultConfig { seed: 9, drop_ppm: 300_000, ..NetFaultConfig::default() };
        let mut p = Pair::new(RetryPolicy::budgeted(30_000), faults);
        for _ in 0..6 {
            assert!(p.client.submit(p.seg.cycle(), 200));
        }
        p.run(3_000_000);
        let cs = p.client.stats();
        assert_eq!(cs.acked + cs.failed, 6, "every call must resolve");
        assert!(cs.acked >= 4, "most calls should survive 30% loss, got {}", cs.acked);
        assert!(cs.retries > 0);
        for &count in p.server.executions().values() {
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn retry_budget_exhausts_against_a_dead_server() {
        // Disable the give-up deadline so the attempt budget is the
        // binding constraint (the default deadline of 8 timeouts fires
        // before 7 doubling backoffs can elapse).
        let mut policy = RetryPolicy::budgeted(5_000);
        policy.deadline = 0;
        let mut p = Pair::new(policy, NetFaultConfig::default());
        p.seg.set_online(0, false);
        assert!(p.client.submit(p.seg.cycle(), 100));
        p.run(3_000_000);
        let cs = p.client.stats();
        assert_eq!(cs.failed, 1, "the call must fail after the budget");
        assert_eq!(cs.acked, 0);
        assert_eq!(cs.retries, 7, "8 attempts = 1 initial + 7 retries");
        assert_eq!(p.client.outstanding(), 0);
    }

    #[test]
    fn deadline_gives_up_before_the_budget() {
        // With the stock budgeted policy the 8-timeout deadline binds
        // first against a dead server: backoff doubles past the
        // deadline long before 7 retries are spent.
        let policy = RetryPolicy::budgeted(5_000);
        assert_eq!(policy.deadline, 40_000);
        let mut p = Pair::new(policy, NetFaultConfig::default());
        p.seg.set_online(0, false);
        assert!(p.client.submit(p.seg.cycle(), 100));
        p.run(200_000);
        let cs = p.client.stats();
        assert_eq!(cs.failed, 1, "the deadline must fail the call");
        assert!(
            cs.retries < 7,
            "deadline should bind before the attempt budget, got {} retries",
            cs.retries
        );
        assert_eq!(p.client.outstanding(), 0);
    }

    #[test]
    fn naive_policy_never_gives_up() {
        let mut p = Pair::new(RetryPolicy::naive(5_000), NetFaultConfig::default());
        p.seg.set_online(0, false);
        assert!(p.client.submit(p.seg.cycle(), 100));
        p.run(1_000_000);
        let cs = p.client.stats();
        assert_eq!(cs.failed, 0);
        assert_eq!(p.client.outstanding(), 1, "the call stays pending forever");
        assert!(cs.retries > 100, "fixed timeout keeps retrying, got {}", cs.retries);
    }

    #[test]
    fn outstanding_cap_backpressures_and_backlog_sheds() {
        let mut policy = RetryPolicy::budgeted(20_000);
        policy.max_outstanding = 2;
        policy.queue_cap = 3;
        let mut p = Pair::new(policy, NetFaultConfig::default());
        let mut admitted = 0;
        for _ in 0..10 {
            if p.client.submit(0, 100) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3, "backlog cap admits 3");
        assert_eq!(p.client.stats().shed, 7);
        p.step();
        assert!(p.client.outstanding() <= 2, "outstanding cap enforced");
        p.run(400_000);
        assert_eq!(p.client.stats().acked, 3, "admitted calls all complete");
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let mut policy = RetryPolicy::budgeted(1_000);
        policy.jitter_ppm = 0;
        let mut c = RpcClient::new(1, vec![0], policy, 3);
        assert_eq!(c.next_timeout(1), 1_000);
        assert_eq!(c.next_timeout(2), 2_000);
        assert_eq!(c.next_timeout(5), 16_000);
        assert_eq!(c.next_timeout(40), 16_000, "capped at 16x");
        let mut naive = RpcClient::new(1, vec![0], RetryPolicy::naive(1_000), 3);
        assert_eq!(naive.next_timeout(1), 1_000);
        assert_eq!(naive.next_timeout(9), 1_000, "naive timeout never grows");
    }

    #[test]
    fn jitter_stays_within_the_policy_fraction() {
        let mut policy = RetryPolicy::budgeted(10_000);
        policy.jitter_ppm = 250_000;
        let mut c = RpcClient::new(1, vec![0], policy, 11);
        for _ in 0..1_000 {
            let t = c.next_timeout(1);
            assert!((10_000..12_500).contains(&t), "jittered timeout {t} out of range");
        }
    }

    /// Two servers (NICs 0, 1), one client (NIC 2), lock-stepped.
    struct Trio {
        seg: EtherSegment,
        servers: [RpcServer; 2],
        client: RpcClient,
    }

    impl Trio {
        fn new(policy: RetryPolicy) -> Self {
            let mut cfg = SegmentConfig::new(3);
            cfg.seed = 42;
            Trio {
                seg: EtherSegment::new(cfg),
                servers: [RpcServer::new(0, 3, 2_000, 7), RpcServer::new(1, 3, 2_000, 7)],
                client: RpcClient::new(2, vec![0, 1], policy, 7),
            }
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.seg.tick();
                let now = self.seg.cycle();
                for s in &mut self.servers {
                    s.tick(now, &mut self.seg);
                }
                self.client.tick(now, &mut self.seg);
            }
        }
    }

    #[test]
    fn breakers_fail_fast_when_every_server_is_unreachable() {
        let mut t = Trio::new(RetryPolicy::resilient(5_000));
        t.seg.set_online(0, false);
        t.seg.set_online(1, false);
        for burst in 0..50 {
            t.client.submit(t.seg.cycle(), 100);
            t.run(10_000);
            if burst == 25 {
                // Mid-outage both breakers should have tripped.
                assert_ne!(t.client.breaker_state(0), Some(BreakerState::Closed));
                assert_ne!(t.client.breaker_state(1), Some(BreakerState::Closed));
            }
        }
        let cs = t.client.stats();
        assert!(cs.fast_failed > 20, "most calls fail fast locally, got {}", cs.fast_failed);
        assert!(cs.timeouts < 60, "open breakers must bound wasted timeouts, got {}", cs.timeouts);
        assert_eq!(cs.acked, 0);
        // The wire saw only the pre-trip attempts and decaying probes.
        assert!(cs.retries < 30, "retry budget mostly unburned, got {}", cs.retries);
    }

    #[test]
    fn breakers_probe_and_close_after_heal() {
        let mut t = Trio::new(RetryPolicy::resilient(5_000));
        t.seg.set_online(0, false);
        t.seg.set_online(1, false);
        for _ in 0..20 {
            t.client.submit(t.seg.cycle(), 100);
            t.run(10_000);
        }
        assert_ne!(t.client.breaker_state(0), Some(BreakerState::Closed));
        // Heal the wire; keep offering traffic. Half-open probes must
        // rediscover the servers and close the breakers.
        t.seg.set_online(0, true);
        t.seg.set_online(1, true);
        let acked_before = t.client.stats().acked;
        for _ in 0..60 {
            t.client.submit(t.seg.cycle(), 100);
            t.run(10_000);
        }
        assert_eq!(t.client.breaker_state(0), Some(BreakerState::Closed));
        assert_eq!(t.client.breaker_state(1), Some(BreakerState::Closed));
        let cs = t.client.stats();
        assert!(cs.acked > acked_before + 30, "traffic flows again, got {}", cs.acked);
    }

    #[test]
    fn msg_codec_roundtrips_and_pads() {
        let req = RpcMsg::Request {
            client: 3,
            seq: 99,
            server: 1,
            payload_bytes: 500,
            attempt: 2,
            priority: 17,
            epoch: 4,
            ack_below: 91,
        };
        let bytes = req.encode();
        assert_eq!(bytes.len(), 500, "request padded to its declared size");
        assert_eq!(RpcMsg::decode(&bytes), Some(req));
        let reply = RpcMsg::Reply { client: 3, seq: 99, server: 1, result: 0xdead, epoch: 4 };
        let bytes = reply.encode();
        assert_eq!(bytes.len(), REPLY_PAYLOAD_BYTES);
        assert_eq!(RpcMsg::decode(&bytes), Some(reply));
        let shed = RpcMsg::Shed { client: 3, seq: 99, server: 1 };
        let bytes = shed.encode();
        assert_eq!(bytes.len(), REPLY_PAYLOAD_BYTES);
        assert_eq!(RpcMsg::decode(&bytes), Some(shed));
        let rebind = RpcMsg::Rebind { client: 3, seq: 99, server: 1, epoch: 5 };
        let bytes = rebind.encode();
        assert_eq!(bytes.len(), REPLY_PAYLOAD_BYTES);
        assert_eq!(RpcMsg::decode(&bytes), Some(rebind));
        assert_eq!(RpcMsg::decode(&[]), None);
        assert_eq!(RpcMsg::decode(&[9, 0, 0]), None);
    }

    #[test]
    fn endpoint_snapshots_resume_bit_identical() {
        let faults = NetFaultConfig::lossy(13, 60_000);
        let mut p = Pair::new(RetryPolicy::budgeted(15_000), faults);
        let mut arrivals = 0u64;
        for step in 0..150_000u64 {
            if step % 9_000 == 0 {
                p.client.submit(p.seg.cycle(), 100 + (arrivals * 37 % 1_200) as u32);
                arrivals += 1;
            }
            p.step();
        }
        // Snapshot all three parts mid-conversation.
        let mut w = SnapWriter::new();
        p.seg.save(&mut w);
        p.server.save(&mut w);
        p.client.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = Pair {
            seg: EtherSegment::load(&mut r).unwrap(),
            server: RpcServer::load(&mut r).unwrap(),
            client: RpcClient::load(&mut r).unwrap(),
        };
        r.expect_end().unwrap();
        for step in 0..150_000u64 {
            if step % 11_000 == 0 {
                p.client.submit(p.seg.cycle(), 640);
                q.client.submit(q.seg.cycle(), 640);
            }
            p.step();
            q.step();
        }
        assert_eq!(p.client.stats(), q.client.stats());
        assert_eq!(p.server.stats(), q.server.stats());
        assert_eq!(p.seg.stats(), q.seg.stats());
        let mut w1 = SnapWriter::new();
        p.seg.save(&mut w1);
        p.server.save(&mut w1);
        p.client.save(&mut w1);
        let mut w2 = SnapWriter::new();
        q.seg.save(&mut w2);
        q.server.save(&mut w2);
        q.client.save(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn pending_call_past_the_server_list_is_rejected() {
        let mut seg = EtherSegment::new(SegmentConfig::new(3));
        let mut client = RpcClient::new(1, vec![0, 2], RetryPolicy::budgeted(15_000), 5);
        client.submit(0, 64);
        seg.tick();
        client.tick(seg.cycle(), &mut seg);
        client.pending.values_mut().next().expect("the call is pending").server_slot = 2;
        let mut w = SnapWriter::new();
        client.save(&mut w);
        let bytes = w.into_bytes();
        let loaded = RpcClient::load(&mut SnapReader::new(&bytes));
        assert!(matches!(loaded, Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn pending_call_at_or_past_next_seq_is_rejected() {
        let mut seg = EtherSegment::new(SegmentConfig::new(3));
        let mut client = RpcClient::new(1, vec![0, 2], RetryPolicy::budgeted(15_000), 5);
        client.submit(0, 64);
        seg.tick();
        client.tick(seg.cycle(), &mut seg);
        assert_eq!(client.next_seq, 1);
        let save = |client: &RpcClient| {
            let mut w = SnapWriter::new();
            client.save(&mut w);
            RpcClient::load(&mut SnapReader::new(&w.into_bytes()))
        };
        assert!(save(&client).is_ok(), "a pending seq below next_seq loads");
        // At: rewind next_seq onto the pending call (seq 0).
        let mut at = client.clone();
        at.next_seq = 0;
        // Past: re-key the pending call beyond next_seq.
        let mut past = client.clone();
        let call = past.pending.remove(&0).expect("seq 0 is pending");
        past.pending.insert(5, call);
        for bad in [at, past] {
            assert!(matches!(save(&bad), Err(Error::SnapshotCorrupt(_))));
        }
    }

    /// A raw request frame with an explicit `ack_below` declaration.
    fn raw_request(client: u32, seq: u64, ack_below: u64) -> Frame {
        let msg = RpcMsg::Request {
            client,
            seq,
            server: 0,
            payload_bytes: 64,
            attempt: 1,
            priority: u8::MAX,
            epoch: 0,
            ack_below,
        };
        Frame::new(client as usize, 0, msg.encode())
    }

    #[test]
    fn reply_backlog_flush_moves_its_frame_and_a_refusal_leaves_it() {
        let mut cfg = SegmentConfig::new(2);
        cfg.tx_ring = 1;
        let mut seg = EtherSegment::new(cfg);
        let mut s = RpcServer::new(0, 1, 10, 1);
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])), "fills the server's TX ring");
        let reply = RpcMsg::Reply { client: 1, seq: 0, server: 0, result: 9, epoch: 0 };
        s.reply_backlog.push_back(reply.frame(0, 1));
        let payload = s.reply_backlog[0].payload.as_ptr();
        s.tick(0, &mut seg);
        assert_eq!(seg.stats().tx_rejected, 1, "the full ring refused the flush");
        assert_eq!(s.reply_backlog[0].payload.as_ptr(), payload, "refused frame left in place");
        seg.tick(); // The filler frame leaves the ring for the wire.
        s.tick(seg.cycle(), &mut seg);
        assert_eq!((s.reply_backlogged(), s.stats().replies_sent), (0, 1));
        while seg.rx_queued(1) < 2 {
            seg.tick();
        }
        seg.recv(1).expect("the filler frame");
        let delivered = seg.recv(1).expect("the reply");
        assert_eq!(RpcMsg::decode(&delivered.payload), Some(reply));
        assert_eq!(delivered.payload.as_ptr(), payload, "the frame was moved, never cloned");
    }

    /// The endpoint's saved bytes, for byte-equality checks.
    fn saved(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    /// A client at NIC 2 of a three-NIC segment with one-frame TX rings,
    /// calling servers 0 and 1: three calls submitted, the first sent
    /// at cycle 1 and left in the ring (the segment is not ticked), so
    /// the other two wait on a full ring.
    fn client_on_a_full_ring(policy: RetryPolicy) -> (RpcClient, EtherSegment) {
        let mut cfg = SegmentConfig::new(3);
        cfg.tx_ring = 1;
        let mut seg = EtherSegment::new(cfg);
        let mut client = RpcClient::new(2, vec![0, 1], policy, 7);
        for _ in 0..3 {
            assert!(client.submit(0, 200));
        }
        client.tick(1, &mut seg);
        assert_eq!((client.outstanding(), client.backlogged()), (1, 2));
        assert!(seg.refuses(2), "the first call fills the ring");
        (client, seg)
    }

    /// Ticking a ring-blocked `client` at each of the `n` cycles after
    /// `now` (the segment not ticked) leaves the same client bytes,
    /// stats and segment bytes as crediting it `n` refusals.
    fn assert_credit_equals_ticks(client: &RpcClient, seg: &EtherSegment, now: u64, n: u64) {
        assert!(client.ring_blocked(seg), "the client is ring-blocked");
        assert!(client.next_event(now, seg) > now + n, "the ticks stay short of the horizon");
        let (mut ticked, mut ticked_seg) = (client.clone(), seg.clone());
        for at in now + 1..=now + n {
            ticked.tick(at, &mut ticked_seg);
        }
        let (mut credited, mut credited_seg) = (client.clone(), seg.clone());
        credited.credit_refusals(n, &mut credited_seg);
        assert_eq!(ticked.stats(), credited.stats());
        assert_eq!(ticked_seg.stats(), credited_seg.stats());
        assert_eq!(credited.stats().tx_ring_full - client.stats().tx_ring_full, n);
        assert_eq!(credited_seg.stats().tx_rejected - seg.stats().tx_rejected, n);
        assert!(saved(|w| ticked.save(w)) == saved(|w| credited.save(w)), "client bytes differ");
        assert!(saved(|w| ticked_seg.save(w)) == saved(|w| credited_seg.save(w)));
    }

    #[test]
    fn blocked_client_credit_equals_ticks_with_breakers_off() {
        let (client, seg) = client_on_a_full_ring(RetryPolicy::budgeted(20_000));
        assert_eq!(client.breaker_state(0), None);
        assert_credit_equals_ticks(&client, &seg, 1, 5_000);
    }

    #[test]
    fn blocked_client_credit_equals_ticks_behind_a_closed_breaker() {
        let (client, seg) = client_on_a_full_ring(RetryPolicy::resilient(20_000));
        let first = client.next_seq as usize % client.servers().len();
        assert_eq!(client.breaker_state(first), Some(BreakerState::Closed));
        assert_credit_equals_ticks(&client, &seg, 1, 5_000);
    }

    /// A full ring refuses a call before any breaker is asked, so a
    /// client whose first slot tried is `Open` or `HalfOpen` is
    /// ring-blocked like any other: `n` ticks equal a credit of `n`, and
    /// the refused calls spend no `HalfOpen` probe.
    #[test]
    fn open_and_half_open_first_slots_are_blocked_and_spend_no_probe() {
        let (mut client, seg) = client_on_a_full_ring(RetryPolicy::resilient(20_000));
        let first = client.next_seq as usize % client.servers().len();
        let probes = |c: &RpcClient| c.breaker_stats(first).expect("breakers on").probes;
        for _ in 0..3 {
            client.breakers[first].on_failure(1);
        }
        assert_eq!(client.breaker_state(first), Some(BreakerState::Open));
        assert_credit_equals_ticks(&client, &seg, 1, 1_000);

        assert!(client.breakers[first].admit(u64::MAX), "the cooled breaker admits a probe");
        assert_eq!(client.breaker_state(first), Some(BreakerState::HalfOpen));
        assert_credit_equals_ticks(&client, &seg, 1, 1_000);
        let (mut ticked, mut ticked_seg) = (client.clone(), seg.clone());
        for at in 2..=1_001 {
            ticked.tick(at, &mut ticked_seg);
        }
        assert_eq!(probes(&ticked), probes(&client), "a refused call takes no probe");
        assert_eq!(ticked.breaker_state(first), Some(BreakerState::HalfOpen));
    }

    /// Trips the breaker at `slot` and lets it cool into `HalfOpen`
    /// with one of its two probes taken.
    fn half_open(client: &mut RpcClient, slot: usize) {
        for _ in 0..3 {
            client.breakers[slot].on_failure(1);
        }
        assert!(client.breakers[slot].admit(u64::MAX), "the cooled breaker admits a probe");
        assert_eq!(client.breaker_state(slot), Some(BreakerState::HalfOpen));
    }

    /// A retransmission that the full ring refuses spends no probe and
    /// stays bound where the failover step put it, not on the server
    /// whose `HalfOpen` breaker would have admitted it. Only a policy
    /// without backoff (or an offline NIC) retransmits onto a ring that
    /// holds frames.
    #[test]
    fn refused_retransmit_spends_no_probe() {
        let mut policy = RetryPolicy::resilient(20_000);
        policy.backoff_factor = 1;
        let (mut client, mut seg) = client_on_a_full_ring(policy);
        for _ in 0..3 {
            client.breakers[0].on_failure(1);
        }
        assert_eq!(client.breaker_state(0), Some(BreakerState::Open));
        half_open(&mut client, 1);
        let (before, seg_before) = (client.clone(), seg.stats());
        let timeout_at = client.pending[&0].timeout_at;
        client.tick(timeout_at, &mut seg);
        let probes = |c: &RpcClient, slot| c.breaker_stats(slot).expect("breakers on").probes;
        for slot in 0..2 {
            assert_eq!(probes(&client, slot), probes(&before, slot), "slot {slot} gave a probe");
        }
        assert_eq!(seg.stats().tx_enqueued, seg_before.tx_enqueued);
        assert_eq!(client.stats().timeouts, 1);
        assert_eq!(client.stats().retries, 0);
        let p = &client.pending[&0];
        assert_eq!((p.server_slot, p.attempts), (0, 1), "the call stays bound, unsent");
        assert_eq!(p.timeout_at, timeout_at + TX_RETRY_CYCLES, "re-polled without backoff");
    }

    #[test]
    fn blocked_server_credit_equals_ticks() {
        let mut cfg = SegmentConfig::new(2);
        cfg.tx_ring = 1;
        let mut seg = EtherSegment::new(cfg);
        let mut s = RpcServer::new(0, 1, 10, 1);
        assert!(seg.enqueue(Frame::new(0, 1, vec![0; 8])), "fills the server's TX ring");
        let reply = RpcMsg::Reply { client: 1, seq: 0, server: 0, result: 9, epoch: 0 };
        s.reply_backlog.push_back(reply.frame(0, 1));
        assert!(s.ring_blocked(&seg));
        assert_eq!(s.next_event(0, &seg), u64::MAX, "an idle server sleeps on its full ring");
        let n = 4_000;
        let (mut ticked, mut ticked_seg) = (s.clone(), seg.clone());
        for at in 1..=n {
            ticked.tick(at, &mut ticked_seg);
        }
        let mut credited_seg = seg.clone();
        s.credit_refusals(n, &mut credited_seg);
        assert_eq!(ticked.stats(), s.stats(), "a refused flush counts nothing at the server");
        assert_eq!(ticked_seg.stats(), credited_seg.stats());
        assert_eq!(credited_seg.stats().tx_rejected, n);
        assert!(saved(|w| ticked.save(w)) == saved(|w| s.save(w)), "server bytes differ");
        assert!(saved(|w| ticked_seg.save(w)) == saved(|w| credited_seg.save(w)));
    }

    #[test]
    fn reply_cache_prunes_to_bound() {
        let mut s = RpcServer::new(0, 1, 10, 1);
        s.set_cache_per_client(4);
        let mut cfg = SegmentConfig::new(2);
        cfg.seed = 1;
        let mut seg = EtherSegment::new(cfg);
        // Push 10 distinct requests through the server directly, each
        // declaring everything before it unretransmittable.
        for seq in 0..10u64 {
            seg.enqueue(raw_request(1, seq, seq));
            for _ in 0..5_000 {
                seg.tick();
                s.tick(seg.cycle(), &mut seg);
            }
        }
        assert_eq!(s.stats().executed, 10);
        assert_eq!(s.reply_cache.len(), 4, "cache pruned to the per-client bound");
        assert_eq!(s.executions().len(), 10, "execution log keeps every id");
        assert_eq!(s.stats().evictions_refused, 0, "acked entries evict freely");
    }

    #[test]
    fn cache_refuses_to_evict_retransmittable_entries() {
        // Same pressure, but the client never advances `ack_below`:
        // every cached reply is still inside its retransmission window,
        // so the cache must refuse eviction and grow past the bound
        // rather than risk a duplicate execution.
        let mut s = RpcServer::new(0, 1, 10, 1);
        s.set_cache_per_client(4);
        let mut cfg = SegmentConfig::new(2);
        cfg.seed = 1;
        let mut seg = EtherSegment::new(cfg);
        for seq in 0..10u64 {
            seg.enqueue(raw_request(1, seq, 0));
            for _ in 0..5_000 {
                seg.tick();
                s.tick(seg.cycle(), &mut seg);
            }
        }
        assert_eq!(s.stats().executed, 10);
        assert_eq!(s.reply_cache.len(), 10, "no entry was evictable");
        assert!(s.stats().evictions_refused > 0, "refusals are counted");
        // Delayed duplicates of every request: all must hit the cache.
        for seq in 0..10u64 {
            seg.enqueue(raw_request(1, seq, 0));
            for _ in 0..5_000 {
                seg.tick();
                s.tick(seg.cycle(), &mut seg);
            }
        }
        assert_eq!(s.stats().executed, 10, "duplicates never re-execute");
        assert_eq!(s.stats().dup_cache_hits, 10);
        for &count in s.executions().values() {
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn restart_bumps_epoch_and_refuses_stale_requests() {
        let mut s = RpcServer::new(0, 1, 10, 1);
        let mut cfg = SegmentConfig::new(2);
        cfg.seed = 1;
        let mut seg = EtherSegment::new(cfg);
        // Execute (1, 0) in epoch 0.
        seg.enqueue(raw_request(1, 0, 0));
        for _ in 0..5_000 {
            seg.tick();
            s.tick(seg.cycle(), &mut seg);
        }
        assert_eq!(s.stats().executed, 1);
        // Crash and restart: cache is cold, epoch advanced.
        s.restart();
        assert_eq!(s.epoch(), 1);
        // A pre-crash duplicate retransmission (epoch 0) must be
        // refused, not re-executed against the cold cache.
        seg.enqueue(raw_request(1, 0, 0));
        for _ in 0..5_000 {
            seg.tick();
            s.tick(seg.cycle(), &mut seg);
        }
        assert_eq!(s.stats().executed, 1, "stale-epoch duplicate not re-executed");
        assert_eq!(s.stats().rebinds_sent, 1);
        assert_eq!(s.executions()[&(1, 0)], 1);
    }

    #[test]
    fn brownout_sheds_lowest_priority_first() {
        let mut s = RpcServer::new(0, 1, 1_000_000, 1);
        s.set_queue_cap(8);
        s.set_brownout(2);
        let mut cfg = SegmentConfig::new(2);
        cfg.seed = 1;
        let mut seg = EtherSegment::new(cfg);
        // Feed alternating low/high priority requests into a server too
        // slow to drain them. Low priorities must shed first.
        let mut sent = 0u64;
        let mut seq = 0u64;
        while sent < 12 {
            let priority = if seq.is_multiple_of(2) { 0 } else { u8::MAX };
            let msg = RpcMsg::Request {
                client: 1,
                seq,
                server: 0,
                payload_bytes: 64,
                attempt: 1,
                priority,
                epoch: 0,
                ack_below: 0,
            };
            if seg.enqueue(Frame::new(1, 0, msg.encode())) {
                sent += 1;
                seq += 1;
            }
            for _ in 0..2_000 {
                seg.tick();
                s.tick(seg.cycle(), &mut seg);
            }
        }
        let st = s.stats();
        assert!(st.shed_replied > 0, "brownout must shed explicitly");
        assert_eq!(st.shed, 0, "no silent sheds while brownout is on");
        // Every queued job that survived admission above the watermark
        // should be high priority (low priorities were cut first).
        let queued_low = s.queue.iter().filter(|j| j.priority == 0).count();
        let queued_high = s.queue.iter().filter(|j| j.priority == u8::MAX).count();
        assert!(
            queued_high >= queued_low,
            "high priority must dominate the queue ({queued_high} high vs {queued_low} low)"
        );
    }
}
