//! `fleet-serving` and `fleet-storm`: Fireflies on one Ethernet.
//!
//! The timed operation runs [`Fleet::run`]. The traced operation runs
//! the same cycles through [`Fleet::step`] with one step in
//! [`SAMPLE_EVERY`] timed and classified by whether the wire carried a
//! frame during it; its digest must equal the untraced one. `Fleet`
//! hides its parts, so a second, separate harness ([`NetHarness`])
//! assembles the same segment, servers and clients from `firefly-net`'s
//! public constructors, feeds the clients arrivals generated here, and
//! times the segment, server and client ticks one by one.

use super::{ns_since, Op, Size, TracedOp};
use crate::digest;
use crate::metrics::{ratio, Report};
use crate::spans::{Tracer, SAMPLE_EVERY};
use firefly_core::snapshot::{SnapReader, SnapWriter};
use firefly_core::Error;
use firefly_net::{EtherSegment, RpcClient, RpcServer, SegmentConfig};
use firefly_sim::{Fleet, FleetConfig};
use std::time::Instant;

/// The one storm `fleet-storm` replays. A naive-retry storm is
/// chaotic: where it stands at a given cycle, and so what 50 k cycles of
/// it cost, varies threefold from seed to seed (storm onset anywhere
/// from cycle 1.4 M to 1.8 M), so a storm drawn from the run's seed
/// would measure the seed rather than the simulator.
pub const STORM_SEED: u64 = super::DEFAULT_SEED;

/// Counters gathered across operations for the per-layer metrics.
#[derive(Debug, Default)]
struct Tally {
    cycles: u64,
    timeouts: u64,
    frames: u64,
}

/// A set-up fleet workload.
#[derive(Debug)]
pub struct FleetBench {
    live: Fleet,
    image: Vec<u8>,
    warm_to: u64,
    op_cycles: u64,
    setup_digest: u64,
    harness: Option<(NetHarness, Vec<u8>)>,
    seed: u64,
    tally: Tally,
}

impl FleetBench {
    /// `fleet-serving`: two servers, six clients, 10 calls per Mcycle per
    /// client; 1 M warm cycles, 2 M cycles per operation.
    ///
    /// # Errors
    ///
    /// When the warm fleet breaks the at-most-once contract.
    pub fn serving(seed: u64, size: Size) -> Result<Self, String> {
        let mut cfg = FleetConfig::serving(2, 6, seed);
        cfg.arrivals_per_mcycle = 10;
        Self::new(cfg, size.cycles(1_000_000), size.cycles(2_000_000), seed)
    }

    /// `fleet-storm`: the naive-retry storm scenario at [`STORM_SEED`],
    /// warmed to cycle 1.8 M (600 k cycles into the service slowdown);
    /// 50 k cycles per operation. `seed` only seeds the net-layer
    /// harness of the traced pass.
    ///
    /// # Errors
    ///
    /// When the warm fleet breaks the at-most-once contract.
    pub fn storm(seed: u64, size: Size) -> Result<Self, String> {
        let cfg = FleetConfig::retry_storm(STORM_SEED, true);
        Self::new(cfg, size.cycles(1_800_000), size.cycles(50_000), seed)
    }

    fn new(cfg: FleetConfig, warm_to: u64, op_cycles: u64, seed: u64) -> Result<Self, String> {
        let mut live = Fleet::new(cfg);
        live.run_until(warm_to);
        at_most_once(&live)?;
        let image = live.save_snapshot();
        let setup_digest = digest::fleet(&live);
        Ok(FleetBench {
            live,
            image,
            warm_to,
            op_cycles,
            setup_digest,
            harness: None,
            seed,
            tally: Tally::default(),
        })
    }

    /// Digest of the warm fleet.
    pub fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    fn restore(&mut self) -> Result<(), String> {
        self.live.load_snapshot(&self.image).map_err(|e| format!("fleet load: {e}"))
    }

    /// Restores the fleet and runs it.
    ///
    /// # Errors
    ///
    /// When the checkpoint fails to load or the run breaks the
    /// at-most-once contract.
    pub fn op(&mut self) -> Result<Op, String> {
        self.restore()?;
        let (timeouts_before, frames) =
            (timeouts(&self.live), self.live.segment_stats().frames_sent);
        let t = Instant::now();
        self.live.run(self.op_cycles);
        let ns = ns_since(t);
        self.tally.cycles += self.op_cycles;
        self.tally.timeouts += timeouts(&self.live) - timeouts_before;
        self.tally.frames += self.live.segment_stats().frames_sent - frames;
        at_most_once(&self.live)?;
        Ok(Op { ns, digest: digest::fleet(&self.live) })
    }

    /// Builds the net-layer harness under this fleet's config and warms
    /// it to the cycle the fleet was warmed to.
    ///
    /// # Errors
    ///
    /// When the harness cannot be checkpointed.
    pub fn prepare_trace(&mut self) -> Result<(), String> {
        let mut h = NetHarness::new(*self.live.config(), self.seed);
        h.run(self.warm_to, None);
        let image = h.save();
        self.harness = Some((h, image));
        Ok(())
    }

    /// The sampled [`Fleet::step`] run, then the harness from its own
    /// checkpoint over the same number of cycles (timed only through its
    /// spans).
    ///
    /// # Errors
    ///
    /// As for [`FleetBench::op`], or when the harness checkpoint fails
    /// to load.
    pub fn traced_op(&mut self, tr: &mut Tracer) -> Result<TracedOp, String> {
        self.restore()?;
        let t = Instant::now();
        let mut left = self.op_cycles;
        while left > 0 {
            let busy = self.live.segment_stats().wire_busy_cycles;
            let a = tr.now();
            self.live.step();
            let b = tr.now();
            let wire = if self.live.segment_stats().wire_busy_cycles == busy {
                WIRE_IDLE
            } else {
                WIRE_BUSY
            };
            tr.unit(wire, a, b);
            left -= 1;
            let plain = left.min(SAMPLE_EVERY - 1);
            self.live.run(plain);
            left -= plain;
        }
        let ns = ns_since(t);
        at_most_once(&self.live)?;
        let op = Op { ns, digest: digest::fleet(&self.live) };
        let (h, image) = self.harness.as_mut().ok_or("traced op before prepare_trace")?;
        h.load(image).map_err(|e| format!("harness load: {e}"))?;
        h.run(self.op_cycles, Some(tr));
        Ok(TracedOp { op, base_ns: None })
    }

    /// Wire-idle share of step time, net-layer shares, event rates.
    pub fn layer_metrics(&self, tr: &Tracer, r: &mut Report) {
        let (idle, busy) = (tr.total(WIRE_IDLE), tr.total(WIRE_BUSY));
        r.set("fleet.step_wire_idle_share", ratio(idle.self_ns, idle.self_ns + busy.self_ns));
        r.set("fleet.wire_idle_frac", ratio(idle.calls as f64, (idle.calls + busy.calls) as f64));
        let t = &self.tally;
        r.set("fleet.timeouts_per_mcycle", ratio(t.timeouts as f64 * 1e6, t.cycles as f64));
        r.set("fleet.frames_per_mcycle", ratio(t.frames as f64 * 1e6, t.cycles as f64));
        let total = tr.self_ns(&[NET_CYCLE, SEGMENT, SERVER, CLIENT]);
        r.set("net.segment_share", ratio(tr.total(SEGMENT).self_ns, total));
        r.set("net.server_share", ratio(tr.total(SERVER).self_ns, total));
        r.set("net.client_share", ratio(tr.total(CLIENT).self_ns, total));
        r.set("net.loop_share", ratio(tr.total(NET_CYCLE).self_ns, total));
        if let Some((h, _)) = &self.harness {
            let samples = h.pending_samples * h.clients.len() as u64;
            r.set("net.client_pending_mean", ratio(h.pending_sum as f64, samples as f64));
        }
    }
}

const WIRE_IDLE: &str = "fleet.step_wire_idle";
const WIRE_BUSY: &str = "fleet.step_wire_busy";
const NET_CYCLE: &str = "net.cycle";
const SEGMENT: &str = "net.segment_tick";
const SERVER: &str = "net.server_tick";
const CLIENT: &str = "net.client_tick";

fn timeouts(f: &Fleet) -> u64 {
    (0..f.config().clients).map(|i| f.client_stats(i).timeouts).sum()
}

fn at_most_once(f: &Fleet) -> Result<(), String> {
    match f.check_at_most_once().first() {
        None => Ok(()),
        Some(v) => Err(format!("at-most-once violated: {v}")),
    }
}

/// SplitMix64: the harness's arrival and payload stream.
#[derive(Copy, Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Cycles to the next Poisson arrival at `per_mcycle` calls per
    /// million cycles.
    fn interarrival(&mut self, per_mcycle: u64) -> u64 {
        let dt = -(1.0 - self.unit()).ln() * 1e6 / per_mcycle as f64;
        (dt.ceil() as u64).clamp(1, 100_000_000)
    }

    /// A bounded-Pareto payload size, as the fleet draws them.
    fn payload(&mut self, cfg: &FleetConfig) -> u32 {
        let alpha = f64::from(cfg.pareto_alpha_x1000) / 1e3;
        let x = f64::from(cfg.payload_min) / (1.0 - self.unit()).powf(1.0 / alpha);
        if x >= f64::from(cfg.payload_max) {
            cfg.payload_max
        } else {
            (x as u32).max(cfg.payload_min)
        }
    }
}

/// One client of the harness with its load generator.
#[derive(Debug)]
struct Client {
    rpc: RpcClient,
    rng: SplitMix,
    next_arrival: u64,
}

/// The fleet's wire, servers and clients assembled from `firefly-net`'s
/// public constructors as [`Fleet::new`] assembles them, stepped in
/// [`Fleet::step`]'s order: wire, then servers, then clients.
#[derive(Debug)]
pub struct NetHarness {
    cfg: FleetConfig,
    segment: EtherSegment,
    servers: Vec<RpcServer>,
    clients: Vec<Client>,
    pending_sum: u64,
    pending_samples: u64,
}

impl NetHarness {
    /// A harness at cycle zero under `cfg`, its arrivals seeded from
    /// `seed`.
    pub fn new(cfg: FleetConfig, seed: u64) -> Self {
        let mut seg_cfg = SegmentConfig::new(cfg.servers + cfg.clients);
        seg_cfg.tx_ring = cfg.tx_ring;
        seg_cfg.rx_ring = cfg.rx_ring;
        seg_cfg.seed = cfg.seed;
        seg_cfg.faults = cfg.faults;
        let mut seeds = SplitMix(seed ^ 0x6e65_7468_6172_6e65);
        let servers = (0..cfg.servers)
            .map(|i| {
                let mut s =
                    RpcServer::new(i as u32, cfg.server_threads, cfg.service_cycles, seeds.next());
                s.set_queue_cap(cfg.server_queue_cap);
                s.set_cache_per_client(cfg.reply_cache_per_client);
                s.set_slowdown(cfg.slowdown.map(|w| (w.from, w.until, w.factor)));
                s.set_brownout(cfg.brownout_watermark);
                s
            })
            .collect();
        let server_nics: Vec<u32> = (0..cfg.servers as u32).collect();
        let clients = (0..cfg.clients)
            .map(|i| {
                let nic = (cfg.servers + i) as u32;
                let rpc = RpcClient::new(nic, server_nics.clone(), cfg.policy, seeds.next());
                let mut rng = SplitMix(seeds.next());
                let next_arrival = rng.interarrival(cfg.arrivals_per_mcycle);
                Client { rpc, rng, next_arrival }
            })
            .collect();
        NetHarness {
            cfg,
            segment: EtherSegment::new(seg_cfg),
            servers,
            clients,
            pending_sum: 0,
            pending_samples: 0,
        }
    }

    /// Runs `cycles` cycles; with a tracer, one cycle in
    /// [`SAMPLE_EVERY`] is timed: a `net.cycle` root holding one
    /// `net.segment_tick`, a `net.server_tick` per server and a
    /// `net.client_tick` per client (arrivals included).
    pub fn run(&mut self, cycles: u64, mut tr: Option<&mut Tracer>) {
        for i in 0..cycles {
            match tr.as_deref_mut() {
                Some(tr) if i % SAMPLE_EVERY == 0 => self.step_traced(tr),
                _ => self.step(),
            }
        }
    }

    fn step(&mut self) {
        self.segment.tick();
        let now = self.segment.cycle();
        for s in &mut self.servers {
            s.tick(now, &mut self.segment);
        }
        for c in &mut self.clients {
            Self::client_tick(c, now, &self.cfg, &mut self.segment);
        }
    }

    fn step_traced(&mut self, tr: &mut Tracer) {
        let t0 = tr.now();
        self.segment.tick();
        let now = self.segment.cycle();
        tr.child(SEGMENT, t0, tr.now());
        for s in &mut self.servers {
            let a = tr.now();
            s.tick(now, &mut self.segment);
            tr.child(SERVER, a, tr.now());
        }
        for c in &mut self.clients {
            let a = tr.now();
            Self::client_tick(c, now, &self.cfg, &mut self.segment);
            tr.child(CLIENT, a, tr.now());
        }
        tr.unit(NET_CYCLE, t0, tr.now());
        self.pending_samples += 1;
        let pending: usize =
            self.clients.iter().map(|c| c.rpc.outstanding() + c.rpc.backlogged()).sum();
        self.pending_sum += pending as u64;
    }

    fn client_tick(c: &mut Client, now: u64, cfg: &FleetConfig, seg: &mut EtherSegment) {
        while c.next_arrival <= now {
            let bytes = c.rng.payload(cfg);
            let priority = (c.rng.next() >> 56) as u8;
            c.rpc.submit_with_priority(now, bytes, priority);
            c.next_arrival += c.rng.interarrival(cfg.arrivals_per_mcycle);
        }
        c.rpc.tick(now, seg);
    }

    /// Checkpoints the harness with `firefly-net`'s own save functions.
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.segment.save(&mut w);
        for s in &self.servers {
            s.save(&mut w);
        }
        for c in &self.clients {
            c.rpc.save(&mut w);
            w.u64(c.rng.0);
            w.u64(c.next_arrival);
        }
        w.into_bytes()
    }

    /// Restores a checkpoint taken with [`NetHarness::save`].
    ///
    /// # Errors
    ///
    /// When the image is damaged or from another shape of harness.
    pub fn load(&mut self, image: &[u8]) -> Result<(), Error> {
        let mut r = SnapReader::new(image);
        let segment = EtherSegment::load(&mut r)?;
        let servers =
            (0..self.servers.len()).map(|_| RpcServer::load(&mut r)).collect::<Result<_, _>>()?;
        let mut clients = Vec::with_capacity(self.clients.len());
        for _ in 0..self.clients.len() {
            let rpc = RpcClient::load(&mut r)?;
            let rng = SplitMix(r.u64()?);
            clients.push(Client { rpc, rng, next_arrival: r.u64()? });
        }
        r.expect_end()?;
        self.segment = segment;
        self.servers = servers;
        self.clients = clients;
        Ok(())
    }
}
