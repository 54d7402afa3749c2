//! Cycle-stamped event tracing: the software stand-in for the Firefly's
//! hardware event counter.
//!
//! The paper's cache measurements (Table 2) were taken with "a hardware
//! event counter" wired to each cache controller; the instrument saw
//! *individual* bus transactions and snoop outcomes, not end-of-run
//! aggregates. This module recreates that visibility for the simulated
//! machine: every interesting micro-architectural occurrence — a bus
//! transaction issued or completed, a per-cache coherence state
//! transition, a wired-OR `MShared` assertion, a fault injected or
//! recovered, a processor machine-check, a Taos context switch — is
//! recorded as a compact [`Event`] with the MBus cycle at which it
//! happened.
//!
//! The bounded [`EventRing`] is the simulator's only trace mechanism,
//! for the machine and the fleet alike. A machine holds one only when
//! tracing is enabled: otherwise every emit point is a single branch on
//! `Option::is_some`, so the hot path is unchanged. A fleet
//! (`firefly_sim::Fleet`) always holds one and emits its server
//! crashes and revivals into it, stamped on the same 100 ns cycle grid.
//!
//! The Figure 4 timing diagrams come from the `BusCompleted` events:
//! [`bus_records`] turns them back into [`TransactionRecord`]s. Two
//! exporters turn a captured stream into something a human can read:
//! [`chrome_trace`] produces Chrome trace-event JSON loadable in
//! Perfetto or `chrome://tracing`, and [`timeline`] produces a text
//! timeline that embeds the MBus waveform from [`crate::bus::waveform`].

use crate::addr::{LineId, PortId};
use crate::bus::{waveform, DataSource, TransactionRecord};
use crate::error::Error;
use crate::protocol::{BusOp, LineState};
use crate::snapshot::{Snap, SnapReader, SnapWriter};
use crate::{BUS_CYCLES_PER_OP, BUS_CYCLE_NS};
use std::collections::VecDeque;
use std::fmt;

/// The class of an injected (or recovered) fault, mirroring the fault
/// plan knobs in [`crate::fault::FaultConfig`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FaultClass {
    /// The wired-OR `MShared` line read false although a snooper held
    /// the line.
    MSharedDrop,
    /// `MShared` read true although no snooper held the line.
    MSharedSpurious,
    /// The arbiter withheld every grant for one cycle.
    ArbStall,
    /// A bus transfer failed its parity check.
    BusParity,
    /// A cache tag bit flipped; the line was invalidated and refetched.
    TagFlip,
    /// A single-bit memory error was corrected by ECC.
    EccCorrected,
    /// A double-bit memory error exceeded ECC; the consuming processor
    /// machine-checks.
    EccUncorrectable,
    /// A failed bus transaction was retried by the initiator.
    BusRetry,
    /// A watchdog budget expired on a starved bus requester or a wedged
    /// device, and the escalation path (backoff, then machine-check) ran.
    Watchdog,
}

impl FaultClass {
    /// Short lower-case name used by the exporters.
    pub const fn name(self) -> &'static str {
        match self {
            FaultClass::MSharedDrop => "mshared-drop",
            FaultClass::MSharedSpurious => "mshared-spurious",
            FaultClass::ArbStall => "arb-stall",
            FaultClass::BusParity => "bus-parity",
            FaultClass::TagFlip => "tag-flip",
            FaultClass::EccCorrected => "ecc-corrected",
            FaultClass::EccUncorrectable => "ecc-uncorrectable",
            FaultClass::BusRetry => "bus-retry",
            FaultClass::Watchdog => "watchdog",
        }
    }
}

crate::snap_enum!(FaultClass {
    MSharedDrop = 0,
    MSharedSpurious = 1,
    ArbStall = 2,
    BusParity = 3,
    TagFlip = 4,
    EccCorrected = 5,
    EccUncorrectable = 6,
    BusRetry = 7,
    Watchdog = 8,
});

/// What happened, without the cycle stamp. Variants are deliberately
/// small and `Copy`: a disabled trace costs nothing and an enabled one
/// costs a ring-buffer push.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A port won arbitration and issued a bus transaction.
    BusIssued {
        /// The initiating port.
        initiator: PortId,
        /// The MBus operation.
        op: BusOp,
        /// The line addressed.
        line: LineId,
    },
    /// A bus transaction completed. The cycle stamp is the transaction's
    /// *start* cycle so exporters can render it as a span of
    /// [`BUS_CYCLES_PER_OP`] cycles.
    BusCompleted {
        /// The initiating port.
        initiator: PortId,
        /// The MBus operation.
        op: BusOp,
        /// The line addressed.
        line: LineId,
        /// Whether the wired-OR `MShared` line was asserted.
        mshared: bool,
        /// Who supplied the data (cache-to-cache supply inhibits memory).
        source: DataSource,
    },
    /// A snooping cache asserted the wired-OR `MShared` line.
    MSharedAsserted {
        /// The line being snooped.
        line: LineId,
    },
    /// A per-cache coherence state transition, `from` → `to`.
    Transition {
        /// The cache that changed state.
        port: PortId,
        /// The line whose tag state changed.
        line: LineId,
        /// State before.
        from: LineState,
        /// State after.
        to: LineState,
    },
    /// The fault plan injected a fault.
    FaultInjected {
        /// Which knob fired.
        class: FaultClass,
    },
    /// A recovery path absorbed a fault.
    FaultRecovered {
        /// Which recovery ran.
        class: FaultClass,
    },
    /// A processor machine-checked and was taken offline.
    CpuOffline {
        /// The port of the departed processor.
        port: PortId,
    },
    /// The Taos scheduler dispatched a thread onto a processor.
    ContextSwitch {
        /// The dispatching CPU.
        cpu: u32,
        /// The thread dispatched.
        thread: u32,
        /// Whether the thread last ran on a different CPU.
        migrated: bool,
    },
    /// A fleet server crashed: its NIC went offline and it stopped
    /// executing.
    ServerCrashed {
        /// The server's index (and NIC).
        server: u32,
    },
    /// A crashed fleet server restarted cold under a fresh epoch.
    ServerRevived {
        /// The server's index (and NIC).
        server: u32,
        /// The epoch it restarted under.
        epoch: u32,
    },
}

/// A tag byte, then the variant's fields in declaration order.
impl Snap for EventKind {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            EventKind::BusIssued { initiator, op, line } => w.put(&(0u8, initiator, op, line)),
            EventKind::BusCompleted { initiator, op, line, mshared, source } => {
                w.put(&(1u8, initiator, op, line));
                w.put(&(mshared, source));
            }
            EventKind::MSharedAsserted { line } => w.put(&(2u8, line)),
            EventKind::Transition { port, line, from, to } => w.put(&(3u8, port, line, (from, to))),
            EventKind::FaultInjected { class } => w.put(&(4u8, class)),
            EventKind::FaultRecovered { class } => w.put(&(5u8, class)),
            EventKind::CpuOffline { port } => w.put(&(6u8, port)),
            EventKind::ContextSwitch { cpu, thread, migrated } => {
                w.put(&(7u8, cpu, thread, migrated))
            }
            EventKind::ServerCrashed { server } => w.put(&(8u8, server)),
            EventKind::ServerRevived { server, epoch } => w.put(&(9u8, server, epoch)),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => EventKind::BusIssued { initiator: r.get()?, op: r.get()?, line: r.get()? },
            1 => EventKind::BusCompleted {
                initiator: r.get()?,
                op: r.get()?,
                line: r.get()?,
                mshared: r.get()?,
                source: r.get()?,
            },
            2 => EventKind::MSharedAsserted { line: r.get()? },
            3 => EventKind::Transition {
                port: r.get()?,
                line: r.get()?,
                from: r.get()?,
                to: r.get()?,
            },
            4 => EventKind::FaultInjected { class: r.get()? },
            5 => EventKind::FaultRecovered { class: r.get()? },
            6 => EventKind::CpuOffline { port: r.get()? },
            7 => EventKind::ContextSwitch { cpu: r.get()?, thread: r.get()?, migrated: r.get()? },
            8 => EventKind::ServerCrashed { server: r.get()? },
            9 => EventKind::ServerRevived { server: r.get()?, epoch: r.get()? },
            t => return Err(Error::SnapshotCorrupt(format!("invalid EventKind tag {t}"))),
        })
    }
}

/// One trace event: an [`EventKind`] stamped with the MBus cycle at
/// which it occurred.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// MBus cycle (100 ns per the paper's §3 bus description).
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

crate::snap_struct!(Event { cycle, kind });

/// A bounded ring buffer of events. When full, the oldest event is
/// dropped and counted, so a long run keeps its *tail* — usually the
/// part under investigation — without unbounded memory growth.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    /// Storage grows on demand past the first few thousand events, so a
    /// generous bound (or one decoded from a corrupt snapshot) costs
    /// nothing until events arrive.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing { buf: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bound this ring was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the held events out, oldest first, leaving the ring intact.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().copied().collect()
    }

    /// Drains the held events, oldest first.
    pub fn take(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }

    /// Records one event, dropping (and counting) the oldest when full.
    pub fn emit(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Writes the drop count and the held events. The capacity comes
    /// from the configuration the ring is restored into.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put(&self.dropped);
        w.put(&self.buf);
    }

    /// Restores a ring saved with [`save`](EventRing::save) into one
    /// built with the same capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotCorrupt`] if the saved events overflow
    /// this ring's capacity.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        self.dropped = r.get()?;
        let buf: VecDeque<Event> = r.get()?;
        let cap = self.capacity;
        if buf.len() > cap {
            return Err(Error::SnapshotCorrupt(format!(
                "event ring holds {} events but its capacity is {cap}",
                buf.len()
            )));
        }
        self.buf.clear();
        self.buf.extend(buf);
        Ok(())
    }
}

/// Two-letter tag codes for coherence states, matching the protocol
/// literature (I / CE / SC / DE / SD).
const fn state_code(s: LineState) -> &'static str {
    match s {
        LineState::Invalid => "I",
        LineState::CleanExclusive => "CE",
        LineState::SharedClean => "SC",
        LineState::DirtyExclusive => "DE",
        LineState::SharedDirty => "SD",
    }
}

fn source_name(s: DataSource, out: &mut String) {
    match s {
        DataSource::NotApplicable => out.push_str("none"),
        DataSource::Memory => out.push_str("memory"),
        DataSource::Cache(p) => {
            out.push_str("cache ");
            let _ = fmt::Write::write_fmt(out, format_args!("{p}"));
        }
    }
}

/// Formats a cycle count as microseconds for the Chrome `ts` field
/// (1 MBus cycle = 100 ns = 0.1 µs).
fn chrome_ts(cycle: u64) -> String {
    // Render exactly, without floating point: cycle * 0.1 µs.
    format!("{}.{}", cycle / 10, cycle % 10)
}

#[allow(clippy::too_many_arguments)] // private serializer: one call site per variant
fn push_chrome_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    ph: &str,
    cycle: u64,
    tid: u64,
    dur_cycles: Option<u64>,
    args: &[(&str, String)],
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"");
    out.push_str(cat);
    out.push_str("\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&chrome_ts(cycle));
    if let Some(d) = dur_cycles {
        out.push_str(",\"dur\":");
        out.push_str(&chrome_ts(d));
    }
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"pid\":0,\"tid\":");
    let _ = fmt::Write::write_fmt(out, format_args!("{tid}"));
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders an event stream as Chrome trace-event JSON, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Bus transactions become duration (`"ph":"X"`) spans on the
/// initiating port's track; everything else becomes a thread-scoped
/// instant (`"ph":"i"`). Timestamps are microseconds at the paper's
/// 100 ns bus cycle. The output is deterministic: byte-identical for
/// identical event streams.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for e in events {
        match e.kind {
            EventKind::BusIssued { initiator, op, line } => push_chrome_event(
                &mut out,
                &mut first,
                &format!("issue {}", op.mbus_name()),
                "bus",
                "i",
                e.cycle,
                initiator.index() as u64,
                None,
                &[("line", format!("{line}"))],
            ),
            EventKind::BusCompleted { initiator, op, line, mshared, source } => {
                let mut src = String::new();
                source_name(source, &mut src);
                push_chrome_event(
                    &mut out,
                    &mut first,
                    &format!("{} {}", op.mbus_name(), line),
                    "bus",
                    "X",
                    e.cycle,
                    initiator.index() as u64,
                    Some(BUS_CYCLES_PER_OP),
                    &[("mshared", format!("{mshared}")), ("source", src)],
                );
            }
            EventKind::MSharedAsserted { line } => push_chrome_event(
                &mut out,
                &mut first,
                "MShared",
                "bus",
                "i",
                e.cycle,
                0,
                None,
                &[("line", format!("{line}"))],
            ),
            EventKind::Transition { port, line, from, to } => push_chrome_event(
                &mut out,
                &mut first,
                &format!("{}->{}", state_code(from), state_code(to)),
                "coherence",
                "i",
                e.cycle,
                port.index() as u64,
                None,
                &[("line", format!("{line}"))],
            ),
            EventKind::FaultInjected { class } => push_chrome_event(
                &mut out,
                &mut first,
                &format!("inject {}", class.name()),
                "fault",
                "i",
                e.cycle,
                0,
                None,
                &[],
            ),
            EventKind::FaultRecovered { class } => push_chrome_event(
                &mut out,
                &mut first,
                &format!("recover {}", class.name()),
                "fault",
                "i",
                e.cycle,
                0,
                None,
                &[],
            ),
            EventKind::CpuOffline { port } => push_chrome_event(
                &mut out,
                &mut first,
                "machine-check: CPU offline",
                "fault",
                "i",
                e.cycle,
                port.index() as u64,
                None,
                &[],
            ),
            EventKind::ContextSwitch { cpu, thread, migrated } => push_chrome_event(
                &mut out,
                &mut first,
                &format!("dispatch t{thread}"),
                "sched",
                "i",
                e.cycle,
                u64::from(cpu),
                None,
                &[("migrated", format!("{migrated}"))],
            ),
            EventKind::ServerCrashed { server } => push_chrome_event(
                &mut out,
                &mut first,
                "server crashed",
                "fleet",
                "i",
                e.cycle,
                u64::from(server),
                None,
                &[],
            ),
            EventKind::ServerRevived { server, epoch } => push_chrome_event(
                &mut out,
                &mut first,
                "server revived",
                "fleet",
                "i",
                e.cycle,
                u64::from(server),
                None,
                &[("epoch", format!("{epoch}"))],
            ),
        }
    }
    out.push_str("]}");
    out
}

/// The completed bus transactions in an event stream, in emission
/// order: one [`TransactionRecord`] per `BusCompleted` event, stamped
/// with its start cycle. This is what the Figure 4 timing diagrams and
/// [`waveform`] draw.
pub fn bus_records(events: &[Event]) -> Vec<TransactionRecord> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BusCompleted { initiator, op, line, mshared, source } => {
                Some(TransactionRecord {
                    start_cycle: e.cycle,
                    initiator,
                    op,
                    line,
                    mshared,
                    source,
                })
            }
            _ => None,
        })
        .collect()
}

/// Renders an event stream as a human-readable timeline.
///
/// The header reuses the MBus waveform renderer from
/// [`crate::bus::waveform`] — reconstructed from the `BusCompleted`
/// events by [`bus_records`] — followed by one line per event in
/// emission order.
pub fn timeline(events: &[Event]) -> String {
    let mut out = String::new();
    let records = bus_records(events);
    if !records.is_empty() {
        out.push_str("MBus waveform (from BusCompleted events):\n");
        out.push_str(&waveform(&records));
        out.push('\n');
    }
    out.push_str(&format!(
        "event timeline ({} events, {} ns per cycle):\n",
        events.len(),
        BUS_CYCLE_NS
    ));
    for e in events {
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{:>10}  ", e.cycle));
        match e.kind {
            EventKind::BusIssued { initiator, op, line } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("bus    {} issues {} for {line}", initiator, op.mbus_name()),
                );
            }
            EventKind::BusCompleted { initiator, op, line, mshared, source } => {
                let mut src = String::new();
                source_name(source, &mut src);
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "bus    {} {} {line} done (mshared={mshared}, data from {src})",
                        initiator,
                        op.mbus_name()
                    ),
                );
            }
            EventKind::MSharedAsserted { line } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("bus    MShared wired-OR high for {line}"),
                );
            }
            EventKind::Transition { port, line, from, to } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("cache  {port} {line} {} -> {}", state_code(from), state_code(to)),
                );
            }
            EventKind::FaultInjected { class } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("fault  injected {}", class.name()),
                );
            }
            EventKind::FaultRecovered { class } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("fault  recovered {}", class.name()),
                );
            }
            EventKind::CpuOffline { port } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("fault  {port} machine-checked, taken offline"),
                );
            }
            EventKind::ContextSwitch { cpu, thread, migrated } => {
                let tag = if migrated { " (migrated)" } else { "" };
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("sched  CPU{cpu} dispatches thread {thread}{tag}"),
                );
            }
            EventKind::ServerCrashed { server } => {
                let _ =
                    fmt::Write::write_fmt(&mut out, format_args!("fleet  server {server} crashed"));
            }
            EventKind::ServerRevived { server, epoch } => {
                let _ = fmt::Write::write_fmt(
                    &mut out,
                    format_args!("fleet  server {server} revived (epoch {epoch})"),
                );
            }
        }
        out.push('\n');
    }
    out
}

/// Validates that `text` is a syntactically well-formed JSON document.
///
/// The vendored `serde` facade serializes but does not parse, so the
/// trace smoke test in CI needs its own reader. This is a minimal
/// recursive-descent checker — structure only, no data model — which
/// is exactly what "the JSON parses" requires.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > 128 {
        return Err("nesting too deep".into());
    }
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_object(b, pos, depth),
        b'[' => parse_array(b, pos, depth),
        b'"' => parse_string(b, pos),
        b't' => parse_lit(b, pos, b"true"),
        b'f' => parse_lit(b, pos, b"false"),
        b'n' => parse_lit(b, pos, b"null"),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(format!("unexpected byte {:?} at {}", c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// An RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    let bad = || format!("bad number at byte {start}");
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(b, pos);
        }
        _ => return Err(bad()),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(bad());
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(bad());
        }
    }
    Ok(())
}

/// Consumes a run of ASCII digits and returns its length.
fn digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// An RFC 8259 string: the escapes `\" \\ \/ \b \f \n \r \t \uXXXX`, and
/// no raw byte below 0x20.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u')
                    if b.get(*pos + 2..*pos + 6)
                        .is_some_and(|hex| hex.iter().all(u8::is_ascii_hexdigit)) =>
                {
                    *pos += 6
                }
                _ => return Err(format!("bad escape at byte {}", *pos)),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> Event {
        Event { cycle, kind }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = EventRing::new(3);
        for c in 0..5 {
            r.emit(ev(c, EventKind::MSharedAsserted { line: LineId::from_raw(1) }));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let s = r.snapshot();
        assert_eq!(s.first().map(|e| e.cycle), Some(2), "oldest two were dropped");
        assert_eq!(r.len(), 3, "snapshot leaves the ring intact");
        assert_eq!(r.take().len(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_capacity_has_a_floor_of_one() {
        let mut r = EventRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.emit(ev(0, EventKind::FaultInjected { class: FaultClass::ArbStall }));
        r.emit(ev(1, EventKind::FaultInjected { class: FaultClass::ArbStall }));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    /// One event of every kind, in tag order.
    fn every_variant() -> Vec<Event> {
        let p = PortId::new(1);
        let line = LineId::from_raw(0x40);
        vec![
            ev(0, EventKind::BusIssued { initiator: p, op: BusOp::Read, line }),
            ev(
                0,
                EventKind::BusCompleted {
                    initiator: p,
                    op: BusOp::Read,
                    line,
                    mshared: true,
                    source: DataSource::Cache(PortId::new(2)),
                },
            ),
            ev(2, EventKind::MSharedAsserted { line }),
            ev(
                3,
                EventKind::Transition {
                    port: p,
                    line,
                    from: LineState::Invalid,
                    to: LineState::SharedClean,
                },
            ),
            ev(4, EventKind::FaultInjected { class: FaultClass::BusParity }),
            ev(5, EventKind::FaultRecovered { class: FaultClass::BusRetry }),
            ev(6, EventKind::CpuOffline { port: p }),
            ev(7, EventKind::ContextSwitch { cpu: 1, thread: 3, migrated: true }),
            ev(8, EventKind::ServerCrashed { server: 1 }),
            ev(9, EventKind::ServerRevived { server: 1, epoch: 1 }),
        ]
    }

    #[test]
    fn every_variant_round_trips_through_snap_under_its_tag() {
        for (tag, e) in every_variant().into_iter().enumerate() {
            let mut w = SnapWriter::new();
            w.put(&e.kind);
            let bytes = w.into_bytes();
            assert_eq!(usize::from(bytes[0]), tag, "{e:?}");
            let mut r = SnapReader::new(&bytes);
            assert_eq!(r.get::<EventKind>().unwrap(), e.kind);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_for_every_variant() {
        let events = every_variant();
        let json = chrome_trace(&events);
        validate_json(&json).expect("exporter output must parse");
        assert!(json.contains("\"ph\":\"X\""), "bus transactions are duration spans");
        assert!(json.contains("\"dur\":0.4"), "4 bus cycles = 0.4 us");
        assert!(json.contains("I->SC"));
        assert!(json.contains("\"cat\":\"fleet\""), "fleet events are drawn");
    }

    #[test]
    fn timeline_names_fleet_events() {
        let text = timeline(&every_variant()[8..]);
        assert!(text.contains("fleet  server 1 crashed"));
        assert!(text.contains("fleet  server 1 revived (epoch 1)"));
        assert!(!text.contains("MBus waveform"), "no bus transactions, no waveform");
    }

    #[test]
    fn chrome_trace_of_empty_stream_is_valid() {
        let json = chrome_trace(&[]);
        validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn timeline_embeds_the_bus_waveform() {
        let p = PortId::new(0);
        let line = LineId::from_raw(0x80);
        let events = vec![ev(
            12,
            EventKind::BusCompleted {
                initiator: p,
                op: BusOp::Write,
                line,
                mshared: false,
                source: DataSource::NotApplicable,
            },
        )];
        let text = timeline(&events);
        assert!(text.contains("MBus waveform"));
        assert!(text.contains("MADDR"), "waveform rows are present");
        assert!(text.contains("MWrite"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,false,null,\"x\\\"y\"]}").unwrap();
        validate_json("  [ ]  ").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1} trailing").is_err());
        assert!(validate_json("{'a':1}").is_err());
        // RFC 8259 numbers and escapes, and no raw control bytes.
        for bad in ["1.2.3", "[1e]", "01", "[1-2]", "[1.]", "\"\\q\"", "\"a\u{1}b\""] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
        // The forms the vendored serializer emits.
        for good in ["1e-7", "1e16", "-0.0", "\"\\u0001\""] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }

    #[test]
    fn chrome_ts_renders_tenths_exactly() {
        assert_eq!(chrome_ts(0), "0.0");
        assert_eq!(chrome_ts(4), "0.4");
        assert_eq!(chrome_ts(1234), "123.4");
    }
}
