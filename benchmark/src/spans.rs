//! The traced pass's span recorder.
//!
//! Timers are not free next to the work they time: on a small VM an
//! `Instant` pair costs tens of nanoseconds against a simulated cycle of
//! about a hundred. So the traced pass times only *sampled units* (one
//! cycle in [`SAMPLE_EVERY`], one round trip, one bin run), records a
//! root span per unit with its child spans inside it, and subtracts a
//! null span calibrated in the same process from every duration:
//!
//! * a child's corrected time is its raw duration minus the raw duration
//!   of an empty span;
//! * a root's corrected time also loses what each child's timer calls
//!   added to it;
//! * a span's self time is its corrected time minus its children's.
//!
//! Every correction is clamped at zero. Totals per span name feed the
//! per-layer shares; the spans themselves go into a bounded buffer that
//! is written out as Chrome trace JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The traced pass times one cycle (or step) in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// Spans kept for the Chrome trace; later ones still count in the
/// totals.
pub const SPAN_CAPACITY: usize = 50_000;

/// The calibrated cost of timing nothing.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NullSpan {
    /// Raw duration an empty span reports.
    pub inner_ns: f64,
    /// Time one empty child span adds to its parent's raw duration.
    pub outer_ns: f64,
}

/// A recorded span.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The sampled unit this span belongs to.
    pub unit: u64,
    /// Index of the parent span in the buffer, for child spans.
    pub parent: Option<usize>,
}

/// Calls and corrected self time recorded under one name.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Total {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of corrected self time, ns.
    pub self_ns: f64,
}

/// `raw − null`, never negative.
pub fn corrected(raw_ns: u64, null_ns: f64) -> f64 {
    (raw_ns as f64 - null_ns).max(0.0)
}

/// Corrected time of a root span of `raw_ns` holding `children` child
/// spans: it loses its own empty-span cost and what each child's timer
/// calls added. Never negative.
pub fn corrected_root(raw_ns: u64, children: usize, null: NullSpan) -> f64 {
    (raw_ns as f64 - null.inner_ns - children as f64 * null.outer_ns).max(0.0)
}

/// Records sampled spans and keeps per-name totals.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    null: NullSpan,
    spans: Vec<Span>,
    dropped: u64,
    units: u64,
    pending: Vec<(&'static str, u64, u64)>,
    totals: Vec<(&'static str, Total)>,
}

impl Tracer {
    /// A recorder with its null span calibrated now.
    pub fn new() -> Self {
        let mut t = Tracer {
            origin: Instant::now(),
            null: NullSpan { inner_ns: 0.0, outer_ns: 0.0 },
            spans: Vec::new(),
            dropped: 0,
            units: 0,
            pending: Vec::with_capacity(64),
            totals: Vec::new(),
        };
        t.null = t.calibrate();
        t
    }

    /// The calibrated null span.
    pub fn null(&self) -> NullSpan {
        self.null
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Notes a child span of the unit in progress.
    #[inline]
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.pending.push((name, start_ns, end_ns));
    }

    /// Closes a sampled unit: a root span `name` over `[start_ns,
    /// end_ns]` holding the children noted since the last unit.
    pub fn unit(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let null = self.null;
        let mut child_sum = 0.0;
        for i in 0..self.pending.len() {
            let (n, s, e) = self.pending[i];
            let c = corrected(e.saturating_sub(s), null.inner_ns);
            child_sum += c;
            self.add(n, c);
        }
        let root = corrected_root(end_ns.saturating_sub(start_ns), self.pending.len(), null);
        self.add(name, (root - child_sum).max(0.0));
        let unit = self.units;
        self.units += 1;
        if self.spans.len() + 1 + self.pending.len() <= SPAN_CAPACITY {
            let parent = self.spans.len();
            self.spans.push(Span { name, start_ns, end_ns, unit, parent: None });
            for &(n, s, e) in &self.pending {
                self.spans.push(Span {
                    name: n,
                    start_ns: s,
                    end_ns: e,
                    unit,
                    parent: Some(parent),
                });
            }
        } else {
            self.dropped += 1 + self.pending.len() as u64;
        }
        self.pending.clear();
    }

    fn add(&mut self, name: &'static str, self_ns: f64) {
        let slot = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => &mut self.totals[i].1,
            None => {
                self.totals.push((name, Total::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        slot.calls += 1;
        slot.self_ns += self_ns;
    }

    /// Totals recorded under `name` (zero if none).
    pub fn total(&self, name: &str) -> Total {
        self.totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Sum of self time over `names`.
    pub fn self_ns(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.total(n).self_ns).sum()
    }

    /// The recorded spans, oldest first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The buffer as Chrome trace-event JSON (complete `X` events in
    /// microseconds; `args` carry the unit and the parent's index).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 112);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"unit\":{},\"parent\":{parent}}}}}",
                crate::json::quote(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.unit,
            );
        }
        let _ = write!(out, "],\"otherData\":{{\"dropped_spans\":{}}}}}", self.dropped);
        out
    }

    /// Measures the empty span in place: the median raw duration of a
    /// back-to-back timer pair, and the median cost one recorded empty
    /// child adds to an enclosing interval.
    fn calibrate(&mut self) -> NullSpan {
        const TRIALS: usize = 201;
        const CHILDREN: usize = 32;
        let mut inner = Vec::with_capacity(TRIALS * CHILDREN);
        for _ in 0..TRIALS * CHILDREN {
            let a = self.now();
            let b = self.now();
            inner.push(b.saturating_sub(a) as f64);
        }
        let inner_ns = crate::stats::median(&inner);
        let mut outer = Vec::with_capacity(TRIALS);
        for _ in 0..TRIALS {
            let a = self.now();
            for _ in 0..CHILDREN {
                let s = self.now();
                let e = self.now();
                self.child("null", s, e);
            }
            let b = self.now();
            self.pending.clear();
            outer.push(((b.saturating_sub(a)) as f64 - inner_ns).max(0.0) / CHILDREN as f64);
        }
        NullSpan { inner_ns, outer_ns: crate::stats::median(&outer) }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_correction_never_goes_negative() {
        let null = NullSpan { inner_ns: 40.0, outer_ns: 55.0 };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let raw = x % 400;
            let kids = (x >> 20) as usize % 9;
            assert!(corrected(raw, null.inner_ns) >= 0.0);
            assert!(corrected_root(raw, kids, null) >= 0.0);
        }
        assert_eq!(corrected(100, 40.0), 60.0);
        assert_eq!(corrected_root(300, 2, null), 150.0);
    }

    #[test]
    fn self_time_excludes_children_and_clamps() {
        let mut t = Tracer::new();
        t.null = NullSpan { inner_ns: 10.0, outer_ns: 20.0 };
        t.child("leaf", 100, 160); // 50 after correction
        t.child("leaf", 160, 200); // 30
        t.unit("root", 90, 300); // 210 - 10 - 40 = 160; self 80
        assert_eq!(t.total("leaf"), Total { calls: 2, self_ns: 80.0 });
        assert_eq!(t.total("root"), Total { calls: 1, self_ns: 80.0 });
        // Children that overrun a short root leave it no self time.
        t.child("leaf", 0, 1_000);
        t.unit("root", 0, 50);
        assert_eq!(t.total("root").self_ns, 80.0);
        let units: Vec<u64> = t.spans().iter().map(|s| s.unit).collect();
        assert_eq!(units, [0, 0, 0, 1, 1]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn calibration_is_positive_and_trace_json_validates() {
        let mut t = Tracer::new();
        assert!(t.null().outer_ns >= 0.0 && t.null().inner_ns >= 0.0);
        let a = t.now();
        t.child("x\"y", a, t.now());
        let b = t.now();
        t.unit("root", a, b);
        firefly_core::events::validate_json(&t.chrome_json()).unwrap();
    }
}
