//! Spans recorded by the harness around the calls it makes into each
//! layer: name, start, end, the span that caused it, and the operation
//! both belong to. Kept in memory during the run and written on exit as
//! Chrome trace JSON (`chrome://tracing`, Perfetto). Spans *inside* the
//! engine are a later change; these are taken from outside.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Trace`]; [`NO_SPAN`] when the trace was full
/// or when a span has no parent.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// Spans kept per trace. A 10-second run of `small_docs` performs a few
/// hundred thousand operations; the trace keeps the first ones and counts
/// the rest, so the file stays loadable.
const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
    pub tid: u32,
}

/// One thread's span buffer. Threads record into their own [`fork`]
/// (same epoch) and the results are [`absorb`]ed afterwards. A trace that
/// is [`off`] records nothing and reads no clock, so the untraced pass
/// runs the same code.
///
/// [`fork`]: Trace::fork
/// [`absorb`]: Trace::absorb
/// [`off`]: Trace::off
pub struct Trace {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            on: true,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A trace that records nothing.
    pub fn off() -> Trace {
        Trace {
            on: false,
            ..Trace::new()
        }
    }

    /// An empty trace for thread `tid`, on or off like this one.
    pub fn fork(&self, tid: u32) -> Trace {
        Trace {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            tid: self.tid,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// End a span now.
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record a span whose start and end were timed by the caller (the
    /// upload phase of a request ends on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open(name, parent, op);
        if id != NO_SPAN {
            let s = &mut self.spans[id as usize];
            s.start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
        id
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name: `(count, total ns, self ns)`, where a span's self
    /// time is its duration minus the part its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = out.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur;
            row.2 += dur.saturating_sub(covered);
        }
        out
    }

    /// Write the spans as Chrome trace JSON ("X" complete events, µs).
    pub fn write_chrome<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            // Span names are string literals of this crate: no escaping.
            write!(
                w,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                i,
                if s.parent == NO_SPAN {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.op,
            )?;
        }
        writeln!(w, "\n],\"droppedSpans\":{}}}", self.dropped)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let epoch = t.epoch;
        let at = |us: u64| epoch + Duration::from_micros(us);
        // session 0..100 with feeds 10..40 and 50..90; a second session
        // 100..130 without children.
        let s = t.record("core.session", NO_SPAN, 0, at(0), at(100));
        t.record("core.feed", s, 0, at(10), at(40));
        t.record("core.feed", s, 0, at(50), at(90));
        t.record("core.session", NO_SPAN, 1, at(100), at(130));
        let sum = t.summary();
        assert_eq!(sum["core.feed"], (2, 70_000, 70_000));
        assert_eq!(sum["core.session"], (2, 130_000, 60_000));
    }

    #[test]
    fn absorb_keeps_parent_links_and_json_is_balanced() {
        let mut a = Trace::new();
        a.open("a", NO_SPAN, 0);
        let mut b = a.fork(1);
        let p = b.open("server.request", NO_SPAN, 7);
        let c = b.open("server.upload", p, 7);
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[2].tid, 1);
        let mut json = Vec::new();
        a.write_chrome(&mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(text.contains("\"name\":\"server.upload\""));
        assert!(text.contains("\"parent\":1"));
    }

    #[test]
    fn a_trace_that_is_off_records_nothing() {
        let mut t = Trace::off();
        let id = t.open("x", NO_SPAN, 0);
        t.close(id);
        assert_eq!((id, t.len(), t.dropped()), (NO_SPAN, 0, 0));
        assert_eq!(t.fork(3).open("y", NO_SPAN, 0), NO_SPAN);
    }
}
