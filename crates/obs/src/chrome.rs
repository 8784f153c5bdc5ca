//! Chrome trace-event JSON writer (the `chrome://tracing` / Perfetto
//! format): `"X"` complete-duration events, `"C"` counter tracks, `"i"`
//! instants, and `"M"` metadata for naming threads. Output is the
//! object form — `{"traceEvents":[...]}` — which both viewers load.

use crate::json::{JsonWriter, Scalar};

/// Builds one trace file: the envelope is opened at construction, each
/// event is written into its `traceEvents` array as it is recorded, and
/// [`TraceBuilder::finish`] closes it.
#[derive(Debug)]
pub struct TraceBuilder {
    w: JsonWriter,
    events: usize,
}

/// One event argument value.
#[derive(Debug, Clone, Copy)]
pub enum ArgValue<'a> {
    /// Unsigned integer argument.
    U64(u64),
    /// String argument (escaped on write).
    Str(&'a str),
}

impl Scalar for ArgValue<'_> {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(n) => n.write_json(out),
            ArgValue::Str(s) => s.write_json(out),
        }
    }
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// A fresh, empty trace.
    pub fn new() -> TraceBuilder {
        let mut w = JsonWriter::new();
        w.object()
            .field("displayTimeUnit", "ms")
            .key("traceEvents")
            .array();
        TraceBuilder { w, events: 0 }
    }

    /// Open an event with the members every timed event starts with.
    fn begin(&mut self, name: &str, cat: &str, ph: &str, ts_us: u64, tid: u64) -> &mut JsonWriter {
        self.events += 1;
        self.w
            .object()
            .field("name", name)
            .field("cat", cat)
            .field("ph", ph)
            .field("ts", ts_us)
            .field("pid", 1u64)
            .field("tid", tid)
    }

    /// Write `args` (none: no `args` member) and close the event.
    fn end_with_args(&mut self, args: &[(&str, ArgValue<'_>)]) {
        if !args.is_empty() {
            self.w.key("args").object();
            for (k, v) in args {
                self.w.field(k, v);
            }
            self.w.end();
        }
        self.w.end();
    }

    /// A complete-duration (`"X"`) event on thread track `tid`.
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: u64,
        dur_us: u64,
        tid: u64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.begin(name, cat, "X", ts_us, tid).field("dur", dur_us);
        self.end_with_args(args);
    }

    /// A counter (`"C"`) sample: each `(series, value)` pair becomes one
    /// series of the counter track `name`.
    pub fn counter(&mut self, name: &str, ts_us: u64, series: &[(&str, u64)]) {
        let w = self.begin(name, "counter", "C", ts_us, 0);
        w.key("args").object();
        for (k, v) in series {
            w.field(k, v);
        }
        w.end().end();
    }

    /// An instant (`"i"`) event (thread scope).
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: u64,
        tid: u64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.begin(name, cat, "i", ts_us, tid).field("s", "t");
        self.end_with_args(args);
    }

    /// Name a thread track (`"M"` metadata, `thread_name`).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.events += 1;
        self.w
            .object()
            .field("name", "thread_name")
            .field("ph", "M")
            .field("pid", 1u64)
            .field("tid", tid)
            .key("args")
            .object()
            .field("name", name)
            .end()
            .end();
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Serialize the trace file.
    pub fn finish(mut self) -> String {
        self.w.end().end();
        self.w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_into_the_envelope() {
        let mut t = TraceBuilder::new();
        t.thread_name(1, "engine");
        t.complete(
            "feed",
            "engine",
            10,
            5,
            1,
            &[("bytes", ArgValue::U64(64)), ("q", ArgValue::Str("a\"b"))],
        );
        t.counter("buffer", 12, &[("live_bytes", 400)]);
        t.instant("finish", "engine", 20, 1, &[]);
        assert_eq!(t.len(), 4);
        let json = t.finish();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(
            json.contains("\"ph\":\"X\",\"ts\":10,\"pid\":1,\"tid\":1,\"dur\":5"),
            "{json}"
        );
        assert!(json.contains("\"q\":\"a\\\"b\""), "escaped arg: {json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"live_bytes\":400"), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
    }
}
