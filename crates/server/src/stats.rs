//! Aggregate service counters: a handful of relaxed atomics bumped per
//! request, surfaced by `GET /stats` and, through the same [`COUNTERS`]
//! list, by `GET /metrics`.

use gcx_core::RunReport;
use gcx_obs::json::{Fixed, JsonWriter};
use gcx_obs::Counter;
use std::time::Duration;

/// Service-wide counters. Engine measurements accumulate from each
/// successful eval's [`RunReport`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (admitted or 503-rejected).
    pub accepted: Counter,
    /// Responses written, any status.
    pub served: Counter,
    /// Connections rejected with `503` (admission queue full).
    pub rejected_busy: Counter,
    /// Eval requests rejected with `413` (buffer budget exceeded).
    pub rejected_buffer: Counter,
    /// Other 4xx responses.
    pub client_errors: Counter,
    /// 5xx responses.
    pub server_errors: Counter,
    /// Connections currently being served by a worker.
    pub in_flight: Counter,
    /// Query compilations performed (`PUT /queries`). Eval requests never
    /// compile or lower anything — the registry shares one compiled
    /// program per name — so this stays flat under eval load (asserted by
    /// the loopback suite).
    pub queries_compiled: Counter,
    /// Successful eval runs.
    pub eval_runs: Counter,
    /// Σ structural tokens over successful evals.
    pub eval_tokens: Counter,
    /// Σ purged buffer nodes over successful evals.
    pub eval_purged: Counter,
    /// Σ result bytes over successful evals.
    pub eval_output_bytes: Counter,
    /// High watermark of any single eval's peak buffer bytes.
    pub eval_peak_buffer_bytes: Counter,
    /// Σ schema-driven early child-scan terminations over successful
    /// evals (zero unless a schema is attached).
    pub eval_early_scan_ends: Counter,
    /// Σ schema-driven early sign-offs over successful evals (zero
    /// unless a schema is attached).
    pub eval_early_signoffs: Counter,
}

impl ServerStats {
    /// Fold one successful run into the aggregates.
    pub fn record_eval(&self, report: &RunReport) {
        self.eval_runs.inc();
        self.eval_tokens.add(report.tokens);
        self.eval_purged.add(report.buffer.purged);
        self.eval_output_bytes.add(report.output_bytes);
        self.eval_peak_buffer_bytes
            .raise_to(report.buffer.peak_live_bytes);
        if let Some(schema) = &report.schema {
            self.eval_early_scan_ends.add(schema.early_scan_ends);
            self.eval_early_signoffs.add(schema.early_signoffs);
        }
    }
}

/// One [`ServerStats`] counter as both views name it: its `/stats` key,
/// whether that key sits in the `eval` object, its `/metrics` family and
/// Prometheus type (`None`: `/stats` only), the family's `# HELP` text,
/// and the counter itself.
pub(crate) type CounterDef = (
    &'static str,
    bool,
    Option<(&'static str, &'static str)>,
    &'static str,
    fn(&ServerStats) -> &Counter,
);

/// Every [`ServerStats`] counter, in `/stats` key order.
#[rustfmt::skip]
pub(crate) const COUNTERS: [CounterDef; 15] = [
    ("queries_compiled", false, Some(("gcx_queries_compiled_total", "counter")),
        "Query compilations performed by PUT /queries", |s| &s.queries_compiled),
    ("accepted", false, Some(("gcx_accepted_total", "counter")),
        "Connections accepted (admitted or 503-rejected)", |s| &s.accepted),
    ("served", false, None, "Responses written, any status", |s| &s.served),
    ("in_flight", false, Some(("gcx_workers_busy", "gauge")),
        "Workers currently serving a connection", |s| &s.in_flight),
    ("rejected_busy", false, Some(("gcx_rejected_busy_total", "counter")),
        "Connections rejected 503 (admission queue full)", |s| &s.rejected_busy),
    ("rejected_buffer", false, Some(("gcx_rejected_buffer_total", "counter")),
        "Evals rejected 413 (buffer budget exceeded)", |s| &s.rejected_buffer),
    ("client_errors", false, Some(("gcx_client_errors_total", "counter")),
        "Other 4xx responses", |s| &s.client_errors),
    ("server_errors", false, Some(("gcx_server_errors_total", "counter")),
        "5xx responses", |s| &s.server_errors),
    ("runs", true, Some(("gcx_eval_runs_total", "counter")),
        "Successful eval runs", |s| &s.eval_runs),
    ("tokens", true, Some(("gcx_eval_tokens_total", "counter")),
        "Structural tokens processed by successful evals", |s| &s.eval_tokens),
    ("purged_nodes", true, Some(("gcx_eval_purged_nodes_total", "counter")),
        "Buffer nodes purged by successful evals", |s| &s.eval_purged),
    ("output_bytes", true, Some(("gcx_eval_output_bytes_total", "counter")),
        "Result bytes streamed by successful evals", |s| &s.eval_output_bytes),
    ("peak_buffer_bytes", true, Some(("gcx_eval_peak_buffer_bytes_max", "gauge")),
        "High watermark of any single eval's peak buffer bytes", |s| &s.eval_peak_buffer_bytes),
    ("early_scan_ends", true, Some(("gcx_eval_early_scan_ends_total", "counter")),
        "Schema-driven early child-scan terminations in successful evals",
        |s| &s.eval_early_scan_ends),
    ("early_signoffs", true, Some(("gcx_eval_early_signoffs_total", "counter")),
        "Schema-driven early sign-offs in successful evals", |s| &s.eval_early_signoffs),
];

/// What `/stats` and `/metrics` report besides the counters: the
/// service's configuration, its queue and its registry at one instant.
pub(crate) struct Snapshot {
    pub uptime: Duration,
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_depth: usize,
    /// Connections waiting in the admission queue.
    pub queue_len: usize,
    pub max_buffer_bytes: Option<u64>,
    /// Registered queries and their successful evals, sorted by name.
    pub per_query: Vec<(String, u64)>,
}

/// The `GET /stats` document. Key order is part of the contract — the
/// golden test below pins it, so scripted consumers can diff documents
/// textually.
pub(crate) fn render(stats: &ServerStats, snap: &Snapshot) -> String {
    let mut w = JsonWriter::new();
    w.object()
        .field("uptime_s", Fixed(snap.uptime.as_secs_f64(), 1))
        .field("uptime_secs", snap.uptime.as_secs())
        .field("workers", snap.workers)
        .field("queue_depth", snap.queue_depth)
        .field("max_buffer_bytes", snap.max_buffer_bytes)
        .field("queries", snap.per_query.len());
    for &(key, _, _, _, counter) in COUNTERS.iter().filter(|c| !c.1) {
        w.field(key, counter(stats).get());
    }
    w.key("eval").object();
    for &(key, _, _, _, counter) in COUNTERS.iter().filter(|c| c.1) {
        w.field(key, counter(stats).get());
    }
    w.end().key("per_query").object();
    for (name, evals) in &snap.per_query {
        w.field(name, evals);
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(per_query: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            uptime: Duration::from_secs(5),
            workers: 4,
            queue_depth: 64,
            queue_len: 0,
            max_buffer_bytes: None,
            per_query: per_query.iter().map(|&(n, e)| (n.to_string(), e)).collect(),
        }
    }

    #[test]
    fn json_shape_and_counter_semantics() {
        let s = ServerStats::default();
        s.accepted.inc();
        s.in_flight.inc();
        s.in_flight.dec_saturating();
        s.eval_peak_buffer_bytes.raise_to(100);
        s.eval_peak_buffer_bytes.raise_to(40);
        assert_eq!(s.eval_peak_buffer_bytes.get(), 100, "watermark never drops");
        let snap = Snapshot {
            uptime: Duration::from_secs(2),
            max_buffer_bytes: Some(1024),
            ..snapshot(&[("a", 0), ("b", 0), ("c", 0)])
        };
        let json = render(&s, &snap);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"accepted\":1",
            "\"in_flight\":0",
            "\"queries\":3",
            "\"max_buffer_bytes\":1024",
            "\"peak_buffer_bytes\":100",
            "\"uptime_secs\":2",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        let unlimited = render(&s, &snapshot(&[]));
        assert!(unlimited.contains("\"max_buffer_bytes\":null"));
    }

    /// Golden key order: adding, removing, or reordering a `/stats` field
    /// must be a deliberate change here too.
    #[test]
    fn stats_json_key_order_is_stable() {
        let s = ServerStats::default();
        let json = render(&s, &snapshot(&[("alpha", 2), ("q-weird.\"name", 1)]));
        assert_eq!(
            json,
            "{\"uptime_s\":5.0,\"uptime_secs\":5,\"workers\":4,\"queue_depth\":64,\
             \"max_buffer_bytes\":null,\"queries\":2,\"queries_compiled\":0,\
             \"accepted\":0,\"served\":0,\"in_flight\":0,\
             \"rejected_busy\":0,\"rejected_buffer\":0,\
             \"client_errors\":0,\"server_errors\":0,\
             \"eval\":{\"runs\":0,\"tokens\":0,\"purged_nodes\":0,\
             \"output_bytes\":0,\"peak_buffer_bytes\":0,\
             \"early_scan_ends\":0,\"early_signoffs\":0},\
             \"per_query\":{\"alpha\":2,\"q-weird.\\\"name\":1}}"
        );
    }

    /// The JSON escaping must keep `/stats` parseable even if a hostile
    /// name sneaks into the per-query map.
    #[test]
    fn per_query_names_are_json_escaped() {
        let s = ServerStats::default();
        let json = render(&s, &snapshot(&[("a\"b\\c\nd\u{1}e", 7)]));
        assert!(
            json.contains("\"a\\\"b\\\\c\\nd\\u0001e\":7"),
            "escaped name missing: {json}"
        );
    }
}
