//! Aggregate service counters: a handful of relaxed atomics bumped per
//! request, surfaced by `GET /stats`.

use gcx_core::RunReport;
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

    /// The `GET /stats` document (hand-rolled JSON; no external deps).
    /// Key order is part of the contract — the golden test below pins it,
    /// so scripted consumers can diff documents textually.
    pub fn to_json(
        &self,
        registered_queries: usize,
        uptime: Duration,
        workers: usize,
        queue_depth: usize,
        max_buffer_bytes: Option<u64>,
        per_query: &[(String, u64)],
    ) -> String {
        let mut out = format!(
            "{{\"uptime_s\":{:.1},\"uptime_secs\":{},\
             \"workers\":{workers},\"queue_depth\":{queue_depth},\
             \"max_buffer_bytes\":{},\"queries\":{registered_queries},\
             \"queries_compiled\":{},\
             \"accepted\":{},\"served\":{},\"in_flight\":{},\
             \"rejected_busy\":{},\"rejected_buffer\":{},\
             \"client_errors\":{},\"server_errors\":{},\
             \"eval\":{{\"runs\":{},\"tokens\":{},\"purged_nodes\":{},\
             \"output_bytes\":{},\"peak_buffer_bytes\":{},\
             \"early_scan_ends\":{},\"early_signoffs\":{}}}",
            uptime.as_secs_f64(),
            uptime.as_secs(),
            max_buffer_bytes.map_or_else(|| "null".to_string(), |b| b.to_string()),
            self.queries_compiled.get(),
            self.accepted.get(),
            self.served.get(),
            self.in_flight.get(),
            self.rejected_busy.get(),
            self.rejected_buffer.get(),
            self.client_errors.get(),
            self.server_errors.get(),
            self.eval_runs.get(),
            self.eval_tokens.get(),
            self.eval_purged.get(),
            self.eval_output_bytes.get(),
            self.eval_peak_buffer_bytes.get(),
            self.eval_early_scan_ends.get(),
            self.eval_early_signoffs.get(),
        );
        out.push_str(",\"per_query\":{");
        for (i, (name, evals)) in per_query.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            gcx_obs::push_json_escaped(&mut out, name);
            out.push_str("\":");
            out.push_str(&evals.to_string());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_counter_semantics() {
        let s = ServerStats::default();
        s.accepted.inc();
        s.in_flight.inc();
        s.in_flight.dec_saturating();
        s.eval_peak_buffer_bytes.raise_to(100);
        s.eval_peak_buffer_bytes.raise_to(40);
        assert_eq!(s.eval_peak_buffer_bytes.get(), 100, "watermark never drops");
        let json = s.to_json(3, Duration::from_secs(2), 4, 64, Some(1024), &[]);
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
        let unlimited = s.to_json(0, Duration::ZERO, 1, 1, None, &[]);
        assert!(unlimited.contains("\"max_buffer_bytes\":null"));
    }

    /// Golden key order: adding, removing, or reordering a `/stats` field
    /// must be a deliberate change here too.
    #[test]
    fn stats_json_key_order_is_stable() {
        let s = ServerStats::default();
        let per_query = vec![
            ("alpha".to_string(), 2u64),
            ("q-weird.\"name".to_string(), 1u64),
        ];
        let json = s.to_json(2, Duration::from_secs(5), 4, 64, None, &per_query);
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

    /// The hand-rolled JSON escaping must keep `/stats` parseable even if
    /// a hostile name sneaks into the per-query map.
    #[test]
    fn per_query_names_are_json_escaped() {
        let s = ServerStats::default();
        let per_query = vec![("a\"b\\c\nd\u{1}e".to_string(), 7u64)];
        let json = s.to_json(1, Duration::ZERO, 1, 1, None, &per_query);
        assert!(
            json.contains("\"a\\\"b\\\\c\\nd\\u0001e\":7"),
            "escaped name missing: {json}"
        );
    }
}
