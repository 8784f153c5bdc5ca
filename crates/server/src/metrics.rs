//! `GET /metrics`: Prometheus text exposition (format 0.0.4) for the
//! service, hand-rolled on [`gcx_obs::prom`]. Counters come straight
//! from [`ServerStats`]; the histograms here (request latency by
//! outcome class, admission wait, per-eval buffer peaks) are this
//! module's own — fixed-bucket relaxed atomics allocated once at server
//! startup, so recording costs a couple of `fetch_add`s per request.

use crate::stats::ServerStats;
use gcx_obs::{prom, AtomicHist, BYTE_BUCKETS, LATENCY_US_BUCKETS};
use std::time::Duration;

/// Histograms the `/stats` counters can't express: distributions, not
/// sums. One instance lives in the server's shared state.
pub(crate) struct ServerMetrics {
    /// Wall-clock request handling time, µs, for 2xx/3xx responses.
    latency_2xx: AtomicHist,
    /// Same, 4xx responses.
    latency_4xx: AtomicHist,
    /// Same, 5xx responses.
    latency_5xx: AtomicHist,
    /// Time a connection waited in the admission queue before a worker
    /// picked it up, µs — queueing delay the client can't otherwise see.
    pub admission_wait_us: AtomicHist,
    /// Peak buffer bytes of each successful eval (the paper's headline
    /// number, as a distribution rather than a single watermark).
    pub eval_peak_buffer_bytes: AtomicHist,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            latency_2xx: AtomicHist::new(LATENCY_US_BUCKETS),
            latency_4xx: AtomicHist::new(LATENCY_US_BUCKETS),
            latency_5xx: AtomicHist::new(LATENCY_US_BUCKETS),
            admission_wait_us: AtomicHist::new(LATENCY_US_BUCKETS),
            eval_peak_buffer_bytes: AtomicHist::new(BYTE_BUCKETS),
        }
    }
}

impl ServerMetrics {
    /// Record one completed request. `status` 0 means no response was
    /// written (peer vanished mid-request) — nothing to classify.
    pub fn observe_request(&self, status: u16, micros: u64) {
        let hist = match status {
            0 => return,
            200..=399 => &self.latency_2xx,
            500..=599 => &self.latency_5xx,
            _ => &self.latency_4xx,
        };
        hist.observe(micros);
    }
}

/// Render the whole exposition document. `per_query` is the sorted
/// (name, eval-count) list from the registry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render(
    metrics: &ServerMetrics,
    stats: &ServerStats,
    uptime: Duration,
    workers: usize,
    queue_len: usize,
    queue_limit: usize,
    queries: usize,
    per_query: &[(String, u64)],
) -> String {
    let mut out = String::with_capacity(4096);

    prom::preamble(
        &mut out,
        "gcx_uptime_seconds",
        "Seconds since the service started",
        "gauge",
    );
    prom::sample_f64(&mut out, "gcx_uptime_seconds", &[], uptime.as_secs_f64());

    prom::preamble(&mut out, "gcx_workers", "Worker thread count", "gauge");
    prom::sample(&mut out, "gcx_workers", &[], workers as u64);
    prom::preamble(
        &mut out,
        "gcx_workers_busy",
        "Workers currently serving a connection",
        "gauge",
    );
    prom::sample(&mut out, "gcx_workers_busy", &[], stats.in_flight.get());

    prom::preamble(
        &mut out,
        "gcx_admission_queue_depth",
        "Accepted connections waiting for a worker",
        "gauge",
    );
    prom::sample(&mut out, "gcx_admission_queue_depth", &[], queue_len as u64);
    prom::preamble(
        &mut out,
        "gcx_admission_queue_limit",
        "Admission queue capacity (beyond this, 503)",
        "gauge",
    );
    prom::sample(
        &mut out,
        "gcx_admission_queue_limit",
        &[],
        queue_limit as u64,
    );

    prom::preamble(
        &mut out,
        "gcx_requests_total",
        "Completed requests by status class",
        "counter",
    );
    for (label, hist) in [
        ("2xx", &metrics.latency_2xx),
        ("4xx", &metrics.latency_4xx),
        ("5xx", &metrics.latency_5xx),
    ] {
        prom::sample(
            &mut out,
            "gcx_requests_total",
            &[("outcome", label)],
            hist.count(),
        );
    }
    prom::preamble(
        &mut out,
        "gcx_request_duration_microseconds",
        "Request handling wall time by status class",
        "histogram",
    );
    for (label, hist) in [
        ("2xx", &metrics.latency_2xx),
        ("4xx", &metrics.latency_4xx),
        ("5xx", &metrics.latency_5xx),
    ] {
        hist.render_prom(
            &mut out,
            "gcx_request_duration_microseconds",
            &[("outcome", label)],
        );
    }

    prom::preamble(
        &mut out,
        "gcx_admission_wait_microseconds",
        "Time connections spent queued before a worker picked them up",
        "histogram",
    );
    metrics
        .admission_wait_us
        .render_prom(&mut out, "gcx_admission_wait_microseconds", &[]);

    for (name, help, value) in [
        (
            "gcx_accepted_total",
            "Connections accepted (admitted or 503-rejected)",
            stats.accepted.get(),
        ),
        (
            "gcx_rejected_busy_total",
            "Connections rejected 503 (admission queue full)",
            stats.rejected_busy.get(),
        ),
        (
            "gcx_rejected_buffer_total",
            "Evals rejected 413 (buffer budget exceeded)",
            stats.rejected_buffer.get(),
        ),
        (
            "gcx_client_errors_total",
            "Other 4xx responses",
            stats.client_errors.get(),
        ),
        (
            "gcx_server_errors_total",
            "5xx responses",
            stats.server_errors.get(),
        ),
        (
            "gcx_queries_compiled_total",
            "Query compilations performed by PUT /queries",
            stats.queries_compiled.get(),
        ),
        (
            "gcx_eval_runs_total",
            "Successful eval runs",
            stats.eval_runs.get(),
        ),
        (
            "gcx_eval_tokens_total",
            "Structural tokens processed by successful evals",
            stats.eval_tokens.get(),
        ),
        (
            "gcx_eval_purged_nodes_total",
            "Buffer nodes purged by successful evals",
            stats.eval_purged.get(),
        ),
        (
            "gcx_eval_output_bytes_total",
            "Result bytes streamed by successful evals",
            stats.eval_output_bytes.get(),
        ),
        (
            "gcx_eval_early_scan_ends_total",
            "Schema-driven early child-scan terminations in successful evals",
            stats.eval_early_scan_ends.get(),
        ),
        (
            "gcx_eval_early_signoffs_total",
            "Schema-driven early sign-offs in successful evals",
            stats.eval_early_signoffs.get(),
        ),
    ] {
        prom::preamble(&mut out, name, help, "counter");
        prom::sample(&mut out, name, &[], value);
    }

    prom::preamble(
        &mut out,
        "gcx_queries_registered",
        "Queries currently in the registry",
        "gauge",
    );
    prom::sample(&mut out, "gcx_queries_registered", &[], queries as u64);

    prom::preamble(
        &mut out,
        "gcx_query_evals_total",
        "Successful evals per registered query",
        "counter",
    );
    for (name, evals) in per_query {
        prom::sample(
            &mut out,
            "gcx_query_evals_total",
            &[("query", name)],
            *evals,
        );
    }

    prom::preamble(
        &mut out,
        "gcx_eval_peak_buffer_bytes",
        "Per-eval peak buffer occupancy in bytes",
        "histogram",
    );
    metrics
        .eval_peak_buffer_bytes
        .render_prom(&mut out, "gcx_eval_peak_buffer_bytes", &[]);
    prom::preamble(
        &mut out,
        "gcx_eval_peak_buffer_bytes_max",
        "High watermark of any single eval's peak buffer bytes",
        "gauge",
    );
    prom::sample(
        &mut out,
        "gcx_eval_peak_buffer_bytes_max",
        &[],
        stats.eval_peak_buffer_bytes.get(),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_well_formed() {
        let metrics = ServerMetrics::default();
        metrics.observe_request(200, 1500);
        metrics.observe_request(404, 80);
        metrics.observe_request(500, 9);
        metrics.observe_request(0, 1); // dropped connection: not recorded
        metrics.admission_wait_us.observe(42);
        metrics.eval_peak_buffer_bytes.observe(4096);
        let stats = ServerStats::default();
        stats.accepted.inc();
        let per_query = vec![("q\"1".to_string(), 3u64)];
        let text = render(
            &metrics,
            &stats,
            Duration::from_secs(7),
            4,
            1,
            64,
            1,
            &per_query,
        );
        // Every non-comment line is `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
        assert!(text.contains("gcx_requests_total{outcome=\"2xx\"} 1"));
        assert!(text.contains("gcx_requests_total{outcome=\"4xx\"} 1"));
        assert!(text.contains("gcx_requests_total{outcome=\"5xx\"} 1"));
        assert!(text.contains("gcx_query_evals_total{query=\"q\\\"1\"} 3"));
        assert!(text
            .contains("gcx_request_duration_microseconds_bucket{outcome=\"2xx\",le=\"+Inf\"} 1"));
        assert!(text.contains("gcx_admission_wait_microseconds_count 1"));
        assert!(text.contains("gcx_eval_peak_buffer_bytes_sum 4096"));
    }
}
