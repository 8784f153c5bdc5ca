//! `GET /metrics`: Prometheus text exposition (format 0.0.4) for the
//! service, hand-rolled on [`gcx_obs::prom`]. Counters come straight
//! from [`ServerStats`], named by the [`COUNTERS`] list `/stats` reads
//! too; the histograms here (request latency by outcome class, admission
//! wait, per-eval buffer peaks) are this module's own — fixed-bucket
//! relaxed atomics allocated once at server startup, so recording costs
//! a couple of `fetch_add`s per request.

use crate::stats::{ServerStats, Snapshot, COUNTERS};
use gcx_obs::{prom, AtomicHist, BYTE_BUCKETS, LATENCY_US_BUCKETS};

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

/// Render the whole exposition document.
pub(crate) fn render(metrics: &ServerMetrics, stats: &ServerStats, snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);

    prom::preamble(
        &mut out,
        "gcx_uptime_seconds",
        "Seconds since the service started",
        "gauge",
    );
    prom::sample_f64(
        &mut out,
        "gcx_uptime_seconds",
        &[],
        snap.uptime.as_secs_f64(),
    );

    prom::preamble(&mut out, "gcx_workers", "Worker thread count", "gauge");
    prom::sample(&mut out, "gcx_workers", &[], snap.workers as u64);

    prom::preamble(
        &mut out,
        "gcx_admission_queue_depth",
        "Accepted connections waiting for a worker",
        "gauge",
    );
    prom::sample(
        &mut out,
        "gcx_admission_queue_depth",
        &[],
        snap.queue_len as u64,
    );
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
        snap.queue_depth as u64,
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

    for &(_, _, family, help, counter) in &COUNTERS {
        if let Some((name, kind)) = family {
            prom::preamble(&mut out, name, help, kind);
            prom::sample(&mut out, name, &[], counter(stats).get());
        }
    }

    prom::preamble(
        &mut out,
        "gcx_queries_registered",
        "Queries currently in the registry",
        "gauge",
    );
    prom::sample(
        &mut out,
        "gcx_queries_registered",
        &[],
        snap.per_query.len() as u64,
    );

    prom::preamble(
        &mut out,
        "gcx_query_evals_total",
        "Successful evals per registered query",
        "counter",
    );
    for (name, evals) in &snap.per_query {
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
        let snap = Snapshot {
            uptime: std::time::Duration::from_secs(7),
            workers: 4,
            queue_depth: 64,
            queue_len: 1,
            max_buffer_bytes: None,
            per_query: vec![("q\"1".to_string(), 3u64)],
        };
        let text = render(&metrics, &stats, &snap);
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
