//! Chrome trace-event output for `gcx run/multi --trace=FILE`.
//!
//! Builds one trace file from the engine telemetry ([`RunReport::obs`])
//! of one or more runs, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Each run contributes:
//!
//! * a **feed lane** of `"X"` complete events — one per `feed` call,
//!   on the real process clock (for a query of a batch: the feeds of
//!   the shared scan);
//! * a **`live_bytes` counter track** — the buffer's byte occupancy
//!   timeline. When feed spans exist the token-indexed samples are
//!   mapped linearly onto the run's wall-clock window; otherwise the
//!   structural-token index itself is the (pseudo-)timestamp, i.e. the
//!   track reads as "buffer size by document position";
//! * a **VM lane** of aggregate per-task-kind spans laid end to end —
//!   a time-attribution profile (where evaluation time went), not a
//!   chronological record;
//! * a **summary instant** carrying the run's headline numbers (tokens,
//!   peak buffer bytes, purge-trigger counts, tokenizer window peak).

use gcx_core::RunReport;
use gcx_obs::chrome::{ArgValue, TraceBuilder};

/// Serialize the named runs into one Chrome trace JSON document. Runs
/// without telemetry (engine ran with `telemetry: false`) are an error:
/// the caller controls the options and a silent empty lane would read
/// as "nothing happened".
pub(crate) fn build(runs: &[(String, &RunReport)]) -> Result<String, String> {
    let mut t = TraceBuilder::new();
    for (i, (name, report)) in runs.iter().enumerate() {
        let obs = report
            .obs
            .as_ref()
            .ok_or_else(|| format!("{name}: run report carries no telemetry"))?;
        // Two thread tracks per run; counter tracks are keyed by name.
        let feed_tid = 1 + 2 * i as u64;
        let vm_tid = feed_tid + 1;

        // Feed lane: real clock, normalized so the first chunk is t=0.
        let base_us = obs.feed_spans.first().map_or(0, |s| s.start_us);
        let span_total_us = obs
            .feed_spans
            .last()
            .map_or(0, |s| s.start_us + s.dur_us - base_us);
        if !obs.feed_spans.is_empty() {
            t.thread_name(feed_tid, &format!("{name}: feed"));
            for span in &obs.feed_spans {
                t.complete(
                    "feed",
                    "io",
                    span.start_us - base_us,
                    span.dur_us.max(1),
                    feed_tid,
                    &[("bytes", ArgValue::U64(span.bytes))],
                );
            }
        }

        // Buffer occupancy: wall-clock when a feed clock exists, else
        // document position (token index) as the timestamp.
        let counter = format!("{name}: live_bytes");
        let tokens = report.tokens.max(1);
        let timeline = report.timeline.iter().flat_map(|t| t.live_bytes());
        for (token, bytes) in timeline {
            let ts = if span_total_us > 0 {
                token.min(tokens) * span_total_us / tokens
            } else {
                token
            };
            t.counter(&counter, ts, &[("bytes", bytes)]);
        }

        // VM task attribution: aggregate spans laid end to end.
        t.thread_name(vm_tid, &format!("{name}: vm tasks (aggregate)"));
        let mut cursor = 0u64;
        for task in &obs.tasks {
            let dur = (task.nanos / 1_000).max(1);
            t.complete(
                task.name,
                "vm",
                cursor,
                dur,
                vm_tid,
                &[
                    ("count", ArgValue::U64(task.count)),
                    ("nanos", ArgValue::U64(task.nanos)),
                ],
            );
            cursor += dur;
        }

        t.instant(
            &format!("{name}: summary"),
            "run",
            0,
            vm_tid,
            &[
                ("tokens", ArgValue::U64(report.tokens)),
                ("output_bytes", ArgValue::U64(report.output_bytes)),
                (
                    "peak_buffer_bytes",
                    ArgValue::U64(report.buffer.peak_live_bytes),
                ),
                ("purged_nodes", ArgValue::U64(report.buffer.purged)),
                ("purges_on_signoff", ArgValue::U64(obs.purges_on_signoff)),
                ("purges_on_close", ArgValue::U64(obs.purges_on_close)),
                ("purges_on_unpin", ArgValue::U64(obs.purges_on_unpin)),
                (
                    "tokenizer_window_peak",
                    ArgValue::U64(obs.tokenizer_window_peak),
                ),
            ],
        );
    }
    Ok(t.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::{CompiledQuery, EngineOptions};

    #[test]
    fn traced_run_produces_loadable_events() {
        let q = CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap();
        let opts = EngineOptions::gcx().with_telemetry();
        let mut session = q.session(&opts);
        session
            .feed(b"<bib><book><title>Streams</title></book></bib>")
            .unwrap();
        let report = session.finish().unwrap();
        let json = build(&[("q".to_string(), &report)]).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"feed\""), "{json}");
        assert!(json.contains("q: vm tasks (aggregate)"), "{json}");
        assert!(json.contains("\"peak_buffer_bytes\""), "{json}");
    }

    #[test]
    fn untraced_report_is_an_error() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut out = Vec::new();
        let report = gcx_core::run(&q, &EngineOptions::gcx(), &b"<bib/>"[..], &mut out).unwrap();
        let err = build(&[("q".to_string(), &report)]).unwrap_err();
        assert!(err.contains("no telemetry"), "{err}");
    }
}
