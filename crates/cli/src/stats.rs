//! The CLI's JSON documents — `run`/`multi --stats-json` and `analyze
//! --json` — written from the typed reports' public fields through the
//! one JSON writer. ARCHITECTURE.md "The `--stats-json` schema" lists
//! every member; the CLI suite pins the documents byte for byte.

use gcx_analyze::QueryAnalysis;
use gcx_core::batch::BatchReport;
use gcx_core::{CompiledQuery, ObsReport, RunReport, Timeline};
use gcx_obs::json::{Fixed, JsonWriter};
use gcx_obs::Hist;

/// `gcx run --stats-json`: the run object, with the query's `compile`
/// and `analysis` objects last.
pub(crate) fn run_json(report: &RunReport, q: &CompiledQuery, analysis: &QueryAnalysis) -> String {
    let mut w = JsonWriter::new();
    w.object();
    run_members(&mut w, report);
    w.key("compile").object();
    compile_members(&mut w, q);
    w.end().key("analysis");
    analysis_object(&mut w, analysis);
    w.end();
    w.finish()
}

/// `gcx multi --stats-json`: the batch object, with one `compile` object
/// per query (named as in `texts`) last. `output_bytes` holds each query's
/// output, drained or not.
pub(crate) fn batch_json(
    report: &BatchReport,
    output_bytes: &[usize],
    texts: &[(String, String)],
    queries: &[CompiledQuery],
) -> String {
    let mut w = JsonWriter::new();
    w.object()
        .field("tokens", report.tokens)
        .field("queries", report.queries.len())
        .field("fanout_events", report.fanout_events)
        .field("share_factor", Fixed(report.share_factor(), 3))
        .field("elapsed_ms", Fixed(report.elapsed.as_secs_f64() * 1e3, 3))
        .key("per_query")
        .array();
    for (i, (run, &bytes)) in report.queries.iter().zip(output_bytes).enumerate() {
        w.object().field("index", i).field("output_bytes", bytes);
        match &run.report {
            Ok(r) => {
                w.key("report").object();
                run_members(&mut w, r);
                w.end();
            }
            Err(e) => {
                w.field("error", e.to_string());
            }
        }
        w.end();
    }
    w.end().key("compile").array();
    for ((name, _), q) in texts.iter().zip(queries) {
        w.object().field("name", name);
        compile_members(&mut w, q);
        w.end();
    }
    w.end().end();
    w.finish()
}

/// `gcx analyze --json`: the `analysis` object alone.
pub(crate) fn analysis_json(a: &QueryAnalysis) -> String {
    let mut w = JsonWriter::new();
    analysis_object(&mut w, a);
    w.finish()
}

fn run_members(w: &mut JsonWriter, r: &RunReport) {
    let b = &r.buffer;
    w.field("tokens", r.tokens)
        .field("output_bytes", r.output_bytes)
        .field("max_buffer_bytes", r.max_buffer_bytes)
        .field("feed_calls", r.feed_calls)
        .field("max_pending_bytes", r.max_pending_bytes)
        .key("buffer")
        .object()
        .field("live", b.live)
        .field("peak_live", b.peak_live)
        .field("allocated", b.allocated)
        .field("purged", b.purged)
        .field("live_bytes", b.live_bytes)
        .field("peak_live_bytes", b.peak_live_bytes)
        .end();
    if let Some(obs) = &r.obs {
        w.key("obs");
        obs_object(w, obs, r.timeline.as_ref().expect("telemetry samples"));
    }
    if let Some(s) = &r.schema {
        w.key("schema")
            .object()
            .field("pruned_paths", s.pruned_paths)
            .field("total_paths", s.total_paths)
            .field("reach_cuts", s.reach_cuts)
            .field("early_scan_ends", s.early_scan_ends)
            .field("early_signoffs", s.early_signoffs)
            .field("doctype_adopted", s.doctype_adopted)
            .end();
    }
}

fn obs_object(w: &mut JsonWriter, obs: &ObsReport, timeline: &Timeline) {
    w.object().key("residency_tokens");
    hist(w, &obs.residency_tokens);
    w.key("purged_node_bytes");
    hist(w, &obs.purged_node_bytes);
    w.key("purge_batch");
    hist(w, &obs.purge_batch);
    w.field("purges_on_signoff", obs.purges_on_signoff)
        .field("purges_on_close", obs.purges_on_close)
        .field("purges_on_unpin", obs.purges_on_unpin)
        .key("roles")
        .array();
    for r in &obs.roles {
        w.object()
            .field("role", &r.role)
            .field("appends", r.appends)
            .field("signoffs", r.signoffs)
            .field("purge_triggers", r.purge_triggers)
            .field("max_live", r.max_live)
            .end();
    }
    w.end()
        .key("live_bytes_timeline")
        .object()
        .field("every", timeline.every)
        .key("points")
        .array();
    for (token, bytes) in timeline.live_bytes() {
        w.array().value(token).value(bytes).end();
    }
    w.end().end().key("tasks").array();
    for t in &obs.tasks {
        w.object()
            .field("task", t.name)
            .field("count", t.count)
            .field("nanos", t.nanos)
            .end();
    }
    w.end()
        .field("feed_spans", obs.feed_spans.len())
        .field("tokenizer_window_peak", obs.tokenizer_window_peak)
        .end();
}

/// A histogram: `count`, `sum`, `max`, the bucket bounds `le` and the
/// per-bucket `counts`, the last of which is the overflow bucket.
fn hist(w: &mut JsonWriter, h: &Hist) {
    w.object()
        .field("count", h.count())
        .field("sum", h.sum())
        .field("max", h.max())
        .key("le")
        .array();
    for b in h.bounds() {
        w.value(b);
    }
    w.end().key("counts").array();
    for c in h.counts() {
        w.value(c);
    }
    w.end().end();
}

/// The compile-time members of one query: the pipeline's wall-clock
/// cost, the executed program's sizes, and what the plan optimizer did
/// (`opt_passes` is `[]` for a program compiled without it).
fn compile_members(w: &mut JsonWriter, q: &CompiledQuery) {
    let st = q.program.stats();
    w.field("compile_micros", q.compile_micros)
        .field("instructions", st.instructions)
        .field("steps", st.steps)
        .field("paths", st.paths)
        .field("conds", st.conds)
        .field("matcher_paths", st.matcher_paths)
        .field("symbols", st.symbols)
        .field(
            "instructions_before",
            q.opt
                .as_ref()
                .map_or(st.instructions, |o| o.before.instructions),
        )
        .field("instructions_after", st.instructions)
        .key("opt_passes")
        .array();
    for p in q.opt.iter().flat_map(|o| &o.passes) {
        w.object()
            .field("pass", p.name)
            .field("changes", p.changes)
            .end();
    }
    w.end();
}

fn analysis_object(w: &mut JsonWriter, a: &QueryAnalysis) {
    w.object()
        .field("class", a.class.as_str())
        .field("bound", &a.bound)
        .key("bindings")
        .array();
    for b in &a.bindings {
        w.object()
            .field("name", &b.name)
            .field("path", &b.path)
            .field("class", b.class.as_str())
            .field("reason", &b.reason)
            .end();
    }
    w.end().key("lints").array();
    for l in &a.lints {
        w.object()
            .field("code", l.code)
            .field("severity", l.severity.as_str())
            .field("span", &l.span)
            .field("message", &l.message)
            .field("why", &l.why)
            .end();
    }
    w.end().end();
}
