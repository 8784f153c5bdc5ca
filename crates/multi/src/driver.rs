//! The batch face of `gcx-core`'s [`Driver`]: one scan of the input, one
//! merged matcher, a [`Lane`] per query, stepped by the thread that called
//! in. What it adds to the one-lane face: the merged automaton, a clock
//! per lane that counts the events the lane is shown
//! ([`RunReport::tokens`], summed in [`BatchReport::fanout_events`]), a
//! failed lane that reports its error in its [`QueryRun`] while the others
//! go on (only errors of the shared input fail the batch), and the
//! batch's report. No lane adopts an in-stream DOCTYPE.

use gcx_core::{CompiledQuery, Driver, EngineError, EngineMode, Lane, RunReport};
use gcx_projection::{Automaton, CompiledPaths, TaggedMatcher, TaggedPaths};
use gcx_xml::SymbolTable;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a shared-stream batch run. Every lane runs the GCX
/// configuration ([`EngineMode::Gcx`]: signOffs executed, buffers purged).
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Pretty-print each query's output with this indent.
    pub indent: Option<String>,
    /// Per-query buffer byte budget (None = unlimited). A query that
    /// crosses it fails with `BufferLimitExceeded`; the rest of the batch
    /// is unaffected (a failed lane never stops its peers).
    pub max_buffer_bytes: Option<u64>,
    /// Record buffer-lifecycle and VM-frame telemetry in every lane;
    /// each per-query [`RunReport`] then carries an `obs` section
    /// (residency histograms, purge causes, live-bytes timeline).
    pub telemetry: bool,
    /// A DTD the shared input is promised to be valid against. The merged
    /// matcher gets per-query path pruning plus the descendant-
    /// reachability filter on the single shared scan, and every lane's
    /// buffer the sibling-order cutoffs — the three analyses a
    /// stand-alone run with [`gcx_core::EngineOptions::schema`] applies.
    pub schema: Option<Arc<gcx_schema::Dtd>>,
}

// Hand-written on purpose: `#[derive(Default)]` (an `#[inline]` default)
// measured 3–5 % lower `batch_shared` throughput on a 2-vCPU x86-64 box,
// a code-layout effect on the lock-step loop.
#[allow(clippy::derivable_impls)]
impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            indent: None,
            max_buffer_bytes: None,
            telemetry: false,
            schema: None,
        }
    }
}

/// Outcome of one query of the batch.
#[derive(Debug)]
pub struct QueryRun {
    /// The query's serialized result (byte-identical to a standalone run),
    /// bar what [`BatchSession::take_output`] drained before the end.
    pub output: Vec<u8>,
    /// The lane's run report, or the error that stopped it. `tokens` in
    /// the report counts the events this query *received* — its private
    /// share of the stream.
    pub report: Result<RunReport, EngineError>,
}

/// Aggregate measurements of a shared pass.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in batch order.
    pub queries: Vec<QueryRun>,
    /// Structural tokens in the single shared scan.
    pub tokens: u64,
    /// Total per-query events delivered (Σ over queries).
    pub fanout_events: u64,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Shared-work factor: structural-token work a per-query evaluation
    /// would have done (N scans) over the work actually done (one scan
    /// plus the per-query events). Approaches N when the queries'
    /// projected streams are sparse; can drop below 1.0 for a single query
    /// that keeps most of the stream (the sharing overhead with nobody to
    /// share it).
    pub fn share_factor(&self) -> f64 {
        let n = self.queries.len() as f64;
        let would_have = n * self.tokens as f64;
        let actual = self.tokens as f64 + self.fanout_events as f64;
        if actual == 0.0 {
            1.0
        } else {
            would_have / actual
        }
    }
}

/// Evaluate `queries` over `input` in a single pass: open a
/// [`BatchSession`] and feed it `input` in chunks read straight into its
/// tokenizer window. Per-query evaluator failures are reported in the
/// [`BatchReport`]; only input errors (which invalidate every query) fail
/// the whole batch.
pub fn run<R: Read>(
    queries: &[CompiledQuery],
    opts: &BatchOptions,
    mut input: R,
) -> Result<BatchReport, EngineError> {
    let mut session = BatchSession::new(queries, opts);
    let driver = &mut session.driver;
    loop {
        let n = input.read(driver.space(READ_CHUNK));
        match n.map_err(|e| driver.input_io_error(e))? {
            0 => break,
            n => driver.commit(n)?,
        }
    }
    session.finish()
}

/// Evaluate a batch with default options.
pub fn run_batch<R: Read>(queries: &[CompiledQuery], input: R) -> Result<BatchReport, EngineError> {
    run(queries, &BatchOptions::default(), input)
}

/// Chunk size [`run`] reads from its source at a time.
const READ_CHUNK: usize = 64 * 1024;

/// A push-driven evaluation of one batch over one document. Create with
/// [`BatchSession::new`]; the caller owns all I/O. Bytes may be split
/// anywhere (mid-tag, mid-UTF-8 sequence): outputs, buffer peaks and
/// event counts do not depend on the chunking.
pub struct BatchSession {
    driver: Driver,
    started: Instant,
}

impl BatchSession {
    /// Open a session for `queries`: compile every query's projection
    /// paths against one fresh symbol table (pruned against
    /// `opts.schema` when present), merge them into one tagged automaton
    /// under the schema's reachability filter, and start one lane per
    /// query. Push the document with [`BatchSession::feed`] as it
    /// arrives, then [`BatchSession::finish`]. The batch's clock starts
    /// once the merged automaton is built.
    pub fn new(queries: &[CompiledQuery], opts: &BatchOptions) -> BatchSession {
        let dtd = opts.schema.as_deref();
        let mut symbols = SymbolTable::new();
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| {
                let paths = CompiledPaths::compile(&q.analysis.roles, &mut symbols);
                match dtd {
                    Some(dtd) => dtd.prune(&paths, &symbols).paths,
                    None => paths,
                }
            })
            .collect();
        let reach = dtd.map(|dtd| Arc::new(dtd.reach_filter(&mut symbols)));
        let automaton = Arc::new(Automaton::new(TaggedPaths::merge(parts.iter()), reach));
        let started = Instant::now();
        let lanes = queries
            .iter()
            .map(|q| {
                // The lane's share of the schema — the sibling-order
                // cutoffs — comes prepared, from its query's plan.
                let schema = opts.schema.as_ref().map(|dtd| q.schema_plan(dtd));
                Lane::start(
                    q,
                    EngineMode::Gcx,
                    opts.max_buffer_bytes,
                    opts.indent.clone(),
                    opts.telemetry,
                    schema.as_deref(),
                )
            })
            .collect();
        // Interning during the scan extends the table the paths were
        // compiled against.
        let matcher = TaggedMatcher::start(automaton);
        BatchSession {
            driver: Driver::batch(lanes, matcher, symbols, opts.telemetry),
            started,
        }
    }

    /// Push one chunk of document bytes and step every lane as far as
    /// they allow. Fails only on malformed input.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.driver.feed(chunk)
    }

    /// Drain the output query `lane` produced so far into `sink`; returns
    /// the bytes written. Interleaved with [`BatchSession::feed`], a
    /// query's results leave while the document is still arriving; what is
    /// left at the end is its [`QueryRun::output`]. On a sink error, the
    /// bytes that *were* written are removed from the pending output
    /// before the error returns, so retrying never emits a byte twice.
    pub fn take_output<W: Write>(
        &mut self,
        lane: usize,
        sink: &mut W,
    ) -> Result<usize, EngineError> {
        self.driver.take_output(lane, sink)
    }

    /// Declare the end of input, run every lane to completion and collect
    /// the batch's outcome. Fails on a truncated or malformed document.
    pub fn finish(mut self) -> Result<BatchReport, EngineError> {
        self.driver.finish_input()?;
        let (tokens, reach_cuts) = self.driver.counts();
        let (lanes, scan) = self.driver.into_lanes();
        // Events delivered, summed over lanes (a failed lane's until then).
        let fanout: u64 = lanes.iter().map(Lane::tokens).sum();
        // Lightest buffer first: a lane's memory is back before the next
        // one's final phase (a join builds its index there), so the
        // batch's high-water is the heaviest lane's final phase, not the
        // sum of all of them.
        let mut lanes: Vec<(usize, Lane)> = lanes.into_iter().enumerate().collect();
        lanes.sort_by_key(|(_, lane)| lane.buffer_stats().live_bytes);
        let mut runs: Vec<(usize, QueryRun)> = lanes
            .into_iter()
            .map(|(i, mut lane)| {
                let schema = lane.schema_facts(reach_cuts);
                // End of input is every query's last event.
                let report = lane.finish(&scan, schema).map(|r| RunReport {
                    tokens: r.tokens + 1,
                    ..r
                });
                let output = std::mem::take(lane.output_mut());
                (i, QueryRun { output, report })
            })
            .collect();
        runs.sort_by_key(|&(i, _)| i);
        Ok(BatchReport {
            fanout_events: fanout + runs.len() as u64,
            queries: runs.into_iter().map(|(_, run)| run).collect(),
            tokens,
            elapsed: self.started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::EngineOptions;

    fn compile(texts: &[&str]) -> Vec<CompiledQuery> {
        texts
            .iter()
            .map(|t| CompiledQuery::compile(t).unwrap())
            .collect()
    }

    fn standalone(q: &CompiledQuery, doc: &str) -> Vec<u8> {
        let mut out = Vec::new();
        gcx_core::run(q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        out
    }

    const DOC: &str = "<bib><book><title>Streams</title><price>10</price></book>\
                       <article><title>Pipes</title></article></bib>";

    #[test]
    fn batch_matches_standalone_outputs() {
        let queries = compile(&[
            "<r>{ for $b in /bib/book return $b/title }</r>",
            "for $a in /bib/article return $a",
            "for $t in /bib/book/price return $t/text()",
            "'constant'",
        ]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries.len(), 4);
        for (q, run) in queries.iter().zip(&report.queries) {
            let expected = standalone(q, DOC);
            assert_eq!(run.output, expected);
            let r = run.report.as_ref().unwrap();
            assert_eq!(r.buffer.live, 0, "lane buffer must drain");
        }
        assert!(report.tokens > 0);
        assert!(report.share_factor() > 1.0, "4 queries must share the scan");
    }

    #[test]
    fn single_query_batch_works() {
        let queries = compile(&["for $b in /bib/book return $b/title"]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries[0].output, standalone(&queries[0], DOC));
    }

    #[test]
    fn empty_batch_scans_input() {
        let report = run_batch(&[], DOC.as_bytes()).unwrap();
        assert!(report.queries.is_empty());
        assert_eq!(report.tokens, 15);
    }

    #[test]
    fn malformed_input_fails_the_batch() {
        let queries = compile(&["for $b in /bib/book return $b"]);
        let err = run_batch(&queries, "<bib><book></bib>".as_bytes());
        assert!(err.is_err(), "mismatched tags must fail the whole batch");
    }

    #[test]
    fn a_search_opens_what_it_passed_after_every_lane_failed() {
        // 200 nested role-less elements under `//item` and a 4 KiB budget:
        // the search opens the elements it passed until the budget fails
        // the lane, then goes on with nobody left to show them to — and
        // must still enter each into the matcher, whose frames their end
        // tags close.
        let queries = compile(&["for $i in //item return $i"]);
        let opens: String = (0..200).map(|k| format!("<a{k}>")).collect();
        let closes: String = (0..200).rev().map(|k| format!("</a{k}>")).collect();
        let doc = format!("<r>{opens}<item/>{closes}</r>");
        let opts = BatchOptions {
            max_buffer_bytes: Some(4096),
            ..BatchOptions::default()
        };
        let report = run(&queries, &opts, doc.as_bytes()).unwrap();
        let lane = report.queries[0].report.as_ref();
        assert!(lane.is_err_and(EngineError::is_buffer_limit), "{lane:?}");
        assert_eq!(report.tokens, 404);
    }

    #[test]
    fn telemetry_flows_into_lane_reports() {
        let queries = compile(&[
            "for $b in /bib/book return $b/title",
            "for $a in /bib/article return $a",
        ]);
        let opts = BatchOptions {
            telemetry: true,
            ..BatchOptions::default()
        };
        let mut session = BatchSession::new(&queries, &opts);
        for piece in DOC.as_bytes().chunks(16) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        for (q, run) in queries.iter().zip(&report.queries) {
            assert_eq!(run.output, standalone(q, DOC));
            let r = run.report.as_ref().unwrap();
            let obs = r.obs.as_ref().expect("telemetry must reach the lanes");
            // Every lane carries the shared scan's feed track.
            assert_eq!(r.feed_calls, DOC.len().div_ceil(16) as u64);
            assert_eq!(obs.feed_spans.len() as u64, r.feed_calls);
            assert_eq!(
                obs.feed_spans.iter().map(|s| s.bytes).sum::<u64>(),
                DOC.len() as u64
            );
        }
    }
}
