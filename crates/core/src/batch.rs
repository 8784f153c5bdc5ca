//! The batch face of the one driver: N compiled queries over one document
//! in a single pass.
//!
//! GCX minimizes buffers for *one* query over *one* stream. A deployment
//! serving many outstanding queries against the same feed would then
//! tokenize and projection-match the stream once **per query**. A
//! [`BatchSession`] does it once:
//!
//! ```text
//!                      ┌───────────────┐ borrowed token   ┌─────────────────────┐
//!   XML ──► Tokenizer ─► TaggedMatcher ├─ + lane 0 roles ─► Lane 0: BufferTree  │──► out 0
//!            (once)    │ (union NFA,   │                  │         + evaluator │
//!                      │ tagged roles) ├─ + lane 1 roles ─► Lane 1: BufferTree  │──► out 1
//!                      └───────────────┘                  │         + evaluator │
//!                        one thread steps everything      └─────────────────────┘
//! ```
//!
//! [`BatchSession::new`] unions the per-query projection paths into one
//! automaton whose matcher matches each token exactly once, however many
//! queries want it; its outcomes carry a tag per query. The session runs
//! the same loop as an [`EvalSession`](crate::EvalSession), with a lane
//! per query: each lane buffers, with its own document ordinals, what its
//! query keeps, and resumes its evaluator when the node is what it waits
//! for; what no query needs passes in bulk. Each query's roles, signOffs
//! and therefore *buffer minimality* are its own; memory is the sum of the
//! per-query buffers. What the batch face adds: the merged automaton, a
//! clock per lane that counts the events the lane is shown
//! ([`RunReport::tokens`], summed in [`BatchReport::fanout_events`]), a
//! failed lane that reports its error in its [`QueryRun`] while the others
//! go on (only errors of the shared input fail the batch), and the
//! batch's report. No lane adopts an in-stream DOCTYPE.
//!
//! Every query's output is byte-identical to a stand-alone
//! [`run`](crate::run) over the same document, and can be drained while
//! the document arrives ([`BatchSession::take_output`]).

use crate::driver::Driver;
use crate::engine::{CompiledQuery, EngineOptions, RunReport};
use crate::error::EngineError;
use crate::lane::Lane;
use gcx_projection::{Automaton, CompiledPaths, TaggedMatcher, TaggedPaths};
use gcx_xml::SymbolTable;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a shared-stream batch run. Every lane runs the GCX
/// configuration ([`EngineMode::Gcx`](crate::EngineMode::Gcx): signOffs
/// executed, buffers purged).
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
    /// (residency histograms, purge causes) and an occupancy timeline.
    pub telemetry: bool,
    /// A DTD the shared input is promised to be valid against. The merged
    /// matcher gets per-query path pruning plus the descendant-
    /// reachability filter on the single shared scan, and every lane's
    /// buffer the sibling-order cutoffs — the three analyses a
    /// stand-alone run with [`EngineOptions::schema`] applies.
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
    pub(crate) driver: Driver,
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
        let lane_opts = EngineOptions {
            indent: opts.indent.clone(),
            max_buffer_bytes: opts.max_buffer_bytes,
            telemetry: opts.telemetry,
            ..EngineOptions::gcx()
        };
        let lanes = queries
            .iter()
            .map(|q| {
                // The lane's share of the schema — the sibling-order
                // cutoffs — comes prepared, from its query's plan.
                let schema = opts.schema.as_ref().map(|dtd| q.schema_plan(dtd));
                Lane::start(q, &lane_opts, schema.as_deref())
            })
            .collect();
        // Interning during the scan extends the table the paths were
        // compiled against.
        let matcher = TaggedMatcher::start(automaton);
        BatchSession {
            driver: Driver::new(lanes, matcher, Some(symbols)),
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
        let reports = self.driver.finish()?;
        let pre = &mut self.driver.pre;
        // End of input is every query's last event. The events delivered
        // are summed over lanes, a failed lane's until it failed.
        let fanout_events = pre.lanes.iter().map(|slot| slot.lane.tokens() + 1).sum();
        let queries = reports
            .into_iter()
            .zip(&mut pre.lanes)
            .map(|(report, slot)| QueryRun {
                output: std::mem::take(slot.lane.output_mut()),
                report: report.map(|r| RunReport {
                    tokens: r.tokens + 1,
                    ..r
                }),
            })
            .collect();
        Ok(BatchReport {
            queries,
            tokens: pre.tokens,
            fanout_events,
            elapsed: self.started.elapsed(),
        })
    }
}
