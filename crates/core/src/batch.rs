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
//! per-query buffers. A lane counts, samples and adopts an in-stream
//! DOCTYPE as its stand-alone run does: its [`RunReport`] is that run's.
//! What the batch face adds: the merged automaton, a failed lane that
//! reports its error in its [`QueryRun`] while the others go on (only
//! errors of the shared input fail the batch), and the batch's report —
//! the tokens the driver handed the lanes ([`BatchReport::fanout_events`])
//! against the one scan.
//!
//! Every query's output is byte-identical to a stand-alone
//! [`run`](crate::run) over the same document, and can be drained while
//! the document arrives ([`BatchSession::take_output`]).

use crate::driver::Driver;
use crate::engine::{CompiledQuery, EngineMode, EngineOptions, RunReport, READ_CHUNK};
use crate::error::EngineError;
use crate::lane::Lane;
use gcx_projection::{Automaton, CompiledPaths, TaggedMatcher, TaggedPaths};
use gcx_xml::SymbolTable;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one query of the batch.
#[derive(Debug)]
pub struct QueryRun {
    /// The query's serialized result (byte-identical to a standalone run),
    /// bar what [`BatchSession::take_output`] drained before the end.
    pub output: Vec<u8>,
    /// The lane's run report, or the error that stopped it: the report of
    /// the query's stand-alone run over the document, bar the reach cuts,
    /// which are the shared scan's. `tokens` is the stream's structural
    /// tokens.
    pub report: Result<RunReport, EngineError>,
}

/// Aggregate measurements of a shared pass.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in batch order.
    pub queries: Vec<QueryRun>,
    /// Structural tokens in the single shared scan.
    pub tokens: u64,
    /// Tokens the driver handed a lane, summed over lanes: each token a
    /// live lane was shown (a self-closing tag once), and each one a copy
    /// pass wrote through for its lane. What a lane sat out, and what a
    /// bulk pass went by unseen, is not among them.
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
/// [`BatchSession`] and feed it `input`, read into one 64 KiB buffer.
/// Per-query evaluator failures are reported in the [`BatchReport`]; only
/// input errors (which invalidate every query) fail the whole batch.
pub fn run<R: Read>(
    queries: &[CompiledQuery],
    opts: &EngineOptions,
    mut input: R,
) -> Result<BatchReport, EngineError> {
    let mut session = BatchSession::new(queries, opts);
    let driver = &mut session.driver;
    let mut chunk = vec![0; READ_CHUNK];
    loop {
        let n = input.read(&mut chunk);
        match n.map_err(|e| driver.input_io_error(e))? {
            0 => break,
            n => driver.feed(&chunk[..n])?,
        }
    }
    session.finish()
}

/// Evaluate a batch under [`EngineOptions::gcx`].
pub fn run_batch<R: Read>(queries: &[CompiledQuery], input: R) -> Result<BatchReport, EngineError> {
    run(queries, &EngineOptions::gcx(), input)
}

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
    /// query under `opts` — its indent, byte budget (each lane's own: a
    /// lane over it fails alone), telemetry, timeline stride and its share
    /// of the schema, the sibling-order cutoffs. Push the
    /// document with [`BatchSession::feed`] as it arrives, then
    /// [`BatchSession::finish`]. The batch's clock starts once the merged
    /// automaton is built.
    ///
    /// # Panics
    ///
    /// Unless `opts` is the GCX configuration ([`EngineMode::Gcx`]): every
    /// lane runs signOffs and purges.
    pub fn new(queries: &[CompiledQuery], opts: &EngineOptions) -> BatchSession {
        assert!(
            opts.mode == EngineMode::Gcx,
            "a batch runs its lanes in the GCX configuration"
        );
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
                // The lane's share of the schema comes prepared, from its
                // query's plan.
                let schema = opts.schema.as_ref().map(|dtd| q.schema_plan(dtd));
                Lane::start(q, opts, schema.as_deref())
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
        let pre = &mut self.driver.pump.pre;
        let queries = reports
            .into_iter()
            .zip(&mut pre.lanes)
            .map(|(report, slot)| QueryRun {
                output: std::mem::take(slot.lane.output_mut()),
                report,
            })
            .collect();
        Ok(BatchReport {
            queries,
            tokens: pre.tokens,
            fanout_events: pre.handed,
            elapsed: self.started.elapsed(),
        })
    }
}
