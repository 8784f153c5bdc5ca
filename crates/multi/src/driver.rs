//! The lock-step driver: one tokenizer pass, one merged-matcher pass, N
//! query evaluations stepped by the thread that called in.
//!
//! ## Data flow
//!
//! A [`BatchSession`] owns the push tokenizer, the merged
//! [`TaggedMatcher`] and one [`Lane`] per query (`gcx-core`'s evaluation
//! core: that query's evaluator, buffer, symbol table and output — the
//! same type a stand-alone `EvalSession` drives). For every structural
//! token it makes the merged keep/skip decision once and offers the
//! token — still borrowed from the tokenizer window, its names translated
//! into the lane's symbol space — to each lane together with that lane's
//! roles. A lane that keeps the node appends it to its own buffer with
//! its own document ordinals and resumes its evaluator as soon as what it
//! waits for has arrived, exactly as under a stand-alone session.
//! Buffers, role multisets and signOff execution are untouched by the
//! sharing, so per-query buffer minimality is preserved.
//!
//! The session is sans-IO (`feed` / `finish`, like `EvalSession`);
//! [`run`] is the blocking wrapper over a `Read`.
//!
//! ## Skip bookkeeping
//!
//! Three nested notions of "not interested" exist:
//!
//! * merged skip: *no* query can match inside — the tokenizer
//!   fast-forwards through the element's end tag
//!   (`PushTokenizer::skip_element`) and the shared scan is charged the
//!   tokens that went by; nothing of the subtree reaches the matcher or a
//!   lane;
//! * per-lane skip (`lane_skip[q] > 0`): some other query keeps the
//!   element, this one doesn't. The subtree stays invisible to this lane;
//!   start/end tags inside it (processed for the lanes that *do* keep it)
//!   only balance its counter here in the fan-out;
//! * failed lane: its evaluator or buffer returned an error (byte budget,
//!   ...). It ignores the rest of the stream and reports the error in its
//!   [`QueryRun`]; the other lanes are unaffected.
//!
//! Only errors of the shared input (malformed XML, I/O) fail the batch.

use gcx_core::{
    CompiledQuery, EngineError, EngineMode, Keep, Lane, RunReport, ScanFacts, SchemaReport,
};
use gcx_projection::{
    Automaton, CompiledPaths, TaggedMatcher, TaggedOutcome, TaggedPaths, TaggedRole,
};
use gcx_query::ast::RoleId;
use gcx_xml::{PushTokenizer, Symbol, SymbolTable, Token, TokenStep, XmlError, XmlErrorKind};
use std::io::Read;
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
    /// The query's serialized result (byte-identical to a standalone run).
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
    loop {
        let n = {
            let gap = session.space(READ_CHUNK);
            input.read(gap)
        };
        match n.map_err(|e| session.input_io_error(e))? {
            0 => break,
            n => session.commit(n)?,
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
    tok: PushTokenizer,
    fan: FanOut,
    scan: ScanFacts,
    /// Telemetry enabled: record a feed span per feed/commit call.
    telemetry: bool,
    /// `(pruned, total)` projection-path counts per query with a schema.
    pruned_paths: Option<Vec<(u32, u32)>>,
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
        let mut pruned_paths = dtd.map(|_| Vec::with_capacity(queries.len()));
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| {
                let paths = CompiledPaths::compile(&q.analysis.roles, &mut symbols);
                match (dtd, &mut pruned_paths) {
                    (Some(dtd), Some(counts)) => {
                        let prune = dtd.prune(&paths, &symbols);
                        counts.push((prune.pruned.len() as u32, prune.total as u32));
                        prune.paths
                    }
                    _ => paths,
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
                let mut lane = Lane::start(
                    q,
                    EngineMode::Gcx,
                    opts.max_buffer_bytes,
                    opts.indent.clone(),
                    opts.telemetry,
                    schema.as_deref(),
                );
                // Run the program up to its first suspension.
                lane.step();
                lane
            })
            .collect();
        BatchSession {
            tok: PushTokenizer::new(),
            scan: ScanFacts::default(),
            telemetry: opts.telemetry,
            started,
            pruned_paths,
            fan: FanOut {
                outcome: TaggedOutcome::for_tags(automaton.n_tags()),
                matcher: TaggedMatcher::start(automaton),
                text_roles: Vec::new(),
                // Interning during the scan extends the table the paths
                // were compiled against.
                symbols,
                lanes,
                remap: vec![Vec::new(); queries.len()],
                lane_skip: vec![0; queries.len()],
                any_live: true,
                tokens: 0,
                fanout: 0,
                roles: Vec::new(),
                attr_names: Vec::new(),
                lane_attr_names: Vec::new(),
            },
        }
    }

    /// Push one chunk of document bytes and step every lane as far as
    /// they allow. Fails only on malformed input.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.tok.feed(chunk);
        self.pump_spanned(chunk.len())
    }

    /// Zero-copy variant of [`BatchSession::feed`]: borrow at least `min`
    /// writable bytes of the tokenizer window to read input into, then
    /// [`BatchSession::commit`] however many arrived.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.tok.space(min)
    }

    /// Declare `n` bytes of [`BatchSession::space`] filled and advance,
    /// exactly like [`BatchSession::feed`] on that slice.
    pub fn commit(&mut self, n: usize) -> Result<(), EngineError> {
        self.tok.commit(n);
        self.pump_spanned(n)
    }

    /// Wrap an input-side I/O failure the way a tokenizer error is
    /// reported, carrying the current position.
    pub fn input_io_error(&self, e: std::io::Error) -> EngineError {
        EngineError::Xml(XmlError {
            kind: XmlErrorKind::Io(e),
            pos: self.tok.position(),
        })
    }

    /// Declare the end of input, run every lane to completion and collect
    /// the batch's outcome. Fails on a truncated or malformed document.
    pub fn finish(mut self) -> Result<BatchReport, EngineError> {
        self.tok.finish_input();
        self.pump()?;
        self.scan.window_peak = self.tok.window_peak();
        let reach_cuts = self.fan.matcher.reach_cuts();
        // Lightest buffer first: a lane's memory is back before the next
        // one's final phase (a join builds its index there), so the
        // batch's high-water is the heaviest lane's final phase, not the
        // sum of all of them.
        let mut lanes: Vec<(usize, Lane)> = self.fan.lanes.into_iter().enumerate().collect();
        lanes.sort_by_key(|(_, lane)| lane.buffer_stats().live_bytes);
        let mut runs: Vec<(usize, QueryRun)> = lanes
            .into_iter()
            .map(|(i, mut lane)| {
                let schema = self.pruned_paths.as_ref().map(|p| SchemaReport {
                    pruned_paths: p[i].0,
                    total_paths: p[i].1,
                    reach_cuts,
                    ..SchemaReport::default()
                });
                // End of input is every query's last event.
                let report = lane.finish(&self.scan, schema).map(|r| RunReport {
                    tokens: r.tokens + 1,
                    ..r
                });
                let output = std::mem::take(lane.output_mut());
                (i, QueryRun { output, report })
            })
            .collect();
        runs.sort_by_key(|&(i, _)| i);
        let queries: Vec<QueryRun> = runs.into_iter().map(|(_, run)| run).collect();
        Ok(BatchReport {
            fanout_events: self.fan.fanout + queries.len() as u64,
            queries,
            tokens: self.fan.tokens,
            elapsed: self.started.elapsed(),
        })
    }

    /// [`BatchSession::pump`] as one counted (and, with telemetry on,
    /// timed) feed call of the shared scan, which every lane's report
    /// carries.
    fn pump_spanned(&mut self, bytes: usize) -> Result<(), EngineError> {
        let started = self.scan.feed_started(self.telemetry);
        let result = self.pump();
        self.scan.feed_ended(started, bytes);
        result
    }

    /// Apply every complete token in the window; a subtree no query keeps
    /// is passed in bulk (first the one the last feed left suspended).
    fn pump(&mut self) -> Result<(), EngineError> {
        let mut skip = self.tok.skipping();
        loop {
            if skip {
                let skipped = self.tok.skip_element(&[], usize::MAX)?;
                self.fan.tokens += skipped.tokens;
                if !skipped.complete {
                    break;
                }
                skip = false;
            } else if self.tok.step()? == TokenStep::Token {
                skip = self.fan.apply(&self.tok.token());
            } else {
                break;
            }
        }
        self.scan.max_pending_bytes = self
            .scan
            .max_pending_bytes
            .max(self.tok.pending_bytes() as u64);
        Ok(())
    }
}

/// Everything of a session but the tokenizer: the merged decision and
/// the lanes it is handed to.
struct FanOut {
    /// The merged matcher over every query's paths, and its outcomes: the
    /// last start tag's (kept per query, roles by query tag) and the last
    /// text's roles.
    matcher: TaggedMatcher,
    outcome: TaggedOutcome,
    text_roles: Vec<TaggedRole>,
    /// The batch's symbol table (the merged NFA's name tests are interned
    /// here).
    symbols: SymbolTable,
    lanes: Vec<Lane>,
    /// Per lane: batch symbol → the lane's symbol, filled on first use —
    /// a name is interned into a lane's table once per document, not once
    /// per event.
    remap: Vec<Vec<Symbol>>,
    /// Per lane: depth inside a subtree the lane skipped while some other
    /// lane keeps it (0 = the lane sees the current token).
    lane_skip: Vec<u32>,
    /// Some lane still evaluates (rechecked when the table grows).
    any_live: bool,
    /// Structural tokens of the shared scan.
    tokens: u64,
    /// Events delivered, summed over lanes.
    fanout: u64,
    /// Scratch reused across tokens: the current node's roles with the
    /// query tags dropped (each lane is handed its sub-slice), and the
    /// current element's attribute names in the batch's and in one lane's
    /// symbols.
    roles: Vec<(RoleId, u32)>,
    attr_names: Vec<Symbol>,
    lane_attr_names: Vec<Symbol>,
}

/// Remap slot of a batch symbol a lane has not met yet.
const UNSEEN: Symbol = Symbol(u32::MAX);

/// `lane`'s symbol for batch symbol `batch`, spelled `name`.
#[inline]
fn local(remap: &mut Vec<Symbol>, lane: &mut Lane, batch: Symbol, name: &str) -> Symbol {
    let i = batch.index();
    if i >= remap.len() {
        remap.resize(i + 1, UNSEEN);
    }
    if remap[i] == UNSEEN {
        remap[i] = lane.symbols_mut().intern(name);
    }
    remap[i]
}

/// Drop the query tags of `tagged` (sorted by tag) into `roles`, for
/// [`lane_roles`] to slice.
#[inline]
fn untag(tagged: &[TaggedRole], roles: &mut Vec<(RoleId, u32)>) {
    roles.clear();
    roles.extend(tagged.iter().map(|&(_, r, c)| (r, c)));
}

/// Lane `qi`'s sub-slice of `roles`, the untagged copy of `tagged`. The
/// tagged list is sorted by tag and the lanes are visited in tag order,
/// so `at` — where the previous lanes' roles ended — only moves forward:
/// one walk of the list per token, not a search per lane.
#[inline]
fn lane_roles<'a>(
    tagged: &[TaggedRole],
    roles: &'a [(RoleId, u32)],
    at: &mut usize,
    qi: usize,
) -> &'a [(RoleId, u32)] {
    let before = tagged[*at..].iter().take_while(|r| (r.0 as usize) < qi);
    let from = *at + before.count();
    let mine = tagged[from..].iter().take_while(|r| r.0 as usize == qi);
    let to = from + mine.count();
    *at = to;
    &roles[from..to]
}

/// A lane's share of one token is over: charge it if the token was
/// delivered, and let the lane's evaluator catch up.
#[inline]
fn token_over(lane: &mut Lane, delivered: bool) -> u64 {
    if delivered {
        lane.tick(1);
    }
    lane.step();
    u64::from(delivered)
}

impl FanOut {
    /// Offer one token to every lane. Returns whether it opened an element
    /// no query keeps — its subtree is the caller's to skip, end tag
    /// included.
    fn apply(&mut self, token: &Token<'_>) -> bool {
        match token {
            Token::StartTag(tag) => {
                let self_closing = tag.self_closing;
                // A self-closing tag stands for open+close: count both.
                self.tokens += 1 + u64::from(self_closing);
                if !self.any_live {
                    return !self_closing;
                }
                let known = self.symbols.len();
                let name = self.symbols.intern(tag.name);
                self.matcher.enter_element(name, &mut self.outcome);
                let outcome = &self.outcome;
                let any_keep = outcome.any_keep;
                self.attr_names.clear();
                if any_keep {
                    let symbols = &mut self.symbols;
                    self.attr_names
                        .extend(tag.attrs.iter().map(|a| symbols.intern(a.name)));
                }
                if self.symbols.len() != known {
                    // The batch's table holds document names on behalf of
                    // the lanes, each of which charges its own copy to its
                    // budget: with every lane over, nobody is left to hold
                    // names for, and the rest of the document is skipped.
                    self.any_live = self.lanes.iter().any(Lane::live);
                }
                untag(&outcome.roles, &mut self.roles);
                let mut at = 0;
                for (qi, lane) in self.lanes.iter_mut().enumerate() {
                    if !lane.live() {
                        continue;
                    }
                    if self.lane_skip[qi] > 0 {
                        self.lane_skip[qi] += u32::from(any_keep && !self_closing);
                        continue;
                    }
                    let remap = &mut self.remap[qi];
                    self.lane_attr_names.clear();
                    let matched = any_keep && outcome.kept[qi];
                    let roles = lane_roles(&outcome.roles, &self.roles, &mut at, qi);
                    // Only an element buffered now keeps its attributes.
                    if matched && !roles.is_empty() {
                        for (a, &batch) in tag.attrs.iter().zip(&self.attr_names) {
                            self.lane_attr_names.push(local(remap, lane, batch, a.name));
                        }
                    } else if !matched && any_keep && !self_closing {
                        self.lane_skip[qi] = 1;
                    }
                    let name = local(remap, lane, name, tag.name);
                    let taken = lane.start_element(
                        name,
                        tag,
                        &self.lane_attr_names,
                        Keep::projected(matched, roles),
                    );
                    self.fanout += token_over(lane, taken);
                }
                if !any_keep {
                    // Nobody can match inside: hide the subtree from
                    // every lane (the matcher pushed no frame for it).
                    return !self_closing;
                }
                if self_closing {
                    self.matcher.leave_element();
                }
            }
            Token::EndTag { .. } => {
                self.tokens += 1;
                for (lane, skip) in self.lanes.iter_mut().zip(&mut self.lane_skip) {
                    if *skip > 0 {
                        *skip -= 1;
                        continue;
                    }
                    let closed = lane.end_element();
                    self.fanout += token_over(lane, closed);
                }
                self.matcher.leave_element();
            }
            Token::Text(content) => {
                self.tokens += 1;
                self.matcher.text_into(&mut self.text_roles);
                let tagged = &self.text_roles;
                untag(tagged, &mut self.roles);
                let mut at = 0;
                for (qi, lane) in self.lanes.iter_mut().enumerate() {
                    // Every visible text child bumps the lane's ordinals;
                    // only text that carries one of its roles is buffered.
                    if self.lane_skip[qi] > 0 {
                        continue;
                    }
                    let roles = lane_roles(tagged, &self.roles, &mut at, qi);
                    let kept = lane.text(content, (!roles.is_empty()).then_some(roles));
                    self.fanout += token_over(lane, kept);
                }
            }
            // Comments, PIs and the doctype are not part of the data model.
            Token::Comment(_) | Token::ProcessingInstruction { .. } | Token::Doctype(_) => {}
        }
        false
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
