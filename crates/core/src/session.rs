//! The sans-IO evaluation session: the push-driven public form of the
//! engine.
//!
//! GCX's defining property is that evaluation is driven by the *arrival*
//! of stream events, with buffers purged the instant active-rule signoffs
//! allow. [`EvalSession`] is that property as an API: the caller owns all
//! I/O and pushes document bytes in with [`EvalSession::feed`] whenever
//! they happen to arrive — from a socket, a file, a test vector — and the
//! session advances tokenization, projection and evaluation exactly as far
//! as the bytes allow, suspending at any byte boundary (mid-tag, mid-UTF-8
//! sequence, mid-CDATA). Query output accumulates in a caller-drainable
//! buffer ([`EvalSession::output`] / [`EvalSession::take_output`]); the
//! engine never touches `Read` or `Write` internally.
//!
//! One `feed` call interleaves the three stages at the same granularity as
//! the blocking engine — evaluator runs until it blocks, one token is
//! applied, evaluator resumes — so outputs *and buffer peaks* are
//! bit-identical to [`run`](crate::run) regardless of how the input is
//! chunked (pinned by the `chunk_splits` differential suite).
//!
//! ```
//! use gcx_core::{CompiledQuery, EngineOptions};
//!
//! let q = CompiledQuery::compile(
//!     "<books>{ for $b in /bib/book return $b/title }</books>",
//! ).unwrap();
//! let mut session = q.session(&EngineOptions::gcx());
//!
//! // Bytes arrive in arbitrary chunks — here, split mid-tag.
//! let doc = b"<bib><book><title>Streams</title><price>10</price></book></bib>";
//! let (a, b) = doc.split_at(17);
//! let emitted = session.feed(a).unwrap();
//! assert!(!emitted.done, "mid-document: evaluation is suspended");
//! session.feed(b).unwrap();
//!
//! let report = session.finish().unwrap();
//! let mut out = Vec::new();
//! session.take_output(&mut out).unwrap();
//! assert_eq!(out, b"<books><title>Streams</title></books>");
//! assert_eq!(report.buffer.live, 0); // the buffer drained completely
//! assert_eq!(report.feed_calls, 2);
//! ```

use crate::engine::{CompiledQuery, EngineOptions, RunReport, SchemaReport};
use crate::error::EngineError;
use crate::lane::{Keep, Lane, ScanFacts};
use gcx_projection::StreamMatcher;
use gcx_query::ast::RoleId;
use gcx_xml::{
    Attrs, PushTokenizer, StartTag, Symbol, TextPos, Token, TokenStep, XmlError, XmlErrorKind,
};
use std::io::Write;
use std::sync::Arc;

/// What one [`EvalSession::feed`] (or [`EvalSession::finish`]) call
/// produced.
#[derive(Debug, Clone, Copy)]
pub struct Emitted {
    /// Output bytes currently pending in the session's buffer (including
    /// bytes emitted by earlier calls and not yet drained).
    pub output_bytes: usize,
    /// The program ran to completion: no further output will be produced;
    /// remaining input only gets scanned/validated (when draining is on).
    pub done: bool,
}

/// Buffer-occupancy timeline: `(token index, live buffered nodes)` samples.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Sampled points in token order.
    pub points: Vec<(u64, u64)>,
    /// Sampling stride (1 = every token).
    pub every: u64,
}

impl Timeline {
    /// The token clock moved from `from` to `to` with `live` nodes
    /// buffered throughout: sample every stride point it passed.
    fn record(&mut self, from: u64, to: u64, live: u64) {
        if self.every == 0 {
            return;
        }
        let mut at = (from / self.every + 1) * self.every;
        while at <= to {
            self.points.push((at, live));
            at += self.every;
        }
    }

    /// Highest buffered-node count over the recorded samples.
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|&(_, live)| live).max().unwrap_or(0)
    }
}

/// A resumable, push-driven evaluation of one compiled query over one
/// document. Create with [`CompiledQuery::session`]; see the
/// [module docs](self) for the protocol.
///
/// The session is the paper's pipeline with the I/O inverted: it owns the
/// incremental tokenizer and the stream preprojector (the projection
/// matcher plus the keep/skip bookkeeping) and drives one [`Lane`] — the
/// buffer with active garbage collection and the resumable evaluator —
/// all suspended together between `feed` calls, holding exactly the GCX
/// buffer plus the current partial token.
pub struct EvalSession {
    tok: PushTokenizer,
    pre: Preprojection,
    /// What the next pass over the window does (the skip or search the
    /// last feed left suspended continues).
    next: Pass,
    /// Tokens the search in flight passed before the window ran out: they
    /// are charged when it ends.
    searched: u64,
    /// Elements the copy pass in flight opened and has not closed.
    copied: usize,
    drain_input: bool,
    finished: bool,
    /// Telemetry enabled: record a feed span per feed/commit call.
    telemetry: bool,
    scan: ScanFacts,
    /// `(pruned, total)` projection-path counts when an explicit schema
    /// pruned the matcher (None without one).
    pruned_paths: Option<(u32, u32)>,
}

/// What the session does with the window next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Step one token and apply it.
    Step,
    /// Pass the refused element whose start tag was just applied, end tag
    /// included.
    Skip,
    /// Pass the rest of the innermost open element up to the next start
    /// tag its frame waits for: a descendant search.
    Search,
    /// Pass the rest of the innermost open element, which the lane is
    /// copying, to its writer up to the next start tag it must be shown:
    /// a copy pass.
    Copy,
    /// Apply the start tag a search or a copy pass stopped at, which the
    /// tokenizer holds.
    Found,
}

/// Names a search hands the tokenizer, or a copy pass stops at, at most: a
/// frame waiting for more is stepped through.
const MAX_STOPS: usize = 8;

/// Everything of a session but the tokenizer: the stream preprojector
/// (paper Figure 2, left component) in front of its lane. It takes one
/// token at a time ("a lookahead of just one token"), runs the projection
/// NFA and shows the lane what the query's projection keeps, with the
/// role instances. An element it refuses is not looked into at all: the
/// session has the tokenizer fast-forward through its end tag
/// ([`PushTokenizer::skip_element`]) and charges the lane's clock for
/// the tokens that went by. Where the innermost frame only waits for a
/// few names below it (a search set,
/// [`StreamMatcher::search_names`]), the session has the tokenizer run
/// ahead to the next start tag of one of them in the same way. And where
/// the lane writes a copy through and the frame would give every node
/// below it the copy's role alone up to a few names (a copy set,
/// [`StreamMatcher::copy_stops`]), the session hands each token from the
/// tokenizer to the lane's writer, unseen by the matcher and the buffer.
struct Preprojection {
    matcher: StreamMatcher,
    lane: Lane,
    /// Full buffering only: depth inside a subtree that is kept although
    /// the matcher refused its top element. The matcher holds no frame in
    /// there, so everything below is kept without roles and without
    /// asking it.
    unmatched_depth: u32,
    /// Projection on (GCX / projection-only) or off: *every* element and
    /// non-whitespace text node is buffered; roles are still assigned so
    /// the evaluator and the signOff machinery behave identically.
    project: bool,
    timeline: Option<Timeline>,
    /// The matcher's role output and the current element's attribute
    /// names, reused across tokens.
    role_scratch: Vec<(RoleId, u32)>,
    attr_names: Vec<Symbol>,
    /// Adopt sibling-order cutoffs from an in-stream DOCTYPE internal
    /// subset (only when no schema is installed yet; parse failures are
    /// ignored — an unusable DOCTYPE means "no schema", not an error).
    adopt_doctype: bool,
    /// Tokens shown to the matcher (the lib tests tell what a search
    /// passes unseen by this).
    #[cfg(test)]
    matcher_tokens: u64,
}

impl EvalSession {
    pub(crate) fn new(q: &CompiledQuery, opts: &EngineOptions) -> EvalSession {
        // Nothing is compiled here: the automaton was prepared with the
        // query and each run's matcher only instantiates frame state over
        // it (root roles — the paper's r1 — are not materialized: the
        // virtual root is never purged, so its bookkeeping would be
        // inert). With a schema the query's plan for it supplies an
        // automaton without the DTD-unsatisfiable paths and under the
        // descendant-reachability filter, the sibling-order cutoffs for
        // the buffer, and a table that already holds the DTD's names.
        let plan = opts.schema.as_ref().map(|dtd| q.schema_plan(dtd));
        let lane = Lane::start(
            q,
            opts.mode,
            opts.max_buffer_bytes,
            opts.indent.clone(),
            opts.telemetry,
            plan.as_deref(),
        );
        let automaton = plan
            .as_ref()
            .map_or(q.program.automaton(), |p| &p.automaton);
        let matcher = StreamMatcher::start(Arc::clone(automaton));
        let pruned_paths = plan.as_ref().map(|p| p.pruned_paths);
        EvalSession {
            tok: PushTokenizer::new(),
            pre: Preprojection {
                matcher,
                lane,
                unmatched_depth: 0,
                project: opts.mode.projects(),
                timeline: opts.timeline_every.map(|every| Timeline {
                    points: Vec::new(),
                    every,
                }),
                role_scratch: Vec::new(),
                attr_names: Vec::new(),
                adopt_doctype: opts.schema.is_none() && opts.schema_from_doctype,
                #[cfg(test)]
                matcher_tokens: 0,
            },
            next: Pass::Step,
            searched: 0,
            copied: 0,
            drain_input: opts.drain_input,
            finished: false,
            telemetry: opts.telemetry,
            scan: ScanFacts::default(),
            pruned_paths,
        }
    }

    /// Push one chunk of document bytes and advance evaluation as far as
    /// they allow. Any amount is fine, including empty; the session
    /// carries partial-token spillover across calls internally.
    ///
    /// Output produced by this call is buffered — read it with
    /// [`EvalSession::output`] or drain it with
    /// [`EvalSession::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Emitted, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::feed after finish".into(),
            ));
        }
        if !self.wants_input() {
            // The program completed and draining is off: the rest of the
            // document is irrelevant. Accepting (and buffering) it would
            // grow memory without bound, so it is dropped (and not
            // counted — the bytes never entered the run). The blocking
            // engine likewise stops reading at this point.
            return Ok(self.emitted());
        }
        self.tok.feed(chunk);
        self.pump_spanned(chunk.len())
    }

    /// Zero-copy variant of [`EvalSession::feed`]: borrow at least `min`
    /// writable bytes of the tokenizer window to read input into directly
    /// (e.g. straight from a socket), then [`EvalSession::commit`] however
    /// many arrived. Invalidates pending borrowed state like `feed` does.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.tok.space(min)
    }

    /// Declare `n` bytes of [`EvalSession::space`] filled and advance
    /// evaluation, exactly like [`EvalSession::feed`] on that slice.
    /// Callers should stop filling once [`EvalSession::wants_input`] turns
    /// false — committed-but-irrelevant bytes stay buffered.
    pub fn commit(&mut self, n: usize) -> Result<Emitted, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::commit after finish".into(),
            ));
        }
        self.tok.commit(n);
        self.pump_spanned(n)
    }

    /// False once further input can have no effect: the program completed
    /// and end-of-input draining/validation is disabled. [`EvalSession::feed`]
    /// drops chunks from then on; callers owning the byte source can stop
    /// reading it (the [`run`](crate::run) wrapper does).
    pub fn wants_input(&self) -> bool {
        !self.pre.lane.done() || self.drain_input
    }

    /// Declare the end of input and run evaluation to completion,
    /// returning the run's measurements. Fails with the same errors the
    /// blocking engine would (malformed XML, truncated document, buffer
    /// budget). Pending output remains drainable afterwards.
    pub fn finish(&mut self) -> Result<RunReport, EngineError> {
        if self.finished {
            return Err(EngineError::Internal(
                "EvalSession::finish called twice".into(),
            ));
        }
        self.tok.finish_input();
        self.pump()?;
        self.finished = true;
        self.scan.window_peak = self.tok.window_peak();
        // A schema was in effect when the matcher was schema-built
        // (explicit) or the buffer adopted a DOCTYPE's order table.
        let schema = (self.pruned_paths.is_some() || self.pre.lane.schema_active()).then(|| {
            let (pruned_paths, total_paths) = self.pruned_paths.unwrap_or((0, 0));
            SchemaReport {
                pruned_paths,
                total_paths,
                reach_cuts: self.pre.matcher.reach_cuts(),
                ..SchemaReport::default()
            }
        });
        let mut report = self.pre.lane.finish(&self.scan, schema)?;
        report.timeline = self.pre.timeline.take();
        Ok(report)
    }

    /// Borrowed view of the output bytes pending in the session.
    pub fn output(&self) -> &[u8] {
        self.pre.lane.output()
    }

    /// Drain pending output into `sink`; returns the bytes written.
    /// Callers stream results while the document is still arriving by
    /// interleaving this with [`EvalSession::feed`].
    ///
    /// On a sink error, the bytes that *were* written are removed from
    /// the pending buffer before the error returns, so retrying (on the
    /// same or a replacement sink) never emits a byte twice.
    pub fn take_output<W: Write>(&mut self, sink: &mut W) -> Result<usize, EngineError> {
        let pending = self.pre.lane.output_mut();
        let total = pending.len();
        let mut off = 0;
        while off < pending.len() {
            match sink.write(&pending[off..]) {
                Ok(0) => {
                    pending.drain(..off);
                    return Err(EngineError::Xml(XmlError {
                        kind: XmlErrorKind::Io(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "output sink accepted no bytes",
                        )),
                        pos: TextPos::START,
                    }));
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    pending.drain(..off);
                    return Err(EngineError::Xml(XmlError {
                        kind: XmlErrorKind::Io(e),
                        pos: TextPos::START,
                    }));
                }
            }
        }
        pending.clear();
        Ok(total)
    }

    /// `feed` calls so far.
    pub fn feed_calls(&self) -> u64 {
        self.scan.feed_calls
    }

    /// Largest partial-token spillover held across a `feed` boundary so
    /// far (see [`RunReport::max_pending_bytes`]).
    pub fn max_pending_bytes(&self) -> u64 {
        self.scan.max_pending_bytes
    }

    /// Input position of the next byte to be tokenized (line/column for
    /// error reporting).
    pub fn position(&self) -> TextPos {
        self.tok.position()
    }

    /// Wrap an input-side I/O failure the way the blocking engine's
    /// tokenizer would have reported it, carrying the current position.
    pub fn input_io_error(&self, e: std::io::Error) -> EngineError {
        EngineError::Xml(XmlError {
            kind: XmlErrorKind::Io(e),
            pos: self.tok.position(),
        })
    }

    /// [`EvalSession::pump`] as one counted (and, with telemetry on,
    /// timed) feed call.
    fn pump_spanned(&mut self, bytes: usize) -> Result<Emitted, EngineError> {
        let started = self.scan.feed_started(self.telemetry);
        let result = self.pump();
        self.scan.feed_ended(started, bytes);
        result
    }

    /// Apply every complete token in the window, one at a time: the lane
    /// runs its evaluator to suspension, the next token is applied, the
    /// evaluator resumes once what it waits for may have arrived — so
    /// buffer peaks are bit-identical however the input was chunked. A
    /// subtree the projection refuses, and what a search passes, go by in
    /// bulk; nothing changes in the lane meanwhile. A lane failure
    /// surfaces at the token that caused it.
    fn pump(&mut self) -> Result<Emitted, EngineError> {
        // Starts the program on the first call; nothing to do afterwards.
        self.pre.lane.step();
        loop {
            if let Some(e) = self.pre.lane.take_failure() {
                return Err(e);
            }
            if !self.wants_input() {
                break;
            }
            let more = match self.next {
                Pass::Skip => self.skip()?,
                Pass::Search => self.search()?,
                Pass::Copy => self.copy()?,
                // One call site, so that `apply` is inlined here.
                pass => {
                    let step = match pass {
                        Pass::Found => TokenStep::Token,
                        _ => self.tok.step()?,
                    };
                    match step {
                        TokenStep::Token => {
                            self.next = self.pre.apply(&self.tok.token());
                            true
                        }
                        TokenStep::NeedMoreData => false,
                        TokenStep::End => break,
                    }
                }
            };
            if !more {
                self.scan.max_pending_bytes = self
                    .scan
                    .max_pending_bytes
                    .max(self.tok.pending_bytes() as u64);
                break;
            }
        }
        Ok(self.emitted())
    }

    /// A bulk skip: pass the refused element whose start tag was just
    /// applied, end tag included. Returns false when the window ran out
    /// first.
    #[inline(never)]
    fn skip(&mut self) -> Result<bool, EngineError> {
        let skipped = self.tok.skip_element(&[], usize::MAX)?;
        self.pre.bump(skipped.tokens);
        if skipped.complete {
            self.next = Pass::Step;
        }
        Ok(skipped.complete)
    }

    /// A descendant search: pass the rest of the innermost open element
    /// up to the next start tag its frame waits for, as stepping would
    /// have passed it — every token charged, nothing shown to the matcher
    /// or the lane, which could only have kept it role-less on the pending
    /// chain and dropped it again. Where it stops, the elements it left
    /// open are opened on the chain (bounded by what the byte budget has
    /// room for) and the stop tag is applied next; where it completes, the
    /// end tag is applied. Returns false when the window ran out first.
    /// (Kept out of the token loop: inlined into `pump`, it slowed every
    /// stepped token of queries that never search.)
    #[inline(never)]
    fn search(&mut self) -> Result<bool, EngineError> {
        let pre = &mut self.pre;
        let waits = pre.matcher.search_names().expect("a search set is on top");
        let mut stops = [""; MAX_STOPS];
        for (stop, &name) in stops.iter_mut().zip(waits) {
            *stop = pre.lane.symbols().resolve(name);
        }
        let stops = &stops[..waits.len()];
        let found = self.tok.skip_element(stops, pre.lane.pending_room())?;
        let passed = std::mem::take(&mut self.searched) + found.tokens;
        if found.complete {
            // The element's end tag is applied as a stepped one would be.
            pre.bump(passed - 1);
            self.next = pre.end_tag();
            return Ok(true);
        }
        if !found.stopped && found.left_open == 0 {
            self.searched = passed;
            return Ok(false);
        }
        // The start tags of the elements left open were among the tokens
        // passed; each is charged as it is applied.
        pre.bump(passed - found.left_open as u64);
        for name in self.tok.left_open(found.left_open) {
            pre.open_passed(name);
        }
        // Past the depth bound the budget has failed the lane.
        self.next = if found.stopped {
            Pass::Found
        } else {
            Pass::Search
        };
        Ok(true)
    }

    /// A copy pass: hand the rest of the innermost open element — which
    /// the lane is copying, and whose frame gives every node below it the
    /// copy's role alone up to a stop — token by token to the lane's
    /// writer, every token charged, no name interned, nothing matched or
    /// appended: what stepping would have had the lane do, bar the
    /// pending chain's bookkeeping. At a start tag of a stop, or one that
    /// would open more elements than the byte budget has room for, the
    /// elements it left open are opened on the chain and the tag is
    /// applied next; at the element's own end tag, that is applied.
    /// Returns false when the window ran out first.
    #[inline(never)]
    fn copy(&mut self) -> Result<bool, EngineError> {
        let pre = &mut self.pre;
        let role = pre.lane.copying().expect("the lane is copying");
        let stops = pre.matcher.copy_stops(role).expect("a copy set is on top");
        let room = pre.lane.pending_room();
        let mut passed = 0;
        let more = loop {
            if self.tok.step()? != TokenStep::Token {
                break false;
            }
            let token = self.tok.token();
            match token {
                Token::StartTag(tag)
                    if (!tag.self_closing && self.copied >= room)
                        || stops
                            .iter()
                            .any(|&stop| pre.lane.symbols().resolve(stop) == tag.name) =>
                {
                    pre.bump(passed);
                    passed = 0;
                    for name in self.tok.left_open(std::mem::take(&mut self.copied)) {
                        pre.open_copied(name, role);
                    }
                    self.next = Pass::Found;
                    break true;
                }
                Token::StartTag(tag) => {
                    pre.lane.write_through(&token);
                    passed += 1 + u64::from(tag.self_closing);
                    self.copied += usize::from(!tag.self_closing);
                }
                Token::EndTag { .. } if self.copied == 0 => {
                    pre.bump(passed);
                    passed = 0;
                    self.next = pre.end_tag();
                    break true;
                }
                Token::EndTag { .. } => {
                    pre.lane.write_through(&token);
                    passed += 1;
                    self.copied -= 1;
                }
                Token::Text(_) => {
                    pre.lane.write_through(&token);
                    passed += 1;
                }
                // Comments and PIs are not part of the data model.
                _ => {}
            }
        };
        pre.bump(passed);
        Ok(more)
    }

    fn emitted(&self) -> Emitted {
        Emitted {
            output_bytes: self.pre.lane.output().len(),
            done: self.pre.lane.done(),
        }
    }
}

impl Preprojection {
    /// Apply one token: the keep/skip decision, role assignment and token
    /// counting; the lane does the rest. Returns what to do next: skip the
    /// subtree of an element the projection refuses (end tag included),
    /// search below a frame that only waits, or step.
    fn apply(&mut self, token: &Token<'_>) -> Pass {
        #[cfg(test)]
        {
            self.matcher_tokens += u64::from(matches!(token, Token::StartTag(_) | Token::Text(_)));
        }
        match token {
            Token::StartTag(tag) => {
                let self_closing = tag.self_closing;
                let name = self.lane.symbols_mut().intern(tag.name);
                // Roles land in the reused scratch — no per-element
                // vector.
                let matched = self.unmatched_depth == 0
                    && self
                        .matcher
                        .enter_element_into(name, &mut self.role_scratch);
                let keep = matched || !self.project;
                // Only an element buffered now keeps its attributes.
                let buffered = keep && !(self.project && self.role_scratch.is_empty());
                self.attr_names.clear();
                if buffered {
                    let symbols = self.lane.symbols_mut();
                    self.attr_names
                        .extend(tag.attrs.iter().map(|a| symbols.intern(a.name)));
                }
                let roles: &[(RoleId, u32)] = if matched { &self.role_scratch } else { &[] };
                // Without projection everything is buffered as it comes;
                // with it, a role-less match only *may* be needed.
                let decision = if self.project {
                    Keep::projected(matched, roles)
                } else {
                    Keep::Roles(roles)
                };
                self.lane
                    .start_element(name, tag, &self.attr_names, decision);
                if !keep {
                    // A self-closing tag stands for open+close: count both.
                    self.bump(1 + u64::from(self_closing));
                    self.lane.step();
                    return if self_closing { Pass::Step } else { Pass::Skip };
                } else if !matched {
                    self.unmatched_depth += u32::from(!self_closing);
                } else if self_closing {
                    self.matcher.leave_element();
                }
                self.bump(1 + u64::from(self_closing));
            }
            Token::EndTag { .. } => return self.end_tag(),
            Token::Text(content) => {
                if self.unmatched_depth == 0 {
                    self.matcher.text_into(&mut self.role_scratch);
                } else {
                    self.role_scratch.clear();
                }
                let keep =
                    !self.role_scratch.is_empty() || (!self.project && !content.trim().is_empty());
                self.lane
                    .text(content, keep.then_some(self.role_scratch.as_slice()));
                self.bump(1);
            }
            Token::Doctype(payload) => {
                // Not part of the data model, but a usable internal subset
                // can seed the sibling-order analysis mid-stream (names
                // interned here land before any document element's — the
                // prolog precedes the root). Explicit schemas win; parse
                // failures mean "no schema".
                if self.adopt_doctype && !self.lane.schema_active() {
                    if let Ok(view) = gcx_xml::DoctypeView::parse(payload) {
                        if let Ok(dtd) = gcx_schema::Dtd::from_doctype_parts(view.name, view.subset)
                        {
                            self.lane.adopt_doctype(&dtd);
                        }
                    }
                }
                return Pass::Step;
            }
            // Comments and PIs are not part of the data model.
            Token::Comment(_) | Token::ProcessingInstruction { .. } => return Pass::Step,
        }
        self.lane.step();
        // A text leaves the frame as it was, and it was stepped through.
        if matches!(token, Token::Text(_)) {
            Pass::Step
        } else {
            self.next_pass()
        }
    }

    /// Open an element a search passed and left open, as `apply` would
    /// have opened its start tag: interned, entered into the matcher
    /// (onto the same search set, with no role) and pending on the chain,
    /// without its attributes.
    fn open_passed(&mut self, name: &str) {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        let symbol = self.lane.symbols_mut().intern(name);
        let matched = self
            .matcher
            .enter_element_into(symbol, &mut self.role_scratch);
        debug_assert!(matched && self.role_scratch.is_empty());
        let tag = StartTag {
            name,
            attrs: Attrs::EMPTY,
            self_closing: false,
        };
        self.lane
            .start_element(symbol, &tag, &[], Keep::Speculative);
        self.bump(1);
        self.lane.step();
    }

    /// Open an element a copy pass wrote and left open, as `apply` would
    /// have opened its start tag: interned, entered into the matcher (onto
    /// the same copy set, with the copy's role alone) and pending on the
    /// chain. Its start tag was charged by the pass.
    fn open_copied(&mut self, name: &str, role: RoleId) {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        let symbol = self.lane.symbols_mut().intern(name);
        let matched = self
            .matcher
            .enter_element_into(symbol, &mut self.role_scratch);
        debug_assert!(matched && self.role_scratch == [(role, 1)]);
        self.lane.open_copied(symbol);
    }

    /// Apply the end tag of the innermost open element.
    #[inline(always)]
    fn end_tag(&mut self) -> Pass {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        self.lane.end_element();
        if self.unmatched_depth > 0 {
            self.unmatched_depth -= 1;
        } else {
            self.matcher.leave_element();
        }
        self.bump(1);
        self.lane.step();
        self.next_pass()
    }

    /// What follows a tag that may have changed the innermost frame: a
    /// search, if the frame's state set is a search set; a copy pass, if
    /// it is a copy set of the copy the lane writes through — inside an
    /// element, projecting, and with no schema in force (its sibling-order
    /// cutoffs count every child, and its reach filter already makes no
    /// set a search or a copy set) — or a step.
    #[inline]
    fn next_pass(&self) -> Pass {
        match self.matcher.search_names() {
            Some(waits) if waits.len() <= MAX_STOPS && self.may_pass() => Pass::Search,
            Some(_) => Pass::Step,
            None => match self.lane.copying() {
                Some(role) => self.copy_or_step(role),
                None => Pass::Step,
            },
        }
    }

    /// [`Preprojection::next_pass`] inside a copy: a copy pass if the
    /// frame's set is a copy set of `role`. (Out of line: the token loop
    /// of a query that copies nothing only tests for a copy.)
    #[inline(never)]
    fn copy_or_step(&self, role: RoleId) -> Pass {
        match self.matcher.copy_stops(role) {
            Some(stops) if stops.len() <= MAX_STOPS && self.may_pass() => Pass::Copy,
            _ => Pass::Step,
        }
    }

    /// Whether the session may pass tokens of the innermost element
    /// unseen at all: inside an element, projecting, no schema in force.
    #[inline]
    fn may_pass(&self) -> bool {
        self.project && self.matcher.depth() > 0 && !self.lane.schema_active()
    }

    /// Count `tokens` structural tokens — kept or skipped — on the lane's
    /// clock and (optionally) sample the buffer-occupancy timeline that
    /// the paper's Figures 3 and 4 plot.
    #[inline]
    fn bump(&mut self, tokens: u64) {
        let before = self.lane.tokens();
        self.lane.tick(tokens);
        if let Some(t) = self.timeline.as_mut() {
            t.record(before, before + tokens, self.lane.buffer_stats().live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>T1</title><price>9</price></book>\
                       <article><title>skip</title></article>\
                       <book><title>T2</title></book></bib>";

    fn single_shot(query: &str, doc: &str) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut out = Vec::new();
        let report = run(&q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        (out, report)
    }

    /// Feed `doc` in `chunk`-byte pieces; return (output, report).
    fn chunked(query: &str, doc: &str, chunk: usize) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        for piece in doc.as_bytes().chunks(chunk.max(1)) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        (out, report)
    }

    /// Run `query` over `xml` to the end; return the report.
    fn report(query: &str, xml: &str, opts: &EngineOptions) -> RunReport {
        let q = CompiledQuery::compile(query).unwrap();
        run(&q, opts, xml.as_bytes(), std::io::sink()).unwrap()
    }

    const PAPER_QUERY: &str = r#"
        <r> {
          for $bib in /bib return
            (for $x in $bib/* return
               if (not(exists($x/price))) then $x else (),
             for $b in $bib/book return $b/title)
        } </r>
    "#;

    #[test]
    fn projects_paper_prefix() {
        // <bib><book><title/><author/></book></bib>: all five nodes carry
        // roles (figure 1a), so bib, book, title and author are buffered.
        let r = report(
            PAPER_QUERY,
            "<bib><book><title/><author/></book></bib>",
            &EngineOptions::gcx(),
        );
        assert_eq!(r.buffer.allocated, 4);
        assert_eq!(r.tokens, 8);
    }

    #[test]
    fn skips_irrelevant_subtrees() {
        let r = report(
            "for $a in /x/y return $a",
            "<x><junk><deep><deeper/></deep></junk><y>keep</y></x>",
            &EngineOptions::gcx(),
        );
        // junk subtree skipped entirely; x and y buffered, and "keep"
        // written through: the copy of y started at its start tag, and
        // the text holds nothing but the copy's role. Skipped tokens
        // still count.
        assert_eq!(r.buffer.allocated, 2);
        assert_eq!(r.tokens, 11);
    }

    #[test]
    fn speculative_prefixes_never_reach_the_buffer() {
        // /x/y: an x matches the path prefix but carries no role. It used
        // to be appended at its start tag and purged at its end tag
        // (allocated 1, live 0); now it waits outside the buffer for a y,
        // and with none it is never appended — in any projecting mode.
        // Derivation of the re-pin: old 1 − 1 role-less element without a
        // role-carrying descendant = 0.
        for opts in [EngineOptions::projection_only(), EngineOptions::gcx()] {
            let r = report("for $a in /x/y return 'found'", "<x><z/></x>", &opts);
            assert_eq!(r.buffer.allocated, 0, "the speculative x stays out");
            assert_eq!(r.tokens, 4, "and still counts as delivered");
            // A y makes x needed after all: both are appended, x first.
            let r = report("for $a in /x/y return 'found'", "<x><z/><y/></x>", &opts);
            assert_eq!(r.buffer.allocated, 2);
            assert_eq!(r.buffer.peak_live, 2);
        }
        // Without projection nothing is speculative.
        let r = report(
            "for $a in /x/y return 'found'",
            "<x><z/></x>",
            &EngineOptions::full_buffering(),
        );
        assert_eq!(r.buffer.allocated, 2);
    }

    #[test]
    fn document_element_not_on_any_path_skips_whole_input() {
        let r = report(
            "for $a in /x/y return 'found'",
            "<root><x><y/></x></root>",
            &EngineOptions::gcx(),
        );
        // `/x` requires the document element to be named x; <root> fails
        // the very first transition, so nothing at all is buffered.
        assert_eq!(r.buffer.allocated, 0);
        // <root>, <x>, <y/> (counts twice), </x>, </root>
        assert_eq!(r.tokens, 6);
    }

    #[test]
    fn full_buffering_keeps_everything() {
        let r = report(
            "for $a in /x/y return $a",
            "<x><junk><deep/></junk><y>keep</y></x>",
            &EngineOptions::full_buffering(),
        );
        // x, junk, deep, y, text all buffered; nothing is reclaimed.
        assert_eq!(r.buffer.allocated, 5);
        assert_eq!(r.buffer.live, 5);
    }

    #[test]
    fn whitespace_runs_are_dropped_unless_a_role_keeps_them() {
        // Projecting: only x and the two y elements; whitespace runs
        // carry no roles.
        let r = report(
            "for $a in /x/y return 'z'",
            "<x>\n  <y/>\n  <y/>\n</x>",
            &EngineOptions::gcx(),
        );
        assert_eq!(r.buffer.allocated, 3);
        // Full buffering keeps role-less text too — but not whitespace
        // runs: x, junk, "t", y.
        let r = report(
            "for $a in /x/y return 'z'",
            "<x>\n  <junk>t</junk>\n  <y/>\n</x>",
            &EngineOptions::full_buffering(),
        );
        assert_eq!(r.buffer.allocated, 4);
        // Whitespace a role asks for is kept in every mode.
        let q = CompiledQuery::compile("for $a in /x/y return $a").unwrap();
        for opts in [EngineOptions::gcx(), EngineOptions::full_buffering()] {
            let mut out = Vec::new();
            run(&q, &opts, "<x> <y> </y> </x>".as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<y> </y>");
        }
    }

    #[test]
    fn token_counting_matches_paper_arithmetic() {
        // The paper's micro documents: 10 children of 3 subelements each =
        // 82 tags; all tags count, text would too (none here).
        let mut doc = String::from("<bib>");
        for i in 0..10 {
            let t = if i == 9 { "book" } else { "article" };
            doc.push_str(&format!(
                "<{t}><author></author><title></title><price></price></{t}>"
            ));
        }
        doc.push_str("</bib>");
        assert_eq!(report(PAPER_QUERY, &doc, &EngineOptions::gcx()).tokens, 82);
    }

    #[test]
    fn timeline_records_buffer_growth_at_its_stride() {
        let query = "for $a in /x/y return 'z'";
        let doc = "<x><w/><w/><y/></x>";
        let opts = EngineOptions::projection_only();
        let tl = report(query, doc, &opts.clone().with_timeline(1))
            .timeline
            .unwrap();
        // One sample per structural token, the skipped <w/>s included.
        assert_eq!(tl.points.len(), 8);
        assert!(tl.peak() >= 2);
        // The last sample has x + y buffered (no signOffs executed here).
        assert_eq!(tl.points.last().unwrap().1, 2);
        let tl = report(query, doc, &opts.with_timeline(3)).timeline.unwrap();
        let at: Vec<u64> = tl.points.iter().map(|&(token, _)| token).collect();
        assert_eq!(at, [3, 6]);
        assert!(report(query, doc, &EngineOptions::gcx()).timeline.is_none());
    }

    #[test]
    fn self_closing_counts_as_two_tokens() {
        let r = report("for $a in /x return $a", "<x/>", &EngineOptions::gcx());
        assert_eq!(r.tokens, 2);
    }

    #[test]
    fn ordinals_count_skipped_siblings() {
        // Positional predicates see document positions: the skipped
        // <junk> subtrees and the unbuffered text do not renumber the
        // items, and `*[4]` counts the skipped elements too.
        let doc = "<l><junk><item>no</item></junk><item>a</item>t<junk/><item>b</item></l>";
        for opts in [EngineOptions::gcx(), EngineOptions::full_buffering()] {
            let q = CompiledQuery::compile("for $b in /l/item[2] return $b").unwrap();
            let mut out = Vec::new();
            run(&q, &opts, doc.as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<item>b</item>");
            let q = CompiledQuery::compile("for $b in /l/*[4] return $b").unwrap();
            let mut out = Vec::new();
            run(&q, &opts, doc.as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<item>b</item>");
        }
    }

    #[test]
    fn doctype_is_adopted_unless_a_schema_is_explicit() {
        let doc = "<!DOCTYPE a [<!ELEMENT a (b*, c)><!ELEMENT b (#PCDATA)>\
                   <!ELEMENT c (#PCDATA)>]><a><b>1</b><c>2</c></a>";
        let query = "for $b in /a/b return $b";
        let adopted = report(query, doc, &EngineOptions::gcx());
        assert!(adopted.schema.expect("DOCTYPE adopted").doctype_adopted);
        let mut opts = EngineOptions::gcx();
        opts.schema_from_doctype = false;
        assert!(report(query, doc, &opts).schema.is_none());
        // An explicit schema wins: the in-stream subset is ignored.
        let dtd = Arc::new(
            gcx_schema::Dtd::parse(
                "<!ELEMENT a (b*, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
            )
            .unwrap(),
        );
        let explicit = report(query, doc, &EngineOptions::gcx().with_schema(dtd));
        assert!(!explicit.schema.expect("explicit schema").doctype_adopted);
    }

    #[test]
    fn chunking_matches_single_shot_bit_for_bit() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        for chunk in [1, 2, 3, 7, 16, DOC.len()] {
            let (out, report) = chunked(QUERY, DOC, chunk);
            assert_eq!(out, want_out, "chunk size {chunk}");
            assert_eq!(report.tokens, want_report.tokens, "chunk size {chunk}");
            assert_eq!(
                report.buffer.peak_live, want_report.buffer.peak_live,
                "chunk size {chunk}"
            );
            assert_eq!(
                report.buffer.peak_live_bytes, want_report.buffer.peak_live_bytes,
                "chunk size {chunk}"
            );
            assert_eq!(report.buffer.live, 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn telemetry_reports_buffer_lifecycle_without_changing_results() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        let q = CompiledQuery::compile(QUERY).unwrap();
        let mut session = q.session(&EngineOptions::gcx().with_telemetry());
        for piece in DOC.as_bytes().chunks(7) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        // Telemetry must be pure observation: outputs and buffer peaks
        // stay bit-identical to the untraced run.
        assert_eq!(out, want_out);
        assert_eq!(
            report.buffer.peak_live_bytes,
            want_report.buffer.peak_live_bytes
        );
        assert_eq!(report.buffer.purged, want_report.buffer.purged);
        let obs = report.obs.as_ref().expect("telemetry enabled");
        assert_eq!(
            obs.residency_tokens.count(),
            report.buffer.purged,
            "one residency observation per purged node"
        );
        assert_eq!(obs.purged_node_bytes.count(), report.buffer.purged);
        assert!(obs.purged_node_bytes.sum() > 0);
        assert!(obs.purges_on_signoff + obs.purges_on_close + obs.purges_on_unpin > 0);
        assert!(!obs.roles.is_empty(), "role lifecycle recorded");
        assert!(obs.roles.iter().any(|r| r.signoffs > 0));
        assert!(!obs.tasks.is_empty(), "frame timing recorded");
        assert_eq!(obs.feed_spans.len() as u64, report.feed_calls);
        assert!(obs.tokenizer_window_peak > 0);
        assert!(!obs.live_bytes_timeline.is_empty());
        // Telemetry off: the report carries no obs section.
        assert!(want_report.obs.is_none());
    }

    #[test]
    fn output_streams_while_document_arrives() {
        let q = CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session
            .feed(b"<bib><book><title>early</title></book>")
            .unwrap();
        // The first result is available before the document ends.
        let mut streamed = Vec::new();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(streamed, b"<title>early</title>");
        session
            .feed(b"<book><title>late</title></book></bib>")
            .unwrap();
        session.finish().unwrap();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(
            streamed,
            b"<title>early</title><title>late</title>".as_slice()
        );
    }

    #[test]
    fn emitted_reports_completion() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        // A constant query completes as soon as the root closes.
        let emitted = session.feed(b"<doc/>").unwrap();
        assert!(emitted.done);
        assert_eq!(emitted.output_bytes, 1);
        let report = session.finish().unwrap();
        assert_eq!(report.output_bytes, 1);
    }

    #[test]
    fn spillover_is_observable() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b att").unwrap(); // suspended mid-tag
        assert_eq!(session.max_pending_bytes(), 6, "`<b att` spills");
        session.feed(b"r=\"1\"/></a>").unwrap();
        let report = session.finish().unwrap();
        assert_eq!(report.max_pending_bytes, 6);
        assert_eq!(report.feed_calls, 2);
    }

    #[test]
    fn malformed_input_fails_like_the_blocking_engine() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b></b>").unwrap();
        // Truncated document: the error surfaces at finish.
        let err = session.finish().unwrap_err();
        assert!(matches!(err, EngineError::Xml(_)), "{err}");
    }

    #[test]
    fn without_drain_ignores_input_after_completion() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx().without_drain());
        // A constant query completes without touching the input at all.
        let emitted = session.feed(b"<doc>").unwrap();
        assert!(emitted.done);
        assert!(!session.wants_input(), "drain off: input is now irrelevant");
        // Further chunks are dropped, not buffered: spillover stays zero
        // however much arrives.
        for _ in 0..64 {
            session.feed(&[b'z'; 1024]).unwrap();
        }
        assert_eq!(session.max_pending_bytes(), 0);
        let report = session.finish().unwrap();
        assert_eq!(report.output_bytes, 1);
    }

    #[test]
    fn run_without_drain_leaves_remaining_input_unread() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut doc = b"<doc/>".to_vec();
        doc.extend(std::iter::repeat_n(b' ', 1 << 20)); // a long tail
        let mut reader = std::io::Cursor::new(doc);
        let mut out = Vec::new();
        run(
            &q,
            &EngineOptions::gcx().without_drain(),
            &mut reader,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, b"x");
        assert!(
            (reader.position() as usize) < (1 << 20),
            "the tail must stay unread, like the pull engine ({} read)",
            reader.position()
        );
    }

    #[test]
    fn take_output_never_duplicates_bytes_across_a_failed_sink() {
        use std::io::Write;

        /// Accepts `budget` bytes, then fails every write.
        struct Flaky {
            got: Vec<u8>,
            budget: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::other("sink broke"));
                }
                let n = buf.len().min(self.budget);
                self.got.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let q = CompiledQuery::compile("for $t in /b/t return $t").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<b><t>hello world</t></b>").unwrap();
        session.finish().unwrap();
        let want = session.output().to_vec();
        assert!(!want.is_empty());

        let mut sink = Flaky {
            got: Vec::new(),
            budget: 5,
        };
        assert!(session.take_output(&mut sink).is_err());
        // Retry on a healthy sink: the already-delivered prefix must not
        // be re-sent.
        let mut rest = Vec::new();
        session.take_output(&mut rest).unwrap();
        let mut combined = sink.got;
        combined.extend_from_slice(&rest);
        assert_eq!(combined, want);
    }

    #[test]
    fn feed_after_finish_is_an_error() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<doc/>").unwrap();
        session.finish().unwrap();
        assert!(session.feed(b"more").is_err());
    }

    #[test]
    fn buffer_budget_trips_mid_feed() {
        let q = CompiledQuery::compile("for $x in /a/b return $x").unwrap();
        // Full buffering accumulates every node, so the budget must trip.
        let opts = EngineOptions::full_buffering().with_max_buffer_bytes(64);
        let mut session = q.session(&opts);
        let mut doc = String::from("<a>");
        for i in 0..64 {
            doc.push_str(&format!("<b>payload payload {i}</b>"));
        }
        doc.push_str("</a>");
        let mut failed = false;
        for piece in doc.as_bytes().chunks(16) {
            if session.feed(piece).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the byte budget must trip during feeding");
    }

    #[test]
    fn a_search_shows_the_matcher_only_items_and_their_ancestors() {
        // XMark holds its items under regions/<continent>. Under `//item`
        // the matcher must see the tags of the items and of the elements
        // that hold one — and, with the search and the copy pass inside
        // each item, nothing else, where stepping showed it every token of
        // the document.
        let size = if cfg!(miri) { 8 * 1024 } else { 1 << 20 };
        let doc = gcx_xmark::generate_string(&gcx_xmark::XmarkConfig::sized(size));
        let (mut all, mut needed) = (0u64, 0u64);
        // Per open element outside an item: whether it holds an item.
        let (mut open, mut in_item) = (Vec::new(), 0u32);
        let mut tok = gcx_xml::Tokenizer::from_str(&doc);
        while let Some(token) = tok.next_token().unwrap() {
            all += u64::from(token.is_structural());
            match token {
                Token::StartTag(tag) if in_item > 0 => {
                    assert_ne!(tag.name, "item", "XMark nests no items");
                    in_item += u32::from(!tag.self_closing);
                }
                Token::StartTag(tag) if tag.name == "item" => {
                    needed += 1;
                    in_item += u32::from(!tag.self_closing);
                    open.iter_mut().for_each(|holds| *holds = true);
                }
                Token::StartTag(tag) if !tag.self_closing => open.push(false),
                Token::EndTag { .. } if in_item > 0 => {
                    in_item -= 1;
                    needed += u64::from(in_item == 0);
                }
                Token::EndTag { .. } => needed += 2 * u64::from(open.pop().unwrap()),
                _ => {}
            }
        }
        let q = CompiledQuery::compile("for $i in //item return $i").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(doc.as_bytes()).unwrap();
        session.finish().unwrap();
        assert_eq!(session.pre.matcher_tokens, needed);
        assert!(needed < all / 2, "{needed} of {all} tokens");
    }

    #[test]
    fn buffer_budget_covers_role_less_open_elements() {
        // Under `//item` every open element is kept for what may lie below
        // it. None of these ever reaches the buffer, but a deep nest of
        // them is held all the same: the budget must stop it — though the
        // search passes them unseen. A pending element is charged its
        // 72-byte slot (not the attribute, which it does not keep), and the
        // run's table the one byte of `a`: 56 × 72 + 1 = 4033 fits, the
        // 57th open element crosses 4096.
        let q = CompiledQuery::compile("for $i in //item return $i").unwrap();
        let open = format!("<a x=\"{}\">", "v".repeat(1000));
        for opts in [EngineOptions::gcx(), EngineOptions::projection_only()] {
            let mut session = q.session(&opts.with_max_buffer_bytes(4096));
            let err = (1..=64)
                .find_map(|depth| session.feed(open.as_bytes()).err().map(|e| (depth, e)))
                .expect("64 open elements under a 4 KiB budget");
            assert_eq!(err.0, 57, "stopped at the element that crossed");
            assert!(err.1.is_buffer_limit(), "{}", err.1);
        }
    }
}
