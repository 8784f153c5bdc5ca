//! The stream preprojector (paper Figure 2, left component).
//!
//! The core is the sans-IO [`Projector`]: a push-driven state machine that
//! takes one token at a time ("a lookahead of just one token"), runs the
//! projection NFA, and copies matched tokens into the buffer with their
//! role instances. Irrelevant subtrees are skipped with a depth counter and
//! zero per-path work. Every structural token — kept or skipped — advances
//! the token counter and (optionally) samples the buffer-occupancy timeline
//! that the paper's Figures 3 and 4 plot. Tokens can come from anywhere:
//! `EvalSession` applies them as chunks arrive in its push tokenizer.
//!
//! The projector's buffer-writing half — the chain of open kept elements,
//! their document child counters and the append scratch — is the
//! crate-internal `BufferWriter`, shared with the batch
//! [`Lane`](crate::Lane), whose keep/skip decisions come from a merged
//! matcher outside.
//!
//! For the full-buffering baseline (`project = false`) the projector
//! buffers *every* element and non-whitespace text node; roles are still
//! assigned so the evaluator and the signOff machinery behave identically.

use crate::buffer::{AttrBuf, BufferTree, NodeId, Ordinals};
use gcx_projection::StreamMatcher;
use gcx_query::ast::RoleId;
use gcx_xml::{Symbol, SymbolTable, Token};

/// Buffer-occupancy timeline: `(token index, live buffered nodes)` samples.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Sampled points in token order.
    pub points: Vec<(u64, u64)>,
    /// Sampling stride (1 = every token).
    pub every: u64,
}

impl Timeline {
    fn record(&mut self, token: u64, live: u64) {
        if self.every > 0 && token.is_multiple_of(self.every) {
            self.points.push((token, live));
        }
    }

    /// Highest buffered-node count over the recorded samples.
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|&(_, live)| live).max().unwrap_or(0)
    }
}

/// Document child counters for ordinal stamping: every child — kept,
/// skipped or text — bumps these, so positional predicates evaluate
/// against true document positions. One instance per open kept element.
///
/// Same-name counts live in a small vector (elements have few distinct
/// child names; a hash map would pay hashing and allocation per child),
/// and instances are pooled by the [`BufferWriter`] so opening an element
/// allocates nothing in steady state.
#[derive(Debug, Default)]
struct ChildCounters {
    elem_children: u32,
    text_children: u32,
    any_children: u32,
    by_name: Vec<(Symbol, u32)>,
}

impl ChildCounters {
    /// Reset for reuse (pooling), keeping capacity.
    fn clear(&mut self) {
        self.elem_children = 0;
        self.text_children = 0;
        self.any_children = 0;
        self.by_name.clear();
    }

    /// Register an element child named `name`; returns its ordinals.
    fn next_elem(&mut self, name: Symbol) -> Ordinals {
        self.elem_children += 1;
        self.any_children += 1;
        let same = match self.by_name.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => {
                *c += 1;
                *c
            }
            None => {
                self.by_name.push((name, 1));
                1
            }
        };
        Ordinals {
            same_kind: same,
            elem: self.elem_children,
            any: self.any_children,
        }
    }

    /// Register a text child; returns its ordinals.
    fn next_text(&mut self) -> Ordinals {
        self.text_children += 1;
        self.any_children += 1;
        Ordinals {
            same_kind: self.text_children,
            elem: self.elem_children,
            any: self.any_children,
        }
    }
}

/// One open kept element.
#[derive(Debug)]
struct OpenEntry {
    node: NodeId,
    /// Whether the owner's matcher holds a frame for this element. False
    /// only in full-buffering mode for elements the matcher would have
    /// skipped.
    matched: bool,
    counters: ChildCounters,
}

/// The buffer-writing half of projection: the chain of open *kept*
/// elements (the top is the parent of incoming nodes), each with its
/// document child counters, plus the scratch that keeps appends
/// allocation-free. Whoever owns one decides keep/skip and roles — the
/// [`Projector`] with its own matcher, a batch [`Lane`](crate::Lane) from
/// the merged matcher's outcome — and the writer turns the decision into
/// buffer nodes with true document ordinals.
#[derive(Debug)]
pub(crate) struct BufferWriter {
    open: Vec<OpenEntry>,
    /// Attribute storage for the element being appended (the
    /// zero-allocation handshake with
    /// [`BufferTree::append_element_with_attrs`]).
    attr_scratch: AttrBuf,
    /// Recycled child counters for closed elements.
    counter_pool: Vec<ChildCounters>,
}

impl BufferWriter {
    pub(crate) fn new() -> BufferWriter {
        BufferWriter {
            open: vec![OpenEntry {
                node: NodeId::ROOT,
                matched: true,
                counters: ChildCounters::default(),
            }],
            attr_scratch: AttrBuf::new(),
            counter_pool: Vec::new(),
        }
    }

    /// The innermost open element and its `matched` flag.
    #[inline]
    pub(crate) fn top(&self) -> (NodeId, bool) {
        let top = self.open.last().expect("open stack never empty");
        (top.node, top.matched)
    }

    /// Register an element child of the innermost open element — kept or
    /// not — and return its ordinals. `name` is only compared, so any one
    /// symbol space works as long as the owner sticks to it.
    #[inline]
    pub(crate) fn next_elem(&mut self, name: Symbol) -> Ordinals {
        let top = self.open.last_mut().expect("open stack never empty");
        top.counters.next_elem(name)
    }

    /// Register a text child of the innermost open element.
    #[inline]
    pub(crate) fn next_text(&mut self) -> Ordinals {
        let top = self.open.last_mut().expect("open stack never empty");
        top.counters.next_text()
    }

    /// Append a kept element under the innermost open one; it becomes the
    /// new innermost open element until [`BufferWriter::close_element`]
    /// (called right away for a self-closing tag).
    #[inline]
    pub(crate) fn append_element<'a>(
        &mut self,
        buf: &mut BufferTree,
        name: Symbol,
        attrs: impl Iterator<Item = (Symbol, &'a str)>,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
        matched: bool,
    ) {
        self.attr_scratch.clear();
        for (attr_name, value) in attrs {
            self.attr_scratch.push(attr_name, value);
        }
        let (parent, _) = self.top();
        let node =
            buf.append_element_with_attrs(parent, name, &mut self.attr_scratch, roles, ordinals);
        let counters = self.counter_pool.pop().unwrap_or_default();
        self.open.push(OpenEntry {
            node,
            matched,
            counters,
        });
    }

    /// Close the innermost open element (its end tag arrived); returns
    /// the `matched` flag it was opened with.
    #[inline]
    pub(crate) fn close_element(&mut self, buf: &mut BufferTree) -> bool {
        let mut entry = self.open.pop().expect("unbalanced end tag past tokenizer");
        debug_assert!(entry.node != NodeId::ROOT, "root popped before EOF");
        buf.close(entry.node);
        entry.counters.clear();
        self.counter_pool.push(entry.counters);
        entry.matched
    }

    /// Append a kept text node under the innermost open element.
    #[inline]
    pub(crate) fn append_text(
        &mut self,
        buf: &mut BufferTree,
        content: &str,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) {
        let (parent, _) = self.top();
        buf.append_text(parent, content, roles, ordinals);
    }
}

/// The sans-IO projector: matcher + buffer writer over *pushed* tokens.
///
/// This is the resumable core of the preprojection stage: it owns no
/// input source and can be suspended between any two tokens. One call to
/// [`Projector::apply`] processes exactly one token (the `nextNode()`
/// granularity of the paper's architecture); [`Projector::finish`] closes
/// the virtual root at end of input so blocked cursors terminate.
pub struct Projector {
    matcher: StreamMatcher,
    writer: BufferWriter,
    /// Depth inside a skipped subtree (0 = not skipping). Only used when
    /// projection is enabled.
    skip_depth: u32,
    /// Structural tokens processed so far (start/end/text).
    tokens: u64,
    finished: bool,
    /// Projection on (GCX / projection-only) or off (full buffering).
    project: bool,
    timeline: Option<Timeline>,
    /// The matcher's role output, reused across tokens.
    role_scratch: Vec<(RoleId, u32)>,
    text_role_scratch: Vec<(RoleId, u32)>,
    /// Adopt sibling-order cutoffs from an in-stream DOCTYPE internal
    /// subset (only when no schema is installed yet; parse failures are
    /// ignored — an unusable DOCTYPE means "no schema", not an error).
    adopt_doctype: bool,
}

impl Projector {
    /// Create a projector; tokens are supplied by the caller.
    pub fn new(matcher: StreamMatcher, project: bool, timeline_every: Option<u64>) -> Projector {
        Projector {
            matcher,
            writer: BufferWriter::new(),
            skip_depth: 0,
            tokens: 0,
            finished: false,
            project,
            timeline: timeline_every.map(|every| Timeline {
                points: Vec::new(),
                every,
            }),
            role_scratch: Vec::new(),
            text_role_scratch: Vec::new(),
            adopt_doctype: false,
        }
    }

    /// Enable or disable DOCTYPE schema adoption (off by default; the
    /// session turns it on when no explicit schema is configured).
    pub fn set_doctype_adoption(&mut self, adopt: bool) {
        self.adopt_doctype = adopt;
    }

    /// Subtrees the matcher skipped on the DTD's descendant-reachability
    /// proof (0 without a schema-built matcher).
    pub fn reach_cuts(&self) -> u64 {
        self.matcher.reach_cuts()
    }

    /// Structural tokens processed so far.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// True once [`Projector::finish`] ran (virtual root closed).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Extract the recorded timeline (if enabled).
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take()
    }

    /// Declare the end of input: closes the virtual root so cursors
    /// waiting on "more children or closed" terminate. Idempotent.
    pub fn finish(&mut self, buf: &mut BufferTree) {
        if !self.finished {
            self.finished = true;
            buf.close(NodeId::ROOT);
        }
    }

    /// Apply one token to the buffer: the merged keep/skip decision, role
    /// assignment, ordinal stamping and token counting.
    pub fn apply(&mut self, token: &Token<'_>, buf: &mut BufferTree, symbols: &mut SymbolTable) {
        match token {
            Token::StartTag(start) => {
                let self_closing = start.self_closing;
                if self.skip_depth > 0 {
                    if !self_closing {
                        self.skip_depth += 1;
                    }
                } else {
                    let name = symbols.intern(start.name);
                    let ordinals = self.writer.next_elem(name);
                    let (top_node, top_matched) = self.writer.top();
                    // Sibling-order cutoffs advance on *every* child name,
                    // kept or projected away: a skipped later sibling is
                    // just as much proof that earlier particles are done.
                    buf.schema_note_child(top_node, name);
                    // Inside an unmatched region the matcher has no frame;
                    // children are unmatched too. Roles land in the reused
                    // scratch — no per-element vector.
                    let (keep, matched, has_roles) = if top_matched {
                        if self
                            .matcher
                            .enter_element_into(name, &mut self.role_scratch)
                        {
                            (true, true, true)
                        } else {
                            (!self.project, false, false)
                        }
                    } else {
                        (true, false, false)
                    };
                    if keep {
                        let roles = if has_roles {
                            self.role_scratch.as_slice()
                        } else {
                            &[]
                        };
                        self.writer.append_element(
                            buf,
                            name,
                            start
                                .attrs
                                .iter()
                                .map(|a| (symbols.intern(a.name), a.value)),
                            roles,
                            ordinals,
                            matched,
                        );
                        if self_closing && self.writer.close_element(buf) {
                            self.matcher.leave_element();
                        }
                    } else if !self_closing {
                        self.skip_depth = 1;
                    }
                }
                self.bump(buf);
                if self_closing {
                    // A self-closing tag stands for open+close: count both.
                    self.bump(buf);
                }
            }
            Token::EndTag { .. } => {
                if self.skip_depth > 0 {
                    self.skip_depth -= 1;
                } else if self.writer.close_element(buf) {
                    self.matcher.leave_element();
                }
                self.bump(buf);
            }
            Token::Text(content) => {
                if self.skip_depth == 0 {
                    if self.writer.top().1 {
                        self.matcher.text_into(&mut self.text_role_scratch);
                    } else {
                        self.text_role_scratch.clear();
                    }
                    let keep = !self.text_role_scratch.is_empty()
                        || (!self.project && !content.trim().is_empty());
                    let ordinals = self.writer.next_text();
                    if keep {
                        self.writer
                            .append_text(buf, content, &self.text_role_scratch, ordinals);
                    }
                }
                self.bump(buf);
            }
            Token::Doctype(payload) => {
                // Not part of the data model, but a usable internal subset
                // can seed the sibling-order analysis mid-stream (names
                // interned here land before any document element's — the
                // prolog precedes the root). Explicit schemas win; parse
                // failures mean "no schema".
                if self.adopt_doctype && !buf.schema_active() {
                    if let Ok(view) = gcx_xml::DoctypeView::parse(payload) {
                        if let Ok(dtd) = gcx_schema::Dtd::from_doctype_parts(view.name, view.subset)
                        {
                            buf.set_schema(dtd.ord_table(symbols), true);
                        }
                    }
                }
            }
            // Comments and PIs are not part of the data model.
            Token::Comment(_) | Token::ProcessingInstruction { .. } => {}
        }
    }

    fn bump(&mut self, buf: &mut BufferTree) {
        self.tokens += 1;
        // Advance the buffer's telemetry clock (one null check when
        // observability is off): residency histograms are measured in
        // these structural tokens.
        buf.tick(self.tokens);
        if let Some(t) = self.timeline.as_mut() {
            t.record(self.tokens, buf.stats().live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::{analyze, CompiledPaths};
    use gcx_query::compile;
    use gcx_xml::{PushTokenizer, TokenStep};

    /// Push every token of `xml` through a projector for `query`;
    /// return the projector.
    fn run_projector(
        query: &str,
        xml: &str,
        project: bool,
        buf: &mut BufferTree,
        symbols: &mut SymbolTable,
    ) -> Projector {
        let q = compile(query).unwrap();
        let a = analyze(&q);
        let compiled = CompiledPaths::compile(&a.roles, symbols);
        let (matcher, _root_roles) = StreamMatcher::new(&compiled);
        let mut proj = Projector::new(matcher, project, Some(1));
        let mut tok = PushTokenizer::new();
        tok.feed(xml.as_bytes());
        tok.finish_input();
        while tok.step().unwrap() == TokenStep::Token {
            proj.apply(&tok.token(), buf, symbols);
        }
        proj.finish(buf);
        proj
    }

    /// Run the projector to completion; return (buffer, symbols, tokens).
    /// Purging is enabled exactly when projecting, mirroring the engine's
    /// presets (full buffering disables the garbage collector).
    fn project_all(query: &str, xml: &str, project: bool) -> (BufferTree, SymbolTable, u64) {
        let mut symbols = SymbolTable::new();
        let mut buf = BufferTree::new(project);
        let proj = run_projector(query, xml, project, &mut buf, &mut symbols);
        let tokens = proj.tokens();
        (buf, symbols, tokens)
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
        // roles (figure 1a), so all are buffered.
        let (buf, _, tokens) = project_all(
            PAPER_QUERY,
            "<bib><book><title/><author/></book></bib>",
            true,
        );
        // bib + book + title + author are buffered; with no signOffs
        // executed they all remain.
        assert_eq!(buf.stats().allocated, 4);
        assert_eq!(tokens, 8);
        buf.check_integrity();
    }

    #[test]
    fn skips_irrelevant_subtrees() {
        let (buf, _, tokens) = project_all(
            "for $a in /x/y return $a",
            "<x><junk><deep><deeper/></deep></junk><y>keep</y></x>",
            true,
        );
        // junk subtree skipped entirely; x, y, "keep" buffered.
        assert_eq!(buf.stats().allocated, 3);
        assert_eq!(tokens, 11);
        buf.check_integrity();
    }

    #[test]
    fn speculative_prefixes_purged_on_close() {
        // /x/y: an x with no y-children is buffered speculatively (it
        // matched the path prefix) and reclaimed as soon as it closes
        // with a role-free subtree.
        let (buf, _, _) = project_all("for $a in /x/y return 'found'", "<x><z/></x>", true);
        assert_eq!(
            buf.stats().allocated,
            1,
            "only the speculative x was buffered"
        );
        assert_eq!(buf.stats().live, 0, "purged at its end tag");
        buf.check_integrity();
    }

    #[test]
    fn document_element_not_on_any_path_skips_whole_input() {
        let (buf, _, tokens) = project_all(
            "for $a in /x/y return 'found'",
            "<root><x><y/></x></root>",
            true,
        );
        // `/x` requires the document element to be named x; <root> fails
        // the very first transition, so nothing at all is buffered.
        assert_eq!(buf.stats().allocated, 0);
        // <root>, <x>, <y/> (counts twice), </x>, </root>
        assert_eq!(tokens, 6);
        buf.check_integrity();
    }

    #[test]
    fn full_buffering_keeps_everything() {
        let (buf, _, _) = project_all(
            "for $a in /x/y return $a",
            "<x><junk><deep/></junk><y>keep</y></x>",
            false,
        );
        // x, junk, deep, y, text all buffered.
        assert_eq!(buf.stats().allocated, 5);
        assert_eq!(buf.stats().live, 5);
        buf.check_integrity();
    }

    #[test]
    fn whitespace_between_elements_not_buffered() {
        let (buf, _, _) = project_all(
            "for $a in /x/y return 'z'",
            "<x>\n  <y/>\n  <y/>\n</x>",
            true,
        );
        // Only x and the two y elements; whitespace runs carry no roles.
        assert_eq!(buf.stats().allocated, 3);
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
        let (_, _, tokens) = project_all(PAPER_QUERY, &doc, true);
        assert_eq!(tokens, 82);
    }

    #[test]
    fn timeline_records_buffer_growth_and_purge() {
        let mut symbols = SymbolTable::new();
        let mut buf = BufferTree::new(true);
        let mut proj = run_projector(
            "for $a in /x/y return 'z'",
            "<x><w/><w/><y/></x>",
            true,
            &mut buf,
            &mut symbols,
        );
        let tl = proj.take_timeline().unwrap();
        assert_eq!(tl.points.len(), 8);
        assert!(tl.peak() >= 2);
        // Growth then eventual stability: last sample has x + y buffered
        // (no signOffs executed here).
        assert_eq!(tl.points.last().unwrap().1, 2);
    }

    #[test]
    fn self_closing_counts_as_two_tokens() {
        let (_, _, tokens) = project_all("for $a in /x return $a", "<x/>", true);
        assert_eq!(tokens, 2);
    }
}
