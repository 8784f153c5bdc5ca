//! The evaluation core: everything downstream of the keep/skip decision.
//! See [`Lane`].

use crate::buffer::{AttrBuf, BufferStats, BufferTree, NodeId, Ordinals};
use crate::engine::{
    CompiledQuery, EngineMode, EngineOptions, RunReport, SchemaPlan, SchemaReport,
};
use crate::error::EngineError;
use crate::eval::{Frontier, Vm, VmStatus};
use crate::obs::{FeedSpan, DEFAULT_TIMELINE_EVERY};
use gcx_query::ast::RoleId;
use gcx_xml::grow::Sink;
use gcx_xml::{Attrs, StartTag, Symbol, SymbolTable, Token, WriterOptions, XmlWriter};
use std::sync::Arc;

/// What the driver's scan contributes to a lane's [`RunReport`].
#[derive(Debug, Clone, Default)]
pub struct ScanFacts {
    /// Structural tokens of the stream: every lane's clock.
    pub tokens: u64,
    /// `feed` calls the input arrived in.
    pub feed_calls: u64,
    /// Largest partial-token spillover the tokenizer held.
    pub max_pending_bytes: u64,
    /// High-water of the tokenizer's carry (telemetry only).
    pub window_peak: u64,
    /// One span per `feed` call (telemetry only, else empty).
    pub feed_spans: Vec<FeedSpan>,
}

/// Document child counters for ordinal stamping: every child — kept,
/// skipped or text — bumps these, so positional predicates evaluate
/// against true document positions. One instance per open kept element.
///
/// Same-name counts live in [`Lane::child_names`], one vector for all
/// open elements (elements have few distinct child names; a hash map
/// would pay hashing and allocation per child): an element's counts start
/// at `names_from` and run to the end — only the innermost open element
/// counts children, and an element that closes takes its counts with it.
#[derive(Debug, Clone, Copy)]
struct ChildCounters {
    elem_children: u32,
    text_children: u32,
    any_children: u32,
    names_from: u32,
}

impl ChildCounters {
    /// The counters of an element that opens now, `names` being the
    /// same-name counts of the elements open around it.
    fn opening(names: &[(Symbol, u32)]) -> ChildCounters {
        ChildCounters {
            elem_children: 0,
            text_children: 0,
            any_children: 0,
            names_from: names.len() as u32,
        }
    }

    /// Register an element child named `name`; returns its ordinals.
    fn next_elem(&mut self, names: &mut Vec<(Symbol, u32)>, name: Symbol) -> Ordinals {
        self.elem_children += 1;
        self.any_children += 1;
        let mine = &mut names[self.names_from as usize..];
        let same = match mine.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => {
                *c += 1;
                *c
            }
            None => {
                names.push((name, 1));
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

/// One open buffered element.
#[derive(Debug)]
struct OpenEntry {
    node: NodeId,
    counters: ChildCounters,
}

/// One open element the matcher keeps without a role, waiting outside
/// the buffer for a descendant to earn one (see [`Lane`]).
#[derive(Debug)]
struct PendingEntry {
    name: Symbol,
    /// Taken from the parent's counters at the start tag.
    ordinals: Ordinals,
    /// Sibling-order cutoff its children have raised so far (0 = none).
    cutoff: u32,
    counters: ChildCounters,
}

/// A driver's decision about one start tag.
#[derive(Debug, Clone, Copy)]
pub enum Keep<'a> {
    /// The projection refuses the element: the lane only counts the
    /// child, and the driver hides the subtree and its end tag.
    Skip,
    /// The projection keeps the element for what may lie below it, with
    /// no role of its own: it opens on the pending chain and reaches the
    /// buffer only if a descendant earns a role — without its attributes,
    /// which nothing can read from a role-less node.
    Speculative,
    /// Buffer the element now, with these role instances (sorted by role
    /// id). The list may be empty: full buffering keeps what no role asks
    /// for.
    Roles(&'a [(RoleId, u32)]),
}

impl<'a> Keep<'a> {
    /// Under a copy frontier: a node whose only role instance is the
    /// copy's own has been written and is needed no further — an element
    /// waits on the pending chain like a speculative one, in case a
    /// descendant earns another role.
    #[inline]
    fn under(self, frontier: Frontier) -> Keep<'a> {
        match self {
            Keep::Roles(roles) if only(roles, frontier) => Keep::Speculative,
            keep => keep,
        }
    }

    /// The decision of a *projecting* driver from its matcher's verdict:
    /// `matched` is the matcher's keep flag, `roles` the role instances it
    /// assigned.
    #[inline]
    pub fn projected(matched: bool, roles: &'a [(RoleId, u32)]) -> Keep<'a> {
        match (matched, roles.is_empty()) {
            (false, _) => Keep::Skip,
            (true, true) => Keep::Speculative,
            (true, false) => Keep::Roles(roles),
        }
    }
}

/// Whether the lane still evaluates.
#[derive(Debug)]
enum Health {
    Live,
    /// The error that stopped it, until [`Lane::take_failure`] or
    /// [`Lane::finish`] hands it out.
    Failed(EngineError),
    /// Finished, or failed and reported.
    Over,
}

/// The evaluation core of one query over one document: buffer, evaluator,
/// symbol table and output, with the I/O *and* the projection decision
/// outside.
///
/// A driver tokenizes the stream, decides per token whether this query's
/// projection keeps it and with which roles, and tells the lane:
/// [`start_element`](Lane::start_element) /
/// [`end_element`](Lane::end_element) / [`text`](Lane::text) write the
/// node into the buffer with its true document ordinals — a role-less
/// speculative ancestor only once a descendant needs it there (below) —
/// [`tick`](Lane::tick) samples it at the stream position, and [`step`](Lane::step)
/// enforces the byte budget and resumes the evaluator the moment what it
/// waits for may have arrived. The [`Driver`](crate::driver::Driver)
/// feeds one lane for an [`EvalSession`](crate::EvalSession), and N of
/// them in lock-step off one shared scan and one merged matcher for a
/// [`BatchSession`](crate::batch::BatchSession).
/// The lane cannot tell which: buffer contents, purge order and peaks
/// depend only on the events it is shown.
///
/// A lane that fails (buffer budget, evaluator error) turns inert: it
/// ignores further events and reports the error from
/// [`Lane::take_failure`] or [`Lane::finish`].
///
/// ## The buffer invariant, and the pending chain that keeps it
///
/// A node enters the [`BufferTree`] only if, *at that moment*, it carries
/// a role or stands above a node that does (full buffering, which the
/// driver expresses as "keep, with no roles", aside). The projection
/// matcher keeps more than that: under a `//` step every open element is
/// a *speculative ancestor* — it has no role, but a descendant may earn
/// one. Such an element ([`Keep::Speculative`]) is not appended. It waits
/// on the lane's **pending chain**: name, the document ordinals taken at
/// its start tag, the sibling-order cutoff its children have raised so
/// far, and its live child counters, so positional predicates below it
/// still see document positions. Not its attributes: no role means no
/// step can read them, and leaving them out keeps a lane's buffer the
/// same however its chain arrived. The chain is always the innermost part
/// of the open-element path. When a descendant element or text arrives
/// with roles, the whole chain is appended top-down — the nodes, names
/// and ordinals an eager append would have produced, only later and
/// without attributes — and the descendant goes under it. A pending
/// element whose end tag arrives first is popped: the buffer and the
/// evaluator never hear of it.
///
/// A driver may pass the inside of a pending element unseen when its
/// projection only waits for a few names below it (a descendant search),
/// and open the elements it finds on the way there late, as
/// [`Keep::Speculative`]. Their ordinals are then counted among
/// the siblings the lane was shown. Nothing can tell: a step that could
/// select them by position would have stopped the search.
///
/// ## Write-through, and the chain under a copy
///
/// When the evaluator emits an element that is still open, it writes what
/// has arrived of it and hands the lane a *copy frontier* (the element and
/// the role its copy's descendants carry), then only waits for the end
/// tag. From then on the lane writes every node of the element's subtree
/// as it arrives — start tag with attributes, text, end tag — and buffers
/// a node only if it carries a role besides the copy's single instance: a
/// node holding nothing else is written and not appended, an element of
/// that kind going on the pending chain as a speculative one does. So a
/// descendant that earns another role (a nested `//item`, `$a/bidder[1]`
/// beside `$a`) is still appended under its role-less ancestors, and
/// every node is written once. The element's own end tag ends the copy.
/// A driver may also pass a stretch of the subtree through
/// [`Lane::write_through`] without deciding anything (a copy pass), and
/// open the elements it leaves open with [`Lane::open_copied`].
///
/// A copy that must wait — reached after its element's end tag, or one
/// that runs again — has a storage twin of this in the buffer: a leaf it
/// alone reads is kept in one slot, not two. At [`Lane::start`] the lane
/// hands the buffer its program's copy roles (an output path's
/// `descendant-or-self::node()` retention) where signOffs run and no
/// positional step reads ordinals, and an element that closes with one
/// text child, the two carrying one instance of such a role and nothing
/// else, takes the text in ([`BufferTree::fold_copies`]).
///
/// The chain is O(document depth), like the tokenizer's open-tag stack,
/// and lives outside the buffer's *reporting*: it shows in a run's heap
/// high-water, not in `peak_live_bytes`. It is inside the byte *budget*:
/// a pending element is charged what it would take as a buffered node
/// without attributes (its slot, and its ordinals where the program has a
/// positional step), so `max_buffer_bytes` bounds buffer plus chain, and
/// [`Lane::pending_room`] tells a driver how many more fit.
pub struct Lane {
    mode: EngineMode,
    telemetry: bool,
    vm: Vm,
    buf: BufferTree,
    /// The run's symbol table, seeded from the compiled query's
    /// pre-interned one — whose names came to `seeded_name_bytes`; what
    /// the table holds beyond that, the document put there.
    symbols: SymbolTable,
    seeded_name_bytes: usize,
    /// Names the table held when the budget last accounted for them.
    names_seen: usize,
    /// Output not yet drained, growing by the store rule.
    out: XmlWriter<Sink>,
    /// The chain of open *buffered* elements, each with its document
    /// child counters.
    open: Vec<OpenEntry>,
    /// The open elements below `open`'s top that are not in the buffer
    /// (yet): the pending chain. The parent of incoming nodes is its top,
    /// or `open`'s when it is empty.
    pending: Vec<PendingEntry>,
    /// Attribute storage for the element being appended, which
    /// [`BufferTree::append_element_with_attrs`] copies into the buffer's
    /// payload store and clears, capacity kept.
    attr_scratch: AttrBuf,
    /// The open elements' same-name child counts, outermost element
    /// first (see [`ChildCounters`]).
    child_names: Vec<(Symbol, u32)>,
    /// The copy the evaluator waits at the frontier of (see above).
    frontier: Option<Frontier>,
    /// `(pruned, total)` projection-path counts of the schema plan the lane
    /// started with.
    pruned_paths: Option<(u32, u32)>,
    /// An event changed the buffer or a schema cutoff since the last
    /// [`Lane::step`] (or no step has run yet).
    touched: bool,
    vm_done: bool,
    health: Health,
}

impl Lane {
    /// Open a lane for `q` under `opts`; the first [`Lane::step`] runs
    /// its program up to the first suspension. `opts.mode` selects the
    /// buffer policy (whether signOffs execute, whether the buffer
    /// purges); what is *shown* to the lane is the driver's business,
    /// which reads [`Lane::projects`] off it. The occupancy timeline is on
    /// at `timeline_every`, or at [`DEFAULT_TIMELINE_EVERY`] with
    /// telemetry alone. `opts.schema` is not read: with a schema plan (of
    /// `q`: [`CompiledQuery::schema_plan`]) the buffer gets the DTD's
    /// sibling-order cutoffs and the table the DTD's names.
    pub fn start(q: &CompiledQuery, opts: &EngineOptions, schema: Option<&SchemaPlan>) -> Lane {
        let mode = opts.mode;
        let mut buf = BufferTree::new(mode.projects()).with_ordinals(q.program.positional());
        buf.set_max_bytes(opts.max_buffer_bytes);
        let mut vm = Vm::new(Arc::clone(&q.program), mode.executes_signoffs());
        if opts.telemetry {
            buf.enable_telemetry();
            vm.enable_timing();
        }
        let default_every = opts.telemetry.then_some(DEFAULT_TIMELINE_EVERY);
        if let Some(every) = opts.timeline_every.or(default_every) {
            buf.enable_timeline(every);
        }
        if let Some(plan) = schema {
            buf.set_schema(Arc::clone(&plan.ord), false);
        }
        // A leaf only a copy reads folds its text in where signOffs run,
        // unless a positional step reads its ordinals.
        if mode.executes_signoffs() && !q.program.positional() {
            let copies = q.analysis.roles.iter().filter(|r| r.retains_copy());
            buf.fold_copies(copies.fold(0, |bits, r| bits | 1u64.checked_shl(r.id.0).unwrap_or(0)));
        }
        // The once-at-startup symbol handshake: cloning the pre-interned
        // table — the program's, or the plan's with the DTD's names on
        // top — maps every query symbol into the run's table.
        let symbols = schema.map_or(q.program.symbols(), |plan| &plan.symbols);
        Lane {
            mode,
            telemetry: opts.telemetry,
            vm,
            buf,
            seeded_name_bytes: symbols.name_bytes(),
            names_seen: symbols.len(),
            symbols: symbols.clone(),
            out: XmlWriter::with_options(
                Sink::default(),
                WriterOptions {
                    indent: opts.indent.clone(),
                },
            ),
            open: vec![OpenEntry {
                node: NodeId::ROOT,
                counters: ChildCounters::opening(&[]),
            }],
            pending: Vec::new(),
            attr_scratch: AttrBuf::new(),
            child_names: Vec::new(),
            frontier: None,
            pruned_paths: schema.map(|plan| plan.pruned_paths),
            // The program has not started: the first step must run it.
            touched: true,
            vm_done: false,
            health: Health::Live,
        }
    }

    /// The run's symbol table: drivers intern the names they hand over
    /// here.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// The run's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Whether the lane still takes events: false once it failed.
    pub fn live(&self) -> bool {
        matches!(self.health, Health::Live)
    }

    /// Whether the lane's buffer strategy projects
    /// ([`EngineMode::projects`]): a driver shows it only what its query
    /// keeps, or every element and non-blank text.
    pub fn projects(&self) -> bool {
        self.mode.projects()
    }

    /// Whether the lane records telemetry ([`EngineOptions::telemetry`]).
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// The DTD of the stream's DOCTYPE: unless the lane started with a
    /// schema plan (a configured DTD, see [`Lane::start`]), adopt its
    /// sibling-order cutoffs, their names in the lane's own table.
    pub fn doctype(&mut self, dtd: &gcx_schema::Dtd) {
        if self.pruned_paths.is_none() {
            let ord = dtd.ord_table(&mut self.symbols);
            self.buf.set_schema(Arc::new(ord), true);
        }
    }

    /// A start tag — borrowed from the fed chunk — that is a child
    /// of the innermost open element; `name` is the tag name and
    /// `attr_names` the attribute names (parallel to `tag.attrs`) in the
    /// lane's symbol table ([`Lane::symbols_mut`]). `keep` is the driver's
    /// decision. Whatever it is, the child is counted; on [`Keep::Skip`]
    /// that is all, and the driver hides the subtree and its end tag.
    /// `attr_names` is only read on [`Keep::Roles`]. (Inlined into every
    /// caller, like [`Lane::step`]: a driver calls both per token.) Under a copy
    /// frontier the tag of a child not refused is written, and a node
    /// holding only the copy's role is kept pending, not appended.
    #[inline(always)]
    pub fn start_element(
        &mut self,
        name: Symbol,
        tag: &StartTag<'_>,
        attr_names: &[Symbol],
        keep: Keep<'_>,
    ) {
        let keep = match self.frontier {
            // A refused child is hidden from the lane, its end tag too:
            // nothing of it is written.
            Some(frontier) if !matches!(keep, Keep::Skip) => self.start_copied(tag, keep, frontier),
            _ => keep,
        };
        self.open_child(name, tag, attr_names, keep);
    }

    /// Write the start tag of an element inside the copy at `frontier`,
    /// and what to do with the element then. (Out of the token path, which
    /// only tests for a frontier.)
    #[inline(never)]
    fn start_copied<'k>(
        &mut self,
        tag: &StartTag<'_>,
        keep: Keep<'k>,
        frontier: Frontier,
    ) -> Keep<'k> {
        if self.live() {
            self.write_through(&Token::StartTag(*tag));
        }
        keep.under(frontier)
    }

    /// An element a driver passed through [`Lane::write_through`] and left
    /// open: it opens on the pending chain, as [`Lane::start_element`]
    /// opens one holding only the copy's role, and is not written again.
    pub fn open_copied(&mut self, name: Symbol) {
        let tag = StartTag {
            name: "",
            attrs: Attrs::EMPTY,
            self_closing: false,
        };
        self.open_child(name, &tag, &[], Keep::Speculative);
    }

    /// [`Lane::start_element`] past the copy frontier.
    #[inline(always)]
    fn open_child(
        &mut self,
        name: Symbol,
        tag: &StartTag<'_>,
        attr_names: &[Symbol],
        keep: Keep<'_>,
    ) {
        if !matches!(self.health, Health::Live) {
            return;
        }
        // The driver interned this tag's names on its way here, whatever
        // it decided: names the table lacked are document data the lane
        // now holds.
        if self.symbols.len() != self.names_seen {
            self.names_seen = self.symbols.len();
            let within = self.check_budget();
            self.settle(within);
            if !matches!(self.health, Health::Live) {
                return;
            }
        }
        // Every child bumps the ordinals — and, with a schema, the
        // sibling-order cutoffs — kept or not: positional predicates see
        // true document positions, and a skipped later sibling is just as
        // much proof that earlier particles are done (the cutoff alone
        // can be what the machine waits for — once the parent is in the
        // buffer; a pending parent keeps its cutoff for then).
        if self.buf.schema_active() {
            match self.pending.last_mut() {
                Some(top) => {
                    let cutoff = self.buf.schema_cutoff_after(top.name, name);
                    top.cutoff = top.cutoff.max(cutoff);
                }
                None => {
                    let parent = self.open.last().expect("open stack never empty").node;
                    self.buf.schema_note_child(parent, name);
                    self.touched = true;
                }
            }
        }
        let ordinals =
            top_counters(&mut self.pending, &mut self.open).next_elem(&mut self.child_names, name);
        match keep {
            // Refused: counted, and that is all.
            Keep::Skip => {}
            // Open and closed at once, nothing below it: never needed.
            Keep::Speculative if tag.self_closing => {}
            Keep::Speculative => {
                self.pending.push(PendingEntry {
                    name,
                    ordinals,
                    cutoff: 0,
                    counters: ChildCounters::opening(&self.child_names),
                });
                // Nothing for the machine to see, but the chain grew, and
                // it counts against the byte budget like the buffer does.
                let within = self.check_budget();
                self.settle(within);
            }
            Keep::Roles(roles) => {
                self.materialise_pending();
                for (a, &attr_name) in tag.attrs.iter().zip(attr_names) {
                    self.attr_scratch.push(attr_name, a.value);
                }
                let counters = ChildCounters::opening(&self.child_names);
                self.open_element(name, ordinals, roles, counters);
                if tag.self_closing {
                    self.close_top();
                }
                self.touched = true;
            }
        }
    }

    /// The end tag of the innermost open element the lane took.
    #[inline]
    pub fn end_element(&mut self) {
        if !matches!(self.health, Health::Live) {
            return;
        }
        if let Some(frontier) = self.frontier {
            self.end_copied(frontier);
        }
        match self.pending.pop() {
            // No descendant earned a role: the element never existed as
            // far as the buffer and the machine are concerned.
            Some(entry) => {
                self.child_names
                    .truncate(entry.counters.names_from as usize);
            }
            None => {
                self.close_top();
                self.touched = true;
            }
        }
    }

    /// Write the end tag of an element inside the copy at `frontier` — the
    /// copied element's own ends the copy. (Out of the token path, which
    /// only tests for a frontier.)
    #[inline(never)]
    fn end_copied(&mut self, frontier: Frontier) {
        self.write_through(&Token::EndTag { name: "" });
        if self.pending.is_empty() && self.open.last().is_some_and(|e| e.node == frontier.node) {
            self.frontier = None;
        }
    }

    /// A text child of the innermost open element: `Some(roles)` = buffer
    /// it with these role instances, `None` = only count it. Under a copy
    /// frontier it is written, and appended only if it holds more than the
    /// copy's role.
    #[inline]
    pub fn text(&mut self, content: &str, roles: Option<&[(RoleId, u32)]>) {
        if !matches!(self.health, Health::Live) {
            return;
        }
        let ordinals = top_counters(&mut self.pending, &mut self.open).next_text();
        let Some(roles) = roles else {
            return;
        };
        if let Some(frontier) = self.frontier {
            if self.text_copied(content, roles, frontier) {
                return;
            }
        }
        self.materialise_pending();
        let parent = self.open.last().expect("open stack never empty").node;
        self.buf.append_text(parent, content, roles, ordinals);
        self.touched = true;
    }

    /// Write a text inside the copy at `frontier`; returns whether that
    /// was all it needed (it holds the copy's role alone). (Out of the
    /// token path, which only tests for a frontier.)
    #[inline(never)]
    fn text_copied(&mut self, content: &str, roles: &[(RoleId, u32)], frontier: Frontier) -> bool {
        self.write_through(&Token::Text(content));
        only(roles, frontier)
    }

    /// The stream is at structural token `at` (a self-closing tag counts
    /// two): the one occupancy sampler. The timeline
    /// ([`RunReport::timeline`]) is sampled at every grid point up to `at`
    /// with what the lane buffers now, and residency telemetry is measured
    /// on this clock. The driver ticks a lane after each token it shows it
    /// and after each bulk pass; a lane that sat out a subtree is ticked
    /// when the subtree ends, before it is shown anything else, so its
    /// samples land where a run that stepped through it puts them.
    #[inline]
    pub fn tick(&mut self, at: u64) {
        self.buf.tick(at);
    }

    /// The current token is complete: if it changed anything, enforce the
    /// byte budget, then let the machine run if what it waits for may
    /// have arrived (resuming while the recorded wait is unsatisfied
    /// would be a provable no-op; see `Vm::wait_satisfied`).
    #[inline(always)]
    pub fn step(&mut self) {
        if !std::mem::take(&mut self.touched) {
            return;
        }
        let result = self.check_budget().and_then(|()| {
            if !self.vm_done && self.vm.wait_satisfied(&self.buf) {
                self.resume()
            } else {
                Ok(())
            }
        });
        self.settle(result);
    }

    /// The role of the copy whose frontier the evaluator waits at, if it
    /// does: a driver that knows every node of a stretch would hold that
    /// role alone may pass the stretch through [`Lane::write_through`].
    #[inline]
    pub fn copying(&self) -> Option<RoleId> {
        self.frontier.map(|f| f.role)
    }

    /// Write a token of the copied subtree — a start tag with its
    /// attributes (a self-closing one closed at once), an end tag or text;
    /// anything else is dropped, as the buffer drops it — without counting,
    /// matching or buffering it: what the lane does with a node holding
    /// only the copy's role, bar the pending chain's bookkeeping. A driver
    /// that passes elements this way and stops inside them opens them
    /// with [`Lane::open_copied`]; it shows the lane the copied element's
    /// own end tag.
    pub fn write_through(&mut self, token: &Token<'_>) {
        debug_assert!(self.frontier.is_some(), "write-through needs a frontier");
        let out = &mut self.out;
        let written = match *token {
            Token::StartTag(tag) => (|| {
                out.start_element(tag.name)?;
                for a in tag.attrs.iter() {
                    out.attribute(a.name, a.value)?;
                }
                if tag.self_closing {
                    out.end_element()?;
                }
                Ok(())
            })(),
            Token::EndTag { .. } => out.end_element(),
            Token::Text(content) => out.text(content),
            _ => Ok(()),
        };
        self.settle(written.map_err(EngineError::from));
    }

    /// The program ran to completion: no further output will be produced.
    pub fn done(&self) -> bool {
        self.vm_done
    }

    /// The buffer's statistics right now (a failed lane's are zero).
    pub fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }

    /// The output produced and not yet drained.
    pub fn output(&self) -> &[u8] {
        &self.out.get_ref().0
    }

    /// The pending output, for the driver to drain.
    pub fn output_mut(&mut self) -> &mut Vec<u8> {
        &mut self.out.get_mut().0
    }

    /// The error that stopped the lane, handed out once; the lane stays
    /// inert.
    pub fn take_failure(&mut self) -> Option<EngineError> {
        if !matches!(self.health, Health::Failed(_)) {
            return None;
        }
        match std::mem::replace(&mut self.health, Health::Over) {
            Health::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// End of input — the lane's last event: close the virtual root, run
    /// the program to completion and assemble the run's report from the
    /// lane's own measurements plus the driver's `scan` and the
    /// descendant-state propagations its reach filter suppressed. Returns
    /// the error instead if the lane failed, now or earlier. The output
    /// stays drainable.
    pub fn finish(&mut self, scan: &ScanFacts, reach_cuts: u64) -> Result<RunReport, EngineError> {
        if matches!(self.health, Health::Live) {
            self.buf.close(NodeId::ROOT);
            let mut result = self.check_budget();
            if result.is_ok() && !self.vm_done {
                // With the virtual root closed the machine cannot suspend
                // again: it completes or fails.
                result = self.resume();
            }
            let result = result.and_then(|()| Ok(self.out.flush()?));
            self.settle(result);
        }
        match std::mem::replace(&mut self.health, Health::Over) {
            Health::Live => {}
            Health::Failed(e) => return Err(e),
            Health::Over => return Err(EngineError::Internal("Lane::finish after the end".into())),
        }
        let obs = self.buf.take_telemetry().map(|tel| {
            tel.into_report(
                self.vm.take_task_obs(),
                scan.feed_spans.clone(),
                scan.window_peak,
            )
        });
        // A schema is in force: the lane's plan, or an adopted DOCTYPE.
        let (early_scan_ends, early_signoffs, doctype_adopted) = self.buf.schema_counters();
        let (pruned_paths, total_paths) = self.pruned_paths.unwrap_or((0, 0));
        let schema =
            (self.pruned_paths.is_some() || self.buf.schema_active()).then_some(SchemaReport {
                pruned_paths,
                total_paths,
                reach_cuts,
                early_scan_ends,
                early_signoffs,
                doctype_adopted,
            });
        Ok(RunReport {
            tokens: scan.tokens,
            buffer: self.buf.stats(),
            timeline: self.buf.take_timeline(),
            output_bytes: self.out.bytes_written(),
            max_buffer_bytes: self.buf.max_bytes(),
            feed_calls: scan.feed_calls,
            max_pending_bytes: scan.max_pending_bytes,
            obs,
            schema,
        })
    }

    /// How many more pending elements the byte budget has room for
    /// (`usize::MAX` without one): a driver that opens elements it passed
    /// unseen bounds how many it passes by this.
    pub fn pending_room(&self) -> usize {
        match self.buf.max_bytes() {
            Some(limit) => {
                let room = limit.saturating_sub(self.buf.stats().live_bytes + self.held_bytes());
                usize::try_from(room / self.buf.bare_element_bytes()).unwrap_or(usize::MAX)
            }
            None => usize::MAX,
        }
    }

    /// What the lane holds of the document outside the buffer: per pending
    /// element what it would be charged appended without attributes, and
    /// the names the document added to the symbol table.
    #[inline]
    fn held_bytes(&self) -> u64 {
        let names = self.symbols.name_bytes() - self.seeded_name_bytes;
        self.pending.len() as u64 * self.buf.bare_element_bytes() + names as u64
    }

    /// The byte budget covers everything the lane holds of the document:
    /// the buffer's live nodes, the pending chain — each pending element
    /// at what it would take as a buffered node — and the names the
    /// document added to the symbol table. (A chain of open elements
    /// under a `//` step is as deep as the document, and every start tag
    /// the driver steps over is interned, kept or refused; left uncharged
    /// either would be a way to hold all of it.)
    #[inline]
    fn check_budget(&self) -> Result<(), EngineError> {
        self.buf.check_limit(self.held_bytes())
    }

    /// A descendant of the pending chain earned a role: append the chain,
    /// outermost element first, with the names and ordinals an append at
    /// each start tag would have recorded.
    #[inline]
    fn materialise_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        for entry in pending.drain(..) {
            let node = self.open_element(entry.name, entry.ordinals, &[], entry.counters);
            self.buf.schema_raise_cutoff(node, entry.cutoff);
        }
        self.pending = pending;
    }

    /// Append an element — its attributes are in `attr_scratch` (empty
    /// for a pending one), which comes back empty — under the innermost
    /// buffered element and open it. The one place elements enter the
    /// buffer.
    #[inline]
    fn open_element(
        &mut self,
        name: Symbol,
        ordinals: Ordinals,
        roles: &[(RoleId, u32)],
        counters: ChildCounters,
    ) -> NodeId {
        let parent = self.open.last().expect("open stack never empty").node;
        let node = self.buf.append_element_with_attrs(
            parent,
            name,
            &mut self.attr_scratch,
            roles,
            ordinals,
        );
        self.open.push(OpenEntry { node, counters });
        node
    }

    /// Close the innermost buffered element (its end tag arrived).
    #[inline]
    fn close_top(&mut self) {
        let entry = self.open.pop().expect("unbalanced end tag past tokenizer");
        debug_assert!(entry.node != NodeId::ROOT, "root popped before EOF");
        self.buf.close(entry.node);
        self.child_names
            .truncate(entry.counters.names_from as usize);
    }

    fn resume(&mut self) -> Result<(), EngineError> {
        debug_assert!(self.frontier.is_none(), "resumed inside a copy");
        match self
            .vm
            .resume(&mut self.buf, &self.symbols, &mut self.out)?
        {
            VmStatus::Done => self.vm_done = true,
            VmStatus::NeedInput => self.frontier = self.vm.take_frontier(),
        }
        Ok(())
    }

    /// Record a failure, if `result` is one.
    #[inline]
    fn settle(&mut self, result: Result<(), EngineError>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// The lane turns inert and gives its buffer and pending chain back at
    /// once (a lane over its budget must not hold the memory to the end
    /// of a batch). Out of line: the token path only tests for an error.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, e: EngineError) {
        self.health = Health::Failed(e);
        // The machine's wait names nodes of the buffer given back: a token
        // that touched the lane before it failed must not resume it.
        self.touched = false;
        self.buf = BufferTree::new(false);
        self.pending = Vec::new();
        self.frontier = None;
    }
}

/// Whether `roles` is the copy's single instance and nothing else.
#[inline]
fn only(roles: &[(RoleId, u32)], frontier: Frontier) -> bool {
    matches!(roles, [(role, 1)] if *role == frontier.role)
}

/// The document child counters of the innermost open element, pending or
/// buffered: the parent of whatever comes next.
#[inline]
fn top_counters<'a>(
    pending: &'a mut [PendingEntry],
    open: &'a mut [OpenEntry],
) -> &'a mut ChildCounters {
    match pending.last_mut() {
        Some(top) => &mut top.counters,
        None => &mut open.last_mut().expect("open stack never empty").counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::SLOT_BYTES;
    use gcx_xml::{Token, Tokenizer};

    const ROLE: &[(RoleId, u32)] = &[(RoleId(1), 1)];

    /// A program with a positional step, so that the lane's buffer keeps
    /// the ordinals the tests read back. The scripted drivers below never
    /// run it.
    const POSITIONAL: &str = "/s0[1]";

    /// A scripted driver: element names spell the decision — `s…`
    /// speculative, `r…` kept with a role, `x…` skipped with its subtree —
    /// and text is kept with a role iff it starts with `!`. With `eager`,
    /// speculative elements are appended at their start tag, role-less:
    /// what the lane did before the pending chain.
    fn drive(xml: &str, eager: bool, dtd: Option<&gcx_schema::Dtd>) -> Lane {
        let q = CompiledQuery::compile(POSITIONAL).unwrap();
        // Nothing purges, no signOff runs: the buffer ends up holding
        // everything that was ever appended.
        let mut lane = Lane::start(&q, &EngineOptions::full_buffering(), None);
        if let Some(dtd) = dtd {
            lane.doctype(dtd);
        }
        let mut tok = Tokenizer::from_str(xml);
        let mut hidden = 0u32;
        while let Some(token) = tok.next_token().unwrap() {
            match token {
                Token::StartTag(tag) if hidden > 0 => hidden += u32::from(!tag.self_closing),
                Token::StartTag(tag) => {
                    let name = lane.symbols_mut().intern(tag.name);
                    let attr_names: Vec<Symbol> = tag
                        .attrs
                        .iter()
                        .map(|a| lane.symbols_mut().intern(a.name))
                        .collect();
                    let keep = match tag.name.as_bytes()[0] {
                        b'x' => Keep::Skip,
                        b's' if eager => Keep::Roles(&[]),
                        b's' => Keep::Speculative,
                        _ => Keep::Roles(ROLE),
                    };
                    lane.start_element(name, &tag, &attr_names, keep);
                    if matches!(keep, Keep::Skip) {
                        hidden = u32::from(!tag.self_closing);
                    }
                }
                Token::EndTag { .. } if hidden > 0 => hidden -= 1,
                Token::EndTag { .. } => lane.end_element(),
                Token::Text(content) if hidden == 0 => {
                    let keep = content.starts_with('!');
                    lane.text(content, keep.then_some(ROLE));
                }
                _ => {}
            }
        }
        assert!(lane.pending.is_empty());
        assert_eq!(lane.open.len(), 1, "only the virtual root stays open");
        lane
    }

    /// One line per buffered node in document order — depth, name or
    /// text, attributes (of a role-less node only `with_roleless_attrs`),
    /// ordinals, roles — and whether a role sits at or below `node`. With
    /// `needed_only`, role-free subtrees are left out.
    fn dump(
        lane: &Lane,
        node: NodeId,
        depth: usize,
        (needed_only, with_roleless_attrs): (bool, bool),
        out: &mut Vec<String>,
    ) -> bool {
        let buf = &lane.buf;
        let at = out.len();
        let mut needed = !buf.roles(node).is_empty();
        if node != NodeId::ROOT {
            let what = match buf.name(node) {
                Some(name) => lane.symbols.resolve(name).to_string(),
                None => format!("{:?}", buf.text_content(node).unwrap()),
            };
            let attrs: Vec<String> = buf
                .attrs(node)
                .iter()
                .filter(|_| needed || with_roleless_attrs)
                .map(|(n, v)| format!("{}={v}", lane.symbols.resolve(n)))
                .collect();
            let o = buf.ordinals(node).expect("a positional program");
            out.push(format!(
                "{depth} {what} {attrs:?} {}/{}/{} {:?}",
                o.same_kind,
                o.elem,
                o.any,
                buf.roles(node)
            ));
        }
        let mut child = buf.first_child(node);
        while let Some(c) = child {
            needed |= dump(lane, c, depth + 1, (needed_only, with_roleless_attrs), out);
            child = buf.next_sibling(c);
        }
        if needed_only && !needed {
            out.truncate(at);
        }
        needed
    }

    fn dumped(lane: &Lane, needed_only: bool, with_roleless_attrs: bool) -> Vec<String> {
        let mut out = Vec::new();
        let how = (needed_only, with_roleless_attrs);
        dump(lane, NodeId::ROOT, 0, how, &mut out);
        out
    }

    const DOC: &str = "<s0 id='top' k='v'>lead<x1><r/></x1><s1 a='1'><s2/><s3 b='2' c='3'>t\
                       <x2/><r1 d='4'>!in</r1><s4 e='5'/></s3><s5 f='6'>!late</s5></s1>\
                       <s6 g='7'><s7 h='8'><x3/>plain</s7></s6>\
                       <s8 i='9'><s9><r2 j='10'/><r2/></s9></s8><s10/></s0>";

    #[test]
    fn late_ancestors_enter_as_an_eager_append_would_have_made_them() {
        let lazy = drive(DOC, false, None);
        let eager = drive(DOC, true, None);
        // Every appended node carries a role or stands above one…
        assert_eq!(dumped(&lazy, false, true), dumped(&lazy, true, true));
        // …and is, name, ordinals and all, the node an append at its start
        // tag produced, in the same order — without the attributes of a
        // role-less one, which nothing reads.
        assert_eq!(dumped(&lazy, false, true), dumped(&eager, true, false));
        // s2, s4, s6, s7, s10 never earn a place; s0, s1, s3, s5, s8, s9
        // do, late.
        assert_eq!(eager.buf.stats().allocated - lazy.buf.stats().allocated, 5);
        let lines = dumped(&lazy, false, true);
        assert_eq!(lines.len(), 11, "{lines:#?}");
        assert_eq!(lines[0], r#"1 s0 [] 1/1/1 []"#);
        assert_eq!(lines[1], r#"2 s1 [] 1/2/3 []"#);
        assert_eq!(lines[2], r#"3 s3 [] 1/2/2 []"#);
        // Document positions under parents that were pending: r1 is the
        // second element and third node of s3, s5 the third element of s1.
        assert_eq!(lines[3], r#"4 r1 ["d=4"] 1/2/3 [(RoleId(1), 1)]"#);
        assert_eq!(lines[5], r#"3 s5 [] 1/3/3 []"#);
        assert_eq!(lines[7], r#"2 s8 [] 1/4/5 []"#);
        assert_eq!(lines[10], r#"4 r2 [] 2/2/2 [(RoleId(1), 1)]"#);
    }

    #[test]
    fn a_pending_element_that_closes_leaves_no_trace() {
        let lane = drive(
            "<s0 a='1'><s1 b='2'>text<s2 c='3'/></s1><x0><r/></x0></s0>",
            false,
            None,
        );
        let stats = lane.buf.stats();
        assert_eq!((stats.allocated, stats.live, stats.live_bytes), (0, 0, 0));
        assert!(lane.buf.first_child(NodeId::ROOT).is_none());
        // Their same-name child counts went with them: what is left is the
        // virtual root's, of s0.
        assert_eq!(lane.child_names.len(), 1);
    }

    #[test]
    fn the_pending_chain_counts_against_the_byte_budget() {
        // Nested role-less elements with 100 bytes of attribute each: a
        // pending one is charged what it would take appended without the
        // attribute — its slot, and its three 4-byte ordinals under a
        // program with a positional step — so pending, or appended eagerly
        // without the attributes, the lane fails at the same start tag
        // with the same byte count: waiting outside the buffer is no way
        // around the budget.
        for (text, element) in [("'x'", SLOT_BYTES), (POSITIONAL, SLOT_BYTES + 12)] {
            let q = CompiledQuery::compile(text).unwrap();
            // The elements that fit beside the document's two names, `s`
            // and `k`; twice as many are nested.
            let fit = (4096 - 2) / element;
            let depth = 2 * fit as usize;
            let open = format!("<s k='{}'>", "v".repeat(100));
            let nested = format!("{}{}", open.repeat(depth), "</s>".repeat(depth));
            let stripped = format!("{}{}", "<s>".repeat(depth), "</s>".repeat(depth));
            let siblings = format!("<s>{}</s>", format!("{open}</s>").repeat(depth));
            let failed_at = |keep: Keep<'_>, xml: &str| {
                let opts = EngineOptions::gcx().with_max_buffer_bytes(4096);
                let mut lane = Lane::start(&q, &opts, None);
                let name = lane.symbols_mut().intern("s");
                let attr_names = [lane.symbols_mut().intern("k")];
                let mut tok = Tokenizer::from_str(xml);
                let mut opened = 0u64;
                while let Some(token) = tok.next_token().unwrap() {
                    match token {
                        Token::StartTag(tag) => {
                            opened += 1;
                            lane.start_element(name, &tag, &attr_names[..tag.attrs.len()], keep);
                        }
                        Token::EndTag { .. } => lane.end_element(),
                        _ => {}
                    }
                    lane.step();
                    if let Some(e) = lane.take_failure() {
                        assert!(lane.pending.is_empty());
                        assert_eq!(lane.buffer_stats().live_bytes, 0);
                        return Some((opened, e.to_string()));
                    }
                }
                None
            };
            let lazy = failed_at(Keep::Speculative, &nested).expect("twice what fits");
            assert!(lazy.1.contains("budget 4096"), "{text}: {}", lazy.1);
            assert_eq!(
                lazy.0,
                fit + 1,
                "{text}: the first element that does not fit"
            );
            assert_eq!(Some(lazy), failed_at(Keep::Roles(&[]), &stripped), "{text}");
            // A popped entry gives its bytes back: siblings never add up.
            assert_eq!(failed_at(Keep::Speculative, &siblings), None, "{text}");
        }
    }

    const COPY: RoleId = RoleId(1);
    const OTHER: RoleId = RoleId(2);

    /// Drive a copy of the document element `f`, which holds the copy's
    /// role and another: below it, elements named `c…` and plain text hold
    /// the copy's role alone, `r…` and text starting with `!` another one
    /// too; the driver refuses elements named `x…` (and hides their
    /// subtrees) and gives text starting with `-` no role. With
    /// `frontier`, the lane writes the copy from `f`'s start tag on, as the
    /// evaluator hands it over; without, every node is appended, as before
    /// write-through. Returns the lane and `f`.
    fn drive_copy(xml: &str, frontier: bool) -> (Lane, NodeId) {
        let q = CompiledQuery::compile(POSITIONAL).unwrap();
        let mut lane = Lane::start(&q, &EngineOptions::gcx(), None);
        let mut tok = Tokenizer::from_str(xml);
        let mut f = None;
        let mut hidden = 0u32;
        while let Some(token) = tok.next_token().unwrap() {
            match token {
                Token::StartTag(tag) if hidden > 0 => hidden += u32::from(!tag.self_closing),
                Token::EndTag { .. } if hidden > 0 => hidden -= 1,
                Token::Text(_) if hidden > 0 => {}
                Token::StartTag(tag) if tag.name.starts_with('x') => {
                    let name = lane.symbols_mut().intern(tag.name);
                    lane.start_element(name, &tag, &[], Keep::Skip);
                    hidden = u32::from(!tag.self_closing);
                }
                Token::Text(content) if content.starts_with('-') => {
                    lane.text(content, None);
                }
                Token::StartTag(tag) => {
                    let name = lane.symbols_mut().intern(tag.name);
                    let attr_names: Vec<Symbol> = tag
                        .attrs
                        .iter()
                        .map(|a| lane.symbols_mut().intern(a.name))
                        .collect();
                    let roles: &[(RoleId, u32)] = match tag.name.as_bytes()[0] {
                        b'f' | b'r' => &[(COPY, 1), (OTHER, 1)],
                        _ => &[(COPY, 1)],
                    };
                    lane.start_element(name, &tag, &attr_names, Keep::Roles(roles));
                    if f.is_none() {
                        let node = lane.open.last().unwrap().node;
                        f = Some(node);
                        if frontier {
                            // What the evaluator writes and hands over.
                            lane.buf
                                .serialize(node, &lane.symbols, &mut lane.out)
                                .unwrap();
                            lane.frontier = Some(Frontier { node, role: COPY });
                        }
                    }
                }
                Token::EndTag { .. } => lane.end_element(),
                Token::Text(content) => {
                    let roles: &[(RoleId, u32)] = match content.starts_with('!') {
                        true => &[(COPY, 1), (OTHER, 1)],
                        false => &[(COPY, 1)],
                    };
                    lane.text(content, Some(roles));
                }
                _ => {}
            }
        }
        assert!(lane.pending.is_empty() && lane.frontier.is_none());
        (lane, f.expect("a document element"))
    }

    /// Which role lists a test keeps.
    type Filter<'a> = &'a dyn Fn(&[(RoleId, u32)]) -> bool;

    /// The buffered nodes in document order — depth, name or text,
    /// ordinals — that `keep` accepts the roles of, or that stand above
    /// one it does.
    fn outline(lane: &Lane, keep: Filter<'_>) -> Vec<String> {
        fn walk(
            lane: &Lane,
            node: NodeId,
            depth: usize,
            keep: Filter<'_>,
            out: &mut Vec<String>,
        ) -> bool {
            let buf = &lane.buf;
            let at = out.len();
            let what = match buf.name(node) {
                Some(name) => lane.symbols.resolve(name).to_string(),
                None => format!("{:?}", buf.text_content(node).unwrap()),
            };
            let o = buf.ordinals(node).expect("a positional program");
            out.push(format!(
                "{depth} {what} {}/{}/{}",
                o.same_kind, o.elem, o.any
            ));
            let mut kept = keep(buf.roles(node));
            let mut child = buf.first_child(node);
            while let Some(c) = child {
                kept |= walk(lane, c, depth + 1, keep, out);
                child = buf.next_sibling(c);
            }
            if !kept {
                out.truncate(at);
            }
            kept
        }
        let mut out = Vec::new();
        let mut child = lane.buf.first_child(NodeId::ROOT);
        while let Some(c) = child {
            walk(lane, c, 0, keep, &mut out);
            child = lane.buf.next_sibling(c);
        }
        out
    }

    #[test]
    fn under_a_frontier_only_what_holds_another_role_is_appended() {
        let doc = "<f a='1'>t<c1 k='v'>u<r1 j='2'>!v<c2/></r1>w &amp; x</c1>\
                   <c3 m='3'><c4>y</c4><c5/></c3>!z<r2/></f>";
        let (lazy, f) = drive_copy(doc, true);
        let (eager, g) = drive_copy(doc, false);
        // The copy was written as it streamed in: what serializing the
        // whole subtree from the eager buffer writes.
        let mut whole = XmlWriter::new(Vec::new());
        eager.buf.serialize(g, &eager.symbols, &mut whole).unwrap();
        assert_eq!(lazy.output(), whole.get_ref().as_slice());
        // The buffer was handed what holds another role and the elements
        // above it — c1 late, without its attributes — with the names and
        // ordinals an eager append made; c2…c5 and the plain texts never.
        let others = |roles: &[(RoleId, u32)]| roles.iter().any(|&(r, _)| r == OTHER);
        assert_eq!(
            outline(&lazy, &|roles| !roles.is_empty()),
            outline(&eager, &others)
        );
        let lines = outline(&lazy, &|roles| !roles.is_empty());
        assert_eq!(
            lines,
            [
                "0 f 1/1/1",
                "1 c1 1/1/2",
                "2 r1 1/1/2",
                "3 \"!v\" 1/0/1",
                "1 \"!z\" 2/2/4",
                "1 r2 1/3/5"
            ]
        );
        assert!(
            lazy.buf.attrs(f).iter().count() == 1,
            "f was appended before the copy"
        );
        let c1 = lazy.buf.next_sibling(lazy.buf.first_child(f).unwrap());
        assert!(c1.is_none_or(|c1| lazy.buf.attrs(c1).is_empty()));
        assert_eq!(lazy.buf.stats().allocated, 6);
        assert_eq!(eager.buf.stats().allocated, 14);
    }

    #[test]
    fn under_a_frontier_nothing_refused_is_written() {
        // A child the driver refuses is hidden from the lane with its end
        // tag, and a text without a role is only counted: neither may be
        // written, or the copy's tags would no longer nest.
        let doc = "<f>t<x1 a='1'>h<c1>i</c1></x1>-n<c2>u<x2/>-o</c2><x3/>v</f>";
        let (lazy, _) = drive_copy(doc, true);
        let (eager, g) = drive_copy(doc, false);
        let mut whole = XmlWriter::new(Vec::new());
        eager.buf.serialize(g, &eager.symbols, &mut whole).unwrap();
        assert_eq!(whole.get_ref().as_slice(), b"<f>t<c2>u</c2>v</f>");
        assert_eq!(lazy.output(), whole.get_ref().as_slice());
    }

    #[test]
    fn cutoffs_noted_while_pending_hold_once_materialised() {
        let dtd = gcx_schema::Dtd::parse(
            "<!ELEMENT s0 (xa*, xb*, r*, xc*)> <!ELEMENT xa EMPTY> <!ELEMENT xb EMPTY> \
             <!ELEMENT r EMPTY> <!ELEMENT xc EMPTY>",
        )
        .unwrap();
        for eager in [false, true] {
            // xa and xb go by while s0 is pending; r materialises it.
            let mut lane = drive("<s0><xa/><xb/><r/></s0>", eager, Some(&dtd));
            let s0 = lane.buf.first_child(NodeId::ROOT).expect("s0 materialised");
            let [xa, xb, r, xc] = ["xa", "xb", "r", "xc"].map(|n| lane.symbols_mut().intern(n));
            let exhausted = [xa, xb, r, xc].map(|n| lane.buf.schema_sibling_exhausted(s0, n));
            // An r was seen: no xa or xb can follow; r may repeat, xc may
            // come.
            assert_eq!(exhausted, [true, true, false, false], "eager: {eager}");
        }
    }
}
