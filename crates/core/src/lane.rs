//! The evaluation core: everything downstream of the keep/skip decision.
//! See [`Lane`].

use crate::buffer::{AttrBuf, BufferStats, BufferTree, NodeId, Ordinals};
use crate::engine::{CompiledQuery, EngineMode, RunReport, SchemaReport};
use crate::error::EngineError;
use crate::eval::{Vm, VmStatus};
use crate::obs::FeedSpan;
use gcx_query::ast::RoleId;
use gcx_xml::{StartTag, Symbol, SymbolTable, WriterOptions, XmlWriter};
use std::sync::Arc;

/// What the driver's scan contributes to a lane's [`RunReport`].
#[derive(Debug, Clone, Default)]
pub struct ScanFacts {
    /// `feed` calls the input arrived in.
    pub feed_calls: u64,
    /// Largest partial-token spillover the tokenizer held.
    pub max_pending_bytes: u64,
    /// High-water of the tokenizer window (telemetry only).
    pub window_peak: u64,
    /// One span per `feed` call (telemetry only, else empty).
    pub feed_spans: Vec<FeedSpan>,
}

impl ScanFacts {
    /// Count a `feed` call that is about to be consumed; with `telemetry`
    /// on, returns its start time for [`ScanFacts::feed_ended`].
    pub fn feed_started(&mut self, telemetry: bool) -> Option<u64> {
        self.feed_calls += 1;
        telemetry.then(gcx_obs::now_micros)
    }

    /// Record the [`FeedSpan`] of the call `started` opened, if any: when
    /// the chunk arrived, how long consuming it took, and its size — the
    /// raw material of the Chrome-trace feed track.
    pub fn feed_ended(&mut self, started: Option<u64>, bytes: usize) {
        if let Some(start_us) = started {
            self.feed_spans.push(FeedSpan {
                start_us,
                dur_us: gcx_obs::now_micros().saturating_sub(start_us),
                bytes: bytes as u64,
            });
        }
    }
}

/// Document child counters for ordinal stamping: every child — kept,
/// skipped or text — bumps these, so positional predicates evaluate
/// against true document positions. One instance per open kept element.
///
/// Same-name counts live in a small vector (elements have few distinct
/// child names; a hash map would pay hashing and allocation per child),
/// and instances are pooled by the [`Lane`] so opening an element
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
    counters: ChildCounters,
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
/// node into the buffer with its true document ordinals,
/// [`tick`](Lane::tick) moves the token clock, and [`step`](Lane::step)
/// enforces the byte budget and resumes the evaluator the moment what it
/// waits for may have arrived. [`EvalSession`](crate::EvalSession) drives
/// one lane from its own tokenizer and matcher; `gcx-multi` drives N of
/// them in lock-step off one shared scan and one merged matcher. The lane
/// cannot tell which: buffer contents, purge order and peaks depend only
/// on the events it is shown.
///
/// A lane that fails (buffer budget, evaluator error) turns inert: it
/// ignores further events and reports the error from
/// [`Lane::take_failure`] or [`Lane::finish`].
pub struct Lane {
    vm: Vm,
    buf: BufferTree,
    /// The run's symbol table, seeded from the program's pre-interned one.
    symbols: SymbolTable,
    out: XmlWriter<Vec<u8>>,
    /// The chain of open *kept* elements (the top is the parent of
    /// incoming nodes), each with its document child counters.
    open: Vec<OpenEntry>,
    /// Attribute storage for the element being appended (the
    /// zero-allocation handshake with
    /// [`BufferTree::append_element_with_attrs`]).
    attr_scratch: AttrBuf,
    /// Recycled child counters of closed elements.
    counter_pool: Vec<ChildCounters>,
    /// Structural tokens the driver charged to this lane ([`Lane::tick`]).
    clock: u64,
    /// An event changed the buffer or a schema cutoff since the last
    /// [`Lane::step`] (or no step has run yet).
    touched: bool,
    vm_done: bool,
    health: Health,
}

impl Lane {
    /// Open a lane for `q`; the first [`Lane::step`] runs its program up
    /// to the first suspension. `mode` selects the buffer policy (whether
    /// signOffs execute, whether the buffer purges); what is *shown* to
    /// the lane is the driver's business.
    pub fn start(
        q: &CompiledQuery,
        mode: EngineMode,
        max_buffer_bytes: Option<u64>,
        indent: Option<String>,
        telemetry: bool,
    ) -> Lane {
        let mut buf = BufferTree::new(mode.purges());
        buf.set_max_bytes(max_buffer_bytes);
        let mut vm = Vm::new(Arc::clone(&q.program), mode.executes_signoffs());
        if telemetry {
            buf.enable_telemetry(crate::obs::DEFAULT_TIMELINE_EVERY);
            vm.enable_timing();
        }
        Lane {
            vm,
            buf,
            // The once-at-startup symbol handshake: cloning the program's
            // pre-interned table maps every query symbol into the run's
            // table.
            symbols: q.program.symbols().clone(),
            out: XmlWriter::with_options(Vec::new(), WriterOptions { indent }),
            open: vec![OpenEntry {
                node: NodeId::ROOT,
                counters: ChildCounters::default(),
            }],
            attr_scratch: AttrBuf::new(),
            counter_pool: Vec::new(),
            clock: 0,
            // The program has not started: the first step must run it.
            touched: true,
            vm_done: false,
            health: Health::Live,
        }
    }

    /// The run's symbol table: drivers intern the names they hand over
    /// (and a schema's names) here.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Install `dtd`'s sibling-order cutoffs in the buffer.
    /// `doctype_adopted` marks a DTD picked up from the stream rather
    /// than configured; it only affects reporting.
    pub fn set_schema(&mut self, dtd: &gcx_schema::Dtd, doctype_adopted: bool) {
        self.buf
            .set_schema(dtd.ord_table(&mut self.symbols), doctype_adopted);
    }

    /// Whether sibling-order cutoffs are installed.
    pub fn schema_active(&self) -> bool {
        self.buf.schema_active()
    }

    /// A start tag — borrowed from the tokenizer window — that is a child
    /// of the innermost open kept element; `name` is the tag name and
    /// `attr_names` the attribute names (parallel to `tag.attrs`) in the
    /// lane's symbol table ([`Lane::symbols_mut`]). `roles` is the
    /// driver's decision: `Some` = keep with these role instances, `None`
    /// = skip — the lane only counts the child (`attr_names` is not
    /// read), and the driver hides the subtree and its end tag. Returns
    /// whether the element was appended.
    #[inline]
    pub fn start_element(
        &mut self,
        name: Symbol,
        tag: &StartTag<'_>,
        attr_names: &[Symbol],
        roles: Option<&[(RoleId, u32)]>,
    ) -> bool {
        if !matches!(self.health, Health::Live) {
            return false;
        }
        // Every child bumps the ordinals — and, with a schema, the
        // sibling-order cutoffs — kept or not: positional predicates see
        // true document positions, and a skipped later sibling is just as
        // much proof that earlier particles are done (the cutoff alone
        // can be what the machine waits for).
        let top = self.open.last_mut().expect("open stack never empty");
        let ordinals = top.counters.next_elem(name);
        let parent = top.node;
        if self.buf.schema_active() {
            self.buf.schema_note_child(parent, name);
            self.touched = true;
        }
        let Some(roles) = roles else {
            return false;
        };
        self.attr_scratch.clear();
        for (a, &attr_name) in tag.attrs.iter().zip(attr_names) {
            self.attr_scratch.push(attr_name, a.value);
        }
        let node = self.buf.append_element_with_attrs(
            parent,
            name,
            &mut self.attr_scratch,
            roles,
            ordinals,
        );
        let counters = self.counter_pool.pop().unwrap_or_default();
        self.open.push(OpenEntry { node, counters });
        if tag.self_closing {
            self.close_top();
        }
        self.touched = true;
        true
    }

    /// The end tag of the innermost open kept element. Returns whether
    /// it was closed (false only on a failed lane).
    #[inline]
    pub fn end_element(&mut self) -> bool {
        if !matches!(self.health, Health::Live) {
            return false;
        }
        self.close_top();
        self.touched = true;
        true
    }

    /// A text child of the innermost open kept element: `Some(roles)` =
    /// buffer it with these role instances, `None` = only count it.
    /// Returns whether it was appended.
    #[inline]
    pub fn text(&mut self, content: &str, roles: Option<&[(RoleId, u32)]>) -> bool {
        if !matches!(self.health, Health::Live) {
            return false;
        }
        let top = self.open.last_mut().expect("open stack never empty");
        let ordinals = top.counters.next_text();
        let Some(roles) = roles else {
            return false;
        };
        self.buf.append_text(top.node, content, roles, ordinals);
        self.touched = true;
        true
    }

    /// `tokens` structural tokens went by, as the driver counts them for
    /// this lane — a session charges every token of the stream (a
    /// self-closing tag twice, a skipped subtree's all at once, nothing
    /// having changed in between), a batch the events it delivered.
    /// Residency telemetry is measured on this clock and
    /// [`RunReport::tokens`] reports it.
    #[inline]
    pub fn tick(&mut self, tokens: u64) {
        self.clock += tokens;
        self.buf.tick(self.clock);
    }

    /// The current token is complete: if it changed anything, enforce the
    /// byte budget, then let the machine run if what it waits for may
    /// have arrived (resuming while the recorded wait is unsatisfied
    /// would be a provable no-op; see `Vm::wait_satisfied`).
    #[inline]
    pub fn step(&mut self) {
        if !std::mem::take(&mut self.touched) {
            return;
        }
        let result = self.buf.check_limit().and_then(|()| {
            if !self.vm_done && self.vm.wait_satisfied(&self.buf) {
                self.resume()
            } else {
                Ok(())
            }
        });
        self.settle(result);
    }

    /// The program ran to completion: no further output will be produced.
    pub fn done(&self) -> bool {
        self.vm_done
    }

    /// Structural tokens charged so far ([`Lane::tick`]).
    pub fn tokens(&self) -> u64 {
        self.clock
    }

    /// The buffer's statistics right now (a failed lane's are zero).
    pub fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }

    /// The output produced and not yet drained.
    pub fn output(&self) -> &[u8] {
        self.out.get_ref()
    }

    /// The pending output, for the driver to drain.
    pub fn output_mut(&mut self) -> &mut Vec<u8> {
        self.out.get_mut()
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
    /// lane's own measurements plus the driver's `scan` and `schema`
    /// facts (the cutoff counters are filled in here). Returns the error
    /// instead if the lane failed, now or earlier. The output stays
    /// drainable.
    pub fn finish(
        &mut self,
        scan: &ScanFacts,
        schema: Option<SchemaReport>,
    ) -> Result<RunReport, EngineError> {
        if matches!(self.health, Health::Live) {
            self.buf.close(NodeId::ROOT);
            let mut result = self.buf.check_limit();
            if result.is_ok() && !self.vm_done {
                // An exhausted machine cannot suspend again: it completes
                // or fails.
                self.vm.set_input_exhausted();
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
        let (early_scan_ends, early_signoffs, doctype_adopted) = self.buf.schema_counters();
        Ok(RunReport {
            tokens: self.clock,
            buffer: self.buf.stats(),
            timeline: None,
            output_bytes: self.out.bytes_written(),
            max_buffer_bytes: self.buf.max_bytes(),
            feed_calls: scan.feed_calls,
            max_pending_bytes: scan.max_pending_bytes,
            obs,
            schema: schema.map(|s| SchemaReport {
                early_scan_ends,
                early_signoffs,
                doctype_adopted,
                ..s
            }),
        })
    }

    /// Close the innermost open element (its end tag arrived).
    #[inline]
    fn close_top(&mut self) {
        let mut entry = self.open.pop().expect("unbalanced end tag past tokenizer");
        debug_assert!(entry.node != NodeId::ROOT, "root popped before EOF");
        self.buf.close(entry.node);
        entry.counters.clear();
        self.counter_pool.push(entry.counters);
    }

    fn resume(&mut self) -> Result<(), EngineError> {
        if let VmStatus::Done = self
            .vm
            .resume(&mut self.buf, &self.symbols, &mut self.out)?
        {
            self.vm_done = true;
        }
        Ok(())
    }

    /// Record a failure: the lane turns inert and gives its buffer back
    /// at once (a lane over its budget must not hold the memory to the
    /// end of a batch).
    #[inline]
    fn settle(&mut self, result: Result<(), EngineError>) {
        if let Err(e) = result {
            self.health = Health::Failed(e);
            self.buf = BufferTree::new(false);
        }
    }
}
