//! One query of a lock-step batch: see [`Lane`].

use crate::buffer::{BufferTree, NodeId};
use crate::engine::{CompiledQuery, EngineOptions, RunReport, SchemaReport};
use crate::error::EngineError;
use crate::eval::{Vm, VmStatus};
use crate::stream::BufferWriter;
use gcx_query::ast::RoleId;
use gcx_xml::{StartTag, Symbol, SymbolTable, WriterOptions, XmlWriter};
use std::sync::Arc;

/// Remap slot of a batch symbol this lane has not met yet.
const UNSEEN: Symbol = Symbol(u32::MAX);

/// A start tag as the shared scan hands it to its lanes: borrowed from
/// the tokenizer window, names interned once in the batch's symbol table.
#[derive(Debug, Clone, Copy)]
pub struct SharedStart<'a> {
    /// The tag name in the batch's symbol table.
    pub name: Symbol,
    /// The token itself (name, attributes, self-closing flag).
    pub tag: &'a StartTag<'a>,
    /// The attribute names in the batch's symbol table, parallel to
    /// `tag.attrs`. Only read by lanes that keep the element, so the
    /// driver may leave it empty when no lane does.
    pub attr_names: &'a [Symbol],
}

/// What the shared scan contributes to every lane's [`RunReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanFacts {
    /// `feed` calls the shared input arrived in.
    pub feed_calls: u64,
    /// Largest partial-token spillover the shared tokenizer held.
    pub max_pending_bytes: u64,
    /// High-water of the shared tokenizer window (telemetry only).
    pub window_peak: u64,
}

/// One query of a lock-step batch: the engine core with both the I/O
/// *and* the projection decision inverted.
///
/// An [`EvalSession`](crate::EvalSession) owns its tokenizer and matcher
/// and is pushed bytes. A lane owns neither: a batch driver (`gcx-multi`)
/// tokenizes the shared stream once, runs one merged projection matcher,
/// and tells every lane what *its* stand-alone projector would have
/// decided for the token — keep with these roles, or skip. The lane
/// writes kept nodes straight into its own buffer from the borrowed token
/// (no owned event in between) and resumes its evaluator the moment the
/// recorded wait becomes satisfiable: append → check the byte budget →
/// resume, the interleaving of a session's pump. Buffer contents, purge
/// order and peaks are therefore those of a stand-alone run, whatever the
/// other lanes of the batch do.
///
/// A lane that fails (buffer budget, evaluator error) turns inert: it
/// ignores further events and reports the error from [`Lane::finish`];
/// its peers never notice.
pub struct Lane {
    vm: Vm,
    buf: BufferTree,
    /// The run's symbol table, seeded from the program's pre-interned one.
    symbols: SymbolTable,
    out: XmlWriter<Vec<u8>>,
    writer: BufferWriter,
    /// Batch symbol → this lane's symbol, filled on first use: a name is
    /// interned into `symbols` once per document, not once per event.
    remap: Vec<Symbol>,
    /// Depth inside a subtree this lane skipped while some other lane
    /// keeps it (0 = in this lane's kept region).
    skip_depth: u32,
    /// Events delivered to this lane (kept starts, their ends, kept
    /// text, end of input) — its private share of the stream.
    events: u64,
    vm_done: bool,
    failed: Option<EngineError>,
}

impl Lane {
    /// Open a lane for `q` and run its program up to the first suspension.
    /// Of `opts`, the buffer policy (`purge`, `execute_signoffs`,
    /// `max_buffer_bytes`), `indent`, `telemetry` and an explicit `schema`
    /// (sibling-order cutoffs) apply; projection and end-of-input draining
    /// are the shared scan's business, and an in-stream DOCTYPE is not
    /// adopted.
    pub fn start(q: &CompiledQuery, opts: &EngineOptions) -> Lane {
        let mut symbols = q.program.symbols().clone();
        let mut buf = BufferTree::new(opts.purge);
        buf.set_max_bytes(opts.max_buffer_bytes);
        if let Some(dtd) = &opts.schema {
            buf.set_schema(dtd.ord_table(&mut symbols), false);
        }
        let mut vm = Vm::new(Arc::clone(&q.program), opts.execute_signoffs);
        if opts.telemetry {
            buf.enable_telemetry(crate::obs::DEFAULT_TIMELINE_EVERY);
            vm.enable_timing();
        }
        let out = XmlWriter::with_options(
            Vec::new(),
            WriterOptions {
                indent: opts.indent.clone(),
            },
        );
        let mut lane = Lane {
            vm,
            buf,
            symbols,
            out,
            writer: BufferWriter::new(),
            remap: Vec::new(),
            skip_depth: 0,
            events: 0,
            vm_done: false,
            failed: None,
        };
        let first = lane.resume();
        lane.settle(first);
        lane
    }

    /// True while the lane is alive and outside any subtree it skipped:
    /// the next token is a child of its innermost open kept element.
    #[inline]
    pub fn in_kept_region(&self) -> bool {
        self.failed.is_none() && self.skip_depth == 0
    }

    /// A start tag in a region at least one lane of the batch can see
    /// (not inside a merged skip). `roles` is this lane's decision:
    /// `Some` = keep with these role instances, `None` = skip. `any_keep`
    /// says whether *some* lane keeps the element — if none does, the
    /// driver hides the whole subtree, so its end tag will not arrive
    /// here either. Returns whether the element was delivered (appended).
    #[inline]
    pub fn start_element(
        &mut self,
        start: &SharedStart<'_>,
        roles: Option<&[(RoleId, u32)]>,
        any_keep: bool,
    ) -> bool {
        let self_closing = start.tag.self_closing;
        if self.failed.is_some() {
            return false;
        }
        if self.skip_depth > 0 {
            if !self_closing && any_keep {
                self.skip_depth += 1;
            }
            return false;
        }
        // Every child bumps the ordinals — and, with a schema, the
        // sibling-order cutoffs — kept or not: positional predicates see
        // true document positions, and a skipped later sibling is just as
        // much proof that earlier particles are done.
        let ordinals = self.writer.next_elem(start.name);
        let schema = self.buf.schema_active();
        if schema {
            let name = local(
                &mut self.remap,
                &mut self.symbols,
                start.name,
                start.tag.name,
            );
            let (parent, _) = self.writer.top();
            self.buf.schema_note_child(parent, name);
        }
        let Some(roles) = roles else {
            if any_keep && !self_closing {
                self.skip_depth = 1;
            }
            if schema {
                // Nothing was appended, but the cutoff alone can be what
                // the machine waits for.
                let result = self.resume_if_satisfied();
                self.settle(result);
            }
            return false;
        };
        let Lane {
            symbols,
            remap,
            writer,
            buf,
            ..
        } = self;
        let name = local(remap, symbols, start.name, start.tag.name);
        let attrs = start
            .tag
            .attrs
            .iter()
            .zip(start.attr_names)
            .map(|(a, &batch)| (local(remap, symbols, batch, a.name), a.value));
        writer.append_element(buf, name, attrs, roles, ordinals, true);
        if self_closing {
            writer.close_element(buf);
        }
        self.delivered();
        true
    }

    /// The end tag of an element that reached [`Lane::start_element`]
    /// with `any_keep` set. Returns whether it was delivered (closed a
    /// node this lane keeps).
    #[inline]
    pub fn end_element(&mut self) -> bool {
        if self.failed.is_some() {
            return false;
        }
        if self.skip_depth > 0 {
            self.skip_depth -= 1;
            return false;
        }
        self.writer.close_element(&mut self.buf);
        self.delivered();
        true
    }

    /// A text node outside any merged skip, with this lane's roles for
    /// it (empty = the lane does not buffer it, only counts it). Returns
    /// whether it was delivered.
    #[inline]
    pub fn text(&mut self, content: &str, roles: &[(RoleId, u32)]) -> bool {
        if !self.in_kept_region() {
            return false;
        }
        let ordinals = self.writer.next_text();
        if roles.is_empty() {
            return false;
        }
        self.writer
            .append_text(&mut self.buf, content, roles, ordinals);
        self.delivered();
        true
    }

    /// Bytes this lane's buffer holds right now (0 once it failed).
    pub fn live_bytes(&self) -> u64 {
        self.buf.stats().live_bytes
    }

    /// End of input — the lane's last event: close the virtual root, run
    /// the program to completion and hand back the output with the run's
    /// report (or the error that stopped the lane). Everything else the
    /// lane held is released here.
    pub fn finish(
        mut self,
        scan: ScanFacts,
        schema: Option<SchemaReport>,
    ) -> (Vec<u8>, Result<RunReport, EngineError>) {
        if self.failed.is_none() {
            self.events += 1;
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
        if let Some(e) = self.failed {
            return (std::mem::take(self.out.get_mut()), Err(e));
        }
        let obs = self
            .buf
            .take_telemetry()
            .map(|tel| tel.into_report(self.vm.take_task_obs(), Vec::new(), scan.window_peak));
        let (early_scan_ends, early_signoffs, _) = self.buf.schema_counters();
        let report = RunReport {
            tokens: self.events,
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
                ..s
            }),
        };
        (std::mem::take(self.out.get_mut()), Ok(report))
    }

    /// One event reached the buffer: enforce the byte budget, then let
    /// the machine run if what it waits for may have arrived.
    #[inline]
    fn delivered(&mut self) {
        self.events += 1;
        self.buf.tick(self.events);
        let result = self
            .buf
            .check_limit()
            .and_then(|()| self.resume_if_satisfied());
        self.settle(result);
    }

    #[inline]
    fn resume_if_satisfied(&mut self) -> Result<(), EngineError> {
        if !self.vm_done && self.vm.wait_satisfied(&self.buf) {
            self.resume()
        } else {
            Ok(())
        }
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
    /// end of the batch).
    #[inline]
    fn settle(&mut self, result: Result<(), EngineError>) {
        if let Err(e) = result {
            self.failed = Some(e);
            self.buf = BufferTree::new(false);
        }
    }
}

/// This lane's symbol for batch symbol `batch`, spelled `name`.
#[inline]
fn local(remap: &mut Vec<Symbol>, symbols: &mut SymbolTable, batch: Symbol, name: &str) -> Symbol {
    let i = batch.index();
    if i >= remap.len() {
        remap.resize(i + 1, UNSEEN);
    }
    if remap[i] == UNSEEN {
        remap[i] = symbols.intern(name);
    }
    remap[i]
}
