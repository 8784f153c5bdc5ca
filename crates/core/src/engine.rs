//! Public engine API: compile once, run many times, in any of the
//! buffer-management configurations the experiments compare.

use crate::buffer::BufferStats;
use crate::error::EngineError;
use crate::obs::{ObsReport, Timeline};
use crate::session::EvalSession;
use gcx_ir::{OptReport, Program};
use gcx_projection::{analyze, Analysis, Automaton, TaggedPaths};
use gcx_query::Query;
use gcx_schema::{Dtd, OrdTable};
use gcx_xml::SymbolTable;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A compiled query: normalized AST, static analysis (roles, rewriting)
/// and the lowered, executable program (`gcx-ir`).
///
/// What a run *executes* is immutable after [`CompiledQuery::compile`]
/// and the whole artifact is `Send + Sync`: the HTTP service's registry
/// shares one instance across request threads, and the multi-query driver
/// opens one lane per query of a batch on it. A run performs no lowering
/// and no query-symbol interning — the program carries pre-compiled step
/// tables, a pre-interned symbol table that seeds each run's table, and
/// the prepared projection automaton.
///
/// Two things are *learnt* and kept here for the next run, each behind a
/// lock taken when a session starts and when its matcher is dropped,
/// never per token: the automaton's memoised transitions
/// (`gcx_projection::Automaton`) and the plan of the DTD last attached
/// (the three schema analyses against the query's own symbols).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The normalized user query.
    pub query: Query,
    /// Roles, projection paths and the rewritten query with signOffs.
    pub analysis: Analysis,
    /// The program the evaluator executes (shared, immutable). This is
    /// the optimized program unless compilation disabled the optimizer.
    pub program: Arc<Program>,
    /// What the optimizer did (None when it was disabled).
    pub opt: Option<OptReport>,
    /// Wall-clock cost of the whole compilation pipeline
    /// (parse → normalize → analyze/rewrite → lower → optimize), in
    /// microseconds.
    pub compile_micros: u64,
    /// The plan of the schema last attached (clones share it: it only
    /// depends on the program).
    schema_plan: Arc<Mutex<Option<Arc<SchemaPlan>>>>,
}

/// What attaching one DTD to one compiled query comes to, worked out once
/// ([`CompiledQuery::schema_plan`]) instead of per session: the three
/// schema analyses against the query's own symbols.
#[derive(Debug)]
pub(crate) struct SchemaPlan {
    /// The DTD planned for; held so that its address stays its identity.
    dtd: Arc<Dtd>,
    /// The program's table with the DTD's names on top: a run's table
    /// starts as a clone, so stream, matcher and cutoffs agree on symbols.
    pub(crate) symbols: SymbolTable,
    /// The projection paths the DTD can satisfy, under its
    /// descendant-reachability filter.
    pub(crate) automaton: Arc<Automaton>,
    /// The sibling-order cutoffs for the buffer.
    pub(crate) ord: Arc<OrdTable>,
    /// `(pruned, total)` projection-path counts.
    pub(crate) pruned_paths: (u32, u32),
}

// The registry/driver sharing contract, enforced at compile time.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<CompiledQuery>();
    _assert_send_sync::<Program>();
    _assert_send_sync::<SchemaPlan>();
};

impl CompiledQuery {
    /// Run the full compilation pipeline on query text:
    /// parse → normalize → analyze/rewrite → lower → **optimize**.
    pub fn compile(text: &str) -> Result<CompiledQuery, EngineError> {
        CompiledQuery::compile_opts(text, true)
    }

    /// [`CompiledQuery::compile`] with the plan optimizer switchable; with
    /// `optimize` off the executed program is the direct lowering (the
    /// reference the optimizer and descendant-search differentials hold
    /// the optimized program to).
    pub fn compile_opts(text: &str, optimize: bool) -> Result<CompiledQuery, EngineError> {
        let started = Instant::now();
        let query = gcx_query::compile(text)?;
        let analysis = analyze(&query);
        let lowered = Program::compile(&query, &analysis);
        let (program, opt) = if optimize {
            let (optimized, report) = gcx_ir::optimize(&lowered);
            (optimized, Some(report))
        } else {
            (lowered, None)
        };
        let compile_micros = started.elapsed().as_micros() as u64;
        Ok(CompiledQuery {
            query,
            analysis,
            program: Arc::new(program),
            opt,
            compile_micros,
            schema_plan: Arc::default(),
        })
    }

    /// The plan for running this query under `dtd`: built on first use,
    /// then shared by every session that attaches the same `Arc<Dtd>`
    /// (another DTD replaces it).
    pub(crate) fn schema_plan(&self, dtd: &Arc<Dtd>) -> Arc<SchemaPlan> {
        let mut slot = self.schema_plan.lock().expect("no schema analysis panics");
        if let Some(plan) = slot.as_ref().filter(|p| Arc::ptr_eq(&p.dtd, dtd)) {
            return Arc::clone(plan);
        }
        // The analyses intern their DTD names before any document bytes
        // arrive, so stream and analyses agree on symbols.
        let mut symbols = self.program.symbols().clone();
        let prune = dtd.prune(self.program.matcher_paths(), &symbols);
        let reach = Arc::new(dtd.reach_filter(&mut symbols));
        let ord = Arc::new(dtd.ord_table(&mut symbols));
        let plan = Arc::new(SchemaPlan {
            dtd: Arc::clone(dtd),
            automaton: Arc::new(Automaton::new(
                TaggedPaths::merge([&prune.paths]),
                Some(reach),
            )),
            symbols,
            ord,
            pruned_paths: (prune.pruned.len() as u32, prune.total as u32),
        });
        *slot = Some(Arc::clone(&plan));
        plan
    }

    /// Open a sans-IO evaluation session: the push-driven form of the
    /// engine. Feed document bytes as they arrive with
    /// [`EvalSession::feed`]; the session never touches `Read`/`Write`
    /// internally. See [`EvalSession`] for the full protocol.
    ///
    /// ```
    /// use gcx_core::{CompiledQuery, EngineOptions};
    ///
    /// let q = CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap();
    /// let mut session = q.session(&EngineOptions::gcx());
    /// session.feed(b"<bib><book><title>S").unwrap();
    /// session.feed(b"treams</title></book></bib>").unwrap();
    /// let report = session.finish().unwrap();
    /// assert_eq!(session.output(), b"<title>Streams</title>");
    /// assert_eq!(report.feed_calls, 2);
    /// ```
    pub fn session(&self, opts: &EngineOptions) -> EvalSession {
        EvalSession::new(self, opts)
    }

    /// Human-readable compilation report: the mapping between query,
    /// paths, roles and preemption points that the demo visualizes in its
    /// Figure 3(a), followed by the compiled program listing.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("== Projection paths and roles ==\n");
        out.push_str(&self.analysis.roles_listing());
        out.push_str("\n== Rewritten query with signOff statements ==\n");
        out.push_str(&self.analysis.rewritten.to_string());
        out.push('\n');
        out.push_str("\n== signOff anchors ==\n");
        for role in self.analysis.roles.iter() {
            let anchor = match role.anchor {
                gcx_projection::Anchor::Var(v) => {
                    format!("end of ${}'s loop body", self.query.var_names[v.index()])
                }
                gcx_projection::Anchor::QueryEnd => "query end".to_string(),
            };
            out.push_str(&format!(
                "{}: {:<55} [{}] signed off at {anchor}\n",
                role.id,
                role.path_display(),
                role.origin
            ));
        }
        out.push_str("\n== Compiled program (gcx-ir, unoptimized) ==\n");
        // The direct lowering is not kept on the artifact: redo it.
        out.push_str(&Program::compile(&self.query, &self.analysis).listing());
        if let Some(opt) = &self.opt {
            out.push_str("\n== Optimizer passes ==\n");
            for p in &opt.passes {
                out.push_str(&format!(
                    "{:<18} {:>3} change(s)  {}\n",
                    p.name, p.changes, p.detail
                ));
            }
            out.push_str(&format!(
                "instructions: {} -> {}, cost estimate: {} -> {}\n",
                opt.before.instructions, opt.after.instructions, opt.cost_before, opt.cost_after
            ));
            out.push_str("\n== Optimized program ==\n");
            out.push_str(&self.program.listing());
        }
        out
    }
}

/// The buffer-management strategy: the three configurations the paper's
/// evaluation compares (Figure 5; `tests/golden_modes.rs` pins each).
/// Every one reads the whole document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Static projection **and** dynamic buffer minimization via active
    /// garbage collection (the paper's system).
    Gcx,
    /// Static projection; signOffs are ignored, so the buffer grows to
    /// the size of the projected document, minus role-free subtrees
    /// reclaimed when they close (the FluXQuery / projection-based-systems
    /// class).
    ProjectionOnly,
    /// No projection, no reclamation: the whole document is buffered
    /// (the naive in-memory engine class).
    FullBuffering,
}

impl EngineMode {
    /// The stream preprojector skips what no projection path matches, and
    /// the buffer reclaims dead subtrees.
    pub fn projects(self) -> bool {
        self != EngineMode::FullBuffering
    }

    /// signOff statements execute (dynamic buffer minimization), and an
    /// element copied while it is still open streams to the writer, what
    /// only the copy needs not being buffered. The paper's system only:
    /// the baselines keep buffering and serializing whole subtrees.
    pub fn executes_signoffs(self) -> bool {
        self == EngineMode::Gcx
    }
}

/// Engine configuration. The three presets — [`EngineOptions::gcx`],
/// [`EngineOptions::projection_only`], [`EngineOptions::full_buffering`]
/// — select the [`EngineMode`] of the same name. A run reads its input to
/// the end (validating it), and a stand-alone run with no
/// [`EngineOptions::schema`] adopts the sibling-order cutoffs of an
/// in-stream `<!DOCTYPE ...>` internal subset (only those: the matcher is
/// already built when the token arrives; an unparsable subset is ignored).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// The buffer-management strategy.
    pub mode: EngineMode,
    /// Sample the buffer-occupancy timeline ([`RunReport::timeline`])
    /// every N tokens. None: off, or every
    /// [`DEFAULT_TIMELINE_EVERY`](crate::obs::DEFAULT_TIMELINE_EVERY)
    /// tokens with [`EngineOptions::telemetry`].
    pub timeline_every: Option<u64>,
    /// Pretty-print output with this indent.
    pub indent: Option<String>,
    /// Hard per-run buffer byte budget (None = unlimited). Crossing it
    /// fails the run with [`EngineError::BufferLimitExceeded`] instead of
    /// letting the buffer grow without bound — the primitive the service
    /// layer's admission control (HTTP 413) is built on.
    pub max_buffer_bytes: Option<u64>,
    /// Record buffer-lifecycle and VM-frame telemetry into
    /// [`RunReport::obs`]. Off by default; when off the hot loops pay one
    /// null check per hook (measured ≤1% on the throughput sweep).
    pub telemetry: bool,
    /// A DTD the input is promised to be valid against. Enables all three
    /// schema analyses: projection-path pruning, descendant-reachability
    /// skipping, and sibling-order cutoffs (earliest emission/purge). On
    /// documents that violate the DTD, output may differ from the
    /// schema-blind run — the promise is the caller's.
    pub schema: Option<Arc<gcx_schema::Dtd>>,
}

impl EngineOptions {
    /// The full GCX configuration: projection + active garbage collection.
    pub fn gcx() -> EngineOptions {
        EngineOptions {
            mode: EngineMode::Gcx,
            timeline_every: None,
            indent: None,
            max_buffer_bytes: None,
            telemetry: false,
            schema: None,
        }
    }

    /// Static projection only: signOffs are ignored, the buffer grows to
    /// the size of the projected document.
    pub fn projection_only() -> EngineOptions {
        EngineOptions {
            mode: EngineMode::ProjectionOnly,
            ..EngineOptions::gcx()
        }
    }

    /// No projection, no GC: the whole document is buffered.
    pub fn full_buffering() -> EngineOptions {
        EngineOptions {
            mode: EngineMode::FullBuffering,
            ..EngineOptions::gcx()
        }
    }

    /// Enable timeline sampling (builder style).
    pub fn with_timeline(mut self, every: u64) -> EngineOptions {
        self.timeline_every = Some(every);
        self
    }

    /// Set a hard buffer byte budget (builder style).
    pub fn with_max_buffer_bytes(mut self, bytes: u64) -> EngineOptions {
        self.max_buffer_bytes = Some(bytes);
        self
    }

    /// Enable buffer-lifecycle and VM-frame telemetry (builder style).
    pub fn with_telemetry(mut self) -> EngineOptions {
        self.telemetry = true;
        self
    }

    /// Attach a DTD the input is promised to be valid against (builder
    /// style). See [`EngineOptions::schema`].
    pub fn with_schema(mut self, dtd: Arc<gcx_schema::Dtd>) -> EngineOptions {
        self.schema = Some(dtd);
        self
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions::gcx()
    }
}

/// What the schema analyses did during one run. Present in
/// [`RunReport::schema`] exactly when a schema was in effect — explicitly
/// via [`EngineOptions::schema`] or adopted from an in-stream DOCTYPE.
#[derive(Debug, Clone, Default)]
pub struct SchemaReport {
    /// Projection paths dropped as unsatisfiable against the DTD.
    pub pruned_paths: u32,
    /// Projection paths examined (pruned + kept).
    pub total_paths: u32,
    /// Subtrees the matcher skipped because the DTD proved no projected
    /// name is reachable below them.
    pub reach_cuts: u64,
    /// Cursor scans ended early by a sibling-order cutoff (the DTD proved
    /// no further match can arrive, before the parent's end tag).
    pub early_scan_ends: u64,
    /// signOff waits released early by a sibling-order cutoff — the
    /// earliest-purge wins: roles drop before the binding's end tag.
    pub early_signoffs: u64,
    /// The sibling-order table came from an in-stream DOCTYPE rather than
    /// an explicit [`EngineOptions::schema`].
    pub doctype_adopted: bool,
}

/// What a run observed — the measurements the paper's figures are made of.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Structural tokens processed.
    pub tokens: u64,
    /// Buffer statistics: peak/live node counts, allocation/purge totals.
    pub buffer: BufferStats,
    /// Buffer-occupancy samples (present exactly when
    /// [`EngineOptions::timeline_every`] or
    /// [`EngineOptions::telemetry`] was set).
    pub timeline: Option<Timeline>,
    /// Bytes of serialized output.
    pub output_bytes: u64,
    /// The buffer byte budget the run was held to (None = unlimited).
    pub max_buffer_bytes: Option<u64>,
    /// Number of `feed` calls the run's input arrived in (for a query of
    /// a batch: the feeds of the shared scan).
    pub feed_calls: u64,
    /// Largest partial-token spillover (bytes) the tokenizer held across
    /// a `feed` boundary — the chunk-boundary overhead of the sans-IO
    /// core, observable per run.
    pub max_pending_bytes: u64,
    /// Buffer-lifecycle and VM-frame telemetry (present exactly when
    /// [`EngineOptions::telemetry`] was on).
    pub obs: Option<ObsReport>,
    /// Schema-analysis facts (present exactly when a schema was in
    /// effect, explicit or DOCTYPE-adopted).
    pub schema: Option<SchemaReport>,
}

/// Run a compiled query over an XML input stream, writing the result to
/// `output`. The configuration selects the buffer-management strategy.
///
/// This is a convenience wrapper over the sans-IO [`EvalSession`]: it
/// reads `input` in chunks, feeds them to the session, and drains the
/// session's output into `output` as it becomes available — the blocking
/// shape of the push-driven engine.
pub fn run<R: Read, W: Write>(
    q: &CompiledQuery,
    opts: &EngineOptions,
    mut input: R,
    mut output: W,
) -> Result<RunReport, EngineError> {
    let mut session = q.session(opts);
    loop {
        // Read straight into the tokenizer window (no intermediate copy).
        let n = {
            let gap = session.space(64 * 1024);
            input.read(gap)
        };
        let n = n.map_err(|e| session.input_io_error(e))?;
        if n == 0 {
            break;
        }
        session.commit(n)?;
        session.take_output(&mut output)?;
    }
    let report = session.finish()?;
    session.take_output(&mut output)?;
    output.flush().map_err(|e| session.input_io_error(e))?;
    Ok(report)
}

/// Convenience: compile and run with the GCX configuration.
pub fn run_query(query_text: &str, input: &str) -> Result<String, EngineError> {
    let q = CompiledQuery::compile(query_text)?;
    let mut out = Vec::new();
    run(&q, &EngineOptions::gcx(), input.as_bytes(), &mut out)?;
    String::from_utf8(out).map_err(|_| EngineError::Internal("non-UTF8 output".into()))
}
