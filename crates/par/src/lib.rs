#![deny(unsafe_code)]
//! # gcx-par — partition-parallel evaluation of one document across cores
//!
//! A batch (`gcx_core::batch`) shares one scan among *queries*; this crate
//! parallelizes within *one* document: the input is split at element boundaries into
//! contiguous byte ranges, one sans-IO [`EvalSession`]
//! runs per shard on its own thread (fed its range plus a synthesized
//! ancestor context), and the outputs merge back in strict document
//! order — the data-partitioned XQuery scaling Apache VXQuery
//! demonstrated, built on the PR 5 sessions and the `Send + Sync`
//! [`Arc<Program>`](gcx_ir::Program) that make per-shard fan-out cheap.
//!
//! Three paths, chosen per query by a static analysis over the optimized
//! IR ([`analyze`]):
//!
//! * **parallel** — shard outputs concatenate between the query's static
//!   wrapper prefix/suffix; byte-identical to serial.
//! * **two_phase** — whole-document `count(...)`: shards count their own
//!   ranges, the merge sums (exact: counting is associative over a
//!   partition of the match set).
//! * **serial** — everything else (cross-shard joins like Q8, `sum`/`avg`
//!   aggregates, bodies that re-enter the document root, positional
//!   spine predicates, no guard-safe split point, malformed scans):
//!   one ordinary session over the whole document, with the reason
//!   reported honestly in [`ParOutcome::fallback`].
//!
//! Correctness is pinned by `tests/parallel_differential.rs` at the
//! workspace root: all 11 paper queries, 1/2/4/8 threads, byte-identical
//! outputs, per-shard buffer peaks within the serial peak.
//!
//! **Benchmark-only.** No product surface reaches this crate: the CLI,
//! the service and the root `gcx` crate do not depend on it. It stays
//! because the repository benchmark's `par_shards` workload calls
//! [`run_parallel`] directly, and the root crate's differential suites
//! reach it as a dev-dependency. It leaves together with
//! `gcx_analyze::shard`, `gcx_xml::scan`, `scan_differential.rs` and
//! `tests/parallel_differential.rs` in the change that retires
//! `par_shards`.

mod report;
mod split;

// The shard-safety analysis lives in gcx-analyze (`gcx_analyze::shard`),
// where it is derived from the streamability classifier; re-exported
// here so gcx-par's public API is unchanged.
pub use gcx_analyze::shard::{
    analyze, Analysis, GStep, GTest, GuardPath, ShardMode, ShardPlan, Wrapper,
};
pub use report::aggregate_reports;
pub use split::{guard_matches_chain, plan_shards, ShardInput};

use gcx_core::{CompiledQuery, EngineError, EngineOptions, EvalSession, RunReport};
use gcx_xml::{scan_boundaries, XmlWriter};

/// Which evaluation path a [`run_parallel`] call actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPath {
    /// Partitioned evaluation, shard outputs concatenated.
    Parallel,
    /// Partitioned counting with a summing merge.
    TwoPhase,
    /// One session over the whole document.
    Serial,
}

impl ShardPath {
    /// The `--stats-json` string form.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardPath::Parallel => "parallel",
            ShardPath::TwoPhase => "two_phase",
            ShardPath::Serial => "serial",
        }
    }
}

/// Knobs for [`run_parallel`].
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Worker thread budget (also the shard target). `<= 1` means serial.
    pub threads: usize,
}

/// Deepest element depth the boundary scanner records as candidate split
/// points (0-based; XMark's `<item>`s sit at depth 3).
const MAX_SCAN_DEPTH: u16 = 3;

impl ParOptions {
    /// A budget of `threads` workers.
    pub fn with_threads(threads: usize) -> ParOptions {
        ParOptions { threads }
    }
}

/// The result of a [`run_parallel`] call.
#[derive(Debug)]
pub struct ParOutcome {
    /// The merged result document (byte-identical to a serial run).
    pub output: Vec<u8>,
    /// Deterministically aggregated run report: token/trigger counts
    /// summed, peaks maxed, histograms merged (see [`aggregate_reports`]).
    pub report: RunReport,
    /// Which path ran.
    pub path: ShardPath,
    /// Worker threads actually used.
    pub threads: usize,
    /// Number of shards evaluated (1 on the serial path).
    pub shards: usize,
    /// Per-shard reports, in document order (empty on the serial path).
    pub shard_reports: Vec<RunReport>,
    /// Why the run did not take the parallel path (serial path only).
    pub fallback: Option<String>,
}

/// Evaluate `q` over `doc` with up to `par.threads` workers. Falls back
/// to a plain serial session — never to a wrong answer — whenever the
/// query or the document cannot be partitioned safely; the outcome
/// reports which path ran and why.
pub fn run_parallel(
    q: &CompiledQuery,
    opts: &EngineOptions,
    par: &ParOptions,
    doc: &[u8],
) -> Result<ParOutcome, EngineError> {
    let threads = par.threads.max(1);
    if threads == 1 {
        return run_serial(q, opts, doc, None);
    }
    if opts.indent.is_some() {
        return run_serial(
            q,
            opts,
            doc,
            Some("indented output is shaped by nesting across shard seams".into()),
        );
    }
    if opts.timeline_every.is_some() {
        return run_serial(
            q,
            opts,
            doc,
            Some("timeline sampling is a whole-stream measurement".into()),
        );
    }
    let plan = match analyze(&q.program) {
        Analysis::Safe(plan) => plan,
        Analysis::Unsafe(reason) => {
            return run_serial(
                q,
                opts,
                doc,
                Some(format!("query is not shard-safe: {reason}")),
            )
        }
    };
    let outline = match scan_boundaries(doc, MAX_SCAN_DEPTH) {
        Ok(o) => o,
        Err(e) => return run_serial(q, opts, doc, Some(e.to_string())),
    };
    let shards = plan_shards(doc, &outline, &plan.guards, threads);
    if shards.len() < 2 {
        return run_serial(
            q,
            opts,
            doc,
            Some("no guard-safe split point in the document".into()),
        );
    }

    // One worker per shard, outputs collected in shard (= document) order.
    let results: Vec<Result<(Vec<u8>, RunReport), EngineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(move || run_shard(q, opts, doc, shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    let mut outputs = Vec::with_capacity(results.len());
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok((out, rep)) => {
                outputs.push(out);
                reports.push(rep);
            }
            // A shard failure (buffer budget, malformed range) reruns
            // serially so the user sees the error — or the success —
            // exactly as a single-threaded run would report it.
            Err(e) => {
                return run_serial(
                    q,
                    opts,
                    doc,
                    Some(format!("shard evaluation failed ({e}); reran serially")),
                )
            }
        }
    }

    let (prefix, suffix, empty_form) = render_statics(&plan.wrappers)?;
    let merged = match plan.mode {
        ShardMode::Concat => merge_concat(&outputs, &prefix, &suffix, &empty_form),
        ShardMode::SumCount => merge_count(&outputs, &prefix, &suffix),
    };
    let output = match merged {
        Some(bytes) => bytes,
        None => {
            return run_serial(
                q,
                opts,
                doc,
                Some("shard outputs did not frame as analyzed; reran serially".into()),
            )
        }
    };
    let report = aggregate_reports(&reports, output.len() as u64);
    Ok(ParOutcome {
        output,
        report,
        path: match plan.mode {
            ShardMode::Concat => ShardPath::Parallel,
            ShardMode::SumCount => ShardPath::TwoPhase,
        },
        threads: shards.len(),
        shards: shards.len(),
        shard_reports: reports,
        fallback: None,
    })
}

fn run_shard(
    q: &CompiledQuery,
    opts: &EngineOptions,
    doc: &[u8],
    shard: &ShardInput,
) -> Result<(Vec<u8>, RunReport), EngineError> {
    let mut s: EvalSession = q.session(opts);
    for piece in &shard.pieces {
        s.feed(&doc[piece.clone()])?;
    }
    if !shard.tail.is_empty() {
        s.feed(&shard.tail)?;
    }
    let report = s.finish()?;
    Ok((s.output().to_vec(), report))
}

fn run_serial(
    q: &CompiledQuery,
    opts: &EngineOptions,
    doc: &[u8],
    fallback: Option<String>,
) -> Result<ParOutcome, EngineError> {
    let mut s = q.session(opts);
    s.feed(doc)?;
    let report = s.finish()?;
    let output = s.output().to_vec();
    Ok(ParOutcome {
        output,
        report,
        path: ShardPath::Serial,
        threads: 1,
        shards: 1,
        shard_reports: Vec::new(),
        fallback,
    })
}

/// Render the static wrapper chain three ways: the byte prefix every
/// shard output starts with, the suffix it ends with, and the *collapsed
/// empty form* the serializer emits when nothing was written inside the
/// innermost wrapper (`<a><b/></a>` — the writer collapses an element
/// that closed with no content). A shard with zero bindings produces the
/// collapsed form, and so must the merge when every shard is empty.
/// (prefix, suffix, collapsed-empty form) of the wrapper chain.
type StaticParts = (Vec<u8>, Vec<u8>, Vec<u8>);

fn render_statics(wrappers: &[Wrapper]) -> Result<StaticParts, EngineError> {
    if wrappers.is_empty() {
        return Ok((Vec::new(), Vec::new(), Vec::new()));
    }
    let render = |with_sentinel: bool| -> Result<Vec<u8>, EngineError> {
        let mut w = XmlWriter::new(Vec::new());
        for wr in wrappers {
            w.start_element(&wr.name).map_err(EngineError::Xml)?;
            for (k, v) in &wr.attrs {
                w.attribute(k, v).map_err(EngineError::Xml)?;
            }
        }
        if with_sentinel {
            w.text("Z").map_err(EngineError::Xml)?;
        }
        for _ in wrappers {
            w.end_element().map_err(EngineError::Xml)?;
        }
        w.finish().map_err(EngineError::Xml)
    };
    let full = render(true)?;
    let empty_form = render(false)?;
    let suffix: Vec<u8> = wrappers
        .iter()
        .rev()
        .flat_map(|wr| {
            let mut t = Vec::with_capacity(wr.name.len() + 3);
            t.extend_from_slice(b"</");
            t.extend_from_slice(wr.name.as_bytes());
            t.push(b'>');
            t
        })
        .collect();
    let prefix = full[..full.len() - suffix.len() - 1].to_vec();
    Ok((prefix, suffix, empty_form))
}

/// Strip `prefix`/`suffix` from one shard's output, recognizing the
/// collapsed empty form as an empty core. `None` on any mismatch (the
/// caller falls back serially rather than guess).
fn core_of<'a>(out: &'a [u8], prefix: &[u8], suffix: &[u8], empty_form: &[u8]) -> Option<&'a [u8]> {
    if !empty_form.is_empty() && out == empty_form {
        return Some(b"");
    }
    if out.len() >= prefix.len() + suffix.len() && out.starts_with(prefix) && out.ends_with(suffix)
    {
        Some(&out[prefix.len()..out.len() - suffix.len()])
    } else {
        None
    }
}

fn merge_concat(
    outputs: &[Vec<u8>],
    prefix: &[u8],
    suffix: &[u8],
    empty_form: &[u8],
) -> Option<Vec<u8>> {
    let mut cores = Vec::with_capacity(outputs.len());
    for out in outputs {
        cores.push(core_of(out, prefix, suffix, empty_form)?);
    }
    if !empty_form.is_empty() && cores.iter().all(|c| c.is_empty()) {
        return Some(empty_form.to_vec());
    }
    let total = prefix.len() + suffix.len() + cores.iter().map(|c| c.len()).sum::<usize>();
    let mut merged = Vec::with_capacity(total);
    merged.extend_from_slice(prefix);
    for c in cores {
        merged.extend_from_slice(c);
    }
    merged.extend_from_slice(suffix);
    Some(merged)
}

fn merge_count(outputs: &[Vec<u8>], prefix: &[u8], suffix: &[u8]) -> Option<Vec<u8>> {
    let mut total: u64 = 0;
    for out in outputs {
        // count() always emits a number, so the collapsed empty form
        // cannot occur here.
        let core = core_of(out, prefix, suffix, b"")?;
        total = total.checked_add(std::str::from_utf8(core).ok()?.parse::<u64>().ok()?)?;
    }
    let text = gcx_ir::fmt_number(total as f64);
    let mut merged = Vec::with_capacity(prefix.len() + text.len() + suffix.len());
    merged.extend_from_slice(prefix);
    merged.extend_from_slice(text.as_bytes());
    merged.extend_from_slice(suffix);
    Some(merged)
}
