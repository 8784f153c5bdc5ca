//! The differential matrix: the paper's contract — the output the DOM
//! oracle gives, and no signOff that purges early — checked as one
//! contract over every suite's corpus. A case is a query, a document and,
//! if the document is valid against one, a DTD; [`contract`] runs every
//! case on every axis:
//!
//! * **oracle** — the output equals the DOM evaluator's (`gcx::dom`),
//!   and the buffer drains;
//! * **chunking** — feeds of 1 byte (documents up to 64 KiB), 2 and 3
//!   bytes (up to 4 KiB), 7, 64 and 1024 bytes and seeded splits (eight
//!   rounds up to 4 KiB, four above) give the whole document's output and
//!   [`Counts`]: tokens, buffer counts, schema counters and the occupancy
//!   timeline;
//! * **unoptimised plan** — `compile_opts(text, false)` gives the same
//!   output and counts;
//! * **modes** — projection-only and full buffering give the same
//!   output, and `peak_live` and `peak_live_bytes` order gcx ≤
//!   projection ≤ full;
//! * **indented** — indented gcx output equals indented full buffering,
//!   with the compact run's buffer counts, and so does indented gcx fed 7
//!   bytes at a time (and 1, 2 and 3 bytes up to 4 KiB);
//! * **batch lane** — the cases on one document run as the lanes of one
//!   `BatchSession`, fed 1 byte at a time (documents up to 64 KiB), 7
//!   bytes at a time, and in 64 KiB reads writing indented. Each lane's
//!   output and [`Counts`] equal its stand-alone run's, DOCTYPE included
//!   (bar the reach cuts, which are the shared scan's), its `feed_calls`
//!   are the batch's, and `fanout_events` does not depend on the
//!   chunking;
//! * **warm sessions** — the chunked runs are later sessions of the
//!   compiled query, and the first of them runs at the same time on a
//!   second thread, on a query that served the corpus's other documents
//!   (the case's own, if its query has one document): each equals the
//!   cold run in every count;
//! * **schema** — with a DTD, the output equals the blind run's, and
//!   `peak_live_bytes` (and `peak_live`) are no larger, at every chunking.
//!
//! It returns each case's whole-document run, for the suites' own pins.
//! [`batch_axis`] runs the batch-lane axis alone, on documents too large
//! for the rest.

use super::generated::XorShift;
use gcx::core::batch::BatchSession;
use gcx::schema::Dtd;
use gcx::{CompiledQuery, EngineMode, EngineOptions, RunReport};
use std::collections::HashMap;
use std::sync::Arc;

/// A query over a document, with the DTD the document is valid against.
#[derive(Clone)]
pub struct Case {
    pub query: Arc<str>,
    pub doc: Arc<str>,
    pub dtd: Option<Arc<Dtd>>,
}

/// Every query over every document, document by document.
pub fn cases<Q: AsRef<str>, D: AsRef<str>>(
    queries: &[Q],
    docs: &[D],
    dtd: Option<&Arc<Dtd>>,
) -> Vec<Case> {
    let queries: Vec<Arc<str>> = queries.iter().map(|q| q.as_ref().into()).collect();
    let mut all = Vec::new();
    for doc in docs {
        let doc: Arc<str> = doc.as_ref().into();
        all.extend(queries.iter().map(|query| Case {
            query: Arc::clone(query),
            doc: Arc::clone(&doc),
            dtd: dtd.cloned(),
        }));
    }
    all
}

/// One run: its output and its report.
#[derive(Debug, Clone)]
pub struct Seen {
    pub output: String,
    pub report: RunReport,
}

/// Everything a caller can count of one run.
#[derive(Debug, PartialEq, Eq)]
pub struct Counts {
    pub tokens: u64,
    pub output_bytes: u64,
    /// [`buffer_counts`].
    pub buffer: [u64; 6],
    /// Pruned and total paths, reach cuts, early scan ends, early
    /// signOffs, whether the DOCTYPE was adopted.
    pub schema: Option<(u32, u32, u64, u64, u64, bool)>,
    /// Token, live nodes and live bytes of each sample.
    pub timeline: Option<Vec<(u64, u64, u64)>>,
}

pub fn counts(r: &RunReport) -> Counts {
    Counts {
        tokens: r.tokens,
        output_bytes: r.output_bytes,
        buffer: buffer_counts(r),
        schema: r.schema.as_ref().map(|s| {
            (
                s.pruned_paths,
                s.total_paths,
                s.reach_cuts,
                s.early_scan_ends,
                s.early_signoffs,
                s.doctype_adopted,
            )
        }),
        timeline: r.timeline.as_ref().map(|t| {
            let samples = t.points.iter().zip(&t.bytes);
            samples
                .map(|(&(at, nodes), &bytes)| (at, nodes, bytes))
                .collect()
        }),
    }
}

/// `allocated`, `purged`, `live`, `peak_live`, `peak_live_bytes`, `folded`.
pub fn buffer_counts(r: &RunReport) -> [u64; 6] {
    let b = &r.buffer;
    [
        b.allocated,
        b.purged,
        b.live,
        b.peak_live,
        b.peak_live_bytes,
        b.folded,
    ]
}

/// The stride of the occupancy timeline every contract run samples.
const EVERY: u64 = 16;

/// The options of `mode` under `dtd`, sampling the timeline.
fn options(mode: EngineMode, dtd: Option<&Arc<Dtd>>) -> EngineOptions {
    EngineOptions {
        mode,
        schema: dtd.cloned(),
        ..EngineOptions::gcx()
    }
    .with_timeline(EVERY)
}

/// Compile `text`, optimised.
pub fn compile(text: &str) -> CompiledQuery {
    CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// `q` over `doc` through the blocking wrapper, which feeds 64 KiB reads.
pub fn whole(q: &CompiledQuery, opts: &EngineOptions, doc: &str) -> Seen {
    let mut out = Vec::new();
    let report = gcx::run(q, opts, doc.as_bytes(), &mut out).expect("run");
    let reads = (doc.len() as u64).div_ceil(64 * 1024);
    assert_eq!(report.feed_calls, reads, "one feed per 64 KiB read");
    if reads <= 1 {
        assert_eq!(report.max_pending_bytes, 0, "one feed cannot spill");
    }
    seen(out, report)
}

/// A session of `q` fed `doc` in pieces cut at `cuts` (ascending).
pub fn run_split(q: &CompiledQuery, opts: &EngineOptions, doc: &str, cuts: &[usize]) -> Seen {
    let doc = doc.as_bytes();
    let mut session = q.session(opts);
    let mut from = 0;
    for &cut in cuts {
        session.feed(&doc[from..cut]).expect("feed");
        from = cut;
    }
    session.feed(&doc[from..]).expect("feed");
    let report = session.finish().expect("finish");
    // Every feed counts, an empty one (a repeated cut) too.
    assert_eq!(report.feed_calls, cuts.len() as u64 + 1, "feed calls");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    seen(out, report)
}

/// A session of `q` fed `doc` in pieces of `chunk` bytes.
pub fn fed(q: &CompiledQuery, opts: &EngineOptions, doc: &str, chunk: usize) -> Seen {
    run_split(q, opts, doc, &pieces(doc.len(), chunk))
}

/// The cuts of `len` bytes into pieces of `chunk`.
fn pieces(len: usize, chunk: usize) -> Vec<usize> {
    (chunk..len).step_by(chunk).collect()
}

/// `queries` as the lanes of one batch under `opts`, fed `doc` in pieces
/// of `chunk` bytes.
pub fn batch(
    queries: &[CompiledQuery],
    opts: &EngineOptions,
    doc: &str,
    chunk: usize,
) -> gcx::core::batch::BatchReport {
    let mut session = BatchSession::new(queries, opts);
    for piece in doc.as_bytes().chunks(chunk.max(1)) {
        session.feed(piece).expect("batch feed");
    }
    session.finish().expect("batch")
}

fn seen(output: Vec<u8>, report: RunReport) -> Seen {
    let output = String::from_utf8(output).expect("UTF-8 output");
    Seen { output, report }
}

/// `got` is `want` under another chunking: the same output and counts.
pub fn assert_chunked(label: &str, want: &Seen, got: &Seen) {
    assert_eq!(got.output, want.output, "{label}: output");
    assert_eq!(counts(&got.report), counts(&want.report), "{label}: counts");
}

const MODES: [EngineMode; 3] = [
    EngineMode::Gcx,
    EngineMode::ProjectionOnly,
    EngineMode::FullBuffering,
];

/// Documents up to this size are fed 1 byte at a time, alone and in a
/// batch.
const BYTEWISE: usize = 64 * 1024;

/// Documents up to this size are also fed 2 and 3 bytes at a time, and
/// indented 1, 2 and 3 bytes at a time, and cut at seeded splits in
/// eight rounds rather than four.
const SMALL: usize = 4 * 1024;

/// Run every case on every axis; returns each case's whole-document run
/// (gcx, with its DTD).
pub fn contract(cases: &[Case]) -> Vec<Seen> {
    let (labels, groups) = label_and_group(cases);
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for case in cases {
        *uses.entry(&*case.query).or_default() += 1;
    }
    // A query of more than one case, compiled once for all of them.
    let shared: HashMap<&str, CompiledQuery> = uses
        .into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|(query, _)| (query, compile(query)))
        .collect();
    let alone = par_map(cases, |i, case| {
        let alone = Alone::run(case);
        stand_alone(&labels[i], case, &alone, shared.get(&*case.query));
        alone
    });
    par_map(&groups, |_, group| lanes(cases, group, &alone));
    alone.into_iter().map(|a| a.whole).collect()
}

/// The batch-lane axis alone: the cases on one document as the lanes of
/// one batch, each against its stand-alone run.
pub fn batch_axis(cases: &[Case]) {
    let (_, groups) = label_and_group(cases);
    let alone = par_map(cases, |_, case| Alone::run(case));
    par_map(&groups, |_, group| lanes(cases, group, &alone));
}

/// Each case's label, and the cases grouped by document and DTD: the
/// lanes of one batch share both.
fn label_and_group(cases: &[Case]) -> (Vec<String>, Vec<Vec<usize>>) {
    // Documents by first appearance, for the labels.
    let mut docs: HashMap<&str, usize> = HashMap::new();
    let mut batches: HashMap<(&str, Option<*const Dtd>), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut labels = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let (query, doc) = (&*case.query, &*case.doc);
        let n = docs.len();
        let d = *docs.entry(doc).or_insert(n);
        let g = *batches
            .entry((doc, case.dtd.as_ref().map(Arc::as_ptr)))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(i);
        labels.push(match doc.len() {
            0..=512 => format!("{query} on {doc}"),
            len => format!("{query} on document {d} ({len} bytes)"),
        });
    }
    (labels, groups)
}

/// `f` of each item, on as many threads as there are cores (four at
/// most), in order. A worker's panic is the caller's.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let n = n.min(items.len());
    if n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    let mine = items.iter().enumerate().skip(w).step_by(n);
                    mine.map(|(i, item)| (i, f(i, item))).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// A case's stand-alone gcx runs, which the other axes and the batch's
/// lanes are held to.
struct Alone {
    /// The case's compiled query.
    query: CompiledQuery,
    /// The whole document.
    whole: Seen,
    /// The whole document, written indented.
    indented: Seen,
}

impl Alone {
    fn run(case: &Case) -> Alone {
        let (doc, dtd) = (&*case.doc, case.dtd.as_ref());
        let query = compile(&case.query);
        let opts = options(EngineMode::Gcx, dtd);
        Alone {
            whole: whole(&query, &opts, doc),
            indented: whole(&query, &indented(opts), doc),
            query,
        }
    }
}

/// `opts`, writing indented.
fn indented(opts: EngineOptions) -> EngineOptions {
    EngineOptions {
        indent: Some("  ".into()),
        ..opts
    }
}

/// Every axis but the batch lane's on one case.
fn stand_alone(label: &str, case: &Case, alone: &Alone, shared: Option<&CompiledQuery>) {
    let (text, doc, dtd) = (&*case.query, &*case.doc, case.dtd.as_ref());
    let (q, want) = (&alone.query, &alone.whole);
    let opts = options(EngineMode::Gcx, dtd);

    let mut oracle = Vec::new();
    gcx::dom::run(&q.query, doc.as_bytes(), &mut oracle).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(want.output.as_bytes(), oracle, "{label}: the DOM oracle");
    assert_eq!(want.report.buffer.live, 0, "{label}: the buffer drains");

    // Chunkings, each with whether it writes indented.
    let len = doc.len();
    let small = len <= SMALL;
    let mut chunkings: Vec<(String, Vec<usize>, bool)> = Vec::new();
    let written = |indent| if indent { ", indented" } else { "" };
    // A chunk no shorter than the document is one feed, as the whole run is.
    let mut feeds = |chunk: usize, indent: bool| {
        if chunk < len {
            let how = format!("chunks of {chunk}{}", written(indent));
            chunkings.push((how, pieces(len, chunk), indent));
        }
    };
    if len <= BYTEWISE {
        feeds(1, false);
    }
    if small {
        feeds(1, true);
        for chunk in [2, 3] {
            feeds(chunk, false);
            feeds(chunk, true);
        }
    }
    for chunk in [7, 64, 1024] {
        feeds(chunk, false);
    }
    // Every other seeded split writes indented.
    let mut rng = XorShift((0x9E37_79B9_7F4A_7C15 ^ len as u64) | 1);
    for round in 0..if small { 8 } else { 4 } {
        let cuts = rng.splits(len, 8);
        let indent = round % 2 == 1;
        let how = format!("cut at {cuts:?}{}", written(indent));
        chunkings.push((how, cuts, indent));
    }
    // Each chunking is a later session of `q`, warm from the first. The
    // first runs at the same time, on another thread, on a query that
    // served the corpus's other documents — under a DTD equal to the
    // case's but another object, which replaces that query's plan.
    let other = options(
        EngineMode::Gcx,
        dtd.map(|dtd| Arc::new((**dtd).clone())).as_ref(),
    );
    // The run of `cuts` and the run it must equal.
    let chunked =
        |q: &CompiledQuery, opts: &EngineOptions, cuts: &[usize], indent: bool| match indent {
            true => (
                &alone.indented,
                run_split(q, &indented(opts.clone()), doc, cuts),
            ),
            false => (want, run_split(q, opts, doc, cuts)),
        };
    let ((how, cuts, indent), rest) = chunkings.split_first().expect("a chunking");
    let shared = shared.unwrap_or(q);
    std::thread::scope(|scope| {
        let elsewhere = scope.spawn(|| chunked(shared, &other, cuts, *indent));
        for (how, cuts, indent) in rest {
            let (want, got) = chunked(q, &opts, cuts, *indent);
            assert_chunked(&format!("{label}, {how}"), want, &got);
        }
        let (want, got) = elsewhere
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_chunked(&format!("{label}, {how}, on another thread"), want, &got);
    });

    let unoptimised = CompiledQuery::compile_opts(text, false).expect("compile");
    let got = whole(&unoptimised, &opts, doc);
    assert_chunked(&format!("{label}, unoptimised"), want, &got);

    let modes: Vec<Seen> = std::iter::once(want.clone())
        .chain(
            MODES[1..]
                .iter()
                .map(|&mode| whole(q, &options(mode, dtd), doc)),
        )
        .collect();
    for (mode, got) in MODES.iter().zip(&modes) {
        assert_eq!(got.output, want.output, "{label}: {mode:?}");
    }
    let peaks: Vec<_> = modes
        .iter()
        .map(|s| (s.report.buffer.peak_live, s.report.buffer.peak_live_bytes))
        .collect();
    assert!(
        peaks
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
        "{label}: peaks gcx ≤ projection ≤ full: {peaks:?}"
    );

    let full = whole(q, &indented(options(EngineMode::FullBuffering, dtd)), doc);
    let indent = &alone.indented;
    assert_eq!(indent.output, full.output, "{label}: indented");
    let compact = Counts {
        output_bytes: want.report.output_bytes,
        ..counts(&indent.report)
    };
    assert_eq!(compact, counts(&want.report), "{label}: indented counts");

    if dtd.is_some() {
        let blind = whole(q, &options(EngineMode::Gcx, None), doc);
        assert_eq!(want.output, blind.output, "{label}: the blind run's output");
        let (aware, blind) = (&want.report, &blind.report);
        assert_eq!(aware.tokens, blind.tokens, "{label}: tokens, blind");
        assert!(
            aware.buffer.peak_live_bytes <= blind.buffer.peak_live_bytes
                && aware.buffer.peak_live <= blind.buffer.peak_live,
            "{label}: a peak above the blind run's"
        );
        assert!(aware.schema.is_some(), "{label}: a schema report");
        assert!(
            blind.schema.as_ref().is_none_or(|s| s.doctype_adopted),
            "{label}: a blind schema report"
        );
    }
}

/// The cases `group` (one document, one DTD) as the lanes of a batch,
/// each held to its stand-alone run.
fn lanes(cases: &[Case], group: &[usize], alone: &[Alone]) {
    let (doc, dtd) = (&*cases[group[0]].doc, cases[group[0]].dtd.as_ref());
    let queries: Vec<CompiledQuery> = group.iter().map(|&i| alone[i].query.clone()).collect();
    let opts = options(EngineMode::Gcx, dtd);
    // The reach cuts are the shared scan's, not a lane's.
    let lane_counts = |r: &RunReport| {
        let c = counts(r);
        let schema = c.schema.map(|(pruned, total, _, ends, early, adopted)| {
            (pruned, total, 0, ends, early, adopted)
        });
        Counts { schema, ..c }
    };
    // Fed 7 (and 1) bytes at a time, and read as `gcx::run` reads a
    // document, 64 KiB at a time, writing indented.
    let mut runs = vec![Some(7), None];
    if doc.len() <= BYTEWISE {
        runs.push(Some(1));
    }
    let mut fanout = None;
    for chunk in runs {
        let (how, report) = match chunk {
            Some(chunk) => (
                format!("chunks of {chunk}"),
                batch(&queries, &opts, doc, chunk),
            ),
            None => {
                let opts = indented(opts.clone());
                let report = gcx::core::batch::run(&queries, &opts, doc.as_bytes());
                ("64 KiB reads, indented".into(), report.expect("batch"))
            }
        };
        let handed = *fanout.get_or_insert(report.fanout_events);
        assert_eq!(report.fanout_events, handed, "{how}: fanout events");
        for (&i, lane) in group.iter().zip(report.queries) {
            let label = format!("{} as a lane, {how}", cases[i].query);
            let want = match chunk {
                None => &alone[i].indented,
                Some(_) => &alone[i].whole,
            };
            let output = String::from_utf8(lane.output).expect("UTF-8 output");
            assert_eq!(output, want.output, "{label}");
            let lane = lane.report.expect("lane report");
            let (got, want) = (&lane, &want.report);
            assert_eq!(lane_counts(got), lane_counts(want), "{label}: counts");
            let feeds = match chunk {
                Some(chunk) => doc.len().div_ceil(chunk) as u64,
                None => want.feed_calls,
            };
            assert_eq!(got.feed_calls, feeds, "{label}: feed calls");
            assert_eq!(report.tokens, want.tokens, "{label}: the shared scan");
        }
    }
}
