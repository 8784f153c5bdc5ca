//! Schema differential suite: attaching a DTD the input is valid
//! against must be **observably free** — output bytes identical to the
//! schema-blind run for every paper query, under any chunking — while
//! the buffer contract only ever improves: `peak_live_bytes` ≤ the
//! blind baseline everywhere.
//!
//! What the DTD buys, restated. Until lazy prefix materialisation the
//! reach filter was also a *peak* feature: under `//item` the blind
//! engine appended every open element as a speculative ancestor, the DTD
//! proved most of them item-free, and this suite demanded strictly lower
//! peaks on at least three queries. The blind engine now keeps role-less
//! ancestors out of the buffer until a descendant earns a role, and
//! reaches the same peaks unaided — `peak_live_bytes`, blind → aware, on
//! the two documents of the first test:
//!
//! | query | 96 KB seed 0x6C7867, before | after | 48 KB seed 42, before | after |
//! |---|---|---|---|---|
//! | Q6 | 1394 → 1041 | 1041 → 1041 | 1393 → 1040 | 1040 → 1040 |
//! | Q14 | 2075 → 1722 | 1722 → 1722 | 2081 → 1728 | 1728 → 1728 |
//! | Q6_COUNT | 13864 → 13528 | 13528 → 13528 | 7676 → 7340 | 7340 → 7340 |
//! | Q1 Q8 Q13 Q20 Q2 Q3 Q17 Q19 | blind = aware, unchanged: 871, 58493, 1722, 705, 1036, 1546, 871, 1381 | same | 872, 29241, 1714, 705, 1036, 1546, 872, 1376 | same |
//!
//! (buffer appends likewise: Q6 779 → 209 before, 209 → 209 after; Q14
//! 2947 → 410, then 410 → 410). Basic buffer discipline is no longer the
//! schema's to provide. What it still provides, and what is asserted
//! here in place of the strict peak drop: subtrees the DTD proves
//! item-free are *cut* (`reach_cuts > 0`) — never shown to the matcher,
//! bulk-skipped by the tokenizer — so the matcher visits strictly fewer
//! elements with the schema than without; and sibling-order cutoffs end
//! scans and sign variables off before the parent's close tag (the
//! pinned trigger counts below).
//!
//! Coverage:
//!
//! * all 11 paper queries over generated XMark documents (two sizes,
//!   two seeds), schema on vs off — byte-identical outputs, token
//!   counts equal, peaks ≤;
//! * the reach floor: on every tested document the reach-filter queries
//!   Q6/Q14/Q6_COUNT cut subtrees and visit strictly fewer elements;
//! * schema-aware runs driven through the sans-IO session under seeded
//!   random chunk splits and 1-byte chunks — cutoff bookkeeping and
//!   early sign-off must be boundary-blind, including the trigger
//!   counters themselves;
//! * pinned early-purge trigger counts on a fixed document, so a
//!   regression that silently stops triggering (counters drop to 0 but
//!   nothing else changes) still fails;
//! * the same contract for the lanes of a `gcx_core::batch` run with a
//!   schema: every lane's peak and trigger counts equal its stand-alone
//!   schema-aware run;
//! * DTD-unsatisfiable path pruning surfaced for Q17 (`person/homepage`
//!   is absent from the trimmed XMark DTD);
//! * in-stream `<!DOCTYPE site [...]>` adoption: a `--doctype`-generated
//!   document activates the sibling-order facts without any option set,
//!   and an explicit schema suppresses the adoption.

mod common;

use common::generated::XorShift;
use gcx::schema::Dtd;
use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions, RunReport};

fn xmark(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024);
    cfg.seed = seed;
    generate_string(&cfg)
}

fn xmark_doctype(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024).with_doctype();
    cfg.seed = seed;
    generate_string(&cfg)
}

fn blind() -> EngineOptions {
    EngineOptions::gcx()
}

fn aware() -> EngineOptions {
    EngineOptions::gcx().with_schema(Dtd::xmark())
}

/// Single-shot run through the blocking wrapper.
fn run_once(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8]) -> (Vec<u8>, RunReport) {
    let mut out = Vec::new();
    let report = gcx::run(q, opts, doc, &mut out).expect("run");
    (out, report)
}

/// Push `doc` through an `EvalSession` cut at `splits` (ascending offsets).
fn run_split(
    q: &CompiledQuery,
    opts: &EngineOptions,
    doc: &[u8],
    splits: &[usize],
) -> (Vec<u8>, RunReport) {
    let mut session = q.session(opts);
    let mut from = 0;
    for &cut in splits {
        let cut = cut.min(doc.len());
        session.feed(&doc[from..cut]).expect("feed");
        from = cut;
    }
    session.feed(&doc[from..]).expect("final feed");
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

/// The schema contract: identical observable behaviour, never-worse peaks.
fn assert_schema_free(label: &str, blind: &(Vec<u8>, RunReport), aware: &(Vec<u8>, RunReport)) {
    assert_eq!(
        aware.0, blind.0,
        "{label}: schema-aware output differs from schema-blind"
    );
    assert_eq!(
        aware.1.tokens, blind.1.tokens,
        "{label}: token count differs"
    );
    assert_eq!(
        aware.1.output_bytes, blind.1.output_bytes,
        "{label}: output_bytes differs"
    );
    assert!(
        aware.1.buffer.peak_live_bytes <= blind.1.buffer.peak_live_bytes,
        "{label}: schema RAISED the byte peak ({} > {})",
        aware.1.buffer.peak_live_bytes,
        blind.1.buffer.peak_live_bytes
    );
    assert!(
        aware.1.buffer.peak_live <= blind.1.buffer.peak_live,
        "{label}: schema RAISED the node peak ({} > {})",
        aware.1.buffer.peak_live,
        blind.1.buffer.peak_live
    );
    assert!(
        aware.1.schema.is_some(),
        "{label}: schema-aware run must carry a schema report"
    );
    assert!(
        blind.1.schema.is_none(),
        "{label}: schema-blind run must not carry a schema report"
    );
}

/// What the reach filter buys on a `//` query since the blind engine
/// reaches the same peak unaided: cut subtrees, fewer matcher visits,
/// never more appends.
fn assert_reach_pays(
    label: &str,
    q: &CompiledQuery,
    doc: &str,
    blind: &RunReport,
    aware: &RunReport,
) {
    let cuts = aware.schema.as_ref().expect("schema report").reach_cuts;
    assert!(cuts > 0, "{label}: must cut unreachable subtrees");
    let (without, with) = (
        common::project(q, None, doc).visited,
        common::project(q, Some(&Dtd::xmark()), doc).visited,
    );
    assert!(
        with < without,
        "{label}: the matcher must see strictly fewer elements with the \
         schema ({with} vs {without})"
    );
    assert!(
        aware.buffer.allocated <= blind.buffer.allocated,
        "{label}: the schema must not add appends"
    );
}

#[test]
fn all_paper_queries_byte_identical_and_peaks_never_worse() {
    for (kb, seed) in [(96, 0x6C_78_67), (48, 42)] {
        let doc = xmark(kb, seed);
        for (name, qtext) in queries::paper_queries() {
            let q = CompiledQuery::compile(qtext).expect("compile");
            let want = run_once(&q, &blind(), doc.as_bytes());
            let got = run_once(&q, &aware(), doc.as_bytes());
            let label = format!("{name} ({kb}KB seed {seed})");
            assert_schema_free(&label, &want, &got);
            // The acceptance floor: the DTD must actually buy something,
            // on every tested document, for the `//item` queries. It
            // used to be a strictly lower peak on at least three queries;
            // see the module docs for why `<=` is now the whole peak
            // contract and this is the floor.
            if ["Q6", "Q14", "Q6_COUNT"].contains(&name) {
                assert_reach_pays(&label, &q, &doc, &want.1, &got.1);
            }
        }
    }
}

#[test]
fn schema_runs_are_chunk_boundary_blind() {
    let doc = xmark(48, 7);
    let bytes = doc.as_bytes();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for (name, qtext) in queries::paper_queries() {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let base = run_once(&q, &blind(), bytes);
        let whole = run_once(&q, &aware(), bytes);
        assert_schema_free(&format!("{name} (unsplit)"), &base, &whole);
        for round in 0..3 {
            let splits = rng.splits(bytes.len(), 8);
            let got = run_split(&q, &aware(), bytes, &splits);
            assert_schema_free(&format!("{name} splits round {round}"), &base, &got);
            // The trigger counters are part of the observable contract:
            // chunking must not change how often the schema fired.
            let (a, b) = (
                whole.1.schema.as_ref().expect("schema report"),
                got.1.schema.as_ref().expect("schema report"),
            );
            assert_eq!(
                (a.early_scan_ends, a.early_signoffs, a.reach_cuts),
                (b.early_scan_ends, b.early_signoffs, b.reach_cuts),
                "{name} splits round {round}: trigger counts drifted with chunking"
            );
        }
    }
}

#[test]
fn one_byte_chunks_with_schema() {
    // 1-byte chunks maximize suspension churn through the cutoff and
    // early-sign-off paths; a small doc keeps the sweep fast.
    let doc = xmark(16, 3);
    let bytes = doc.as_bytes();
    let splits: Vec<usize> = (1..bytes.len()).collect();
    for qtext in [queries::Q6, queries::extra::Q14, queries::Q20] {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let want = run_once(&q, &blind(), bytes);
        let got = run_split(&q, &aware(), bytes, &splits);
        assert_schema_free("1-byte chunks", &want, &got);
    }
}

#[test]
fn batch_lanes_apply_the_schema_like_standalone_runs() {
    // A lane's buffer gets the sibling-order cutoffs and its share of the
    // merged matcher's pruning and reach filter: per query, the batch is
    // as schema-aware as the stand-alone engine — outputs identical to
    // the blind run, peaks never worse, and in fact the very same peaks
    // and early-purge triggers as the stand-alone aware run.
    let batch: Vec<CompiledQuery> = queries::paper_queries()
        .iter()
        .map(|(_, text)| CompiledQuery::compile(text).expect("compile"))
        .collect();
    let opts = gcx::core::batch::BatchOptions {
        schema: Some(Dtd::xmark()),
        ..Default::default()
    };
    for (kb, seed) in [(96, 0x6C_78_67), (48, 42)] {
        let doc = xmark(kb, seed);
        let report = gcx::core::batch::run(&batch, &opts, doc.as_bytes()).expect("batch");
        for (((name, _), q), lane) in queries::paper_queries()
            .iter()
            .zip(&batch)
            .zip(report.queries)
        {
            let label = format!("{name} in a batch ({kb}KB seed {seed})");
            let lane = (lane.output, lane.report.expect("lane report"));
            let want = run_once(q, &blind(), doc.as_bytes());
            // A lane counts the events it received, not the scan's tokens.
            let mut blind_events = want.clone();
            blind_events.1.tokens = lane.1.tokens;
            assert_schema_free(&label, &blind_events, &lane);
            let alone = run_once(q, &aware(), doc.as_bytes()).1;
            assert_eq!(
                lane.1.buffer.peak_live_bytes, alone.buffer.peak_live_bytes,
                "{label}: lane peak differs from the stand-alone aware run"
            );
            let (l, a) = (lane.1.schema.unwrap(), alone.schema.unwrap());
            assert_eq!(
                (l.early_scan_ends, l.early_signoffs),
                (a.early_scan_ends, a.early_signoffs),
                "{label}: early-purge triggers differ from the stand-alone aware run"
            );
        }
    }
}

/// Early-purge trigger counts on a fixed document. These are the paper's
/// "earliest emission" discipline made measurable: if a refactor silently
/// stops triggering (outputs stay right, counters go to 0), this fails.
#[test]
fn early_purge_trigger_counts_are_pinned() {
    let doc = xmark(48, 42);
    // (query, early_scan_ends, early_signoffs) on this exact document.
    let pinned = [
        (queries::Q1, "Q1", 2u64, 39u64),
        (queries::Q6, "Q6", 34, 33),
        (queries::Q20, "Q20", 38, 55),
        (queries::extra::Q3, "Q3", 19, 54),
    ];
    for (qtext, name, scan_ends, signoffs) in pinned {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let (_, report) = run_once(&q, &aware(), doc.as_bytes());
        let s = report.schema.expect("schema report");
        assert_eq!(
            (s.early_scan_ends, s.early_signoffs),
            (scan_ends, signoffs),
            "{name}: early-purge trigger counts moved (update deliberately \
             if the analysis got sharper)"
        );
    }
}

#[test]
fn q17_prunes_the_undeclared_homepage_path() {
    // The trimmed XMark DTD declares no `homepage` under `person`, so
    // Q17's projection path for it is DTD-unsatisfiable and must be
    // dropped before the matcher is built.
    let q = CompiledQuery::compile(queries::extra::Q17).expect("compile");
    let doc = xmark(48, 42);
    let want = run_once(&q, &blind(), doc.as_bytes());
    let got = run_once(&q, &aware(), doc.as_bytes());
    assert_schema_free("Q17", &want, &got);
    let s = got.1.schema.expect("schema report");
    assert_eq!(s.pruned_paths, 1, "exactly the homepage path is pruned");
    assert_eq!(s.total_paths, 4);
}

#[test]
fn reach_filter_skips_subtrees_no_declared_ancestry_reaches() {
    // Q14 matches `//item`: schema-blind projection must speculatively
    // track every subtree a descendant item could hide in (on the lane's
    // pending chain, outside the buffer); the DTD pins where items live,
    // so everything else is skipped at the start tag.
    let q = CompiledQuery::compile(queries::extra::Q14).expect("compile");
    let doc = xmark(48, 42);
    let want = run_once(&q, &blind(), doc.as_bytes());
    let got = run_once(&q, &aware(), doc.as_bytes());
    assert_schema_free("Q14", &want, &got);
    // The peak used to improve strictly (2081 → 1728 bytes here, 1519 →
    // 206 appends); the blind engine now gets to 1728 / 206 by keeping
    // role-less ancestors out of the buffer, so the peak contract is the
    // `<=` of `assert_schema_free` (`tests/lazy_prefix.rs` pins the
    // equality) and the schema's part is the skipping.
    assert_reach_pays("Q14", &q, &doc, &want.1, &got.1);
}

#[test]
fn doctype_declaration_is_adopted_from_the_stream() {
    let plain = xmark(48, 42);
    let with_dtd = xmark_doctype(48, 42);
    assert_ne!(plain, with_dtd, "generator must have emitted a DOCTYPE");
    for (name, qtext) in queries::paper_queries() {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let base = run_once(&q, &blind(), plain.as_bytes());
        let adopted = run_once(&q, &blind(), with_dtd.as_bytes());
        // The declaration is not query-visible data: outputs identical.
        assert_eq!(
            adopted.0, base.0,
            "{name}: DOCTYPE adoption changed the output"
        );
        let s = adopted
            .1
            .schema
            .expect("adopted run carries a schema report");
        assert!(s.doctype_adopted, "{name}: doctype_adopted must be set");
        assert!(
            adopted.1.buffer.peak_live_bytes <= base.1.buffer.peak_live_bytes,
            "{name}: adoption raised the peak"
        );
    }
}

/// An explicit `--schema` wins over (and suppresses) in-stream adoption:
/// the report must say the facts came from the option, not the document.
#[test]
fn explicit_schema_suppresses_doctype_adoption() {
    let with_dtd = xmark_doctype(24, 5);
    let q = CompiledQuery::compile(queries::Q6).expect("compile");
    let (out, report) = run_once(&q, &aware(), with_dtd.as_bytes());
    let s = report.schema.expect("schema report");
    assert!(!s.doctype_adopted, "explicit schema must win");
    let baseline = run_once(&q, &blind(), with_dtd.as_bytes());
    assert_eq!(out, baseline.0);
}
