//! Optimizer differential suite: the optimizer's contract is
//! **bit-identical observable behaviour** — `CompiledQuery::compile`
//! (optimized) and `compile_opts(text, false)` (naive lowering) must
//! produce the same output bytes, the same token counts and the same
//! buffer peaks, because its one rewrite (the hash join) is only allowed
//! to change *how* the plan executes, never *what* it buffers or emits.
//!
//! Coverage:
//!
//! * all 11 paper queries over generated XMark documents (two sizes,
//!   two seeds) — this exercises the hash-join path on Q8;
//! * every other paper query's plan is left exactly as lowered;
//! * the same pairs driven through the sans-IO session under seeded
//!   random chunk splits and 1-byte chunks — the join build/probe and
//!   wait-based batching must be boundary-blind too;
//! * `exists` probes that repeat over the same region in a loop, and an
//!   identity `self::node()` step, against the DOM oracle;
//! * the paper's bib microdocs under the running Figure 1 query.

mod common;

use common::generated::XorShift;
use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions, RunReport};

fn xmark(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024);
    cfg.seed = seed;
    generate_string(&cfg)
}

/// Single-shot run through the blocking wrapper.
fn run_once(q: &CompiledQuery, doc: &[u8]) -> (Vec<u8>, RunReport) {
    let mut out = Vec::new();
    let report = gcx::run(q, &EngineOptions::gcx(), doc, &mut out).expect("run");
    (out, report)
}

/// Push `doc` through an `EvalSession` cut at `splits` (ascending offsets).
fn run_split(q: &CompiledQuery, doc: &[u8], splits: &[usize]) -> (Vec<u8>, RunReport) {
    let mut session = q.session(&EngineOptions::gcx());
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

/// The optimizer contract: output AND measurements are unchanged.
fn assert_equiv(label: &str, unopt: &(Vec<u8>, RunReport), opt: &(Vec<u8>, RunReport)) {
    assert_eq!(
        opt.0, unopt.0,
        "{label}: optimized output differs from unoptimized"
    );
    assert_eq!(opt.1.tokens, unopt.1.tokens, "{label}: token count differs");
    assert_eq!(
        opt.1.buffer.peak_live, unopt.1.buffer.peak_live,
        "{label}: peak buffered nodes differ"
    );
    assert_eq!(
        opt.1.buffer.peak_live_bytes, unopt.1.buffer.peak_live_bytes,
        "{label}: peak buffer bytes differ"
    );
    assert_eq!(
        opt.1.buffer.allocated, unopt.1.buffer.allocated,
        "{label}: allocation count differs"
    );
    assert_eq!(
        opt.1.output_bytes, unopt.1.output_bytes,
        "{label}: output_bytes differs"
    );
}

/// Compile one query both ways.
fn compile_pair(text: &str) -> (CompiledQuery, CompiledQuery) {
    let opt = CompiledQuery::compile(text).expect("compile (optimized)");
    let unopt = CompiledQuery::compile_opts(text, false).expect("compile (unoptimized)");
    (opt, unopt)
}

#[test]
fn all_paper_queries_agree_on_xmark() {
    for (kb, seed) in [(96, 0x6C_78_67), (48, 42)] {
        let doc = xmark(kb, seed);
        for (name, qtext) in queries::paper_queries() {
            let (opt, unopt) = compile_pair(qtext);
            let want = run_once(&unopt, doc.as_bytes());
            let got = run_once(&opt, doc.as_bytes());
            assert_equiv(&format!("{name} ({kb}KB seed {seed})"), &want, &got);
        }
    }
}

#[test]
fn hash_join_pass_fires_on_q8() {
    let (opt, unopt) = compile_pair(queries::Q8);
    assert!(
        unopt.opt.is_none(),
        "unoptimized artifact carries no report"
    );
    let report = opt.opt.as_ref().expect("optimized artifact has a report");
    let join = report
        .passes
        .iter()
        .find(|p| p.name == "hash-join")
        .expect("hash-join pass ran");
    assert!(join.changes > 0, "Q8's value join must be rewritten");
}

#[test]
fn only_the_join_rewrites_a_plan() {
    for (name, qtext) in queries::paper_queries() {
        let (opt, unopt) = compile_pair(qtext);
        let (opt, unopt) = (opt.program.listing(), unopt.program.listing());
        if name == "Q8" {
            assert_ne!(opt, unopt, "Q8's join is rewritten");
        } else {
            assert_eq!(opt, unopt, "{name}: the plan is the direct lowering");
        }
    }
}

/// Shapes where a probe or a step repeats the same work each iteration:
/// a root `exists` in a loop (true and false), an outer variable's
/// `exists` in an inner loop, its negation, and an identity step.
const REPEATED_PROBES: [&str; 5] = [
    "<r>{ for $p in /site/people/person return \
       if (exists(/site/open_auctions/open_auction)) then <y/> else <n/> }</r>",
    "<r>{ for $p in /site/people/person return \
       if (exists(/site/nothing)) then <y/> else <n/> }</r>",
    "<r>{ for $a in /site/open_auctions/open_auction return \
       for $b in $a/bidder return \
         if (exists($a/reserve)) then <y/> else <n/> }</r>",
    "<r>{ for $a in /site/open_auctions/open_auction return \
       for $b in $a/bidder return \
         if (not(exists($a/reserve))) then <y/> else <n/> }</r>",
    "<r>{ for $p in /site/people/self::node()/person return $p/name }</r>",
];

#[test]
fn repeated_probes_agree_with_the_oracle() {
    let doc = xmark(24, 11);
    let bytes = doc.as_bytes();
    for qtext in REPEATED_PROBES {
        let oracle = gcx::dom::run_query(qtext, &doc).expect("oracle");
        let (opt, unopt) = compile_pair(qtext);
        let want = run_once(&unopt, bytes);
        assert_eq!(want.0, oracle.as_bytes(), "{qtext}: unoptimized");
        for chunk in [1, 7, bytes.len()] {
            let splits: Vec<usize> = (chunk..bytes.len()).step_by(chunk).collect();
            let got = run_split(&opt, bytes, &splits);
            assert_equiv(&format!("{qtext}, chunks of {chunk}"), &want, &got);
        }
    }
}

#[test]
fn optimized_plans_are_chunk_boundary_blind() {
    let doc = xmark(48, 7);
    let bytes = doc.as_bytes();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for (name, qtext) in queries::paper_queries() {
        let (opt, unopt) = compile_pair(qtext);
        let want = run_once(&unopt, bytes);
        for round in 0..3 {
            let splits = rng.splits(bytes.len(), 8);
            let got = run_split(&opt, bytes, &splits);
            assert_equiv(&format!("{name} splits round {round}"), &want, &got);
        }
    }
}

#[test]
fn one_byte_chunks_on_the_join_query() {
    // 1-byte chunks maximize suspension churn through the join build and
    // probe loops; a small doc keeps the sweep fast.
    let doc = xmark(16, 3);
    let bytes = doc.as_bytes();
    let splits: Vec<usize> = (1..bytes.len()).collect();
    for qtext in [queries::Q8, queries::Q20, queries::Q13] {
        let (opt, unopt) = compile_pair(qtext);
        let want = run_once(&unopt, bytes);
        let got = run_split(&opt, bytes, &splits);
        assert_equiv("1-byte chunks", &want, &got);
    }
}

#[test]
fn bib_running_example_agrees() {
    use gcx::xmark::{microdoc, MicroKind};
    let q = r#"<r> {
        for $bib in /bib return
          (for $x in $bib/* return
             if (not(exists($x/price))) then $x else (),
           for $b in $bib/book return $b/title)
      } </r>"#;
    let (opt, unopt) = compile_pair(q);
    use MicroKind::{Article, Book};
    for doc in [
        microdoc(&[Book, Article, Book, Book, Article]),
        microdoc(&[Article, Article]),
        microdoc(&[Book]),
    ] {
        let want = run_once(&unopt, doc.as_bytes());
        let got = run_once(&opt, doc.as_bytes());
        assert_equiv("bib microdoc", &want, &got);
    }
}
