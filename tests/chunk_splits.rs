//! Chunk-boundary differential suite for the sans-IO engine.
//!
//! The push-driven `EvalSession` promises that *how* the input bytes are
//! chunked is invisible: outputs, token counts and buffer peaks are
//! bit-identical to a single-shot [`gcx::run`] no matter where the feed
//! boundaries land — including boundaries inside a tag, inside a
//! multi-byte UTF-8 sequence and inside a CDATA section. This suite pins
//! that claim over the paper's micro documents and all 11 paper queries
//! on a generated XMark document:
//!
//! * every 2-way split point of each micro document (deterministic,
//!   exhaustive — covers mid-tag and mid-entity boundaries by sweep);
//! * 1-byte chunks (every boundary at once);
//! * seeded random multi-way splits;
//! * handpicked documents with multi-byte UTF-8 and CDATA, split at every
//!   byte.
//!
//! The session's measurements — token count, both occupancy timelines,
//! peaks — are held against a token-by-token reference preprojector that
//! knows nothing of bulk skip, under the same chunkings, in gcx-core's own
//! tests (`driver_reference.rs`): the reference drives a lane by hand.

mod common;

use common::generated::XorShift;
use gcx::{CompiledQuery, EngineOptions, RunReport};
use gcx_xmark::queries::paper_queries;
use gcx_xmark::{microdoc, microdoc_article_heavy, microdoc_book_heavy, MicroKind};

/// Single-shot oracle through the blocking wrapper.
fn oracle(q: &CompiledQuery, doc: &[u8]) -> (Vec<u8>, RunReport) {
    let mut out = Vec::new();
    let report = gcx::run(q, &EngineOptions::gcx(), doc, &mut out).expect("oracle run");
    // The blocking wrapper drives the session in 64KB reads straight into
    // the tokenizer window: feed_calls counts exactly those chunks, and a
    // single-chunk run has no boundary to spill a partial token across.
    let chunks = (doc.len() as u64).div_ceil(64 * 1024);
    assert_eq!(report.feed_calls, chunks, "feed_calls != 64KB chunks read");
    if chunks <= 1 {
        assert_eq!(report.max_pending_bytes, 0, "single-chunk run cannot spill");
    }
    (out, report)
}

/// Push the document through an `EvalSession` in pieces cut at `splits`
/// (ascending byte offsets); returns (output, report).
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
    // Every feed call counts, including empty chunks from duplicate cuts
    // (the session accepted them; "nothing arrived" is itself an event).
    assert_eq!(
        report.feed_calls,
        splits.len() as u64 + 1,
        "feed_calls must count exactly the chunks fed"
    );
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

/// The invariant: chunking must be invisible in output AND measurements.
fn assert_equiv(label: &str, want: &(Vec<u8>, RunReport), got: &(Vec<u8>, RunReport)) {
    assert_eq!(got.0, want.0, "{label}: output differs");
    assert_eq!(got.1.tokens, want.1.tokens, "{label}: token count differs");
    assert_eq!(
        got.1.buffer.peak_live, want.1.buffer.peak_live,
        "{label}: peak buffered nodes differ"
    );
    assert_eq!(
        got.1.buffer.peak_live_bytes, want.1.buffer.peak_live_bytes,
        "{label}: peak buffer bytes differ"
    );
    assert_eq!(
        got.1.buffer.allocated, want.1.buffer.allocated,
        "{label}: allocation count differs"
    );
    assert_eq!(
        got.1.buffer.live, want.1.buffer.live,
        "{label}: live differs"
    );
    assert_eq!(
        got.1.output_bytes, want.1.output_bytes,
        "{label}: output_bytes differs"
    );
}

/// Micro-document corpus: the paper's Figure 3 documents plus a mixed one.
fn microdocs() -> Vec<String> {
    use MicroKind::{Article, Book};
    vec![
        microdoc_article_heavy(),
        microdoc_book_heavy(),
        microdoc(&[Book, Article, Book, Book, Article]),
    ]
}

/// The paper's running bib query (Figure 1) — the microdocs' native query —
/// plus smaller shapes that exercise predicates, attributes and exists.
fn bib_queries() -> Vec<&'static str> {
    vec![
        r#"<r> {
            for $bib in /bib return
              (for $x in $bib/* return
                 if (not(exists($x/price))) then $x else (),
               for $b in $bib/book return $b/title)
          } </r>"#,
        "for $b in /bib/book return $b",
        "for $t in /bib/book/title return $t",
        "count(/bib/book)",
    ]
}

#[test]
fn every_two_way_split_of_every_microdoc() {
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            for cut in 0..=doc.len() {
                let got = run_split(q, doc, &[cut]);
                assert_equiv(&format!("doc {di} query {qi} cut {cut}"), &want, &got);
            }
        }
    }
}

#[test]
fn one_byte_chunks_and_random_splits_microdocs() {
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            // 1-byte chunks: every boundary at once.
            let all: Vec<usize> = (1..doc.len()).collect();
            let got = run_split(q, doc, &all);
            assert_equiv(&format!("doc {di} query {qi} 1-byte"), &want, &got);
            // Seeded random multi-way splits (duplicates = empty feeds).
            for round in 0..8 {
                let splits = rng.splits(doc.len(), 5);
                let got = run_split(q, doc, &splits);
                assert_equiv(
                    &format!("doc {di} query {qi} random {round} {splits:?}"),
                    &want,
                    &got,
                );
            }
        }
    }
}

#[test]
fn all_paper_queries_over_xmark_at_arbitrary_boundaries() {
    // A real XMark document (the benchmark corpus) with all 11 paper
    // queries: chunk sizes that straddle every construct, plus random
    // splits.
    let mut cfg = gcx_xmark::XmarkConfig::sized(48 * 1024);
    cfg.seed = 42;
    let mut doc = Vec::new();
    gcx_xmark::generate(&cfg, &mut doc).expect("generate");

    let mut rng = XorShift(42);
    for (name, text) in paper_queries() {
        let q = CompiledQuery::compile(text).expect(name);
        let want = oracle(&q, &doc);
        for (label, splits) in xmark_chunkings(doc.len(), &mut rng) {
            let got = run_split(&q, &doc, &splits);
            assert_equiv(&format!("{name} {label}"), &want, &got);
        }
    }
}

/// The chunkings of the XMark tests: fixed chunk sizes that straddle
/// every construct, plus seeded random 10-way splits.
fn xmark_chunkings(len: usize, rng: &mut XorShift) -> Vec<(String, Vec<usize>)> {
    let mut all: Vec<(String, Vec<usize>)> = [1usize, 7, 64, 1024]
        .iter()
        .map(|&chunk| (format!("chunk {chunk}"), (1..len).step_by(chunk).collect()))
        .collect();
    all.extend((0..4).map(|round| (format!("random {round}"), rng.splits(len, 9))));
    all
}

#[test]
fn unsplit_runs_carry_no_spillover() {
    // One feed of the whole document: exactly one feed call, and the
    // tokenizer never holds a partial token across a boundary (there is
    // no boundary), so the spillover watermark must stay zero.
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            let got = run_split(q, doc, &[]);
            assert_equiv(&format!("doc {di} query {qi} unsplit"), &want, &got);
            assert_eq!(got.1.feed_calls, 1, "doc {di} query {qi}: one chunk fed");
            assert_eq!(
                got.1.max_pending_bytes, 0,
                "doc {di} query {qi}: unsplit run must not spill"
            );
        }
    }
}

#[test]
fn boundaries_inside_utf8_and_cdata_are_invisible() {
    // Multi-byte text (α=2 bytes, 漢=3, 🚀=4), CDATA with markup-like
    // content, entities and attributes — split at EVERY byte, so some
    // split lands inside each multi-byte sequence, inside `<![CDATA[`,
    // inside `]]>`, inside entities and inside quoted attributes.
    let doc = "<bib><book lang=\"ελ\"><title>αβγ 漢字 🚀&amp;done</title>\
               <note><![CDATA[x < y & <fake>]]></note></book>\
               <book><title>t&#13;2</title></book></bib>";
    let doc = doc.as_bytes();
    for text in [
        "for $t in /bib/book/title return $t",
        "for $b in /bib/book return $b",
        "for $n in /bib/book/note return $n/text()",
    ] {
        let q = CompiledQuery::compile(text).expect("compile");
        let want = oracle(&q, doc);
        for cut in 0..=doc.len() {
            let got = run_split(&q, doc, &[cut]);
            assert_equiv(&format!("{text} cut {cut}"), &want, &got);
        }
        // And fully byte-at-a-time.
        let all: Vec<usize> = (1..doc.len()).collect();
        let got = run_split(&q, doc, &all);
        assert_equiv(&format!("{text} 1-byte"), &want, &got);
    }
}
