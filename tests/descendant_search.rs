//! Descendant search, end to end: where the innermost open element's
//! projection only waits for a few names below it (a pending `//name`
//! step), the session has the tokenizer run ahead to the next start tag of
//! one of them instead of stepping every token through the matcher and the
//! lane — and nothing observable but the time taken may tell.
//!
//! For six queries — `//` alone, under `count`, below `//`, with a
//! positional step below it, below a child step, and with a wildcard step
//! below it — over the pending chain's corpus and a second XMark document,
//! at chunk sizes 1, 7, 64 and whole:
//!
//! * output == the DOM oracle == full buffering == the unoptimised plan;
//! * a batch lane, which steps every token, is handed the same buffer:
//!   `allocated`, `peak_live` and `peak_live_bytes` equal the stand-alone
//!   run's, and the batch's shared scan counts the stand-alone `tokens`.
//!
//! Positional steps right at the search boundary — siblings split by
//! passed subtrees and text, a parent found two levels below where the
//! search began, in a later chunk — see document positions. A deep `//`
//! document stays inside the byte budget on every driver.

mod common;

use common::{pending_corpus, without_doctype, xmark};
use gcx::core::batch::{BatchOptions, BatchSession};
use gcx::core::buffer::SLOT_BYTES;
use gcx::{CompiledQuery, EngineOptions, RunReport};

const QUERIES: [(&str, &str); 6] = [
    ("//item", "for $v in //item return $v"),
    ("count(//a)", "<n>{ count(//a) }</n>"),
    ("//a//b", "for $v in //a//b return $v"),
    ("//a/b[2]", "for $v in //a/b[2] return $v"),
    ("/r//x/y[2]/z", "for $v in /r//x/y[2]/z return $v"),
    ("//a/*[2]", "for $v in //a/*[2] return $v"),
];

fn fed(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8], chunk: usize) -> (Vec<u8>, RunReport) {
    let mut session = q.session(opts);
    for piece in doc.chunks(chunk) {
        session.feed(piece).expect("feed");
    }
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

#[test]
fn searched_runs_equal_the_oracle_and_a_stepping_batch() {
    // An adopted DOCTYPE turns the search off, and the generated documents
    // may carry one.
    let mut docs: Vec<String> = pending_corpus()
        .iter()
        .map(|d| without_doctype(d))
        .collect();
    docs.push(xmark(48, 7));
    let compiled: Vec<(&str, &str, CompiledQuery, CompiledQuery)> = QUERIES
        .iter()
        .map(|&(name, text)| {
            let q = CompiledQuery::compile(text).expect(name);
            let unoptimised = CompiledQuery::compile_opts(text, false).expect(name);
            (name, text, q, unoptimised)
        })
        .collect();
    let batch: Vec<CompiledQuery> = compiled.iter().map(|(_, _, q, _)| q.clone()).collect();
    let (gcx, full) = (EngineOptions::gcx(), EngineOptions::full_buffering());
    for (d, doc) in docs.iter().enumerate() {
        let bytes = doc.as_bytes();
        let whole = bytes.len().max(1);
        let mut alone = Vec::new();
        for (name, text, q, unoptimised) in &compiled {
            let label = format!("{name} on document {d}");
            let oracle = gcx::dom::run_query(text, doc).expect("oracle");
            assert_eq!(
                fed(q, &full, bytes, whole).0,
                oracle.as_bytes(),
                "{label}: full"
            );
            let (out, _) = fed(unoptimised, &gcx, bytes, whole);
            assert_eq!(out, oracle.as_bytes(), "{label}: unoptimised");
            for chunk in [1, 7, 64, whole] {
                let (out, report) = fed(q, &gcx, bytes, chunk);
                assert_eq!(out, oracle.as_bytes(), "{label}, chunks of {chunk}");
                if chunk == whole {
                    alone.push(report);
                }
            }
        }
        for chunk in [7, whole] {
            let mut session = BatchSession::new(&batch, &BatchOptions::default());
            for piece in bytes.chunks(chunk) {
                session.feed(piece).expect("batch feed");
            }
            let report = session.finish().expect("batch");
            for (((name, ..), lane), alone) in compiled.iter().zip(report.queries).zip(&alone) {
                let label = format!("{name} on document {d} as a lane, chunks of {chunk}");
                let lane = lane.report.expect("lane report");
                let buffer = |r: &RunReport| {
                    (
                        r.buffer.allocated,
                        r.buffer.peak_live,
                        r.buffer.peak_live_bytes,
                    )
                };
                assert_eq!(buffer(&lane), buffer(alone), "{label}");
                assert_eq!(report.tokens, alone.tokens, "{label}: shared-scan tokens");
            }
        }
    }
}

#[test]
fn positions_right_at_the_search_boundary_are_document_positions() {
    // The first `a` is found two levels below <r>, where the search
    // begins; its `b`s are split by text and by an `x` that, under
    // `//a/b[2]`, is searched for an `a` it does not hold (`a` itself is
    // stepped: `b[2]` counts its children). The second `a`'s children
    // include an `a` that holds two `b`s of its own.
    let doc = "<r><p k='v'><q>lead<a><b>1</b><x><b>no</b></x>text<b>2</b><b>3</b></a></q></p>\
               <a><y/>t<b>4</b><z><a><b>5</b><b>6</b></a></z><b>7</b></a>\
               <x><y>1</y><w/><y><z>yes</z></y><y><z>no</z></y></x></r>";
    let first_a = doc.find("<a>").unwrap();
    for (query, want) in [
        ("for $v in //a/b[2] return $v", "<b>2</b><b>7</b><b>6</b>"),
        (
            "for $v in //a/*[2] return $v",
            "<x><b>no</b></x><b>4</b><b>6</b>",
        ),
        ("for $v in /r//x/y[2]/z return $v", "<z>yes</z>"),
    ] {
        let q = CompiledQuery::compile(query).unwrap();
        assert_eq!(gcx::dom::run_query(query, doc).unwrap(), want, "{query}");
        for chunk in [1, 2, 3, 5, 7, 11, doc.len()] {
            let (out, _) = fed(&q, &EngineOptions::gcx(), doc.as_bytes(), chunk);
            assert_eq!(out, want.as_bytes(), "{query}, chunks of {chunk}");
        }
        // The first `a` arrives in the feed after the one the search
        // started in, whole or cut after its `<`.
        for cut in [first_a, first_a + 1] {
            let mut session = q.session(&EngineOptions::gcx());
            session.feed(&doc.as_bytes()[..cut]).unwrap();
            session.feed(&doc.as_bytes()[cut..]).unwrap();
            session.finish().unwrap();
            let mut out = Vec::new();
            session.take_output(&mut out).unwrap();
            assert_eq!(out, want.as_bytes(), "{query}, cut at {cut}");
        }
    }
}

#[test]
fn a_deep_descendant_document_stays_inside_the_budget() {
    // 100 000 nested <x> under `//item`: the search passes them unseen,
    // but each is a pending element the lane would hold, at a slot of
    // `SLOT_BYTES` — so the search hands them over once the budget's room
    // is used up, and the lane fails there. 64 KiB holds `fit` slots and
    // the name `x` (1 365 at 48 bytes): the next open element, at byte
    // 3 × (fit + 1) − 1 (4 097), crosses.
    let depth = 100_000;
    let doc = format!("{}{}", "<x>".repeat(depth), "</x>".repeat(depth));
    let q = CompiledQuery::compile("for $i in //item return $i").unwrap();
    let opts = EngineOptions::gcx().with_max_buffer_bytes(64 * 1024);
    let whole = gcx::run(&q, &opts, doc.as_bytes(), std::io::sink());
    assert!(whole.unwrap_err().is_buffer_limit());
    let mut session = q.session(&opts);
    let fed = doc.bytes().position(|b| session.feed(&[b]).is_err());
    let fit = ((64 * 1024 - 1) / SLOT_BYTES) as usize;
    assert_eq!(
        fed,
        Some((fit + 1) * 3 - 1),
        "stopped at the element that crossed"
    );
    // Without a budget nothing of it is held but the tokenizer's names.
    let mut out = Vec::new();
    let report = gcx::run(&q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
    assert!(out.is_empty());
    assert_eq!(report.tokens, 2 * depth as u64);
    assert_eq!(report.buffer.allocated, 0);
}
