//! Descendant search, end to end: where the innermost open element's
//! projection only waits for a few names below it (a pending `//name`
//! step), the session has the tokenizer run ahead to the next start tag of
//! one of them instead of stepping every token through the matcher and the
//! lane — and nothing observable but the time taken may tell.
//!
//! The corpus: six queries — `//` alone, under `count`, below `//`, with a
//! positional step below it, below a child step, and with a wildcard step
//! below it — over the pending chain's documents and an XMark document,
//! through the differential matrix, whose batch lanes step every token and
//! are handed the same buffer. Pinned beside it: positional steps right at
//! the search boundary — siblings split by passed subtrees and text, a
//! parent found two levels below where the search began, in a later
//! chunk — see document positions, and a deep `//` document stays inside
//! the byte budget.

mod common;

use common::{cases, compile, contract, fed, pending_corpus, run_split, without_doctype, xmark};
use gcx::core::buffer::SLOT_BYTES;
use gcx::EngineOptions;

const QUERIES: [&str; 6] = [
    "for $v in //item return $v",
    "<n>{ count(//a) }</n>",
    "for $v in //a//b return $v",
    "for $v in //a/b[2] return $v",
    "for $v in /r//x/y[2]/z return $v",
    "for $v in //a/*[2] return $v",
];

#[test]
fn searched_runs_equal_the_oracle_and_a_stepping_batch() {
    // An adopted DOCTYPE turns the search off, and the generated documents
    // may carry one.
    let mut docs: Vec<String> = pending_corpus()
        .iter()
        .map(|d| without_doctype(d))
        .collect();
    docs.push(xmark(48, 7));
    contract(&cases(&QUERIES, &docs, None));
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
    let pinned = [
        ("for $v in //a/b[2] return $v", "<b>2</b><b>7</b><b>6</b>"),
        (
            "for $v in //a/*[2] return $v",
            "<x><b>no</b></x><b>4</b><b>6</b>",
        ),
        ("for $v in /r//x/y[2]/z return $v", "<z>yes</z>"),
    ];
    let texts = pinned.map(|(query, _)| query);
    for ((query, want), seen) in pinned.iter().zip(contract(&cases(&texts, &[doc], None))) {
        assert_eq!(seen.output, *want, "{query}");
        let q = compile(query);
        for chunk in [2, 3, 5, 11] {
            let out = fed(&q, &EngineOptions::gcx(), doc, chunk).output;
            assert_eq!(out, *want, "{query}, chunks of {chunk}");
        }
        // The first `a` arrives in the feed after the one the search
        // started in, whole or cut after its `<`.
        for cut in [first_a, first_a + 1] {
            let out = run_split(&q, &EngineOptions::gcx(), doc, &[cut]).output;
            assert_eq!(out, *want, "{query}, cut at {cut}");
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
    let q = compile("for $i in //item return $i");
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
