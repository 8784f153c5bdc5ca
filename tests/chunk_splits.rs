//! Chunk-boundary corpora for the sans-IO engine: how the input bytes are
//! chunked is invisible — outputs, token counts and buffer peaks equal a
//! single-shot [`gcx::run`] wherever the feed boundaries land, inside a
//! tag, a multi-byte UTF-8 sequence or a CDATA section. The differential
//! matrix (`tests/common/matrix.rs`) runs 1-, 7- and 64-byte feeds and
//! seeded splits on every corpus; this suite adds the paper's micro
//! documents under the running bib query, all 11 paper queries on an
//! XMark document, a document dense with multi-byte text and CDATA,
//! documents with whitespace around the document element, and every
//! two-way split of the small ones.
//!
//! The session's measurements are also held against a token-by-token
//! reference that drives a lane by hand, in gcx-core's own tests
//! (`driver_reference.rs`).

mod common;

use common::{assert_chunked, cases, compile, contract, run_split, whole, xmark};
use gcx::xmark::queries::{self, paper_queries};
use gcx::xmark::{microdoc, microdoc_article_heavy, microdoc_book_heavy, MicroKind};
use gcx::EngineOptions;

/// The paper's Figure 3 documents plus a mixed one.
fn microdocs() -> Vec<String> {
    use MicroKind::{Article, Book};
    vec![
        microdoc_article_heavy(),
        microdoc_book_heavy(),
        microdoc(&[Book, Article, Book, Book, Article]),
    ]
}

/// The running bib query (Figure 1) plus shapes with predicates and
/// aggregates.
const BIB: [&str; 4] = [
    queries::RUNNING_EXAMPLE,
    "for $b in /bib/book return $b",
    "for $t in /bib/book/title return $t",
    "count(/bib/book)",
];

/// Multi-byte text (α: 2 bytes, 漢: 3, 🚀: 4), CDATA with markup-like
/// content, entities and attributes.
const UTF8: &str = "<bib><book lang=\"ελ\"><title>αβγ 漢字 🚀&amp;done</title>\
                    <note><![CDATA[x < y & <fake>]]></note></book>\
                    <book><title>t&#13;2</title></book></bib>";

const UTF8_QUERIES: [&str; 3] = [
    "for $t in /bib/book/title return $t",
    "for $b in /bib/book return $b",
    "for $n in /bib/book/note return $n/text()",
];

/// Whitespace before and after the document element, which the tokenizer
/// lets through (any other text there is an error), is no node of the
/// document: the virtual root holds the one element alone, as in the DOM
/// oracle, so a scan under the root is over once it has seen it. (Each
/// document ends in markup: text at the end of input is held until
/// `finish`.)
const AROUND_THE_ROOT: [&str; 2] = [
    "\n  <a>x<b/></a>\n  <!-- end -->",
    " <?pi x?> <a/>\n<!--c-->",
];

const ROOT_CHILDREN: [&str; 5] = [
    "/node()",
    "/node()[1]",
    "<r>{ count(/node()) }</r>",
    "for $t in /text() return <t/>",
    "<r>{ count(//text()) }</r>",
];

/// Every cut of `doc` into two feeds equals the whole run.
fn every_two_way_split(queries: &[&str], doc: &str) {
    for text in queries {
        let q = compile(text);
        let want = whole(&q, &EngineOptions::gcx(), doc);
        for cut in 0..=doc.len() {
            let got = run_split(&q, &EngineOptions::gcx(), doc, &[cut]);
            assert_chunked(&format!("{text}, cut at {cut}"), &want, &got);
        }
    }
}

#[test]
fn every_two_way_split_of_every_microdoc() {
    for doc in microdocs() {
        every_two_way_split(&BIB, &doc);
    }
}

#[test]
fn one_byte_chunks_and_random_splits_microdocs() {
    contract(&cases(&BIB, &microdocs(), None));
}

#[test]
fn all_paper_queries_over_xmark_at_arbitrary_boundaries() {
    let texts: Vec<&str> = paper_queries().iter().map(|q| q.1).collect();
    contract(&cases(&texts, &[xmark(48, 42)], None));
}

#[test]
fn unsplit_runs_carry_no_spillover() {
    // One feed of the whole document: one feed call, and no partial token
    // held across a boundary, for there is none.
    for doc in microdocs() {
        for text in BIB {
            let q = compile(text);
            let got = run_split(&q, &EngineOptions::gcx(), &doc, &[]);
            assert_chunked(text, &whole(&q, &EngineOptions::gcx(), &doc), &got);
            assert_eq!(got.report.max_pending_bytes, 0, "{text}");
        }
    }
}

#[test]
fn whitespace_around_the_document_element_is_no_node() {
    contract(&cases(&ROOT_CHILDREN, &AROUND_THE_ROOT, None));
}

#[test]
fn boundaries_inside_utf8_and_cdata_are_invisible() {
    contract(&cases(&UTF8_QUERIES, &[UTF8], None));
    every_two_way_split(&UTF8_QUERIES, UTF8);
}
