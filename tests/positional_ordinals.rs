//! Positional steps read sibling ordinals, which a buffer keeps only when
//! its program has such a step (at the head of each node's payload):
//!
//! * `name[k]`, `*[k]`, `text()[k]` and `node()[k]` hold the differential
//!   matrix, over documents whose earlier siblings the projection drops —
//!   its batch lanes mix positional and plain programs;
//! * under full buffering, which holds every node whatever the query, a
//!   positional program's byte peak is a plain one's plus 12 bytes of
//!   ordinals per node.
//!
//! (`node()` and `node()[k]` also hold the projection to its text
//! children: a text child completes a `node()` step that only the copy's
//! `descendant-or-self::node()` follows.)

mod common;

use common::{cases, compile, contract, whole, xmark};
use gcx::xmark::queries;
use gcx::EngineOptions;

/// `(name, query, positional)`.
const QUERIES: [(&str, &str, bool); 8] = [
    ("name[k]", "for $a in /r/a return <x>{ $a/b[2] }</x>", true),
    ("*[k]", "for $a in /r/a return <x>{ $a/*[3] }</x>", true),
    (
        "text()[k]",
        "for $a in /r/a return <x>{ $a/text()[2] }</x>",
        true,
    ),
    (
        "node()[k]",
        "for $a in /r/a return <x>{ $a/node()[4] }</x>",
        true,
    ),
    ("Q2", queries::extra::Q2, true),
    ("plain", "for $a in /r/a return <x>{ $a/b }</x>", false),
    ("Q1", queries::Q1, false),
    (
        "node()",
        "for $a in /r/a return <x>{ $a/node() }</x>",
        false,
    ),
];

/// Siblings of every kind before the k-th, some of them projected away.
const DOCS: [&str; 2] = [
    "<r><a>t1<b>1</b><c k='v'/>t2<b>2</b><skip>s</skip>t3<b>3</b></a>\
     <a><c>only</c>u<b>x</b><!-- c --><b>y</b>v</a><a/><a>w</a></r>",
    "<r><a><z/><z/><b>one</b>p<z/>q<b>two</b><b>three</b></a></r>",
];

#[test]
fn positional_steps_equal_the_oracle_at_every_chunking() {
    for (name, text, positional) in QUERIES {
        assert_eq!(compile(text).program.positional(), positional, "{name}");
    }
    let texts = QUERIES.map(|(_, text, _)| text);
    contract(&cases(&texts, &DOCS, None));
}

#[test]
fn only_a_positional_program_pays_for_ordinals() {
    let full = EngineOptions::full_buffering();
    let mut docs = DOCS.map(String::from).to_vec();
    docs.push(xmark(32, 4242));
    for (d, doc) in docs.iter().enumerate() {
        let base = whole(&compile(QUERIES[5].1), &full, doc).report;
        for (name, text, positional) in QUERIES {
            let r = whole(&compile(text), &full, doc).report;
            let nodes = r.buffer.peak_live;
            assert_eq!(nodes, base.buffer.peak_live, "{name} on document {d}");
            let ordinals = if positional { 12 * nodes } else { 0 };
            assert_eq!(
                r.buffer.peak_live_bytes,
                base.buffer.peak_live_bytes + ordinals,
                "{name} on document {d}"
            );
        }
    }
}

#[test]
fn a_mixed_batch_gives_each_lane_its_stand_alone_run() {
    let texts = QUERIES.map(|(_, text, _)| text);
    contract(&cases(&texts, &[xmark(32, 4242)], None));
}
