//! Lazy prefix materialisation, end to end: an element the projection
//! keeps without a role (a speculative ancestor under `//`, a path
//! prefix) stays out of the buffer until a descendant earns a role — and
//! nothing observable but the buffer counts may tell.
//!
//! The corpus: the 11 paper queries plus four that put `//` and `[k]`
//! where a pending parent hurts most, over the pending chain's documents
//! (`common::pending_corpus`), through the differential matrix. Pinned
//! beside it: the buffer received exactly the nodes that carry a role or
//! stand above one — counted by a walk with the projection matcher
//! alone, not read off the run — and, on XMark, the schema-blind engine
//! reaches the schema-aware peak on the paper queries, while
//! sibling-order cutoffs noted under a parent that was still pending fire
//! as often as they did when the parent was appended at once.

mod common;

use common::{cases, compile, contract, pending_corpus, whole, without_doctype, xmark};
use gcx::schema::Dtd;
use gcx::xmark::queries;
use gcx::{CompiledQuery, EngineOptions};

/// `//` below `//`, a positional predicate under a speculative parent,
/// text under `//`, and a whole-subtree copy from anywhere.
const EXTRA: [&str; 4] = [
    "for $v in //a//b return $v",
    "for $v in //a/b[2] return $v",
    "for $t in /r//x/text() return $t",
    "for $v in //a return $v",
];

/// Nodes of `doc` that carry a role of `q` or stand above a node that
/// does — what the buffer must be handed, no more.
fn needed_nodes(q: &CompiledQuery, doc: &str) -> u64 {
    common::project(q, None, doc).needed
}

#[test]
fn outputs_and_buffer_contents_over_the_corpus() {
    // The generated documents may carry a DOCTYPE; its adoption may let a
    // copy write more through, which `needed_nodes` does not model.
    let docs: Vec<String> = pending_corpus()
        .iter()
        .map(|d| without_doctype(d))
        .collect();
    let mut texts: Vec<&str> = queries::paper_queries().iter().map(|q| q.1).collect();
    texts.extend(EXTRA);
    let all = cases(&texts, &docs, None);
    for (case, seen) in all.iter().zip(contract(&all)) {
        assert_eq!(
            seen.report.buffer.allocated,
            needed_nodes(&compile(&case.query), &case.doc),
            "{}: the buffer was handed a node that neither carries a role \
             nor stands above one (or was denied one that does)",
            case.query
        );
    }
}

#[test]
fn positional_predicates_under_a_pending_parent_see_document_positions() {
    // `a` has no role: it is pending while its children go by. The b's
    // are counted as they pass — skipped siblings, text and a b inside a
    // skipped subtree included or not as XPath says — so b[2] is the
    // second b *child*, and `a` is materialised for it alone.
    let doc = "<r><a><x/>t<b>1</b><junk><b>no</b></junk><b>2</b><b>3</b></a>\
               <a><b>only</b></a><a><b/><b>4</b></a></r>";
    let pinned = [
        ("for $v in //a/b[2] return $v", "<b>2</b><b>4</b>"),
        ("for $v in /r/a/*[4] return $v", "<b>2</b>"),
        ("for $v in /r/a[3]/b[2] return $v", "<b>4</b>"),
    ];
    let texts = pinned.map(|(query, _)| query);
    for ((query, want), seen) in pinned.iter().zip(contract(&cases(&texts, &[doc], None))) {
        assert_eq!(seen.output, *want, "{query}");
        let needed = needed_nodes(&compile(query), doc);
        assert_eq!(seen.report.buffer.allocated, needed, "{query}");
    }
}

/// `(early_scan_ends, early_signoffs)` of the schema-aware engine over
/// `xmark(48, 42)` as counted while every kept element was appended at
/// its start tag (the commit before lazy prefix materialisation). Under
/// Q14's `//item` and Q6's `$b//item`, `site`, `regions`, the region and
/// every item ancestor are pending when most of their children go by:
/// the counts only stay put if a cutoff noted under a pending parent is
/// in force once the parent materialises.
const EAGER_TRIGGERS: [(&str, u64, u64); 11] = [
    ("Q1", 2, 39),
    ("Q6", 34, 33),
    ("Q8", 17, 0),
    ("Q13", 14, 12),
    ("Q20", 38, 55),
    ("Q2", 19, 18),
    ("Q3", 19, 54),
    ("Q14", 41, 66),
    ("Q17", 1, 0),
    ("Q19", 12, 10),
    ("Q6_COUNT", 1, 0),
];

/// The queries whose schema-blind `(peak_live, peak_live_bytes,
/// allocated)` equal their schema-aware ones: every paper query but Q13.
const BLIND_EQUALS_AWARE: [&str; 10] = [
    "Q1", "Q6", "Q8", "Q20", "Q2", "Q3", "Q14", "Q17", "Q19", "Q6_COUNT",
];

/// Q13's `(peak_live, peak_live_bytes, allocated)` schema-blind, then
/// schema-aware. Q13 copies `$i/name`, then `$i/description`, of each
/// Australian item. Blind, the loop over the item's `name` children ends
/// only at the item's end tag, so each `description` has closed before its
/// copy starts and is serialized from the buffer. Aware, the sibling-order
/// cutoff ends that loop at `payment` (the DTD allows one `name`, before
/// it), the copy of `description` starts at its start tag, and the nodes
/// only that copy needs are written through instead of appended: 33
/// appends fall to 21, and the peaks from 8 nodes / 569 bytes to 6 / 302.
/// (With 72-byte slots the peaks read 761 and 446 bytes: each peak node
/// now costs 24 bytes less, `761 − 8 × 24` and `446 − 6 × 24`.)
const Q13_ROWS: [(u64, u64, u64); 2] = [(8, 761 - 8 * 24, 33), (6, 446 - 6 * 24, 21)];

#[test]
fn blind_peaks_equal_aware_peaks_and_pending_cutoffs_fire() {
    let doc = xmark(48, 42);
    let blind = EngineOptions::gcx();
    let aware = EngineOptions::gcx().with_schema(Dtd::xmark());
    for ((name, text), (pinned, scan_ends, signoffs)) in
        queries::paper_queries().into_iter().zip(EAGER_TRIGGERS)
    {
        assert_eq!(name, pinned);
        let q = compile(text);
        let (b, a) = (
            whole(&q, &blind, &doc).report,
            whole(&q, &aware, &doc).report,
        );
        // The table: buffer discipline no longer needs the DTD.
        let rows = [&b, &a].map(|r| {
            (
                r.buffer.peak_live,
                r.buffer.peak_live_bytes,
                r.buffer.allocated,
            )
        });
        if name == "Q13" {
            assert_eq!(rows, Q13_ROWS, "{name}: blind and aware rows");
        } else {
            assert!(BLIND_EQUALS_AWARE.contains(&name), "{name}");
            assert_eq!(
                rows[0], rows[1],
                "{name}: the schema-blind engine must reach the schema-aware \
                 peak and append count"
            );
        }
        assert_eq!(
            a.buffer.allocated,
            common::project(&q, Some(&Dtd::xmark()), &doc).needed,
            "{name}"
        );
        assert_eq!(b.buffer.allocated, needed_nodes(&q, &doc), "{name}");
        let s = a.schema.expect("schema report");
        assert_eq!(
            (s.early_scan_ends, s.early_signoffs),
            (scan_ends, signoffs),
            "{name}: sibling-order triggers moved"
        );
    }
}

#[test]
fn a_signoff_that_reaches_a_node_twice() {
    // Nested a's: a path with two descendant steps reaches a b once below
    // each a above it, so its signOff decrements the b once per
    // derivation, with purges of the nodes walked before it in between.
    let docs = [
        "<r><a><a><b>1</b><x/><b>2<b>3</b></b></a><b>4</b></a>\
         <a><b><a><b>5</b></a></b></a><a><a><a><b>6</b><c/></a></a></a></r>",
        "<r><a><b><a><b><a><b>deep</b></a></b></a></b></a><b>out</b></r>",
    ];
    let texts = [
        "<r>{ for $x in /r return $x//a//b }</r>",
        "for $x in //a return <n>{ $x//a//b/text() }</n>",
        "for $x in /r return count($x//a//b)",
        "for $x in /r/a return ($x//a//b, $x//c)",
    ];
    contract(&cases(&texts, &docs, None));
}
