//! Lazy prefix materialisation, end to end: an element the projection
//! keeps without a role (a speculative ancestor under `//`, a path
//! prefix) stays out of the buffer until a descendant earns a role — and
//! nothing observable but the buffer counts may tell.
//!
//! For the 11 paper queries plus four that put `//` and `[k]` where a
//! pending parent hurts most, over the shared adversarial document corpus
//! (`crates/xml/tests/common`) and an XMark document, at chunk sizes 1, 7,
//! 64 and whole, stand-alone and as a lane of a batch:
//!
//! * output == the DOM oracle == full buffering (which has no projection
//!   and appends everything at its start tag);
//! * the buffer received exactly the nodes that carry a role or stand
//!   above one — counted by a walk with the projection matcher alone,
//!   not read off the run;
//! * buffer peaks never above what an eager append reached.
//!
//! And, on XMark: the schema-blind engine reaches the schema-aware peak
//! on all 11 paper queries (the table `tests/schema_differential.rs`
//! used to assert as a strict difference), while sibling-order cutoffs
//! noted under a parent that was still pending fire as often as they did
//! when the parent was appended at once.

mod common;

use common::{pending_corpus as corpus, without_doctype, xmark};
use gcx::core::batch::{BatchOptions, BatchSession};
use gcx::schema::Dtd;
use gcx::xmark::queries;
use gcx::{CompiledQuery, EngineOptions, RunReport};

/// `//` below `//`, a positional predicate under a speculative parent,
/// text under `//`, and a whole-subtree copy from anywhere.
const EXTRA: [(&str, &str); 4] = [
    ("//a//b", "for $v in //a//b return $v"),
    ("//a/b[2]", "for $v in //a/b[2] return $v"),
    ("/r//x/text()", "for $t in /r//x/text() return $t"),
    ("//a", "for $v in //a return $v"),
];

fn all_queries() -> Vec<(&'static str, &'static str)> {
    let mut all = queries::paper_queries().to_vec();
    all.extend(EXTRA);
    all
}

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

/// Nodes of `doc` that carry a role of `q` or stand above a node that
/// does — what the buffer must be handed, no more — by a walk with the
/// matcher alone.
fn needed_nodes(q: &CompiledQuery, doc: &str) -> u64 {
    common::project(q, None, doc).needed
}

#[test]
fn outputs_and_buffer_contents_over_the_corpus() {
    // The generated documents may carry a DOCTYPE; its adoption is another
    // suite's subject.
    let docs: Vec<String> = corpus().iter().map(|d| without_doctype(d)).collect();
    let compiled: Vec<(&str, &str, CompiledQuery)> = all_queries()
        .into_iter()
        .map(|(name, text)| (name, text, CompiledQuery::compile(text).expect(name)))
        .collect();
    let batch: Vec<CompiledQuery> = compiled.iter().map(|(.., q)| q.clone()).collect();
    let (gcx, full) = (EngineOptions::gcx(), EngineOptions::full_buffering());
    for (d, doc) in docs.iter().enumerate() {
        let bytes = doc.as_bytes();
        let mut alone = Vec::new();
        for (name, text, q) in &compiled {
            let label = format!("{name} on document {d}");
            let oracle = gcx::dom::run_query(text, doc).expect("oracle");
            let (eager_out, eager) = fed(q, &full, bytes, bytes.len().max(1));
            assert_eq!(eager_out, oracle.as_bytes(), "{label}: full buffering");
            let needed = needed_nodes(q, doc);
            for chunk in [1, 7, 64, bytes.len().max(1)] {
                let (out, report) = fed(q, &gcx, bytes, chunk);
                assert_eq!(out, oracle.as_bytes(), "{label}, chunks of {chunk}");
                assert_eq!(
                    report.buffer.allocated, needed,
                    "{label}, chunks of {chunk}: the buffer was handed a node \
                     that neither carries a role nor stands above one (or \
                     was denied one that does)"
                );
                assert_eq!(report.buffer.live, 0, "{label}: must drain");
                assert!(
                    report.buffer.peak_live <= eager.buffer.peak_live
                        && report.buffer.peak_live_bytes <= eager.buffer.peak_live_bytes,
                    "{label}: peak above the eager engine's"
                );
                if chunk == 1 {
                    alone.push(report);
                }
            }
        }
        // The same queries as lanes of one batch.
        for chunk in [1, 7, 64, bytes.len().max(1)] {
            let mut session = BatchSession::new(&batch, &BatchOptions::default());
            for piece in bytes.chunks(chunk) {
                session.feed(piece).expect("batch feed");
            }
            let report = session.finish().expect("batch");
            for (((name, text, _), lane), alone) in compiled.iter().zip(report.queries).zip(&alone)
            {
                let label = format!("{name} on document {d} as a lane, chunks of {chunk}");
                let oracle = gcx::dom::run_query(text, doc).expect("oracle");
                assert_eq!(lane.output, oracle.as_bytes(), "{label}");
                let lane = lane.report.expect("lane report");
                assert_eq!(
                    (
                        lane.buffer.allocated,
                        lane.buffer.peak_live,
                        lane.buffer.peak_live_bytes
                    ),
                    (
                        alone.buffer.allocated,
                        alone.buffer.peak_live,
                        alone.buffer.peak_live_bytes
                    ),
                    "{label}: differs from the stand-alone run"
                );
            }
        }
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
    for (query, want) in [
        ("for $v in //a/b[2] return $v", "<b>2</b><b>4</b>"),
        ("for $v in /r/a/*[4] return $v", "<b>2</b>"),
        ("for $v in /r/a[3]/b[2] return $v", "<b>4</b>"),
    ] {
        let q = CompiledQuery::compile(query).unwrap();
        assert_eq!(gcx::dom::run_query(query, doc).unwrap(), want, "{query}");
        for chunk in [1, 7, doc.len()] {
            let (out, report) = fed(&q, &EngineOptions::gcx(), doc.as_bytes(), chunk);
            assert_eq!(out, want.as_bytes(), "{query}, chunks of {chunk}");
            assert_eq!(report.buffer.allocated, needed_nodes(&q, doc), "{query}");
        }
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
/// appends fall to 21, and the peaks from 8 nodes / 761 bytes to 6 / 446.
const Q13_ROWS: [(u64, u64, u64); 2] = [(8, 761, 33), (6, 446, 21)];

#[test]
fn blind_peaks_equal_aware_peaks_and_pending_cutoffs_fire() {
    let doc = xmark(48, 42);
    let blind = EngineOptions::gcx();
    let aware = EngineOptions::gcx().with_schema(Dtd::xmark());
    for ((name, text), (pinned, scan_ends, signoffs)) in
        queries::paper_queries().into_iter().zip(EAGER_TRIGGERS)
    {
        assert_eq!(name, pinned);
        let q = CompiledQuery::compile(text).unwrap();
        let (blind_out, b) = fed(&q, &blind, doc.as_bytes(), 4096);
        let (aware_out, a) = fed(&q, &aware, doc.as_bytes(), 4096);
        assert_eq!(blind_out, aware_out, "{name}");
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
