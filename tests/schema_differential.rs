//! Schema corpora: attaching a DTD the input is valid against is
//! observably free — output identical to the schema-blind run, under any
//! chunking — while `peak_live_bytes` never rises above the blind run's.
//! The differential matrix's schema axis holds that on every case that
//! carries a DTD; this suite gives it all 11 paper queries over XMark
//! documents with the XMark DTD (two sizes, two seeds, 1-byte feeds for
//! the cutoff-heavy queries, and as the lanes of a batch) and pins what
//! the DTD buys.
//!
//! Since lazy prefix materialisation the blind engine reaches the aware
//! peaks unaided (`tests/lazy_prefix.rs` pins the equality), so the DTD's
//! part is what it cuts and ends early: subtrees it proves item-free are
//! never shown to the matcher (`reach_cuts > 0`, strictly fewer matcher
//! visits), sibling-order cutoffs end scans and sign variables off before
//! the parent's end tag (the pinned trigger counts), Q17's undeclared
//! `person/homepage` path is pruned, and an in-stream `<!DOCTYPE site
//! [...]>` is adopted unless an explicit schema wins.

mod common;

use common::{cases, compile, contract, whole, xmark};
use gcx::schema::Dtd;
use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions, RunReport};

fn xmark_doctype(kb: u64, seed: u64) -> String {
    generate_string(&XmarkConfig {
        seed,
        ..XmarkConfig::sized(kb * 1024).with_doctype()
    })
}

fn aware() -> EngineOptions {
    EngineOptions::gcx().with_schema(Dtd::xmark())
}

/// ROADMAP findings rows 12 and 13: a root reader of the regions, then
/// one of the persons after them. Under the DTD the first reader is over
/// once `categories` opens (the virtual root holds one element), so the
/// persons stream instead of waiting for the end of input.
const ROOT_READERS: [&str; 2] = [
    "<r>{ count(/site/regions//item), count(/site/people/person) }</r>",
    "<r>{ for $x in /site/regions//item/name return $x }\
     { for $y in /site/people/person/name return $y }</r>",
];

/// The corpus: the paper queries, then [`ROOT_READERS`] (the pins zip
/// over the paper queries alone).
fn paper_texts() -> Vec<&'static str> {
    let mut texts: Vec<_> = queries::paper_queries().iter().map(|q| q.1).collect();
    texts.extend(ROOT_READERS);
    texts
}

/// What the reach filter buys on a `//` query: cut subtrees, fewer
/// matcher visits, never more appends.
fn assert_reach_pays(label: &str, q: &CompiledQuery, doc: &str, aware: &RunReport) {
    let blind = whole(q, &EngineOptions::gcx(), doc).report;
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

/// The paper queries over `doc` with the XMark DTD, through the matrix,
/// and what the reach filter buys the `//item` queries there.
fn paper_queries_with_the_dtd(doc: &str) {
    let seen = contract(&cases(&paper_texts(), &[doc], Some(&Dtd::xmark())));
    for ((name, text), seen) in queries::paper_queries().iter().zip(&seen) {
        if ["Q6", "Q14", "Q6_COUNT"].contains(name) {
            assert_reach_pays(name, &compile(text), doc, &seen.report);
        }
    }
}

#[test]
fn all_paper_queries_byte_identical_and_peaks_never_worse() {
    paper_queries_with_the_dtd(&xmark(48, 42));
}

#[test]
fn schema_runs_are_chunk_boundary_blind() {
    paper_queries_with_the_dtd(&xmark(48, 7));
}

#[test]
fn one_byte_chunks_with_schema() {
    // 1-byte chunks maximize suspension churn through the cutoff and
    // early-sign-off paths.
    let texts = [queries::Q6, queries::extra::Q14, queries::Q20];
    contract(&cases(&texts, &[xmark(16, 3)], Some(&Dtd::xmark())));
}

#[test]
fn batch_lanes_apply_the_schema_like_standalone_runs() {
    // A lane's buffer gets the sibling-order cutoffs and its share of the
    // merged matcher's pruning and reach filter: the matrix's batch axis
    // holds each lane to its stand-alone aware run, here on a document
    // too large for 1-byte feeds.
    paper_queries_with_the_dtd(&xmark(96, 0x6C_78_67));
}

/// Early-purge trigger counts on a fixed document: the paper's "earliest
/// emission" discipline made measurable. If a refactor silently stops
/// triggering (outputs stay right, counters go to 0), this fails.
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
    for (text, name, scan_ends, signoffs) in pinned {
        let s = whole(&compile(text), &aware(), &doc).report.schema;
        let s = s.expect("schema report");
        assert_eq!(
            (s.early_scan_ends, s.early_signoffs),
            (scan_ends, signoffs),
            "{name}: early-purge trigger counts moved (update deliberately \
             if the analysis got sharper)"
        );
    }
}

/// A loop over `/` binds the virtual root itself, and a signOff's region
/// needs its matches closed: neither takes the rule that a scan under the
/// root is over at the document's one element. The count's role is signed
/// off at the end of input, as without the DTD; so are the regions an
/// `exists` leaves at its first witness, under `$r` and under `/` (a
/// signOff run before the items after the witness arrive would leave them
/// holding instances, and the buffer would not drain).
#[test]
fn a_root_binding_still_waits_for_the_end_of_input() {
    let count = "for $r in / return <n>{ count($r/site/regions//item) }</n>";
    let witnesses = [
        "for $r in / return if (exists($r/site/regions//item)) then <y/> else <n/>",
        "if (exists(/site/regions//item/mailbox)) then <y/> else <n/>",
    ];
    let doc = xmark(48, 42);
    let seen = contract(&cases(&[count], &[&doc], Some(&Dtd::xmark())));
    let blind = whole(&compile(count), &EngineOptions::gcx(), &doc)
        .report
        .buffer;
    let aware = &seen[0].report.buffer;
    assert_eq!(aware.live, 0);
    assert_eq!(
        (aware.peak_live, blind.peak_live),
        (PEAK_UNDER_ROOT, PEAK_UNDER_ROOT),
        "the count's items are held to the end of input"
    );
    contract(&cases(&witnesses, &[&doc], Some(&Dtd::xmark())));
}

/// `for $r in / return <n>{ count($r/site/regions//item) }</n>` over
/// `xmark(48, 42)`, blind and under the DTD: every item with its
/// ancestors, held to the end (1 447 on `gcx generate 2 --seed 42`).
const PEAK_UNDER_ROOT: u64 = 41;

/// A content model that fixes no order ends nothing early: after `b`, an
/// `a` may still come.
#[test]
fn a_choice_content_model_ends_nothing_early() {
    let dtd = std::sync::Arc::new(
        Dtd::parse("<!ELEMENT s (a | b)*> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>").expect("dtd"),
    );
    let q = "for $s in /s return <n>{ count($s/a) }</n>";
    let seen = contract(&cases(&[q], &["<s><a/><b/><a/></s>"], Some(&dtd)));
    assert_eq!(seen[0].output, "<n>2</n>");
    let s = seen[0].report.schema.as_ref().expect("schema report");
    assert_eq!((s.early_scan_ends, s.early_signoffs), (0, 0));
}

#[test]
fn q17_prunes_the_undeclared_homepage_path() {
    // The trimmed XMark DTD declares no `homepage` under `person`, so
    // Q17's projection path for it is DTD-unsatisfiable and must be
    // dropped before the matcher is built.
    let q = compile(queries::extra::Q17);
    let s = whole(&q, &aware(), &xmark(48, 42)).report.schema;
    let s = s.expect("schema report");
    assert_eq!(s.pruned_paths, 1, "exactly the homepage path is pruned");
    assert_eq!(s.total_paths, 4);
}

#[test]
fn reach_filter_skips_subtrees_no_declared_ancestry_reaches() {
    // Q14 matches `//item`: schema-blind projection tracks every subtree
    // a descendant item could hide in (on the lane's pending chain,
    // outside the buffer); the DTD pins where items live, so everything
    // else is skipped at the start tag.
    let q = compile(queries::extra::Q14);
    let doc = xmark(48, 42);
    assert_reach_pays("Q14", &q, &doc, &whole(&q, &aware(), &doc).report);
}

#[test]
fn doctype_declaration_is_adopted_from_the_stream() {
    let plain = xmark(48, 42);
    let with_dtd = xmark_doctype(48, 42);
    assert_ne!(plain, with_dtd, "generator must have emitted a DOCTYPE");
    let seen = contract(&cases(&paper_texts(), &[&with_dtd], None));
    for ((name, text), adopted) in queries::paper_queries().iter().zip(seen) {
        let base = whole(&compile(text), &EngineOptions::gcx(), &plain);
        assert_eq!(adopted.output, base.output, "{name}");
        let s = adopted.report.schema.expect("adopted run's schema report");
        assert!(s.doctype_adopted, "{name}: doctype_adopted must be set");
        assert!(
            adopted.report.buffer.peak_live_bytes <= base.report.buffer.peak_live_bytes,
            "{name}: adoption raised the peak"
        );
    }
}

/// An explicit `--schema` wins over (and suppresses) in-stream adoption:
/// the report must say the facts came from the option, not the document.
#[test]
fn explicit_schema_suppresses_doctype_adoption() {
    let with_dtd = xmark_doctype(24, 5);
    let q = compile(queries::Q6);
    let seen = whole(&q, &aware(), &with_dtd);
    assert!(!seen.report.schema.expect("schema report").doctype_adopted);
    assert_eq!(
        seen.output,
        whole(&q, &EngineOptions::gcx(), &with_dtd).output
    );
}
