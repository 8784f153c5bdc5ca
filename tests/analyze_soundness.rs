//! Differential soundness of the static streamability classifier
//! (`gcx-analyze`): the class assigned *before any data arrives* must
//! dominate the buffering the engine *actually does*, for every paper
//! query, document size and chunking.
//!
//! Two directions, one implication:
//!
//! * a `Constant`/`PerItem` verdict promises the buffer peak is bounded
//!   by the largest bound item — so, on the paper queries, whose items
//!   are small, an 8x larger document must not grow the measured
//!   `peak_live` beyond noise; where a binding may be a singleton
//!   (`/site/regions`), the peak must stay within its one match;
//! * contrapositively, a query whose measured peak *does* scale must
//!   carry a `Subtree` or `Document` class (the classifier may be loose,
//!   never tight).
//!
//! The classes themselves are pinned exactly, so a classifier change
//! that silently loosens everything to `Document` fails too.

mod common;

use common::generated::XorShift;
use common::xmark;
use gcx::analyze::{analyze_program, StreamClass};
use gcx::dom::{Dom, DomId};
use gcx::schema::Dtd;
use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions};

/// Feed `doc` cut at `splits`, return the buffer's `peak_live`.
fn peak_split(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8], splits: &[usize]) -> u64 {
    let mut session = q.session(opts);
    let mut from = 0;
    for &cut in splits {
        let cut = cut.min(doc.len());
        session.feed(&doc[from..cut]).expect("feed");
        from = cut;
    }
    session.feed(&doc[from..]).expect("final feed");
    let report = session.finish().expect("finish");
    report.buffer.peak_live
}

/// Worst observed peak across a whole-document feed and two seeded
/// chunkings — the static verdict has to hold for all of them.
fn worst_peak(q: &CompiledQuery, doc: &[u8], rng: &mut XorShift) -> u64 {
    worst_peak_with(q, &EngineOptions::gcx(), doc, rng)
}

/// [`worst_peak`] under `opts`.
fn worst_peak_with(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8], rng: &mut XorShift) -> u64 {
    let mut worst = peak_split(q, opts, doc, &[]);
    for n in [3usize, 17] {
        worst = worst.max(peak_split(q, opts, doc, &rng.splits(doc.len(), n)));
    }
    worst
}

/// The expected class of every paper query. Q8 buffers both join sides
/// (`Document`); Q6_COUNT releases each item as it counts it, so one item
/// (the node, with any item nested in it) is all a match holds
/// (`PerItem`: its peak is measured equal at both document sizes);
/// everything else streams item by item. A loop over the document element
/// (`/site`) binds the whole document once (`Document`, with `GCX-ROOT`).
const EXPECTED: &[(&str, StreamClass)] = &[
    ("Q1", StreamClass::PerItem),
    ("Q6", StreamClass::PerItem),
    ("Q8", StreamClass::Document),
    ("Q13", StreamClass::PerItem),
    ("Q20", StreamClass::PerItem),
    ("Q2", StreamClass::PerItem),
    ("Q3", StreamClass::PerItem),
    ("Q14", StreamClass::PerItem),
    ("Q17", StreamClass::PerItem),
    ("Q19", StreamClass::PerItem),
    ("Q6_COUNT", StreamClass::PerItem),
    ("TWO_COUNTS", StreamClass::Subtree),
    ("COUNT_THEN_LOOP", StreamClass::Subtree),
    ("COUNT_ALL", StreamClass::Subtree),
    ("SUM_OVER_SITE", StreamClass::Document),
    ("TWO_PATHS_OVER_SITE", StreamClass::Document),
    ("LOOP_UNDER_CONDITION", StreamClass::Subtree),
    ("LOOP_BELOW_SITE", StreamClass::PerItem),
    ("COUNT_THEN_SINGLETON", StreamClass::Subtree),
    ("ATTRIBUTE_THEN_LOOP", StreamClass::PerItem),
];

/// ROADMAP findings row 3: the binding is the document element, one match
/// as big as the document. Measured to grow linearly.
const SUM_OVER_SITE: &str = "for $s in /site return sum($s//item/quantity)";

/// ROADMAP findings row 7: the document element again, with two readers
/// of its subtree in sequence. Measured to grow linearly.
const TWO_PATHS_OVER_SITE: &str =
    "for $s in /site return <r>{ $s//item/name }{ $s//person/name }</r>";

/// A loop under a condition is anchored at query end (its statement may
/// not run once per binding), so its bindings stay buffered until the
/// document ends. Measured to grow linearly.
const LOOP_UNDER_CONDITION: &str =
    "if (\"a\" = \"a\") then for $p in /site/people/person return $p/name else ()";

/// The document element bound, and nothing held across its one item: the
/// person loop is the first reader of its body, and each person is
/// signed off at the end of its iteration. Measured flat.
const LOOP_BELOW_SITE: &str = "for $s in /site return for $p in $s/people/person return $p/name";

/// A count that waits behind an earlier root reader holds its matches,
/// not their subtrees: under the XMark DTD `/site/regions` has one match,
/// so the held region is one node. Measured flat.
const COUNT_THEN_SINGLETON: &str = "<r>{ count(/site/people/person), count(/site/regions) }</r>";

/// A test of the bound node's own attribute before a loop below it: the
/// attribute is read off the node, which is there, so the loop is still
/// the first reader of the body and streams its items — blind, and under
/// the DTD, where `regions` is a singleton. Measured flat.
const ATTRIBUTE_THEN_LOOP: &str = "for $r in /site/regions return \
    (if ($r/@id = \"x\") then <x/> else (), for $i in $r//item return $i/name)";

/// Bindings of `/site/regions`, which under XMark has one match as big
/// as a section (ROADMAP findings rows 2 and 4, and two loops in its
/// body). Without a DTD it cannot be told from a binding of many small
/// items (`/site/people/person`), so it is `per-item`: bounded by the
/// largest bound item, here the one `regions`. Under the XMark DTD it is
/// a singleton, and what its body holds is held across its whole region:
/// `subtree`. Each is measured to grow linearly.
const SINGLETON_BINDINGS: [(&str, &str); 3] = [
    (
        "COUNT_PER_REGIONS",
        "for $r in /site/regions return <c>{ count($r//item) }</c>",
    ),
    (
        "EXISTS_PER_REGIONS",
        "for $s in /site/regions return if (exists($s//item/mailbox)) then <y/> else <n/>",
    ),
    (
        "TWO_LOOPS_PER_REGIONS",
        "for $r in /site/regions return (for $x in $r/africa/item return $x/name, \
         for $y in $r/asia/item return $y/name)",
    ),
];

/// Two root aggregates in sequence: the second releases nothing as it
/// goes, because its items wait in the buffer while the first one blocks
/// on its own region. Its peak is measured to grow with the document.
const TWO_COUNTS: &str = "<r>{ count(/site/people/person), count(/site/regions//item) }</r>";

/// A root count followed by a root loop: the loop's bindings wait in the
/// buffer while the count blocks. Measured to grow linearly.
const COUNT_THEN_LOOP: &str = "<r>{ count(/site/regions//item) }\
    { for $p in /site/people/person return $p/name }</r>";

/// ROADMAP findings rows 12 and 13: a root reader of the regions, then
/// one of the persons that follow them. Blind, the persons wait in the
/// buffer until the first reader's region — the whole document — ends.
const ROW_12: &str = "<r>{ count(/site/regions//item), count(/site/people/person) }</r>";
const ROW_13: &str = "<r>{ for $x in /site/regions//item/name return $x }\
    { for $y in /site/people/person/name return $y }</r>";

/// Counted elements that nest: `site` is the first match, and every
/// element below it waits for its end tag. Measured to grow linearly.
const COUNT_ALL: &str = "<c>{ count(//*) }</c>";

fn expected_class(name: &str) -> StreamClass {
    EXPECTED
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, c)| c)
        .unwrap_or_else(|| panic!("no expected class for {name}"))
}

#[test]
fn static_class_dominates_observed_peak_growth() {
    let small = xmark(64, 0x6C_78_67);
    let large = xmark(512, 0x6C_78_67);
    let xmark_dtd = Dtd::xmark();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut cases = queries::paper_queries();
    cases.push(("TWO_COUNTS", TWO_COUNTS));
    cases.push(("COUNT_THEN_LOOP", COUNT_THEN_LOOP));
    cases.push(("COUNT_ALL", COUNT_ALL));
    cases.push(("SUM_OVER_SITE", SUM_OVER_SITE));
    cases.push(("TWO_PATHS_OVER_SITE", TWO_PATHS_OVER_SITE));
    cases.push(("LOOP_UNDER_CONDITION", LOOP_UNDER_CONDITION));
    cases.push(("LOOP_BELOW_SITE", LOOP_BELOW_SITE));
    cases.push(("COUNT_THEN_SINGLETON", COUNT_THEN_SINGLETON));
    cases.push(("ATTRIBUTE_THEN_LOOP", ATTRIBUTE_THEN_LOOP));
    for (name, qtext) in cases {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let a = analyze_program(&q.program, None);
        assert_eq!(a.class, expected_class(name), "{name}: class drifted");

        // The DTD can only tighten, and only soundly: re-check dominance
        // below against whichever class is tighter.
        let with_dtd = analyze_program(&q.program, Some(&xmark_dtd)).class;
        assert!(
            with_dtd <= a.class,
            "{name}: DTD loosened {:?} -> {with_dtd:?}",
            a.class
        );
        match name {
            // `/site/regions` and `australia` are singletons under the
            // DTD, but each item is signed off per iteration.
            "Q6" | "Q13" => assert_eq!(with_dtd, StreamClass::PerItem, "{name} under the DTD"),
            "COUNT_THEN_SINGLETON" | "ATTRIBUTE_THEN_LOOP" => {
                assert_eq!(with_dtd, StreamClass::PerItem, "{name}")
            }
            "LOOP_UNDER_CONDITION" => assert_eq!(with_dtd, StreamClass::Subtree, "{name}"),
            _ => {}
        }

        let p_small = worst_peak(&q, small.as_bytes(), &mut rng);
        let p_large = worst_peak(&q, large.as_bytes(), &mut rng);
        let grows = p_large > p_small.max(8) * 2;
        match name {
            // Flat: one item node at a time at either size.
            "Q6_COUNT" => assert_eq!(p_small, p_large, "{name}: peak"),
            // Flat: nothing held across the `site` item, one held
            // `regions` node, and each item signed off in the one
            // `regions`.
            "LOOP_BELOW_SITE" | "COUNT_THEN_SINGLETON" | "ATTRIBUTE_THEN_LOOP" => {
                assert_eq!(p_small, p_large, "{name}: peak")
            }
            // Linear: the held region is 8x larger on the 8x document.
            "TWO_COUNTS"
            | "COUNT_THEN_LOOP"
            | "COUNT_ALL"
            | "SUM_OVER_SITE"
            | "TWO_PATHS_OVER_SITE"
            | "LOOP_UNDER_CONDITION" => assert!(
                p_large >= p_small * 5,
                "{name}: peak {p_small} -> {p_large} on 8x input"
            ),
            _ => {}
        }
        for class in [a.class, with_dtd] {
            if class <= StreamClass::PerItem {
                // 8x the input must not move a statically-bounded peak
                // beyond entity-size noise.
                assert!(
                    !grows,
                    "{name}: classified {class:?} but peak grew {p_small} -> {p_large} on 8x input"
                );
            }
        }
        if grows {
            // Contrapositive, stated directly so a regression report
            // names the right contract.
            assert!(
                a.class >= StreamClass::Subtree,
                "{name}: measured peak scales ({p_small} -> {p_large}) \
                 but the static class is {:?}",
                a.class
            );
        }
    }
}

/// Nodes of the largest match of the child-only path `names` in `doc`,
/// with its ancestors and the document root, counted on the DOM.
fn largest_match_with_ancestors(doc: &str, names: &[&str]) -> u64 {
    fn size(dom: &Dom, id: DomId) -> u64 {
        1 + dom.children(id).iter().map(|&c| size(dom, c)).sum::<u64>()
    }
    let dom = Dom::parse(doc.as_bytes()).expect("parse");
    let mut matches = dom.roots.clone();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            matches = matches
                .iter()
                .flat_map(|&m| dom.children(m).to_vec())
                .collect();
        }
        matches.retain(|&m| dom.name(m) == Some(name));
    }
    let largest = matches.iter().map(|&m| size(&dom, m)).max().unwrap_or(0);
    largest + names.len() as u64
}

#[test]
fn singleton_bindings_are_classed_by_their_region() {
    let small = xmark(64, 0x6C_78_67);
    let large = xmark(512, 0x6C_78_67);
    let xmark_dtd = Dtd::xmark();
    let mut rng = XorShift(0x51D3_0000_0000_0001);
    let items = [&small, &large].map(|doc| largest_match_with_ancestors(doc, &["site", "regions"]));
    for (name, qtext) in SINGLETON_BINDINGS {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let blind = analyze_program(&q.program, None).class;
        assert_eq!(blind, StreamClass::PerItem, "{name}, blind");
        let with_dtd = analyze_program(&q.program, Some(&xmark_dtd)).class;
        assert_eq!(with_dtd, StreamClass::Subtree, "{name}, under the DTD");
        let p_small = worst_peak(&q, small.as_bytes(), &mut rng);
        let p_large = worst_peak(&q, large.as_bytes(), &mut rng);
        assert!(
            p_large >= p_small * 5,
            "{name}: peak {p_small} -> {p_large} on 8x input"
        );
        // What `per-item` promises: no more than the one bound item.
        for (item, peak) in items.into_iter().zip([p_small, p_large]) {
            assert!(
                peak <= item,
                "{name}: peak {peak} above the bound item's {item} nodes"
            );
        }
    }
}

/// Under the XMark DTD, `site = (regions, categories, …, people, …)`: no
/// `regions` follows once `categories` opens, and the virtual root holds
/// one element, so a root reader of the regions is over there and the
/// persons after it stream — under an explicit schema and under an
/// in-stream DOCTYPE alike. Blind, `COUNT_THEN_LOOP` grows (above). The
/// three stay classed `subtree`: the classifier does not read DTD order.
#[test]
fn root_readers_end_where_the_dtd_order_ends_them() {
    let aware = EngineOptions::gcx().with_schema(Dtd::xmark());
    let doctype = |kb: u64| {
        generate_string(&XmarkConfig {
            seed: 0x6C_78_67,
            ..XmarkConfig::sized(kb * 1024).with_doctype()
        })
    };
    let (small, large) = (xmark(64, 0x6C_78_67), xmark(512, 0x6C_78_67));
    let (small_dt, large_dt) = (doctype(64), doctype(512));
    let mut rng = XorShift(0x0D7D_0000_0000_0015);
    for (name, qtext) in [
        ("COUNT_THEN_LOOP", COUNT_THEN_LOOP),
        ("ROW_12", ROW_12),
        ("ROW_13", ROW_13),
    ] {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let schema =
            [&small, &large].map(|doc| worst_peak_with(&q, &aware, doc.as_bytes(), &mut rng));
        assert_eq!(schema[0], schema[1], "{name}: peak under the DTD");
        let adopted = [&small_dt, &large_dt].map(|doc| worst_peak(&q, doc.as_bytes(), &mut rng));
        assert_eq!(adopted[0], adopted[1], "{name}: peak under the DOCTYPE");
        assert_eq!(
            analyze_program(&q.program, Some(&Dtd::xmark())).class,
            StreamClass::Subtree,
            "{name}: class under the DTD"
        );
    }
}

#[test]
fn document_class_queries_report_why() {
    // Every Document verdict must carry at least one warning-severity
    // lint naming the construct responsible — the admission policy's 422
    // body and the shard fallback reason are built from it.
    for (name, qtext) in queries::paper_queries() {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let a = analyze_program(&q.program, None);
        if a.class == StreamClass::Document {
            assert!(
                a.lints
                    .iter()
                    .any(|l| l.severity == gcx::analyze::Severity::Warning),
                "{name}: Document class with no warning lint"
            );
        }
    }
}
