//! Differential properties over seeded generators: the central correctness
//! claim of the paper is that active garbage collection **never corrupts
//! the result** — signOffs "must not be issued too early". On random
//! documents and queries four independent evaluation strategies must
//! produce byte-identical output:
//!
//! 1. GCX (projection + active GC),
//! 2. projection only,
//! 3. full buffering (streaming evaluator, no projection, no GC),
//! 4. the independent DOM evaluator (`gcx-dom`).
//!
//! Additionally the GCX buffer must drain to zero (role/signOff balance)
//! and the peak hierarchy gcx ≤ projection-only ≤ full buffering must hold.
//!
//! Every case runs on its own generator; a failing case prints its seed
//! (`XorShift(seed)` replays it alone).

mod common;

use common::generated::{for_each_case, XorShift};
use gcx::xml::escape::escape_text;
use gcx::xml::{Token, Tokenizer, XmlWriter};
use gcx::{CompiledQuery, EngineOptions, RunReport};

/// True with probability 1/2.
fn coin(rng: &mut XorShift) -> bool {
    rng.below(2) == 0
}

// ---- random documents --------------------------------------------------------

const TAGS: &[&str] = &["a", "b", "c", "item", "name", "price"];
const TEXTS: &[&str] = &["x", "42", "7", "hello world", "a<b&c"];

/// ` id="vN"` half of the time.
fn id_attr(rng: &mut XorShift) -> String {
    if coin(rng) {
        format!(" id=\"v{}\"", rng.below(100))
    } else {
        String::new()
    }
}

/// A small element tree over a fixed tag alphabet, with attributes and
/// text, at most `depth` levels below this element.
fn element(rng: &mut XorShift, depth: u32, out: &mut String) {
    let tag = rng.pick(TAGS);
    if depth == 0 || rng.below(5) < 3 {
        // A leaf: text content or self-closing.
        let text = coin(rng).then(|| rng.pick(TEXTS));
        let attr = id_attr(rng);
        match text {
            Some(x) => out.push_str(&format!("<{tag}{attr}>{}</{tag}>", escape_text(x))),
            None => out.push_str(&format!("<{tag}{attr}/>")),
        }
        return;
    }
    let attr = id_attr(rng);
    out.push_str(&format!("<{tag}{attr}>"));
    for _ in 0..rng.below(4) {
        element(rng, depth - 1, out);
    }
    out.push_str(&format!("</{tag}>"));
}

fn document(rng: &mut XorShift) -> String {
    let mut doc = String::new();
    element(rng, 3, &mut doc);
    doc
}

// ---- random queries ----------------------------------------------------------

/// Queries over the same alphabet: a loop over a one- or two-step path,
/// with or without a condition (exists, comparisons), returning the node,
/// its text, an attribute, a constructed element or a literal.
fn query(rng: &mut XorShift) -> String {
    const STEPS: &[&str] = &["a", "b", "c", "item", "name", "price", "*"];
    let axis = |rng: &mut XorShift| if rng.below(3) < 2 { "/" } else { "//" };
    let mut path = format!("{}{}", axis(rng), rng.pick(STEPS));
    if coin(rng) {
        path.push_str(axis(rng));
        path.push_str(rng.pick(STEPS));
    }
    let body = rng.pick(&["$x", "$x/text()", "$x/@id", "<hit/>", "'lit'"]);
    let cond = coin(rng).then(|| {
        rng.pick(&[
            "exists($x/price)",
            "not(exists($x/name))",
            "$x/@id = 'v7'",
            "$x/price = 42",
            "$x/name = $x/price",
            "$x/price < 50 or exists($x/@id)",
            "true()",
        ])
    });
    match cond {
        Some(c) => format!("<out>{{ for $x in {path} return if ({c}) then {body} else () }}</out>"),
        None => format!("<out>{{ for $x in {path} return {body} }}</out>"),
    }
}

// ---- the differential harness ------------------------------------------------

fn run_cfg(q: &CompiledQuery, opts: &EngineOptions, doc: &str) -> (String, RunReport) {
    let mut out = Vec::new();
    let report = gcx::run(q, opts, doc.as_bytes(), &mut out)
        .unwrap_or_else(|e| panic!("engine failed: {e}"));
    (String::from_utf8(out).unwrap(), report)
}

fn check_all_engines_agree(query_text: &str, doc: &str) {
    // One compiled artifact: the three streaming configurations execute
    // the same lowered program (gcx-ir) under different options; the DOM
    // oracle interprets the normalized AST out of the same `CompiledQuery`
    // with independent code.
    let q = CompiledQuery::compile(query_text).expect("query compiles");
    let (gcx_out, gcx_rep) = run_cfg(&q, &EngineOptions::gcx(), doc);
    let (proj_out, proj_rep) = run_cfg(&q, &EngineOptions::projection_only(), doc);
    let (full_out, full_rep) = run_cfg(&q, &EngineOptions::full_buffering(), doc);
    let mut dom_out = Vec::new();
    gcx::dom::run(&q.query, doc.as_bytes(), &mut dom_out).expect("dom run");
    let dom_out = String::from_utf8(dom_out).unwrap();

    let what = || format!("query: {query_text}\ndoc: {doc}");
    assert_eq!(gcx_out, proj_out, "gcx vs projection-only\n{}", what());
    assert_eq!(gcx_out, full_out, "gcx vs full buffering\n{}", what());
    assert_eq!(gcx_out, dom_out, "gcx vs DOM oracle\n{}", what());

    assert_eq!(
        gcx_rep.buffer.live,
        0,
        "the GCX buffer must drain (role balance)\n{}",
        what()
    );
    assert!(
        gcx_rep.buffer.peak_live <= proj_rep.buffer.peak_live,
        "gcx peak {} > projection-only peak {}\n{}",
        gcx_rep.buffer.peak_live,
        proj_rep.buffer.peak_live,
        what()
    );
    assert!(
        proj_rep.buffer.peak_live <= full_rep.buffer.peak_live,
        "projection-only peak {} > full-buffering peak {}\n{}",
        proj_rep.buffer.peak_live,
        full_rep.buffer.peak_live,
        what()
    );
}

// ---- properties --------------------------------------------------------------

#[test]
fn engines_agree_on_random_docs_fixed_queries() {
    // A fixed battery of queries exercising every construct.
    const QUERIES: &[&str] = &[
        "<r>{ for $x in /a return $x }</r>",
        "<r>{ for $x in /a/* return if (exists($x/price)) then $x/name else $x/@id }</r>",
        "for $x in //item return <i>{ $x/name, $x/price }</i>",
        "for $x in //a//b return $x/text()",
        "for $x in /a return for $y in $x/b return if ($y/@id = $x/@id) then 'eq' else 'ne'",
        "<r>{ for $x in /a/b[1] return $x, for $y in /a/b return $y/@id }</r>",
        "if (exists(//price)) then <has/> else <not/>",
        "for $x in //name return if ($x/text() = 'hello world') then $x else ()",
        "<n>{ count(//item) }</n>, <s>{ sum(//price) }</s>",
        "for $x in /a return if ($x//price >= 42 and not(exists($x/c))) then $x else ()",
    ];
    for_each_case(0x5EED_F1ED, 192, |rng| {
        let doc = document(rng);
        for q in QUERIES {
            check_all_engines_agree(q, &doc);
        }
    });
}

#[test]
fn engines_agree_on_random_queries_random_docs() {
    for_each_case(0x5EED_1234_ABCD, 4000, |rng| {
        let q = query(rng);
        let doc = document(rng);
        check_all_engines_agree(&q, &doc);
    });
}

/// Random XMark micro-documents × all 11 paper queries: the IR-executing
/// engine stays byte-identical to the DOM oracle under gcx,
/// projection-only and full-buffering options, and the peak hierarchy
/// holds.
#[test]
fn xmark_microdocs_agree_across_engines_and_oracle() {
    for_each_case(0x5EED_3A4C, 12, |rng| {
        let mut cfg = gcx::xmark::XmarkConfig::sized((4 + rng.below(44) as u64) * 1024);
        cfg.seed = rng.next();
        let doc = gcx::xmark::generate_string(&cfg);
        // A failure message carries the whole query text, which names the
        // paper query.
        for (_name, text) in gcx::xmark::queries::paper_queries() {
            check_all_engines_agree(text, &doc);
        }
    });
}

/// Tokenize, re-serialize through the writer, tokenize again: the two
/// streams describe the same document. Streams are canonical
/// (self-closing tags expand to start + end), because the writer may
/// collapse `<a></a>` into `<a/>`.
#[test]
fn tokenizer_round_trips_through_the_writer() {
    fn tokens(s: &str) -> Vec<String> {
        let mut t = Tokenizer::from_str(s);
        let mut out = Vec::new();
        while let Some(tok) = t.next_token().unwrap() {
            match tok {
                Token::StartTag(st) => {
                    let attrs: Vec<(&str, &str)> =
                        st.attrs.iter().map(|a| (a.name, a.value)).collect();
                    out.push(format!("start {} {attrs:?}", st.name));
                    if st.self_closing {
                        out.push(format!("end {}", st.name));
                    }
                }
                Token::EndTag { name } => out.push(format!("end {name}")),
                Token::Text(x) => out.push(format!("text {x}")),
                _ => {}
            }
        }
        out
    }
    for_each_case(0x5EED_7011, 192, |rng| {
        let doc = document(rng);
        let mut w = XmlWriter::new(Vec::new());
        let mut t = Tokenizer::from_str(&doc);
        while let Some(tok) = t.next_token().unwrap() {
            match tok {
                Token::StartTag(s) => {
                    w.start_element(s.name).unwrap();
                    for a in s.attrs.iter() {
                        w.attribute(a.name, a.value).unwrap();
                    }
                    if s.self_closing {
                        w.end_element().unwrap();
                    }
                }
                Token::EndTag { .. } => w.end_element().unwrap(),
                Token::Text(x) => w.text(x).unwrap(),
                _ => {}
            }
        }
        let rewritten = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(tokens(&doc), tokens(&rewritten), "rewritten: {rewritten}");
    });
}
