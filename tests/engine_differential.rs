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
//! and the peak hierarchy gcx ≤ projection-only ≤ full buffering must hold
//! — the differential matrix's oracle and modes axes, run here with the
//! rest of the matrix on generated corpora.
//!
//! Every case is drawn from a generator of its own; a failing case names
//! its query and document.

mod common;

use common::generated::{for_each_case, XorShift};
use common::{cases, contract};
use gcx::xml::escape::escape_text;
use gcx::xml::{Token, Tokenizer, XmlWriter};

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
    let mut docs = Vec::new();
    for_each_case(0x5EED_F1ED, 192, |rng| docs.push(document(rng)));
    contract(&cases(QUERIES, &docs, None));
}

#[test]
fn engines_agree_on_random_queries_random_docs() {
    let mut all = Vec::new();
    for_each_case(0x5EED_1234_ABCD, 4000, |rng| {
        let q = query(rng);
        all.extend(cases(&[q], &[document(rng)], None));
    });
    contract(&all);
}

/// Random XMark micro-documents × all 11 paper queries.
#[test]
fn xmark_microdocs_agree_across_engines_and_oracle() {
    let texts: Vec<&str> = gcx::xmark::queries::paper_queries()
        .iter()
        .map(|q| q.1)
        .collect();
    let mut docs = Vec::new();
    for_each_case(0x5EED_3A4C, 12, |rng| {
        let kb = 4 + rng.below(44) as u64;
        docs.push(common::xmark(kb, rng.next()));
    });
    contract(&cases(&texts, &docs, None));
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
