//! Deep-nesting regression suite: document depth must never translate into
//! native stack depth. Every walk over document structure — the tokenizer's
//! well-formedness stack, the preprojector's open list, the buffer's
//! serialization/string-value/signOff walks, the writer's element stack and
//! the DOM oracle's traversals — is iterative, so a 100k-deep document
//! flows through every engine without overflowing the (typically 8MB)
//! thread stack, which the old recursive walks did at a few tens of
//! thousands of levels. Nor does depth make the GCX configuration slow:
//! purge bookkeeping costs O(1) per event, and `count()` does not
//! atomize what it counts, so a 100k-deep document runs in linear time.

use gcx::{CompiledQuery, EngineOptions};

/// `<d><d>…x…</d></d>` with `depth` levels.
fn deep_doc(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 7 + 1);
    for _ in 0..depth {
        s.push_str("<d>");
    }
    s.push('x');
    for _ in 0..depth {
        s.push_str("</d>");
    }
    s
}

fn run_engine(q: &CompiledQuery, opts: &EngineOptions, doc: &str) -> Vec<u8> {
    let mut out = Vec::new();
    gcx::run(q, opts, doc.as_bytes(), &mut out).expect("engine run");
    out
}

fn run_dom(query: &str, doc: &str) -> Vec<u8> {
    let q = gcx::query::compile(query).unwrap();
    let mut out = Vec::new();
    gcx::dom::run(&q, doc.as_bytes(), &mut out).expect("dom run");
    out
}

#[test]
fn hundred_k_deep_document_serializes_without_overflow() {
    const DEPTH: usize = 100_000;
    let doc = deep_doc(DEPTH);
    let query = "for $v in /d return $v";
    let q = CompiledQuery::compile(query).unwrap();
    // Tokenizer → preprojector → buffer → serialize → writer, all at 100k
    // depth: with full buffering, and with projection, signOffs and
    // purging.
    for opts in [EngineOptions::full_buffering(), EngineOptions::gcx()] {
        let out = run_engine(&q, &opts, &doc);
        assert_eq!(out.len(), doc.len());
        assert_eq!(
            out,
            doc.as_bytes(),
            "deep round-trip must be byte-identical"
        );
    }
}

#[test]
fn hundred_k_deep_document_through_dom_oracle() {
    const DEPTH: usize = 100_000;
    let doc = deep_doc(DEPTH);
    let out = run_dom("for $v in /d return $v", &doc);
    assert_eq!(out, doc.as_bytes());
}

#[test]
fn hundred_k_deep_tokenizer_validates() {
    const DEPTH: usize = 100_000;
    let doc = deep_doc(DEPTH);
    let mut t = gcx::xml::Tokenizer::from_str(&doc);
    assert_eq!(t.validate_to_end().unwrap(), 2 * DEPTH as u64 + 1);
}

#[test]
fn deep_differential_gcx_vs_dom() {
    // The full GCX configuration (projection + signOffs + purging) against
    // the DOM oracle and full buffering on a deep document, then alone at
    // 100k levels, where the same queries have closed-form answers.
    const DEPTH: usize = 5_000;
    const DEEP: usize = 100_000;
    let (doc, deep) = (deep_doc(DEPTH), deep_doc(DEEP));
    for (query, at_deep) in [
        ("for $v in /d return $v", deep.clone()),
        ("for $v in /d/d/d return $v/text()", String::new()),
        ("<n>{ count(/d//d) }</n>", format!("<n>{}</n>", DEEP - 1)),
    ] {
        let q = CompiledQuery::compile(query).unwrap();
        let gcx_out = run_engine(&q, &EngineOptions::gcx(), &doc);
        let full_out = run_engine(&q, &EngineOptions::full_buffering(), &doc);
        let dom_out = run_dom(query, &doc);
        assert_eq!(gcx_out, dom_out, "gcx vs dom on {query}");
        assert_eq!(full_out, dom_out, "full-buffering vs dom on {query}");
        let deep_out = run_engine(&q, &EngineOptions::gcx(), &deep);
        assert!(
            deep_out == at_deep.as_bytes(),
            "gcx at {DEEP} levels on {query}"
        );
    }
}
