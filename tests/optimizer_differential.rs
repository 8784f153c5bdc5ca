//! Optimizer corpora: the optimizer's contract is bit-identical observable
//! behaviour — `CompiledQuery::compile` (optimized) and
//! `compile_opts(text, false)` (the direct lowering) give the same output,
//! tokens and buffer counts, because its one rewrite, the hash join, may
//! only change *how* the plan executes. The differential matrix's
//! unoptimised-plan axis holds that, at every chunking, on every corpus;
//! this suite adds all 11 paper queries on XMark documents (the hash join
//! on Q8), the join queries in 1-byte feeds, `exists` probes that repeat
//! over the same region in a loop, an identity `self::node()` step, and
//! the running bib example — and pins that the join is the one rewrite.

mod common;

use common::{cases, compile, contract, xmark};
use gcx::xmark::{microdoc, queries, MicroKind};
use gcx::CompiledQuery;

fn paper_texts() -> Vec<&'static str> {
    queries::paper_queries().iter().map(|q| q.1).collect()
}

#[test]
fn all_paper_queries_agree_on_xmark() {
    // (`tests/chunk_splits.rs` runs them on `xmark(48, 42)`.)
    contract(&cases(&paper_texts(), &[xmark(96, 0x6C_78_67)], None));
}

#[test]
fn hash_join_pass_fires_on_q8() {
    let unopt = CompiledQuery::compile_opts(queries::Q8, false).unwrap();
    assert!(
        unopt.opt.is_none(),
        "unoptimized artifact carries no report"
    );
    let opt = compile(queries::Q8);
    let report = opt.opt.as_ref().expect("optimized artifact has a report");
    let join = report
        .passes
        .iter()
        .find(|p| p.name == "hash-join")
        .expect("hash-join pass ran");
    assert!(join.changes > 0, "Q8's value join must be rewritten");
}

/// A join-shaped inner loop over a root path whose `else` branch writes:
/// every pair must still be visited, so the join may not rewrite it.
const ELSE_BRANCH: &str = "<r>{ for $b in /site/closed_auctions/closed_auction/buyer return \
     for $p in /site/people/person return \
       if ($p/@id = $b/@person) then $p/name else <z/> }</r>";

#[test]
fn an_inner_loop_with_an_else_branch_is_no_join() {
    let opt = compile(ELSE_BRANCH).program.listing();
    let unopt = CompiledQuery::compile_opts(ELSE_BRANCH, false).unwrap();
    assert_eq!(opt, unopt.program.listing(), "the direct lowering");
    contract(&cases(&[ELSE_BRANCH], &[xmark(24, 11)], None));
}

#[test]
fn only_the_join_rewrites_a_plan() {
    for (name, text) in queries::paper_queries() {
        let opt = compile(text).program.listing();
        let unopt = CompiledQuery::compile_opts(text, false).unwrap();
        let unopt = unopt.program.listing();
        if name == "Q8" {
            assert_ne!(opt, unopt, "Q8's join is rewritten");
        } else {
            assert_eq!(opt, unopt, "{name}: the plan is the direct lowering");
        }
    }
}

/// Shapes where a probe or a step repeats the same work each iteration:
/// a root `exists` in a loop (true and false), an outer variable's
/// `exists` in an inner loop, its negation, and an identity step.
const REPEATED_PROBES: [&str; 5] = [
    "<r>{ for $p in /site/people/person return \
       if (exists(/site/open_auctions/open_auction)) then <y/> else <n/> }</r>",
    "<r>{ for $p in /site/people/person return \
       if (exists(/site/nothing)) then <y/> else <n/> }</r>",
    "<r>{ for $a in /site/open_auctions/open_auction return \
       for $b in $a/bidder return \
         if (exists($a/reserve)) then <y/> else <n/> }</r>",
    "<r>{ for $a in /site/open_auctions/open_auction return \
       for $b in $a/bidder return \
         if (not(exists($a/reserve))) then <y/> else <n/> }</r>",
    "<r>{ for $p in /site/people/self::node()/person return $p/name }</r>",
];

#[test]
fn repeated_probes_agree_with_the_oracle() {
    contract(&cases(&REPEATED_PROBES, &[xmark(24, 11)], None));
}

#[test]
fn optimized_plans_are_chunk_boundary_blind() {
    contract(&cases(&paper_texts(), &[xmark(48, 7)], None));
}

#[test]
fn one_byte_chunks_on_the_join_query() {
    // 1-byte chunks maximize suspension churn through the join build and
    // probe loops.
    let texts = [queries::Q8, queries::Q20, queries::Q13];
    contract(&cases(&texts, &[xmark(16, 3)], None));
}

/// Two joins over [`join_key_doc`]: element keys, where an entry or a
/// probe may have several values, and attribute keys, Q8's shape.
const JOIN_KEYS: [&str; 2] = [
    "<r>{ for $p in /d/people/p return <m>{ $p/n, \
       for $b in /d/buys/b return if ($b/k = $p/v) then $b/i else () }</m> }</r>",
    "<r>{ for $p in /d/people/p return <m>{ $p/n, \
       for $b in /d/buys/b return if ($b/@k = $p/@v) then $b/i else () }</m> }</r>",
];

/// Buyers (`b`, each with its keys `k`) and persons (`p`, each with its
/// probe values `v`), in both element and attribute form. The keys cover
/// the join index's pair rule and its layout: numeric keys equal in value
/// but not in text, `-0` against `0`, `NaN`, infinities, an empty key,
/// non-ASCII keys (two spellings of `é` among them), a key with an
/// escaped character, a 200-byte key (a two-byte length), an entry with
/// two equal keys and one with two different keys (which one probe hits
/// with both its values), numeric and non-numeric keys with the same
/// text, and 3 200 more distinct keys, so that both of its tables grow
/// several times.
fn join_key_doc() -> String {
    let long = "x".repeat(200);
    let special: Vec<Vec<&str>> = vec![
        vec!["1"],
        vec!["1.0"],
        vec![" 01 "],
        vec!["1e0"],
        vec!["0"],
        vec!["-0"],
        vec!["NaN"],
        vec!["inf"],
        vec!["infinity"],
        vec![""],
        vec!["ключ"],
        vec!["日本語"],
        vec!["\u{e9}"],
        vec!["e\u{301}"],
        vec!["a&amp;b"],
        vec![&long],
        vec!["dup", "dup"],
        vec!["left", "right"],
        vec!["7x", "7"],
    ];
    let probes: [&[&str]; 19] = [
        &["1"],
        &["1.00"],
        &["0"],
        &["-0.0"],
        &["NaN"],
        &["INF"],
        &[""],
        &["ключ"],
        &["e\u{301}"],
        &["a&amp;b"],
        &[&long],
        &[&long[1..]],
        &["dup"],
        &["left", "right"],
        &["7x"],
        &["7.0"],
        &["k16", "1501.5"],
        &["k3198", "k3200"],
        &["nothing"],
    ];
    let mut doc = String::from("<d><people>");
    for (i, values) in probes.iter().enumerate() {
        // The attribute form carries the first value.
        doc.push_str(&format!("<p v=\"{}\"><n>{i}</n>", values[0]));
        for v in *values {
            doc.push_str(&format!("<v>{v}</v>"));
        }
        doc.push_str("</p>");
    }
    doc.push_str("</people><buys>");
    let mut entries: Vec<Vec<String>> = (0..3200)
        .map(|i| match i % 2 {
            0 => vec![format!("k{i}")],
            _ => vec![format!("{i}.5")],
        })
        .collect();
    // The special keys in among the bulk, so that their entries spread.
    for (n, keys) in special.iter().enumerate() {
        entries.insert(n * 150, keys.iter().map(|k| k.to_string()).collect());
    }
    for (i, keys) in entries.iter().enumerate() {
        // The attribute form carries the first key.
        doc.push_str(&format!("<b k=\"{}\">", keys[0]));
        for k in keys {
            doc.push_str(&format!("<k>{k}</k>"));
        }
        doc.push_str(&format!("<i>{i}</i></b>"));
    }
    doc.push_str("</buys></d>");
    doc
}

#[test]
fn join_keys_agree_with_the_oracle() {
    for text in JOIN_KEYS {
        let report = compile(text).opt.expect("optimized artifact has a report");
        let join = report.passes.iter().find(|p| p.name == "hash-join");
        assert!(join.is_some_and(|p| p.changes > 0), "{text}: no hash join");
    }
    // Most probes find an entry, some several.
    for seen in contract(&cases(&JOIN_KEYS, &[join_key_doc()], None)) {
        assert!(seen.output.matches("<i>").count() >= 20, "{}", seen.output);
    }
}

#[test]
fn bib_running_example_agrees() {
    use MicroKind::{Article, Book};
    let docs = [
        microdoc(&[Book, Article, Book, Book, Article]),
        microdoc(&[Article, Article]),
        microdoc(&[Book]),
    ];
    contract(&cases(&[queries::RUNNING_EXAMPLE], &docs, None));
}
