//! A value use of an attribute directly on a loop variable — `$v/@a` as a
//! comparison or string-function operand, an aggregate argument or an
//! `exists` — takes no role: its owner is `$v`'s node, which `$v`'s binding
//! role keeps until the same anchor (`gcx_projection::analysis`). Nothing
//! observable but the role listing may tell.
//!
//! For XMark Q1 (`$b/@id`) and Q8 (`$p/@id`, the hash join's probe), and
//! for each shape over a generated document — `exists`, `count`/`sum`,
//! `contains`, a use inside a loop that re-runs per outer binding, a hash
//! join keyed and probed on bound attributes — beside the uses that keep
//! their role (`$x/y/@a`, an output `$x/@a`):
//!
//! * output == the DOM oracle, and the buffer drains;
//! * chunks of 1 and 7 bytes give the whole document's output and buffer
//!   counts;
//! * so does a lane of a batch over all of them, fed in 7-byte pieces.

use gcx::core::batch::{BatchOptions, BatchSession};
use gcx::{CompiledQuery, EngineOptions, RunReport};

/// `<r>` with `n` `a` elements (an `@a` on two in three, a `y` child with
/// its own `@a`) and `n` `b` elements (a `@k` and a `c` child).
fn doc(n: usize) -> String {
    let mut d = String::from("<r>");
    for i in 0..n {
        let a = if i % 3 == 2 {
            String::new()
        } else {
            format!(" a=\"{}\"", i % 4)
        };
        d.push_str(&format!(
            "<a{a}><y a=\"{}\">t{i}</y></a><b k=\"{}\"><c>c{i}</c></b>",
            (3 * i) % 4,
            i % 5
        ));
    }
    d.push_str("</r>");
    d
}

/// Shapes over [`doc`], and whether the bound attribute's use takes a role.
const SHAPES: [(&str, bool); 8] = [
    (
        "<o>{ for $x in /r/a return if (exists($x/@a)) then $x/y else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return <n>{ count($x/@a), sum($x/@a) }</n> }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return if (contains($x/@a, '1')) then $x/y else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return for $y in /r/b return \
         if ($y/@k > 2 and $x/@a = '2') then $y/c else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return for $y in /r/b return \
         if ($y/@k = $x/@a) then $y/c else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return if ($x/y/@a = '1') then 'hit' else () }</o>",
        true,
    ),
    ("<o>{ for $x in /r/a return <v>{ $x/@a }</v> }</o>", true),
    (
        "<o>{ for $x in /r/a return if ($x/@a = $x/y/@a) then $x/@a else () }</o>",
        true,
    ),
];

fn fed(q: &CompiledQuery, doc: &[u8], chunk: usize) -> (Vec<u8>, RunReport) {
    let mut session = q.session(&EngineOptions::gcx());
    for piece in doc.chunks(chunk) {
        session.feed(piece).expect("feed");
    }
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

fn buffer(r: &RunReport) -> [u64; 5] {
    let b = &r.buffer;
    [
        b.allocated,
        b.purged,
        b.peak_live,
        b.peak_live_bytes,
        b.live,
    ]
}

/// Every query against the DOM oracle over `doc`, at three chunkings and
/// as a batch lane.
fn check(queries: &[(&str, CompiledQuery)], doc: &str) {
    let bytes = doc.as_bytes();
    let mut alone = Vec::new();
    for (text, q) in queries {
        let oracle = gcx::dom::run_query(text, doc).expect("oracle");
        let (out, whole) = fed(q, bytes, bytes.len());
        assert_eq!(out, oracle.as_bytes(), "{text}");
        assert_eq!(whole.buffer.live, 0, "{text}: live at the end");
        for chunk in [1, 7] {
            let (out, report) = fed(q, bytes, chunk);
            assert_eq!(out, oracle.as_bytes(), "{text}, chunks of {chunk}");
            assert_eq!(buffer(&report), buffer(&whole), "{text}, chunks of {chunk}");
        }
        alone.push((out, whole));
    }
    let compiled: Vec<CompiledQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
    let mut session = BatchSession::new(&compiled, &BatchOptions::default());
    for piece in bytes.chunks(7) {
        session.feed(piece).expect("batch feed");
    }
    let report = session.finish().expect("batch");
    for (((text, _), lane), (out, alone)) in queries.iter().zip(report.queries).zip(&alone) {
        assert_eq!(&lane.output, out, "{text} as a lane");
        let lane = lane.report.expect("lane report");
        assert_eq!(buffer(&lane), buffer(alone), "{text} as a lane");
    }
}

fn compile(text: &str) -> CompiledQuery {
    CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

#[test]
fn bound_attribute_uses_equal_the_oracle() {
    let queries: Vec<(&str, CompiledQuery)> = SHAPES
        .iter()
        .map(|&(text, _)| (text, compile(text)))
        .collect();
    for ((text, q), (_, keeps)) in queries.iter().zip(SHAPES) {
        // Roles on `/r/a` beyond `$x`'s binding (an output's) or on
        // `/r/a/y` (`$x/y/@a`'s, which nothing else keeps).
        let listing = q.analysis.roles_listing();
        let on_a = listing.lines().filter(|l| l.ends_with(": /r/a")).count();
        let on_y = listing.lines().filter(|l| l.ends_with(": /r/a/y")).count();
        let extra = on_a - 1 + on_y;
        assert_eq!(extra > 0, keeps, "{text}\n{listing}");
    }
    assert!(queries[4].1.program.listing().contains("hashjoin"));
    for n in [12, 90] {
        check(&queries, &doc(n));
    }
}

#[test]
fn xmark_q1_and_q8_equal_the_oracle() {
    let queries = [
        ("Q1", gcx::xmark::queries::Q1),
        ("Q8", gcx::xmark::queries::Q8),
    ];
    let compiled: Vec<(&str, CompiledQuery)> = queries
        .iter()
        .map(|&(_, text)| (text, compile(text)))
        .collect();
    for ((name, _), (_, q)) in queries.iter().zip(&compiled) {
        let listing = q.analysis.roles_listing();
        assert_eq!(
            listing.matches(": /site/people/person\n").count(),
            1,
            "{name}: the binding's role alone\n{listing}"
        );
    }
    assert!(compiled[1].1.program.listing().contains("hashjoin"));
    let mut cfg = gcx::xmark::XmarkConfig::sized(48 * 1024);
    cfg.seed = 7;
    check(&compiled, &gcx::xmark::generate_string(&cfg));
}
