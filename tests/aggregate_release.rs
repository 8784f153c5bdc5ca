//! Root aggregates and comparison operands release each match as they
//! consume it: a `count`, `sum`, `avg`, `min` or `max` over a path rooted
//! at `/`, outside every `for` body, runs once and reads each match once,
//! so the match loses the aggregate's role right after it is folded in,
//! not at the query-end signOff.
//!
//! For each aggregate over element-valued and `@attr`-valued root paths,
//! on generated documents of two sizes whose items all have one shape:
//!
//! * output == the DOM oracle;
//! * `peak_live_bytes` is equal at both sizes, and a 4 KiB budget is
//!   enough;
//! * chunks of 1 and 7 bytes and the whole document give the same output
//!   and buffer counts, and so does a batch lane.
//!
//! A root aggregate inside a `for` body runs once per iteration and so
//! releases nothing (every iteration counts every match); one in an
//! untaken `if` branch never runs, and the query-end signOff removes its
//! role; both leave nothing live.

use gcx::core::batch::{BatchOptions, BatchSession};
use gcx::{CompiledQuery, EngineOptions, RunReport};

/// `<r>` with `items` groups of one shape: a `v` with a fixed-width
/// numeric attribute and text, one `v` in three also holding a nested `v`
/// (so that `//v` matches nest), and one in five a non-numeric value.
fn doc(items: usize) -> String {
    let mut d = String::from("<r><h/><h/>");
    for i in 0..items {
        let n = (i * 37) % 1000;
        let text = if i % 5 == 4 {
            "n/a".to_string()
        } else {
            format!("{n:03}")
        };
        let inner = if i % 3 == 0 {
            format!("<v a=\"{:03}\">{:03}</v>", (n + 1) % 1000, (n + 2) % 1000)
        } else {
            "<w a=\"000\">000</w>".to_string()
        };
        d.push_str(&format!(
            "<g><v a=\"{:03}\"><t>{text}</t>{inner}</v><x>{n:03}</x></g>",
            (n * 7) % 1000
        ));
    }
    d.push_str("</r>");
    d
}

/// Root aggregates that release what they consume.
const RELEASED: [&str; 14] = [
    "<n>{ count(/r/g/v) }</n>",
    "<n>{ sum(/r/g/v/t) }</n>",
    "<n>{ avg(/r/g/v/t) }</n>",
    "<n>{ min(/r/g/v/t) }</n>",
    "<n>{ max(/r/g/v/t) }</n>",
    "<n>{ count(/r/g/v/@a) }</n>",
    "<n>{ sum(/r/g/v/@a) }</n>",
    "<n>{ avg(/r/g/v/@a) }</n>",
    "<n>{ min(/r/g/v/@a) }</n>",
    "<n>{ max(/r/g/v/@a) }</n>",
    "<n>{ count(//v) }</n>",
    "<n>{ sum(//v) }</n>",
    "<n>{ max(//v/@a) }</n>",
    "<n>{ sum(/r/g/x/text()) }</n>",
];

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

fn compile(text: &str) -> CompiledQuery {
    CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

#[test]
fn released_aggregates_equal_the_oracle_at_a_flat_peak() {
    let queries: Vec<CompiledQuery> = RELEASED.iter().map(|t| compile(t)).collect();
    for (text, q) in RELEASED.iter().zip(&queries) {
        assert!(q.program.listing().contains(" releasing r"), "{text}");
    }
    let gcx = EngineOptions::gcx();
    let budget = EngineOptions::gcx().with_max_buffer_bytes(4096);
    let mut peaks = vec![Vec::new(); RELEASED.len()];
    for items in [60, 480] {
        let doc = doc(items);
        let bytes = doc.as_bytes();
        let mut alone = Vec::new();
        for ((text, q), peaks) in RELEASED.iter().zip(&queries).zip(&mut peaks) {
            let label = format!("{text} over {items} items");
            let oracle = gcx::dom::run_query(text, &doc).expect("oracle");
            let (out, whole) = fed(q, &gcx, bytes, bytes.len());
            assert_eq!(out, oracle.as_bytes(), "{label}");
            assert_eq!(whole.buffer.live, 0, "{label}: live at the end");
            for chunk in [1, 7] {
                let (out, report) = fed(q, &gcx, bytes, chunk);
                assert_eq!(out, oracle.as_bytes(), "{label}, chunks of {chunk}");
                assert_eq!(
                    buffer(&report),
                    buffer(&whole),
                    "{label}, chunks of {chunk}"
                );
            }
            let (out, _) = fed(q, &budget, bytes, bytes.len());
            assert_eq!(out, oracle.as_bytes(), "{label}: under 4 KiB");
            peaks.push(whole.buffer.peak_live_bytes);
            alone.push((out, whole));
        }
        let mut session = BatchSession::new(&queries, &BatchOptions::default());
        for piece in bytes.chunks(7) {
            session.feed(piece).expect("batch feed");
        }
        let report = session.finish().expect("batch");
        for ((text, lane), (out, alone)) in RELEASED.iter().zip(report.queries).zip(&alone) {
            let label = format!("{text} over {items} items as a lane");
            assert_eq!(&lane.output, out, "{label}");
            let lane = lane.report.expect("lane report");
            assert_eq!(buffer(&lane), buffer(alone), "{label}");
        }
    }
    for (text, peaks) in RELEASED.iter().zip(peaks) {
        assert_eq!(peaks[0], peaks[1], "{text}: peak_live_bytes at both sizes");
    }
}

#[test]
fn a_root_aggregate_in_a_loop_body_counts_every_match_each_time() {
    // Two `h` bindings: each iteration counts all items, so the first may
    // not release what the second still counts.
    let text = "for $h in /r/h return <n>{ count(/r/g/v), sum(/r/g/v/@a) }</n>";
    let q = compile(text);
    assert!(
        !q.program.listing().contains("releasing"),
        "{}",
        q.explain()
    );
    let doc = doc(60);
    let oracle = gcx::dom::run_query(text, &doc).expect("oracle");
    let (first, second) = oracle.split_at(oracle.len() / 2);
    assert!(first.starts_with("<n>60") && first == second, "{oracle}");
    for chunk in [1, 7, doc.len()] {
        let (out, report) = fed(&q, &EngineOptions::gcx(), doc.as_bytes(), chunk);
        assert_eq!(out, oracle.as_bytes(), "chunks of {chunk}");
        assert_eq!(report.buffer.live, 0, "chunks of {chunk}");
    }
}

#[test]
fn untaken_branches_and_root_operands_leave_nothing_live() {
    let small = doc(60);
    let large = doc(480);
    for text in [
        // The count in the untaken branch never runs: the query-end
        // signOff removes its role from every item.
        "if (/r/g/v/@a = \"nope\") then <n>{ count(/r/g/v) }</n> else \"no\"",
        "if (/r/g/x = \"999\") then <n>{ sum(//v) }</n> else <m>{ max(/r/g/x) }</m>",
        // Root operands, both sides of one comparison and a string test.
        "if (/r/g/v/t = \"259\") then \"yes\" else \"no\"",
        "if (/r/g/x = /r/g/v/@a) then \"yes\" else \"no\"",
        "if (contains(/r/g/v/t, \"n/\")) then \"yes\" else \"no\"",
    ] {
        let q = compile(text);
        for doc in [&small, &large] {
            let oracle = gcx::dom::run_query(text, doc).expect("oracle");
            for chunk in [1, 7, doc.len()] {
                let (out, report) = fed(&q, &EngineOptions::gcx(), doc.as_bytes(), chunk);
                assert_eq!(out, oracle.as_bytes(), "{text}, chunks of {chunk}");
                assert_eq!(report.buffer.live, 0, "{text}, chunks of {chunk}");
            }
        }
    }
    // A root operand holds one match at a time, at either size.
    let q = compile("if (/r/g/v/t = \"259\") then \"yes\" else \"no\"");
    let peak = |doc: &str| {
        fed(&q, &EngineOptions::gcx(), doc.as_bytes(), doc.len())
            .1
            .buffer
            .peak_live_bytes
    };
    assert_eq!(peak(&small), peak(&large));
}
