//! Root aggregates and comparison operands release each match as they
//! consume it: a `count`, `sum`, `avg`, `min` or `max` over a path rooted
//! at `/`, outside every `for` body, runs once and reads each match once,
//! so the match loses the aggregate's role right after it is folded in,
//! not at the query-end signOff.
//!
//! For each aggregate over element-valued and `@attr`-valued root paths,
//! on generated documents of two sizes whose items all have one shape,
//! the differential matrix holds every axis, and `peak_live_bytes` is
//! pinned equal at both sizes, with a 4 KiB budget enough.
//!
//! A root aggregate inside a `for` body runs once per iteration and so
//! releases nothing (every iteration counts every match); one in an
//! untaken `if` branch never runs, and the query-end signOff removes its
//! role; both leave nothing live.

mod common;

use common::{cases, compile, contract, whole};
use gcx::EngineOptions;

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

#[test]
fn released_aggregates_equal_the_oracle_at_a_flat_peak() {
    for text in RELEASED {
        assert!(
            compile(text).program.listing().contains(" releasing r"),
            "{text}"
        );
    }
    let (small, large) = (doc(60), doc(480));
    let seen = contract(&cases(&RELEASED, &[&small, &large], None));
    let (small_runs, large_runs) = seen.split_at(RELEASED.len());
    let budget = EngineOptions::gcx().with_max_buffer_bytes(4096);
    for ((text, small_run), large_run) in RELEASED.iter().zip(small_runs).zip(large_runs) {
        let (a, b) = (&small_run.report.buffer, &large_run.report.buffer);
        assert_eq!(
            a.peak_live_bytes, b.peak_live_bytes,
            "{text}: peak at both sizes"
        );
        let out = whole(&compile(text), &budget, &large).output;
        assert_eq!(out, large_run.output, "{text}: under 4 KiB");
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
    let output = &contract(&cases(&[text], &[doc(60)], None))[0].output;
    let (first, second) = output.split_at(output.len() / 2);
    assert!(first.starts_with("<n>60") && first == second, "{output}");
}

#[test]
fn untaken_branches_and_root_operands_leave_nothing_live() {
    let texts = [
        // The count in the untaken branch never runs: the query-end
        // signOff removes its role from every item.
        "if (/r/g/v/@a = \"nope\") then <n>{ count(/r/g/v) }</n> else \"no\"",
        "if (/r/g/x = \"999\") then <n>{ sum(//v) }</n> else <m>{ max(/r/g/x) }</m>",
        // Root operands, both sides of one comparison and a string test.
        "if (/r/g/v/t = \"259\") then \"yes\" else \"no\"",
        "if (/r/g/x = /r/g/v/@a) then \"yes\" else \"no\"",
        "if (contains(/r/g/v/t, \"n/\")) then \"yes\" else \"no\"",
    ];
    let seen = contract(&cases(&texts, &[doc(60), doc(480)], None));
    // A root operand holds one match at a time, at either size.
    let peak = |i: usize| seen[i].report.buffer.peak_live_bytes;
    assert_eq!(peak(2), peak(texts.len() + 2), "{}", texts[2]);
}
