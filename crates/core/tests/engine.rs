//! End-to-end engine tests: the paper's running example, blocking
//! semantics, joins, attribute handling, and the three buffer-management
//! configurations compared on identical inputs.

use gcx_core::{run, run_query, CompiledQuery, EngineOptions};

const PAPER_QUERY: &str = r#"
    <r> {
      for $bib in /bib return
        (for $x in $bib/* return
           if (not(exists($x/price))) then $x else (),
         for $b in $bib/book return $b/title)
    } </r>
"#;

/// Run with explicit options, returning (output, report).
fn run_with(query: &str, input: &str, opts: &EngineOptions) -> (String, gcx_core::RunReport) {
    let q = CompiledQuery::compile(query).unwrap();
    let mut out = Vec::new();
    let report = run(&q, opts, input.as_bytes(), &mut out)
        .unwrap_or_else(|e| panic!("engine failed: {e}\nquery: {query}"));
    (String::from_utf8(out).unwrap(), report)
}

fn gcx(query: &str, input: &str) -> (String, gcx_core::RunReport) {
    run_with(query, input, &EngineOptions::gcx())
}

#[test]
fn paper_running_example_output() {
    // Figure 1's document: the book has no price, so the first loop emits
    // it; the second loop emits its title.
    let (out, _) = gcx(PAPER_QUERY, "<bib><book><title/><author/></book></bib>");
    assert_eq!(out, "<r><book><title/><author/></book><title/></r>");
}

#[test]
fn paper_example_with_prices_suppresses_output() {
    let (out, _) = gcx(
        PAPER_QUERY,
        "<bib><article><price/></article><book><title/><price/></book></bib>",
    );
    // Both children have prices: first loop emits nothing; second emits
    // the book title.
    assert_eq!(out, "<r><title/></r>");
}

#[test]
fn buffer_drains_to_zero_with_active_gc() {
    // The balance invariant: every role instance assigned is signed off;
    // the buffer ends empty (up to the virtual root).
    let input = "<bib><article><price/></article><article/>\
                 <book><title>T1</title></book><book><title>T2</title><price/></book></bib>";
    let (_, report) = gcx(PAPER_QUERY, input);
    assert_eq!(report.buffer.live, 0, "buffer must drain completely");
    assert!(report.buffer.purged >= report.buffer.allocated);
}

#[test]
fn a_signoff_through_two_descendant_steps_merges_derivations() {
    // `$x//a//b` reaches a `b` under nested `a`s once below each of them;
    // the signOff folds those derivations into one decrement per node, and
    // the buffer still drains.
    let input = "<r><a><a><b/><b>t</b></a><b/></a><a><b/></a></r>";
    for (query, want) in [
        ("for $x in /r return <c>{ count($x//a//b) }</c>", "<c>4</c>"),
        ("for $x in /r return $x//a//b", "<b/><b>t</b><b/><b/>"),
    ] {
        let (out, report) = gcx(query, input);
        assert_eq!(out, want, "{query}");
        assert_eq!(report.buffer.live, 0, "{query}: buffer must drain");
        assert_eq!(report.buffer.purged, report.buffer.allocated, "{query}");
    }
}

#[test]
fn three_configurations_agree_on_results() {
    let queries = [
        PAPER_QUERY,
        "for $x in /site/a return if ($x/v > 3) then $x/name else ()",
        "<o>{ for $x in //item return $x/name/text() }</o>",
        "for $p in /db/p return for $q in /db/q return if ($q/ref = $p/id) then <m>{ $p/id, $q/ref }</m>",
    ];
    let inputs = [
        "<bib><book><title>a</title></book><article><price/><title>x</title></article></bib>",
        "<site><a><v>5</v><name>n1</name></a><a><v>2</v><name>n2</name></a></site>",
        "<r><item><name>one</name></item><x><item><name>two</name></item></x></r>",
        "<db><p><id>1</id></p><p><id>2</id></p><q><ref>2</ref></q><q><ref>3</ref></q></db>",
    ];
    for query in &queries {
        for input in &inputs {
            let (a, ra) = run_with(query, input, &EngineOptions::gcx());
            let (b, rb) = run_with(query, input, &EngineOptions::projection_only());
            let (c, rc) = run_with(query, input, &EngineOptions::full_buffering());
            assert_eq!(a, b, "gcx vs projection-only\n{query}\n{input}");
            assert_eq!(a, c, "gcx vs full-buffering\n{query}\n{input}");
            // The memory hierarchy the paper's evaluation rests on.
            assert!(
                ra.buffer.peak_live <= rb.buffer.peak_live,
                "gcx peak must not exceed projection-only peak"
            );
            assert!(
                rb.buffer.peak_live <= rc.buffer.peak_live,
                "projection-only peak must not exceed full buffering"
            );
        }
    }
}

#[test]
fn gcx_strictly_beats_projection_on_iterated_data() {
    // Ten articles, each releasable right after its iteration: GCX's peak
    // stays O(1) while projection-only accumulates all ten.
    let mut doc = String::from("<bib>");
    for _ in 0..10 {
        doc.push_str("<article><author/><title/><price/></article>");
    }
    doc.push_str("</bib>");
    let (_, ra) = run_with(PAPER_QUERY, &doc, &EngineOptions::gcx());
    let (_, rb) = run_with(PAPER_QUERY, &doc, &EngineOptions::projection_only());
    assert!(
        ra.buffer.peak_live < rb.buffer.peak_live / 2,
        "active GC must keep the buffer much smaller: {} vs {}",
        ra.buffer.peak_live,
        rb.buffer.peak_live
    );
}

#[test]
fn join_query_is_blocking_but_correct() {
    // Q8-style value join between two document sections.
    let query = "
        <result> {
          for $p in /db/people/person return
            <pair> {
              $p/name,
              for $c in /db/sales/sale return
                if ($c/buyer = $p/name) then $c/item else ()
            } </pair>
        } </result>";
    let input = "<db>\
        <people><person><name>ann</name></person><person><name>bob</name></person></people>\
        <sales><sale><buyer>bob</buyer><item>car</item></sale>\
               <sale><buyer>ann</buyer><item>pen</item></sale>\
               <sale><buyer>ann</buyer><item>ink</item></sale></sales>\
      </db>";
    let (out, report) = gcx(query, input);
    assert_eq!(
        out,
        "<result>\
           <pair><name>ann</name><item>pen</item><item>ink</item></pair>\
           <pair><name>bob</name><item>car</item></pair>\
         </result>"
            .replace(char::is_whitespace, "")
    );
    // Join partners must stay buffered until the end (linear memory), but
    // the buffer still drains at query end.
    assert_eq!(report.buffer.live, 0);
}

#[test]
fn exists_short_circuits_without_reading_to_region_end() {
    // The witness (price) comes first; `exists` must answer true without
    // waiting for the end of the article.
    let query = "for $x in /bib/a return if (exists($x/price)) then 'yes' else 'no'";
    let (out, _) = gcx(query, "<bib><a><price/><rest/><rest/></a><a><x/></a></bib>");
    assert_eq!(out, "yesno");
}

#[test]
fn attribute_equality_join_q1_style() {
    let query = r#"
        for $p in /site/people/person return
          if ($p/@id = "person0") then $p/name else ()
    "#;
    let input = r#"<site><people>
        <person id="person1"><name>Ann</name></person>
        <person id="person0"><name>Bob</name></person>
    </people></site>"#;
    let (out, _) = gcx(query, input);
    assert_eq!(out, "<name>Bob</name>");
}

#[test]
fn attribute_output_emits_value_as_text() {
    let (out, _) = gcx(
        "for $p in /site/person return <id>{ $p/@id }</id>",
        r#"<site><person id="p1"/><person id="p2"/></site>"#,
    );
    assert_eq!(out, "<id>p1</id><id>p2</id>");
}

#[test]
fn exists_on_attributes() {
    let (out, _) = gcx(
        "for $p in /site/person return if (exists($p/@income)) then 'rich' else 'unknown'",
        r#"<site><person income="5"/><person/></site>"#,
    );
    assert_eq!(out, "richunknown");
}

#[test]
fn numeric_comparisons_use_numeric_order() {
    let (out, _) = gcx(
        "for $i in /l/i return if ($i/v >= 10) then $i/v/text() else ()",
        "<l><i><v>9</v></i><i><v>10</v></i><i><v>11</v></i></l>",
    );
    // String order would put "9" after "10"/"11".
    assert_eq!(out, "1011");
}

#[test]
fn string_comparisons_on_non_numeric_values() {
    let (out, _) = gcx(
        "for $i in /l/i return if ($i/v = 'b') then 'hit' else ()",
        "<l><i><v>a</v></i><i><v>b</v></i></l>",
    );
    assert_eq!(out, "hit");
}

#[test]
fn text_step_output() {
    let (out, _) = gcx(
        "for $b in /bib/book return $b/title/text()",
        "<bib><book><title>Das Kapital</title></book><book><title>Ulysses</title></book></bib>",
    );
    assert_eq!(out, "Das KapitalUlysses");
}

#[test]
fn descendant_axis_queries() {
    let (out, _) = gcx(
        "<all>{ for $t in //title return $t }</all>",
        "<lib><shelf><book><title>A</title></book></shelf><title>B</title></lib>",
    );
    assert_eq!(out, "<all><title>A</title><title>B</title></all>");
}

#[test]
fn count_aggregate_extension() {
    let (out, _) = gcx(
        "<n>{ count(/site/people/person) }</n>",
        "<site><people><person/><person/><person/></people></site>",
    );
    assert_eq!(out, "<n>3</n>");
}

#[test]
fn sum_min_max_avg_extensions() {
    let input = "<l><v>1</v><v>4</v><v>7</v></l>";
    for (q, expected) in [
        ("<s>{ sum(/l/v) }</s>", "<s>12</s>"),
        ("<s>{ min(/l/v) }</s>", "<s>1</s>"),
        ("<s>{ max(/l/v) }</s>", "<s>7</s>"),
        ("<s>{ avg(/l/v) }</s>", "<s>4</s>"),
    ] {
        let (out, _) = gcx(q, input);
        assert_eq!(out, expected, "{q}");
    }
}

#[test]
fn aggregates_of_empty_sequences() {
    let input = "<l/>";
    let (out, _) = gcx("<s>{ count(/l/v) }</s>", input);
    assert_eq!(out, "<s>0</s>");
    let (out, _) = gcx("<s>{ sum(/l/v) }</s>", input);
    assert_eq!(out, "<s>0</s>");
    let (out, _) = gcx("<s>{ min(/l/v) }</s>", input);
    assert_eq!(out, "<s/>", "min of empty emits nothing");
}

#[test]
fn positional_predicates_in_queries() {
    let (out, _) = gcx(
        "for $b in /l/item[2] return $b",
        "<l><item>a</item><item>b</item><item>c</item></l>",
    );
    assert_eq!(out, "<item>b</item>");
}

#[test]
fn deeply_nested_loops() {
    let (out, _) = gcx(
        "for $a in /r/a return for $b in $a/b return for $c in $b/c return $c/text()",
        "<r><a><b><c>1</c><c>2</c></b></a><a><b><c>3</c></b></a></r>",
    );
    assert_eq!(out, "123");
}

#[test]
fn output_entities_escaped() {
    let (out, _) = gcx(
        "for $t in /d/t return $t",
        "<d><t a=\"x&amp;y\">1 &lt; 2</t></d>",
    );
    assert_eq!(out, "<t a=\"x&amp;y\">1 &lt; 2</t>");
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let q = CompiledQuery::compile("for $a in /x return $a").unwrap();
    for bad in ["<x><y></x></y>", "<x>", "<x></x><x2></x2>", "</x>", ""] {
        let mut out = Vec::new();
        let r = run(&q, &EngineOptions::gcx(), bad.as_bytes(), &mut out);
        assert!(r.is_err(), "input {bad:?} must fail");
    }
}

#[test]
fn malformed_input_after_result_still_detected_with_drain() {
    // The result only needs the first element, but every run reads the
    // input to its end and so still validates the rest.
    let q = CompiledQuery::compile("for $a in /x/y[1] return 'ok'").unwrap();
    let mut out = Vec::new();
    let r = run(
        &q,
        &EngineOptions::gcx(),
        "<x><y/><bad></x>".as_bytes(),
        &mut out,
    );
    assert!(r.is_err());
}

#[test]
fn timeline_is_recorded_when_enabled() {
    let opts = EngineOptions::gcx().with_timeline(1);
    let (_, report) = run_with(PAPER_QUERY, "<bib><book><title/></book></bib>", &opts);
    let tl = report.timeline.expect("timeline enabled");
    assert_eq!(tl.points.len() as u64, report.tokens);
    assert!(tl.peak() > 0);
}

#[test]
fn run_query_convenience() {
    let out = run_query("<r>{ 1, 'x' }</r>", "<ignored/>").unwrap();
    assert_eq!(out, "<r>1x</r>");
}

#[test]
fn explain_shows_roles_and_rewriting() {
    let q = CompiledQuery::compile(PAPER_QUERY).unwrap();
    let explain = q.explain();
    assert!(explain.contains("r4: /bib/*/price[1]"), "{explain}");
    assert!(explain.contains("signOff($x, r3)"), "{explain}");
}

#[test]
fn explain_names_the_roles_a_root_aggregate_releases() {
    // The first loop's count is evaluated per binding: signed off at
    // query end. The root count releases each item as it counts it.
    let q = CompiledQuery::compile(
        "<r>{ for $p in /site/people return count(/site/people/person), \
              count(/site/regions//item) }</r>",
    )
    .unwrap();
    let explain = q.explain();
    let line = |path: &str| {
        explain
            .lines()
            .find(|l| l.contains(path) && l.contains("[aggregate argument]"))
            .unwrap_or_else(|| panic!("{path}: {explain}"))
            .to_string()
    };
    assert!(
        line("/site/people/person").ends_with("signed off at query end"),
        "{explain}"
    );
    assert!(
        line("/site/regions/descendant::item").ends_with(
            "released from each match as it is consumed; \
             the query-end signOff catches what was never reached"
        ),
        "{explain}"
    );
    assert!(
        explain.contains("aggregate count(p") && explain.contains(") releasing r"),
        "{explain}"
    );
}

#[test]
fn empty_for_loops_produce_nothing() {
    let (out, report) = gcx("for $a in /x/nothing return $a", "<x><other/></x>");
    assert_eq!(out, "");
    assert_eq!(report.buffer.live, 0);
}

#[test]
fn sequence_evaluation_is_strictly_ordered() {
    // Second loop re-reads data the first loop also touched: sequential
    // semantics per the paper.
    let (out, _) = gcx(
        "<r>{ (for $a in /l/x return $a/text(), for $b in /l/x return $b/text()) }</r>",
        "<l><x>1</x><x>2</x></l>",
    );
    assert_eq!(out, "<r>1212</r>");
}

#[test]
fn shadowed_variables_work_at_runtime() {
    let (out, _) = gcx(
        "for $a in /r/a return for $a in $a/b return $a/text()",
        "<r><a><b>inner</b></a></r>",
    );
    assert_eq!(out, "inner");
}

#[test]
fn wildcard_loops() {
    let (out, _) = gcx(
        "for $x in /r/* return <t>{ $x/text() }</t>",
        "<r><a>1</a><b>2</b><c>3</c></r>",
    );
    assert_eq!(out, "<t>1</t><t>2</t><t>3</t>");
}

#[test]
fn cdata_text_flows_through() {
    let (out, _) = gcx(
        "for $t in /d/t return $t/text()",
        "<d><t><![CDATA[a < b]]></t></d>",
    );
    assert_eq!(out, "a &lt; b");
}

#[test]
fn large_flat_document_streams_in_constant_memory() {
    // 10k items, each matched, emitted and released: peak stays tiny.
    let mut doc = String::from("<l>");
    for i in 0..10_000 {
        doc.push_str(&format!("<i><v>{i}</v></i>"));
    }
    doc.push_str("</l>");
    let (_, report) = gcx(
        "for $i in /l/i return if ($i/v = 5000) then $i else ()",
        &doc,
    );
    assert!(
        report.buffer.peak_live < 20,
        "constant-memory streaming expected, peak was {}",
        report.buffer.peak_live
    );
    assert_eq!(report.buffer.live, 0);
}

// ---- buffer byte budgets (EngineOptions::max_buffer_bytes) ------------------

#[test]
fn tiny_buffer_budget_is_a_typed_rejection() {
    let q = CompiledQuery::compile(PAPER_QUERY).unwrap();
    let opts = EngineOptions::gcx().with_max_buffer_bytes(8);
    let mut out = Vec::new();
    let err = run(
        &q,
        &opts,
        "<bib><book><title/><author/></book></bib>".as_bytes(),
        &mut out,
    )
    .unwrap_err();
    assert!(err.is_buffer_limit(), "got: {err}");
    assert!(err.to_string().contains("buffer limit exceeded"), "{err}");
}

#[test]
fn generous_buffer_budget_changes_nothing() {
    let doc = "<bib><book><title>T</title></book></bib>";
    let (unlimited, base) = gcx("for $b in /bib/book return $b/title", doc);
    let (capped, report) = run_with(
        "for $b in /bib/book return $b/title",
        doc,
        &EngineOptions::gcx().with_max_buffer_bytes(1 << 20),
    );
    assert_eq!(capped, unlimited);
    assert_eq!(report.buffer.peak_live, base.buffer.peak_live);
    assert_eq!(report.max_buffer_bytes, Some(1 << 20));
}

#[test]
fn byte_accounting_drains_to_zero_and_tracks_peak() {
    let (_, report) = gcx(
        "for $b in /bib/book return $b/title",
        "<bib><book><title>On Streams</title></book><book><title>Two</title></book></bib>",
    );
    assert_eq!(report.buffer.live_bytes, 0, "buffer must drain");
    assert!(report.buffer.peak_live_bytes > 0);
}

#[test]
fn budget_protects_full_buffering_too() {
    // Full buffering would hold the whole document; the budget turns the
    // would-be OOM into a typed error.
    let mut doc = String::from("<l>");
    for i in 0..10_000 {
        doc.push_str(&format!("<i>{i}</i>"));
    }
    doc.push_str("</l>");
    let q = CompiledQuery::compile("for $i in /l/i return $i/text()").unwrap();
    let opts = EngineOptions {
        max_buffer_bytes: Some(64 * 1024),
        ..EngineOptions::full_buffering()
    };
    let err = run(&q, &opts, doc.as_bytes(), std::io::sink()).unwrap_err();
    assert!(err.is_buffer_limit(), "got: {err}");
}
