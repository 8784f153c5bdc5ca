//! The acceptance bar of the shared-stream batch (`gcx_core::batch`): a
//! batch of distinct XMark queries evaluated in ONE pass produces output
//! byte-identical to running each query stand-alone, every lane's buffer
//! doing exactly what the stand-alone buffer does and draining at the end.
//! The differential matrix's batch axis holds that for every corpus; this
//! suite runs the eleven XMark queries through it and pins what only a
//! batch has: its shared scan's counts, chunkings of a whole batch, a lane
//! over its budget failing alone, duplicate queries, and the schema facts
//! of its per-query reports.

mod common;

use common::{batch, batch_axis, cases, compile, contract, generated::XorShift, xmark};
use gcx::core::batch::{run, run_batch, BatchReport, BatchSession};
use gcx::schema::Dtd;
use gcx::xmark::queries::{self, paper_queries};
use gcx::{CompiledQuery, EngineError, EngineOptions};

/// The five Figure 5 queries, the extension set and the aggregation
/// extension: eleven distinct queries.
fn compile_batch() -> Vec<CompiledQuery> {
    paper_queries()
        .iter()
        .map(|(_, text)| compile(text))
        .collect()
}

#[test]
fn eleven_xmark_queries_identical_to_standalone() {
    let texts: Vec<&str> = paper_queries().iter().map(|q| q.1).collect();
    contract(&cases(&texts, &[xmark(128, 42)], None));
    // Read 64 KiB at a time: each lane against its stand-alone run.
    batch_axis(&cases(&texts, &[xmark(512, 42)], None));
    // (KiB, shared-scan tokens, tokens handed to the lanes) for seed 42.
    let pinned: [(u64, u64, u64); 2] = [(128, 9900, 15460), (512, 39752, 61922)];
    let queries = compile_batch();
    let opts = EngineOptions::gcx().with_telemetry();
    for (kb, tokens, fanout) in pinned {
        let doc = xmark(kb, 42);
        let report = run(&queries, &opts, doc.as_bytes()).unwrap();
        assert_eq!(report.tokens, tokens, "{kb} KiB: shared-scan tokens");
        assert_eq!(report.fanout_events, fanout, "{kb} KiB: tokens handed");
        assert!(
            report.share_factor() > 2.0,
            "11 sparse queries must amortize the scan (got {:.2})",
            report.share_factor()
        );
        // With telemetry on, each lane's counts (on the scan's clock),
        // timeline, residency and role lifecycle are its stand-alone run's.
        for ((name, _), (q, lane)) in paper_queries()
            .iter()
            .zip(queries.iter().zip(report.queries))
        {
            let (got, want) = (lane.report.unwrap(), common::whole(q, &opts, &doc).report);
            assert_eq!(
                got.tokens, tokens,
                "{kb} KiB: {name} runs on the scan's clock"
            );
            assert_eq!(
                common::counts(&got),
                common::counts(&want),
                "{kb} KiB: {name}"
            );
            let (got, want) = (got.obs.unwrap(), want.obs.unwrap());
            let (g, w) = (&got.residency_tokens, &want.residency_tokens);
            let residency = (g.count(), g.sum(), g.max(), g.counts());
            assert_eq!(
                residency,
                (w.count(), w.sum(), w.max(), w.counts()),
                "{name}"
            );
            assert!(g.count() > 0, "{kb} KiB: {name} purges");
            let roles = |obs: &gcx::core::ObsReport| format!("{:?}", obs.roles);
            assert_eq!(roles(&got), roles(&want), "{kb} KiB: {name}: roles");
        }
    }
}

fn assert_same_batch(got: &BatchReport, want: &BatchReport, what: &str) {
    assert_eq!(got.tokens, want.tokens, "{what}");
    assert_eq!(got.fanout_events, want.fanout_events, "{what}");
    for (i, (g, w)) in got.queries.iter().zip(&want.queries).enumerate() {
        assert_eq!(g.output, w.output, "{what}: query {i}");
        let (g, w) = (g.report.as_ref().unwrap(), w.report.as_ref().unwrap());
        assert_eq!(common::counts(g), common::counts(w), "{what}: query {i}");
    }
}

#[test]
fn chunk_splits_do_not_change_a_batch() {
    // The sans-IO core suspends anywhere: one byte at a time splits every
    // tag, attribute and multi-byte character of this document.
    let doc = "<site><people><person id=\"p\u{e9}\"><name>Zo\u{eb} \u{65e5}\u{672c}</name>\
               <emailaddress>z@x</emailaddress></person><person id=\"q\"><name>\u{1f600}</name>\
               </person></people></site>";
    let small = [
        "for $p in /site/people/person return $p/name",
        "for $p in /site/people/person return $p",
        "for $n in //name return $n/text()",
    ];
    contract(&cases(&small, &[doc], None));
    let small: Vec<CompiledQuery> = small.iter().map(|t| compile(t)).collect();
    let whole = run_batch(&small, doc.as_bytes()).unwrap();
    assert!(whole.queries[1].output.ends_with("</person>".as_bytes()));
    let bytewise = batch(&small, &EngineOptions::gcx(), doc, 1);
    assert_same_batch(&bytewise, &whole, "1-byte feeds");
    let r = bytewise.queries[0].report.as_ref().unwrap();
    assert_eq!(r.feed_calls, doc.len() as u64);
    assert!(r.max_pending_bytes > 0, "tags spill across 1-byte feeds");

    // Seeded random splits of an XMark document through the full batch.
    let queries = compile_batch();
    let doc = xmark(48, 7);
    let whole = run_batch(&queries, doc.as_bytes()).unwrap();
    let mut rng = XorShift(0x5eed);
    for round in 0..4 {
        let mut session = BatchSession::new(&queries, &EngineOptions::gcx());
        let mut rest = doc.as_bytes();
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(1 + rng.below(rest.len().min(700)));
            session.feed(piece).unwrap();
            rest = tail;
        }
        let split = session.finish().unwrap();
        assert_same_batch(&split, &whole, &format!("random splits, round {round}"));
    }
}

#[test]
fn a_query_over_its_budget_fails_alone() {
    // Q8's join buffers ~35 KiB of this document, every other query under
    // 9 KiB: a 20 KB budget trips Q8 only, and nobody else notices.
    let doc = xmark(128, 42);
    let queries = compile_batch();
    let q8 = paper_queries().iter().position(|q| q.0 == "Q8").unwrap();
    let opts = EngineOptions::gcx().with_max_buffer_bytes(20_000);
    let limited = run(&queries, &opts, doc.as_bytes()).unwrap();
    let free = run_batch(&queries, doc.as_bytes()).unwrap();
    assert_eq!(limited.tokens, free.tokens);
    for (i, (l, f)) in limited.queries.iter().zip(&free.queries).enumerate() {
        if i == q8 {
            assert!(
                matches!(
                    l.report,
                    Err(EngineError::BufferLimitExceeded { limit: 20_000, .. })
                ),
                "Q8 must trip the budget: {:?}",
                l.report
            );
            continue;
        }
        assert_eq!(l.output, f.output, "query {i}");
        let (l, f) = (l.report.as_ref().unwrap(), f.report.as_ref().unwrap());
        assert_eq!(l.tokens, f.tokens, "query {i}");
        assert_eq!(
            l.buffer.peak_live_bytes, f.buffer.peak_live_bytes,
            "query {i}"
        );
    }
}

#[test]
fn duplicate_queries_in_one_batch() {
    // The same query twice produces the same bytes twice: tags keep the
    // copies independent.
    let doc = gcx::xmark::generate_string(&gcx::xmark::XmarkConfig::sized(16 * 1024));
    contract(&cases(&[queries::Q20, queries::Q20], &[doc], None));
}

#[test]
fn join_query_in_a_batch() {
    // Q8's inner loop re-runs over a different document section per
    // person; its query-end signOff anchoring must survive the fan-out.
    let doc = gcx::xmark::generate_string(&gcx::xmark::XmarkConfig::sized(32 * 1024));
    contract(&cases(&[queries::Q8, queries::Q1], &[doc], None));
}

#[test]
fn schema_facts_reach_the_per_query_reports() {
    // The path counts are the query's own (the matrix holds them to the
    // stand-alone run's); the reach cuts are the shared scan's.
    let doc = xmark(64, 42);
    let queries = compile_batch();
    let opts = EngineOptions::gcx().with_schema(Dtd::xmark());
    let with_schema = run(&queries, &opts, doc.as_bytes()).unwrap();
    for run in &with_schema.queries {
        let schema = run.report.as_ref().unwrap().schema.as_ref();
        let schema = schema.expect("schema section");
        assert!(!schema.doctype_adopted);
        assert!(
            schema.reach_cuts > 0,
            "the DTD lets the shared scan cut subtrees"
        );
    }
    let plain = run_batch(&queries, doc.as_bytes()).unwrap();
    assert!(plain.queries[0].report.as_ref().unwrap().schema.is_none());
}
