//! The acceptance bar of the shared-stream subsystem: a batch of distinct
//! XMark queries evaluated by `gcx-multi` in ONE pass must produce output
//! **byte-identical** to running each query standalone, with every lane's
//! buffer doing exactly what the standalone buffer does (same appends,
//! same purges, same peaks) and draining at the end.

use gcx_core::{CompiledQuery, EngineError, EngineOptions};
use gcx_multi::{run_batch, BatchOptions, BatchReport, BatchSession};
use gcx_xmark::{generate_string, queries, XmarkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ten distinct XMark-adapted queries (the five Figure 5 queries plus the
/// extension set) and the aggregation extension — eleven total.
fn batch_texts() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&str, &str)> = queries::FIGURE5_QUERIES.to_vec();
    v.extend(queries::extra::ALL);
    v.push(("Q6_COUNT", queries::Q6_COUNT));
    v
}

fn compile_batch() -> Vec<CompiledQuery> {
    batch_texts()
        .iter()
        .map(|(name, text)| CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect()
}

fn standalone(q: &CompiledQuery, doc: &str) -> (Vec<u8>, gcx_core::RunReport) {
    let mut out = Vec::new();
    let report = gcx_core::run(q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
    (out, report)
}

fn xmark(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024);
    cfg.seed = seed;
    generate_string(&cfg)
}

/// Events each query of the batch receives (`RunReport::tokens`).
fn lane_events(report: &BatchReport) -> Vec<u64> {
    report
        .queries
        .iter()
        .map(|run| run.report.as_ref().unwrap().tokens)
        .collect()
}

#[test]
fn eleven_xmark_queries_identical_to_standalone() {
    // (KiB, shared-scan tokens, events delivered, events per query) for
    // seed 42, as counted by the thread-and-channel driver this one
    // replaced: sharing the scan must not change who sees what.
    let pinned: [(u64, u64, u64, [u64; 11]); 2] = [
        (
            128,
            9900,
            14037,
            [530, 1837, 692, 157, 371, 303, 514, 7228, 530, 127, 1748],
        ),
        (
            512,
            39752,
            56201,
            [
                2110, 7381, 2756, 607, 1509, 1206, 2052, 28961, 2110, 487, 7022,
            ],
        ),
    ];
    let queries = compile_batch();
    for (kb, tokens, fanout, per_query) in pinned {
        let doc = xmark(kb, 42);
        let report = run_batch(&queries, doc.as_bytes()).unwrap();
        assert_eq!(report.queries.len(), queries.len());
        assert_eq!(report.tokens, tokens, "{kb} KiB: shared-scan tokens");
        assert_eq!(report.fanout_events, fanout, "{kb} KiB: events delivered");
        assert_eq!(
            lane_events(&report),
            per_query,
            "{kb} KiB: events per query"
        );

        for ((name, _), (q, run)) in batch_texts()
            .iter()
            .zip(queries.iter().zip(&report.queries))
        {
            let (expected, alone) = standalone(q, &doc);
            let got = run
                .report
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                run.output, expected,
                "{name} @ {kb} KiB: shared-stream output differs from standalone"
            );
            assert_eq!(got.output_bytes, expected.len() as u64, "{name}");
            // Buffer minimality is preserved per query: same nodes, same
            // roles, same signOff execution at the same points.
            let (b, a) = (&got.buffer, &alone.buffer);
            assert_eq!(b.live, 0, "{name}: lane buffer must drain");
            assert_eq!(b.peak_live, a.peak_live, "{name} @ {kb} KiB");
            assert_eq!(b.peak_live_bytes, a.peak_live_bytes, "{name} @ {kb} KiB");
            assert_eq!(b.allocated, a.allocated, "{name} @ {kb} KiB");
            assert_eq!(b.purged, a.purged, "{name} @ {kb} KiB");
            // The shared scan read the document like `gcx_core::run` does.
            assert_eq!(got.feed_calls, alone.feed_calls, "{name} @ {kb} KiB");
        }
        assert!(
            report.share_factor() > 2.0,
            "11 sparse queries must amortize the scan (got {:.2})",
            report.share_factor()
        );
    }
}

/// Push `doc` through a session in the given pieces.
fn fed_in_pieces<'a>(
    queries: &[CompiledQuery],
    pieces: impl Iterator<Item = &'a [u8]>,
) -> BatchReport {
    let mut session = BatchSession::new(queries, &BatchOptions::default());
    for piece in pieces {
        session.feed(piece).unwrap();
    }
    session.finish().unwrap()
}

fn assert_same_batch(got: &BatchReport, want: &BatchReport, what: &str) {
    assert_eq!(got.tokens, want.tokens, "{what}");
    assert_eq!(got.fanout_events, want.fanout_events, "{what}");
    assert_eq!(lane_events(got), lane_events(want), "{what}");
    for (i, (g, w)) in got.queries.iter().zip(&want.queries).enumerate() {
        assert_eq!(g.output, w.output, "{what}: query {i}");
        let (g, w) = (g.report.as_ref().unwrap(), w.report.as_ref().unwrap());
        assert_eq!(
            g.buffer.peak_live_bytes, w.buffer.peak_live_bytes,
            "{what}: query {i}"
        );
        assert_eq!(g.buffer.purged, w.buffer.purged, "{what}: query {i}");
    }
}

#[test]
fn chunk_splits_do_not_change_a_batch() {
    // The sans-IO core suspends anywhere: one byte at a time splits every
    // tag, attribute and multi-byte character of this document.
    let doc = "<site><people><person id=\"p\u{e9}\"><name>Zo\u{eb} \u{65e5}\u{672c}</name>\
               <emailaddress>z@x</emailaddress></person><person id=\"q\"><name>\u{1f600}</name>\
               </person></people></site>";
    let small: Vec<CompiledQuery> = [
        "for $p in /site/people/person return $p/name",
        "for $p in /site/people/person return $p",
        "for $n in //name return $n/text()",
    ]
    .iter()
    .map(|t| CompiledQuery::compile(t).unwrap())
    .collect();
    let whole = run_batch(&small, doc.as_bytes()).unwrap();
    assert!(whole.queries[1].output.ends_with("</person>".as_bytes()));
    let bytewise = fed_in_pieces(&small, doc.as_bytes().chunks(1));
    assert_same_batch(&bytewise, &whole, "1-byte feeds");
    let r = bytewise.queries[0].report.as_ref().unwrap();
    assert_eq!(r.feed_calls, doc.len() as u64);
    assert!(r.max_pending_bytes > 0, "tags spill across 1-byte feeds");

    // Seeded random splits of an XMark document through the full batch.
    let queries = compile_batch();
    let doc = xmark(48, 7);
    let whole = run_batch(&queries, doc.as_bytes()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for round in 0..4 {
        let mut rest = doc.as_bytes();
        let pieces = std::iter::from_fn(|| {
            if rest.is_empty() {
                return None;
            }
            let n = rng.gen_range(1..rest.len().min(700) + 1);
            let (piece, tail) = rest.split_at(n);
            rest = tail;
            Some(piece)
        });
        let split = fed_in_pieces(&queries, pieces);
        assert_same_batch(&split, &whole, &format!("random splits, round {round}"));
    }
}

#[test]
fn a_query_over_its_budget_fails_alone() {
    // Q8's join buffers ~35 KiB of this document, every other query under
    // 9 KiB: a 20 KB budget trips Q8 only, and nobody else notices.
    let doc = xmark(128, 42);
    let queries = compile_batch();
    let q8 = batch_texts()
        .iter()
        .position(|(name, _)| *name == "Q8")
        .unwrap();
    let limited = gcx_multi::run(
        &queries,
        &BatchOptions {
            max_buffer_bytes: Some(20_000),
            ..BatchOptions::default()
        },
        doc.as_bytes(),
    )
    .unwrap();
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
    // The same query twice must produce the same bytes twice — tags keep
    // the copies fully independent.
    let doc = generate_string(&XmarkConfig::sized(16 * 1024));
    let q = CompiledQuery::compile(queries::Q20).unwrap();
    let batch = vec![q.clone(), q.clone()];
    let report = run_batch(&batch, doc.as_bytes()).unwrap();
    let expected = standalone(&q, &doc).0;
    assert_eq!(report.queries[0].output, expected);
    assert_eq!(report.queries[1].output, expected);
}

#[test]
fn join_query_in_a_batch() {
    // Q8's inner loop re-runs over a different document section per
    // person; its query-end signOff anchoring must survive the fan-out.
    let doc = generate_string(&XmarkConfig::sized(32 * 1024));
    let batch: Vec<CompiledQuery> = [queries::Q8, queries::Q1]
        .iter()
        .map(|t| CompiledQuery::compile(t).unwrap())
        .collect();
    let report = run_batch(&batch, doc.as_bytes()).unwrap();
    for (q, run) in batch.iter().zip(&report.queries) {
        assert_eq!(run.output, standalone(q, &doc).0);
        assert_eq!(run.report.as_ref().unwrap().buffer.live, 0);
    }
}

#[test]
fn schema_facts_reach_the_per_query_reports() {
    let doc = xmark(64, 42);
    let queries = compile_batch();
    let with_schema = gcx_multi::run(
        &queries,
        &BatchOptions {
            schema: Some(gcx_schema::Dtd::xmark()),
            ..BatchOptions::default()
        },
        doc.as_bytes(),
    )
    .unwrap();
    let mut cuts = 0;
    for ((name, _), (q, run)) in batch_texts()
        .iter()
        .zip(queries.iter().zip(&with_schema.queries))
    {
        let report = run.report.as_ref().unwrap();
        let schema = report.schema.as_ref().expect("schema section");
        // The path counts are the query's own; the reach cuts are the
        // shared scan's.
        let mut alone_out = Vec::new();
        let alone = gcx_core::run(
            q,
            &EngineOptions::gcx().with_schema(gcx_schema::Dtd::xmark()),
            doc.as_bytes(),
            &mut alone_out,
        )
        .unwrap();
        let alone = alone.schema.expect("standalone schema section");
        assert_eq!(schema.total_paths, alone.total_paths, "{name}");
        assert_eq!(schema.pruned_paths, alone.pruned_paths, "{name}");
        assert!(!schema.doctype_adopted);
        cuts = schema.reach_cuts;
    }
    assert!(cuts > 0, "the DTD must let the shared scan cut subtrees");
    let plain = run_batch(&queries, doc.as_bytes()).unwrap();
    assert!(plain.queries[0].report.as_ref().unwrap().schema.is_none());
}
