//! Microbenchmark: the stream preprojector (projection NFA + buffering)
//! with as little query evaluation behind it as a session allows — the
//! per-token cost of static projection, including subtree skipping.
//! signOffs are off, so the evaluator only walks its loops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcx_core::{CompiledQuery, EngineMode, EngineOptions};
use gcx_xmark::queries;

fn project_document(query: &str, doc: &str, project: bool) -> u64 {
    let q = CompiledQuery::compile(query).unwrap();
    let mode = if project {
        EngineMode::ProjectionOnly
    } else {
        EngineMode::FullBuffering
    };
    let mut session = q.session(&EngineOptions {
        mode,
        ..EngineOptions::gcx()
    });
    session.feed(doc.as_bytes()).unwrap();
    session.finish().unwrap().buffer.allocated
}

fn bench_matcher(c: &mut Criterion) {
    let doc = gcx_bench::xmark_string(1);
    let mut g = c.benchmark_group("preprojector");
    g.throughput(Throughput::Bytes(doc.len() as u64));

    // Q1 touches only the people section: most of the document is skipped.
    g.bench_function("q1_sparse", |b| {
        b.iter(|| project_document(queries::Q1, &doc, true))
    });
    // Q8's paths touch two sections.
    g.bench_function("q8_join_paths", |b| {
        b.iter(|| project_document(queries::Q8, &doc, true))
    });
    // Descendant-axis paths keep the NFA active deeper in the tree.
    g.bench_function("q6_descendant", |b| {
        b.iter(|| project_document(queries::Q6, &doc, true))
    });
    // No projection: every node is buffered (upper bound on matcher work).
    g.bench_function("q1_full_buffering", |b| {
        b.iter(|| project_document(queries::Q1, &doc, false))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matcher
}
criterion_main!(benches);
