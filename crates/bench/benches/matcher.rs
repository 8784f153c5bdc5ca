//! Microbenchmark: the stream projector (projection NFA + buffering),
//! isolated from query evaluation — the per-token cost of static
//! projection, including subtree skipping.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcx_core::buffer::BufferTree;
use gcx_core::stream::Projector;
use gcx_projection::{analyze, CompiledPaths, StreamMatcher};
use gcx_xmark::queries;
use gcx_xml::{PushTokenizer, SymbolTable, TokenStep};

fn project_document(query: &str, doc: &str, project: bool) -> u64 {
    let q = gcx_query::compile(query).unwrap();
    let a = analyze(&q);
    let mut symbols = SymbolTable::new();
    let compiled = CompiledPaths::compile(&a.roles, &mut symbols);
    let (matcher, _) = StreamMatcher::new(&compiled);
    let mut buf = BufferTree::new(project);
    let mut proj = Projector::new(matcher, project, None);
    let mut tok = PushTokenizer::new();
    tok.feed(doc.as_bytes());
    tok.finish_input();
    while tok.step().unwrap() == TokenStep::Token {
        proj.apply(&tok.token(), &mut buf, &mut symbols);
    }
    proj.finish(&mut buf);
    buf.stats().allocated
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
