//! Ablation benchmark: one query (Q6) across the four buffer-management
//! configurations plus the DOM baseline — the timing side of the
//! `ablation` binary's memory table.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcx_core::{CompiledQuery, EngineMode, EngineOptions};
use gcx_xmark::queries;

fn bench_ablation(c: &mut Criterion) {
    let doc = gcx_bench::xmark_string(1);
    let q6 = CompiledQuery::compile(queries::Q6).unwrap();
    let mut g = c.benchmark_group("ablation_q6");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    for (name, opts) in [
        ("gcx", EngineOptions::gcx()),
        ("projection_only", EngineOptions::projection_only()),
        (
            "gc_only",
            EngineOptions {
                mode: EngineMode::GcOnly,
                ..EngineOptions::gcx()
            },
        ),
        ("full_buffering", EngineOptions::full_buffering()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                gcx_core::run(&q6, &opts, doc.as_bytes(), std::io::sink())
                    .unwrap()
                    .tokens
            })
        });
    }
    g.bench_function("dom_baseline", |b| {
        let q = gcx_query::compile(queries::Q6).unwrap();
        b.iter(|| {
            gcx_dom::run(&q, doc.as_bytes(), std::io::sink())
                .unwrap()
                .nodes
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_ablation
}
criterion_main!(benches);
