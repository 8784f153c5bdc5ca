//! Ablation study (beyond the paper): isolates the contribution of each
//! buffer-management ingredient on one query and one document.
//!
//! * the 2×2 grid {static projection} × {active GC} — the paper's central
//!   claim is that the combination beats projection alone;
//! * the aggregation extension: `count()` via buffered witnesses
//!   (Q6 adapted) vs the native `count()` aggregate (Q6_COUNT), showing
//!   that count-style queries need no subtree retention;
//! * timeline-sampling overhead (the instrumentation used by fig3/fig4).
//!
//! ```sh
//! cargo run --release -p gcx-bench --bin ablation          # ~5MB document
//! cargo run --release -p gcx-bench --bin ablation -- 20
//! ```

use gcx_bench::{fmt_duration, run_streaming, xmark_file};
use gcx_core::{CompiledQuery, EngineMode, EngineOptions};
use gcx_memtrack as memtrack;
use gcx_xmark::queries;

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::new();

fn measure(label: &str, q: &CompiledQuery, opts: &EngineOptions, path: &std::path::Path) {
    memtrack::reset_peak();
    let base = memtrack::live_bytes();
    let (elapsed, report) = run_streaming(q, opts, path);
    let heap = memtrack::peak_bytes().saturating_sub(base);
    println!(
        "{:<26} {:>9} {:>12} {:>11} {:>12}",
        label,
        fmt_duration(elapsed),
        report.buffer.peak_live,
        memtrack::fmt_bytes(heap),
        report.buffer.purged
    );
}

fn main() {
    let mb: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let path = xmark_file(mb);

    println!("== 2x2 grid: projection x active GC (query Q6, {mb}MB) ==\n");
    println!(
        "{:<26} {:>9} {:>12} {:>11} {:>12}",
        "configuration", "time", "peak nodes", "peak heap", "purged"
    );
    let q6 = CompiledQuery::compile(queries::Q6).unwrap();
    measure("projection + GC (gcx)", &q6, &EngineOptions::gcx(), &path);
    measure(
        "projection only",
        &q6,
        &EngineOptions::projection_only(),
        &path,
    );
    // GC without projection: everything is buffered but signOffs still purge.
    let gc_only = EngineOptions {
        mode: EngineMode::GcOnly,
        ..EngineOptions::gcx()
    };
    measure("GC only (no projection)", &q6, &gc_only, &path);
    measure(
        "neither (full buffering)",
        &q6,
        &EngineOptions::full_buffering(),
        &path,
    );

    println!("\n== aggregation extension: witness emission vs native count ==\n");
    println!(
        "{:<26} {:>9} {:>12} {:>11} {:>12}",
        "query", "time", "peak nodes", "peak heap", "purged"
    );
    let q6_count = CompiledQuery::compile(queries::Q6_COUNT).unwrap();
    measure("Q6 (emit witnesses)", &q6, &EngineOptions::gcx(), &path);
    measure(
        "Q6_COUNT (count() ext.)",
        &q6_count,
        &EngineOptions::gcx(),
        &path,
    );

    println!("\n== instrumentation overhead (query Q1, {mb}MB) ==\n");
    println!(
        "{:<26} {:>9} {:>12} {:>11} {:>12}",
        "configuration", "time", "peak nodes", "peak heap", "purged"
    );
    let q1 = CompiledQuery::compile(queries::Q1).unwrap();
    measure("no timeline", &q1, &EngineOptions::gcx(), &path);
    measure(
        "timeline every token",
        &q1,
        &EngineOptions::gcx().with_timeline(1),
        &path,
    );
    measure(
        "timeline every 1000",
        &q1,
        &EngineOptions::gcx().with_timeline(1000),
        &path,
    );
}
