//! Regenerates **Figure 5**: the time / memory-high-watermark table over
//! XMark queries Q1, Q6, Q8, Q13, Q20 at several document sizes.
//!
//! Engines compared:
//!
//! * `gcx`        — this system: projection + active garbage collection;
//! * `proj-only` — static projection without dynamic purging (the
//!   FluXQuery / projection-systems class);
//! * `full-buf` — the streaming evaluator over an unprojected buffer;
//! * `dom` — the independent DOM baseline (the Galax/Saxon/QizX in-memory
//!   class).
//!
//! Memory is reported two ways: the engine's peak buffered-node count and
//! the process heap high watermark from `gcx-memtrack` (the paper reports
//! the high watermark of non-swapped memory).
//!
//! ```sh
//! cargo run --release --example fig5             # 1,5,10,20 MB
//! cargo run --release --example fig5 -- --full   # 10,50,100,200 MB
//! cargo run --release --example fig5 -- 5        # single size (MB)
//! ```
//!
//! The DOM baseline evaluates Q8's value join as a nested loop (quadratic,
//! as in the paper, where it times out at 200MB); at the `--full` sizes
//! expect it to dominate the runtime.

#[path = "figures/common.rs"]
mod common;

use common::{fmt_duration, run_dom, run_streaming, xmark_file};
use gcx::memtrack;
use gcx::xmark::queries;
use gcx::{CompiledQuery, EngineOptions};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<u64> = if args.iter().any(|a| a == "--full") {
        vec![10, 50, 100, 200]
    } else if let Some(mb) = args.first().and_then(|a| a.parse().ok()) {
        vec![mb]
    } else {
        vec![1, 5, 10, 20]
    };

    println!(
        "{:<6} {:>6} | {:<10} {:>9} {:>12} {:>10} {:>10}",
        "query", "sizeMB", "engine", "time", "peak nodes", "peak heap", "out bytes"
    );
    println!("{}", "-".repeat(76));

    for (qname, qtext) in queries::FIGURE5_QUERIES {
        for &mb in &sizes {
            let path = xmark_file(mb);
            let q = CompiledQuery::compile(qtext).expect("query compiles");
            for (ename, opts) in [
                ("gcx", EngineOptions::gcx()),
                ("proj-only", EngineOptions::projection_only()),
                ("full-buf", EngineOptions::full_buffering()),
            ] {
                memtrack::reset_peak();
                let base = memtrack::live_bytes();
                let (elapsed, report) = run_streaming(&q, &opts, &path);
                let heap = memtrack::peak_bytes().saturating_sub(base);
                println!(
                    "{:<6} {:>6} | {:<10} {:>9} {:>12} {:>10} {:>10}",
                    qname,
                    mb,
                    ename,
                    fmt_duration(elapsed),
                    report.buffer.peak_live,
                    memtrack::fmt_bytes(heap),
                    report.output_bytes
                );
            }
            {
                memtrack::reset_peak();
                let base = memtrack::live_bytes();
                let (elapsed, nodes, out_bytes) = run_dom(qtext, &path);
                let heap = memtrack::peak_bytes().saturating_sub(base);
                println!(
                    "{:<6} {:>6} | {:<10} {:>9} {:>12} {:>10} {:>10}",
                    qname,
                    mb,
                    "dom",
                    fmt_duration(elapsed),
                    nodes,
                    memtrack::fmt_bytes(heap),
                    out_bytes
                );
            }
            println!("{}", "-".repeat(76));
        }
    }

    println!(
        "\nreading guide (paper Figure 5): gcx holds peak memory constant across\n\
         sizes for Q1/Q6/Q13/Q20 and grows linearly only for the join Q8;\n\
         proj-only grows with the projected document; full-buf and dom grow\n\
         with the whole document. gcx must also be the fastest engine on the\n\
         streaming queries."
    );
}
