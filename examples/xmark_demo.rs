//! XMark mini-benchmark: run the paper's queries on a generated document
//! under the three evaluation strategies and compare buffer behaviour.
//!
//! ```sh
//! cargo run --release --example xmark_demo           # ~1MB document
//! cargo run --release --example xmark_demo -- 8      # ~8MB document
//! ```

use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mb: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    eprintln!("generating ~{mb}MB XMark-like document ...");
    let doc = generate_string(&XmarkConfig::sized(mb * 1024 * 1024));
    eprintln!("document: {} bytes\n", doc.len());

    println!(
        "{:<5} {:<16} {:>10} {:>12} {:>12} {:>10}",
        "query", "engine", "time", "peak nodes", "purged", "out bytes"
    );
    for (name, text) in queries::FIGURE5_QUERIES {
        let q = CompiledQuery::compile(text)?;
        for (engine, opts) in [
            ("gcx", EngineOptions::gcx()),
            ("projection-only", EngineOptions::projection_only()),
            ("full-buffering", EngineOptions::full_buffering()),
        ] {
            let mut sink = std::io::sink();
            let start = Instant::now();
            let report = gcx::run(&q, &opts, doc.as_bytes(), &mut sink)?;
            let elapsed = start.elapsed();
            println!(
                "{:<5} {:<16} {:>9.2?} {:>12} {:>12} {:>10}",
                name,
                engine,
                elapsed,
                report.buffer.peak_live,
                report.buffer.purged,
                report.output_bytes
            );
        }
        // The DOM baseline (the in-memory engines of Figure 5).
        let start = Instant::now();
        let dom_q = gcx::query::compile(text)?;
        let report = gcx::dom::run(&dom_q, doc.as_bytes(), &mut std::io::sink())?;
        let elapsed = start.elapsed();
        println!(
            "{:<5} {:<16} {:>9.2?} {:>12} {:>12} {:>10}",
            name, "dom-baseline", elapsed, report.nodes, 0, report.output_bytes
        );
        println!();
    }
    Ok(())
}
