//! Regenerates **Figure 4**: buffer plots for XMark Q6 and Q8 on a ~10MB
//! generated document.
//!
//! Expected shapes (paper §3 "Dynamic buffer management"):
//!
//! * **Q6** — items live at the *start* of the document (regions section);
//!   they are processed one at a time, so the buffer stays below ~100 nodes
//!   and is nearly empty once the regions section has passed.
//! * **Q8** — the people section loads a first "diagonal" of join partners,
//!   a plateau follows while irrelevant sections stream by, then the closed
//!   auctions accumulate: memory linear in the input.
//!
//! ```sh
//! cargo run --release --example fig4            # ~10MB document
//! cargo run --release --example fig4 -- 2       # ~2MB document
//! ```

#[path = "figures/common.rs"]
mod common;

use common::{ascii_plot, run_streaming, write_series_csv, xmark_file};
use gcx::xmark::queries;
use gcx::{CompiledQuery, EngineOptions};

fn main() {
    let mb: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let path = xmark_file(mb);

    for (name, query, label) in [
        (
            "fig4a",
            queries::Q6,
            "Figure 4(a): Query Q6 — streaming, low memory",
        ),
        (
            "fig4b",
            queries::Q8,
            "Figure 4(b): Query Q8 — blocking join, linear memory",
        ),
    ] {
        let q = CompiledQuery::compile(query).expect("query compiles");
        let (elapsed, report) = run_streaming(&q, &EngineOptions::gcx().with_timeline(1), &path);
        let full = report.timeline.expect("timeline enabled").points;
        // Thin the series for CSV/plot to roughly 2000 points.
        let stride = (full.len() / 2000).max(1);
        let series: Vec<(u64, u64)> = full.iter().copied().step_by(stride).collect();

        println!("\n{label}");
        print!("{}", ascii_plot(&series, 100, 14));
        println!(
            "tokens: {}   peak buffered nodes: {}   purged: {}   time: {:?}",
            report.tokens, report.buffer.peak_live, report.buffer.purged, elapsed
        );
        let csv = write_series_csv(name, &series);
        println!("series written to {}", csv.display());
    }

    // Shape check mirroring the paper's reading of the two plots.
    let q6 = CompiledQuery::compile(queries::Q6).unwrap();
    let q8 = CompiledQuery::compile(queries::Q8).unwrap();
    let (_, r6) = run_streaming(&q6, &EngineOptions::gcx(), &path);
    let (_, r8) = run_streaming(&q8, &EngineOptions::gcx(), &path);
    println!(
        "\nQ6 peak ({}) << Q8 peak ({}): streaming vs blocking — factor {:.0}x",
        r6.buffer.peak_live,
        r8.buffer.peak_live,
        r8.buffer.peak_live as f64 / r6.buffer.peak_live.max(1) as f64
    );
}
