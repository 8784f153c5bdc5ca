//! Regenerates **Figure 3(b) and 3(c)**: buffer occupancy per token on the
//! two micro documents (9×article+1×book and 9×book+1×article), running the
//! paper's example query with full GCX buffer management.
//!
//! Prints ASCII plots and writes `target/figures/fig3{b,c}.csv`.
//!
//! ```sh
//! cargo run --release --example fig3
//! ```

#[path = "figures/common.rs"]
mod common;

use common::{ascii_plot, write_series_csv};
use gcx::xmark::{microdoc_article_heavy, microdoc_book_heavy, queries};
use gcx::{CompiledQuery, EngineOptions};

fn series_for(doc: &str) -> Vec<(u64, u64)> {
    let q = CompiledQuery::compile(queries::RUNNING_EXAMPLE).expect("query compiles");
    let report = gcx::run(
        &q,
        &EngineOptions::gcx().with_timeline(1),
        doc.as_bytes(),
        std::io::sink(),
    )
    .expect("run");
    report.timeline.expect("timeline enabled").points
}

fn main() {
    println!("Figure 3(b): 9 x article + 1 x book");
    println!("(articles are processed one at a time; memory stays bounded)\n");
    let b = series_for(&microdoc_article_heavy());
    print!("{}", ascii_plot(&b, 82, 12));
    let peak_b = b.iter().map(|&(_, y)| y).max().unwrap();
    println!("peak buffered nodes: {peak_b}   (paper plot peaks well under 10)\n");
    let path = write_series_csv("fig3b", &b);
    println!("series written to {}\n", path.display());

    println!("Figure 3(c): 9 x book + 1 x article");
    println!("(each book's title must be kept for the second loop: staircase)\n");
    let c = series_for(&microdoc_book_heavy());
    print!("{}", ascii_plot(&c, 82, 12));
    let peak_c = c.iter().map(|&(_, y)| y).max().unwrap();
    println!("peak buffered nodes: {peak_c}   (paper: 23 nodes buffered at </bib>)\n");
    let path = write_series_csv("fig3c", &c);
    println!("series written to {}", path.display());
}
