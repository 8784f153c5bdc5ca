//! Shared helpers of the figure examples (`fig3`, `fig4`, `fig5`), each of
//! which includes this file with `#[path]` and uses part of it.

#![allow(dead_code)]

use gcx::xmark::XmarkConfig;
use gcx::{CompiledQuery, EngineOptions, RunReport};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generate (or reuse a cached copy of) an XMark-like document of roughly
/// `mb` megabytes; returns its path. Cached under `target/xmark-cache/`.
pub fn xmark_file(mb: u64) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/xmark-cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let path = dir.join(format!("xmark-{mb}mb.xml"));
    if !path.exists() {
        eprintln!("generating {} ...", path.display());
        let tmp = path.with_extension("tmp");
        let f = BufWriter::new(File::create(&tmp).expect("create doc"));
        gcx::xmark::generate(&XmarkConfig::sized(mb * 1024 * 1024), f).expect("generate doc");
        std::fs::rename(&tmp, &path).expect("publish doc");
    }
    path
}

/// One measured engine run over a file: wall time + engine report.
pub fn run_streaming(
    q: &CompiledQuery,
    opts: &EngineOptions,
    path: &Path,
) -> (Duration, RunReport) {
    let input = BufReader::new(File::open(path).expect("open input"));
    let start = Instant::now();
    let report = gcx::run(q, opts, input, std::io::sink()).expect("engine run failed");
    (start.elapsed(), report)
}

/// One measured DOM-baseline run over a file: wall time + node count +
/// output bytes.
pub fn run_dom(query_text: &str, path: &Path) -> (Duration, usize, u64) {
    let q = gcx::query::compile(query_text).expect("query compiles");
    let input = BufReader::new(File::open(path).expect("open input"));
    let start = Instant::now();
    let report = gcx::dom::run(&q, input, std::io::sink()).expect("dom run failed");
    (start.elapsed(), report.nodes, report.output_bytes)
}

/// Format a duration the way the paper's table does: `0.18s` or `2:07`.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 100.0 {
        format!("{secs:.2}s")
    } else {
        format!("{}:{:02}", d.as_secs() / 60, d.as_secs() % 60)
    }
}

/// Write a `(token, buffered nodes)` series as CSV under `target/figures/`.
pub fn write_series_csv(name: &str, series: &[(u64, u64)]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/figures");
    std::fs::create_dir_all(&dir).expect("create figures dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = BufWriter::new(File::create(&path).expect("create csv"));
    writeln!(f, "tokens,buffered_nodes").unwrap();
    for (t, n) in series {
        writeln!(f, "{t},{n}").unwrap();
    }
    f.flush().unwrap();
    path
}

/// Compact ASCII rendering of a buffer timeline (for terminal output).
pub fn ascii_plot(series: &[(u64, u64)], width: usize, height: usize) -> String {
    if series.is_empty() {
        return String::from("(empty series)\n");
    }
    let max_y = series.iter().map(|&(_, y)| y).max().unwrap_or(0).max(1);
    let max_x = series.last().unwrap().0.max(1);
    // Downsample to `width` columns, keeping the max per column.
    let mut cols = vec![0u64; width];
    for &(x, y) in series {
        let c = ((x.saturating_mul(width as u64 - 1)) / max_x).min(width as u64 - 1) as usize;
        cols[c] = cols[c].max(y);
    }
    let mut out = String::new();
    for row in (1..=height).rev() {
        let threshold = (row as u64 * max_y).div_ceil(height as u64);
        let y_label = if row == height {
            format!("{max_y:>8}")
        } else {
            " ".repeat(8)
        };
        out.push_str(&y_label);
        out.push('|');
        for &v in &cols {
            out.push(if v >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>8}+{}\n", 0, "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}{}{}\n",
        "0",
        " ".repeat(width.saturating_sub(12)),
        max_x
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(Duration::from_millis(180)), "0.18s");
        assert_eq!(fmt_duration(Duration::from_secs(127)), "2:07");
    }

    #[test]
    fn ascii_plot_has_requested_dimensions() {
        let series: Vec<(u64, u64)> = (0..100).map(|i| (i, i % 17)).collect();
        let plot = ascii_plot(&series, 40, 8);
        assert_eq!(plot.lines().count(), 10);
    }

    #[test]
    fn xmark_file_is_cached() {
        let p1 = xmark_file(1);
        let modified = p1.metadata().unwrap().modified().unwrap();
        let p2 = xmark_file(1);
        assert_eq!(p1, p2);
        assert_eq!(p2.metadata().unwrap().modified().unwrap(), modified);
    }
}
