//! `/metrics` families pinned: every `# HELP` and `# TYPE` line, and the
//! label names each sample carries, sorted. A family renamed, dropped,
//! retyped, re-described or relabelled fails here; the order families are
//! rendered in may change.

use gcx_server::{client, serve, ServerConfig};

/// A sample line reduced to its series name and label names:
/// `x_bucket{outcome="2xx",le="10"} 3` becomes `x_bucket{outcome,le}`.
fn label_set(sample: &str) -> String {
    let (series, _value) = sample.rsplit_once(' ').expect("sample value");
    match series.split_once('{') {
        None => series.to_string(),
        Some((name, labels)) => {
            let names: Vec<&str> = labels
                .trim_end_matches('}')
                .split(',')
                .map(|pair| pair.split('=').next().expect("label name"))
                .collect();
            format!("{name}{{{}}}", names.join(","))
        }
    }
}

#[test]
fn metrics_families_match_golden() {
    // Regenerate with `GCX_BLESS=1 cargo test -p gcx-server --test
    // metrics_golden` after an intentional change to the exposition.
    let h = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind");
    // One registered query, so the per-query family has a sample.
    let r = client::put_query(h.addr(), "titles", "for $b in /bib/book return $b/title").unwrap();
    assert_eq!(r.status, 201);
    let r = client::get(h.addr(), "/metrics").unwrap();
    assert_eq!(r.status, 200);
    h.shutdown();

    let text = String::from_utf8(r.body).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with('#') {
                l.to_string()
            } else {
                label_set(l)
            }
        })
        .collect();
    lines.sort();
    lines.dedup();
    let doc = lines.join("\n") + "\n";
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_families.txt"
    );
    if std::env::var_os("GCX_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(path, &doc).unwrap();
    }
    assert_eq!(doc, std::fs::read_to_string(path).unwrap());
}
