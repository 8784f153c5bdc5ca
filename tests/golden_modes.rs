//! Golden pin of the stand-alone engine's measurements: the 11 paper
//! queries over one seed-42 XMark document in each of the four buffer
//! configurations (the {projection} × {GC} grid). The numbers are those
//! of the engine before the evaluation paths were unified; a refactoring
//! of the evaluation core must reproduce every one of them — token
//! counts, buffer peaks in nodes and bytes, appends, purges and output
//! size — and, with telemetry on, the same residency histogram (the
//! telemetry clock counts every structural token, skipped ones included).

use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineMode, EngineOptions};

fn doc() -> String {
    let mut cfg = XmarkConfig::sized(128 * 1024);
    cfg.seed = 42;
    generate_string(&cfg)
}

fn modes() -> [(&'static str, EngineOptions); 4] {
    [
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
    ]
}

/// `[tokens, peak_live, peak_live_bytes, allocated, purged, output_bytes]`
/// per query (in `paper_queries()` order), per mode (in `modes()` order).
#[rustfmt::skip]
const PINNED: [[[u64; 6]; 4]; 11] = [
    // Q1
    [[9900, 5, 871, 317, 317, 25], [9900, 317, 56125, 317, 0, 25], [9900, 8, 1406, 6067, 6067, 25], [9900, 6067, 1069457, 6067, 0, 25]],
    // Q6
    [[9900, 8, 1394, 1027, 1027, 3526], [9900, 277, 48986, 1027, 752, 3526], [9900, 9, 1728, 6067, 6067, 3526], [9900, 6067, 1069457, 6067, 0, 3526]],
    // Q8
    [[9900, 438, 77644, 438, 438, 5111], [9900, 438, 77644, 438, 0, 5111], [9900, 442, 78389, 6067, 6067, 5111], [9900, 6067, 1069457, 6067, 0, 5111]],
    // Q13
    [[9900, 9, 1697, 93, 93, 2624], [9900, 93, 17451, 93, 0, 2624], [9900, 12, 2243, 6067, 6067, 2624], [9900, 6067, 1069457, 6067, 0, 2624]],
    // Q20
    [[9900, 4, 706, 185, 185, 1068], [9900, 185, 34053, 185, 0, 1068], [9900, 7, 1378, 6067, 6067, 1068], [9900, 6067, 1069457, 6067, 0, 1068]],
    // Q2
    [[9900, 6, 1036, 171, 171, 1189], [9900, 171, 30029, 171, 0, 1189], [9900, 10, 1812, 6067, 6067, 1189], [9900, 6067, 1069457, 6067, 0, 1189]],
    // Q3
    [[9900, 9, 1546, 301, 301, 1289], [9900, 301, 52156, 301, 0, 1289], [9900, 13, 2322, 6067, 6067, 1289], [9900, 6067, 1069457, 6067, 0, 1289]],
    // Q14
    [[9900, 11, 2081, 4011, 4011, 702], [9900, 547, 103949, 4011, 3469, 702], [9900, 12, 2274, 6067, 6067, 702], [9900, 6067, 1069457, 6067, 0, 702]],
    // Q17
    [[9900, 5, 871, 317, 317, 4361], [9900, 317, 56125, 317, 0, 4361], [9900, 8, 1413, 6067, 6067, 4361], [9900, 6067, 1069457, 6067, 0, 4361]],
    // Q19
    [[9900, 8, 1382, 78, 78, 999], [9900, 78, 13591, 78, 0, 999], [9900, 11, 2051, 6067, 6067, 999], [9900, 6067, 1069457, 6067, 0, 999]],
    // Q6_COUNT
    [[9900, 99, 17868, 938, 938, 17], [9900, 99, 17868, 938, 841, 17], [9900, 103, 18666, 6067, 6067, 17], [9900, 6067, 1069457, 6067, 0, 17]],
];

#[test]
fn paper_queries_measure_the_same_in_all_four_modes() {
    let doc = doc();
    for ((name, text), want) in queries::paper_queries().into_iter().zip(PINNED) {
        let q = CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ((mode, opts), want) in modes().into_iter().zip(want) {
            let mut out = Vec::new();
            let r = gcx::run(&q, &opts, doc.as_bytes(), &mut out)
                .unwrap_or_else(|e| panic!("{name}/{mode}: {e}"));
            assert_eq!(r.output_bytes, out.len() as u64, "{name}/{mode}");
            let got = [
                r.tokens,
                r.buffer.peak_live,
                r.buffer.peak_live_bytes,
                r.buffer.allocated,
                r.buffer.purged,
                r.output_bytes,
            ];
            assert_eq!(got, want, "{name}/{mode}");
        }
    }
}

/// With telemetry on: `(count, sum)` of the append→purge residency
/// histogram and the sampled live-bytes timeline. Residency is measured
/// on the structural-token clock, so these move if a skipped token stops
/// advancing it or a purge lands one token earlier or later.
fn assert_telemetry(
    what: &str,
    text: &str,
    opts: EngineOptions,
    residency: (u64, u64),
    timeline: &[(u64, u64)],
) {
    let q = CompiledQuery::compile(text).unwrap();
    let r = gcx::run(
        &q,
        &opts.with_telemetry(),
        doc().as_bytes(),
        std::io::sink(),
    )
    .unwrap();
    let obs = r.obs.expect("telemetry on");
    let got = (obs.residency_tokens.count(), obs.residency_tokens.sum());
    assert_eq!(got, residency, "{what}: residency (count, sum)");
    assert_eq!(got.0, r.buffer.purged, "{what}: one observation per purge");
    assert_eq!(obs.live_bytes_timeline, timeline, "{what}: timeline");
}

#[test]
#[rustfmt::skip]
fn telemetry_clock_is_pinned() {
    assert_telemetry(
        "Q6/gcx", queries::Q6, EngineOptions::gcx(), (1027, 30808),
        &[(1, 168), (1025, 1205), (2049, 1204), (3073, 336), (4097, 336), (5121, 336), (6145, 336), (7169, 336), (8193, 336), (9217, 336)],
    );
    assert_telemetry(
        "Q14/gcx", queries::extra::Q14, EngineOptions::gcx(), (4011, 53937),
        &[(1, 168), (1025, 1805), (2049, 1869), (3073, 1024), (4097, 873), (5121, 873), (6145, 861), (7169, 862), (8193, 862), (9217, 840)],
    );
    assert_telemetry(
        "Q6/projection_only", queries::Q6, EngineOptions::projection_only(), (752, 2661),
        &[(1, 168), (1025, 21200), (2049, 41899), (3073, 48633), (4097, 48633), (5121, 48633), (6145, 48633), (7169, 48633), (8193, 48633), (9217, 48633)],
    );
}
