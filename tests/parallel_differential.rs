//! Partition-parallel differential suite: `gcx_par::run_parallel`'s
//! contract is that the merged output is **byte-identical** to a serial
//! run at every thread count — the parallel path for shard-safe queries,
//! the two-phase path for whole-document counts, and an honest serial
//! fallback for everything else (Q8's cross-shard join, the running
//! example's root binding). The serial reference itself is driven
//! through seeded chunk splits and 1-byte feeds, so the comparison also
//! re-pins the sans-IO core's chunking invariance.
//!
//! Buffer contract: for queries that actually shard, no shard's buffer
//! peak may exceed the serial run's peak — partitioning must never
//! *create* buffering the serial evaluation avoided.

use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions, RunReport};
use gcx_par::{run_parallel, ParOptions, ShardPath};

fn xmark(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024);
    cfg.seed = seed;
    generate_string(&cfg)
}

/// Push `doc` through an `EvalSession` cut at `splits` (ascending offsets).
fn run_split(q: &CompiledQuery, doc: &[u8], splits: &[usize]) -> (Vec<u8>, RunReport) {
    let mut session = q.session(&EngineOptions::gcx());
    let mut from = 0;
    for &cut in splits {
        let cut = cut.min(doc.len());
        session.feed(&doc[from..cut]).expect("feed");
        from = cut;
    }
    session.feed(&doc[from..]).expect("final feed");
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

/// Deterministic split-point generator (xorshift64*, no external deps).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn splits(&mut self, len: usize, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|_| (self.next() as usize) % (len + 1)).collect();
        v.sort_unstable();
        v
    }
}

/// Queries that must actually take a partitioned path on XMark input.
const MUST_SHARD: &[&str] = &[
    "Q1", "Q6", "Q13", "Q20", "Q2", "Q3", "Q14", "Q17", "Q19", "Q6_COUNT",
];
/// Queries that must fall back serially (cross-shard join).
const MUST_FALL_BACK: &[&str] = &["Q8"];

#[test]
fn all_paper_queries_all_thread_counts() {
    let doc = xmark(96, 0x6C7867);
    let doc = doc.as_bytes();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for (name, qtext) in queries::paper_queries() {
        let q = CompiledQuery::compile(qtext).expect("compile");
        // Serial reference under seeded chunk splits: chunking-invariant
        // by the PR 5 contract, and the baseline for every thread count.
        let reference = run_split(&q, doc, &rng.splits(doc.len(), 23));
        for threads in [1usize, 2, 4, 8] {
            let outcome = run_parallel(
                &q,
                &EngineOptions::gcx(),
                &ParOptions::with_threads(threads),
                doc,
            )
            .expect("run_parallel");
            assert_eq!(
                outcome.output, reference.0,
                "{name} @ {threads} threads: parallel output differs from serial"
            );
            if threads == 1 {
                assert_eq!(outcome.path, ShardPath::Serial);
                assert_eq!(
                    outcome.report.tokens, reference.1.tokens,
                    "{name}: serial-path token count drifted"
                );
            }
            if threads > 1 && MUST_SHARD.contains(&name) {
                assert_ne!(
                    outcome.path,
                    ShardPath::Serial,
                    "{name} @ {threads} threads: expected a partitioned path, fell back: {:?}",
                    outcome.fallback
                );
                assert!(outcome.shards > 1, "{name}: partitioned but single shard");
                // Partitioning must not create buffering: every shard
                // stays within the serial peak.
                for (i, sr) in outcome.shard_reports.iter().enumerate() {
                    assert!(
                        sr.buffer.peak_live <= reference.1.buffer.peak_live,
                        "{name} @ {threads} threads: shard {i} peak {} exceeds serial peak {}",
                        sr.buffer.peak_live,
                        reference.1.buffer.peak_live
                    );
                    assert!(
                        sr.buffer.peak_live_bytes <= reference.1.buffer.peak_live_bytes,
                        "{name} @ {threads} threads: shard {i} byte peak {} exceeds serial {}",
                        sr.buffer.peak_live_bytes,
                        reference.1.buffer.peak_live_bytes
                    );
                }
                // Shard token counts sum to the aggregate (preludes are
                // re-tokenized per shard, so the sum exceeds serial).
                let sum: u64 = outcome.shard_reports.iter().map(|r| r.tokens).sum();
                assert_eq!(outcome.report.tokens, sum);
                assert!(sum >= reference.1.tokens);
            }
            if threads > 1 && MUST_FALL_BACK.contains(&name) {
                assert_eq!(
                    outcome.path,
                    ShardPath::Serial,
                    "{name}: a cross-shard join must not take a partitioned path"
                );
                assert!(
                    outcome.fallback.is_some(),
                    "{name}: fallback without reason"
                );
                // No output or peak change on the fallback path.
                assert_eq!(
                    outcome.report.buffer.peak_live,
                    reference.1.buffer.peak_live
                );
                assert_eq!(outcome.report.tokens, reference.1.tokens);
            }
        }
    }
}

#[test]
fn q6_count_takes_two_phase_path() {
    let doc = xmark(64, 7);
    let q = CompiledQuery::compile(queries::Q6_COUNT).expect("compile");
    let outcome = run_parallel(
        &q,
        &EngineOptions::gcx(),
        &ParOptions::with_threads(4),
        doc.as_bytes(),
    )
    .expect("run_parallel");
    assert_eq!(outcome.path, ShardPath::TwoPhase);
    let reference = run_split(&q, doc.as_bytes(), &[]);
    assert_eq!(outcome.output, reference.0);
}

#[test]
fn running_example_falls_back_via_guard() {
    // `for $bib in /bib` binds a child of the root that exists once: the
    // guard rejects every split (and the body has two output-producing
    // loops), so the run degrades to serial with no behavior change.
    let doc = "<bib><book><title>t1</title><price>5</price></book>\
               <book><title>t2</title></book></bib>";
    let q = CompiledQuery::compile(queries::RUNNING_EXAMPLE).expect("compile");
    let outcome = run_parallel(
        &q,
        &EngineOptions::gcx(),
        &ParOptions::with_threads(4),
        doc.as_bytes(),
    )
    .expect("run_parallel");
    assert_eq!(outcome.path, ShardPath::Serial);
    assert!(outcome.fallback.is_some());
    let reference = run_split(&q, doc.as_bytes(), &[]);
    assert_eq!(outcome.output, reference.0);
}

/// A chained query whose *intermediate* spine level can bind nested
/// elements: `/r//a` selects both an `<a>` and an `<a>` inside it. Under
/// XQuery's per-binding grouping (what the dom/full engines produce),
/// cutting inside an outer binding would splice the nested binding's
/// group into the middle of the outer's; the streaming engine currently
/// flattens nested groups, which masks the division byte-wise, but shard
/// safety must hold regardless of that attribution — so the analysis
/// guards the descendant spine prefix itself.
const NESTED_SPINE: &str = "for $x in /r//a return for $y in $x//b return $y/t";

/// `count` top-level `<a>` blocks. Each block's outer binding owns `<b>`s
/// of its own *and* two nested `<a>` bindings, padded so that almost any
/// cut inside a block lands between a nested binding's `<b>` and later
/// outer-binding material — exactly the shape whose groups a mid-block
/// split would reorder.
fn nested_doc(count: usize) -> String {
    let pad = format!("<p>{}</p>", "x".repeat(180));
    let mut doc = String::from("<r>");
    for i in 0..count {
        doc.push_str(&format!(
            "<a><b><t>{i}.0</t></b>\
             <a><b><t>{i}.1</t></b>{pad}</a>\
             <a><b><t>{i}.2</t></b>{pad}</a>\
             <b><t>{i}.3</t></b></a>"
        ));
    }
    doc.push_str("</r>");
    doc
}

#[test]
fn nested_intermediate_bindings_shard_only_at_safe_boundaries() {
    // The descendant spine prefix `/r//a` is a guard of its own: every
    // candidate split inside an `<a>` is vetoed, splits land between
    // top-level blocks, and the merge stays byte-identical to serial.
    let q = CompiledQuery::compile(NESTED_SPINE).expect("compile");
    let doc = nested_doc(64);
    let doc = doc.as_bytes();
    let reference = run_split(&q, doc, &[]);
    for threads in [2usize, 4, 8] {
        let outcome = run_parallel(
            &q,
            &EngineOptions::gcx(),
            &ParOptions::with_threads(threads),
            doc,
        )
        .expect("run_parallel");
        assert_eq!(
            outcome.output, reference.0,
            "@ {threads} threads: a split divided a nested spine binding"
        );
        // Whole blocks are still safe to distribute: the veto must not
        // degrade Q6-style sharding into a blanket serial fallback.
        assert_eq!(
            outcome.path,
            ShardPath::Parallel,
            "@ {threads} threads: fell back: {:?}",
            outcome.fallback
        );
        assert!(outcome.shards > 1);
    }
}

#[test]
fn nested_bindings_with_no_safe_boundary_fall_back() {
    // One outer `<a>` holds the whole document: every candidate split
    // sits inside a divisible `/r//a` binding, so the guard rejects them
    // all and the run degrades to serial with no output change. This is
    // the regression tripwire for the interior-prefix guard: without it
    // the splitter happily cuts through nested spine bindings.
    let q = CompiledQuery::compile(NESTED_SPINE).expect("compile");
    let mut doc = String::from("<r><a>");
    for i in 0..32 {
        doc.push_str(&format!(
            "<a><b><t>{i}.1</t></b><b><t>{i}.2</t></b></a><b><t>{i}.3</t></b>"
        ));
    }
    doc.push_str("</a></r>");
    let doc = doc.as_bytes();
    let reference = run_split(&q, doc, &[]);
    let outcome = run_parallel(&q, &EngineOptions::gcx(), &ParOptions::with_threads(4), doc)
        .expect("run_parallel");
    assert_eq!(
        outcome.path,
        ShardPath::Serial,
        "no split point avoids dividing a nested binding"
    );
    assert!(outcome.fallback.is_some());
    assert_eq!(outcome.output, reference.0);
}

#[test]
fn parallel_is_deterministic_across_runs() {
    let doc = xmark(48, 21);
    let q = CompiledQuery::compile(queries::Q1).expect("compile");
    let a = run_parallel(
        &q,
        &EngineOptions::gcx(),
        &ParOptions::with_threads(4),
        doc.as_bytes(),
    )
    .expect("run");
    let b = run_parallel(
        &q,
        &EngineOptions::gcx(),
        &ParOptions::with_threads(4),
        doc.as_bytes(),
    )
    .expect("run");
    assert_eq!(a.output, b.output);
    assert_eq!(a.shards, b.shards);
    assert_eq!(a.report.tokens, b.report.tokens);
    assert_eq!(a.report.buffer.peak_live, b.report.buffer.peak_live);
    assert_eq!(a.report.buffer.allocated, b.report.buffer.allocated);
}

#[test]
fn one_byte_feeds_match_parallel_merge() {
    // The serial reference at the pathological extreme: 1-byte feeds.
    let doc = xmark(4, 3);
    let doc = doc.as_bytes();
    for (name, qtext) in [("Q1", queries::Q1), ("Q6", queries::Q6)] {
        let q = CompiledQuery::compile(qtext).expect("compile");
        let splits: Vec<usize> = (1..doc.len()).collect();
        let reference = run_split(&q, doc, &splits);
        let outcome = run_parallel(&q, &EngineOptions::gcx(), &ParOptions::with_threads(8), doc)
            .expect("run_parallel");
        assert_eq!(
            outcome.output, reference.0,
            "{name}: 1-byte-fed serial differs from parallel merge"
        );
    }
}

#[test]
fn telemetry_aggregates_deterministically() {
    let doc = xmark(32, 5);
    let q = CompiledQuery::compile(queries::Q6).expect("compile");
    let mut opts = EngineOptions::gcx();
    opts.telemetry = true;
    let outcome = run_parallel(&q, &opts, &ParOptions::with_threads(4), doc.as_bytes())
        .expect("run_parallel");
    assert_ne!(outcome.path, ShardPath::Serial);
    let obs = outcome.report.obs.as_ref().expect("aggregated obs report");
    let per_shard: u64 = outcome
        .shard_reports
        .iter()
        .map(|r| r.obs.as_ref().expect("shard obs").purge_batch.count())
        .sum();
    assert_eq!(obs.purge_batch.count(), per_shard);
    let mut serial_out = Vec::new();
    gcx::run(&q, &opts, doc.as_bytes(), &mut serial_out).expect("serial");
    assert_eq!(outcome.output, serial_out);
}
