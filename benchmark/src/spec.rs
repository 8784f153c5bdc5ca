//! What the benchmark is: its workloads, its metrics with their units,
//! directions and regression bounds, and the command that runs it. The
//! `contract` subcommand renders this table as `BENCHMARK.json`; a unit
//! test holds the committed file to it, so names cannot drift apart.

use gcx_xmark::queries::{self, extra};

pub const MIB: u64 = 1024 * 1024;

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 10;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// Benchmark-local queries: each echoes ~27-30 % of the input while the
/// buffer never holds more than one auction / item (<= 56 nodes).
pub const COPY_AUCTIONS: &str =
    "<all>{ for $a in /site/open_auctions/open_auction return $a }</all>";
pub const COPY_ITEMS: &str = "<all>{ for $i in /site/regions//item return $i }</all>";

/// How a workload's operations reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `CompiledQuery::session` fed in 64 KiB chunks, one query at a time.
    Session,
    /// `gcx_multi::run_batch`: all queries in one pass.
    Batch,
    /// `gcx_par::run_parallel` with `min(nproc, 4)` threads.
    Par,
    /// `POST /eval/{q}` against an in-process `gcx_server::serve`.
    Server,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    /// Documents per set-up and the size of each.
    pub docs: usize,
    pub doc_bytes: u64,
    /// Document size under `--smoke`.
    pub smoke_bytes: u64,
    /// The queries, with their names.
    pub queries: fn() -> Queries,
}

/// The document shared by the four single-document workloads. The issue
/// asked for 64 MiB; the run-time cap of the acceptance procedure (158
/// runs in 3420 s, set-up repeated inside each) leaves room for 16 MiB.
const BIG: u64 = 16 * MIB;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "scan_heavy",
        why: "Q1/Q13/Q19/Q2/Q17 on one 16 MiB document: output <= 4 % of input, 5-9 buffered nodes, so tokenizer and projection skip do the work and buffer/VM/writer almost none",
        driver: Driver::Session,
        docs: 1,
        doc_bytes: BIG,
        smoke_bytes: MIB,
        queries: scan_queries,
    },
    Workload {
        name: "buffer_heavy",
        why: "Q8 join, Q6_COUNT, Q20, Q14 on the same document: buffer append/purge, the VM and the allocator dominate; carries the memory columns of the paper's Fig. 5",
        driver: Driver::Session,
        docs: 1,
        doc_bytes: BIG,
        smoke_bytes: MIB,
        queries: buffer_queries,
    },
    Workload {
        name: "output_heavy",
        why: "two copy queries echo ~30 % of the same document: nodes are buffered to be serialised, not tested and dropped, so XmlWriter and escaping carry the run",
        driver: Driver::Session,
        docs: 1,
        doc_bytes: BIG,
        smoke_bytes: MIB,
        queries: copy_queries,
    },
    Workload {
        name: "small_docs",
        why: "20 documents of 8 KiB x 5 queries, a fresh session per operation: per-session fixed cost dominates, so work moved from the hot loop into session set-up shows as a loss",
        driver: Driver::Session,
        docs: 20,
        doc_bytes: 8 * 1024,
        smoke_bytes: 8 * 1024,
        queries: short_queries,
    },
    Workload {
        name: "batch_shared",
        why: "run_batch over the 11 paper queries in one pass of an 8 MiB document: the gcx-multi fan-out (thread + channel per query) is the layer no single-query workload touches",
        driver: Driver::Batch,
        docs: 1,
        doc_bytes: 8 * MIB,
        smoke_bytes: MIB,
        queries: queries::paper_queries,
    },
    Workload {
        name: "par_shards",
        why: "run_parallel with min(nproc,4) threads on Q1/Q6/Q13 (parallel), Q6_COUNT (two_phase), Q8 (serial fallback): decides whether gcx-par earns its keep, CPU cost beside wall gain",
        driver: Driver::Par,
        docs: 1,
        doc_bytes: BIG,
        smoke_bytes: MIB,
        queries: shard_queries,
    },
    Workload {
        name: "server_loopback",
        why: "in-process HTTP service, nproc workers, nproc closed-loop clients posting four 1 MiB documents x 5 queries, sized and chunked uploads alternating: framing and worker hand-off are the layer",
        driver: Driver::Server,
        docs: 4,
        doc_bytes: MIB,
        smoke_bytes: 256 * 1024,
        queries: short_queries,
    },
];

pub type Queries = Vec<(&'static str, &'static str)>;

fn scan_queries() -> Queries {
    vec![
        ("Q1", queries::Q1),
        ("Q13", queries::Q13),
        ("Q19", extra::Q19),
        ("Q2", extra::Q2),
        ("Q17", extra::Q17),
    ]
}

fn buffer_queries() -> Queries {
    vec![
        ("Q8", queries::Q8),
        ("Q6_COUNT", queries::Q6_COUNT),
        ("Q20", queries::Q20),
        ("Q14", extra::Q14),
    ]
}

fn copy_queries() -> Queries {
    vec![("COPY_AUCTIONS", COPY_AUCTIONS), ("COPY_ITEMS", COPY_ITEMS)]
}

fn shard_queries() -> Queries {
    vec![
        ("Q1", queries::Q1),
        ("Q6", queries::Q6),
        ("Q13", queries::Q13),
        ("Q6_COUNT", queries::Q6_COUNT),
        ("Q8", queries::Q8),
    ]
}

/// The mix of `small_docs` and `server_loopback`: many short operations.
fn short_queries() -> Queries {
    vec![
        ("Q1", queries::Q1),
        ("Q6", queries::Q6),
        ("Q13", queries::Q13),
        ("Q20", queries::Q20),
        ("COPY_AUCTIONS", COPY_AUCTIONS),
    ]
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen. One bound per metric covers all seven workloads, so it
    /// is sized for the noisiest of them (see README, "Bounds").
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// Bounds are sized from the spreads measured on the reference box (2
/// shared vCPUs, where the same code drifts by 5-15 % within minutes):
/// timings get the widest bounds the contract allows, the counts a bound
/// that covers their variation from seed to seed.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_mb_s", "MiB/s", true, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("peak_heap_mb", "MiB", false, 0.15),
    e2e("peak_buffer_kb", "KiB", false, 0.02),
    e2e("first_output_pct", "%", false, 0.02),
    e2e("cpu_ms_per_mb", "ms/MiB", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Single layers, from the traced run. A workload that bypasses a layer
/// reports 0 for it. Counts (unit `count`) repeat exactly for one seed.
pub const PER_LAYER: [Metric; 43] = [
    // Demoted from the end-to-end list: a tail statistic of 100-odd
    // samples moves by up to 17 % between runs of the same code here.
    layer("op_ms_p95", "ms", false),
    layer("xml.memscan_ns_per_byte", "ns/byte", false),
    layer("xml.scan_ns_per_byte", "ns/byte", false),
    layer("xml.tokenize_ns_per_byte", "ns/byte", false),
    layer("xml.tokens", "count", false),
    layer("xml.write_ns_per_out_byte", "ns/byte", false),
    layer("projection.match_ns_per_token", "ns/token", false),
    layer("projection.matched_frac", "ratio", false),
    layer("ir.compile_us", "us", false),
    layer("ir.instructions", "count", false),
    layer("analyze.analyze_us", "us", false),
    layer("core.session_new_us", "us", false),
    layer("core.eval_ns_per_byte", "ns/byte", false),
    layer("core.eval_ns_per_node", "ns/node", false),
    layer("core.nodes_appended", "count", false),
    layer("core.nodes_purged", "count", true),
    layer("core.peak_live_nodes", "count", false),
    layer("core.output_bytes", "count", false),
    layer("core.feed_calls", "count", false),
    layer("core.max_pending_bytes", "count", false),
    layer("core.heap_over_buffer", "ratio", false),
    layer("memtrack.allocs_per_ktoken", "1/ktoken", false),
    layer("memtrack.alloc_kb_per_mb", "KiB/MiB", false),
    layer("schema.time_ratio", "ratio", false),
    layer("schema.peak_ratio", "ratio", false),
    layer("schema.reach_cuts", "count", true),
    layer("schema.early_signoffs", "count", true),
    layer("dom.run_ms", "ms", false),
    layer("dom.heap_ratio", "ratio", true),
    layer("multi.batch_over_sum", "ratio", false),
    layer("multi.share_factor", "ratio", true),
    layer("multi.fanout_events", "count", false),
    layer("par.speedup", "ratio", true),
    layer("par.shards", "count", true),
    layer("par.path", "count", true),
    layer("par.shard_skew", "ratio", false),
    layer("server.overhead_ms", "ms", false),
    layer("server.connect_ms", "ms", false),
    layer("server.upload_ms", "ms", false),
    layer("server.first_byte_ms", "ms", false),
    layer("server.download_ms", "ms", false),
    layer("server.rejected", "count", false),
    layer("trace.overhead_pct", "%", false),
];

/// The program and arguments the acceptance driver runs from the root of
/// a checkout; it appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn better(m: &Metric) -> &'static str {
    if m.higher {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn contract_json() -> String {
    let mut s = String::from("{\n  \"command\": [");
    let args: Vec<String> = COMMAND.iter().map(|a| format!("\"{a}\"")).collect();
    s.push_str(&args.join(", "));
    s.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!(w.queries)().is_empty());
            names.push(w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!((0.0..=0.25).contains(&m.bound));
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, contract_json(), "regenerate with `contract`");
    }
}
