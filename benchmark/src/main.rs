//! The repository benchmark. One command generates its inputs from a
//! seed, runs the named workloads, checks every output against the DOM
//! engine, and prints every metric by name with its unit. See README.md.
//!
//! ```text
//! gcx-benchmark [run] [--workload NAME|all] [--seed S] [--seconds T]
//!               [--trace [0|1]] [--sets N] [--smoke]
//! gcx-benchmark contract        # print BENCHMARK.json
//! ```

mod drive;
mod inputs;
mod layers;
mod spec;
mod stats;
mod trace;

use drive::{Bench, Section};
use inputs::Setup;
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::{Duration, Instant};

// Heap figures come from the same tracking allocator the `gcx` binary
// installs, so `peak_heap_mb` is the paper's memory column.
#[global_allocator]
static ALLOC: gcx_memtrack::TrackingAllocator = gcx_memtrack::TrackingAllocator::new();

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        sets: 1,
        smoke: false,
    };
    let mut it = argv.iter().map(String::as_str).peekable();
    if it.peek() == Some(&"run") {
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = spec::workload(name).ok_or(format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--sets" => {
                args.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.trace = match it.peek() {
                    Some(&"0") => {
                        it.next();
                        false
                    }
                    Some(&"1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 60.0) || args.sets == 0 {
        return Err("--seconds must be within 0..=60 and --sets at least 1".into());
    }
    Ok(args)
}

/// What one run of one workload reports.
struct Outcome {
    failed: u64,
    /// Values in the order of `END_TO_END` or, traced, of `PER_LAYER`.
    values: Vec<f64>,
}

fn table(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn run_workload(w: &'static Workload, args: &Args, seed: u64) -> Result<Outcome, String> {
    println!(
        "== {} == seed {seed}, {} document(s) of ~{} KiB, nproc {}{}",
        w.name,
        w.docs,
        if args.smoke {
            w.smoke_bytes
        } else {
            w.doc_bytes
        } / 1024,
        inputs::threads(),
        if args.smoke { ", smoke" } else { "" },
    );

    // Set up several times: `setup_s` is the median, the last one is used.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if args.smoke { 1 } else { spec::SETUPS_PER_RUN } {
        drop(setup.take());
        let built = Setup::build(w, seed, args.smoke)?;
        setup_s.push(built.seconds / built.speed);
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");
    let bench = Bench::new(w, &setup);
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    // One untimed round: caches, lazy set-up, thread pools.
    let warm = bench.run_for(0.0, &mut trace::Trace::off());
    let mut attempted = warm.acc.attempted + setup.oracle_failures;
    let mut failed = warm.acc.failed + setup.oracle_failures;

    let values = if args.trace {
        // A quarter of the time on the driver, in slices that alternate
        // between spans off and spans on, so that their difference is the
        // tracing overhead; the rest on the ledger, whose rounds are long.
        let mut trace = trace::Trace::new();
        let (mut untraced, mut traced) = (Section::default(), Section::default());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / 4.0);
        loop {
            untraced.merge(bench.run_for(seconds / 16.0, &mut trace::Trace::off()));
            traced.merge(bench.run_for(seconds / 16.0, &mut trace));
            if Instant::now() >= deadline {
                break;
            }
        }
        let mut ledger = layers::Ledger::new(&setup);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.75);
        loop {
            ledger.round(&setup, &mut trace);
            if Instant::now() >= deadline {
                break;
            }
        }
        for s in [&untraced, &traced] {
            attempted += s.acc.attempted;
            failed += s.acc.failed;
        }
        attempted += ledger.attempted;
        failed += ledger.failed;
        print_ledger(&bench, &ledger, &untraced, &trace);
        write_trace(w, seed, &trace)?;
        ledger.metrics(&bench, &untraced, &traced)
    } else {
        let section = bench.run_for(seconds, &mut trace::Trace::off());
        attempted += section.acc.attempted;
        failed += section.acc.failed;
        print_section(&bench, &section);
        let e = bench.end_to_end(&section);
        vec![
            ("setup_s", stats::median(&setup_s)),
            ("throughput_mb_s", e.throughput_mb_s),
            ("ops_per_s", e.ops_per_s),
            ("op_ms_p50", e.op_ms_p50),
            ("peak_heap_mb", e.peak_heap_mb),
            ("peak_buffer_kb", e.peak_buffer_kb),
            ("first_output_pct", e.first_output_pct),
            ("cpu_ms_per_mb", e.cpu_ms_per_mb),
        ]
    };
    // The tables of `spec` are the contract: what is reported here must be
    // exactly their names, in their order.
    let metrics = table(args.trace);
    let reported: Vec<&str> = values.iter().map(|v| v.0).collect();
    let declared: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(reported, declared, "metrics out of step with spec.rs");
    let values: Vec<f64> = values
        .into_iter()
        .map(|(_, v)| if v.is_finite() { v } else { 0.0 })
        .collect();
    for (m, v) in metrics.iter().zip(&values) {
        println!("{:<32} {:>16.4} {}", m.name, v, m.unit);
    }
    println!(
        "failed_frac                      {:>16.6} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    // The result line: last line of a single-workload run.
    let fields: Vec<String> = metrics
        .iter()
        .zip(&values)
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(Outcome { failed, values })
}

/// The raw rows behind the end-to-end figures: per query the median,
/// quartiles, extremes and sample count of its operation times.
fn print_section(bench: &Bench, s: &Section) {
    let acc = &s.acc;
    println!(
        "timed {:.2} s: {} rounds x {} client(s), {} operations, {:.1} MiB in",
        s.wall_s,
        acc.rounds.len(),
        bench.clients(),
        acc.samples.len(),
        acc.bytes as f64 / spec::MIB as f64
    );
    let (q1, q3) = stats::quartiles(&acc.pacer.readings);
    println!(
        "  speed factor median {:.4}  q1 {q1:.4}  q3 {q3:.4}  n {} (1.0 = quiet reference box; \
         every time below is divided by the factor measured beside it)",
        s.speed(),
        acc.pacer.readings.len()
    );
    println!(
        "  raw wall: {:.3} MiB/s, {:.4} CPU ms/MiB",
        acc.bytes as f64 / spec::MIB as f64 / s.wall_s,
        s.raw_cpu_ms / (acc.bytes as f64 / spec::MIB as f64)
    );
    let (q1, q3) = stats::quartiles(&acc.rounds);
    println!(
        "  round_s  median {:.4}  q1 {q1:.4}  q3 {q3:.4}  min {:.4}  max {:.4}  n {}",
        stats::median(&acc.rounds),
        acc.rounds.iter().copied().fold(f64::INFINITY, f64::min),
        acc.rounds.iter().copied().fold(0.0, f64::max),
        acc.rounds.len()
    );
    for (k, kind) in bench.setup.kinds.iter().enumerate() {
        let v: Vec<f64> = acc
            .samples
            .iter()
            .filter(|s| s.0 == k as u32)
            .map(|s| s.1)
            .collect();
        if v.is_empty() {
            continue;
        }
        let (q1, q3) = stats::quartiles(&v);
        println!(
            "  {:<14} op_ms median {:.4}  q1 {q1:.4}  q3 {q3:.4}  min {:.4}  max {:.4}  n {}",
            if bench.w.driver == spec::Driver::Batch {
                "batch/11"
            } else {
                kind.name
            },
            stats::median(&v),
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0, f64::max),
            v.len()
        );
    }
    let e = bench.end_to_end(s);
    println!(
        "  op_ms_p95 stands at percentile {:.1} of {} samples",
        e.tail_percentile,
        acc.samples.len()
    );
}

/// The ledger's view per query: do the layer self times add up to the
/// untraced operation time?
fn print_ledger(bench: &Bench, ledger: &layers::Ledger, untraced: &Section, trace: &trace::Trace) {
    println!(
        "ledger: {} round(s); per query, ms summed over the workload's documents",
        ledger.rounds
    );
    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "query",
        "tokenize",
        "match",
        "eval",
        "session",
        "with_schema",
        "untraced_op",
        "kept_tokens"
    );
    let docs = bench.setup.docs.len() as f64;
    let ops = untraced.acc.kind_medians(bench.setup.kinds.len());
    for ((kind, row), op) in bench.setup.kinds.iter().zip(ledger.breakdown()).zip(ops) {
        println!(
            "  {:<14} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>12.3} {:>12}",
            kind.name,
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            op * docs,
            row[5]
        );
    }
    println!("spans: {} kept, {} dropped", trace.len(), trace.dropped());
    for (name, (count, total, own)) in trace.summary() {
        println!(
            "  {name:<20} n {count:>7}  total_ms {:>10.3}  self_ms {:>10.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Chrome trace JSON under `benchmark/out/` of the checkout (`out/` when
/// run from inside `benchmark/`).
fn write_trace(w: &Workload, seed: u64, trace: &trace::Trace) -> Result<(), String> {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let path = format!("{dir}/trace-{}-seed{seed}.json", w.name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| trace.write_chrome(std::io::BufWriter::new(f)))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("trace written to {path}");
    Ok(())
}

/// `--sets N`: do N sets with seeds S, S+1, ... and hold the spread of
/// every end-to-end metric (quartile distance over median, as the
/// acceptance procedure computes it) against its bound.
fn print_sets(args: &Args, sets: &[Vec<Outcome>]) -> bool {
    let metrics = table(args.trace);
    let mut steady = true;
    println!("\n== {} sets, seeds {}.. ==", sets.len(), args.seed);
    println!(
        "{:<16} {:<30} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (wi, w) in args.workloads.iter().enumerate() {
        for (mi, m) in metrics.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|set| set[wi].values[mi]).collect();
            let spread = stats::spread(&values);
            // Per-layer metrics have no bound; set-up is bounded on its
            // median only.
            // --smoke takes one round: no verdicts either.
            let verdict = if args.trace || args.smoke || m.name == "setup_s" {
                "-"
            } else if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                steady = false;
                "TOO WIDE"
            };
            println!(
                "{:<16} {:<30} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                stats::median(&values),
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
    steady
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("contract") {
        print!("{}", spec::contract_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gcx-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sets = Vec::new();
    let mut failed = 0;
    for set in 0..args.sets {
        let mut outcomes = Vec::new();
        for &w in &args.workloads {
            match run_workload(w, &args, args.seed + set as u64) {
                Ok(outcome) => {
                    failed += outcome.failed;
                    outcomes.push(outcome);
                }
                Err(e) => {
                    eprintln!("gcx-benchmark: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(outcomes);
    }
    let steady = args.sets < 2 || print_sets(&args, &sets);
    if failed > 0 {
        eprintln!("gcx-benchmark: {failed} operation(s) failed their output check");
        return ExitCode::FAILURE;
    }
    if !steady {
        eprintln!("gcx-benchmark: a spread exceeds its bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
