#![deny(unsafe_code)]
//! `gcx` — command-line interface for the GCX streaming XQuery engine.
//!
//! ```text
//! gcx run <query.xq|-e QUERY> <input.xml>   evaluate a query over a document
//! gcx multi <batch.xq|--xmark> <input.xml>  evaluate a query batch in ONE pass
//! gcx serve [--addr HOST:PORT]              streaming XQuery HTTP service
//! gcx explain <query.xq|-e QUERY>           roles, rewritten query, program listing
//! gcx analyze <query.xq|-e QUERY>           static streamability class, bound, lints
//! gcx trace <query.xq|-e QUERY> <input.xml> buffer-occupancy trace (CSV)
//! gcx generate <MB> [out.xml]               emit an XMark-like document
//! gcx validate <input.xml>                  well-formedness check
//! ```

use gcx_core::batch::{BatchOptions, BatchSession};
use gcx_core::{CompiledQuery, EngineOptions, RunReport};
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

mod stats;
mod trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("multi") => cmd_multi(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `gcx help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gcx: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "gcx — streaming XQuery evaluation with dynamic buffer minimization

USAGE:
  gcx run     <query.xq | -e QUERY> <input.xml> [--engine gcx|projection|full|dom]
              [--stats] [--stats-json] [--indent] [--max-buffer-bytes N]
              [--obs] [--trace FILE] [--schema xmark|FILE]
  gcx multi   <batch.xq | --xmark> <input.xml> [--out-dir DIR]
              [--stats] [--stats-json] [--indent] [--max-buffer-bytes N]
              [--obs] [--trace FILE] [--schema xmark|FILE]
  gcx serve   [--addr HOST:PORT] [--workers N] [--queue N]
              [--max-buffer-bytes N] [--read-timeout-secs S]
              [--max-request-secs S] [--schema xmark|FILE]
              [--max-static-class constant|per-item|subtree|document]
  gcx explain <query.xq | -e QUERY> [--schema xmark|FILE]
  gcx analyze <query.xq | -e QUERY> [--schema xmark|FILE] [--json]
  gcx trace   <query.xq | -e QUERY> <input.xml> [--every N]
  gcx generate <MB> [out.xml] [--seed N] [--doctype]
  gcx validate <input.xml>

Query files use the composition-free XQuery fragment of the GCX paper
(VLDB 2007); `-e` passes the query inline. Results stream to stdout.

`multi` evaluates a whole batch of queries in a single pass over the
input (shared tokenization + merged projection NFA, per-query buffers).
A batch file separates queries with lines starting with `%%`; `--xmark`
runs the built-in XMark batch instead. Outputs go to stdout in batch
order (or to <DIR>/query-NN.out with --out-dir). `--stats-json` emits a
machine-readable report on stderr (also available for `run`).

`serve` starts the streaming XQuery service (default 127.0.0.1:7007):
PUT /queries/NAME registers a query (compiled once, shared across
requests), POST /eval/NAME streams a document through it and the result
back while the document is still arriving, GET /stats reports aggregate
counters. A bounded worker pool + admission queue answers overload with
503; per-request buffer budgets answer runaway queries with 413 instead
of OOM. Stop it gracefully with POST /shutdown (drains in-flight work).

`--obs` (run, multi) turns on engine telemetry: `--stats-json` then
carries an `obs` section with buffer-lifecycle histograms (append-to-
purge residency, purged-node sizes, purge batch sizes), purge-trigger
counts, per-role lifecycle counters, a live-bytes timeline, and VM
task-frame timing. `--trace FILE` additionally writes the run as a
Chrome trace-event JSON file (open in chrome://tracing or
ui.perfetto.dev): feed-call spans, a buffer live-bytes counter track,
and a VM time-attribution lane. Telemetry never changes results:
outputs and buffer peaks stay bit-identical to an untraced run.

`--max-buffer-bytes N` (run, multi, serve; also the X-Gcx-Max-Buffer-Bytes
request header) is a hard per-run buffer budget: crossing it fails that
run with a typed error, never an abort. Suffixes k/m/g are accepted.

`--schema xmark|FILE` (run, multi, serve, explain) promises the input
validates against a DTD: `xmark` is the bundled XMark DTD, FILE is read
as one (an internal subset or a full DOCTYPE declaration). The engine
then prunes DTD-unsatisfiable projection paths, skips subtrees no
declared ancestry can reach, and — where the DTD fixes sibling order —
signs variables off and purges buffers before the enclosing element
closes. Outputs are byte-identical with or without; only buffer peaks
and time-to-first-byte shrink. `--stats-json` reports the effect under
`schema` (pruned_paths, reach_cuts, early_scan_ends, early_signoffs);
`explain --schema` lists the pruned paths. Without the flag, a
`<!DOCTYPE name [...]>` declaration in the input stream is adopted
automatically for the sibling-order facts (`gcx generate --doctype`
emits one). Per-query override on the service: the `X-Gcx-Schema:
xmark|none` header on PUT /queries.

Every subcommand rejects a flag it does not know.

Every query runs through the gcx-ir plan optimizer (one rewrite: a
nested equality loop becomes a hash join); `--stats-json` reports what
it did under `opt_passes` / `instructions_before` /
`instructions_after`.

`explain` prints the full compilation report: projection paths and
roles, the rewritten query with signOff statements, where each role
is signed off (the end of which loop body, or query end), the unoptimized
gcx-ir program listing (instructions, conditions, path plans, step
table), the optimizer's per-pass rewrite summary with before/after
cost estimates, the optimized program the engine executes, and the
static streamability analysis.

`analyze` prints just that analysis: the query's streamability class
(constant | per-item | subtree | document — how the worst-case buffer
peak scales with the document), a symbolic bound, a per-binding class
table, and structured lints (GCX-JOIN, GCX-POS, GCX-ROOT, GCX-AGG,
GCX-SUBTREE, GCX-DTD) naming each construct that forces buffering and
why. `--schema` lets DTD cardinality facts tighten region classes;
`--json` emits the same analysis as JSON (the `analysis` object of
`run --stats-json`). The verdict is sound but may be loose: a
constant/per-item class is a promise (pinned by the workspace
soundness suite), a document class is a warning, not a proof. `gcx
serve --max-static-class CLASS` enforces the class at registration
time: PUT /queries answers 422 with the lint diagnostics for any query
above the cap, and every successful registration reports the class in
the X-Gcx-Streamability response header."
    );
}

/// Read the query from `-e TEXT` or a file path; returns (query, rest).
fn take_query(args: &[String]) -> Result<(String, &[String]), String> {
    match args.first().map(String::as_str) {
        Some("-e") => {
            let text = args.get(1).ok_or("`-e` needs a query argument")?.clone();
            Ok((text, &args[2..]))
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read query file `{path}`: {e}"))?;
            Ok((text, &args[1..]))
        }
        None => Err("missing query (file path or `-e QUERY`)".into()),
    }
}

/// Extract `--trace FILE` / `--trace=FILE` from a flag list.
fn take_trace(flags: &[&str]) -> Result<Option<String>, String> {
    for f in flags {
        if let Some(v) = f.strip_prefix("--trace=") {
            if v.is_empty() {
                return Err("`--trace=` needs a file path".into());
            }
            return Ok(Some(v.to_string()));
        }
    }
    Ok(flag_value(flags, "--trace")?.map(str::to_string))
}

/// Write the Chrome trace for `runs` to `path`.
fn write_trace(path: &str, runs: &[(String, &RunReport)]) -> Result<(), String> {
    let json = trace::build(runs)?;
    std::fs::write(path, json).map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or ui.perfetto.dev)");
    Ok(())
}

/// The value following the flag `name`: `None` when the flag is absent, an
/// error naming it when it is the last argument or followed by another
/// flag (`--trace --stats` is a missing value, not a file named `--stats`).
fn flag_value<'a>(flags: &[&'a str], name: &str) -> Result<Option<&'a str>, String> {
    match flags.iter().position(|f| *f == name) {
        None => Ok(None),
        Some(i) => match flags.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("`{name}` needs a value")),
        },
    }
}

/// Fail on the first flag that is neither one of `switches` nor one of
/// `values` (each followed by its value): a typo or a retired flag is an
/// error, not a silently different run. Returns the positional arguments:
/// those that are neither a flag nor a flag's value.
fn check_flags<'a>(
    flags: &[&'a str],
    switches: &[&str],
    values: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        let f = flags[i];
        let known =
            switches.contains(&f) || (f.starts_with("--trace=") && values.contains(&"--trace"));
        if values.contains(&f) {
            i += 1; // skip its value
        } else if f.len() > 1 && f.starts_with('-') && !known {
            return Err(format!("unknown flag `{f}`"));
        } else if !known {
            positional.push(f);
        }
        i += 1;
    }
    Ok(positional)
}

/// Extract `--max-buffer-bytes N` from a flag list. Sizes accept k/m/g
/// suffixes, parsed by the same routine the server uses for the
/// `X-Gcx-Max-Buffer-Bytes` header (`gcx_server::parse_byte_size`).
fn take_max_buffer_bytes(flags: &[&str]) -> Result<Option<u64>, String> {
    flag_value(flags, "--max-buffer-bytes")?
        .map(|v| {
            gcx_server::parse_byte_size(v)
                .ok_or_else(|| format!("invalid byte size `{v}` (number with optional k/m/g)"))
        })
        .transpose()
}

/// Extract `--schema xmark|FILE` from a flag list: `xmark` selects the
/// bundled XMark DTD, anything else is read as a DTD file (an internal
/// subset, or a full `<!DOCTYPE name [...]>` declaration).
fn take_schema(flags: &[&str]) -> Result<Option<std::sync::Arc<gcx_schema::Dtd>>, String> {
    let Some(v) = flag_value(flags, "--schema")? else {
        return Ok(None);
    };
    if v == "xmark" {
        return Ok(Some(gcx_schema::Dtd::xmark()));
    }
    let text =
        std::fs::read_to_string(v).map_err(|e| format!("cannot read schema file `{v}`: {e}"))?;
    gcx_schema::Dtd::parse(&text)
        .map(|d| Some(std::sync::Arc::new(d)))
        .map_err(|e| format!("schema file `{v}` does not parse: {e}"))
}

fn open_input(path: &str) -> Result<Box<dyn Read>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        let f =
            std::fs::File::open(path).map_err(|e| format!("cannot open input `{path}`: {e}"))?;
        Ok(Box::new(BufReader::new(f)))
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (query_text, rest) = take_query(args)?;
    let input_path = rest.first().ok_or("missing input document")?;
    let flags: Vec<&str> = rest[1..].iter().map(String::as_str).collect();
    check_flags(
        &flags,
        &["--stats", "--stats-json", "--indent", "--obs"],
        &["--engine", "--max-buffer-bytes", "--trace", "--schema"],
    )?;
    let engine = flag_value(&flags, "--engine")?.unwrap_or("gcx");
    let stats = flags.contains(&"--stats");
    let stats_json = flags.contains(&"--stats-json");
    let indent = flags.contains(&"--indent");
    let obs = flags.contains(&"--obs");
    let trace_path = take_trace(&flags)?;

    // One compiled artifact for every engine: the DOM oracle interprets
    // the normalized AST out of the same `CompiledQuery` the streaming
    // configurations execute the lowered program from.
    let q = CompiledQuery::compile(&query_text).map_err(|e| e.to_string())?;

    if engine == "dom" {
        if obs || trace_path.is_some() {
            return Err(
                "--obs/--trace need a streaming engine (gcx|projection|full): the DOM \
                 oracle has no buffer lifecycle to observe"
                    .into(),
            );
        }
        if flags.contains(&"--max-buffer-bytes") {
            return Err(
                "--max-buffer-bytes is not supported with --engine dom: the DOM oracle \
                 materializes the whole document (use gcx|projection|full)"
                    .into(),
            );
        }
        if flags.contains(&"--schema") {
            return Err(
                "--schema is not supported with --engine dom: the DOM oracle has no \
                 projection or buffers for a schema to shrink (use gcx|projection|full)"
                    .into(),
            );
        }
        let input = open_input(input_path)?;
        let out = BufWriter::new(std::io::stdout().lock());
        let report = gcx_dom::run(&q.query, input, out).map_err(|e| e.to_string())?;
        println!();
        if stats {
            eprintln!(
                "dom nodes: {}   output bytes: {}",
                report.nodes, report.output_bytes
            );
        }
        return Ok(());
    }

    let mut opts = match engine {
        "gcx" => EngineOptions::gcx(),
        "projection" => EngineOptions::projection_only(),
        "full" => EngineOptions::full_buffering(),
        other => return Err(format!("unknown engine `{other}`")),
    };
    if indent {
        opts.indent = Some("  ".to_string());
    }
    opts.max_buffer_bytes = take_max_buffer_bytes(&flags)?;
    opts.telemetry = obs || trace_path.is_some();
    opts.schema = take_schema(&flags)?;
    let input = open_input(input_path)?;
    // With telemetry on, each 64 KiB commit of `run` is one feed span.
    let out = BufWriter::new(std::io::stdout().lock());
    let report = gcx_core::run(&q, &opts, input, out).map_err(|e| e.to_string())?;
    println!();
    if let Some(path) = &trace_path {
        write_trace(path, &[("query".to_string(), &report)])?;
    }
    if stats_json {
        let analysis = gcx_analyze::analyze_program(&q.program, opts.schema.as_deref());
        eprintln!("{}", stats::run_json(&report, &q, &analysis));
    } else if stats {
        eprintln!(
            "tokens: {}   peak buffered nodes: {}   allocated: {}   purged: {}   out bytes: {}",
            report.tokens,
            report.buffer.peak_live,
            report.buffer.allocated,
            report.buffer.purged,
            report.output_bytes
        );
    }
    Ok(())
}

/// Split a batch file into queries: entries are separated by lines whose
/// first non-space characters are `%%` (the rest of such a line is a
/// comment). Empty entries are dropped.
fn split_batch(text: &str) -> Vec<String> {
    let mut queries = Vec::new();
    let mut current = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("%%") {
            if !current.trim().is_empty() {
                queries.push(std::mem::take(&mut current));
            } else {
                current.clear();
            }
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    if !current.trim().is_empty() {
        queries.push(current);
    }
    queries
}

fn cmd_multi(args: &[String]) -> Result<(), String> {
    let first = args.first().ok_or("missing batch (file path or --xmark)")?;
    let (texts, rest): (Vec<(String, String)>, &[String]) = if first == "--xmark" {
        let v: Vec<(String, String)> = gcx_xmark::queries::paper_queries()
            .into_iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect();
        (v, &args[1..])
    } else {
        let text = std::fs::read_to_string(first)
            .map_err(|e| format!("cannot read batch file `{first}`: {e}"))?;
        let queries = split_batch(&text);
        if queries.is_empty() {
            return Err(format!("batch file `{first}` contains no queries"));
        }
        (
            queries
                .into_iter()
                .enumerate()
                .map(|(i, q)| (format!("query-{i:02}"), q))
                .collect(),
            &args[1..],
        )
    };
    let input_path = rest.first().ok_or("missing input document")?;
    let flags: Vec<&str> = rest[1..].iter().map(String::as_str).collect();
    check_flags(
        &flags,
        &["--stats", "--stats-json", "--indent", "--obs"],
        &["--out-dir", "--max-buffer-bytes", "--trace", "--schema"],
    )?;
    let stats = flags.contains(&"--stats");
    let stats_json = flags.contains(&"--stats-json");
    let obs = flags.contains(&"--obs");
    let trace_path = take_trace(&flags)?;
    let out_dir = flag_value(&flags, "--out-dir")?;

    let mut queries = Vec::with_capacity(texts.len());
    for (name, text) in &texts {
        queries.push(CompiledQuery::compile(text).map_err(|e| format!("{name} failed: {e}"))?);
    }
    let mut opts = BatchOptions::default();
    if flags.contains(&"--indent") {
        opts.indent = Some("  ".to_string());
    }
    opts.max_buffer_bytes = take_max_buffer_bytes(&flags)?;
    opts.telemetry = obs || trace_path.is_some();
    opts.schema = take_schema(&flags)?;
    let mut input = open_input(input_path)?;
    // Where output leaves while the document arrives: with `--out-dir`
    // each query's file, else stdout for the first query — the others
    // follow it there, in batch order, once the document has ended.
    let mut sinks: Vec<(String, Box<dyn Write>)> = Vec::new();
    match out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
            for i in 0..queries.len() {
                let path = format!("{dir}/query-{i:02}.out");
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                sinks.push((path, Box::new(BufWriter::new(file))));
            }
        }
        None => sinks.push((
            "stdout".into(),
            Box::new(BufWriter::new(std::io::stdout().lock())),
        )),
    }
    let mut session = BatchSession::new(&queries, &opts);
    // Each query's output bytes, drained or not.
    let mut output_bytes = vec![0; queries.len()];
    let mut chunk = vec![0; 64 * 1024];
    loop {
        let n = input
            .read(&mut chunk)
            .map_err(|e| format!("cannot read input `{input_path}`: {e}"))?;
        if n == 0 {
            break;
        }
        session.feed(&chunk[..n]).map_err(|e| e.to_string())?;
        for (lane, (path, sink)) in sinks.iter_mut().enumerate() {
            output_bytes[lane] += session
                .take_output(lane, sink)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
    }
    let report = session.finish().map_err(|e| e.to_string())?;
    if let Some(path) = &trace_path {
        let runs: Vec<(String, &RunReport)> = texts
            .iter()
            .zip(&report.queries)
            .filter_map(|((name, _), run)| run.report.as_ref().ok().map(|r| (name.clone(), r)))
            .collect();
        write_trace(path, &runs)?;
    }

    // Per-query evaluator failures are reported but don't hide the rest.
    let mut failures = Vec::new();
    for ((name, _), run) in texts.iter().zip(&report.queries) {
        if let Err(e) = &run.report {
            failures.push(format!("{name}: {e}"));
        }
    }
    // Then what is left of each query's output; on stdout a newline ends
    // each query's.
    for (i, run) in report.queries.iter().enumerate() {
        output_bytes[i] += run.output.len();
        let (path, sink) = &mut sinks[if out_dir.is_some() { i } else { 0 }];
        let end: &[u8] = if out_dir.is_some() { b"" } else { b"\n" };
        let written = sink
            .write_all(&run.output)
            .and_then(|()| sink.write_all(end));
        written.map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    for (path, sink) in &mut sinks {
        sink.flush()
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if stats_json {
        eprintln!(
            "{}",
            stats::batch_json(&report, &output_bytes, &texts, &queries)
        );
    } else if stats {
        eprintln!(
            "queries: {}   tokens (single pass): {}   fan-out events: {}   \
             share factor: {:.2}x   elapsed: {:.1}ms",
            report.queries.len(),
            report.tokens,
            report.fanout_events,
            report.share_factor(),
            report.elapsed.as_secs_f64() * 1e3
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} quer(ies) failed: {}",
            failures.len(),
            failures.join("; ")
        ))
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags: Vec<&str> = args.iter().map(String::as_str).collect();
    check_flags(
        &flags,
        &[],
        &[
            "--addr",
            "--workers",
            "--queue",
            "--max-buffer-bytes",
            "--schema",
            "--max-static-class",
            "--read-timeout-secs",
            "--max-request-secs",
        ],
    )?;
    let mut config = gcx_server::ServerConfig::default();
    if let Some(addr) = flag_value(&flags, "--addr")? {
        config.addr = addr.to_string();
    }
    if let Some(v) = flag_value(&flags, "--workers")? {
        config.workers = v
            .parse::<usize>()
            .ok()
            .filter(|&w| w > 0)
            .ok_or("--workers must be a positive number")?;
    }
    if let Some(v) = flag_value(&flags, "--queue")? {
        config.queue_depth = v
            .parse::<usize>()
            .ok()
            .filter(|&q| q > 0)
            .ok_or("--queue must be a positive number")?;
    }
    config.max_buffer_bytes = take_max_buffer_bytes(&flags)?;
    config.schema = take_schema(&flags)?;
    if let Some(v) = flag_value(&flags, "--max-static-class")? {
        let class = gcx_analyze::StreamClass::parse(v).ok_or_else(|| {
            format!("invalid class `{v}` (constant | per-item | subtree | document)")
        })?;
        config.admission_class = Some(class);
    }
    if let Some(v) = flag_value(&flags, "--read-timeout-secs")? {
        let secs: u64 = v
            .parse()
            .map_err(|_| "--read-timeout-secs must be a number")?;
        config.read_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    if let Some(v) = flag_value(&flags, "--max-request-secs")? {
        let secs: u64 = v
            .parse()
            .map_err(|_| "--max-request-secs must be a number (0 = unlimited)")?;
        config.max_request_duration = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    let workers = config.workers;
    let queue = config.queue_depth;
    let budget = config.max_buffer_bytes;
    let handle = gcx_server::serve(config).map_err(|e| format!("cannot start server: {e}"))?;
    eprintln!(
        "gcx-server listening on http://{} ({} workers, queue {}, buffer budget {})",
        handle.addr(),
        workers,
        queue,
        budget.map_or_else(|| "unlimited".to_string(), |b| format!("{b} bytes")),
    );
    eprintln!(
        "register: curl -X PUT --data-binary @query.xq http://{}/queries/NAME",
        handle.addr()
    );
    eprintln!(
        "evaluate: curl -X POST --data-binary @doc.xml http://{}/eval/NAME",
        handle.addr()
    );
    eprintln!("shutdown: curl -X POST http://{}/shutdown", handle.addr());
    handle.join();
    eprintln!("gcx-server drained and stopped");
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let (query_text, rest) = take_query(args)?;
    let flags: Vec<&str> = rest.iter().map(String::as_str).collect();
    check_flags(&flags, &[], &["--schema"])?;
    let schema = take_schema(&flags)?;
    let q = CompiledQuery::compile(&query_text).map_err(|e| e.to_string())?;
    print!("{}", q.explain());
    println!("\n== Streamability analysis ==");
    print!(
        "{}",
        gcx_analyze::analyze_program(&q.program, schema.as_deref()).text()
    );
    if let Some(dtd) = schema {
        let prune = dtd.prune(q.program.matcher_paths(), q.program.symbols());
        println!("\n== schema ==");
        println!("{}", dtd.summary());
        println!(
            "projection paths: {} total, {} kept, {} pruned as DTD-unsatisfiable",
            prune.total,
            prune.kept(),
            prune.pruned.len()
        );
        for (role, path) in &prune.pruned {
            println!("  pruned {role}: {path}");
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (query_text, rest) = take_query(args)?;
    let flags: Vec<&str> = rest.iter().map(String::as_str).collect();
    check_flags(&flags, &["--json"], &["--schema"])?;
    let schema = take_schema(&flags)?;
    let q = CompiledQuery::compile(&query_text).map_err(|e| e.to_string())?;
    let a = gcx_analyze::analyze_program(&q.program, schema.as_deref());
    if flags.contains(&"--json") {
        println!("{}", stats::analysis_json(&a));
    } else {
        print!("{}", a.text());
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (query_text, rest) = take_query(args)?;
    let input_path = rest.first().ok_or("missing input document")?;
    let flags: Vec<&str> = rest[1..].iter().map(String::as_str).collect();
    check_flags(&flags, &[], &["--every"])?;
    let every: u64 = match flag_value(&flags, "--every")? {
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--every must be a positive number")?,
        None => 1,
    };
    let q = CompiledQuery::compile(&query_text).map_err(|e| e.to_string())?;
    let input = open_input(input_path)?;
    let report = gcx_core::run(
        &q,
        &EngineOptions::gcx().with_timeline(every),
        input,
        std::io::sink(),
    )
    .map_err(|e| e.to_string())?;
    let tl = report.timeline.expect("timeline enabled");
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "tokens,buffered_nodes").unwrap();
    for (t, n) in &tl.points {
        writeln!(out, "{t},{n}").unwrap();
    }
    eprintln!("peak buffered nodes: {}", tl.peak());
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mb: u64 = args
        .first()
        .ok_or("missing size in MB")?
        .parse()
        .map_err(|_| "size must be a number (MB)")?;
    let flags: Vec<&str> = args[1..].iter().map(String::as_str).collect();
    let positional = check_flags(&flags, &["--doctype"], &["--seed"])?;
    if let Some(extra) = positional.get(1) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let mut cfg = gcx_xmark::XmarkConfig::sized(mb * 1024 * 1024);
    if let Some(v) = flag_value(&flags, "--seed")? {
        cfg.seed = v.parse().map_err(|_| "--seed must be a number")?;
    }
    cfg.doctype = flags.contains(&"--doctype");
    let written = match positional.first() {
        Some(path) => {
            let f = BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?,
            );
            gcx_xmark::generate(&cfg, f).map_err(|e| e.to_string())?
        }
        None => {
            let out = BufWriter::new(std::io::stdout().lock());
            gcx_xmark::generate(&cfg, out).map_err(|e| e.to_string())?
        }
    };
    eprintln!("wrote {written} bytes");
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing input document")?;
    let flags: Vec<&str> = args[1..].iter().map(String::as_str).collect();
    check_flags(&flags, &[], &[])?;
    let input = open_input(path)?;
    let mut t = gcx_xml::Tokenizer::new(input);
    match t.validate_to_end() {
        Ok(tokens) => {
            eprintln!("well-formed ({tokens} tokens)");
            Ok(())
        }
        Err(e) => Err(format!("not well-formed: {e}")),
    }
}
