//! End-to-end tests of the `gcx` binary: every subcommand, both success
//! and failure paths.

use std::io::Write;
use std::process::{Command, Stdio};

fn gcx_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcx"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("gcx-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn run_inline_query() {
    let doc = write_temp("run.xml", "<bib><book><title>T</title></book></bib>");
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<title>T</title>"
    );
}

#[test]
fn run_with_stats_and_engines() {
    let doc = write_temp("engines.xml", "<l><i>1</i><i>2</i></l>");
    for engine in ["gcx", "projection", "full", "dom"] {
        let out = gcx_bin()
            .args(["run", "-e", "for $i in /l/i return $i/text()"])
            .arg(&doc)
            .args(["--engine", engine, "--stats"])
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "12",
            "engine {engine}"
        );
        assert!(
            !out.stderr.is_empty(),
            "--stats must print to stderr ({engine})"
        );
    }
}

#[test]
fn run_reads_query_from_file() {
    let qf = write_temp("query.xq", "for $i in /l/i return $i");
    let doc = write_temp("qfile.xml", "<l><i>x</i></l>");
    let out = gcx_bin().arg("run").arg(&qf).arg(&doc).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<i>x</i>");
}

#[test]
fn run_reads_stdin_with_dash() {
    let mut child = gcx_bin()
        .args(["run", "-e", "for $i in /l/i return $i/text()", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<l><i>7</i></l>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
}

#[test]
fn explain_prints_roles() {
    let out = gcx_bin()
        .args(["explain", "-e", "for $b in /bib/book return $b/title"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("r2: /bib/book"), "{text}");
    assert!(text.contains("signOff($b, r2)"), "{text}");
    // The report carries both the direct lowering and the optimized
    // program, with the optimizer's per-pass diff between them.
    assert!(
        text.contains("== Compiled program (gcx-ir, unoptimized) =="),
        "{text}"
    );
    assert!(text.contains("== Optimizer passes =="), "{text}");
    assert!(text.contains("hash-join"), "{text}");
    assert!(text.contains("cost estimate:"), "{text}");
    assert!(text.contains("== Optimized program =="), "{text}");
    assert!(text.contains("for $b in p"), "{text}");
}

#[test]
fn explain_matches_golden_listing() {
    // Golden file for the paper's running example: roles, rewritten query
    // AND the full gcx-ir program listing (instructions, conditions, path
    // plans, step table). Regenerate with
    //   gcx explain crates/cli/tests/golden/paper.xq \
    //     > crates/cli/tests/golden/explain_paper.txt
    // after an intentional lowering change.
    let query = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper.xq");
    let golden = include_str!("golden/explain_paper.txt");
    let out = gcx_bin().args(["explain", query]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "explain output drifted from the golden listing"
    );
}

#[test]
fn analyze_matches_golden_text() {
    // Golden file for `gcx analyze` on the paper's running example:
    // class, symbolic bound, per-binding table, lints. Regenerate with
    //   gcx analyze crates/cli/tests/golden/paper.xq \
    //     > crates/cli/tests/golden/analyze_paper.txt
    // after an intentional classifier change.
    let query = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper.xq");
    let golden = include_str!("golden/analyze_paper.txt");
    let out = gcx_bin().args(["analyze", query]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "analyze output drifted from the golden text"
    );
}

#[test]
fn analyze_flags_a_join_and_emits_json() {
    let join = "for $p in /site/people/person return \
                  for $t in /site/closed_auctions/closed_auction return \
                    if ($t/buyer/@person = $p/@id) then $p/name else ()";
    let out = gcx_bin().args(["analyze", "-e", join]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("streamability: document"), "{text}");
    assert!(text.contains("[warning] GCX-JOIN"), "{text}");

    let out = gcx_bin()
        .args(["analyze", "-e", join, "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"class\":\"document\""), "{json}");
    assert!(json.contains("\"code\":\"GCX-JOIN\""), "{json}");
}

#[test]
fn stats_json_carries_the_analysis_block() {
    let doc = write_temp("analysis.xml", "<bib><book><title>T</title></book></bib>");
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--stats-json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stderr);
    assert!(
        json.contains("\"analysis\":{\"class\":\"per-item\""),
        "{json}"
    );
    assert!(json.contains("\"bound\":"), "{json}");
}

#[test]
fn trace_emits_csv() {
    let doc = write_temp("trace.xml", "<l><i/><i/></l>");
    let out = gcx_bin()
        .args(["trace", "-e", "for $i in /l/i return 'x'"])
        .arg(&doc)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("tokens,buffered_nodes"), "{text}");
    assert_eq!(text.lines().count(), 7, "header + 6 tokens: {text}");
}

#[test]
fn generate_then_validate_then_query() {
    let doc = std::env::temp_dir().join(format!("gcx-cli-gen-{}.xml", std::process::id()));
    let out = gcx_bin()
        .args(["generate", "1"])
        .arg(&doc)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(doc.metadata().unwrap().len() > 100_000);

    let out = gcx_bin().arg("validate").arg(&doc).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("well-formed"));

    let out = gcx_bin()
        .args([
            "run",
            "-e",
            "for $p in /site/people/person return if ($p/@id = 'person0') then $p/name else ()",
        ])
        .arg(&doc)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("<name>"));
    let _ = std::fs::remove_file(&doc);
}

#[test]
fn generate_writes_to_its_path_wherever_the_flags_are() {
    let doc = std::env::temp_dir().join(format!("gcx-cli-genpath-{}.xml", std::process::id()));
    for flags in [&["--seed", "5"][..], &["--doctype"]] {
        let _ = std::fs::remove_file(&doc);
        let out = gcx_bin()
            .args(["generate", "0"])
            .args(flags)
            .arg(&doc)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout.is_empty(),
            "{flags:?}: the document went to stdout"
        );
        assert!(doc.metadata().unwrap().len() > 0, "{flags:?}");
    }
    let out = gcx_bin()
        .args(["generate", "0", "a.xml", "b.xml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unexpected argument `b.xml`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&doc);
}

#[test]
fn validate_rejects_malformed() {
    let doc = write_temp("bad.xml", "<a><b></a>");
    let out = gcx_bin().arg("validate").arg(&doc).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not well-formed"));
}

#[test]
fn bad_query_fails_with_message() {
    let doc = write_temp("bq.xml", "<a/>");
    let out = gcx_bin()
        .args(["run", "-e", "for $x in"])
        .arg(&doc)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("gcx:"));
}

#[test]
fn unknown_command_fails() {
    let out = gcx_bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_prints_usage() {
    let out = gcx_bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn multi_batch_matches_individual_runs() {
    let doc = write_temp(
        "multi.xml",
        "<bib><book><title>T1</title><price>9</price></book><article><title>T2</title></article></bib>",
    );
    let batch = write_temp(
        "multi.xq",
        "%% titles of books\n\
         for $b in /bib/book return $b/title\n\
         %% whole articles\n\
         for $a in /bib/article return $a\n\
         %% prices as text\n\
         for $p in /bib/book/price return $p/text()\n",
    );
    let multi = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .output()
        .unwrap();
    assert!(
        multi.status.success(),
        "{}",
        String::from_utf8_lossy(&multi.stderr)
    );
    let mut expected = String::new();
    for q in [
        "for $b in /bib/book return $b/title",
        "for $a in /bib/article return $a",
        "for $p in /bib/book/price return $p/text()",
    ] {
        let single = gcx_bin().args(["run", "-e", q]).arg(&doc).output().unwrap();
        assert!(single.status.success());
        expected.push_str(&String::from_utf8_lossy(&single.stdout));
    }
    assert_eq!(String::from_utf8_lossy(&multi.stdout), expected);
}

#[test]
fn multi_out_dir_and_stats() {
    let doc = write_temp("multi-od.xml", "<l><i>1</i><i>2</i></l>");
    let batch = write_temp(
        "multi-od.xq",
        "for $i in /l/i return $i/text()\n%%\n<n>{ count(/l/i) }</n>\n",
    );
    let dir = std::env::temp_dir().join(format!("gcx-multi-out-{}", std::process::id()));
    let out = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .args(["--out-dir", dir.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "--out-dir leaves stdout empty");
    assert_eq!(
        std::fs::read_to_string(dir.join("query-00.out")).unwrap(),
        "12"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("query-01.out")).unwrap(),
        "<n>2</n>"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("share factor"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_stats_json_is_machine_readable() {
    let doc = write_temp("multi-json.xml", "<l><i>1</i></l>");
    let batch = write_temp("multi-json.xq", "for $i in /l/i return $i/text()\n");
    let out = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .arg("--stats-json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json = stderr.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"tokens\"",
        "\"share_factor\"",
        "\"per_query\"",
        "\"buffer\"",
    ] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
}

#[test]
fn run_stats_json_is_machine_readable() {
    let doc = write_temp("rsj.xml", "<l><i>1</i></l>");
    let out = gcx_bin()
        .args(["run", "-e", "for $i in /l/i return $i/text()"])
        .arg(&doc)
        .arg("--stats-json")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json = stderr.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"tokens\"",
        "\"output_bytes\"",
        "\"buffer\"",
        "\"peak_live\"",
    ] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
}

#[test]
fn multi_empty_batch_file_fails() {
    let doc = write_temp("meb.xml", "<a/>");
    let batch = write_temp("meb.xq", "%% only comments\n");
    let out = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no queries"));
}

#[test]
fn run_respects_max_buffer_bytes() {
    let doc = write_temp("cap.xml", "<bib><book><title>T</title></book></bib>");
    // A budget smaller than one node: typed failure, exit code 1.
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--max-buffer-bytes", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("buffer limit exceeded"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A generous budget (with a suffix) changes nothing and shows up in
    // the stats JSON.
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--max-buffer-bytes", "1m", "--stats-json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<title>T</title>"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"max_buffer_bytes\":1048576"), "{stderr}");
    assert!(stderr.contains("\"live_bytes\""), "{stderr}");
}

#[test]
fn a_copy_streams_through_a_budget_that_a_double_copy_exceeds() {
    // The identity copy is written as the document streams in: it holds
    // the document element alone and fits a 1 MiB budget over a document
    // of 4 MiB, with the output of the unbudgeted run.
    let doc = std::env::temp_dir().join(format!("gcx-cli-copy-{}.xml", std::process::id()));
    let out = gcx_bin()
        .args(["generate", "4"])
        .arg(&doc)
        .args(["--seed", "42"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let run = |budget: Option<&str>| {
        let mut cmd = gcx_bin();
        cmd.args(["run", "-e", "for $s in /site return $s"])
            .arg(&doc);
        if let Some(budget) = budget {
            cmd.args(["--max-buffer-bytes", budget]);
        }
        cmd.output().unwrap()
    };
    let (free, capped) = (run(None), run(Some("1m")));
    assert!(
        capped.status.success(),
        "{}",
        String::from_utf8_lossy(&capped.stderr)
    );
    assert!(free.stdout.len() > 3_000_000);
    assert!(
        free.stdout == capped.stdout,
        "the budget changed the output"
    );
    std::fs::remove_file(&doc).ok();

    // A second copy of the same element needs every descendant buffered:
    // 100 000 nested elements cross 64 KiB, and the run fails typed.
    let depth = 100_000;
    let deep = write_temp(
        "deep-copy.xml",
        &format!("{}{}", "<x>".repeat(depth), "</x>".repeat(depth)),
    );
    let out = gcx_bin()
        .args(["run", "-e", "for $x in /x return ($x, $x)"])
        .arg(&deep)
        .args(["--max-buffer-bytes", "64k"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("buffer limit exceeded"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn multi_respects_max_buffer_bytes_per_query() {
    let doc = write_temp("mcap.xml", "<l><i>1</i><i>2</i></l>");
    let batch = write_temp("mcap.xq", "for $i in /l/i return $i/text()\n");
    let out = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .args(["--max-buffer-bytes", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("buffer limit exceeded"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_subcommand_end_to_end() {
    use std::io::{BufRead, BufReader, Read};

    // Port 0: the binary prints the actual address on stderr.
    let mut child = gcx_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "server died early"
        );
        if let Some(rest) = line.split("http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .unwrap()
                .trim_end_matches('/')
                .parse::<std::net::SocketAddr>()
                .unwrap();
        }
    };
    // Drain the rest of stderr in the background so the child never
    // blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr.read_to_string(&mut rest);
        rest
    });

    let exchange = |req: &str| -> String {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(req.as_bytes()).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        response
    };

    let q = "for $b in /bib/book return $b/title";
    let r = exchange(&format!(
        "PUT /queries/t HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{q}",
        q.len()
    ));
    assert!(r.starts_with("HTTP/1.1 201"), "{r}");

    let doc = "<bib><book><title>T</title></book></bib>";
    let r = exchange(&format!(
        "POST /eval/t HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{doc}",
        doc.len()
    ));
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    assert!(r.contains("<title>T</title>"), "{r}");
    assert!(r.contains("X-Gcx-Tokens:"), "{r}");

    let r = exchange("POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");

    let status = child.wait().unwrap();
    assert!(status.success(), "serve must exit cleanly after /shutdown");
    assert!(drain.join().unwrap().contains("drained and stopped"));
}

#[test]
fn value_flag_without_a_value_fails_naming_it() {
    let doc = write_temp("novalue.xml", "<a/>");
    let doc = doc.to_str().unwrap();
    let q = "for $x in /a return $x";
    // The serve address is invalid: were `--workers` ignored, the server
    // would fail to start with another message instead of running.
    for (args, flag) in [
        (vec!["run", "-e", q, doc, "--schema"], "--schema"),
        (vec!["run", "-e", q, doc, "--engine"], "--engine"),
        (
            vec!["serve", "--addr", "256.0.0.0:0", "--workers"],
            "--workers",
        ),
        (vec!["multi", "--xmark", doc, "--out-dir"], "--out-dir"),
        // A value flag followed by another flag has no value: the next
        // flag is not taken as a file name.
        (vec!["run", "-e", q, doc, "--trace", "--stats"], "--trace"),
        (vec!["run", "-e", q, doc, "--trace"], "--trace"),
        (
            vec!["multi", "--xmark", doc, "--out-dir", "--stats"],
            "--out-dir",
        ),
        (vec!["trace", "-e", q, doc, "--every"], "--every"),
        (vec!["generate", "1", "--seed"], "--seed"),
    ] {
        let out = gcx_bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{flag}` needs a value")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_zero_count_fails_naming_its_flag() {
    let doc = write_temp("zerocount.xml", "<a><b/></a>");
    let doc = doc.to_str().unwrap();
    // A zero trace stride would record no point at all; zero workers
    // would serve nobody (the address is invalid, so an accepted 0 would
    // surface as a bind error instead).
    for (args, flag) in [
        (
            vec!["trace", "-e", "for $x in /a return $x", doc, "--every", "0"],
            "--every",
        ),
        (
            vec!["serve", "--addr", "256.0.0.0:0", "--workers", "0"],
            "--workers",
        ),
    ] {
        let out = gcx_bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must do no work");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be a positive number")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_fail_naming_them() {
    let doc = write_temp("unknownflag.xml", "<a/>");
    let doc = doc.to_str().unwrap();
    let q = "for $x in /a return $x";
    // Retired flags and typos fail before any work is done: the serve
    // address is invalid, so an ignored flag would surface as a bind
    // error instead.
    for (args, flag) in [
        (vec!["run", "-e", q, doc, "--threads", "2"], "--threads"),
        (vec!["run", "-e", q, doc, "--stat"], "--stat"),
        (
            vec!["serve", "--addr", "256.0.0.0:0", "--eval-threads", "2"],
            "--eval-threads",
        ),
        (vec!["multi", "--xmark", doc, "--stat"], "--stat"),
        (vec!["explain", "-e", q, "--json"], "--json"),
        (vec!["analyze", "-e", q, "--jsn"], "--jsn"),
        (vec!["trace", "-e", q, doc, "--stats"], "--stats"),
        (vec!["generate", "1", "--doc-type"], "--doc-type"),
        (vec!["validate", doc, "--strict"], "--strict"),
    ] {
        let out = gcx_bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must do no work");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn run_obs_extends_stats_json() {
    let doc = write_temp("obs.xml", "<bib><book><title>T</title></book></bib>");
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--obs", "--stats-json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for key in [
        "\"obs\"",
        "\"residency_tokens\"",
        "\"purge_batch\"",
        "\"roles\"",
        "\"tasks\"",
        "\"tokenizer_window_peak\"",
    ] {
        assert!(stderr.contains(key), "missing {key}: {stderr}");
    }
}

#[test]
fn obs_needs_a_streaming_engine() {
    let doc = write_temp("obs-dom.xml", "<a/>");
    let out = gcx_bin()
        .args(["run", "-e", "for $x in /a return $x"])
        .arg(&doc)
        .args(["--engine", "dom", "--obs"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("streaming engine"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn run_trace_writes_chrome_trace() {
    let doc = write_temp("tracef.xml", "<bib><book><title>T</title></book></bib>");
    let trace = std::env::temp_dir().join(format!("gcx-cli-trace-{}.json", std::process::id()));
    let out = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<title>T</title>",
        "--trace must not change the query result"
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{json}"
    );
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"name\":\"feed\""), "{json}");
    assert!(json.contains("live_bytes"), "{json}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn multi_trace_covers_every_query() {
    let doc = write_temp("mtrace.xml", "<l><i>1</i><i>2</i></l>");
    let batch = write_temp(
        "mtrace.xq",
        "%% first\nfor $i in /l/i return $i/text()\n%% second\ncount(/l/i)\n",
    );
    let trace = std::env::temp_dir().join(format!("gcx-cli-mtrace-{}.json", std::process::id()));
    let out = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&doc)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("query-00: vm tasks (aggregate)"), "{json}");
    assert!(json.contains("query-01: vm tasks (aggregate)"), "{json}");
    assert!(json.contains("query-01: summary"), "{json}");
    let _ = std::fs::remove_file(&trace);
}

/// Every key that appears in `--stats-json` output (any quoted string
/// immediately followed by a colon). Good enough for our hand-rolled,
/// non-pretty-printed JSON: escapes never produce a bare `"` before `:`.
fn json_keys(json: &str) -> std::collections::BTreeSet<String> {
    let bytes = json.as_bytes();
    let mut keys = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if j + 1 < bytes.len() && bytes[j + 1] == b':' {
                keys.insert(json[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

/// The `--stats-json` documents the schema tests sample, each the JSON
/// line of the run's stderr: a run with telemetry and a buffer budget, a
/// batch whose lanes take both `per_query` shapes, and a schema-aware run.
fn sample_stats_json() -> [String; 3] {
    let json_line = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("no JSON on stderr: {out:?}"))
            .to_string()
    };
    let doc = write_temp("schema.xml", "<bib><book><title>T</title></book></bib>");
    let run = gcx_bin()
        .args(["run", "-e", "for $b in /bib/book return $b/title"])
        .arg(&doc)
        .args(["--obs", "--stats-json", "--max-buffer-bytes", "1m"])
        .output()
        .unwrap();
    assert!(run.status.success());

    // One query stays under the buffer budget (succeeds, report + obs),
    // the double root copy blows past it (runtime failure, `error`), so
    // both per_query shapes are exercised. The batch exits nonzero but the
    // stats JSON is printed either way. Peaks are deterministic: the
    // text() query tops out at three 48-byte slots and a 48-byte text, 192
    // bytes; the second copy of the root needs every node buffered, five
    // slots and both texts, 336 bytes (a single copy is written through as
    // it arrives and holds the root alone).
    let mdoc = write_temp(
        "schema-m.xml",
        "<l><i>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</i>\
         <i>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</i></l>",
    );
    let batch = write_temp(
        "schema.xq",
        "%% a\nfor $i in /l/i return $i/text()\n%% b\nfor $x in /l return ($x, $x)\n",
    );
    let multi = gcx_bin()
        .arg("multi")
        .arg(&batch)
        .arg(&mdoc)
        .args(["--obs", "--stats-json", "--max-buffer-bytes", "280"])
        .output()
        .unwrap();

    // A schema-aware run exercises the `schema` stats section.
    let sdoc = write_temp("schema-s.xml", "<site><regions></regions></site>");
    let schema_run = gcx_bin()
        .args(["run", "-e", "for $r in /site/regions return $r"])
        .arg(&sdoc)
        .args(["--schema", "xmark", "--stats-json"])
        .output()
        .unwrap();
    assert!(schema_run.status.success());
    [json_line(&run), json_line(&multi), json_line(&schema_run)]
}

#[test]
fn stats_json_fields_are_documented_in_architecture_md() {
    // Golden contract: every field the CLI can emit in --stats-json must
    // appear (in backticks) in ARCHITECTURE.md's schema section. Adding a
    // field without documenting it fails here.
    let arch = include_str!("../../../ARCHITECTURE.md");
    let [run, multi, schema_run] = sample_stats_json();
    let mut keys = json_keys(&run);
    keys.extend(json_keys(&multi));
    assert!(keys.contains("obs"), "sample runs must exercise telemetry");
    assert!(
        keys.contains("per_query"),
        "sample runs must exercise the batch shape: {multi}"
    );
    assert!(
        keys.contains("error") && keys.contains("report"),
        "the batch must exercise both per_query shapes: {multi}"
    );
    keys.extend(json_keys(&schema_run));
    assert!(
        keys.contains("schema"),
        "the schema-aware run must exercise the schema stats section"
    );
    // The CLI has no partition-parallel path, so no run reports one.
    for gone in ["threads", "shards", "shard_path", "fallback"] {
        assert!(!keys.contains(gone), "`{gone}` is no longer emitted");
    }

    for key in keys {
        assert!(
            arch.contains(&format!("`{key}`")),
            "--stats-json field `{key}` is not documented in ARCHITECTURE.md \
             (see \"The --stats-json schema\")"
        );
    }
}

/// `json` with its timing-valued members masked: every `compile_micros`
/// and `elapsed_ms` reads 0, and every `tasks` array (ordered by
/// nanoseconds) reads `[]`.
fn mask_timings(mut json: String) -> String {
    for (key, value_end) in [
        ("\"compile_micros\":", [',', '}']),
        ("\"elapsed_ms\":", [',', '}']),
        ("\"tasks\":[", [']', ']']),
    ] {
        let mut from = 0;
        while let Some(at) = json[from..].find(key) {
            let start = from + at + key.len();
            let end = start + json[start..].find(value_end).expect("value ends");
            let masked = if key.ends_with('[') { "" } else { "0" };
            json.replace_range(start..end, masked);
            from = start;
        }
    }
    json
}

#[test]
fn stats_json_documents_match_golden() {
    // Byte-for-byte goldens of the three `--stats-json` documents above
    // (timings masked) and of `gcx analyze --json` on the paper's running
    // example. Regenerate with `GCX_BLESS=1 cargo test -p gcx-cli --test
    // cli stats_json_documents_match_golden` after an intentional change.
    let query = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper.xq");
    let analyze = gcx_bin()
        .args(["analyze", query, "--json"])
        .output()
        .unwrap();
    assert!(analyze.status.success());
    let [run, multi, schema_run] = sample_stats_json();
    for (file, doc) in [
        ("stats_run.json", mask_timings(run)),
        ("stats_multi.json", mask_timings(multi)),
        ("stats_schema.json", mask_timings(schema_run)),
        (
            "analyze_paper.json",
            String::from_utf8(analyze.stdout)
                .unwrap()
                .trim_end()
                .to_string(),
        ),
    ] {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("GCX_BLESS").is_some() {
            std::fs::write(&path, format!("{doc}\n")).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc, golden.trim_end(), "{file} drifted from the golden");
    }
}

#[test]
fn dom_engine_rejects_buffer_budget() {
    let doc = write_temp("domcap.xml", "<a/>");
    let out = gcx_bin()
        .args(["run", "-e", "for $x in /a return $x"])
        .arg(&doc)
        .args(["--engine", "dom", "--max-buffer-bytes", "64k"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not supported with --engine dom"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
