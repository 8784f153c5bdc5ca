//! Failure injection: truncated streams, corrupted documents, I/O errors
//! and hostile queries must surface as typed errors — never panics, hangs
//! or silent wrong answers.

use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions};
use std::io::Read;

#[test]
fn truncated_documents_error_for_every_engine() {
    let doc = generate_string(&XmarkConfig::sized(16 * 1024));
    let q = CompiledQuery::compile(queries::Q1).unwrap();
    // Cut at a spread of positions, including mid-tag and mid-text.
    for frac in [1, 3, 7, 10, 13, 17, 19] {
        let cut = doc.len() * frac / 20;
        // Align to a char boundary.
        let mut cut = cut;
        while !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &doc[..cut];
        for opts in [
            EngineOptions::gcx(),
            EngineOptions::projection_only(),
            EngineOptions::full_buffering(),
        ] {
            let r = gcx::run(&q, &opts, truncated.as_bytes(), std::io::sink());
            assert!(r.is_err(), "cut at {cut} must error");
        }
        let dq = gcx::query::compile(queries::Q1).unwrap();
        assert!(gcx::dom::run(&dq, truncated.as_bytes(), std::io::sink()).is_err());
    }
}

#[test]
fn corrupted_tags_error_not_panic() {
    let cases = [
        "<site><people><person id='p'><name>x</name></people></site>", // mismatched
        "<site>&undefined;</site>",
        "<site><p attr=novalue/></site>",
        "<site><1bad/></site>",
        "<site><p><![CDATA[unterminated</p></site>",
        "<site><!-- unterminated</site>",
        "<site><p></p></site><extra/>",
    ];
    let q = CompiledQuery::compile("for $x in /site/p return $x").unwrap();
    for doc in cases {
        let r = gcx::run(&q, &EngineOptions::gcx(), doc.as_bytes(), std::io::sink());
        assert!(r.is_err(), "must reject: {doc}");
    }
}

/// The error of `r` as (kind, position) if it is an XML error.
fn xml_error<T>(r: Result<T, gcx::EngineError>) -> (String, gcx::xml::TextPos) {
    match r {
        Err(gcx::EngineError::Xml(e)) => (format!("{:?}", e.kind), e.pos),
        Err(other) => panic!("not an XML error: {other}"),
        Ok(_) => panic!("malformed input accepted"),
    }
}

#[test]
fn errors_inside_projected_away_subtrees_are_the_tokenizers() {
    // Everything under <junk> is thrown away by both queries' projection
    // — by bulk skip, which may be neither more lenient nor differently
    // strict than the tokenizer stepping through the same bytes: every
    // driver must fail with the error the pull tokenizer alone reports.
    let damage: [&[u8]; 11] = [
        b"<a>text &undefined; more</a>",
        b"<a k='1' b='2' k='3'/>",
        b"<a k=unquoted/>",
        b"<a b=\"x<y\"/>",
        b"<a b=\"c\"d=\"e\"/>",
        b"<a><1bad/></a>",
        b"<a>caf\xc3\x28</a>",
        b"<a><b>x</c></a>",
        b"<a/><!-- never closed",
        b"<a/><![CDATA[ never closed",
        b"<a>x</a></junk ></junk>",
    ];
    let queries = [
        CompiledQuery::compile("for $x in /site/p return $x").unwrap(),
        CompiledQuery::compile("for $x in /site/q/r return $x/text()").unwrap(),
    ];
    // Long enough on both sides of the damage for `run_parallel` to cut
    // shards around it.
    let filler = "<p>kept</p><q><r>also kept</r></q>".repeat(200);
    let threads = gcx_par::ParOptions::with_threads(4);
    let intact = format!("<site>{filler}<junk><deep>fine</deep></junk>\n{filler}</site>");
    let sharded = gcx_par::run_parallel(
        &queries[0],
        &EngineOptions::gcx(),
        &threads,
        intact.as_bytes(),
    );
    assert_eq!(sharded.unwrap().path, gcx_par::ShardPath::Parallel);
    for bad in damage {
        let mut doc = format!("<site>{filler}<junk><deep>fine</deep>").into_bytes();
        doc.extend_from_slice(bad);
        doc.extend_from_slice(format!("</junk>\n{filler}</site>").as_bytes());
        let label = String::from_utf8_lossy(bad);
        let want = match gcx::xml::Tokenizer::from_bytes(&doc).validate_to_end() {
            Err(e) => (format!("{:?}", e.kind), e.pos),
            Ok(_) => panic!("the tokenizer accepts {label}"),
        };
        assert!(want.1.offset > filler.len() as u64, "{label}: {want:?}");
        for opts in [EngineOptions::gcx(), EngineOptions::projection_only()] {
            let whole = gcx::run(&queries[0], &opts, &doc[..], std::io::sink());
            assert_eq!(xml_error(whole), want, "whole, {label}");
            let mut session = queries[0].session(&opts);
            let bytewise = doc
                .iter()
                .try_for_each(|b| session.feed(&[*b]).map(drop))
                .and_then(|()| session.finish());
            assert_eq!(xml_error(bytewise), want, "1-byte feeds, {label}");
        }
        let whole = gcx::core::batch::run_batch(&queries, &doc[..]);
        assert_eq!(xml_error(whole), want, "batch, {label}");
        let mut session = gcx::core::batch::BatchSession::new(
            &queries,
            &gcx::core::batch::BatchOptions::default(),
        );
        let bytewise = doc
            .iter()
            .try_for_each(|b| session.feed(&[*b]))
            .and_then(|()| session.finish());
        assert_eq!(xml_error(bytewise), want, "batch, 1-byte feeds, {label}");
        let par = gcx_par::run_parallel(&queries[0], &EngineOptions::gcx(), &threads, &doc);
        assert_eq!(xml_error(par), want, "parallel, {label}");
    }
}

#[test]
fn invented_names_count_against_the_byte_budget() {
    // Every start tag a driver steps over is interned, kept or refused:
    // under `/r/a` none of the <x…/> is kept, and each brings a new name.
    // With a byte budget the names a document adds to a run's table are
    // charged to it like the buffer and the pending chain: 100 000 names
    // (1.2 MB of them) end in `BufferLimitExceeded` on every driver, not
    // in a table of that size.
    let invented = |names: usize| {
        let mut doc = String::from("<r>");
        for i in 0..names {
            doc.push_str(&format!("<x{i:07}/>"));
        }
        doc + "<a>kept</a></r>"
    };
    let doc = invented(100_000);
    let doc = doc.as_bytes();
    let queries = [
        CompiledQuery::compile("for $a in /r/a return $a").unwrap(),
        CompiledQuery::compile("for $b in /r/b/c return $b/text()").unwrap(),
    ];
    let budget = 16 * 1024;
    let over = |e: gcx::EngineError, driver: &str| match e {
        gcx::EngineError::BufferLimitExceeded { limit, used } => {
            assert_eq!(limit, budget, "{driver}");
            // Stopped at the name that crossed the line.
            assert!(used > limit && used <= limit + 16, "{driver}: {used}");
        }
        other => panic!("{driver}: {other}"),
    };
    for opts in [EngineOptions::gcx(), EngineOptions::projection_only()] {
        let opts = opts.with_max_buffer_bytes(budget);
        let whole = gcx::run(&queries[0], &opts, doc, std::io::sink());
        over(whole.unwrap_err(), "session");
        let mut session = queries[0].session(&opts);
        let fed = doc.iter().position(|b| session.feed(&[*b]).is_err());
        let fed = fed.expect("1-byte feeds fail mid-document");
        assert!(fed < 64 * 1024, "stopped within one token: byte {fed}");
        let threads = gcx_par::ParOptions::with_threads(4);
        let par = gcx_par::run_parallel(&queries[0], &opts, &threads, doc);
        over(par.unwrap_err(), "parallel");
    }
    // Within the budget nothing changes.
    let opts = EngineOptions::gcx().with_max_buffer_bytes(budget);
    let mut out = Vec::new();
    gcx::run(&queries[0], &opts, invented(1_000).as_bytes(), &mut out).unwrap();
    assert_eq!(out, b"<a>kept</a>");
    // A batch: every lane holds the names it was shown and fails alone;
    // with no lane left the shared scan stops interning too (it still
    // validates the document to its end).
    let opts = gcx::core::batch::BatchOptions {
        max_buffer_bytes: Some(budget),
        ..gcx::core::batch::BatchOptions::default()
    };
    let report = gcx::core::batch::run(&queries, &opts, doc).unwrap();
    assert_eq!(report.tokens, 200_005);
    for run in report.queries {
        over(run.report.unwrap_err(), "batch lane");
    }
}

/// A reader that fails after `n` bytes.
struct FailingReader {
    data: Vec<u8>,
    pos: usize,
    fail_at: usize,
}

impl Read for FailingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.fail_at {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected",
            ));
        }
        let n = buf
            .len()
            .min(self.fail_at - self.pos)
            .min(self.data.len() - self.pos);
        if n == 0 {
            return Ok(0);
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn io_errors_propagate() {
    let doc = generate_string(&XmarkConfig::sized(8 * 1024));
    let q = CompiledQuery::compile(queries::Q6).unwrap();
    for fail_at in [0, 10, 1000, doc.len() / 2] {
        let reader = FailingReader {
            data: doc.clone().into_bytes(),
            pos: 0,
            fail_at,
        };
        let r = gcx::run(&q, &EngineOptions::gcx(), reader, std::io::sink());
        match r {
            Err(gcx::EngineError::Xml(e)) => {
                assert!(e.to_string().contains("injected") || e.to_string().contains("I/O"));
            }
            Err(other) => panic!("wrong error type: {other}"),
            Ok(_) => panic!("must fail at {fail_at}"),
        }
    }
}

/// A writer that fails after `n` bytes: output-side errors must propagate.
struct FailingWriter {
    written: usize,
    fail_at: usize,
}

impl std::io::Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written + buf.len() > self.fail_at {
            return Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "disk full",
            ));
        }
        self.written += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn output_errors_propagate() {
    let doc = generate_string(&XmarkConfig::sized(32 * 1024));
    let q = CompiledQuery::compile(queries::Q6).unwrap();
    let w = FailingWriter {
        written: 0,
        fail_at: 100,
    };
    let r = gcx::run(&q, &EngineOptions::gcx(), doc.as_bytes(), w);
    assert!(r.is_err(), "output failure must propagate");
}

#[test]
fn hostile_queries_rejected_at_compile_time() {
    let cases = [
        ("$undefined", "unbound"),
        ("for $x in /a return $y", "unbound"),
        ("for $x in /a/@id return $x", "fragment"),
        ("for $x in /a return signOff($x, r1)", "fragment"),
        ("for $x in /a return", "expected"),
        ("<a>{ 'x' }</b>", "closed by"),
        ("if (count(/a) = 1) then 'x'", ""), // aggregates are not operands
        ("for $x in /a[0] return $x", "positive"),
    ];
    for (q, needle) in cases {
        match CompiledQuery::compile(q) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.to_lowercase().contains(needle),
                    "error for `{q}` should mention `{needle}`: {msg}"
                );
            }
            Ok(_) => panic!("must reject: {q}"),
        }
    }
}

#[test]
fn deeply_nested_input_does_not_overflow() {
    // 50k-deep nesting exercises the iterative paths of the tokenizer,
    // matcher and buffer (the purge walk is iterative by design).
    let depth = 50_000;
    let mut doc = String::with_capacity(depth * 7);
    for _ in 0..depth {
        doc.push_str("<d>");
    }
    for _ in 0..depth {
        doc.push_str("</d>");
    }
    let q = CompiledQuery::compile("for $x in /d/d return 'found'").unwrap();
    let out = {
        let mut out = Vec::new();
        gcx::run(&q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    assert_eq!(out, "found");
}

#[test]
fn pathological_many_roles_query() {
    // A query with dozens of projection paths stays correct.
    let mut q = String::from("<r>{ ");
    for i in 0..30 {
        if i > 0 {
            q.push_str(", ");
        }
        q.push_str(&format!("for $x{i} in /a/b{i} return $x{i}/c{i}"));
    }
    q.push_str(" }</r>");
    let compiled = CompiledQuery::compile(&q).unwrap();
    assert!(compiled.analysis.roles.len() > 60);
    let doc = "<a><b3><c3>hit</c3></b3><b7/></a>";
    let mut out = Vec::new();
    let report = gcx::run(&compiled, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), "<r><c3>hit</c3></r>");
    assert_eq!(report.buffer.live, 0);
}

#[test]
fn empty_and_trivial_documents() {
    let q = CompiledQuery::compile("for $x in /a return $x").unwrap();
    // Empty input: error (no document element).
    assert!(gcx::run(&q, &EngineOptions::gcx(), "".as_bytes(), std::io::sink()).is_err());
    // Whitespace-only: error.
    assert!(gcx::run(
        &q,
        &EngineOptions::gcx(),
        "   \n ".as_bytes(),
        std::io::sink()
    )
    .is_err());
    // Minimal document, no match.
    let mut out = Vec::new();
    gcx::run(&q, &EngineOptions::gcx(), "<b/>".as_bytes(), &mut out).unwrap();
    assert!(out.is_empty());
}
