//! Chunk-boundary differential suite for the sans-IO engine.
//!
//! The push-driven `EvalSession` promises that *how* the input bytes are
//! chunked is invisible: outputs, token counts and buffer peaks are
//! bit-identical to a single-shot [`gcx::run`] no matter where the feed
//! boundaries land — including boundaries inside a tag, inside a
//! multi-byte UTF-8 sequence and inside a CDATA section. This suite pins
//! that claim over the paper's micro documents and all 11 paper queries
//! on a generated XMark document:
//!
//! * every 2-way split point of each micro document (deterministic,
//!   exhaustive — covers mid-tag and mid-entity boundaries by sweep);
//! * 1-byte chunks (every boundary at once);
//! * seeded random multi-way splits;
//! * handpicked documents with multi-byte UTF-8 and CDATA, split at every
//!   byte;
//! * the session's measurements — token count, both occupancy timelines,
//!   peaks — against a token-by-token reference preprojector that knows
//!   nothing of bulk skip, under the same chunkings.

use gcx::{CompiledQuery, EngineOptions, RunReport};
use gcx_xmark::queries::paper_queries;
use gcx_xmark::{microdoc, microdoc_article_heavy, microdoc_book_heavy, MicroKind};

/// Single-shot oracle through the blocking wrapper.
fn oracle(q: &CompiledQuery, doc: &[u8]) -> (Vec<u8>, RunReport) {
    let mut out = Vec::new();
    let report = gcx::run(q, &EngineOptions::gcx(), doc, &mut out).expect("oracle run");
    // The blocking wrapper drives the session in 64KB reads straight into
    // the tokenizer window: feed_calls counts exactly those chunks, and a
    // single-chunk run has no boundary to spill a partial token across.
    let chunks = (doc.len() as u64).div_ceil(64 * 1024);
    assert_eq!(report.feed_calls, chunks, "feed_calls != 64KB chunks read");
    if chunks <= 1 {
        assert_eq!(report.max_pending_bytes, 0, "single-chunk run cannot spill");
    }
    (out, report)
}

/// Push the document through an `EvalSession` in pieces cut at `splits`
/// (ascending byte offsets); returns (output, report).
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
    // Every feed call counts, including empty chunks from duplicate cuts
    // (the session accepted them; "nothing arrived" is itself an event).
    assert_eq!(
        report.feed_calls,
        splits.len() as u64 + 1,
        "feed_calls must count exactly the chunks fed"
    );
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

/// The invariant: chunking must be invisible in output AND measurements.
fn assert_equiv(label: &str, want: &(Vec<u8>, RunReport), got: &(Vec<u8>, RunReport)) {
    assert_eq!(got.0, want.0, "{label}: output differs");
    assert_eq!(got.1.tokens, want.1.tokens, "{label}: token count differs");
    assert_eq!(
        got.1.buffer.peak_live, want.1.buffer.peak_live,
        "{label}: peak buffered nodes differ"
    );
    assert_eq!(
        got.1.buffer.peak_live_bytes, want.1.buffer.peak_live_bytes,
        "{label}: peak buffer bytes differ"
    );
    assert_eq!(
        got.1.buffer.allocated, want.1.buffer.allocated,
        "{label}: allocation count differs"
    );
    assert_eq!(
        got.1.buffer.live, want.1.buffer.live,
        "{label}: live differs"
    );
    assert_eq!(
        got.1.output_bytes, want.1.output_bytes,
        "{label}: output_bytes differs"
    );
}

/// Tiny deterministic generator for random split points (no external
/// dependency; xorshift64*).
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

/// Micro-document corpus: the paper's Figure 3 documents plus a mixed one.
fn microdocs() -> Vec<String> {
    use MicroKind::{Article, Book};
    vec![
        microdoc_article_heavy(),
        microdoc_book_heavy(),
        microdoc(&[Book, Article, Book, Book, Article]),
    ]
}

/// The paper's running bib query (Figure 1) — the microdocs' native query —
/// plus smaller shapes that exercise predicates, attributes and exists.
fn bib_queries() -> Vec<&'static str> {
    vec![
        r#"<r> {
            for $bib in /bib return
              (for $x in $bib/* return
                 if (not(exists($x/price))) then $x else (),
               for $b in $bib/book return $b/title)
          } </r>"#,
        "for $b in /bib/book return $b",
        "for $t in /bib/book/title return $t",
        "count(/bib/book)",
    ]
}

#[test]
fn every_two_way_split_of_every_microdoc() {
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            for cut in 0..=doc.len() {
                let got = run_split(q, doc, &[cut]);
                assert_equiv(&format!("doc {di} query {qi} cut {cut}"), &want, &got);
            }
        }
    }
}

#[test]
fn one_byte_chunks_and_random_splits_microdocs() {
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            // 1-byte chunks: every boundary at once.
            let all: Vec<usize> = (1..doc.len()).collect();
            let got = run_split(q, doc, &all);
            assert_equiv(&format!("doc {di} query {qi} 1-byte"), &want, &got);
            // Seeded random multi-way splits (duplicates = empty feeds).
            for round in 0..8 {
                let splits = rng.splits(doc.len(), 5);
                let got = run_split(q, doc, &splits);
                assert_equiv(
                    &format!("doc {di} query {qi} random {round} {splits:?}"),
                    &want,
                    &got,
                );
            }
        }
    }
}

#[test]
fn all_paper_queries_over_xmark_at_arbitrary_boundaries() {
    // A real XMark document (the benchmark corpus) with all 11 paper
    // queries: chunk sizes that straddle every construct, plus random
    // splits.
    let mut cfg = gcx_xmark::XmarkConfig::sized(48 * 1024);
    cfg.seed = 42;
    let mut doc = Vec::new();
    gcx_xmark::generate(&cfg, &mut doc).expect("generate");

    let mut rng = XorShift(42);
    for (name, text) in paper_queries() {
        let q = CompiledQuery::compile(text).expect(name);
        let want = oracle(&q, &doc);
        for (label, splits) in xmark_chunkings(doc.len(), &mut rng) {
            let got = run_split(&q, &doc, &splits);
            assert_equiv(&format!("{name} {label}"), &want, &got);
        }
    }
}

/// The chunkings of the XMark tests: fixed chunk sizes that straddle
/// every construct, plus seeded random 10-way splits.
fn xmark_chunkings(len: usize, rng: &mut XorShift) -> Vec<(String, Vec<usize>)> {
    let mut all: Vec<(String, Vec<usize>)> = [1usize, 7, 64, 1024]
        .iter()
        .map(|&chunk| (format!("chunk {chunk}"), (1..len).step_by(chunk).collect()))
        .collect();
    all.extend((0..4).map(|round| (format!("random {round}"), rng.splits(len, 9))));
    all
}

/// What a run measured on the token clock.
#[derive(Debug, PartialEq)]
struct Measured {
    output: Vec<u8>,
    tokens: u64,
    /// `(token, live nodes)` after every structural token.
    nodes_timeline: Vec<(u64, u64)>,
    /// The timeline's `(token, live bytes)` samples.
    bytes_timeline: Vec<(u64, u64)>,
    peak_live_nodes: u64,
    peak_live_bytes: u64,
    /// Purged nodes and the tokens they stayed buffered, summed.
    residency: (u64, u64),
}

impl Measured {
    fn of(output: Vec<u8>, nodes_timeline: Vec<(u64, u64)>, report: &RunReport) -> Measured {
        let obs = report.obs.as_ref().expect("telemetry on");
        let timeline = report.timeline.as_ref().expect("timeline on");
        Measured {
            output,
            tokens: report.tokens,
            nodes_timeline,
            bytes_timeline: timeline.live_bytes().collect(),
            peak_live_nodes: report.buffer.peak_live,
            peak_live_bytes: report.buffer.peak_live_bytes,
            residency: (obs.residency_tokens.count(), obs.residency_tokens.sum()),
        }
    }
}

/// The reference: the stream preprojector as a token loop. The pull
/// tokenizer steps through *every* token, a refused subtree moves a depth
/// counter, and each structural token is charged to the lane on its own
/// (start 1, self-closing 2, end 1, text 1) — no `skip_element`, no bulk
/// charge.
fn token_by_token(q: &CompiledQuery, doc: &[u8]) -> Measured {
    use gcx::core::{Keep, Lane, ScanFacts};
    use gcx::xml::{Token, Tokenizer};

    let opts = EngineOptions::gcx().with_timeline(1).with_telemetry();
    let mut lane = Lane::start(q, &opts, None);
    let (mut matcher, _root_roles) = gcx::projection::StreamMatcher::new(q.program.matcher_paths());
    let mut tok = Tokenizer::from_bytes(doc);
    let mut points = Vec::new();
    let (mut roles, mut attr_names) = (Vec::new(), Vec::new());
    let mut skip_depth = 0u32;
    lane.step();
    while let Some(token) = tok.next_token().expect("reference tokenizes") {
        let charge = match &token {
            Token::StartTag(tag) => {
                let nests = u32::from(!tag.self_closing);
                if skip_depth > 0 {
                    skip_depth += nests;
                } else {
                    let name = lane.symbols_mut().intern(tag.name);
                    let keep = matcher.enter_element_into(name, &mut roles);
                    attr_names.clear();
                    if keep {
                        let symbols = lane.symbols_mut();
                        attr_names.extend(tag.attrs.iter().map(|a| symbols.intern(a.name)));
                    }
                    lane.start_element(name, tag, &attr_names, Keep::projected(keep, &roles));
                    if !keep {
                        skip_depth = nests;
                    } else if tag.self_closing {
                        matcher.leave_element();
                    }
                }
                2 - nests
            }
            Token::EndTag { .. } => {
                if skip_depth > 0 {
                    skip_depth -= 1;
                } else {
                    lane.end_element();
                    matcher.leave_element();
                }
                1
            }
            Token::Text(content) => {
                if skip_depth == 0 {
                    matcher.text_into(&mut roles);
                    lane.text(content, (!roles.is_empty()).then_some(&roles[..]));
                }
                1
            }
            _ => continue,
        };
        for _ in 0..charge {
            lane.tick(1);
            points.push((lane.tokens(), lane.buffer_stats().live));
        }
        lane.step();
    }
    let report = lane
        .finish(&ScanFacts::default(), None)
        .expect("reference run");
    Measured::of(std::mem::take(lane.output_mut()), points, &report)
}

/// The session's measurements of the same run, fed in pieces.
fn session_measured(q: &CompiledQuery, doc: &[u8], splits: &[usize]) -> Measured {
    let opts = EngineOptions::gcx().with_timeline(1).with_telemetry();
    let mut session = q.session(&opts);
    let mut from = 0;
    for &cut in splits {
        session.feed(&doc[from..cut]).expect("feed");
        from = cut;
    }
    session.feed(&doc[from..]).expect("final feed");
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    let timeline = report.timeline.as_ref().expect("timeline on");
    Measured::of(out, timeline.points.clone(), &report)
}

#[test]
fn measurements_match_a_token_by_token_reference() {
    // Skipped subtrees are charged to the token clock in bulk; everything
    // measured on that clock must land where one-at-a-time charging puts
    // it: the token count, every sample of both occupancy timelines (token
    // number *and* value), the peaks, the residency of every purged node.
    // Long enough for skipped subtrees to span several telemetry samples.
    let mut cfg = gcx_xmark::XmarkConfig::sized(64 * 1024);
    cfg.seed = 15;
    let mut doc = Vec::new();
    gcx_xmark::generate(&cfg, &mut doc).expect("generate");
    let mut rng = XorShift(15);
    for (name, text) in paper_queries() {
        let q = CompiledQuery::compile(text).expect(name);
        let want = token_by_token(&q, &doc);
        assert_eq!(want.nodes_timeline.len() as u64, want.tokens);
        let mut chunkings = xmark_chunkings(doc.len(), &mut rng);
        chunkings.push(("whole".into(), Vec::new()));
        for (label, splits) in chunkings {
            let got = session_measured(&q, &doc, &splits);
            assert!(got == want, "{name} {label}: session and reference differ");
        }
    }
    // The paper's micro documents: every 2-way split and 1-byte chunks.
    for doc in microdocs() {
        let doc = doc.as_bytes();
        for text in bib_queries() {
            let q = CompiledQuery::compile(text).expect("compile");
            let want = token_by_token(&q, doc);
            for cut in 0..=doc.len() {
                assert!(
                    session_measured(&q, doc, &[cut]) == want,
                    "{text} cut {cut}"
                );
            }
            let all: Vec<usize> = (1..doc.len()).collect();
            assert!(session_measured(&q, doc, &all) == want, "{text} 1-byte");
        }
    }
}

#[test]
fn unsplit_runs_carry_no_spillover() {
    // One feed of the whole document: exactly one feed call, and the
    // tokenizer never holds a partial token across a boundary (there is
    // no boundary), so the spillover watermark must stay zero.
    let queries: Vec<CompiledQuery> = bib_queries()
        .iter()
        .map(|t| CompiledQuery::compile(t).expect("compile"))
        .collect();
    for (di, doc) in microdocs().iter().enumerate() {
        let doc = doc.as_bytes();
        for (qi, q) in queries.iter().enumerate() {
            let want = oracle(q, doc);
            let got = run_split(q, doc, &[]);
            assert_equiv(&format!("doc {di} query {qi} unsplit"), &want, &got);
            assert_eq!(got.1.feed_calls, 1, "doc {di} query {qi}: one chunk fed");
            assert_eq!(
                got.1.max_pending_bytes, 0,
                "doc {di} query {qi}: unsplit run must not spill"
            );
        }
    }
}

#[test]
fn boundaries_inside_utf8_and_cdata_are_invisible() {
    // Multi-byte text (α=2 bytes, 漢=3, 🚀=4), CDATA with markup-like
    // content, entities and attributes — split at EVERY byte, so some
    // split lands inside each multi-byte sequence, inside `<![CDATA[`,
    // inside `]]>`, inside entities and inside quoted attributes.
    let doc = "<bib><book lang=\"ελ\"><title>αβγ 漢字 🚀&amp;done</title>\
               <note><![CDATA[x < y & <fake>]]></note></book>\
               <book><title>t&#13;2</title></book></bib>";
    let doc = doc.as_bytes();
    for text in [
        "for $t in /bib/book/title return $t",
        "for $b in /bib/book return $b",
        "for $n in /bib/book/note return $n/text()",
    ] {
        let q = CompiledQuery::compile(text).expect("compile");
        let want = oracle(&q, doc);
        for cut in 0..=doc.len() {
            let got = run_split(&q, doc, &[cut]);
            assert_equiv(&format!("{text} cut {cut}"), &want, &got);
        }
        // And fully byte-at-a-time.
        let all: Vec<usize> = (1..doc.len()).collect();
        let got = run_split(&q, doc, &all);
        assert_equiv(&format!("{text} 1-byte"), &want, &got);
    }
}
