//! The driver against a token-by-token reference: skipped subtrees and the
//! search and copy passes move a lane's sampler in bulk, and everything
//! measured on the stream's token clock must land where ticking one token
//! at a time puts it — the token count, every sample of both occupancy
//! timelines (token number *and* value), the peaks, the residency of every
//! purged node — under every chunking of the input.

use crate::engine::{CompiledQuery, EngineOptions, RunReport};
use crate::lane::{Keep, Lane, ScanFacts};
use gcx_projection::{Automaton, TaggedMatcher, TaggedPaths};
use gcx_xmark::queries::paper_queries;
use gcx_xmark::{microdoc, microdoc_article_heavy, microdoc_book_heavy, MicroKind};
use gcx_xml::{Token, Tokenizer};
use std::sync::Arc;

/// Tiny deterministic generator for random split points (xorshift64*).
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

/// The paper's Figure 3 documents plus a mixed one.
fn microdocs() -> Vec<String> {
    use MicroKind::{Article, Book};
    vec![
        microdoc_article_heavy(),
        microdoc_book_heavy(),
        microdoc(&[Book, Article, Book, Book, Article]),
    ]
}

/// The paper's running bib query (Figure 1) plus smaller shapes that
/// exercise predicates, attributes and exists.
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

/// Fixed chunk sizes that straddle every construct, plus seeded random
/// 10-way splits.
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
/// charge. Its matcher runs on an automaton of its own, prepared fresh
/// from the query's paths.
fn token_by_token(q: &CompiledQuery, doc: &[u8]) -> Measured {
    let opts = EngineOptions::gcx().with_timeline(1).with_telemetry();
    let mut lane = Lane::start(q, &opts, None);
    let paths = TaggedPaths::merge([q.program.matcher_paths()]);
    let mut matcher = TaggedMatcher::start(Arc::new(Automaton::new(paths, None)));
    let mut tok = Tokenizer::from_bytes(doc);
    let mut points = Vec::new();
    let (mut roles, mut attr_names) = (Vec::new(), Vec::new());
    let (mut refused_depth, mut at) = (0u32, 0);
    lane.step();
    while let Some(token) = tok.next_token().expect("reference tokenizes") {
        let charge = match &token {
            Token::StartTag(tag) => {
                let nests = u32::from(!tag.self_closing);
                if refused_depth > 0 {
                    refused_depth += nests;
                } else {
                    let name = lane.symbols_mut().intern(tag.name);
                    roles.clear();
                    let entered = matcher.enter(name);
                    let keep = entered.is_some();
                    if let Some((_, tagged)) = entered {
                        roles.extend(tagged.iter().map(|&(_, r, c)| (r, c)));
                    }
                    attr_names.clear();
                    if keep {
                        let symbols = lane.symbols_mut();
                        attr_names.extend(tag.attrs.iter().map(|a| symbols.intern(a.name)));
                    }
                    lane.start_element(name, tag, &attr_names, Keep::projected(keep, &roles));
                    if !keep {
                        refused_depth = nests;
                    } else if tag.self_closing {
                        matcher.leave_element();
                    }
                }
                2 - nests
            }
            Token::EndTag { .. } => {
                if refused_depth > 0 {
                    refused_depth -= 1;
                } else {
                    lane.end_element();
                    matcher.leave_element();
                }
                1
            }
            Token::Text(content) => {
                // Whitespace outside the document element is no node.
                if refused_depth == 0 && matcher.depth() > 0 {
                    roles.clear();
                    roles.extend(matcher.text().iter().map(|&(_, r, c)| (r, c)));
                    lane.text(content, (!roles.is_empty()).then_some(&roles[..]));
                }
                1
            }
            _ => continue,
        };
        for _ in 0..charge {
            at += 1;
            lane.tick(at);
            points.push((at, lane.buffer_stats().live));
        }
        lane.step();
    }
    let scan = ScanFacts {
        tokens: at,
        ..ScanFacts::default()
    };
    let report = lane.finish(&scan, 0).expect("reference run");
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
#[cfg_attr(miri, ignore)]
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
