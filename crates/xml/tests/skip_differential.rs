//! Differential: [`PushTokenizer::skip_element`] against stepping through
//! the same subtree.
//!
//! A skip is only allowed to be *faster* than the token loop it replaces.
//! Over generated XMark documents and the adversarial generator shared
//! with `scan_differential.rs`, for every element of a document and every
//! chunking, "skip here" and "step until the matching end tag" must leave
//! the tokenizer in the same state: the same number of structural tokens
//! charged, the same `position()`, the same token stream afterwards, and
//! never more bytes held back across a feed. Over every single-byte
//! corruption and every truncation of those documents the two must return
//! the identical result — the same error kind at the same position — with
//! well-formedness checking on and off.

mod common;

use common::{gen_doc, XorShift};
use gcx_xml::{PushTokenizer, TextPos, Token, TokenStep, TokenizerOptions};

/// One thing a run got through.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// A stepped token: its rendering, what a consumer charges for it
    /// (start 1, self-closing 2, end 1, text 1, the rest 0), its depth
    /// change, and the position behind it.
    Token {
        repr: String,
        charge: u64,
        depth: i32,
        behind: TextPos,
    },
    /// A skipped subtree (all suspended calls of one skip together).
    Skipped {
        tokens: u64,
        complete: bool,
        behind: TextPos,
    },
}

/// A whole run: what went by, how it ended, and the bytes the tokenizer
/// still held each time it asked for the next chunk.
#[derive(Debug)]
struct Run {
    events: Vec<Event>,
    /// `Err` carries the error kind's rendering and its position.
    result: Result<(), (String, TextPos)>,
    pending: Vec<usize>,
}

/// Tokenize `doc`, fed `chunk` bytes whenever the tokenizer asks for more,
/// skipping every non-self-closing element for which `skip(ordinal,
/// depth)` holds — `ordinal` counts non-self-closing start tags that were
/// stepped, `depth` is the number of open ancestors.
fn run(
    doc: &[u8],
    opts: &TokenizerOptions,
    chunk: usize,
    skip: impl Fn(usize, i32) -> bool,
) -> Run {
    let mut tok = PushTokenizer::with_options(opts.clone());
    let mut out = Run {
        events: Vec::new(),
        result: Ok(()),
        pending: Vec::new(),
    };
    let (mut fed, mut ordinal, mut depth) = (0usize, 0usize, 0i32);
    // The skip in flight: tokens so far.
    let mut skipping: Option<u64> = None;
    loop {
        let more = if let Some(so_far) = skipping {
            assert!(so_far == 0 || tok.skipping());
            match tok.skip_element() {
                Err(e) => {
                    out.result = Err((format!("{:?}", e.kind), e.pos));
                    return out;
                }
                Ok(s) if s.complete || tok.input_finished() => {
                    assert!(!tok.skipping());
                    out.events.push(Event::Skipped {
                        tokens: so_far + s.tokens,
                        complete: s.complete,
                        behind: tok.position(),
                    });
                    skipping = None;
                    depth -= 1;
                    false
                }
                Ok(s) => {
                    skipping = Some(so_far + s.tokens);
                    true
                }
            }
        } else {
            match tok.step() {
                Err(e) => {
                    out.result = Err((format!("{:?}", e.kind), e.pos));
                    return out;
                }
                Ok(TokenStep::End) => return out,
                Ok(TokenStep::NeedMoreData) => true,
                Ok(TokenStep::Token) => {
                    let token = tok.token();
                    let (charge, change) = match &token {
                        Token::StartTag(s) if s.self_closing => (2, 0),
                        Token::StartTag(_) => (1, 1),
                        Token::EndTag { .. } => (1, -1),
                        Token::Text(_) => (1, 0),
                        _ => (0, 0),
                    };
                    out.events.push(Event::Token {
                        repr: format!("{token:?}"),
                        charge,
                        depth: change,
                        behind: tok.position(),
                    });
                    if change == 1 {
                        if skip(ordinal, depth) {
                            skipping = Some(0);
                        }
                        ordinal += 1;
                    }
                    depth += change;
                    false
                }
            }
        };
        if more {
            out.pending.push(tok.pending_bytes());
            if fed == doc.len() {
                tok.finish_input();
            } else {
                let n = chunk.min(doc.len() - fed);
                tok.feed(&doc[fed..fed + n]);
                fed += n;
            }
        }
    }
}

/// `got` (a run that skipped) against `want` (the same run, stepping all
/// the way).
fn assert_same(want: &Run, got: &Run, label: &dyn Fn() -> String) {
    let mut stepped = want.events.iter();
    for event in &got.events {
        match event {
            Event::Token { .. } => assert_eq!(stepped.next(), Some(event), "{}", label()),
            Event::Skipped {
                tokens,
                complete,
                behind,
            } => {
                // Step the reference through the same subtree.
                let (mut open, mut charged, mut at) = (1, 0, None);
                while open > 0 {
                    let Some(Event::Token {
                        charge,
                        depth,
                        behind,
                        ..
                    }) = stepped.next()
                    else {
                        break;
                    };
                    open += depth;
                    charged += charge;
                    at = Some(*behind);
                }
                // The reference may have failed inside the subtree; then
                // only the verdicts below are comparable.
                let through = open == 0;
                assert_eq!(*complete, through, "{}", label());
                if through || want.result.is_ok() {
                    assert_eq!(*tokens, charged, "tokens charged, {}", label());
                    assert_eq!(*behind, at.unwrap_or(*behind), "position, {}", label());
                }
            }
        }
    }
    assert_eq!(got.result, want.result, "{}", label());
    if want.result.is_ok() {
        assert_eq!(stepped.next(), None, "{}", label());
    }
    // Both asked for every chunk in turn, so request `i` was made with the
    // same bytes fed: a skip never holds back more than stepping does.
    for (i, (held, reference)) in got.pending.iter().zip(&want.pending).enumerate() {
        assert!(
            held <= reference,
            "{held} > {reference} bytes pending at request {i}, {}",
            label()
        );
    }
}

fn options() -> [TokenizerOptions; 2] {
    [
        TokenizerOptions::default(),
        TokenizerOptions {
            check_well_formed: false,
            allow_fragments: false,
        },
    ]
}

fn chunkings(len: usize) -> [usize; 6] {
    [1, 2, 3, 7, 64, len.max(1)]
}

/// Every element on its own, then everything at one depth, for every
/// chunking and both option sets.
fn check_every_element(doc: &[u8]) {
    for opts in options() {
        for chunk in chunkings(doc.len()) {
            let want = run(doc, &opts, chunk, |_, _| false);
            assert_eq!(want.result, Ok(()), "generated document must tokenize");
            let elements = want
                .events
                .iter()
                .filter(|e| matches!(e, Event::Token { depth: 1, .. }))
                .count();
            for k in 0..elements {
                let got = run(doc, &opts, chunk, |ordinal, _| ordinal == k);
                assert_same(&want, &got, &|| {
                    format!(
                        "element {k}, chunk {chunk}, check {}:\n{}",
                        opts.check_well_formed,
                        String::from_utf8_lossy(doc)
                    )
                });
            }
            for level in 0..4 {
                let got = run(doc, &opts, chunk, |_, depth| depth == level);
                assert_same(&want, &got, &|| {
                    format!(
                        "depth {level}, chunk {chunk}, check {}:\n{}",
                        opts.check_well_formed,
                        String::from_utf8_lossy(doc)
                    )
                });
            }
        }
    }
}

#[test]
fn skip_equals_stepping_for_every_element_of_generated_documents() {
    let mut rng = XorShift(0x5CA_D1FF);
    let rounds = if cfg!(miri) { 2 } else { 120 };
    for _ in 0..rounds {
        check_every_element(gen_doc(&mut rng).as_bytes());
    }
}

#[test]
fn skip_equals_stepping_for_every_element_of_xmark_documents() {
    let sizes: &[u64] = if cfg!(miri) { &[1024] } else { &[4096, 6000] };
    for (i, &size) in sizes.iter().enumerate() {
        let mut cfg = gcx_xmark::XmarkConfig::sized(size);
        cfg.seed = 7 + i as u64;
        check_every_element(gcx_xmark::generate_string(&cfg).as_bytes());
    }
}

#[test]
fn skip_equals_stepping_across_a_large_xmark_document() {
    // Big enough that skipped subtrees span many 4 KiB feeds.
    let size = if cfg!(miri) { 8 * 1024 } else { 512 * 1024 };
    let doc = gcx_xmark::generate_string(&gcx_xmark::XmarkConfig::sized(size));
    let doc = doc.as_bytes();
    let opts = TokenizerOptions::default();
    for chunk in [61, 4096, doc.len()] {
        let want = run(doc, &opts, chunk, |_, _| false);
        for level in 0..5 {
            let got = run(doc, &opts, chunk, |_, depth| depth == level);
            assert_same(&want, &got, &|| format!("depth {level}, chunk {chunk}"));
        }
    }
}

/// Bytes a corruption writes: markup delimiters, the entity opener, a
/// quote, whitespace, a name-breaking digit and two bytes that break
/// UTF-8 (a stray continuation byte and an invalid lead).
const CORRUPTIONS: &[u8] = b"<>&/\"' =!?-]1x\x80\xff";

/// `doc` with something wrong: the verdicts of stepping and of skipping
/// at every depth must agree, whatever they are.
fn check_damaged(doc: &[u8], finish_at: usize, chunk: usize, what: &dyn Fn() -> String) {
    let doc = &doc[..finish_at];
    for opts in options() {
        let want = run(doc, &opts, chunk, |_, _| false);
        for level in 0..3 {
            let got = run(doc, &opts, chunk, |_, depth| depth == level);
            assert_same(&want, &got, &|| {
                format!(
                    "{}, skipping at depth {level}, chunk {chunk}, check {}:\n{}",
                    what(),
                    opts.check_well_formed,
                    String::from_utf8_lossy(doc)
                )
            });
        }
    }
}

fn check_every_corruption_and_truncation(doc: &[u8], stride: usize) {
    let chunks = [1, 7, doc.len()];
    for at in (0..doc.len()).step_by(stride) {
        // Rotate through the chunkings and the corruption bytes so that
        // every position meets several of each over a few documents.
        let chunk = chunks[at % chunks.len()];
        check_damaged(doc, at, chunk, &|| format!("truncated at {at}"));
        let mut damaged = doc.to_vec();
        for round in 0..3 {
            let byte = CORRUPTIONS[(at + 5 * round) % CORRUPTIONS.len()];
            if byte == doc[at] {
                continue;
            }
            damaged[at] = byte;
            check_damaged(&damaged, damaged.len(), chunk, &|| {
                format!("byte {at} set to {byte:#04x}")
            });
        }
    }
}

#[test]
fn skip_and_stepping_agree_on_every_corruption_and_truncation() {
    let mut rng = XorShift(0xBAD_5EED);
    let rounds = if cfg!(miri) { 1 } else { 6 };
    for _ in 0..rounds {
        check_every_corruption_and_truncation(gen_doc(&mut rng).as_bytes(), 1);
    }
    // XMark shapes (long attribute-carrying tags, deep nesting), thinned.
    let mut cfg = gcx_xmark::XmarkConfig::sized(2048);
    cfg.seed = 3;
    let stride = if cfg!(miri) { 97 } else { 29 };
    check_every_corruption_and_truncation(gcx_xmark::generate_string(&cfg).as_bytes(), stride);
}

#[test]
fn handpicked_errors_inside_a_skipped_subtree() {
    // One of each fallback, damaged; the root's children are skipped.
    let cases: &[&str] = &[
        "<r><s>x &bogus; y</s></r>",
        "<r><s>clean head, then &bad</s></r>",
        "<r><s><a k='1' k='2'/></s></r>",
        "<r><s><a k=v/></s></r>",
        "<r><s><a b=\"x<y\"/></s></r>",
        "<r><s><a b=\"c\"d=\"e\"/></s></r>",
        "<r><s><1a/></s></r>",
        "<r><s><a></b></s></r>",
        "<r><s></t></r>",
        "<r><s><!-- never closed </s></r>",
        "<r><s><![CDATA[ never closed </s></r>",
        "<r><s><?pi never closed </s></r>",
        "<r><s>text</s >tail</r ><!-- fine -->",
        "<r><s><a\u{b}k='v'/></s></r>",
        "<r><s>never closed",
    ];
    for doc in cases {
        for chunk in [1, 2, 5, doc.len()] {
            check_damaged(doc.as_bytes(), doc.len(), chunk, &|| (*doc).to_string());
        }
    }
    // Invalid UTF-8 behind a clean head, in text and in a name.
    for doc in [
        &b"<r><s>clean \xff tail</s></r>"[..],
        b"<r><s><\xc3\x28/></s></r>",
    ] {
        for chunk in [1, 3, doc.len()] {
            check_damaged(doc, doc.len(), chunk, &|| format!("{doc:?}"));
        }
    }
}

#[test]
#[should_panic(expected = "without an open start tag")]
fn skip_without_a_start_tag_is_a_caller_bug() {
    let mut tok = PushTokenizer::new();
    tok.feed(b"<r><leaf/></r>");
    tok.step().unwrap();
    tok.step().unwrap(); // <leaf/> has no content to skip
    let _ = tok.skip_element();
}
