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
//! the identical result — the same error kind at the same position.
//!
//! The same holds for *searches*, skips that stop at a start tag named in
//! a stop set or past a depth bound: with stop sets drawn from each
//! document's names (the rarest, two, a non-ASCII one, a self-closing
//! tag's, an attribute-carrying tag's, one the chunking cuts), searching
//! from every point at depths 1–3 must charge the tokens stepping charges
//! up to the stop, hand over the same stop tag at the same position with
//! the same names left open, and leave the same stream behind.

mod common;

use common::{gen_doc, XorShift};
use gcx_xml::{PushTokenizer, TextPos, Token, TokenStep};

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
        tags: u64,
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
fn run(doc: &[u8], chunk: usize, skip: impl Fn(usize, i32) -> bool) -> Run {
    let mut tok = PushTokenizer::new();
    let mut out = Run {
        events: Vec::new(),
        result: Ok(()),
        pending: Vec::new(),
    };
    let (mut fed, mut ordinal, mut depth) = (0usize, 0usize, 0i32);
    // The skip in flight: tokens and tags so far.
    let mut skipping: Option<(u64, u64)> = None;
    loop {
        let more = if let Some((so_far, tags)) = skipping {
            assert!(so_far == 0 || tok.skipping());
            match tok.skip_element(&[], usize::MAX) {
                Err(e) => {
                    out.result = Err((format!("{:?}", e.kind), e.pos));
                    return out;
                }
                Ok(s) if s.complete || tok.input_finished() => {
                    assert!(!tok.skipping());
                    out.events.push(Event::Skipped {
                        tokens: so_far + s.tokens,
                        tags: tags + s.tags,
                        complete: s.complete,
                        behind: tok.position(),
                    });
                    skipping = None;
                    depth -= 1;
                    false
                }
                Ok(s) => {
                    skipping = Some((so_far + s.tokens, tags + s.tags));
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
                            skipping = Some((0, 0));
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
                tags,
                complete,
                behind,
            } => {
                // Step the reference through the same subtree.
                let (mut open, mut charged, mut at) = (1, 0, None);
                // Start, end and self-closing tags: what moves the depth
                // or is charged twice.
                let mut stepped_tags = 0;
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
                    stepped_tags += u64::from(*depth != 0 || *charge == 2);
                    at = Some(*behind);
                }
                // The reference may have failed inside the subtree; then
                // only the verdicts below are comparable.
                let through = open == 0;
                assert_eq!(*complete, through, "{}", label());
                if through || want.result.is_ok() {
                    assert_eq!(*tokens, charged, "tokens charged, {}", label());
                    assert_eq!(*tags, stepped_tags, "tags passed, {}", label());
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

fn chunkings(len: usize) -> [usize; 6] {
    [1, 2, 3, 7, 64, len.max(1)]
}

/// Every element on its own, then everything at one depth, for every
/// chunking.
fn check_every_element(doc: &[u8]) {
    for chunk in chunkings(doc.len()) {
        let want = run(doc, chunk, |_, _| false);
        assert_eq!(want.result, Ok(()), "generated document must tokenize");
        let elements = want
            .events
            .iter()
            .filter(|e| matches!(e, Event::Token { depth: 1, .. }))
            .count();
        for k in 0..elements {
            let got = run(doc, chunk, |ordinal, _| ordinal == k);
            assert_same(&want, &got, &|| {
                format!(
                    "element {k}, chunk {chunk}:\n{}",
                    String::from_utf8_lossy(doc)
                )
            });
        }
        for level in 0..4 {
            let got = run(doc, chunk, |_, depth| depth == level);
            assert_same(&want, &got, &|| {
                format!(
                    "depth {level}, chunk {chunk}:\n{}",
                    String::from_utf8_lossy(doc)
                )
            });
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
    for chunk in [61, 4096, doc.len()] {
        let want = run(doc, chunk, |_, _| false);
        for level in 0..5 {
            let got = run(doc, chunk, |_, depth| depth == level);
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
    let want = run(doc, chunk, |_, _| false);
    for level in 0..3 {
        let got = run(doc, chunk, |_, depth| depth == level);
        assert_same(&want, &got, &|| {
            format!(
                "{}, skipping at depth {level}, chunk {chunk}:\n{}",
                what(),
                String::from_utf8_lossy(doc)
            )
        });
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

// ---- searches: skips that stop at a name ------------------------------------

/// One thing a search run got through: a stepped token (its rendering and
/// the position behind it), or a search — the tokens it charged, how it
/// ended (`complete`, `stop`, `depth`, or `cut` by the end of input), the
/// names it left open and the position behind it. A stop tag follows its
/// search as a stepped token.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Token(String, TextPos),
    Search {
        tokens: u64,
        end: &'static str,
        left_open: Vec<String>,
        behind: TextPos,
    },
}

/// A whole search run, like [`Run`].
#[derive(Debug, PartialEq)]
struct SearchRun {
    seen: Vec<Seen>,
    result: Result<(), (String, TextPos)>,
    pending: Vec<usize>,
}

impl SearchRun {
    fn failed(mut self, e: gcx_xml::XmlError) -> SearchRun {
        self.result = Err((format!("{:?}", e.kind), e.pos));
        self
    }
}

/// Stop names and the depth bound of a search.
type Search<'a> = (&'a [&'a str], usize);

/// Tokenize `doc`, fed `chunk` bytes whenever the tokenizer asks for more,
/// and search the rest of the innermost open element whenever a token
/// leaves it at depth `level` — by [`PushTokenizer::skip_element`] with
/// `search`'s stops and bound, or (`by_skip` false) by stepping and
/// ending the search where it should end.
fn run_search(
    doc: &[u8],
    chunk: usize,
    (stops, max_open): Search<'_>,
    level: usize,
    by_skip: bool,
) -> SearchRun {
    let mut tok = PushTokenizer::new();
    let mut out = SearchRun {
        seen: Vec::new(),
        result: Ok(()),
        pending: Vec::new(),
    };
    let mut fed = 0;
    // The open elements, and the search in flight: tokens charged and the
    // names it opened that are still open.
    let mut open: Vec<String> = Vec::new();
    let mut search: Option<(u64, Vec<String>)> = None;
    loop {
        // `Some(end)`: the search in flight ended here (the stop tag, if
        // any, is the pending token).
        let mut ended: Option<&'static str> = None;
        let mut more = false;
        match (&mut search, by_skip) {
            (Some((charged, left)), true) => match tok.skip_element(stops, max_open) {
                Err(e) => return out.failed(e),
                Ok(s) => {
                    *charged += s.tokens;
                    *left = tok.left_open(s.left_open).map(String::from).collect();
                    ended = if s.complete {
                        Some("complete")
                    } else if s.stopped {
                        Some("stop")
                    } else if s.left_open > 0 {
                        Some("depth")
                    } else if tok.input_finished() {
                        Some("cut")
                    } else {
                        more = true;
                        None
                    };
                }
            },
            (_, _) => match tok.step() {
                Err(e) => return out.failed(e),
                Ok(TokenStep::End) => {
                    if search.is_none() {
                        return out;
                    }
                    ended = Some("cut");
                }
                Ok(TokenStep::NeedMoreData) => more = true,
                Ok(TokenStep::Token) => match (&mut search, tok.token()) {
                    (None, token) => {
                        match token {
                            Token::StartTag(s) if !s.self_closing => open.push(s.name.into()),
                            Token::EndTag { .. } => drop(open.pop()),
                            _ => {}
                        }
                        out.seen
                            .push(Seen::Token(format!("{token:?}"), tok.position()));
                    }
                    (Some(_), Token::StartTag(s)) if stops.contains(&s.name) => {
                        ended = Some("stop")
                    }
                    (Some((charged, left)), token) => match token {
                        Token::StartTag(s) if s.self_closing => *charged += 2,
                        Token::StartTag(s) => {
                            *charged += 1;
                            left.push(s.name.into());
                            if left.len() > max_open {
                                ended = Some("depth");
                            }
                        }
                        Token::EndTag { .. } => {
                            *charged += 1;
                            if left.pop().is_none() {
                                ended = Some("complete");
                            }
                        }
                        Token::Text(_) => *charged += 1,
                        _ => {}
                    },
                },
            },
        }
        if let Some(end) = ended {
            let (tokens, mut left_open) = search.take().expect("a search ended");
            if end == "cut" {
                // A skip the input ends in reports no elements left open.
                left_open.clear();
            }
            if end == "complete" {
                open.pop();
            }
            open.extend(left_open.iter().cloned());
            out.seen.push(Seen::Search {
                tokens,
                end,
                left_open,
                behind: tok.position(),
            });
            match end {
                "cut" => continue,
                "stop" => {
                    let token = tok.token();
                    if let Token::StartTag(s) = token {
                        if !s.self_closing {
                            open.push(s.name.into());
                        }
                    }
                    out.seen
                        .push(Seen::Token(format!("{token:?}"), tok.position()));
                }
                _ => {}
            }
        }
        if !more && search.is_none() && open.len() == level {
            search = Some((0, Vec::new()));
        }
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

/// Searching (`got`) against stepping (`want`): the same tokens, searches,
/// positions and result; never more bytes held back.
fn assert_same_search(want: &SearchRun, got: &SearchRun, label: &dyn Fn() -> String) {
    assert_eq!(got.seen, want.seen, "{}", label());
    assert_eq!(got.result, want.result, "{}", label());
    for (i, (held, reference)) in got.pending.iter().zip(&want.pending).enumerate() {
        assert!(
            held <= reference,
            "{held} > {reference} bytes pending at request {i}, {}",
            label()
        );
    }
}

/// What a document's start tags offer as stop names: the rarest name, the
/// rarest and the commonest, the first non-ASCII name, the first
/// self-closing tag's and the first tag with attributes' — and, per
/// chunking, the first tag a chunk boundary cuts.
struct StopNames {
    rare: String,
    common: String,
    non_ascii: Option<String>,
    self_closing: Option<String>,
    attributed: Option<String>,
    /// `(name, start, end)` byte offsets of every start tag.
    tags: Vec<(String, usize, usize)>,
}

impl StopNames {
    fn of(doc: &[u8]) -> StopNames {
        let mut tok = PushTokenizer::new();
        tok.feed(doc);
        tok.finish_input();
        let mut tags = Vec::new();
        let (mut non_ascii, mut self_closing, mut attributed) = (None, None, None);
        let mut counts: Vec<(String, usize)> = Vec::new();
        loop {
            let start = tok.position().offset as usize;
            match tok.step().expect("the document is well-formed") {
                TokenStep::Token => {
                    if let Token::StartTag(s) = tok.token() {
                        let name = s.name.to_string();
                        tags.push((name.clone(), start, tok.position().offset as usize));
                        if !name.is_ascii() && non_ascii.is_none() {
                            non_ascii = Some(name.clone());
                        }
                        if s.self_closing && self_closing.is_none() {
                            self_closing = Some(name.clone());
                        }
                        if !s.attrs.is_empty() && attributed.is_none() {
                            attributed = Some(name.clone());
                        }
                        match counts.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, c)) => *c += 1,
                            None => counts.push((name, 1)),
                        }
                    }
                }
                TokenStep::End => break,
                TokenStep::NeedMoreData => unreachable!("the whole document is in"),
            }
        }
        counts.sort_by_key(|&(_, c)| c);
        StopNames {
            rare: counts[0].0.clone(),
            common: counts[counts.len() - 1].0.clone(),
            non_ascii,
            self_closing,
            attributed,
            tags,
        }
    }

    /// The stop sets to try at a chunking of `chunk` bytes.
    fn sets(&self, chunk: usize) -> Vec<Vec<&str>> {
        let cut = self
            .tags
            .iter()
            .find(|(_, start, end)| start / chunk != (end - 1) / chunk);
        let mut sets = vec![
            vec![self.rare.as_str()],
            vec![self.rare.as_str(), self.common.as_str()],
        ];
        let singles = [&self.non_ascii, &self.self_closing, &self.attributed];
        sets.extend(singles.into_iter().flatten().map(|n| vec![n.as_str()]));
        sets.extend(cut.map(|(n, ..)| vec![n.as_str()]));
        sets
    }
}

/// Searches from depths 1 to 3 with every stop set, and one bounded to a
/// single open element, at every chunking. Counts the searches by how
/// they ended into `ends`.
fn check_every_search(doc: &[u8], ends: &mut Vec<(&'static str, usize)>) {
    let names = StopNames::of(doc);
    for chunk in chunkings(doc.len()) {
        let sets = names.sets(chunk);
        let searches = sets
            .iter()
            .map(|stops| (&stops[..], usize::MAX))
            .chain([(&sets[1][..], 1)]);
        for search in searches {
            for level in 1..4 {
                let want = run_search(doc, chunk, search, level, false);
                assert_eq!(want.result, Ok(()), "generated document must tokenize");
                let got = run_search(doc, chunk, search, level, true);
                for seen in &got.seen {
                    if let Seen::Search { end, .. } = seen {
                        match ends.iter_mut().find(|(e, _)| e == end) {
                            Some((_, n)) => *n += 1,
                            None => ends.push((end, 1)),
                        }
                    }
                }
                assert_same_search(&want, &got, &|| {
                    format!(
                        "stops {:?} bound {}, depth {level}, chunk {chunk}:\n{}",
                        search.0,
                        search.1,
                        String::from_utf8_lossy(doc)
                    )
                });
            }
        }
    }
}

#[test]
fn searches_equal_stepping_on_generated_and_xmark_documents() {
    let mut rng = XorShift(0x5EA_2C4);
    let rounds = if cfg!(miri) { 1 } else { 40 };
    let mut ends = Vec::new();
    for _ in 0..rounds {
        check_every_search(gen_doc(&mut rng).as_bytes(), &mut ends);
    }
    // Four XMark documents: depth-bounded searches end mostly in them.
    let sizes: &[u64] = if cfg!(miri) {
        &[1024]
    } else {
        &[4096, 6000, 4096, 6000]
    };
    for (i, &size) in sizes.iter().enumerate() {
        let mut cfg = gcx_xmark::XmarkConfig::sized(size);
        cfg.seed = 7 + i as u64;
        check_every_search(gcx_xmark::generate_string(&cfg).as_bytes(), &mut ends);
    }
    // Every way a search ends was taken, many times over.
    ends.sort();
    let kinds: Vec<&str> = ends.iter().map(|&(end, _)| end).collect();
    assert_eq!(kinds, ["complete", "depth", "stop"], "{ends:?}");
    assert!(ends.iter().all(|&(_, n)| n > 1000), "{ends:?}");
}

#[test]
fn searches_and_stepping_agree_on_every_corruption_and_truncation() {
    let damaged_runs = |doc: &[u8], stride: usize| {
        let names = StopNames::of(doc);
        let sets = [
            vec![names.rare.as_str()],
            vec![names.rare.as_str(), names.common.as_str()],
        ];
        let chunks = [1, 7, doc.len()];
        for at in (0..doc.len()).step_by(stride) {
            let chunk = chunks[at % chunks.len()];
            let byte = CORRUPTIONS[at % CORRUPTIONS.len()];
            let mut damaged = doc.to_vec();
            damaged[at] = byte;
            for (doc, what) in [(&doc[..at], "truncated"), (&damaged[..], "corrupted")] {
                for stops in &sets {
                    for level in 1..3 {
                        let search = (&stops[..], usize::MAX);
                        let want = run_search(doc, chunk, search, level, false);
                        let got = run_search(doc, chunk, search, level, true);
                        assert_same_search(&want, &got, &|| {
                            format!(
                                "{what} at {at} ({byte:#04x}), stops {stops:?}, depth \
                                 {level}, chunk {chunk}:\n{}",
                                String::from_utf8_lossy(doc)
                            )
                        });
                    }
                }
            }
        }
    };
    let mut rng = XorShift(0xBAD_5EA2C);
    let rounds = if cfg!(miri) { 1 } else { 6 };
    for _ in 0..rounds {
        damaged_runs(gen_doc(&mut rng).as_bytes(), 1);
    }
    let mut cfg = gcx_xmark::XmarkConfig::sized(2048);
    cfg.seed = 3;
    let stride = if cfg!(miri) { 97 } else { 29 };
    damaged_runs(gcx_xmark::generate_string(&cfg).as_bytes(), stride);
}

#[test]
#[should_panic(expected = "without an open start tag")]
fn skip_without_a_start_tag_is_a_caller_bug() {
    let mut tok = PushTokenizer::new();
    tok.feed(b"<r><leaf/></r>");
    tok.step().unwrap();
    tok.step().unwrap(); // <leaf/> has no content to skip
    let _ = tok.skip_element(&[], usize::MAX);
}
