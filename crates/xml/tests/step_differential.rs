//! Differential: the plain-tag recogniser against the general tag parser,
//! through the public surface only.
//!
//! [`PushTokenizer`] takes `<name a="v">`, `<name/>` and `</name>` through
//! one inline recogniser and everything else through the general path. A
//! tokenizer fed **one byte at a time** can never complete a tag in the
//! recogniser — the window ends inside the tag, and from then on a partial
//! token is being resumed — so it *is* the general path, with no
//! test-only switch. Every other chunking (the whole document at once
//! included) must be indistinguishable from it: the same tokens — kinds,
//! names, attribute names and values in order, `self_closing` — the same
//! `position()` and `depth()` after every token, and over every
//! truncation and every single-byte corruption the identical result, the
//! same error kind at the same position, with well-formedness checking on
//! and off. (That the one-byte reference takes no recogniser hit and the
//! whole feed does is asserted next to the counter, in `push.rs`'s own
//! tests.)

mod common;

use common::{gen_doc, XorShift};
use gcx_xml::{PushTokenizer, TextPos, TokenStep, TokenizerOptions};

/// A whole run: every token's rendering with the position and depth
/// behind it, and how the run ended (`Err` = error kind's rendering and
/// position).
#[derive(Debug, PartialEq, Eq)]
struct Run {
    tokens: Vec<(String, TextPos, usize)>,
    result: Result<(), (String, TextPos)>,
}

/// Tokenize `doc`, fed `chunk` bytes whenever the tokenizer asks for more.
fn run(doc: &[u8], opts: &TokenizerOptions, chunk: usize) -> Run {
    let mut tok = PushTokenizer::with_options(opts.clone());
    let mut chunks = doc.chunks(chunk);
    let mut tokens = Vec::new();
    let result = loop {
        match tok.step() {
            Err(e) => break Err((format!("{:?}", e.kind), e.pos)),
            Ok(TokenStep::End) => break Ok(()),
            Ok(TokenStep::NeedMoreData) => match chunks.next() {
                Some(c) => tok.feed(c),
                None => tok.finish_input(),
            },
            Ok(TokenStep::Token) => {
                tokens.push((format!("{:?}", tok.token()), tok.position(), tok.depth()));
            }
        }
    };
    Run { tokens, result }
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

/// Every chunking of `doc` against the one-byte reference; returns the
/// reference with checking on.
fn check(doc: &[u8], what: &dyn Fn() -> String) -> Run {
    let [checked, _] = options().map(|opts| {
        let want = run(doc, &opts, 1);
        for chunk in [2, 3, 7, 64, doc.len().max(1)] {
            assert_eq!(
                run(doc, &opts, chunk),
                want,
                "{}, chunk {chunk}, check {}:\n{}",
                what(),
                opts.check_well_formed,
                String::from_utf8_lossy(doc)
            );
        }
        want
    });
    checked
}

/// Bytes a corruption writes: markup delimiters, the entity opener, both
/// quotes, whitespace the recogniser declines, a name-breaking digit and
/// two bytes that break UTF-8.
const CORRUPTIONS: &[u8] = b"<>&/\"' =\t\n!1x\x80\xff";

fn check_every_corruption_and_truncation(doc: &[u8], stride: usize) {
    for at in (0..doc.len()).step_by(stride) {
        check(&doc[..at], &|| format!("truncated at {at}"));
        let mut damaged = doc.to_vec();
        for round in 0..3 {
            let byte = CORRUPTIONS[(at + 5 * round) % CORRUPTIONS.len()];
            if byte == doc[at] {
                continue;
            }
            damaged[at] = byte;
            check(&damaged, &|| format!("byte {at} set to {byte:#04x}"));
        }
    }
}

#[test]
fn every_chunking_equals_bytewise_on_generated_documents() {
    let mut rng = XorShift(0x57E9_D1FF);
    let rounds = if cfg!(miri) { 2 } else { 300 };
    for _ in 0..rounds {
        let doc = gen_doc(&mut rng);
        let want = check(doc.as_bytes(), &|| "intact".to_string());
        assert_eq!(want.result, Ok(()), "generated document must tokenize");
    }
}

#[test]
fn every_chunking_equals_bytewise_on_xmark_documents() {
    let sizes: &[u64] = if cfg!(miri) {
        &[1024]
    } else {
        &[4096, 64 * 1024]
    };
    for (i, &size) in sizes.iter().enumerate() {
        let mut cfg = gcx_xmark::XmarkConfig::sized(size);
        cfg.seed = 11 + i as u64;
        let doc = gcx_xmark::generate_string(&cfg);
        let want = check(doc.as_bytes(), &|| format!("xmark {size}"));
        assert_eq!(want.result, Ok(()));
    }
}

#[test]
fn every_chunking_equals_bytewise_on_every_corruption_and_truncation() {
    let mut rng = XorShift(0xBAD_57E9);
    let rounds = if cfg!(miri) { 1 } else { 6 };
    for _ in 0..rounds {
        check_every_corruption_and_truncation(gen_doc(&mut rng).as_bytes(), 1);
    }
    // XMark shapes (long attribute-carrying tags, deep nesting), thinned.
    let mut cfg = gcx_xmark::XmarkConfig::sized(2048);
    cfg.seed = 5;
    let stride = if cfg!(miri) { 97 } else { 13 };
    check_every_corruption_and_truncation(gcx_xmark::generate_string(&cfg).as_bytes(), stride);
}

/// A handpicked document, whole and cut at every byte.
fn check_with_every_cut(doc: &str) {
    let doc = doc.as_bytes();
    for cut in 0..=doc.len() {
        check(&doc[..cut], &|| format!("handpicked, cut at {cut}"));
    }
}

#[test]
fn handpicked_shapes_on_both_sides_of_the_recogniser() {
    // What the recogniser takes, what it declines and the general path
    // accepts, and what the general path rejects — each also cut at every
    // byte.
    let nine: String = (0..9).map(|i| format!(" k{i}=\"{i}\"")).collect();
    let shapes = [
        "<a b=\"c\">".to_string(),
        "<a b='c'>".into(),
        "<a b=\"it's\" c='say \"hi\"' d=\"1>2/>\">".into(),
        "<a b=\"\">".into(),
        "<a  b=\"c\">".into(),
        "<a b = \"c\">".into(),
        "<a b=\"c\" >".into(),
        "<a\tb=\"c\">".into(),
        "<a\nb=\"c\">".into(),
        "<a b=\"c\" />".into(),
        "<a b=\"c\"/>".into(),
        "<a b=\"c\"/ >".into(),
        "<a/ >".into(),
        "<a b=\"&amp;\">".into(),
        "<a b=\"&bogus;\">".into(),
        "<a b=\"\u{e9}\">".into(),
        "<\u{e9} b=\"c\">".into(),
        "<a \u{e9}=\"c\">".into(),
        "<a b=\"line\nbreak\ttab\rcr\">".into(),
        "<a b=\"x<y\">".into(),
        "<a b=\"c\"d=\"e\">".into(),
        "<a b=\"c\" b=\"d\">".into(),
        "<a b=\"c\" c=\"d\" b=\"e\">".into(),
        format!("<a{nine}>"),
        format!("<a{nine} k3=\"again\">"),
        "<a b=c>".into(),
        "<a b>".into(),
        "<a b=\"c>".into(),
        "<a =\"c\">".into(),
        "<1a b=\"c\">".into(),
        "<a 1b=\"c\">".into(),
        "<a:b c:d=\"e\" _f-g.h=\"i\">".into(),
    ];
    for shape in &shapes {
        for doc in [
            format!("<r>{shape}text</a></r>"),
            format!("<r><x>{}/></x></r>", &shape[..shape.len() - 1]),
        ] {
            check_with_every_cut(&doc);
        }
    }
    // End tags, a mismatched one, a stray one, and plain tags where only
    // the general path may take them: as the document element and behind
    // it.
    for doc in [
        "<r><a>x</a ></r>",
        "<r><a>x</a\n></r >",
        "<r><a>x</ a></r>",
        "<r><a>x</b></r>",
        "<r><a>x</ab></r>",
        "<r><ab>x</a></r>",
        "<r><a>x</a></r></r>",
        "<r><\u{e9}t\u{e9}>x</\u{e9}t\u{e9}></r>",
        "<a b=\"c\">x</a>",
        "<a b=\"c\"/>",
        "<a b=\"c\"/><a b=\"c\"/>",
        "<a/></a>",
        "</a>",
    ] {
        check_with_every_cut(doc);
    }
}

#[test]
fn attribute_values_with_a_raw_less_than_or_no_space_between_are_rejected() {
    // XML 1.0 WFC "No < in Attribute Values", and [40] STag: S before
    // every attribute. Both are syntax errors at the tag's start.
    for doc in ["<r><a b=\"x<y\"/></r>", "<r><a b=\"c\"d=\"e\"/></r>"] {
        let got = check(doc.as_bytes(), &|| doc.to_string());
        let (kind, pos) = got.result.expect_err(doc);
        assert!(kind.starts_with("Syntax"), "{doc}: {kind}");
        assert_eq!((pos.offset, got.tokens.len()), (3, 1), "{doc}");
    }
}
