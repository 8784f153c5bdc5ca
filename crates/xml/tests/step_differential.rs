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
//! same error kind at the same position. (That the one-byte reference
//! takes no recogniser hit and the whole feed does is asserted next to the
//! counter, in `push.rs`'s own tests.)
//!
//! The lending face ([`gcx_xml::Lent`]) is held to the same reference: a
//! document lent in two pieces at every cut, one byte at a time and in
//! seeded random pieces (empty ones among them) must tokenize exactly as
//! the owned face fed one byte at a time — tokens, positions, depths and
//! errors — whatever token its carry completes across the pieces. (The
//! engine's copy pass steps through an element as these runs do, so a
//! piece's end inside one is among the cuts checked here.)

mod common;
#[path = "common/faces.rs"]
mod faces;

use common::{gen_doc, XorShift};
use faces::{bytewise, every_cut_in_two, Feeds};
use gcx_xml::{TextPos, TokenStep};

/// A whole run: every token's rendering with the position and depth
/// behind it, and how the run ended (`Err` = error kind's rendering and
/// position).
#[derive(Debug, PartialEq, Eq)]
struct Run {
    tokens: Vec<(String, TextPos, usize)>,
    result: Result<(), (String, TextPos)>,
}

/// Tokenize `doc`, fed `chunk` bytes whenever the tokenizer asks for more.
fn run(doc: &[u8], chunk: usize) -> Run {
    run_fed(doc, Feeds::Owned(chunk))
}

/// Tokenize `doc` as `feeds` hands it over.
fn run_fed(doc: &[u8], feeds: Feeds<'_>) -> Run {
    let mut tokens = Vec::new();
    let mut result = Ok(());
    feeds.drive(doc, |tok, _| loop {
        match tok.step() {
            Err(e) => {
                result = Err((format!("{:?}", e.kind), e.pos));
                return false;
            }
            Ok(TokenStep::End) => return false,
            Ok(TokenStep::NeedMoreData) => return true,
            Ok(TokenStep::Token) => {
                tokens.push((format!("{:?}", tok.token()), tok.position(), tok.depth()));
            }
        }
    });
    Run { tokens, result }
}

/// Every chunking of `doc` against the one-byte reference; returns the
/// reference.
fn check(doc: &[u8], what: &dyn Fn() -> String) -> Run {
    let want = run(doc, 1);
    for chunk in [2, 3, 7, 64, doc.len().max(1)] {
        assert_eq!(
            run(doc, chunk),
            want,
            "{}, chunk {chunk}:\n{}",
            what(),
            String::from_utf8_lossy(doc)
        );
    }
    want
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

// ---- the lending face -------------------------------------------------------

/// `doc` lent in pieces cut at `cuts` against the one-byte reference.
fn check_lent(doc: &[u8], want: &Run, cuts: &[usize], what: &dyn Fn() -> String) {
    assert_eq!(
        &run_fed(doc, Feeds::Lent(cuts)),
        want,
        "{}, lent in pieces cut at {cuts:?}:\n{}",
        what(),
        String::from_utf8_lossy(doc)
    );
}

/// `doc` lent one byte at a time and in `rounds` seeded random splits
/// (up to eight cuts, repeated ones lending empty pieces) — and, with
/// `every_cut`, in two pieces at every cut — against the one-byte
/// reference; returns the reference.
fn check_lending(
    doc: &[u8],
    rng: &mut XorShift,
    rounds: usize,
    every_cut: bool,
    what: &dyn Fn() -> String,
) -> Run {
    let want = run(doc, 1);
    if every_cut {
        for cut in every_cut_in_two(doc.len()) {
            check_lent(doc, &want, &cut, what);
        }
    }
    check_lent(doc, &want, &bytewise(doc.len()), what);
    for _ in 0..rounds {
        let n = 1 + rng.below(8);
        check_lent(doc, &want, &rng.splits(doc.len(), n), what);
    }
    want
}

#[test]
fn lending_equals_bytewise_on_generated_documents() {
    let mut rng = XorShift(0x1E4D_D1FF);
    let rounds = if cfg!(miri) { 1 } else { 80 };
    for _ in 0..rounds {
        let doc = gen_doc(&mut rng);
        let want = check_lending(doc.as_bytes(), &mut rng, 8, true, &|| "intact".into());
        assert_eq!(want.result, Ok(()), "generated document must tokenize");
    }
}

#[test]
fn lending_equals_bytewise_on_xmark_documents() {
    let sizes: &[(u64, bool)] = if cfg!(miri) {
        &[(1024, false)]
    } else {
        &[(4096, true), (64 * 1024, false)]
    };
    let mut rng = XorShift(0x1E4D_3A4C);
    for (i, &(size, every_cut)) in sizes.iter().enumerate() {
        let mut cfg = gcx_xmark::XmarkConfig::sized(size);
        cfg.seed = 17 + i as u64;
        let doc = gcx_xmark::generate_string(&cfg);
        let what = || format!("xmark {size}");
        let want = check_lending(doc.as_bytes(), &mut rng, 32, every_cut, &what);
        assert_eq!(want.result, Ok(()));
    }
}

#[test]
fn lending_equals_bytewise_on_every_corruption_and_truncation() {
    // A truncation ends the input inside a token more often than not: the
    // carried partial token must fail with the reference's error at the
    // reference's position.
    let mut rng = XorShift(0xBAD_1E4D);
    let rounds = if cfg!(miri) { 1 } else { 4 };
    for _ in 0..rounds {
        let doc = gen_doc(&mut rng);
        let doc = doc.as_bytes();
        for at in 0..doc.len() {
            check_lending(&doc[..at], &mut rng, 2, false, &|| {
                format!("truncated at {at}")
            });
            let mut damaged = doc.to_vec();
            let byte = CORRUPTIONS[at % CORRUPTIONS.len()];
            if byte != doc[at] {
                damaged[at] = byte;
                let what = || format!("byte {at} set to {byte:#04x}");
                check_lending(&damaged, &mut rng, 2, false, &what);
            }
        }
    }
}

#[test]
fn a_token_cut_across_several_pieces_and_empty_pieces() {
    // Each token of this document in three or more pieces, empty pieces
    // between them, and every cut in two.
    let doc = "<r><item id=\"i1\" k='long value'>text &amp; more</item>\
               <!-- a comment --><![CDATA[x < y]]><?pi data?><e/></r>";
    let doc = doc.as_bytes();
    let want = run(doc, 1);
    assert_eq!(want.result, Ok(()));
    let what = || "handpicked".to_string();
    for cut in every_cut_in_two(doc.len()) {
        check_lent(doc, &want, &cut, &what);
    }
    for step in [2, 3, 5] {
        for first in 0..step {
            // Cut every `step` bytes from `first`, each cut twice: an empty
            // piece follows every piece.
            let cuts: Vec<usize> = (first..doc.len())
                .step_by(step)
                .flat_map(|at| [at, at])
                .collect();
            check_lent(doc, &want, &cuts, &what);
        }
    }
    // Nothing but empty pieces before and after the document.
    check_lent(doc, &want, &[0, 0, 0, doc.len(), doc.len()], &what);
}

#[test]
fn a_partial_token_carried_to_the_end_of_input_fails_as_stepping_does() {
    for doc in [
        "<r><item id=\"i1",
        "<r>text without its end",
        "<r><!-- never closed",
        "<r><![CDATA[ never",
        "<r></r",
        "<r/><",
    ] {
        let doc = doc.as_bytes();
        let want = run(doc, 1);
        let (kind, _) = want.result.clone().expect_err("the input ends in a token");
        assert!(
            kind.starts_with("UnexpectedEof") || kind.starts_with("UnclosedElements"),
            "{kind}"
        );
        for cut in every_cut_in_two(doc.len()) {
            check_lent(doc, &want, &cut, &|| String::from_utf8_lossy(doc).into());
        }
        check_lent(doc, &want, &bytewise(doc.len()), &|| "bytewise".into());
    }
}
