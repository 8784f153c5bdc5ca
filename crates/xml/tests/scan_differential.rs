//! Fuzz-style differential: the boundary scanner (`scan_boundaries`)
//! against the real [`PushTokenizer`] on generated documents.
//!
//! The scanner's one job is to be *exactly* right about element depth
//! transitions while understanding none of the content — so the test
//! generates documents dense with the constructs that could fool a
//! naive `<`-counter (comments containing fake tags, CDATA containing
//! end tags, processing instructions, DOCTYPE internal subsets,
//! entity-encoded angle brackets in text, `>` and quotes inside
//! attribute values) and asserts that the scanner's recorded events
//! match the tokenizer's depth transitions name for name, depth for
//! depth — and that every recorded byte offset really points at the
//! tag it claims to.

mod common;

use common::{gen_doc, XorShift};
use gcx_xml::{scan_boundaries, PushTokenizer, ScanEvent, Token, TokenStep};

/// A depth transition, the common currency of both sides.
#[derive(Debug, PartialEq, Eq)]
enum Ev {
    Open(String, u16, bool),
    Close(u16),
}

/// The tokenizer's view: feed the document in `chunk`-byte pieces and
/// record every element transition at depth ≤ `max_depth`. Self-closing
/// tags are one `Open` with the flag, no `Close` — the scanner's
/// convention, and the tokenizer's too.
fn tokenizer_events(doc: &[u8], max_depth: u16, chunk: usize) -> Vec<Ev> {
    let mut events = Vec::new();
    let mut depth: u32 = 0;
    let mut fed = 0usize;
    let mut tok = PushTokenizer::new();
    loop {
        match tok.step().expect("generated document must tokenize") {
            TokenStep::End => break,
            TokenStep::NeedMoreData => {
                if fed == doc.len() {
                    tok.finish_input();
                } else {
                    let n = chunk.min(doc.len() - fed);
                    let gap = tok.space(n);
                    gap[..n].copy_from_slice(&doc[fed..fed + n]);
                    tok.commit(n);
                    fed += n;
                }
                continue;
            }
            TokenStep::Token => {}
        }
        match tok.token() {
            Token::StartTag(start) => {
                if depth <= max_depth as u32 {
                    events.push(Ev::Open(
                        start.name.to_string(),
                        depth as u16,
                        start.self_closing,
                    ));
                }
                if !start.self_closing {
                    depth += 1;
                }
            }
            Token::EndTag { .. } => {
                depth -= 1;
                if depth <= max_depth as u32 {
                    events.push(Ev::Close(depth as u16));
                }
            }
            _ => {}
        }
    }
    events
}

/// The scanner's view, with every offset checked against the document
/// bytes: `start` points at `<`, `tag_end` one past `>`, the name range
/// holds exactly the name, closes point at `</`.
fn scanner_events(doc: &[u8], max_depth: u16) -> Vec<Ev> {
    let outline = scan_boundaries(doc, max_depth).expect("generated document must scan");
    assert_eq!(doc[outline.root_open_end - 1], b'>');
    assert!(
        doc[outline.root_close_start..].starts_with(b"</") || doc[outline.root_close_start] == b'<',
        "root close offset must point at markup"
    );
    outline
        .events
        .iter()
        .map(|e| match *e {
            ScanEvent::Open(b) => {
                assert_eq!(doc[b.start], b'<', "boundary start must point at '<'");
                assert_eq!(doc[b.tag_end - 1], b'>', "tag_end must be one past '>'");
                assert_eq!(b.name_start, b.start + 1);
                let name = String::from_utf8(doc[b.name_start..b.name_end].to_vec()).unwrap();
                Ev::Open(name, b.depth, b.self_closing)
            }
            ScanEvent::Close { depth, start } => {
                assert!(doc[start..].starts_with(b"</"), "close must point at '</'");
                Ev::Close(depth)
            }
        })
        .collect()
}

#[test]
fn scanner_matches_tokenizer_depth_transitions_on_generated_docs() {
    let mut rng = XorShift(0x5CA_D1FF);
    for round in 0..300 {
        let doc = gen_doc(&mut rng);
        let doc = doc.as_bytes();
        for max_depth in [0u16, 1, 2, 5] {
            let scanned = scanner_events(doc, max_depth);
            // Chunked feeds re-pin the tokenizer's own split-invariance
            // while exercising entity/CDATA/comment edges landing on
            // chunk boundaries.
            for chunk in [1usize, 7, doc.len()] {
                let reference = tokenizer_events(doc, max_depth, chunk);
                assert_eq!(
                    scanned,
                    reference,
                    "round {round}, max_depth {max_depth}, chunk {chunk}:\n{}",
                    String::from_utf8_lossy(doc)
                );
            }
        }
    }
}

#[test]
fn scanner_matches_tokenizer_on_an_xmark_document() {
    let doc = br#"<?xml version="1.0"?><site><regions><namerica>
        <item id="item0"><name>gold &amp; silver</name>
        <description><![CDATA[<b>not markup</b>]]></description>
        <mailbox><mail from="a@b" to='c>d'/></mailbox></item>
        </namerica></regions><people><person id="person0">
        <name>A&#65;</name><!-- <address> omitted --></person></people></site>"#;
    for max_depth in [0u16, 1, 2, 3, 9] {
        assert_eq!(
            scanner_events(doc, max_depth),
            tokenizer_events(doc, max_depth, 11),
            "max_depth {max_depth}"
        );
    }
}
