//! Properties of the tokenizer over the seeded generator's documents
//! (`common`): what the writer makes of a document's tokens tokenizes back
//! to the same text, and fragment mode accepts whatever strict mode does.

mod common;

use common::{gen_doc, XorShift};
use gcx_xml::{Token, Tokenizer, TokenizerOptions, XmlWriter};

/// The document's text content: every text token, concatenated.
fn all_text(doc: &str) -> String {
    let mut t = Tokenizer::from_str(doc);
    let mut out = String::new();
    while let Some(tok) = t.next_token().unwrap_or_else(|e| panic!("{e}\n{doc}")) {
        if let Token::Text(x) = tok {
            out.push_str(x);
        }
    }
    out
}

/// Re-serialize `doc`'s elements and text through the writer.
fn rewrite(doc: &str) -> String {
    let mut w = XmlWriter::new(Vec::new());
    let mut t = Tokenizer::from_str(doc);
    while let Some(tok) = t.next_token().unwrap() {
        match tok {
            Token::StartTag(st) => {
                w.start_element(st.name).unwrap();
                if st.self_closing {
                    w.end_element().unwrap();
                }
            }
            Token::EndTag { .. } => w.end_element().unwrap(),
            Token::Text(x) => w.text(x).unwrap(),
            _ => {}
        }
    }
    String::from_utf8(w.finish().unwrap()).unwrap()
}

#[test]
fn writer_round_trip_preserves_text() {
    let mut rng = XorShift(0x7E47_2017);
    let mut texts = 0;
    for _ in 0..300 {
        let doc = gen_doc(&mut rng);
        let text = all_text(&doc);
        let round = rewrite(&doc);
        assert_eq!(all_text(&round), text, "{doc}\n{round}");
        texts += usize::from(!text.is_empty());
    }
    assert!(texts > 100, "documents with text: {texts}");
}

/// Token count of a full validating pass, or `None` on an error.
fn validate(doc: &[u8], opts: TokenizerOptions) -> Option<u64> {
    Tokenizer::with_options(doc, opts).validate_to_end().ok()
}

#[test]
fn fragment_mode_accepts_what_strict_mode_accepts() {
    let fragments = TokenizerOptions {
        allow_fragments: true,
        ..TokenizerOptions::default()
    };
    let mut rng = XorShift(0xF4A6_3E17);
    let (mut intact, mut damaged) = (0, 0);
    for _ in 0..300 {
        let doc = gen_doc(&mut rng).into_bytes();
        // The document as generated, and with one byte overwritten: where
        // strict mode still accepts, fragment mode must too, with the same
        // tokens.
        let mut bent = doc.clone();
        let at = rng.below(bent.len());
        bent[at] = b"<>/ x"[rng.below(5)];
        for (bytes, count) in [(&doc, &mut intact), (&bent, &mut damaged)] {
            let Some(strict) = validate(bytes, TokenizerOptions::default()) else {
                continue;
            };
            *count += 1;
            assert_eq!(
                validate(bytes, fragments.clone()),
                Some(strict),
                "{}",
                String::from_utf8_lossy(bytes)
            );
        }
    }
    assert_eq!(intact, 300, "every generated document is well-formed");
    assert!(
        damaged > 30,
        "damaged documents strict mode accepts: {damaged}"
    );
}
