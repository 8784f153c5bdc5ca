//! Pull-based XML tokenizer: an I/O adapter over the sans-IO core.
//!
//! All tokenization logic lives in [`PushTokenizer`] (see [`crate::push`]);
//! [`Tokenizer`] merely pumps it: whenever the core reports
//! [`TokenStep::NeedMoreData`], the adapter reads the next chunk from its
//! [`Read`] source straight into the core's window (no intermediate copy)
//! and retries. Arbitrarily large documents stream through bounded memory —
//! the window only ever holds the bytes of the token currently being
//! assembled plus unread lookahead.
//!
//! ## Allocation discipline
//!
//! Inherited from the push core: the steady-state token loop performs
//! **no heap allocation**. All returned tokens borrow the core's buffers
//! and are valid until the next call.
//!
//! ## Line endings and attribute whitespace
//!
//! Per XML 1.0 §2.11 the tokenizer normalizes `\r\n` and bare `\r` to `\n`
//! in character data (including CDATA). Attribute values additionally get
//! §3.3.3 attribute-value normalization: literal whitespace becomes a
//! space (CDATA-type attributes — there is no DTD). Characters produced by
//! character references (`&#13;`, `&#10;`, `&#9;`) are exempt, per spec.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::pos::TextPos;
use crate::push::{PushTokenizer, TokenStep};
use crate::token::Token;
use std::io::Read;

const READ_CHUNK: usize = 64 * 1024;

/// Streaming pull tokenizer over any [`Read`] source. See the
/// [crate docs](crate) for an example, and [`PushTokenizer`] for the
/// underlying sans-IO state machine.
pub struct Tokenizer<R> {
    core: PushTokenizer,
    src: R,
}

impl<'s> Tokenizer<std::io::Cursor<&'s [u8]>> {
    /// Tokenize an in-memory string (tests, small documents).
    /// (Not the `FromStr` trait: this borrows from the input.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &'s str) -> Self {
        Tokenizer::new(std::io::Cursor::new(s.as_bytes()))
    }

    /// Tokenize an in-memory byte slice.
    pub fn from_bytes(b: &'s [u8]) -> Self {
        Tokenizer::new(std::io::Cursor::new(b))
    }
}

impl<R: Read> Tokenizer<R> {
    /// Tokenizer over `src`.
    pub fn new(src: R) -> Self {
        Tokenizer {
            core: PushTokenizer::new(),
            src,
        }
    }

    /// Current position: the first byte of the *next* token to be returned.
    pub fn position(&self) -> TextPos {
        self.core.position()
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.core.depth()
    }

    /// Produce the next token, or `None` at a clean end of input.
    ///
    /// The returned token borrows the tokenizer's internal buffers and is
    /// valid until the next call.
    pub fn next_token(&mut self) -> XmlResult<Option<Token<'_>>> {
        loop {
            match self.core.step()? {
                TokenStep::Token => break,
                TokenStep::End => return Ok(None),
                TokenStep::NeedMoreData => {
                    // Read straight into the core's window; a short read is
                    // fine (the core asks again), zero bytes is EOF.
                    let gap = self.core.space(READ_CHUNK);
                    let n = self.src.read(gap).map_err(|e| XmlError {
                        kind: XmlErrorKind::Io(e),
                        pos: self.core.position(),
                    })?;
                    if n == 0 {
                        self.core.finish_input();
                    } else {
                        self.core.commit(n);
                    }
                }
            }
        }
        Ok(Some(self.core.token()))
    }

    /// Drive the tokenizer to the end of input, validating everything.
    /// Returns the number of tokens seen. Useful for well-formedness checks.
    pub fn validate_to_end(&mut self) -> XmlResult<u64> {
        let mut n = 0;
        while self.next_token()?.is_some() {
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XmlErrorKind as K;

    /// Collect all tokens as owned debug strings for simple assertions.
    fn toks(input: &str) -> Vec<String> {
        let mut t = Tokenizer::from_str(input);
        let mut out = Vec::new();
        loop {
            match t.next_token() {
                Ok(Some(tok)) => out.push(format!("{tok:?}")),
                Ok(None) => break,
                Err(e) => {
                    out.push(format!("ERR {e}"));
                    break;
                }
            }
        }
        out
    }

    fn kinds(input: &str) -> Vec<&'static str> {
        let mut t = Tokenizer::from_str(input);
        let mut out = Vec::new();
        while let Some(tok) = t.next_token().unwrap() {
            out.push(match tok {
                Token::StartTag(_) => "start",
                Token::EndTag { .. } => "end",
                Token::Text(_) => "text",
                Token::Comment(_) => "comment",
                Token::ProcessingInstruction { .. } => "pi",
                Token::Doctype(_) => "doctype",
            });
        }
        out
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            kinds("<a><b>hi</b></a>"),
            ["start", "start", "text", "end", "end"]
        );
    }

    #[test]
    fn self_closing_tag() {
        let mut t = Tokenizer::from_str("<a><b/></a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => {
                assert_eq!(s.name, "b");
                assert!(s.self_closing);
            }
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn attributes_parse_with_both_quotes() {
        let mut t = Tokenizer::from_str(r#"<a x="1" y='two' z = "3"/>"#);
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => {
                assert_eq!(s.attrs.len(), 3);
                assert_eq!(s.attrs.get(0).unwrap().name, "x");
                assert_eq!(s.attrs.get(0).unwrap().value, "1");
                assert_eq!(s.attrs.get(1).unwrap().value, "two");
                assert_eq!(s.attrs.get(2).unwrap().value, "3");
                assert_eq!(s.attrs.value_of("y"), Some("two"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_entities_resolved() {
        let mut t = Tokenizer::from_str(r#"<a x="a&amp;b&lt;c"/>"#);
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => assert_eq!(s.attrs.get(0).unwrap().value, "a&b<c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gt_inside_attribute_value() {
        let mut t = Tokenizer::from_str(r#"<a x="1>2">t</a>"#);
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => assert_eq!(s.attrs.get(0).unwrap().value, "1>2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn text_entities_resolved() {
        let mut t = Tokenizer::from_str("<a>x &amp; y &#65;</a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "x & y A"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comment_token() {
        let mut t = Tokenizer::from_str("<a><!-- hi -- there --></a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Comment(c) => assert_eq!(c, " hi -- there "),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let mut t = Tokenizer::from_str("<a><![CDATA[x < y & z]]></a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "x < y & z"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xml_declaration_is_pi() {
        let mut t = Tokenizer::from_str("<?xml version=\"1.0\"?><a/>");
        match t.next_token().unwrap().unwrap() {
            Token::ProcessingInstruction { target, data } => {
                assert_eq!(target, "xml");
                assert_eq!(data, "version=\"1.0\"");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn doctype_with_internal_subset() {
        let mut t =
            Tokenizer::from_str("<!DOCTYPE site [ <!ELEMENT a (b)> <!ENTITY x \"y\"> ]><site/>");
        match t.next_token().unwrap().unwrap() {
            Token::Doctype(d) => assert!(d.contains("ELEMENT")),
            other => panic!("{other:?}"),
        }
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => assert_eq!(s.name, "site"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mismatched_tags_detected() {
        let mut t = Tokenizer::from_str("<a><b></a></b>");
        t.next_token().unwrap();
        t.next_token().unwrap();
        let err = loop {
            match t.next_token() {
                Err(e) => break e,
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected error"),
            }
        };
        assert!(matches!(err.kind, K::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_elements_detected_at_eof() {
        let mut t = Tokenizer::from_str("<a><b>");
        t.next_token().unwrap();
        t.next_token().unwrap();
        let err = t.next_token().unwrap_err();
        match err.kind {
            K::UnclosedElements(names) => assert_eq!(names, ["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stray_end_tag_detected() {
        let mut t = Tokenizer::from_str("</a>");
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::UnexpectedEndTag(_)));
    }

    #[test]
    fn second_root_rejected() {
        let mut t = Tokenizer::from_str("<a/><b/>");
        t.next_token().unwrap();
        let err = loop {
            match t.next_token() {
                Err(e) => break e,
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected error"),
            }
        };
        assert!(matches!(err.kind, K::TrailingContent));
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut t = Tokenizer::from_str("hello<a/>");
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::TextOutsideRoot));
    }

    #[test]
    fn whitespace_outside_root_ok() {
        assert_eq!(kinds("  <a/>\n"), ["text", "start", "text"]);
    }

    #[test]
    fn bad_entity_in_text() {
        let mut t = Tokenizer::from_str("<a>&nope;</a>");
        t.next_token().unwrap();
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::BadEntity(_)));
    }

    #[test]
    fn invalid_name_rejected() {
        let out = toks("<1abc/>");
        assert!(out[0].starts_with("ERR"), "{out:?}");
    }

    #[test]
    fn empty_document_is_error() {
        let mut t = Tokenizer::from_str("");
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::UnexpectedEof { .. }));
    }

    #[test]
    fn truncated_tag_is_error() {
        let mut t = Tokenizer::from_str("<a><b attr=\"x");
        t.next_token().unwrap();
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::UnexpectedEof { .. }));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut t = Tokenizer::from_str(r#"<a x="1" x="2"/>"#);
        let err = t.next_token().unwrap_err();
        assert!(matches!(err.kind, K::Syntax(_)));
    }

    #[test]
    fn unquoted_attribute_rejected() {
        let mut t = Tokenizer::from_str("<a x=1/>");
        assert!(t.next_token().is_err());
    }

    #[test]
    fn position_tracking_across_lines() {
        let mut t = Tokenizer::from_str("<a>\n  <b/>\n</a>");
        t.next_token().unwrap(); // <a>
        t.next_token().unwrap(); // text
        assert_eq!(t.position().line, 2);
        assert_eq!(t.position().column, 3);
    }

    #[test]
    fn streaming_across_tiny_reads() {
        /// A reader that returns one byte at a time, exercising every refill
        /// path in the tokenizer.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let doc = "<bib><book id=\"b&amp;1\"><title>T</title><!--c--></book></bib>";
        let mut t = Tokenizer::new(OneByte(doc.as_bytes()));
        let mut n = 0;
        while t.next_token().unwrap().is_some() {
            n += 1;
        }
        // bib, book, title, "T", /title, comment, /book, /bib
        assert_eq!(n, 8);
    }

    #[test]
    fn validate_to_end_counts_tokens() {
        let mut t = Tokenizer::from_str("<a><b/><c/></a>");
        assert_eq!(t.validate_to_end().unwrap(), 4);
    }

    #[test]
    fn depth_reflects_open_elements() {
        let mut t = Tokenizer::from_str("<a><b><c/></b></a>");
        t.next_token().unwrap();
        t.next_token().unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn large_text_spanning_chunks() {
        let big = "x".repeat(300_000);
        let doc = format!("<a>{big}</a>");
        let mut t = Tokenizer::from_str(&doc);
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s.len(), 300_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_normalized_in_text() {
        let mut t = Tokenizer::from_str("<a>line1\r\nline2\rline3\nline4</a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "line1\nline2\nline3\nline4"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_normalized_in_attributes() {
        // §2.11 (CRLF/CR → LF) composed with §3.3.3 (literal whitespace →
        // space, for CDATA-type attributes): conformant parsers report
        // spaces here.
        let mut t = Tokenizer::from_str("<a x=\"v1\r\nv2\rv3\" y=\"a\nb\tc\"/>");
        match t.next_token().unwrap().unwrap() {
            Token::StartTag(s) => {
                assert_eq!(s.attrs.get(0).unwrap().value, "v1 v2 v3");
                assert_eq!(s.attrs.get(1).unwrap().value, "a b c");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_normalized_in_cdata() {
        let mut t = Tokenizer::from_str("<a><![CDATA[x\r\ny\rz]]></a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "x\ny\nz"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn character_reference_cr_survives_normalization() {
        // &#13; is a character reference, exempt from §2.11 normalization.
        let mut t = Tokenizer::from_str("<a>x&#13;y</a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "x\ry"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_between_markup_normalized() {
        assert_eq!(
            kinds("<a>\r\n<b/>\r\n</a>"),
            ["start", "text", "start", "text", "end"]
        );
        let mut t = Tokenizer::from_str("<a>\r\n<b/></a>");
        t.next_token().unwrap();
        match t.next_token().unwrap().unwrap() {
            Token::Text(s) => assert_eq!(s, "\n"),
            other => panic!("{other:?}"),
        }
    }
}
