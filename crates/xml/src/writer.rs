//! Streaming XML serializer.
//!
//! [`XmlWriter`] is the output side of the GCX engine: query results are
//! emitted as soon as the evaluator produces them, so output is streamed just
//! like input. The writer tracks open elements, escapes automatically, and
//! can optionally pretty-print (used by the examples; benchmarks write
//! compact output).
//!
//! Like the tokenizer, the writer's steady-state path is allocation-free:
//! open element names live back-to-back in one reusable string arena, and
//! escaping writes directly to the sink (runs of clean bytes interleaved
//! with entity strings) instead of materializing escaped copies.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape::{escape_entity, first_escape_byte};
use std::io::Write;

/// Serializer configuration.
#[derive(Debug, Clone, Default)]
pub struct WriterOptions {
    /// Pretty-print with the given indent string (e.g. `"  "`). `None`
    /// writes compact output with no inserted whitespace.
    pub indent: Option<String>,
}

/// Content seen inside one open element, for layout decisions.
#[derive(Debug, Clone, Copy, Default)]
struct Content {
    wrote_element: bool,
    wrote_text: bool,
}

/// A streaming XML writer over any [`Write`] sink.
pub struct XmlWriter<W> {
    sink: W,
    opts: WriterOptions,
    /// Open elements: start offset of the name in `name_arena` plus the
    /// content state, for auto-closing, misuse detection and layout.
    stack: Vec<(u32, Content)>,
    /// Open element names, stored back-to-back (no per-element allocation).
    name_arena: String,
    /// True when the current element's start tag is still open (`<a` written,
    /// `>` pending) so attributes can still be added.
    tag_open: bool,
    /// Bytes written so far (cheap output-size metric for benchmarks).
    bytes_written: u64,
}

/// Write `s` to the sink, maintaining the byte counter. A free function so
/// callers can hold borrows of other `XmlWriter` fields (e.g. the name
/// arena) across the call.
fn put<W: Write>(sink: &mut W, counter: &mut u64, s: &str) -> XmlResult<()> {
    sink.write_all(s.as_bytes())?;
    *counter += s.len() as u64;
    Ok(())
}

/// Write `s` with escaping, directly to the sink: clean runs verbatim,
/// escapable bytes as entities. No intermediate allocation.
fn put_escaped<W: Write>(sink: &mut W, counter: &mut u64, s: &str, attr: bool) -> XmlResult<()> {
    let mut from = 0;
    while let Some(i) = first_escape_byte(s, from, attr) {
        put(sink, counter, &s[from..i])?;
        put(sink, counter, escape_entity(s.as_bytes()[i]))?;
        from = i + 1;
    }
    put(sink, counter, &s[from..])
}

impl<W: Write> XmlWriter<W> {
    /// Compact writer.
    pub fn new(sink: W) -> Self {
        XmlWriter::with_options(sink, WriterOptions::default())
    }

    /// Writer with explicit options.
    pub fn with_options(sink: W, opts: WriterOptions) -> Self {
        XmlWriter {
            sink,
            opts,
            stack: Vec::new(),
            name_arena: String::new(),
            tag_open: false,
            bytes_written: 0,
        }
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The underlying sink.
    pub fn get_ref(&self) -> &W {
        &self.sink
    }

    /// Mutable access to the underlying sink. The sans-IO `EvalSession`
    /// (gcx-core) writes into an in-memory sink and drains it through this
    /// between `feed` calls; misusing it to inject bytes would desync the
    /// writer's byte counter, nothing worse.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The open element names, outermost first (error reporting).
    fn open_names(&self) -> Vec<&str> {
        self.stack
            .iter()
            .enumerate()
            .map(|(i, &(start, _))| {
                let end = self
                    .stack
                    .get(i + 1)
                    .map(|&(e, _)| e as usize)
                    .unwrap_or(self.name_arena.len());
                &self.name_arena[start as usize..end]
            })
            .collect()
    }

    /// Consume the writer, returning the sink. Fails if elements are open.
    pub fn finish(mut self) -> XmlResult<W> {
        if !self.stack.is_empty() {
            return Err(XmlError::new(
                XmlErrorKind::WriterMisuse(format!(
                    "finish() with {} open element(s): {}",
                    self.stack.len(),
                    self.open_names().join(", ")
                )),
                crate::TextPos::START,
            ));
        }
        self.flush()?;
        Ok(self.sink)
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> XmlResult<()> {
        self.sink.flush()?;
        Ok(())
    }

    fn raw(&mut self, s: &str) -> XmlResult<()> {
        put(&mut self.sink, &mut self.bytes_written, s)
    }

    /// Close a pending start tag (write `>`), if any.
    fn seal_tag(&mut self) -> XmlResult<()> {
        if self.tag_open {
            self.raw(">")?;
            self.tag_open = false;
        }
        Ok(())
    }

    fn newline_indent(&mut self, depth: usize) -> XmlResult<()> {
        if let Some(ind) = self.opts.indent.as_deref() {
            put(&mut self.sink, &mut self.bytes_written, "\n")?;
            for _ in 0..depth {
                put(&mut self.sink, &mut self.bytes_written, ind)?;
            }
        }
        Ok(())
    }

    /// Write `<name`, leaving the tag open for attributes.
    pub fn start_element(&mut self, name: &str) -> XmlResult<()> {
        self.seal_tag()?;
        if let Some((_, c)) = self.stack.last_mut() {
            c.wrote_element = true;
        }
        if self.opts.indent.is_some() && !self.stack.is_empty() {
            self.newline_indent(self.stack.len())?;
        }
        self.raw("<")?;
        self.raw(name)?;
        self.stack
            .push((self.name_arena.len() as u32, Content::default()));
        self.name_arena.push_str(name);
        self.tag_open = true;
        Ok(())
    }

    /// Add an attribute to the currently open start tag.
    pub fn attribute(&mut self, name: &str, value: &str) -> XmlResult<()> {
        if !self.tag_open {
            return Err(XmlError::new(
                XmlErrorKind::WriterMisuse(format!("attribute `{name}` outside a start tag")),
                crate::TextPos::START,
            ));
        }
        self.raw(" ")?;
        self.raw(name)?;
        self.raw("=\"")?;
        put_escaped(&mut self.sink, &mut self.bytes_written, value, true)?;
        self.raw("\"")
    }

    /// Close the most recently opened element. Collapses `<a></a>` to `<a/>`
    /// when nothing was written inside it.
    pub fn end_element(&mut self) -> XmlResult<()> {
        let (name_start, content) = self.stack.pop().ok_or_else(|| {
            XmlError::new(
                XmlErrorKind::WriterMisuse("end_element() with no open element".into()),
                crate::TextPos::START,
            )
        })?;
        if self.tag_open {
            self.raw("/>")?;
            self.tag_open = false;
        } else {
            // Indent the close tag only for element-only content; mixed or
            // text content must not gain whitespace.
            if content.wrote_element && !content.wrote_text && self.opts.indent.is_some() {
                self.newline_indent(self.stack.len())?;
            }
            put(&mut self.sink, &mut self.bytes_written, "</")?;
            let name = &self.name_arena[name_start as usize..];
            put(&mut self.sink, &mut self.bytes_written, name)?;
            put(&mut self.sink, &mut self.bytes_written, ">")?;
        }
        self.name_arena.truncate(name_start as usize);
        Ok(())
    }

    /// Write escaped character data.
    pub fn text(&mut self, content: &str) -> XmlResult<()> {
        if content.is_empty() {
            return Ok(());
        }
        self.seal_tag()?;
        if let Some((_, c)) = self.stack.last_mut() {
            c.wrote_text = true;
        }
        put_escaped(&mut self.sink, &mut self.bytes_written, content, false)
    }

    /// Write a comment.
    pub fn comment(&mut self, content: &str) -> XmlResult<()> {
        self.seal_tag()?;
        if let Some((_, c)) = self.stack.last_mut() {
            c.wrote_text = true;
        }
        self.raw("<!--")?;
        self.raw(content)?;
        self.raw("-->")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(f: impl FnOnce(&mut XmlWriter<Vec<u8>>)) -> String {
        let mut w = XmlWriter::new(Vec::new());
        f(&mut w);
        String::from_utf8(w.finish().unwrap()).unwrap()
    }

    #[test]
    fn nested_elements_and_text() {
        let out = build(|w| {
            w.start_element("bib").unwrap();
            w.start_element("book").unwrap();
            w.text("T & A").unwrap();
            w.end_element().unwrap();
            w.end_element().unwrap();
        });
        assert_eq!(out, "<bib><book>T &amp; A</book></bib>");
    }

    #[test]
    fn empty_element_collapses() {
        let out = build(|w| {
            w.start_element("a").unwrap();
            w.end_element().unwrap();
        });
        assert_eq!(out, "<a/>");
    }

    #[test]
    fn attributes_escaped() {
        let out = build(|w| {
            w.start_element("a").unwrap();
            w.attribute("x", "1\"2<3").unwrap();
            w.end_element().unwrap();
        });
        assert_eq!(out, "<a x=\"1&quot;2&lt;3\"/>");
    }

    #[test]
    fn carriage_returns_escaped() {
        let out = build(|w| {
            w.start_element("a").unwrap();
            w.attribute("x", "v\r1").unwrap();
            w.text("t\r2").unwrap();
            w.end_element().unwrap();
        });
        assert_eq!(out, "<a x=\"v&#13;1\">t&#13;2</a>");
    }

    #[test]
    fn attribute_outside_tag_is_misuse() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a").unwrap();
        w.text("x").unwrap();
        let err = w.attribute("k", "v").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::WriterMisuse(_)));
    }

    #[test]
    fn end_without_start_is_misuse() {
        let mut w = XmlWriter::new(Vec::new());
        assert!(w.end_element().is_err());
    }

    #[test]
    fn finish_with_open_elements_is_misuse() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("outer").unwrap();
        w.start_element("inner").unwrap();
        let err = w.finish().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("outer, inner"), "{msg}");
    }

    #[test]
    fn pretty_printing_indents() {
        let mut w = XmlWriter::with_options(
            Vec::new(),
            WriterOptions {
                indent: Some("  ".into()),
            },
        );
        w.start_element("a").unwrap();
        w.start_element("b").unwrap();
        w.text("x").unwrap();
        w.end_element().unwrap();
        w.start_element("c").unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(out, "<a>\n  <b>x</b>\n  <c/>\n</a>");
    }

    #[test]
    fn bytes_written_counts() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("ab").unwrap();
        w.end_element().unwrap();
        assert_eq!(w.bytes_written(), 5); // `<ab/>`
    }

    #[test]
    fn deep_nesting_reuses_arena() {
        // Shrunk under Miri: the depth only needs to exceed the arena's
        // initial capacity for the reuse path to be exercised.
        const DEPTH: usize = if cfg!(miri) { 2_000 } else { 200_000 };
        let mut w = XmlWriter::new(Vec::new());
        for _ in 0..DEPTH {
            w.start_element("d").unwrap();
        }
        for _ in 0..DEPTH {
            w.end_element().unwrap();
        }
        let out = w.finish().unwrap();
        assert!(out.starts_with(b"<d><d>"));
    }

    #[test]
    fn output_reparses() {
        let out = build(|w| {
            w.start_element("r").unwrap();
            w.attribute("k", "a&b").unwrap();
            w.text("1 < 2").unwrap();
            w.comment("note").unwrap();
            w.end_element().unwrap();
        });
        let mut t = crate::Tokenizer::from_str(&out);
        let mut texts = Vec::new();
        while let Some(tok) = t.next_token().unwrap() {
            if let crate::Token::Text(s) = tok {
                texts.push(s.to_string());
            }
        }
        assert_eq!(texts, ["1 < 2"]);
    }
}
