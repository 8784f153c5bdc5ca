//! Lightweight structural boundary scanner for partition-parallel
//! evaluation (`gcx-par`).
//!
//! Finds the byte offsets of shallow start tags — candidate shard split
//! points — without running the full tokenizer: no attribute parsing, no
//! entity resolution, no text handling. The scanner only tracks element
//! depth, which requires it to be *exactly* right about what is markup:
//! comments, processing instructions, CDATA sections, the DOCTYPE
//! declaration (including an internal subset with quotes, comments and
//! PIs inside), and `>` characters inside quoted attribute values are all
//! skipped without touching the depth counter. In well-formed XML a
//! literal `<` can appear only as markup (text and attribute values must
//! escape it), so scanning for `<` is sound; on malformed input the
//! scanner errors out and the caller falls back to the serial path, where
//! the real tokenizer reports the problem with proper positions.
//!
//! The differential test `crates/xml/tests/scan_differential.rs`
//! byte-compares the scanner's recorded offsets and depths against
//! [`crate::PushTokenizer`]'s token stream on generated documents.
//!
//! Benchmark-only: `gcx-par` is reached by no product surface, so the
//! scanner's remaining callers are the benchmark's `par_shards` workload
//! (through `gcx-par`) and its `xml.scan_ns_per_byte` layer metric. It
//! goes, with its differential suite, when that workload is retired.

/// One recorded start tag: a candidate split point, with enough
/// information to rebuild the ancestor context of any later offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// Byte offset of the `<` of the start tag.
    pub start: usize,
    /// One past the `>` of the start tag.
    pub tag_end: usize,
    /// Byte range of the element name within the document.
    pub name_start: usize,
    /// End of the name range (exclusive).
    pub name_end: usize,
    /// 0-based element depth (the root element is depth 0).
    pub depth: u16,
    /// True for `<a/>`-style self-closing tags.
    pub self_closing: bool,
}

/// One structural event at recorded depth (≤ the scan's `max_depth`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEvent {
    /// A start tag opened an element at recorded depth.
    Open(Boundary),
    /// An end tag closed an element at recorded depth.
    Close {
        /// Depth of the element being closed.
        depth: u16,
        /// Byte offset of the `<` of the end tag.
        start: usize,
    },
}

/// The scan result: shallow structural events plus the root element's
/// extent. Everything a splitter needs to cut the document into
/// contiguous byte ranges and synthesize ancestor context per shard.
#[derive(Debug, Clone)]
pub struct ScanOutline {
    /// Open/Close events at depth ≤ `max_depth`, in document order.
    pub events: Vec<ScanEvent>,
    /// One past the `>` of the root element's start tag. The byte range
    /// `0..root_open_end` is the shared shard prelude: XML declaration,
    /// DOCTYPE (so per-shard schema adoption matches the serial run),
    /// miscellaneous comments/PIs, and the root start tag itself.
    pub root_open_end: usize,
    /// Byte offset of the `<` of the root element's end tag (for a
    /// self-closing root, equals the root start tag's `start`).
    pub root_close_start: usize,
}

/// Why a scan gave up. Callers treat any error as "don't parallelize".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Byte offset the scanner stopped at.
    pub offset: usize,
    /// What it could not handle.
    pub reason: &'static str,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "boundary scan failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ScanError {}

fn err<T>(offset: usize, reason: &'static str) -> Result<T, ScanError> {
    Err(ScanError { offset, reason })
}

/// Find `needle` in `hay[from..]`, returning the absolute offset. Rides
/// the tokenizer's SWAR substring scanner.
fn find(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from > hay.len() {
        return None;
    }
    crate::push::find_sub(&hay[from..], needle).map(|p| p + from)
}

fn is_name_end(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'/' | b'>')
}

/// Skip a DOCTYPE declaration starting at `i` (the `<`). Handles quoted
/// strings, an internal subset in `[...]`, and comments/PIs inside it.
fn skip_doctype(doc: &[u8], i: usize) -> Result<usize, ScanError> {
    let mut j = i + "<!DOCTYPE".len();
    let mut brackets = 0usize;
    while j < doc.len() {
        match doc[j] {
            b'"' | b'\'' => {
                let q = doc[j];
                j += 1;
                while j < doc.len() && doc[j] != q {
                    j += 1;
                }
                if j == doc.len() {
                    return err(i, "unterminated quote in DOCTYPE");
                }
                j += 1;
            }
            b'[' => {
                brackets += 1;
                j += 1;
            }
            b']' => {
                brackets = brackets.saturating_sub(1);
                j += 1;
            }
            b'<' => {
                if doc[j..].starts_with(b"<!--") {
                    match find(doc, j + 4, b"-->") {
                        Some(e) => j = e + 3,
                        None => return err(j, "unterminated comment in DOCTYPE"),
                    }
                } else if doc[j..].starts_with(b"<?") {
                    match find(doc, j + 2, b"?>") {
                        Some(e) => j = e + 2,
                        None => return err(j, "unterminated PI in DOCTYPE"),
                    }
                } else {
                    j += 1;
                }
            }
            b'>' if brackets == 0 => return Ok(j + 1),
            _ => j += 1,
        }
    }
    err(i, "unterminated DOCTYPE")
}

/// Scan `doc` and record structural events at element depth ≤
/// `max_depth`. Returns an error on anything it cannot classify with
/// certainty (mismatched tags, unterminated constructs, content after the
/// root element other than comments/PIs/whitespace).
pub fn scan_boundaries(doc: &[u8], max_depth: u16) -> Result<ScanOutline, ScanError> {
    let mut events = Vec::new();
    let mut depth: u32 = 0;
    let mut root_open_end: Option<usize> = None;
    let mut root_close_start: Option<usize> = None;
    let mut i = 0usize;
    while i < doc.len() {
        let Some(lt) = crate::push::memchr1(b'<', &doc[i..]).map(|p| p + i) else {
            break;
        };
        if depth == 0 {
            // Outside the root element only markup and whitespace may
            // appear; any stray text is malformed.
            if doc[i..lt].iter().any(|b| !b.is_ascii_whitespace()) {
                return err(i, "text outside the root element");
            }
        }
        i = lt;
        let next = *doc.get(i + 1).ok_or(ScanError {
            offset: i,
            reason: "document ends at '<'",
        })?;
        match next {
            b'?' => match find(doc, i + 2, b"?>") {
                Some(e) => i = e + 2,
                None => return err(i, "unterminated processing instruction"),
            },
            b'!' => {
                if doc[i..].starts_with(b"<!--") {
                    match find(doc, i + 4, b"-->") {
                        Some(e) => i = e + 3,
                        None => return err(i, "unterminated comment"),
                    }
                } else if doc[i..].starts_with(b"<![CDATA[") {
                    if depth == 0 {
                        return err(i, "CDATA outside the root element");
                    }
                    match find(doc, i + 9, b"]]>") {
                        Some(e) => i = e + 3,
                        None => return err(i, "unterminated CDATA section"),
                    }
                } else if doc[i..].starts_with(b"<!DOCTYPE") {
                    if depth > 0 || root_open_end.is_some() {
                        return err(i, "DOCTYPE inside content");
                    }
                    i = skip_doctype(doc, i)?;
                } else {
                    return err(i, "unrecognized markup declaration");
                }
            }
            b'/' => {
                let Some(gt) = find(doc, i + 2, b">") else {
                    return err(i, "unterminated end tag");
                };
                if depth == 0 {
                    return err(i, "end tag with no open element");
                }
                depth -= 1;
                if depth <= max_depth as u32 {
                    events.push(ScanEvent::Close {
                        depth: depth as u16,
                        start: i,
                    });
                }
                if depth == 0 {
                    root_close_start = Some(i);
                }
                i = gt + 1;
            }
            _ => {
                if root_close_start.is_some() {
                    return err(i, "second root element");
                }
                // Start tag: parse the name, then find the closing `>`
                // honoring quoted attribute values (which may contain
                // `>` but never a literal `<`).
                let name_start = i + 1;
                let mut j = name_start;
                while j < doc.len() && !is_name_end(doc[j]) {
                    j += 1;
                }
                if j == name_start {
                    return err(i, "empty element name");
                }
                let name_end = j;
                let self_closing;
                loop {
                    let Some(d) = crate::push::memchr_tag_delim(&doc[j..]).map(|p| p + j) else {
                        return err(i, "unterminated start tag");
                    };
                    match doc[d] {
                        b'"' | b'\'' => {
                            let Some(close) =
                                crate::push::memchr1(doc[d], &doc[d + 1..]).map(|p| p + d + 1)
                            else {
                                return err(i, "unterminated attribute value");
                            };
                            j = close + 1;
                        }
                        b'>' => {
                            self_closing = d > name_start && doc[d - 1] == b'/';
                            j = d + 1;
                            break;
                        }
                        // A `<` inside a start tag is malformed.
                        _ => return err(d, "'<' inside a start tag"),
                    }
                }
                if depth <= max_depth as u32 {
                    events.push(ScanEvent::Open(Boundary {
                        start: i,
                        tag_end: j,
                        name_start,
                        name_end,
                        depth: depth as u16,
                        self_closing,
                    }));
                }
                if depth == 0 {
                    root_open_end = Some(j);
                    if self_closing {
                        root_close_start = Some(i);
                    }
                }
                if !self_closing {
                    depth += 1;
                }
                i = j;
            }
        }
    }
    if depth != 0 {
        return err(doc.len(), "unclosed elements at end of input");
    }
    match (root_open_end, root_close_start) {
        (Some(open), Some(close)) => Ok(ScanOutline {
            events,
            root_open_end: open,
            root_close_start: close,
        }),
        _ => err(doc.len(), "no root element"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &[u8], outline: &ScanOutline) -> Vec<(String, u16)> {
        outline
            .events
            .iter()
            .filter_map(|e| match e {
                ScanEvent::Open(b) => Some((
                    String::from_utf8_lossy(&doc[b.name_start..b.name_end]).into_owned(),
                    b.depth,
                )),
                ScanEvent::Close { .. } => None,
            })
            .collect()
    }

    #[test]
    fn records_shallow_tags_with_depths() {
        let doc = b"<r><a><x/></a><b>t</b></r>";
        let o = scan_boundaries(doc, 1).unwrap();
        assert_eq!(
            names(doc, &o),
            vec![
                ("r".to_string(), 0),
                ("a".to_string(), 1),
                ("b".to_string(), 1)
            ]
        );
        assert_eq!(o.root_open_end, 3);
        assert_eq!(o.root_close_start, doc.len() - 4);
    }

    #[test]
    fn skips_comments_pis_cdata_doctype() {
        let doc = b"<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r (a)*> <!-- <fake> -->]>\
            <r><!-- <a> --><?pi <b> ?><a><![CDATA[</r><z>]]></a></r>";
        let o = scan_boundaries(doc, 3).unwrap();
        assert_eq!(
            names(doc, &o),
            vec![("r".to_string(), 0), ("a".to_string(), 1)]
        );
    }

    #[test]
    fn quoted_gt_in_attribute_does_not_end_tag() {
        let doc = br#"<r><a k="1>2" j='>'><c/></a></r>"#;
        let o = scan_boundaries(doc, 3).unwrap();
        let open_a = o
            .events
            .iter()
            .find_map(|e| match e {
                ScanEvent::Open(b) if b.depth == 1 => Some(*b),
                _ => None,
            })
            .unwrap();
        assert_eq!(&doc[open_a.start..open_a.tag_end], br#"<a k="1>2" j='>'>"#);
        assert!(!open_a.self_closing);
    }

    #[test]
    fn self_closing_and_depth_bounds() {
        let doc = b"<r><a/><b><c><d/></c></b></r>";
        let o = scan_boundaries(doc, 1).unwrap();
        let opens = names(doc, &o);
        assert_eq!(
            opens,
            vec![
                ("r".to_string(), 0),
                ("a".to_string(), 1),
                ("b".to_string(), 1)
            ]
        );
        // Depth-2 `c` and depth-3 `d` are not recorded at max_depth 1.
        assert_eq!(o.events.len(), 3 + 2); // 3 opens + closes for b and r (a is self-closing)
    }

    #[test]
    fn rejects_malformed() {
        assert!(scan_boundaries(b"<r>", 1).is_err());
        assert!(scan_boundaries(b"</r>", 1).is_err());
        assert!(scan_boundaries(b"<r></r><q></q>", 1).is_err());
        assert!(scan_boundaries(b"<r><!-- never", 1).is_err());
        assert!(scan_boundaries(b"hello", 1).is_err());
    }
}
