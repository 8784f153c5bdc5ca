//! The sans-IO tokenizer core: caller-owned chunks in, tokens out.
//!
//! [`PushTokenizer`] is the engine's byte-level state machine. It performs
//! **no I/O**: the caller feeds it chunks of the document with
//! [`PushTokenizer::feed`] (or writes directly into [`PushTokenizer::space`]
//! and commits), drives it with [`PushTokenizer::step`], and reads each
//! completed token with [`PushTokenizer::token`]. When the window ends in
//! the middle of a token, `step` reports [`TokenStep::NeedMoreData`] and the
//! partial token stays buffered internally (the *spillover*, observable via
//! [`PushTokenizer::pending_bytes`]) until the next chunk arrives — the
//! tokenizer can be suspended at any byte boundary, including mid-tag,
//! mid-UTF-8 sequence or mid-CDATA.
//!
//! The pull-based [`crate::Tokenizer`] is a thin adapter that reads from an
//! [`std::io::Read`] source whenever this core asks for more data; the
//! streaming engine's [`EvalSession`](https://docs.rs/gcx-core) feeds it
//! network chunks as they arrive. Both observe the exact same token
//! sequence for the same bytes, however the bytes are split.
//!
//! There is one configuration: the tokenizer checks well-formedness as it
//! goes — tags balance, there is exactly one document element, no
//! character data stands outside it and no start tag repeats an attribute
//! — and reports the first violation as an [`XmlError`] at its position.
//! Its consumers (the open-name stack a search hands over, a skip's
//! depth, the engine's lanes) rely on that balanced, single-rooted stream.
//!
//! ```
//! use gcx_xml::{PushTokenizer, Token, TokenStep};
//!
//! let mut t = PushTokenizer::new();
//! t.feed(b"<bib><book>x &a"); // ends mid-entity
//! let mut names = Vec::new();
//! loop {
//!     match t.step().unwrap() {
//!         TokenStep::Token => {
//!             if let Token::StartTag(s) = t.token() { names.push(s.name.to_string()); }
//!         }
//!         TokenStep::NeedMoreData => break,
//!         TokenStep::End => unreachable!(),
//!     }
//! }
//! t.feed(b"mp; y</book></bib>");
//! t.finish_input();
//! let mut text = String::new();
//! loop {
//!     match t.step().unwrap() {
//!         TokenStep::Token => {
//!             if let Token::Text(s) = t.token() { text.push_str(s); }
//!         }
//!         TokenStep::NeedMoreData => unreachable!("input is complete"),
//!         TokenStep::End => break,
//!     }
//! }
//! assert_eq!(names, ["bib", "book"]);
//! assert_eq!(text, "x & y");
//! ```
//!
//! ## Plain tags
//!
//! Almost all of a document's markup is tags with nothing to them, and
//! both `step` and `skip_element` take those through **one** inline
//! recogniser instead of the general tag parser. It vouches for
//!
//! * `</N>`, where `N` spells the innermost open name and `>` follows
//!   directly;
//! * `<N a="v" b='w'>` and `<N a="v"/>`: ASCII names, exactly one space
//!   before each attribute, nothing around `=`, either quote, and values
//!   free of `&`, `<`, `\r`, `\n`, `\t` and bytes ≥ 0x80 — nothing to
//!   resolve, normalize, validate as UTF-8 or reject.
//!
//! It declines — without raising anything and with nothing but scratch
//! touched — whatever it cannot vouch for: a tag the window cuts, a
//! partial token being resumed, the document element (root bookkeeping),
//! duplicate attribute names, any other whitespace (`<a  b="c">`,
//! `<a b="c" >`, `</a >`), entities, non-ASCII bytes, a name or an end
//! tag that is not right. A declined tag goes through the general path,
//! which is therefore still the **only** place a tag error is raised: the
//! recogniser can make a tag faster, never differently right or wrong.
//! `crates/xml/tests/step_differential.rs` holds it to that against a
//! tokenizer fed one byte at a time — which never has a whole tag in the
//! window before a scan position is recorded for it, so the recogniser
//! declines every one: it *is* the general path.
//!
//! ## Skipping a subtree
//!
//! A consumer that has no use for an element — the stream preprojector,
//! once the projection automaton rejects a start tag — does not step
//! through its content: right after `step` returned the element's
//! (non-self-closing) start tag — before the next `feed`, like reading the
//! token — it calls [`PushTokenizer::skip_element`] with an empty stop
//! set, which fast-forwards through the matching end tag and reports how
//! many structural tokens went by (a start or end tag 1, a self-closing
//! tag 2, a text run or CDATA section 1; comments and processing
//! instructions 0). The skip accepts and rejects exactly the documents
//! stepping would, with the same [`XmlError`] kind and position — clean
//! ASCII text and plain tags (above) are checked inline, everything else
//! goes through the same code `step` runs, with the token discarded.
//!
//! A skip suspends like `step` does. While [`Skipped::complete`] is false
//! (and the skip did not stop, below) the window is exhausted: feed more
//! bytes and call `skip_element` again with the same arguments
//! ([`PushTokenizer::skipping`] says a skip is in flight). Text is
//! consumed as it arrives, so a skipped megabyte of character data never
//! sits in the window.
//!
//! ```
//! use gcx_xml::{PushTokenizer, Token, TokenStep};
//!
//! let mut t = PushTokenizer::new();
//! t.feed(b"<r><junk><a>1</a><b k='v'/>some te"); // ends inside a text run
//! assert_eq!(t.step().unwrap(), TokenStep::Token); // <r>
//! assert_eq!(t.step().unwrap(), TokenStep::Token); // <junk>: not wanted
//! let first = t.skip_element(&[], usize::MAX).unwrap();
//! assert!(!first.complete && t.skipping());
//! assert_eq!(t.pending_bytes(), 0, "skipped text is not held back");
//! t.feed(b"xt</junk><keep/></r>");
//! let rest = t.skip_element(&[], usize::MAX).unwrap();
//! assert!(rest.complete && !t.skipping());
//! // <a> 1 </a> <b/>(2) text </junk>
//! assert_eq!(first.tokens + rest.tokens, 7);
//! assert_eq!(t.step().unwrap(), TokenStep::Token);
//! assert!(matches!(t.token(), Token::StartTag(s) if s.name == "keep"));
//! ```
//!
//! ## Searching for a name
//!
//! A consumer waiting for elements of a few names anywhere below the
//! current one — the preprojector under a pending `//name` step — passes
//! those names as the *stop set*. The skip then starts anywhere inside an
//! element (not only right after its start tag) and covers the rest of
//! the innermost open element, but ends early at the first start tag
//! named in the set: it leaves that tag as the pending token, exactly as
//! `step` would have returned it ([`Skipped::stopped`]), and reports how
//! many elements it opened on the way there and left open
//! ([`Skipped::left_open`]; their names, outermost first, come from
//! [`PushTokenizer::left_open`]). Stops are recognised on the plain-tag
//! path and on the general one alike, so a tag the recogniser declines or
//! the window cuts stops the same way. The caller may bound how many
//! elements a skip leaves open: with more than `max_open` open below the
//! skipped element, it ends behind the start tag that opened the last and
//! hands them over. Up to its end, a search passes, validates and counts
//! exactly what stepping would; an empty stop set is the bulk skip above.
//!
//! ```
//! use gcx_xml::{PushTokenizer, Token, TokenStep};
//!
//! let mut t = PushTokenizer::new();
//! t.feed(b"<site><people><p id='1'/></people><regions><africa><it");
//! assert_eq!(t.step().unwrap(), TokenStep::Token); // <site>
//! // Wait for an <item> anywhere below <site>: the window ends first.
//! let first = t.skip_element(&["item"], usize::MAX).unwrap();
//! assert!(!first.complete && !first.stopped && t.skipping());
//! t.feed(b"em id='i0'>x</item></africa></regions></site>");
//! let found = t.skip_element(&["item"], usize::MAX).unwrap();
//! assert!(found.stopped && !t.skipping());
//! // <people> <p/>(2) </people>, then <regions> and <africa>, left open.
//! assert_eq!(first.tokens + found.tokens, 6);
//! assert_eq!(t.left_open(found.left_open).collect::<Vec<_>>(), ["regions", "africa"]);
//! assert!(matches!(t.token(), Token::StartTag(s) if s.name == "item"));
//! ```
//!
//! ## Allocation discipline
//!
//! Same as the pull tokenizer it replaced: the steady-state token loop
//! performs no heap allocation. The window buffer is reused (consumed
//! prefixes are compacted on the next feed), open names live back-to-back
//! in one arena, attribute spans live in a reusable scratch vector, and
//! rewritten text/attribute values go into reusable arenas. A returned
//! token borrows these buffers and is valid until the next `feed`/`step`.
//! A skip touches only the window, the open-name arena and the attribute
//! span scratch.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape::{normalize_attr_into, normalize_newlines_into, normalize_unescape_into};
use crate::pos::TextPos;
use crate::token::{AttrSpan, Attrs, StartTag, Token};

/// Outcome of one [`PushTokenizer::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenStep {
    /// A complete token was recognized; read it with
    /// [`PushTokenizer::token`] before the next `feed` or `step`.
    Token,
    /// The window ends inside a token (or is empty): feed more bytes, or
    /// declare the end of input with [`PushTokenizer::finish_input`].
    NeedMoreData,
    /// Clean end of input: every byte was tokenized and the document is
    /// well-formed.
    End,
}

/// What one [`PushTokenizer::skip_element`] call got through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Skipped {
    /// Structural tokens passed by this call, as a consumer stepping
    /// through them would count: a start or end tag 1, a self-closing tag
    /// 2, a text run or CDATA section 1 (a run split across calls is
    /// counted by the call that saw its first byte). A stop tag is not
    /// among them: it is the next token.
    pub tokens: u64,
    /// The start and end tags among them, a self-closing tag once: what a
    /// consumer shown every tag and no text would have been shown.
    pub tags: u64,
    /// The element's end tag was passed: the next [`PushTokenizer::step`]
    /// returns what follows it. False when the skip stopped (below) or the
    /// window ran out first — then feed more bytes and call again, or, at
    /// the end of input, let `step` report the end.
    pub complete: bool,
    /// The skip stopped at a start tag named in the stop set, which
    /// [`PushTokenizer::token`] now returns.
    pub stopped: bool,
    /// Elements the skip opened and left open when it stopped — at a stop
    /// tag or past the depth bound — read their names with
    /// [`PushTokenizer::left_open`]. A skip that stopped or went past the
    /// bound is over; one with `complete`, `stopped` and `left_open` all
    /// unset is suspended for more bytes.
    pub left_open: usize,
}

/// Why a skip ended before its element's end tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// At a start tag named in the stop set, left pending.
    Stop,
    /// Behind the start tag that opened one element more than the bound.
    Depth,
}

/// Descriptor of the last recognized token: spans into the window buffer
/// (still valid after `consume` — bytes move only on `feed` compaction)
/// or flags selecting a rewrite scratch.
#[derive(Debug, Clone, Copy)]
enum Pending {
    None,
    /// Character data. `scratch` selects the rewrite buffer (entities or
    /// line endings were normalized) over the raw window span.
    Text {
        scratch: bool,
        start: usize,
        len: usize,
    },
    Comment {
        start: usize,
        len: usize,
    },
    Doctype {
        start: usize,
        len: usize,
    },
    Pi {
        start: usize,
        len: usize,
        target_len: usize,
        data_off: usize,
    },
    EndTag {
        start: usize,
        len: usize,
    },
    /// Start tag body (between `<` and `>`/`/>`); attribute spans live in
    /// the reusable scratch, relative to this body span.
    StartTag {
        start: usize,
        len: usize,
        name_len: usize,
        self_closing: bool,
    },
}

/// What kind of markup construct starts at the current `<`.
enum MarkupKind {
    Comment,
    CData,
    Doctype,
    Pi,
    EndTag,
    StartTag,
}

/// A tag the plain-tag recogniser vouches for, measured from its `<`.
#[derive(Debug, Clone, Copy)]
enum PlainTag {
    /// `</name>`: `name_len + 3` bytes.
    End { name_len: usize },
    /// `<name a="v">` or `<name a="v"/>`: `len` bytes, `>` included.
    Start {
        len: usize,
        name_len: usize,
        self_closing: bool,
    },
}

/// Resumable scan state for the current partial token: where the last
/// failed terminator search left off (plus any mid-scan state), so that a
/// re-step after more data arrives does not rescan bytes already searched.
/// Without this, a token split across many small chunks would cost
/// O(len²) — the pull tokenizer's refill loops carried the same positions
/// implicitly. Offsets are relative to the window start, which survives
/// compaction (the window is rebased as one block). Cleared whenever a
/// token completes; a retry always resumes the *same* scan because
/// nothing was consumed and markup classification is deterministic over
/// the unchanged prefix.
#[derive(Debug, Clone, Copy)]
enum ScanHint {
    /// Generic terminator search ([`PushTokenizer::find`]) may resume at
    /// this relative offset.
    Find { from: usize },
    /// Start-tag scan: position + in-quote state.
    Tag { i: usize, quote: Option<u8> },
    /// DOCTYPE scan: position + internal-subset bracket depth.
    Doctype { i: usize, depth: usize },
}

/// Sans-IO incremental XML tokenizer. See the [module docs](self) for the
/// protocol and an example.
pub struct PushTokenizer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (start of the unread window).
    lo: usize,
    /// End of valid bytes in `buf`.
    hi: usize,
    /// Set by [`PushTokenizer::finish_input`]: no more bytes will arrive.
    eof: bool,
    pos: TextPos,
    /// Open element names: start offsets into `stack_arena`, where the
    /// (validated, UTF-8) names are stored back-to-back.
    stack: Vec<u32>,
    stack_arena: Vec<u8>,
    seen_root: bool,
    /// Scratch for rewritten (unescaped/normalized) text so we can lend it
    /// borrowed.
    text_scratch: String,
    /// Scratch for the current start tag's attribute spans.
    attr_spans: Vec<AttrSpan>,
    /// Arena for attribute values that needed rewriting.
    attr_arena: String,
    /// Set once EOF has been fully validated and reported.
    done: bool,
    pending: Pending,
    /// Resume point of the current partial token's terminator scan.
    hint: Option<ScanHint>,
    /// High watermark of the unread window (spillover carried across
    /// chunk boundaries plus in-flight chunk bytes).
    window_peak: usize,
    /// Elements open inside the subtree being skipped, its top element
    /// included (0 = no skip in flight).
    skip_open: usize,
    /// Mid-skip, inside a text run whose head is already consumed (and
    /// counted): where the run began, which is where stepping would
    /// report an error in it.
    skip_text_start: Option<TextPos>,
    /// Tags the plain-tag recogniser took (the lib tests tell its path
    /// from the general one by this).
    #[cfg(test)]
    plain_hits: u64,
}

impl Default for PushTokenizer {
    fn default() -> Self {
        PushTokenizer::new()
    }
}

impl PushTokenizer {
    /// A tokenizer at the start of a document.
    pub fn new() -> PushTokenizer {
        PushTokenizer {
            buf: Vec::new(),
            lo: 0,
            hi: 0,
            eof: false,
            pos: TextPos::START,
            // Room for a document 16 deep with names of 8 bytes: deeper
            // or wordier ones grow them.
            stack: Vec::with_capacity(16),
            stack_arena: Vec::with_capacity(128),
            seen_root: false,
            text_scratch: String::new(),
            attr_spans: Vec::new(),
            attr_arena: String::new(),
            done: false,
            pending: Pending::None,
            hint: None,
            window_peak: 0,
            skip_open: 0,
            skip_text_start: None,
            #[cfg(test)]
            plain_hits: 0,
        }
    }

    /// Current position: the first byte of the *next* token to be returned.
    pub fn position(&self) -> TextPos {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Unconsumed bytes currently buffered — after a
    /// [`TokenStep::NeedMoreData`], the partial-token spillover carried
    /// across the feed boundary.
    pub fn pending_bytes(&self) -> usize {
        self.avail()
    }

    /// True once [`PushTokenizer::finish_input`] has been called.
    pub fn input_finished(&self) -> bool {
        self.eof
    }

    /// True while a [`PushTokenizer::skip_element`] is suspended for more
    /// data: the next call continues it.
    pub fn skipping(&self) -> bool {
        self.skip_open > 0
    }

    /// High watermark of the unread window over the tokenizer's lifetime —
    /// the sans-IO core's true input-side memory bound (partial-token
    /// spillover plus the largest not-yet-tokenized chunk tail).
    pub fn window_peak(&self) -> u64 {
        self.window_peak as u64
    }

    // ---- feeding ----------------------------------------------------------

    /// Append a caller-owned chunk to the window. Invalidates any token
    /// not yet read with [`PushTokenizer::token`].
    pub fn feed(&mut self, chunk: &[u8]) {
        let gap = self.space(chunk.len().max(1));
        gap[..chunk.len()].copy_from_slice(chunk);
        self.commit(chunk.len());
    }

    /// Borrow at least `min` writable bytes after the window (for reading
    /// from a source without an intermediate copy); follow with
    /// [`PushTokenizer::commit`]. Invalidates any unread token.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.pending = Pending::None;
        // Compact the consumed prefix before growing: the window only ever
        // holds the current partial token plus unread lookahead.
        if self.lo > 0 {
            self.buf.copy_within(self.lo..self.hi, 0);
            self.hi -= self.lo;
            self.lo = 0;
        }
        if self.buf.len() - self.hi < min {
            self.buf.resize(self.hi + min, 0);
        }
        &mut self.buf[self.hi..]
    }

    /// Declare `n` bytes of [`PushTokenizer::space`] filled.
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.hi + n <= self.buf.len());
        self.hi += n;
        self.window_peak = self.window_peak.max(self.hi - self.lo);
    }

    /// Declare the end of input: no more bytes will be fed. The next
    /// [`PushTokenizer::step`] calls tokenize the remaining window and
    /// finish with [`TokenStep::End`] (or a well-formedness error).
    pub fn finish_input(&mut self) {
        self.eof = true;
    }

    // ---- window management -------------------------------------------------

    /// Number of unread bytes currently buffered.
    fn avail(&self) -> usize {
        self.hi - self.lo
    }

    /// At least `n` unread bytes? `Some(false)` means end-of-input makes
    /// that impossible; `None` means more data could still arrive.
    fn ensure(&self, n: usize) -> Option<bool> {
        if self.avail() >= n {
            Some(true)
        } else if self.eof {
            Some(false)
        } else {
            None
        }
    }

    /// Find `needle` in the unread window at relative offset >= `from`,
    /// resuming a previously failed scan of the same partial token.
    /// `Some(None)` = provably absent (end of input); `None` = need data.
    fn find(&mut self, from: usize, needle: &[u8]) -> Option<Option<usize>> {
        let from = match self.hint {
            Some(ScanHint::Find { from: resumed }) => from.max(resumed),
            _ => from,
        };
        let window = &self.buf[self.lo..self.hi];
        if window.len() >= needle.len() && from <= window.len() - needle.len() {
            if let Some(i) = find_sub(&window[from..], needle) {
                self.hint = None;
                return Some(Some(from + i));
            }
        }
        if self.eof {
            self.hint = None;
            Some(None)
        } else {
            // Keep the last needle.len()-1 bytes re-searchable: the match
            // may straddle this feed boundary.
            self.hint = Some(ScanHint::Find {
                from: window.len().saturating_sub(needle.len() - 1).max(from),
            });
            None
        }
    }

    /// Consume `n` bytes, updating the position. Ends the current token:
    /// any scan-resume state belongs to it and is dropped.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.avail());
        self.pos.advance(&self.buf[self.lo..self.lo + n]);
        self.lo += n;
        self.hint = None;
    }

    fn err_eof(&self, context: &'static str) -> XmlError {
        XmlError::new(XmlErrorKind::UnexpectedEof { context }, self.pos)
    }

    /// The name of the `i`-th open element, outermost first.
    fn open_name_at(&self, i: usize) -> &str {
        let end = self
            .stack
            .get(i + 1)
            .map_or(self.stack_arena.len(), |&e| e as usize);
        open_name(&self.stack_arena[self.stack[i] as usize..end])
    }

    /// The open element names, outermost first (error reporting).
    fn open_names(&self) -> Vec<String> {
        (0..self.stack.len())
            .map(|i| self.open_name_at(i).to_string())
            .collect()
    }

    /// The names of the `n` elements the last [`PushTokenizer::skip_element`]
    /// left open ([`Skipped::left_open`]) — or, after a `step`, the `n`
    /// innermost open elements below the start tag it returned — outermost
    /// first. Read them before the next `feed` or `step`, like the stop
    /// tag.
    pub fn left_open(&self, n: usize) -> impl Iterator<Item = &str> {
        // A non-self-closing stop tag is open on top of them.
        let stop = matches!(
            self.pending,
            Pending::StartTag {
                self_closing: false,
                ..
            }
        );
        let top = self.stack.len() - usize::from(stop);
        (top - n..top).map(|i| self.open_name_at(i))
    }

    // ---- stepping ----------------------------------------------------------

    /// Advance by one token. On [`TokenStep::Token`], read it with
    /// [`PushTokenizer::token`]; on [`TokenStep::NeedMoreData`] nothing was
    /// consumed — feed more bytes (or `finish_input`) and call again.
    pub fn step(&mut self) -> XmlResult<TokenStep> {
        self.pending = Pending::None;
        if self.done {
            return Ok(TokenStep::End);
        }
        if self.avail() == 0 {
            return if self.eof {
                self.end_of_input()
            } else {
                Ok(TokenStep::NeedMoreData)
            };
        }
        if self.buf[self.lo] == b'<' {
            self.step_markup()
        } else {
            self.step_text(self.pos)
        }
    }

    /// Every byte is consumed and no more will arrive: validate the
    /// well-formedness closure. Terminal — later steps report `End`.
    fn end_of_input(&mut self) -> XmlResult<TokenStep> {
        self.done = true;
        if !self.stack.is_empty() {
            return Err(XmlError::new(
                XmlErrorKind::UnclosedElements(self.open_names()),
                self.pos,
            ));
        }
        if !self.seen_root {
            return Err(self.err_eof("document element"));
        }
        Ok(TokenStep::End)
    }

    /// The token recognized by the last [`TokenStep::Token`]. Borrows the
    /// internal buffers: read it before the next `feed`/`space`/`step`.
    ///
    /// # Panics
    ///
    /// If the last step did not produce a token.
    pub fn token(&self) -> Token<'_> {
        match self.pending {
            Pending::None => panic!("PushTokenizer::token() without a pending token"),
            Pending::Text { scratch: true, .. } => Token::Text(&self.text_scratch),
            Pending::Text {
                scratch: false,
                start,
                len,
            } => Token::Text(revalidated(&self.buf[start..start + len])),
            Pending::Comment { start, len } => {
                Token::Comment(revalidated(&self.buf[start..start + len]))
            }
            Pending::Doctype { start, len } => {
                Token::Doctype(revalidated(&self.buf[start..start + len]))
            }
            Pending::Pi {
                start,
                len,
                target_len,
                data_off,
            } => {
                let body = revalidated(&self.buf[start..start + len]);
                Token::ProcessingInstruction {
                    target: &body[..target_len],
                    data: &body[data_off..],
                }
            }
            Pending::EndTag { start, len } => Token::EndTag {
                name: revalidated(&self.buf[start..start + len]),
            },
            Pending::StartTag {
                start,
                len,
                name_len,
                self_closing,
            } => {
                let inner = revalidated(&self.buf[start..start + len]);
                Token::StartTag(StartTag {
                    name: &inner[..name_len],
                    attrs: Attrs {
                        spans: &self.attr_spans,
                        body: inner,
                        arena: &self.attr_arena,
                    },
                    self_closing,
                })
            }
        }
    }

    /// A text run starts at the window start; `start_pos` is where the run
    /// began (the current position, unless a skip already consumed its
    /// head) — errors in the run are reported there.
    fn step_text(&mut self, start_pos: TextPos) -> XmlResult<TokenStep> {
        // Locate the end of the text run: the next '<' or end of input.
        // A run is one token however it was chunked, so the whole run must
        // be buffered before it is emitted (this is the common spillover).
        // On the first look at a run, one fused pass finds its end *and*
        // learns whether anything in it needs a second look: a run of
        // plain ASCII up to its '<' is valid UTF-8 with nothing to rewrite.
        let mut from = 0;
        let mut clean_end = None;
        if self.hint.is_none() {
            let window = &self.buf[self.lo..self.hi];
            match text_stop::<true>(window) {
                Some(p) if window[p] == b'<' => clean_end = Some(p),
                stop => from = stop.unwrap_or(window.len()),
            }
        }
        let end = match clean_end {
            Some(end) => end,
            None => match self.find(from, b"<") {
                None => return Ok(TokenStep::NeedMoreData),
                Some(None) => self.avail(),
                Some(Some(i)) => i,
            },
        };
        let raw = &self.buf[self.lo..self.lo + end];
        let unclean = match clean_end {
            Some(_) => None,
            None => Some(check_utf8(raw, start_pos)?),
        };
        // Outside the document element only whitespace is allowed.
        if self.stack.is_empty() && !raw.iter().all(|b| b.is_ascii_whitespace()) {
            return Err(XmlError::new(XmlErrorKind::TextOutsideRoot, start_pos));
        }
        // Entity resolution and line-ending normalization share one rewrite
        // pass into the reusable scratch; clean runs are lent borrowed.
        let rewrite = unclean.filter(|raw| raw.bytes().any(|b| b == b'&' || b == b'\r'));
        if let Some(raw) = rewrite {
            self.text_scratch.clear();
            if let Err(entity) = normalize_unescape_into(raw, &mut self.text_scratch) {
                let entity = entity.to_string();
                return Err(XmlError::new(XmlErrorKind::BadEntity(entity), start_pos));
            }
        }
        self.pending = Pending::Text {
            scratch: rewrite.is_some(),
            start: self.lo,
            len: end,
        };
        self.consume(end);
        Ok(TokenStep::Token)
    }

    fn classify_markup(&self) -> XmlResult<Option<MarkupKind>> {
        // We have '<' at lo. Peek a handful of bytes to classify.
        match self.ensure(2) {
            None => return Ok(None),
            Some(false) => return Err(self.err_eof("markup")),
            Some(true) => {}
        }
        Ok(Some(match self.buf[self.lo + 1] {
            b'/' => MarkupKind::EndTag,
            b'?' => MarkupKind::Pi,
            b'!' => {
                // <!-- | <![CDATA[ | <!DOCTYPE — the discriminating prefix
                // is up to 9 bytes, so wait for them (or end of input).
                if self.ensure(4) == Some(true) && &self.buf[self.lo + 2..self.lo + 4] == b"--" {
                    MarkupKind::Comment
                } else if self.ensure(9) == Some(true)
                    && &self.buf[self.lo + 2..self.lo + 9] == b"[CDATA["
                {
                    MarkupKind::CData
                } else if self.eof || self.avail() >= 9 {
                    MarkupKind::Doctype
                } else {
                    return Ok(None);
                }
            }
            _ => MarkupKind::StartTag,
        }))
    }

    fn step_markup(&mut self) -> XmlResult<TokenStep> {
        if let Some(tag) = self.plain_tag(self.lo) {
            let total;
            (self.pending, total) = tag.token_at(self.lo);
            // No hint to drop, and no newline in a plain tag to count.
            self.lo += total;
            self.pos.offset += total as u64;
            self.pos.column += total as u32;
            return Ok(TokenStep::Token);
        }
        let start_pos = self.pos;
        let Some(kind) = self.classify_markup()? else {
            return Ok(TokenStep::NeedMoreData);
        };
        match kind {
            MarkupKind::Comment => {
                let Some(found) = self.find(4, b"-->") else {
                    return Ok(TokenStep::NeedMoreData);
                };
                let end = found.ok_or_else(|| self.err_eof("comment"))?;
                let total = end + 3;
                check_utf8(&self.buf[self.lo + 4..self.lo + end], start_pos)?;
                self.pending = Pending::Comment {
                    start: self.lo + 4,
                    len: end - 4,
                };
                self.consume(total);
                Ok(TokenStep::Token)
            }
            MarkupKind::CData => {
                let Some(found) = self.find(9, b"]]>") else {
                    return Ok(TokenStep::NeedMoreData);
                };
                let end = found.ok_or_else(|| self.err_eof("CDATA section"))?;
                let total = end + 3;
                let raw = check_utf8(&self.buf[self.lo + 9..self.lo + end], start_pos)?;
                let needs_rewrite = raw.bytes().any(|b| b == b'\r');
                if self.stack.is_empty() {
                    return Err(XmlError::new(XmlErrorKind::TextOutsideRoot, start_pos));
                }
                if needs_rewrite {
                    // §2.11 applies inside CDATA too (no entity processing).
                    self.text_scratch.clear();
                    let raw_range = self.lo + 9..self.lo + end;
                    let raw2 = revalidated(&self.buf[raw_range]);
                    normalize_newlines_into(raw2, &mut self.text_scratch);
                }
                self.pending = Pending::Text {
                    scratch: needs_rewrite,
                    start: self.lo + 9,
                    len: end - 9,
                };
                self.consume(total);
                Ok(TokenStep::Token)
            }
            MarkupKind::Doctype => {
                // Scan for '>' at zero square-bracket depth (internal subset).
                let Some(end) = self.find_doctype_end()? else {
                    return Ok(TokenStep::NeedMoreData);
                };
                let total = end + 1;
                check_utf8(&self.buf[self.lo + 2..self.lo + end], start_pos)?;
                self.pending = Pending::Doctype {
                    start: self.lo + 2,
                    len: end - 2,
                };
                self.consume(total);
                Ok(TokenStep::Token)
            }
            MarkupKind::Pi => {
                let Some(found) = self.find(2, b"?>") else {
                    return Ok(TokenStep::NeedMoreData);
                };
                let end = found.ok_or_else(|| self.err_eof("processing instruction"))?;
                let total = end + 2;
                let body = check_utf8(&self.buf[self.lo + 2..self.lo + end], start_pos)?;
                let target_len = body
                    .char_indices()
                    .find(|(_, c)| c.is_whitespace())
                    .map(|(i, _)| i)
                    .unwrap_or(body.len());
                if target_len == 0 {
                    return Err(XmlError::syntax(
                        "processing instruction without target",
                        start_pos,
                    ));
                }
                let data_off = body[target_len..]
                    .char_indices()
                    .find(|(_, c)| !c.is_whitespace())
                    .map(|(i, _)| target_len + i)
                    .unwrap_or(body.len());
                self.pending = Pending::Pi {
                    start: self.lo + 2,
                    len: end - 2,
                    target_len,
                    data_off,
                };
                self.consume(total);
                Ok(TokenStep::Token)
            }
            MarkupKind::EndTag => {
                let Some(found) = self.find(2, b">") else {
                    return Ok(TokenStep::NeedMoreData);
                };
                let end = found.ok_or_else(|| self.err_eof("end tag"))?;
                let total = end + 1;
                let body = check_utf8(&self.buf[self.lo + 2..self.lo + end], start_pos)?;
                let name = body.trim();
                validate_name(name, start_pos)?;
                let Some(open_start) = self.stack.pop() else {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEndTag(name.to_string()),
                        start_pos,
                    ));
                };
                let open = &self.stack_arena[open_start as usize..];
                if open != name.as_bytes() {
                    return Err(XmlError::new(
                        XmlErrorKind::MismatchedTag {
                            expected: open_name(open).to_string(),
                            found: name.to_string(),
                        },
                        start_pos,
                    ));
                }
                self.stack_arena.truncate(open_start as usize);
                let lead = body.len() - body.trim_start().len();
                self.pending = Pending::EndTag {
                    start: self.lo + 2 + lead,
                    len: name.len(),
                };
                self.consume(total);
                Ok(TokenStep::Token)
            }
            MarkupKind::StartTag => self.step_start_tag(start_pos),
        }
    }

    /// Find the '>' that ends a DOCTYPE, respecting `[ ... ]` internal
    /// subsets. `Ok(None)` = need more data (scan resumes where it left
    /// off on the next call).
    fn find_doctype_end(&mut self) -> XmlResult<Option<usize>> {
        let (start, mut depth) = match self.hint {
            Some(ScanHint::Doctype { i, depth }) => (i, depth),
            _ => (1, 0usize),
        };
        for i in start..self.avail() {
            match self.buf[self.lo + i] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.hint = None;
                    return Ok(Some(i));
                }
                _ => {}
            }
        }
        if self.eof {
            self.hint = None;
            Err(self.err_eof("DOCTYPE declaration"))
        } else {
            self.hint = Some(ScanHint::Doctype {
                i: self.avail().max(1),
                depth,
            });
            Ok(None)
        }
    }

    /// Find the '>' ending a start tag, skipping quoted attribute values.
    /// Both the unquoted scan (for `" ' > <`) and the in-quote scan (for
    /// the close quote) run word-at-a-time. `Ok(None)` = need more data
    /// (position and in-quote state resume on the next call).
    fn find_tag_end(&mut self) -> XmlResult<Option<usize>> {
        let (mut i, mut quote) = match self.hint {
            Some(ScanHint::Tag { i, quote }) => (i, quote),
            _ => (1, None::<u8>),
        };
        loop {
            if i >= self.avail() {
                return if self.eof {
                    self.hint = None;
                    Err(self.err_eof("start tag"))
                } else {
                    self.hint = Some(ScanHint::Tag { i, quote });
                    Ok(None)
                };
            }
            match quote {
                Some(q) => {
                    // Inside a quoted value: skip straight to the close quote.
                    let hay = &self.buf[self.lo + i..self.hi];
                    match memchr1(q, hay) {
                        Some(p) => {
                            i += p + 1;
                            quote = None;
                        }
                        None => i = self.avail(),
                    }
                }
                None => match memchr_tag_delim(&self.buf[self.lo + i..self.hi]) {
                    Some(p) => {
                        i += p;
                        match self.buf[self.lo + i] {
                            b'"' | b'\'' => {
                                quote = Some(self.buf[self.lo + i]);
                                i += 1;
                            }
                            b'>' => {
                                self.hint = None;
                                return Ok(Some(i));
                            }
                            _ => {
                                debug_assert_eq!(self.buf[self.lo + i], b'<');
                                self.hint = None;
                                return Err(XmlError::syntax("'<' inside tag", self.pos));
                            }
                        }
                    }
                    None => i = self.avail(),
                },
            }
        }
    }

    fn step_start_tag(&mut self, start_pos: TextPos) -> XmlResult<TokenStep> {
        let Some(end) = self.find_tag_end()? else {
            return Ok(TokenStep::NeedMoreData);
        };
        let total = end + 1;
        let body = check_utf8(&self.buf[self.lo + 1..self.lo + end], start_pos)?;
        let self_closing = body.ends_with('/');
        let inner = if self_closing {
            &body[..body.len() - 1]
        } else {
            body
        };

        // Parse name.
        let inner_trim_start = inner.trim_start();
        if inner_trim_start.len() != inner.len() {
            return Err(XmlError::syntax(
                "whitespace before element name",
                start_pos,
            ));
        }
        let name_len = inner
            .char_indices()
            .find(|(_, c)| c.is_whitespace() || *c == '=')
            .map(|(i, _)| i)
            .unwrap_or(inner.len());
        let name = &inner[..name_len];
        validate_name(name, start_pos)?;

        // Parse attributes into the reusable span scratch. Spans are
        // relative to `inner`; rewritten values go into the reusable arena.
        self.attr_spans.clear();
        self.attr_arena.clear();
        let bytes = inner.as_bytes();
        let mut i = name_len;
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            // attribute name
            let an_start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'=' {
                i += 1;
            }
            let an_end = i;
            validate_name(&inner[an_start..an_end], start_pos)?;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err(XmlError::syntax(
                    format!("attribute `{}` without value", &inner[an_start..an_end]),
                    start_pos,
                ));
            }
            i += 1; // '='
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() || (bytes[i] != b'"' && bytes[i] != b'\'') {
                return Err(XmlError::syntax(
                    "attribute value must be quoted",
                    start_pos,
                ));
            }
            let q = bytes[i];
            i += 1;
            let av_start = i;
            match memchr1(q, &bytes[i..]) {
                Some(p) => i += p,
                None => {
                    return Err(XmlError::syntax("unterminated attribute value", start_pos));
                }
            }
            let av_end = i;
            i += 1; // closing quote
            let raw_val = &inner[av_start..av_end];
            if raw_val.contains('<') {
                return Err(XmlError::syntax("'<' in attribute value", start_pos));
            }
            if i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                return Err(XmlError::syntax(
                    "missing whitespace after attribute value",
                    start_pos,
                ));
            }
            // Attribute values additionally get §3.3.3 normalization
            // (literal whitespace → space); see `normalize_attr_into`.
            let needs_rewrite = raw_val
                .bytes()
                .any(|b| matches!(b, b'&' | b'\r' | b'\n' | b'\t'));
            let owned = if needs_rewrite {
                let arena_start = self.attr_arena.len() as u32;
                if let Err(entity) = normalize_attr_into(raw_val, &mut self.attr_arena) {
                    return Err(XmlError::new(
                        XmlErrorKind::BadEntity(entity.to_string()),
                        start_pos,
                    ));
                }
                Some((arena_start, self.attr_arena.len() as u32))
            } else {
                None
            };
            self.attr_spans.push(AttrSpan {
                name: (an_start as u32, an_end as u32),
                value: (av_start as u32, av_end as u32),
                owned,
            });
        }

        // Duplicate attribute check (well-formedness constraint).
        for a in 1..self.attr_spans.len() {
            for b in 0..a {
                let (an, bn) = (self.attr_spans[a].name, self.attr_spans[b].name);
                if inner[an.0 as usize..an.1 as usize] == inner[bn.0 as usize..bn.1 as usize] {
                    return Err(XmlError::syntax(
                        format!(
                            "duplicate attribute `{}`",
                            &inner[an.0 as usize..an.1 as usize]
                        ),
                        start_pos,
                    ));
                }
            }
        }

        // Well-formedness: root bookkeeping; and the open-element stack.
        if self.stack.is_empty() {
            if self.seen_root {
                return Err(XmlError::new(XmlErrorKind::TrailingContent, start_pos));
            }
            self.seen_root = true;
        }
        if !self_closing {
            self.stack.push(self.stack_arena.len() as u32);
            self.stack_arena.extend_from_slice(name.as_bytes());
        }

        self.pending = Pending::StartTag {
            start: self.lo + 1,
            len: end - 1 - usize::from(self_closing),
            name_len,
            self_closing,
        };
        self.consume(total);
        Ok(TokenStep::Token)
    }

    // ---- the plain-tag recogniser -------------------------------------------

    /// The one inline recogniser for the tag shapes that make up almost
    /// all of a document's markup, shared by stepping and skipping: is the
    /// tag whose `<` sits at `buf[at]` *plain* (see the [module
    /// docs](self)) and complete in the window? Then the open-name arena
    /// is updated, a start tag's attribute spans are in `attr_spans`, and
    /// the tag's extent comes back for the caller to consume.
    ///
    /// For a plain tag the general path has nothing to rewrite and nothing
    /// to reject, and would produce exactly this. Everything else is
    /// declined with nothing but scratch touched, so no error is ever
    /// raised here.
    fn plain_tag(&mut self, at: usize) -> Option<PlainTag> {
        // A partial token is being resumed: its scan position belongs to
        // the general path.
        if self.hint.is_some() {
            return None;
        }
        let tag = &self.buf[at..self.hi];
        debug_assert_eq!(tag[0], b'<');
        if tag.get(1) == Some(&b'/') {
            // The only end tag that is right here is the innermost open
            // name's; it was validated when it was pushed.
            let open = *self.stack.last()? as usize;
            let name_len = self.stack_arena.len() - open;
            if !tag[2..].starts_with(&self.stack_arena[open..])
                || tag.get(2 + name_len) != Some(&b'>')
            {
                return None;
            }
            self.stack.pop();
            self.stack_arena.truncate(open);
            #[cfg(test)]
            {
                self.plain_hits += 1;
            }
            return Some(PlainTag::End { name_len });
        }
        // The document element takes the root bookkeeping of the general
        // path.
        if self.stack.is_empty() {
            return None;
        }
        let name_len = ascii_name_len(&tag[1..]);
        if name_len == 0 {
            return None;
        }
        self.attr_spans.clear();
        let mut i = 1 + name_len;
        let self_closing = loop {
            match *tag.get(i)? {
                b'>' => break false,
                b'/' if tag.get(i + 1) == Some(&b'>') => break true,
                b' ' => {}
                _ => return None,
            }
            let name = i + 1;
            let eq = name + ascii_name_len(&tag[name..]);
            let quote = *tag.get(eq + 1)?;
            if eq == name || tag[eq] != b'=' || !matches!(quote, b'"' | b'\'') {
                return None;
            }
            let value = eq + 2;
            let end = value + plain_value_len(&tag[value..], quote)?;
            // Spans are relative to the tag body, which starts behind `<`.
            self.attr_spans.push(AttrSpan {
                name: (name as u32 - 1, eq as u32 - 1),
                value: (value as u32 - 1, end as u32 - 1),
                owned: None,
            });
            i = end + 1;
        };
        let body = &tag[1..];
        let name_of = |a: &AttrSpan| &body[a.name.0 as usize..a.name.1 as usize];
        for (n, a) in self.attr_spans.iter().enumerate().skip(1) {
            if self.attr_spans[..n]
                .iter()
                .any(|b| name_of(a) == name_of(b))
            {
                return None;
            }
        }
        if !self_closing {
            self.stack.push(self.stack_arena.len() as u32);
            self.stack_arena.extend_from_slice(&tag[1..1 + name_len]);
        }
        #[cfg(test)]
        {
            self.plain_hits += 1;
        }
        Some(PlainTag::Start {
            len: i + 1 + usize::from(self_closing),
            name_len,
            self_closing,
        })
    }

    // ---- skipping ----------------------------------------------------------

    /// Fast-forward through the end tag of the innermost open element —
    /// with no `stops`, the one whose non-self-closing start tag the last
    /// [`PushTokenizer::step`] returned — or continue the skip an earlier
    /// call suspended ([`PushTokenizer::skipping`]), passing the same
    /// `stops` and `max_open`. A skip with stops ends early at a start tag
    /// named in `stops`, and one that has more than `max_open` elements
    /// open below the skipped element ends behind the start tag that
    /// opened the last; see [`Skipped`] and the [module docs](self) for
    /// the protocol. Accepts and rejects exactly what stepping through the
    /// subtree would, with the same error and position.
    ///
    /// # Panics
    ///
    /// If no skip is in flight, `stops` is empty and the last step did not
    /// produce a non-self-closing start tag — or a `feed` has invalidated
    /// it since: a bulk skip starts where the token would have been read.
    pub fn skip_element(&mut self, stops: &[&str], max_open: usize) -> XmlResult<Skipped> {
        if self.skip_open == 0 {
            assert!(
                !stops.is_empty()
                    || matches!(
                        self.pending,
                        Pending::StartTag {
                            self_closing: false,
                            ..
                        }
                    ),
                "PushTokenizer::skip_element() without an open start tag pending"
            );
            self.skip_open = 1;
        }
        self.pending = Pending::None;
        let mut passed = Passed::default();
        let mut halt = None;
        while self.skip_open > 0 && halt.is_none() {
            // A recorded scan position belongs to a partial token at the
            // window start: only the stepping functions can resume it.
            if self.hint.is_none() {
                let (stretch, stretch_halt) = self.skip_stretch(stops, max_open);
                passed.add(stretch);
                halt = stretch_halt;
                if self.skip_open == 0 || halt.is_some() {
                    break;
                }
            }
            if self.avail() == 0 {
                if self.eof {
                    // The input ends inside the element: the element is
                    // unclosed.
                    self.skip_open = 0;
                    self.skip_text_start = None;
                    self.end_of_input()?;
                }
                return Ok(Skipped::suspended(passed));
            }
            // Something the stretch does not check inline.
            match self.skip_token(stops, max_open)? {
                Some((token, token_halt)) => {
                    passed.add(token);
                    halt = token_halt;
                }
                None => return Ok(Skipped::suspended(passed)),
            }
        }
        let left_open = match halt {
            Some(_) => std::mem::take(&mut self.skip_open) - 1,
            None => 0,
        };
        Ok(Skipped {
            tokens: passed.tokens,
            tags: passed.tags,
            complete: halt.is_none(),
            stopped: halt == Some(Halt::Stop),
            left_open,
        })
    }

    /// Whether a skip stops at the start tag whose name is
    /// `buf[name..name + len]`.
    #[inline]
    fn is_stop(&self, stops: &[&str], name: usize, len: usize) -> bool {
        let name = &self.buf[name..name + len];
        stops.iter().any(|stop| stop.as_bytes() == name)
    }

    /// A skip passes a start tag that is not a stop: it opens one element
    /// more (unless self-closing), and the skip halts behind it when that
    /// makes more than `limit` open, the skipped element included.
    #[inline]
    fn skip_opens(&mut self, self_closing: bool, limit: usize) -> Option<Halt> {
        self.skip_open += usize::from(!self_closing);
        (self.skip_open > limit).then_some(Halt::Depth)
    }

    /// The inline part of a skip: walk the window over clean ASCII text
    /// and plain tags ([`PushTokenizer::plain_tag`]), and consume the whole
    /// stretch at once. Stops — in front of it — at anything else, at the
    /// window end, and behind the end tag that completes the skip or the
    /// start tag it halts at (a stop tag is left pending). Returns what it
    /// passed and the halt.
    fn skip_stretch(&mut self, stops: &[&str], max_open: usize) -> (Passed, Option<Halt>) {
        let (lo, hi) = (self.lo, self.hi);
        let limit = max_open.saturating_add(1);
        let mut passed = Passed::default();
        let mut halt = None;
        let mut i = lo;
        // Where the text run the stretch stopped in began, if it began in
        // this stretch.
        let mut run_start = None;
        while i < hi {
            if self.buf[i] != b'<' {
                if self.skip_text_start.is_none() && run_start.is_none() {
                    run_start = Some(i);
                    passed.tokens += 1;
                }
                let window = &self.buf[..hi];
                match text_stop::<false>(&window[i..]) {
                    Some(p) if window[i + p] == b'<' => i += p,
                    // '&' or a non-ASCII byte: the rest of the run needs
                    // the full checks.
                    Some(p) => {
                        i += p;
                        break;
                    }
                    None => {
                        i = hi;
                        break;
                    }
                }
            }
            // At a '<': whatever text run came before is over.
            self.skip_text_start = None;
            run_start = None;
            match self.plain_tag(i) {
                None => break,
                Some(PlainTag::End { name_len }) => {
                    passed.add(Passed::tag(1));
                    i += name_len + 3;
                    self.skip_open -= 1;
                    if self.skip_open == 0 {
                        break;
                    }
                }
                Some(
                    tag @ PlainTag::Start {
                        len,
                        name_len,
                        self_closing,
                    },
                ) => {
                    let at = i;
                    i += len;
                    if !stops.is_empty() && self.is_stop(stops, at + 1, name_len) {
                        self.pending = tag.token_at(at).0;
                        halt = Some(Halt::Stop);
                        break;
                    }
                    passed.add(Passed::tag(1 + u64::from(self_closing)));
                    halt = self.skip_opens(self_closing, limit);
                    if halt.is_some() {
                        break;
                    }
                }
            }
        }
        if let Some(run_start) = run_start {
            // Stopped inside a run: remember where it began.
            self.consume(run_start - lo);
            self.skip_text_start = Some(self.pos);
        }
        if i > self.lo {
            self.consume(i - self.lo);
        }
        (passed, halt)
    }

    /// One token of a skipped subtree through the stepping functions, the
    /// token itself discarded — unless it is a stop tag, which stays
    /// pending. Returns what it passed and the halt, or `None` when the
    /// window ends inside the token.
    fn skip_token(
        &mut self,
        stops: &[&str],
        max_open: usize,
    ) -> XmlResult<Option<(Passed, Option<Halt>)>> {
        if self.buf[self.lo] != b'<' {
            // The rest of a text run whose head the stretch consumed and
            // counted: validated as a whole once its '<' is in sight.
            let start = self
                .skip_text_start
                .expect("the stretch stopped inside this run");
            if self.step_text(start)? == TokenStep::NeedMoreData {
                return Ok(None);
            }
            self.skip_text_start = None;
            self.pending = Pending::None;
            return Ok(Some((Passed::default(), None)));
        }
        if self.step_markup()? == TokenStep::NeedMoreData {
            return Ok(None);
        }
        let passed = match self.pending {
            Pending::StartTag {
                start,
                name_len,
                self_closing,
                ..
            } => {
                if !stops.is_empty() && self.is_stop(stops, start, name_len) {
                    return Ok(Some((Passed::default(), Some(Halt::Stop))));
                }
                let halt = self.skip_opens(self_closing, max_open.saturating_add(1));
                (Passed::tag(1 + u64::from(self_closing)), halt)
            }
            Pending::EndTag { .. } => {
                self.skip_open -= 1;
                (Passed::tag(1), None)
            }
            // A CDATA section.
            Pending::Text { .. } => (Passed { tokens: 1, tags: 0 }, None),
            _ => (Passed::default(), None),
        };
        self.pending = Pending::None;
        Ok(Some(passed))
    }
}

/// What a stretch or a token of a skip passed (see [`Skipped`]).
#[derive(Debug, Clone, Copy, Default)]
struct Passed {
    tokens: u64,
    tags: u64,
}

impl Passed {
    /// One tag, `tokens` of them (2 when self-closing).
    fn tag(tokens: u64) -> Passed {
        Passed { tokens, tags: 1 }
    }

    fn add(&mut self, other: Passed) {
        self.tokens += other.tokens;
        self.tags += other.tags;
    }
}

impl Skipped {
    /// A skip the window ran out on after passing `passed`.
    fn suspended(passed: Passed) -> Skipped {
        Skipped {
            tokens: passed.tokens,
            tags: passed.tags,
            complete: false,
            stopped: false,
            left_open: 0,
        }
    }
}

impl PlainTag {
    /// The pending token this tag is when its `<` sits at `buf[at]`, and
    /// its length.
    fn token_at(self, at: usize) -> (Pending, usize) {
        match self {
            PlainTag::End { name_len } => (
                Pending::EndTag {
                    start: at + 2,
                    len: name_len,
                },
                name_len + 3,
            ),
            PlainTag::Start {
                len,
                name_len,
                self_closing,
            } => (
                Pending::StartTag {
                    start: at + 1,
                    len: len - 2 - usize::from(self_closing),
                    name_len,
                    self_closing,
                },
                len,
            ),
        }
    }
}

// ---- accelerated scanners ----------------------------------------------------

const LANES: usize = std::mem::size_of::<usize>();
const LSB: usize = usize::from_ne_bytes([0x01; LANES]);
const MSB: usize = usize::from_ne_bytes([0x80; LANES]);

/// Load a word so its least significant byte is the FIRST byte in memory
/// (a byte swap on big-endian targets, free on little-endian). The
/// zero-byte detector `(x - LSB) & !x & MSB` can set false-positive bits
/// in lanes *above* the first true match (borrow propagation), so the
/// first-match lane must always be extracted from the low end with
/// `trailing_zeros` — which requires this memory ordering.
#[inline]
fn load_le(bytes: &[u8]) -> usize {
    usize::from_ne_bytes(bytes[..LANES].try_into().unwrap()).to_le()
}

/// The classic zero-byte detector: the high bit of every lane of `word`
/// that equals `broadcast`'s byte — exact up to and including the first
/// such lane (borrow propagation can set lanes above it).
#[inline]
fn zero_detect(word: usize, broadcast: usize) -> usize {
    let x = word ^ broadcast;
    x.wrapping_sub(LSB) & !x & MSB
}

/// First byte of `hay` that `is` accepts, a machine word at a time with a
/// scalar tail. `detect` gets each word (first byte lowest, see
/// [`load_le`]) and must set the high bit of every lane whose byte `is`
/// accepts; it may also set lanes *above* the first such lane — an OR of
/// [`zero_detect`]s does — because only the lowest set lane is read.
#[inline]
fn swar_position(
    hay: &[u8],
    detect: impl Fn(usize) -> usize,
    is: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut i = 0;
    while i + LANES <= hay.len() {
        let found = detect(load_le(&hay[i..]));
        if found != 0 {
            return Some(i + (found.trailing_zeros() / 8) as usize);
        }
        i += LANES;
    }
    hay[i..].iter().position(|&b| is(b)).map(|p| i + p)
}

/// SWAR single-byte search. This is the accelerated scanner behind
/// [`find_sub`]; the text/markup boundary scans of large documents spend
/// most of their time here.
#[inline]
pub(crate) fn memchr1(needle: u8, hay: &[u8]) -> Option<usize> {
    let broadcast = usize::from_ne_bytes([needle; LANES]);
    swar_position(hay, |word| zero_detect(word, broadcast), |b| b == needle)
}

/// SWAR scan for the first start-tag delimiter: `"`, `'`, `>` or `<`.
/// Four zero-byte detectors per word still beat a byte loop by a wide
/// margin; start tags are delimiter-sparse.
#[inline]
pub(crate) fn memchr_tag_delim(hay: &[u8]) -> Option<usize> {
    const DQ: usize = usize::from_ne_bytes([b'"'; LANES]);
    const SQ: usize = usize::from_ne_bytes([b'\''; LANES]);
    const GT: usize = usize::from_ne_bytes([b'>'; LANES]);
    const LT: usize = usize::from_ne_bytes([b'<'; LANES]);
    swar_position(
        hay,
        |word| {
            zero_detect(word, DQ)
                | zero_detect(word, SQ)
                | zero_detect(word, GT)
                | zero_detect(word, LT)
        },
        |b| matches!(b, b'"' | b'\'' | b'>' | b'<'),
    )
}

/// SWAR scan of character data for the first byte that ends a run or
/// keeps it from being lent as it stands: `<`, `&`, any non-ASCII byte
/// and — with `CR`, for runs that will be read — `\r`. A run that reaches
/// its `<` without another stop is plain ASCII with nothing to rewrite.
#[inline]
fn text_stop<const CR: bool>(hay: &[u8]) -> Option<usize> {
    const LT: usize = usize::from_ne_bytes([b'<'; LANES]);
    const AMP: usize = usize::from_ne_bytes([b'&'; LANES]);
    const RET: usize = usize::from_ne_bytes([b'\r'; LANES]);
    swar_position(
        hay,
        |word| {
            let cr = if CR { zero_detect(word, RET) } else { 0 };
            zero_detect(word, LT) | zero_detect(word, AMP) | (word & MSB) | cr
        },
        |b| matches!(b, b'<' | b'&') || !b.is_ascii() || (CR && b == b'\r'),
    )
}

/// Substring search: SWAR scan for the first needle byte, then verify the
/// remainder. Needles here are ≤ 3 bytes, so verification is trivial.
pub(crate) fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    debug_assert!(!needle.is_empty());
    if needle.len() == 1 {
        return memchr1(needle[0], hay);
    }
    let mut from = 0;
    while from + needle.len() <= hay.len() {
        let i = from + memchr1(needle[0], &hay[from..=hay.len() - needle.len()])?;
        if &hay[i..i + needle.len()] == needle {
            return Some(i);
        }
        from = i + 1;
    }
    None
}

fn check_utf8(bytes: &[u8], pos: TextPos) -> XmlResult<&str> {
    std::str::from_utf8(bytes).map_err(|_| XmlError::new(XmlErrorKind::InvalidUtf8, pos))
}

/// An open element's name out of the arena.
fn open_name(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("open names are validated before they are pushed")
}

/// Re-borrow bytes that were already UTF-8 validated when the pending
/// token was recognized (tokens are read after `consume`, which ends the
/// first borrow). Skipping the second validation saves a full pass over
/// every token's bytes.
#[inline]
fn revalidated(bytes: &[u8]) -> &str {
    debug_assert!(std::str::from_utf8(bytes).is_ok());
    // SAFETY: every pending span was validated in the step that recognized
    // it — via `check_utf8`; for a text run, by `text_stop` finding no byte
    // >= 0x80 in it (ASCII is UTF-8); for a tag `plain_tag` took, by its
    // byte classes: a start tag's span is names out of `NAME_CLASS` (ASCII
    // only), the literal ` `, `=` and quotes, and values out of the
    // table's bit 2 (ASCII only), and an end tag's span equals, byte for
    // byte, an open name that was validated when it was pushed — and the
    // window is not mutated between that step and the `token()` read
    // (feeding resets the pending state).
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

/// Byte classes for the ASCII fast path of [`validate_name`]: bit 0 = valid
/// name start, bit 1 = valid name continuation. Non-ASCII bytes are in
/// neither class here: names with them take the slow (char-based) path.
/// Bit 2 = a byte of an attribute value with nothing to it, for
/// [`plain_value_len`]: ASCII, no `<` to reject, no `&`, `\r`, `\n` or
/// `\t` to rewrite.
static NAME_CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0usize;
    while b < 128 {
        let c = b as u8;
        let alpha = c.is_ascii_alphabetic();
        if alpha || c == b'_' || c == b':' {
            t[b] |= 0b01;
        }
        if alpha || c.is_ascii_digit() || matches!(c, b'_' | b':' | b'-' | b'.') {
            t[b] |= 0b10;
        }
        if !matches!(c, b'<' | b'&' | b'\r' | b'\n' | b'\t') {
            t[b] |= 0b100;
        }
        b += 1;
    }
    t
};

/// Length of the valid all-ASCII name `bytes` starts with (0 = none): the
/// names [`validate_name`] accepts on its table path.
fn ascii_name_len(bytes: &[u8]) -> usize {
    match bytes.first() {
        Some(&first) if NAME_CLASS[first as usize] & 0b01 != 0 => {
            1 + bytes[1..]
                .iter()
                .take_while(|&&b| NAME_CLASS[b as usize] & 0b10 != 0)
                .count()
        }
        _ => 0,
    }
}

/// Length of the attribute value `bytes` starts with, if it reaches its
/// closing `quote` over plain bytes only (bit 2 of [`NAME_CLASS`]).
fn plain_value_len(bytes: &[u8], quote: u8) -> Option<usize> {
    let len = bytes
        .iter()
        .position(|&b| b == quote || NAME_CLASS[b as usize] & 0b100 == 0)?;
    (bytes[len] == quote).then_some(len)
}

/// Validate an XML name (element or attribute). Namespace colons allowed.
/// Runs per tag: ASCII names (the overwhelmingly common case) validate via
/// one table lookup per byte, no char decoding.
fn validate_name(name: &str, pos: TextPos) -> XmlResult<()> {
    let bytes = name.as_bytes();
    if bytes.is_empty() {
        return Err(XmlError::syntax("empty name", pos));
    }
    if name.is_ascii() {
        let first_ok = NAME_CLASS[bytes[0] as usize] & 0b01 != 0;
        if first_ok
            && bytes[1..]
                .iter()
                .all(|&b| NAME_CLASS[b as usize] & 0b10 != 0)
        {
            return Ok(());
        }
        return Err(XmlError::syntax(format!("invalid name `{name}`"), pos));
    }
    let mut chars = name.chars();
    let ok_first = |c: char| c.is_alphabetic() || c == '_' || c == ':' || !c.is_ascii();
    let ok_rest =
        |c: char| c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.') || !c.is_ascii();
    match chars.next() {
        None => return Err(XmlError::syntax("empty name", pos)),
        Some(c) if !ok_first(c) => {
            return Err(XmlError::syntax(format!("invalid name `{name}`"), pos))
        }
        Some(_) => {}
    }
    if chars.all(ok_rest) {
        Ok(())
    } else {
        Err(XmlError::syntax(format!("invalid name `{name}`"), pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokenize `input` pushed in `chunk`-byte pieces; return debug strings.
    fn toks_chunked(input: &str, chunk: usize) -> Vec<String> {
        toks_and_hits(input, chunk).0
    }

    /// [`toks_chunked`], and how many tags the plain-tag recogniser took.
    fn toks_and_hits(input: &str, chunk: usize) -> (Vec<String>, u64) {
        let mut t = PushTokenizer::new();
        let mut out = Vec::new();
        let mut fed = 0;
        loop {
            match t.step() {
                Ok(TokenStep::Token) => out.push(format!("{:?}", t.token())),
                Ok(TokenStep::End) => break,
                Ok(TokenStep::NeedMoreData) => {
                    if fed < input.len() {
                        let next = (fed + chunk).min(input.len());
                        t.feed(&input.as_bytes()[fed..next]);
                        fed = next;
                    } else {
                        t.finish_input();
                    }
                }
                Err(e) => {
                    out.push(format!("ERR {e}"));
                    break;
                }
            }
        }
        (out, t.plain_hits)
    }

    #[test]
    fn chunking_is_invisible() {
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (b)>]>\
                   <a x=\"1&amp;2\" y='α'>\n t&lt;x \
                   <!-- c -- c --><![CDATA[x < y]]><b/></a>";
        let whole = toks_chunked(doc, doc.len());
        for chunk in [1, 2, 3, 5, 7, 16, 64] {
            assert_eq!(toks_chunked(doc, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn split_inside_multibyte_utf8() {
        // 'α' is two bytes; 1-byte chunks split it. Validation is deferred
        // until the token completes, so this must still succeed.
        let doc = "<a>αβγ</a>";
        let toks = toks_chunked(doc, 1);
        assert!(toks.iter().any(|t| t.contains("αβγ")), "{toks:?}");
    }

    #[test]
    fn need_more_data_reports_spillover() {
        let mut t = PushTokenizer::new();
        t.feed(b"<abc def=\"x");
        assert_eq!(t.step().unwrap(), TokenStep::NeedMoreData);
        assert_eq!(t.pending_bytes(), 11, "the partial tag stays buffered");
        t.feed(b"\"/>");
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        match t.token() {
            Token::StartTag(s) => {
                assert_eq!(s.name, "abc");
                assert_eq!(s.attrs.get(0).unwrap().value, "x");
                assert!(s.self_closing);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.pending_bytes(), 0);
    }

    #[test]
    fn need_more_data_consumes_nothing() {
        let mut t = PushTokenizer::new();
        t.feed(b"<a>text-without-close");
        assert_eq!(t.step().unwrap(), TokenStep::Token); // <a>
                                                         // The text run cannot complete without a '<' or EOF; repeated
                                                         // steps must be idempotent.
        assert_eq!(t.step().unwrap(), TokenStep::NeedMoreData);
        assert_eq!(t.step().unwrap(), TokenStep::NeedMoreData);
        t.finish_input();
        // After EOF the run is complete (followed by the unclosed-element
        // error at the end of input).
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        match t.token() {
            Token::Text(s) => assert_eq!(s, "text-without-close"),
            other => panic!("{other:?}"),
        }
        assert!(t.step().is_err(), "a is still open at EOF");
    }

    #[test]
    fn eof_mid_token_is_an_error() {
        let mut t = PushTokenizer::new();
        t.feed(b"<a");
        assert_eq!(t.step().unwrap(), TokenStep::NeedMoreData);
        t.finish_input();
        let err = t.step().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn unclosed_elements_detected_at_input_end() {
        let mut t = PushTokenizer::new();
        t.feed(b"<a><b>");
        t.finish_input();
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        let err = t.step().unwrap_err();
        match err.kind {
            XmlErrorKind::UnclosedElements(names) => assert_eq!(names, ["a", "b"]),
            other => panic!("{other:?}"),
        }
        // Terminal: after the EOF error the tokenizer stays at End.
        assert_eq!(t.step().unwrap(), TokenStep::End);
    }

    #[test]
    fn space_commit_roundtrip_matches_feed() {
        let doc = b"<a><b>x</b></a>";
        let mut t = PushTokenizer::new();
        let gap = t.space(doc.len());
        gap[..doc.len()].copy_from_slice(doc);
        t.commit(doc.len());
        t.finish_input();
        let mut n = 0;
        while t.step().unwrap() == TokenStep::Token {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn multi_chunk_tokens_scan_incrementally() {
        // A 100KB text node and a 50KB attribute value fed one byte at a
        // time: without the scan-resume hint this is O(n²) (~10^10 byte
        // comparisons — effectively a hang); with it, linear.
        let big_text = "y".repeat(100_000);
        let big_attr = "v".repeat(50_000);
        let doc = format!("<a k=\"{big_attr}\">{big_text}</a>");
        let toks = toks_chunked(&doc, 1);
        assert_eq!(toks.len(), 3, "{}", toks.len());
        assert!(toks[1].contains(&big_text[..32]));
    }

    #[test]
    fn scan_hint_survives_compaction_and_clears_per_token() {
        // Several suspensions inside one tag, then more tokens: the hint
        // must resume correctly across feeds (which compact the window)
        // and reset between tokens.
        let doc = "<a long=\"xxxxxxxxxxxxxxxx\"><b>tttttttttt</b></a>";
        let whole = toks_chunked(doc, doc.len());
        for chunk in [1, 3, 4, 5] {
            assert_eq!(toks_chunked(doc, chunk), whole, "chunk {chunk}");
        }
    }

    /// Step to the first `<skip>` start tag of `input` (fed `chunk` bytes
    /// at a time), pass the element — by `skip_element` or by stepping —
    /// and return the tokens charged, the position behind it and the
    /// token stream that follows (or the error).
    fn pass_skip_element(input: &[u8], chunk: usize, by_skip: bool) -> Result<String, String> {
        let mut t = PushTokenizer::new();
        let mut chunks = input.chunks(chunk);
        let mut more = |t: &mut PushTokenizer| match chunks.next() {
            Some(c) => t.feed(c),
            None => t.finish_input(),
        };
        let show = |e: XmlError| format!("{:?} at {}", e.kind, e.pos);
        loop {
            match t.step().map_err(show)? {
                TokenStep::Token => {
                    if matches!(t.token(), Token::StartTag(s) if s.name == "skip") {
                        break;
                    }
                }
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => panic!("no <skip> element"),
            }
        }
        let (mut charged, mut open) = (0, 1);
        while open > 0 {
            if by_skip {
                let skipped = t.skip_element(&[], usize::MAX).map_err(show)?;
                charged += skipped.tokens;
                if skipped.complete {
                    break;
                }
                more(&mut t);
                continue;
            }
            match t.step().map_err(show)? {
                TokenStep::Token => match t.token() {
                    Token::StartTag(s) if s.self_closing => charged += 2,
                    Token::StartTag(_) => (charged, open) = (charged + 1, open + 1),
                    Token::EndTag { .. } => (charged, open) = (charged + 1, open - 1),
                    Token::Text(_) => charged += 1,
                    _ => {}
                },
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => panic!("input ended inside <skip>"),
            }
        }
        let mut seen = format!("{charged} tokens to {}:", t.position());
        loop {
            match t.step().map_err(show)? {
                TokenStep::Token => seen.push_str(&format!(" {:?}", t.token())),
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => return Ok(seen),
            }
        }
    }

    #[test]
    fn skip_matches_stepping_at_every_chunking() {
        // Every shape the skip checks inline and every one it hands to the
        // stepping functions, under an element that is skipped whole.
        let doc = "<r><keep/><skip k='v'>plain<a><b/></a><c x=\"1&amp;2\" y='α'/>t&lt;x\n \
                   <!-- </skip> --><![CDATA[</skip>]]><?pi </skip>?><été>grüße &#65;</été >\
                   <d\n>tail</d></skip><after>x</after></r>";
        let whole = pass_skip_element(doc.as_bytes(), doc.len(), false).unwrap();
        assert!(whole.starts_with("16 tokens to 3:17:"), "{whole}");
        for chunk in [1, 2, 3, 5, 7, 16, 64, doc.len()] {
            for by_skip in [false, true] {
                assert_eq!(
                    pass_skip_element(doc.as_bytes(), chunk, by_skip).as_ref(),
                    Ok(&whole),
                    "chunk {chunk}, by_skip {by_skip}"
                );
            }
        }
    }

    #[test]
    fn skip_reports_the_error_stepping_reports() {
        let cases: [&[u8]; 8] = [
            b"<r><skip>clean head &bogus; tail</skip></r>",
            b"<r><skip>clean head \xff tail</skip></r>",
            b"<r><skip><a k='1' k='2'/></skip></r>",
            b"<r><skip><a></b></skip></r>",
            b"<r><skip>x</skipp></r>",
            b"<r><skip><!-- open </skip></r>",
            b"<r><skip><1/></skip></r>",
            b"<r><skip><a>never closed",
        ];
        for doc in cases {
            let want = pass_skip_element(doc, doc.len(), false).unwrap_err();
            for chunk in [1, 3, doc.len()] {
                assert_eq!(
                    pass_skip_element(doc, chunk, true).as_ref(),
                    Err(&want),
                    "chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn skipped_text_is_consumed_as_it_arrives() {
        let mut t = PushTokenizer::new();
        t.feed(b"<r><big>");
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        assert_eq!(t.step().unwrap(), TokenStep::Token);
        // The skip starts where the token would have been read: before
        // the next feed.
        assert!(!t.skip_element(&[], usize::MAX).unwrap().complete);
        let mut tokens = 0;
        for _ in 0..64 {
            t.feed(&[b'y'; 1024]);
            let skipped = t.skip_element(&[], usize::MAX).unwrap();
            assert!(!skipped.complete);
            tokens += skipped.tokens;
            assert_eq!(t.pending_bytes(), 0, "a stepped run would spill whole");
        }
        // A byte the inline check does not vouch for holds back the rest
        // of the run only.
        t.feed(b"clean &amp; ");
        assert!(!t.skip_element(&[], usize::MAX).unwrap().complete);
        assert_eq!(t.pending_bytes(), 6);
        t.feed(b"more</big>");
        let skipped = t.skip_element(&[], usize::MAX).unwrap();
        assert!(skipped.complete);
        assert_eq!(tokens + skipped.tokens, 2, "one run, one end tag");
        assert_eq!(t.position().offset, 8 + 64 * 1024 + 12 + 10);
    }

    #[test]
    fn bytewise_feeding_is_the_general_path() {
        // Fed a byte at a time no tag is ever whole in the window before a
        // scan position is recorded for it, so the recogniser takes none:
        // the reference `tests/step_differential.rs` compares against.
        let doc = "<r><a k=\"v\" j='1>2'><b/>text</a><c x=\"\"/><d>&amp;</d ><e\tk=\"v\"/></r>";
        let (whole, hits) = toks_and_hits(doc, doc.len());
        // <a …> <b/> </a> <c …/> <d> and, its name on top again, </r>;
        // not the document element, </d > or <e\t…/>.
        assert_eq!(hits, 6);
        assert_eq!(toks_and_hits(doc, 1), (whole, 0));

        let size = if cfg!(miri) { 2 * 1024 } else { 256 * 1024 };
        let doc = gcx_xmark::generate_string(&gcx_xmark::XmarkConfig::sized(size));
        let (whole, hits) = toks_and_hits(&doc, doc.len());
        let tags = whole.iter().filter(|t| t.contains("Tag")).count() as u64;
        assert!(hits > tags * 9 / 10, "{hits} of {tags} XMark tags");
        assert_eq!(toks_and_hits(&doc, 1), (whole, 0));
    }

    /// Step to the first start tag named `from` of `input` (fed `chunk`
    /// bytes at a time), then pass the rest of the innermost open element
    /// — by `skip_element(stops, max_open)` or by stepping — up to its end
    /// tag, a start tag named in `stops`, or more than `max_open` elements
    /// open below it. Returns the tokens charged, the position, how it
    /// ended (a stop tag as `token()` shows it), the names left open and
    /// the token stream that follows (or the error).
    fn pass_search(
        input: &[u8],
        chunk: usize,
        from: &str,
        (stops, max_open): (&[&str], usize),
        by_skip: bool,
    ) -> Result<String, String> {
        let mut t = PushTokenizer::new();
        let mut chunks = input.chunks(chunk);
        let mut more = |t: &mut PushTokenizer| match chunks.next() {
            Some(c) => t.feed(c),
            None => t.finish_input(),
        };
        let show = |e: XmlError| format!("{:?} at {}", e.kind, e.pos);
        loop {
            match t.step().map_err(show)? {
                TokenStep::Token => {
                    if matches!(t.token(), Token::StartTag(s) if s.name == from) {
                        break;
                    }
                }
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => panic!("no <{from}>"),
            }
        }
        let (mut charged, mut open) = (0, Vec::new());
        let end = loop {
            if by_skip {
                let s = t.skip_element(stops, max_open).map_err(show)?;
                charged += s.tokens;
                if s.complete {
                    break "complete".to_string();
                }
                if s.stopped || s.left_open > 0 {
                    open = t.left_open(s.left_open).map(String::from).collect();
                    break match s.stopped {
                        true => format!("stop {:?}", t.token()),
                        false => "depth".to_string(),
                    };
                }
                more(&mut t);
                continue;
            }
            match t.step().map_err(show)? {
                TokenStep::Token => match t.token() {
                    Token::StartTag(s) if stops.contains(&s.name) => {
                        break format!("stop {:?}", t.token())
                    }
                    Token::StartTag(s) if s.self_closing => charged += 2,
                    Token::StartTag(s) => {
                        charged += 1;
                        open.push(s.name.to_string());
                        if open.len() > max_open {
                            break "depth".to_string();
                        }
                    }
                    Token::EndTag { .. } => {
                        charged += 1;
                        if open.pop().is_none() {
                            break "complete".to_string();
                        }
                    }
                    Token::Text(_) => charged += 1,
                    _ => {}
                },
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => panic!("input ended inside <{from}>"),
            }
        };
        let mut seen = format!(
            "{charged} tokens to {}, {end}, open {open:?}:",
            t.position()
        );
        loop {
            match t.step().map_err(show)? {
                TokenStep::Token => seen.push_str(&format!(" {:?}", t.token())),
                TokenStep::NeedMoreData => more(&mut t),
                TokenStep::End => return Ok(seen),
            }
        }
    }

    /// [`pass_search`] by skipping equals it by stepping at eight
    /// chunkings; returns the whole-document result.
    fn assert_search_is_stepping(doc: &str, from: &str, search: (&[&str], usize)) -> String {
        let doc = doc.as_bytes();
        let want = pass_search(doc, doc.len(), from, search, false);
        for chunk in [1, 2, 3, 5, 7, 16, 64, doc.len()] {
            assert_eq!(
                pass_search(doc, chunk, from, search, true),
                want,
                "chunk {chunk}, from <{from}>, stops {:?}",
                search.0
            );
        }
        want.unwrap_or_else(|e| e)
    }

    /// Every shape a search passes inline or hands to the stepping
    /// functions — entities, a comment, CDATA and a PI holding a stop name
    /// — on the way to stops two levels down.
    const SEARCHED: &str = "<r><s>head<a k='v'><b/>t&amp;x<!-- <item> --><![CDATA[<item>]]>\
                            <?pi <item>?><c x=\"1&amp;2\"><item k='1'>found</item></c>\
                            <été>ü</été></a></s><after/></r>";

    #[test]
    fn a_search_stops_where_stepping_would_at_every_chunking() {
        let far = assert_search_is_stepping(SEARCHED, "s", (&["zz", "item"], usize::MAX));
        assert!(
            far.starts_with("7 tokens to 1:104, stop StartTag(StartTag { name: \"item\"")
                && far.contains("open [\"a\", \"c\"]:"),
            "{far}"
        );
        // A self-closing stop, a non-ASCII one, and one met after the
        // search began inside an element rather than at its start tag.
        let near = assert_search_is_stepping(SEARCHED, "s", (&["b"], usize::MAX));
        assert!(
            near.contains("stop StartTag(StartTag { name: \"b\"") && near.contains("open [\"a\"]:")
        );
        let late = assert_search_is_stepping(SEARCHED, "s", (&["été"], usize::MAX));
        assert!(late.contains("open [\"a\"]:"), "{late}");
        let inside = assert_search_is_stepping(SEARCHED, "b", (&["item"], usize::MAX));
        assert!(inside.contains("open [\"c\"]:"), "{inside}");
        // No stop below <s>: the search runs to its end tag.
        let through = assert_search_is_stepping(SEARCHED, "s", (&["after"], usize::MAX));
        assert!(through.contains("complete, open []: StartTag"), "{through}");
    }

    #[test]
    fn a_stop_inside_a_declined_tag_stops_the_same_way() {
        // The entity and the doubled space send these stops the general
        // way; the first is also the recogniser's own parent check.
        for (doc, stop) in [
            (SEARCHED, "c"),
            ("<r><s><a><item  k='1'>x</item></a></s></r>", "item"),
            ("<r><s><a>t</a><item k='1' k='2'/></s></r>", "item"),
        ] {
            let got = assert_search_is_stepping(doc, "s", (&[stop], usize::MAX));
            assert!(got.contains("stop") || got.contains("duplicate"), "{got}");
        }
        // Stepping reports the duplicate attribute at the stop tag: so
        // does the search.
        let doc = b"<r><s><a>t</a><item k='1' k='2'/></s></r>";
        let want = pass_search(doc, doc.len(), "s", (&["item"], usize::MAX), false);
        assert!(want.is_err(), "{want:?}");
    }

    #[test]
    fn a_search_hands_over_past_its_depth_bound() {
        // Under <s>: a (1), c (2) — item never comes with a bound of 1.
        let depth = assert_search_is_stepping(SEARCHED, "s", (&["item"], 1));
        assert!(depth.contains("depth, open [\"a\", \"c\"]:"), "{depth}");
        let depth = assert_search_is_stepping(SEARCHED, "s", (&["item"], 0));
        assert!(depth.contains("depth, open [\"a\"]:"), "{depth}");
        // A stop comes first when it is within the bound.
        let stop = assert_search_is_stepping(SEARCHED, "s", (&["item"], 2));
        assert!(stop.contains("stop"), "{stop}");
    }

    #[test]
    fn an_empty_stop_set_is_the_bulk_skip() {
        let doc = SEARCHED.replace("s>", "skip>");
        let skip = assert_search_is_stepping(&doc, "skip", (&[], usize::MAX));
        assert!(skip.contains("complete, open []:"), "{skip}");
        // Same tokens, position and stream as the skip that predates stops.
        let bulk = pass_skip_element(doc.as_bytes(), 7, true).unwrap();
        let (at, stream) = bulk.split_once(": ").unwrap();
        assert_eq!(skip, format!("{at}, complete, open []: {stream}"));
        // Without stops the bound still applies.
        let depth = assert_search_is_stepping(SEARCHED, "s", (&[], 1));
        assert!(depth.contains("depth, open [\"a\", \"c\"]:"), "{depth}");
    }

    #[test]
    fn skipping_and_stepping_share_the_recogniser() {
        let doc = "<r><skip><a k=\"v\"><b j='w'/>text</a><c k=\"1\"  j=\"2\"></c></skip></r>";
        for (chunk, want) in [(doc.len(), 5), (1, 0)] {
            let mut t = PushTokenizer::new();
            let mut chunks = doc.as_bytes().chunks(chunk);
            while !matches!(t.pending, Pending::StartTag { name_len: 4, .. }) {
                if t.step().unwrap() == TokenStep::NeedMoreData {
                    t.feed(chunks.next().unwrap());
                }
            }
            let before = t.plain_hits;
            let mut tokens = 0;
            loop {
                let skipped = t.skip_element(&[], usize::MAX).unwrap();
                tokens += skipped.tokens;
                if skipped.complete {
                    break;
                }
                t.feed(chunks.next().unwrap());
            }
            // <a …> <b …/>(2) text </a> <c …> </c> </skip>; its second
            // space sends <c …> the general way.
            assert_eq!(tokens, 8);
            assert_eq!(t.plain_hits - before, want, "chunk {chunk}");
        }
    }

    #[test]
    fn text_stop_matches_naive_search() {
        let hay = "plain ascii text, no stops\r here & there <tag> grüße".as_bytes();
        for start in 0..hay.len() {
            let tail = &hay[start..];
            let naive = |cr: bool| {
                tail.iter()
                    .position(|&b| matches!(b, b'<' | b'&') || b >= 0x80 || (cr && b == b'\r'))
            };
            assert_eq!(text_stop::<true>(tail), naive(true), "start {start}");
            assert_eq!(text_stop::<false>(tail), naive(false), "start {start}");
        }
        // Lanes above a match may hold anything (borrow false positives,
        // see `memchr1_matches_naive_search`): the lowest stop wins.
        assert_eq!(text_stop::<false>(b"aaaaaa=<bbbbbbbb"), Some(7));
        assert_eq!(text_stop::<false>(b"aaaaaa%&bbbbbbbb"), Some(7));
        assert_eq!(text_stop::<true>(b"aaaaaa\x0c\rbbbbbbbb"), Some(7));
        assert_eq!(text_stop::<false>(b"aaaaaaaaaaaaaaaa"), None);
    }

    #[test]
    fn memchr1_matches_naive_search() {
        let hay: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        for needle in [0u8, 1, 7, 250, 251, 255] {
            assert_eq!(
                memchr1(needle, &hay),
                hay.iter().position(|&b| b == needle),
                "needle {needle}"
            );
        }
        // Every offset/alignment of a small window.
        let hay = b"abcdefghijklmnopqrstuvwxyz<1234567890";
        for start in 0..hay.len() {
            assert_eq!(
                memchr1(b'<', &hay[start..]),
                hay[start..].iter().position(|&b| b == b'<')
            );
        }
        assert_eq!(memchr1(b'x', b""), None);
        // Borrow false-positive construction: '=' (0x3D == '<' ^ 0x01)
        // directly before the true match inside one word can flip its own
        // lane in the zero detector; the match extraction must still report
        // the '<'. (This is the case that breaks if the first-match lane is
        // read from the wrong end; see `load_le`.)
        let hay = b"aaaaaa=<bbbbbbbb";
        for start in 0..8 {
            assert_eq!(
                memchr1(b'<', &hay[start..]),
                hay[start..].iter().position(|&b| b == b'<'),
                "start {start}"
            );
        }
        assert_eq!(memchr_tag_delim(b"aaaaaa=<bbbbbbbb"), Some(7));
        assert_eq!(memchr_tag_delim(b"aaaaaa!\"bbbbbbbb"), Some(7));
    }
}
