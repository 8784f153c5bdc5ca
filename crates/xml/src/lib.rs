#![deny(unsafe_op_in_unsafe_fn)]
//! # gcx-xml — streaming XML substrate for the GCX engine
//!
//! This crate provides everything the GCX streaming XQuery engine needs to
//! consume and produce XML without any external dependencies:
//!
//! * [`PushTokenizer`]: the sans-IO tokenizer core — caller-owned chunks
//!   in, borrowed [`Token`]s out (start tags with attributes, end tags,
//!   text, comments, CDATA, processing instructions), with byte-exact
//!   source positions, entity resolution and well-formedness enforcement
//!   (balanced tags, one document element, no character data outside it).
//!   It tokenizes a chunk it is lent where the chunk lies ([`Lent`]),
//!   suspends at any byte boundary, carrying only a token the chunk's end
//!   cut, and fast-forwards over a subtree its consumer rejected
//!   ([`PushTokenizer::skip_element`]).
//! * [`Tokenizer`]: the pull adapter over that core for any
//!   [`std::io::Read`] source.
//! * [`XmlWriter`]: a streaming serializer with automatic escaping and
//!   optional pretty-printing, used by the engine to emit query results as
//!   soon as they are available.
//! * [`SymbolTable`]: an interner mapping XML names to dense [`Symbol`] ids so
//!   the rest of the engine compares names by `u32` equality.
//! * [`escape`]: the escaping/unescaping primitives shared by both sides.
//! * [`grow`]: the one growth rule of a session's long-lived stores (the
//!   tokenizer's carry here, the buffer's payload store and role overflow
//!   and a lane's output in the engine): doubling under 64 KiB, an eighth
//!   above.
//!
//! The tokenizer is the "input stream" of the GCX architecture (Figure 2 of
//! the paper); the writer is its output side. Both are deliberately
//! allocation-light: the tokenizer's tokens borrow the input it was lent
//! (or, for a token the input's end cut, its carry), and it only
//! allocates when entity unescaping actually rewrites text.
//!
//! ```
//! use gcx_xml::{Tokenizer, Token};
//! let mut t = Tokenizer::from_str("<bib><book id='1'>x &amp; y</book></bib>");
//! let mut tags = Vec::new();
//! while let Some(tok) = t.next_token().unwrap() {
//!     if let Token::StartTag(s) = tok { tags.push(s.name.to_string()); }
//! }
//! assert_eq!(tags, ["bib", "book"]);
//! ```

mod doctype;
mod error;
pub mod escape;
pub mod grow;
mod pos;
pub mod push;
pub mod scan;
mod sym;
mod token;
mod tokenizer;
mod writer;

pub use doctype::{DoctypeError, DoctypeView};
pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use pos::TextPos;
pub use push::{Lent, PushTokenizer, Skipped, TokenStep};
pub use scan::{scan_boundaries, Boundary, ScanError, ScanEvent, ScanOutline};
pub use sym::{FxBuildHasher, FxHasher, SlotTable, Symbol, SymbolTable};
pub use token::{Attr, Attrs, StartTag, Token};
pub use tokenizer::Tokenizer;
pub use writer::{WriterOptions, XmlWriter};
