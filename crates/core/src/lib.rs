#![deny(unsafe_code)]
//! # gcx-core — the GCX streaming XQuery runtime
//!
//! The runtime half of the GCX system (VLDB'07): a main-memory streaming
//! XQuery engine whose buffer manager performs **active garbage
//! collection** — nodes are purged from the buffer the moment static roles
//! and dynamic signOff execution prove they are irrelevant to the rest of
//! the evaluation.
//!
//! The architecture mirrors the paper's Figure 2, built sans-IO: every
//! stage is a resumable state machine over pushed stream events, and
//! [`EvalSession`] is their composition — the push-driven public API
//! (`feed` bytes in, drain output out, suspend at any byte boundary).
//! [`run`] is the blocking wrapper over it, and a [`Lane`] is the same
//! buffer + evaluator pair with the tokenizer and the matcher outside:
//! one query of a batch that `gcx-multi` steps in lock-step off a single
//! shared scan.
//!
//! * [`Projector`] — runs the projection NFA over pushed tokens, copies
//!   matched ones into the buffer;
//! * [`buffer::BufferTree`] — the buffer + role bookkeeping +
//!   garbage collector;
//! * the evaluator (`eval`, internal) — executes the rewritten query as
//!   an explicit continuation stack, suspending on the buffer manager
//!   for data, issuing signOffs.
//!
//! ## Quickstart
//!
//! ```
//! let out = gcx_core::run_query(
//!     "<books> { for $b in /bib/book return $b/title } </books>",
//!     "<bib><book><title>Stream Processing</title><price>10</price></book></bib>",
//! ).unwrap();
//! assert_eq!(out, "<books><title>Stream Processing</title></books>");
//! ```
//!
//! ## Configurations
//!
//! [`EngineOptions`] selects between the full GCX strategy
//! (projection + active GC), projection-only, and full buffering — the
//! comparison axis of the paper's evaluation.

pub mod buffer;
pub mod cursor;
mod engine;
mod error;
mod eval;
mod lane;
pub mod obs;
pub mod session;
pub mod stream;

pub use buffer::{AttrBuf, BufferStats, BufferTree, NodeId};
pub use engine::{run, run_query, CompiledQuery, EngineOptions, RunReport, SchemaReport};
pub use error::EngineError;
pub use lane::{Lane, ScanFacts, SharedStart};
pub use obs::{FeedSpan, ObsReport, RoleObs, TaskObs};
pub use session::{Emitted, EvalSession};
pub use stream::{Projector, Timeline};
