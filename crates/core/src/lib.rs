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
//! stage is a resumable state machine over pushed stream events, and one
//! driver composes them — a tokenizer and the stream preprojector (the
//! projection NFA) feeding N ≥ 1 evaluation cores in lock-step off a
//! single scan. It has two faces, both push-driven (`feed` bytes in,
//! drain output out, suspend at any byte boundary):
//!
//! * [`EvalSession`] — one query over one document; [`run`] is the
//!   blocking wrapper over it;
//! * [`batch::BatchSession`] — N queries over one document in a single
//!   pass, each query's output byte-identical to its stand-alone run;
//!   [`batch::run`] is the blocking wrapper over it.
//!
//! Either way a subtree the projection refuses is never tokenized: the
//! driver has the tokenizer fast-forward through it
//! (`gcx_xml::PushTokenizer::skip_element`). Behind the faces:
//!
//! * the driver (`driver`, internal) — tokenizes, matches, and shows each
//!   lane what its query keeps, passing what no lane needs in bulk;
//! * the lane (`lane`, internal) — the one evaluation core, everything
//!   downstream of the keep/skip decision: buffer writes with document
//!   ordinals, the byte budget, resuming the evaluator when what it waits
//!   for arrived, failure capture, report assembly;
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
//! [`EngineOptions::mode`] selects between the full GCX strategy
//! (projection + active GC), projection-only, and full buffering — the
//! comparison axis of the paper's evaluation ([`EngineMode`]).

pub mod batch;
pub mod buffer;
mod cursor;
mod driver;
mod engine;
mod error;
mod eval;
mod lane;
pub mod obs;
pub mod session;

pub use buffer::{AttrBuf, BufferStats, BufferTree, NodeId};
pub use engine::{
    run, run_query, CompiledQuery, EngineMode, EngineOptions, RunReport, SchemaReport,
};
pub use error::EngineError;
pub use obs::{FeedSpan, ObsReport, RoleObs, TaskObs, Timeline};
pub use session::{Emitted, EvalSession};
