#![deny(unsafe_code)]
//! # gcx-multi — multi-query shared-stream evaluation
//!
//! GCX minimizes buffers for *one* query over *one* stream. A production
//! deployment serves many outstanding queries against the same feed — and
//! tokenizing plus projection-matching the stream once **per query** is
//! then the dominant redundant cost. This crate evaluates a whole batch of
//! compiled queries in a **single pass** over the input:
//!
//! ```text
//!                      ┌───────────────┐ borrowed token   ┌─────────────────────┐
//!   XML ──► Tokenizer ─► TaggedMatcher ├─ + lane 0 roles ─► Lane 0: BufferTree  │──► out 0
//!            (once)    │ (union NFA,   │                  │         + evaluator │
//!                      │ tagged roles) ├─ + lane 1 roles ─► Lane 1: BufferTree  │──► out 1
//!                      └───────────────┘                  │         + evaluator │
//!                        one thread steps everything      └─────────────────────┘
//! ```
//!
//! * [`BatchSession::new`] unions the per-query projection paths
//!   ([`gcx_projection::TaggedPaths`]) into one automaton whose
//!   [`gcx_projection::TaggedMatcher`] matches each token **exactly once**
//!   no matter how many queries want it; element outcomes carry per-query
//!   tags.
//! * A [`BatchSession`] (sans-IO; [`run`] drives one over a `Read`) is the
//!   N-lane face of [`gcx_core::Driver`], the loop a stand-alone
//!   `EvalSession` is the one-lane face of: each query's
//!   [`gcx_core::Lane`] that keeps a node appends it — by reference, with
//!   its own document ordinals — to its own buffer and resumes its
//!   evaluator when the node is what it was waiting for, and what no query
//!   needs is passed in bulk, as for one query. Each query's role
//!   multiset, signOff execution and therefore *buffer minimality* are
//!   preserved verbatim; memory is the sum of the per-query buffers. Each
//!   query's output can be drained as it is produced
//!   ([`BatchSession::take_output`]).
//! * [`BatchReport`] aggregates throughput, per-query buffer statistics
//!   and the share factor (work that would have been repeated N× but ran
//!   once).
//!
//! Every query's output is byte-identical to a standalone
//! [`gcx_core::run`] over the same document — asserted by the equivalence
//! and property suites in `tests/`.

mod driver;

pub use driver::{run, run_batch, BatchOptions, BatchReport, BatchSession, QueryRun};
