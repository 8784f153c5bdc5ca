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
//! * A [`BatchSession`] (sans-IO; [`run`] drives one over a `Read`) steps
//!   the pass in **lock-step**: for every token the merged decision is
//!   made once and each query's
//!   [`gcx_core::Lane`] that keeps the node appends it — by reference,
//!   with its own document ordinals — to its own buffer and resumes its
//!   evaluator when the node is what it was waiting for. There are no
//!   threads, channels or owned events; memory is the sum of the
//!   per-query buffers. A lane is the evaluation core a stand-alone
//!   `EvalSession` drives — same type, same calls — so each query's role
//!   multiset, signOff execution and therefore *buffer minimality* are
//!   preserved verbatim. What this crate adds is only what a batch has
//!   and a single query has not: the merged matcher, a skip depth per
//!   lane, and the translation of the batch's symbols into each lane's.
//! * [`BatchReport`] aggregates throughput, per-query buffer statistics
//!   and the share factor (work that would have been repeated N× but ran
//!   once).
//!
//! Every query's output is byte-identical to a standalone
//! [`gcx_core::run`] over the same document — asserted by the equivalence
//! and property suites in `tests/`.

mod driver;

pub use driver::{run, run_batch, BatchOptions, BatchReport, BatchSession, QueryRun};
