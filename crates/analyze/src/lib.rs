#![deny(unsafe_code)]
//! # gcx-analyze — static streamability & buffer-bound analysis
//!
//! GCX's premise is that the query alone decides what the runtime must
//! buffer: projection paths and signOff placement are computed before
//! any data arrives. This crate completes that story by *saying so up
//! front*: a pass over the optimized [`gcx_ir::Program`] assigns every
//! binding and buffer-feeding construct a **streamability class** —
//!
//! * [`StreamClass::Constant`] — O(1): the query touches no
//!   document-dependent state;
//! * [`StreamClass::PerItem`] — bounded by one binding's subtree: each
//!   iteration's nodes are released before the next;
//! * [`StreamClass::Subtree`] — proportional to a selected region of
//!   the document (a top-level output copy, a counted region);
//! * [`StreamClass::Document`] — whole-document retention: value joins,
//!   `sum`/`avg` over unbounded sequences, positional predicates on
//!   document-level paths, loop bodies that re-enter the root.
//!
//! Classes form a lattice (`Constant < PerItem < Subtree < Document`);
//! the query's class is the join of its contributions, and each
//! Document- or Subtree-forcing construct is reported as a structured
//! [`GcxLint`]. An optional DTD tightens `Subtree` (and aggregate
//! `Document`) to `PerItem` where content-model cardinality proves the
//! selected region has constant size ([`GcxLint`] code `GCX-DTD`); that
//! proof is `gcx-schema`'s (`Dtd::path_is_bounded`), asked of a plan's
//! compiled steps.
//!
//! **Soundness contract** (enforced by `tests/analyze_soundness.rs` at
//! the workspace root): the static class must *dominate* the observed
//! `peak_live` growth — a `Constant`/`PerItem` query's measured peak
//! must not scale with document size, for every paper query, document
//! size and chunking. The classifier may be loose (classify a streaming
//! query as `Document`), never tight.
//!
//! The [`shard`] module derives gcx-par's partition-parallel safety
//! from the same machinery: a `Document`-class query is never
//! shard-safe (the class verdict short-circuits the structural walk),
//! and the remaining structural checks reuse the shared
//! [`gcx_ir::IrVisitor`] traversal. It serves only the benchmark's
//! `par_shards` workload (see the module docs).

mod classify;
pub mod shard;

pub use classify::{analyze_program, BindingReport, GcxLint, QueryAnalysis, Severity, StreamClass};
