#![deny(unsafe_code)]
//! # gcx-analyze — static streamability & buffer-bound analysis
//!
//! GCX's premise is that the query alone decides what the runtime must
//! buffer: projection paths and signOff placement are computed before
//! any data arrives. This crate completes that story by *saying so up
//! front*: it reads the roles the optimized [`gcx_ir::Program`] runs and
//! assigns the query a **streamability class** —
//!
//! * [`StreamClass::Constant`] — O(1): the query touches no
//!   document-dependent state;
//! * [`StreamClass::PerItem`] — bounded by the largest bound item: each
//!   iteration's nodes are released before the next, or one released
//!   match is held at a time;
//! * [`StreamClass::Subtree`] — proportional to a selected region of
//!   the document (a top-level output copy, a counted region, the one
//!   item of a singleton binding);
//! * [`StreamClass::Document`] — whole-document retention: value joins,
//!   `sum`/`avg` over unbounded sequences, positional predicates on
//!   document-level paths, loop bodies that re-enter the root, a loop
//!   over the document element that holds its item.
//!
//! Classes form a lattice (`Constant < PerItem < Subtree < Document`).
//! Each role contributes its *extent* (one node, or the node's subtree
//! when its path ends in `descendant-or-self::node()`) over its *holding
//! scope*: one match for a released root value use that is the query's
//! first reader; otherwise one item of the variable whose iteration signs
//! it off, raised to the enclosing item at each level where a `for` is
//! not the first reader of its parent body, up to the whole document
//! (ARCHITECTURE.md, "The class lattice"). The query's class is the
//! maximum over roles, with floors for the constructs that hold the
//! document whatever their roles; each Document- or Subtree-forcing
//! construct is reported as a structured [`GcxLint`]. An optional DTD
//! gives cardinalities (`gcx-schema`'s `Dtd::occurs`): a binding with
//! one match is a singleton, whose one item is its whole region, and a
//! region the content models bound (`Dtd::path_is_bounded`) tightens to
//! `PerItem` ([`GcxLint`] code `GCX-DTD`).
//!
//! **Soundness contract** (enforced by `tests/analyze_soundness.rs` at
//! the workspace root): the static class must *dominate* the observed
//! `peak_live` growth — a `Constant`/`PerItem` query's measured peak
//! must stay within its largest bound item, for every paper query,
//! document size and chunking. The classifier may be loose (classify a
//! streaming query as `Document`), never tight.
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
