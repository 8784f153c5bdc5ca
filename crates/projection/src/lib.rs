#![deny(unsafe_code)]
//! # gcx-projection — static analysis for the GCX engine
//!
//! This crate implements the compile-time half of *active garbage
//! collection* (Schmidt, Scherzinger, Koch, ICDE'07; demonstrated in the
//! VLDB'07 GCX paper):
//!
//! 1. [`analyze`] walks a normalized query and derives its **projection
//!    paths**. Every path defines a **role** — "a metaphor for the future
//!    relevance of a node". For the paper's running example the derived
//!    roles are exactly its `r1`–`r7`.
//! 2. The same pass rewrites the query, inserting **`signOff`
//!    statements** at preemption points: the latest-safe, earliest-possible
//!    moments at which buffered nodes lose role instances. For *unique*
//!    loops (bodies that run exactly once per bound node) the signOff sits
//!    at the end of that loop body, as in the paper; for re-executed loops
//!    (e.g. the inner side of a join like XMark Q8) the signOff is anchored
//!    at the nearest enclosing unique context so roles are never removed
//!    while a later re-iteration still needs the nodes.
//! 3. [`CompiledPaths`], merged into [`TaggedPaths`] and prepared as an
//!    [`Automaton`], run as the [`TaggedMatcher`]: an NFA over interned
//!    names that the stream preprojector (`gcx-core`'s driver) runs while
//!    reading input, for one query or a batch of them. It decides which
//!    tokens are buffered at all and which role instances each buffered
//!    node receives — with multiplicities, because descendant axes can
//!    assign one role to one node through several derivations — and,
//!    below a frame, what the driver may pass without showing it
//!    ([`Below`]).
//!
//! Its paths are made of [`EvalStep`]s, the one compiled form of a path
//! step: `gcx-ir` lowers the evaluator's paths into the same type (and
//! re-exports it), and `gcx-schema` reads the matcher's steps in place.

mod analysis;
mod matcher;
mod memo;
mod reach;
mod roles;
mod step;

pub use analysis::{analyze, Analysis};
pub use matcher::{
    Automaton, CompiledPaths, QueryTag, StreamMatcher, TaggedMatcher, TaggedPaths, TaggedRole,
};
pub use memo::Below;
pub use reach::ReachFilter;
pub use roles::{Anchor, RoleInfo, RoleOrigin, RoleTable};
pub use step::{EAxis, ETest, EvalStep};
