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
//! 3. [`CompiledPaths`] + [`StreamMatcher`] form the runtime matcher: an
//!    NFA over interned names that the stream preprojector runs while
//!    reading input. It decides which tokens are buffered at all and which
//!    role instances each buffered node receives — with multiplicities,
//!    because descendant axes can assign one role to one node through
//!    several derivations.

mod analysis;
mod matcher;
mod memo;
mod reach;
mod roles;

pub use analysis::{analyze, Analysis};
pub use matcher::{
    Automaton, CompiledPaths, QueryTag, StepView, StreamMatcher, TaggedMatcher, TaggedOutcome,
    TaggedPaths, TaggedRole, TestView,
};
pub use reach::ReachFilter;
pub use roles::{Anchor, RoleInfo, RoleOrigin, RoleTable};
