#![deny(unsafe_code)]
//! # gcx-ir — the compiled query program
//!
//! GCX's whole premise is that buffer minimization is decided at *compile
//! time*: the static rewriting inserts signOff statements before any data
//! arrives. This crate finishes that compilation pipeline by **lowering**
//! the normalized, signoff-rewritten query into a flat, index-based
//! [`Program`] that the runtime executes directly:
//!
//! ```text
//! parse ─► normalize ─► analyze/rewrite ─► lower ─► execute
//! (gcx-query)           (gcx-projection)   (here)   (gcx-core)
//! ```
//!
//! A [`Program`] is one arena of instructions ([`Instr`]: for-loops,
//! conditions, signOffs, output ops) plus
//!
//! * a pre-compiled [`EvalStep`] table shared by every path the evaluator
//!   walks (the [`PathPlan`] table indexes into it). The step type is
//!   `gcx-projection`'s, re-exported here: the stream matcher runs the
//!   same steps, compiled by the same [`EvalStep::compile`];
//! * the pre-compiled projection-NFA paths
//!   ([`gcx_projection::CompiledPaths`]) the stream preprojector runs;
//! * a **pre-interned symbol table**: every name the query mentions is
//!   interned once, at compile time. A run clones this table as its
//!   starting table — the query's symbols are thereby mapped into the
//!   stream tokenizer's table once at startup, and the evaluator performs
//!   zero interning and zero step lowering afterwards.
//!
//! The program is immutable after [`Program::compile`] and `Send + Sync`,
//! so one compiled artifact is shared across threads: the HTTP service's
//! registry stores it once per query, the multi-query driver hands it to
//! every worker, and all three engine configurations (gcx /
//! projection-only / full-buffering) execute the *same* program under
//! different execution options.

mod lower;
mod optimize;
mod program;
mod walk;

pub use gcx_projection::{EAxis, ETest, EvalStep};
pub use optimize::{cost_estimate, optimize, OptReport, PassStat};
pub use program::{
    fmt_number, AttrPlan, CondId, CondIr, Instr, InstrId, JoinPlan, OperandId, OperandIr, PathId,
    PathPlan, PlanRoot, Program, ProgramStats, StrId,
};
pub use walk::{walk, walk_from, IrVisitor, PathUse, WalkCtx};

/// Compile-time assertion that the shared artifact really is shareable.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Program>();
