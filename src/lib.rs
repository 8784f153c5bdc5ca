#![deny(unsafe_code)]
//! # gcx — Dynamic Buffer Minimization in Streaming XQuery Evaluation
//!
//! A Rust reproduction of the **GCX** system (Koch, Scherzinger, Schmidt,
//! VLDB 2007): a main-memory streaming XQuery engine whose buffer manager
//! performs *active garbage collection*. Static analysis derives projection
//! paths (**roles**) from the query and inserts **signOff** statements at
//! preemption points; at runtime, buffered nodes lose role instances as
//! evaluation progresses and are purged the moment they become irrelevant.
//!
//! ## Quickstart
//!
//! ```
//! use gcx::{CompiledQuery, EngineOptions};
//!
//! let query = CompiledQuery::compile(
//!     "<books>{ for $b in /bib/book return $b/title }</books>",
//! ).unwrap();
//!
//! let input = "<bib><book><title>Streams</title><price>10</price></book></bib>";
//! let mut out = Vec::new();
//! let report = gcx::run(&query, &EngineOptions::gcx(), input.as_bytes(), &mut out).unwrap();
//!
//! assert_eq!(out, b"<books><title>Streams</title></books>");
//! assert_eq!(report.buffer.live, 0); // the buffer drained completely
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`xml`] | streaming tokenizer, writer, escaping, interning |
//! | [`query`] | lexer, parser, AST, normalizer for the XQuery fragment |
//! | [`projection`] | roles, projection paths, signOff insertion, stream NFA |
//! | [`ir`] | the lower stage: flat, shareable compiled-query programs |
//! | [`schema`] | DTD model: projection pruning, reachability, sibling-order cutoffs |
//! | [`analyze`] | static streamability classes, buffer-bound lints, shard safety |
//! | [`core`](mod@core) | buffer + active GC, the evaluation core (`Lane`), program executor, sessions |
//! | [`dom`] | full-buffering DOM baseline (differential oracle) |
//! | [`xmark`] | XMark-like generator + the paper's benchmark queries |
//! | [`memtrack`] | heap high-watermark allocator for the experiments |
//!
//! The engine comes in three configurations spanning the paper's comparison
//! axis: [`EngineOptions::gcx`] (projection + active GC),
//! [`EngineOptions::projection_only`] (static projection, no purging) and
//! [`EngineOptions::full_buffering`].
//!
//! ## Sans-IO sessions
//!
//! The engine core performs no I/O of its own: [`run`] is a thin blocking
//! wrapper over the push-driven [`EvalSession`] ([`CompiledQuery::session`]),
//! which accepts document bytes chunk by chunk as they arrive and lets the
//! caller drain output between chunks — see `examples/push_session.rs`.

pub use gcx_core::{
    run, run_query, BufferStats, CompiledQuery, Emitted, EngineError, EngineMode, EngineOptions,
    EvalSession, RunReport, SchemaReport, Timeline,
};

/// The streaming XML substrate (tokenizer, writer, interning).
pub mod xml {
    pub use gcx_xml::*;
}

/// The query frontend (parser, AST, normalizer).
pub mod query {
    pub use gcx_query::*;
}

/// Static analysis (roles, projection paths, signOff insertion).
pub mod projection {
    pub use gcx_projection::*;
}

/// The lower stage: flat, shareable compiled-query programs.
pub mod ir {
    pub use gcx_ir::*;
}

/// DTD model + schema-driven analyses (projection pruning,
/// descendant reachability, sibling-order cutoffs).
pub mod schema {
    pub use gcx_schema::*;
}

/// Static streamability & buffer-bound analysis, lints, shard safety.
pub mod analyze {
    pub use gcx_analyze::*;
}

/// The runtime (buffer, preprojector, evaluator, engine API).
pub mod core {
    pub use gcx_core::*;
}

/// The DOM baseline.
pub mod dom {
    pub use gcx_dom::*;
}

/// Workload generation (XMark-like documents, paper queries).
pub mod xmark {
    pub use gcx_xmark::*;
}

/// Multi-query shared-stream evaluation (one parse, N queries).
pub mod multi {
    pub use gcx_multi::*;
}

/// Partition-parallel evaluation: shard one document across cores.
pub mod par {
    pub use gcx_par::*;
}

/// Heap high-watermark tracking.
pub mod memtrack {
    pub use gcx_memtrack::*;
}
