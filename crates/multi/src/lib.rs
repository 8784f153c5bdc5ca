#![deny(unsafe_code)]
//! # gcx-multi — the batch face's old path
//!
//! The shared-stream batch lives in [`gcx_core::batch`]; these re-exports
//! keep the old crate path working until the repository benchmark, which
//! still imports it, moves off.

pub use gcx_core::batch::{run, run_batch, BatchOptions, BatchReport, BatchSession, QueryRun};
