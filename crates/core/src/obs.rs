//! Per-run engine telemetry: the observable form of the paper's central
//! claim. GCX's whole point is *dynamic buffer minimization*, so the
//! run-level telemetry is keyed to the buffer's lifecycle — how long
//! nodes stay resident between append and purge, how purges batch, and
//! which role kept nodes alive — plus VM task-frame timing to attribute
//! where evaluation time goes.
//!
//! Everything here is **off by default** and costs one null-pointer
//! check per hook when disabled ([`crate::EngineOptions::telemetry`]
//! gates it); when enabled, all storage is allocated once at session
//! start and the hot hooks only update fixed-bucket histograms.

use gcx_obs::Hist;

/// Live-bytes timeline sampling cadence (structural tokens) used when
/// telemetry is enabled via [`crate::EngineOptions::telemetry`].
pub const DEFAULT_TIMELINE_EVERY: u64 = 1024;

/// Telemetry for one role: how many instances were attached, signed
/// off, and how often a signOff on this role was the purge trigger.
/// "Which role kept nodes live" reads off `max_live` — the high
/// watermark of outstanding (attached but not yet signed-off)
/// instances.
#[derive(Debug, Clone)]
pub struct RoleObs {
    /// Display name of the role (the paper's `r3`, `r5`, ...).
    pub role: String,
    /// Role instances attached at append time.
    pub appends: u64,
    /// Role instances removed by signOff execution.
    pub signoffs: u64,
    /// SignOffs of this role that directly triggered a purge.
    pub purge_triggers: u64,
    /// High watermark of outstanding instances.
    pub max_live: u64,
}

/// Cumulative time spent in one kind of VM task frame.
#[derive(Debug, Clone)]
pub struct TaskObs {
    /// Task-frame kind (`"ForLoop"`, `"Cond"`, ...).
    pub name: &'static str,
    /// Frames of this kind executed.
    pub count: u64,
    /// Total nanoseconds across those frames.
    pub nanos: u64,
}

/// One feed-call span (for Chrome-trace output): when the chunk arrived
/// on the process clock, how long the engine spent consuming it, and
/// how many bytes it carried.
#[derive(Debug, Clone, Copy)]
pub struct FeedSpan {
    /// Start, µs on the [`gcx_obs::now_micros`] clock.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Chunk size in bytes.
    pub bytes: u64,
}

/// The per-run observability report, carried by
/// [`crate::RunReport::obs`] when [`crate::EngineOptions::telemetry`]
/// is on; the CLI writes it into `--stats-json`.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Append→purge residency of purged nodes, in structural tokens.
    pub residency_tokens: Hist,
    /// Sizes (deterministic `node_bytes`) of purged nodes.
    pub purged_node_bytes: Hist,
    /// Nodes reclaimed per purge cascade (`free_subtree` batch size).
    pub purge_batch: Hist,
    /// Purge cascades by trigger: a signOff role decrement.
    pub purges_on_signoff: u64,
    /// Purge cascades triggered by a node closing with no role left in
    /// its subtree.
    pub purges_on_close: u64,
    /// Purge cascades triggered by an evaluator unpin.
    pub purges_on_unpin: u64,
    /// Per-role lifecycle counters, in role-id order.
    pub roles: Vec<RoleObs>,
    /// `(token, live_bytes)` samples of the buffer's byte occupancy.
    pub live_bytes_timeline: Vec<(u64, u64)>,
    /// Sampling cadence of the timeline, in tokens.
    pub timeline_every: u64,
    /// VM task-frame timing by kind, hottest first.
    pub tasks: Vec<TaskObs>,
    /// Spans of the session's `feed` calls (empty for pull-mode runs).
    pub feed_spans: Vec<FeedSpan>,
    /// High watermark of the push tokenizer's window (spillover bytes
    /// held across chunk boundaries plus in-flight chunk bytes).
    pub tokenizer_window_peak: u64,
}
