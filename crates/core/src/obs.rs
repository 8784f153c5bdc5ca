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

/// Occupancy timeline stride (structural tokens) when telemetry is on
/// ([`crate::EngineOptions::telemetry`]) and no
/// [`crate::EngineOptions::timeline_every`] is set.
pub const DEFAULT_TIMELINE_EVERY: u64 = 1024;

/// A run's buffer-occupancy timeline: live nodes and live bytes, sampled
/// on the lane's token clock at the first charged token and then every
/// `every` tokens. A clock that jumps (a skipped subtree is charged at
/// once) takes every sample point it passes, at the occupancy that held
/// throughout. There is one sampler, the lane's clock (`Lane::tick`); a
/// run reports the timeline in [`crate::RunReport::timeline`].
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `(token, live buffered nodes)` samples in token order.
    pub points: Vec<(u64, u64)>,
    /// Live buffered bytes at each sample of `points`.
    pub bytes: Vec<u64>,
    /// Sampling stride (1 = every token).
    pub every: u64,
    /// The next sample point.
    next: u64,
}

impl Timeline {
    /// An empty timeline sampled every `every` tokens (at least 1).
    pub(crate) fn new(every: u64) -> Timeline {
        Timeline {
            points: Vec::new(),
            bytes: Vec::new(),
            every: every.max(1),
            next: 1,
        }
    }

    /// The token clock moved to `to` with `live` nodes of `bytes` bytes
    /// buffered since its last move: sample every point it passed.
    #[inline]
    pub(crate) fn record(&mut self, to: u64, live: u64, bytes: u64) {
        while self.next <= to {
            self.points.push((self.next, live));
            self.bytes.push(bytes);
            self.next = self.next.saturating_add(self.every);
        }
    }

    /// Highest buffered-node count over the recorded samples.
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|&(_, live)| live).max().unwrap_or(0)
    }

    /// `(token, live bytes)` samples in token order.
    pub fn live_bytes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let tokens = self.points.iter().map(|&(token, _)| token);
        tokens.zip(self.bytes.iter().copied())
    }
}

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
    /// VM task-frame timing by kind, hottest first.
    pub tasks: Vec<TaskObs>,
    /// Spans of the session's `feed` calls (empty for pull-mode runs).
    pub feed_spans: Vec<FeedSpan>,
    /// High watermark of the push tokenizer's window (spillover bytes
    /// held across chunk boundaries plus in-flight chunk bytes).
    pub tokenizer_window_peak: u64,
}
