//! Deterministic aggregation of per-shard [`RunReport`]s.
//!
//! The aggregate answers the same questions the serial report does, with
//! partition semantics: work counters (tokens, allocations, purges,
//! trigger counts, feed calls) are *sums* over shards; capacity
//! watermarks (buffer peaks, pending-byte and tokenizer-window highs,
//! per-role liveness) are *maxima* — shards hold their buffers
//! concurrently but independently, so the per-shard maximum is the bound
//! the differential suite compares against the serial peak. Histograms
//! merge bucket-wise ([`gcx_obs::Hist::merge`]). Everything is a fold in
//! shard (= document) order over values the shards computed
//! deterministically, so the aggregate is itself deterministic.

use gcx_core::{ObsReport, RoleObs, RunReport, TaskObs};

/// Fold shard reports (document order) into one aggregate report.
/// `output_bytes` is the merged output's length — shard outputs overlap
/// on the static prefix/suffix, so their `output_bytes` don't sum.
pub fn aggregate_reports(shards: &[RunReport], output_bytes: u64) -> RunReport {
    assert!(!shards.is_empty(), "no shard reports to aggregate");
    let mut agg = shards[0].clone();
    agg.output_bytes = output_bytes;
    // The timeline is a whole-stream measurement; shard timelines don't
    // splice into one document clock. (Only telemetry's comes here: a run
    // that asks for one is serial.)
    if let Some(timeline) = agg.timeline.as_mut().filter(|_| shards.len() > 1) {
        timeline.points.clear();
        timeline.bytes.clear();
    }
    for r in &shards[1..] {
        agg.tokens += r.tokens;
        agg.buffer.live += r.buffer.live;
        agg.buffer.peak_live = agg.buffer.peak_live.max(r.buffer.peak_live);
        agg.buffer.allocated += r.buffer.allocated;
        agg.buffer.purged += r.buffer.purged;
        agg.buffer.live_bytes += r.buffer.live_bytes;
        agg.buffer.peak_live_bytes = agg.buffer.peak_live_bytes.max(r.buffer.peak_live_bytes);
        agg.feed_calls += r.feed_calls;
        agg.max_pending_bytes = agg.max_pending_bytes.max(r.max_pending_bytes);
        match (&mut agg.obs, &r.obs) {
            (Some(a), Some(b)) => merge_obs(a, b),
            (a, _) => *a = None,
        }
        match (&mut agg.schema, &r.schema) {
            (Some(a), Some(b)) => {
                // The static analysis counters are identical per shard
                // (same program, same DTD); the runtime triggers sum.
                a.reach_cuts += b.reach_cuts;
                a.early_scan_ends += b.early_scan_ends;
                a.early_signoffs += b.early_signoffs;
            }
            (a, _) => *a = None,
        }
    }
    agg
}

fn merge_obs(a: &mut ObsReport, b: &ObsReport) {
    a.residency_tokens.merge(&b.residency_tokens);
    a.purged_node_bytes.merge(&b.purged_node_bytes);
    a.purge_batch.merge(&b.purge_batch);
    a.purges_on_signoff += b.purges_on_signoff;
    a.purges_on_close += b.purges_on_close;
    a.purges_on_unpin += b.purges_on_unpin;
    merge_roles(&mut a.roles, &b.roles);
    merge_tasks(&mut a.tasks, &b.tasks);
    a.feed_spans.extend_from_slice(&b.feed_spans);
    a.tokenizer_window_peak = a.tokenizer_window_peak.max(b.tokenizer_window_peak);
}

fn merge_roles(a: &mut Vec<RoleObs>, b: &[RoleObs]) {
    // Shards share the program but omit roles they never saw, so the
    // lists are (possibly different) subsequences of the same role-id
    // ordering: merge by name, then restore role-id order.
    for rb in b {
        match a.iter_mut().find(|ra| ra.role == rb.role) {
            Some(ra) => {
                ra.appends += rb.appends;
                ra.signoffs += rb.signoffs;
                ra.purge_triggers += rb.purge_triggers;
                ra.max_live = ra.max_live.max(rb.max_live);
            }
            None => a.push(rb.clone()),
        }
    }
    a.sort_by_key(|r| role_ord(&r.role));
}

/// Numeric role order from the display name (`r1`, `r2`, ...).
fn role_ord(name: &str) -> (u64, String) {
    match name.strip_prefix('r').and_then(|d| d.parse::<u64>().ok()) {
        Some(n) => (n, String::new()),
        None => (u64::MAX, name.to_string()),
    }
}

fn merge_tasks(a: &mut Vec<TaskObs>, b: &[TaskObs]) {
    for tb in b {
        match a.iter_mut().find(|ta| ta.name == tb.name) {
            Some(ta) => {
                ta.count += tb.count;
                ta.nanos += tb.nanos;
            }
            None => a.push(tb.clone()),
        }
    }
    // Keep the serial report's "hottest first" convention.
    a.sort_by(|x, y| y.nanos.cmp(&x.nanos).then(x.name.cmp(y.name)));
}
