#![deny(unsafe_code)]
//! # gcx-obs — observability primitives for the GCX system
//!
//! Std-only building blocks shared by every layer that wants to be
//! observable, designed around one constraint: **zero cost when off**.
//! Nothing in this crate allocates on the hot path — histograms are
//! fixed-bucket arrays allocated once, and every "is observability on?"
//! check in the engine is a null-pointer test on an `Option<Box<_>>`.
//!
//! * [`Hist`] — single-threaded fixed-bucket histogram (per-run engine
//!   telemetry: buffer residency, purge-batch sizes).
//! * [`AtomicHist`] / [`Counter`] — thread-safe variants for the server
//!   (request latency, buffer peaks), rendered as Prometheus text.
//! * [`json`] — the one JSON writer: `--stats-json`, `GET /stats` and
//!   Chrome traces are written through it.
//! * [`prom`] — hand-rolled Prometheus text-exposition helpers
//!   (`# HELP`/`# TYPE` lines, label escaping, cumulative `le` buckets).
//! * [`chrome`] — Chrome trace-event builder (Perfetto-loadable `"X"`
//!   duration events and `"C"` counter tracks).
//! * [`trace_id`] — cheap unique request ids (no external RNG).

pub mod chrome;
pub mod json;
pub mod prom;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotonic clock origin: every timestamp this crate hands
/// out is microseconds since the first call, so spans from different
/// threads land on one Perfetto timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process observability epoch (monotonic).
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Bucket upper bounds for byte-sized measurements (64B .. 256MB).
pub const BYTE_BUCKETS: &[u64] = &[
    64,
    256,
    1024,
    4 * 1024,
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
    16 * 1024 * 1024,
    64 * 1024 * 1024,
    256 * 1024 * 1024,
];

/// Bucket upper bounds for token-distance measurements (how many
/// structural tokens a node stayed resident between append and purge).
pub const TOKEN_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 512, 2048, 8192, 65536, 1048576];

/// Bucket upper bounds for small cardinalities (purge-batch sizes).
pub const COUNT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096];

/// Bucket upper bounds for durations in microseconds (1µs .. 60s).
pub const LATENCY_US_BUCKETS: &[u64] = &[
    1, 10, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
    60_000_000,
];

/// Single-threaded fixed-bucket histogram. One `Vec` allocated at
/// construction; [`Hist::observe`] is a branchless-off-the-end bucket
/// scan plus three adds — safe inside the engine's no-alloc token loop.
#[derive(Debug, Clone)]
pub struct Hist {
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Hist {
    /// A histogram over `bounds` (ascending upper bounds; an implicit
    /// `+Inf` bucket is appended).
    pub fn new(bounds: &'static [u64]) -> Hist {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Hist {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one. Requires identical bucket
    /// bounds (all engine histograms use the shared static bound sets,
    /// so shard reports merge without rebinning).
    pub fn merge(&mut self, other: &Hist) {
        assert!(
            std::ptr::eq(self.bounds, other.bounds) || self.bounds == other.bounds,
            "merging histograms with different bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A relaxed atomic counter/gauge with saturating decrement — safe to
/// bump from any thread, never wraps below zero.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement: a gauge that would go negative under a
    /// racy interleaving pins at zero instead of wrapping to 2^64-1.
    #[inline]
    pub fn dec_saturating(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Raise to at least `n` (high-watermark gauges).
    #[inline]
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Thread-safe fixed-bucket histogram (relaxed atomics): request
/// latencies, per-eval buffer peaks. Allocated once at server startup.
#[derive(Debug)]
pub struct AtomicHist {
    bounds: &'static [u64],
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    /// A histogram over `bounds` (ascending; implicit `+Inf` appended).
    pub fn new(bounds: &'static [u64]) -> AtomicHist {
        AtomicHist {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Append this histogram in Prometheus text form: cumulative `le`
    /// buckets plus `_sum` and `_count`. `labels` are extra label pairs
    /// applied to every sample line (on top of `le`).
    pub fn render_prom(&self, out: &mut String, name: &str, labels: &[(&str, &str)]) {
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            prom::sample_with_le(out, name, labels, &bound.to_string(), cumulative);
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        prom::sample_with_le(out, name, labels, "+Inf", cumulative);
        prom::sample(out, &format!("{name}_sum"), labels, self.sum());
        prom::sample(out, &format!("{name}_count"), labels, self.count());
    }
}

/// A 16-hex-digit unique id for request tracing. No external RNG: wall
/// time, a process-wide counter, and the thread id feed one splitmix64
/// round, which is plenty for *distinguishing* requests (these are ids,
/// not secrets).
pub fn trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let tid = {
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
    let mut z = nanos
        .wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(tid.rotate_left(32));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    format!("{z:016x}")
}

/// True when `id` is usable as a propagated trace id: 1..=64 chars of
/// `[A-Za-z0-9._-]` — header-, log- and JSON-safe without escaping.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_stats() {
        let mut h = Hist::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 5000);
        assert_eq!(h.max(), 5000);
        // ≤10 → bucket 0 (twice), ≤100 → bucket 1 (twice), ≤1000 → none,
        // overflow → one.
        assert_eq!(h.counts(), &[2, 2, 0, 1]);
    }

    #[test]
    fn atomic_hist_renders_cumulative_le() {
        let h = AtomicHist::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let mut out = String::new();
        h.render_prom(&mut out, "x_us", &[("outcome", "2xx")]);
        assert!(
            out.contains("x_us_bucket{outcome=\"2xx\",le=\"10\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("x_us_bucket{outcome=\"2xx\",le=\"100\"} 2\n"),
            "{out}"
        );
        assert!(
            out.contains("x_us_bucket{outcome=\"2xx\",le=\"+Inf\"} 3\n"),
            "{out}"
        );
        assert!(out.contains("x_us_sum{outcome=\"2xx\"} 555\n"), "{out}");
        assert!(out.contains("x_us_count{outcome=\"2xx\"} 3\n"), "{out}");
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.dec_saturating();
        assert_eq!(c.get(), 0, "decrement below zero must pin at zero");
        c.inc();
        c.add(4);
        c.dec_saturating();
        assert_eq!(c.get(), 4);
        c.raise_to(10);
        c.raise_to(7);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn trace_ids_are_unique_and_valid() {
        let a = trace_id();
        let b = trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(valid_trace_id(&a));
        assert!(valid_trace_id("client-supplied_id.01"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id(&"x".repeat(65)));
        assert!(!valid_trace_id("quote\"breaks\"headers"));
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }
}
