#![deny(unsafe_code)]
//! # gcx-memtrack — heap high-watermark tracking allocator
//!
//! The paper's Figure 5 reports "the high watermark of non-swapped memory
//! consumption" per engine run. This crate provides a drop-in global
//! allocator that wraps the system allocator with three atomic counters:
//! bytes currently allocated, the peak since the last reset, and the total
//! ever allocated. Benchmark binaries install it and reset the watermark
//! between runs:
//!
//! ```
//! // In a benchmark binary:
//! // #[global_allocator]
//! // static ALLOC: gcx_memtrack::TrackingAllocator = gcx_memtrack::TrackingAllocator::new();
//! gcx_memtrack::reset_peak();
//! let v = vec![0u8; 1 << 16];
//! drop(v);
//! assert!(gcx_memtrack::peak_bytes() >= (1 << 16) || gcx_memtrack::peak_bytes() == 0);
//! ```
//!
//! (The assertion is `||`-guarded in the doctest because the doctest binary
//! does not install the allocator; the unit tests do.)
//!
//! Overhead is a handful of relaxed atomic operations per allocation — low
//! enough to leave timing comparisons meaningful, but benchmark binaries
//! that only measure time should not install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that tracks live bytes and their peak.
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// Const constructor for `#[global_allocator]` position.
    pub const fn new() -> TrackingAllocator {
        TrackingAllocator
    }
}

impl Default for TrackingAllocator {
    fn default() -> Self {
        TrackingAllocator::new()
    }
}

fn on_alloc(size: usize) {
    let live = CURRENT.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    TOTAL.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // Lock-free peak update.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: delegates directly to `System`; the bookkeeping never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High watermark of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Total bytes ever allocated.
pub fn total_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Total number of allocation events (allocs + grow-side reallocs) ever
/// performed. The difference of two readings bounds the allocations a code
/// region performed — the steady-state "allocations per token ≈ 0"
/// assertions are built on this.
pub fn total_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Reset the high watermark to the current live volume. Call between runs.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Format a byte count the way the paper's table does (e.g. `1.2MB`).
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.1}GB", b / GB)
    } else if b >= MB {
        format!("{:.1}MB", b / MB)
    } else if b >= KB {
        format!("{:.0}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Install the allocator for the test binary so counters move.
    #[global_allocator]
    static ALLOC: TrackingAllocator = TrackingAllocator::new();

    // A single serial test: the counters are process-global, so a second
    // test thread allocating or freeing between two reads breaks the
    // inequalities below (the byte formatting is checked at the end for
    // that reason, not in a test of its own).
    #[test]
    fn tracks_allocations() {
        // Peak rises with a large allocation.
        reset_peak();
        let before = live_bytes();
        let v = vec![0u8; 1 << 20];
        assert!(peak_bytes() >= before + (1 << 20));
        assert!(live_bytes() >= before + (1 << 20));
        drop(v);
        assert!(live_bytes() < before + (1 << 20));

        // Total only ever grows.
        let t0 = total_bytes();
        let v2 = vec![1u8; 4096];
        assert!(total_bytes() >= t0 + 4096);
        drop(v2);
        assert!(total_bytes() >= t0 + 4096);

        // Allocation events are counted.
        let a0 = total_allocs();
        let v3 = vec![0u8; 64];
        assert!(total_allocs() > a0);
        drop(v3);

        // Realloc paths (Vec growth) keep live consistent.
        let mut grow = Vec::new();
        for i in 0..10_000u32 {
            grow.push(i);
        }
        let live_with = live_bytes();
        drop(grow);
        assert!(live_bytes() < live_with);

        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2KB");
        assert_eq!(fmt_bytes(1_258_291), "1.2MB");
        assert_eq!(fmt_bytes(2_147_483_648), "2.0GB");
    }
}
