//! A counting [`GlobalAlloc`] wrapper for allocation observability.
//!
//! The benchmark binaries install [`CountingAllocator`] as the global
//! allocator (see the crate root): every `alloc`/`realloc`/`alloc_zeroed`
//! bumps a process-wide count and byte total with relaxed atomics.
//! Experiments snapshot the counters around a phase ([`Phase`]) and
//! export the deltas as `…alloc.count` / `…alloc.bytes` gauges into
//! `metrics.json`, giving every PR an allocation trajectory alongside
//! events/sec.
//!
//! Methodology notes:
//! * counts are *allocator calls*, not live bytes — `dealloc` is
//!   deliberately not tracked, because the hot-loop question is "how
//!   often do we hit the allocator", not "what is resident";
//! * `realloc` counts once with the new size (a grow is one allocator
//!   round-trip);
//! * the counters are process-global, so phases measured on the main
//!   thread include any allocation the runtime does concurrently — the
//!   simulator is single-threaded, making the deltas exact in practice.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting calls and requested bytes.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System` for every allocation contract;
// the counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and requested bytes since process start.
#[must_use]
pub fn totals() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}

/// A measurement phase: snapshot at construction, delta on
/// [`finish`](Phase::finish).
pub struct Phase {
    count0: u64,
    bytes0: u64,
}

impl Phase {
    /// Begin a phase at the current counter values.
    #[must_use]
    pub fn start() -> Self {
        let (count0, bytes0) = totals();
        Self { count0, bytes0 }
    }

    /// `(alloc.count, alloc.bytes)` since [`start`](Phase::start).
    #[must_use]
    pub fn finish(&self) -> (u64, u64) {
        let (c, b) = totals();
        (c - self.count0, b - self.bytes0)
    }

    /// Export the phase delta as `<prefix>.alloc.count` and
    /// `<prefix>.alloc.bytes` gauges, returning the delta.
    pub fn export(&self, prefix: &str) -> (u64, u64) {
        let (count, bytes) = self.finish();
        cellbricks_telemetry::gauge(format!("{prefix}.alloc.count")).set(count as i64);
        cellbricks_telemetry::gauge(format!("{prefix}.alloc.bytes")).set(bytes as i64);
        (count, bytes)
    }
}
