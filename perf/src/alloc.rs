//! A counting global allocator for the harness binary.
//!
//! Allocation counts are per-layer metrics (`*.allocs_per_*`). The counter
//! only runs while a traced region has switched it on, so untraced passes —
//! the ones end-to-end numbers come from — pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed everywhere: both values are statistics that publish no other data.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed atomic
// increment, which cannot allocate, unwind, or touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ACTIVE.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ACTIVE.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` with counting on and returns its result plus the allocations
/// it made (on every thread — the sim workloads are single-threaded).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was = ACTIVE.swap(true, Ordering::Relaxed);
    let before = count();
    let out = f();
    let made = count() - before;
    ACTIVE.store(was, Ordering::Relaxed);
    (out, made)
}
