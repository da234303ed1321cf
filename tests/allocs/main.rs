//! Allocation pins: what the read paths, the vocabulary and the engine step
//! allocate, and what built structures hold on the heap, all counted by this
//! binary's one global allocator through one helper, [`counted`]:
//!
//! - [`search`]: IVF, HNSW and the served retrieve per call, `ChunkStore::get`;
//! - [`vocab`]: interning, encoding, and the blocks a vocabulary holds;
//! - [`step`]: what `Engine::step` allocates per iteration;
//! - [`footprint`]: the blocks a dataset's tokenizer holds, and the bytes of a
//!   flat `VectorDb`.
//!
//! The counts are per thread, so the test harness's other threads cannot
//! disturb them.

mod footprint;
mod search;
mod step;
mod vocab;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What a thread allocated.
#[derive(Clone, Copy)]
struct Count {
    /// Allocations and reallocations made.
    allocs: u64,
    /// Blocks allocated and not freed.
    blocks: i64,
    /// Bytes allocated and not freed.
    bytes: i64,
}

thread_local! {
    static COUNT: Cell<Count> = const {
        Cell::new(Count {
            allocs: 0,
            blocks: 0,
            bytes: 0,
        })
    };
}

fn add(allocs: u64, blocks: i64, bytes: i64) {
    // `try_with`: a call made while the thread is being torn down finds the
    // slot gone, and is nobody's to count.
    let _ = COUNT.try_with(|count| {
        let c = count.get();
        count.set(Count {
            allocs: c.allocs + allocs,
            blocks: c.blocks + blocks,
            bytes: c.bytes + bytes,
        });
    });
}

/// What `f` allocates on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (Count, T) {
    let before = COUNT.with(Cell::get);
    let value = f();
    let after = COUNT.with(Cell::get);
    let count = Count {
        allocs: after.allocs - before.allocs,
        blocks: after.blocks - before.blocks,
        bytes: after.bytes - before.bytes,
    };
    (count, value)
}

/// [`System`] plus a per-thread [`Count`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition adjusts a
// const-initialised, destructor-free thread-local `Cell`, which cannot
// allocate, unwind, or touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(1, 1, layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(0, -1, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(1, 0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
