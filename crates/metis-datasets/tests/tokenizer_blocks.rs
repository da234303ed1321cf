//! A built dataset's tokenizer holds three heap blocks, whatever its
//! vocabulary's size: every word lives in one arena beside an offset list
//! and an id table. A vocabulary that kept a `String` per word held two
//! blocks per word (≈ 233 k blocks over the paper mix).
//!
//! Counted with this binary's own `#[global_allocator]` (which is why the
//! test lives alone in its file), per thread, so the test harness's own
//! threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use metis_datasets::{build_dataset, DatasetKind};

thread_local! {
    /// Blocks this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of live blocks.
struct CountingAlloc;

fn add_live(n: i64) {
    // `try_with`: a call made while the thread is being torn down finds the
    // slot gone, and is nobody's to count.
    let _ = LIVE.try_with(|live| live.set(live.get() + n));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition adjusts a
// const-initialised, destructor-free thread-local `Cell`, which cannot
// allocate, unwind, or touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(1);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-1);
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_built_datasets_tokenizer_holds_three_blocks() {
    for kind in DatasetKind::all() {
        let mut d = build_dataset(kind, 8, 0x70C5);
        let before = LIVE.with(Cell::get);
        // A clone makes every block the original holds once more.
        let copy = d.tokenizer.clone();
        let held = LIVE.with(Cell::get) - before;
        drop(copy);
        let words = d.tokenizer.vocab_mut().len();
        assert!(words > 500, "{kind:?}: {words} words");
        assert_eq!(held, 3, "{kind:?}: {held} heap blocks for {words} words");
    }
}
