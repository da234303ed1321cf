//! What a built dataset holds on the heap, pinned in blocks and bytes.
//!
//! A built dataset's tokenizer holds three heap blocks, whatever its
//! vocabulary's size: every word lives in one arena beside an offset list
//! and an id table. A vocabulary that kept a `String` per word held two
//! blocks per word (≈ 233 k blocks over the paper mix). A `VectorDb` over a
//! Musique corpus holds its flat index (each embedding's non-zeros once
//! exactly and once as 16-bit codes in posting blocks), its chunk store and
//! its metadata; the pin below is the byte count of that, just above what
//! the current layout reads.
//!
//! Counted with this binary's own `#[global_allocator]` (which is why these
//! tests live alone in their file), per thread, so the test harness's own
//! threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use metis_datasets::{build_dataset, DatasetKind};
use metis_embed::EmbedderKind;
use metis_text::{ChunkId, TokenChunk};
use metis_vectordb::VectorDb;

thread_local! {
    /// Blocks and bytes this thread has allocated and not yet freed.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// [`System`] plus a per-thread count of live blocks and bytes.
struct CountingAlloc;

fn add_live(blocks: i64, bytes: usize) {
    // `try_with`: a call made while the thread is being torn down finds the
    // slot gone, and is nobody's to count.
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        live.set((b + blocks, n + blocks * bytes as i64));
    });
}

/// Blocks and bytes `f` leaves allocated on this thread, and its result.
fn held<T>(f: impl FnOnce() -> T) -> ((i64, i64), T) {
    let before = LIVE.with(Cell::get);
    let value = f();
    let after = LIVE.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), value)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition adjusts a
// const-initialised, destructor-free thread-local `Cell`, which cannot
// allocate, unwind, or touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(1, layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-1, layout.size());
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
        // A clone makes every block the original holds once more.
        let ((blocks, _), copy) = held(|| d.tokenizer.clone());
        drop(copy);
        let words = d.tokenizer.vocab_mut().len();
        assert!(words > 500, "{kind:?}: {words} words");
        assert_eq!(blocks, 3, "{kind:?}: {blocks} blocks for {words} words");
    }
}

/// The bytes a flat `VectorDb` holds over the chunks of a seeded 100-query
/// Musique corpus under the default embedder: 2 066 267 in 12 blocks with
/// 16-bit posting codes and a scale per row, where `f32` postings held
/// 2 456 131 in 11.
#[test]
fn a_flat_vector_db_holds_its_pinned_bytes() {
    let d = build_dataset(DatasetKind::Musique, 100, 7);
    let store = d.db.store();
    let chunks: Vec<TokenChunk> = (0..store.len() as u32)
        .map(|i| TokenChunk {
            id: ChunkId(i),
            text: store.get(ChunkId(i)).expect("dense chunk ids"),
        })
        .collect();
    let embedder = Arc::from(EmbedderKind::CohereSim.build());
    let chunk_size = d.db.metadata().chunk_size;
    let ((blocks, bytes), db) = held(|| VectorDb::build(&chunks, embedder, "musique", chunk_size));
    assert_eq!(db.len(), chunks.len());
    assert!(bytes <= 2_070_000, "{bytes} bytes in {blocks} blocks");
}
