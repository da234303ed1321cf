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

use std::sync::Arc;

use metis::datasets::{build_dataset, DatasetKind};
use metis::embed::EmbedderKind;
use metis::text::{ChunkId, TokenChunk};
use metis::vectordb::VectorDb;

use crate::counted;

#[test]
fn a_built_datasets_tokenizer_holds_three_blocks() {
    for kind in DatasetKind::all() {
        let mut d = build_dataset(kind, 8, 0x70C5);
        // A clone makes every block the original holds once more.
        let blocks = counted(|| d.tokenizer.clone()).0.blocks;
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
    let (count, db) = counted(|| VectorDb::build(&chunks, embedder, "musique", chunk_size));
    let (blocks, bytes) = (count.blocks, count.bytes);
    assert_eq!(db.len(), chunks.len());
    assert!(bytes <= 2_070_000, "{bytes} bytes in {blocks} blocks");
}
