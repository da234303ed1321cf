//! The index a `VectorDb` serves flat f32 retrieval from is a sparse one
//! (posting lists and a distance bound), held here to the dense
//! `FlatIndex` on the corpora it serves: every dataset kind under every
//! built-in embedding model, each with its own density. For every query and
//! depth, the database must return the oracle's chunks, distance bits and
//! `SearchWork`.

use std::sync::Arc;

use metis_datasets::{build_dataset_with_embedder, DatasetKind};
use metis_embed::EmbedderKind;
use metis_text::ChunkId;
use metis_vectordb::{FlatIndex, VectorIndex};

/// Queries per dataset: a smaller corpus than the benches', same shape.
const QUERIES: usize = 24;

#[test]
fn database_retrieval_equals_a_dense_flat_index_on_every_corpus() {
    for kind in DatasetKind::all() {
        for model in EmbedderKind::all() {
            let d = build_dataset_with_embedder(kind, QUERIES, 0xF1A7, Arc::from(model.build()));
            let (embedder, store) = (d.db.embedder(), d.db.store());
            let mut oracle = FlatIndex::new(embedder.dim());
            for i in 0..store.len() {
                let id = ChunkId(i as u32);
                let text = store.get(id).expect("dense chunk ids");
                oracle.add(id, &embedder.embed(text.tokens()));
            }
            let n = d.db.len();
            for (qi, query) in d.queries.iter().enumerate() {
                let vector = embedder.embed(&query.tokens);
                for k in [1, 4, 10, 25, n] {
                    let got = d.db.retrieve_counted(&query.tokens, k);
                    let want = oracle.search_counted(&vector, k);
                    let bits = |h: &metis_vectordb::Hit| (h.chunk, h.distance.to_bits());
                    assert!(
                        got.results
                            .iter()
                            .map(|r| bits(&r.hit))
                            .eq(want.hits.iter().map(bits))
                            && got.work == want.work,
                        "{kind:?} under {}: query {qi} at k = {k} differs from the dense scan",
                        embedder.name()
                    );
                }
            }
        }
    }
}
