//! Vector database substrate for the METIS reproduction.
//!
//! Reproduces the retrieval layer the paper builds from FAISS: an exact
//! flat-L2 index (`IndexFlatL2` + `index.search(query_embedding, top_k)`),
//! plus an IVF variant for completeness, a compact chunk store, and the
//! database metadata object that METIS's profiler consumes (§4.1: a one-line
//! description of the corpus plus its `chunk_size`).

pub mod db;
pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod quant;
pub mod store;

pub use db::{DbMetadata, IndexMeta, IndexSpec, RetrievalOutcome, RetrievalResult, VectorDb};
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfConfig, IvfIndex};
pub use quant::{Quantization, ScalarQuantizer, SqFlatIndex, SqIvfIndex};
pub use store::{ChunkStore, StoreStats};

use metis_text::ChunkId;

/// Squared L2 distance, summed sequentially in index order — the one exact
/// kernel behind every index, so equal inputs give equal bits everywhere.
#[inline]
pub(crate) fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// A search hit: chunk id plus L2 distance (smaller is more similar).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The matching chunk.
    pub chunk: ChunkId,
    /// L2 distance between query and chunk embeddings.
    pub distance: f32,
}

/// Work performed by one index search, in units of distance computations —
/// the measured quantity a retrieval latency model converts into time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Corpus vectors scored against the query in exact f32: the whole
    /// corpus for a flat scan, the members of the probed lists for IVF,
    /// the re-rank candidates under sq8.
    pub vectors_scored: usize,
    /// Corpus vectors scored in the quantized (sq8) domain — each 1-byte
    /// code decoded on the fly against the f32 query; counted apart from
    /// exact f32 evals because the retrieval model prices them apart.
    pub quantized_scored: usize,
    /// Coarse-quantizer centroids scored (IVF ranks every centroid before
    /// probing; 0 for flat).
    pub centroids_scored: usize,
    /// Inverted lists visited (IVF: the effective `nprobe`; flat scans one
    /// contiguous array and reports 0).
    pub lists_probed: usize,
    /// Graph nodes expanded while navigating an HNSW index (0 for flat and
    /// IVF): each hop is a pointer chase plus a neighbor-list scan, priced
    /// separately from the distance evals it triggers.
    pub graph_hops: usize,
}

impl SearchWork {
    /// The work of an exact full scan over `n` vectors.
    pub fn full_scan(n: usize) -> Self {
        Self {
            vectors_scored: n,
            ..Self::default()
        }
    }

    /// Total distance computations (exact + quantized corpus vectors +
    /// centroids).
    pub fn distances(&self) -> usize {
        self.vectors_scored + self.quantized_scored + self.centroids_scored
    }

    /// Component-wise sum — used to aggregate per-query work into run
    /// totals.
    pub fn add(&mut self, other: &SearchWork) {
        self.vectors_scored += other.vectors_scored;
        self.quantized_scored += other.quantized_scored;
        self.centroids_scored += other.centroids_scored;
        self.lists_probed += other.lists_probed;
        self.graph_hops += other.graph_hops;
    }
}

/// Hits plus the measured work that produced them.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The `k` nearest chunks, in ascending distance order.
    pub hits: Vec<Hit>,
    /// Work accounting for this search.
    pub work: SearchWork,
}

/// Common interface over the index variants.
///
/// ```
/// use metis_text::ChunkId;
/// use metis_vectordb::{FlatIndex, VectorIndex};
///
/// let mut index = FlatIndex::new(2);
/// index.add(ChunkId(0), &[0.0, 1.0]);
/// index.add(ChunkId(1), &[1.0, 0.0]);
///
/// let outcome = index.search_counted(&[0.9, 0.1], 1);
/// assert_eq!(outcome.hits[0].chunk, ChunkId(1));
/// // A flat index scores the whole corpus — and says so.
/// assert_eq!(outcome.work.vectors_scored, 2);
/// ```
pub trait VectorIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Returns `true` when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the `k` nearest chunks plus the work the search performed.
    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome;

    /// Returns the `k` nearest chunks to `query` in ascending distance
    /// order (for callers that don't need work accounting).
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.search_counted(query, k).hits
    }
}
