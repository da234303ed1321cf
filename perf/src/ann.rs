//! The ANN stage: index builds timed beside searches on a planted-gold
//! raw-vector corpus.
//!
//! Writes and reads share one stage on purpose: a search gain bought with
//! build time (or the reverse) shows on the same row. Embedding, the chunk
//! store, the engine and the runner do nothing here — it is the bypass
//! stage for every serving-side change.

use std::time::Instant;

use metis_datasets::{AnnConfig, AnnCorpus};
use metis_text::ChunkId;
use metis_vectordb::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, SearchWork, VectorIndex,
};

use crate::checks::Checks;
use crate::trace::{Recorder, NONE};

/// Vector dimension of the ANN corpus.
pub const DIM: usize = 64;
/// Gold neighbours planted per query (the k of recall@k).
pub const K: usize = 10;
/// Recall floor the approximate indexes must hold on the planted gold.
pub const RECALL_FLOOR: f64 = 0.95;
/// sq8 re-rank factor of the HNSW index.
pub const SQ8_RERANK: usize = 4;

/// Generates the corpus: `vectors` × 64-dim with `queries` planted-gold
/// queries, k = 10.
pub fn generate(seed: u64, vectors: usize, queries: usize) -> AnnCorpus {
    AnnCorpus::generate(AnnConfig {
        dim: DIM,
        num_vectors: vectors,
        num_queries: queries,
        k: K,
        seed,
    })
}

/// IVF shape: ~√n lists (clamped to 16..=256), probing 1/16 of them — at
/// 8 192 vectors that is nlist 90, nprobe 5, 8 k-means iterations.
pub fn ivf_config(n: usize) -> IvfConfig {
    let nlist = ((n as f64).sqrt() as usize).clamp(16, 256);
    IvfConfig {
        nlist,
        nprobe: (nlist / 16).max(2),
        train_iters: 8,
    }
}

/// HNSW shape: m 16, ef_construction 80 (library defaults), ef_search 192.
pub fn hnsw_config() -> HnswConfig {
    HnswConfig {
        ef_search: 192,
        ..HnswConfig::default()
    }
}

/// Builds the HNSW-sq8 index over `corpus`.
pub fn build_hnsw(corpus: &AnnCorpus) -> HnswIndex {
    HnswIndex::build(
        DIM,
        hnsw_config(),
        Quantization::Sq8 { rerank: SQ8_RERANK },
        &corpus.items,
    )
}

/// The three built indexes with their build wall times (each timed once).
pub struct Built {
    /// Exact oracle.
    pub flat: FlatIndex,
    /// IVF over f32 vectors.
    pub ivf: IvfIndex,
    /// HNSW over sq8 codes with f32 re-rank.
    pub hnsw: HnswIndex,
    /// Wall seconds of the `FlatIndex::add` loop.
    pub flat_build_s: f64,
    /// Wall seconds of `IvfIndex::build`.
    pub ivf_build_s: f64,
    /// Wall seconds of `HnswIndex::build`.
    pub hnsw_build_s: f64,
}

/// Runs `f` inside a span and returns its result with its wall seconds.
fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = rec.span(name, NONE, NONE, f);
    (out, t.elapsed().as_secs_f64())
}

/// Builds all three indexes over `corpus`, timing each build once.
pub fn build(corpus: &AnnCorpus, rec: &mut Recorder) -> Built {
    let items = &corpus.items;
    let (flat, flat_build_s) = timed(rec, "vectordb.flat_build", || {
        let mut flat = FlatIndex::new(DIM);
        for (id, v) in items {
            flat.add(*id, v);
        }
        flat
    });
    let (ivf, ivf_build_s) = timed(rec, "vectordb.ivf_build", || {
        IvfIndex::build(DIM, ivf_config(items.len()), items)
    });
    let (hnsw, hnsw_build_s) = timed(rec, "vectordb.hnsw_build", || build_hnsw(corpus));
    Built {
        flat,
        ivf,
        hnsw,
        flat_build_s,
        ivf_build_s,
        hnsw_build_s,
    }
}

/// One closed-loop pass of every corpus query through `index`.
pub struct SearchPass {
    /// Wall microseconds of each search, in query order.
    pub micros: Vec<f64>,
    /// Mean recall@k against the planted gold.
    pub recall: f64,
    /// Work the searches reported, summed.
    pub work: SearchWork,
}

/// Searches every query once, one client, each search timed on its own.
/// Every search must return exactly k hits.
pub fn search_pass(
    index: &dyn VectorIndex,
    corpus: &AnnCorpus,
    span_name: &'static str,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> SearchPass {
    let mut micros = Vec::with_capacity(corpus.queries.len());
    let mut recall = 0.0;
    let mut work = SearchWork::default();
    let mut ids: Vec<ChunkId> = Vec::with_capacity(K);
    for (qi, q) in corpus.queries.iter().enumerate() {
        let t = Instant::now();
        let out = rec.span(span_name, NONE, qi as u32, || {
            index.search_counted(&q.vector, K)
        });
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        if rec.enabled() {
            let id = rec.last();
            rec.count(id, "distance_evals", out.work.distances() as u64);
            rec.count(id, "graph_hops", out.work.graph_hops as u64);
        }
        checks.op(out.hits.len() == K, "every search returns exactly k hits");
        ids.clear();
        ids.extend(out.hits.iter().map(|h| h.chunk));
        recall += AnnCorpus::recall(&q.gold, &ids);
        work.add(&out.work);
    }
    SearchPass {
        micros,
        recall: recall / corpus.queries.len() as f64,
        work,
    }
}

/// Re-times the twentieth of the queries with the highest floors and lowers
/// their floors where the new timing is faster.
///
/// A p99 is clean only if fewer than 1 % of the queries lack a timing taken
/// while the host was quiet, and a query without one looks exactly like a
/// hard query: it sits in the tail. Re-timing the tail after every round
/// gives those queries twice the chances at the cost of a twentieth of a
/// pass; a query that is slow on a quiet host stays in the tail.
pub fn retime_slowest(
    index: &dyn VectorIndex,
    corpus: &AnnCorpus,
    floors: &mut [f64],
    checks: &mut Checks,
) {
    let mut order: Vec<usize> = (0..floors.len()).collect();
    order.sort_by(|&a, &b| floors[b].total_cmp(&floors[a]));
    for &qi in &order[..floors.len().div_ceil(20)] {
        let t = Instant::now();
        let out = index.search_counted(&corpus.queries[qi].vector, K);
        floors[qi] = floors[qi].min(t.elapsed().as_secs_f64() * 1e6);
        checks.op(out.hits.len() == K, "every search returns exactly k hits");
    }
}
