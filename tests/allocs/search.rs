//! Allocation pins for the read paths. An IVF or HNSW search allocates the
//! hit vector it returns plus O(1), however deep it probes. IVF keeps its
//! centroid ranking and list walk in per-index scratch, HNSW its visited
//! stamps, frontier and scored pool in per-thread scratch, so effort
//! (`nprobe`, `ef`) moves the work and not the allocation count. A warm
//! retrieve over a built dataset allocates exactly four times. A
//! `ChunkStore::get` allocates nothing, whether the modelled hot tier
//! counts it a hit or a miss.

use std::hint::black_box;

use metis::datasets::{build_dataset, DatasetKind};
use metis::text::{AnnotatedText, ChunkId, FactId, TokenId};
use metis::vectordb::{
    ChunkStore, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, VectorIndex,
};

use crate::counted;

const DIM: usize = 16;
const K: usize = 10;

/// `n` vectors of an LCG's uniform noise: small enough for a debug build,
/// spread enough that deep settings really do visit more than shallow ones.
fn vectors(n: usize, seed: u64) -> Vec<(ChunkId, Vec<f32>)> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..n as u32)
        .map(|id| (ChunkId(id), (0..DIM).map(|_| next()).collect()))
        .collect()
}

/// Allocations per call of `search` over `queries`, after a warm-up pass
/// has grown the scratch buffers to their steady-state capacity.
fn allocs_per_search<T>(queries: &[(ChunkId, Vec<f32>)], search: impl Fn(&[f32]) -> T) -> f64 {
    for (_, q) in queries {
        black_box(search(q));
    }
    let (count, ()) = counted(|| {
        for (_, q) in queries {
            black_box(search(q));
        }
    });
    count.allocs as f64 / queries.len() as f64
}

#[test]
fn ivf_search_allocations_do_not_scale_with_probe_depth() {
    let items = vectors(2_000, 7);
    let queries = vectors(32, 11);
    let build = |nprobe| {
        let config = IvfConfig {
            nlist: 64,
            nprobe,
            train_iters: 4,
        };
        IvfIndex::build(DIM, config, &items)
    };
    let (shallow, deep) = (build(2), build(32));
    let at_2 = allocs_per_search(&queries, |q| shallow.search(q, K));
    let at_32 = allocs_per_search(&queries, |q| deep.search(q, K));
    assert_eq!(at_2, at_32, "allocations per search at nprobe 2 and 32");
    assert!(at_32 <= 2.0, "an IVF search made {at_32} allocations");
}

#[test]
fn hnsw_search_allocations_do_not_scale_with_ef() {
    let items = vectors(1_500, 7);
    let queries = vectors(32, 11);
    let index = HnswIndex::build(DIM, HnswConfig::default(), Quantization::sq8(), &items);
    let at_16 = allocs_per_search(&queries, |q| index.search_with_ef(q, K, 16));
    let at_192 = allocs_per_search(&queries, |q| index.search_with_ef(q, K, 192));
    assert_eq!(at_16, at_192, "allocations per search at ef 16 and 192");
    assert!(at_192 <= 3.0, "an HNSW search made {at_192} allocations");
}

/// A warm `retrieve_counted` allocates four times on every dataset and
/// every query: the embedder's sorted copy of the query tokens, the query
/// embedding, the index's hits and the results. The first call on a thread
/// also grows the flat index's scratch, so it is left out.
#[test]
fn a_warm_retrieve_allocates_exactly_four_times() {
    for kind in DatasetKind::all() {
        let d = build_dataset(kind, 24, 7);
        black_box(d.db.retrieve_counted(&d.queries[0].tokens, 8));
        for (i, query) in d.queries.iter().enumerate() {
            let (count, _) = counted(|| d.db.retrieve_counted(&query.tokens, 8));
            assert_eq!(count.allocs, 4, "{kind:?}: query {i}");
        }
    }
}

/// Every `get` hands out the stored text's shared buffers and allocates
/// nothing: a modelled miss (promotion and eviction included) as much as a
/// modelled hit, with or without fact spans.
#[test]
fn every_chunk_get_hit_or_miss_allocates_nothing() {
    let mut plain = AnnotatedText::new();
    plain.push_tokens(&[TokenId(1), TokenId(2), TokenId(3)]);
    let mut with_fact = plain.clone();
    with_fact.push_fact(FactId(7), &[TokenId(4), TokenId(5)]);
    let mut store = ChunkStore::with_hot_capacity(1);
    let (p, f) = (store.push(&plain), store.push(&with_fact));
    let allocs = |id| counted(|| black_box(store.get(id))).0.allocs;
    assert_eq!(allocs(f), 0, "miss, with a fact span");
    assert_eq!(allocs(f), 0, "hit");
    assert_eq!(allocs(p), 0, "miss, without spans, evicting the other");
    assert_eq!(allocs(p), 0, "hit");
    assert_eq!(allocs(f), 0, "miss again after its eviction");
    let stats = store.stats();
    assert_eq!((stats.hot_hits, stats.evictions), (2, 2));
}
