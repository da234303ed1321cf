//! Golden pin of every ANN index's *search output*, three FNV-1a digests
//! per index variant: **ids** folds the hit count and the chunk ids in
//! order, **work** all five `SearchWork` fields, **bits** the distance
//! bits. The hot paths behind these indexes get rewritten for speed; a
//! rewrite may change what a search costs, never what it returns or what
//! work it reports. The columns keep a rounding change honest: a new
//! summation order in the exact-distance kernel moves `bits` wherever an
//! exact f32 distance is emitted, and may move `work` where a graph built
//! on exact distances resolved a last-ulp tie the other way — while `ids`,
//! which chunks in which order, must stay where the sequential kernel put
//! them.
//!
//! The `hnsw-graph/…` rows pin the *write* path instead: the FNV-1a digest
//! of the built graph itself (`HnswIndex::graph_digest`) and the exact
//! distance evaluations the build spent on it (`HnswIndex::build_evals`).
//! The graph is a pure function of the data and the configuration, so a
//! faster build may move the second column, never the first. Beside the
//! search corpus they cover two integer-grid corpora, where most distances
//! tie and every tie-break in the construction beam and the neighbour
//! re-selection decides an edge.
//!
//! On an intentional change, review which rows and which columns moved, and
//! say why in the PR.

use std::fmt::Write as _;

use metis::datasets::{AnnConfig, AnnCorpus};
use metis::text::ChunkId;
use metis::vectordb::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, SearchOutcome,
    SqFlatIndex, SqIvfIndex, VectorIndex,
};

use super::{assert_pinned, Fnv};

const DIM: usize = 32;
const K: usize = 10;

/// Exact distance evaluations the classic build — two heaps in the beam,
/// every full neighbour list re-scored and re-selected from scratch; today
/// the test oracle in `hnsw.rs` — spent on the search corpus: the
/// `hnsw-graph/search-corpus` row as first generated.
const CLASSIC_BUILD_EVALS: u64 = 4_063_188;

/// `[ids, work, bits]` digests of one index variant over every query.
fn digest(queries: &[Vec<f32>], search: impl Fn(&[f32]) -> SearchOutcome) -> [u64; 3] {
    let (mut ids, mut work, mut bits) = (Fnv::new(), Fnv::new(), Fnv::new());
    for q in queries {
        let out = search(q);
        ids.word(out.hits.len() as u64);
        for h in &out.hits {
            ids.word(u64::from(h.chunk.0));
            bits.word(u64::from(h.distance.to_bits()));
        }
        let w = &out.work;
        for field in [
            w.vectors_scored,
            w.quantized_scored,
            w.centroids_scored,
            w.lists_probed,
            w.graph_hops,
        ] {
            work.word(field as u64);
        }
    }
    [ids.0, work.0, bits.0]
}

/// The pinned corpus and its query set: the planted queries sit in cleared
/// space; corpus vectors as queries add dense neighbourhoods (and an exact
/// zero distance) to the pin.
fn corpus_and_queries() -> (AnnCorpus, Vec<Vec<f32>>) {
    let corpus = AnnCorpus::generate(AnnConfig {
        dim: DIM,
        num_vectors: 2_000,
        num_queries: 64,
        k: K,
        seed: 0x05EE_DA22,
    });
    let queries = corpus
        .queries
        .iter()
        .map(|q| q.vector.clone())
        .chain(corpus.items.iter().step_by(61).map(|(_, v)| v.clone()))
        .collect();
    (corpus, queries)
}

fn flat_index(corpus: &AnnCorpus) -> FlatIndex {
    let mut flat = FlatIndex::new(DIM);
    for (id, v) in &corpus.items {
        flat.add(*id, v);
    }
    flat
}

/// `n` vectors on the integer grid `{0, …, side - 1}^dim`, drawn by an LCG:
/// far more vectors than grid points, so duplicates and tied distances are
/// the common case.
fn grid_items(n: u32, dim: usize, side: u64, seed: u64) -> Vec<(ChunkId, Vec<f32>)> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            let v = (0..dim)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % side) as f32
                })
                .collect();
            (ChunkId(i), v)
        })
        .collect()
}

/// One `name ids work bits` line per index variant, then one
/// `hnsw-graph/name digest build_evals` line per pinned build, in a fixed
/// order.
fn rendered() -> String {
    let (corpus, queries) = corpus_and_queries();
    let mut out = String::new();
    let mut row = |name: &str, [ids, work, bits]: [u64; 3]| {
        writeln!(out, "{name} {ids:016x} {work:016x} {bits:016x}").expect("write to String")
    };

    let mut graphs = Vec::new();
    for (label, quant) in [
        ("f32", Quantization::F32),
        ("sq8r0", Quantization::Sq8 { rerank: 0 }),
        ("sq8r4", Quantization::Sq8 { rerank: 4 }),
    ] {
        let hnsw = HnswIndex::build(DIM, HnswConfig::default(), quant, &corpus.items);
        graphs.push((hnsw.graph_digest(), hnsw.build_evals()));
        for ef in [16usize, 64, 192] {
            row(
                &format!("hnsw/{label}/ef{ef}"),
                digest(&queries, |q| hnsw.search_with_ef(q, K, ef)),
            );
        }
        row(
            &format!("hnsw/{label}/k1-ef1"),
            digest(&queries, |q| hnsw.search_with_ef(q, 1, 1)),
        );
    }
    for rerank in [0usize, 4] {
        let sqflat = SqFlatIndex::build(DIM, rerank, &corpus.items);
        row(
            &format!("sqflat/r{rerank}"),
            digest(&queries, |q| sqflat.search_counted(q, K)),
        );
    }
    let ivf = IvfIndex::build(
        DIM,
        IvfConfig {
            nlist: 16,
            nprobe: 4,
            train_iters: 8,
        },
        &corpus.items,
    );
    for rerank in [0usize, 4] {
        let sqivf = SqIvfIndex::from_ivf(&ivf, rerank);
        row(
            &format!("sqivf/r{rerank}"),
            digest(&queries, |q| sqivf.search_counted(q, K)),
        );
    }
    row("ivf/f32", digest(&queries, |q| ivf.search_counted(q, K)));
    let flat = flat_index(&corpus);
    row("flat/f32", digest(&queries, |q| flat.search_counted(q, K)));

    // Construction always runs at full precision: one graph, whatever the
    // storage scheme.
    assert!(
        graphs.iter().all(|g| *g == graphs[0]),
        "the storage scheme changed the graph or its build cost: {graphs:x?}"
    );
    let mut graph_row = |name: &str, (digest, evals): (u64, u64)| {
        writeln!(out, "hnsw-graph/{name} {digest:016x} {evals}").expect("write to String")
    };
    graph_row("search-corpus", graphs[0]);
    assert!(
        graphs[0].1 * 10 <= CLASSIC_BUILD_EVALS * 6,
        "the build spends {} evals, over 0.6 of the classic build's {CLASSIC_BUILD_EVALS}",
        graphs[0].1
    );
    let tight = HnswConfig {
        m: 6,
        ef_construction: 10,
        ..HnswConfig::default()
    };
    for (name, dim, side, n, config) in [
        ("grid4-1500x3-m6-efc10", 3, 4, 1_500, tight),
        ("grid2-1000x8", 8, 2, 1_000, HnswConfig::default()),
    ] {
        let items = grid_items(n, dim, side, 0x6A1D);
        let hnsw = HnswIndex::build(dim, config, Quantization::F32, &items);
        graph_row(name, (hnsw.graph_digest(), hnsw.build_evals()));
    }
    out
}

#[test]
fn every_index_reproduces_its_golden_search_digest() {
    assert_pinned("tests/golden/ann_search_digest.txt", &rendered());
}

/// The exact kernel's summation order is an implementation choice; the
/// ranking it induces is not. The oracle here is the plain sequential sum
/// the library used before its lane-parallel kernel: for every query the
/// flat index must return the chunks a sequential brute-force scan ranks
/// first, in that order. A near-tie that the two roundings order
/// differently fails with both distances printed, so it gets reported
/// rather than absorbed.
#[test]
fn flat_rankings_match_the_sequential_sum_oracle() {
    fn sequential_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
    let (corpus, queries) = corpus_and_queries();
    let flat = flat_index(&corpus);
    for (qi, q) in queries.iter().enumerate() {
        let mut oracle: Vec<(f32, ChunkId)> = corpus
            .items
            .iter()
            .map(|(id, v)| (sequential_l2(v, q), *id))
            .collect();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let hits = flat.search(q, K);
        assert_eq!(hits.len(), K);
        for (rank, (hit, (d2, id))) in hits.iter().zip(&oracle).enumerate() {
            assert_eq!(
                hit.chunk,
                *id,
                "query {qi} rank {rank}: library {:?} at {:e}, sequential oracle {id:?} at {:e}",
                hit.chunk,
                hit.distance,
                d2.sqrt(),
            );
        }
    }
}
