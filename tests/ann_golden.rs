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
//! On an *intentional* behavior change, regenerate with
//! `METIS_REGEN_GOLDEN=1 cargo test --test ann_golden`, review which rows
//! and which columns moved, and say why in the PR.

use std::fmt::Write as _;

use metis::datasets::{AnnConfig, AnnCorpus};
use metis::text::ChunkId;
use metis::vectordb::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, SearchOutcome,
    SqFlatIndex, SqIvfIndex, VectorIndex,
};

const GOLDEN: &str = include_str!("golden/ann_search_digest.txt");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ann_search_digest.txt"
);

const DIM: usize = 32;
const K: usize = 10;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

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

/// One `name ids work bits` line per index variant, in a fixed order.
fn rendered() -> String {
    let (corpus, queries) = corpus_and_queries();
    let mut out = String::new();
    let mut row = |name: &str, [ids, work, bits]: [u64; 3]| {
        writeln!(out, "{name} {ids:016x} {work:016x} {bits:016x}").expect("write to String")
    };

    for (label, quant) in [
        ("f32", Quantization::F32),
        ("sq8r0", Quantization::Sq8 { rerank: 0 }),
        ("sq8r4", Quantization::Sq8 { rerank: 4 }),
    ] {
        let hnsw = HnswIndex::build(DIM, HnswConfig::default(), quant, &corpus.items);
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
    out
}

#[test]
fn every_index_reproduces_its_golden_search_digest() {
    let rendered = rendered();
    if std::env::var("METIS_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "search output drift: an index no longer returns the pinned hits, \
         distance bits or SearchWork (tests/golden/ann_search_digest.txt). \
         If intentional, rerun with METIS_REGEN_GOLDEN=1 and justify the \
         moved rows in the PR."
    );
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
