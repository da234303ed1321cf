//! Golden pin of every ANN index's *search output*: chunk ids, distance
//! bits and all five `SearchWork` fields, folded into one FNV-1a digest per
//! index variant. The hot paths behind these indexes get rewritten for
//! speed; a rewrite may change what a search costs, never what it returns
//! or what work it reports. The digests were generated on the commit
//! before the flat-adjacency / table-free sq8 rewrite and must not move.
//!
//! On an *intentional* behavior change, regenerate with
//! `METIS_REGEN_GOLDEN=1 cargo test --test ann_golden`, review which rows
//! moved, and say why in the PR.

use std::fmt::Write as _;

use metis::datasets::{AnnConfig, AnnCorpus};
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

    fn outcome(&mut self, out: &SearchOutcome) {
        self.word(out.hits.len() as u64);
        for h in &out.hits {
            self.word(u64::from(h.chunk.0));
            self.word(u64::from(h.distance.to_bits()));
        }
        let w = &out.work;
        for field in [
            w.vectors_scored,
            w.quantized_scored,
            w.centroids_scored,
            w.lists_probed,
            w.graph_hops,
        ] {
            self.word(field as u64);
        }
    }
}

fn digest(queries: &[Vec<f32>], search: impl Fn(&[f32]) -> SearchOutcome) -> u64 {
    let mut fnv = Fnv::new();
    for q in queries {
        fnv.outcome(&search(q));
    }
    fnv.0
}

/// One `name digest` line per index variant, in a fixed order.
fn rendered() -> String {
    let corpus = AnnCorpus::generate(AnnConfig {
        dim: DIM,
        num_vectors: 2_000,
        num_queries: 64,
        k: K,
        seed: 0x05EE_DA22,
    });
    // The planted queries sit in cleared space; corpus vectors as queries
    // add dense neighbourhoods (and an exact zero distance) to the pin.
    let queries: Vec<Vec<f32>> = corpus
        .queries
        .iter()
        .map(|q| q.vector.clone())
        .chain(corpus.items.iter().step_by(61).map(|(_, v)| v.clone()))
        .collect();
    let mut out = String::new();
    let mut row = |name: &str, d: u64| writeln!(out, "{name} {d:016x}").expect("write to String");

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
    let mut flat = FlatIndex::new(DIM);
    for (id, v) in &corpus.items {
        flat.add(*id, v);
    }
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
