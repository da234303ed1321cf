//! Million-chunk ANN scaling: flat vs IVF vs HNSW × f32 vs sq8.
//!
//! Sweeps corpus size × index family × vector storage over the planted
//! ground-truth ANN corpus ([`AnnCorpus`]), measuring recall@k
//! against the exact gold neighbors, the *reported* search work (distance
//! evaluations split by domain, graph hops, probed lists), and the
//! [`RetrievalModel`]-priced per-query retrieval latency. The output is
//! the recall/latency frontier the paper-scale question turns on: at 10⁶
//! chunks a flat scan prices at ~20 s/query, IVF at ~1.3 s, and HNSW over
//! sq8 codes in the low milliseconds at ≥ 0.9 recall@10 — two orders of
//! magnitude fewer distance evaluations than the scan.
//!
//! Below its full-scale query count (a smoke run) the corpus sizes shrink
//! to {2·10³, 10⁴} so the sweep completes in seconds; at full scale the
//! {10⁴, 10⁵, 10⁶} ladder runs. One of the five figures whose smoke-scale
//! report must equal its `baselines/` file byte for byte.

use metis_core::RetrievalModel;
use metis_datasets::{AnnConfig, AnnCorpus};
use metis_metrics::{BenchReport, CellReport, LatencySummary, SummaryStats};
use metis_vectordb::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, SearchWork, SqFlatIndex,
    SqIvfIndex, VectorIndex,
};

use crate::{knob, Claim, Figure, Sweep, DATASET_SEED, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_ann_scale",
    artefact: "ANN scaling",
    title: "recall/latency frontier of flat vs IVF vs HNSW with sq8 storage at corpus scale",
    queries: 64,
    run: measure,
};

const FULL_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const SMOKE_SIZES: [usize; 2] = [2_000, 10_000];

/// Index families swept at every size.
const FAMILIES: [&str; 3] = ["flat", "ivf", "hnsw"];
const STORAGES: [Quantization; 2] = [Quantization::F32, Quantization::Sq8 { rerank: 4 }];

/// IVF shape for a given corpus size: ~√n lists (clamped), probing 1/16 of
/// them — the classical sublinear operating point.
fn ivf_config(n: usize) -> IvfConfig {
    let nlist = ((n as f64).sqrt() as usize).clamp(16, 256);
    IvfConfig {
        nlist,
        nprobe: (nlist / 16).max(2),
        train_iters: 8,
    }
}

/// HNSW shape: default graph degree and construction beam, with the
/// search budget raised from the library default (64) for recall margin
/// at the million-vector end of the ladder — even at ef=192 the reported
/// work stays orders of magnitude below both the flat scan and the IVF
/// probe at that scale.
fn hnsw_config() -> HnswConfig {
    HnswConfig {
        ef_search: 192,
        ..HnswConfig::default()
    }
}

/// One measured cell: what it indexed, then aggregate work, recall, and
/// model-priced latencies.
struct Measured {
    corpus_size: usize,
    quant: Quantization,
    recall: f64,
    work: SearchWork,
    latency: LatencySummary,
    index_label: String,
}

/// Searches every corpus query through `index`, scoring recall@k against
/// the planted gold and pricing each query's reported work.
fn search_all(
    corpus: &AnnCorpus,
    quant: Quantization,
    index: &dyn VectorIndex,
    label: &str,
) -> Measured {
    let model = RetrievalModel::default();
    let k = corpus.config.k;
    let mut work = SearchWork::default();
    let mut recall_sum = 0.0;
    let mut lats = Vec::with_capacity(corpus.queries.len());
    for q in &corpus.queries {
        let out = index.search_counted(&q.vector, k);
        let ids: Vec<_> = out.hits.iter().map(|h| h.chunk).collect();
        recall_sum += AnnCorpus::recall(&q.gold, &ids);
        lats.push(model.nanos(&out.work, 0) as f64 / 1e9);
        work.add(&out.work);
    }
    Measured {
        corpus_size: corpus.items.len(),
        quant,
        recall: recall_sum / corpus.queries.len() as f64,
        work,
        latency: LatencySummary::new(lats),
        index_label: label.to_owned(),
    }
}

fn build_and_measure(corpus: &AnnCorpus, family: &str, quant: Quantization) -> Measured {
    let dim = corpus.config.dim;
    let items = &corpus.items;
    match (family, quant.is_quantized()) {
        ("flat", false) => {
            let mut idx = FlatIndex::new(dim);
            for (id, v) in items {
                idx.add(*id, v);
            }
            search_all(corpus, quant, &idx, "flat")
        }
        ("flat", true) => {
            let idx = SqFlatIndex::build(dim, quant.rerank(), items);
            search_all(corpus, quant, &idx, "flat")
        }
        ("ivf", exact_or_sq8) => {
            let config = ivf_config(items.len());
            let label = format!("ivf(nlist={},nprobe={})", config.nlist, config.nprobe);
            let idx = IvfIndex::build(dim, config, items);
            if exact_or_sq8 {
                let sq = SqIvfIndex::from_ivf(&idx, quant.rerank());
                search_all(corpus, quant, &sq, &label)
            } else {
                search_all(corpus, quant, &idx, &label)
            }
        }
        ("hnsw", _) => {
            let config = hnsw_config();
            let label = format!("hnsw(m={},ef={})", config.m, config.ef_search);
            let idx = HnswIndex::build(dim, config, quant, items);
            search_all(corpus, quant, &idx, &label)
        }
        (other, _) => unreachable!("unknown family {other}"),
    }
}

fn measure(num_queries: usize, report: &mut BenchReport) -> Vec<Claim> {
    let smoke = num_queries < FIGURE.queries;
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };

    // One corpus per size, shared by all six (family × storage) cells.
    let corpora: Vec<AnnCorpus> = sizes
        .iter()
        .map(|&n| {
            AnnCorpus::generate(AnnConfig {
                num_queries,
                ..AnnConfig::at_scale(n, DATASET_SEED)
            })
        })
        .collect();

    let mut sweep: Sweep<'_, Measured> = Sweep::new("fig_ann_scale");
    for corpus in &corpora {
        for family in FAMILIES {
            for quant in STORAGES {
                sweep = sweep.cell_with_seed(
                    format!("n{}/{family}/{}", corpus.items.len(), quant.name()),
                    RUN_SEED,
                    move |_| build_and_measure(corpus, family, quant),
                );
            }
        }
    }
    let cells = sweep.run();

    knob(report, "queries", num_queries);
    knob(report, "recall_k", 10);
    knob(report, "sizes", format!("{sizes:?}"));
    let per_query = |v: usize| v as f64 / num_queries.max(1) as f64;
    for cell in &cells {
        let m = &cell.value;
        let (n, quant) = (m.corpus_size, m.quant);
        let mut rc = CellReport::new(cell.id.clone(), cell.seed);
        rc.queries = num_queries as u64;
        rc.retrieval = SummaryStats::of(&m.latency);
        rc.retrieval_recall = m.recall;
        report.cells.push(
            rc.knob("index", m.index_label.clone())
                .knob("quantize", quant.name())
                .knob("corpus_size", n)
                .metric("index_distance_evals", per_query(m.work.vectors_scored))
                .metric("index_quantized_evals", per_query(m.work.quantized_scored))
                .metric("index_hops", per_query(m.work.graph_hops))
                .metric("index_lists_probed", per_query(m.work.lists_probed)),
        );
    }
    Vec::new()
}
