//! Retrieval-layer ablation: exact flat scan vs IVF `{nlist, nprobe}`
//! across offered load.
//!
//! The retrieval executor charges each query the *measured* work of its
//! index search (vectors scored, centroids ranked, lists probed), so index
//! choice becomes a real latency–recall knob: IVF probes a fraction of the
//! corpus and pays a small recall tax that the end-to-end F1 inherits.
//! This experiment sweeps flat vs several IVF shapes × two arrival rates,
//! reporting retrieval p50/p99, chunk recall@k against the flat index,
//! ground-truth fact recall, end-to-end F1, and mean delay.
//!
//! One of the five figures whose smoke-scale report must equal its
//! `baselines/` file byte for byte.

use metis_core::{RunConfig, RunResult, Runner};
use metis_datasets::{build_dataset_with_index, poisson_arrivals, Dataset, DatasetKind};
use metis_metrics::BenchReport;
use metis_vectordb::IndexSpec;

use crate::{base_qps, knob, metis, Claim, Figure, Sweep, DATASET_SEED, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_retrieval",
    artefact: "Retrieval ablation",
    title: "flat vs IVF retrieval latency-recall tradeoff across load",
    queries: 96,
    run: measure,
};

const IVF_POINTS: [(usize, usize); 3] = [(32, 4), (32, 16), (64, 8)];
const LOAD_MULTS: [f64; 2] = [1.0, 2.0];
/// Depth at which chunk recall against the flat index is measured.
const RECALL_K: usize = 8;

/// Mean fraction of flat's top-`RECALL_K` chunk ids the index reproduces.
fn chunk_recall_vs_flat(d: &Dataset, flat: &Dataset) -> f64 {
    let mut sum = 0.0;
    for q in &d.queries {
        let gold: std::collections::BTreeSet<_> = flat
            .db
            .retrieve(&q.tokens, RECALL_K)
            .iter()
            .map(|r| r.hit.chunk)
            .collect();
        let hit =
            d.db.retrieve(&q.tokens, RECALL_K)
                .iter()
                .filter(|r| gold.contains(&r.hit.chunk))
                .count();
        sum += hit as f64 / gold.len().max(1) as f64;
    }
    sum / d.queries.len().max(1) as f64
}

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Musique;
    let base = base_qps(kind);
    let flat = build_dataset_with_index(kind, n, DATASET_SEED, IndexSpec::Flat);

    let specs: Vec<IndexSpec> = std::iter::once(IndexSpec::Flat)
        .chain(
            IVF_POINTS
                .iter()
                .map(|&(nlist, nprobe)| IndexSpec::ivf(nlist, nprobe)),
        )
        .collect();
    // One cell per index spec: it builds its index once, measures recall
    // against the flat baseline, then serves every load level — the runs
    // inside a cell share the expensive index build.
    type CellOut = (f64, Vec<(f64, RunResult)>); // (chunk recall, per-load runs)
    let mut sweep: Sweep<'_, CellOut> = Sweep::new("fig_retrieval");
    for &spec in &specs {
        let flat = &flat;
        sweep = sweep.cell_with_seed(spec.label(), RUN_SEED, move |seed| {
            // The flat row reuses the already-built baseline (recall
            // against itself is 1 by definition); only IVF shapes need
            // their own index build.
            let built;
            let d: &Dataset = if spec == IndexSpec::Flat {
                flat
            } else {
                built = build_dataset_with_index(kind, n, DATASET_SEED, spec);
                &built
            };
            let recall = if spec == IndexSpec::Flat {
                1.0
            } else {
                chunk_recall_vs_flat(d, flat)
            };
            let runs = LOAD_MULTS
                .iter()
                .map(|&mult| {
                    let arrivals = poisson_arrivals(seed ^ 0xA11, base * mult, n);
                    let cfg = RunConfig::standard(metis(), arrivals, seed);
                    (mult, Runner::new(d, cfg).run())
                })
                .collect();
            (recall, runs)
        });
    }
    let cells = sweep.run();

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "recall_k", RECALL_K);
    for (si, spec) in specs.iter().enumerate() {
        let cell = &cells[si];
        let (recall, runs) = &cell.value;
        for (mult, r) in runs {
            report.cells.push(
                r.cell_report(format!("{}/{mult:.2}x", cell.id), cell.seed)
                    .knob("index", spec.label())
                    .knob("load_mult", format!("{mult:.2}"))
                    .metric("chunk_recall_at_8", *recall),
            );
        }
    }
    Vec::new()
}
