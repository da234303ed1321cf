//! Appendix A.2: swapping the embedding model changes F1 by less than 1%
//! and delay not at all (retrieval is >100x cheaper than synthesis).

use std::sync::Arc;

use metis_datasets::{build_dataset_with_embedder, DatasetKind};
use metis_embed::EmbedderKind;
use metis_metrics::BenchReport;

use crate::{base_qps, knob, metis, run, Claim, Figure, Sweep, DATASET_SEED, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "appendix_embeddings",
    artefact: "Appendix A.2",
    title: "embedding-model sensitivity on Musique",
    queries: 120,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Musique;
    let mut sweep = Sweep::new("appendix_embeddings");
    for ek in EmbedderKind::all() {
        let name = ek.build().name().to_owned();
        sweep = sweep.cell_with_seed(name, RUN_SEED, move |seed| {
            let embedder = ek.build();
            let d = build_dataset_with_embedder(kind, n, DATASET_SEED, Arc::from(embedder));
            run(&d, metis(), base_qps(kind), seed)
        });
    }
    let cells = sweep.run();
    let baseline_f1 = cells[0].value.mean_f1();
    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    for (i, cell) in cells.iter().enumerate() {
        let f1 = cell.value.mean_f1();
        let delta = if i == 0 {
            0.0
        } else {
            (f1 / baseline_f1 - 1.0) * 100.0
        };
        report.cells.push(
            cell.value
                .cell_report(&cell.id, cell.seed)
                .knob("embedder", &cell.id)
                .metric("f1_delta_pct_vs_first", delta),
        );
    }
    Vec::new()
}
