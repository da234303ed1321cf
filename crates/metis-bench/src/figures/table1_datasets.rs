//! Table 1: input/output token-length distributions of the four datasets.

use metis_datasets::{build_dataset, Dataset, DatasetKind};
use metis_metrics::{BenchReport, CellReport};

use crate::{knob, Claim, Figure, Sweep, DATASET_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "table1_datasets",
    artefact: "Table 1",
    title: "dataset token-length distributions",
    queries: 200,
    run: measure,
};

/// The paper: Squad 0.4K–2K in / 5–10 out; Musique 1K–5K / 5–20; KG RAG
/// FinSec 4K–10K / 20–40; QMSUM 4K–12K / 20–60. Its Output column counts
/// generated tokens; the `gold_*` metrics count gold-answer tokens, and
/// generated outputs add ~0.9x boilerplate on top (the generation model's
/// `fill_ratio`).
fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut sweep: Sweep<'_, Dataset> = Sweep::new("table1");
    for kind in DatasetKind::all() {
        // Dataset construction uses the fixed DATASET_SEED (the table
        // describes the corpus, not run stochasticity). Built here, not
        // through the memoised `dataset`: at full scale no other figure
        // serves these sizes.
        sweep = sweep.cell(kind.name(), move |_| build_dataset(kind, n, DATASET_SEED));
    }
    let cells = sweep.run();
    knob(report, "queries", n);
    for cell in &cells {
        let row = cell.value.table1_row();
        let mut cr = CellReport::new(&cell.id, cell.seed);
        cr.queries = n as u64;
        report.cells.push(
            cr.knob("dataset", &cell.id)
                .knob("task", row.task)
                .metric("input_p5", row.input.0 as f64)
                .metric("input_p95", row.input.1 as f64)
                .metric("gold_p5", row.output.0 as f64)
                .metric("gold_p95", row.output.1 as f64),
        );
    }
    Vec::new()
}
