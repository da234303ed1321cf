//! Table 1: input/output token-length distributions of the four datasets.

use metis_datasets::{Dataset, DatasetKind};
use metis_metrics::{BenchReport, CellReport};

use crate::{dataset, knob, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "table1_datasets",
    artefact: "Table 1",
    title: "Dataset input/output token distributions",
    paper: "Squad 0.4K–2K in / 5–10 out; Musique 1K–5K / 5–20; \
            KG RAG FinSec 4K–10K / 20–40; QMSUM 4K–12K / 20–60",
    report_title: "dataset token-length distributions",
    queries: 200,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
    println!(
        "  {:<16} {:<18} {:>14} {:>12}",
        "Dataset", "Task Type", "Input (p5-p95)", "Gold (p5-p95)"
    );
    let mut sweep: Sweep<'_, Dataset> = Sweep::new("table1");
    for kind in DatasetKind::all() {
        // Dataset construction uses the fixed DATASET_SEED (the table
        // describes the corpus, not run stochasticity).
        sweep = sweep.cell(kind.name(), move |_| dataset(kind, n));
    }
    let cells = sweep.run();
    knob(report, "queries", n);
    for cell in &cells {
        let row = cell.value.table1_row();
        println!(
            "  {:<16} {:<18} {:>6} - {:<6} {:>4} - {:<4}",
            row.dataset, row.task, row.input.0, row.input.1, row.output.0, row.output.1
        );
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
    println!(
        "\nnote: the paper's Output column counts generated tokens; our gold \
         column counts gold-answer tokens — generated outputs add ~0.9x \
         boilerplate on top (the generation model's fill_ratio)."
    );
}
