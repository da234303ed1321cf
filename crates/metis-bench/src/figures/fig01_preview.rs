//! Figure 1: headline preview on KG RAG FinSec — METIS vs AdaptiveRAG*,
//! Parrot*, and vLLM on both delay and quality.

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{
    adaptive_rag, base_qps, dataset, knob, metis, paired, push_cells, speedup, values, Claim,
    Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig01_preview",
    artefact: "Figure 1",
    title: "headline preview on KG RAG FinSec",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::FinSec;
    let qps = base_qps(kind);
    let d = dataset(kind, n);

    // Fixed-config baselines pick their best-quality static configuration.
    let menu = FixedMenu::run(d, qps);
    let (vc, vr) = menu.best_quality();
    let arms = [
        ("metis", metis()),
        ("adaptive_rag", adaptive_rag()),
        ("parrot", SystemKind::Parrot { config: *vc }),
    ];
    let cells = paired(Sweep::new("fig01"), "", d, qps, &arms).run();
    let [m, a, _] = values(&cells);

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "fixed_config", vc.label());
    push_cells(report, &cells, |c, _| {
        let system = c.id.clone();
        c.knob("system", system)
    });
    report.cells.push(
        vr.cell_report("vllm_fixed_best", RUN_SEED)
            .knob("system", "vllm_fixed"),
    );
    let dataset = kind.name();
    vec![
        Claim::higher(
            format!("{dataset}/delay_vs_adaptive_rag"),
            (1.64, 2.54),
            speedup(a, m),
        ),
        Claim::higher(
            format!("{dataset}/delay_vs_best_fixed"),
            (1.64, 2.54),
            speedup(vr, m),
        ),
    ]
}
