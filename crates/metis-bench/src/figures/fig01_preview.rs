//! Figure 1: headline preview on KG RAG FinSec — METIS vs AdaptiveRAG*,
//! Parrot*, and vLLM on both delay and quality.

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{
    adaptive_rag, base_qps, dataset, knob, metis, paired, print_rows, push_cells, values, Figure,
    FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig01_preview",
    artefact: "Figure 1",
    title: "Preview on KG RAG FinSec",
    paper: "METIS beats vLLM, Parrot (OSDI'24) and AdaptiveRAG (ACL'24) on the \
            delay-quality plane",
    report_title: "headline preview on KG RAG FinSec",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
    let kind = DatasetKind::FinSec;
    let qps = base_qps(kind);
    let d = dataset(kind, n);
    println!("  {} at λ = {qps}/s, {n} queries", kind.name());

    // Fixed-config baselines pick their best-quality static configuration.
    let menu = FixedMenu::run(&d, qps);
    let (vc, vr) = menu.best_quality();
    let arms = [
        ("metis", metis()),
        ("adaptive_rag", adaptive_rag()),
        ("parrot", SystemKind::Parrot { config: *vc }),
    ];
    let cells = paired(Sweep::new("fig01"), "", &d, qps, &arms).run();
    let [m, a, pr] = values(&cells);

    print_rows(&[
        ("METIS (ours)".into(), m),
        ("AdaptiveRAG*".into(), a),
        (format!("Parrot* [{}]", vc.label()), pr),
        (format!("vLLM fixed [{}]", vc.label()), vr),
    ]);
    println!(
        "\nmeasured: METIS delay {:.2}s vs AdaptiveRAG* {:.2}s ({:.2}x), \
         vLLM best fixed {:.2}s ({:.2}x); F1 {:.3} vs {:.3}/{:.3}",
        m.mean_delay_secs(),
        a.mean_delay_secs(),
        a.mean_delay_secs() / m.mean_delay_secs(),
        vr.mean_delay_secs(),
        vr.mean_delay_secs() / m.mean_delay_secs(),
        m.mean_f1(),
        a.mean_f1(),
        vr.mean_f1()
    );

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
}
