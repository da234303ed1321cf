//! Figure 10: overall delay and quality across all four datasets —
//! METIS vs AdaptiveRAG*, Parrot*, and vLLM fixed configurations.

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{
    adaptive_rag, base_qps, dataset, knob, metis, paired, push_cells, run, speedup, values, Claim,
    Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig10_overall",
    artefact: "Figure 10",
    title: "METIS vs AdaptiveRAG*, Parrot*, and fixed configs on all datasets",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    for kind in DatasetKind::all() {
        let qps = base_qps(kind);
        let d = dataset(kind, n);
        let arms = [("metis", metis()), ("adaptive_rag", adaptive_rag())];
        let name = format!("fig10/{}", kind.name());
        let adaptive_cells = paired(Sweep::new(name), kind.name(), d, qps, &arms).run();
        let [m, a] = values(&adaptive_cells);
        let menu = FixedMenu::run(d, qps);
        let (qc, qr) = menu.best_quality();
        let (dc, dr) = menu.closest_delay(m.mean_delay_secs());
        let pr = &run(d, SystemKind::Parrot { config: *qc }, qps, RUN_SEED);

        push_cells(report, &adaptive_cells, |c, _| {
            c.knob("dataset", kind.name())
        });
        for (label, config, r) in [
            ("parrot", qc, pr),
            ("vllm_best_quality", qc, qr),
            ("vllm_similar_delay", dc, dr),
        ] {
            report.cells.push(
                r.cell_report(format!("{}/{label}", kind.name()), RUN_SEED)
                    .knob("dataset", kind.name())
                    .knob("config", config.label()),
            );
        }
        let dataset = kind.name();
        let f1_gain_pct = (m.mean_f1() / dr.mean_f1().max(1e-9) - 1.0) * 100.0;
        claims.extend([
            Claim::higher(
                format!("{dataset}/delay_vs_adaptive_rag"),
                (1.64, 2.54),
                speedup(a, m),
            ),
            Claim::higher(
                format!("{dataset}/delay_vs_best_fixed"),
                (1.64, 2.54),
                speedup(qr, m),
            ),
            Claim::higher(
                format!("{dataset}/f1_vs_similar_delay_pct"),
                (12.0, 18.0),
                f1_gain_pct,
            ),
        ]);
    }
    claims
}
