//! Figure 10: overall delay and quality across all four datasets —
//! METIS vs AdaptiveRAG*, Parrot*, and vLLM fixed configurations.

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{
    adaptive_rag, base_qps, dataset, knob, metis, paired, print_rows, push_cells, run, values,
    Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig10_overall",
    artefact: "Figure 10",
    title: "Overall improvement across the four datasets",
    paper: "METIS: 1.64-2.54x lower delay than quality-optimized adaptation \
            (AdaptiveRAG*) and best fixed configs at no F1 loss; 12-18% higher \
            F1 than fixed configs of similar delay",
    report_title: "METIS vs AdaptiveRAG*, Parrot*, and fixed configs on all datasets",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
    knob(report, "queries", n);
    for kind in DatasetKind::all() {
        let qps = base_qps(kind);
        let d = dataset(kind, n);
        let arms = [("metis", metis()), ("adaptive_rag", adaptive_rag())];
        let name = format!("fig10/{}", kind.name());
        let adaptive_cells = paired(Sweep::new(name), kind.name(), &d, qps, &arms).run();
        let [m, a] = values(&adaptive_cells);
        let menu = FixedMenu::run(&d, qps);
        let (qc, qr) = menu.best_quality();
        let (dc, dr) = menu.closest_delay(m.mean_delay_secs());
        let pr = &run(&d, SystemKind::Parrot { config: *qc }, qps, RUN_SEED);

        println!("\n--- {} (λ = {qps}/s, {n} queries) ---", kind.name());
        print_rows(&[
            ("METIS".into(), m),
            ("AdaptiveRAG*".into(), a),
            (format!("Parrot* [{}]", qc.label()), pr),
            (format!("vLLM best-quality [{}]", qc.label()), qr),
            (format!("vLLM similar-delay [{}]", dc.label()), dr),
        ]);
        println!(
            "  delay vs AdaptiveRAG*: {:.2}x | F1 delta: {:+.3}",
            a.mean_delay_secs() / m.mean_delay_secs(),
            m.mean_f1() - a.mean_f1()
        );
        println!(
            "  delay vs best-quality fixed: {:.2}x | F1 delta: {:+.3}",
            qr.mean_delay_secs() / m.mean_delay_secs(),
            m.mean_f1() - qr.mean_f1()
        );
        println!(
            "  F1 vs similar-delay fixed: {:+.1}%",
            (m.mean_f1() / dr.mean_f1().max(1e-9) - 1.0) * 100.0
        );

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
    }
}
