//! Figure 17: swapping the profiler LLM for a smaller open-source model
//! (Llama-3.1-70B instead of GPT-4o).

use metis_core::{MetisOptions, SystemKind};
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;
use metis_profiler::ProfilerKind;

use crate::{
    adaptive_rag, base_qps, dataset, knob, paired, push_cells, speedup, values, Claim, Figure,
    FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig17_small_profiler",
    artefact: "Figure 17",
    title: "METIS with a Llama-3.1-70B profiler vs baselines",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    knob(report, "profiler", "llama70b");
    for kind in [DatasetKind::FinSec, DatasetKind::Squad] {
        let qps = base_qps(kind);
        let d = dataset(kind, n);
        let mut opts = MetisOptions::full();
        opts.profiler = ProfilerKind::Llama70b;
        let arms = [
            ("metis_llama70b", SystemKind::Metis(opts)),
            ("adaptive_rag", adaptive_rag()),
        ];
        let name = format!("fig17/{}", kind.name());
        let cells = paired(Sweep::new(name), kind.name(), d, qps, &arms).run();
        let [m, a] = values(&cells);
        let menu = FixedMenu::run(d, qps);
        let (dc, dr) = menu.closest_delay(m.mean_delay_secs());

        let dataset = kind.name();
        let f1_gain_pct = (m.mean_f1() / dr.mean_f1().max(1e-9) - 1.0) * 100.0;
        claims.extend([
            Claim::higher(
                format!("{dataset}/delay_vs_adaptive_rag"),
                (1.4, 2.1),
                speedup(a, m),
            ),
            Claim::higher(
                format!("{dataset}/f1_vs_similar_delay_pct"),
                (10.0, 14.0),
                f1_gain_pct,
            ),
        ]);

        push_cells(report, &cells, |c, _| c.knob("dataset", kind.name()));
        report.cells.push(
            dr.cell_report(format!("{}/vllm_similar_delay", kind.name()), RUN_SEED)
                .knob("dataset", kind.name())
                .knob("config", dc.label()),
        );
    }
    claims
}
