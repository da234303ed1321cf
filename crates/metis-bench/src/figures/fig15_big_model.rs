//! Figure 15: sensitivity to the inference LLM — serving Llama-3.1-70B on
//! two A40s instead of Mistral-7B on one.

use metis_core::SystemKind;
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_llm::{GpuCluster, ModelSpec};
use metis_metrics::BenchReport;

use crate::{
    adaptive_rag, base_qps, dataset, knob, metis, push_cells, run_on, speedup, values, Claim,
    Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig15_big_model",
    artefact: "Figure 15",
    title: "METIS vs baselines on Llama-3.1-70B",
    queries: 100,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    knob(report, "model", "llama31_70b_awq");
    for kind in [DatasetKind::Musique, DatasetKind::Qmsum] {
        // The 70B model is ~5x slower per token even on 2 GPUs; scale the rate
        // to hold utilization comparable.
        let qps = base_qps(kind) * 0.12;
        let d = dataset(kind, n);
        // Every arm — the fixed menu too, which must pick its own best on
        // the large model — serves the same arrivals on the same cluster.
        let serve = |system: SystemKind, seed: u64| {
            let arrivals = poisson_arrivals(seed ^ 0xA11, qps, n);
            let model = ModelSpec::llama31_70b_awq();
            run_on(
                d,
                system,
                arrivals,
                seed,
                model,
                GpuCluster::dual_a40(),
                false,
            )
        };
        let serve = &serve;
        let mut sweep = Sweep::new(format!("fig15/{}", kind.name()));
        for (label, system) in [("metis", metis()), ("adaptive_rag", adaptive_rag())] {
            let id = format!("{}/{label}", kind.name());
            sweep = sweep.cell_with_seed(id, RUN_SEED, move |seed| serve(system, seed));
        }
        let cells = sweep.run();
        let [m, a] = values(&cells);
        let menu =
            FixedMenu::run_with(|config, seed| serve(SystemKind::VllmFixed { config }, seed));
        let (qc, qr) = menu.best_quality();

        let id = format!("{}/delay_vs_adaptive_rag", kind.name());
        claims.push(Claim::higher(id, (2.1, 2.4), speedup(a, m)));

        push_cells(report, &cells, |c, _| c.knob("dataset", kind.name()));
        // Only the winning fixed config joins the report (the full menu
        // would drown the report in near-duplicate cells).
        report.cells.push(
            qr.cell_report(format!("{}/vllm_best_fixed", kind.name()), RUN_SEED)
                .knob("dataset", kind.name())
                .knob("config", qc.label()),
        );
    }
    claims
}
