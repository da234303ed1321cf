//! Figure 13: dollar cost vs quality — METIS (Mistral-7B + GPT-4o profiler)
//! against bigger serving models with fixed configurations.

use metis_core::SystemKind;
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_llm::{GpuCluster, ModelSpec};
use metis_metrics::{BenchReport, CostModel, RunCost};

use crate::{
    base_qps, dataset, knob, metis, paired, run_on, values, Claim, Figure, FixedMenu, Sweep,
    RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig13_cost",
    artefact: "Figure 13",
    title: "dollar cost per query vs F1 across serving setups",
    queries: 100,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    for kind in [DatasetKind::Musique, DatasetKind::Qmsum] {
        let qps = base_qps(kind);
        let d = dataset(kind, n);

        let menu = FixedMenu::run(d, qps);
        let (qc, _) = menu.best_quality();
        let config = *qc;
        // METIS on Mistral-7B, one A40 (+ GPT-4o profiler API spend).
        let name = format!("fig13/{}", kind.name());
        let mut sweep = paired(
            Sweep::new(name),
            kind.name(),
            d,
            qps,
            &[("metis_7b", metis())],
        );
        for (label, rate, model, cluster) in [
            // Llama-3.1-70B on two A40s, best fixed config (rate scaled down
            // to its slower service).
            (
                "vllm_70b",
                qps * 0.4,
                ModelSpec::llama31_70b_awq(),
                GpuCluster::dual_a40(),
            ),
            // GPT-4o over the API with the same fixed config.
            (
                "api_gpt4o",
                qps,
                ModelSpec::gpt4o(),
                GpuCluster::single_a40(),
            ),
        ] {
            let id = format!("{}/{label}", kind.name());
            sweep = sweep.cell_with_seed(id, RUN_SEED, move |seed| {
                let arrivals = poisson_arrivals(seed ^ 0xA11, rate, n);
                let system = SystemKind::VllmFixed { config };
                run_on(d, system, arrivals, seed, model, cluster, false)
            });
        }
        let cells = sweep.run();
        let [m, l, g] = values(&cells);

        let mut metis_cost = RunCost::default();
        // GPU provisioned for the whole makespan.
        metis_cost.add_gpu_secs(m.makespan_secs);
        metis_cost.add_api(m.api_cost_usd);
        let metis_usd = metis_cost.usd_per_query(&CostModel::a40(1), n);
        let mut llama_cost = RunCost::default();
        llama_cost.add_gpu_secs(l.makespan_secs);
        let llama_usd = llama_cost.usd_per_query(&CostModel::a40(2), n);
        let gpt_usd = g.api_cost_usd / n as f64;

        for (cell, usd) in cells.iter().zip([metis_usd, llama_usd, gpt_usd]) {
            report.cells.push(
                cell.value
                    .cell_report(&cell.id, cell.seed)
                    .knob("dataset", kind.name())
                    .knob("config", qc.label())
                    .metric("usd_per_query", usd),
            );
        }
        let dataset = kind.name();
        claims.extend([
            Claim::higher(
                format!("{dataset}/vllm_70b_cost_x"),
                (2.38, 2.38),
                llama_usd / metis_usd,
            ),
            Claim::higher(
                format!("{dataset}/api_gpt4o_cost_x"),
                (6.8, 6.8),
                gpt_usd / metis_usd,
            ),
        ]);
    }
    claims
}
