//! Figure 19: METIS under low load — queries sent sequentially, each after
//! the previous one completes (closed loop, no batching benefit).

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_llm::{GpuCluster, ModelSpec};
use metis_metrics::BenchReport;

use crate::{
    base_qps, dataset, knob, metis, push_cells, run_on, speedup, values, Claim, Figure, FixedMenu,
    Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig19_low_load",
    artefact: "Figure 19",
    title: "closed-loop sequential serving",
    queries: 80,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    knob(report, "closed_loop", "true");
    for kind in [DatasetKind::FinSec, DatasetKind::Musique] {
        let d = dataset(kind, n);
        // Best-quality fixed config is identified under open-loop load.
        let menu = FixedMenu::run(d, base_qps(kind));
        let (qc, _) = menu.best_quality();

        let mut sweep = Sweep::new(format!("fig19/{}", kind.name()));
        for (label, system) in [
            ("metis", metis()),
            ("vllm_fixed", SystemKind::VllmFixed { config: *qc }),
        ] {
            let id = format!("{}/{label}", kind.name());
            sweep = sweep.cell_with_seed(id, RUN_SEED, move |seed| {
                run_on(
                    d,
                    system,
                    vec![0; n],
                    seed,
                    ModelSpec::mistral_7b_awq(),
                    GpuCluster::single_a40(),
                    true,
                )
            });
        }
        let cells = sweep.run();
        let [m, v] = values(&cells);
        let id = format!("{}/delay_vs_best_fixed", kind.name());
        claims.push(Claim::higher(id, (1.48, 1.56), speedup(v, m)));
        push_cells(report, &cells, |c, _| {
            c.knob("dataset", kind.name()).knob("config", qc.label())
        });
    }
    claims
}
