//! Figure 19: METIS under low load — queries sent sequentially, each after
//! the previous one completes (closed loop, no batching benefit).

use metis_core::SystemKind;
use metis_datasets::DatasetKind;
use metis_llm::{GpuCluster, ModelSpec};
use metis_metrics::BenchReport;

use crate::{
    base_qps, dataset, knob, metis, push_cells, run_on, values, Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig19_low_load",
    artefact: "Figure 19",
    title: "Low load: closed-loop sequential queries",
    paper: "METIS still reduces delay 1.48-1.56x vs vLLM's highest-quality \
            fixed config, because it only picks configurations relevant to the \
            query profile",
    report_title: "closed-loop sequential serving",
    queries: 80,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
    knob(report, "queries", n);
    knob(report, "closed_loop", "true");
    for kind in [DatasetKind::FinSec, DatasetKind::Musique] {
        let d = dataset(kind, n);
        // Best-quality fixed config is identified under open-loop load.
        let menu = FixedMenu::run(&d, base_qps(kind));
        let (qc, _) = menu.best_quality();

        let dref = &d;
        let mut sweep = Sweep::new(format!("fig19/{}", kind.name()));
        for (label, system) in [
            ("metis", metis()),
            ("vllm_fixed", SystemKind::VllmFixed { config: *qc }),
        ] {
            let id = format!("{}/{label}", kind.name());
            sweep = sweep.cell_with_seed(id, RUN_SEED, move |seed| {
                run_on(
                    dref,
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
        println!("\n--- {} (sequential, {} queries) ---", kind.name(), n);
        println!(
            "  METIS             mean {:>6.2}s  F1 {:.3}",
            m.mean_delay_secs(),
            m.mean_f1()
        );
        println!(
            "  vLLM fixed [{}]   mean {:>6.2}s  F1 {:.3}",
            qc.label(),
            v.mean_delay_secs(),
            v.mean_f1()
        );
        println!(
            "  delay reduction: {:.2}x",
            v.mean_delay_secs() / m.mean_delay_secs()
        );
        push_cells(report, &cells, |c, _| {
            c.knob("dataset", kind.name()).knob("config", qc.label())
        });
    }
}
