//! Figure 16: incrementally enabling METIS's knobs on QMSUM — tune
//! num_chunks only, + synthesis_method, + intermediate_length, + joint
//! scheduling.

use metis_core::{MetisOptions, PickPolicy, RagConfig, SystemKind};
use metis_datasets::DatasetKind;
use metis_engine::SchedPolicy;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, paired, push_cells, speedup, values, Claim, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig16_incremental",
    artefact: "Figure 16",
    title: "incremental knob enablement on QMSUM",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Qmsum;
    let qps = base_qps(kind);
    let d = dataset(kind, n);

    // The paper's Fig. 16 baseline is plain vLLM with a hand-picked static
    // configuration (the kind existing RAG systems ship with).
    let qc = RagConfig::stuff(12);

    let chunks_only = MetisOptions {
        pick: PickPolicy::Median,
        sched: SchedPolicy::Fcfs,
        tune_method: false,
        tune_ilen: false,
        ..MetisOptions::full()
    };
    let plus_method = MetisOptions {
        tune_method: true,
        ..chunks_only
    };
    let plus_ilen = MetisOptions {
        tune_ilen: true,
        ..plus_method
    };

    let arms = [
        ("vllm_fixed", SystemKind::VllmFixed { config: qc }),
        ("tune_chunks", SystemKind::Metis(chunks_only)),
        ("tune_method", SystemKind::Metis(plus_method)),
        ("tune_ilen", SystemKind::Metis(plus_ilen)),
        ("joint", SystemKind::Metis(MetisOptions::full())),
    ];
    let cells = paired(Sweep::new("fig16"), "", d, qps, &arms).run();
    let [.., tune_ilen, joint] = values::<_, 5>(&cells);

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "baseline_config", qc.label());
    push_cells(report, &cells, |c, _| c.knob("dataset", kind.name()));
    let id = format!("{}/joint_scheduling_delay_cut", kind.name());
    vec![Claim::higher(id, (2.8, 2.8), speedup(tune_ilen, joint))]
}
