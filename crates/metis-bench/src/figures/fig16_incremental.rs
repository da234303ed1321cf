//! Figure 16: incrementally enabling METIS's knobs on QMSUM — tune
//! num_chunks only, + synthesis_method, + intermediate_length, + joint
//! scheduling.

use metis_core::{MetisOptions, PickPolicy, RagConfig, SystemKind};
use metis_datasets::DatasetKind;
use metis_engine::SchedPolicy;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, paired, push_cells, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig16_incremental",
    artefact: "Figure 16",
    title: "Incrementally tuning knobs (QMSUM, Mistral-7B)",
    paper: "each knob adds quality (+5/4/3% F1 steps vs vLLM); adding joint \
            scheduling then cuts delay ~2.8x",
    report_title: "incremental knob enablement on QMSUM",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
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

    let steps = [
        (
            "vllm_fixed",
            "vLLM fixed [stuff(k=12)]",
            SystemKind::VllmFixed { config: qc },
        ),
        (
            "tune_chunks",
            "+ tune num_chunks",
            SystemKind::Metis(chunks_only),
        ),
        (
            "tune_method",
            "+ tune synthesis_method",
            SystemKind::Metis(plus_method),
        ),
        (
            "tune_ilen",
            "+ tune intermediate_length",
            SystemKind::Metis(plus_ilen),
        ),
        (
            "joint",
            "+ joint scheduling (METIS)",
            SystemKind::Metis(MetisOptions::full()),
        ),
    ];
    let arms = steps.map(|(id, _, system)| (id, system));
    let cells = paired(Sweep::new("fig16"), "", &d, qps, &arms).run();

    let base_delay = cells[0].value.mean_delay_secs();
    let base_f1 = cells[0].value.mean_f1();
    for ((_, label, _), cell) in steps.iter().zip(&cells) {
        let r = &cell.value;
        println!(
            "  {:<34} delay {:>6.2}s ({:.2}x)   F1 {:.3} ({:+.1}%)",
            label,
            r.mean_delay_secs(),
            base_delay / r.mean_delay_secs().max(1e-9),
            r.mean_f1(),
            (r.mean_f1() / base_f1.max(1e-9) - 1.0) * 100.0
        );
    }

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "baseline_config", qc.label());
    push_cells(report, &cells, |c, _| c.knob("dataset", kind.name()));
}
