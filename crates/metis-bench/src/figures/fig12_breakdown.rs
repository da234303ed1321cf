//! Figure 12: decomposing METIS's delay improvement — profiler+median
//! choice, application-aware batching, and memory-aware joint adaptation —
//! plus the per-stage wall-time breakdown of each variant's delay
//! (profile / decide / retrieve / queue-wait / prefill / decode), now that
//! `RunResult::stage_breakdown()` partitions every query's delay exactly.

use metis_core::{MetisOptions, PickPolicy, SystemKind};
use metis_datasets::DatasetKind;
use metis_engine::SchedPolicy;
use metis_metrics::BenchReport;

use crate::{
    base_qps, dataset, knob, paired, push_cells, speedup, values, Claim, Figure, FixedMenu, Sweep,
    RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig12_breakdown",
    artefact: "Figure 12",
    title: "delay-improvement decomposition with per-stage wall-time breakdown",
    queries: 150,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    for kind in [DatasetKind::FinSec, DatasetKind::Musique] {
        let qps = base_qps(kind);
        let d = dataset(kind, n);
        let menu = FixedMenu::run(d, qps);
        let (qc, qr) = menu.best_quality();

        let median = |sched| {
            SystemKind::Metis(MetisOptions {
                pick: PickPolicy::Median,
                sched,
                ..MetisOptions::full()
            })
        };
        let arms = [
            ("median", median(SchedPolicy::Fcfs)),
            ("median_gang", median(SchedPolicy::GangByGroup)),
            ("full", SystemKind::Metis(MetisOptions::full())),
        ];
        let name = format!("fig12/{}", kind.name());
        let variants = paired(Sweep::new(name), kind.name(), d, qps, &arms).run();
        let [r_median, r_gang, r_full] = values(&variants);

        report.cells.push(
            qr.cell_report(format!("{}/vllm_fixed", kind.name()), RUN_SEED)
                .knob("dataset", kind.name())
                .knob("config", qc.label()),
        );
        push_cells(report, &variants, |c, _| c.knob("dataset", kind.name()));
        // The paper's gains are steps: each variant against the one before.
        let dataset = kind.name();
        claims.extend([
            Claim::higher(
                format!("{dataset}/median_vs_fixed"),
                (1.4, 1.68),
                speedup(qr, r_median),
            ),
            Claim::higher(
                format!("{dataset}/batching_step"),
                (1.1, 1.2),
                speedup(r_median, r_gang),
            ),
            Claim::higher(
                format!("{dataset}/joint_step"),
                (1.45, 1.75),
                speedup(r_gang, r_full),
            ),
        ]);
    }
    claims
}
