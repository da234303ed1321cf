//! Figure 12: decomposing METIS's delay improvement — profiler+median
//! choice, application-aware batching, and memory-aware joint adaptation —
//! plus the per-stage wall-time breakdown of each variant's delay
//! (profile / decide / retrieve / queue-wait / prefill / decode), now that
//! `RunResult::stage_breakdown()` partitions every query's delay exactly.

use metis_core::{MetisOptions, PickPolicy, StageMeans, SystemKind};
use metis_datasets::DatasetKind;
use metis_engine::SchedPolicy;
use metis_metrics::BenchReport;

use crate::{
    base_qps, dataset, knob, paired, push_cells, values, Figure, FixedMenu, Sweep, RUN_SEED,
};

pub(super) const FIGURE: Figure = Figure {
    name: "fig12_breakdown",
    artefact: "Figure 12",
    title: "Understanding the delay improvement",
    paper: "vs vLLM's highest-quality fixed config: profiler+median = \
            1.4-1.68x; +batching = 1.1-1.2x more; full joint adaptation = \
            1.45-1.75x more",
    report_title: "delay-improvement decomposition with per-stage wall-time breakdown",
    queries: 150,
    run: measure,
};

fn stage_row(label: &str, s: &StageMeans) {
    println!(
        "    {:<32} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>7.2}s",
        label,
        s.profile,
        s.decide,
        s.retrieve,
        s.queue_wait,
        s.prefill,
        s.decode,
        s.total()
    );
}

fn measure(n: usize, report: &mut BenchReport) {
    knob(report, "queries", n);
    for kind in [DatasetKind::FinSec, DatasetKind::Musique] {
        let qps = base_qps(kind);
        let d = dataset(kind, n);
        let menu = FixedMenu::run(&d, qps);
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
        let variants = paired(Sweep::new(name), kind.name(), &d, qps, &arms).run();
        let [r_median, r_gang, r_full] = values(&variants);

        println!("\n--- {} (λ = {qps}/s) ---", kind.name());
        let base = qr.mean_delay_secs();
        let rows = [
            (format!("vLLM fixed best-quality [{}]", qc.label()), qr),
            ("profiler + median config".into(), r_median),
            ("median config + batching".into(), r_gang),
            ("METIS (joint adaptation)".into(), r_full),
        ];
        for (label, r) in &rows {
            println!(
                "  {:<36} {:>7.2}s  ({:.2}x vs fixed)  F1 {:.3}",
                label,
                r.mean_delay_secs(),
                base / r.mean_delay_secs().max(1e-9),
                r.mean_f1()
            );
        }

        // Where the seconds went: mean wall time per pipeline stage.
        println!(
            "  stage breakdown (mean s):           {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8}",
            "profile", "decide", "retrieve", "queue", "prefill", "decode", "total"
        );
        stage_row("vLLM fixed best-quality", &qr.stage_breakdown());
        stage_row("profiler + median", &r_median.stage_breakdown());
        stage_row("median + batching", &r_gang.stage_breakdown());
        stage_row("METIS (joint)", &r_full.stage_breakdown());

        report.cells.push(
            qr.cell_report(format!("{}/vllm_fixed", kind.name()), RUN_SEED)
                .knob("dataset", kind.name())
                .knob("config", qc.label()),
        );
        push_cells(report, &variants, |c, _| c.knob("dataset", kind.name()));
    }
}
