//! Figure 18: the per-query profiling delay is a small fraction of the
//! end-to-end response delay.

use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, push_cells, run, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig18_profiler_overhead",
    artefact: "Figure 18",
    title: "Profiler delay as a fraction of end-to-end delay",
    paper: "at most ~0.1 of the total delay; 0.03-0.06 in the average case",
    report_title: "profiler delay fraction of end-to-end delay",
    queries: 120,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) {
    println!(
        "  {:<16} {:>10} {:>10} {:>12}",
        "dataset", "mean", "max", "mean prof(s)"
    );
    let mut sweep = Sweep::new("fig18");
    for kind in DatasetKind::all() {
        sweep = sweep.cell(kind.name(), move |seed| {
            let d = dataset(kind, n);
            run(&d, metis(), base_qps(kind), seed)
        });
    }
    let cells = sweep.run();
    knob(report, "queries", n);
    push_cells(report, &cells, |c, r| {
        let fractions: Vec<f64> = r
            .per_query
            .iter()
            .map(|q| {
                if q.delay_secs > 0.0 {
                    q.profiler_secs / q.delay_secs
                } else {
                    0.0
                }
            })
            .collect();
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        let max = fractions.iter().fold(0.0f64, |a, &b| a.max(b));
        let mean_prof =
            r.per_query.iter().map(|q| q.profiler_secs).sum::<f64>() / r.per_query.len() as f64;
        println!(
            "  {:<16} {:>10.3} {:>10.3} {:>12.3}",
            c.id, mean, max, mean_prof
        );
        let dataset = c.id.clone();
        c.knob("dataset", dataset)
            .metric("profiler_fraction_mean", mean)
            .metric("profiler_fraction_max", max)
            .metric("profiler_secs_mean", mean_prof)
    });
}
