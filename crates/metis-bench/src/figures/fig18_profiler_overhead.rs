//! Figure 18: the per-query profiling delay is a small fraction of the
//! end-to-end response delay.

use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, push_cells, run, Claim, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig18_profiler_overhead",
    artefact: "Figure 18",
    title: "profiler delay fraction of end-to-end delay",
    queries: 120,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut sweep = Sweep::new("fig18");
    for kind in DatasetKind::all() {
        sweep = sweep.cell(kind.name(), move |seed| {
            run(dataset(kind, n), metis(), base_qps(kind), seed)
        });
    }
    let cells = sweep.run();
    knob(report, "queries", n);
    push_cells(report, &cells, |c, r| {
        let max = r.per_query.iter().fold(0.0f64, |a, q| {
            a.max(if q.delay_secs > 0.0 {
                q.profiler_secs / q.delay_secs
            } else {
                0.0
            })
        });
        let mean_prof =
            r.per_query.iter().map(|q| q.profiler_secs).sum::<f64>() / r.per_query.len() as f64;
        let dataset = c.id.clone();
        c.knob("dataset", dataset)
            .metric("profiler_fraction_mean", r.mean_profiler_fraction())
            .metric("profiler_fraction_max", max)
            .metric("profiler_secs_mean", mean_prof)
    });
    let claims = cells.iter().map(|c| {
        let id = format!("{}/profiler_fraction_mean", c.id);
        Claim::lower(id, (0.03, 0.06), c.value.mean_profiler_fraction())
    });
    claims.collect()
}
