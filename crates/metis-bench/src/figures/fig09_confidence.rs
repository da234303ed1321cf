//! Figure 9: the profiler's confidence score separates good profiles from
//! bad ones, justifying the 90% threshold of §5.

use metis_datasets::DatasetKind;
use metis_metrics::{BenchReport, CellReport};
use metis_profiler::{LlmProfiler, ProfilerKind};

use crate::{dataset, knob, Claim, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig09_confidence",
    artefact: "Figure 9",
    title: "profiler confidence separates good profiles from bad",
    queries: 150,
    run: measure,
};

/// (hi_good, hi_bad, lo_good, lo_bad) confusion counts for one dataset.
type Counts = (u32, u32, u32, u32);

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut sweep: Sweep<'_, Counts> = Sweep::new("fig09");
    for kind in DatasetKind::all() {
        sweep = sweep.cell(kind.name(), move |seed| {
            let d = dataset(kind, n);
            let mut p = LlmProfiler::new(ProfilerKind::Gpt4o);
            let md = d.db.metadata().clone();
            let mut counts: Counts = (0, 0, 0, 0);
            for q in &d.queries {
                let out = p.profile(q, &md, seed);
                let good = out.estimate.is_good(&q.profile);
                match (out.estimate.confidence >= 0.90, good) {
                    (true, true) => counts.0 += 1,
                    (true, false) => counts.1 += 1,
                    (false, true) => counts.2 += 1,
                    (false, false) => counts.3 += 1,
                }
            }
            counts
        });
    }
    let cells = sweep.run();
    knob(report, "queries_per_dataset", n);
    knob(report, "threshold", "0.90");
    let (mut hi_good, mut hi_bad, mut lo_good, mut lo_bad) = (0u32, 0u32, 0u32, 0u32);
    for c in &cells {
        let (hg, hb, lg, lb) = c.value;
        hi_good += hg;
        hi_bad += hb;
        lo_good += lg;
        lo_bad += lb;
        let mut cr = CellReport::new(&c.id, c.seed);
        cr.queries = u64::from(hg + hb + lg + lb);
        report.cells.push(
            cr.knob("dataset", &c.id)
                .metric("hi_good", f64::from(hg))
                .metric("hi_bad", f64::from(hb))
                .metric("lo_good", f64::from(lg))
                .metric("lo_bad", f64::from(lb)),
        );
    }
    let (hi, lo) = (hi_good + hi_bad, lo_good + lo_bad);
    let pct = |part: u32, whole: u32| 100.0 * f64::from(part) / f64::from(whole.max(1));
    vec![
        Claim::higher("pooled/above_threshold_pct", (93.0, 93.0), pct(hi, hi + lo)),
        Claim::higher(
            "pooled/good_above_threshold_pct",
            (96.0, 96.0),
            pct(hi_good, hi),
        ),
        Claim::higher(
            "pooled/bad_below_threshold_pct",
            (85.0, 90.0),
            pct(lo_bad, lo),
        ),
    ]
}
