//! Figure 9: the profiler's confidence score separates good profiles from
//! bad ones, justifying the 90% threshold of §5.

use metis_datasets::DatasetKind;
use metis_metrics::{BenchReport, CellReport};
use metis_profiler::{LlmProfiler, ProfilerKind};

use crate::{dataset, knob, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig09_confidence",
    artefact: "Figure 9",
    title: "Profiler confidence threshold (pooled over all four datasets)",
    paper: ">93% of profiles are above the 90% threshold; of those >96% are \
            good; of the ~7% below threshold, 85-90% are bad",
    report_title: "profiler confidence separates good profiles from bad",
    queries: 150,
    run: measure,
};

/// (hi_good, hi_bad, lo_good, lo_bad) confusion counts for one dataset.
type Counts = (u32, u32, u32, u32);

fn measure(n: usize, report: &mut BenchReport) {
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
    let (mut hi_good, mut hi_bad, mut lo_good, mut lo_bad) = (0u32, 0u32, 0u32, 0u32);
    for c in &cells {
        hi_good += c.value.0;
        hi_bad += c.value.1;
        lo_good += c.value.2;
        lo_bad += c.value.3;
    }
    let total = hi_good + hi_bad + lo_good + lo_bad;
    let hi = hi_good + hi_bad;
    let lo = lo_good + lo_bad;
    println!("  profiles: {total} total");
    println!(
        "  above 90% threshold: {hi} ({:.1}%) — good {:.1}%, bad {:.1}%",
        100.0 * f64::from(hi) / f64::from(total),
        100.0 * f64::from(hi_good) / f64::from(hi.max(1)),
        100.0 * f64::from(hi_bad) / f64::from(hi.max(1)),
    );
    println!(
        "  below 90% threshold: {lo} ({:.1}%) — bad {:.1}%, good {:.1}%",
        100.0 * f64::from(lo) / f64::from(total),
        100.0 * f64::from(lo_bad) / f64::from(lo.max(1)),
        100.0 * f64::from(lo_good) / f64::from(lo.max(1)),
    );

    knob(report, "queries_per_dataset", n);
    knob(report, "threshold", "0.90");
    for c in &cells {
        let (hg, hb, lg, lb) = c.value;
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
}
