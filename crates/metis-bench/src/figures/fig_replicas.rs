//! Replica scaling: mean/p99 delay and goodput of METIS across 1/2/4
//! engine replicas under rising offered load, comparing the KV-aware
//! `least-kv` router against blind round-robin.
//!
//! This experiment goes beyond the paper (which serves one backend): it
//! checks that (a) extra replicas absorb proportionally higher load before
//! delay collapses, and (b) routing by free KV bytes — the same signal
//! METIS's best-fit sizes against — beats round-robin at high load, because
//! a query lands on the backend with the most configuration headroom.

use metis_core::{RunConfig, Runner};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, push_cells, Claim, Figure, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_replicas",
    artefact: "Replica scaling",
    title: "replica scaling under rising load",
    queries: 96,
    run: measure,
};

const REPLICAS: [usize; 3] = [1, 2, 4];
const MULTS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let base = base_qps(kind);

    // All (load multiple, replica count, router) points on the sweep
    // driver; the two routers of a point are adjacent cells.
    let mut sweep = Sweep::new("fig_replicas");
    for mult in MULTS {
        for replicas in REPLICAS {
            for (tag, router) in [
                ("rr", RouterPolicy::RoundRobin),
                ("lkv", RouterPolicy::LeastKvLoad),
            ] {
                sweep = sweep.cell_with_seed(
                    format!("{mult:.0}x/{replicas}r/{tag}"),
                    RUN_SEED,
                    move |seed| {
                        let arrivals = poisson_arrivals(seed ^ 0xA11, base * mult, n);
                        let cfg = RunConfig::standard(metis(), arrivals, seed)
                            .replicated(replicas, router);
                        Runner::new(d, cfg).run()
                    },
                );
            }
        }
    }
    let cells = sweep.run();

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    push_cells(report, &cells, |c, _| c.knob("dataset", kind.name()));
    Vec::new()
}
