//! Sim/realtime parity: the same seeded workload served twice — once by the
//! deterministic discrete-event simulator and once by the realtime driver,
//! which is that simulator paced by a scaled wall clock — must agree on
//! what happened, query for query.
//!
//! The engines are analytic, so the wall adds waiting, not work, and this
//! bench **asserts** that every query's delay, stage breakdown, replica and
//! F1 equal the sim run's exactly. The host's own cost shows up only as the
//! wall running behind the virtual clock (measured by the CLI and the
//! `serve_realtime` perf workload), never in the report, which is therefore
//! deterministic and witnessed by a digest.
//!
//! `METIS_TIME_SCALE` (default 200) sets the realtime driver's time
//! compression. The realtime cell carries the `driver = realtime` marker.

use metis_core::{DriverSpec, RunConfig, RunResult, Runner};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, Claim, Figure, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_realtime_parity",
    artefact: "Realtime parity",
    title: "sim vs realtime driver parity",
    queries: 16,
    run: measure,
};

fn time_scale() -> f64 {
    std::env::var("METIS_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &f64| s.is_finite() && s > 0.0)
        .unwrap_or(200.0)
}

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let scale = time_scale();
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let qps = base_qps(kind);

    let run = |driver: DriverSpec| -> RunResult {
        let arrivals = poisson_arrivals(RUN_SEED ^ 0xA11, qps, n);
        let cfg = RunConfig::standard(metis(), arrivals, RUN_SEED)
            .replicated(2, RouterPolicy::RoundRobin)
            .with_driver(driver);
        Runner::new(d, cfg).run()
    };
    let sim = run(DriverSpec::Sim);
    let rt = run(DriverSpec::Realtime { time_scale: scale });

    assert_eq!(rt.per_query.len(), n, "queries went missing");
    for (s, r) in sim.per_query.iter().zip(&rt.per_query) {
        assert_eq!(
            (r.query_index, r.delay_secs, r.stages, r.replica, r.f1),
            (s.query_index, s.delay_secs, s.stages, s.replica, s.f1),
            "query {}: the realtime run left the sim run",
            s.query_index
        );
    }

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "time_scale", scale);
    for (id, result) in [("sim", &sim), ("realtime", &rt)] {
        let cell = result.cell_report(id, RUN_SEED);
        report.cells.push(cell.knob("dataset", kind.name()));
    }
    Vec::new()
}
