//! End-to-end runner integration on the realtime driver: a full METIS
//! workload — profiler, pruning, joint scheduling, retrieval, map/reduce
//! synthesis — served on two replicas with KV migration, paced by a scaled
//! wall clock instead of run as fast as the host can.
//!
//! The realtime driver is the simulator paced by the wall, so the checks
//! are exact:
//!
//! * every query's record — delay, stages, replica, F1 — equals the sim
//!   run's;
//! * so do the run totals that do not name the driver;
//! * the run is stamped as realtime-served (its `DriverSpec`, and the
//!   report-cell `driver` knob that marks the cell for readers).

use metis_core::{DriverSpec, MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{build_dataset, poisson_arrivals, DatasetKind};
use metis_engine::{PreemptMode, RouterPolicy};

const QUERIES: usize = 10;
const TIME_SCALE: f64 = 5_000.0;

#[test]
fn realtime_driver_serves_a_full_metis_workload() {
    let dataset = build_dataset(DatasetKind::Musique, QUERIES, 20_241_016);
    let arrivals = poisson_arrivals(99 ^ 0xA11, 0.55, QUERIES);
    let run = |driver| {
        let mut cfg = RunConfig::standard(
            SystemKind::Metis(MetisOptions::full()),
            arrivals.clone(),
            99,
        )
        .replicated(2, RouterPolicy::LeastKvLoad)
        .with_driver(driver);
        cfg.engine.preempt_mode = PreemptMode::Migrate;
        Runner::new(&dataset, cfg).run()
    };
    let sim = run(DriverSpec::Sim);
    let r = run(DriverSpec::Realtime {
        time_scale: TIME_SCALE,
    });

    assert_eq!(r.per_query.len(), QUERIES, "every query completes");
    assert_eq!(r.per_query, sim.per_query, "query for query, the sim run");
    let totals = |r: &RunResult| (r.gpu_busy_secs, r.migrations, r.replica_seconds);
    assert_eq!(totals(&r), totals(&sim));
    assert_eq!(
        r.driver,
        DriverSpec::Realtime {
            time_scale: TIME_SCALE
        }
    );
    assert!(r.mean_f1() > 0.0, "queries are actually answered");

    // The report cell carries the realtime marker; a sim run of the same
    // workload stays unmarked (golden/baseline compatibility).
    let cell = r.cell_report("rt", 99);
    assert_eq!(cell.knob_value("driver"), Some("realtime"));
    assert_eq!(cell.extra_metric("time_scale"), Some(TIME_SCALE));
    assert_eq!(sim.cell_report("rt", 99).knob_value("driver"), None);
}
