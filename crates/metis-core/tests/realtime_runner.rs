//! End-to-end runner integration on the realtime driver: a full METIS
//! workload — profiler, pruning, joint scheduling, retrieval, map/reduce
//! synthesis — served by live worker threads instead of the simulator.
//!
//! High time compression keeps the wall cost to milliseconds. The checks
//! are structural, not golden (wall-clock jitter moves the numbers):
//!
//! * every query completes, with a plausible F1 and positive delay;
//! * the per-stage breakdown still telescopes *exactly* to the mean
//!   end-to-end delay — engine timestamps stay virtual under the realtime
//!   driver, so the partition identity is not merely approximate;
//! * the run is stamped as realtime-served (`DriverKind`, `time_scale`,
//!   and the report-cell `driver` knob that marks the cell for readers).

use metis_core::{DriverKind, DriverSpec, MetisOptions, RunConfig, Runner, SystemKind};
use metis_datasets::{build_dataset, poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;

const QUERIES: usize = 10;
const TIME_SCALE: f64 = 5_000.0;

#[test]
fn realtime_driver_serves_a_full_metis_workload() {
    let dataset = build_dataset(DatasetKind::Musique, QUERIES, 20_241_016);
    let arrivals = poisson_arrivals(99 ^ 0xA11, 0.55, QUERIES);
    let cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 99)
        .replicated(2, RouterPolicy::LeastKvLoad)
        .with_driver(DriverSpec::Realtime {
            time_scale: TIME_SCALE,
        });
    let r = Runner::new(&dataset, cfg).run();

    assert_eq!(r.per_query.len(), QUERIES, "every query completes");
    assert_eq!(r.driver, DriverKind::Realtime);
    assert_eq!(r.time_scale, TIME_SCALE);
    assert!(r.mean_f1() > 0.0, "queries are actually answered");
    assert!(r.gpu_busy_secs > 0.0, "workers accounted busy time");

    // The stage partition holds exactly per query: timestamps are virtual
    // under both drivers, so profile + decide + retrieve + queue-wait +
    // prefill + decode is the delay, not an approximation of it.
    for q in &r.per_query {
        let s = &q.stages;
        let sum = s.profile + s.decide + s.retrieve + s.queue_wait + s.prefill + s.decode;
        let delay_nanos = (q.delay_secs * 1e9).round() as i64;
        assert!(
            (sum as i64 - delay_nanos).abs() <= 1,
            "query {}: stage sum {sum} != delay {delay_nanos}",
            q.query_index
        );
        assert!(q.finish_secs >= q.arrival_secs, "time flows forward");
    }

    // The report cell carries the realtime marker; a sim run of the same
    // workload stays unmarked (golden/baseline compatibility).
    let cell = r.cell_report("rt", 99);
    assert_eq!(cell.knob_value("driver"), Some("realtime"));
    assert_eq!(cell.extra_metric("time_scale"), Some(TIME_SCALE));
}
