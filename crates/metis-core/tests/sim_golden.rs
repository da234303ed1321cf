//! Golden-file pin of the deterministic simulator's *output*, not just its
//! schema: a fixed workload (pinned dataset seed, pinned Poisson arrivals,
//! preemptive METIS over a 2-replica least-KV cluster) must render the
//! byte-for-byte identical `CellReport` forever. This is the cross-driver
//! determinism contract behind the Clock/Driver refactor — the simulator is
//! the oracle the realtime driver is validated against, so the simulator
//! itself must never drift: any change to event ordering, engine arithmetic,
//! or float summation order shows up here as a byte diff.
//!
//! On an *intentional* behavior change, regenerate with
//! `METIS_REGEN_GOLDEN=1 cargo test -p metis-core --test sim_golden`,
//! review the numeric diff, and say why in the PR.

#![expect(
    clippy::disallowed_methods,
    reason = "METIS_REGEN_GOLDEN=1 rewrites the golden file; nothing else here touches a file"
)]

use metis_core::{MetisOptions, RunConfig, Runner, SystemKind};
use metis_datasets::{build_dataset, poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;
use metis_metrics::BenchReport;

const GOLDEN: &str = include_str!("golden/sim_cell_report.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sim_cell_report.json"
);

const DATASET_SEED: u64 = 20_241_016;
const RUN_SEED: u64 = 99;
const QUERIES: usize = 16;

/// The pinned workload: bursty enough to exercise queueing and preemption
/// paths (METIS `full()` defaults to the preemptive policy), spread over two
/// replicas so cluster stepping order is pinned too.
fn pinned_run() -> BenchReport {
    let dataset = build_dataset(DatasetKind::Musique, QUERIES, DATASET_SEED);
    let arrivals = poisson_arrivals(RUN_SEED ^ 0xA11, 0.55, QUERIES);
    let cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, RUN_SEED)
        .replicated(2, RouterPolicy::LeastKvLoad);
    let r = Runner::new(&dataset, cfg).run();
    let mut report = BenchReport::new("sim_golden", "SimDriver output pin");
    report.dataset_seed = DATASET_SEED;
    report.run_seed = RUN_SEED;
    report
        .cells
        .push(r.cell_report("musique/metis/2r", RUN_SEED));
    report
}

#[test]
fn sim_driver_reproduces_the_golden_report_byte_for_byte() {
    let rendered = pinned_run().render();
    if std::env::var("METIS_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "simulator output drift: the pinned workload no longer reproduces \
         tests/golden/sim_cell_report.json. The deterministic driver must \
         stay bit-for-bit stable across refactors; if this change is \
         intentional, rerun with METIS_REGEN_GOLDEN=1 and justify the \
         numeric diff in the PR."
    );
}

#[test]
fn golden_report_parses_and_is_plausible() {
    let parsed = BenchReport::parse(GOLDEN).expect("golden parses");
    assert_eq!(parsed.cells.len(), 1);
    let cell = &parsed.cells[0];
    assert_eq!(cell.queries, QUERIES as u64);
    assert!(cell.f1 > 0.0, "the pinned run answers queries");
    assert!(cell.latency.mean > 0.0, "the pinned run takes time");
}
