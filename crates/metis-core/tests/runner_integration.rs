//! The runner's runs that no other check covers. Every paper figure is a
//! set of `Runner::run` calls whose smoke- and full-scale reports
//! `tests/pins` holds byte for byte, and the run's fold audits every
//! answered query under debug assertions (answered or rejected exactly
//! once, stages summing to the delay). Each test left here is the only
//! check that kills some mutant under `tests/mutants/runner/`
//! (`tests/mutants/run.sh` replays them): a closed loop over an empty
//! workload (09), a latency SLO that constrains the pick (25) on the routed
//! replica's GPU (26), and an autoscaler that ticks at all (27) and drains
//! its newest slot (34). Prefix-aware routing (13, 29, 31, 32) is checked
//! in the facade's `tests/end_to_end.rs`, which can build one-token chunks.

use metis_core::{MetisOptions, RagConfig, RunConfig, Runner, SystemKind};
use metis_datasets::{build_dataset, poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;
use metis_llm::{GpuCluster, ReplicaSpec};

fn run(kind: DatasetKind, n: usize, system: SystemKind, qps: f64) -> metis_core::RunResult {
    let d = build_dataset(kind, n, 2024);
    let arrivals = poisson_arrivals(7, qps, n);
    Runner::new(&d, RunConfig::standard(system, arrivals, 99)).run()
}

/// Arrival rate at which the simulated A40 runs METIS at ~60% utilization
/// for each dataset (the paper's absolute 2 q/s is specific to its testbed).
fn base_qps(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 1.6,
        DatasetKind::Musique => 0.55,
        DatasetKind::FinSec => 0.20,
        DatasetKind::Qmsum => 0.17,
    }
}

#[test]
fn an_empty_workload_returns_an_empty_result_under_both_loops() {
    let d = build_dataset(DatasetKind::Squad, 0, 1);
    for closed_loop in [false, true] {
        let mut cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), vec![], 1);
        cfg.closed_loop = closed_loop;
        let r = Runner::new(&d, cfg).run();
        assert_eq!(r.per_query.len(), 0, "closed_loop = {closed_loop}");
        assert_eq!(r.makespan_secs, 0.0);
        let mut report = metis_metrics::BenchReport::new("empty", "no queries");
        report.cells.push(r.cell_report("empty", 1));
        let parsed = metis_metrics::BenchReport::parse(&report.render());
        assert_eq!(parsed.as_ref(), Ok(&report), "the empty cell renders");
    }
}

#[test]
fn slo_constrained_runs_use_cheaper_configs() {
    let d = build_dataset(DatasetKind::FinSec, 25, 2024);
    let qps = base_qps(DatasetKind::FinSec) * 0.5; // Light load: isolate the SLO effect.
    let mut tight = MetisOptions::full();
    tight.slo_secs = Some(2.0);
    let plain = run(
        DatasetKind::FinSec,
        25,
        SystemKind::Metis(MetisOptions::full()),
        qps,
    );
    let arrivals = poisson_arrivals(7, qps, 25);
    let constrained = Runner::new(
        &d,
        RunConfig::standard(SystemKind::Metis(tight), arrivals, 99),
    )
    .run();
    assert_eq!(constrained.per_query.len(), 25);
    // The SLO run picks smaller plans and completes faster on average.
    assert!(
        constrained.mean_delay_secs() < plain.mean_delay_secs(),
        "SLO {:.2}s vs plain {:.2}s",
        constrained.mean_delay_secs(),
        plain.mean_delay_secs()
    );
    // Cheaper configurations trade some quality, but not everything.
    assert!(constrained.mean_f1() > plain.mean_f1() * 0.6);
}

#[test]
fn slo_estimates_read_the_routed_replicas_gpu() {
    // One H100 given as a `replica_specs` fleet must decide exactly as the
    // same H100 given as the run's `cluster`: the SLO chooser estimates each
    // configuration on the replica the query was routed to.
    let d = build_dataset(DatasetKind::FinSec, 24, 2024);
    let mut opts = MetisOptions::full();
    opts.slo_secs = Some(1.5);
    let arrivals = poisson_arrivals(7, base_qps(DatasetKind::FinSec), 24);
    let mut on_cluster = RunConfig::standard(SystemKind::Metis(opts), arrivals, 99);
    let mut on_fleet = on_cluster.clone();
    on_cluster.cluster = GpuCluster::single_h100();
    on_fleet.replica_specs = Some(vec![ReplicaSpec::new(GpuCluster::single_h100())]);
    let picks = |cfg: RunConfig| -> Vec<(RagConfig, bool)> {
        let r = Runner::new(&d, cfg).run();
        r.per_query.iter().map(|q| (q.config, q.fallback)).collect()
    };
    assert_eq!(picks(on_fleet), picks(on_cluster));
}

#[test]
fn autoscaler_grows_under_load_and_bills_fewer_replica_seconds_than_fixed() {
    // Fleet elasticity end to end: a diurnal day served from 1 replica
    // under an autoscaler must complete everything, grow past its starting
    // fleet at the peak, and bill strictly fewer replica-seconds than a
    // fixed fleet at the autoscaler's cap.
    let n = 40;
    let d = build_dataset(DatasetKind::Musique, n, 2024);
    let arrivals = metis_datasets::diurnal_arrivals(7, 1.1, n);
    let policy = metis_core::Autoscaler {
        max_replicas: 4,
        scale_up_queue_depth: 4,
        eval_interval_nanos: 500_000_000,
        cooldown_nanos: 2_000_000_000,
        warmup_nanos: 1_000_000_000,
        ..metis_core::Autoscaler::default()
    };
    let autoscaled = |driver: metis_core::DriverSpec| {
        let cfg = RunConfig::standard(
            SystemKind::Metis(MetisOptions::full()),
            arrivals.clone(),
            99,
        )
        .with_autoscale(policy)
        .with_driver(driver);
        Runner::new(&d, cfg).run()
    };
    let r = autoscaled(metis_core::DriverSpec::Sim);
    assert!(
        r.peak_replicas > 1,
        "the peak load must trigger scale-up (peak {})",
        r.peak_replicas
    );
    assert!(r.replica_seconds > 0.0);
    // A scale-down drains the newest routable slot, never the first, so
    // the day ends on replica 0.
    let last = r.per_query.last().map(|q| q.replica);
    assert_eq!(last, Some(0), "the last query left the first replica");
    // A fixed fleet at the cap bills cap × makespan.
    let fixed = Runner::new(
        &d,
        RunConfig::standard(
            SystemKind::Metis(MetisOptions::full()),
            arrivals.clone(),
            99,
        )
        .replicated(4, RouterPolicy::RoundRobin),
    )
    .run();
    assert!(
        r.replica_seconds < fixed.replica_seconds,
        "autoscaled {:.1} replica-seconds !< fixed-4 {:.1}",
        r.replica_seconds,
        fixed.replica_seconds
    );
    // Every query completes exactly once, and the stage identity survives
    // elastic routing and drains.
    let seen: Vec<usize> = r.per_query.iter().map(|q| q.query_index).collect();
    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "every query, once");
    for q in &r.per_query {
        // Exact, not approximate: both sides are one integer nanosecond
        // count put through the same conversion.
        assert_eq!(
            metis_llm::nanos_to_secs(q.stages.total()),
            q.delay_secs,
            "q{}: stages do not partition the delay",
            q.query_index
        );
    }
    // The same elastic run paced by the wall is the same run.
    let live = autoscaled(metis_core::DriverSpec::Realtime { time_scale: 500.0 });
    assert_eq!(live.per_query, r.per_query);
    assert_eq!(live.replica_seconds, r.replica_seconds);
}
