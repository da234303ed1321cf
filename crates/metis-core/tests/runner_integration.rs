//! Integration tests for the workload runner: end-to-end METIS and baseline
//! runs over the discrete-event engine.

use metis_core::{MetisOptions, PickPolicy, RagConfig, RunConfig, Runner, SystemKind};
use metis_datasets::{
    build_dataset, build_dataset_with_index, burst_arrivals, poisson_arrivals, DatasetKind,
};
use metis_engine::{Priority, RouterPolicy, SchedPolicy};
use metis_llm::{GpuCluster, ModelSpec, ReplicaSpec};
use metis_profiler::ProfilerKind;
use metis_vectordb::IndexSpec;

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
fn vllm_fixed_completes_all_queries() {
    let r = run(
        DatasetKind::Musique,
        30,
        SystemKind::VllmFixed {
            config: RagConfig::stuff(8),
        },
        base_qps(DatasetKind::Musique),
    );
    assert_eq!(r.per_query.len(), 30);
    assert!(r.mean_f1() > 0.05, "f1 = {}", r.mean_f1());
    assert!(r.mean_delay_secs() > 0.1);
    assert!(r.gpu_busy_secs > 0.0);
    // No profiler → no API cost, no profiler time.
    assert_eq!(r.api_cost_usd, 0.0);
    assert!(r.per_query.iter().all(|q| q.profiler_secs == 0.0));
}

#[test]
fn metis_completes_with_profiler_cost_and_adapted_configs() {
    let r = run(
        DatasetKind::Musique,
        30,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Musique),
    );
    assert_eq!(r.per_query.len(), 30);
    assert!(r.api_cost_usd > 0.0, "profiler must cost dollars");
    assert!(r.per_query.iter().all(|q| q.profiler_secs > 0.0));
    // Configurations vary across queries (per-query adaptation).
    #[expect(clippy::disallowed_types, reason = "len() only")]
    let distinct: std::collections::HashSet<_> =
        r.per_query.iter().map(|q| q.config.label()).collect();
    assert!(
        distinct.len() > 3,
        "only {} distinct configs",
        distinct.len()
    );
}

#[test]
fn metis_is_faster_than_adaptive_rag_at_similar_quality() {
    // The headline claim (Fig. 10): 1.64–2.54× lower delay, no F1 loss.
    let qps = base_qps(DatasetKind::FinSec);
    let metis = run(
        DatasetKind::FinSec,
        40,
        SystemKind::Metis(MetisOptions::full()),
        qps,
    );
    let adaptive = run(
        DatasetKind::FinSec,
        40,
        SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Gpt4o,
        },
        qps,
    );
    assert!(
        metis.mean_delay_secs() < adaptive.mean_delay_secs(),
        "METIS {:.2}s vs AdaptiveRAG* {:.2}s",
        metis.mean_delay_secs(),
        adaptive.mean_delay_secs()
    );
    assert!(
        metis.mean_f1() > adaptive.mean_f1() - 0.05,
        "METIS F1 {:.3} vs AdaptiveRAG* {:.3}",
        metis.mean_f1(),
        adaptive.mean_f1()
    );
}

#[test]
fn metis_beats_fixed_config_quality_at_comparable_delay() {
    let qps = base_qps(DatasetKind::Qmsum);
    let metis = run(
        DatasetKind::Qmsum,
        40,
        SystemKind::Metis(MetisOptions::full()),
        qps,
    );
    // A fixed config with similar or higher delay.
    let fixed = run(
        DatasetKind::Qmsum,
        40,
        SystemKind::VllmFixed {
            config: RagConfig::stuff(12),
        },
        qps,
    );
    assert!(
        metis.mean_f1() > fixed.mean_f1(),
        "METIS F1 {:.3} vs fixed {:.3} (delays {:.2} vs {:.2})",
        metis.mean_f1(),
        fixed.mean_f1(),
        metis.mean_delay_secs(),
        fixed.mean_delay_secs()
    );
}

#[test]
fn parrot_is_faster_than_vllm_on_multi_call_configs() {
    let config = RagConfig::map_reduce(8, 80);
    let qps = base_qps(DatasetKind::FinSec) * 1.5;
    let vllm = run(
        DatasetKind::FinSec,
        30,
        SystemKind::VllmFixed { config },
        qps,
    );
    let parrot = run(DatasetKind::FinSec, 30, SystemKind::Parrot { config }, qps);
    // Same configs → same quality; gang scheduling cuts delay.
    assert!((vllm.mean_f1() - parrot.mean_f1()).abs() < 1e-9);
    assert!(
        parrot.mean_delay_secs() < vllm.mean_delay_secs() * 1.02,
        "parrot {:.2}s vs vllm {:.2}s",
        parrot.mean_delay_secs(),
        vllm.mean_delay_secs()
    );
}

#[test]
fn closed_loop_serializes_queries() {
    let d = build_dataset(DatasetKind::Squad, 10, 5);
    let mut cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), vec![0; 10], 1);
    cfg.closed_loop = true;
    let r = Runner::new(&d, cfg).run();
    assert_eq!(r.per_query.len(), 10);
    // No two queries overlap: each arrival >= previous finish.
    let mut results = r.per_query.clone();
    results.sort_by(|a, b| a.arrival_secs.total_cmp(&b.arrival_secs));
    for w in results.windows(2) {
        assert!(
            w[1].arrival_secs >= w[0].finish_secs - 1e-9,
            "overlap: {} arrives {:.3} before {} finishes {:.3}",
            w[1].query_index,
            w[1].arrival_secs,
            w[0].query_index,
            w[0].finish_secs
        );
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
fn api_serving_mode_runs_without_engine() {
    let d = build_dataset(DatasetKind::Squad, 8, 3);
    let mut cfg = RunConfig::standard(
        SystemKind::VllmFixed {
            config: RagConfig::stuff(4),
        },
        poisson_arrivals(1, 2.0, 8),
        1,
    );
    cfg.model = ModelSpec::gpt4o();
    let r = Runner::new(&d, cfg).run();
    assert_eq!(r.per_query.len(), 8);
    assert!(r.api_cost_usd > 0.0, "API serving must cost dollars");
    assert_eq!(r.gpu_busy_secs, 0.0);
}

#[test]
fn seventy_b_serving_works_on_dual_a40() {
    let d = build_dataset(DatasetKind::Musique, 12, 4);
    let mut cfg = RunConfig::standard(
        SystemKind::Metis(MetisOptions::full()),
        poisson_arrivals(2, 1.0, 12),
        1,
    );
    cfg.model = ModelSpec::llama31_70b_awq();
    cfg.cluster = GpuCluster::dual_a40();
    let r = Runner::new(&d, cfg).run();
    assert_eq!(r.per_query.len(), 12);
    assert!(r.mean_delay_secs() > 0.0);
}

#[test]
fn replicas_absorb_load_without_losing_quality() {
    // Twice the base rate saturates one replica; two replicas restore the
    // low-load delay at identical quality (same configs, just less queueing).
    let d = build_dataset(DatasetKind::Musique, 40, 2024);
    let qps = base_qps(DatasetKind::Musique) * 2.0;
    let go = |replicas: usize, router: RouterPolicy| {
        let arrivals = poisson_arrivals(7, qps, 40);
        let cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 99)
            .replicated(replicas, router);
        Runner::new(&d, cfg).run()
    };
    let one = go(1, RouterPolicy::RoundRobin);
    let two = go(2, RouterPolicy::LeastKvLoad);
    assert_eq!(two.per_query.len(), one.per_query.len());
    assert_eq!(two.replicas, 2);
    assert_eq!(two.completions_by_replica().iter().sum::<usize>(), 40);
    assert!(
        two.mean_delay_secs() < one.mean_delay_secs(),
        "2 replicas {:.2}s vs 1 replica {:.2}s",
        two.mean_delay_secs(),
        one.mean_delay_secs()
    );
    assert!(
        two.mean_f1() > one.mean_f1() - 0.05,
        "quality must not regress: {:.3} vs {:.3}",
        two.mean_f1(),
        one.mean_f1()
    );
}

#[test]
fn prefix_caches_are_per_replica() {
    // Replicas share no KV: splitting the same workload over two replicas
    // must not report more cache hits than serving it all on one (each
    // backend warms its own cache independently). The cache budget is made
    // effectively unbounded so no eviction happens — without eviction the
    // shared history's hits are a superset of the split histories', making
    // the ≤ comparison an invariant rather than a seed accident.
    let d = build_dataset(DatasetKind::Squad, 30, 8);
    let go = |replicas: usize| {
        let arrivals = poisson_arrivals(3, 2.0, 30);
        let mut cfg = RunConfig::standard(
            SystemKind::VllmFixed {
                config: RagConfig::stuff(6),
            },
            arrivals,
            5,
        )
        .replicated(replicas, RouterPolicy::RoundRobin);
        cfg.prefix_cache_bytes = Some(1 << 40);
        Runner::new(&d, cfg).run()
    };
    let one = go(1);
    let two = go(2);
    assert!(one.prefix_hit_rate > 0.0, "cache must see reuse");
    assert!(
        two.prefix_hit_rate <= one.prefix_hit_rate + 1e-12,
        "isolated per-replica caches cannot hit more often than one shared \
         history: {:.3} vs {:.3}",
        two.prefix_hit_rate,
        one.prefix_hit_rate
    );
}

#[test]
fn ivf_serving_cuts_retrieval_latency_below_flat_at_partial_probe() {
    // The PR's acceptance experiment: the same workload served once over
    // the exact flat index and once over IVF with nprobe < nlist. The IVF
    // run's retrieval latency must be strictly below the flat-scan
    // equivalent (it scores a fraction of the corpus), recall is reported,
    // and quality stays comparable.
    let n = 30;
    let kind = DatasetKind::Musique;
    let spec = IndexSpec::ivf(32, 8);
    let flat_d = build_dataset(kind, n, 2024);
    let ivf_d = build_dataset_with_index(kind, n, 2024, spec);
    let go = |d: &metis_datasets::Dataset| {
        let arrivals = poisson_arrivals(7, base_qps(kind), n);
        let cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 99);
        Runner::new(d, cfg).run()
    };
    let flat = go(&flat_d);
    let ivf = go(&ivf_d);
    assert_eq!((flat.index_spec, ivf.index_spec), (IndexSpec::Flat, spec));
    assert_eq!(flat.per_query.len(), n);
    assert_eq!(ivf.per_query.len(), n);
    // Strictly below at every percentile: IVF scores ~nprobe/nlist of the
    // corpus plus nlist centroids; flat scores everything.
    assert!(
        ivf.retrieval().p50() < flat.retrieval().p50(),
        "ivf p50 {:.4}s !< flat p50 {:.4}s",
        ivf.retrieval().p50(),
        flat.retrieval().p50()
    );
    assert!(
        ivf.retrieval().p99() < flat.retrieval().p99(),
        "ivf p99 {:.4}s !< flat p99 {:.4}s",
        ivf.retrieval().p99(),
        flat.retrieval().p99()
    );
    // Recall is measured and reported: flat recovers nearly all needed
    // facts at the executed depth; the approximate index pays a bounded
    // tax that end-to-end F1 inherits without collapsing.
    assert!(
        flat.mean_retrieval_recall() > 0.8,
        "flat fact recall {:.3}",
        flat.mean_retrieval_recall()
    );
    assert!(
        ivf.mean_retrieval_recall() > 0.5,
        "ivf fact recall {:.3}",
        ivf.mean_retrieval_recall()
    );
    assert!(
        ivf.mean_f1() > flat.mean_f1() * 0.7,
        "ivf F1 {:.3} vs flat {:.3}",
        ivf.mean_f1(),
        flat.mean_f1()
    );
}

#[test]
fn retrieval_is_charged_after_the_decision_that_sizes_it() {
    // The timeline is Profile → Decide → Retrieve → Submit: every query's
    // end-to-end delay must cover profiler + retrieval, and retrieval time
    // must be positive and below the total (the ordering bug charged a
    // whole-corpus constant before the decision existed).
    let r = run(
        DatasetKind::Musique,
        20,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Musique),
    );
    for q in &r.per_query {
        assert!(q.retrieval_secs > 0.0, "q{}: free retrieval", q.query_index);
        assert!(
            q.profiler_secs + q.retrieval_secs < q.delay_secs,
            "q{}: profiler {:.3} + retrieval {:.3} !< delay {:.3}",
            q.query_index,
            q.profiler_secs,
            q.retrieval_secs,
            q.delay_secs
        );
        assert!((0.0..=1.0).contains(&q.retrieval_recall));
    }
}

#[test]
fn stage_breakdown_partitions_the_end_to_end_delay() {
    // The per-stage accounting must be exact, not approximate: for every
    // query, profile + decide + retrieve + queue_wait + prefill + decode
    // telescopes to finish − arrival. Exercised where it is hardest —
    // map_reduce chains (reduce arrival = last map finish), SLO-derived
    // priorities with preemption under burst, and 2 replicas.
    let n = 40;
    let d = build_dataset(DatasetKind::Musique, n, 2024);
    let mut opts = MetisOptions::full();
    opts.priority_from_slo = true;
    let arrivals = burst_arrivals(7, 0.9, 6.0, n);
    let mut cfg = RunConfig::standard(SystemKind::Metis(opts), arrivals, 99)
        .replicated(2, RouterPolicy::LeastKvLoad);
    cfg.engine.kv_pool_bytes_cap = Some(2 * (1 << 30));
    let r = Runner::new(&d, cfg).run();
    assert_eq!(r.per_query.len(), n);
    assert!(r.preemptions > 0, "the burst must force preemptions");
    for q in &r.per_query {
        let total = metis_llm::nanos_to_secs(q.stages.total());
        assert!(
            (total - q.delay_secs).abs() < 1e-9,
            "q{}: stages sum {:.9}s != delay {:.9}s ({:?})",
            q.query_index,
            total,
            q.delay_secs,
            q.stages
        );
        assert_eq!(q.stages.decide, 0, "decisions are modeled instantaneous");
        assert!(q.stages.profile > 0 && q.stages.retrieve > 0);
        assert!(q.stages.decode > 0, "every query decodes");
    }
    // Queries that hit engine contention show queue wait in the breakdown.
    assert!(
        r.per_query.iter().any(|q| q.stages.queue_wait > 0),
        "a burst at 2 GiB KV must queue someone"
    );
    // The aggregate view is consistent with the mean delay.
    let means = r.stage_breakdown();
    assert!(
        (means.total() - r.mean_delay_secs()).abs() < 1e-9,
        "mean stages {:.6}s != mean delay {:.6}s",
        means.total(),
        r.mean_delay_secs()
    );
}

#[test]
fn stage_breakdown_covers_api_serving_mode() {
    // No local engine: provider time lands in `decode`, engine stages are
    // 0, and the partition identity still holds exactly.
    let d = build_dataset(DatasetKind::Squad, 8, 3);
    let mut cfg = RunConfig::standard(
        SystemKind::VllmFixed {
            config: RagConfig::map_reduce(4, 60),
        },
        poisson_arrivals(1, 2.0, 8),
        1,
    );
    cfg.model = ModelSpec::gpt4o();
    let r = Runner::new(&d, cfg).run();
    for q in &r.per_query {
        assert_eq!(q.stages.queue_wait, 0);
        assert_eq!(q.stages.prefill, 0);
        assert!(q.stages.decode > 0);
        let total = metis_llm::nanos_to_secs(q.stages.total());
        assert!((total - q.delay_secs).abs() < 1e-9);
    }
}

#[test]
fn cell_report_mirrors_the_run_result() {
    let r = run(
        DatasetKind::Musique,
        20,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Musique),
    );
    let cell = r.cell_report("musique/metis", 99);
    assert_eq!(cell.id, "musique/metis");
    assert_eq!(cell.seed, 99);
    assert_eq!(cell.queries, 20);
    assert_eq!(cell.f1, r.mean_f1());
    assert_eq!(cell.latency.mean, r.mean_delay_secs());
    assert_eq!(cell.latency.p99(), r.latency().p99());
    assert_eq!(cell.retrieval.p50(), r.retrieval().p50());
    assert_eq!(cell.throughput_qps, r.throughput().qps());
    assert_eq!(cell.retrieval_recall, r.mean_retrieval_recall());
    #[expect(clippy::disallowed_types, reason = "lookup by key and len() only")]
    let stages: std::collections::HashMap<&str, f64> =
        cell.stages.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let means = r.stage_breakdown();
    assert_eq!(stages["profile"], means.profile);
    assert_eq!(stages["decode"], means.decode);
    assert_eq!(stages.len(), 6);
}

#[test]
fn run_is_deterministic() {
    let a = run(
        DatasetKind::Musique,
        15,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Musique),
    );
    let b = run(
        DatasetKind::Musique,
        15,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Musique),
    );
    assert_eq!(a.per_query.len(), b.per_query.len());
    for (x, y) in a.per_query.iter().zip(&b.per_query) {
        assert_eq!(x.f1, y.f1);
        assert_eq!(x.delay_secs, y.delay_secs);
        assert_eq!(x.config, y.config);
    }
}

#[test]
fn profiler_fraction_is_small() {
    // Fig. 18: the profiler adds at most ~1/10 of the end-to-end delay.
    let r = run(
        DatasetKind::Qmsum,
        30,
        SystemKind::Metis(MetisOptions::full()),
        base_qps(DatasetKind::Qmsum),
    );
    let frac = r.mean_profiler_fraction();
    assert!(frac < 0.35, "profiler fraction {frac:.2}");
    assert!(frac > 0.0);
}

#[test]
fn feedback_mode_runs_golden_configs() {
    let d = build_dataset(DatasetKind::FinSec, 65, 6);
    let mut opts = MetisOptions::full();
    opts.feedback = true;
    let r = Runner::new(
        &d,
        RunConfig::standard(
            SystemKind::Metis(opts),
            poisson_arrivals(3, base_qps(DatasetKind::FinSec), 65),
            11,
        ),
    )
    .run();
    // Every real query still completes exactly once.
    assert_eq!(r.per_query.len(), 65);
}

#[test]
fn median_pick_differs_from_best_fit() {
    let med = MetisOptions {
        pick: PickPolicy::Median,
        sched: SchedPolicy::Fcfs,
        ..MetisOptions::full()
    };
    let qps = base_qps(DatasetKind::FinSec);
    let m = run(DatasetKind::FinSec, 30, SystemKind::Metis(med), qps);
    let b = run(
        DatasetKind::FinSec,
        30,
        SystemKind::Metis(MetisOptions::full()),
        qps,
    );
    assert_eq!(m.per_query.len(), b.per_query.len());
    // Best-fit spends free memory on quality: never worse than median's F1.
    assert!(
        b.mean_f1() >= m.mean_f1() - 0.03,
        "best-fit F1 {:.3} vs median F1 {:.3}",
        b.mean_f1(),
        m.mean_f1()
    );
    // And the two policies genuinely choose differently.
    let diff = m
        .per_query
        .iter()
        .zip(&b.per_query)
        .filter(|(x, y)| x.config != y.config)
        .count();
    assert!(diff > 0, "median and best-fit never diverged");
}

#[test]
fn preemptive_scheduling_shields_interactive_queries_under_bursts() {
    // The PR's acceptance experiment at runner scale: identical bursty
    // workload (burst factor ≥ 4) with SLO-derived priorities, served once
    // under plain FCFS and once under the preemptive scheduler. The
    // preemptive run must strictly improve the interactive class's worst
    // queueing delay, at equal completion count.
    let n = 48;
    let d = build_dataset(DatasetKind::Musique, n, 2024);
    let go = |sched: SchedPolicy| {
        let opts = MetisOptions {
            sched,
            priority_from_slo: true,
            ..MetisOptions::full()
        };
        let arrivals = burst_arrivals(7, 0.8, 6.0, n);
        let mut cfg = RunConfig::standard(SystemKind::Metis(opts), arrivals, 99);
        // Bound the working memory to the low end of the paper's Fig. 8
        // scale: bursts must actually contend on KV for scheduling policy
        // to matter at all.
        cfg.engine.kv_pool_bytes_cap = Some(2 * (1 << 30));
        Runner::new(&d, cfg).run()
    };
    let fcfs = go(SchedPolicy::Fcfs);
    let preemptive = go(SchedPolicy::Preemptive);
    assert!(preemptive.preemptions > 0, "the burst must force evictions");
    assert_eq!(fcfs.per_query.len(), n);
    assert_eq!(preemptive.per_query.len(), n);
    assert_eq!(fcfs.preemptions, 0, "FCFS never preempts");
    let interactive = |r: &metis_core::RunResult| r.queue_wait(Some(Priority::Interactive));
    assert!(
        !interactive(&fcfs).is_empty(),
        "Musique must yield interactive-tier queries"
    );
    assert!(
        interactive(&preemptive).p99() < interactive(&fcfs).p99(),
        "interactive p99 queue wait: preemptive {:.2}s !< fcfs {:.2}s",
        interactive(&preemptive).p99(),
        interactive(&fcfs).p99()
    );
    // Quality is untouched: scheduling reorders work, it does not change
    // any query's configuration-driven answer.
    assert!((preemptive.mean_f1() - fcfs.mean_f1()).abs() < 0.05);
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

#[test]
fn migration_spares_recompute_and_keeps_the_stage_identity() {
    // Preemption-with-migration at runner scale: the same contended burst
    // under recompute and migrate. Migration must fire, move real KV, and
    // cut the recomputed-token bill; every query's stage partition must
    // still telescope exactly (a migrated victim's transfer shows up as
    // queue wait, with its original arrival preserved).
    let n = 40;
    let d = build_dataset(DatasetKind::Musique, n, 2024);
    // Round-robin routing (not least-KV) so one replica can saturate while
    // a peer keeps headroom — migration needs somewhere to go.
    let go = |mode: metis_engine::PreemptMode| {
        let mut opts = MetisOptions::full();
        opts.priority_from_slo = true;
        let arrivals = burst_arrivals(7, 1.4, 8.0, n);
        let mut cfg = RunConfig::standard(SystemKind::Metis(opts), arrivals, 99)
            .replicated(3, RouterPolicy::RoundRobin);
        cfg.engine.kv_pool_bytes_cap = Some(1 << 30);
        cfg.engine.preempt_mode = mode;
        Runner::new(&d, cfg).run()
    };
    let recompute = go(metis_engine::PreemptMode::Recompute);
    let migrate = go(metis_engine::PreemptMode::Migrate);
    assert_eq!(recompute.per_query.len(), n);
    assert_eq!(migrate.per_query.len(), n);
    assert!(recompute.preemptions > 0, "the burst must force evictions");
    assert_eq!(recompute.migrations, 0);
    assert!(migrate.migrations > 0, "victims must actually move");
    assert!(migrate.migrated_tokens > 0);
    assert!(
        migrate.preempted_tokens < recompute.preempted_tokens,
        "migrate recomputes {} tokens !< recompute {}",
        migrate.preempted_tokens,
        recompute.preempted_tokens
    );
    for q in &migrate.per_query {
        let total = metis_llm::nanos_to_secs(q.stages.total());
        assert!(
            (total - q.delay_secs).abs() < 1e-9,
            "q{}: stages {:.9}s != delay {:.9}s under migration",
            q.query_index,
            total,
            q.delay_secs
        );
    }
}

#[test]
fn prefix_aware_routing_beats_least_kv_on_cache_hits() {
    // PrefixAware re-routes each query (after retrieval) to the replica
    // whose chunk-KV cache overlaps its retrieved chunks; with repeated
    // chunk access across queries this must not lose cache hits versus
    // memory-only routing, and the run must stay correct.
    let n = 36;
    let d = build_dataset(DatasetKind::Squad, n, 2024);
    let go = |router: RouterPolicy| {
        let arrivals = poisson_arrivals(7, base_qps(DatasetKind::Squad), n);
        let mut cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 99)
            .replicated(3, router);
        cfg.prefix_cache_bytes = Some(1 << 30);
        Runner::new(&d, cfg).run()
    };
    let aware = go(RouterPolicy::PrefixAware);
    let least = go(RouterPolicy::LeastKvLoad);
    assert_eq!(aware.per_query.len(), n);
    assert!(aware.prefix_hit_rate > 0.0, "repeats must hit the cache");
    assert!(
        aware.prefix_hit_rate >= least.prefix_hit_rate,
        "prefix-aware hit rate {:.3} < least-kv {:.3}",
        aware.prefix_hit_rate,
        least.prefix_hit_rate
    );
    // Routing changes placement, never answers.
    assert!((aware.mean_f1() - least.mean_f1()).abs() < 0.05);
}
