//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target under `benches/`; this library provides the common machinery:
//! calibrated workload rates, parallel run drivers, fixed-configuration
//! sweeps, Pareto filtering, and uniform result printing.
//!
//! ## Rate calibration
//!
//! The paper sends 200 queries per dataset at an average of 2/s to its A40
//! testbed. Our simulated A40 (analytical roofline, AWQ kernels) sustains a
//! different absolute prefill throughput, so each dataset runs at the rate
//! that puts METIS at roughly 60% utilization — preserving the paper's
//! contention regime, which is what the relative results depend on. The
//! rates are printed with every experiment.

pub mod reportio;
pub mod sweep;

pub use reportio::{emit, new_report, report_dir, REPORT_DIR_ENV};
pub use sweep::{cell_seed, Sweep, SweepCell};

use metis_core::{
    MetisOptions, RagConfig, RunConfig, RunResult, Runner, SynthesisPlan, SystemKind,
};
use metis_datasets::{build_dataset, poisson_arrivals, Dataset, DatasetKind};
use metis_engine::{Engine, EngineConfig, GroupId, LlmRequest, Priority, RequestId, Stage};
use metis_llm::{nanos_to_secs, GpuCluster, LatencyModel, ModelSpec, Nanos};
use metis_profiler::ProfilerKind;

/// Default seed for dataset construction in benches.
pub const DATASET_SEED: u64 = 20_241_016;
/// Default seed for run stochasticity in benches.
pub const RUN_SEED: u64 = 99;

/// Arrival rate (queries/second) at which the simulated A40 serves METIS at
/// ~60% utilization for each dataset.
pub fn base_qps(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 1.6,
        DatasetKind::Musique => 0.55,
        DatasetKind::FinSec => 0.20,
        DatasetKind::Qmsum => 0.17,
    }
}

/// Builds the standard bench dataset for `kind`.
pub fn dataset(kind: DatasetKind, n: usize) -> Dataset {
    build_dataset(kind, n, DATASET_SEED)
}

/// Runs `system` over `dataset` on one replica with Poisson arrivals at
/// `qps`.
pub fn run(dataset: &Dataset, system: SystemKind, qps: f64, seed: u64) -> RunResult {
    let arrivals = poisson_arrivals(seed ^ 0xA11, qps, dataset.queries.len());
    Runner::new(dataset, RunConfig::standard(system, arrivals, seed)).run()
}

/// Parses a `METIS_BENCH_QUERIES` value; `None` is the variable unset. A
/// value that is set but not a positive integer is an error, never the
/// default: that would run full scale, for minutes, under a smoke label.
fn parse_bench_queries(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = raw else { return Ok(None) };
    match v.parse() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "METIS_BENCH_QUERIES must be a positive integer, got '{v}'"
        )),
    }
}

/// The validated `METIS_BENCH_QUERIES` override, `None` when unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but invalid.
pub(crate) fn bench_queries_override() -> Option<usize> {
    let raw = std::env::var_os("METIS_BENCH_QUERIES");
    parse_bench_queries(raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Bench scale override for CI smoke runs: `METIS_BENCH_QUERIES` caps the
/// per-experiment query count (default: the target's full size).
pub fn bench_queries(default: usize) -> usize {
    bench_queries_override().unwrap_or(default)
}

/// Runs with explicit arrivals and model/cluster overrides.
pub fn run_on(
    dataset: &Dataset,
    system: SystemKind,
    arrivals: Vec<Nanos>,
    seed: u64,
    model: ModelSpec,
    cluster: GpuCluster,
    closed_loop: bool,
) -> RunResult {
    let mut cfg = RunConfig::standard(system, arrivals, seed);
    cfg.model = model;
    cfg.cluster = cluster;
    cfg.closed_loop = closed_loop;
    Runner::new(dataset, cfg).run()
}

/// One printed result row.
#[derive(Clone, Debug)]
pub struct Row {
    /// System / configuration label.
    pub label: String,
    /// Mean end-to-end delay (s).
    pub delay: f64,
    /// Median delay (s).
    pub p50: f64,
    /// Tail delay (s).
    pub p99: f64,
    /// Mean token F1.
    pub f1: f64,
}

impl Row {
    /// Builds a row from a run result.
    pub fn from_run(label: impl Into<String>, r: &RunResult) -> Self {
        let lat = r.latency();
        Self {
            label: label.into(),
            delay: lat.mean(),
            p50: lat.p50(),
            p99: lat.p99(),
            f1: r.mean_f1(),
        }
    }
}

/// Prints an experiment header with the paper's expectation.
pub fn header(id: &str, title: &str, paper: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("paper expectation: {paper}");
    println!("================================================================");
}

/// Prints a uniform row table.
pub fn print_rows(rows: &[Row]) {
    println!(
        "  {:<34} {:>9} {:>9} {:>9} {:>7}",
        "system/config", "mean(s)", "p50(s)", "p99(s)", "F1"
    );
    for r in rows {
        println!(
            "  {:<34} {:>9.2} {:>9.2} {:>9.2} {:>7.3}",
            r.label, r.delay, r.p50, r.p99, r.f1
        );
    }
}

/// The compact fixed-configuration menu baselines sweep in the benches.
pub fn fixed_menu() -> Vec<RagConfig> {
    vec![
        RagConfig::map_rerank(4),
        RagConfig::stuff(4),
        RagConfig::stuff(8),
        RagConfig::stuff(16),
        RagConfig::map_reduce(4, 100),
        RagConfig::map_reduce(8, 100),
        RagConfig::map_reduce(12, 100),
        RagConfig::map_reduce(16, 200),
        RagConfig::map_reduce(24, 200),
    ]
}

/// Runs every fixed config in `menu` (in parallel, on the [`Sweep`]
/// driver, deterministic ordering) and returns `(config, result)` pairs.
/// Every config runs under the same `seed`: the menu is a paired
/// comparison (`best_quality_fixed` reads the cells against each other),
/// so all configs must see the same arrival realization.
pub fn sweep_fixed(
    dataset: &Dataset,
    menu: &[RagConfig],
    qps: f64,
    seed: u64,
    parrot: bool,
) -> Vec<(RagConfig, RunResult)> {
    let mut sweep = Sweep::new("sweep_fixed").with_seed(seed);
    for (i, &config) in menu.iter().enumerate() {
        // The index disambiguates duplicate configs some callers pass.
        sweep = sweep.cell_with_seed(format!("{i}/{}", config.label()), seed, move |seed| {
            let system = if parrot {
                SystemKind::Parrot { config }
            } else {
                SystemKind::VllmFixed { config }
            };
            (config, run(dataset, system, qps, seed))
        });
    }
    let mut v: Vec<(RagConfig, RunResult)> = sweep.run().into_iter().map(|c| c.value).collect();
    v.sort_by_key(|(c, _)| (c.synthesis.name(), c.num_chunks, c.intermediate_length));
    v
}

/// Picks, from a sweep, the fixed configuration with the highest F1
/// (ties broken by lower delay) — the paper's "fixed config of closest
/// quality" comparison point.
pub fn best_quality_fixed(sweep: &[(RagConfig, RunResult)]) -> &(RagConfig, RunResult) {
    sweep
        .iter()
        .max_by(|a, b| {
            let fa = a.1.mean_f1();
            let fb = b.1.mean_f1();
            fa.total_cmp(&fb)
                .then(b.1.mean_delay_secs().total_cmp(&a.1.mean_delay_secs()))
        })
        .expect("non-empty sweep")
}

/// Picks the fixed configuration whose delay is closest to `target_delay`
/// (the paper's "fixed config of similar delay" comparison point).
pub fn closest_delay_fixed(
    sweep: &[(RagConfig, RunResult)],
    target_delay: f64,
) -> &(RagConfig, RunResult) {
    sweep
        .iter()
        .min_by(|a, b| {
            let da = (a.1.mean_delay_secs() - target_delay).abs();
            let db = (b.1.mean_delay_secs() - target_delay).abs();
            da.total_cmp(&db)
        })
        .expect("non-empty sweep")
}

/// Returns the indices of the Pareto frontier of `(delay, f1)` points
/// (minimize delay, maximize F1).
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut front = Vec::new();
    for (i, &(d, f)) in points.iter().enumerate() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, &(dj, fj))| j != i && dj <= d && fj >= f && (dj < d || fj > f));
        if !dominated {
            front.push(i);
        }
    }
    front
}

/// Executes one synthesis plan on an otherwise idle engine and returns its
/// end-to-end delay in seconds (used by the per-query knob sweeps, where
/// contention would only blur the configuration effect).
pub fn isolated_delay(plan: &SynthesisPlan, model: ModelSpec, cluster: GpuCluster) -> f64 {
    let lat = LatencyModel::new(model, cluster);
    let mut engine = Engine::new(lat, EngineConfig::default());
    for (i, c) in plan.map_calls.iter().enumerate() {
        engine.submit(LlmRequest {
            id: RequestId(i as u64),
            group: GroupId(0),
            stage: Stage::Map,
            prompt_tokens: c.prompt_tokens,
            output_tokens: c.output_tokens,
            cached_prompt_tokens: 0,
            arrival: 0,
            priority: Priority::Standard,
        });
    }
    let done = engine.run_until_idle();
    let mut finish = done.iter().map(|c| c.finish).max().unwrap_or(0);
    if let Some(reduce) = plan.reduce_call {
        engine.submit(LlmRequest {
            id: RequestId(1_000_000),
            group: GroupId(0),
            stage: Stage::Reduce,
            prompt_tokens: reduce.prompt_tokens,
            output_tokens: reduce.output_tokens,
            cached_prompt_tokens: 0,
            arrival: finish,
            priority: Priority::Standard,
        });
        finish = engine
            .run_until_idle()
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(finish);
    }
    nanos_to_secs(finish)
}

/// Standard METIS system under test.
pub fn metis() -> SystemKind {
    SystemKind::Metis(MetisOptions::full())
}

/// Standard AdaptiveRAG\* baseline.
pub fn adaptive_rag() -> SystemKind {
    SystemKind::AdaptiveRag {
        profiler: ProfilerKind::Gpt4o,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_keeps_only_undominated() {
        let pts = vec![(1.0, 0.5), (2.0, 0.6), (3.0, 0.55), (0.5, 0.2)];
        let front = pareto_front(&pts);
        assert!(front.contains(&0));
        assert!(front.contains(&1));
        assert!(!front.contains(&2)); // Dominated by (2.0, 0.6).
        assert!(front.contains(&3));
    }

    #[test]
    fn bench_queries_accepts_unset_or_a_positive_integer() {
        assert_eq!(parse_bench_queries(None), Ok(None));
        assert_eq!(parse_bench_queries(Some("8")), Ok(Some(8)));
        for bad in ["8x", "abc", "0", "", "-3", " 8"] {
            let msg = parse_bench_queries(Some(bad))
                .expect_err("set-but-invalid must not fall back to the default");
            assert!(
                msg.contains("METIS_BENCH_QUERIES") && msg.contains(&format!("'{bad}'")),
                "{msg}"
            );
        }
    }

    #[test]
    fn fixed_menu_is_diverse() {
        let menu = fixed_menu();
        assert!(menu.len() >= 8);
    }

    #[test]
    fn sweep_runs_in_parallel_and_sorts() {
        let d = dataset(DatasetKind::Squad, 10);
        let menu = vec![RagConfig::stuff(2), RagConfig::stuff(4)];
        let sweep = sweep_fixed(&d, &menu, 2.0, 1, false);
        assert_eq!(sweep.len(), 2);
        assert!(sweep[0].0.num_chunks < sweep[1].0.num_chunks);
        let best = best_quality_fixed(&sweep);
        assert!(best.1.mean_f1() >= sweep[0].1.mean_f1().min(sweep[1].1.mean_f1()));
    }
}
