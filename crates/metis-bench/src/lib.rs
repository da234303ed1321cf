//! The benchmark harness: the paper's evaluation as one table.
//!
//! Every table and figure of the evaluation is a row of [`FIGURES`] — its
//! name, the paper artefact it reproduces, its full-scale query count and
//! the function that measures it — and the one bench target,
//! `benches/figures.rs`, runs the rows named on its command line.
//! [`Figure::report`] runs a row in-process at an explicit scale and returns
//! its report and, beside it, the paper's numeric [`Claim`]s with what the
//! row measured of them; that is how the workspace's pin test
//! (`tests/pins/main.rs` at the root) holds every row to `baselines/` and
//! the paper figures' claims to `tests/golden/claims.json`.
//! The rest of this library is what the rows share: the dataset each
//! (kind, size) is built as once per process, calibrated workload rates,
//! paired run drivers, the fixed-configuration menu and Pareto filtering.
//!
//! ## Rate calibration
//!
//! The paper sends 200 queries per dataset at an average of 2/s to its A40
//! testbed. Our simulated A40 (analytical roofline, AWQ kernels) sustains a
//! different absolute prefill throughput, so each dataset runs at the rate
//! that puts METIS at roughly 60% utilization — preserving the paper's
//! contention regime, which is what the relative results depend on.

#![warn(unreachable_pub)]

mod figures;
mod reportio;
mod sweep;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

pub use figures::{select, Claim, Figure, FIGURES};
pub use reportio::emit;

use metis_core::synthesis::SynthesisInputs;
use metis_core::{
    plan_synthesis, MetisOptions, RagConfig, RunConfig, RunResult, Runner, SynthesisPlan,
    SystemKind,
};
use metis_datasets::{build_dataset, poisson_arrivals, Dataset, DatasetKind, QuerySpec};
use metis_engine::{Engine, EngineConfig, GroupId, LlmRequest, Priority, RequestId, Stage};
use metis_llm::{nanos_to_secs, GenerationModel, GpuCluster, LatencyModel, ModelSpec, Nanos};
use metis_metrics::{f1_score, BenchReport, CellReport};
use metis_profiler::ProfilerKind;
use sweep::{Sweep, SweepCell};

/// Default seed for dataset construction in benches.
pub(crate) const DATASET_SEED: u64 = 20_241_016;
/// Default seed for run stochasticity in benches.
pub(crate) const RUN_SEED: u64 = 99;

/// Arrival rate (queries/second) at which the simulated A40 serves METIS at
/// ~60% utilization for each dataset.
pub(crate) fn base_qps(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 1.6,
        DatasetKind::Musique => 0.55,
        DatasetKind::FinSec => 0.20,
        DatasetKind::Qmsum => 0.17,
    }
}

/// The standard bench dataset of `kind` with `n` queries, built once per
/// process: at full scale the twelve paper figures of the evaluation ask 30
/// times for 16 distinct (kind, n) pairs. Builds are deterministic, so
/// which thread builds a pair first does not matter; two that race both
/// build it and one copy is kept.
pub(crate) fn dataset(kind: DatasetKind, n: usize) -> &'static Dataset {
    type Built = BTreeMap<(&'static str, usize), &'static Dataset>;
    static BUILT: OnceLock<Mutex<Built>> = OnceLock::new();
    let built = || {
        let memo = BUILT.get_or_init(Mutex::default);
        memo.lock()
            .expect("no thread panics holding the dataset memo")
    };
    let key = (kind.name(), n);
    if let Some(&d) = built().get(&key) {
        return d;
    }
    let fresh = build_dataset(kind, n, DATASET_SEED);
    let d = *built()
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(fresh)));
    d
}

/// Runs `system` over `dataset` on one replica with Poisson arrivals at
/// `qps`.
pub(crate) fn run(dataset: &Dataset, system: SystemKind, qps: f64, seed: u64) -> RunResult {
    let arrivals = poisson_arrivals(seed ^ 0xA11, qps, dataset.queries.len());
    Runner::new(dataset, RunConfig::standard(system, arrivals, seed)).run()
}

/// How many times lower `fast`'s mean delay is than `slow`'s.
pub(crate) fn speedup(slow: &RunResult, fast: &RunResult) -> f64 {
    slow.mean_delay_secs() / fast.mean_delay_secs()
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

/// The bench scale for CI smoke runs: the validated `METIS_BENCH_QUERIES`,
/// `None` when unset (every figure then runs its full-scale
/// [`Figure::queries`]). The only read of that variable; the scale travels
/// from here as an argument of [`Figure::report`].
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but invalid.
pub fn scale_from_env() -> Option<usize> {
    let raw = std::env::var_os("METIS_BENCH_QUERIES");
    parse_bench_queries(raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs with explicit arrivals and model/cluster overrides.
pub(crate) fn run_on(
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

/// Adds `arms` to `sweep` as paired cells named `prefix/label` (the bare
/// `label` under an empty prefix): each arm serves `d` at `qps` under the
/// shared [`RUN_SEED`], so the arms see one arrival realization and differ
/// by system only. Cells come back from [`Sweep::run`] in `arms` order.
pub(crate) fn paired<'env>(
    mut sweep: Sweep<'env, RunResult>,
    prefix: &str,
    d: &'env Dataset,
    qps: f64,
    arms: &[(&str, SystemKind)],
) -> Sweep<'env, RunResult> {
    for &(label, system) in arms {
        let id = if prefix.is_empty() {
            label.to_owned()
        } else {
            format!("{prefix}/{label}")
        };
        sweep = sweep.cell_with_seed(id, RUN_SEED, move |seed| run(d, system, qps, seed));
    }
    sweep
}

/// The outputs of exactly `N` cells, by position — how a figure reads the
/// arms it inserted against each other.
pub(crate) fn values<T, const N: usize>(cells: &[SweepCell<T>]) -> [&T; N] {
    assert_eq!(cells.len(), N, "one binding per cell");
    std::array::from_fn(|i| &cells[i].value)
}

/// Adds one experiment-level knob to `report`.
pub(crate) fn knob(report: &mut BenchReport, name: &str, value: impl ToString) {
    report.knobs.push((name.to_owned(), value.to_string()));
}

/// Lowers every cell to its report cell — under its own id and the seed it
/// ran with — and appends it to `report` once `describe` has added the
/// figure's knobs and metrics for that run.
pub(crate) fn push_cells(
    report: &mut BenchReport,
    cells: &[SweepCell<RunResult>],
    describe: impl Fn(CellReport, &RunResult) -> CellReport,
) {
    for cell in cells {
        let lowered = cell.value.cell_report(&cell.id, cell.seed);
        report.cells.push(describe(lowered, &cell.value));
    }
}

/// The compact fixed-configuration menu baselines sweep in the benches.
fn fixed_menu() -> Vec<RagConfig> {
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

/// Runs `run_one` for every config in `menu` (in parallel, on the [`Sweep`]
/// driver, deterministic ordering) and returns `(config, result)` pairs.
/// Every config runs under [`RUN_SEED`]: the menu is a paired comparison
/// ([`FixedMenu::best_quality`] reads the cells against each other), so all
/// configs must see the same arrival realization.
fn sweep_fixed(
    menu: &[RagConfig],
    run_one: impl Fn(RagConfig, u64) -> RunResult + Sync,
) -> Vec<(RagConfig, RunResult)> {
    let mut sweep = Sweep::new("sweep_fixed");
    let run_one = &run_one;
    for (i, &config) in menu.iter().enumerate() {
        // The index disambiguates duplicate configs a menu may hold.
        sweep = sweep.cell_with_seed(format!("{i}/{}", config.label()), RUN_SEED, move |seed| {
            (config, run_one(config, seed))
        });
    }
    let mut v: Vec<(RagConfig, RunResult)> = sweep.run().into_iter().map(|c| c.value).collect();
    v.sort_by_key(|(c, _)| (c.synthesis.name(), c.num_chunks, c.intermediate_length));
    v
}

/// One run per [`fixed_menu`] configuration: what the paper's "fixed
/// config of closest quality / similar delay" comparison points pick from.
pub(crate) struct FixedMenu(Vec<(RagConfig, RunResult)>);

impl FixedMenu {
    /// Serves `d` at `qps` with vLLM under every menu configuration.
    pub(crate) fn run(d: &Dataset, qps: f64) -> Self {
        Self::run_with(|config, seed| run(d, SystemKind::VllmFixed { config }, qps, seed))
    }

    /// [`Self::run`] for a figure that serves the menu its own way (another
    /// model, another cluster): `run_one` gets the config and the seed.
    pub(crate) fn run_with(run_one: impl Fn(RagConfig, u64) -> RunResult + Sync) -> Self {
        Self(sweep_fixed(&fixed_menu(), run_one))
    }

    /// The configuration with the highest F1 (ties broken by lower delay) —
    /// the paper's "fixed config of closest quality" comparison point.
    pub(crate) fn best_quality(&self) -> &(RagConfig, RunResult) {
        self.0
            .iter()
            .max_by(|a, b| {
                let fa = a.1.mean_f1();
                let fb = b.1.mean_f1();
                fa.total_cmp(&fb)
                    .then(b.1.mean_delay_secs().total_cmp(&a.1.mean_delay_secs()))
            })
            .expect("non-empty menu")
    }

    /// The configuration whose delay is closest to `target_delay` (the
    /// paper's "fixed config of similar delay" comparison point).
    pub(crate) fn closest_delay(&self, target_delay: f64) -> &(RagConfig, RunResult) {
        self.0
            .iter()
            .min_by(|a, b| {
                let da = (a.1.mean_delay_secs() - target_delay).abs();
                let db = (b.1.mean_delay_secs() - target_delay).abs();
                da.total_cmp(&db)
            })
            .expect("non-empty menu")
    }
}

/// Returns the indices of the Pareto frontier of `(delay, f1)` points
/// (minimize delay, maximize F1).
pub(crate) fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
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

/// One configuration on one query, in isolation: the mean F1 over `seeds`
/// generation seeds (seed `s` is `seed ^ s * stride`) and the delay of the
/// last plan on an otherwise idle Mistral-7B / A40 engine. What the
/// per-query knob figures plot: contention would only blur the
/// configuration effect. Returns `(delay_secs, f1)`.
pub(crate) fn isolated_point(
    d: &Dataset,
    q: &QuerySpec,
    gen: &GenerationModel,
    cfg: RagConfig,
    seeds: u64,
    seed: u64,
    stride: u64,
) -> (f64, f64) {
    let retrieved = d.db.retrieve(&q.tokens, cfg.effective_chunks(d.db.len()));
    let inputs = SynthesisInputs {
        gen,
        truth: &q.truth,
        query_tokens: &q.tokens,
        boilerplate: &d.boilerplate,
    };
    let gold = q.gold_answer();
    let mut f1 = 0.0;
    let mut plan = None;
    for s in 0..seeds {
        let p = plan_synthesis(&inputs, &cfg, &retrieved, seed ^ s.wrapping_mul(stride));
        f1 += f1_score(&p.answer, &gold);
        plan = Some(p);
    }
    let delay = isolated_delay(&plan.expect("at least one seed"));
    (delay, f1 / seeds as f64)
}

/// Executes one synthesis plan on an otherwise idle engine and returns its
/// end-to-end delay in seconds.
fn isolated_delay(plan: &SynthesisPlan) -> f64 {
    let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
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
pub(crate) fn metis() -> SystemKind {
    SystemKind::Metis(MetisOptions::full())
}

/// Standard AdaptiveRAG\* baseline.
pub(crate) fn adaptive_rag() -> SystemKind {
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
        let menu = [RagConfig::stuff(2), RagConfig::stuff(4)];
        let runs = FixedMenu(sweep_fixed(&menu, |config, seed| {
            run(d, SystemKind::VllmFixed { config }, 2.0, seed)
        }));
        assert_eq!(runs.0.len(), 2);
        assert!(runs.0[0].0.num_chunks < runs.0[1].0.num_chunks);
        let best = runs.best_quality();
        assert!(best.1.mean_f1() >= runs.0[0].1.mean_f1().min(runs.0[1].1.mean_f1()));
    }
}
