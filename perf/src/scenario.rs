//! The three serving scenarios and the pass that executes one.
//!
//! A scenario is a fixed list of `Runner::run` calls — datasets, arrival
//! schedules and run configurations all generated from the benchmark seed
//! before anything is timed. The library only ever sees generated inputs.
//! Sizes are part of the benchmark's definition; changing one changes what
//! every committed number means.

use std::time::Instant;

use metis_core::{Autoscaler, MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{build_dataset, burst_arrivals, poisson_arrivals, Dataset, DatasetKind};
use metis_engine::{PreemptMode, RouterPolicy};
use metis_llm::nanos_to_secs;

use crate::checks::Checks;
use crate::stats;

/// Dataset variants per Table-1 kind in the paper-mix scenario. A
/// dataset's corpus grows with its queries, so one 300-query run would scan
/// three times the vectors per query and last half a second — longer than
/// the host stays quiet; three 100-query runs last ~55 ms each.
pub const PAPER_VARIANTS: usize = 3;
/// Queries per paper-mix run (4 kinds × 3 variants × 100 → 1 200).
pub const PAPER_QUERIES: usize = 100;
/// Musique dataset variants in the fleet scenario.
pub const FLEET_DATASETS: usize = 4;
/// Arrival schedules served per fleet dataset (4 × 4 = 16 runs per pass).
pub const FLEET_ARRIVALS_PER_DATASET: usize = 4;
/// Queries per fleet run (the `fig_preempt` / `fig_autoscale` shape).
pub const FLEET_QUERIES: usize = 96;
/// Seeds (dataset + arrival schedule) in the realtime scenario's sim
/// oracle; the realtime stage pairs the first [`RT_PAIRS`] of them.
pub const RT_SEEDS: usize = 10;
/// Seeds the realtime stage serves under both drivers at full depth.
pub const RT_PAIRS: usize = 5;
/// Queries per realtime run.
pub const RT_QUERIES: usize = 100;
/// Realtime arrival rate: Musique's calibrated base rate.
pub const RT_QPS: f64 = 0.55;
/// Virtual seconds that pass per wall second under the realtime driver.
/// At 100× a run of 100 queries takes ~1.8 s of wall, and the host's real
/// retrieval compute (~0.35 ms per query) is amplified into ~35 virtual ms.
pub const RT_TIME_SCALE: f64 = 100.0;

/// Derives an independent seed for one generated input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed `Runner` plans query `query_index`'s synthesis with; the engine
/// replay and the layer replay rebuild plans with it, and both check the
/// rebuilt answer against the run's F1.
pub fn plan_seed(run_seed: u64, query_index: usize) -> u64 {
    run_seed ^ (query_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Arrival rate at which the simulated A40 serves METIS at ~60 %
/// utilisation (the rates `metis-bench` calibrated for every figure).
pub fn base_qps(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 1.6,
        DatasetKind::Musique => 0.55,
        DatasetKind::FinSec => 0.20,
        DatasetKind::Qmsum => 0.17,
    }
}

/// The fixed virtual-delay limit a query of `kind` must meet. The benchmark
/// fixes these; later changes do not.
pub fn slo_limit_secs(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 2.0,
        DatasetKind::Musique => 8.0,
        DatasetKind::FinSec => 20.0,
        DatasetKind::Qmsum => 25.0,
    }
}

/// One `Runner::run` call of a scenario.
pub struct SimRun {
    /// Index into [`Scenario::datasets`].
    pub dataset: usize,
    /// The run configuration, arrivals included.
    pub cfg: RunConfig,
}

/// A fixed list of runs over generated datasets.
pub struct Scenario {
    /// The generated datasets.
    pub datasets: Vec<Dataset>,
    /// Wall seconds `build_dataset` took for each of them — the timed items
    /// of `setup_s`.
    pub build_secs: Vec<f64>,
    /// The runs one pass executes, in order.
    pub runs: Vec<SimRun>,
}

/// What a scenario builder does with the datasets it generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Datasets {
    /// Keep them: the scenario will be run.
    Keep,
    /// Time each build and drop the dataset at once: a repetition of the
    /// set-up that never holds more than one dataset beside the live inputs,
    /// so it can run between rounds without doubling the peak RSS.
    Discard,
}

impl Scenario {
    fn new() -> Self {
        Self {
            datasets: Vec::new(),
            build_secs: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Generates a dataset, timing the build, and returns its index.
    fn add_dataset(
        &mut self,
        kind: DatasetKind,
        queries: usize,
        seed: u64,
        mode: Datasets,
    ) -> usize {
        let t = Instant::now();
        let dataset = build_dataset(kind, queries, seed);
        self.build_secs.push(t.elapsed().as_secs_f64());
        if mode == Datasets::Keep {
            self.datasets.push(dataset);
        }
        self.build_secs.len() - 1
    }
}

fn metis_full() -> MetisOptions {
    MetisOptions::full()
}

/// The paper's evaluation shape: METIS full on one A40 replica with the
/// flat f32 index, the four Table-1 datasets (three generated variants of
/// each), open-loop Poisson arrivals at each dataset's calibrated base rate.
pub fn paper_mix(seed: u64, mode: Datasets) -> Scenario {
    let mut sc = Scenario::new();
    for (k, kind) in DatasetKind::all().into_iter().enumerate() {
        for v in 0..PAPER_VARIANTS {
            let i = (k * PAPER_VARIANTS + v) as u64;
            let dataset = sc.add_dataset(kind, PAPER_QUERIES, mix(seed, 0x0D00 + i), mode);
            let arrivals = poisson_arrivals(mix(seed, 0x0A00 + i), base_qps(kind), PAPER_QUERIES);
            let cfg = RunConfig::standard(
                SystemKind::Metis(metis_full()),
                arrivals,
                mix(seed, 0x0500 + i),
            );
            sc.runs.push(SimRun { dataset, cfg });
        }
    }
    sc
}

/// Bursty traffic on an elastic fleet: Musique × 96 queries, on/off bursts
/// (1.4 qps, ×8), SLO-derived priorities, 3 replicas growing to 6 under the
/// `fig_autoscale` policy, prefix-aware routing over a 256 MiB prefix cache,
/// a 512 MiB KV cap and KV migration — every fleet mechanism at once.
pub fn fleet_burst(seed: u64, mode: Datasets) -> Scenario {
    let mut opts = metis_full();
    opts.priority_from_slo = true;
    let mut sc = Scenario::new();
    for v in 0..FLEET_DATASETS as u64 {
        let dataset = sc.add_dataset(
            DatasetKind::Musique,
            FLEET_QUERIES,
            mix(seed, 0x1D00 + v),
            mode,
        );
        for a in 0..FLEET_ARRIVALS_PER_DATASET as u64 {
            let run_seed = mix(seed, 0x1A00 + v * 64 + a);
            let arrivals = burst_arrivals(run_seed, 1.4, 8.0, FLEET_QUERIES);
            let mut cfg = RunConfig::standard(SystemKind::Metis(opts), arrivals, run_seed);
            cfg.replicas = 3;
            cfg.router = RouterPolicy::PrefixAware;
            cfg.prefix_cache_bytes = Some(256 << 20);
            cfg.engine.kv_pool_bytes_cap = Some(512 << 20);
            cfg.engine.preempt_mode = PreemptMode::Migrate;
            // The `fig_autoscale` policy bounded to 3..=6 replicas; its
            // pressure threshold is the library default.
            cfg.autoscale = Some(Autoscaler {
                min_replicas: 3,
                max_replicas: 6,
                scale_up_queue_depth: 2,
                scale_down_queue_depth: 1,
                eval_interval_nanos: 500_000_000,
                cooldown_nanos: 2_000_000_000,
                warmup_nanos: 1_000_000_000,
                ..Autoscaler::default()
            });
            sc.runs.push(SimRun { dataset, cfg });
        }
    }
    sc
}

/// The realtime scenario: Musique × 100 queries per seed on one replica,
/// Poisson at 0.55 qps. Built with the sim driver (the oracle); the
/// realtime stage re-runs each configuration under
/// `DriverSpec::Realtime { time_scale: 100 }`.
pub fn realtime_musique(seed: u64, seeds: usize, mode: Datasets) -> Scenario {
    let mut sc = Scenario::new();
    for p in 0..seeds as u64 {
        let dataset = sc.add_dataset(
            DatasetKind::Musique,
            RT_QUERIES,
            mix(seed, 0x2D00 + p),
            mode,
        );
        let run_seed = mix(seed, 0x2A00 + p);
        let arrivals = poisson_arrivals(run_seed, RT_QPS, RT_QUERIES);
        let cfg = RunConfig::standard(SystemKind::Metis(metis_full()), arrivals, run_seed);
        sc.runs.push(SimRun { dataset, cfg });
    }
    sc
}

impl Scenario {
    /// Queries one pass serves.
    pub fn queries(&self) -> usize {
        self.runs.iter().map(|r| r.cfg.arrivals.len()).sum()
    }

    /// Executes every run once, in order — one pass. Returns the results
    /// and the wall seconds of each `Runner::run` call.
    pub fn run_pass(&self) -> (Vec<RunResult>, Vec<f64>) {
        self.runs
            .iter()
            .map(|r| {
                let t = Instant::now();
                let res = Runner::new(&self.datasets[r.dataset], r.cfg.clone()).run();
                (res, t.elapsed().as_secs_f64())
            })
            .unzip()
    }
}

/// What one pass reported in virtual time (deterministic per seed).
#[derive(Clone, Debug, PartialEq)]
pub struct Virtual {
    /// Queries pooled.
    pub n: usize,
    /// Median end-to-end delay, virtual s: the queries are pooled per
    /// dataset kind and the kinds' medians combined by geometric mean. Per
    /// kind because, pooled over the paper mix, a percentile sits on the
    /// border between two datasets and swings with the seed; geometric
    /// because the kinds' delays differ 20-fold and each should weigh the
    /// same. A scenario of one kind reports the plain pooled percentile.
    pub delay_p50_s: f64,
    /// The same over each kind's 90th percentile.
    pub delay_p90_s: f64,
    /// 99th percentile of all queries pooled.
    pub delay_p99_s: f64,
    /// Share of attempted queries that completed within their dataset's
    /// limit; a lost query misses.
    pub slo_met_share: f64,
    /// Mean token F1.
    pub f1_mean: f64,
    /// Share of queries on which the §4.3 memory fallback fired.
    pub fallback_share: f64,
    /// FNV-1a over every per-query record: two passes agree on this iff
    /// their virtual results are byte-identical.
    pub digest: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Checks one pass's outputs and summarises them.
///
/// Every query must complete exactly once and its six stage fields must sum
/// to its delay; anything else is recorded in `checks` as a failed
/// operation.
pub fn summarize(sc: &Scenario, results: &[RunResult], checks: &mut Checks) -> Virtual {
    let mut delays = Vec::with_capacity(sc.queries());
    let mut by_kind: Vec<(DatasetKind, Vec<f64>)> = Vec::new();
    let mut f1 = 0.0;
    let mut met = 0usize;
    let mut fallbacks = 0usize;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    checks.require(
        results.len() == sc.runs.len(),
        "one result per run of the scenario",
    );
    for (run, res) in sc.runs.iter().zip(results) {
        let n = run.cfg.arrivals.len();
        let mut seen = vec![0u32; n];
        let kind = sc.datasets[run.dataset].kind;
        let limit = slo_limit_secs(kind);
        let at = by_kind
            .iter()
            .position(|(k, _)| *k == kind)
            .unwrap_or_else(|| {
                by_kind.push((kind, Vec::new()));
                by_kind.len() - 1
            });
        for q in &res.per_query {
            if q.query_index < n {
                seen[q.query_index] += 1;
            }
            let stages_ok = (nanos_to_secs(q.stages.total()) - q.delay_secs).abs()
                <= 1e-9 * q.delay_secs.max(1.0);
            checks.require(
                stages_ok,
                "a query's six stage fields sum to its end-to-end delay",
            );
            delays.push(q.delay_secs);
            by_kind[at].1.push(q.delay_secs);
            f1 += q.f1;
            met += usize::from(q.delay_secs <= limit);
            fallbacks += usize::from(q.fallback);
            fnv(&mut digest, &(q.query_index as u64).to_le_bytes());
            fnv(&mut digest, &q.delay_secs.to_bits().to_le_bytes());
            fnv(&mut digest, &q.f1.to_bits().to_le_bytes());
            fnv(&mut digest, &q.stages.total().to_le_bytes());
            fnv(&mut digest, &q.stages.queue_wait.to_le_bytes());
            fnv(&mut digest, &q.config.num_chunks.to_le_bytes());
            fnv(&mut digest, &q.config.intermediate_length.to_le_bytes());
            fnv(&mut digest, &q.replica.to_le_bytes());
        }
        // Exactly once: a lost query or one answered twice is a failure.
        for count in seen {
            checks.op(count == 1, "every query completes exactly once");
        }
    }
    let attempted = sc.queries();
    let geo_mean = |p: f64| {
        let kinds: Vec<f64> = by_kind
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(_, d)| stats::percentile(d, p).ln())
            .collect();
        stats::mean(&kinds).exp()
    };
    Virtual {
        n: delays.len(),
        delay_p50_s: geo_mean(50.0),
        delay_p90_s: geo_mean(90.0),
        delay_p99_s: if delays.is_empty() {
            0.0
        } else {
            stats::percentile(&delays, 99.0)
        },
        slo_met_share: met as f64 / attempted as f64,
        f1_mean: f1 / attempted as f64,
        fallback_share: fallbacks as f64 / attempted as f64,
        digest,
    }
}
