//! Every pinned artefact of the workspace, each held to its committed file
//! byte for byte by one helper, [`assert_pinned`]:
//!
//! - `tests/golden/ann_search_digest.txt`: what every ANN index returns and
//!   what HNSW builds ([`ann`]);
//! - `tests/golden/engine_step_digest.txt`: what `Engine::step` admits,
//!   evicts and finishes, and when, per scheduling policy ([`engine`]);
//! - `tests/golden/sim_cell_report.json`: the simulator's report of one
//!   fixed workload;
//! - `tests/golden/report_v1.json`: the report schema, rendered from a fixed
//!   fixture;
//! - `baselines/<figure>.json`: the smoke-scale report of each gated figure
//!   (a figure is gated by having a file there);
//! - `baselines/digests.txt`: one FNV-1a digest per other figure's
//!   smoke-scale report, so no figure can move unread;
//! - `tests/golden/claims.json`: the paper's numeric claims as the paper
//!   figures measure them at full scale, each with its verdict.
//!
//! A failure prints the first lines that moved. On an *intentional* change,
//! regenerate every pin with `METIS_REGEN_GOLDEN=1 cargo test --test pins`,
//! review the diff, and explain every moved number in the PR. A change to
//! the report's shape also bumps `SCHEMA_VERSION` in `metis-metrics`.

#![expect(
    clippy::disallowed_methods,
    reason = "reads the pinned files; METIS_REGEN_GOLDEN=1 rewrites them"
)]

mod ann;
mod engine;

use std::fmt::Write as _;

use metis::core::{MetisOptions, RunConfig, Runner, SystemKind};
use metis::datasets::{build_dataset, poisson_arrivals, DatasetKind};
use metis::engine::RouterPolicy;
use metis::metrics::{BenchReport, CellReport, Json, LatencySummary, SummaryStats};
use metis_bench::{select, FIGURES};

/// Holds the file at `path` (from the repository root) to `fresh`, byte for
/// byte; under `METIS_REGEN_GOLDEN=1` writes `fresh` there instead.
fn assert_pinned(path: &str, fresh: &str) {
    if std::env::var_os("METIS_REGEN_GOLDEN").is_some() {
        std::fs::write(path, fresh).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        return;
    }
    let pinned =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    if pinned == fresh {
        return;
    }
    // Reports render one value per line and digest files one row per line,
    // so the moved lines name what moved.
    let (was, is): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), fresh.lines().collect());
    let moved: Vec<String> = (0..was.len().max(is.len()))
        .filter(|&i| was.get(i) != is.get(i))
        .take(12)
        .map(|i| {
            let (was, is) = (was.get(i).unwrap_or(&""), is.get(i).unwrap_or(&""));
            format!("  line {}:\n    - {was}\n    + {is}", i + 1)
        })
        .collect();
    panic!(
        "{path} moved ({} lines, was {}); first moved lines:\n{}\n\
         explain every moved number in the PR, then regenerate with\n  \
         METIS_REGEN_GOLDEN=1 cargo test --test pins",
        is.len(),
        was.len(),
        moved.join("\n")
    );
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `w` as its little-endian bytes.
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The simulator's output, not just its schema: a fixed workload (pinned
/// dataset seed and Poisson arrivals, preemptive METIS over a two-replica
/// least-KV cluster, so queueing, preemption and cluster stepping order all
/// run) must render the same report forever. Any change to event ordering,
/// engine arithmetic or float summation order moves a byte. The realtime
/// driver is this simulator paced by the wall clock, so its virtual results
/// are pinned here too.
#[test]
fn sim_driver_reproduces_the_golden_report_byte_for_byte() {
    const DATASET_SEED: u64 = 20_241_016;
    const RUN_SEED: u64 = 99;
    const QUERIES: usize = 16;
    let dataset = build_dataset(DatasetKind::Musique, QUERIES, DATASET_SEED);
    let arrivals = poisson_arrivals(RUN_SEED ^ 0xA11, 0.55, QUERIES);
    let cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, RUN_SEED)
        .replicated(2, RouterPolicy::LeastKvLoad);
    let cell = Runner::new(&dataset, cfg)
        .run()
        .cell_report("musique/metis/2r", RUN_SEED);
    assert_eq!(cell.queries, QUERIES as u64);
    assert!(cell.f1 > 0.0, "the pinned run answers queries");
    assert!(cell.latency.mean > 0.0, "the pinned run takes time");
    let mut report = BenchReport::new("sim_golden", "SimDriver output pin");
    report.dataset_seed = DATASET_SEED;
    report.run_seed = RUN_SEED;
    report.cells.push(cell);
    assert_pinned("tests/golden/sim_cell_report.json", &report.render());
}

/// Schema stability: renaming a field, changing the percentile grid,
/// reordering keys or touching the pretty-printer moves a byte of this
/// fixture's rendering, and the rendering must parse back to the fixture.
#[test]
fn rendered_schema_matches_the_committed_golden() {
    let mut fixture = BenchReport::new("golden_fixture", "schema stability fixture")
        .knob("dataset", "musique")
        .knob("load_mults", "1,2");
    fixture.dataset_seed = 20_241_016;
    fixture.run_seed = 99;
    fixture.cells.push(
        CellReport {
            queries: 4,
            f1: 0.75,
            latency: SummaryStats::of(&LatencySummary::new(vec![0.5, 1.0, 2.0, 4.0])),
            queue_wait: SummaryStats::of(&LatencySummary::new(vec![0.25])),
            retrieval: SummaryStats::of(&LatencySummary::new(vec![0.015625, 0.03125])),
            stages: vec![
                ("profile".into(), 0.125),
                ("decide".into(), 0.0),
                ("retrieve".into(), 0.03125),
                ("queue_wait".into(), 0.25),
                ("prefill".into(), 0.5),
                ("decode".into(), 1.0),
            ],
            throughput_qps: 2.0,
            preemptions: 1,
            gpu_busy_secs: 3.5,
            api_cost_usd: 0.0625,
            retrieval_recall: 0.875,
            ..CellReport::new("musique/metis/1.00x", 7)
        }
        .knob("system", "metis")
        .metric("chunk_recall_at_8", 0.9375),
    );
    let rendered = fixture.render();
    let parsed = BenchReport::parse(&rendered).expect("the fixture's rendering parses");
    assert_eq!(parsed, fixture, "the report no longer decodes losslessly");
    assert_pinned("tests/golden/report_v1.json", &rendered);
}

/// The scale every baseline and digest is taken at, CI's bench smoke scale
/// (`METIS_BENCH_QUERIES=8`).
const SMOKE: usize = 8;

/// The gated figures: the stems of `baselines/*.json`, sorted.
fn gated() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir("baselines")
        .expect("baselines/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let stem = path.file_stem().expect("a stem");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    stems.sort();
    stems
}

/// The perf gate: each `baselines/<name>.json` is figure `name`'s report at
/// smoke scale, whole — every metric, knob, and the set and order of cells.
/// To gate one more figure, create its (empty) file and regenerate.
#[test]
fn gated_figures_equal_their_baselines() {
    for figure in select(gated()).expect("every baseline names a figure") {
        let fresh = figure.report(Some(SMOKE)).0.render();
        assert_pinned(&format!("baselines/{}.json", figure.name), &fresh);
    }
}

/// Every figure without a baseline is witnessed by one `name digest` line,
/// in table order, over its smoke-scale report.
#[test]
fn ungated_figures_equal_their_digests() {
    let gated = gated();
    let mut fresh = String::new();
    for figure in FIGURES.iter().filter(|f| !gated.contains(&f.name.into())) {
        let mut fnv = Fnv::new();
        fnv.bytes(figure.report(Some(SMOKE)).0.render().as_bytes());
        writeln!(fresh, "{} {:016x}", figure.name, fnv.0).expect("write to String");
    }
    assert_pinned("baselines/digests.txt", &fresh);
}

/// The figures whose claims are pinned: the paper figures with numeric
/// claims (ROADMAP item 10's twelve, and `fig17_small_profiler`).
const CLAIMED: [&str; 13] = [
    "fig01_preview",
    "fig05_perquery",
    "fig09_confidence",
    "fig10_overall",
    "fig11_throughput",
    "fig12_breakdown",
    "fig13_cost",
    "fig14_feedback",
    "fig15_big_model",
    "fig16_incremental",
    "fig17_small_profiler",
    "fig18_profiler_overhead",
    "fig19_low_load",
];

/// The fidelity pin: each claimed figure runs at full scale, as the paper
/// did, and every claim it measures — its value and verdict — must equal
/// `tests/golden/claims.json`. At smoke scale a verdict would be noise.
#[test]
fn paper_claims_at_full_scale_equal_their_golden() {
    let mut claims = Vec::new();
    for figure in select(CLAIMED.map(String::from)).expect("every claimed figure exists") {
        let (_, measured) = figure.report(None);
        assert!(!measured.is_empty(), "{} measures no claim", figure.name);
        claims.extend(measured.iter().map(|claim| claim.to_json(None)));
    }
    let mut fresh = Json::Arr(claims).render_pretty(2);
    fresh.push('\n');
    assert_pinned("tests/golden/claims.json", &fresh);
}
