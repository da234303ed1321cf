//! Ablations of the reproduction's design choices: the confidence fallback,
//! the gang scheduler, the KV-pool cap and the chunk-KV prefix cache.
//!
//! Scale knob: `METIS_BENCH_QUERIES`. Emits `bench-reports/ablations.json`.

use metis_bench::{
    base_qps, bench_queries, dataset, emit, header, new_report, run, Row, Sweep, RUN_SEED,
};
use metis_core::{MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_profiler::ProfilerKind;

fn main() {
    header(
        "Ablations",
        "Design-choice ablations on KG RAG FinSec",
        "(reproduction-specific; no direct paper counterpart)",
    );
    let kind = DatasetKind::FinSec;
    let qps = base_qps(kind);
    let n = bench_queries(120);
    let d = dataset(kind, n);

    // 1. Confidence fallback on/off under the noisy profiler.
    let mut noisy = MetisOptions::full();
    noisy.profiler = ProfilerKind::Llama70b;
    let mut no_fallback = noisy;
    no_fallback.confidence_fallback = false;
    // 2. Gang scheduling on/off.
    let mut no_gang = MetisOptions::full();
    no_gang.gang = false;

    let dref = &d;
    let cells = Sweep::new("ablations")
        .cell_with_seed("noisy_with_fallback", RUN_SEED, move |seed| {
            run(dref, SystemKind::Metis(noisy), qps, seed)
        })
        .cell_with_seed("noisy_no_fallback", RUN_SEED, move |seed| {
            run(dref, SystemKind::Metis(no_fallback), qps, seed)
        })
        .cell_with_seed("gang", RUN_SEED, move |seed| {
            run(dref, SystemKind::Metis(MetisOptions::full()), qps, seed)
        })
        .cell_with_seed("no_gang", RUN_SEED, move |seed| {
            run(dref, SystemKind::Metis(no_gang), qps, seed)
        })
        // 3. KV-pool cap: paper-scale 12 GB vs unbounded physical pool.
        .cell_with_seed("unbounded_kv", RUN_SEED, move |seed| {
            let arrivals = poisson_arrivals(seed ^ 0xA11, qps, dref.queries.len());
            let mut cfg =
                RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, seed);
            cfg.engine.kv_pool_bytes_cap = None;
            Runner::new(dref, cfg).run()
        })
        // 4. Chunk-level KV prefix cache (§8's KV reuse, 4 GB).
        .cell_with_seed("prefix_cache_4g", RUN_SEED, move |seed| {
            let arrivals = poisson_arrivals(seed ^ 0xA11, qps, dref.queries.len());
            let mut cfg =
                RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, seed);
            cfg.prefix_cache_bytes = Some(4 * (1 << 30));
            Runner::new(dref, cfg).run()
        })
        .run();
    let by = |id: &str| -> &RunResult { &cells.iter().find(|c| c.id == id).expect("cell").value };
    let cached = by("prefix_cache_4g");

    let rows = vec![
        Row::from_run(
            "METIS (noisy profiler, conf fallback)",
            by("noisy_with_fallback"),
        ),
        Row::from_run("  - without confidence fallback", by("noisy_no_fallback")),
        Row::from_run("METIS (gang scheduling)", by("gang")),
        Row::from_run("  - without gang scheduling", by("no_gang")),
        Row::from_run("  - unbounded KV pool", by("unbounded_kv")),
        Row::from_run(
            format!(
                "METIS + 4GB chunk-KV cache (hit {:.0}%)",
                cached.prefix_hit_rate * 100.0
            ),
            cached,
        ),
    ];
    metis_bench::print_rows(&rows);

    let mut report = new_report("ablations", "design-choice ablations on KG RAG FinSec")
        .knob("queries", n)
        .knob("dataset", kind.name());
    for cell in &cells {
        let mut cr = cell
            .value
            .cell_report(&cell.id, cell.seed)
            .knob("dataset", kind.name());
        if cell.id == "prefix_cache_4g" {
            cr = cr.metric("prefix_hit_rate", cell.value.prefix_hit_rate);
        }
        report.cells.push(cr);
    }
    emit(&report);
}
