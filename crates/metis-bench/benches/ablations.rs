//! Ablations of the reproduction's design choices (DESIGN.md §6): the
//! confidence fallback, the gang scheduler, the streaming-window fit, the
//! KV-pool cap, and the §4.2 extension knobs (re-ranker / query re-writer).
//!
//! Scale knob: `METIS_BENCH_QUERIES`. Emits `bench-reports/ablations.json`.

use metis_bench::{
    base_qps, bench_queries, dataset, emit, header, new_report, run, Row, Sweep, RUN_SEED,
};
use metis_core::{
    rerank_hits, rewrite_query, MetisOptions, RunConfig, RunResult, Runner, SystemKind,
};
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

    // 5. Extension knobs: does the lexical re-ranker recover weakly-embedded
    //    facts, and does query re-writing sharpen retrieval?
    println!("\n  extension knobs (retrieval recall of needed facts @ 8):");
    let mut plain_found = 0usize;
    let mut rerank_found = 0usize;
    let mut rewrite_found = 0usize;
    let mut total = 0usize;
    for q in &d.queries {
        let needed: std::collections::BTreeSet<_> = q.truth.base.iter().map(|b| b.id).collect();
        let count = |hits: &[metis_vectordb::RetrievalResult]| {
            let mut found = std::collections::BTreeSet::new();
            for r in hits {
                for f in r.text.fact_ids() {
                    if needed.contains(&f) {
                        found.insert(f);
                    }
                }
            }
            found.len()
        };
        total += needed.len();
        let deep = d.db.retrieve(&q.tokens, 24);
        plain_found += count(&deep[..8.min(deep.len())]);
        let reranked = rerank_hits(&q.tokens, deep.clone());
        rerank_found += count(&reranked[..8.min(reranked.len())]);
        let rewritten = d.db.retrieve(&rewrite_query(&q.tokens), 8);
        rewrite_found += count(&rewritten);
    }
    let (plain, rerank, rewrite) = (
        plain_found as f64 / total as f64,
        rerank_found as f64 / total as f64,
        rewrite_found as f64 / total as f64,
    );
    println!(
        "    plain top-8: {plain:.3} | re-ranked top-8 of 24: {rerank:.3} | \
         rewritten query top-8: {rewrite:.3}"
    );

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
    let mut ext = metis_metrics::CellReport::new("extension_knobs", cells[0].seed);
    ext.queries = n as u64;
    report.cells.push(
        ext.metric("fact_recall_plain_top8", plain)
            .metric("fact_recall_rerank_top8of24", rerank)
            .metric("fact_recall_rewrite_top8", rewrite),
    );
    emit(&report);
}
