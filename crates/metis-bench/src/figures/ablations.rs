//! Ablations of the reproduction's design choices: the confidence fallback,
//! the gang scheduler, the KV-pool cap and the chunk-KV prefix cache.

use metis_core::{MetisOptions, RunConfig, Runner, SystemKind};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_engine::SchedPolicy;
use metis_metrics::BenchReport;
use metis_profiler::ProfilerKind;

use crate::{base_qps, dataset, knob, metis, paired, push_cells, Claim, Figure, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "ablations",
    artefact: "Ablations",
    title: "design-choice ablations on KG RAG FinSec",
    queries: 120,
    run: measure,
};

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::FinSec;
    let qps = base_qps(kind);
    let d = dataset(kind, n);

    // 1. Confidence fallback on/off under the noisy profiler.
    let mut noisy = MetisOptions::full();
    noisy.profiler = ProfilerKind::Llama70b;
    let mut no_fallback = noisy;
    no_fallback.confidence_fallback = false;
    // 2. Gang scheduling on/off: full METIS admits preemptively (which
    // keeps the gang keys within a class) against plain FCFS admission.
    let no_gang = MetisOptions {
        sched: SchedPolicy::Fcfs,
        ..MetisOptions::full()
    };

    let arms = [
        ("noisy_with_fallback", SystemKind::Metis(noisy)),
        ("noisy_no_fallback", SystemKind::Metis(no_fallback)),
        ("gang", metis()),
        ("no_gang", SystemKind::Metis(no_gang)),
    ];
    let cells = paired(Sweep::new("ablations"), "", d, qps, &arms)
        // 3. KV-pool cap: paper-scale 12 GB vs unbounded physical pool.
        .cell_with_seed("unbounded_kv", RUN_SEED, move |seed| {
            let arrivals = poisson_arrivals(seed ^ 0xA11, qps, n);
            let mut cfg = RunConfig::standard(metis(), arrivals, seed);
            cfg.engine.kv_pool_bytes_cap = None;
            Runner::new(d, cfg).run()
        })
        // 4. Chunk-level KV prefix cache (§8's KV reuse, 4 GB).
        .cell_with_seed("prefix_cache_4g", RUN_SEED, move |seed| {
            let arrivals = poisson_arrivals(seed ^ 0xA11, qps, n);
            let mut cfg = RunConfig::standard(metis(), arrivals, seed);
            cfg.prefix_cache_bytes = Some(4 * (1 << 30));
            Runner::new(d, cfg).run()
        })
        .run();
    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    push_cells(report, &cells, |c, r| {
        let cache_arm = c.id == "prefix_cache_4g";
        let c = c.knob("dataset", kind.name());
        if cache_arm {
            c.metric("prefix_hit_rate", r.prefix_hit_rate)
        } else {
            c
        }
    });
    Vec::new()
}
