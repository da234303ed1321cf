//! Replica scaling: mean/p99 delay and goodput of METIS across 1/2/4
//! engine replicas under rising offered load, comparing the KV-aware
//! `least-kv` router against blind round-robin.
//!
//! This experiment goes beyond the paper (which serves one backend): it
//! checks that (a) extra replicas absorb proportionally higher load before
//! delay collapses, and (b) routing by free KV bytes — the same signal
//! METIS's best-fit sizes against — beats round-robin at high load, because
//! a query lands on the backend with the most configuration headroom.
//!
//! Scale knob: `METIS_BENCH_QUERIES`. Emits `bench-reports/fig_replicas.json`.

use metis_bench::{
    base_qps, bench_queries, dataset, emit, header, metis, new_report, Sweep, RUN_SEED,
};
use metis_core::{RunConfig, Runner};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;

const REPLICAS: [usize; 3] = [1, 2, 4];
const MULTS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

fn main() {
    header(
        "Replica scaling",
        "METIS over 1/2/4 engine replicas, rising load",
        "delay stays near the single-replica low-load level while offered \
         load scales with the replica count; least-kv routing dominates \
         round-robin once replicas saturate",
    );
    let n = bench_queries(96);
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let base = base_qps(kind);
    println!(
        "\n--- {} ({} queries, base λ = {base}/s) ---",
        kind.name(),
        n
    );
    println!(
        "  {:<8} {:<10} {:>12} {:>12} {:>10} {:>14}",
        "load", "replicas", "rr mean(s)", "lkv mean(s)", "lkv p99", "lkv spread"
    );

    // All (load multiple, replica count, router) points on the sweep driver.
    let mut sweep = Sweep::new("fig_replicas");
    for &mult in &MULTS {
        for &replicas in &REPLICAS {
            for (tag, router) in [
                ("rr", RouterPolicy::RoundRobin),
                ("lkv", RouterPolicy::LeastKvLoad),
            ] {
                let d = &d;
                sweep = sweep.cell_with_seed(
                    format!("{mult:.0}x/{replicas}r/{tag}"),
                    RUN_SEED,
                    move |seed| {
                        let arrivals = poisson_arrivals(seed ^ 0xA11, base * mult, n);
                        let cfg = RunConfig::standard(metis(), arrivals, seed)
                            .replicated(replicas, router);
                        Runner::new(d, cfg).run()
                    },
                );
            }
        }
    }
    let cells = sweep.run();
    let find = |mult: f64, replicas: usize, tag: &str| {
        &cells
            .iter()
            .find(|c| c.id == format!("{mult:.0}x/{replicas}r/{tag}"))
            .expect("cell computed")
            .value
    };
    for &mult in &MULTS {
        for &replicas in &REPLICAS {
            let rr = find(mult, replicas, "rr");
            let lkv = find(mult, replicas, "lkv");
            let lat = lkv.latency();
            let spread: Vec<String> = lkv
                .completions_by_replica()
                .iter()
                .map(usize::to_string)
                .collect();
            println!(
                "  {:<8} {:<10} {:>12.2} {:>12.2} {:>10.2} {:>14}",
                format!("{mult:.0}x"),
                replicas,
                rr.latency().mean(),
                lat.mean(),
                lat.p99(),
                spread.join("/"),
            );
        }
    }

    let mut report = new_report("fig_replicas", "replica scaling under rising load")
        .knob("queries", n)
        .knob("dataset", kind.name());
    for cell in &cells {
        report.cells.push(
            cell.value
                .cell_report(&cell.id, cell.seed)
                .knob("dataset", kind.name()),
        );
    }
    emit(&report);
}
