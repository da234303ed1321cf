//! Figure 11: mean delay vs offered load (queries/second) — METIS vs
//! Parrot* and vLLM with the fixed configuration of closest quality.
//!
//! The x-axis is expressed as a multiple of each dataset's calibrated base
//! rate (see `metis_bench::base_qps`); the paper's absolute 0–8 q/s axis is
//! testbed-specific.
//!
//! Scale knob: `METIS_BENCH_QUERIES` (CI smoke runs set it low). Emits
//! `bench-reports/fig11_throughput.json` — one of the five reports CI
//! requires to equal their `baselines/` file byte for byte.

use metis_bench::{
    base_qps, bench_queries, best_quality_fixed, dataset, emit, fixed_menu, header, metis,
    new_report, run, sweep_fixed, Sweep, RUN_SEED,
};
use metis_core::{RunResult, SystemKind};
use metis_datasets::DatasetKind;

const MULTS: [f64; 6] = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
const SYSTEMS: [&str; 3] = ["metis", "parrot", "vllm"];

fn main() {
    header(
        "Figure 11",
        "Throughput: mean delay vs offered load",
        "METIS sustains 1.8-4.5x higher throughput than fixed-config \
         baselines of closest quality at the same delay",
    );
    let n = bench_queries(120);
    let mut report = new_report(
        "fig11_throughput",
        "mean delay vs offered load, METIS vs Parrot* and best-quality vLLM fixed",
    )
    .knob("queries", n)
    .knob("load_mults", format!("{MULTS:?}"));

    for kind in DatasetKind::all() {
        let d = dataset(kind, n);
        let base = base_qps(kind);
        // Fixed baseline = best-quality static config at the base rate.
        let sweep = sweep_fixed(&d, &fixed_menu(), base, RUN_SEED, false);
        let (qc, _) = best_quality_fixed(&sweep);
        println!(
            "\n--- {} (base λ = {base}/s, fixed = {}) ---",
            kind.name(),
            qc.label()
        );
        println!(
            "  {:<10} {:>11} {:>11} {:>11}",
            "load", "METIS(s)", "Parrot*(s)", "vLLM(s)"
        );

        // All (multiplier, system) points on the sweep driver.
        let mut grid = Sweep::new(format!("fig11/{}", kind.name()));
        for &mult in &MULTS {
            for sys in SYSTEMS {
                let d = &d;
                let config = *qc;
                grid = grid.cell_with_seed(
                    format!("{}/{sys}/{mult:.2}x", kind.name()),
                    RUN_SEED,
                    move |seed| {
                        let system = match sys {
                            "metis" => metis(),
                            "parrot" => SystemKind::Parrot { config },
                            _ => SystemKind::VllmFixed { config },
                        };
                        run(d, system, base * mult, seed)
                    },
                );
            }
        }
        let cells = grid.run();
        let delay_of = |mult: f64, sys: &str| -> f64 {
            cells
                .iter()
                .find(|c| c.id == format!("{}/{sys}/{mult:.2}x", kind.name()))
                .expect("cell computed")
                .value
                .mean_delay_secs()
        };
        for &mult in &MULTS {
            println!(
                "  {:<10} {:>11.2} {:>11.2} {:>11.2}",
                format!("{:.2}x", mult),
                delay_of(mult, "metis"),
                delay_of(mult, "parrot"),
                delay_of(mult, "vllm"),
            );
        }
        // Throughput at a delay budget: the largest load multiple where mean
        // delay stays within 3x the low-load delay.
        let budget = |sys: &str| -> f64 {
            let cap = delay_of(MULTS[0], sys) * 3.0;
            MULTS
                .iter()
                .filter(|&&m| delay_of(m, sys) <= cap)
                .fold(0.0, |acc, &m| acc.max(m))
        };
        let (tm, tp, tv) = (budget("metis"), budget("parrot"), budget("vllm"));
        println!(
            "  sustainable load within 3x low-load delay: METIS {tm:.2}x, \
             Parrot* {tp:.2}x, vLLM {tv:.2}x → METIS/vLLM = {:.2}x",
            tm / tv.max(1e-9)
        );

        for cell in &cells {
            let r: &RunResult = &cell.value;
            let (_, sys, mult) = split_id(&cell.id);
            report.cells.push(
                r.cell_report(&cell.id, cell.seed)
                    .knob("dataset", kind.name())
                    .knob("system", sys)
                    .knob("load_mult", mult)
                    .knob("fixed_config", qc.label()),
            );
        }
    }
    emit(&report);
}

fn split_id(id: &str) -> (&str, &str, &str) {
    let mut it = id.splitn(3, '/');
    (
        it.next().unwrap_or(""),
        it.next().unwrap_or(""),
        it.next().unwrap_or(""),
    )
}
