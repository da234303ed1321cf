//! Figure 11: mean delay vs offered load (queries/second) — METIS vs
//! Parrot* and vLLM with the fixed configuration of closest quality.
//!
//! The x-axis is expressed as a multiple of each dataset's calibrated base
//! rate (see `base_qps`); the paper's absolute 0–8 q/s axis is
//! testbed-specific.
//!
//! One of the five figures whose smoke-scale report must equal its
//! `baselines/` file byte for byte.

use metis_core::{RunResult, SystemKind};
use metis_datasets::DatasetKind;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, run, Claim, Figure, FixedMenu, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig11_throughput",
    artefact: "Figure 11",
    title: "mean delay vs offered load, METIS vs Parrot* and best-quality vLLM fixed",
    queries: 120,
    run: measure,
};

const MULTS: [f64; 6] = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let mut claims = Vec::new();
    knob(report, "queries", n);
    knob(report, "load_mults", format!("{MULTS:?}"));

    for kind in DatasetKind::all() {
        let d = dataset(kind, n);
        let base = base_qps(kind);
        // Fixed baseline = best-quality static config at the base rate.
        let menu = FixedMenu::run(d, base);
        let (qc, _) = menu.best_quality();

        // All (multiplier, system) points on the sweep driver; each cell
        // carries its point beside its run.
        let systems = [
            ("metis", metis()),
            ("parrot", SystemKind::Parrot { config: *qc }),
            ("vllm", SystemKind::VllmFixed { config: *qc }),
        ];
        let mut grid: Sweep<'_, (f64, &str, RunResult)> =
            Sweep::new(format!("fig11/{}", kind.name()));
        for &mult in &MULTS {
            for (sys, system) in systems {
                grid = grid.cell_with_seed(
                    format!("{}/{sys}/{mult:.2}x", kind.name()),
                    RUN_SEED,
                    move |seed| (mult, sys, run(d, system, base * mult, seed)),
                );
            }
        }
        let cells = grid.run();
        // One row per load: the three systems' mean delays, in `systems` order.
        let rows: Vec<(f64, Vec<f64>)> = cells
            .chunks(systems.len())
            .map(|row| {
                let delays = row.iter().map(|c| c.value.2.mean_delay_secs()).collect();
                (row[0].value.0, delays)
            })
            .collect();
        // Throughput at a delay budget: the largest load multiple where mean
        // delay stays within 3x the low-load delay.
        let budget = |sys: usize| -> f64 {
            let cap = rows[0].1[sys] * 3.0;
            rows.iter()
                .filter(|(_, delays)| delays[sys] <= cap)
                .fold(0.0, |acc, &(m, _)| acc.max(m))
        };
        let sustained = budget(0) / budget(2).max(1e-9);
        let id = format!("{}/sustainable_load_vs_fixed", kind.name());
        claims.push(Claim::higher(id, (1.8, 4.5), sustained));

        for cell in &cells {
            let (mult, sys, r) = &cell.value;
            report.cells.push(
                r.cell_report(&cell.id, cell.seed)
                    .knob("dataset", kind.name())
                    .knob("system", sys)
                    .knob("load_mult", format!("{mult:.2}x"))
                    .knob("fixed_config", qc.label()),
            );
        }
    }
    claims
}
