//! Figure 5: per-query configuration vs the Pareto boundary of fixed
//! configurations (Musique and QMSUM).
//!
//! For every query we pick, offline, the configuration with the lowest delay
//! whose quality is within 2% of the query's best achievable quality (the
//! paper's definition of the per-query best), then compare its aggregate
//! (delay, F1) against every fixed configuration.

use metis_core::RagConfig;
use metis_datasets::DatasetKind;
use metis_llm::{GenModelConfig, GenerationModel, ModelSpec};
use metis_metrics::{BenchReport, CellReport};

use crate::{dataset, isolated_point, knob, pareto_front, Claim, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig05_perquery",
    artefact: "Figure 5",
    title: "per-query configuration vs the fixed-config Pareto frontier",
    queries: 40,
    run: measure,
};

const SEEDS: u64 = 16;
fn grid() -> Vec<RagConfig> {
    let mut g = Vec::new();
    for k in [1u32, 2, 4, 6, 8, 12, 16, 24, 35] {
        g.push(RagConfig::map_rerank(k));
        g.push(RagConfig::stuff(k));
        for l in [20, 60, 120] {
            g.push(RagConfig::map_reduce(k, l));
        }
    }
    g
}

fn measure_dataset(kind: DatasetKind, n: usize, report: &mut BenchReport) -> [Claim; 2] {
    let d = dataset(kind, n);
    let gen = GenerationModel::new(&ModelSpec::mistral_7b_awq(), GenModelConfig::default());
    let grid = grid();

    // Per-query × per-config evaluation: one sweep cell per query.
    let mut sweep: Sweep<'_, Vec<(f64, f64)>> = Sweep::new(format!("fig05/{}", kind.name()));
    for qi in 0..n {
        let gen = &gen;
        let grid = &grid;
        sweep = sweep.cell(format!("{}/q{qi}", kind.name()), move |seed| {
            let point =
                |&cfg| isolated_point(d, &d.queries[qi], gen, cfg, SEEDS, seed, 0x9E37_79B9);
            grid.iter().map(point).collect()
        });
    }
    let rows = sweep.run();

    // Per-query best: lowest delay within 2% of the best achievable F1.
    let mut pq_delay = 0.0;
    let mut pq_f1 = 0.0;
    for cell in &rows {
        let evals = &cell.value;
        let best_f1 = evals.iter().map(|e| e.1).fold(0.0, f64::max);
        let (d, f) = evals
            .iter()
            .filter(|e| e.1 >= best_f1 - 0.02)
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .copied()
            .expect("non-empty grid");
        pq_delay += d;
        pq_f1 += f;
    }
    pq_delay /= n as f64;
    pq_f1 /= n as f64;

    // Fixed configurations aggregated over all queries.
    let fixed: Vec<(f64, f64)> = (0..grid.len())
        .map(|ci| {
            let (mut dsum, mut fsum) = (0.0, 0.0);
            for cell in &rows {
                dsum += cell.value[ci].0;
                fsum += cell.value[ci].1;
            }
            (dsum / n as f64, fsum / n as f64)
        })
        .collect();
    let mut front = pareto_front(&fixed);
    front.sort_by(|&a, &b| fixed[a].0.total_cmp(&fixed[b].0));

    // The paper's two claims. Where no fixed configuration comes within 2%
    // of per-query F1, the saving is unbounded.
    let closest_quality = fixed
        .iter()
        .filter(|e| e.1 >= pq_f1 - 0.02)
        .map(|e| e.0)
        .fold(f64::INFINITY, f64::min);
    let best_within_delay = fixed
        .iter()
        .filter(|e| e.0 <= pq_delay * 1.05)
        .map(|e| e.1)
        .fold(0.0, f64::max);

    // Report: the per-query aggregate plus the Pareto frontier points.
    let mut pq = CellReport::new(format!("{}/per_query", kind.name()), rows[0].seed);
    pq.queries = n as u64;
    pq.f1 = pq_f1;
    report.cells.push(
        pq.knob("dataset", kind.name())
            .metric("isolated_delay_secs", pq_delay),
    );
    for &i in &front {
        let mut c = CellReport::new(
            format!("{}/frontier/{}", kind.name(), grid[i].label()),
            rows[0].seed,
        );
        c.queries = n as u64;
        c.f1 = fixed[i].1;
        report.cells.push(
            c.knob("dataset", kind.name())
                .knob("config", grid[i].label())
                .metric("isolated_delay_secs", fixed[i].0),
        );
    }
    let dataset = kind.name();
    let f1_gain_pct = (pq_f1 / best_within_delay.max(1e-9) - 1.0) * 100.0;
    [
        Claim::higher(
            format!("{dataset}/delay_saving_vs_quality_closest"),
            (3.0, 3.0),
            closest_quality / pq_delay,
        ),
        Claim::higher(
            format!("{dataset}/f1_gain_at_comparable_delay_pct"),
            (10.0, 10.0),
            f1_gain_pct,
        ),
    ]
}

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    knob(report, "queries", n);
    knob(report, "gen_seeds", SEEDS);
    let musique = measure_dataset(DatasetKind::Musique, n, report);
    let qmsum = measure_dataset(DatasetKind::Qmsum, n, report);
    musique.into_iter().chain(qmsum).collect()
}
