//! Figure 4: the impact of each configuration knob on the quality-delay
//! tradeoff for three Musique-like queries of increasing complexity
//! (Q1 green / Q2 blue / Q3 red in the paper).
//!
//! Quality per point is averaged over generation seeds; delay is the
//! isolated (contention-free) execution of the plan on one A40.
//!
//! The figure's size is the seed-averaging count (the probe dataset stays
//! at 60 queries — the Q1/Q2/Q3 exemplars must exist).

use metis_core::{RagConfig, SynthesisMethod};
use metis_datasets::{Complexity, DatasetKind, QuerySpec};
use metis_llm::{GenModelConfig, GenerationModel, ModelSpec};
use metis_metrics::{BenchReport, CellReport};

use crate::{dataset, isolated_point, knob, Claim, Figure, Sweep};

pub(super) const FIGURE: Figure = Figure {
    name: "fig04_knobs",
    artefact: "Figure 4",
    title: "per-knob quality-delay tradeoff on three probe queries",
    queries: 60,
    run: measure,
};

/// The paper's expectation, per panel. 4a, synthesis method: the optimal
/// method differs per query: simple queries plateau (rerank suffices w/o
/// joint need; here Q1 is joint so stuff suffices), Q2 gains ~35% from
/// joint reading, Q3 gains ~30% more from map_reduce. 4b, num_chunks:
/// quality rises with chunks up to the query's need, then falls
/// (lost-in-the-middle / dilution) while delay keeps inflating (up to 3x
/// delay, up to 20% quality drop). 4c, intermediate_length: simple queries
/// need only short summaries (10-20 words); complex queries need 70-100 to
/// carry all the evidence.
fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let d = dataset(DatasetKind::Musique, 60);
    let seeds = n as u64;
    // Q1: the simplest joint query (2 pieces, low complexity);
    // Q2: a 3-piece reasoning query; Q3: the most complex (4 pieces, high).
    let q1 = d
        .queries
        .iter()
        .find(|q| q.profile.pieces == 1 && q.profile.complexity == Complexity::Low)
        .expect("a simple query exists");
    let q2 = d
        .queries
        .iter()
        .find(|q| q.profile.pieces == 3 && q.profile.joint)
        .expect("a medium query exists");
    let q3 = d
        .queries
        .iter()
        .find(|q| q.profile.pieces == 4 && q.profile.complexity == Complexity::High)
        .expect("a complex query exists");
    let gen = GenerationModel::new(&ModelSpec::mistral_7b_awq(), GenModelConfig::default());
    let queries = [("Q1", q1), ("Q2", q2), ("Q3", q3)];

    // Every (query, panel, knob) point is one sweep cell. A query's cells
    // are contiguous — its 4a points, then 4b, then 4c.
    let methods = SynthesisMethod::all();
    let ks = [1u32, 2, 4, 8, 12, 16, 24, 35];
    let ilens = [1u32, 5, 10, 20, 40, 70, 100];
    let mut plan: Vec<(String, &QuerySpec, RagConfig)> = Vec::new();
    for (name, q) in queries {
        for m in methods {
            let cfg = RagConfig {
                num_chunks: 3 * q.profile.pieces,
                synthesis: m,
                intermediate_length: 60,
            };
            plan.push((format!("4a/{name}/{}", m.name()), q, cfg));
        }
        for k in ks {
            plan.push((format!("4b/{name}/k={k}"), q, RagConfig::stuff(k)));
        }
        for l in ilens {
            let cfg = RagConfig::map_reduce(3 * q.profile.pieces, l);
            plan.push((format!("4c/{name}/ilen={l}"), q, cfg));
        }
    }
    let mut sweep = Sweep::new("fig04");
    for (id, q, cfg) in plan {
        let gen = &gen;
        sweep = sweep.cell(id, move |seed| {
            isolated_point(d, q, gen, cfg, seeds, seed, 0x5851_F42D)
        });
    }
    let cells = sweep.run();

    knob(report, "dataset", "musique");
    knob(report, "gen_seeds", seeds);
    for cell in &cells {
        let (delay, f1) = cell.value;
        let mut c = CellReport::new(&cell.id, cell.seed);
        c.queries = 1;
        c.f1 = f1;
        report.cells.push(c.metric("isolated_delay_secs", delay));
    }
    Vec::new()
}
