//! Figure 15: sensitivity to the inference LLM — serving Llama-3.1-70B on
//! two A40s instead of Mistral-7B on one.
//!
//! Scale knob: `METIS_BENCH_QUERIES`. Emits `bench-reports/fig15_big_model.json`.

use metis_bench::{
    adaptive_rag, base_qps, bench_queries, best_quality_fixed, dataset, emit, fixed_menu, header,
    metis, new_report, print_rows, run_on, Row, Sweep, RUN_SEED,
};
use metis_core::{RagConfig, RunResult, SystemKind};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_llm::{GpuCluster, ModelSpec};

fn main() {
    header(
        "Figure 15",
        "Larger inference LLM (Llama-3.1-70B, 2xA40)",
        "METIS keeps 2.1-2.4x lower delay than AdaptiveRAG* at similar F1; \
         fixed baselines lose 7-10% F1; RAG gains only ~2% F1 from the \
         bigger model (context matters more than weights)",
    );
    let n = bench_queries(100);
    let mut report = new_report("fig15_big_model", "METIS vs baselines on Llama-3.1-70B")
        .knob("queries", n)
        .knob("model", "llama31_70b_awq");
    for kind in [DatasetKind::Musique, DatasetKind::Qmsum] {
        // The 70B model is ~5x slower per token even on 2 GPUs; scale the rate
        // to hold utilization comparable.
        let qps = base_qps(kind) * 0.12;
        let d = dataset(kind, n);
        let model = ModelSpec::llama31_70b_awq();
        let cluster = GpuCluster::dual_a40();

        // METIS, AdaptiveRAG*, and every fixed config, all on the sweep
        // driver (the fixed menu must run on the large model to pick its
        // own best).
        let dref = &d;
        let mut sweep: Sweep<'_, (Option<RagConfig>, RunResult)> =
            Sweep::new(format!("fig15/{}", kind.name()));
        for sys in ["metis", "adaptive_rag"] {
            let model = model.clone();
            sweep = sweep.cell_with_seed(format!("{}/{sys}", kind.name()), RUN_SEED, move |seed| {
                let system = if sys == "metis" {
                    metis()
                } else {
                    adaptive_rag()
                };
                let arrivals = poisson_arrivals(seed ^ 0xA11, qps, n);
                (
                    None,
                    run_on(dref, system, arrivals, seed, model, cluster, false),
                )
            });
        }
        for cfg in fixed_menu() {
            let model = model.clone();
            sweep = sweep.cell_with_seed(
                format!("{}/fixed/{}", kind.name(), cfg.label()),
                RUN_SEED,
                move |seed| {
                    let arrivals = poisson_arrivals(seed ^ 0xA11, qps, n);
                    (
                        Some(cfg),
                        run_on(
                            dref,
                            SystemKind::VllmFixed { config: cfg },
                            arrivals,
                            seed,
                            model,
                            cluster,
                            false,
                        ),
                    )
                },
            );
        }
        let cells = sweep.run();
        let m = &cells[0].value.1;
        let a = &cells[1].value.1;
        let fixed_sweep: Vec<(RagConfig, RunResult)> = cells[2..]
            .iter()
            .map(|c| (c.value.0.expect("fixed cell"), c.value.1.clone()))
            .collect();
        let (qc, qr) = best_quality_fixed(&fixed_sweep);

        println!("\n--- {} (λ = {qps:.2}/s, Llama-3.1-70B) ---", kind.name());
        print_rows(&[
            Row::from_run("METIS", m),
            Row::from_run("AdaptiveRAG*", a),
            Row::from_run(format!("vLLM best fixed [{}]", qc.label()), qr),
        ]);
        println!(
            "  delay vs AdaptiveRAG*: {:.2}x | F1 delta vs fixed: {:+.3}",
            a.mean_delay_secs() / m.mean_delay_secs(),
            m.mean_f1() - qr.mean_f1()
        );

        for cell in &cells[..2] {
            report.cells.push(
                cell.value
                    .1
                    .cell_report(&cell.id, cell.seed)
                    .knob("dataset", kind.name()),
            );
        }
        // Only the winning fixed config joins the report (the full menu
        // would drown the report in near-duplicate cells).
        let best_cell = cells[2..]
            .iter()
            .find(|c| c.value.0 == Some(*qc))
            .expect("best config came from these cells");
        report.cells.push(
            qr.cell_report(format!("{}/vllm_best_fixed", kind.name()), best_cell.seed)
                .knob("dataset", kind.name())
                .knob("config", qc.label()),
        );
    }
    emit(&report);
}
