//! SLO-constrained configuration selection (§4.3's "SLO-based constraints").
//!
//! ```sh
//! cargo run --example slo_serving
//! ```

use metis::core::{
    choose_config_with_slo, estimate_exec_secs, map_profile, BestFitInputs, LatencySlo,
};
use metis::prelude::*;

fn main() {
    let dataset = build_dataset(DatasetKind::FinSec, 6, 3);
    let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
    let mut profiler = LlmProfiler::new(ProfilerKind::Gpt4o);
    let metadata = dataset.db.metadata().clone();

    println!("== SLO-aware configuration selection ==");
    for q in &dataset.queries {
        let est = profiler.profile(q, &metadata, 5).estimate;
        let space = map_profile(&est);
        let inputs = BestFitInputs {
            free_kv_tokens: 90_000,
            chunk_size: metadata.chunk_size as u64,
            query_tokens: q.tokens.len() as u64,
            expected_output: 48,
            buffer_frac: 0.02,
        };
        print!("q{} (pieces {}):", q.id.0, est.pieces);
        for budget in [10.0, 2.5, 1.0] {
            let chosen =
                choose_config_with_slo(&space, est.joint, &inputs, &latency, LatencySlo(budget));
            let secs = estimate_exec_secs(
                &chosen.config,
                &latency,
                inputs.chunk_size,
                inputs.query_tokens,
                inputs.expected_output,
            );
            print!(
                "  SLO {budget:>4.1}s → {} (~{secs:.2}s{})",
                chosen.config.label(),
                if chosen.fallback { ", best effort" } else { "" }
            );
        }
        println!();
    }
}
