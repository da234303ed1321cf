//! The AdaptiveRAG\* baseline controller: adaptive but resource-oblivious.

use metis_datasets::QuerySpec;
use metis_engine::SchedPolicy;
use metis_profiler::{LlmProfiler, ProfilerKind};
use metis_vectordb::DbMetadata;

use crate::baselines::adaptive_rag_pick;
use crate::controllers::{ConfigController, Decision, DecisionContext, ProfileOutcome};
use crate::mapping::map_profile;

/// AdaptiveRAG\* (§7.1): profiles every query like METIS but then takes the
/// quality-maximizing configuration with no regard for resource cost — the
/// adaptation-without-joint-scheduling ablation the paper compares against.
pub(crate) struct AdaptiveRagController {
    profiler: LlmProfiler,
}

impl AdaptiveRagController {
    /// Builds the controller with a fresh profiler of the given kind.
    pub(crate) fn new(kind: ProfilerKind) -> Self {
        Self {
            profiler: LlmProfiler::new(kind),
        }
    }
}

impl ConfigController for AdaptiveRagController {
    fn name(&self) -> &'static str {
        "adaptive-rag"
    }

    fn sched_policy(&self) -> SchedPolicy {
        SchedPolicy::Fcfs
    }

    fn on_profile(
        &mut self,
        query: &QuerySpec,
        metadata: &DbMetadata,
        seed: u64,
    ) -> ProfileOutcome {
        let out = self.profiler.profile(query, metadata, seed);
        ProfileOutcome {
            space: Some(map_profile(&out.estimate)),
            estimate: Some(out.estimate),
            profiler_nanos: out.latency,
            cost_usd: out.cost_usd,
            ..ProfileOutcome::skipped()
        }
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        Decision {
            config: adaptive_rag_pick(ctx.space.expect("profiled before deciding")),
            fallback: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_llm::{GpuCluster, LatencyModel, ModelSpec};
    use metis_vectordb::IndexMeta;

    #[test]
    fn pick_ignores_free_memory() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::FinSec, 2, 9);
        let mut c = AdaptiveRagController::new(ProfilerKind::Gpt4o);
        let meta = d.db.metadata().clone();
        let outcome = c.on_profile(&d.queries[0], &meta, 3);
        assert!(outcome.cost_usd > 0.0);
        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let mut decide = |free: u64| {
            c.decide(&DecisionContext {
                space: outcome.space.as_ref(),
                estimate: outcome.estimate.as_ref(),
                free_kv_tokens: free,
                preemption_pressure: 0.0,
                chunk_size: 512,
                query_tokens: 20,
                index: IndexMeta::flat(64),
                latency: &latency,
            })
        };
        // Resource-oblivious: the pick is identical at 1k and 1M free tokens.
        let tight = decide(1_000);
        let roomy = decide(1_000_000);
        assert_eq!(tight.config, roomy.config);
        assert!(!tight.fallback);
    }
}
