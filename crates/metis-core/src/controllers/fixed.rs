//! The vLLM-fixed baseline controller: one static configuration, FCFS.

use metis_datasets::QuerySpec;
use metis_engine::SchedPolicy;
use metis_vectordb::DbMetadata;

use crate::config::RagConfig;
use crate::controllers::{ConfigController, Decision, DecisionContext, ProfileOutcome};

/// vLLM with one fixed configuration for every query (§7.1): no profiler,
/// no adaptation, plain first-come-first-served admission — the static
/// menu existing RAG systems pick from offline.
pub(crate) struct FixedController {
    config: RagConfig,
}

impl FixedController {
    /// Builds the controller around its static configuration.
    pub(crate) fn new(config: RagConfig) -> Self {
        Self { config }
    }
}

impl ConfigController for FixedController {
    fn name(&self) -> &'static str {
        "vllm-fixed"
    }

    fn sched_policy(&self) -> SchedPolicy {
        SchedPolicy::Fcfs
    }

    fn on_profile(&mut self, _: &QuerySpec, _: &DbMetadata, _: u64) -> ProfileOutcome {
        ProfileOutcome::skipped()
    }

    fn decide(&mut self, _: &DecisionContext<'_>) -> Decision {
        Decision {
            config: self.config,
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
    fn always_serves_the_static_config() {
        let mut c = FixedController::new(RagConfig::stuff(8));
        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        for free in [0u64, 1_000, 1_000_000] {
            let d = c.decide(&DecisionContext {
                space: None,
                estimate: None,
                free_kv_tokens: free,
                preemption_pressure: 0.0,
                chunk_size: 512,
                query_tokens: 30,
                index: IndexMeta::flat(64),
                latency: &latency,
            });
            assert_eq!(d.config, RagConfig::stuff(8));
            assert!(!d.fallback);
        }
        assert!(!c.feedback_due());
    }
}
