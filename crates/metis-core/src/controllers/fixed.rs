//! The fixed-configuration controller behind vLLM-fixed and Parrot\*.

use metis_datasets::QuerySpec;
use metis_engine::SchedPolicy;
use metis_vectordb::DbMetadata;

use crate::config::RagConfig;
use crate::controllers::{ConfigController, Decision, DecisionContext, ProfileOutcome};

/// One static configuration for every query (§7.1): no profiler, no
/// adaptation — the static menu existing RAG systems pick from offline.
/// Under [`SchedPolicy::Fcfs`] it is vLLM-fixed; under
/// [`SchedPolicy::GangByGroup`] it is Parrot\*, whose application-aware
/// gang scheduling admits a query's map calls together and lets its reduce
/// call jump the queue.
pub(crate) struct FixedController {
    pub(super) config: RagConfig,
    pub(super) sched: SchedPolicy,
}

impl ConfigController for FixedController {
    fn sched_policy(&self) -> SchedPolicy {
        self.sched
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

    #[test]
    fn always_serves_the_static_config() {
        let mut c = FixedController {
            config: RagConfig::stuff(8),
            sched: SchedPolicy::Fcfs,
        };
        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        for free in [0u64, 1_000, 1_000_000] {
            let d = c.decide(&DecisionContext {
                space: None,
                estimate: None,
                free_kv_tokens: free,
                preemption_pressure: 0.0,
                chunk_size: 512,
                query_tokens: 30,
                latency: &latency,
            });
            assert_eq!(d.config, RagConfig::stuff(8));
            assert!(!d.fallback);
        }
        assert!(!c.feedback_due());
    }
}
