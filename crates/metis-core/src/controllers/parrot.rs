//! The Parrot\* baseline controller: fixed configuration + gang scheduling.

use metis_datasets::QuerySpec;
use metis_engine::SchedPolicy;
use metis_vectordb::DbMetadata;

use crate::config::RagConfig;
use crate::controllers::{ConfigController, Decision, DecisionContext, ProfileOutcome};

/// Parrot\* (§7.1): the same static configuration as vLLM-fixed, but with
/// application-aware gang scheduling — a query's map calls are admitted
/// together and its reduce call jumps the queue, the DAG awareness Parrot
/// contributes without any configuration adaptation.
pub(crate) struct ParrotController {
    config: RagConfig,
}

impl ParrotController {
    /// Builds the controller around its static configuration.
    pub(crate) fn new(config: RagConfig) -> Self {
        Self { config }
    }
}

impl ConfigController for ParrotController {
    fn name(&self) -> &'static str {
        "parrot"
    }

    fn sched_policy(&self) -> SchedPolicy {
        SchedPolicy::GangByGroup
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

    #[test]
    fn differs_from_fixed_only_in_scheduling() {
        let c = ParrotController::new(RagConfig::map_reduce(8, 100));
        assert_eq!(c.sched_policy(), SchedPolicy::GangByGroup);
        assert_eq!(c.config, RagConfig::map_reduce(8, 100));
    }
}
