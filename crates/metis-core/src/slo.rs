//! SLO-constrained configuration selection.
//!
//! §4.3 notes that the loose decoupling of configuration from scheduling
//! "also allows SLO-based constraints on RAG queries if certain queries have
//! strict budgets on their generation latency". This module implements that
//! extension: a per-query latency budget is a candidate filter on the one
//! best-fit loop. Best-fit admits only configurations whose *estimated*
//! execution time fits the budget, and ranks those exactly as it does without
//! an SLO, ties going to the first maximum. A budget that no candidate meets
//! gives the cheapest-estimate candidate, flagged as a fallback.
//!
//! Estimation uses the same analytical latency model the engine runs on, so
//! the filter is consistent with what the query will actually experience on
//! an unloaded GPU (queueing can still push a query past its budget — an SLO
//! here is a budget the scheduler respects, not a hard real-time guarantee).

use metis_datasets::QuerySpec;
use metis_engine::Priority;
use metis_llm::{nanos_to_secs, LatencyModel};

use crate::bestfit::{best_fit, BestFitInputs};
use crate::config::{PrunedSpace, RagConfig, SynthesisMethod};
use crate::controllers::Decision;
use crate::memory::PROMPT_OVERHEAD;

/// A per-query latency budget in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySlo(pub f64);

impl LatencySlo {
    /// Returns `true` when `estimate_secs` fits the budget.
    pub fn admits(&self, estimate_secs: f64) -> bool {
        estimate_secs <= self.0
    }
}

/// Context-token boundary below which a query is an interactive short
/// answer (Table 1: Squad-scale inputs).
const INTERACTIVE_MAX_CONTEXT: usize = 2_048;
/// Context-token boundary above which a query is document-scale batch work
/// (Table 1: QMSUM-scale inputs).
const STANDARD_MAX_CONTEXT: usize = 8_192;

/// A query's SLO tier: the latency class its user contract puts it in,
/// which the serving stack turns into a scheduling [`Priority`].
///
/// Tiers follow the Table 1 input scales: short single-hop QA is what a
/// user is actively waiting on; document-level QA sits in the middle; long
/// summarization is throughput work that tolerates queueing. A run opts in
/// via `--priority-from-slo` (otherwise every query serves at
/// [`Priority::Standard`], the pre-priority behavior).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SloTier {
    /// Tight budget: a user is waiting on this answer.
    Interactive,
    /// Ordinary request-response traffic.
    Standard,
    /// Long-running summarization/analysis; latency-tolerant.
    Batch,
}

impl SloTier {
    /// Classifies a query by its source-document scale.
    pub fn for_query(query: &QuerySpec) -> Self {
        if query.context_tokens <= INTERACTIVE_MAX_CONTEXT {
            SloTier::Interactive
        } else if query.context_tokens <= STANDARD_MAX_CONTEXT {
            SloTier::Standard
        } else {
            SloTier::Batch
        }
    }

    /// The engine scheduling class this tier maps to.
    pub fn priority(self) -> Priority {
        match self {
            SloTier::Interactive => Priority::Interactive,
            SloTier::Standard => Priority::Standard,
            SloTier::Batch => Priority::Batch,
        }
    }

    /// Short stable name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            SloTier::Interactive => "interactive",
            SloTier::Standard => "standard",
            SloTier::Batch => "batch",
        }
    }
}

/// Estimates the unloaded execution time of `config` in seconds: chunked
/// prefill of all calls plus sequential decode of the longest call chain
/// (maps run batched; the reduce call follows them).
pub fn estimate_exec_secs(
    config: &RagConfig,
    latency: &LatencyModel,
    chunk_size: u64,
    query_tokens: u64,
    expected_output: u64,
) -> f64 {
    let k = u64::from(config.num_chunks.max(1));
    let per_call_prompt = chunk_size + query_tokens + PROMPT_OVERHEAD;
    match config.synthesis {
        SynthesisMethod::Stuff => {
            let prompt = k * chunk_size + query_tokens + PROMPT_OVERHEAD;
            let prefill = latency.prefill_estimate(prompt);
            let decode = latency.decode_estimate(expected_output, prompt);
            nanos_to_secs(prefill + decode)
        }
        SynthesisMethod::MapRerank => {
            let prefill = latency.prefill_estimate(k * per_call_prompt);
            let decode = latency.decode_estimate(expected_output, k * per_call_prompt);
            nanos_to_secs(prefill + decode)
        }
        SynthesisMethod::MapReduce => {
            let ilen = u64::from(config.intermediate_length.max(1));
            let summary_est = (ilen / 2).max(8);
            let map_prefill = latency.prefill_estimate(k * per_call_prompt);
            let map_decode = latency.decode_estimate(summary_est, k * per_call_prompt);
            let reduce_prompt = k * summary_est + query_tokens + PROMPT_OVERHEAD;
            let reduce = latency.prefill_estimate(reduce_prompt)
                + latency.decode_estimate(expected_output, reduce_prompt);
            nanos_to_secs(map_prefill + map_decode + reduce)
        }
    }
}

/// [`choose_config`](crate::choose_config) under a latency SLO: the budget
/// filters the candidates of the one best-fit loop, which ranks the rest as
/// it always does (the first of equal `total_tokens` wins). When *no*
/// candidate's estimate meets the budget, the cheapest estimated candidate
/// is selected and flagged as a fallback (best effort — the SLO was
/// infeasible for this query).
pub fn choose_config_with_slo(
    space: &PrunedSpace,
    joint_required: bool,
    inputs: &BestFitInputs,
    latency: &LatencyModel,
    slo: LatencySlo,
) -> Decision {
    let estimate = |cfg: &RagConfig| {
        estimate_exec_secs(
            cfg,
            latency,
            inputs.chunk_size,
            inputs.query_tokens,
            inputs.expected_output,
        )
    };
    let candidates = space.candidates();
    if candidates.iter().any(|c| slo.admits(estimate(c))) {
        return best_fit(space, joint_required, inputs, |c| slo.admits(estimate(c)));
    }
    let cheapest = candidates
        .into_iter()
        .min_by(|a, b| estimate(a).total_cmp(&estimate(b)))
        .expect("non-empty candidates");
    Decision {
        config: cheapest,
        fallback: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestfit::choose_config;
    use crate::memory::PlanDemand;
    use metis_llm::{GpuCluster, ModelSpec};

    fn latency() -> LatencyModel {
        LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40())
    }

    fn space() -> PrunedSpace {
        PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (4, 12),
            intermediate_length: (40, 120),
        }
    }

    fn inputs() -> BestFitInputs {
        BestFitInputs {
            free_kv_tokens: 1_000_000,
            chunk_size: 1_000,
            query_tokens: 40,
            expected_output: 48,
            buffer_frac: 0.02,
        }
    }

    #[test]
    fn slo_tiers_track_query_scale() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::Musique, 24, 3);
        #[expect(clippy::disallowed_types, reason = "membership and len() only")]
        let mut seen = std::collections::HashSet::new();
        for q in &d.queries {
            let tier = SloTier::for_query(q);
            seen.insert(tier.name());
            // The mapping is monotone in context size.
            if q.context_tokens <= 2_048 {
                assert_eq!(tier, SloTier::Interactive);
            } else if q.context_tokens > 8_192 {
                assert_eq!(tier, SloTier::Batch);
            }
            assert_eq!(tier.priority().name(), tier.name());
        }
        assert!(
            seen.len() >= 2,
            "Musique (1K–5K inputs) should mix tiers, got {seen:?}"
        );
    }

    #[test]
    fn estimates_are_monotone_in_chunks() {
        let l = latency();
        let small = estimate_exec_secs(&RagConfig::stuff(4), &l, 1_000, 40, 48);
        let big = estimate_exec_secs(&RagConfig::stuff(12), &l, 1_000, 40, 48);
        assert!(big > small);
        assert!(small > 0.0);
    }

    #[test]
    fn generous_slo_matches_plain_best_fit() {
        let plain = choose_config(&space(), true, &inputs());
        let slo = choose_config_with_slo(&space(), true, &inputs(), &latency(), LatencySlo(60.0));
        assert_eq!(plain.config, slo.config);
    }

    #[test]
    fn tight_slo_shrinks_the_configuration() {
        let l = latency();
        let generous = choose_config_with_slo(&space(), true, &inputs(), &l, LatencySlo(60.0));
        let tight = choose_config_with_slo(&space(), true, &inputs(), &l, LatencySlo(1.35));
        let e_gen = estimate_exec_secs(&generous.config, &l, 1_000, 40, 48);
        let e_tight = estimate_exec_secs(&tight.config, &l, 1_000, 40, 48);
        assert!(e_tight < e_gen, "{e_tight} !< {e_gen}");
        assert!(
            e_tight <= 1.35,
            "budget violated: {e_tight} by {:?}",
            tight.config
        );
    }

    #[test]
    fn infeasible_slo_is_best_effort_cheapest() {
        let l = latency();
        let chosen = choose_config_with_slo(&space(), true, &inputs(), &l, LatencySlo(0.001));
        assert!(chosen.fallback, "infeasible SLO must flag fallback");
        // It picked the cheapest estimated configuration in the space.
        let e = estimate_exec_secs(&chosen.config, &l, 1_000, 40, 48);
        for c in space().candidates() {
            assert!(
                e <= estimate_exec_secs(&c, &l, 1_000, 40, 48) + 1e-9,
                "{:?} cheaper than chosen {:?}",
                c,
                chosen.config
            );
        }
    }

    #[test]
    fn slo_respects_memory_too() {
        let l = latency();
        let tight_mem = BestFitInputs {
            free_kv_tokens: 6_000,
            ..inputs()
        };
        let chosen = choose_config_with_slo(&space(), true, &tight_mem, &l, LatencySlo(5.0));
        let d = PlanDemand::estimate(&chosen.config, 1_000, 40, 48);
        if !chosen.fallback {
            assert!(d.sched_tokens <= tight_mem.usable());
        }
    }
}
