//! Joint configuration/scheduling: the best-fit selector (§4.3).
//!
//! Within the pruned space (where every configuration is presumed
//! high-quality), the scheduler picks the configuration with the **highest
//! memory requirement among those that fit** the currently free GPU memory,
//! keeping a 2% safety buffer. Configurations that do not fit are never
//! queued; if *nothing* in the pruned space fits, METIS falls back to a
//! cheaper configuration just outside the range: `map_rerank` when the query
//! needs no joint reasoning, otherwise `stuff`, each with as many chunks as
//! fit (§4.3 "What if none of the configurations fit in the GPU?").

use crate::config::{PrunedSpace, RagConfig};
use crate::controllers::Decision;
use crate::memory::{PlanDemand, PROMPT_OVERHEAD};

/// Resource snapshot and sizing constants for one decision.
#[derive(Clone, Copy, Debug)]
pub struct BestFitInputs {
    /// Free KV-cache tokens right now (from the engine allocator; the paper
    /// reads free GPU memory via pynvml).
    pub free_kv_tokens: u64,
    /// Tokens per retrieval chunk.
    pub chunk_size: u64,
    /// Query length in tokens.
    pub query_tokens: u64,
    /// Expected final-answer output tokens.
    pub expected_output: u64,
    /// Safety buffer fraction held back against OOM (paper: 2%).
    pub buffer_frac: f64,
}

impl BestFitInputs {
    /// Usable free tokens after the safety buffer.
    pub fn usable(&self) -> u64 {
        (self.free_kv_tokens as f64 * (1.0 - self.buffer_frac)).max(0.0) as u64
    }
}

/// Picks the best-fitting configuration from the pruned space.
///
/// `joint_required` steers the fallback path (it comes from the query
/// profile, which METIS already holds at this point).
pub fn choose_config(
    space: &PrunedSpace,
    joint_required: bool,
    inputs: &BestFitInputs,
) -> Decision {
    best_fit(space, joint_required, inputs, |_| true)
}

/// The one fit-and-rank loop: among the candidates `admit` accepts, the
/// first with the highest `total_tokens` whose `sched_tokens` fit
/// [`BestFitInputs::usable`]; when none does, the §4.3 fallback. An SLO
/// narrows the candidates through `admit`; it never ranks them.
pub(crate) fn best_fit(
    space: &PrunedSpace,
    joint_required: bool,
    inputs: &BestFitInputs,
    admit: impl Fn(&RagConfig) -> bool,
) -> Decision {
    let usable = inputs.usable();
    let mut best: Option<(u64, RagConfig)> = None;
    for cfg in space.candidates() {
        let demand = PlanDemand::estimate(
            &cfg,
            inputs.chunk_size,
            inputs.query_tokens,
            inputs.expected_output,
        );
        if demand.sched_tokens > usable || !admit(&cfg) {
            continue; // Would queue, or is filtered out; never picked (§4.3).
        }
        // For stuff, the whole prompt must fit; map-based methods only need
        // their streaming window of mappers (Fig. 8). Rank the fitting
        // configurations by total memory requirement; the first maximum wins.
        let better = match &best {
            Some((total, _)) => demand.total_tokens > *total,
            None => true,
        };
        if better {
            best = Some((demand.total_tokens, cfg));
        }
    }
    if let Some((_, config)) = best {
        return Decision {
            config,
            fallback: false,
        };
    }

    // Fallback: cheapest viable configuration just outside the range.
    let per_call_fixed = inputs.query_tokens + PROMPT_OVERHEAD + inputs.expected_output;
    if !joint_required {
        // map_rerank with as many chunks as fit (one call per chunk; each
        // call must fit individually, and we bound the count by how many
        // calls fit at once).
        let call = inputs.chunk_size + per_call_fixed;
        let k = (usable / call.max(1)).clamp(1, u64::from(space.num_chunks.1.max(1))) as u32;
        Decision {
            config: RagConfig::map_rerank(k),
            fallback: true,
        }
    } else {
        // stuff with as many chunks as fit in the free memory.
        let k = (usable.saturating_sub(per_call_fixed) / inputs.chunk_size.max(1)).max(1) as u32;
        let k = k.min(space.num_chunks.1.max(1));
        Decision {
            config: RagConfig::stuff(k),
            fallback: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisMethod;

    fn space() -> PrunedSpace {
        PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (5, 10),
            intermediate_length: (40, 120),
        }
    }

    fn inputs(free: u64) -> BestFitInputs {
        BestFitInputs {
            free_kv_tokens: free,
            chunk_size: 1_000,
            query_tokens: 40,
            expected_output: 48,
            buffer_frac: 0.02,
        }
    }

    #[test]
    fn ample_memory_picks_most_expensive_config() {
        let c = choose_config(&space(), true, &inputs(1_000_000));
        assert!(!c.fallback);
        // Highest total demand: map_reduce with max chunks and max length.
        assert_eq!(c.config.synthesis, SynthesisMethod::MapReduce);
        assert_eq!(c.config.num_chunks, 10);
        assert_eq!(c.config.intermediate_length, 120);
    }

    #[test]
    fn stuff_never_exceeds_free_memory() {
        // Free memory fits stuff(6) but not stuff(7):
        // stuff(k) total = k*1000 + 40 + 32 + 48 = k*1000 + 120.
        let only_stuff = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff],
            ..space()
        };
        let free = (7_120.0 / 0.98) as u64 - 100; // usable ≈ 6.9k < 7120.
        let c = choose_config(&only_stuff, true, &inputs(free));
        assert!(!c.fallback);
        assert_eq!(c.config.num_chunks, 6, "chose {:?}", c.config);
    }

    #[test]
    fn fig8_low_memory_prefers_map_reduce_over_stuff() {
        // Free memory holds a streaming window of mappers but not the
        // 10-chunk stuff prompt: the joint decision switches methods instead
        // of queueing (Fig. 8).
        let c = choose_config(&space(), true, &inputs(5_200));
        assert!(!c.fallback, "fallback fired: {:?}", c.config);
        assert_eq!(c.config.synthesis, SynthesisMethod::MapReduce);
        // And it still never picks something whose scheduling footprint
        // exceeds free memory: a window of its mappers fits.
        assert!(c.config.num_chunks >= 4);
    }

    #[test]
    fn oom_fallback_respects_joint_requirement() {
        // Nothing fits: a single mapper needs ≥ 1120 tokens.
        let c_no_joint = choose_config(&space(), false, &inputs(900));
        assert!(c_no_joint.fallback);
        assert_eq!(c_no_joint.config.synthesis, SynthesisMethod::MapRerank);
        assert_eq!(c_no_joint.config.num_chunks, 1);

        let c_joint = choose_config(&space(), true, &inputs(900));
        assert!(c_joint.fallback);
        assert_eq!(c_joint.config.synthesis, SynthesisMethod::Stuff);
        assert_eq!(c_joint.config.num_chunks, 1);
    }

    #[test]
    fn fallback_chunk_count_scales_with_memory() {
        let mr_only = PrunedSpace {
            methods: vec![SynthesisMethod::MapReduce],
            num_chunks: (20, 30),
            intermediate_length: (200, 300),
        };
        // One mapper = 1000 + 40 + 32 + 200..300; give room for none (the
        // mapper needs its summary output too) by shrinking memory.
        let c = choose_config(&mr_only, false, &inputs(1_100));
        assert!(c.fallback);
        assert!(c.config.num_chunks >= 1);
    }

    #[test]
    fn buffer_is_respected() {
        let i = inputs(10_000);
        assert_eq!(i.usable(), 9_800);
    }
}
