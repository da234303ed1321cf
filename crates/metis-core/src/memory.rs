//! KV-cache demand estimation for RAG configurations (§4.3).
//!
//! The joint scheduler must know, *before* executing a configuration, how
//! much GPU memory it will need: "the memory required (e.g., the KV cache
//! size) is measured from the input token length, parameters of the serving
//! model and the quantization". Demand is expressed in KV *tokens* (the
//! engine's allocator unit); callers convert to bytes with the model's
//! `kv_bytes_per_token` when needed.

use crate::config::{RagConfig, SynthesisMethod};

/// Instruction/template tokens added to every LLM call's prompt.
pub(crate) const PROMPT_OVERHEAD: u64 = 32;

/// Mappers the scheduler plans to keep co-resident when a map-based plan
/// streams through constrained memory (Fig. 8: "METIS can start putting the
/// mappers which fit in memory into the current running_batch"). Prefill is
/// throughput-bound, so a small window loses almost no latency vs running
/// all mappers at once.
const STREAM_WINDOW: u64 = 4;

/// Fraction of a map-based plan's mappers assumed co-resident when memory is
/// moderately contended: the engine admits mappers eagerly, so a realistic
/// scheduling footprint is half the mappers (but at least the stream
/// window).
fn resident_maps(k: u64) -> u64 {
    STREAM_WINDOW.max(k / 2).min(k)
}

/// Estimated KV demand of one configuration's synthesis plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanDemand {
    /// KV tokens if every call of the plan were resident at once — the
    /// ranking metric ("highest memory requirement", §4.3).
    pub total_tokens: u64,
    /// Smallest unit that must fit for the plan to *start* without queueing:
    /// the whole prompt for `stuff`, a single map call for the map-based
    /// methods (Fig. 8's insight — mappers can trickle into the batch).
    pub min_tokens: u64,
    /// What must be co-resident for the plan to run at full speed: the whole
    /// prompt for `stuff`, a `STREAM_WINDOW` of mappers for the map-based
    /// methods. This is the §4.3 fit criterion.
    pub sched_tokens: u64,
}

impl PlanDemand {
    /// Estimates demand for `config` given the database chunk size, the
    /// query length, and an expected final-answer output length.
    pub fn estimate(
        config: &RagConfig,
        chunk_size: u64,
        query_tokens: u64,
        expected_output: u64,
    ) -> Self {
        let k = u64::from(config.num_chunks.max(1));
        match config.synthesis {
            SynthesisMethod::Stuff => {
                let prompt = k * chunk_size + query_tokens + PROMPT_OVERHEAD;
                let total = prompt + expected_output;
                PlanDemand {
                    total_tokens: total,
                    min_tokens: total,
                    sched_tokens: total,
                }
            }
            SynthesisMethod::MapRerank => {
                let call = chunk_size + query_tokens + PROMPT_OVERHEAD + expected_output;
                PlanDemand {
                    total_tokens: k * call,
                    min_tokens: call,
                    sched_tokens: call * resident_maps(k),
                }
            }
            SynthesisMethod::MapReduce => {
                // A map call reads one chunk and writes up to an
                // intermediate_length summary; in practice summaries average
                // about half the budget (facts + carried-over words).
                let ilen = u64::from(config.intermediate_length.max(1));
                let summary_est = (ilen / 2).max(8);
                let map_call = chunk_size + query_tokens + PROMPT_OVERHEAD + ilen;
                let reduce = k * summary_est + query_tokens + PROMPT_OVERHEAD + expected_output;
                PlanDemand {
                    total_tokens: k * map_call + reduce,
                    min_tokens: map_call.max(reduce),
                    sched_tokens: (map_call * resident_maps(k)).max(reduce),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuff_min_equals_total() {
        let d = PlanDemand::estimate(&RagConfig::stuff(10), 512, 40, 48);
        assert_eq!(d.min_tokens, d.total_tokens);
        assert_eq!(d.total_tokens, 10 * 512 + 40 + PROMPT_OVERHEAD + 48);
    }

    #[test]
    fn map_methods_start_with_one_call() {
        let d = PlanDemand::estimate(&RagConfig::map_rerank(10), 512, 40, 48);
        assert_eq!(d.min_tokens, 512 + 40 + PROMPT_OVERHEAD + 48);
        assert_eq!(d.total_tokens, 10 * d.min_tokens);
    }

    #[test]
    fn fig8_asymmetry_stuff_needs_more_upfront_than_map_reduce() {
        // The Fig. 8 scenario: 20 chunks. stuff must fit the whole 20-chunk
        // prompt at once; map_reduce starts as soon as one mapper fits.
        let stuff = PlanDemand::estimate(&RagConfig::stuff(20), 1_000, 40, 48);
        let mr = PlanDemand::estimate(&RagConfig::map_reduce(20, 100), 1_000, 40, 48);
        assert!(mr.min_tokens < stuff.min_tokens / 10);
        // While map_reduce's *total* work is larger (it is the expensive,
        // high-quality configuration).
        assert!(mr.total_tokens > stuff.total_tokens);
    }

    #[test]
    fn demand_is_monotone_in_chunks_and_length() {
        let base = PlanDemand::estimate(&RagConfig::map_reduce(5, 50), 512, 40, 48);
        let more_chunks = PlanDemand::estimate(&RagConfig::map_reduce(8, 50), 512, 40, 48);
        let longer = PlanDemand::estimate(&RagConfig::map_reduce(5, 200), 512, 40, 48);
        assert!(more_chunks.total_tokens > base.total_tokens);
        assert!(longer.total_tokens > base.total_tokens);
    }

    #[test]
    fn zero_chunks_clamps_to_one() {
        let d = PlanDemand::estimate(&RagConfig::stuff(0), 512, 40, 48);
        assert_eq!(d.total_tokens, 512 + 40 + PROMPT_OVERHEAD + 48);
    }
}
