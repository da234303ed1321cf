//! Baseline configuration policies (§7.1).
//!
//! * **vLLM** and **Parrot\*** serve *fixed* configurations; the evaluation
//!   sweeps a grid of fixed configurations ([`fixed_config_grid`]) and picks
//!   the Pareto-relevant ones.
//! * **AdaptiveRAG\*** adapts per query but maximizes F1 with no regard for
//!   resource cost: it takes the most expensive configuration in the pruned
//!   space ([`adaptive_rag_pick`]).
//! * [`median_pick`] is the Fig. 12 ablation: use the profiler's pruned
//!   space but take the median value of each knob, ignoring resources.

use crate::config::{PrunedSpace, RagConfig, SynthesisMethod};

/// The grid of fixed configurations the fixed-config baselines sweep.
///
/// Covers all three methods across the chunk range with representative
/// intermediate lengths — the kind of hand-picked static menu the paper
/// says existing RAG systems choose from offline.
pub fn fixed_config_grid() -> Vec<RagConfig> {
    let mut grid = Vec::new();
    for k in [1, 2, 4, 8, 12, 16, 24, 35] {
        grid.push(RagConfig::map_rerank(k));
        grid.push(RagConfig::stuff(k));
        for l in [30, 100, 200] {
            grid.push(RagConfig::map_reduce(k, l));
        }
    }
    grid
}

/// AdaptiveRAG\*'s choice: per-query, F1-maximizing, resource-oblivious
/// (§7.1: "choose the configuration which maximizes the F1-score, without
/// considering the system resource cost"). Complexity only steers *which*
/// workflow is used; within it, AdaptiveRAG\* buys all the quality it can —
/// deep retrieval and long summaries — which is exactly why it inflates
/// serving latency.
pub(crate) fn adaptive_rag_pick(space: &PrunedSpace) -> RagConfig {
    if space.methods.contains(&SynthesisMethod::MapReduce)
        || space.methods.contains(&SynthesisMethod::Stuff)
    {
        // Reasoning workflow: retrieve beyond the profile-implied depth and
        // use generous summaries (quality-first, delay-oblivious).
        RagConfig::map_reduce(
            (space.num_chunks.1 + 4).min(30),
            space.intermediate_length.1.max(200),
        )
    } else {
        // Simple lookup workflow: per-chunk answering, but still deep.
        RagConfig::map_rerank(space.num_chunks.1.max(8))
    }
}

/// The Fig. 12 "profiler + median" ablation: median knob values from the
/// pruned space, no resource awareness. When both reasoning methods are in
/// the space, the quality-robust `map_reduce` is the representative choice.
pub(crate) fn median_pick(space: &PrunedSpace) -> RagConfig {
    let method = if space.methods.contains(&SynthesisMethod::MapReduce) {
        SynthesisMethod::MapReduce
    } else {
        *space.methods.first().unwrap_or(&SynthesisMethod::Stuff)
    };
    RagConfig {
        num_chunks: (space.num_chunks.0 + space.num_chunks.1) / 2,
        synthesis: method,
        intermediate_length: (space.intermediate_length.0 + space.intermediate_length.1) / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(methods: Vec<SynthesisMethod>) -> PrunedSpace {
        PrunedSpace {
            methods,
            num_chunks: (4, 12),
            intermediate_length: (30, 90),
        }
    }

    #[test]
    fn grid_covers_all_methods() {
        let grid = fixed_config_grid();
        for m in SynthesisMethod::all() {
            assert!(grid.iter().any(|c| c.synthesis == m));
        }
        assert!(grid.len() >= 30);
    }

    #[test]
    fn adaptive_rag_takes_the_quality_maximizing_config() {
        let pick = adaptive_rag_pick(&space(vec![
            SynthesisMethod::Stuff,
            SynthesisMethod::MapReduce,
        ]));
        assert_eq!(pick.synthesis, SynthesisMethod::MapReduce);
        // Resource-oblivious: at least as deep as the pruned top, pushed to
        // the quality-saturating end of the full space.
        assert!(pick.num_chunks >= 12);
        assert!(pick.intermediate_length >= 200);
    }

    #[test]
    fn adaptive_rag_respects_method_availability() {
        let pick = adaptive_rag_pick(&space(vec![SynthesisMethod::MapRerank]));
        assert_eq!(pick.synthesis, SynthesisMethod::MapRerank);
    }

    #[test]
    fn median_takes_knob_midpoints() {
        let pick = median_pick(&space(vec![
            SynthesisMethod::Stuff,
            SynthesisMethod::MapReduce,
        ]));
        assert_eq!(pick.synthesis, SynthesisMethod::MapReduce);
        assert_eq!(pick.num_chunks, 8);
        assert_eq!(pick.intermediate_length, 60);
    }
}
