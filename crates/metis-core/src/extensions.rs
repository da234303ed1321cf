//! Extended configuration knobs beyond the paper's core three (§4.2).
//!
//! "Algorithm 1 is central to METIS' design ... and this is extendable to
//! other RAG configurations. For instance, a particular RAG pipeline might
//! use an external re-ranker, query re-writer or perform an external
//! web-search along with database retrieval. The mapping algorithm can map
//! the profiling LLM's output and be used to guide such decisions."
//!
//! This module implements that extension point:
//!
//! * [`ExtKnobs`] — the extended knob set (re-ranker on/off, query-rewrite
//!   on/off) with its rule-based mapping from the query profile.
//! * [`rerank_hits`] — a lightweight cross-encoder-style re-ranker over
//!   retrieved chunks: re-scores hits by query-token overlap (exact lexical
//!   evidence), which recovers weakly-embedded fact chunks at the price of a
//!   small latency adder.
//! * [`rewrite_query`] — a query re-writer that expands the query with its
//!   own highest-signal tokens duplicated (a pseudo-relevance-feedback
//!   expansion), improving retrieval of weakly-mentioned facts for complex
//!   queries.

#![expect(
    clippy::disallowed_types,
    reason = "token-count maps here are only looked up by key, never iterated"
)]

use std::collections::HashMap;

use metis_datasets::Complexity;
use metis_llm::Nanos;
use metis_profiler::EstimatedProfile;
use metis_text::TokenId;
use metis_vectordb::RetrievalResult;

/// Extended knobs selected per query by the extended mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExtKnobs {
    /// Re-rank retrieved chunks with a lexical cross-scorer before synthesis.
    pub rerank: bool,
    /// Rewrite (expand) the query before retrieval.
    pub rewrite: bool,
}

impl ExtKnobs {
    /// Extended rule-based mapping (the §4.2 pattern): complex queries that
    /// need many pieces benefit from the re-ranker (their marginal evidence
    /// ranks low), and high-complexity queries benefit from query expansion.
    pub fn map_profile(profile: &EstimatedProfile) -> Self {
        Self {
            rerank: profile.pieces >= 4,
            rewrite: profile.complexity == Complexity::High && profile.joint,
        }
    }

    /// Latency adder of the enabled knobs (the re-ranker scores `k` chunks;
    /// the re-writer is one cheap LLM-free expansion).
    pub fn latency_nanos(&self, k: usize) -> Nanos {
        let mut total: Nanos = 0;
        if self.rerank {
            // ~1.5 ms per chunk pair-score (a small cross-encoder).
            total += 1_500_000 * k as Nanos;
        }
        if self.rewrite {
            total += 2_000_000;
        }
        total
    }
}

/// Re-scores retrieved chunks by exact query-token overlap and stably
/// re-orders them (highest overlap first). Embedding similarity is kept as
/// the tie-breaker via the stable sort.
pub fn rerank_hits(query: &[TokenId], hits: Vec<RetrievalResult>) -> Vec<RetrievalResult> {
    let mut qcount: HashMap<TokenId, u32> = HashMap::new();
    for &t in query {
        *qcount.entry(t).or_insert(0) += 1;
    }
    let score = |r: &RetrievalResult| -> u32 {
        let mut remaining = qcount.clone();
        let mut s = 0;
        for t in r.text.tokens() {
            if let Some(c) = remaining.get_mut(t) {
                if *c > 0 {
                    *c -= 1;
                    s += 1;
                }
            }
        }
        s
    };
    let mut scored: Vec<(u32, RetrievalResult)> =
        hits.into_iter().map(|r| (score(&r), r)).collect();
    scored.sort_by_key(|(s, _)| std::cmp::Reverse(*s));
    scored.into_iter().map(|(_, r)| r).collect()
}

/// Expands the query by doubling its rarest tokens (those appearing exactly
/// once — in our corpus model these are the subject words), sharpening the
/// retrieval signal towards the entities the query names.
pub fn rewrite_query(query: &[TokenId]) -> Vec<TokenId> {
    let mut counts: HashMap<TokenId, u32> = HashMap::new();
    for &t in query {
        *counts.entry(t).or_insert(0) += 1;
    }
    let mut out = query.to_vec();
    for &t in query {
        if counts.get(&t) == Some(&1) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_datasets::Complexity;
    use metis_text::{AnnotatedText, ChunkId};
    use metis_vectordb::Hit;

    fn profile(pieces: u32, complexity: Complexity, joint: bool) -> EstimatedProfile {
        EstimatedProfile {
            complexity,
            joint,
            pieces,
            summary_range: (20, 80),
            confidence: 0.95,
        }
    }

    fn result(id: u32, tokens: &[u32]) -> RetrievalResult {
        let mut text = AnnotatedText::new();
        text.push_tokens(&tokens.iter().map(|&t| TokenId(t)).collect::<Vec<_>>());
        RetrievalResult {
            hit: Hit {
                chunk: ChunkId(id),
                distance: id as f32,
            },
            text,
        }
    }

    #[test]
    fn mapping_enables_knobs_for_hard_queries() {
        let easy = ExtKnobs::map_profile(&profile(1, Complexity::Low, false));
        assert_eq!(easy, ExtKnobs::default());
        let hard = ExtKnobs::map_profile(&profile(6, Complexity::High, true));
        assert!(hard.rerank && hard.rewrite);
    }

    #[test]
    fn reranker_promotes_lexical_matches() {
        let query: Vec<TokenId> = [1, 2, 3].iter().map(|&t| TokenId(t)).collect();
        // Chunk 9 has all three query tokens but worse embedding distance.
        let hits = vec![result(0, &[7, 8, 9]), result(9, &[1, 2, 3, 4])];
        let reranked = rerank_hits(&query, hits);
        assert_eq!(reranked[0].hit.chunk, ChunkId(9));
    }

    #[test]
    fn reranker_respects_multiplicity() {
        let query: Vec<TokenId> = [5, 5].iter().map(|&t| TokenId(t)).collect();
        let hits = vec![result(0, &[5]), result(1, &[5, 5])];
        let reranked = rerank_hits(&query, hits);
        assert_eq!(reranked[0].hit.chunk, ChunkId(1));
    }

    #[test]
    fn rewrite_doubles_unique_tokens_only() {
        let query: Vec<TokenId> = [1, 2, 2, 3].iter().map(|&t| TokenId(t)).collect();
        let rewritten = rewrite_query(&query);
        // 1 and 3 doubled; 2 left alone.
        let count = |t: u32| rewritten.iter().filter(|x| x.0 == t).count();
        assert_eq!(count(1), 2);
        assert_eq!(count(2), 2);
        assert_eq!(count(3), 2);
    }

    #[test]
    fn knob_latency_scales_with_chunks() {
        let knobs = ExtKnobs {
            rerank: true,
            rewrite: true,
        };
        assert!(knobs.latency_nanos(20) > knobs.latency_nanos(5));
        assert_eq!(ExtKnobs::default().latency_nanos(10), 0);
    }
}
