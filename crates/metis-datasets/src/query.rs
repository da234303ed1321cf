//! Query specifications.

use metis_llm::QueryTruth;
use metis_text::TokenId;

use crate::profile::TrueProfile;

/// Identifier of a query within one dataset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QueryId(pub u64);

/// A fully specified synthetic query.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The query's id.
    pub id: QueryId,
    /// Query text tokens (subject + topic + question words) — the retrieval
    /// key and the profiler's input.
    pub tokens: Vec<TokenId>,
    /// Evidence ground truth (needed facts, derived conclusions, gold
    /// answer).
    pub truth: QueryTruth,
    /// True profile (what a perfect profiler would output).
    pub profile: TrueProfile,
    /// Length of the query's source document in tokens (Table 1 "Input").
    pub context_tokens: usize,
}

impl QuerySpec {
    /// Gold answer token bag (convenience passthrough).
    pub fn gold_answer(&self) -> Vec<TokenId> {
        self.truth.gold_answer()
    }
}
