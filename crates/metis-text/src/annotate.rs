//! Fact annotations over token streams.
//!
//! The synthetic corpus plants *facts* — short token phrases that answer (or
//! partially answer) queries — inside otherwise irrelevant text. Annotations
//! travel with the tokens through chunking, retrieval, and prompt assembly so
//! that the LLM generation model (`metis-llm`) can decide which facts an
//! inference call can extract. This mirrors how the paper's quality results
//! are determined by whether the needed evidence is present in the context.

use std::sync::Arc;

use crate::tokenizer::TokenId;

/// Globally unique identifier of a planted fact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u64);

/// A fact occurrence inside a token stream: fact `fact` occupies
/// `start..start + len` in the stream's token vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FactSpan {
    /// Which fact this span carries.
    pub fact: FactId,
    /// Token offset of the span start.
    pub start: usize,
    /// Number of tokens in the span.
    pub len: usize,
}

impl FactSpan {
    /// End offset (exclusive) of the span.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A token sequence together with the fact spans it contains.
///
/// Both buffers sit behind one shared pointer, so `clone` is O(1): one
/// reference-count bump, no copy of the text. Mutation copies on write: a
/// `push_*` on a value another clone still shares first copies both
/// buffers, and the other holders never see the change.
///
/// # Examples
///
/// ```
/// use metis_text::{AnnotatedText, FactId, FactSpan, TokenId};
///
/// let mut text = AnnotatedText::new();
/// text.push_tokens(&[TokenId(1), TokenId(2)]);
/// text.push_fact(FactId(7), &[TokenId(3), TokenId(4)]);
/// assert_eq!(text.len(), 4);
/// assert_eq!(text.spans()[0], FactSpan { fact: FactId(7), start: 2, len: 2 });
/// ```
#[derive(Clone, Debug, Default)]
pub struct AnnotatedText(Arc<Parts>);

/// What the clones of one [`AnnotatedText`] share.
#[derive(Clone, Debug, Default)]
struct Parts {
    tokens: Vec<TokenId>,
    spans: Vec<FactSpan>,
}

impl AnnotatedText {
    /// Creates an empty annotated text.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends plain (fact-free) tokens.
    pub fn push_tokens(&mut self, tokens: &[TokenId]) {
        Arc::make_mut(&mut self.0).tokens.extend_from_slice(tokens);
    }

    /// Appends a fact phrase, recording its span.
    pub fn push_fact(&mut self, fact: FactId, phrase: &[TokenId]) {
        let parts = Arc::make_mut(&mut self.0);
        parts.spans.push(FactSpan {
            fact,
            start: parts.tokens.len(),
            len: phrase.len(),
        });
        parts.tokens.extend_from_slice(phrase);
    }

    /// Appends another annotated text, shifting its spans.
    pub fn push_text(&mut self, other: &AnnotatedText) {
        let parts = Arc::make_mut(&mut self.0);
        let offset = parts.tokens.len();
        parts.tokens.extend_from_slice(other.tokens());
        parts.spans.extend(other.spans().iter().map(|s| FactSpan {
            fact: s.fact,
            start: s.start + offset,
            len: s.len,
        }));
    }

    /// The token sequence.
    pub fn tokens(&self) -> &[TokenId] {
        &self.0.tokens
    }

    /// The fact spans, in insertion order.
    pub fn spans(&self) -> &[FactSpan] {
        &self.0.spans
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.0.tokens.len()
    }

    /// Returns `true` when the text holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.0.tokens.is_empty()
    }

    /// Extracts the sub-range `start..end` of tokens, keeping the fact spans
    /// that are *fully contained* in the range (partially cut facts are
    /// dropped: a truncated fact phrase is not recoverable evidence).
    pub fn slice(&self, start: usize, end: usize) -> AnnotatedText {
        let end = end.min(self.len());
        let start = start.min(end);
        let tokens = self.tokens()[start..end].to_vec();
        let spans = self
            .spans()
            .iter()
            .filter(|s| s.start >= start && s.end() <= end)
            .map(|s| FactSpan {
                fact: s.fact,
                start: s.start - start,
                len: s.len,
            })
            .collect();
        AnnotatedText(Arc::new(Parts { tokens, spans }))
    }

    /// Iterates over the distinct facts present (fully) in this text.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        let mut seen = std::collections::BTreeSet::new();
        self.spans().iter().filter_map(move |s| {
            if seen.insert(s.fact) {
                Some(s.fact)
            } else {
                None
            }
        })
    }

    /// Returns the tokens of the first span carrying `fact`, if present.
    pub fn fact_tokens(&self, fact: FactId) -> Option<&[TokenId]> {
        self.spans()
            .iter()
            .find(|s| s.fact == fact)
            .map(|s| &self.tokens()[s.start..s.end()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn push_fact_records_span() {
        let mut t = AnnotatedText::new();
        t.push_tokens(&toks(&[1, 2, 3]));
        t.push_fact(FactId(9), &toks(&[4, 5]));
        assert_eq!(t.len(), 5);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.fact_tokens(FactId(9)).unwrap(), &toks(&[4, 5])[..]);
    }

    #[test]
    fn push_text_shifts_spans() {
        let mut a = AnnotatedText::new();
        a.push_tokens(&toks(&[1, 1, 1]));
        let mut b = AnnotatedText::new();
        b.push_fact(FactId(1), &toks(&[7]));
        a.push_text(&b);
        assert_eq!(a.spans()[0].start, 3);
    }

    #[test]
    fn clones_share_buffers_until_one_is_written() {
        let mut a = AnnotatedText::new();
        a.push_fact(FactId(1), &toks(&[1, 2]));
        let mut b = a.clone();
        assert_eq!(a.tokens().as_ptr(), b.tokens().as_ptr());
        assert_eq!(a.spans().as_ptr(), b.spans().as_ptr());
        b.push_tokens(&toks(&[3]));
        assert_ne!(a.tokens().as_ptr(), b.tokens().as_ptr());
        assert_eq!(a.tokens(), &toks(&[1, 2])[..]);
        assert_eq!(b.tokens(), &toks(&[1, 2, 3])[..]);
    }

    #[test]
    fn slice_keeps_only_fully_contained_facts() {
        let mut t = AnnotatedText::new();
        t.push_tokens(&toks(&[0, 0]));
        t.push_fact(FactId(1), &toks(&[1, 2])); // Spans 2..4.
        t.push_fact(FactId(2), &toks(&[3, 4])); // Spans 4..6.
        let s = t.slice(0, 5); // Cuts fact 2 in half.
        assert_eq!(s.len(), 5);
        let facts: Vec<_> = s.fact_ids().collect();
        assert_eq!(facts, vec![FactId(1)]);
        assert_eq!(s.spans()[0].start, 2);
    }

    #[test]
    fn slice_beyond_end_is_clamped() {
        let mut t = AnnotatedText::new();
        t.push_tokens(&toks(&[1, 2]));
        let s = t.slice(1, 10);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fact_ids_deduplicates() {
        let mut t = AnnotatedText::new();
        t.push_fact(FactId(3), &toks(&[1]));
        t.push_fact(FactId(3), &toks(&[1]));
        assert_eq!(t.fact_ids().count(), 1);
    }
}
