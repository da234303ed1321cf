//! Seeded synthetic text generation.
//!
//! The workload generators need large volumes of "background" text in which
//! to plant facts, with a controllable topical vocabulary so that embeddings
//! of chunks from the same topic are closer than chunks from different
//! topics (the property retrieval quality depends on).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tokenizer::{TokenId, Tokenizer};

/// A topical vocabulary: a pool of words biased towards one subject.
///
/// Each topic owns `width` dedicated words plus access to a shared common
/// pool; filler text drawn for a topic mixes the two, so same-topic texts
/// share far more tokens than cross-topic texts.
#[derive(Clone, Debug)]
pub struct TopicVocab {
    topic_words: Vec<TokenId>,
    common_words: Vec<TokenId>,
}

/// Probability that a filler token is drawn from the topic pool.
const TOPIC_BIAS: f64 = 0.6;

impl TopicVocab {
    /// Builds a topic vocabulary with `width` topic-specific words.
    ///
    /// `topic` namespaces the generated words so distinct topics never share
    /// topic-specific tokens.
    pub fn build(tokenizer: &mut Tokenizer, topic: &str, width: usize, common: usize) -> Self {
        let vocab = tokenizer.vocab_mut();
        let topic_words = (0..width)
            .map(|i| vocab.intern_fmt(format_args!("{topic}-{i}")))
            .collect();
        let common_words = (0..common)
            .map(|i| vocab.intern_fmt(format_args!("common-{i}")))
            .collect();
        Self {
            topic_words,
            common_words,
        }
    }

    /// A vocabulary for another topic over this one's common pool: the ids
    /// [`TopicVocab::build`] gives it with the same `common`, without
    /// formatting and interning those words again.
    pub fn sibling(&self, tokenizer: &mut Tokenizer, topic: &str, width: usize) -> Self {
        let mut vocab = Self::build(tokenizer, topic, width, 0);
        vocab.common_words.clone_from(&self.common_words);
        vocab
    }

    /// Words dedicated to this topic.
    pub fn topic_words(&self) -> &[TokenId] {
        &self.topic_words
    }
}

/// Deterministic filler-text generator.
///
/// # Examples
///
/// ```
/// use metis_text::{TextGen, Tokenizer, TopicVocab};
///
/// let mut tok = Tokenizer::new();
/// let topic = TopicVocab::build(&mut tok, "finance", 64, 128);
/// let mut g = TextGen::new(7);
/// let a = g.filler(&topic, 50);
/// assert_eq!(a.len(), 50);
/// // Same seed, same output.
/// let b = TextGen::new(7).filler(&topic, 50);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct TextGen {
    rng: StdRng,
}

impl TextGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces `n` filler tokens drawn from `topic`.
    pub fn filler(&mut self, topic: &TopicVocab, n: usize) -> Vec<TokenId> {
        (0..n)
            .map(|_| {
                let from_topic = !topic.topic_words.is_empty()
                    && (topic.common_words.is_empty() || self.rng.gen_bool(TOPIC_BIAS));
                let pool = if from_topic {
                    &topic.topic_words
                } else {
                    &topic.common_words
                };
                pool[self.rng.gen_range(0..pool.len())]
            })
            .collect()
    }

    /// Produces a fact phrase of `n` tokens: unique "entity" words that do
    /// not collide with filler vocabulary, so token-level F1 against the
    /// ground-truth answer is meaningful.
    pub fn fact_phrase(
        &mut self,
        tokenizer: &mut Tokenizer,
        namespace: &str,
        n: usize,
    ) -> Vec<TokenId> {
        (0..n)
            .map(|i| {
                let salt: u32 = self.rng.gen();
                tokenizer
                    .vocab_mut()
                    .intern_fmt(format_args!("fact-{namespace}-{salt:08x}-{i}"))
            })
            .collect()
    }

    /// Samples a value uniformly from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return lo;
        }
        self.rng.gen_range(lo..=hi)
    }

    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Tokenizer, TopicVocab, TopicVocab) {
        let mut tok = Tokenizer::new();
        let a = TopicVocab::build(&mut tok, "finance", 50, 100);
        let b = TopicVocab::build(&mut tok, "sports", 50, 100);
        (tok, a, b)
    }

    #[test]
    fn a_sibling_has_the_ids_build_gives() {
        let mut built = Tokenizer::new();
        let mut shared = Tokenizer::new();
        TopicVocab::build(&mut built, "q0", 8, 16);
        let first = TopicVocab::build(&mut shared, "q0", 8, 16);
        for q in 1..4 {
            let want = TopicVocab::build(&mut built, &format!("q{q}"), 8, 16);
            let got = first.sibling(&mut shared, &format!("q{q}"), 8);
            assert_eq!(got.topic_words, want.topic_words);
            assert_eq!(got.common_words, want.common_words);
        }
        assert_eq!(shared.vocab_mut().len(), built.vocab_mut().len());
    }

    #[test]
    fn filler_is_deterministic() {
        let (_, a, _) = setup();
        let x = TextGen::new(1).filler(&a, 200);
        let y = TextGen::new(1).filler(&a, 200);
        assert_eq!(x, y);
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a, _) = setup();
        let x = TextGen::new(1).filler(&a, 200);
        let y = TextGen::new(2).filler(&a, 200);
        assert_ne!(x, y);
    }

    #[test]
    fn topics_share_only_common_words() {
        let (_, a, b) = setup();
        let xa: std::collections::HashSet<_> =
            TextGen::new(3).filler(&a, 500).into_iter().collect();
        let xb: std::collections::HashSet<_> =
            TextGen::new(4).filler(&b, 500).into_iter().collect();
        // Overlap exists (common pool) but topic words never cross.
        for w in a.topic_words() {
            assert!(!b.topic_words().contains(w));
        }
        assert!(xa.intersection(&xb).count() > 0);
    }

    #[test]
    fn fact_phrases_are_unique() {
        let mut tok = Tokenizer::new();
        let mut g = TextGen::new(9);
        let p1 = g.fact_phrase(&mut tok, "q1", 3);
        let p2 = g.fact_phrase(&mut tok, "q1", 3);
        assert_ne!(p1, p2);
        assert_eq!(p1.len(), 3);
    }

    #[test]
    fn range_handles_degenerate_bounds() {
        let mut g = TextGen::new(0);
        assert_eq!(g.range(5, 5), 5);
        assert_eq!(g.range(7, 3), 7);
    }
}
