//! Word-level tokenizer with an interning vocabulary.
//!
//! The paper's pipeline tokenizes with the serving model's tokenizer; for the
//! synthetic reproduction a deterministic word-level tokenizer is sufficient
//! because every quantity the system reasons about (chunk sizes, KV-cache
//! bytes, prefill cost, F1 overlap) is a function of *token counts*, not of
//! subword identities.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a token in a [`Vocab`].
///
/// Token ids are dense: the `n`-th interned word receives id `n - 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TokenId(pub u32);

impl TokenId {
    /// Returns the raw index of this token.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An interning vocabulary mapping words to dense [`TokenId`]s.
///
/// # Examples
///
/// ```
/// use metis_text::Vocab;
///
/// let mut vocab = Vocab::new();
/// let a = vocab.intern("nvidia");
/// let b = vocab.intern("revenue");
/// assert_ne!(a, b);
/// assert_eq!(vocab.intern("nvidia"), a);
/// assert_eq!(vocab.word(a), Some("nvidia"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    words: Vec<String>,
    index: HashMap<String, TokenId>,
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, word: &str) -> TokenId {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        let id = TokenId(self.words.len() as u32);
        self.words.push(word.to_owned());
        self.index.insert(word.to_owned(), id);
        id
    }

    /// Returns the word behind `id`, if it exists.
    pub fn word(&self, id: TokenId) -> Option<&str> {
        self.words.get(id.index()).map(String::as_str)
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` when no word has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Deterministic whitespace tokenizer over a shared [`Vocab`].
///
/// Words are lower-cased and stripped of surrounding ASCII punctuation before
/// interning, so `"NVIDIA,"` and `"nvidia"` map to the same token — the same
/// normalization the paper's F1 metric applies (SQuAD-style).
#[derive(Clone, Debug, Default)]
pub struct Tokenizer {
    vocab: Vocab,
}

impl Tokenizer {
    /// Creates a tokenizer with an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalizes a single word: lower-case, trim ASCII punctuation.
    pub fn normalize(word: &str) -> String {
        word.trim_matches(|c: char| c.is_ascii_punctuation())
            .to_ascii_lowercase()
    }

    /// Encodes `text` into token ids, interning unseen words.
    pub fn encode(&mut self, text: &str) -> Vec<TokenId> {
        text.split_whitespace()
            .map(Self::normalize)
            .filter(|w| !w.is_empty())
            .map(|w| self.vocab.intern(&w))
            .collect()
    }

    /// Decodes token ids back into a space-joined string.
    ///
    /// Unknown ids are rendered with their [`TokenId`] display form so that
    /// decoding never fails; the simulator never produces unknown ids in
    /// practice.
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let mut out = String::new();
        for (i, &t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match self.vocab.word(t) {
                Some(w) => out.push_str(w),
                None => out.push_str(&t.to_string()),
            }
        }
        out
    }

    /// Mutable access to the underlying vocabulary.
    pub fn vocab_mut(&mut self) -> &mut Vocab {
        &mut self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("alpha");
        let b = v.intern("alpha");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut v = Vocab::new();
        for i in 0..100 {
            let id = v.intern(&format!("w{i}"));
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = Tokenizer::new();
        let toks = t.encode("the quick brown fox");
        assert_eq!(toks.len(), 4);
        assert_eq!(t.decode(&toks), "the quick brown fox");
    }

    #[test]
    fn normalization_folds_case_and_punctuation() {
        let mut t = Tokenizer::new();
        let a = t.encode("NVIDIA,");
        let b = t.encode("nvidia");
        assert_eq!(a, b);
    }

    #[test]
    fn empty_words_are_dropped() {
        let mut t = Tokenizer::new();
        let toks = t.encode("a ,,, b");
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn decode_unknown_id_does_not_panic() {
        let t = Tokenizer::new();
        let s = t.decode(&[TokenId(42)]);
        assert_eq!(s, "t42");
    }
}
