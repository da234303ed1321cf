//! Word-level tokenizer with an interning vocabulary.
//!
//! The paper's pipeline tokenizes with the serving model's tokenizer; for the
//! synthetic reproduction a deterministic word-level tokenizer is sufficient
//! because every quantity the system reasons about (chunk sizes, KV-cache
//! bytes, prefill cost, F1 overlap) is a function of *token counts*, not of
//! subword identities.

use std::fmt;
use std::ops::Range;

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
/// Each word is held once: its bytes sit end to end with every other word's
/// in one arena, and `ends[id]` is where word `id` stops, so a word is a
/// slice of the arena. Lookups go through an open-addressing table of ids
/// (a power-of-two size, at most half full, linear probing) keyed by a
/// deterministic hash of the word's bytes and compared against the arena.
/// The vocabulary is therefore three heap blocks however many words it
/// holds, and a word lands in the same slot in every process.
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
/// assert_eq!(vocab.intern_fmt(format_args!("{}ia", "nvid")), a);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    /// Every word's bytes, end to end, in id order.
    arena: String,
    /// `ends[id]`: the arena offset where word `id` ends.
    ends: Vec<u32>,
    /// Open-addressing table of ids; [`EMPTY`] marks a free slot.
    slots: Vec<u32>,
}

/// A free slot of [`Vocab::slots`]; never an id, so at most `u32::MAX` words.
const EMPTY: u32 = u32::MAX;

/// The first table's size.
const MIN_SLOTS: usize = 16;

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, returning its id (existing or newly assigned).
    ///
    /// # Panics
    ///
    /// Past `u32::MAX` words or `u32::MAX` bytes of words.
    pub fn intern(&mut self, word: &str) -> TokenId {
        let hash = hash(word.as_bytes());
        match self.find(word.as_bytes(), hash) {
            Ok(id) => id,
            Err(slot) => {
                self.arena.push_str(word);
                self.commit(slot, hash)
            }
        }
    }

    /// Interns the word `args` formats to, as [`Vocab::intern`] does, but
    /// formatted straight into the arena's tail: no `String` is made for
    /// it, and a word already present is truncated away again.
    pub fn intern_fmt(&mut self, args: fmt::Arguments<'_>) -> TokenId {
        let start = self.arena.len();
        fmt::Write::write_fmt(&mut self.arena, args).expect("a Display impl failed");
        self.intern_tail(start)
    }

    /// Interns `word` lower-cased. A word with no ASCII upper-case letter
    /// is looked up as it is; any other is lower-cased in the arena's tail.
    fn intern_lowercase(&mut self, word: &str) -> TokenId {
        if !word.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.intern(word);
        }
        let start = self.arena.len();
        self.arena.push_str(word);
        self.arena[start..].make_ascii_lowercase();
        self.intern_tail(start)
    }

    /// Interns the word written at the arena's tail from `start` on: keeps
    /// it as the next word, or truncates it when it is already present.
    fn intern_tail(&mut self, start: usize) -> TokenId {
        let word = &self.arena.as_bytes()[start..];
        let hash = hash(word);
        match self.find(word, hash) {
            Ok(id) => {
                self.arena.truncate(start);
                id
            }
            Err(slot) => self.commit(slot, hash),
        }
    }

    /// The id of `word`, or the free slot where the probe for `hash` ends.
    fn find(&self, word: &[u8], hash: u64) -> Result<TokenId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.bytes(id) == word => return Ok(TokenId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Makes the arena's tail past the last word the next word, filed at
    /// `slot` unless the table has to grow first.
    fn commit(&mut self, mut slot: usize, hash: u64) -> TokenId {
        let id = next_id(self.ends.len());
        let end = arena_offset(self.arena.len());
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
            slot = self.free_slot(hash);
        }
        self.slots[slot] = id;
        self.ends.push(end);
        TokenId(id)
    }

    /// Doubles the table (or makes the first one) and files every id again.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(MIN_SLOTS)];
        for id in 0..self.ends.len() as u32 {
            let slot = self.free_slot(hash(self.bytes(id)));
            self.slots[slot] = id;
        }
    }

    /// The first free slot of the probe for `hash`.
    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Where the probe for `hash` starts: its top bits, which the hash's
    /// last multiply spreads every input bit into.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Where word `index`, which must exist, sits in the arena.
    fn span(&self, index: usize) -> Range<usize> {
        let start = index
            .checked_sub(1)
            .map_or(0, |prev| self.ends[prev] as usize);
        start..self.ends[index] as usize
    }

    /// The bytes of word `id`, which must exist.
    fn bytes(&self, id: u32) -> &[u8] {
        &self.arena.as_bytes()[self.span(id as usize)]
    }

    /// Returns the word behind `id`, if it exists.
    pub fn word(&self, id: TokenId) -> Option<&str> {
        (id.index() < self.len()).then(|| &self.arena[self.span(id.index())])
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when no word has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The id the word after `len` words receives.
fn next_id(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(id) if id != EMPTY => id,
        _ => panic!("more than u32::MAX words"),
    }
}

/// An arena length as a word's end offset.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("more than u32::MAX bytes of words")
}

/// A deterministic hash of a word's bytes: eight bytes at a time (the last
/// ones zero-padded, the length as the seed), each folded in by a rotate,
/// a xor and a multiply, as in the Firefox hasher.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let fold = |h: u64, chunk: &[u8]| {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K)
    };
    bytes.chunks(8).fold(bytes.len() as u64, fold)
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
        trim_punctuation(word).to_ascii_lowercase()
    }

    /// Encodes `text` into token ids, interning unseen words.
    ///
    /// Each word is normalized as [`Tokenizer::normalize`] does, without a
    /// `String` of its own: it is trimmed in place and lower-cased only
    /// when it has an upper-case letter, then in the vocabulary's arena.
    pub fn encode(&mut self, text: &str) -> Vec<TokenId> {
        text.split_whitespace()
            .map(trim_punctuation)
            .filter(|w| !w.is_empty())
            .map(|w| self.vocab.intern_lowercase(w))
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

/// `word` without its leading and trailing ASCII punctuation.
fn trim_punctuation(word: &str) -> &str {
    word.trim_matches(|c: char| c.is_ascii_punctuation())
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The vocabulary as it was: one `String` per word in a `Vec`, another
    /// as the key of a `HashMap`.
    #[derive(Clone, Default)]
    struct Oracle {
        words: Vec<String>,
        index: HashMap<String, TokenId>,
    }

    impl Oracle {
        fn intern(&mut self, word: &str) -> TokenId {
            if let Some(&id) = self.index.get(word) {
                return id;
            }
            let id = TokenId(self.words.len() as u32);
            self.words.push(word.to_owned());
            self.index.insert(word.to_owned(), id);
            id
        }
    }

    /// Every word, the length and the first ids past the end agree.
    fn assert_same(vocab: &Vocab, oracle: &Oracle) {
        assert_eq!(vocab.len(), oracle.words.len());
        assert_eq!(vocab.is_empty(), oracle.words.is_empty());
        for (i, word) in oracle.words.iter().enumerate() {
            assert_eq!(vocab.word(TokenId(i as u32)), Some(word.as_str()));
        }
        for past in [vocab.len() as u32, vocab.len() as u32 + 1, u32::MAX] {
            assert_eq!(vocab.word(TokenId(past)), None);
        }
    }

    /// A seeded word of 0-11 characters (upper-case, punctuation and
    /// non-ASCII among them), or in a third of draws one drawn before.
    fn random_word(rng: &mut StdRng, seen: &[String]) -> String {
        const CHARS: [char; 13] = [
            'a', 'b', 'c', 'Z', 'Q', '0', '7', '-', '.', ',', 'é', 'ß', '日',
        ];
        if !seen.is_empty() && rng.gen_bool(0.3) {
            return seen[rng.gen_range(0..seen.len())].clone();
        }
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    /// `ops` seeded operations through every way in (`intern`,
    /// `intern_fmt` of a word split in two, `intern_lowercase` and
    /// `Tokenizer::encode` of a few words), each return held to the oracle,
    /// everything checked whenever the length reaches a power of two, and
    /// interning into a clone checked to leave the original as it was.
    fn differential(seed: u64, ops: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut tok, mut oracle) = (Tokenizer::new(), Oracle::default());
        let mut seen: Vec<String> = Vec::new();
        for op in 0..ops {
            let word = random_word(&mut rng, &seen);
            let (got, want) = match rng.gen_range(0..4u32) {
                0 => (vec![tok.vocab.intern(&word)], vec![oracle.intern(&word)]),
                1 => {
                    let cut = word
                        .char_indices()
                        .nth(rng.gen_range(0..=word.chars().count()));
                    let (head, tail) = word.split_at(cut.map_or(word.len(), |(at, _)| at));
                    let got = tok.vocab.intern_fmt(format_args!("{head}{tail}"));
                    (vec![got], vec![oracle.intern(&word)])
                }
                2 => {
                    let got = tok.vocab.intern_lowercase(&word);
                    (vec![got], vec![oracle.intern(&word.to_ascii_lowercase())])
                }
                _ => {
                    let text = format!(" {word}\t{} ,, {word}", random_word(&mut rng, &seen));
                    let want = text
                        .split_whitespace()
                        .map(Tokenizer::normalize)
                        .filter(|w| !w.is_empty())
                        .map(|w| oracle.intern(&w))
                        .collect();
                    (tok.encode(&text), want)
                }
            };
            assert_eq!(got, want, "op {op}: {word:?}");
            for id in got {
                assert_eq!(tok.vocab.word(id), Some(oracle.words[id.index()].as_str()));
            }
            seen.push(word);
            if oracle.words.len().is_power_of_two() || op + 1 == ops {
                assert_same(&tok.vocab, &oracle);
            }
            if op == ops / 2 {
                let (mut copy, mut copy_oracle) = (tok.vocab.clone(), oracle.clone());
                for _ in 0..64 {
                    let word = random_word(&mut rng, &seen);
                    assert_eq!(copy.intern(&word), copy_oracle.intern(&word));
                }
                assert_same(&copy, &copy_oracle);
                assert_same(&tok.vocab, &oracle);
            }
        }
        assert!(
            tok.vocab.slots.len() >= 8 * MIN_SLOTS,
            "too few table growths"
        );
    }

    #[test]
    fn vocab_equals_its_hashmap_oracle() {
        for seed in 0..4 {
            differential(seed, 3_000);
        }
    }

    #[test]
    #[ignore = "long sweep, run in release: cargo test --release -p metis-text -- --ignored"]
    fn vocab_equals_its_hashmap_oracle_long_sweep() {
        for seed in 100..108 {
            differential(seed, 25_000);
        }
    }

    #[test]
    fn the_last_id_and_offset_are_u32_max_minus_one_and_u32_max() {
        assert_eq!(next_id(u32::MAX as usize - 1), u32::MAX - 1);
        assert_eq!(arena_offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX words")]
    fn a_word_past_u32_max_words_panics() {
        next_id(u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX bytes of words")]
    fn a_word_ending_past_u32_max_bytes_panics() {
        arena_offset(u32::MAX as usize + 1);
    }

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
