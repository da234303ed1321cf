//! Allocation pins for the vocabulary. Its words live end to end in one
//! arena beside an offset list and an id table, so interning n distinct
//! words allocates O(log n) times (each of the three blocks doubling), a
//! word already present allocates nothing, and a vocabulary of any size is
//! three heap blocks. A vocabulary that kept a `String` per word would
//! allocate, and hold, at least one block per word.

use metis::text::{TextGen, Tokenizer, TopicVocab, Vocab};

use crate::counted;

/// Heap blocks a clone of `vocab` holds: its blocks, counted by making them
/// again.
fn blocks_held(vocab: &Vocab) -> i64 {
    counted(|| vocab.clone()).0.blocks
}

const WORDS: usize = 10_000;

/// Doubling growth of three blocks from empty: at most 17 steps each, as
/// the largest, the arena of ≤ 5-byte words, stays under 2^17 bytes.
const GROWTHS: u64 = 3 * 17;

#[test]
fn interning_distinct_words_allocates_logarithmically() {
    let words: Vec<String> = (0..WORDS).map(|i| format!("w{i}")).collect();
    let mut vocab = Vocab::new();
    let n = counted(|| {
        for word in &words {
            vocab.intern(word);
        }
    })
    .0
    .allocs;
    assert!(n <= GROWTHS, "{n} allocations interning {WORDS} words");
    assert_eq!(vocab.len(), WORDS);

    let mut formatted = Vocab::new();
    let n = counted(|| {
        for i in 0..WORDS {
            formatted.intern_fmt(format_args!("w{i}"));
        }
    })
    .0
    .allocs;
    assert!(n <= GROWTHS, "{n} allocations formatting {WORDS} words");

    let again = counted(|| {
        for (i, word) in words.iter().enumerate() {
            vocab.intern(word);
            formatted.intern_fmt(format_args!("w{i}"));
        }
    })
    .0
    .allocs;
    assert_eq!(again, 0, "interning words already present allocated");
    assert_eq!((vocab.len(), formatted.len()), (WORDS, WORDS));
    assert_eq!(blocks_held(&vocab), 3);
}

#[test]
fn a_generated_corpus_vocabulary_is_three_blocks() {
    let mut tok = Tokenizer::new();
    let first = TopicVocab::build(&mut tok, "topic-q0", 256, 96);
    let mut gen = TextGen::new(7);
    for q in 1..32 {
        first.sibling(&mut tok, &format!("topic-q{q}"), 256);
        gen.fact_phrase(&mut tok, "fact", 24);
    }
    let vocab = tok.vocab_mut();
    assert!(vocab.len() > 8_000);
    assert_eq!(blocks_held(vocab), 3);
}

#[test]
fn encoding_known_words_allocates_only_the_token_vector() {
    let mut tok = Tokenizer::new();
    let text = "The quick, brown FOX jumps over the lazy dog. ".repeat(64);
    tok.encode(&text);
    let (count, tokens) = counted(|| tok.encode(&text));
    let n = count.allocs;
    assert_eq!(tokens.len(), 9 * 64);
    // The collected vector doubles its way to 576 tokens: 4, 8, …, 1 024.
    assert!(n <= 9, "{n} allocations encoding {} tokens", tokens.len());
}
