//! Allocation pins for the vocabulary. Its words live end to end in one
//! arena beside an offset list and an id table, so interning n distinct
//! words allocates O(log n) times (each of the three blocks doubling), a
//! word already present allocates nothing, and a vocabulary of any size is
//! three heap blocks. A vocabulary that kept a `String` per word would
//! allocate, and hold, at least one block per word.
//!
//! Counted with this binary's own `#[global_allocator]` (which is why the
//! tests live alone in their file), per thread, so the test harness's own
//! threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use metis_text::{TextGen, Tokenizer, TopicVocab, Vocab};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Deallocations made by this thread.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus per-thread allocation and deallocation counters.
struct CountingAlloc;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: an allocation made while the thread is being torn down
    // finds the slot gone, and is nobody's to count.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition bumps a
// const-initialised, destructor-free thread-local `Cell`, which cannot
// allocate, unwind, or touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: `ptr` came from `System` through this type, same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

/// Heap blocks a clone of `vocab` holds: its blocks, counted by making them
/// again.
fn blocks_held(vocab: &Vocab) -> u64 {
    let live = || allocations() - FREES.with(Cell::get);
    let before = live();
    let copy = vocab.clone();
    let held = live() - before;
    drop(copy);
    held
}

const WORDS: usize = 10_000;

/// Doubling growth of three blocks from empty: at most 17 steps each, as
/// the largest, the arena of ≤ 5-byte words, stays under 2^17 bytes.
const GROWTHS: u64 = 3 * 17;

#[test]
fn interning_distinct_words_allocates_logarithmically() {
    let words: Vec<String> = (0..WORDS).map(|i| format!("w{i}")).collect();
    let mut vocab = Vocab::new();
    let n = allocations_of(|| {
        for word in &words {
            vocab.intern(word);
        }
    });
    assert!(n <= GROWTHS, "{n} allocations interning {WORDS} words");
    assert_eq!(vocab.len(), WORDS);

    let mut formatted = Vocab::new();
    let n = allocations_of(|| {
        for i in 0..WORDS {
            formatted.intern_fmt(format_args!("w{i}"));
        }
    });
    assert!(n <= GROWTHS, "{n} allocations formatting {WORDS} words");

    let again = allocations_of(|| {
        for (i, word) in words.iter().enumerate() {
            vocab.intern(word);
            formatted.intern_fmt(format_args!("w{i}"));
        }
    });
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
    let mut tokens = Vec::new();
    let n = allocations_of(|| tokens = tok.encode(&text));
    assert_eq!(tokens.len(), 9 * 64);
    // The collected vector doubles its way to 576 tokens: 4, 8, …, 1 024.
    assert!(n <= 9, "{n} allocations encoding {} tokens", tokens.len());
}
