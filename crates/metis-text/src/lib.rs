//! Text substrate for the METIS reproduction.
//!
//! This crate provides the lowest layer of the stack: a deterministic
//! word-level tokenizer with an interning vocabulary, a fixed-size token
//! chunker (the equivalent of the Langchain splitter used by the paper to
//! build retrieval databases), fact annotations that let the synthetic
//! corpus carry ground truth through the pipeline, and a seeded synthetic
//! text generator used by the workload generators in `metis-datasets`.
//!
//! Everything here is deterministic: the same seed produces the same
//! corpus, byte for byte, on every platform.

#![warn(unreachable_pub)]

mod annotate;
mod chunker;
mod textgen;
mod tokenizer;

pub use annotate::{AnnotatedText, FactId, FactSpan};
pub use chunker::{ChunkId, Chunker, ChunkerConfig, TokenChunk};
pub use textgen::{TextGen, TopicVocab};
pub use tokenizer::{TokenId, Tokenizer, Vocab};
