//! Embedding substrate for the METIS reproduction.
//!
//! The paper retrieves with Cohere-embed-v3 over a FAISS flat-L2 index and
//! reports (§A.2) that swapping the embedding model (All-mpnet-base-v2,
//! text-embedding-3-large-256) moves F1 by less than 1%. This crate provides
//! three deterministic feature-hashing embedders with the same interface and
//! closely matched retrieval behaviour over the synthetic token space, which
//! is exactly the property that appendix experiment needs.
//!
//! All embedders produce unit-L2-normalized vectors, so L2 distance is a
//! monotone transform of cosine similarity (as with normalized neural
//! embeddings).

#![warn(unreachable_pub)]

mod hashers;
mod models;
mod similarity;

pub use models::{Embedder, EmbedderKind, HashEmbed};
pub use similarity::l2_distance;
