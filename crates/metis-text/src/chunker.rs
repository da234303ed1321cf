//! Fixed-size token chunker.
//!
//! The paper builds its retrieval databases by "splitting the queries'
//! contexts into fixed-sized chunks using Langchain" (§7.1); each chunk has a
//! fixed number of tokens (e.g. 1000 for KG-RAG-FinSec). This module
//! reproduces that splitter over [`AnnotatedText`] so fact ground truth
//! survives chunking.

use crate::annotate::AnnotatedText;

/// Identifier of a chunk within one corpus/database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// Raw index of the chunk.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration of the fixed-size splitter.
#[derive(Clone, Copy, Debug)]
pub struct ChunkerConfig {
    /// Tokens per chunk (the paper uses 512–1024 depending on dataset).
    pub chunk_size: usize,
    /// Tokens of overlap between consecutive chunks.
    pub overlap: usize,
}

impl ChunkerConfig {
    /// Creates a config with the given chunk size and no overlap.
    pub fn with_size(chunk_size: usize) -> Self {
        Self {
            chunk_size,
            overlap: 0,
        }
    }
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        Self {
            chunk_size: 512,
            overlap: 0,
        }
    }
}

/// A chunk produced by the splitter.
#[derive(Clone, Debug)]
pub struct TokenChunk {
    /// Position of the chunk in the source document stream.
    pub id: ChunkId,
    /// The chunk's tokens and the fact spans fully contained in it.
    pub text: AnnotatedText,
}

/// Fixed-size token splitter.
///
/// # Examples
///
/// ```
/// use metis_text::{AnnotatedText, Chunker, ChunkerConfig, TokenId};
///
/// let mut doc = AnnotatedText::new();
/// doc.push_tokens(&vec![TokenId(0); 100]);
/// let chunks = Chunker::new(ChunkerConfig::with_size(32)).split(&doc);
/// assert_eq!(chunks.len(), 4); // 32 + 32 + 32 + 4
/// assert_eq!(chunks[3].text.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Chunker {
    config: ChunkerConfig,
}

impl Chunker {
    /// Creates a chunker.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or `overlap >= chunk_size`; either
    /// would make the splitter loop forever.
    pub fn new(config: ChunkerConfig) -> Self {
        assert!(config.chunk_size > 0, "chunk_size must be positive");
        assert!(
            config.overlap < config.chunk_size,
            "overlap must be smaller than chunk_size"
        );
        Self { config }
    }

    /// Splits `doc` into fixed-size chunks.
    ///
    /// Without overlap the chunks partition the document exactly: every token
    /// appears in exactly one chunk. With overlap, consecutive chunks share
    /// `overlap` tokens, which lets facts that would straddle a boundary be
    /// fully contained in one of the two chunks.
    pub fn split(&self, doc: &AnnotatedText) -> Vec<TokenChunk> {
        let mut chunks = Vec::new();
        if doc.is_empty() {
            return chunks;
        }
        let step = self.config.chunk_size - self.config.overlap;
        let mut start = 0;
        let mut id = 0u32;
        while start < doc.len() {
            let end = (start + self.config.chunk_size).min(doc.len());
            chunks.push(TokenChunk {
                id: ChunkId(id),
                text: doc.slice(start, end),
            });
            id += 1;
            if end == doc.len() {
                break;
            }
            start += step;
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{FactId, FactSpan};
    use crate::tokenizer::TokenId;

    fn doc_of(n: usize) -> AnnotatedText {
        let mut d = AnnotatedText::new();
        d.push_tokens(&(0..n as u32).map(TokenId).collect::<Vec<_>>());
        d
    }

    #[test]
    fn partition_covers_all_tokens_without_overlap() {
        let doc = doc_of(1000);
        let chunks = Chunker::new(ChunkerConfig::with_size(128)).split(&doc);
        let total: usize = chunks.iter().map(|c| c.text.len()).sum();
        assert_eq!(total, 1000);
        // Token identity is preserved in order.
        let mut all = Vec::new();
        for c in &chunks {
            all.extend_from_slice(c.text.tokens());
        }
        assert_eq!(all, doc.tokens());
    }

    #[test]
    fn empty_doc_yields_no_chunks() {
        let chunks = Chunker::new(ChunkerConfig::default()).split(&AnnotatedText::new());
        assert!(chunks.is_empty());
    }

    #[test]
    fn overlap_duplicates_boundary_tokens() {
        let doc = doc_of(10);
        let chunks = Chunker::new(ChunkerConfig {
            chunk_size: 4,
            overlap: 2,
        })
        .split(&doc);
        assert_eq!(chunks[0].text.tokens()[2..], chunks[1].text.tokens()[..2]);
    }

    #[test]
    fn fact_on_boundary_lands_in_exactly_one_chunk_without_overlap() {
        let mut doc = doc_of(6);
        // Fact spans tokens 5..8: crosses the 8-token boundary at... use size 8.
        doc.push_fact(FactId(1), &[TokenId(100), TokenId(101), TokenId(102)]);
        doc.push_tokens(&[TokenId(9); 7]);
        // Doc is 16 tokens; fact occupies 6..9; chunk size 8 cuts at 8.
        let chunks = Chunker::new(ChunkerConfig::with_size(8)).split(&doc);
        let carrying: Vec<_> = chunks
            .iter()
            .filter(|c| c.text.fact_ids().count() > 0)
            .collect();
        // The fact straddles the boundary, so it is dropped from both chunks.
        assert!(carrying.is_empty());
    }

    #[test]
    fn overlap_rescues_boundary_fact() {
        let mut doc = doc_of(6);
        doc.push_fact(FactId(1), &[TokenId(100), TokenId(101), TokenId(102)]);
        doc.push_tokens(&[TokenId(9); 7]);
        let chunks = Chunker::new(ChunkerConfig {
            chunk_size: 8,
            overlap: 4,
        })
        .split(&doc);
        let carrying = chunks
            .iter()
            .filter(|c| c.text.fact_ids().count() > 0)
            .count();
        assert!(carrying >= 1);
    }

    #[test]
    fn chunk_ids_are_sequential() {
        let chunks = Chunker::new(ChunkerConfig::with_size(10)).split(&doc_of(35));
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
        assert_eq!(chunks.len(), 4);
    }

    #[test]
    fn span_offsets_are_rebased_per_chunk() {
        let mut doc = AnnotatedText::new();
        doc.push_tokens(&[TokenId(0); 12]);
        doc.push_fact(FactId(5), &[TokenId(1), TokenId(2)]);
        let chunks = Chunker::new(ChunkerConfig::with_size(10)).split(&doc);
        let spans = chunks[1].text.spans();
        assert_eq!(
            spans[0],
            FactSpan {
                fact: FactId(5),
                start: 2,
                len: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = Chunker::new(ChunkerConfig::with_size(0));
    }
}
