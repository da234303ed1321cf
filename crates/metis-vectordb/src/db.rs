//! The assembled vector database: embedder + index + chunk store + metadata.

use std::sync::Arc;

use metis_embed::Embedder;
use metis_text::{AnnotatedText, TokenChunk, TokenId};

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::ivf::{IvfConfig, IvfIndex};
use crate::quant::{Quantization, SqFlatIndex, SqIvfIndex};
use crate::sparse::SparseFlatIndex;
use crate::store::ChunkStore;
use crate::{Hit, SearchOutcome, SearchWork, VectorIndex};

/// Database metadata consumed by METIS's LLM profiler (§4.1).
///
/// The paper attaches "a short description about the type of content in the
/// database and its data size (`chunk_size`)" to every corpus; the profiler
/// uses it to judge how much summarization and reasoning a query needs.
#[derive(Clone, Debug)]
pub struct DbMetadata {
    /// One-line natural-language description of the corpus content.
    pub description: String,
    /// Tokens per chunk used when the database was built.
    pub chunk_size: usize,
    /// Number of chunks in the database.
    pub num_chunks: usize,
}

/// One retrieved chunk with its decoded text.
#[derive(Clone, Debug)]
pub struct RetrievalResult {
    /// The search hit (chunk id + distance).
    pub hit: Hit,
    /// Decoded chunk content with fact annotations.
    pub text: AnnotatedText,
}

/// Index backend specification for a [`VectorDb`], chosen at build time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexSpec {
    /// Exact flat L2 (FAISS `IndexFlatL2`) — the paper's setup.
    #[default]
    Flat,
    /// IVF approximate index (for corpus scales where exact search is too
    /// slow; trades a little recall for sublinear search).
    Ivf {
        /// Number of inverted lists (coarse centroids).
        nlist: usize,
        /// Lists probed per search.
        nprobe: usize,
        /// K-means refinement iterations at build time.
        train_iters: usize,
    },
    /// HNSW layered-graph index (near-logarithmic search at corpus scales
    /// where even IVF's probed lists are too large to scan).
    Hnsw {
        /// Max neighbors per node (layer 0 allows `2m`).
        m: usize,
        /// Insertion beam width at build time.
        ef_construction: usize,
        /// Layer-0 expansion budget at query time.
        ef_search: usize,
    },
}

impl IndexSpec {
    /// An IVF spec with the default training schedule.
    pub fn ivf(nlist: usize, nprobe: usize) -> Self {
        Self::Ivf {
            nlist,
            nprobe,
            train_iters: 8,
        }
    }

    /// An HNSW spec with the default construction beam.
    pub fn hnsw(m: usize, ef_search: usize) -> Self {
        Self::Hnsw {
            m,
            ef_construction: HnswConfig::default().ef_construction,
            ef_search,
        }
    }

    /// Short display form, e.g. `flat`, `ivf(nlist=64,nprobe=8)` or
    /// `hnsw(m=16,ef=64)`.
    pub fn label(&self) -> String {
        match self {
            IndexSpec::Flat => "flat".to_owned(),
            IndexSpec::Ivf { nlist, nprobe, .. } => {
                format!("ivf(nlist={nlist},nprobe={nprobe})")
            }
            IndexSpec::Hnsw { m, ef_search, .. } => {
                format!("hnsw(m={m},ef={ef_search})")
            }
        }
    }

    /// Checks the parameters are internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            IndexSpec::Flat => Ok(()),
            IndexSpec::Ivf { nlist, nprobe, .. } => {
                if nlist == 0 {
                    return Err("nlist must be positive".into());
                }
                if nprobe == 0 {
                    return Err("nprobe must be positive".into());
                }
                if nprobe > nlist {
                    return Err(format!("nprobe ({nprobe}) must be <= nlist ({nlist})"));
                }
                Ok(())
            }
            IndexSpec::Hnsw {
                m,
                ef_construction,
                ef_search,
            } => {
                if m < 2 {
                    return Err("m must be at least 2".into());
                }
                if ef_search == 0 {
                    return Err("ef-search must be positive".into());
                }
                if ef_construction < m {
                    return Err(format!(
                        "ef-construction ({ef_construction}) must be >= m ({m})"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// What a run report records about the index serving a run: the requested
/// spec plus the effective, data-clamped shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexMeta {
    /// The spec the database was built with.
    pub spec: IndexSpec,
    /// How vectors are stored and scored inside the index.
    pub quant: Quantization,
    /// Effective inverted-list count (1 for flat and HNSW).
    pub nlist: usize,
    /// Effective probe count (1 for flat and HNSW).
    pub nprobe: usize,
    /// Number of indexed vectors.
    pub vectors: usize,
}

/// Retrieval results plus the measured work that produced them.
#[derive(Clone, Debug)]
pub struct RetrievalOutcome {
    /// The retrieved chunks, in ascending distance order.
    pub results: Vec<RetrievalResult>,
    /// Index-search work accounting.
    pub work: SearchWork,
    /// Embedding work spent on the query, in the embedder's feature-hash
    /// units ([`Embedder::embed_work`]).
    pub embed_units: u64,
}

/// A complete retrieval database over one corpus.
///
/// Build once from the chunker output, then call [`VectorDb::retrieve`] with
/// query tokens — the analogue of the paper's
/// `index.search(query_embedding, top_k)` followed by payload lookup.
pub struct VectorDb {
    embedder: Arc<dyn Embedder>,
    index: Box<dyn VectorIndex>,
    index_meta: IndexMeta,
    store: ChunkStore,
    metadata: DbMetadata,
}

impl VectorDb {
    /// Builds the database by embedding and indexing every chunk with the
    /// exact flat index (the paper's FAISS `IndexFlatL2` setup).
    pub fn build(
        chunks: &[TokenChunk],
        embedder: Arc<dyn Embedder>,
        description: &str,
        chunk_size: usize,
    ) -> Self {
        Self::build_with_spec(
            chunks,
            embedder,
            description,
            chunk_size,
            IndexSpec::Flat,
            Quantization::F32,
        )
    }

    /// Builds the database with a chosen index backend and vector storage
    /// scheme.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`IndexSpec::validate`].
    pub fn build_with_spec(
        chunks: &[TokenChunk],
        embedder: Arc<dyn Embedder>,
        description: &str,
        chunk_size: usize,
        spec: IndexSpec,
        quant: Quantization,
    ) -> Self {
        spec.validate().expect("invalid index spec");
        let dim = embedder.dim();
        let embedded = || {
            chunks
                .iter()
                .map(|c| (c.id, embedder.embed(c.text.tokens())))
        };
        let items = || embedded().collect::<Vec<_>>();
        // The index, and its effective list and probe counts.
        let (index, nlist, nprobe): (Box<dyn VectorIndex>, usize, usize) = match spec {
            IndexSpec::Flat => match quant {
                Quantization::F32 => (Box::new(SparseFlatIndex::build(dim, embedded())), 1, 1),
                Quantization::Sq8 { rerank } => {
                    (Box::new(SqFlatIndex::build(dim, rerank, &items())), 1, 1)
                }
            },
            IndexSpec::Ivf {
                nlist,
                nprobe,
                train_iters,
            } => {
                let config = IvfConfig {
                    nlist,
                    nprobe,
                    train_iters,
                };
                let ivf = IvfIndex::build(dim, config, &items());
                let IvfConfig { nlist, nprobe, .. } = ivf.config();
                let index: Box<dyn VectorIndex> = match quant {
                    Quantization::F32 => Box::new(ivf),
                    Quantization::Sq8 { rerank } => Box::new(SqIvfIndex::from_ivf(&ivf, rerank)),
                };
                (index, nlist, nprobe)
            }
            IndexSpec::Hnsw {
                m,
                ef_construction,
                ef_search,
            } => {
                let config = HnswConfig {
                    m,
                    ef_construction,
                    ef_search,
                };
                let index = HnswIndex::build(dim, config, quant, &items());
                (Box::new(index), 1, 1)
            }
        };
        let index_meta = IndexMeta {
            spec,
            quant,
            nlist,
            nprobe,
            vectors: chunks.len(),
        };
        let store = ChunkStore::from_chunks(chunks);
        let metadata = DbMetadata {
            description: description.to_owned(),
            chunk_size,
            num_chunks: chunks.len(),
        };
        Self {
            embedder,
            index,
            index_meta,
            store,
            metadata,
        }
    }

    /// Retrieves the `top_k` most similar chunks to the query.
    pub fn retrieve(&self, query_tokens: &[TokenId], top_k: usize) -> Vec<RetrievalResult> {
        self.retrieve_counted(query_tokens, top_k).results
    }

    /// Retrieves the `top_k` most similar chunks plus the measured embed
    /// and index-search work — what the runner's retrieval latency model
    /// converts into simulated time.
    pub fn retrieve_counted(&self, query_tokens: &[TokenId], top_k: usize) -> RetrievalOutcome {
        let q = self.embedder.embed(query_tokens);
        let SearchOutcome { hits, work } = self.index.search_counted(&q, top_k);
        let results = hits
            .into_iter()
            .map(|hit| RetrievalResult {
                hit,
                text: self
                    .store
                    .get(hit.chunk)
                    .expect("index returned id missing from store"),
            })
            .collect();
        RetrievalOutcome {
            results,
            work,
            embed_units: self.embedder.embed_work(query_tokens.len()),
        }
    }

    /// The database metadata (for the profiler).
    pub fn metadata(&self) -> &DbMetadata {
        &self.metadata
    }

    /// Metadata of the index serving this database.
    pub fn index_meta(&self) -> IndexMeta {
        self.index_meta
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when the database holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The embedder used for both indexing and queries.
    pub fn embedder(&self) -> &dyn Embedder {
        self.embedder.as_ref()
    }

    /// Read access to the chunk store.
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_embed::HashEmbed;
    use metis_text::{Chunker, ChunkerConfig, FactId, TextGen, Tokenizer, TopicVocab};

    /// Chunks of a document holding `FactId(1)` right after eight finance
    /// topic words, and those words as the query: a short finance section
    /// between sports filler (`mixed`), or finance throughout.
    fn fact_corpus(mixed: bool) -> (Vec<TokenChunk>, Vec<TokenId>) {
        let mut tok = Tokenizer::new();
        let finance = TopicVocab::build(&mut tok, "finance", 64, 64);
        let sports;
        let around = if mixed {
            sports = TopicVocab::build(&mut tok, "sports", 64, 64);
            &sports
        } else {
            &finance
        };
        let mut g = TextGen::new(11);
        let mut doc = AnnotatedText::new();
        doc.push_tokens(&g.filler(around, if mixed { 256 } else { 512 }));
        let subject: Vec<TokenId> = finance.topic_words()[..8].to_vec();
        doc.push_tokens(&subject);
        let fact_phrase = g.fact_phrase(&mut tok, "ceo", 2);
        doc.push_fact(FactId(1), &fact_phrase);
        doc.push_tokens(&g.filler(&finance, if mixed { 54 } else { 700 }));
        if mixed {
            doc.push_tokens(&g.filler(around, 256));
        }
        (
            Chunker::new(ChunkerConfig::with_size(64)).split(&doc),
            subject,
        )
    }

    fn db_over(chunks: &[TokenChunk], spec: IndexSpec, quant: Quantization) -> VectorDb {
        let embedder = Arc::new(HashEmbed::default());
        VectorDb::build_with_spec(chunks, embedder, "synthetic corpus", 64, spec, quant)
    }

    /// Whether any of `results` holds `FactId(1)`.
    fn holds_the_fact(results: &[RetrievalResult]) -> bool {
        results
            .iter()
            .any(|r| r.text.fact_ids().any(|f| f == FactId(1)))
    }

    fn build_db() -> (VectorDb, Vec<TokenId>, FactId) {
        let (chunks, query) = fact_corpus(true);
        let db = db_over(&chunks, IndexSpec::Flat, Quantization::F32);
        (db, query, FactId(1))
    }

    #[test]
    fn retrieval_surfaces_fact_bearing_chunk() {
        let (db, query, _) = build_db();
        let results = db.retrieve(&query, 3);
        assert_eq!(results.len(), 3);
        assert!(holds_the_fact(&results), "fact chunk not in top-3");
    }

    #[test]
    fn results_are_distance_ordered() {
        let (db, query, _) = build_db();
        let results = db.retrieve(&query, 5);
        for w in results.windows(2) {
            assert!(w[0].hit.distance <= w[1].hit.distance);
        }
    }

    #[test]
    fn metadata_reflects_build() {
        let (db, _, _) = build_db();
        let md = db.metadata();
        assert_eq!(md.chunk_size, 64);
        assert_eq!(md.num_chunks, db.len());
        assert!(!md.description.is_empty());
    }

    #[test]
    fn ivf_backend_retrieves_the_same_fact() {
        let (chunks, subject) = fact_corpus(false);
        let db = db_over(&chunks, IndexSpec::ivf(4, 3), Quantization::F32);
        let results = db.retrieve(&subject, 5);
        assert!(!results.is_empty());
        // With generous nprobe, the fact chunk surfaces just like flat.
        assert!(holds_the_fact(&results), "IVF missed the fact chunk");
        // The index metadata reflects the requested spec.
        let meta = db.index_meta();
        assert_eq!(meta.spec, IndexSpec::ivf(4, 3));
        assert_eq!(meta.nlist, 4);
        assert_eq!(meta.nprobe, 3);
        assert_eq!(meta.vectors, db.len());
    }

    #[test]
    fn counted_retrieval_reports_work_and_embed_units() {
        let (db, query, _) = build_db();
        let out = db.retrieve_counted(&query, 3);
        assert_eq!(out.results.len(), 3);
        // Flat scan scores the entire corpus, probes no lists.
        assert_eq!(out.work.vectors_scored, db.len());
        assert_eq!(out.work.centroids_scored, 0);
        assert_eq!(out.work.lists_probed, 0);
        assert_eq!(out.embed_units, db.embedder().embed_work(query.len()));
        assert!(out.embed_units > 0);
        // The plain retrieve path returns the identical results.
        let plain = db.retrieve(&query, 3);
        assert_eq!(plain.len(), out.results.len());
        for (a, b) in plain.iter().zip(&out.results) {
            assert_eq!(a.hit.chunk, b.hit.chunk);
        }
    }

    #[test]
    fn index_spec_validation_catches_bad_ivf_shapes() {
        assert!(IndexSpec::Flat.validate().is_ok());
        assert!(IndexSpec::ivf(16, 4).validate().is_ok());
        let err = IndexSpec::ivf(4, 16).validate().unwrap_err();
        assert!(err.contains("must be <= nlist"), "got: {err}");
        assert!(IndexSpec::ivf(0, 0).validate().is_err());
        assert!(IndexSpec::ivf(4, 0).validate().is_err());
        assert_eq!(IndexSpec::ivf(64, 8).label(), "ivf(nlist=64,nprobe=8)");
        assert_eq!(IndexSpec::Flat.label(), "flat");
    }

    #[test]
    fn hnsw_backend_retrieves_the_same_fact_under_both_storages() {
        let (chunks, subject) = fact_corpus(false);
        for quant in [Quantization::F32, Quantization::sq8()] {
            let db = db_over(&chunks, IndexSpec::hnsw(8, 32), quant);
            let out = db.retrieve_counted(&subject, 5);
            let found = holds_the_fact(&out.results);
            assert!(found, "HNSW ({}) missed the fact chunk", quant.name());
            assert!(out.work.graph_hops > 0, "no hops under {}", quant.name());
            let meta = db.index_meta();
            assert_eq!(meta.spec, IndexSpec::hnsw(8, 32));
            assert_eq!(meta.quant, quant);
            if quant.is_quantized() {
                assert!(out.work.quantized_scored > 0);
            } else {
                assert_eq!(out.work.quantized_scored, 0);
            }
        }
    }

    #[test]
    fn sq8_flat_db_matches_exact_flat_results() {
        let (chunks, subject) = fact_corpus(true);
        let db = db_over(&chunks, IndexSpec::Flat, Quantization::F32);
        let sq_db = db_over(&chunks, IndexSpec::Flat, Quantization::sq8());
        let exact: Vec<_> = db
            .retrieve(&subject, 3)
            .iter()
            .map(|r| r.hit.chunk)
            .collect();
        let out = sq_db.retrieve_counted(&subject, 3);
        let approx: Vec<_> = out.results.iter().map(|r| r.hit.chunk).collect();
        assert_eq!(exact, approx, "rerank should repair sq8 on this corpus");
        assert_eq!(out.work.quantized_scored, sq_db.len());
        assert!(holds_the_fact(&out.results));
    }

    #[test]
    fn index_spec_validation_catches_bad_hnsw_shapes() {
        assert!(IndexSpec::hnsw(16, 64).validate().is_ok());
        let err = IndexSpec::hnsw(1, 64).validate().unwrap_err();
        assert!(err.contains("m must be at least 2"), "got: {err}");
        let err = IndexSpec::hnsw(16, 0).validate().unwrap_err();
        assert!(err.contains("ef-search must be positive"), "got: {err}");
        let err = IndexSpec::Hnsw {
            m: 16,
            ef_construction: 4,
            ef_search: 8,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("must be >= m"), "got: {err}");
        assert_eq!(IndexSpec::hnsw(16, 64).label(), "hnsw(m=16,ef=64)");
    }

    #[test]
    fn top_k_clamps_to_db_size() {
        let (db, query, _) = build_db();
        let results = db.retrieve(&query, 10_000);
        assert_eq!(results.len(), db.len());
    }
}
