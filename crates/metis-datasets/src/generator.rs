//! The corpus + query generator.
//!
//! For every query the generator builds a private *document* on the query's
//! own topic, plants the needed facts at spread-out positions, surrounds
//! each fact with repeated *subject* words that the query text echoes (the
//! retrieval signal), splits all documents into fixed-size chunks, and
//! indexes everything in one shared vector database — so retrieving for one
//! query competes against every other query's chunks, exactly like the
//! paper's per-dataset corpora.

use std::sync::Arc;

use metis_embed::{Embedder, HashEmbed};
use metis_llm::{BaseFact, DerivedFact, QueryTruth};
use metis_text::{
    AnnotatedText, ChunkId, Chunker, ChunkerConfig, FactId, TextGen, TokenChunk, TokenId,
    Tokenizer, TopicVocab,
};
use metis_vectordb::{IndexSpec, Quantization, VectorDb};

use crate::dataset::Dataset;
use crate::kinds::DatasetKind;
use crate::profile::{Complexity, TrueProfile};
use crate::query::{QueryId, QuerySpec};

const QUESTION_WORDS: &[&str] = &[
    "what",
    "which",
    "when",
    "where",
    "why",
    "how",
    "compare",
    "identify",
    "list",
    "summarize",
    "is",
    "the",
    "of",
    "for",
    "between",
];

/// Number of distinct boilerplate words the generation model may emit.
const BOILERPLATE_WORDS: usize = 24;

/// Builds one synthetic dataset with `num_queries` queries.
///
/// Deterministic in `(kind, num_queries, seed)`.
pub fn build_dataset(kind: DatasetKind, num_queries: usize, seed: u64) -> Dataset {
    build_dataset_full(
        kind,
        num_queries,
        seed,
        Arc::new(HashEmbed::default()),
        IndexSpec::Flat,
    )
}

/// [`build_dataset`] with a caller-chosen embedding model (used by the
/// §A.2 embedding-sensitivity experiment).
pub fn build_dataset_with_embedder(
    kind: DatasetKind,
    num_queries: usize,
    seed: u64,
    embedder: Arc<dyn Embedder>,
) -> Dataset {
    build_dataset_full(kind, num_queries, seed, embedder, IndexSpec::Flat)
}

/// [`build_dataset`] with a caller-chosen retrieval index (the corpus and
/// queries are identical for every index; only the search structure built
/// over the embeddings differs).
pub fn build_dataset_with_index(
    kind: DatasetKind,
    num_queries: usize,
    seed: u64,
    index: IndexSpec,
) -> Dataset {
    build_dataset_full(
        kind,
        num_queries,
        seed,
        Arc::new(HashEmbed::default()),
        index,
    )
}

/// [`build_dataset_with_index`] with a caller-chosen vector storage scheme
/// (exact f32 or sq8 scalar quantization) on top of the index choice.
pub fn build_dataset_with_spec(
    kind: DatasetKind,
    num_queries: usize,
    seed: u64,
    index: IndexSpec,
    quant: Quantization,
) -> Dataset {
    build_dataset_impl(
        kind,
        num_queries,
        seed,
        Arc::new(HashEmbed::default()),
        index,
        quant,
    )
}

/// Fully parameterized dataset construction: embedding model and retrieval
/// index both caller-chosen.
fn build_dataset_full(
    kind: DatasetKind,
    num_queries: usize,
    seed: u64,
    embedder: Arc<dyn Embedder>,
    index: IndexSpec,
) -> Dataset {
    build_dataset_impl(kind, num_queries, seed, embedder, index, Quantization::F32)
}

fn build_dataset_impl(
    kind: DatasetKind,
    num_queries: usize,
    seed: u64,
    embedder: Arc<dyn Embedder>,
    index: IndexSpec,
    quant: Quantization,
) -> Dataset {
    let params = kind.params();
    let mut tokenizer = Tokenizer::new();
    let mut gen = TextGen::new(seed ^ 0x0DA7_A5E7);

    let question_pool: Vec<TokenId> = QUESTION_WORDS
        .iter()
        .map(|w| tokenizer.vocab_mut().intern(w))
        .collect();
    let boilerplate: Vec<TokenId> = (0..BOILERPLATE_WORDS)
        .map(|i| tokenizer.vocab_mut().intern_fmt(format_args!("boiler-{i}")))
        .collect();

    let mut next_fact: u64 = 1;
    let mut queries = Vec::with_capacity(num_queries);
    let mut all_chunks: Vec<TokenChunk> = Vec::new();

    // Every later topic reuses the common pool query 0 interns.
    let mut first: Option<TopicVocab> = None;
    for q in 0..num_queries {
        let name = format!("{}-q{q}", params.name);
        let topic = match &first {
            Some(first) => first.sibling(&mut tokenizer, &name, params.topic_width),
            None => {
                let topic = TopicVocab::build(&mut tokenizer, &name, params.topic_width, 96);
                first.insert(topic).clone()
            }
        };
        let pieces = gen.range(params.pieces.0 as usize, params.pieces.1 as usize) as u32;
        // Document length grows with the number of needed facts (multi-hop
        // questions draw on longer source material), jittered within the
        // Table-1 band. This is what makes retrieval *depth* query-dependent:
        // hard queries hide weak facts deep in long documents.
        let doc_len = if params.pieces.1 > params.pieces.0 {
            let (lo, hi) = params.doc_tokens;
            let span = f64::from(params.pieces.1 - params.pieces.0);
            let frac = f64::from(pieces - params.pieces.0) / span;
            let centre = lo as f64 + (hi - lo) as f64 * frac;
            let jitter = 0.8 + 0.4 * gen.range(0, 1000) as f64 / 1000.0;
            ((centre * jitter) as usize).clamp(lo, hi)
        } else {
            gen.range(params.doc_tokens.0, params.doc_tokens.1)
        };
        let joint = pieces > 1 && gen.chance(params.joint_prob);
        // Aggregating many pieces of information is inherently a deep-
        // reasoning task, whatever the phrasing; below that, complexity
        // follows the dataset's question style.
        let complexity = if pieces >= 4 || gen.chance(params.high_complexity_prob) {
            Complexity::High
        } else {
            Complexity::Low
        };

        // Base facts with their subject words.
        let mut base = Vec::new();
        let mut subjects: Vec<Vec<TokenId>> = Vec::new();
        for _ in 0..pieces {
            let id = FactId(next_fact);
            next_fact += 1;
            let len = gen.range(params.fact_len.0, params.fact_len.1);
            let phrase = gen.fact_phrase(&mut tokenizer, "fact", len);
            let subject = gen.fact_phrase(&mut tokenizer, "subj", params.subject_len);
            subjects.push(subject);
            base.push(BaseFact {
                id,
                answer: phrase,
                in_answer: params.base_in_answer || !joint,
            });
        }

        // Joint-reasoning conclusion over all base facts.
        let derived = if joint {
            let id = FactId(next_fact);
            next_fact += 1;
            let len = gen.range(params.derived_answer_len.0, params.derived_answer_len.1);
            vec![DerivedFact {
                id,
                components: base.iter().map(|b| b.id).collect(),
                answer: gen.fact_phrase(&mut tokenizer, "derived", len),
            }]
        } else {
            Vec::new()
        };

        // Build the document: one segment per fact, fact planted at a random
        // interior position surrounded by its repeated subject block.
        let mut doc = AnnotatedText::new();
        let seg = doc_len / pieces.max(1) as usize;
        for (i, fact) in base.iter().enumerate() {
            let pre = gen.range(seg / 10, seg * 6 / 10);
            doc.push_tokens(&gen.filler(&topic, pre));
            // Weakly mentioned facts name their subject once instead of
            // `subject_repeats` times (see `GenParams::weak_fact_prob`), so
            // their chunk ranks below every strongly-subject-bearing chunk
            // but still above plain topic filler — retrieval must go deep to
            // find it, yet the paper's 3× depth leeway remains sufficient.
            let repeats = if gen.chance(params.weak_fact_prob) {
                1
            } else {
                params.subject_repeats
            };
            for _ in 0..repeats {
                doc.push_tokens(&subjects[i]);
            }
            doc.push_fact(fact.id, &fact.answer.clone());
            let used = pre + repeats * params.subject_len + fact.answer.len();
            doc.push_tokens(&gen.filler(&topic, seg.saturating_sub(used)));
        }

        // Query text: each fact's subject words + topic + question words.
        let mut qtokens = Vec::new();
        for s in &subjects {
            qtokens.extend_from_slice(s);
        }
        // A real question names its domain repeatedly ("NVIDIA's quarterly
        // operating costs..."): enough topic words that the query's own
        // document outranks foreign documents even for weakly-mentioned
        // facts.
        qtokens.extend(gen.filler(&topic, 16));
        for _ in 0..4 {
            qtokens.push(question_pool[gen.range(0, question_pool.len() - 1)]);
        }

        // True summarization budget: enough for ~2 facts plus framing.
        let avg_fact = (params.fact_len.0 + params.fact_len.1) / 2;
        let lo = (2 * (avg_fact + 2)).max(10) as u32;
        let hi = (lo + 30 + pieces * 8).min(300);
        let profile = TrueProfile {
            complexity,
            joint,
            pieces,
            summary_range: (lo, hi),
        };
        debug_assert!(profile.is_well_formed(), "bad profile: {profile:?}");

        queries.push(QuerySpec {
            id: QueryId(q as u64),
            tokens: qtokens,
            truth: QueryTruth { base, derived },
            profile,
            context_tokens: doc.len(),
        });

        // Chunk the document with a small overlap so boundary facts survive,
        // then append with globally dense chunk ids.
        let overlap = (params.chunk_size / 8).min(64);
        let chunks = Chunker::new(ChunkerConfig {
            chunk_size: params.chunk_size,
            overlap,
        })
        .split(&doc);
        for c in chunks {
            all_chunks.push(TokenChunk {
                id: ChunkId(all_chunks.len() as u32),
                text: c.text,
            });
        }
    }

    let db = VectorDb::build_with_spec(
        &all_chunks,
        embedder,
        params.description,
        params.chunk_size,
        index,
        quant,
    );
    Dataset {
        kind,
        db,
        queries,
        boilerplate,
        tokenizer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = build_dataset(DatasetKind::Squad, 5, 1);
        let b = build_dataset(DatasetKind::Squad, 5, 1);
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.gold_answer(), y.gold_answer());
        }
        assert_eq!(a.db.len(), b.db.len());
    }

    #[test]
    fn squad_queries_are_single_fact() {
        let d = build_dataset(DatasetKind::Squad, 10, 2);
        for q in &d.queries {
            assert_eq!(q.profile.pieces, 1);
            assert_eq!(q.truth.base.len(), 1);
        }
    }

    #[test]
    fn musique_queries_mostly_joint() {
        let d = build_dataset(DatasetKind::Musique, 40, 3);
        let joint = d.queries.iter().filter(|q| q.profile.joint).count();
        // Multi-piece queries are always joint; ~1/4 are single-hop.
        assert!(joint > 20, "only {joint}/40 joint");
        // Joint implies a derived conclusion in the truth.
        for q in &d.queries {
            assert_eq!(q.profile.joint, q.truth.requires_joint());
        }
    }

    #[test]
    fn profiles_are_well_formed() {
        for kind in DatasetKind::all() {
            let d = build_dataset(kind, 20, 4);
            for q in &d.queries {
                assert!(q.profile.is_well_formed(), "{kind:?} {:?}", q.profile);
                assert_eq!(q.profile.pieces as usize, q.truth.pieces());
            }
        }
    }

    #[test]
    fn every_needed_fact_is_findable_in_db() {
        for kind in DatasetKind::all() {
            let d = build_dataset(kind, 10, 5);
            // Union of facts present in all chunks.
            let mut present = std::collections::HashSet::new();
            for i in 0..d.db.len() {
                let c = d.db.store().get(metis_text::ChunkId(i as u32)).unwrap();
                for f in c.fact_ids() {
                    present.insert(f);
                }
            }
            for q in &d.queries {
                for b in &q.truth.base {
                    assert!(
                        present.contains(&b.id),
                        "{kind:?}: fact {:?} lost in chunking",
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn retrieval_finds_needed_facts_within_3x_pieces() {
        // The paper's retriever fetches 2–3× the minimally needed chunks
        // (§4.2 footnote); our generator must make that sufficient.
        for kind in DatasetKind::all() {
            let d = build_dataset(kind, 15, 6);
            let mut total_needed = 0usize;
            let mut total_found = 0usize;
            for q in &d.queries {
                let k = (q.profile.pieces as usize) * 3;
                let results = d.db.retrieve(&q.tokens, k);
                let mut found: std::collections::HashSet<_> = std::collections::HashSet::new();
                for r in &results {
                    for f in r.text.fact_ids() {
                        found.insert(f);
                    }
                }
                for b in &q.truth.base {
                    total_needed += 1;
                    if found.contains(&b.id) {
                        total_found += 1;
                    }
                }
            }
            let recall = total_found as f64 / total_needed as f64;
            assert!(
                recall >= 0.85,
                "{kind:?}: retrieval recall@3x = {recall:.2}"
            );
        }
    }

    #[test]
    fn ivf_dataset_shares_the_corpus_and_keeps_recall_close() {
        let flat = build_dataset(DatasetKind::Musique, 10, 6);
        let ivf = build_dataset_with_index(DatasetKind::Musique, 10, 6, IndexSpec::ivf(16, 12));
        assert_eq!(flat.db.len(), ivf.db.len(), "same corpus, different index");
        assert_eq!(ivf.db.index_meta().spec, IndexSpec::ivf(16, 12));
        // At generous nprobe the IVF index finds most of what flat finds.
        let mut overlap = 0usize;
        let mut total = 0usize;
        for q in &ivf.queries {
            let a: std::collections::HashSet<_> = flat
                .db
                .retrieve(&q.tokens, 5)
                .iter()
                .map(|r| r.hit.chunk)
                .collect();
            for r in ivf.db.retrieve(&q.tokens, 5) {
                total += 1;
                if a.contains(&r.hit.chunk) {
                    overlap += 1;
                }
            }
        }
        assert!(
            overlap as f64 / total as f64 > 0.7,
            "IVF@5 overlap with flat only {overlap}/{total}"
        );
    }

    #[test]
    fn gold_answers_are_nonempty_and_bounded() {
        for kind in DatasetKind::all() {
            let d = build_dataset(kind, 20, 7);
            for q in &d.queries {
                let gold = q.gold_answer();
                assert!(!gold.is_empty(), "{kind:?}: empty gold answer");
                assert!(gold.len() <= 80, "{kind:?}: gold too long: {}", gold.len());
            }
        }
    }

    #[test]
    fn context_lengths_match_table1() {
        let d = build_dataset(DatasetKind::FinSec, 20, 8);
        for q in &d.queries {
            assert!(
                q.context_tokens >= 3_500 && q.context_tokens <= 11_000,
                "FinSec context {} outside Table-1 band",
                q.context_tokens
            );
        }
    }

    #[test]
    fn boilerplate_disjoint_from_gold_answers() {
        let d = build_dataset(DatasetKind::Qmsum, 10, 9);
        let boiler: std::collections::HashSet<_> = d.boilerplate.iter().copied().collect();
        for q in &d.queries {
            for t in q.gold_answer() {
                assert!(!boiler.contains(&t));
            }
        }
    }
}
