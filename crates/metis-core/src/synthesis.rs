//! Synthesis pipelines: `stuff`, `map_rerank`, `map_reduce` (Fig. 3).
//!
//! Given a configuration and the retrieved chunks, a pipeline assembles the
//! LLM call structure and runs the generation model to produce the actual
//! answer tokens. The result is a [`SynthesisPlan`]: the quality outcome
//! (answer + coverage) plus the exact prompt/output token counts of every
//! call, which the runner feeds to the serving engine for timing.
//!
//! Quality and timing are decoupled on purpose: the generation model decides
//! *what* comes out of each call, the engine decides *when* — matching the
//! real system, where the tokens an LLM emits do not depend on queueing.

use metis_llm::{GenerationModel, QueryTruth};
use metis_text::{AnnotatedText, FactSpan, TokenId};
use metis_vectordb::RetrievalResult;

use crate::config::{RagConfig, SynthesisMethod};
use crate::memory::PROMPT_OVERHEAD;

/// One LLM call of a plan, sized for the engine.
#[derive(Clone, Copy, Debug)]
pub struct PlannedCall {
    /// Prompt tokens (context + query + instruction overhead).
    pub prompt_tokens: u64,
    /// Output tokens the call will emit.
    pub output_tokens: u64,
}

/// A fully planned (and quality-resolved) synthesis for one query.
#[derive(Clone, Debug)]
pub struct SynthesisPlan {
    /// The configuration executed.
    pub config: RagConfig,
    /// First-wave calls: the single `stuff` call, or every map call.
    pub map_calls: Vec<PlannedCall>,
    /// The `map_reduce` reduce call, submitted after all maps finish.
    pub reduce_call: Option<PlannedCall>,
    /// The final answer tokens.
    pub answer: Vec<TokenId>,
    /// Fraction of needed facts the answer covers (diagnostic).
    pub coverage: f64,
}

impl SynthesisPlan {
    /// Total LLM calls in the plan.
    pub fn call_count(&self) -> usize {
        self.map_calls.len() + usize::from(self.reduce_call.is_some())
    }
}

/// Inputs shared by every synthesis call of one query.
#[derive(Clone, Copy)]
pub struct SynthesisInputs<'a> {
    /// The serving model's generation model.
    pub gen: &'a GenerationModel,
    /// The query's ground truth.
    pub truth: &'a QueryTruth,
    /// The query text tokens (appended to every prompt).
    pub query_tokens: &'a [TokenId],
    /// Boilerplate token pool for non-answer output words.
    pub boilerplate: &'a [TokenId],
}

/// Executes the configured synthesis over the retrieved chunks.
///
/// `retrieved` should contain at least `config.num_chunks` results when the
/// database allows; fewer are used as-is (the retriever returns what
/// exists). Deterministic in `seed`.
pub fn plan_synthesis(
    inputs: &SynthesisInputs<'_>,
    config: &RagConfig,
    retrieved: &[RetrievalResult],
    seed: u64,
) -> SynthesisPlan {
    // The one shared clamp (`RagConfig::effective_chunks`): the runner times
    // the engine against the same count the quality path consumes here.
    let k = config.effective_chunks(retrieved.len());
    let chunks = &retrieved[..k];
    match config.synthesis {
        SynthesisMethod::Stuff => stuff(inputs, config, chunks, seed),
        SynthesisMethod::MapRerank => map_rerank(inputs, config, chunks, seed),
        SynthesisMethod::MapReduce => map_reduce(inputs, config, chunks, seed),
    }
}

// `stuff`, `map_rerank` and the reduce call pass a context length that holds
// the query already, so it is counted twice (ROADMAP item 22c; kept as is).
fn prompt_len(context_tokens: usize, query_tokens: usize) -> u64 {
    context_tokens as u64 + query_tokens as u64 + PROMPT_OVERHEAD
}

/// One call over every chunk and then the query, laid end to end. The
/// generation model reads only the context's length and fact spans, so
/// those are summed and shifted here instead of concatenating the text.
fn stuff(
    inputs: &SynthesisInputs<'_>,
    config: &RagConfig,
    chunks: &[RetrievalResult],
    seed: u64,
) -> SynthesisPlan {
    let mut len = 0;
    let mut spans = Vec::new();
    for c in chunks {
        spans.extend(c.text.spans().iter().map(|s| FactSpan {
            start: s.start + len,
            ..*s
        }));
        len += c.text.len();
    }
    len += inputs.query_tokens.len();
    let out = inputs.gen.answer_over(
        seed,
        inputs.truth,
        len,
        &spans,
        inputs.boilerplate,
        chunks.len(),
    );
    SynthesisPlan {
        config: *config,
        map_calls: vec![PlannedCall {
            prompt_tokens: prompt_len(len, inputs.query_tokens.len()),
            output_tokens: out.tokens.len().max(1) as u64,
        }],
        reduce_call: None,
        answer: out.tokens,
        coverage: out.coverage,
    }
}

/// One call per chunk over that chunk and then the query, read as `stuff`
/// reads its context: the chunk's spans are already at their offsets.
fn map_rerank(
    inputs: &SynthesisInputs<'_>,
    config: &RagConfig,
    chunks: &[RetrievalResult],
    seed: u64,
) -> SynthesisPlan {
    let mut calls = Vec::with_capacity(chunks.len());
    let mut best: Option<(f64, Vec<TokenId>, f64)> = None;
    for (i, c) in chunks.iter().enumerate() {
        let len = c.text.len() + inputs.query_tokens.len();
        let out = inputs.gen.answer_over(
            seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            inputs.truth,
            len,
            c.text.spans(),
            inputs.boilerplate,
            1,
        );
        calls.push(PlannedCall {
            prompt_tokens: prompt_len(len, inputs.query_tokens.len()),
            output_tokens: out.tokens.len().max(1) as u64,
        });
        // Keep the highest-confidence single-chunk answer (Fig. 3b).
        let better = best
            .as_ref()
            .is_none_or(|(conf, _, _)| out.confidence > *conf);
        if better {
            best = Some((out.confidence, out.tokens, out.coverage));
        }
    }
    let (_, answer, coverage) = best.unwrap_or((0.0, Vec::new(), 0.0));
    SynthesisPlan {
        config: *config,
        map_calls: calls,
        reduce_call: None,
        answer,
        coverage,
    }
}

fn map_reduce(
    inputs: &SynthesisInputs<'_>,
    config: &RagConfig,
    chunks: &[RetrievalResult],
    seed: u64,
) -> SynthesisPlan {
    let budget = config.intermediate_length.max(1) as usize;
    let mut calls = Vec::with_capacity(chunks.len());
    let mut reduce_context = AnnotatedText::new();
    for (i, c) in chunks.iter().enumerate() {
        let summary = inputs.gen.summarize(
            seed.wrapping_add(i as u64).wrapping_mul(0xC2B2_AE35),
            inputs.truth,
            &c.text,
            budget,
        );
        calls.push(PlannedCall {
            prompt_tokens: prompt_len(c.text.len(), inputs.query_tokens.len()),
            output_tokens: summary.text.len().max(1) as u64,
        });
        reduce_context.push_text(&summary.text);
    }
    reduce_context.push_tokens(inputs.query_tokens);
    let out = inputs.gen.answer(
        seed ^ 0xED0C,
        inputs.truth,
        &reduce_context,
        inputs.boilerplate,
        chunks.len(),
    );
    SynthesisPlan {
        config: *config,
        map_calls: calls,
        reduce_call: Some(PlannedCall {
            prompt_tokens: prompt_len(reduce_context.len(), inputs.query_tokens.len()),
            output_tokens: out.tokens.len().max(1) as u64,
        }),
        answer: out.tokens,
        coverage: out.coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_datasets::{build_dataset, DatasetKind};
    use metis_llm::{GenModelConfig, GenerationModel, ModelSpec};
    use metis_metrics::f1_score;

    struct Fixture {
        dataset: metis_datasets::Dataset,
        gen: GenerationModel,
    }

    fn fixture(kind: DatasetKind) -> Fixture {
        Fixture {
            dataset: build_dataset(kind, 12, 77),
            gen: GenerationModel::new(&ModelSpec::mistral_7b_awq(), GenModelConfig::default()),
        }
    }

    fn mean_f1(fx: &Fixture, config: RagConfig) -> f64 {
        let mut sum = 0.0;
        for (i, q) in fx.dataset.queries.iter().enumerate() {
            let retrieved = fx
                .dataset
                .db
                .retrieve(&q.tokens, config.num_chunks as usize);
            let inputs = SynthesisInputs {
                gen: &fx.gen,
                truth: &q.truth,
                query_tokens: &q.tokens,
                boilerplate: &fx.dataset.boilerplate,
            };
            let plan = plan_synthesis(&inputs, &config, &retrieved, 1000 + i as u64);
            sum += f1_score(&plan.answer, &q.gold_answer());
        }
        sum / fx.dataset.queries.len() as f64
    }

    /// The concatenating `stuff` that `stuff` replaced: it builds the
    /// context text and answers over it. The oracle for the span reading.
    fn stuff_by_concatenation(
        inputs: &SynthesisInputs<'_>,
        config: &RagConfig,
        chunks: &[RetrievalResult],
        seed: u64,
    ) -> SynthesisPlan {
        let mut context = AnnotatedText::new();
        for c in chunks {
            context.push_text(&c.text);
        }
        context.push_tokens(inputs.query_tokens);
        let out = inputs.gen.answer(
            seed,
            inputs.truth,
            &context,
            inputs.boilerplate,
            chunks.len(),
        );
        SynthesisPlan {
            config: *config,
            map_calls: vec![PlannedCall {
                prompt_tokens: prompt_len(context.len(), inputs.query_tokens.len()),
                output_tokens: out.tokens.len().max(1) as u64,
            }],
            reduce_call: None,
            answer: out.tokens,
            coverage: out.coverage,
        }
    }

    /// The copy-on-write `map_rerank` that `map_rerank` replaced.
    fn map_rerank_by_concatenation(
        inputs: &SynthesisInputs<'_>,
        config: &RagConfig,
        chunks: &[RetrievalResult],
        seed: u64,
    ) -> SynthesisPlan {
        let mut calls = Vec::with_capacity(chunks.len());
        let mut best: Option<(f64, Vec<TokenId>, f64)> = None;
        for (i, c) in chunks.iter().enumerate() {
            let mut context = c.text.clone();
            context.push_tokens(inputs.query_tokens);
            let out = inputs.gen.answer(
                seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                inputs.truth,
                &context,
                inputs.boilerplate,
                1,
            );
            calls.push(PlannedCall {
                prompt_tokens: prompt_len(context.len(), inputs.query_tokens.len()),
                output_tokens: out.tokens.len().max(1) as u64,
            });
            let better = best
                .as_ref()
                .is_none_or(|(conf, _, _)| out.confidence > *conf);
            if better {
                best = Some((out.confidence, out.tokens, out.coverage));
            }
        }
        let (_, answer, coverage) = best.unwrap_or((0.0, Vec::new(), 0.0));
        SynthesisPlan {
            config: *config,
            map_calls: calls,
            reduce_call: None,
            answer,
            coverage,
        }
    }

    /// Everything a plan decides, in comparable form.
    fn outcome(plan: &SynthesisPlan) -> (Vec<TokenId>, u64, Vec<(u64, u64)>) {
        let calls = plan.map_calls.iter().chain(&plan.reduce_call);
        let calls = calls.map(|c| (c.prompt_tokens, c.output_tokens)).collect();
        (plan.answer.clone(), plan.coverage.to_bits(), calls)
    }

    /// `plan_synthesis` as it was before contexts were read as spans.
    /// `map_reduce` did not change, so against it a plan is checked to be
    /// deterministic.
    fn plan_by_concatenation(
        inputs: &SynthesisInputs<'_>,
        config: &RagConfig,
        retrieved: &[RetrievalResult],
        seed: u64,
    ) -> SynthesisPlan {
        let chunks = &retrieved[..config.effective_chunks(retrieved.len())];
        match config.synthesis {
            SynthesisMethod::Stuff => stuff_by_concatenation(inputs, config, chunks, seed),
            SynthesisMethod::MapRerank => map_rerank_by_concatenation(inputs, config, chunks, seed),
            SynthesisMethod::MapReduce => map_reduce(inputs, config, chunks, seed),
        }
    }

    #[test]
    fn reading_contexts_as_spans_plans_what_concatenating_them_did() {
        // Beside the default model, one whose extraction odds move with the
        // context length at every length (lost-in-the-middle from the first
        // token, no dilution grace or halo), so that a length off by the
        // query's few tokens shows in the answers.
        let steep = GenModelConfig {
            litm_onset: 1.0,
            litm_max: 1.0,
            dilution_grace: 1.0,
            dilution_halo: 0.0,
            ..GenModelConfig::default()
        };
        let steep = GenerationModel::new(&ModelSpec::mistral_7b_awq(), steep);
        for kind in DatasetKind::all() {
            let fx = fixture(kind);
            let db_len = fx.dataset.db.len();
            let mut configs = vec![RagConfig::map_reduce(6, 60)];
            for k in [1, 2, 5, 12, db_len as u32] {
                configs.extend([RagConfig::stuff(k), RagConfig::map_rerank(k)]);
            }
            for (i, q) in fx.dataset.queries.iter().enumerate() {
                let retrieved = fx.dataset.db.retrieve(&q.tokens, db_len);
                for (gen, seed) in [(&fx.gen, 500 + i as u64), (&steep, 900 + i as u64)] {
                    let inputs = SynthesisInputs {
                        gen,
                        truth: &q.truth,
                        query_tokens: &q.tokens,
                        boilerplate: &fx.dataset.boilerplate,
                    };
                    for config in &configs {
                        assert_eq!(
                            outcome(&plan_synthesis(&inputs, config, &retrieved, seed)),
                            outcome(&plan_by_concatenation(&inputs, config, &retrieved, seed)),
                            "{kind:?} query {i}: {config:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stuff_plan_has_single_call_sized_to_context() {
        let fx = fixture(DatasetKind::Musique);
        let q = &fx.dataset.queries[0];
        let retrieved = fx.dataset.db.retrieve(&q.tokens, 4);
        let inputs = SynthesisInputs {
            gen: &fx.gen,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &fx.dataset.boilerplate,
        };
        let plan = plan_synthesis(&inputs, &RagConfig::stuff(4), &retrieved, 3);
        assert_eq!(plan.call_count(), 1);
        let ctx: u64 = retrieved.iter().map(|r| r.text.len() as u64).sum();
        assert_eq!(
            plan.map_calls[0].prompt_tokens,
            ctx + 2 * q.tokens.len() as u64 + PROMPT_OVERHEAD
        );
    }

    #[test]
    fn map_rerank_plans_one_call_per_chunk() {
        let fx = fixture(DatasetKind::Squad);
        let q = &fx.dataset.queries[0];
        let retrieved = fx.dataset.db.retrieve(&q.tokens, 5);
        let inputs = SynthesisInputs {
            gen: &fx.gen,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &fx.dataset.boilerplate,
        };
        let plan = plan_synthesis(&inputs, &RagConfig::map_rerank(5), &retrieved, 3);
        assert_eq!(plan.map_calls.len(), 5);
        assert!(plan.reduce_call.is_none());
    }

    #[test]
    fn map_reduce_has_reduce_call_over_summaries() {
        let fx = fixture(DatasetKind::Qmsum);
        let q = &fx.dataset.queries[0];
        let retrieved = fx.dataset.db.retrieve(&q.tokens, 6);
        let inputs = SynthesisInputs {
            gen: &fx.gen,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &fx.dataset.boilerplate,
        };
        let plan = plan_synthesis(&inputs, &RagConfig::map_reduce(6, 80), &retrieved, 3);
        assert_eq!(plan.map_calls.len(), 6);
        let reduce = plan.reduce_call.expect("reduce call");
        // The reduce prompt is far shorter than the stuff prompt would be.
        let stuff_ctx: u64 = retrieved.iter().map(|r| r.text.len() as u64).sum();
        assert!(reduce.prompt_tokens < stuff_ctx / 2);
        // Map outputs respect the intermediate-length budget.
        for c in &plan.map_calls {
            assert!(c.output_tokens <= 80);
        }
    }

    #[test]
    fn map_rerank_fails_joint_queries_where_stuff_succeeds() {
        // Fig. 4a: cross-chunk queries need joint reasoning, which
        // map_rerank's isolated calls cannot do.
        let fx = fixture(DatasetKind::Musique);
        let joint: Vec<_> = fx
            .dataset
            .queries
            .iter()
            .filter(|q| q.profile.joint)
            .collect();
        assert!(!joint.is_empty());
        let mut rerank_f1 = 0.0;
        let mut stuff_f1 = 0.0;
        for (i, q) in joint.iter().enumerate() {
            let retrieved = fx.dataset.db.retrieve(&q.tokens, 8);
            let inputs = SynthesisInputs {
                gen: &fx.gen,
                truth: &q.truth,
                query_tokens: &q.tokens,
                boilerplate: &fx.dataset.boilerplate,
            };
            let r = plan_synthesis(
                &inputs,
                &RagConfig::map_rerank(8),
                &retrieved,
                50 + i as u64,
            );
            let s = plan_synthesis(&inputs, &RagConfig::stuff(8), &retrieved, 50 + i as u64);
            rerank_f1 += f1_score(&r.answer, &q.gold_answer());
            stuff_f1 += f1_score(&s.answer, &q.gold_answer());
        }
        assert!(
            stuff_f1 > rerank_f1 + 0.06 * joint.len() as f64,
            "stuff {stuff_f1:.2} vs rerank {rerank_f1:.2} over {} queries",
            joint.len()
        );
    }

    #[test]
    fn quality_rises_then_falls_with_chunks() {
        // Fig. 4b: too few chunks miss evidence; too many dilute it.
        let fx = fixture(DatasetKind::Musique);
        let few = mean_f1(&fx, RagConfig::stuff(1));
        let right = mean_f1(&fx, RagConfig::stuff(6));
        let excess = mean_f1(&fx, RagConfig::stuff(35));
        assert!(right > few + 0.05, "few={few:.3} right={right:.3}");
        assert!(right > excess, "right={right:.3} excess={excess:.3}");
    }

    #[test]
    fn tiny_intermediate_length_hurts_map_reduce() {
        // Fig. 4c: summaries too short to carry the facts lose quality.
        let fx = fixture(DatasetKind::Qmsum);
        let starved = mean_f1(&fx, RagConfig::map_reduce(8, 4));
        let enough = mean_f1(&fx, RagConfig::map_reduce(8, 90));
        assert!(
            enough > starved + 0.10,
            "starved={starved:.3} enough={enough:.3}"
        );
    }

    #[test]
    fn engine_and_quality_paths_share_one_chunk_clamp() {
        // The runner retrieves `effective_chunks(db.len())` chunks and the
        // plan consumes `effective_chunks(retrieved.len())`: for every
        // request size (including 0 and beyond the corpus) the two counts
        // must be identical, so engine-timed work equals quality-path work.
        let fx = fixture(DatasetKind::Squad);
        let q = &fx.dataset.queries[0];
        let inputs = SynthesisInputs {
            gen: &fx.gen,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &fx.dataset.boilerplate,
        };
        for requested in [0u32, 3, 10_000] {
            let cfg = RagConfig::map_rerank(requested);
            let k = cfg.effective_chunks(fx.dataset.db.len());
            let retrieved = fx.dataset.db.retrieve(&q.tokens, k);
            assert_eq!(retrieved.len(), k, "retriever returned what exists");
            let plan = plan_synthesis(&inputs, &cfg, &retrieved, 1);
            // map_rerank plans exactly one call per consumed chunk.
            assert_eq!(plan.map_calls.len(), cfg.effective_chunks(retrieved.len()));
            assert_eq!(plan.map_calls.len(), k);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let fx = fixture(DatasetKind::FinSec);
        let q = &fx.dataset.queries[1];
        let retrieved = fx.dataset.db.retrieve(&q.tokens, 6);
        let inputs = SynthesisInputs {
            gen: &fx.gen,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &fx.dataset.boilerplate,
        };
        let a = plan_synthesis(&inputs, &RagConfig::map_reduce(6, 60), &retrieved, 9);
        let b = plan_synthesis(&inputs, &RagConfig::map_reduce(6, 60), &retrieved, 9);
        assert_eq!(a.answer, b.answer);
        let prompts = |p: &SynthesisPlan| -> Vec<u64> {
            let calls = p.map_calls.iter().chain(&p.reduce_call);
            calls.map(|c| c.prompt_tokens).collect()
        };
        assert_eq!(prompts(&a), prompts(&b));
    }
}
