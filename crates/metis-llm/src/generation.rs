//! Fact-extraction generation model.
//!
//! The paper's quality results (Figures 4, 5, 10, 13–17) are driven by three
//! mechanisms, all of which this module implements explicitly:
//!
//! 1. **Evidence coverage** — an answer can only contain facts whose
//!    evidence is present in the LLM call's context (retrieval recall vs
//!    `num_chunks`).
//! 2. **Lost-in-the-middle** (§2, §3, [Liu et al. 2024]) — the probability
//!    of extracting a fact decays for facts buried in the middle of long
//!    contexts, so piling on chunks eventually *hurts* quality.
//! 3. **Joint reasoning** — some conclusions (comparisons, aggregations,
//!    multi-hop hops) are *derived facts* that the model can only produce
//!    when all component facts are visible in the *same* call; this is why
//!    `map_rerank` fails on cross-chunk queries while `stuff`/`map_reduce`
//!    succeed (Fig. 4a).
//!
//! A call emits a real token sequence (gold phrases for the facts it
//! extracted or derived, plus boilerplate tokens), which `metis-metrics`
//! scores with standard SQuAD-style token F1 — quality is *measured*, not
//! postulated.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metis_text::{AnnotatedText, FactId, FactSpan, TokenId};

use crate::spec::ModelSpec;

/// A fact the query directly needs, with its gold answer contribution.
#[derive(Clone, Debug)]
pub struct BaseFact {
    /// The planted fact's id.
    pub id: FactId,
    /// Gold tokens this fact contributes to the final answer.
    pub answer: Vec<TokenId>,
    /// Whether the fact's tokens appear in the final answer (intermediate
    /// hops of multi-hop questions are needed but not part of the answer).
    pub in_answer: bool,
}

/// A conclusion derivable only by joint reasoning over component facts.
#[derive(Clone, Debug)]
pub struct DerivedFact {
    /// Synthetic id of the derived conclusion (never planted in the corpus).
    pub id: FactId,
    /// Facts that must be co-visible in one call to derive this.
    pub components: Vec<FactId>,
    /// Gold tokens the derivation contributes to the answer.
    pub answer: Vec<TokenId>,
}

/// Ground truth for one query: what evidence it needs and what the gold
/// answer is. Produced by the dataset generators, consumed by this model
/// and by the F1 scorer.
#[derive(Clone, Debug, Default)]
pub struct QueryTruth {
    /// Directly needed facts.
    pub base: Vec<BaseFact>,
    /// Joint-reasoning conclusions.
    pub derived: Vec<DerivedFact>,
}

impl QueryTruth {
    /// Whether `fact` is evidence this query needs: a base fact, or a
    /// component of a derived one.
    fn needs(&self, fact: FactId) -> bool {
        self.base.iter().any(|f| f.id == fact)
            || self.derived.iter().any(|d| d.components.contains(&fact))
    }

    /// Number of distinct pieces of information required (§4.1's
    /// "pieces of information" profile dimension).
    pub fn pieces(&self) -> usize {
        self.base.len()
    }

    /// Whether answering requires joint reasoning across facts.
    pub fn requires_joint(&self) -> bool {
        !self.derived.is_empty()
    }

    /// The gold answer token bag.
    pub fn gold_answer(&self) -> Vec<TokenId> {
        let mut out = Vec::new();
        for f in &self.base {
            if f.in_answer {
                out.extend_from_slice(&f.answer);
            }
        }
        for d in &self.derived {
            out.extend_from_slice(&d.answer);
        }
        out
    }
}

/// Tunable parameters of the generation model.
#[derive(Clone, Copy, Debug)]
pub struct GenModelConfig {
    /// Context length (tokens) at which lost-in-the-middle decay begins.
    pub litm_onset: f64,
    /// Decay depth gained per natural-log unit of context beyond the onset.
    pub litm_slope: f64,
    /// Maximum decay depth (cap on the mid-context dip).
    pub litm_max: f64,
    /// Dilution: extraction decays as `1/(1 + γ·ln(total/relevant))` where
    /// `relevant` is the needed evidence plus an attention halo around it.
    /// Models distractor confusion from over-retrieval (§3's "blindly
    /// retrieving more chunks than necessary risks diluting the relevance of
    /// actual important information"). Self-normalizing: a context sized to
    /// the evidence suffers no dilution regardless of absolute length.
    pub dilution_gamma: f64,
    /// Attention-halo tokens counted as relevant around each needed fact.
    pub dilution_halo: f64,
    /// Grace ratio: dilution only begins once total/relevant exceeds this
    /// (the paper's `[n, 3n]` retrieval range is the safe zone — a typical
    /// retriever over-fetches 2–3× on purpose, §4.2 footnote).
    pub dilution_grace: f64,
    /// Boilerplate tokens emitted per gold answer token (sets the F1 scale:
    /// more boilerplate, lower precision — real model outputs contain
    /// hedging and formatting that gold answers do not).
    pub fill_ratio: f64,
    /// Minimum boilerplate tokens per answer.
    pub fill_min: usize,
    /// Capability multiplier for summarization (map) calls, which are easier
    /// than question answering.
    pub summary_capability_boost: f64,
}

impl Default for GenModelConfig {
    fn default() -> Self {
        Self {
            litm_onset: 600.0,
            litm_slope: 0.10,
            litm_max: 0.50,
            dilution_gamma: 0.55,
            dilution_halo: 900.0,
            dilution_grace: 3.0,
            fill_ratio: 0.9,
            fill_min: 2,
            summary_capability_boost: 1.05,
        }
    }
}

/// Result of an answer-mode call.
#[derive(Clone, Debug)]
pub struct GenOutput {
    /// Emitted answer tokens (gold phrases + boilerplate).
    pub tokens: Vec<TokenId>,
    /// Facts (base and derived) the call managed to produce.
    pub extracted: BTreeSet<FactId>,
    /// Fraction of the query's needed facts this call produced, weighting
    /// derived facts equally with base facts.
    pub coverage: f64,
    /// Model self-confidence in `[0, 1]` (log-prob proxy), used by
    /// `map_rerank` to pick the best single-chunk answer.
    pub confidence: f64,
}

/// Result of a summarize-mode call.
#[derive(Clone, Debug)]
pub struct SummaryOutput {
    /// The summary text: preserved fact spans plus carried-over chunk words.
    pub text: AnnotatedText,
    /// Facts whose evidence survived into the summary.
    pub kept: BTreeSet<FactId>,
}

/// The fact-extraction generation model for one serving model.
#[derive(Clone, Debug)]
pub struct GenerationModel {
    capability: f64,
    reasoning: f64,
    config: GenModelConfig,
}

impl GenerationModel {
    /// Builds the generation model from a model spec.
    pub fn new(spec: &ModelSpec, config: GenModelConfig) -> Self {
        Self {
            capability: spec.capability,
            reasoning: spec.reasoning,
            config,
        }
    }

    /// Builds with default tuning.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        Self::new(spec, GenModelConfig::default())
    }

    /// The model's tuning parameters.
    pub fn config(&self) -> &GenModelConfig {
        &self.config
    }

    /// Lost-in-the-middle weight for a fact centred at `pos` of a `len`-token
    /// context: 1.0 at the edges, dipping in the middle, with the dip depth
    /// growing logarithmically with context length.
    pub fn litm_weight(&self, pos: usize, len: usize) -> f64 {
        if len == 0 || (len as f64) <= self.config.litm_onset {
            return 1.0;
        }
        let depth = (self.config.litm_slope * (len as f64 / self.config.litm_onset).ln())
            .min(self.config.litm_max);
        let r = pos as f64 / len as f64;
        1.0 - depth * (4.0 * r * (1.0 - r))
    }

    /// Dilution factor for a `len`-token context of which `relevant` tokens
    /// (evidence + halo) matter to the query.
    pub fn dilution(&self, len: usize, relevant: f64) -> f64 {
        let relevant = relevant.max(1.0).min(len as f64);
        let ratio = len as f64 / relevant / self.config.dilution_grace.max(1.0);
        if ratio <= 1.0 {
            return 1.0;
        }
        1.0 / (1.0 + self.config.dilution_gamma * ratio.ln())
    }

    /// Runs an answer-mode call: extract needed facts from `context`, derive
    /// joint conclusions, and emit an answer token sequence.
    ///
    /// `boilerplate` supplies the token pool for non-answer output words
    /// (provided by the dataset so it never collides with gold tokens).
    /// `segments` is the number of concatenated retrieval units in the
    /// context (chunks for `stuff`, summaries for the reduce call, 1 for a
    /// single-chunk call); the attention halo around each needed fact cannot
    /// exceed one segment, which is what makes over-retrieval dilute *any*
    /// synthesis method.
    pub fn answer(
        &self,
        seed: u64,
        truth: &QueryTruth,
        context: &AnnotatedText,
        boilerplate: &[TokenId],
        segments: usize,
    ) -> GenOutput {
        self.answer_over(
            seed,
            truth,
            context.len(),
            context.spans(),
            boilerplate,
            segments,
        )
    }

    /// [`answer`](Self::answer) over a context given only as what the
    /// call reads of it: its length in tokens and its fact spans, with
    /// positions counted from the context's start. Lets a caller answer
    /// over several texts laid end to end without concatenating them.
    pub fn answer_over(
        &self,
        seed: u64,
        truth: &QueryTruth,
        len: usize,
        spans: &[FactSpan],
        boilerplate: &[TokenId],
        segments: usize,
    ) -> GenOutput {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA05_3E1);

        // Relevant mass: each distinct needed fact present contributes its
        // span plus an attention halo, capped at one retrieval segment.
        let halo = self
            .config
            .dilution_halo
            .min(len as f64 / segments.max(1) as f64);
        let mut seen_relevant: BTreeSet<FactId> = BTreeSet::new();
        let mut relevant_tokens = 0.0f64;
        for span in spans {
            if truth.needs(span.fact) && seen_relevant.insert(span.fact) {
                relevant_tokens += span.len as f64 + halo;
            }
        }
        let dilution = self.dilution(len, relevant_tokens);

        // Extraction pass over every relevant span in the context.
        let mut extracted: BTreeSet<FactId> = BTreeSet::new();
        for span in spans {
            if !truth.needs(span.fact) || extracted.contains(&span.fact) {
                continue;
            }
            let centre = span.start + span.len / 2;
            let p = self.capability * self.litm_weight(centre, len) * dilution;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                extracted.insert(span.fact);
            }
        }

        // Joint-reasoning pass: derive conclusions whose components are all
        // visible in this same call.
        for d in &truth.derived {
            let have_all = d.components.iter().all(|c| extracted.contains(c));
            if have_all && rng.gen_bool(self.reasoning.clamp(0.0, 1.0)) {
                extracted.insert(d.id);
            }
        }

        // Emit the answer: gold phrases for produced facts + boilerplate.
        let mut tokens = Vec::new();
        for f in &truth.base {
            if f.in_answer && extracted.contains(&f.id) {
                tokens.extend_from_slice(&f.answer);
            }
        }
        for d in &truth.derived {
            if extracted.contains(&d.id) {
                tokens.extend_from_slice(&d.answer);
            }
        }
        let fill = self.config.fill_min + (tokens.len() as f64 * self.config.fill_ratio) as usize;
        if !boilerplate.is_empty() {
            for _ in 0..fill {
                tokens.push(boilerplate[rng.gen_range(0..boilerplate.len())]);
            }
        }

        // Coverage and confidence.
        let total = (truth.base.len() + truth.derived.len()).max(1) as f64;
        let produced = extracted
            .iter()
            .filter(|f| {
                truth.base.iter().any(|b| b.id == **f) || truth.derived.iter().any(|d| d.id == **f)
            })
            .count() as f64;
        let coverage = produced / total;
        // Log-prob-style confidence: high when the answer is grounded, with
        // small model noise.
        let noise: f64 = rng.gen_range(-0.05..0.05);
        let confidence = (0.15 + 0.8 * coverage + noise).clamp(0.0, 1.0);

        GenOutput {
            tokens,
            extracted,
            coverage,
            confidence,
        }
    }

    /// Runs a summarize-mode (map) call over one chunk: keep the
    /// query-relevant fact spans that fit in `budget` tokens, pad with words
    /// carried over from the chunk.
    pub fn summarize(
        &self,
        seed: u64,
        truth: &QueryTruth,
        chunk: &AnnotatedText,
        budget: usize,
    ) -> SummaryOutput {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x500A1);
        let len = chunk.len();
        let cap = (self.capability * self.config.summary_capability_boost).min(1.0);

        let mut text = AnnotatedText::new();
        let mut kept = BTreeSet::new();
        // Per-fact overhead: a couple of framing words around each kept span.
        const SPAN_OVERHEAD: usize = 2;
        for span in chunk.spans() {
            if !truth.needs(span.fact) || kept.contains(&span.fact) {
                continue;
            }
            if text.len() + span.len + SPAN_OVERHEAD > budget {
                continue; // Budget exhausted: the fact is lost (Fig. 4c).
            }
            let centre = span.start + span.len / 2;
            let p = cap * self.litm_weight(centre, len);
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                if let Some(toks) = chunk.fact_tokens(span.fact) {
                    // Framing words drawn from the chunk's plain tokens.
                    if let Some(&w) = chunk.tokens().first() {
                        text.push_tokens(&[w]);
                    }
                    text.push_fact(span.fact, toks);
                    if let Some(&w) = chunk.tokens().last() {
                        text.push_tokens(&[w]);
                    }
                    kept.insert(span.fact);
                }
            }
        }
        // Pad with carried-over chunk words up to the budget (a summary also
        // restates context), but never beyond it.
        let pad_target = budget.min(text.len() + budget / 4);
        let plain = chunk.tokens();
        if !plain.is_empty() {
            let pad: Vec<TokenId> = (text.len()..pad_target)
                .map(|_| plain[rng.gen_range(0..plain.len())])
                .collect();
            text.push_tokens(&pad);
        }
        SummaryOutput { text, kept }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_text::FactId;

    fn truth_simple() -> QueryTruth {
        QueryTruth {
            base: vec![BaseFact {
                id: FactId(1),
                answer: vec![TokenId(100), TokenId(101)],
                in_answer: true,
            }],
            derived: vec![],
        }
    }

    fn truth_joint() -> QueryTruth {
        QueryTruth {
            base: vec![
                BaseFact {
                    id: FactId(1),
                    answer: vec![TokenId(100)],
                    in_answer: false,
                },
                BaseFact {
                    id: FactId(2),
                    answer: vec![TokenId(101)],
                    in_answer: false,
                },
            ],
            derived: vec![DerivedFact {
                id: FactId(99),
                components: vec![FactId(1), FactId(2)],
                answer: vec![TokenId(200)],
            }],
        }
    }

    fn model() -> GenerationModel {
        GenerationModel::from_spec(&ModelSpec::mistral_7b_awq())
    }

    fn ctx_with(
        facts: &[(FactId, &[TokenId])],
        pad_before: usize,
        pad_after: usize,
    ) -> AnnotatedText {
        let mut t = AnnotatedText::new();
        t.push_tokens(&vec![TokenId(0); pad_before]);
        for (id, toks) in facts {
            t.push_fact(*id, toks);
        }
        t.push_tokens(&vec![TokenId(0); pad_after]);
        t
    }

    const BOILER: &[TokenId] = &[TokenId(900), TokenId(901), TokenId(902)];

    #[test]
    fn litm_weight_is_one_for_short_contexts() {
        let m = model();
        assert_eq!(m.litm_weight(100, 500), 1.0);
    }

    #[test]
    fn litm_dip_grows_with_length_and_is_worst_mid_context() {
        let m = model();
        let mid_short = m.litm_weight(1_000, 2_000);
        let mid_long = m.litm_weight(9_000, 18_000);
        let edge_long = m.litm_weight(100, 18_000);
        assert!(mid_long < mid_short, "{mid_long} !< {mid_short}");
        assert!(edge_long > mid_long);
        assert!(m.litm_weight(0, 18_000) > 0.99);
    }

    #[test]
    fn answer_extracts_present_fact_in_short_context() {
        let m = model();
        let truth = truth_simple();
        let ctx = ctx_with(&[(FactId(1), &[TokenId(50), TokenId(51)])], 10, 10);
        // Aggregate over seeds: extraction should succeed at ~capability rate.
        let hits = (0..200)
            .filter(|&s| {
                m.answer(s, &truth, &ctx, BOILER, 1)
                    .extracted
                    .contains(&FactId(1))
            })
            .count();
        assert!(hits > 160, "extraction rate too low: {hits}/200");
    }

    #[test]
    fn answer_never_extracts_absent_fact() {
        let m = model();
        let truth = truth_simple();
        let ctx = ctx_with(&[(FactId(7), &[TokenId(50)])], 10, 10); // Wrong fact.
        for s in 0..50 {
            let out = m.answer(s, &truth, &ctx, BOILER, 1);
            assert!(out.extracted.is_empty());
            assert_eq!(out.coverage, 0.0);
            // Output is pure boilerplate.
            assert!(out.tokens.iter().all(|t| BOILER.contains(t)));
        }
    }

    #[test]
    fn joint_fact_requires_co_visibility() {
        let m = model();
        let truth = truth_joint();
        // Both components in one context: derivation possible.
        let both = ctx_with(
            &[(FactId(1), &[TokenId(1)]), (FactId(2), &[TokenId(2)])],
            5,
            5,
        );
        let joint_hits = (0..300)
            .filter(|&s| {
                m.answer(s, &truth, &both, BOILER, 1)
                    .extracted
                    .contains(&FactId(99))
            })
            .count();
        assert!(joint_hits > 150, "joint derivation too rare: {joint_hits}");

        // Only one component visible: derivation impossible.
        let one = ctx_with(&[(FactId(1), &[TokenId(1)])], 5, 5);
        for s in 0..100 {
            assert!(!m
                .answer(s, &truth, &one, BOILER, 1)
                .extracted
                .contains(&FactId(99)));
        }
    }

    #[test]
    fn long_context_hurts_mid_buried_fact() {
        let m = model();
        let truth = truth_simple();
        let short = ctx_with(&[(FactId(1), &[TokenId(50)])], 200, 200);
        let long = ctx_with(&[(FactId(1), &[TokenId(50)])], 9_000, 9_000);
        let rate = |ctx: &AnnotatedText| {
            (0..300)
                .filter(|&s| m.answer(s, &truth, ctx, BOILER, 1).coverage > 0.0)
                .count()
        };
        let r_short = rate(&short);
        let r_long = rate(&long);
        assert!(
            r_short as f64 > r_long as f64 + 30.0,
            "litm not biting: short={r_short} long={r_long}"
        );
    }

    #[test]
    fn confidence_tracks_coverage() {
        let m = model();
        let truth = truth_simple();
        let good = ctx_with(&[(FactId(1), &[TokenId(50)])], 5, 5);
        let bad = ctx_with(&[], 5, 5);
        let mut conf_good = 0.0;
        let mut conf_bad = 0.0;
        for s in 0..100 {
            conf_good += m.answer(s, &truth, &good, BOILER, 1).confidence;
            conf_bad += m.answer(s, &truth, &bad, BOILER, 1).confidence;
        }
        assert!(conf_good > conf_bad + 30.0);
    }

    #[test]
    fn answer_is_deterministic_per_seed() {
        let m = model();
        let truth = truth_joint();
        let ctx = ctx_with(
            &[(FactId(1), &[TokenId(1)]), (FactId(2), &[TokenId(2)])],
            50,
            50,
        );
        let a = m.answer(42, &truth, &ctx, BOILER, 1);
        let b = m.answer(42, &truth, &ctx, BOILER, 1);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.extracted, b.extracted);
    }

    #[test]
    fn summary_keeps_relevant_fact_within_budget() {
        let m = model();
        let truth = truth_simple();
        let chunk = ctx_with(&[(FactId(1), &[TokenId(50), TokenId(51)])], 100, 100);
        let out = m.summarize(7, &truth, &chunk, 60);
        assert!(out.text.len() <= 60);
        // Generous budget: fact should usually be kept.
        let kept = (0..100)
            .filter(|&s| m.summarize(s, &truth, &chunk, 60).kept.contains(&FactId(1)))
            .count();
        assert!(kept > 70, "summary keep rate too low: {kept}");
    }

    #[test]
    fn tiny_budget_loses_facts() {
        let m = model();
        let truth = truth_simple();
        let chunk = ctx_with(&[(FactId(1), &[TokenId(50); 10])], 100, 100);
        // Budget smaller than the fact span: must always drop it.
        for s in 0..50 {
            let out = m.summarize(s, &truth, &chunk, 5);
            assert!(out.kept.is_empty());
            assert!(out.text.len() <= 5);
        }
    }

    #[test]
    fn irrelevant_facts_do_not_enter_summary() {
        let m = model();
        let truth = truth_simple();
        let chunk = ctx_with(&[(FactId(55), &[TokenId(50)])], 20, 20);
        for s in 0..20 {
            assert!(m.summarize(s, &truth, &chunk, 50).kept.is_empty());
        }
    }

    #[test]
    fn gold_answer_excludes_intermediate_hops() {
        let truth = truth_joint();
        let gold = truth.gold_answer();
        assert_eq!(gold, vec![TokenId(200)]);
        assert!(truth.requires_joint());
        assert_eq!(truth.pieces(), 2);
    }
}
