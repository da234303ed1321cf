//! The simulated profiler LLM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metis_datasets::{Complexity, QuerySpec};
use metis_llm::{GpuCluster, LatencyModel, ModelSpec, Nanos};
use metis_vectordb::DbMetadata;

use crate::estimate::EstimatedProfile;

/// Which LLM backs the profiler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProfilerKind {
    /// GPT-4o over the OpenAI Chat Completions API (the paper's default).
    Gpt4o,
    /// Llama-3.1-70B over a hosted HuggingFace endpoint (Fig. 17).
    Llama70b,
}

/// Per-model estimation noise rates.
#[derive(Clone, Copy, Debug)]
struct NoiseParams {
    /// Probability of flipping the complexity estimate.
    flip_complexity: f64,
    /// Probability of flipping the joint-reasoning estimate.
    flip_joint: f64,
    /// Probability the pieces estimate is off by ±1.
    pieces_off_one: f64,
    /// Probability the pieces estimate is off by ±2 (on top of ±1).
    pieces_off_two: f64,
    /// Relative distortion applied to the summary range bounds.
    summary_distort: f64,
}

impl NoiseParams {
    /// Noise calibrated so that ~93% of profiles are fully good (Fig. 9).
    fn gpt4o() -> Self {
        Self {
            flip_complexity: 0.030,
            flip_joint: 0.020,
            pieces_off_one: 0.08,
            pieces_off_two: 0.020,
            summary_distort: 0.15,
        }
    }

    /// Llama-70B is noisier than GPT-4o but still useful (Fig. 17).
    fn llama70b() -> Self {
        Self {
            flip_complexity: 0.055,
            flip_joint: 0.045,
            pieces_off_one: 0.18,
            pieces_off_two: 0.05,
            summary_distort: 0.25,
        }
    }
}

/// One profiling result: the estimate plus its cost in time and dollars.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerOutput {
    /// The noisy estimate with confidence.
    pub estimate: EstimatedProfile,
    /// API latency of the profiling call.
    pub latency: Nanos,
    /// API dollar cost of the call.
    pub cost_usd: f64,
    /// Input tokens billed (query + metadata + feedback prompts).
    pub input_tokens: u64,
}

/// The profiler LLM with its feedback state (§5).
pub struct LlmProfiler {
    kind: ProfilerKind,
    noise: NoiseParams,
    latency: LatencyModel,
    /// Number of retained feedback prompts (capped at
    /// [`LlmProfiler::MAX_FEEDBACK`]).
    feedback_prompts: usize,
    /// Queries profiled so far (drives the 1-in-30 feedback cadence).
    profiled: u64,
}

impl LlmProfiler {
    /// The paper keeps only the last four feedback prompts.
    pub const MAX_FEEDBACK: usize = 4;
    /// One feedback prompt is generated every 30 queries.
    pub const FEEDBACK_EVERY: u64 = 30;
    /// Approximate token length of one feedback prompt (query + golden
    /// answer) included in subsequent profiling calls.
    pub const FEEDBACK_PROMPT_TOKENS: u64 = 220;
    /// Approximate metadata + instruction prompt length (§A.1).
    pub const PROMPT_OVERHEAD_TOKENS: u64 = 120;
    /// Short structured output: four fields, mostly binary (§4.2 notes the
    /// mapping keeps the profiler restricted to short decisions).
    pub const OUTPUT_TOKENS: u64 = 18;

    /// Creates a profiler of the given kind with its default noise.
    pub fn new(kind: ProfilerKind) -> Self {
        let (spec, noise) = match kind {
            ProfilerKind::Gpt4o => (ModelSpec::gpt4o(), NoiseParams::gpt4o()),
            ProfilerKind::Llama70b => {
                let mut spec = ModelSpec::llama31_70b_profiler();
                // Hosted endpoint pricing (per 1M tokens).
                spec.usd_per_mtok_in = 0.90;
                spec.usd_per_mtok_out = 0.90;
                spec.kind = metis_llm::ModelKind::Api;
                (spec, NoiseParams::llama70b())
            }
        };
        Self {
            kind,
            noise,
            latency: LatencyModel::new(spec, GpuCluster::single_a40()),
            feedback_prompts: 0,
            profiled: 0,
        }
    }

    /// Which model backs this profiler.
    pub fn kind(&self) -> ProfilerKind {
        self.kind
    }

    /// Number of feedback prompts currently attached.
    pub fn feedback_len(&self) -> usize {
        self.feedback_prompts
    }

    /// Noise multiplier after feedback: each retained feedback prompt gives
    /// the profiler extra grounding, shrinking all error rates (Fig. 14).
    fn noise_multiplier(&self) -> f64 {
        1.0 - 0.12 * self.feedback_prompts as f64
    }

    /// Whether the controller should generate a feedback prompt *now*
    /// (every 30th query, §5).
    pub fn wants_feedback(&self) -> bool {
        self.profiled > 0 && self.profiled.is_multiple_of(Self::FEEDBACK_EVERY)
    }

    /// Attaches one feedback prompt (golden-configuration answer); keeps at
    /// most the last four.
    pub fn add_feedback(&mut self) {
        self.feedback_prompts = (self.feedback_prompts + 1).min(Self::MAX_FEEDBACK);
    }

    /// Profiles one query given the database metadata.
    ///
    /// Deterministic in `(query id, seed)`.
    pub fn profile(
        &mut self,
        query: &QuerySpec,
        metadata: &DbMetadata,
        seed: u64,
    ) -> ProfilerOutput {
        self.profiled += 1;
        let mut rng = StdRng::seed_from_u64(seed ^ query.id.0.wrapping_mul(0x9E37_79B9));
        let truth = &query.profile;
        let m = self.noise_multiplier();

        let mut errors = 0.0f64;
        let complexity = if rng.gen_bool((self.noise.flip_complexity * m).clamp(0.0, 1.0)) {
            errors += 1.0;
            match truth.complexity {
                Complexity::High => Complexity::Low,
                Complexity::Low => Complexity::High,
            }
        } else {
            truth.complexity
        };
        let joint = if rng.gen_bool((self.noise.flip_joint * m).clamp(0.0, 1.0)) {
            errors += 1.0;
            !truth.joint
        } else {
            truth.joint
        };
        let mut pieces = i64::from(truth.pieces);
        if rng.gen_bool((self.noise.pieces_off_one * m).clamp(0.0, 1.0)) {
            pieces += if rng.gen_bool(0.5) { 1 } else { -1 };
            // A ±1 pieces slip is tolerated by the mapping's 1–3× range,
            // so it barely moves the model's confidence.
            errors += 0.1;
        }
        if rng.gen_bool((self.noise.pieces_off_two * m).clamp(0.0, 1.0)) {
            pieces += if rng.gen_bool(0.5) { 2 } else { -2 };
            errors += 0.9;
        }
        let pieces = pieces.clamp(1, 10) as u32;

        let distort = 1.0 + rng.gen_range(-1.0..1.0) * self.noise.summary_distort * m;
        let (lo_t, hi_t) = truth.summary_range;
        let lo = ((f64::from(lo_t) * distort).round() as u32).clamp(1, 295);
        let hi = ((f64::from(hi_t) * distort).round() as u32).clamp(lo + 1, 300);

        // Calibrated confidence: error-free estimates cluster just under
        // 0.96 and essentially never cross below the 90% threshold, while a
        // real error drops the score into a band that straddles the
        // threshold — reproducing Fig. 9's imperfect-but-useful separation
        // (most low-confidence profiles are bad, a tail of bad ones still
        // scores high).
        let confidence = (0.958 - 0.08 * errors.min(1.0) - 0.02 * (errors - 1.0).max(0.0)
            + rng.gen_range(-0.06..0.06))
        .clamp(0.0, 1.0);

        // Cost/latency: query + metadata + retained feedback prompts in,
        // a short structured profile out.
        let input_tokens = query.tokens.len() as u64
            + Self::PROMPT_OVERHEAD_TOKENS
            + metadata.description.split_whitespace().count() as u64
            + self.feedback_prompts as u64 * Self::FEEDBACK_PROMPT_TOKENS;
        let latency = self.latency.api_call(input_tokens, Self::OUTPUT_TOKENS);
        let cost_usd = self.latency.api_cost_usd(input_tokens, Self::OUTPUT_TOKENS);

        ProfilerOutput {
            estimate: EstimatedProfile {
                complexity,
                joint,
                pieces,
                summary_range: (lo, hi),
                confidence,
            },
            latency,
            cost_usd,
            input_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_datasets::{build_dataset, DatasetKind};

    fn outputs(kind: ProfilerKind, n: usize) -> (Vec<ProfilerOutput>, metis_datasets::Dataset) {
        let d = build_dataset(DatasetKind::Musique, n, 42);
        let mut p = LlmProfiler::new(kind);
        let md = d.db.metadata().clone();
        let outs = d.queries.iter().map(|q| p.profile(q, &md, 7)).collect();
        (outs, d)
    }

    #[test]
    fn most_profiles_are_good_for_gpt4o() {
        let (outs, d) = outputs(ProfilerKind::Gpt4o, 200);
        let good = outs
            .iter()
            .zip(&d.queries)
            .filter(|(o, q)| o.estimate.is_good(&q.profile))
            .count();
        assert!(good >= 170, "good = {good}/200");
    }

    #[test]
    fn llama_profiler_is_noisier() {
        let (g, d) = outputs(ProfilerKind::Gpt4o, 300);
        let (l, _) = outputs(ProfilerKind::Llama70b, 300);
        let err = |outs: &[ProfilerOutput]| -> f64 {
            outs.iter()
                .zip(&d.queries)
                .map(|(o, q)| o.estimate.error_score(&q.profile))
                .sum()
        };
        assert!(
            err(&l) > err(&g) * 1.3,
            "llama {} vs gpt {}",
            err(&l),
            err(&g)
        );
    }

    #[test]
    fn confidence_separates_good_from_bad() {
        let (outs, d) = outputs(ProfilerKind::Gpt4o, 400);
        let mut hi_good = 0;
        let mut hi_total = 0;
        let mut lo_bad = 0;
        let mut lo_total = 0;
        for (o, q) in outs.iter().zip(&d.queries) {
            let good = o.estimate.is_good(&q.profile);
            if o.estimate.confidence >= 0.90 {
                hi_total += 1;
                if good {
                    hi_good += 1;
                }
            } else {
                lo_total += 1;
                if !good {
                    lo_bad += 1;
                }
            }
        }
        // Fig. 9: >93% of profiles are high-confidence; of those, >96% good;
        // of low-confidence ones, ~85–90% bad.
        assert!(hi_total * 100 >= 400 * 85, "high-conf share {hi_total}/400");
        assert!(
            hi_good * 100 >= hi_total * 93,
            "good|high = {hi_good}/{hi_total}"
        );
        if lo_total >= 10 {
            assert!(
                lo_bad * 100 >= lo_total * 50,
                "bad|low = {lo_bad}/{lo_total}"
            );
        }
    }

    #[test]
    fn profiling_latency_is_subsecond() {
        let (outs, _) = outputs(ProfilerKind::Gpt4o, 20);
        for o in &outs {
            let secs = o.latency as f64 / 1e9;
            assert!(secs < 0.8, "profiler call took {secs}s");
            assert!(o.cost_usd > 0.0);
        }
    }

    #[test]
    fn feedback_cadence_is_every_30() {
        let d = build_dataset(DatasetKind::Squad, 61, 1);
        let mut p = LlmProfiler::new(ProfilerKind::Gpt4o);
        let md = d.db.metadata().clone();
        let mut feedback_points = Vec::new();
        for (i, q) in d.queries.iter().enumerate() {
            p.profile(q, &md, 3);
            if p.wants_feedback() {
                feedback_points.push(i + 1);
                p.add_feedback();
            }
        }
        assert_eq!(feedback_points, vec![30, 60]);
        assert_eq!(p.feedback_len(), 2);
    }

    #[test]
    fn feedback_caps_at_four_and_reduces_errors() {
        let d = build_dataset(DatasetKind::Qmsum, 300, 5);
        let md = d.db.metadata().clone();
        let total_err = |feedback: usize| -> f64 {
            let mut p = LlmProfiler::new(ProfilerKind::Llama70b);
            for _ in 0..feedback {
                p.add_feedback();
            }
            d.queries
                .iter()
                .map(|q| p.profile(q, &md, 11).estimate.error_score(&q.profile))
                .sum()
        };
        let before = total_err(0);
        let after = total_err(6); // Capped at 4 internally.
        assert!(
            after < before * 0.8,
            "feedback no help: {before} -> {after}"
        );
        let mut p = LlmProfiler::new(ProfilerKind::Gpt4o);
        for _ in 0..9 {
            p.add_feedback();
        }
        assert_eq!(p.feedback_len(), LlmProfiler::MAX_FEEDBACK);
    }

    #[test]
    fn feedback_prompts_increase_input_tokens() {
        let d = build_dataset(DatasetKind::Squad, 2, 9);
        let md = d.db.metadata().clone();
        let mut p = LlmProfiler::new(ProfilerKind::Gpt4o);
        let plain = p.profile(&d.queries[0], &md, 1).input_tokens;
        p.add_feedback();
        p.add_feedback();
        let with_fb = p.profile(&d.queries[1], &md, 1).input_tokens;
        assert!(with_fb >= plain + 2 * LlmProfiler::FEEDBACK_PROMPT_TOKENS);
    }

    #[test]
    fn oracle_style_determinism() {
        let d = build_dataset(DatasetKind::Musique, 5, 3);
        let md = d.db.metadata().clone();
        let mut p1 = LlmProfiler::new(ProfilerKind::Gpt4o);
        let mut p2 = LlmProfiler::new(ProfilerKind::Gpt4o);
        for q in &d.queries {
            let a = p1.profile(q, &md, 5);
            let b = p2.profile(q, &md, 5);
            assert_eq!(a.estimate.pieces, b.estimate.pieces);
            assert_eq!(a.estimate.joint, b.estimate.joint);
            assert!((a.estimate.confidence - b.estimate.confidence).abs() < 1e-12);
        }
    }
}
