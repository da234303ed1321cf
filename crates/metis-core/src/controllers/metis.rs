//! The one controller: profiler-pruned spaces + best-fit joint
//! configuration/scheduling (§4–5). Its [`PickPolicy`] and admission policy
//! make it each of the paper's four systems.

use metis_datasets::QuerySpec;
use metis_engine::{Priority, SchedPolicy};
use metis_profiler::{LlmProfiler, ProfilerKind};
use metis_vectordb::DbMetadata;

use crate::baselines::{adaptive_rag_pick, median_pick};
use crate::bestfit::{choose_config, BestFitInputs};
use crate::config::{PrunedSpace, RagConfig, SynthesisMethod};
use crate::controllers::{Decision, DecisionContext, ProfileOutcome};
use crate::mapping::{map_profile, ProfileHistory};
use crate::slo::{choose_config_with_slo, LatencySlo, SloTier};

/// Confidence threshold below which METIS distrusts the profile (§5).
const CONFIDENCE_THRESHOLD: f64 = 0.90;
/// Expected final-answer output tokens used for memory sizing.
const EXPECTED_OUTPUT: u64 = 48;
/// Base fraction of free KV memory held back by the best-fit (§4.3's 2%
/// safety buffer).
const BASE_BUFFER_FRAC: f64 = 0.02;
/// Additional buffer at full preemption pressure (one preemption per
/// submission): when the scheduler is evicting admitted work, the free-KV
/// snapshot overstates what a configuration can safely claim, so best-fit
/// backs off proportionally.
const PRESSURE_BUFFER_FRAC: f64 = 0.10;

/// How the controller picks a configuration: from the pruned space
/// (ablation axis, Fig. 12), or one fixed configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PickPolicy {
    /// Full METIS: resource-aware best fit (§4.3).
    BestFit,
    /// Ablation: median knob values, resource-oblivious.
    Median,
    /// AdaptiveRAG\* (§7.1): the quality-maximizing candidate,
    /// resource-oblivious.
    MaxQuality,
    /// vLLM-fixed and Parrot\* (§7.1): this configuration for every query,
    /// with no profiler run — the static menu existing RAG systems pick
    /// from offline.
    Fixed(RagConfig),
}

/// Controller switches: METIS's ablation axes (Figs. 12, 14, 16, 17) and
/// the baselines' picks and admission policies.
#[derive(Clone, Copy, Debug)]
pub struct MetisOptions {
    /// Which LLM backs the profiler.
    pub profiler: ProfilerKind,
    /// Configuration pick policy.
    pub pick: PickPolicy,
    /// Admission policy the serving engine runs under.
    pub sched: SchedPolicy,
    /// Derive each query's scheduling [`Priority`] from its SLO tier
    /// ([`SloTier::for_query`]); off → every query is `Standard`.
    pub priority_from_slo: bool,
    /// Tune the synthesis method (off → always `stuff`).
    pub tune_method: bool,
    /// Tune `intermediate_length` (off → fixed 100).
    pub tune_ilen: bool,
    /// Golden-configuration profiler feedback (§5, Fig. 14).
    pub feedback: bool,
    /// Low-confidence fallback to recent pruned spaces (§5).
    pub confidence_fallback: bool,
    /// Optional per-query latency SLO in seconds (§4.3's "SLO-based
    /// constraints"): the best-fit selection is restricted to configurations
    /// whose estimated execution fits the budget.
    pub slo_secs: Option<f64>,
}

impl MetisOptions {
    /// Full METIS as evaluated in the paper's headline results, plus the
    /// preemptive scheduler (which strictly extends the paper's gang
    /// scheduling; see the README's scheduler section for the behavior
    /// change this introduces relative to pre-preemption benches).
    pub fn full() -> Self {
        Self {
            profiler: ProfilerKind::Gpt4o,
            pick: PickPolicy::BestFit,
            sched: SchedPolicy::Preemptive,
            priority_from_slo: false,
            tune_method: true,
            tune_ilen: true,
            feedback: false,
            confidence_fallback: true,
            slo_secs: None,
        }
    }
}

/// The serving policy every system runs: LLM profiler → Algorithm 1 pruning
/// (with confidence fallback) → a [`PickPolicy`] pick (full METIS:
/// resource-aware best fit against the routed replica's free memory), plus
/// the §5 feedback loop. A [`PickPolicy::Fixed`] pick skips the profiler.
/// Built by [`SystemKind::controller`](crate::SystemKind::controller).
pub struct Controller {
    opts: MetisOptions,
    profiler: LlmProfiler,
    history: ProfileHistory,
    /// Feedback runs promised via `feedback_due` whose completions have not
    /// yet grounded the profiler.
    pending_feedback: usize,
}

impl Controller {
    /// Builds the controller with a fresh profiler and empty history.
    pub(crate) fn new(opts: MetisOptions) -> Self {
        Self {
            opts,
            profiler: LlmProfiler::new(opts.profiler),
            history: ProfileHistory::default(),
            pending_feedback: 0,
        }
    }

    fn apply_tuning(&self, mut space: PrunedSpace) -> PrunedSpace {
        if !self.opts.tune_method {
            space.methods = vec![SynthesisMethod::Stuff];
        }
        if !self.opts.tune_ilen {
            space.intermediate_length = (100, 100);
        }
        space
    }

    /// Admission policy the serving engine should run under.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.opts.sched
    }

    /// Decide-on-profile hook, called once per query at arrival: run the
    /// profiler (unless the pick is fixed) and derive the pruned space. The
    /// runner charges `cost_usd` to the run and schedules the decision
    /// `profiler_nanos` (plus retrieval) later.
    pub(crate) fn on_profile(
        &mut self,
        query: &QuerySpec,
        metadata: &DbMetadata,
        seed: u64,
    ) -> ProfileOutcome {
        if let PickPolicy::Fixed(_) = self.opts.pick {
            return ProfileOutcome::skipped();
        }
        let out = self.profiler.profile(query, metadata, seed);
        let trusted =
            !self.opts.confidence_fallback || out.estimate.confidence >= CONFIDENCE_THRESHOLD;
        let space = if trusted {
            let s = map_profile(&out.estimate);
            self.history.push(s.clone());
            s
        } else {
            // §5: fall back to the recent queries' pruned spaces.
            self.history
                .fallback()
                .unwrap_or_else(|| map_profile(&out.estimate))
        };
        ProfileOutcome {
            space: Some(self.apply_tuning(space)),
            estimate: Some(out.estimate),
            profiler_nanos: out.latency,
            cost_usd: out.cost_usd,
            priority: if self.opts.priority_from_slo {
                SloTier::for_query(query).priority()
            } else {
                Priority::Standard
            },
        }
    }

    /// Joint decision hook, called at decision time with the routed
    /// replica's memory snapshot: pick the configuration to execute.
    pub(crate) fn decide(&self, ctx: &DecisionContext<'_>) -> Decision {
        let space = || ctx.space.expect("a profiled pick profiles before deciding");
        let oblivious = |config| Decision {
            config,
            fallback: false,
        };
        match self.opts.pick {
            PickPolicy::Fixed(config) => oblivious(config),
            PickPolicy::Median => oblivious(median_pick(space())),
            PickPolicy::MaxQuality => oblivious(adaptive_rag_pick(space())),
            PickPolicy::BestFit => {
                let joint = ctx.estimate.map(|e| e.joint).unwrap_or(true);
                let bf = BestFitInputs {
                    free_kv_tokens: ctx.free_kv_tokens,
                    chunk_size: ctx.chunk_size,
                    query_tokens: ctx.query_tokens,
                    expected_output: EXPECTED_OUTPUT,
                    // Preemption pressure widens the §4.3 safety buffer:
                    // when the routed replica is evicting admitted work,
                    // its free-KV reading is optimistic.
                    buffer_frac: BASE_BUFFER_FRAC
                        + PRESSURE_BUFFER_FRAC * ctx.preemption_pressure.clamp(0.0, 1.0),
                };
                match self.opts.slo_secs {
                    Some(budget) => {
                        choose_config_with_slo(space(), joint, &bf, ctx.latency, LatencySlo(budget))
                    }
                    None => choose_config(space(), joint, &bf),
                }
            }
        }
    }

    /// Admission hook: whether the runner should co-submit a synthetic
    /// golden-configuration run *now* to ground the profiler (§5 feedback).
    /// Returning `true` commits the controller to one pending feedback run.
    pub(crate) fn feedback_due(&mut self) -> bool {
        if self.opts.feedback && self.profiler.wants_feedback() {
            self.pending_feedback += 1;
            true
        } else {
            false
        }
    }

    /// Decide-on-completion hook, called when a query's last call finishes;
    /// `synthetic` marks golden-configuration feedback runs.
    pub(crate) fn on_query_complete(&mut self, synthetic: bool) {
        if synthetic && self.pending_feedback > 0 {
            self.pending_feedback -= 1;
            self.profiler.add_feedback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_llm::{GpuCluster, LatencyModel, ModelSpec};

    fn metadata() -> DbMetadata {
        DbMetadata {
            description: "test corpus of financial filings".into(),
            chunk_size: 512,
            num_chunks: 64,
        }
    }

    fn query(d: &metis_datasets::Dataset) -> &QuerySpec {
        &d.queries[0]
    }

    #[test]
    fn profile_then_decide_is_memory_aware() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::Musique, 4, 11);
        let mut c = Controller::new(MetisOptions::full());
        let outcome = c.on_profile(query(&d), &metadata(), 7);
        assert!(outcome.space.is_some());
        assert!(outcome.cost_usd > 0.0);
        assert!(outcome.profiler_nanos > 0);

        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let decide = |c: &mut Controller, free: u64| {
            c.decide(&DecisionContext {
                space: outcome.space.as_ref(),
                estimate: outcome.estimate.as_ref(),
                free_kv_tokens: free,
                preemption_pressure: 0.0,
                chunk_size: 512,
                query_tokens: 24,
                latency: &latency,
            })
        };
        let roomy = decide(&mut c, 250_000);
        let tight = decide(&mut c, 2_000);
        // Plenty of memory: the pick is from the pruned space. Tight memory:
        // the §4.3 fallback fires and the plan shrinks.
        assert!(!roomy.fallback);
        assert!(tight.fallback);
        assert!(tight.config.num_chunks <= roomy.config.num_chunks);
    }

    #[test]
    fn preemption_pressure_widens_the_safety_buffer() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::Qmsum, 4, 2);
        let mut c = Controller::new(MetisOptions::full());
        let outcome = c.on_profile(query(&d), &metadata(), 7);
        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let decide = |c: &mut Controller, pressure: f64| {
            c.decide(&DecisionContext {
                space: outcome.space.as_ref(),
                estimate: outcome.estimate.as_ref(),
                // Tight enough that the buffer width changes what fits.
                free_kv_tokens: 30_000,
                preemption_pressure: pressure,
                chunk_size: 512,
                query_tokens: 24,
                latency: &latency,
            })
        };
        let calm = decide(&mut c, 0.0);
        let stressed = decide(&mut c, 1.0);
        let demand = |cfg: &crate::config::RagConfig| {
            crate::memory::PlanDemand::estimate(cfg, 512, 24, 48).sched_tokens
        };
        assert!(
            demand(&stressed.config) <= demand(&calm.config),
            "pressure must never grow the footprint: {:?} vs {:?}",
            stressed.config,
            calm.config
        );
    }

    #[test]
    fn slo_tier_priorities_flow_from_profiles() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::Musique, 24, 11);
        let mut opts = MetisOptions::full();
        opts.priority_from_slo = true;
        let mut c = Controller::new(opts);
        #[expect(clippy::disallowed_types, reason = "membership and len() only")]
        let mut seen = std::collections::HashSet::new();
        for q in &d.queries {
            let outcome = c.on_profile(q, &metadata(), 7);
            assert_eq!(outcome.priority, SloTier::for_query(q).priority());
            seen.insert(outcome.priority);
        }
        assert!(seen.len() >= 2, "Musique should mix tiers, got {seen:?}");
        // Off by default: every query serves at Standard.
        let mut plain = Controller::new(MetisOptions::full());
        for q in &d.queries {
            assert_eq!(
                plain.on_profile(q, &metadata(), 7).priority,
                Priority::Standard
            );
        }
    }

    #[test]
    fn feedback_promise_is_settled_by_completion() {
        let d = metis_datasets::build_dataset(metis_datasets::DatasetKind::Squad, 4, 3);
        let mut opts = MetisOptions::full();
        opts.feedback = true;
        let mut c = Controller::new(opts);
        // The profiler wants feedback every 30th query.
        let mut due = 0;
        for _ in 0..30 {
            let _ = c.on_profile(query(&d), &metadata(), 5);
            if c.feedback_due() {
                due += 1;
            }
        }
        assert_eq!(due, 1, "one golden run per 30 profiled queries");
        assert_eq!(c.pending_feedback, 1);
        c.on_query_complete(false); // Real queries don't settle feedback.
        assert_eq!(c.pending_feedback, 1);
        c.on_query_complete(true);
        assert_eq!(c.pending_feedback, 0);
        assert_eq!(c.profiler.feedback_len(), 1);
    }
}
