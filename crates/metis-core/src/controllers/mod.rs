//! Per-policy configuration controllers.
//!
//! Every serving system the paper evaluates — METIS and the three baselines
//! — differs from the others only in *policy*: how it reacts to a query's
//! profile, how it picks a RAG configuration at decision time, and what it
//! wants from the scheduler. The [`ConfigController`] trait captures exactly
//! that surface, so the [`Runner`](crate::runner::Runner) stays a
//! system-agnostic discrete-event loop. Two controllers serve the four
//! systems, because §7.1 defines each baseline in terms of METIS's parts:
//!
//! * `MetisController` — profiler → Algorithm 1 pruning → a pick from the
//!   pruned space ([`PickPolicy`]) under an admission policy, with
//!   confidence fallback and feedback. METIS is resource-aware best fit
//!   (§4); AdaptiveRAG\* is the same profiler with the quality-maximizing,
//!   resource-oblivious pick, FCFS admission and no confidence fallback.
//! * `FixedController` — one static configuration under an admission
//!   policy: vLLM-fixed under FCFS, Parrot\* under gang scheduling.
//!
//! [`SystemKind`] remains the user-facing description of a system under
//! test, but it is purely a *constructor* enum: its one job is
//! [`SystemKind::controller`].

mod fixed;
mod metis;

use fixed::FixedController;
use metis::MetisController;
pub use metis::{MetisOptions, PickPolicy};

use metis_datasets::QuerySpec;
use metis_engine::{Priority, SchedPolicy};
use metis_llm::{LatencyModel, Nanos};
use metis_profiler::{EstimatedProfile, ProfilerKind};
use metis_vectordb::DbMetadata;

use crate::config::{PrunedSpace, RagConfig};

/// What a controller learned about one query at profile time (the
/// decide-on-profile hook's result). Fixed-configuration systems return
/// [`ProfileOutcome::skipped`].
#[derive(Clone, Debug)]
pub struct ProfileOutcome {
    /// The pruned configuration space, if the system profiles queries.
    pub space: Option<PrunedSpace>,
    /// The raw profiler estimate backing `space`.
    pub estimate: Option<EstimatedProfile>,
    /// Profiler API latency (0 when no profiler ran).
    pub profiler_nanos: Nanos,
    /// Profiler API dollars spent on this query.
    pub cost_usd: f64,
    /// Scheduling class for this query's engine calls (derived from the
    /// query's SLO tier by priority-aware controllers;
    /// [`Priority::Standard`] otherwise).
    pub priority: Priority,
}

impl ProfileOutcome {
    /// The no-profiler outcome: decide immediately, at no cost.
    pub fn skipped() -> Self {
        Self {
            space: None,
            estimate: None,
            profiler_nanos: 0,
            cost_usd: 0.0,
            priority: Priority::Standard,
        }
    }
}

/// Everything a controller may read when choosing a configuration: the
/// query's profile outcome plus a snapshot of the *routed replica's* state.
/// With a multi-replica cluster the router picks the backend first and the
/// controller sizes against that backend's free memory — per-replica joint
/// configuration/scheduling.
pub struct DecisionContext<'a> {
    /// Pruned space from the profile step (`None` for fixed systems).
    pub space: Option<&'a PrunedSpace>,
    /// Profiler estimate from the profile step.
    pub estimate: Option<&'a EstimatedProfile>,
    /// Free KV-cache tokens on the replica this query was routed to.
    pub free_kv_tokens: u64,
    /// Preemptions per submitted request on that replica so far — the
    /// scheduler's back-pressure signal. A non-zero value means the free-KV
    /// snapshot overstates what a configuration can safely claim (admitted
    /// work is being evicted), so memory-aware controllers should size more
    /// conservatively. 0 under non-preemptive policies.
    pub preemption_pressure: f64,
    /// Tokens per retrieval chunk.
    pub chunk_size: u64,
    /// Query length in tokens.
    pub query_tokens: u64,
    /// The routed replica's latency model (for SLO-constrained picks).
    pub latency: &'a LatencyModel,
}

/// A controller's configuration decision for one query.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The configuration to execute.
    pub config: RagConfig,
    /// Whether the §4.3 out-of-memory fallback fired.
    pub fallback: bool,
}

/// The per-system policy surface: how a serving system profiles queries,
/// picks configurations, and hooks the scheduler. Implementations own all
/// their mutable state (profiler, history, feedback counters), so the
/// runner needs no system-specific branches.
///
/// Controllers are built from a [`SystemKind`], never constructed ad hoc
/// by the runner:
///
/// ```
/// use metis_core::{MetisOptions, SystemKind};
/// use metis_engine::SchedPolicy;
///
/// let controller = SystemKind::Metis(MetisOptions::full()).controller();
/// // Full METIS asks the engine for SLO-class-aware admission.
/// assert_eq!(controller.sched_policy(), SchedPolicy::Preemptive);
/// ```
pub trait ConfigController {
    /// Admission policy the serving engine should run under.
    fn sched_policy(&self) -> SchedPolicy;

    /// Decide-on-profile hook, called once per query at arrival: run the
    /// profiler (if the system has one) and derive the pruned space. The
    /// runner charges `cost_usd` to the run and schedules the decision
    /// `profiler_nanos` (plus retrieval) later.
    fn on_profile(&mut self, query: &QuerySpec, metadata: &DbMetadata, seed: u64)
        -> ProfileOutcome;

    /// Joint decision hook, called at decision time with the routed
    /// replica's memory snapshot: pick the configuration to execute.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision;

    /// Admission hook: whether the runner should co-submit a synthetic
    /// golden-configuration run *now* to ground the profiler (§5 feedback).
    /// Returning `true` commits the controller to one pending feedback run.
    fn feedback_due(&mut self) -> bool {
        false
    }

    /// Decide-on-completion hook, called when a query's last call finishes;
    /// `synthetic` marks golden-configuration feedback runs.
    fn on_query_complete(&mut self, synthetic: bool) {
        let _ = synthetic;
    }
}

/// The system under test. Purely a constructor enum: [`Self::controller`]
/// builds the policy object the runner drives; nothing else inspects the
/// variants.
#[derive(Clone, Copy, Debug)]
pub enum SystemKind {
    /// METIS (ours).
    Metis(MetisOptions),
    /// vLLM with one fixed configuration for every query.
    VllmFixed {
        /// The static configuration.
        config: RagConfig,
    },
    /// Parrot\*: fixed configuration + application-aware gang scheduling.
    Parrot {
        /// The static configuration.
        config: RagConfig,
    },
    /// AdaptiveRAG\*: per-query quality-maximizing choice, resource-oblivious.
    AdaptiveRag {
        /// Which LLM backs its profiler.
        profiler: ProfilerKind,
    },
}

impl SystemKind {
    /// Builds the controller implementing this system's policy.
    pub fn controller(&self) -> Box<dyn ConfigController> {
        match self {
            SystemKind::Metis(opts) => Box::new(MetisController::new(*opts)),
            SystemKind::VllmFixed { config } => Box::new(FixedController {
                config: *config,
                sched: SchedPolicy::Fcfs,
            }),
            SystemKind::Parrot { config } => Box::new(FixedController {
                config: *config,
                sched: SchedPolicy::GangByGroup,
            }),
            SystemKind::AdaptiveRag { profiler } => Box::new(MetisController::new(MetisOptions {
                profiler: *profiler,
                pick: PickPolicy::MaxQuality,
                sched: SchedPolicy::Fcfs,
                confidence_fallback: false,
                ..MetisOptions::full()
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_datasets::{build_dataset, DatasetKind};
    use metis_llm::{GpuCluster, ModelSpec};

    /// `c`'s decision on a profiled query with `free_kv_tokens` free.
    fn decide(
        c: &mut dyn ConfigController,
        outcome: &ProfileOutcome,
        free_kv_tokens: u64,
    ) -> Decision {
        let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        c.decide(&DecisionContext {
            space: outcome.space.as_ref(),
            estimate: outcome.estimate.as_ref(),
            free_kv_tokens,
            preemption_pressure: 0.0,
            chunk_size: 512,
            query_tokens: 20,
            latency: &latency,
        })
    }

    #[test]
    fn constructor_enum_builds_the_matching_controller() {
        use SchedPolicy::{Fcfs, GangByGroup, Preemptive};
        let fixed = RagConfig::map_reduce(8, 100);
        let metis = |sched| {
            SystemKind::Metis(MetisOptions {
                sched,
                ..MetisOptions::full()
            })
        };
        let adaptive = SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Gpt4o,
        };
        let cases = [
            (SystemKind::Metis(MetisOptions::full()), Preemptive),
            // METIS runs whichever admission policy its options name.
            (metis(Fcfs), Fcfs),
            (metis(GangByGroup), GangByGroup),
            (metis(Preemptive), Preemptive),
            (SystemKind::VllmFixed { config: fixed }, Fcfs),
            (SystemKind::Parrot { config: fixed }, GangByGroup),
            (adaptive, Fcfs),
        ];
        let d = build_dataset(DatasetKind::Squad, 2, 5);
        for (kind, policy) in cases {
            let mut c = kind.controller();
            assert_eq!(c.sched_policy(), policy, "{kind:?}");
            let outcome = c.on_profile(&d.queries[0], d.db.metadata(), 3);
            if let SystemKind::VllmFixed { .. } | SystemKind::Parrot { .. } = kind {
                // vLLM-fixed and Parrot* differ only in scheduling: neither
                // profiles, and both serve the static configuration.
                assert!(outcome.space.is_none() && outcome.cost_usd == 0.0);
                let decision = decide(c.as_mut(), &outcome, 1_000);
                assert_eq!(decision.config, fixed, "{kind:?}");
                assert!(!decision.fallback);
            } else {
                assert!(
                    outcome.space.is_some() && outcome.cost_usd > 0.0,
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn adaptive_rag_pick_ignores_free_memory() {
        let d = build_dataset(DatasetKind::FinSec, 2, 9);
        let mut c = SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Gpt4o,
        }
        .controller();
        let outcome = c.on_profile(&d.queries[0], d.db.metadata(), 3);
        // Resource-oblivious: the pick is identical at 1k and 1M free tokens.
        let tight = decide(c.as_mut(), &outcome, 1_000);
        let roomy = decide(c.as_mut(), &outcome, 1_000_000);
        assert_eq!(tight.config, roomy.config);
        assert!(!tight.fallback);
    }
}
