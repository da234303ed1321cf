//! The configuration controller and the systems it serves.
//!
//! Every serving system the paper evaluates — METIS and the three baselines
//! — differs from the others only in *policy*: how it reacts to a query's
//! profile, how it picks a RAG configuration at decision time, and which
//! admission policy it asks of the scheduler. §7.1 defines each baseline in
//! terms of METIS's parts, so one [`Controller`] serves all four, told
//! apart by its [`MetisOptions`]:
//!
//! * METIS — profiler → Algorithm 1 pruning → resource-aware best fit (§4),
//!   with confidence fallback and feedback;
//! * AdaptiveRAG\* — the same profiler with the quality-maximizing,
//!   resource-oblivious [`PickPolicy::MaxQuality`], FCFS admission and no
//!   confidence fallback;
//! * vLLM-fixed and Parrot\* — [`PickPolicy::Fixed`], one static
//!   configuration and no profiler, under FCFS and gang scheduling.
//!
//! [`SystemKind`] remains the user-facing description of a system under
//! test, but it is purely a *constructor* enum: its one job is
//! [`SystemKind::controller`]. The runner stays a system-agnostic
//! discrete-event loop over the controller it returns.

mod metis;

pub use metis::{Controller, MetisOptions, PickPolicy};

use metis_engine::{Priority, SchedPolicy};
use metis_llm::{LatencyModel, Nanos};
use metis_profiler::{EstimatedProfile, ProfilerKind};

use crate::config::{PrunedSpace, RagConfig};

/// What the controller learned about one query at profile time (the
/// decide-on-profile hook's result). A fixed pick returns
/// [`ProfileOutcome::skipped`].
#[derive(Clone, Debug)]
pub(crate) struct ProfileOutcome {
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
    pub(crate) fn skipped() -> Self {
        Self {
            space: None,
            estimate: None,
            profiler_nanos: 0,
            cost_usd: 0.0,
            priority: Priority::Standard,
        }
    }
}

/// Everything the controller may read when choosing a configuration: the
/// query's profile outcome plus a snapshot of the *routed replica's* state.
/// With a multi-replica cluster the router picks the backend first and the
/// controller sizes against that backend's free memory — per-replica joint
/// configuration/scheduling.
pub(crate) struct DecisionContext<'a> {
    /// Pruned space from the profile step (`None` under a fixed pick).
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

/// The controller's configuration decision for one query.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The configuration to execute.
    pub config: RagConfig,
    /// Whether the §4.3 out-of-memory fallback fired.
    pub fallback: bool,
}

/// The system under test. Purely a constructor enum: [`Self::controller`]
/// builds the controller the runner drives; nothing else inspects the
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
    ///
    /// ```
    /// use metis_core::{MetisOptions, SystemKind};
    /// use metis_engine::SchedPolicy;
    ///
    /// let controller = SystemKind::Metis(MetisOptions::full()).controller();
    /// // Full METIS asks the engine for SLO-class-aware admission.
    /// assert_eq!(controller.sched_policy(), SchedPolicy::Preemptive);
    /// ```
    pub fn controller(&self) -> Controller {
        let fixed = |config, sched| MetisOptions {
            pick: PickPolicy::Fixed(config),
            sched,
            ..MetisOptions::full()
        };
        Controller::new(match *self {
            SystemKind::Metis(opts) => opts,
            SystemKind::VllmFixed { config } => fixed(config, SchedPolicy::Fcfs),
            SystemKind::Parrot { config } => fixed(config, SchedPolicy::GangByGroup),
            SystemKind::AdaptiveRag { profiler } => MetisOptions {
                profiler,
                pick: PickPolicy::MaxQuality,
                sched: SchedPolicy::Fcfs,
                confidence_fallback: false,
                ..MetisOptions::full()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_datasets::{build_dataset, DatasetKind};
    use metis_llm::{GpuCluster, ModelSpec};

    /// `c`'s decision on a profiled query with `free_kv_tokens` free.
    fn decide(c: &Controller, outcome: &ProfileOutcome, free_kv_tokens: u64) -> Decision {
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
                // profiles, so neither charges profiler latency or dollars,
                // and both serve the static configuration.
                assert!(outcome.space.is_none() && outcome.cost_usd == 0.0);
                assert_eq!(outcome.profiler_nanos, 0, "{kind:?}");
                let decision = decide(&c, &outcome, 1_000);
                assert_eq!(decision.config, fixed, "{kind:?}");
                assert!(!decision.fallback);
            } else {
                assert!(
                    outcome.space.is_some() && outcome.cost_usd > 0.0,
                    "{kind:?}"
                );
                assert!(outcome.profiler_nanos > 0, "{kind:?}");
            }
        }
    }

    #[test]
    fn a_fixed_pick_profiles_nothing_and_always_serves_its_config() {
        let d = build_dataset(DatasetKind::Musique, 4, 11);
        // Feedback and SLO priorities on: with no profiler run, neither fires.
        let mut c = Controller::new(MetisOptions {
            pick: PickPolicy::Fixed(RagConfig::stuff(8)),
            feedback: true,
            priority_from_slo: true,
            ..MetisOptions::full()
        });
        // Thirty profiles: a profiler that counted them would want feedback.
        for q in d.queries.iter().cycle().take(30) {
            let outcome = c.on_profile(q, d.db.metadata(), 7);
            assert!(outcome.space.is_none() && outcome.estimate.is_none());
            assert_eq!((outcome.profiler_nanos, outcome.cost_usd), (0, 0.0));
            assert_eq!(outcome.priority, Priority::Standard);
            for free in [0, 1_000, 1_000_000] {
                let decision = decide(&c, &outcome, free);
                assert_eq!(decision.config, RagConfig::stuff(8));
                assert!(!decision.fallback);
            }
            assert!(!c.feedback_due());
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
        let tight = decide(&c, &outcome, 1_000);
        let roomy = decide(&c, &outcome, 1_000_000);
        assert_eq!(tight.config, roomy.config);
        assert!(!tight.fallback);
    }

    #[test]
    fn adaptive_rag_trusts_every_profile() {
        // No confidence fallback: every space is the pruning of the query's
        // own profile, low-confidence ones included.
        let d = build_dataset(DatasetKind::Musique, 40, 21);
        let mut c = SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Llama70b,
        }
        .controller();
        let mut distrusted = 0;
        for q in &d.queries {
            let outcome = c.on_profile(q, d.db.metadata(), 3);
            let estimate = outcome.estimate.expect("AdaptiveRAG* profiles");
            distrusted += usize::from(estimate.confidence < 0.90);
            assert_eq!(outcome.space, Some(crate::map_profile(&estimate)));
        }
        assert!(distrusted > 0, "no low-confidence profile was served");
    }
}
