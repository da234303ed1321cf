//! Per-system configuration controllers.
//!
//! Every serving system the paper evaluates — METIS and the three baselines
//! — differs from the others only in *policy*: how it reacts to a query's
//! profile, how it picks a RAG configuration at decision time, and what it
//! wants from the scheduler. The [`ConfigController`] trait captures exactly
//! that surface, so the [`Runner`](crate::runner::Runner) stays a
//! system-agnostic discrete-event loop and adding the next system is a
//! one-file change under this module:
//!
//! * [`MetisController`] — profiler → Algorithm 1 pruning → best-fit joint
//!   configuration/scheduling (§4), with confidence fallback and feedback.
//! * [`FixedController`] — vLLM with one static configuration.
//! * [`ParrotController`] — the same static configuration plus gang
//!   scheduling.
//! * [`AdaptiveRagController`] — per-query quality-maximizing choice,
//!   resource-oblivious.
//!
//! [`SystemKind`] remains the user-facing description of a system under
//! test, but it is now purely a *constructor* enum: its one job is
//! [`SystemKind::controller`].

mod adaptive;
mod fixed;
mod metis;
mod parrot;

use adaptive::AdaptiveRagController;
use fixed::FixedController;
use metis::MetisController;
pub use metis::{MetisOptions, PickPolicy};
use parrot::ParrotController;

use metis_datasets::QuerySpec;
use metis_engine::{Priority, SchedPolicy};
use metis_llm::{LatencyModel, Nanos};
use metis_profiler::{EstimatedProfile, ProfilerKind};
use metis_vectordb::{DbMetadata, IndexMeta};

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
    /// Metadata of the retrieval index serving this run (family, effective
    /// `nlist`/`nprobe`, corpus size): controllers weighing deeper
    /// retrieval can estimate its cost from it instead of assuming a free
    /// or constant-cost retriever.
    pub index: IndexMeta,
    /// Latency model of the serving replicas (for SLO-constrained picks).
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
/// assert_eq!(controller.name(), "metis");
/// // Full METIS asks the engine for SLO-class-aware admission.
/// assert_eq!(controller.sched_policy(), SchedPolicy::Preemptive);
/// ```
pub trait ConfigController {
    /// Short stable name, for reports.
    fn name(&self) -> &'static str;

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
            SystemKind::VllmFixed { config } => Box::new(FixedController::new(*config)),
            SystemKind::Parrot { config } => Box::new(ParrotController::new(*config)),
            SystemKind::AdaptiveRag { profiler } => Box::new(AdaptiveRagController::new(*profiler)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_engine::SchedPolicy;

    #[test]
    fn constructor_enum_builds_the_matching_controller() {
        let cases: Vec<(SystemKind, &str, SchedPolicy)> = vec![
            (
                SystemKind::Metis(MetisOptions::full()),
                "metis",
                SchedPolicy::Preemptive,
            ),
            (
                SystemKind::VllmFixed {
                    config: RagConfig::stuff(8),
                },
                "vllm-fixed",
                SchedPolicy::Fcfs,
            ),
            (
                SystemKind::Parrot {
                    config: RagConfig::stuff(8),
                },
                "parrot",
                SchedPolicy::GangByGroup,
            ),
            (
                SystemKind::AdaptiveRag {
                    profiler: ProfilerKind::Gpt4o,
                },
                "adaptive-rag",
                SchedPolicy::Fcfs,
            ),
        ];
        for (kind, name, policy) in cases {
            let c = kind.controller();
            assert_eq!(c.name(), name);
            assert_eq!(c.sched_policy(), policy);
        }
    }

    #[test]
    fn gangless_metis_runs_fcfs() {
        let mut opts = MetisOptions::full();
        opts.gang = false;
        opts.preemptive = false;
        assert_eq!(
            SystemKind::Metis(opts).controller().sched_policy(),
            SchedPolicy::Fcfs
        );
        // Preemptive subsumes the gang keys: it wins when both are set.
        let mut both = MetisOptions::full();
        both.gang = true;
        both.preemptive = true;
        assert_eq!(
            SystemKind::Metis(both).controller().sched_policy(),
            SchedPolicy::Preemptive
        );
        // The paper's plain gang configuration is still expressible.
        let mut gang_only = MetisOptions::full();
        gang_only.preemptive = false;
        assert_eq!(
            SystemKind::Metis(gang_only).controller().sched_policy(),
            SchedPolicy::GangByGroup
        );
    }
}
