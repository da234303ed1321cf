//! LLM request descriptors and lifecycle state.

use metis_llm::Nanos;

/// Unique id of an LLM request (one sequence in the engine).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RequestId(pub u64);

/// Id of the application-level group a request belongs to (all the LLM calls
/// of one RAG query share a group) — the unit Parrot\*-style co-scheduling
/// operates on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroupId(pub u64);

/// Id of the engine replica serving a request — index into a
/// [`Cluster`](crate::cluster::Cluster)'s replica list. A standalone engine
/// is replica 0.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ReplicaId(pub u32);

/// Pipeline stage of a request within its RAG query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// The only LLM call of a `stuff` or single-chunk synthesis.
    Single,
    /// A per-chunk map call (`map_reduce` mapper or `map_rerank` scorer).
    Map,
    /// The final reduce call of `map_reduce`.
    Reduce,
}

/// Scheduling priority of a request, derived from its query's SLO tier.
///
/// Lower variants are more urgent: `Interactive < Standard < Batch`, and the
/// preemptive scheduler ([`SchedPolicy::Preemptive`](crate::SchedPolicy))
/// admits in ascending order and preempts running sequences of a *strictly
/// lower* class (numerically greater) when a higher-class request cannot fit
/// in the KV pool.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Priority {
    /// Tight-SLO interactive queries (short-answer QA): scheduled first,
    /// never preempted by lower classes.
    Interactive,
    /// The default class for ordinary traffic.
    #[default]
    Standard,
    /// Throughput-oriented background work (long summarization, synthetic
    /// feedback runs): first to be preempted under KV pressure.
    Batch,
}

impl Priority {
    /// Short stable name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// All priorities, most urgent first.
    pub fn all() -> [Priority; 3] {
        [Priority::Interactive, Priority::Standard, Priority::Batch]
    }
}

/// A request submitted to the engine.
#[derive(Clone, Debug)]
pub struct LlmRequest {
    /// Unique id (caller-assigned, must not repeat).
    pub id: RequestId,
    /// Application group (RAG query) this call belongs to.
    pub group: GroupId,
    /// Pipeline stage.
    pub stage: Stage,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Exact number of output tokens this call will generate (decided by the
    /// generation model; the engine only simulates their timing).
    pub output_tokens: u64,
    /// Prompt tokens whose KV is already cached (chunk-level prefix reuse,
    /// §8): they occupy KV-cache space but skip prefill compute.
    pub cached_prompt_tokens: u64,
    /// Virtual time at which the request enters the engine queue.
    pub arrival: Nanos,
    /// SLO-derived scheduling class (only consulted by
    /// [`SchedPolicy::Preemptive`](crate::SchedPolicy)).
    pub priority: Priority,
}

impl LlmRequest {
    /// Total KV-cache tokens the request needs (prompt + output).
    pub fn kv_demand_tokens(&self) -> u64 {
        self.prompt_tokens + self.output_tokens
    }
}

/// Lifecycle state of a request inside the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RequestState {
    /// Admitted; `done` of `prompt_tokens` prefilled so far.
    Prefilling {
        /// Prompt tokens already prefilled.
        done: u64,
    },
    /// Prefill complete; `emitted` of `output_tokens` generated so far.
    Decoding {
        /// Output tokens generated so far.
        emitted: u64,
    },
    /// All output generated; KV freed.
    Finished {
        /// Completion time.
        at: Nanos,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_demand_sums_prompt_and_output() {
        let r = LlmRequest {
            id: RequestId(1),
            group: GroupId(1),
            stage: Stage::Single,
            prompt_tokens: 100,
            output_tokens: 20,
            cached_prompt_tokens: 0,
            arrival: 0,
            priority: Priority::default(),
        };
        assert_eq!(r.kv_demand_tokens(), 120);
    }

    #[test]
    fn priority_orders_most_urgent_first() {
        assert!(Priority::Interactive < Priority::Standard);
        assert!(Priority::Standard < Priority::Batch);
        assert_eq!(Priority::default(), Priority::Standard);
        let names: Vec<&str> = Priority::all().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["interactive", "standard", "batch"]);
    }
}
