//! Workload runner.
//!
//! Executes a full workload (one dataset, one arrival process) against one
//! serving system, producing per-query F1/delay records and aggregate
//! cost. This is the reproduction's equivalent of the paper's testbed
//! runs: every evaluation figure is a set of `Runner::run` calls.
//!
//! The runner is *system-agnostic*: all per-system policy (profiling,
//! configuration choice, scheduling preferences, feedback) lives in the
//! one [`Controller`], built once from the run's [`SystemKind`]. It is
//! also *driver-agnostic*: the serving substrate is the [`SimDriver`] that
//! [`RunConfig::driver`] builds — the deterministic simulator by default,
//! or the same simulator paced by a scaled wall clock — and the event loop
//! only ever talks to the [`Driver`] pump interface, so the same controller
//! and engine code serves both.
//!
//! The runner interleaves four event kinds on one virtual `Timeline` —
//! per query: **Profile** (API call, off-GPU) → **Decide** (read the routed
//! replica's free KV memory *at decision time* — the joint part of joint
//! scheduling — and pick the configuration) → **Retrieve** (execute the
//! index search the decided `num_chunks` asks for, charged by measured
//! search work via [`RetrievalModel`]) → submit the synthesis calls to the
//! driver's replicas; plus a periodic **Autoscale** tick when the fleet is
//! elastic. Retrieval deliberately follows the decision: the real
//! `index.search(query, top_k)` cannot run before `top_k` exists.
//!
//! [`Runner::run`] is only the loop: let the driver catch up to the next
//! event, hand it any completions, fire the event. Each event kind is one
//! `&mut self` handler on the run's state (`on_profile`, `on_decide`,
//! `on_retrieve`, `on_autoscale`, and `on_completions` for what the driver
//! returns), which is the seam tracing and fault injection hook into.
//! Between events the driver is pumped for completions, which advances
//! replicas in deterministic most-lagging order; under the realtime driver
//! it also waits for the scaled wall clock — which is exactly where arrival
//! pacing physically happens.
//!
//! **The run is its record.** The handlers hold only control state (a
//! query's plan, calls remaining, routed replica and retrieved chunks, in
//! `Staged` and then `InFlight`). Every per-query fact — profiled, decided,
//! retrieved, each served call's [`Completion`], answered — is appended to
//! the run's one log of `Record`s, in virtual time, and `fold` turns the log
//! into the [`RunResult`], auditing it under debug assertions. A query with
//! a call its replica could never admit ([`Engine::check_capacity`]) is
//! rejected before any of it is submitted, and logged as such.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use metis_datasets::Dataset;
use metis_engine::{
    Completion, Driver, DriverSpec, Engine, EngineConfig, EngineStats, GroupId, KvError,
    LlmRequest, PrefixCache, Priority, ReplicaId, RequestId, RouterPolicy, SimDriver, Stage,
};
use metis_llm::{
    nanos_to_secs, FleetSpec, GenModelConfig, GenerationModel, GpuCluster, LatencyModel, ModelKind,
    ModelSpec, Nanos, ReplicaSpec,
};
use metis_metrics::{f1_score, CellReport, LatencySummary, SummaryStats, ThroughputSummary};
use metis_vectordb::{
    IndexSpec, Quantization, RetrievalOutcome, RetrievalResult, SearchWork, StoreStats,
};

use crate::autoscaler::{Autoscaler, AutoscalerState, ScaleAction};
use crate::config::{RagConfig, SynthesisMethod};
use crate::controllers::{Controller, Decision, DecisionContext, ProfileOutcome, SystemKind};
use crate::retrieval::RetrievalModel;
use crate::synthesis::{plan_synthesis, PlannedCall, SynthesisInputs, SynthesisPlan};

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The system under test.
    pub system: SystemKind,
    /// Serving model.
    pub model: ModelSpec,
    /// GPU cluster backing *each replica*.
    pub cluster: GpuCluster,
    /// Number of independent engine replicas (each gets its own
    /// `cluster`-shaped GPU group; clamped to at least 1).
    pub replicas: usize,
    /// Heterogeneous fleet override: when set, the initial fleet is built
    /// from these per-replica specs (mixed GPU classes, per-replica
    /// warm-up) instead of `replicas` copies of `cluster`. Replicas the
    /// autoscaler adds later cycle through these specs too.
    pub replica_specs: Option<Vec<ReplicaSpec>>,
    /// How queries are dispatched across replicas.
    pub router: RouterPolicy,
    /// Fleet elasticity: when set, this policy is evaluated on the event
    /// timeline (under both drivers) and adds/drains replicas through the
    /// driver. `None` (the default) keeps the fixed fleet.
    pub autoscale: Option<Autoscaler>,
    /// Generation-model tuning.
    pub gen: GenModelConfig,
    /// Engine parameters (policy is overridden by the system kind).
    pub engine: EngineConfig,
    /// Per-query arrival times; must match the dataset's query count
    /// (ignored beyond the first entry in closed-loop mode).
    pub arrivals: Vec<Nanos>,
    /// Closed loop: send each query when the previous one completes
    /// (the paper's low-load experiment, Fig. 19).
    pub closed_loop: bool,
    /// Optional chunk-level KV prefix cache (§8's KV reuse): bytes of GPU
    /// memory *per replica* dedicated to caching per-chunk KV across
    /// queries. Each replica keeps its own cache (replicas share no KV), and
    /// cached chunks skip prefill compute on that replica only. `None`
    /// disables reuse (the paper's default — it leaves KV reuse to future
    /// work).
    pub prefix_cache_bytes: Option<u64>,
    /// Who executes the run: the deterministic simulator (the default) or
    /// the simulator paced by scaled wall time. API-serving runs
    /// (`model.kind == Api`) always simulate — there is no local engine to
    /// drive in real time.
    pub driver: DriverSpec,
    /// Master seed for all stochastic components.
    pub seed: u64,
}

impl RunConfig {
    /// A standard open-loop run of `system` on one Mistral-7B / A40 replica.
    pub fn standard(system: SystemKind, arrivals: Vec<Nanos>, seed: u64) -> Self {
        Self {
            system,
            model: ModelSpec::mistral_7b_awq(),
            cluster: GpuCluster::single_a40(),
            replicas: 1,
            replica_specs: None,
            router: RouterPolicy::RoundRobin,
            autoscale: None,
            gen: GenModelConfig::default(),
            engine: EngineConfig::default(),
            arrivals,
            closed_loop: false,
            prefix_cache_bytes: None,
            driver: DriverSpec::Sim,
            seed,
        }
    }

    /// The same run spread over `n` replicas behind `router`.
    pub fn replicated(mut self, n: usize, router: RouterPolicy) -> Self {
        self.replicas = n.max(1);
        self.router = router;
        self
    }

    /// The same run executed by `driver`.
    pub fn with_driver(mut self, driver: DriverSpec) -> Self {
        self.driver = driver;
        self
    }

    /// The same run with fleet elasticity governed by `policy`. The run
    /// starts at `replicas` (or `replica_specs`) and the policy adds or
    /// drains replicas from there, within its own bounds.
    pub fn with_autoscale(mut self, policy: Autoscaler) -> Self {
        self.autoscale = Some(policy);
        self
    }
}

/// Where one query's wall time went, stage by stage, in timeline nanos.
///
/// The stages partition the end-to-end delay along the query's *critical
/// chain*: profile → decide → retrieve → then, inside the engine, the call
/// that gated each wave (the last-finishing map, then the reduce). Engine
/// stages are wall time on that chain — a map call's prefill nanos include
/// the iterations it shared with other sequences, and a preempted victim's
/// queue time counts its re-queue wait — so the six fields sum *exactly* to
/// `finish − arrival` (see [`Completion::prefill_done`]'s telescoping
/// identity). The run's `fold` asserts this for every answered query under
/// debug assertions, so every test that runs the runner checks it, the
/// pinned figures in `tests/pins` among them. In API-serving mode there is
/// no local queue or prefill accounting: the provider call time lands in
/// `decode` and the engine stages are 0.
///
/// [`Completion::prefill_done`]: metis_engine::Completion::prefill_done
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Profiler latency (API call, off-GPU).
    pub profile: Nanos,
    /// Configuration decision. The decision itself is modeled as
    /// instantaneous (the controller runs off the critical path), so this
    /// is 0 today; the field exists so the report schema already has the
    /// slot when decision cost gets modeled.
    pub decide: Nanos,
    /// Index search + query embedding, charged by measured work.
    pub retrieve: Nanos,
    /// Engine queue wait along the critical chain (submit → admission,
    /// summed over the chain's calls).
    pub queue_wait: Nanos,
    /// Prefill wall time along the critical chain.
    pub prefill: Nanos,
    /// Decode wall time along the critical chain.
    pub decode: Nanos,
}

impl StageBreakdown {
    /// Sum of all stages — equals the query's end-to-end delay in nanos.
    pub fn total(&self) -> Nanos {
        self.profile + self.decide + self.retrieve + self.queue_wait + self.prefill + self.decode
    }
}

/// Mean seconds per stage across a run — what a Fig-12-style delay
/// breakdown plots. Produced by [`RunResult::stage_breakdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageMeans {
    /// Mean profiler seconds.
    pub profile: f64,
    /// Mean decision seconds (0 today; see [`StageBreakdown::decide`]).
    pub decide: f64,
    /// Mean retrieval seconds.
    pub retrieve: f64,
    /// Mean critical-chain queue-wait seconds.
    pub queue_wait: f64,
    /// Mean critical-chain prefill seconds.
    pub prefill: f64,
    /// Mean critical-chain decode seconds.
    pub decode: f64,
}

impl StageMeans {
    /// Sum of the stage means — equals the run's mean end-to-end delay.
    pub fn total(&self) -> f64 {
        self.profile + self.decide + self.retrieve + self.queue_wait + self.prefill + self.decode
    }

    /// `(name, mean secs)` pairs in pipeline order.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("profile", self.profile),
            ("decide", self.decide),
            ("retrieve", self.retrieve),
            ("queue_wait", self.queue_wait),
            ("prefill", self.prefill),
            ("decode", self.decode),
        ]
    }
}

/// Per-query outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Index of the query in the dataset.
    pub query_index: usize,
    /// Token F1 against the gold answer.
    pub f1: f64,
    /// End-to-end delay in seconds (arrival → final token, §2).
    pub delay_secs: f64,
    /// Profiler latency in seconds (0 for fixed-config systems).
    pub profiler_secs: f64,
    /// Retrieval latency in seconds: the measured index-search work (plus
    /// query embedding) of this query's retrieval, priced by the default
    /// [`RetrievalModel`].
    pub retrieval_secs: f64,
    /// Fraction of the query's needed base facts present in the retrieved
    /// chunks — ground-truth retrieval recall at the executed `num_chunks`
    /// (approximate indexes and shallow configurations both lower it).
    pub retrieval_recall: f64,
    /// The measured index-search work behind `retrieval_secs`: distance
    /// evaluations (exact and quantized), centroids ranked, lists probed,
    /// graph hops. Zero except for the search itself (embedding is charged
    /// separately).
    pub work: SearchWork,
    /// The executed configuration.
    pub config: RagConfig,
    /// Whether the §4.3 memory fallback fired.
    pub fallback: bool,
    /// The replica that served the query (0 in API-serving mode).
    pub replica: u32,
    /// Arrival time in seconds.
    pub arrival_secs: f64,
    /// Completion time in seconds.
    pub finish_secs: f64,
    /// Worst engine queueing delay over the query's calls (submit → last
    /// admission), in seconds — what SLO-class scheduling optimizes for
    /// high-priority traffic. 0 in API-serving mode (no local queue).
    pub queue_wait_secs: f64,
    /// The scheduling class the query's calls ran at.
    pub priority: Priority,
    /// Per-stage wall-nanos along the critical chain; sums exactly to the
    /// end-to-end delay.
    pub stages: StageBreakdown,
}

/// Aggregate outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-query records of the answered queries, in query order.
    pub per_query: Vec<QueryResult>,
    /// Queries rejected before any of their calls was submitted, because
    /// one needs more KV than the routed replica's whole pool holds. They
    /// have no `per_query` record: their delay and stages mean nothing.
    pub rejected: usize,
    /// Number of engine replicas that served the run.
    pub replicas: usize,
    /// GPU busy seconds summed across replicas (for the cost model).
    pub gpu_busy_secs: f64,
    /// API dollars spent (profiler and/or API serving).
    pub api_cost_usd: f64,
    /// First arrival → last completion, seconds.
    pub makespan_secs: f64,
    /// Chunk-KV prefix-cache hit rate (0 when the cache is disabled).
    pub prefix_hit_rate: f64,
    /// Preemptions across all replicas (0 under non-preemptive policies).
    pub preemptions: u64,
    /// Tokens discarded and recomputed by preemptions (0 under
    /// [`PreemptMode::Migrate`](metis_engine::PreemptMode) when every
    /// victim found headroom).
    pub preempted_tokens: u64,
    /// Preemption victims moved to another replica instead of recomputed.
    pub migrations: u64,
    /// Tokens of computed KV shipped between replicas by migrations.
    pub migrated_tokens: u64,
    /// High-water mark of concurrently live replicas (equals `replicas`
    /// for a fixed fleet).
    pub peak_replicas: usize,
    /// Integrated capacity cost in replica-seconds: each replica slot
    /// billed from spawn to retirement (or end of run). The autoscaler's
    /// cost axis; a fixed fleet of `n` bills `n ×` the run's span.
    pub replica_seconds: f64,
    /// The driver that executed the run.
    pub driver: DriverSpec,
    /// The index the run searched.
    pub index_spec: IndexSpec,
    /// How the index stored and scored vectors.
    pub quant: Quantization,
    /// Total index-search work across all (non-synthetic) queries.
    pub index_work: SearchWork,
    /// Chunk bytes the store's modelled hot (decoded) tier served during
    /// the run (see `ChunkStore`: the tiers are accounting).
    pub store_bytes_hot: u64,
    /// Chunk bytes the store's modelled cold (serialized) tier decoded
    /// during the run.
    pub store_bytes_cold: u64,
}

impl RunResult {
    /// Mean F1 across queries.
    pub fn mean_f1(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        self.per_query.iter().map(|q| q.f1).sum::<f64>() / self.per_query.len() as f64
    }

    /// Mean end-to-end delay in seconds.
    pub fn mean_delay_secs(&self) -> f64 {
        self.latency().mean()
    }

    /// Full latency distribution.
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::new(self.per_query.iter().map(|q| q.delay_secs).collect())
    }

    /// Retrieval-latency distribution across queries.
    pub fn retrieval(&self) -> LatencySummary {
        LatencySummary::new(self.per_query.iter().map(|q| q.retrieval_secs).collect())
    }

    /// Mean ground-truth retrieval recall across queries.
    pub fn mean_retrieval_recall(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        self.per_query
            .iter()
            .map(|q| q.retrieval_recall)
            .sum::<f64>()
            / self.per_query.len() as f64
    }

    /// End-to-end delay distribution of one scheduling class.
    pub fn latency_of(&self, priority: Priority) -> LatencySummary {
        LatencySummary::new(
            self.per_query
                .iter()
                .filter(|q| q.priority == priority)
                .map(|q| q.delay_secs)
                .collect(),
        )
    }

    /// Engine queueing-delay distribution, optionally restricted to one
    /// scheduling class — the figure of merit for preemptive scheduling
    /// (high-priority waits should stay flat under bursts).
    pub fn queue_wait(&self, priority: Option<Priority>) -> LatencySummary {
        LatencySummary::new(
            self.per_query
                .iter()
                .filter(|q| priority.is_none_or(|p| q.priority == p))
                .map(|q| q.queue_wait_secs)
                .collect(),
        )
    }

    /// Throughput over the run.
    pub fn throughput(&self) -> ThroughputSummary {
        ThroughputSummary {
            completed: self.per_query.len(),
            makespan_secs: self.makespan_secs,
        }
    }

    /// Completed-query counts per replica, in replica-id order.
    pub fn completions_by_replica(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.replicas.max(1)];
        for q in &self.per_query {
            let idx = q.replica as usize;
            if idx >= counts.len() {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        counts
    }

    /// Mean seconds per pipeline stage across the run — the Fig-12-style
    /// delay decomposition. `stage_breakdown().total()` equals
    /// [`mean_delay_secs`](Self::mean_delay_secs) (up to float summation),
    /// because each query's stages partition its delay exactly.
    pub fn stage_breakdown(&self) -> StageMeans {
        if self.per_query.is_empty() {
            return StageMeans::default();
        }
        let n = self.per_query.len() as f64;
        let mut sums = StageMeans::default();
        for q in &self.per_query {
            sums.profile += nanos_to_secs(q.stages.profile);
            sums.decide += nanos_to_secs(q.stages.decide);
            sums.retrieve += nanos_to_secs(q.stages.retrieve);
            sums.queue_wait += nanos_to_secs(q.stages.queue_wait);
            sums.prefill += nanos_to_secs(q.stages.prefill);
            sums.decode += nanos_to_secs(q.stages.decode);
        }
        StageMeans {
            profile: sums.profile / n,
            decide: sums.decide / n,
            retrieve: sums.retrieve / n,
            queue_wait: sums.queue_wait / n,
            prefill: sums.prefill / n,
            decode: sums.decode / n,
        }
    }

    /// Lowers the run into one report cell — the uniform currency of the
    /// bench harness and the committed baselines (see
    /// [`metis_metrics::BenchReport`]).
    ///
    /// Realtime runs are marked with a `driver = realtime` knob and a
    /// `time_scale` extra metric so a reader can tell them apart; their
    /// virtual numbers equal the sim run's, and nothing skips on the
    /// marker. Simulated cells deliberately carry
    /// *no* driver marker: the simulator is the default and has always been,
    /// and pre-refactor golden reports must stay byte-for-byte valid. For the
    /// same reason, index-work extras (`index_*`, `store_bytes_*`) are
    /// emitted only when the run used a non-default index or vector storage
    /// — a flat/f32 cell renders exactly as it did before the ANN subsystem
    /// existed.
    pub fn cell_report(&self, id: impl Into<String>, seed: u64) -> CellReport {
        let cell = CellReport {
            queries: self.per_query.len() as u64,
            f1: self.mean_f1(),
            latency: SummaryStats::of(&self.latency()),
            queue_wait: SummaryStats::of(&self.queue_wait(None)),
            retrieval: SummaryStats::of(&self.retrieval()),
            stages: self
                .stage_breakdown()
                .named()
                .iter()
                .map(|&(name, secs)| (name.to_owned(), secs))
                .collect(),
            throughput_qps: self.throughput().qps(),
            preemptions: self.preemptions,
            gpu_busy_secs: self.gpu_busy_secs,
            api_cost_usd: self.api_cost_usd,
            retrieval_recall: self.mean_retrieval_recall(),
            ..CellReport::new(id, seed)
        };
        let cell = match self.driver {
            DriverSpec::Realtime { time_scale } => cell
                .knob("driver", self.driver.name())
                .metric("time_scale", time_scale),
            DriverSpec::Sim => cell,
        };
        // Elasticity extras only when the fleet actually changed shape or
        // migrations happened: fixed-fleet recompute cells (everything that
        // existed before elasticity) must render byte-identically.
        let cell = if self.peak_replicas != self.replicas {
            cell.metric("peak_replicas", self.peak_replicas as f64)
                .metric("replica_seconds", self.replica_seconds)
        } else {
            cell
        };
        let cell = if self.migrations > 0 {
            cell.metric("migrations", self.migrations as f64)
                .metric("migrated_tokens", self.migrated_tokens as f64)
                .metric("preempted_tokens", self.preempted_tokens as f64)
        } else {
            cell
        };
        let cell = if self.rejected > 0 {
            cell.metric("rejected", self.rejected as f64)
        } else {
            cell
        };
        if self.index_spec != IndexSpec::Flat || self.quant != Quantization::F32 {
            cell.knob("quantize", self.quant.name())
                .metric(
                    "index_distance_evals",
                    self.index_work.vectors_scored as f64,
                )
                .metric(
                    "index_quantized_evals",
                    self.index_work.quantized_scored as f64,
                )
                .metric("index_hops", self.index_work.graph_hops as f64)
                .metric("index_lists_probed", self.index_work.lists_probed as f64)
                .metric("store_bytes_hot", self.store_bytes_hot as f64)
                .metric("store_bytes_cold", self.store_bytes_cold as f64)
        } else {
            cell
        }
    }

    /// Mean fraction of the delay spent profiling (Fig. 18).
    pub fn mean_profiler_fraction(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        self.per_query
            .iter()
            .map(|q| {
                if q.delay_secs > 0.0 {
                    q.profiler_secs / q.delay_secs
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / self.per_query.len() as f64
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// Run the profiler (or skip straight to deciding for fixed systems).
    Profile(usize),
    /// Choose the configuration (sized against the routed replica's free
    /// memory) and start the retrieval its `num_chunks` asks for.
    Decide(usize),
    /// Retrieval finished: plan synthesis over the fetched chunks and
    /// submit the calls.
    Retrieve(usize),
    /// Periodic autoscaler evaluation: read queue depth and preemption
    /// pressure, add or drain a replica.
    Autoscale,
}

/// The run's one event container. Events pop in (time, insertion) order;
/// the insertion stamp is unique, so the event kind never decides.
#[derive(Default)]
struct Timeline {
    heap: BinaryHeap<Reverse<(Nanos, u64, EventKind)>>,
    seq: u64,
}

impl Timeline {
    fn push(&mut self, t: Nanos, event: EventKind) {
        self.heap.push(Reverse((t, self.seq, event)));
        self.seq += 1;
    }

    /// When the next event is due.
    fn next_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    fn pop(&mut self) -> Option<(Nanos, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, event))| (t, event))
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One fact about query `query`, appended to the run's log as it happens,
/// at virtual time `at`. The log is the run's only per-query record:
/// [`fold`] turns it into the [`RunResult`]'s. Golden feedback runs are
/// measurement, not queries, and log nothing.
#[derive(Clone, Copy, Debug)]
struct Record {
    query: usize,
    at: Nanos,
    fact: Fact,
}

/// What happened to a query, in the order its facts are logged.
#[derive(Clone, Copy, Debug)]
enum Fact {
    /// The query arrived; its profile takes this long, and sets its class.
    Profiled(Nanos, Priority),
    /// Its configuration was chosen.
    Decided(Decision),
    /// Its index search ran: the nanos priced from the measured work, and
    /// the fact recall of what it fetched.
    Retrieved(Nanos, SearchWork, f64),
    /// One of its calls finished (under API serving, a synthesized
    /// completion with no queue or prefill).
    Served(Completion),
    /// Its last call finished; the F1 of its answer.
    Answered(f64),
    /// A call of its plan needs more KV than the routed replica's whole
    /// pool holds ([`KvError::BeyondCapacity`]); nothing was submitted.
    Rejected(KvError),
}

/// What the fold knows of one query so far.
#[derive(Default)]
struct Tally {
    arrival: Nanos,
    priority: Priority,
    decision: Option<Decision>,
    work: SearchWork,
    recall: f64,
    /// Worst (submit → last admission) wait over the query's calls.
    queue_wait: Nanos,
    stages: StageBreakdown,
    /// The last logged call of each wave (the maps or the one call, then
    /// the reduce): the call that gated the wave.
    gates: [Option<Completion>; 2],
    /// Times answered or rejected.
    settled: u8,
    result: Option<QueryResult>,
}

/// Folds the log, in append order, into the answered queries' results (in
/// query order) and the count of rejected ones. Under debug assertions,
/// so in every test run, it also audits the log: each query is answered or
/// rejected exactly once, and each answer's stages sum to its delay.
fn fold(log: &[Record], queries: usize) -> (Vec<QueryResult>, usize) {
    let mut tallies: Vec<Tally> = (0..queries).map(|_| Tally::default()).collect();
    let mut rejected = 0;
    for &Record { query, at, fact } in log {
        let t = &mut tallies[query];
        match fact {
            Fact::Profiled(profiler, priority) => {
                (t.arrival, t.priority, t.stages.profile) = (at, priority, profiler);
            }
            Fact::Decided(decision) => t.decision = Some(decision),
            Fact::Retrieved(nanos, work, recall) => {
                (t.stages.retrieve, t.work, t.recall) = (nanos, work, recall);
            }
            Fact::Served(call) => {
                // Re-admissions after preemption count: that wait is real.
                t.queue_wait = t.queue_wait.max(call.admitted.saturating_sub(call.arrival));
                t.gates[usize::from(call.stage == Stage::Reduce)] = Some(call);
            }
            Fact::Answered(f1) => {
                // The gates' queue/prefill/decode decompositions *are* the
                // critical chain's: the reduce arrives as the maps' gate
                // finishes, so the chain telescopes to the whole delay.
                for c in t.gates.iter().flatten() {
                    t.stages.queue_wait += c.admitted.saturating_sub(c.arrival);
                    t.stages.prefill += c.prefill_done.saturating_sub(c.admitted);
                    t.stages.decode += c.finish.saturating_sub(c.prefill_done);
                }
                let last = t.gates[1].or(t.gates[0]).expect("an answer follows a call");
                let decision = t.decision.expect("a query is decided before it is served");
                let delay = at.saturating_sub(t.arrival);
                debug_assert_eq!(t.stages.total(), delay, "query {query}'s stages");
                t.settled += 1;
                t.result = Some(QueryResult {
                    query_index: query,
                    f1,
                    delay_secs: nanos_to_secs(delay),
                    profiler_secs: nanos_to_secs(t.stages.profile),
                    retrieval_secs: nanos_to_secs(t.stages.retrieve),
                    retrieval_recall: t.recall,
                    work: t.work,
                    config: decision.config,
                    fallback: decision.fallback,
                    replica: last.replica.0,
                    arrival_secs: nanos_to_secs(t.arrival),
                    finish_secs: nanos_to_secs(at),
                    queue_wait_secs: nanos_to_secs(t.queue_wait),
                    priority: t.priority,
                    stages: t.stages,
                });
            }
            Fact::Rejected(error) => {
                debug_assert!(
                    matches!(error, KvError::BeyondCapacity { requested, capacity } if requested > capacity),
                    "query {query} rejected for {error}"
                );
                t.settled += 1;
                rejected += 1;
            }
        }
    }
    debug_assert!(
        tallies.iter().all(|t| t.settled == 1),
        "each query is answered or rejected exactly once"
    );
    let per_query = tallies.into_iter().filter_map(|t| t.result).collect();
    (per_query, rejected)
}

/// A query's control state once its configuration is decided: what
/// submitting its calls needs.
struct Query {
    query_index: usize,
    priority: Priority,
    config: RagConfig,
    replica: ReplicaId,
}

/// A query that has not reached the serving substrate yet.
enum Staged {
    /// Profile → Decide: waiting out the profiler's API latency.
    Profiled(ProfileOutcome),
    /// Decide → Retrieve: configured and routed, its index search in flight.
    Searching {
        query: Query,
        retrieved: Vec<RetrievalResult>,
    },
}

/// A query whose calls are with the driver.
struct InFlight {
    query: Query,
    plan: SynthesisPlan,
    /// Calls of the current wave still outstanding.
    remaining: usize,
    reduce_submitted: bool,
    /// A golden-configuration feedback run, not a user query.
    synthetic: bool,
}

/// The workload runner: a system- and driver-agnostic event loop over one
/// [`Controller`] and an engine [`SimDriver`].
pub struct Runner<'a> {
    dataset: &'a Dataset,
    cfg: RunConfig,
}

impl<'a> Runner<'a> {
    /// Creates a runner for one dataset and run configuration.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` does not provide one entry per query.
    pub fn new(dataset: &'a Dataset, cfg: RunConfig) -> Self {
        assert_eq!(
            cfg.arrivals.len(),
            dataset.queries.len(),
            "need one arrival per query"
        );
        Self { dataset, cfg }
    }

    /// Executes the run to completion: a loop that lets the driver catch up
    /// to the next timeline event, fires it, and finally drains.
    pub fn run(self) -> RunResult {
        let mut run = Run::new(self.dataset, &self.cfg);
        loop {
            // Let the driver make progress (and collect completions) until
            // the next event is due: the driver steps the most-lagging
            // replica up to it (and, paced, waits for the wall to reach
            // it). With no events left, drain. API serving submits
            // nothing, so its one idle engine never steps. Completions are
            // handled batch by batch so follow-up submissions (a query's
            // reduce) chain off each batch before the driver runs any
            // further.
            let next = run.timeline.next_time();
            let done = match next {
                Some(t) => run.driver.pump_before(t),
                None => run.driver.pump_idle(),
            };
            match (done, next) {
                (Some(done), _) => run.on_completions(&done),
                (None, Some(_)) => match run.timeline.pop().expect("an event was due") {
                    (t, EventKind::Profile(q)) => run.on_profile(q, t),
                    (t, EventKind::Decide(q)) => run.on_decide(q, t),
                    (t, EventKind::Retrieve(q)) => run.on_retrieve(q, t),
                    (t, EventKind::Autoscale) => run.on_autoscale(t),
                },
                // Every event fired and every submitted request complete.
                (None, None) => break,
            }
        }
        run.finish()
    }
}

/// The state of one run in progress; the event handlers are its methods.
struct Run<'a> {
    dataset: &'a Dataset,
    cfg: &'a RunConfig,
    /// API serving (Fig. 13's GPT-4o comparison): no local engine runs.
    api_mode: bool,
    /// `cfg.cluster`'s latency model, which prices API serving's calls;
    /// decisions read the routed replica's own model instead.
    latency: LatencyModel,
    gen: GenerationModel,
    controller: Controller,
    driver_spec: DriverSpec,
    driver: SimDriver,
    /// The initial fleet; replicas the autoscaler adds cycle through it.
    fleet: FleetSpec,
    engine_cfg: EngineConfig,
    timeline: Timeline,
    /// Per-replica prefix-cache capacity in tokens, when KV reuse is on.
    prefix_tokens: Option<u64>,
    /// One prefix cache per replica: chunk KV materialized on one backend
    /// is invisible to the others.
    prefix_caches: Option<Vec<PrefixCache>>,
    autoscale: Option<Autoscaler>,
    scaler_state: AutoscalerState,
    staged: BTreeMap<usize, Staged>,
    /// Every query ever submitted, indexed by its calls' [`GroupId`].
    in_flight: Vec<InFlight>,
    next_req: u64,
    /// The run's facts, append-only; [`fold`] turns them into its results.
    log: Vec<Record>,
    api_cost: f64,
    /// The chunk store's tier counters at the start, so the report can
    /// attribute hot/cold traffic to this run alone (they are cumulative
    /// across runs sharing a dataset).
    store_stats_at_start: StoreStats,
}

impl<'a> Run<'a> {
    fn new(dataset: &'a Dataset, cfg: &'a RunConfig) -> Self {
        let api_mode = cfg.model.kind == ModelKind::Api;
        let controller = cfg.system.controller();
        // API serving has no local replicas: collapse to one engine (never
        // stepped) so the run report doesn't invent idle backends.
        let replica_count = if api_mode { 1 } else { cfg.replicas.max(1) };
        let fleet = match &cfg.replica_specs {
            Some(specs) if !api_mode => FleetSpec::heterogeneous(cfg.model.clone(), specs.clone()),
            _ => FleetSpec::new(cfg.model.clone(), cfg.cluster, replica_count),
        };
        let engine_cfg = EngineConfig {
            policy: controller.sched_policy(),
            ..cfg.engine
        };
        let engines: Vec<Engine> = fleet
            .latency_models()
            .into_iter()
            .map(|lat| Engine::new(lat, engine_cfg))
            .collect();
        // API serving never steps an engine, so pacing it would only wait:
        // it always runs on the simulator.
        let driver_spec = if api_mode {
            DriverSpec::Sim
        } else {
            cfg.driver
        };
        let driver = driver_spec.build(engines, cfg.router);

        let mut timeline = Timeline::default();
        if cfg.closed_loop {
            if let Some(&first) = cfg.arrivals.first() {
                timeline.push(first, EventKind::Profile(0));
            }
        } else {
            for (q, &t) in cfg.arrivals.iter().enumerate() {
                timeline.push(t, EventKind::Profile(q));
            }
        }
        // Fleet elasticity: the first autoscaler tick fires one interval
        // after the first arrival; each tick reschedules the next.
        let autoscale = if api_mode { None } else { cfg.autoscale };
        if let (Some(policy), Some(&first)) = (&autoscale, cfg.arrivals.iter().min()) {
            timeline.push(first + policy.eval_interval_nanos, EventKind::Autoscale);
        }
        // Replicas added by the autoscaler get their own (cold) cache of
        // the same size.
        let prefix_tokens = cfg
            .prefix_cache_bytes
            .map(|bytes| bytes / cfg.model.kv_bytes_per_token().max(1));
        let prefix_caches = prefix_tokens.map(|tokens| {
            (0..driver.cluster().len())
                .map(|_| PrefixCache::new(tokens))
                .collect()
        });
        Self {
            dataset,
            cfg,
            api_mode,
            latency: LatencyModel::new(cfg.model.clone(), cfg.cluster),
            gen: GenerationModel::new(&cfg.model, cfg.gen),
            controller,
            driver_spec,
            driver,
            fleet,
            engine_cfg,
            timeline,
            prefix_tokens,
            prefix_caches,
            autoscale,
            scaler_state: AutoscalerState::default(),
            staged: BTreeMap::new(),
            in_flight: Vec::new(),
            next_req: 0,
            // Five records for a query answered by one call.
            log: Vec::with_capacity(5 * cfg.arrivals.len()),
            api_cost: 0.0,
            store_stats_at_start: dataset.db.store().stats(),
        }
    }

    fn fresh_request(&mut self) -> RequestId {
        let id = RequestId(self.next_req);
        self.next_req += 1;
        id
    }

    /// Plans synthesis for query `q` under `config` over `retrieved`.
    fn plan(
        &self,
        q: usize,
        config: &RagConfig,
        retrieved: &[RetrievalResult],
        seed: u64,
    ) -> SynthesisPlan {
        let query = &self.dataset.queries[q];
        let inputs = SynthesisInputs {
            gen: &self.gen,
            truth: &query.truth,
            query_tokens: &query.tokens,
            boilerplate: &self.dataset.boilerplate,
        };
        plan_synthesis(&inputs, config, retrieved, seed)
    }

    /// Query `q` arrives at `t`: run the profiler (an API call, off-GPU)
    /// and schedule the decision for when it returns.
    fn on_profile(&mut self, q: usize, t: Nanos) {
        let outcome = self.controller.on_profile(
            &self.dataset.queries[q],
            self.dataset.db.metadata(),
            self.cfg.seed ^ 0xF0F1,
        );
        self.api_cost += outcome.cost_usd;
        self.timeline
            .push(t + outcome.profiler_nanos, EventKind::Decide(q));
        self.note(
            q,
            t,
            Fact::Profiled(outcome.profiler_nanos, outcome.priority),
        );
        self.staged.insert(q, Staged::Profiled(outcome));
    }

    /// Chooses the configuration for `q` at decision time `t` (against the
    /// routed replica's memory snapshot), executes the index search the
    /// decided `num_chunks` asks for, and schedules its completion — the
    /// measured search work priced by the default [`RetrievalModel`].
    fn on_decide(&mut self, q: usize, t: Nanos) {
        let Some(Staged::Profiled(outcome)) = self.staged.remove(&q) else {
            unreachable!("query {q} is decided once, after its profile");
        };
        let query = &self.dataset.queries[q];
        let db = &self.dataset.db;
        // Route first, then let the controller size its configuration
        // against that replica's free memory: per-backend joint
        // configuration/scheduling.
        let replica = self.driver.route(t);
        let engine = self.driver.cluster().replica(replica);
        let decision = self.controller.decide(&DecisionContext {
            space: outcome.space.as_ref(),
            estimate: outcome.estimate.as_ref(),
            free_kv_tokens: engine.free_kv_tokens(),
            preemption_pressure: engine.stats().preemption_pressure(),
            chunk_size: db.metadata().chunk_size as u64,
            query_tokens: query.tokens.len() as u64,
            latency: engine.latency_model(),
        });
        // The real index search, sized by the decision's top-k through the
        // one shared clamp, with per-search work accounting.
        let top_k = decision.config.effective_chunks(db.len());
        let RetrievalOutcome {
            results: retrieved,
            work,
            embed_units,
        } = db.retrieve_counted(&query.tokens, top_k);
        let retrieval_nanos = RetrievalModel::default().nanos(&work, embed_units);
        self.timeline
            .push(t + retrieval_nanos, EventKind::Retrieve(q));
        let recall = fact_recall(query, &retrieved);
        self.note(q, t, Fact::Decided(decision));
        self.note(q, t, Fact::Retrieved(retrieval_nanos, work, recall));
        let query = Query {
            query_index: q,
            priority: outcome.priority,
            config: decision.config,
            replica,
        };
        self.staged
            .insert(q, Staged::Searching { query, retrieved });
    }

    /// Retrieval for `q` finished at `t`: plan synthesis over the fetched
    /// chunks and submit the calls to the replica routed at decide time.
    fn on_retrieve(&mut self, q: usize, t: Nanos) {
        let Some(Staged::Searching {
            mut query,
            retrieved,
        }) = self.staged.remove(&q)
        else {
            unreachable!("query {q} is submitted once, after its decision");
        };
        let seed = self.cfg.seed ^ (q as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = self.plan(q, &query.config, &retrieved, seed);
        if self.api_mode {
            return self.serve_by_api(q, &plan, t);
        }

        // Chunk-level KV reuse (§8): consult the prefix cache for every
        // chunk this plan reads; cached chunks skip prefill compute. A
        // `stuff` plan reads its chunks in one call, the others one each.
        let stuffed = query.config.synthesis == SynthesisMethod::Stuff;
        let read = if stuffed {
            query.config.effective_chunks(retrieved.len())
        } else {
            let calls = plan.map_calls.len().min(retrieved.len());
            calls.max(usize::from(!retrieved.is_empty()))
        };
        let read = &retrieved[..read];
        query.replica = self.reroute_by_prefix(query.replica, read, t);
        if let Some(error) = self.beyond_capacity(query.replica, &plan) {
            self.note(q, t, Fact::Rejected(error));
            return self.settle(q, t);
        }
        // The routed replica's own cache: KV cached elsewhere doesn't help.
        let cached_per_call: Vec<u64> = match &mut self.prefix_caches {
            None => Vec::new(),
            Some(caches) => {
                let cache = &mut caches[query.replica.0 as usize];
                let per_chunk = read
                    .iter()
                    .map(|r| cache.lookup_or_insert(r.hit.chunk, r.text.len() as u64));
                if stuffed {
                    vec![per_chunk.sum()]
                } else {
                    per_chunk.collect()
                }
            }
        };
        self.submit_wave(query, plan, false, &cached_per_call, t);

        // §5 feedback: the controller may ask for one golden-configuration
        // run whose completion grounds the profiler. Its retrieval is
        // background measurement and is not charged to the timeline.
        if self.controller.feedback_due() {
            let golden = RagConfig::golden();
            let db = &self.dataset.db;
            let retrieved = db.retrieve(
                &self.dataset.queries[q].tokens,
                golden.effective_chunks(db.len()),
            );
            let plan = self.plan(q, &golden, &retrieved, self.cfg.seed ^ 0x601D ^ q as u64);
            let synthetic = Query {
                query_index: q,
                // Golden feedback runs are background measurement: they
                // yield to real traffic under a preemptive scheduler.
                priority: Priority::Batch,
                config: golden,
                replica: self.driver.route(t),
            };
            // A golden run its replica could never hold grounds nothing.
            if self.beyond_capacity(synthetic.replica, &plan).is_none() {
                self.submit_wave(synthetic, plan, true, &[], t);
            }
        }
    }

    /// Prefix-aware routing: the decide-time route was a least-KV fallback
    /// (the retrieved chunks were unknown). Now the chunks the plan `read`s
    /// are known, so re-route to the routable replica whose cache already
    /// holds the most of their KV — and only switch when some cache
    /// actually overlaps, otherwise the memory-sized fallback stands.
    fn reroute_by_prefix(
        &self,
        routed: ReplicaId,
        read: &[RetrievalResult],
        t: Nanos,
    ) -> ReplicaId {
        let (RouterPolicy::PrefixAware, Some(caches)) = (self.cfg.router, &self.prefix_caches)
        else {
            return routed;
        };
        let overlap_of = |cache: &PrefixCache| -> u64 {
            read.iter()
                .map(|r| cache.peek_tokens(r.hit.chunk, r.text.len() as u64))
                .sum()
        };
        caches
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                self.driver.cluster().is_routable(ReplicaId(i as u32), t) || i == routed.0 as usize
            })
            .map(|(i, cache)| (overlap_of(cache), i))
            .max_by_key(|&(overlap, i)| (overlap, Reverse(i)))
            .filter(|&(overlap, _)| overlap > 0)
            .map_or(routed, |(_, i)| ReplicaId(i as u32))
    }

    /// The error of the first call of `plan` that `replica` could never
    /// admit, however empty its pool: such a query is rejected before any
    /// of its calls is submitted.
    fn beyond_capacity(&self, replica: ReplicaId, plan: &SynthesisPlan) -> Option<KvError> {
        let engine = self.driver.cluster().replica(replica);
        plan.map_calls
            .iter()
            .chain(&plan.reduce_call)
            .find_map(|c| {
                engine
                    .check_capacity(c.prompt_tokens, c.output_tokens)
                    .err()
            })
    }

    /// API serving (Fig. 13's GPT-4o comparison): map calls run concurrently
    /// against the provider; the reduce (if any) follows. Each call is
    /// logged as a completion with no local queue or prefill, so it lands
    /// in `decode`; the slowest map is logged last, as the one that gates
    /// the reduce.
    fn serve_by_api(&mut self, q: usize, plan: &SynthesisPlan, t: Nanos) {
        let latency = &self.latency;
        let api_nanos = |c: &PlannedCall| latency.api_call(c.prompt_tokens, c.output_tokens);
        let stage = if plan.reduce_call.is_some() {
            Stage::Map
        } else {
            Stage::Single
        };
        let maps = 0..plan.map_calls.len();
        let slowest = maps.clone().max_by_key(|&i| api_nanos(&plan.map_calls[i]));
        let mut finish = t;
        for i in maps.filter(|&i| Some(i) != slowest).chain(slowest) {
            finish = t + api_nanos(&plan.map_calls[i]);
            self.log.push(provider_call(q, stage, t, finish));
        }
        if let Some(reduce) = &plan.reduce_call {
            let start = finish;
            finish += api_nanos(reduce);
            self.log
                .push(provider_call(q, Stage::Reduce, start, finish));
        }
        for c in plan.map_calls.iter().chain(&plan.reduce_call) {
            self.api_cost += self.latency.api_cost_usd(c.prompt_tokens, c.output_tokens);
        }
        let gold = self.dataset.queries[q].gold_answer();
        self.note(q, finish, Fact::Answered(f1_score(&plan.answer, &gold)));
        self.settle(q, finish);
    }

    /// Submits a query's first wave — its map calls, or the single `stuff`
    /// call — to its routed replica and records it as in flight.
    fn submit_wave(
        &mut self,
        query: Query,
        plan: SynthesisPlan,
        synthetic: bool,
        cached_per_call: &[u64],
        now: Nanos,
    ) {
        let group = GroupId(self.in_flight.len() as u64);
        let stage = if plan.reduce_call.is_some() {
            Stage::Map
        } else {
            Stage::Single
        };
        for (ci, c) in plan.map_calls.iter().enumerate() {
            let id = self.fresh_request();
            self.driver.submit(
                query.replica,
                LlmRequest {
                    id,
                    group,
                    stage,
                    prompt_tokens: c.prompt_tokens,
                    output_tokens: c.output_tokens,
                    cached_prompt_tokens: cached_per_call.get(ci).copied().unwrap_or(0),
                    arrival: now,
                    priority: query.priority,
                },
            );
        }
        self.in_flight.push(InFlight {
            remaining: plan.map_calls.len(),
            query,
            plan,
            reduce_submitted: false,
            synthetic,
        });
    }

    /// Handles engine completions: map → reduce chaining and finalization.
    fn on_completions(&mut self, completions: &[Completion]) {
        for c in completions {
            let a = &mut self.in_flight[c.group.0 as usize];
            a.remaining = a.remaining.saturating_sub(1);
            let q = a.query.query_index;
            if !a.synthetic {
                let (query, at, fact) = (q, c.finish, Fact::Served(*c));
                self.log.push(Record { query, at, fact });
            }
            if a.remaining > 0 {
                continue;
            }
            // `c` gated its wave (last map before the reduce, or the final
            // call), so the reduce arrives as it finishes.
            if let (Some(reduce), false) = (a.plan.reduce_call, a.reduce_submitted) {
                // All maps done: submit the reduce call now, to the same
                // replica (the query's KV and gang stay on one backend).
                a.reduce_submitted = true;
                a.remaining = 1;
                let (replica, priority) = (a.query.replica, a.query.priority);
                let id = self.fresh_request();
                self.driver.submit(
                    replica,
                    LlmRequest {
                        id,
                        group: c.group,
                        stage: Stage::Reduce,
                        prompt_tokens: reduce.prompt_tokens,
                        output_tokens: reduce.output_tokens,
                        cached_prompt_tokens: 0,
                        arrival: c.finish,
                        priority,
                    },
                );
                continue;
            }
            // Query complete.
            self.controller.on_query_complete(a.synthetic);
            if !a.synthetic {
                let f1 = f1_score(&a.plan.answer, &self.dataset.queries[q].gold_answer());
                self.note(q, c.finish, Fact::Answered(f1));
                self.settle(q, c.finish);
            }
        }
    }

    /// Appends a fact about query `q`, at `at`, to the run's log.
    fn note(&mut self, q: usize, at: Nanos, fact: Fact) {
        self.log.push(Record { query: q, at, fact });
    }

    /// Query `q` left the system at `at`, answered or rejected; in
    /// closed-loop mode, where queries run one at a time, that is the next
    /// query's arrival.
    fn settle(&mut self, q: usize, at: Nanos) {
        if self.cfg.closed_loop && q + 1 < self.dataset.queries.len() {
            self.timeline.push(at, EventKind::Profile(q + 1));
        }
    }

    /// Periodic autoscaler evaluation at `t`: read the fleet's load off
    /// the cluster and add or drain one replica through the driver.
    fn on_autoscale(&mut self, t: Nanos) {
        let policy = self.autoscale.expect("autoscale event without policy");
        let cluster = self.driver.cluster();
        let (active, queue_depth, slots) =
            (cluster.active_len(t), cluster.queue_depth(), cluster.len());
        // Worst pressure over the replicas still taking routes: retired
        // slots keep their (frozen) stats and must not gate future
        // decisions.
        let pressure = cluster
            .replicas()
            .filter(|e| cluster.is_routable(e.replica(), t))
            .map(|e| e.stats().preemption_pressure())
            .fold(0.0_f64, f64::max);
        match policy.evaluate(t, active, queue_depth, pressure, &mut self.scaler_state) {
            ScaleAction::Up => {
                // New slots cycle through the fleet's replica specs, so a
                // heterogeneous mix grows in kind.
                let spec = self.fleet.replicas[slots % self.fleet.replicas.len()];
                let lat = LatencyModel::new(self.cfg.model.clone(), spec.cluster);
                let warmup = spec.warmup_nanos.max(policy.warmup_nanos);
                self.driver
                    .add_replica(Engine::new(lat, self.engine_cfg), t, warmup);
                if let (Some(caches), Some(tokens)) = (&mut self.prefix_caches, self.prefix_tokens)
                {
                    caches.push(PrefixCache::new(tokens));
                }
            }
            ScaleAction::Down => {
                // Drain the newest routable slot; the driver refuses the
                // last one.
                for i in (0..slots).rev() {
                    let id = ReplicaId(i as u32);
                    if self.driver.cluster().is_routable(id, t) && self.driver.drain_replica(id, t)
                    {
                        break;
                    }
                }
            }
            ScaleAction::Hold => {}
        }
        // Keep ticking while external events remain; once only the drain is
        // left the fleet is frozen and the run can empty its timeline.
        if !self.timeline.is_empty() {
            self.timeline
                .push(t + policy.eval_interval_nanos, EventKind::Autoscale);
        }
    }

    /// Ends the run (waiting for the wall under realtime), folds the log
    /// into its results, and reads the cluster's totals.
    fn finish(self) -> RunResult {
        self.driver.finish();
        let (per_query, rejected) = fold(&self.log, self.dataset.queries.len());
        let first = per_query
            .iter()
            .map(|r| r.arrival_secs)
            .fold(f64::MAX, f64::min);
        let last = per_query.iter().map(|r| r.finish_secs).fold(0.0, f64::max);
        let index_meta = self.dataset.db.index_meta();
        let mut index_work = SearchWork::default();
        for r in &per_query {
            index_work.add(&r.work);
        }
        let store = self.dataset.db.store().stats();
        let store_delta = store.since(&self.store_stats_at_start);
        let (hits, lookups) = self
            .prefix_caches
            .iter()
            .flatten()
            .fold((0u64, 0u64), |(h, l), c| (h + c.hits(), l + c.lookups()));
        let cluster = self.driver.cluster();
        let stats = cluster.stats();
        let total = |field: fn(&EngineStats) -> u64| stats.iter().map(|s| field(s)).sum::<u64>();
        RunResult {
            makespan_secs: if per_query.is_empty() {
                0.0
            } else {
                (last - first).max(0.0)
            },
            per_query,
            rejected,
            replicas: cluster.len(),
            gpu_busy_secs: nanos_to_secs(total(|s| s.busy)),
            api_cost_usd: self.api_cost,
            preemptions: total(|s| s.preemptions),
            preempted_tokens: total(|s| s.preempted_tokens),
            migrations: total(|s| s.migrations),
            migrated_tokens: total(|s| s.migrated_tokens),
            peak_replicas: cluster.peak_live(),
            replica_seconds: cluster.replica_seconds(cluster.latest_now()),
            driver: self.driver_spec,
            index_spec: index_meta.spec,
            quant: index_meta.quant,
            index_work,
            store_bytes_hot: store_delta.bytes_hot_touched,
            store_bytes_cold: store_delta.bytes_cold_touched,
            prefix_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        }
    }
}

/// A provider-served call as the log records it: no local queue and no
/// prefill, so all of it is decode, on the one nominal replica 0.
fn provider_call(query: usize, stage: Stage, start: Nanos, at: Nanos) -> Record {
    let call = Completion {
        id: RequestId(0),
        group: GroupId(query as u64),
        stage,
        replica: ReplicaId(0),
        arrival: start,
        admitted: start,
        prefill_done: start,
        finish: at,
    };
    let fact = Fact::Served(call);
    Record { query, at, fact }
}

/// Fraction of the query's needed base facts present in `retrieved` —
/// ground-truth retrieval recall at the executed depth. Queries that need
/// no facts (never generated) would trivially score 1.
fn fact_recall(query: &metis_datasets::QuerySpec, retrieved: &[RetrievalResult]) -> f64 {
    if query.truth.base.is_empty() {
        return 1.0;
    }
    let found: std::collections::BTreeSet<_> =
        retrieved.iter().flat_map(|r| r.text.fact_ids()).collect();
    let hit = query
        .truth
        .base
        .iter()
        .filter(|b| found.contains(&b.id))
        .count();
    hit as f64 / query.truth.base.len() as f64
}
