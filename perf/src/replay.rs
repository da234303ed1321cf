//! Engine-only replay: the LLM-call traffic of real runs, re-issued through
//! the public `Driver` trait with no retrieval in the way.
//!
//! `Runner::run` spends ~97 % of its wall time in retrieval, so a scheduler,
//! KV-allocator or event-dispatch change cannot show there. This stage
//! rebuilds, *outside* the runner, the exact calls each finished query
//! submitted — from its `QueryResult` (configuration, priority, stage
//! nanos) via `db.retrieve` + `plan_synthesis` — verifies the rebuild
//! against the run's own F1, and replays them through
//! `route` / `submit` / `pump_before` / `pump_idle` on a fresh `SimDriver`,
//! chaining each reduce on its last map exactly as the runner does.

use metis_core::synthesis::SynthesisInputs;
use metis_core::{plan_synthesis, RunResult};
use metis_engine::{
    Cluster, Completion, Driver, Engine, EngineConfig, GroupId, LlmRequest, Priority, ReplicaId,
    RequestId, RouterPolicy, SimDriver, Stage,
};
use metis_llm::{FleetSpec, GenerationModel, GpuCluster, ModelSpec, Nanos};
use metis_metrics::f1_score;

use crate::checks::Checks;
use crate::scenario::{plan_seed, Scenario};
use crate::trace::{Recorder, NONE};

/// The calls one query submitted.
struct QueryCalls {
    /// When retrieval finished and the first wave was submitted.
    submit_at: Nanos,
    priority: Priority,
    /// `(prompt_tokens, output_tokens)` of each first-wave call.
    maps: Vec<(u64, u64)>,
    reduce: Option<(u64, u64)>,
}

/// The traffic of one `Runner::run`.
struct RunTrace {
    model: ModelSpec,
    cluster: GpuCluster,
    replicas: usize,
    router: RouterPolicy,
    engine: EngineConfig,
    /// Queries in submission order.
    queries: Vec<QueryCalls>,
    calls: usize,
}

/// The traffic of a scenario's first runs.
pub struct CallTrace {
    runs: Vec<RunTrace>,
}

impl CallTrace {
    /// LLM calls one replay issues.
    pub fn calls(&self) -> usize {
        self.runs.iter().map(|r| r.calls).sum()
    }
}

/// Rebuilds the call traffic of the first `max_runs` runs of `sc` from
/// their results. Untimed. Each rebuilt plan is verified against the run:
/// its answer must score exactly the F1 the run reported.
pub fn build(
    sc: &Scenario,
    results: &[RunResult],
    max_runs: usize,
    checks: &mut Checks,
) -> CallTrace {
    let mut runs = Vec::new();
    for (run, res) in sc.runs.iter().zip(results).take(max_runs) {
        let d = &sc.datasets[run.dataset];
        let cfg = &run.cfg;
        let gen = GenerationModel::new(&cfg.model, cfg.gen);
        let mut queries = Vec::with_capacity(res.per_query.len());
        let mut calls = 0;
        for q in &res.per_query {
            let query = &d.queries[q.query_index];
            let top_k = q.config.effective_chunks(d.db.len());
            let retrieved = d.db.retrieve(&query.tokens, top_k);
            let plan = plan_synthesis(
                &SynthesisInputs {
                    gen: &gen,
                    truth: &query.truth,
                    query_tokens: &query.tokens,
                    boilerplate: &d.boilerplate,
                },
                &q.config,
                &retrieved,
                plan_seed(cfg.seed, q.query_index),
            );
            checks.require(
                f1_score(&plan.answer, &query.gold_answer()) == q.f1,
                "a plan rebuilt outside the runner reproduces the run's F1",
            );
            let call = |c: &metis_core::PlannedCall| (c.prompt_tokens, c.output_tokens);
            calls += plan.call_count();
            queries.push(QueryCalls {
                submit_at: cfg.arrivals[q.query_index]
                    + q.stages.profile
                    + q.stages.decide
                    + q.stages.retrieve,
                priority: q.priority,
                maps: plan.map_calls.iter().map(call).collect(),
                reduce: plan.reduce_call.as_ref().map(call),
            });
        }
        // Stable: equal instants keep query order, like the runner's
        // (time, sequence) event heap.
        queries.sort_by_key(|q| q.submit_at);
        runs.push(RunTrace {
            model: cfg.model.clone(),
            cluster: cfg.cluster,
            replicas: cfg.replicas,
            router: cfg.router,
            engine: EngineConfig {
                policy: cfg.system.controller().sched_policy(),
                ..cfg.engine
            },
            queries,
            calls,
        });
    }
    CallTrace { runs }
}

/// Deterministic totals of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayOut {
    /// Calls submitted.
    pub submitted: u64,
    /// Completions returned by the pumps.
    pub completed: u64,
    /// Engine iterations executed, summed over replicas.
    pub iterations: u64,
    /// Preemptions, summed over replicas.
    pub preemptions: u64,
}

/// Bookkeeping of one run's in-flight queries.
struct InFlight {
    /// Request id → query index.
    owner: Vec<u32>,
    /// Request id → completions seen.
    seen: Vec<u8>,
    /// Query → calls of the current wave still running.
    remaining: Vec<u32>,
    /// Query → replica its calls run on.
    replica: Vec<ReplicaId>,
    /// Query → whether its reduce has been submitted.
    reduced: Vec<bool>,
}

/// Replays `trace` once. With an enabled recorder every `Driver` call gets
/// a span; with a disabled one this is the plain timed region.
pub fn replay(trace: &CallTrace, rec: &mut Recorder, checks: &mut Checks) -> ReplayOut {
    let mut out = ReplayOut::default();
    for run in &trace.runs {
        let engines: Vec<Engine> = FleetSpec::new(run.model.clone(), run.cluster, run.replicas)
            .latency_models()
            .into_iter()
            .map(|lat| Engine::new(lat, run.engine))
            .collect();
        let mut driver = SimDriver::new(Cluster::new(engines, run.router));
        let n = run.queries.len();
        let mut fl = InFlight {
            owner: Vec::with_capacity(run.calls),
            seen: Vec::with_capacity(run.calls),
            remaining: vec![0; n],
            replica: vec![ReplicaId(0); n],
            reduced: vec![false; n],
        };
        let root = rec.open("engine.replay_run", NONE, NONE);
        for (qi, q) in run.queries.iter().enumerate() {
            let t = q.submit_at;
            while let Some(done) =
                rec.span("engine.pump_before", root, NONE, || driver.pump_before(t))
            {
                let id = rec.last();
                rec.count(id, "completions", done.len() as u64);
                on_completions(&done, run, &mut fl, &mut driver, rec, root, &mut out);
            }
            let rid = rec.span("engine.route", root, qi as u32, || driver.route(t));
            fl.replica[qi] = rid;
            fl.remaining[qi] = q.maps.len() as u32;
            let stage = if q.reduce.is_some() {
                Stage::Map
            } else {
                Stage::Single
            };
            for &(prompt_tokens, output_tokens) in &q.maps {
                let req = LlmRequest {
                    id: RequestId(fl.owner.len() as u64),
                    group: GroupId(qi as u64),
                    stage,
                    prompt_tokens,
                    output_tokens,
                    cached_prompt_tokens: 0,
                    arrival: t,
                    priority: q.priority,
                };
                fl.owner.push(qi as u32);
                fl.seen.push(0);
                out.submitted += 1;
                rec.span("engine.submit", root, qi as u32, || driver.submit(rid, req));
            }
        }
        while let Some(done) = rec.span("engine.pump_idle", root, NONE, || driver.pump_idle()) {
            let id = rec.last();
            rec.count(id, "completions", done.len() as u64);
            on_completions(&done, run, &mut fl, &mut driver, rec, root, &mut out);
        }
        rec.close(root);
        for stats in driver.cluster().stats() {
            out.iterations += stats.iterations;
            out.preemptions += stats.preemptions;
        }
        // Every submitted call completes exactly once.
        for &count in &fl.seen {
            checks.op(count == 1, "every replayed call completes exactly once");
        }
    }
    out
}

/// Map → reduce chaining, as `Runner::process_completions` does it: the
/// reduce goes to the query's replica, stamped with the finish of the map
/// that gated the wave.
fn on_completions(
    done: &[Completion],
    run: &RunTrace,
    fl: &mut InFlight,
    driver: &mut SimDriver,
    rec: &mut Recorder,
    root: u32,
    out: &mut ReplayOut,
) {
    for c in done {
        out.completed += 1;
        let id = c.id.0 as usize;
        fl.seen[id] = fl.seen[id].saturating_add(1);
        let qi = fl.owner[id] as usize;
        fl.remaining[qi] = fl.remaining[qi].saturating_sub(1);
        if fl.remaining[qi] > 0 || fl.reduced[qi] {
            continue;
        }
        if let Some((prompt_tokens, output_tokens)) = run.queries[qi].reduce {
            fl.reduced[qi] = true;
            fl.remaining[qi] = 1;
            let req = LlmRequest {
                id: RequestId(fl.owner.len() as u64),
                group: c.group,
                stage: Stage::Reduce,
                prompt_tokens,
                output_tokens,
                cached_prompt_tokens: 0,
                arrival: c.finish,
                priority: run.queries[qi].priority,
            };
            fl.owner.push(qi as u32);
            fl.seen.push(0);
            out.submitted += 1;
            let rid = fl.replica[qi];
            rec.span("engine.submit", root, qi as u32, || driver.submit(rid, req));
        }
    }
}
