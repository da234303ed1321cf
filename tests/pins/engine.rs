//! Golden pin of what [`Engine::step`] *does*: which requests are admitted,
//! evicted and finished, and when in virtual time. The admission and
//! iteration hot path gets rewritten for speed; a rewrite may change what a
//! step costs, never what it returns.
//!
//! One row per scheduling policy. Each row drives the same seeded bursty
//! traffic — single calls and map → reduce groups, mixed priorities, ties on
//! every rank-key component, some arrivals submitted ahead of time and some
//! late — through a KV-capped [`Cluster`], and folds into one FNV-1a digest
//! every [`Completion`] (id, replica, arrival, admitted, prefill_done,
//! finish) in return order, then every replica's [`EngineStats`] counters.
//! The counts beside the digest say which part moved when it does.
//!
//! The digest file was generated on the commit *before* the hot-path
//! rewrite. On an intentional behaviour change, say in the PR which rows
//! moved and why.

use std::fmt::Write as _;

use metis::engine::{
    Cluster, Engine, EngineConfig, EngineStats, GroupId, LlmRequest, PreemptMode, Priority,
    ReplicaId, RequestId, RouterPolicy, SchedPolicy, Stage,
};
use metis::llm::{GpuCluster, LatencyModel, ModelSpec, Nanos};

use super::{assert_pinned, Fnv};

/// Schedulable KV per replica, in tokens: a handful of prompts fill it.
const KV_TOKENS: u64 = 12_288;
const QUERIES: usize = 160;

/// SplitMix64: the traffic needs no `rand` dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One RAG query: its first-wave calls and the reduce chained on the last
/// of them.
struct Query {
    arrival: Nanos,
    priority: Priority,
    /// `(prompt, output, cached)` tokens of each first-wave call.
    maps: Vec<(u64, u64, u64)>,
    reduce: Option<(u64, u64)>,
    /// Submitted ahead of its arrival (waits in the engine's pending set)
    /// rather than once the fleet has been pumped up to it.
    early: bool,
}

/// Bursts of 8–24 queries on one instant (so arrival ties abound), a few
/// stragglers one millisecond later, bursts 2–8 s apart: the queue runs
/// to a hundred-odd entries and mostly drains in between.
fn traffic(seed: u64) -> Vec<Query> {
    let mut rng = Rng(seed);
    let mut queries = Vec::with_capacity(QUERIES);
    let mut t: Nanos = 0;
    while queries.len() < QUERIES {
        let burst = rng.range(8, 25) as usize;
        for _ in 0..burst.min(QUERIES - queries.len()) {
            let priority = Priority::all()[(rng.next() % 3) as usize];
            let call = |rng: &mut Rng, lo: u64, hi: u64| {
                // Bimodal: a large head often sits blocked while small
                // calls that outrank it arrive and fit — the case a stale
                // blocked-head memo would get wrong.
                let prompt = match rng.next() % 2 {
                    0 => rng.range(40, 240),
                    _ => rng.range(lo, hi),
                };
                let cached = match rng.next() % 16 {
                    0 => prompt,
                    1 | 2 => prompt * 3 / 4,
                    _ => 0,
                };
                (prompt, rng.range(8, 60), cached)
            };
            let (maps, reduce) = if rng.next() % 5 < 2 {
                (vec![call(&mut rng, 1_200, 3_600)], None)
            } else {
                let maps = (0..rng.range(2, 7))
                    .map(|_| call(&mut rng, 800, 2_400))
                    .collect();
                (maps, Some((rng.range(200, 900), rng.range(10, 40))))
            };
            queries.push(Query {
                arrival: t + Nanos::from(rng.next().is_multiple_of(4)) * 1_000_000,
                priority,
                maps,
                reduce,
                early: rng.next().is_multiple_of(2),
            });
        }
        t += rng.range(2_000, 8_000) * 1_000_000;
    }
    // Stable: equal instants keep generation order, like the runner's
    // (time, sequence) event heap.
    queries.sort_by_key(|q| q.arrival);
    queries
}

fn cluster(replicas: usize, policy: SchedPolicy, preempt_mode: PreemptMode) -> Cluster {
    let engines = (0..replicas)
        .map(|_| {
            let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
            let bytes = KV_TOKENS * lat.model().kv_bytes_per_token();
            Engine::new(
                lat,
                EngineConfig {
                    policy,
                    preempt_mode,
                    kv_pool_bytes_cap: Some(bytes),
                    max_batch_seqs: 24,
                    ..EngineConfig::default()
                },
            )
        })
        .collect();
    Cluster::new(engines, RouterPolicy::RoundRobin)
}

/// One policy's run: the fleet, the digest so far, and the in-flight
/// bookkeeping that chains each group's reduce on its last map.
struct Run<'a> {
    queries: &'a [Query],
    cluster: Cluster,
    fnv: Fnv,
    completions: u64,
    peak_queue: u64,
    /// Request id → query.
    owner: Vec<usize>,
    /// Query → calls of its current wave still running.
    remaining: Vec<usize>,
    /// Query → replica its calls run on.
    replica: Vec<ReplicaId>,
    /// Query → whether its reduce has been submitted.
    reduced: Vec<bool>,
}

impl Run<'_> {
    /// Submits one call of query `qi` to that query's replica.
    fn submit(
        &mut self,
        qi: usize,
        group: GroupId,
        stage: Stage,
        call: (u64, u64, u64),
        at: Nanos,
    ) {
        let id = RequestId(self.owner.len() as u64);
        self.owner.push(qi);
        let (prompt_tokens, output_tokens, cached_prompt_tokens) = call;
        self.cluster.submit(
            self.replica[qi],
            LlmRequest {
                id,
                group,
                stage,
                prompt_tokens,
                output_tokens,
                cached_prompt_tokens,
                arrival: at,
                priority: self.queries[qi].priority,
            },
        );
    }

    /// Routes query `qi` at `t` and submits its first wave.
    fn submit_query(&mut self, qi: usize, t: Nanos) {
        let q = &self.queries[qi];
        self.replica[qi] = self.cluster.route(t);
        self.remaining[qi] = q.maps.len();
        let stage = if q.reduce.is_some() {
            Stage::Map
        } else {
            Stage::Single
        };
        for &call in &q.maps {
            self.submit(qi, GroupId(qi as u64), stage, call, q.arrival);
        }
    }

    /// Steps replica `id` once, folds its completions into the digest and
    /// chains each group's reduce on its last map, exactly as the runner
    /// does.
    fn step(&mut self, id: ReplicaId) {
        let done = self.cluster.step_replica(id);
        self.peak_queue = self.peak_queue.max(self.cluster.queue_depth());
        for c in done {
            self.completions += 1;
            for w in [
                c.id.0,
                u64::from(c.replica.0),
                c.arrival,
                c.admitted,
                c.prefill_done,
                c.finish,
            ] {
                self.fnv.word(w);
            }
            let qi = self.owner[c.id.0 as usize];
            self.remaining[qi] -= 1;
            if self.remaining[qi] > 0 || self.reduced[qi] {
                continue;
            }
            if let Some((prompt, output)) = self.queries[qi].reduce {
                self.reduced[qi] = true;
                self.remaining[qi] = 1;
                self.submit(qi, c.group, Stage::Reduce, (prompt, output, 0), c.finish);
            }
        }
    }
}

struct Outcome {
    digest: u64,
    completions: u64,
    iterations: u64,
    preemptions: u64,
    migrations: u64,
    peak_queue: u64,
}

fn stats_words(s: &EngineStats) -> [u64; 14] {
    [
        u64::from(s.replica.0),
        s.submitted,
        s.completed,
        s.iterations,
        s.busy,
        s.total_queue_wait,
        s.total_latency,
        s.prefill_tokens,
        s.decode_tokens,
        s.peak_kv_tokens,
        s.preemptions,
        s.preempted_tokens,
        s.migrations,
        s.migrated_tokens,
    ]
}

fn run(cluster: Cluster, queries: &[Query]) -> Outcome {
    let n = queries.len();
    let mut run = Run {
        queries,
        cluster,
        fnv: Fnv::new(),
        completions: 0,
        peak_queue: 0,
        owner: Vec::new(),
        remaining: vec![0; n],
        replica: vec![ReplicaId(0); n],
        reduced: vec![false; n],
    };
    // Early queries go in up front and wait in the pending set.
    for (qi, _) in queries.iter().enumerate().filter(|(_, q)| q.early) {
        run.submit_query(qi, 0);
    }
    // Late ones once the fleet has been pumped up to their arrival.
    for (qi, q) in queries.iter().enumerate().filter(|(_, q)| !q.early) {
        while let Some(id) = run.cluster.steppable_before(q.arrival) {
            run.step(id);
        }
        run.submit_query(qi, q.arrival);
    }
    while let Some(id) = run.cluster.next_steppable() {
        run.step(id);
    }
    assert_eq!(
        run.completions,
        run.owner.len() as u64,
        "every call completes exactly once"
    );
    let mut out = Outcome {
        digest: 0,
        completions: run.completions,
        iterations: 0,
        preemptions: 0,
        migrations: 0,
        peak_queue: run.peak_queue,
    };
    for s in run.cluster.stats() {
        for w in stats_words(s) {
            run.fnv.word(w);
        }
        out.iterations += s.iterations;
        out.preemptions += s.preemptions;
        out.migrations += s.migrations;
    }
    out.digest = run.fnv.0;
    out
}

/// One `name digest completions iterations preemptions migrations
/// peak_queue` line per policy, in a fixed order.
fn rendered() -> String {
    let queries = traffic(0x05EE_D57E);
    let mut out = String::new();
    for (name, replicas, policy, mode) in [
        ("fcfs", 1, SchedPolicy::Fcfs, PreemptMode::Recompute),
        ("gang", 1, SchedPolicy::GangByGroup, PreemptMode::Recompute),
        (
            "preemptive/recompute",
            1,
            SchedPolicy::Preemptive,
            PreemptMode::Recompute,
        ),
        (
            "preemptive/migrate",
            2,
            SchedPolicy::Preemptive,
            PreemptMode::Migrate,
        ),
    ] {
        let o = run(cluster(replicas, policy, mode), &queries);
        // The pin is only worth its name if the contended paths ran.
        assert!(o.peak_queue >= 30, "{name}: peak queue {}", o.peak_queue);
        if policy == SchedPolicy::Preemptive {
            assert!(o.preemptions > 0, "{name}: no preemption fired");
        }
        if mode == PreemptMode::Migrate {
            assert!(o.migrations > 0, "{name}: no migration fired");
        }
        writeln!(
            out,
            "{name} {:016x} {} {} {} {} {}",
            o.digest, o.completions, o.iterations, o.preemptions, o.migrations, o.peak_queue
        )
        .expect("write to String");
    }
    out
}

#[test]
fn engine_step_output_matches_golden() {
    assert_pinned("tests/golden/engine_step_digest.txt", &rendered());
}
