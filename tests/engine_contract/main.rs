//! Bounded-exhaustive check of the serving engine against its contract.
//!
//! Every sequence of at most [`DEPTH`] operations — submit the next request
//! from [`PALETTE`], or step a replica that was given one — runs through the
//! real `Engine`/`Cluster` and through [`reference::RefEngine`] in
//! lock-step, on seven-block KV pools (four on one row's second replica).
//! After every operation both sides must agree on the completions it
//! returned (id, replica, arrival, admitted, prefill_done, finish), each
//! replica's clock, free KV, queue and running lengths, and every
//! `EngineStats` counter (a cluster's as `Cluster::stats` lists them), and
//! the reference must hold every KV block exactly once. Each sequence then
//! drains in lock-step, and every request must complete exactly once.
//!
//! The rows are the four of `tests/golden/engine_step_digest.txt`, a
//! standalone engine that migrates (whose victims `run_until_idle` requeues
//! itself), and a migrating cluster whose second replica holds four blocks.
//! Hand-seeded mutants of `engine.rs` and `cluster.rs` are committed
//! under `tests/mutants/engine/` and `tests/mutants/cluster/`;
//! `tests/mutants/run.sh` replays them.

mod reference;

use metis::engine::{
    Cluster, Completion, Engine, EngineConfig, EngineStats, GroupId, LlmRequest, PreemptMode,
    Priority, ReplicaId, RequestId, RouterPolicy, SchedPolicy, Stage,
};
use metis::llm::{GpuCluster, LatencyModel, ModelSpec, Nanos};
use reference::{blocks, place, RefEngine};

/// Operations per sequence; every shorter sequence is checked too.
const DEPTH: usize = 5;
/// Requests per sequence, at most.
const MAX_REQUESTS: usize = 4;
/// Seven 16-token blocks per replica (but see [`SMALL_SECOND`]).
const POOL_TOKENS: u64 = 112;
/// "In the future": a little over one iteration in.
const LATER: Nanos = 10_000_000;

/// One palette entry: (prompt, output, cached, priority, group, stage,
/// arrives later, target replica). Footprints are 4, 2, 3, 4, 5 and 1
/// blocks, the first, second and fourth exactly; the first, second and last
/// fill the pool. The fourth claims more cached tokens than its prompt and
/// goes to the second replica when there is one, due 10 ms ahead: that
/// replica's iterations then end out of phase with the first's, so a victim
/// migrated to it can land before its clock.
type Shape = (u64, u64, u64, Priority, u64, Stage, bool, usize);

const PALETTE: [Shape; 6] = [
    (48, 16, 0, Priority::Batch, 0, Stage::Map, false, 0),
    (24, 8, 0, Priority::Interactive, 1, Stage::Single, false, 0),
    (33, 2, 0, Priority::Standard, 0, Stage::Reduce, false, 0),
    (56, 8, 64, Priority::Standard, 1, Stage::Map, true, 1),
    (70, 2, 16, Priority::Interactive, 0, Stage::Map, true, 0),
    (10, 2, 0, Priority::Batch, 1, Stage::Reduce, false, 0),
];

struct Row {
    policy: SchedPolicy,
    mode: PreemptMode,
    /// Each replica's KV pool in tokens; one entry is a standalone engine.
    pools: &'static [u64],
}

const fn row(policy: SchedPolicy, mode: PreemptMode, pools: &'static [u64]) -> Row {
    Row {
        policy,
        mode,
        pools,
    }
}

const ONE: &[u64] = &[POOL_TOKENS];
const TWO: &[u64] = &[POOL_TOKENS, POOL_TOKENS];
/// Four blocks on the second replica: exactly the footprint of the first
/// palette entry, a victim the first replica evicts for the fifth, and of
/// the fourth, the one sent there. Once the fourth runs there, a victim
/// fits nowhere but on its own source.
const SMALL_SECOND: &[u64] = &[POOL_TOKENS, 64];

const ROWS: [Row; 6] = [
    row(SchedPolicy::Fcfs, PreemptMode::Recompute, ONE),
    row(SchedPolicy::GangByGroup, PreemptMode::Recompute, ONE),
    row(SchedPolicy::Preemptive, PreemptMode::Recompute, ONE),
    row(SchedPolicy::Preemptive, PreemptMode::Migrate, TWO),
    row(SchedPolicy::Preemptive, PreemptMode::Migrate, ONE),
    row(SchedPolicy::Preemptive, PreemptMode::Migrate, SMALL_SECOND),
];

#[derive(Clone, Copy, Debug)]
enum Op {
    Submit(usize),
    Step(usize),
}

fn latency() -> LatencyModel {
    LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40())
}

/// Replica `r`'s configuration under `row`.
fn config(row: &Row, r: usize) -> EngineConfig {
    EngineConfig {
        max_batch_seqs: 3,
        prefill_chunk_tokens: 32,
        policy: row.policy,
        kv_pool_bytes_cap: Some(row.pools[r] * latency().model().kv_bytes_per_token()),
        preempt_mode: row.mode,
    }
}

/// The system under test: one engine on its own, or a cluster of them.
enum Sut {
    One(Box<Engine>),
    Many(Cluster),
}

impl Sut {
    fn new(row: &Row) -> Self {
        let engine = |r| Engine::new(latency(), config(row, r));
        match row.pools.len() {
            1 => Sut::One(Box::new(engine(0))),
            n => Sut::Many(Cluster::new(
                (0..n).map(engine).collect(),
                RouterPolicy::RoundRobin,
            )),
        }
    }

    fn engine(&self, r: usize) -> &Engine {
        match self {
            Sut::One(e) => e,
            Sut::Many(c) => c.replica(ReplicaId(r as u32)),
        }
    }

    /// Replica `r`'s counters, as the cluster rolls them up.
    fn stats(&self, r: usize) -> &EngineStats {
        match self {
            Sut::One(e) => e.stats(),
            Sut::Many(c) => c.stats()[r],
        }
    }

    fn submit(&mut self, r: usize, req: LlmRequest) {
        match self {
            Sut::One(e) => e.submit(req),
            Sut::Many(c) => c.submit(ReplicaId(r as u32), req),
        }
    }

    fn step(&mut self, r: usize) -> Vec<Completion> {
        match self {
            Sut::One(e) => e.step(),
            Sut::Many(c) => c.step_replica(ReplicaId(r as u32)),
        }
    }
}

fn request(id: u64, shape: Shape) -> LlmRequest {
    let (prompt, output, cached, priority, group, stage, later, _) = shape;
    LlmRequest {
        id: RequestId(id),
        group: GroupId(group),
        stage,
        prompt_tokens: prompt,
        output_tokens: output,
        cached_prompt_tokens: cached,
        arrival: if later { LATER } else { 0 },
        priority,
    }
}

/// Completions as text: every field, in return order.
fn shown(completions: &[Completion]) -> String {
    format!("{completions:?}")
}

fn counters(s: &EngineStats) -> [u64; 14] {
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

/// Both sides agree on everything observable after `ops`.
fn agree(sut: &Sut, fleet: &[RefEngine], got: &[Completion], want: &[Completion], ops: &[Op]) {
    if !(got.is_empty() && want.is_empty()) {
        assert_eq!(shown(got), shown(want), "completions after {ops:?}");
    }
    for (r, reference) in fleet.iter().enumerate() {
        let e = sut.engine(r);
        let observed = (e.now(), e.free_kv_tokens(), e.queued_len(), e.running_len());
        let expected = (
            reference.now,
            reference.free_blocks * 16,
            reference.queue.len(),
            reference.running.len(),
        );
        assert_eq!(
            observed, expected,
            "replica {r} (now, free KV, queued, running) after {ops:?}"
        );
        assert_eq!(
            counters(sut.stats(r)),
            counters(&reference.stats),
            "replica {r} stats after {ops:?}"
        );
        let held: u64 = reference
            .running
            .iter()
            .map(|s| blocks(s.0.kv_demand_tokens()))
            .sum();
        assert_eq!(
            reference.free_blocks + held,
            reference.total_blocks,
            "KV blocks not conserved after {ops:?}"
        );
    }
}

/// Runs `ops` and the drain after them on both sides; returns how many
/// operations were compared.
fn check(row: &Row, ops: &[Op]) -> usize {
    let mut sut = Sut::new(row);
    let mut fleet: Vec<RefEngine> = (0..row.pools.len())
        .map(|r| RefEngine::new(latency(), config(row, r), ReplicaId(r as u32)))
        .collect();
    let (mut submitted, mut done) = (0, Vec::new());
    let mut apply =
        |op: Op, sut: &mut Sut, fleet: &mut Vec<RefEngine>, done: &mut Vec<RequestId>| {
            let (got, want) = match op {
                Op::Submit(p) => {
                    let r = PALETTE[p].7 % row.pools.len();
                    sut.submit(r, request(submitted, PALETTE[p]));
                    fleet[r].submit(request(submitted, PALETTE[p]));
                    submitted += 1;
                    (Vec::new(), Vec::new())
                }
                Op::Step(r) => {
                    let got = sut.step(r);
                    let want = fleet[r].step();
                    if row.pools.len() > 1 {
                        place(fleet, r);
                    }
                    (got, want)
                }
            };
            agree(sut, fleet, &got, &want, ops);
            done.extend(want.iter().map(|c| c.id));
        };
    for &op in ops {
        apply(op, &mut sut, &mut fleet, &mut done);
    }
    // Drain: step the most-lagging replica with runnable work, as
    // `Cluster::run_until_idle` does, until none is left. A standalone
    // engine that migrates instead drains through its own `run_until_idle`,
    // the only place its victims leave the eviction outbox.
    let mut steps = 0;
    while !matches!((&sut, row.mode), (Sut::One(_), PreemptMode::Migrate)) {
        let next = (0..fleet.len())
            .filter(|&r| !fleet[r].is_idle())
            .min_by_key(|&r| (fleet[r].now, r));
        let Some(r) = next else { break };
        if let Sut::Many(c) = &sut {
            assert_eq!(
                c.next_steppable(),
                Some(ReplicaId(r as u32)),
                "next replica after {ops:?}"
            );
        }
        apply(Op::Step(r), &mut sut, &mut fleet, &mut done);
        steps += 1;
        assert!(steps < 1_000, "no drain after {ops:?}");
    }
    if let Sut::One(e) = &mut sut {
        let got = e.run_until_idle();
        // One replica: every victim recomputes where it was evicted, as if
        // placed when the step that evicted it returned.
        let mut want = Vec::new();
        place(&mut fleet, 0);
        while !fleet[0].is_idle() {
            want.extend(fleet[0].step());
            place(&mut fleet, 0);
        }
        agree(&sut, &fleet, &got, &want, ops);
        done.extend(want.iter().map(|c| c.id));
    }
    assert!(sut.engine(0).is_idle() && fleet.iter().all(RefEngine::is_idle));
    done.sort_unstable();
    let all: Vec<RequestId> = (0..submitted).map(RequestId).collect();
    assert_eq!(
        done, all,
        "every request completes exactly once after {ops:?}"
    );
    ops.len() + steps
}

/// Checks every sequence extending `ops` up to [`DEPTH`]; returns how many
/// sequences and operations it checked. Stepping a replica that was never
/// given a request changes nothing, so such sequences are left out: each
/// equals the one without that step.
fn exhaust(row: &Row, ops: &mut Vec<Op>) -> (u64, u64) {
    let mut checked = (1, check(row, ops) as u64);
    if ops.len() == DEPTH {
        return checked;
    }
    let given: Vec<usize> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Submit(p) => Some(PALETTE[p].7 % row.pools.len()),
            Op::Step(_) => None,
        })
        .collect();
    let submits = (0..PALETTE.len())
        .filter(|_| given.len() < MAX_REQUESTS)
        .map(Op::Submit);
    let steps = (0..row.pools.len())
        .filter(|r| given.contains(r))
        .map(Op::Step);
    for op in submits.chain(steps) {
        ops.push(op);
        let (sequences, operations) = exhaust(row, ops);
        ops.pop();
        checked = (checked.0 + sequences, checked.1 + operations);
    }
    checked
}

#[test]
fn engine_equals_the_reference_on_every_short_operation_sequence() {
    for row in &ROWS {
        // `check_capacity` passes exactly the requests the reference admits
        // into an empty pool, on and around the pool's edge.
        let engine = Engine::new(latency(), config(row, 0));
        for (i, &shape) in PALETTE.iter().enumerate() {
            for prompt in [shape.0, POOL_TOKENS - shape.1, POOL_TOKENS - shape.1 + 1] {
                let req = LlmRequest {
                    prompt_tokens: prompt,
                    ..request(i as u64, shape)
                };
                let fits = engine
                    .check_capacity(req.prompt_tokens, req.output_tokens)
                    .is_ok();
                let mut empty = RefEngine::new(latency(), config(row, 0), ReplicaId(0));
                empty.submit(req.clone());
                empty.step();
                assert_eq!(
                    fits,
                    !empty.running.is_empty(),
                    "{:?}: check_capacity({prompt}, {})",
                    row.policy,
                    req.output_tokens
                );
            }
        }
        let (sequences, operations) = exhaust(row, &mut Vec::new());
        println!(
            "{:?}/{:?} pools {:?}: {sequences} sequences, {operations} operations",
            row.policy, row.mode, row.pools
        );
    }
}

/// A standalone engine that migrates used to strand its victim in the
/// eviction outbox and panic as stuck; it now requeues it for recompute,
/// as a one-replica cluster's zero-headroom fallback does.
#[test]
fn a_standalone_migrating_engine_drains_like_a_one_replica_cluster() {
    let config = EngineConfig {
        policy: SchedPolicy::Preemptive,
        kv_pool_bytes_cap: Some(1 << 30),
        preempt_mode: PreemptMode::Migrate,
        ..EngineConfig::default()
    };
    let engine = || Engine::new(latency(), config);
    let capacity = engine().kv_capacity_tokens();
    let work = [
        LlmRequest {
            prompt_tokens: capacity * 3 / 5,
            output_tokens: 50,
            priority: Priority::Batch,
            ..request(0, PALETTE[0])
        },
        LlmRequest {
            prompt_tokens: capacity / 2,
            arrival: 1_000_000,
            priority: Priority::Interactive,
            ..request(1, PALETTE[1])
        },
    ];
    let mut alone = engine();
    let mut cluster = Cluster::new(vec![engine()], RouterPolicy::RoundRobin);
    for req in work {
        alone.submit(req.clone());
        cluster.submit(ReplicaId(0), req);
    }
    let done = alone.run_until_idle();
    assert_eq!(done.len(), 2);
    assert_eq!(alone.stats().preemptions, 1);
    assert_eq!(shown(&done), shown(&cluster.run_until_idle()));
    assert_eq!(counters(alone.stats()), counters(cluster.stats()[0]));
}
