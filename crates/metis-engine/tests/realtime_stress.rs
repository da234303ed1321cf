//! Thread-safety stress for the realtime driver: many short spawn/join
//! cycles under `cargo test`, each pushing a contended workload (bursty
//! arrivals, mixed priorities, a small KV pool that forces preemptions)
//! through per-replica worker threads at a high time scale — then asserting
//! the accounting invariants that a lost wakeup, dropped channel message,
//! or double-delivered completion would break:
//!
//! * every submitted request completes **exactly once** (no loss, no
//!   double-count — checked per request id);
//! * completion timestamps are well-formed virtual instants
//!   (`arrival <= admitted <= finish`);
//! * driver teardown joins every worker and reports consistent totals;
//! * elasticity on live threads has the ledger's semantics: a replica
//!   drained with maps in flight is served, counted and billed until its
//!   last request — a late gang reduce included — has come back.
//!
//! The repeated spawn/join is the point (a loom-style schedule explorer
//! without loom, which the container doesn't carry): each round runs the
//! same races — submit vs. drain, completion send vs. teardown hangup,
//! snapshot publish vs. route — under a fresh thread interleaving.

use std::collections::HashMap;

use metis_engine::{
    Completion, Driver, DriverSpec, Engine, EngineConfig, GroupId, LlmRequest, Priority, ReplicaId,
    RequestId, RouterPolicy, SchedPolicy, Stage,
};
use metis_llm::{
    nanos_to_secs, secs_to_nanos, Clock, GpuCluster, LatencyModel, ModelSpec, Nanos, WallClock,
};

/// Virtual time runs 200 000× faster than the wall: a multi-minute virtual
/// workload costs milliseconds of test time, while wakeup jitter is
/// amplified enough to shake out ordering bugs.
const TIME_SCALE: f64 = 200_000.0;

fn engines(n: usize, kv_cap_tokens: u64) -> Vec<Engine> {
    (0..n)
        .map(|_| {
            let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
            let bytes = kv_cap_tokens * lat.model().kv_bytes_per_token();
            Engine::new(
                lat,
                EngineConfig {
                    policy: SchedPolicy::Preemptive,
                    kv_pool_bytes_cap: Some(bytes),
                    ..EngineConfig::default()
                },
            )
        })
        .collect()
}

fn priority_of(i: u64) -> Priority {
    match i % 3 {
        0 => Priority::Interactive,
        1 => Priority::Standard,
        _ => Priority::Batch,
    }
}

/// One short realtime run: `n_reqs` bursty requests over `replicas`
/// replicas, driven to drain through the `Driver` interface. Returns the
/// completions the driver delivered.
fn one_run(round: u64, replicas: usize, n_reqs: u64) -> Vec<Completion> {
    let mut driver: Box<dyn Driver> = DriverSpec::Realtime {
        time_scale: TIME_SCALE,
    }
    .build(engines(replicas, 4_096), RouterPolicy::RoundRobin);
    for i in 0..n_reqs {
        let rid = driver.route(0);
        driver.submit(
            rid,
            LlmRequest {
                id: RequestId(round * 10_000 + i),
                group: GroupId(i / 3),
                stage: if i % 4 == 3 {
                    Stage::Reduce
                } else {
                    Stage::Map
                },
                prompt_tokens: 400 + (i % 5) * 300,
                output_tokens: 5 + (i % 7) * 4,
                cached_prompt_tokens: 0,
                // Bursty: arrivals pile onto a few discrete instants, some
                // already in the past when the worker drains them.
                arrival: (i % 4) * 2_000_000_000,
                priority: priority_of(i),
            },
        );
    }
    let mut done = Vec::new();
    while let Some(batch) = driver.pump_idle() {
        done.extend(batch);
    }
    let stats = driver.finish();
    assert_eq!(stats.replicas, replicas);
    assert!(stats.busy > 0, "round {round}: workers did run iterations");
    done
}

#[test]
fn no_completion_is_lost_or_double_counted_across_many_runs() {
    // 24 spawn/join cycles × (2 replicas × worker thread each): every round
    // re-races submission draining, completion delivery, and teardown.
    for round in 0..24u64 {
        let replicas = 1 + (round as usize % 3);
        let n_reqs = 18 + (round % 5) * 4;
        let done = one_run(round, replicas, n_reqs);
        assert_eq!(
            done.len() as u64,
            n_reqs,
            "round {round}: {} of {n_reqs} completions delivered",
            done.len()
        );
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for c in &done {
            *seen.entry(c.id.0).or_default() += 1;
            assert!(
                c.arrival <= c.admitted,
                "round {round}: time went backwards"
            );
            assert!(c.admitted <= c.finish, "round {round}: zero-time decode");
        }
        for (id, count) in seen {
            assert_eq!(count, 1, "round {round}: request {id} completed {count}×");
        }
    }
}

#[test]
fn preemptions_survive_the_thread_boundary() {
    // The contended KV pool forces recompute preemptions inside worker
    // threads; the driver's teardown stats must carry them back out, and
    // every victim must still complete exactly once.
    let mut preempting_rounds = 0;
    for round in 100..112u64 {
        let mut driver: Box<dyn Driver> = DriverSpec::Realtime {
            time_scale: TIME_SCALE,
        }
        .build(engines(1, 4_096), RouterPolicy::RoundRobin);
        // A long low-priority resident, then an interactive burst that
        // cannot fit beside it.
        driver.submit(
            ReplicaIdZero::id(),
            LlmRequest {
                id: RequestId(round * 10_000),
                group: GroupId(0),
                stage: Stage::Single,
                prompt_tokens: 3_000,
                output_tokens: 400,
                cached_prompt_tokens: 0,
                arrival: 0,
                priority: Priority::Batch,
            },
        );
        driver.submit(
            ReplicaIdZero::id(),
            LlmRequest {
                id: RequestId(round * 10_000 + 1),
                group: GroupId(1),
                stage: Stage::Single,
                prompt_tokens: 2_000,
                output_tokens: 20,
                cached_prompt_tokens: 0,
                arrival: 1_000_000_000,
                priority: Priority::Interactive,
            },
        );
        let mut done = Vec::new();
        while let Some(batch) = driver.pump_idle() {
            done.extend(batch);
        }
        assert_eq!(done.len(), 2, "round {round}: both requests complete");
        let stats = driver.finish();
        if stats.preemptions > 0 {
            preempting_rounds += 1;
        }
    }
    // Timing jitter can occasionally let the batch request slip through
    // before the interactive one arrives, but preemption must fire in the
    // overwhelming majority of rounds — the workload is built for it.
    assert!(
        preempting_rounds >= 8,
        "preemption fired in only {preempting_rounds}/12 rounds"
    );
}

/// Tiny helper so the second test reads clearly.
struct ReplicaIdZero;
impl ReplicaIdZero {
    fn id() -> metis_engine::ReplicaId {
        metis_engine::ReplicaId(0)
    }
}

/// Virtual arrival pacing: a workload whose arrivals span a known virtual
/// window must take at least the scaled wall time of that window — the
/// realtime driver really waits, it does not fast-forward.
#[test]
fn wall_clock_pacing_is_real() {
    let span_virtual: Nanos = 6_000_000_000; // 6 virtual seconds.
    let scale = 1_000.0; // → at least 6 ms of wall time.
    let mut driver: Box<dyn Driver> = DriverSpec::Realtime { time_scale: scale }
        .build(engines(1, 65_536), RouterPolicy::RoundRobin);
    // This test asserts the realtime driver really waits in wall time;
    // the wall read goes through the sanctioned Clock abstraction.
    let wall_clock = WallClock::new(1.0);
    for i in 0..4u64 {
        driver.submit(
            ReplicaIdZero::id(),
            LlmRequest {
                id: RequestId(i),
                group: GroupId(i),
                stage: Stage::Single,
                prompt_tokens: 200,
                output_tokens: 2,
                cached_prompt_tokens: 0,
                arrival: i * span_virtual / 3,
                priority: Priority::Standard,
            },
        );
    }
    let mut done = Vec::new();
    while let Some(batch) = driver.pump_idle() {
        done.extend(batch);
    }
    let elapsed_nanos = wall_clock.now();
    driver.finish();
    assert_eq!(done.len(), 4);
    let min_wall_nanos = (span_virtual as f64 / scale) as u64;
    assert!(
        elapsed_nanos >= min_wall_nanos,
        "drained in {elapsed_nanos} ns, but the arrival span alone is {min_wall_nanos} ns of wall time"
    );
    // The last arrival really happened at (or after) its virtual stamp.
    let last = done.iter().map(|c| c.finish).max().unwrap();
    assert!(last >= span_virtual);
}

/// Pumps the driver until nothing is in flight.
fn drain(driver: &mut dyn Driver) -> Vec<Completion> {
    let mut done = Vec::new();
    while let Some(batch) = driver.pump_idle() {
        done.extend(batch);
    }
    done
}

/// Fleet elasticity across real threads: drain a replica that has maps in
/// flight, add a replica with warm-up, deliver the drained replica's gang
/// reduce after it went idle, route onto the warmed replica. Every decision
/// is stamped ahead of the wall (the driver evaluates at the later of the
/// two), so the expected ledger is exact, not approximate.
#[test]
fn elasticity_on_live_threads_bills_and_counts_like_the_ledger() {
    // 1 virtual s = 0.5 ms of wall: slow enough that a stamp a few hundred
    // virtual seconds out stays ahead of the wall across the calls below.
    let scale = 2_000.0;
    let maps_at = secs_to_nanos(300.0);
    let added_at = secs_to_nanos(400.0);
    let warmup = secs_to_nanos(100.0);
    let ready_at = added_at + warmup;
    let request = |id: u64, stage: Stage, arrival: Nanos| LlmRequest {
        id: RequestId(id),
        group: GroupId(7),
        stage,
        prompt_tokens: 1_500,
        output_tokens: 40,
        cached_prompt_tokens: 0,
        arrival,
        priority: Priority::Standard,
    };
    for round in 0..3 {
        let mut driver: Box<dyn Driver> = DriverSpec::Realtime { time_scale: scale }
            .build(engines(2, 65_536), RouterPolicy::RoundRobin);
        // A gang's maps land on replica 1, which is then drained at the
        // very instant they arrive: in flight, by the driver's own count.
        for id in 0..3 {
            driver.submit(ReplicaId(1), request(id, Stage::Map, maps_at));
        }
        assert!(driver.drain_replica(ReplicaId(1), maps_at));
        assert!(!driver.is_routable(ReplicaId(1), maps_at));
        // A third replica joins while slot 1 is still draining: all three
        // are live at once. It takes routes from `ready_at`, not before.
        let engine = engines(1, 65_536).remove(0);
        let added = driver.add_replica(engine, added_at, warmup);
        assert_eq!(added, ReplicaId(2));
        assert!(!driver.is_routable(added, ready_at - 1));
        assert!(driver.is_routable(added, ready_at));
        assert!(
            !driver.drain_replica(ReplicaId(0), added_at),
            "round {round}: the last routable replica never drains"
        );
        // The drained replica still serves its maps, then goes idle…
        let maps = drain(driver.as_mut());
        assert_eq!(maps.len(), 3, "round {round}: every map completes");
        assert!(maps.iter().all(|c| c.replica == ReplicaId(1)));
        // …and the gang's reduce, chasing them onto the retired slot, is
        // still served there exactly once.
        let reduce_at = maps.iter().map(|c| c.finish).max().unwrap();
        driver.submit(ReplicaId(1), request(3, Stage::Reduce, reduce_at));
        let reduce = drain(driver.as_mut());
        assert_eq!(reduce.len(), 1, "round {round}: one reduce completion");
        assert_eq!(reduce[0].replica, ReplicaId(1));
        // Once warm, the new replica shares routes with replica 0.
        let mut routed: Vec<ReplicaId> = (0..2).map(|_| driver.route(ready_at)).collect();
        for (id, &replica) in (4..).zip(&routed) {
            driver.submit(replica, request(id, Stage::Single, ready_at));
        }
        let tail = drain(driver.as_mut());
        routed.sort();
        assert_eq!(routed, vec![ReplicaId(0), added]);

        let all: Vec<&Completion> = maps.iter().chain(&reduce).chain(&tail).collect();
        let mut ids: Vec<u64> = all.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "round {round}: exactly once");
        let stats = driver.finish();
        assert_eq!(stats.replicas, 3);
        assert_eq!(
            stats.peak_replicas, 3,
            "round {round}: a draining replica is live until it retires"
        );
        // Slot 0 bills the whole run, slot 2 from its spawn, and the drained
        // slot 1 to the finish of its last request — the late reduce, long
        // after the instant it was drained at.
        let last_on_drained = reduce[0].finish;
        assert!(last_on_drained > maps_at);
        let end = all.iter().map(|c| c.finish).max().unwrap().max(ready_at);
        let expected =
            nanos_to_secs(end) + nanos_to_secs(last_on_drained) + nanos_to_secs(end - added_at);
        assert!(
            (stats.replica_seconds - expected).abs() < 1e-6,
            "round {round}: billed {} replica-seconds, the ledger says {expected}",
            stats.replica_seconds
        );
    }
}
