//! The realtime driver is the simulator paced by a wall clock, so it must
//! serve any workload exactly as the sim driver does: the same routes, the
//! same drain and add answers, the same completions in the same batches,
//! the same teardown totals. The workload is built to contend: bursty
//! mixed-priority maps and reduces on a 4 096-token KV pool that forces
//! preemptions, 1–3 replicas under both preemption modes, a drain with
//! work in flight, a replica added with warm-up, a host stall, and a late
//! gang reduce chasing its maps onto the drained slot.

use metis_engine::{
    Driver, DriverSpec, Engine, EngineConfig, GroupId, LlmRequest, PreemptMode, Priority,
    ReplicaId, RequestId, RouterPolicy, SchedPolicy, SimDriver, Stage,
};
use metis_llm::{secs_to_nanos, GpuCluster, LatencyModel, ModelSpec, Nanos, WallClock};

fn engines(n: usize, kv_cap_tokens: u64, mode: PreemptMode) -> Vec<Engine> {
    (0..n)
        .map(|_| {
            let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
            let bytes = kv_cap_tokens * lat.model().kv_bytes_per_token();
            let config = EngineConfig {
                policy: SchedPolicy::Preemptive,
                kv_pool_bytes_cap: Some(bytes),
                preempt_mode: mode,
                ..EngineConfig::default()
            };
            Engine::new(lat, config)
        })
        .collect()
}

fn request(id: u64, arrival: Nanos) -> LlmRequest {
    LlmRequest {
        id: RequestId(id),
        group: GroupId(id / 3),
        stage: if id % 4 == 3 {
            Stage::Reduce
        } else {
            Stage::Map
        },
        prompt_tokens: 400 + (id % 5) * 300,
        output_tokens: 5 + (id % 7) * 40,
        cached_prompt_tokens: 0,
        arrival,
        priority: match id % 3 {
            0 => Priority::Interactive,
            1 => Priority::Standard,
            _ => Priority::Batch,
        },
    }
}

/// Pumps toward `until` (or to drain), logging each batch; returns the
/// latest finish seen.
fn pump(d: &mut SimDriver, until: Option<Nanos>, log: &mut Vec<String>) -> Nanos {
    let mut last = 0;
    loop {
        let batch = match until {
            Some(t) => d.pump_before(t),
            None => d.pump_idle(),
        };
        let Some(batch) = batch else { return last };
        last = batch.iter().map(|c| c.finish).fold(last, Nanos::max);
        log.push(format!("{batch:?}"));
    }
}

/// Serves the contended script through `spec`'s driver and returns every
/// answer the driver gave, rendered with `Debug` (exact for floats), in
/// call order, then the cluster's teardown totals, and the driver.
fn serve(spec: DriverSpec, replicas: usize, mode: PreemptMode) -> (Vec<String>, SimDriver) {
    let mut d = spec.build(engines(replicas, 4_096, mode), RouterPolicy::LeastKvLoad);
    let mut log = Vec::new();
    // Bursts pinned to replica 0 on four instants (one gang's calls, all on
    // the replica its group was routed to) overload its KV pool...
    for id in 0..12 {
        d.submit(ReplicaId(0), request(id, (id % 4) * secs_to_nanos(1.0)));
    }
    // ...then two routed bursts, each routed at its instant once the driver
    // has caught up to it, as the runner does.
    for id in 12..24 {
        let at = (id / 6) * secs_to_nanos(2.0);
        pump(&mut d, Some(at), &mut log);
        let rid = d.route(at);
        log.push(format!("{rid:?}"));
        d.submit(rid, request(id, at));
    }
    let t = secs_to_nanos(7.0);
    pump(&mut d, Some(t), &mut log);
    let drained = ReplicaId(replicas as u32 - 1);
    log.push(format!("drain {}", d.drain_replica(drained, t)));
    let added = d.add_replica(engines(1, 4_096, mode).remove(0), t, secs_to_nanos(4.0));
    // A host stall puts the wall far ahead of every stamp below. Decisions
    // are still taken at their stamps: at 9 s the added replica is warming,
    // whatever the wall reads.
    WallClock::new(1.0).sleep_until(2_000_000);
    let late = secs_to_nanos(9.0);
    pump(&mut d, Some(late), &mut log);
    log.push(format!(
        "{added:?} {}",
        d.cluster().is_routable(added, late)
    ));
    for id in 24..30 {
        let rid = d.route(late);
        log.push(format!("{rid:?}"));
        d.submit(rid, request(id, late));
    }
    let finish = pump(&mut d, None, &mut log);
    // A gang reduce chasing its maps onto the drained (maybe retired) slot.
    d.submit(drained, request(31, finish));
    pump(&mut d, None, &mut log);
    d.finish();
    let cluster = d.cluster();
    log.push(format!("{:?}", cluster.stats()));
    log.push(format!(
        "{} {} {}",
        cluster.len(),
        cluster.peak_live(),
        cluster.replica_seconds(cluster.latest_now())
    ));
    (log, d)
}

#[test]
fn paced_runs_equal_sim_runs_call_for_call() {
    let (mut preemptions, mut migrations) = (0, 0);
    for mode in [PreemptMode::Recompute, PreemptMode::Migrate] {
        for replicas in 1..=3 {
            let (sim, driver) = serve(DriverSpec::Sim, replicas, mode);
            let (paced, _) = serve(
                DriverSpec::Realtime {
                    time_scale: 20_000.0,
                },
                replicas,
                mode,
            );
            assert_eq!(paced, sim, "{mode:?} on {replicas} replicas");
            for stats in driver.cluster().stats() {
                preemptions += stats.preemptions;
                migrations += stats.migrations;
            }
        }
    }
    assert!(
        preemptions > 0 && migrations > 0,
        "the workload must preempt and migrate"
    );
}

/// Virtual arrival pacing: a workload whose arrivals span a known virtual
/// window must take at least the scaled wall time of that window — the
/// realtime driver really waits, it does not fast-forward.
#[test]
fn wall_clock_pacing_is_real() {
    let span_virtual: Nanos = 6_000_000_000; // 6 virtual seconds.
    let scale = 100.0; // → at least 60 ms of wall; an iteration is ~0.1 ms.
    let replicas = engines(1, 65_536, PreemptMode::Recompute);
    // This test asserts the realtime driver really waits in wall time;
    // the wall read goes through the sanctioned `WallClock`. It starts just
    // before the driver's own, so it never reads less than the driver's.
    let wall_clock = WallClock::new(1.0);
    let mut driver =
        DriverSpec::Realtime { time_scale: scale }.build(replicas, RouterPolicy::RoundRobin);
    for i in 0..4u64 {
        driver.submit(
            ReplicaId(0),
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
    let run_nanos = wall_clock.now();
    assert_eq!(done.len(), 4);
    let min_wall_nanos = (span_virtual as f64 / scale) as u64;
    assert!(
        elapsed_nanos >= min_wall_nanos,
        "drained in {elapsed_nanos} ns, but the arrival span alone is {min_wall_nanos} ns of wall time"
    );
    // The last arrival really happened at (or after) its virtual stamp.
    let last = done.iter().map(|c| c.finish).max().unwrap();
    assert!(last >= span_virtual);
    // And the run lasted at least until the wall reached its last finish.
    let last_wall = (last as f64 / scale) as u64;
    assert!(
        run_nanos >= last_wall,
        "ran {run_nanos} ns of wall, the last finish is {last_wall} ns in"
    );
}
