//! Live multithreaded serving: the realtime [`Driver`] implementation.
//!
//! One worker thread per replica owns that replica's [`Engine`] outright —
//! replicas share nothing, exactly as in the simulator — and paces it
//! against a shared scaled [`WallClock`]: after each engine iteration the
//! worker sleeps until the wall catches up with the engine's virtual clock,
//! so the latency model's iteration durations stand in for GPU work in real
//! (scaled) time. Crucially the engine still runs on its own
//! `VirtualClock`, advanced only by iteration durations and arrival jumps:
//! wall-clock jitter (scheduler wakeup latency, channel delivery delay)
//! shifts *when* an iteration executes, never *how long* the engine says it
//! took. That is what keeps realtime timestamps directly comparable to the
//! simulator's — the property the `fig_realtime_parity` bench asserts.
//!
//! This file is only about time and threads. Which slot takes the next
//! query, when a slot is warm, drained or retired, and what it has cost are
//! decided by the same [`fleet`](crate::fleet) ledger the simulator's
//! `Cluster` uses; the driver feeds it a per-replica load view. Free KV
//! and queue length come from lock-free snapshots each worker publishes
//! after every iteration — the realtime analogue of the paper reading
//! backend memory through `pynvml` rather than pausing the engine. Idleness
//! does not: a request still sitting in a worker's channel would make a
//! published flag stale, so the driver counts what it submitted against
//! what came back, per replica.
//!
//! Communication is plain std mpsc: the driver sends requests down a
//! per-replica submission queue, workers send completion batches back on
//! one shared channel. Shutdown is by hangup: [`RealtimeDriver::finish`]
//! drops the submission senders; each worker drains its remaining work,
//! then exits when its queue disconnects, and `finish` joins them all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use metis_llm::{Clock, Nanos, WallClock};

use crate::driver::{Driver, DriverKind, DriverStats};
use crate::engine::{Completion, Engine};
use crate::fleet::{Fleet, Load, RouterPolicy};
use crate::request::{LlmRequest, ReplicaId};
use crate::stats::EngineStats;

/// Lock-free per-replica state the worker publishes after every iteration,
/// read by the driver for routing and controller decisions. Each value is
/// an independent reading (no value guards another), hence `Relaxed`.
#[derive(Default)]
struct ReplicaShared {
    free_kv_tokens: AtomicU64,
    free_kv_bytes: AtomicU64,
    queued: AtomicU64,
    /// `EngineStats::preemption_pressure`, as `f64` bits.
    pressure_bits: AtomicU64,
}

impl ReplicaShared {
    // Runs on the replica thread: same no-panic rule as `replica_worker`.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn publish(&self, engine: &Engine) {
        self.free_kv_tokens
            .store(engine.free_kv_tokens(), Ordering::Relaxed);
        self.free_kv_bytes
            .store(engine.free_kv_bytes(), Ordering::Relaxed);
        self.queued
            .store(engine.queued_len() as u64, Ordering::Relaxed);
        self.pressure_bits.store(
            engine.stats().preemption_pressure().to_bits(),
            Ordering::Relaxed,
        );
    }
}

/// The driver's handle on one replica: its channels, its thread, and the
/// two facts about it the driver knows better than any snapshot.
struct Replica {
    submit: Sender<LlmRequest>,
    shared: Arc<ReplicaShared>,
    /// Returns the engine's stats and the last virtual instant it reached.
    worker: JoinHandle<(EngineStats, Nanos)>,
    /// Requests submitted to this replica and not yet returned.
    in_flight: u64,
    /// Latest virtual instant this replica is known to have reached: its
    /// ready time, then the finish of its last returned completion.
    reached: Nanos,
}

impl Replica {
    fn load(&self) -> Load {
        Load {
            free_kv_bytes: self.shared.free_kv_bytes.load(Ordering::Relaxed),
            queued: self.shared.queued.load(Ordering::Relaxed),
            idle: self.in_flight == 0,
            now: self.reached,
        }
    }
}

/// How long a fully idle worker blocks on its submission queue before
/// re-checking for shutdown, and the bound on a pending-arrival wait so
/// newly submitted work is still drained promptly.
const IDLE_WAIT_WALL: Duration = Duration::from_millis(10);

/// Wall slack under which `pump_before` spins on `try_recv` instead of
/// blocking in `recv_timeout`: OS timer wakeups are ~1 ms late, and at high
/// time scales that lateness would smear event firing times.
const EVENT_SPIN_WALL_NANOS: u64 = 2_000_000;

/// `pump_idle` panics after this long with work in flight but no
/// completion — a deadlocked or died worker should fail the run loudly
/// (and well inside any CI timeout), not hang it.
const STALL_WATCHDOG_WALL: Duration = Duration::from_secs(30);

/// The live serving driver: per-replica worker threads on scaled wall time.
///
/// Elasticity has the simulator's semantics, because the same ledger
/// decides it: [`Driver::add_replica`] spawns a new worker thread (routable
/// only after its warm-up virtual time), and [`Driver::drain_replica`] stops
/// routing to a slot, which keeps serving — and billing — until its last
/// in-flight request has come back, then retires. Its thread idles until
/// [`Driver::finish`] so late gang follow-ons can still be served, exactly
/// once, on the replica their group was pinned to. Every decision is
/// evaluated at the later of the caller's virtual `now` and the wall: a
/// replica cannot warm up, or be drained, in the past. KV migration is not
/// supported here (victims would have to cross threads mid-run);
/// construction rejects engines configured with
/// [`PreemptMode::Migrate`](crate::engine::PreemptMode).
pub(crate) struct RealtimeDriver {
    clock: WallClock,
    fleet: Fleet,
    replicas: Vec<Replica>,
    completions: Receiver<Vec<Completion>>,
    /// Kept so replicas added at runtime can report completions on the
    /// same channel. Worker death is caught by the pump watchdog rather
    /// than channel disconnection.
    done_tx: Sender<Vec<Completion>>,
}

impl RealtimeDriver {
    /// Spawns one worker thread per engine (replica ids assigned by
    /// position) on a fresh wall clock: virtual time starts at 0 *now* and
    /// passes `time_scale`× faster than wall time.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or `time_scale` is not finite-positive.
    pub(crate) fn new(engines: Vec<Engine>, router: RouterPolicy, time_scale: f64) -> Self {
        let (done_tx, completions) = std::sync::mpsc::channel::<Vec<Completion>>();
        let mut this = Self {
            clock: WallClock::new(time_scale),
            fleet: Fleet::new(engines.len(), router),
            replicas: Vec::with_capacity(engines.len()),
            completions,
            done_tx,
        };
        for engine in engines {
            this.spawn_worker(engine, 0);
        }
        this
    }

    /// Spawns a worker thread for `engine` as the next replica slot, its
    /// virtual clock starting at `ready`.
    fn spawn_worker(&mut self, mut engine: Engine, ready: Nanos) {
        assert!(
            engine.preempt_mode() == crate::engine::PreemptMode::Recompute,
            "KV migration is only supported by the sim driver: realtime \
             replicas own their engines on separate threads and cannot move \
             a victim's KV mid-run"
        );
        let i = self.replicas.len();
        engine.set_replica(ReplicaId(i as u32));
        // Starting the new replica's virtual clock at its ready time makes
        // the warm-up physical: even a force-submitted request cannot be
        // admitted before `ready`, and the worker's pacing sleep holds the
        // thread until the wall catches up.
        engine.advance_clock_to(ready);
        let shared = Arc::new(ReplicaShared::default());
        shared.publish(&engine);
        let (submit, req_rx) = std::sync::mpsc::channel::<LlmRequest>();
        let worker_state = Arc::clone(&shared);
        let worker_tx = self.done_tx.clone();
        let clock = self.clock;
        let worker = std::thread::Builder::new()
            .name(format!("metis-replica-{i}"))
            .spawn(move || replica_worker(engine, req_rx, worker_tx, worker_state, clock))
            .expect("spawn replica worker");
        self.replicas.push(Replica {
            submit,
            shared,
            worker,
            in_flight: 0,
            reached: ready,
        });
    }

    /// The virtual instant a decision the caller stamps `now` is evaluated
    /// at: the wall is the ground truth here, so never earlier than it.
    fn at(&self, now: Nanos) -> Nanos {
        now.max(self.clock.now())
    }

    fn in_flight(&self) -> u64 {
        self.replicas.iter().map(|r| r.in_flight).sum()
    }

    /// Books a batch of completions against the replicas that sent them,
    /// then lets the ledger retire any drained slot that just went idle.
    fn account(&mut self, done: Vec<Completion>) -> Vec<Completion> {
        for c in &done {
            let r = &mut self.replicas[c.replica.0 as usize];
            assert!(
                r.in_flight > 0,
                "replica {} returned request {} with nothing in flight — a \
                 request completed twice",
                c.replica.0,
                c.id.0
            );
            r.in_flight -= 1;
            r.reached = r.reached.max(c.finish);
        }
        self.fleet
            .reap(self.clock.now(), |i| self.replicas[i].load());
        done
    }
}

impl Driver for RealtimeDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::Realtime
    }

    fn replicas(&self) -> usize {
        self.replicas.len()
    }

    fn route(&mut self, now: Nanos) -> ReplicaId {
        self.fleet.route(self.at(now), |i| self.replicas[i].load())
    }

    fn is_routable(&self, id: ReplicaId, now: Nanos) -> bool {
        self.fleet.is_routable(id, self.at(now))
    }

    fn queue_depth(&self) -> u64 {
        self.fleet.queue_depth(|i| self.replicas[i].load())
    }

    fn add_replica(&mut self, engine: Engine, now: Nanos, warmup: Nanos) -> ReplicaId {
        let (id, ready) = self.fleet.add(self.at(now), warmup);
        self.spawn_worker(engine, ready);
        id
    }

    fn drain_replica(&mut self, id: ReplicaId, now: Nanos) -> bool {
        self.fleet
            .drain(id, self.at(now), |i| self.replicas[i].load())
    }

    fn free_kv_tokens(&self, id: ReplicaId) -> u64 {
        let shared = &self.replicas[id.0 as usize].shared;
        shared.free_kv_tokens.load(Ordering::Relaxed)
    }

    fn preemption_pressure(&self, id: ReplicaId) -> f64 {
        let shared = &self.replicas[id.0 as usize].shared;
        f64::from_bits(shared.pressure_bits.load(Ordering::Relaxed))
    }

    fn submit(&mut self, id: ReplicaId, req: LlmRequest) {
        self.fleet.on_submit(id);
        let replica = &mut self.replicas[id.0 as usize];
        replica.in_flight += 1;
        replica
            .submit
            .send(req)
            .expect("replica worker exited with the run still active");
    }

    fn pump_before(&mut self, t: Nanos) -> Option<Vec<Completion>> {
        let spin = Duration::from_nanos(EVENT_SPIN_WALL_NANOS);
        loop {
            // Either way an already-finished batch comes back at once, so
            // the caller can chain reduces off it before the event at `t`
            // fires. Far from `t`, block for the next one; on the final
            // approach, poll, so the event fires tightly at `t`.
            let wait = self.clock.wall_until(t);
            let received = if wait > spin {
                self.completions.recv_timeout(wait - spin / 2)
            } else {
                self.completions.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => RecvTimeoutError::Timeout,
                    TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
                })
            };
            match received {
                Ok(done) => return Some(self.account(done)),
                // The wall has reached `t`: the event is due. This return
                // is where arrival pacing physically happens.
                Err(RecvTimeoutError::Timeout) if wait.is_zero() => return None,
                Err(RecvTimeoutError::Timeout) => std::hint::spin_loop(),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("realtime replica worker died before the run drained")
                }
            }
        }
    }

    fn pump_idle(&mut self) -> Option<Vec<Completion>> {
        if self.in_flight() == 0 {
            return None;
        }
        match self.completions.recv_timeout(STALL_WATCHDOG_WALL) {
            Ok(done) => Some(self.account(done)),
            Err(e) => {
                panic!(
                    "realtime driver stalled: {} requests in flight but no \
                     completion within {STALL_WATCHDOG_WALL:?} ({e})",
                    self.in_flight()
                )
            }
        }
    }

    fn finish(self: Box<Self>) -> DriverStats {
        assert_eq!(
            self.in_flight(),
            0,
            "realtime driver torn down with work in flight — pump_idle \
             must run to None first"
        );
        let Self {
            fleet, replicas, ..
        } = *self;
        // Hang up the submission queues by dropping every replica's sender;
        // each worker drains and exits.
        let workers: Vec<_> = replicas.into_iter().map(|r| r.worker).collect();
        let joined: Vec<(EngineStats, Nanos)> = workers
            .into_iter()
            .map(|worker| worker.join().expect("replica worker panicked"))
            .collect();
        // Bill to the latest virtual instant any replica reached, as the
        // simulator does — not to wherever the wall happens to be.
        let end = joined.iter().map(|&(_, now)| now).max().unwrap_or(0);
        DriverStats::collect(&fleet, end, joined.iter().map(|(stats, _)| stats))
    }
}

/// The per-replica worker loop: drain submissions, run engine iterations,
/// pace the wall against the engine's virtual clock, report completions.
///
/// A panic here kills a replica mid-run and strands its in-flight requests,
/// so nothing in the body may unwrap or panic: a hung-up channel is a
/// `match` arm, never an `expect`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
fn replica_worker(
    mut engine: Engine,
    requests: Receiver<LlmRequest>,
    completions: Sender<Vec<Completion>>,
    shared: Arc<ReplicaShared>,
    mut clock: WallClock,
) -> (EngineStats, Nanos) {
    // Bound on a pending-arrival wait, in virtual nanos, so freshly
    // submitted work is still drained within ~one idle quantum of wall time.
    let pending_chunk: Nanos =
        (IDLE_WAIT_WALL.as_nanos() as f64 * clock.time_scale()).ceil() as Nanos;
    let mut disconnected = false;
    loop {
        // Drain every submission that has arrived, without blocking.
        while !disconnected {
            match requests.try_recv() {
                Ok(req) => engine.submit(req),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }
        shared.publish(&engine);

        // Runnable work, or a pending arrival the wall has reached: run one
        // iteration. `step` jumps the engine clock to a due arrival exactly
        // (never to the jittery wall reading), keeping virtual timestamps
        // aligned with the simulator's.
        let runnable = engine.has_active_work()
            || engine
                .next_pending_arrival()
                .is_some_and(|t| clock.now() >= t);
        if runnable {
            let before = engine.now();
            let done = engine.step();
            shared.publish(&engine);
            engine.assert_progressed(before, done.len());
            if !done.is_empty() && completions.send(done).is_err() {
                // Driver gone (teardown without drain): stop serving.
                break;
            }
            // The pacing sleep: this iteration "took" (virtual) what the
            // latency model said; make that much scaled wall time pass. If
            // the wall is already past (we are running behind), this
            // returns immediately and the worker catches up.
            clock.sleep_until(engine.now());
            continue;
        }

        // Only future arrivals: wait for the earliest one, bounded so new
        // submissions keep being drained.
        if let Some(t) = engine.next_pending_arrival() {
            clock.sleep_until(t.min(clock.now().saturating_add(pending_chunk)));
            continue;
        }

        // Fully idle. Exit once the driver has hung up, otherwise block
        // until work arrives.
        if disconnected {
            break;
        }
        match requests.recv_timeout(IDLE_WAIT_WALL) {
            Ok(req) => engine.submit(req),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
        }
    }
    (engine.stats().clone(), engine.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverSpec;
    use crate::engine::EngineConfig;
    use crate::request::{GroupId, Priority, RequestId, Stage};
    use metis_llm::{GpuCluster, LatencyModel, ModelSpec};

    fn engines(n: usize) -> Vec<Engine> {
        (0..n)
            .map(|_| {
                let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
                Engine::new(lat, EngineConfig::default())
            })
            .collect()
    }

    fn req(id: u64, arrival: Nanos) -> LlmRequest {
        LlmRequest {
            id: RequestId(id),
            group: GroupId(id),
            stage: Stage::Single,
            prompt_tokens: 800,
            output_tokens: 8,
            cached_prompt_tokens: 0,
            arrival,
            priority: Priority::Standard,
        }
    }

    /// High scale so tests run in milliseconds of wall time.
    const SCALE: f64 = 100_000.0;

    #[test]
    fn realtime_driver_completes_submitted_work() {
        let mut d: Box<dyn Driver> =
            DriverSpec::Realtime { time_scale: SCALE }.build(engines(2), RouterPolicy::RoundRobin);
        assert_eq!(d.kind(), DriverKind::Realtime);
        assert_eq!(d.replicas(), 2);
        for i in 0..6u64 {
            let rid = d.route(0);
            d.submit(rid, req(i, 0));
        }
        let mut done = Vec::new();
        while let Some(batch) = d.pump_idle() {
            done.extend(batch);
        }
        assert_eq!(done.len(), 6);
        // Timestamps are virtual and well-formed despite wall pacing.
        for c in &done {
            assert!(c.arrival <= c.admitted && c.admitted <= c.finish);
        }
        let stats = d.finish();
        assert_eq!(stats.replicas, 2);
        assert!(stats.busy > 0);
    }

    #[test]
    fn pump_before_paces_the_wall_to_the_event() {
        let mut d = RealtimeDriver::new(engines(1), RouterPolicy::RoundRobin, SCALE);
        // No work in flight: pump_before returns None only once the wall
        // reaches t (this is arrival pacing).
        let t = d.clock.now() + 2_000_000_000; // 2 virtual s = 20 wall µs.
        assert!(d.pump_before(t).is_none());
        assert!(d.clock.now() >= t, "pump_before waited out the gap");
        let stats = Box::new(d).finish();
        assert_eq!(stats.busy, 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "a wall deadline bounds how long the test waits on the worker thread"
    )]
    fn least_kv_routing_follows_published_snapshots() {
        // A gentler scale than the other tests: the decode below has to
        // still be running when this thread gets to look, even on a host
        // that schedules the worker and this thread on one core.
        let mut d = RealtimeDriver::new(engines(2), RouterPolicy::LeastKvLoad, SCALE / 50.0);
        // Idle fleet: tie broken by lowest id.
        assert_eq!(d.route(0), ReplicaId(0));
        // Occupy replica 0 with a long decode (thousands of iterations =
        // tens of wall milliseconds at this scale); once its worker publishes the
        // admission, routing prefers replica 1 for as long as the request
        // runs.
        d.submit(
            ReplicaId(0),
            LlmRequest {
                output_tokens: 4_000,
                ..req(1, 0)
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while d.free_kv_tokens(ReplicaId(0)) == d.free_kv_tokens(ReplicaId(1)) {
            assert!(
                std::time::Instant::now() < deadline,
                "replica 0 never admitted the request"
            );
            std::thread::yield_now();
        }
        assert_eq!(d.route(0), ReplicaId(1));
        let mut boxed: Box<dyn Driver> = Box::new(d);
        while boxed.pump_idle().is_some() {}
        boxed.finish();
    }
}
