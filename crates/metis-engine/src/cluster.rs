//! Multi-replica serving cluster.
//!
//! A [`Cluster`] owns independent [`Engine`] replicas — separate GPU
//! groups, each with its own paged KV pool, queue, and virtual clock — and
//! routes newly arriving work across them with a pluggable dispatch policy.
//! Replicas share nothing; the only cross-replica coupling is the routing
//! decision itself, which is exactly the joint configuration/scheduling
//! surface METIS reasons about: [`RouterPolicy::LeastKvLoad`] sends a query
//! to the replica with the most free KV bytes, and the controller's
//! best-fit then sizes the configuration against *that* replica's memory.
//!
//! The fleet is *elastic*: replicas can be added at runtime (optionally
//! paying a warm-up cost before they accept routed work) and drained
//! (routing stops immediately; in-flight work finishes — including
//! follow-on calls of gang groups already on the replica — and the slot
//! retires once idle). Replica ids are stable slot indices: a retired
//! replica keeps its id and its stats, so completions and per-replica
//! accounting never shift under the caller. Each slot holds its engine
//! beside its lifecycle (`WarmingUp → Active → Draining → Retired`, un-retired
//! by a late gang reduce) and its billing span, so every decision —
//! routing, draining, retiring, billing — reads the engine it is about
//! directly, at the moment it is taken.
//!
//! Preemption can also *migrate* instead of recompute (see
//! [`PreemptMode::Migrate`](crate::engine::PreemptMode)): victims evicted
//! into an engine's outbox are placed by the cluster on the replica with
//! the most free KV that fits them, paying a priced KV-transfer delay, and
//! fall back to local recompute when no replica has headroom.
//!
//! The cluster is still a discrete-event simulation: each replica advances
//! its own clock, and the driver steps whichever replica lags furthest
//! behind the target time ([`Cluster::steppable_before`] /
//! [`Cluster::step_replica`]), so cross-replica event order is
//! deterministic.

use metis_llm::{nanos_to_secs, secs_to_nanos, Nanos};

use crate::engine::{Completion, Engine};
use crate::request::{LlmRequest, ReplicaId};
use crate::stats::EngineStats;

/// Effective bandwidth of a cross-replica KV transfer, in bytes per second
/// of virtual time: NVLink-class interconnects move hundreds of GB/s, but a
/// replica-to-replica move crosses host links (PCIe 4.0 x16 ≈ 32 GB/s peak)
/// and pays serialization overheads, so 25 GB/s is the planning number a
/// migration is priced at.
const MIGRATION_BW_BYTES_PER_SEC: f64 = 25e9;

/// How the cluster picks a replica for new work.
///
/// # Examples
///
/// Policies are plain values with stable names, routed through at
/// cluster-construction time:
///
/// ```
/// use metis_engine::RouterPolicy;
///
/// assert_eq!(RouterPolicy::default(), RouterPolicy::RoundRobin);
/// assert_eq!(RouterPolicy::LeastKvLoad.name(), "least-kv");
/// assert_eq!(RouterPolicy::PrefixAware.name(), "prefix-aware");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RouterPolicy {
    /// Cycle through replicas in submission order.
    #[default]
    RoundRobin,
    /// Route to the replica with the most free KV-cache bytes right now
    /// (ties broken by lowest replica id). This is the memory-aware twin of
    /// least-connections load balancing: it steers work away from replicas
    /// whose KV pool is saturated, and hands METIS's best-fit the roomiest
    /// backend to size against.
    LeastKvLoad,
    /// Route to the replica whose `PrefixCache` already holds the query's
    /// system/context prefix, falling back to [`Self::LeastKvLoad`]. The
    /// cluster itself cannot see the caches (they live with the runner,
    /// which consults them at submit time after retrieval), so at this
    /// level the policy ranks like `LeastKvLoad`; the runner re-routes to
    /// the best cache-overlap replica once the retrieved chunks are known.
    PrefixAware,
}

impl RouterPolicy {
    /// Short stable name, for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastKvLoad => "least-kv",
            RouterPolicy::PrefixAware => "prefix-aware",
        }
    }
}

/// A replica slot's lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplicaState {
    /// Spawned but not yet accepting routed work (weights loading,
    /// CUDA-graph capture); becomes [`Self::Active`] at `until`.
    WarmingUp {
        /// When the replica starts accepting routed work.
        until: Nanos,
    },
    /// Accepting routed work.
    Active,
    /// No longer routed to; in-flight work (and follow-on calls of groups
    /// already placed here) still runs to completion.
    Draining,
    /// Drained and idle. The slot keeps its id and stats but does nothing;
    /// a late follow-on submission (a gang group's reduce) re-enters
    /// [`Self::Draining`] until it finishes.
    Retired,
}

/// One replica slot: the engine and its lifecycle and billing.
struct Replica {
    engine: Engine,
    state: ReplicaState,
    /// When the slot began costing replica-seconds.
    spawned_at: Nanos,
    /// When the slot stopped costing replica-seconds (set at retirement).
    retired_at: Option<Nanos>,
}

impl Replica {
    /// The lifecycle state at `now` (a warm-up due by `now` reads as
    /// active).
    fn state_at(&self, now: Nanos) -> ReplicaState {
        match self.state {
            ReplicaState::WarmingUp { until } if now >= until => ReplicaState::Active,
            s => s,
        }
    }

    /// Whether the slot is live: active, warming or draining.
    fn is_live(&self) -> bool {
        self.retired_at.is_none()
    }
}

/// Engine replicas behind a router, with runtime add/drain.
pub struct Cluster {
    /// The slots, indexed by replica id (retired ones included).
    replicas: Vec<Replica>,
    router: RouterPolicy,
    rr_next: usize,
    /// High-water mark of concurrently live slots.
    peak_live: usize,
}

impl Cluster {
    /// Builds a cluster from pre-constructed replicas; replica ids are
    /// assigned by position. The initial fleet starts active and is billed
    /// from time 0 (warm-up applies to replicas added later via
    /// [`Self::add_replica`]).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<Engine>, router: RouterPolicy) -> Self {
        assert!(!replicas.is_empty(), "a cluster needs at least one replica");
        let replicas: Vec<Replica> = replicas
            .into_iter()
            .enumerate()
            .map(|(i, mut engine)| {
                engine.set_replica(ReplicaId(i as u32));
                Replica {
                    engine,
                    state: ReplicaState::Active,
                    spawned_at: 0,
                    retired_at: None,
                }
            })
            .collect();
        Self {
            peak_live: replicas.len(),
            replicas,
            router,
            rr_next: 0,
        }
    }

    /// Number of replica slots ever created (including retired ones —
    /// replica ids are stable slot indices).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false: a cluster holds at least one replica.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Shared view of one replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replica(&self, id: ReplicaId) -> &Engine {
        &self.replicas[id.0 as usize].engine
    }

    /// Iterates over the replicas in id order (retired slots included).
    pub fn replicas(&self) -> impl Iterator<Item = &Engine> {
        self.replicas.iter().map(|r| &r.engine)
    }

    /// Whether `id` currently accepts routed work at `now`.
    pub fn is_routable(&self, id: ReplicaId, now: Nanos) -> bool {
        self.replicas[id.0 as usize].state_at(now) == ReplicaState::Active
    }

    /// Number of replicas accepting routed work at `now`.
    pub fn active_len(&self, now: Nanos) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state_at(now) == ReplicaState::Active)
            .count()
    }

    /// Number of live slots.
    fn live_len(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_live()).count()
    }

    /// High-water mark of concurrently live slots.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Adds a replica slot at virtual time `now`, billed from `now`. With a
    /// non-zero `warmup` the slot accepts routed work only from
    /// `now + warmup`, and its clock starts there, so any work
    /// force-submitted earlier also waits out the warm-up. Returns the new
    /// replica's stable id.
    pub fn add_replica(&mut self, mut engine: Engine, now: Nanos, warmup: Nanos) -> ReplicaId {
        let id = ReplicaId(self.replicas.len() as u32);
        let ready = now.saturating_add(warmup);
        engine.set_replica(id);
        engine.advance_clock_to(ready);
        self.replicas.push(Replica {
            engine,
            state: if warmup == 0 {
                ReplicaState::Active
            } else {
                ReplicaState::WarmingUp { until: ready }
            },
            spawned_at: now,
            retired_at: None,
        });
        self.peak_live = self.peak_live.max(self.live_len());
        id
    }

    /// Begins draining `id` at `now`: routing stops immediately, in-flight
    /// work finishes (or migrates with its group's follow-ons), and the
    /// slot retires once idle. Returns `false` without draining when `id`
    /// is the last routable replica — a cluster never drains itself to
    /// zero capacity — or is already retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn drain_replica(&mut self, id: ReplicaId, now: Nanos) -> bool {
        if self.is_routable(id, now) && self.active_len(now) <= 1 {
            return false;
        }
        let slot = &mut self.replicas[id.0 as usize];
        if slot.state == ReplicaState::Retired {
            return false;
        }
        slot.state = ReplicaState::Draining;
        self.reap(now);
        true
    }

    /// Promotes warmed-up slots and retires drained-idle ones.
    fn reap(&mut self, now: Nanos) {
        for r in &mut self.replicas {
            match r.state {
                ReplicaState::WarmingUp { until } if now >= until => {
                    r.state = ReplicaState::Active;
                }
                ReplicaState::Draining if r.engine.is_idle() => {
                    r.state = ReplicaState::Retired;
                    // The instant its last work finished (its own clock),
                    // never before it was spawned.
                    r.retired_at = Some(r.engine.now().max(r.spawned_at));
                }
                _ => {}
            }
        }
    }

    /// Picks the replica the next query's calls should be submitted to
    /// (see [`RouterPolicy`]): lifecycle transitions due at `now` are
    /// applied first, then the replicas routable at `now` are ranked. One
    /// route call per query — all of a query's calls (maps and the reduce)
    /// stay on one replica so gang scheduling keeps working. There always
    /// is a routable replica: the initial fleet is active, and
    /// [`Self::drain_replica`] takes a routable one out only when another
    /// is routable at that instant — which its own reap then promotes for
    /// good.
    pub fn route(&mut self, now: Nanos) -> ReplicaId {
        self.reap(now);
        let mut routable = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state_at(now) == ReplicaState::Active);
        let picked = match self.router {
            RouterPolicy::RoundRobin => {
                let count = routable.clone().count();
                assert!(count > 0, "no routable replica");
                let picked = routable.nth(self.rr_next % count);
                self.rr_next = (self.rr_next + 1) % count;
                picked
            }
            // PrefixAware ranks like LeastKvLoad here: cache-overlap
            // re-routing happens in the runner, which owns the caches.
            RouterPolicy::LeastKvLoad | RouterPolicy::PrefixAware => {
                // Most free KV bytes; stable tie-break on lowest id.
                routable.max_by_key(|&(i, r)| (r.engine.free_kv_bytes(), std::cmp::Reverse(i)))
            }
        }
        .expect("no routable replica");
        ReplicaId(picked.0 as u32)
    }

    /// Submits a request to the given replica. A retired slot re-enters
    /// draining: a gang group's reduce may chase its maps onto a replica
    /// that went idle in between, and it must still be served exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn submit(&mut self, id: ReplicaId, req: LlmRequest) {
        let slot = &mut self.replicas[id.0 as usize];
        slot.engine.submit(req);
        if slot.state == ReplicaState::Retired {
            slot.state = ReplicaState::Draining;
            slot.retired_at = None;
            self.peak_live = self.peak_live.max(self.live_len());
        }
    }

    /// Requests waiting for admission across live replicas — the
    /// autoscaler's primary load signal.
    pub fn queue_depth(&self) -> u64 {
        self.replicas
            .iter()
            .filter(|r| r.is_live())
            .map(|r| r.engine.queued_len() as u64)
            .sum()
    }

    /// Integrated capacity cost in replica-seconds up to virtual time
    /// `end`: each slot is billed from spawn until retirement (or `end`
    /// while live). Warm-up time is billed — the GPU is held from spawn.
    pub fn replica_seconds(&self, end: Nanos) -> f64 {
        self.replicas
            .iter()
            .map(|r| {
                let until = r.retired_at.unwrap_or(end).max(r.spawned_at);
                nanos_to_secs(until - r.spawned_at)
            })
            .sum()
    }

    /// Whether every replica is fully drained.
    pub fn is_idle(&self) -> bool {
        self.replicas().all(Engine::is_idle)
    }

    /// Latest virtual instant any replica has reached — the cluster-wide
    /// end-of-run time replica-seconds are billed to.
    pub fn latest_now(&self) -> Nanos {
        self.replicas().map(Engine::now).max().unwrap_or(0)
    }

    /// Per-replica run statistics, in replica-id order.
    pub fn stats(&self) -> Vec<&EngineStats> {
        self.replicas().map(Engine::stats).collect()
    }

    /// The most-lagging replica that still has work to do before virtual
    /// time `t` — the replica the driver should step next to advance the
    /// whole cluster to `t`. `None` when every replica has caught up.
    pub fn steppable_before(&self, t: Nanos) -> Option<ReplicaId> {
        self.replicas()
            .enumerate()
            .filter(|(_, e)| {
                e.now() < t
                    && (e.has_active_work() || e.next_pending_arrival().is_some_and(|a| a <= t))
            })
            .min_by_key(|(i, e)| (e.now(), *i))
            .map(|(i, _)| ReplicaId(i as u32))
    }

    /// The most-lagging replica with any remaining work (used to drain the
    /// cluster once no more external events exist).
    pub fn next_steppable(&self) -> Option<ReplicaId> {
        self.replicas()
            .enumerate()
            .filter(|(_, e)| !e.is_idle())
            .min_by_key(|(i, e)| (e.now(), *i))
            .map(|(i, _)| ReplicaId(i as u32))
    }

    /// Advances one replica by one engine iteration; completions carry the
    /// replica id. Migration-evicted victims the iteration produced are
    /// placed before returning (see `place_evicted`), and lifecycle
    /// transitions that became due are applied.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the iteration made no progress
    /// (a request that can never be admitted).
    pub fn step_replica(&mut self, id: ReplicaId) -> Vec<Completion> {
        let engine = &mut self.replicas[id.0 as usize].engine;
        let before = engine.now();
        let done = engine.step();
        if engine.evicted_len() > 0 {
            self.place_evicted(id);
        }
        let engine = &self.replicas[id.0 as usize].engine;
        engine.assert_progressed(before, done.len());
        self.reap(engine.now());
        done
    }

    /// Places every migration-evicted victim from `source`'s outbox: each
    /// goes to the active or warming replica with the most free KV bytes
    /// that fits its whole demand (headroom), excluding the source itself,
    /// paying a transfer delay of `kv_bytes / MIGRATION_BW_BYTES_PER_SEC`.
    /// With zero headroom everywhere the victim falls back to recompute on
    /// the source — the same outcome plain recompute-preemption would have
    /// had, charged the same way.
    fn place_evicted(&mut self, source: ReplicaId) {
        let src = source.0 as usize;
        let evicted = self.replicas[src].engine.take_evicted();
        let bytes_per_token = self.replicas[src]
            .engine
            .latency_model()
            .model()
            .kv_bytes_per_token();
        for seq in evicted {
            let demand = seq.migrate_req.kv_demand_tokens();
            let dest = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(i, r)| {
                    *i != src
                        && matches!(
                            r.state,
                            ReplicaState::Active | ReplicaState::WarmingUp { .. }
                        )
                        && r.engine.free_kv_tokens() >= demand
                })
                .max_by_key(|(i, r)| (r.engine.free_kv_bytes(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i);
            match dest {
                Some(d) => {
                    let kv_bytes = seq.kv_tokens.saturating_mul(bytes_per_token);
                    let transfer = secs_to_nanos(kv_bytes as f64 / MIGRATION_BW_BYTES_PER_SEC);
                    let ready_at = seq.evicted_at.saturating_add(transfer);
                    self.replicas[src].engine.record_migration(seq.kv_tokens);
                    self.replicas[d]
                        .engine
                        .submit_in_transit(seq.migrate_req, ready_at);
                }
                None => self.replicas[src].engine.requeue_recompute(seq),
            }
        }
    }

    /// Runs every replica until the whole cluster drains; returns all
    /// completions, ordered by (finish time, replica id).
    ///
    /// Unlike the per-event driver loop, this cannot chain new submissions
    /// off completions — it is a convenience for tests and standalone use.
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while let Some(id) = self.next_steppable() {
            all.extend(self.step_replica(id));
        }
        all.sort_by_key(|c| (c.finish, c.replica));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, PreemptMode, SchedPolicy};
    use crate::request::{GroupId, Priority, RequestId, Stage};
    use metis_llm::{GpuCluster, LatencyModel, ModelSpec};

    fn cluster(n: usize, router: RouterPolicy) -> Cluster {
        Cluster::new((0..n).map(|_| engine()).collect(), router)
    }

    fn engine() -> Engine {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        Engine::new(lat, EngineConfig::default())
    }

    /// A preemptive engine with a KV pool small enough that an interactive
    /// arrival must evict batch work.
    fn tight_engine(mode: PreemptMode) -> Engine {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let bytes = 4_096 * lat.model().kv_bytes_per_token();
        let config = EngineConfig {
            policy: SchedPolicy::Preemptive,
            kv_pool_bytes_cap: Some(bytes),
            preempt_mode: mode,
            ..EngineConfig::default()
        };
        Engine::new(lat, config)
    }

    fn req(id: u64, group: u64, prompt: u64, out: u64, arrival: Nanos) -> LlmRequest {
        LlmRequest {
            id: RequestId(id),
            group: GroupId(group),
            stage: Stage::Single,
            prompt_tokens: prompt,
            output_tokens: out,
            cached_prompt_tokens: 0,
            arrival,
            priority: Priority::Standard,
        }
    }

    fn state(c: &Cluster, i: u32, now: Nanos) -> ReplicaState {
        c.replicas[i as usize].state_at(now)
    }

    #[test]
    fn kv_policies_rank_free_bytes_and_break_ties_on_the_lowest_id() {
        for policy in [RouterPolicy::LeastKvLoad, RouterPolicy::PrefixAware] {
            let mut c = cluster(3, policy);
            assert_eq!(c.route(0), ReplicaId(0), "{policy:?}: all equal");
            // Load replica 0 and admit the work so its free KV drops; 1 and
            // 2 tie on the most free bytes.
            c.submit(ReplicaId(0), req(1, 1, 50_000, 500, 0));
            c.step_replica(ReplicaId(0));
            let free = |id| c.replica(id).free_kv_bytes();
            assert!(free(ReplicaId(0)) < free(ReplicaId(1)));
            assert_eq!(c.route(0), ReplicaId(1), "{policy:?}");
        }
    }

    #[test]
    fn round_robin_cycles_the_replicas_and_completions_carry_their_id() {
        let mut c = cluster(3, RouterPolicy::RoundRobin);
        let mut picks = Vec::new();
        for i in 0..6u64 {
            let rid = c.route(0);
            picks.push(rid.0);
            c.submit(rid, req(i, i, 2_000, 10, 0));
        }
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
        let done = c.run_until_idle();
        assert_eq!(done.len(), 6);
        let mut by_replica = [0usize; 3];
        for d in &done {
            by_replica[d.replica.0 as usize] += 1;
        }
        assert_eq!(by_replica, [2, 2, 2], "round robin splits work evenly");
        assert!(c.is_idle());
    }

    #[test]
    fn steppable_before_picks_the_most_lagging_replica() {
        let mut c = cluster(2, RouterPolicy::RoundRobin);
        c.submit(ReplicaId(0), req(1, 1, 4_000, 20, 0));
        c.submit(ReplicaId(1), req(2, 2, 4_000, 20, 0));
        // Step replica 0 once so its clock leads replica 1's.
        c.step_replica(ReplicaId(0));
        let t = c.replica(ReplicaId(0)).now() + 1;
        assert_eq!(c.steppable_before(t), Some(ReplicaId(1)));
        // Past both clocks with no runnable work left before t: none.
        let mut drained = cluster(1, RouterPolicy::RoundRobin);
        assert_eq!(drained.steppable_before(1_000), None);
        drained.submit(ReplicaId(0), req(3, 3, 100, 1, 2_000));
        assert_eq!(drained.steppable_before(1_000), None, "arrival beyond t");
        assert_eq!(drained.steppable_before(2_001), Some(ReplicaId(0)));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_cluster_is_rejected() {
        let _ = Cluster::new(Vec::new(), RouterPolicy::RoundRobin);
    }

    #[test]
    fn a_warming_replica_takes_routes_from_exactly_its_ready_time() {
        // The warm-up is physical: the engine's clock starts at `until`,
        // so work force-submitted earlier cannot begin before it either.
        let mut c = cluster(1, RouterPolicy::RoundRobin);
        let id = c.add_replica(engine(), 1_000, 500);
        assert_eq!((id, c.len()), (ReplicaId(1), 2));
        assert_eq!(c.replica(id).now(), 1_500);
        assert_eq!(
            state(&c, 1, 1_499),
            ReplicaState::WarmingUp { until: 1_500 }
        );
        assert!(!c.is_routable(id, 1_499));
        // While warming, every route lands on the active replica.
        assert_eq!(c.route(1_499), ReplicaId(0));
        assert_eq!(c.route(1_499), ReplicaId(0));
        // Promotion happens at `now == until`, not one tick later.
        assert_eq!(state(&c, 1, 1_500), ReplicaState::Active);
        assert_eq!(c.active_len(1_500), 2);
        let picks = [c.route(1_500), c.route(1_500)];
        assert!(picks.contains(&id), "warmed replica joins routing");
        // No warm-up: routable from the spawn instant.
        let cold = c.add_replica(engine(), 2_000, 0);
        assert!(c.is_routable(cold, 2_000));
        assert_eq!(c.replica(cold).now(), 2_000);
    }

    #[test]
    fn the_last_routable_replica_refuses_to_drain() {
        let mut c = cluster(2, RouterPolicy::LeastKvLoad);
        c.submit(ReplicaId(0), req(1, 1, 2_000, 10, 0));
        c.submit(ReplicaId(1), req(2, 2, 2_000, 10, 0));
        assert!(c.drain_replica(ReplicaId(0), 0));
        assert!(!c.drain_replica(ReplicaId(1), 0), "never drain to zero");
        assert_eq!(c.active_len(0), 1);
        // Draining stopped routing at once; re-draining a draining replica
        // is an accepted no-op.
        assert_eq!(state(&c, 0, 0), ReplicaState::Draining);
        assert_eq!(c.route(0), ReplicaId(1));
        assert!(c.drain_replica(ReplicaId(0), 0));
        // The closest the cluster gets to "every replica warming or
        // draining": replica 1 drained the instant a warming replica became
        // ready, and a decision stamped just before that instant. The
        // drain's own reap promoted the new replica for good, so routing
        // needs no fallback to a replica that is not routable.
        let warming = c.add_replica(engine(), 0, 1_000);
        assert!(!c.drain_replica(ReplicaId(1), 999), "last one");
        assert!(c.drain_replica(ReplicaId(1), 1_000));
        assert_eq!(c.active_len(999), 1);
        assert_eq!(c.route(999), warming);
    }

    #[test]
    fn retired_replica_still_serves_a_late_gang_reduce_exactly_once() {
        let mut c = cluster(2, RouterPolicy::RoundRobin);
        c.submit(ReplicaId(1), req(1, 7, 2_000, 10, 0));
        c.submit(ReplicaId(1), req(2, 8, 2_000, 10, 0));
        assert!(c.drain_replica(ReplicaId(1), 0));
        assert_eq!(state(&c, 1, 0), ReplicaState::Draining);
        // Live and counted — in queue depth and in the peak — while it
        // still holds work.
        assert_eq!(c.queue_depth(), 2);
        assert_eq!((c.live_len(), c.peak_live()), (2, 2));
        let done = c.run_until_idle();
        assert_eq!(done.len(), 2);
        let idle_at = c.replica(ReplicaId(1)).now();
        assert_eq!(state(&c, 1, idle_at), ReplicaState::Retired);
        assert_eq!(c.live_len(), 1);
        assert!(!c.drain_replica(ReplicaId(1), idle_at), "already retired");
        // Billed to the instant it went idle, not to the reap or the end.
        let end = 10 * idle_at;
        let secs = nanos_to_secs;
        assert_eq!(c.replica_seconds(end), secs(end) + secs(idle_at));
        // The group's reduce chases its maps onto the retired replica (the
        // runner pins a gang group to one replica).
        c.submit(
            ReplicaId(1),
            LlmRequest {
                stage: Stage::Reduce,
                ..req(3, 7, 1_000, 5, idle_at)
            },
        );
        assert_eq!(
            state(&c, 1, idle_at),
            ReplicaState::Draining,
            "a late submission re-opens the replica until served"
        );
        assert_eq!(c.queue_depth(), 1);
        assert_eq!(c.replica_seconds(end), secs(end) + secs(end));
        let done = c.run_until_idle();
        assert_eq!(done.len(), 1, "the reduce completes exactly once");
        // Retired again, billed through the late work.
        let late = c.replica(ReplicaId(1)).now();
        assert!(late > idle_at);
        assert_eq!(state(&c, 1, late), ReplicaState::Retired);
        assert_eq!(c.replica_seconds(end), secs(end) + secs(late));
    }

    #[test]
    fn replica_seconds_bill_spawn_to_retirement_with_warm_up() {
        let mut c = cluster(1, RouterPolicy::RoundRobin);
        let s = 1_000_000_000;
        // Spawned at 2 s with 1 s of warm-up; its clock starts at 3 s.
        let id = c.add_replica(engine(), 2 * s, s);
        assert_eq!(c.peak_live(), 2);
        // Live: replica 0 bills the whole 10 s, replica 1 from its spawn.
        assert_eq!(c.replica_seconds(10 * s), 10.0 + 8.0);
        // Drained while still warming and idle: the warm-up is billed.
        assert!(c.drain_replica(id, 2 * s + 1));
        assert_eq!(state(&c, 1, 2 * s + 1), ReplicaState::Retired);
        assert_eq!(c.replica_seconds(10 * s), 10.0 + 1.0);
        assert_eq!((c.len(), c.live_len(), c.peak_live()), (2, 1, 2));
    }

    /// Seeded elasticity sweep over real engines: random submits (to any
    /// replica, retired ones included), adds with and without warm-up,
    /// drains, routes and steps on 1–4 live replicas that preempt and
    /// migrate. After every operation routing has somewhere to go, a drain
    /// is refused exactly when it would leave nothing routable, the peak
    /// covers the live count and billing grows with the end instant; at the
    /// end every request has completed exactly once.
    #[test]
    fn elasticity_sweep_keeps_the_fleet_invariants() {
        for seed in 1..=40u64 {
            // xorshift64: deterministic, no dependency.
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rand = |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let mode = [PreemptMode::Recompute, PreemptMode::Migrate][(seed % 2) as usize];
            let mut c = Cluster::new(
                (0..=rand(4)).map(|_| tight_engine(mode)).collect(),
                [RouterPolicy::RoundRobin, RouterPolicy::LeastKvLoad][(seed / 2 % 2) as usize],
            );
            let (mut now, mut submitted, mut done) = (0, 0, Vec::new());
            for _ in 0..80 {
                now += rand(300) * 1_000_000;
                let any = ReplicaId(rand(c.len() as u64) as u32);
                match rand(6) {
                    0 | 1 => {
                        let priority = Priority::all()[rand(3) as usize];
                        let r = req(submitted, submitted, 200 + rand(1_800), 1 + rand(200), now);
                        c.submit(any, LlmRequest { priority, ..r });
                        submitted += 1;
                    }
                    2 if c.live_len() < 4 => {
                        let warmup = rand(2) * rand(500) * 1_000_000;
                        c.add_replica(tight_engine(mode), now, warmup);
                    }
                    3 if c.replicas[any.0 as usize].is_live() => {
                        let others = (0..c.len() as u32)
                            .filter(|&j| j != any.0 && c.is_routable(ReplicaId(j), now))
                            .count();
                        let leaves_none = others == 0 && c.is_routable(any, now);
                        assert_eq!(c.drain_replica(any, now), !leaves_none, "seed {seed}");
                    }
                    4 => {
                        let id = c.route(now);
                        assert!(c.is_routable(id, now), "seed {seed}: routed to {id:?}");
                    }
                    _ => {
                        if let Some(id) = c.next_steppable() {
                            done.extend(c.step_replica(id));
                        }
                    }
                }
                assert!(c.active_len(now) >= 1, "seed {seed}: nothing routable");
                assert!(c.peak_live() >= c.live_len(), "seed {seed}");
                let mut ends = [now, c.latest_now(), c.latest_now() + 1_000_000_000];
                ends.sort_unstable();
                let billed = ends.map(|e| c.replica_seconds(e));
                assert!(
                    billed.windows(2).all(|b| b[0] <= b[1]),
                    "seed {seed}: billing fell as the end grew: {ends:?} -> {billed:?}"
                );
            }
            done.extend(c.run_until_idle());
            let mut ids: Vec<u64> = done.iter().map(|d| d.id.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..submitted).collect::<Vec<_>>(), "seed {seed}");
        }
    }
}
