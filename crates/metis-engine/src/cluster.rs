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
//! accounting never shift under the caller. Those rules — lifecycle,
//! routing, billing — live in the [`fleet`](crate::fleet) ledger, which the
//! cluster feeds with direct reads of its engines; the cluster itself adds
//! only what needs the engines in one place: stepping and migration.
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

use metis_llm::{secs_to_nanos, Nanos};

use crate::engine::{Completion, Engine};
use crate::fleet::{Fleet, Load, RouterPolicy};
use crate::request::{LlmRequest, ReplicaId};
use crate::stats::EngineStats;

/// Effective bandwidth of a cross-replica KV transfer, in bytes per second
/// of virtual time: NVLink-class interconnects move hundreds of GB/s, but a
/// replica-to-replica move crosses host links (PCIe 4.0 x16 ≈ 32 GB/s peak)
/// and pays serialization overheads, so 25 GB/s is the planning number a
/// migration is priced at.
const MIGRATION_BW_BYTES_PER_SEC: f64 = 25e9;

/// Engine replicas behind a router, with runtime add/drain.
pub struct Cluster {
    /// The replicas, indexed by replica id (retired ones included).
    engines: Vec<Engine>,
    /// Lifecycle, routing and billing of the slots `engines` fills.
    fleet: Fleet,
}

impl Cluster {
    /// Builds a cluster from pre-constructed replicas; replica ids are
    /// assigned by position. The initial fleet starts active
    /// (warm-up applies to replicas added later via [`Self::add_replica`]).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(mut replicas: Vec<Engine>, router: RouterPolicy) -> Self {
        for (i, engine) in replicas.iter_mut().enumerate() {
            engine.set_replica(ReplicaId(i as u32));
        }
        Self {
            fleet: Fleet::new(replicas.len(), router),
            engines: replicas,
        }
    }

    /// Number of replica slots ever created (including retired ones —
    /// replica ids are stable slot indices).
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Always false: a cluster holds at least one replica.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The routing policy in use.
    pub fn router(&self) -> RouterPolicy {
        self.fleet.router()
    }

    /// Shared view of one replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replica(&self, id: ReplicaId) -> &Engine {
        &self.engines[id.0 as usize]
    }

    /// Iterates over the replicas in id order (retired slots included).
    pub fn replicas(&self) -> impl Iterator<Item = &Engine> {
        self.engines.iter()
    }

    /// The ledger behind the lifecycle, routing and billing methods.
    pub(crate) fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Whether `id` currently accepts routed work at `now`.
    pub fn is_routable(&self, id: ReplicaId, now: Nanos) -> bool {
        self.fleet.is_routable(id, now)
    }

    /// Number of replicas accepting routed work at `now`.
    pub fn active_len(&self, now: Nanos) -> usize {
        self.fleet.active_len(now)
    }

    /// Adds a replica slot at virtual time `now`. With a non-zero `warmup`
    /// the slot accepts routed work only from `now + warmup` (its clock is
    /// advanced there, so any work force-submitted earlier also waits out
    /// the warm-up). Returns the new replica's stable id.
    pub fn add_replica(&mut self, mut engine: Engine, now: Nanos, warmup: Nanos) -> ReplicaId {
        let (id, ready) = self.fleet.add(now, warmup);
        engine.set_replica(id);
        engine.advance_clock_to(ready);
        self.engines.push(engine);
        id
    }

    /// Begins draining `id` at `now`: routing stops immediately, in-flight
    /// work finishes (or migrates with its group's follow-ons), and the
    /// slot retires once idle. Returns `false` without draining when `id`
    /// is the last routable replica — a cluster never drains itself to
    /// zero capacity.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn drain_replica(&mut self, id: ReplicaId, now: Nanos) -> bool {
        self.fleet.drain(id, now, |i| Load::of(&self.engines[i]))
    }

    /// Picks the replica the next query's calls should be submitted to
    /// (see [`RouterPolicy`]): lifecycle transitions due at `now` are
    /// applied first, then the replicas routable at `now` are ranked. One
    /// route call per query — all of a query's calls (maps and the reduce)
    /// stay on one replica so gang scheduling keeps working.
    pub fn route(&mut self, now: Nanos) -> ReplicaId {
        self.fleet.route(now, |i| Load::of(&self.engines[i]))
    }

    /// Submits a request to the given replica. A retired slot re-enters
    /// draining: a gang group's reduce may chase its maps onto a replica
    /// that went idle in between, and it must still be served exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn submit(&mut self, id: ReplicaId, req: LlmRequest) {
        self.fleet.on_submit(id);
        self.engines[id.0 as usize].submit(req);
    }

    /// Free KV tokens on one replica — what METIS's per-backend best-fit
    /// inspects at decision time.
    pub fn free_kv_tokens(&self, id: ReplicaId) -> u64 {
        self.replica(id).free_kv_tokens()
    }

    /// Requests waiting for admission across live replicas — the
    /// autoscaler's primary load signal.
    pub fn queue_depth(&self) -> u64 {
        self.fleet.queue_depth(|i| Load::of(&self.engines[i]))
    }

    /// Whether every replica is fully drained.
    pub fn is_idle(&self) -> bool {
        self.engines.iter().all(Engine::is_idle)
    }

    /// Latest virtual instant any replica has reached — the cluster-wide
    /// end-of-run time replica-seconds are billed to.
    pub fn latest_now(&self) -> Nanos {
        self.engines.iter().map(Engine::now).max().unwrap_or(0)
    }

    /// Per-replica run statistics, in replica-id order.
    pub fn stats(&self) -> Vec<&EngineStats> {
        self.engines.iter().map(Engine::stats).collect()
    }

    /// The most-lagging replica that still has work to do before virtual
    /// time `t` — the replica the driver should step next to advance the
    /// whole cluster to `t`. `None` when every replica has caught up.
    pub fn steppable_before(&self, t: Nanos) -> Option<ReplicaId> {
        self.engines
            .iter()
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
        self.engines
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_idle())
            .min_by_key(|(i, e)| (e.now(), *i))
            .map(|(i, _)| ReplicaId(i as u32))
    }

    /// Advances one replica by one engine iteration; completions carry the
    /// replica id. Migration-evicted victims the iteration produced are
    /// placed before returning (see [`Self::place_evicted`]), and lifecycle
    /// transitions that became due are applied.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the iteration made no progress
    /// (see [`Engine::assert_progressed`]).
    pub fn step_replica(&mut self, id: ReplicaId) -> Vec<Completion> {
        let i = id.0 as usize;
        let before = self.engines[i].now();
        let done = self.engines[i].step();
        if self.engines[i].evicted_len() > 0 {
            self.place_evicted(id);
        }
        self.engines[i].assert_progressed(before, done.len());
        self.fleet
            .reap(self.engines[i].now(), |r| Load::of(&self.engines[r]));
        done
    }

    /// Places every migration-evicted victim from `source`'s outbox: each
    /// goes to the non-draining replica with the most free KV bytes that
    /// fits its whole demand (headroom), excluding the source itself,
    /// paying a transfer delay of `kv_bytes / MIGRATION_BW_BYTES_PER_SEC`.
    /// With zero headroom everywhere the victim falls back to recompute on
    /// the source — the same outcome plain recompute-preemption would have
    /// had, charged the same way.
    pub fn place_evicted(&mut self, source: ReplicaId) {
        let src = source.0 as usize;
        let evicted = self.engines[src].take_evicted();
        let bytes_per_token = self.engines[src]
            .latency_model()
            .model()
            .kv_bytes_per_token();
        for seq in evicted {
            let demand = seq.migrate_req.kv_demand_tokens();
            let dest = self
                .engines
                .iter()
                .enumerate()
                .filter(|(i, e)| {
                    *i != src && self.fleet.takes_migrants(*i) && e.free_kv_tokens() >= demand
                })
                .max_by_key(|(i, e)| (e.free_kv_bytes(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i);
            match dest {
                Some(d) => {
                    let kv_bytes = seq.kv_tokens.saturating_mul(bytes_per_token);
                    let transfer = secs_to_nanos(kv_bytes as f64 / MIGRATION_BW_BYTES_PER_SEC);
                    let ready_at = seq.evicted_at.saturating_add(transfer);
                    self.engines[src].record_migration(seq.kv_tokens);
                    self.engines[d].submit_in_transit(seq.migrate_req, ready_at);
                }
                None => self.engines[src].requeue_recompute(seq),
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
    use crate::fleet::ReplicaState;
    use crate::request::{GroupId, Priority, RequestId, Stage};
    use metis_llm::{GpuCluster, LatencyModel, ModelSpec};

    fn cluster(n: usize, router: RouterPolicy) -> Cluster {
        Cluster::new((0..n).map(|_| engine()).collect(), router)
    }

    fn engine() -> Engine {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        Engine::new(lat, EngineConfig::default())
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

    #[test]
    fn least_kv_prefers_the_roomiest_replica() {
        // The ledger ranks what the engines report: load replica 0 and
        // admit the work so its free KV drops.
        let mut c = cluster(2, RouterPolicy::LeastKvLoad);
        c.submit(ReplicaId(0), req(1, 1, 50_000, 500, 0));
        c.step_replica(ReplicaId(0));
        let free = |id| c.replica(id).free_kv_bytes();
        assert!(free(ReplicaId(0)) < free(ReplicaId(1)));
        assert_eq!(c.route(0), ReplicaId(1));
    }

    #[test]
    fn completions_carry_their_replica_id() {
        let mut c = cluster(2, RouterPolicy::RoundRobin);
        for i in 0..4u64 {
            let rid = c.route(0);
            c.submit(rid, req(i, i, 2_000, 10, 0));
        }
        let done = c.run_until_idle();
        assert_eq!(done.len(), 4);
        let mut by_replica = [0usize; 2];
        for d in &done {
            by_replica[d.replica.0 as usize] += 1;
        }
        assert_eq!(by_replica, [2, 2], "round robin splits work evenly");
        assert!(c.is_idle());
    }

    #[test]
    fn replicas_run_independent_clocks() {
        let mut c = cluster(2, RouterPolicy::RoundRobin);
        // Only replica 1 gets (late-arriving) work; replica 0 stays at 0.
        c.submit(ReplicaId(1), req(1, 1, 2_000, 10, 5_000_000_000));
        let done = c.run_until_idle();
        assert_eq!(done.len(), 1);
        assert!(done[0].finish > 5_000_000_000);
        assert_eq!(c.replica(ReplicaId(0)).now(), 0);
        assert!(c.replica(ReplicaId(1)).now() > 0);
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
    fn per_replica_preemption_stats_roll_up() {
        // Replica 0 is forced into one preemption (small KV pool, batch
        // work evicted by an interactive arrival); replica 1 stays quiet.
        let lat = || LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let bytes = 4_096 * lat().model().kv_bytes_per_token();
        let config = EngineConfig {
            policy: SchedPolicy::Preemptive,
            kv_pool_bytes_cap: Some(bytes),
            ..EngineConfig::default()
        };
        let engines = vec![Engine::new(lat(), config), Engine::new(lat(), config)];
        let mut c = Cluster::new(engines, RouterPolicy::RoundRobin);
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Batch,
                ..req(1, 1, 3_000, 400, 0)
            },
        );
        c.step_replica(ReplicaId(0));
        let t = c.replica(ReplicaId(0)).now();
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Interactive,
                ..req(2, 2, 2_000, 20, t)
            },
        );
        let done = c.run_until_idle();
        assert_eq!(done.len(), 2);
        let stats = c.stats();
        assert_eq!(stats[0].preemptions, 1);
        assert_eq!(stats[1].preemptions, 0);
        assert!(stats[0].preemption_pressure() > 0.0);
    }

    #[test]
    fn added_replica_starts_its_clock_at_its_ready_time() {
        // The ledger decides *when* the slot takes routes; the cluster makes
        // the warm-up physical by starting the engine's clock there, so
        // work force-submitted earlier cannot begin before `until` either.
        let mut c = cluster(1, RouterPolicy::RoundRobin);
        let id = c.add_replica(engine(), 1_000, 500);
        assert_eq!(id, ReplicaId(1));
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.fleet.state(id, 1_200),
            ReplicaState::WarmingUp { until: 1_500 }
        );
        assert_eq!(c.replica(id).now(), 1_500);
    }

    #[test]
    fn retired_slot_still_serves_a_late_gang_reduce_exactly_once() {
        let mut c = cluster(2, RouterPolicy::RoundRobin);
        c.submit(ReplicaId(1), req(1, 7, 2_000, 10, 0));
        assert!(c.drain_replica(ReplicaId(1), 0));
        let done = c.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(
            c.fleet.state(ReplicaId(1), c.latest_now()),
            ReplicaState::Retired
        );
        // The group's reduce chases its maps onto the retired slot (the
        // runner pins a gang group to one replica).
        let t = done[0].finish;
        c.submit(
            ReplicaId(1),
            LlmRequest {
                stage: Stage::Reduce,
                ..req(2, 7, 1_000, 5, t)
            },
        );
        assert_eq!(
            c.fleet.state(ReplicaId(1), t),
            ReplicaState::Draining,
            "a late submission re-opens the slot until served"
        );
        let done = c.run_until_idle();
        assert_eq!(done.len(), 1, "the reduce completes exactly once");
        assert_eq!(
            c.fleet.state(ReplicaId(1), c.latest_now()),
            ReplicaState::Retired
        );
    }

    /// Builds a preemptive 2-replica cluster with a KV pool small enough
    /// that an interactive arrival must evict batch work.
    fn tight_cluster(mode: PreemptMode) -> Cluster {
        let lat = || LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let bytes = 4_096 * lat().model().kv_bytes_per_token();
        let config = EngineConfig {
            policy: SchedPolicy::Preemptive,
            kv_pool_bytes_cap: Some(bytes),
            preempt_mode: mode,
            ..EngineConfig::default()
        };
        let engines = vec![Engine::new(lat(), config), Engine::new(lat(), config)];
        Cluster::new(engines, RouterPolicy::RoundRobin)
    }

    #[test]
    fn migration_moves_the_victim_instead_of_recomputing() {
        let mut c = tight_cluster(PreemptMode::Migrate);
        // A long batch decode occupies replica 0.
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Batch,
                ..req(1, 1, 3_000, 400, 0)
            },
        );
        c.step_replica(ReplicaId(0));
        let t = c.replica(ReplicaId(0)).now();
        // An interactive arrival forces an eviction; replica 1 has room.
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Interactive,
                ..req(2, 2, 2_000, 20, t)
            },
        );
        let done = c.run_until_idle();
        assert_eq!(done.len(), 2, "both requests complete exactly once");
        let stats = c.stats();
        assert_eq!(stats[0].preemptions, 1);
        assert_eq!(stats[0].migrations, 1);
        assert!(stats[0].migrated_tokens > 0);
        assert_eq!(stats[0].preempted_tokens, 0, "nothing recomputed");
        // The victim finished on replica 1, with its original arrival.
        let victim = done.iter().find(|d| d.id == RequestId(1)).unwrap();
        assert_eq!(victim.replica, ReplicaId(1));
        assert_eq!(victim.arrival, 0);
        assert!(victim.admitted >= t, "re-admitted after the transfer");
    }

    #[test]
    fn migration_with_zero_headroom_falls_back_to_recompute() {
        // Single replica: there is never a migration destination.
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let bytes = 4_096 * lat.model().kv_bytes_per_token();
        let config = EngineConfig {
            policy: SchedPolicy::Preemptive,
            kv_pool_bytes_cap: Some(bytes),
            preempt_mode: PreemptMode::Migrate,
            ..EngineConfig::default()
        };
        let mut c = Cluster::new(vec![Engine::new(lat, config)], RouterPolicy::RoundRobin);
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Batch,
                ..req(1, 1, 3_000, 400, 0)
            },
        );
        c.step_replica(ReplicaId(0));
        let t = c.replica(ReplicaId(0)).now();
        c.submit(
            ReplicaId(0),
            LlmRequest {
                priority: Priority::Interactive,
                ..req(2, 2, 2_000, 20, t)
            },
        );
        let done = c.run_until_idle();
        assert_eq!(done.len(), 2, "fallback still completes everything");
        let stats = c.stats();
        assert_eq!(stats[0].preemptions, 1);
        assert_eq!(stats[0].migrations, 0, "nowhere to migrate");
        assert!(
            stats[0].preempted_tokens > 0,
            "zero headroom falls back to recompute losses"
        );
    }

    /// Token conservation: across the cluster, prefill tokens computed
    /// equal the uncached prompt demand plus recompute losses, and decode
    /// tokens equal the output demand plus recompute losses — under both
    /// preemption modes. No token is lost or double-counted by migration.
    #[test]
    fn preemption_conserves_tokens_under_both_modes() {
        for mode in [PreemptMode::Recompute, PreemptMode::Migrate] {
            let mut c = tight_cluster(mode);
            let mut demand_prompt = 0u64;
            let mut demand_output = 0u64;
            // Fill replica 0 with batch work, then hit it with interactive
            // arrivals so preemption fires repeatedly.
            for i in 0..3u64 {
                let r = LlmRequest {
                    priority: Priority::Batch,
                    ..req(i, i, 1_200, 300, 0)
                };
                demand_prompt += r.prompt_tokens;
                demand_output += r.output_tokens;
                c.submit(ReplicaId(0), r);
            }
            c.step_replica(ReplicaId(0));
            c.step_replica(ReplicaId(0));
            let t = c.replica(ReplicaId(0)).now();
            for i in 10..13u64 {
                let r = LlmRequest {
                    priority: Priority::Interactive,
                    ..req(i, i, 1_000, 20, t)
                };
                demand_prompt += r.prompt_tokens;
                demand_output += r.output_tokens;
                c.submit(ReplicaId(0), r);
            }
            let done = c.run_until_idle();
            assert_eq!(done.len(), 6, "every request completes ({mode:?})");
            // Each request completed exactly once.
            let mut ids: Vec<u64> = done.iter().map(|d| d.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 6, "no double completions ({mode:?})");
            let stats = c.stats();
            let prefill: u64 = stats.iter().map(|s| s.prefill_tokens).sum();
            let decode: u64 = stats.iter().map(|s| s.decode_tokens).sum();
            let lost: u64 = stats.iter().map(|s| s.preempted_tokens).sum();
            let preemptions: u64 = stats.iter().map(|s| s.preemptions).sum();
            assert!(preemptions > 0, "the contention must trigger eviction");
            assert_eq!(
                prefill + decode,
                demand_prompt + demand_output + lost,
                "token conservation violated under {mode:?}: computed \
                 prefill {prefill} + decode {decode} != demand \
                 {demand_prompt}+{demand_output} + recompute losses {lost}"
            );
            if mode == PreemptMode::Migrate {
                let migrations: u64 = stats.iter().map(|s| s.migrations).sum();
                // With a roomy second replica every eviction migrates, so
                // nothing is recomputed at all.
                assert!(migrations > 0, "evictions must migrate");
                assert_eq!(lost, 0, "migration loses no computed tokens");
            }
        }
    }
}
