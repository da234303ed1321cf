//! The fleet ledger: which replica slots exist, which of them take new
//! work, and what they have cost.
//!
//! Every controller decision reads this state — METIS sizes a query's
//! configuration against the routed replica's free memory *at decision
//! time* — so it is kept exactly once. A `Fleet` holds each slot's
//! lifecycle (`WarmingUp → Active → Draining → Retired`, un-retired by a
//! late gang reduce), ranks slots for the [`RouterPolicy`], refuses to drain
//! the last routable slot, and integrates replica-seconds. It owns no
//! engines: [`Cluster`](crate::cluster::Cluster) passes each method a
//! per-replica `Load` view read from its engines, and the tests pass plain
//! tables.

use metis_llm::{nanos_to_secs, Nanos};

use crate::engine::Engine;
use crate::request::ReplicaId;

/// How the fleet picks a replica for new work.
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
    /// fleet itself cannot see the caches (they live with the runner,
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
pub(crate) enum ReplicaState {
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

/// One replica's load as the ledger needs it, read at the moment of a
/// decision.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Load {
    /// Free KV-cache bytes — what `LeastKvLoad` ranks.
    pub free_kv_bytes: u64,
    /// Requests waiting for admission.
    pub queued: u64,
    /// Whether the replica has no work at all, in flight to it included.
    pub idle: bool,
    /// The latest virtual instant the replica's own clock has reached.
    pub now: Nanos,
}

impl Load {
    /// The load of an engine the caller can read directly.
    pub(crate) fn of(engine: &Engine) -> Self {
        Self {
            free_kv_bytes: engine.free_kv_bytes(),
            queued: engine.queued_len() as u64,
            idle: engine.is_idle(),
            now: engine.now(),
        }
    }
}

struct Slot {
    state: ReplicaState,
    /// When the slot began costing replica-seconds.
    spawned_at: Nanos,
    /// When the slot stopped costing replica-seconds (set at retirement).
    retired_at: Option<Nanos>,
}

/// Slot lifecycle, routing and billing for one set of replicas. Replica ids
/// are stable slot indices: a retired slot keeps its id.
pub(crate) struct Fleet {
    slots: Vec<Slot>,
    router: RouterPolicy,
    rr_next: usize,
    /// High-water mark of concurrently live (non-retired) slots.
    peak_live: usize,
}

impl Fleet {
    /// A fleet of `replicas` slots, all [`ReplicaState::Active`] and billed
    /// from time 0 (warm-up applies to slots added later via [`Self::add`]).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0.
    pub(crate) fn new(replicas: usize, router: RouterPolicy) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        let slots = (0..replicas)
            .map(|_| Slot {
                state: ReplicaState::Active,
                spawned_at: 0,
                retired_at: None,
            })
            .collect();
        Self {
            slots,
            router,
            rr_next: 0,
            peak_live: replicas,
        }
    }

    /// Number of slots ever created, retired ones included.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The routing policy in use.
    pub(crate) fn router(&self) -> RouterPolicy {
        self.router
    }

    /// One slot's lifecycle state (warm-up promotion is evaluated against
    /// `now`).
    pub(crate) fn state(&self, id: ReplicaId, now: Nanos) -> ReplicaState {
        match self.slots[id.0 as usize].state {
            ReplicaState::WarmingUp { until } if now >= until => ReplicaState::Active,
            s => s,
        }
    }

    /// Whether `id` accepts routed work at `now`.
    pub(crate) fn is_routable(&self, id: ReplicaId, now: Nanos) -> bool {
        matches!(self.state(id, now), ReplicaState::Active)
    }

    /// Number of slots accepting routed work at `now`.
    pub(crate) fn active_len(&self, now: Nanos) -> usize {
        (0..self.slots.len())
            .filter(|&i| self.is_routable(ReplicaId(i as u32), now))
            .count()
    }

    /// Whether slot `i` is live: active, warming or draining.
    pub(crate) fn is_live(&self, i: usize) -> bool {
        self.slots[i].retired_at.is_none()
    }

    /// Number of live slots.
    pub(crate) fn live_len(&self) -> usize {
        (0..self.slots.len()).filter(|&i| self.is_live(i)).count()
    }

    /// High-water mark of concurrently live slots.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Whether slot `i` may be handed work it was not routed (a migrated
    /// victim): it is active or warming, not draining or retired.
    pub(crate) fn takes_migrants(&self, i: usize) -> bool {
        matches!(
            self.slots[i].state,
            ReplicaState::Active | ReplicaState::WarmingUp { .. }
        )
    }

    /// Adds a slot at `now`, billed from `now`. Returns its stable id and
    /// the instant it starts accepting routed work (`now + warmup`); the
    /// caller starts the replica's own clock there so the warm-up is real.
    pub(crate) fn add(&mut self, now: Nanos, warmup: Nanos) -> (ReplicaId, Nanos) {
        let ready = now.saturating_add(warmup);
        self.slots.push(Slot {
            state: if warmup == 0 {
                ReplicaState::Active
            } else {
                ReplicaState::WarmingUp { until: ready }
            },
            spawned_at: now,
            retired_at: None,
        });
        self.peak_live = self.peak_live.max(self.live_len());
        (ReplicaId(self.slots.len() as u32 - 1), ready)
    }

    /// Begins draining `id` at `now`: routing stops immediately and the
    /// slot retires once idle. Returns `false` without draining when `id`
    /// is the last routable slot — a fleet never drains itself to zero
    /// capacity — or is already retired.
    pub(crate) fn drain(
        &mut self,
        id: ReplicaId,
        now: Nanos,
        load: impl Fn(usize) -> Load,
    ) -> bool {
        if self.is_routable(id, now) && self.active_len(now) <= 1 {
            return false;
        }
        let slot = &mut self.slots[id.0 as usize];
        if matches!(slot.state, ReplicaState::Retired) {
            return false;
        }
        slot.state = ReplicaState::Draining;
        self.reap(now, load);
        true
    }

    /// Promotes warmed-up slots and retires drained-idle ones.
    pub(crate) fn reap(&mut self, now: Nanos, load: impl Fn(usize) -> Load) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot.state {
                ReplicaState::WarmingUp { until } if now >= until => {
                    slot.state = ReplicaState::Active;
                }
                ReplicaState::Draining => {
                    let load = load(i);
                    if load.idle {
                        slot.state = ReplicaState::Retired;
                        // The instant its last work finished (its own
                        // clock), never before it was spawned.
                        slot.retired_at = Some(load.now.max(slot.spawned_at));
                    }
                }
                _ => {}
            }
        }
    }

    /// Picks the replica the next query's calls should be submitted to,
    /// after applying the lifecycle transitions due at `now`. One route
    /// call per query: all of a query's calls (maps and the reduce) stay on
    /// one replica so gang scheduling keeps working. Only slots routable at
    /// `now` are ranked, and there always is one: the initial fleet is
    /// active, and [`Self::drain`] takes a routable slot out only when
    /// another is routable at that instant — which its own reap then
    /// promotes for good.
    pub(crate) fn route(&mut self, now: Nanos, load: impl Fn(usize) -> Load) -> ReplicaId {
        self.reap(now, &load);
        let mut routable =
            (0..self.slots.len()).filter(|&i| self.is_routable(ReplicaId(i as u32), now));
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
                routable.max_by_key(|&i| (load(i).free_kv_bytes, std::cmp::Reverse(i)))
            }
        }
        .expect("no routable replica");
        ReplicaId(picked as u32)
    }

    /// Records a submission to `id`. A retired slot re-enters draining: a
    /// gang group's reduce may chase its maps onto a replica that went idle
    /// in between, and it must still be served exactly once.
    pub(crate) fn on_submit(&mut self, id: ReplicaId) {
        let slot = &mut self.slots[id.0 as usize];
        if matches!(slot.state, ReplicaState::Retired) {
            slot.state = ReplicaState::Draining;
            slot.retired_at = None;
        }
    }

    /// Requests waiting for admission across live slots — the autoscaler's
    /// primary load signal.
    pub(crate) fn queue_depth(&self, load: impl Fn(usize) -> Load) -> u64 {
        (0..self.slots.len())
            .filter(|&i| self.is_live(i))
            .map(|i| load(i).queued)
            .sum()
    }

    /// Integrated capacity cost in replica-seconds up to virtual time
    /// `end`: each slot is billed from spawn until retirement (or `end`
    /// while live). Warm-up time is billed — the GPU is held from spawn.
    pub(crate) fn replica_seconds(&self, end: Nanos) -> f64 {
        self.slots
            .iter()
            .map(|s| {
                let until = s.retired_at.unwrap_or(end).max(s.spawned_at);
                nanos_to_secs(until - s.spawned_at)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain table of fake loads, one row per replica — no engines.
    fn table(rows: &[Load]) -> impl Fn(usize) -> Load + '_ {
        |i| rows[i]
    }

    fn row(free_kv_bytes: u64, queued: u64, idle: bool, now: Nanos) -> Load {
        Load {
            free_kv_bytes,
            queued,
            idle,
            now,
        }
    }

    /// `n` idle replicas with equal free KV, clocks at 0.
    fn idle(n: usize) -> Vec<Load> {
        vec![row(1_000, 0, true, 0); n]
    }

    #[test]
    fn round_robin_cycles_the_routable_slots() {
        let mut f = Fleet::new(3, RouterPolicy::RoundRobin);
        let loads = idle(3);
        let picks: Vec<u32> = (0..6).map(|_| f.route(0, table(&loads)).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn kv_policies_rank_free_bytes_and_break_ties_on_the_lowest_id() {
        for policy in [RouterPolicy::LeastKvLoad, RouterPolicy::PrefixAware] {
            let mut f = Fleet::new(3, policy);
            assert_eq!(f.route(0, table(&idle(3))), ReplicaId(0), "{policy:?}");
            let loads = [
                row(10, 0, false, 0),
                row(30, 0, false, 0),
                row(30, 0, false, 0),
            ];
            assert_eq!(f.route(0, table(&loads)), ReplicaId(1), "{policy:?}");
        }
    }

    #[test]
    fn a_warming_slot_takes_routes_from_exactly_its_ready_time() {
        let mut f = Fleet::new(1, RouterPolicy::RoundRobin);
        let loads = idle(2);
        let (id, ready) = f.add(1_000, 500);
        assert_eq!((id, ready), (ReplicaId(1), 1_500));
        assert_eq!(f.state(id, 1_499), ReplicaState::WarmingUp { until: 1_500 });
        assert!(!f.is_routable(id, 1_499));
        // While warming, every route lands on the active slot.
        assert_eq!(f.route(1_499, table(&loads)), ReplicaId(0));
        assert_eq!(f.route(1_499, table(&loads)), ReplicaId(0));
        // Promotion happens at `now == until`, not one tick later.
        assert_eq!(f.state(id, 1_500), ReplicaState::Active);
        assert_eq!(f.active_len(1_500), 2);
        let picks: Vec<u32> = (0..2).map(|_| f.route(1_500, table(&loads)).0).collect();
        assert!(picks.contains(&1), "warmed slot joins routing: {picks:?}");
        // No warm-up: routable from the spawn instant.
        let (cold, ready) = f.add(2_000, 0);
        assert_eq!(ready, 2_000);
        assert!(f.is_routable(cold, 2_000));
    }

    #[test]
    fn some_slot_is_always_routable() {
        // The closest the fleet gets to "every slot warming or draining":
        // slot 1 retired, slot 0 drained the instant slot 2 became warm,
        // and a decision stamped just before that instant. The drain's own
        // reap has already promoted slot 2 for good, so routing needs no
        // fallback to non-routable slots.
        let mut f = Fleet::new(2, RouterPolicy::LeastKvLoad);
        let loads = [
            row(10, 2, false, 0),
            row(90, 0, true, 0),
            row(50, 0, true, 1_000),
        ];
        assert!(f.drain(ReplicaId(1), 0, table(&loads)));
        let (warming, ready) = f.add(0, 1_000);
        assert!(!f.drain(ReplicaId(0), ready - 1, table(&loads)), "last one");
        assert!(f.drain(ReplicaId(0), ready, table(&loads)));
        assert_eq!(f.live_len(), 2, "slot 1 was idle and retired");
        assert_eq!(f.active_len(ready - 1), 1);
        assert_eq!(f.route(ready - 1, table(&loads)), warming);
    }

    #[test]
    fn the_last_routable_slot_refuses_to_drain() {
        let mut f = Fleet::new(2, RouterPolicy::RoundRobin);
        let loads = [row(1, 0, false, 0), row(1, 0, false, 0)];
        assert!(f.drain(ReplicaId(0), 0, table(&loads)));
        assert!(
            !f.drain(ReplicaId(1), 0, table(&loads)),
            "never drain to zero"
        );
        assert_eq!(f.active_len(0), 1);
        // Draining stopped routing at once; re-draining a draining slot is
        // an accepted no-op.
        assert_eq!(f.state(ReplicaId(0), 0), ReplicaState::Draining);
        assert_eq!(f.route(0, table(&loads)), ReplicaId(1));
        assert!(f.drain(ReplicaId(0), 0, table(&loads)));
    }

    #[test]
    fn a_drained_slot_retires_when_idle_and_a_late_submit_reopens_it() {
        let mut f = Fleet::new(2, RouterPolicy::RoundRobin);
        let mut loads = vec![row(1, 0, true, 0), row(1, 3, false, 40)];
        assert!(f.drain(ReplicaId(1), 50, table(&loads)));
        assert_eq!(f.state(ReplicaId(1), 50), ReplicaState::Draining);
        // Live and counted — in queue depth and in the peak — while it
        // still holds work.
        assert_eq!(f.queue_depth(table(&loads)), 3);
        assert_eq!((f.live_len(), f.peak_live()), (2, 2));
        // Its last work finishes at 90 on its own clock.
        loads[1] = row(1, 0, true, 90);
        f.reap(95, table(&loads));
        assert_eq!(f.state(ReplicaId(1), 95), ReplicaState::Retired);
        assert_eq!(f.live_len(), 1);
        assert!(!f.drain(ReplicaId(1), 95, table(&loads)), "already retired");
        // Billed to the instant it went idle, not to the reap or the end.
        assert_eq!(f.replica_seconds(1_000), nanos_to_secs(1_000 + 90));
        // A gang's reduce chases its maps onto the retired slot.
        f.on_submit(ReplicaId(1));
        loads[1] = row(1, 1, false, 90);
        assert_eq!(f.state(ReplicaId(1), 95), ReplicaState::Draining);
        assert_eq!(f.queue_depth(table(&loads)), 1);
        assert_eq!(f.replica_seconds(1_000), nanos_to_secs(2_000));
        // Served at 130: retired again, billed through the late work.
        loads[1] = row(1, 0, true, 130);
        f.reap(130, table(&loads));
        assert_eq!(f.state(ReplicaId(1), 130), ReplicaState::Retired);
        assert_eq!(f.replica_seconds(1_000), nanos_to_secs(1_000 + 130));
    }

    #[test]
    fn replica_seconds_bill_spawn_to_retirement_with_warm_up() {
        let mut f = Fleet::new(1, RouterPolicy::RoundRobin);
        let s = 1_000_000_000;
        // Spawned at 2 s with 1 s of warm-up; its clock starts at 3 s.
        let (id, ready) = f.add(2 * s, s);
        let mut loads = vec![row(1, 0, true, 0), row(1, 0, true, ready)];
        assert_eq!(f.peak_live(), 2);
        // Live: slot 0 bills the whole 10 s, slot 1 from its spawn.
        assert_eq!(f.replica_seconds(10 * s), 10.0 + 8.0);
        // Drained while still warming and idle: the warm-up is billed.
        assert!(f.drain(id, 2 * s + 1, table(&loads)));
        assert_eq!(f.state(id, 2 * s + 1), ReplicaState::Retired);
        assert_eq!(f.replica_seconds(10 * s), 10.0 + 1.0);
        // A slot whose clock lags its spawn never bills negative time.
        let (lagging, _) = f.add(5 * s, 0);
        loads.push(row(1, 0, true, 4 * s));
        assert!(f.drain(lagging, 5 * s, table(&loads)));
        assert_eq!(f.replica_seconds(10 * s), 10.0 + 1.0 + 0.0);
        assert_eq!((f.len(), f.live_len(), f.peak_live()), (3, 1, 2));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn an_empty_fleet_is_rejected() {
        let _ = Fleet::new(0, RouterPolicy::RoundRobin);
    }
}
