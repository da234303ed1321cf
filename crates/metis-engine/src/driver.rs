//! The `Driver` abstraction: who executes submitted work, and on whose time.
//!
//! The runner in `metis-core` schedules Profile → Decide → Retrieve →
//! Submit events on a virtual timeline and needs four things from the
//! serving substrate: route new work to a replica, submit requests, collect
//! completions, and know when everything has drained. [`Driver`] is exactly
//! that surface, plus growing and draining the fleet; everything the runner
//! reads about the replicas it reads from the [`Cluster`] itself
//! ([`SimDriver::cluster`]). One implementation exists, [`SimDriver`]: it wraps a
//! [`Cluster`] and advances it with most-lagging-replica discrete-event
//! stepping, deterministic and bit-for-bit reproducible (the root pin test
//! `sim_driver_reproduces_the_golden_report_byte_for_byte`, in
//! `tests/pins/main.rs`, holds a two-replica run's report to a golden file).
//!
//! Realtime serving is the same driver paced by a scaled [`WallClock`]. The
//! engines are analytic, so the wall adds no work, only waiting: before a
//! replica's iteration runs, the driver sleeps until the wall reaches the
//! instant the iteration starts; `pump_before(t)` returns `None` only once
//! the wall has reached `t`; and `finish` returns no earlier than the wall
//! reaches the last virtual instant. Stepping order, routing and every
//! timestamp are the simulator's, so a realtime run's virtual results equal
//! the sim run's byte for byte. What the host costs shows up as pacing
//! lateness (the wall running behind the virtual clock), never as virtual
//! delay.
//!
//! The pump interface is deliberately incremental: `pump_before`/`pump_idle`
//! return one batch of completions at a time so the caller can chain new
//! submissions (e.g. a reduce call) off each batch before the driver runs
//! any further — the ordering contract the simulator's determinism relies
//! on.

use metis_llm::{Nanos, WallClock};

use crate::cluster::{Cluster, RouterPolicy};
use crate::engine::{Completion, Engine};
use crate::request::{LlmRequest, ReplicaId};

/// How a run wants its work executed: `RunConfig` carries a `DriverSpec`,
/// and the runner builds the matching [`SimDriver`] over the run's engines.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DriverSpec {
    /// The deterministic simulator (the default).
    #[default]
    Sim,
    /// Live serving: the simulator paced so that virtual time passes
    /// `time_scale`× faster than wall time.
    Realtime {
        /// Virtual-per-wall speedup; must be finite and positive.
        time_scale: f64,
    },
}

impl DriverSpec {
    /// Short stable name, for CLI flags and report knobs.
    pub fn name(self) -> &'static str {
        match self {
            DriverSpec::Sim => "sim",
            DriverSpec::Realtime { .. } => "realtime",
        }
    }

    /// Builds the driver over pre-constructed engines (replica ids are
    /// assigned by position).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty, or for an invalid realtime time scale.
    pub fn build(self, engines: Vec<Engine>, router: RouterPolicy) -> SimDriver {
        SimDriver {
            cluster: Cluster::new(engines, router),
            wall: match self {
                DriverSpec::Sim => None,
                DriverSpec::Realtime { time_scale } => Some(WallClock::new(time_scale)),
            },
        }
    }
}

/// The serving substrate behind the runner's event loop: routing,
/// submission, and incremental completion collection.
///
/// ```
/// use metis_engine::{Cluster, Driver, Engine, EngineConfig, RouterPolicy, SimDriver};
/// use metis_llm::{GpuCluster, LatencyModel, ModelSpec};
///
/// let engine = || {
///     let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
///     Engine::new(lat, EngineConfig::default())
/// };
/// let mut driver = SimDriver::new(Cluster::new(vec![engine()], RouterPolicy::RoundRobin));
/// assert_eq!(driver.cluster().len(), 1);
///
/// // Elasticity: a replica added at t accepts routed work from t + warmup…
/// let id = driver.add_replica(engine(), 0, 1_000);
/// assert!(!driver.cluster().is_routable(id, 500));
/// assert!(driver.cluster().is_routable(id, 1_000));
/// assert_eq!(driver.cluster().active_len(1_000), 2);
///
/// // …and draining it stops routing immediately.
/// assert!(driver.drain_replica(id, 2_000));
/// assert!(!driver.cluster().is_routable(id, 2_000));
/// ```
pub trait Driver {
    /// Picks the replica the next query's calls should be submitted to.
    /// One route call per query — all of a query's calls stay on one
    /// replica so gang scheduling keeps working. `now` is the virtual
    /// decision time: replicas still warming up at `now`, draining, or
    /// retired are not routed to.
    fn route(&mut self, now: Nanos) -> ReplicaId;

    /// Adds a replica slot at virtual time `now`; it accepts routed work
    /// from `now + warmup`. Returns the new replica's stable id.
    fn add_replica(&mut self, engine: Engine, now: Nanos, warmup: Nanos) -> ReplicaId;

    /// Begins draining `id` at `now`: routing stops immediately; in-flight
    /// work (and follow-on calls of groups already placed there) still
    /// completes, and the slot is live — counted and billed — until it has.
    /// Returns `false` without draining when `id` is the last routable
    /// replica.
    fn drain_replica(&mut self, id: ReplicaId, now: Nanos) -> bool;

    /// Submits a request to the given replica.
    fn submit(&mut self, id: ReplicaId, req: LlmRequest);

    /// Makes progress toward virtual time `t` and returns one batch of
    /// completions (possibly empty while replicas advance without
    /// finishing anything). `None` means the driver has caught up: every
    /// completion that can exist before `t` has been returned, and the
    /// caller may now fire its `t`-stamped event. Under a wall clock,
    /// `None` also means the wall has actually reached `t` — this is where
    /// event pacing happens.
    fn pump_before(&mut self, t: Nanos) -> Option<Vec<Completion>>;

    /// Makes progress with no more external events outstanding. `None`
    /// means fully drained: every submitted request has completed and been
    /// returned. The caller must keep pumping (chaining any follow-up
    /// submissions) until `None`.
    fn pump_idle(&mut self) -> Option<Vec<Completion>>;

    /// Ends the run: under a wall clock, waits for the wall to reach the
    /// last virtual instant. The run's totals are the cluster's own.
    fn finish(&self);
}

/// The discrete-event driver: a [`Cluster`] advanced with
/// most-lagging-replica stepping, optionally paced by a wall clock.
pub struct SimDriver {
    cluster: Cluster,
    /// The realtime pacing clock; `None` runs as fast as the host can.
    wall: Option<WallClock>,
}

impl SimDriver {
    /// Wraps a cluster, unpaced.
    pub fn new(cluster: Cluster) -> Self {
        Self {
            cluster,
            wall: None,
        }
    }

    /// Shared view of the cluster: every replica's state, load and totals.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Under a wall clock, sleeps until the wall reaches virtual `t`.
    fn pace(&self, t: Nanos) {
        if let Some(wall) = &self.wall {
            wall.sleep_until(t);
        }
    }

    /// Runs one iteration of replica `id`, once the wall reaches the
    /// instant it starts: the replica's clock, or the arrival an idle
    /// replica jumps to.
    fn step(&mut self, id: ReplicaId) -> Vec<Completion> {
        if self.wall.is_some() {
            let e = self.cluster.replica(id);
            let start = match e.next_pending_arrival() {
                Some(arrival) if !e.has_active_work() => arrival.max(e.now()),
                _ => e.now(),
            };
            self.pace(start);
        }
        self.cluster.step_replica(id)
    }
}

impl Driver for SimDriver {
    fn route(&mut self, now: Nanos) -> ReplicaId {
        self.cluster.route(now)
    }

    fn add_replica(&mut self, engine: Engine, now: Nanos, warmup: Nanos) -> ReplicaId {
        self.cluster.add_replica(engine, now, warmup)
    }

    fn drain_replica(&mut self, id: ReplicaId, now: Nanos) -> bool {
        self.cluster.drain_replica(id, now)
    }

    fn submit(&mut self, id: ReplicaId, req: LlmRequest) {
        self.cluster.submit(id, req);
    }

    fn pump_before(&mut self, t: Nanos) -> Option<Vec<Completion>> {
        // Always step the most-lagging replica so cross-replica event
        // order stays deterministic.
        match self.cluster.steppable_before(t) {
            Some(rid) => Some(self.step(rid)),
            None => {
                self.pace(t);
                None
            }
        }
    }

    fn pump_idle(&mut self) -> Option<Vec<Completion>> {
        let rid = self.cluster.next_steppable()?;
        Some(self.step(rid))
    }

    fn finish(&self) {
        self.pace(self.cluster.latest_now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            prompt_tokens: 1_000,
            output_tokens: 10,
            cached_prompt_tokens: 0,
            arrival,
            priority: Priority::Standard,
        }
    }

    #[test]
    fn sim_driver_drains_to_none() {
        let mut d = DriverSpec::Sim.build(engines(2), RouterPolicy::RoundRobin);
        assert_eq!(d.cluster().len(), 2);
        for i in 0..4u64 {
            let rid = d.route(0);
            d.submit(rid, req(i, 0));
        }
        let mut done = Vec::new();
        while let Some(batch) = d.pump_idle() {
            done.extend(batch);
        }
        assert_eq!(done.len(), 4);
        d.finish();
        let stats = d.cluster().stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().map(|s| s.busy).sum::<Nanos>() > 0);
        assert!(stats.iter().all(|s| s.preemptions == 0));
    }

    #[test]
    fn pump_before_stops_at_the_event_horizon() {
        let mut d = SimDriver::new(Cluster::new(engines(1), RouterPolicy::RoundRobin));
        // Work arrives beyond t: nothing to do before the event fires.
        d.submit(ReplicaId(0), req(1, 5_000_000_000));
        assert!(d.pump_before(1_000_000_000).is_none());
        // Work before t is executed to completion, then None.
        let mut done = Vec::new();
        while let Some(batch) = d.pump_before(60_000_000_000) {
            done.extend(batch);
        }
        assert_eq!(done.len(), 1);
        assert!(done[0].arrival == 5_000_000_000);
    }

    #[test]
    fn a_paced_driver_returns_none_only_once_the_wall_reaches_t() {
        let mut d = DriverSpec::Realtime {
            time_scale: 100_000.0,
        }
        .build(engines(1), RouterPolicy::RoundRobin);
        let wall = |d: &SimDriver| d.wall.as_ref().map_or(0, |w| w.now());
        // No work in flight: 2 virtual s = 20 wall µs of arrival pacing.
        let t = wall(&d) + 2_000_000_000;
        assert!(d.pump_before(t).is_none());
        assert!(wall(&d) >= t, "pump_before waited out the gap");
        d.submit(ReplicaId(0), req(1, t));
        while d.pump_idle().is_some() {}
        d.finish();
        assert!(wall(&d) >= d.cluster().latest_now());
        assert!(d.cluster().replica(ReplicaId(0)).stats().busy > 0);
    }

    #[test]
    fn driver_specs_have_stable_names() {
        assert_eq!(DriverSpec::default(), DriverSpec::Sim);
        assert_eq!(DriverSpec::Sim.name(), "sim");
        let rt = DriverSpec::Realtime { time_scale: 250.0 };
        assert_eq!(rt.name(), "realtime");
    }
}
