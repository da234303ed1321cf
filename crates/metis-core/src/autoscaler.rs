//! Queue-driven fleet autoscaling with hysteresis.
//!
//! The paper's joint configuration/scheduling controller (§4.3) adapts
//! *within* a fixed fleet: it sizes each query's configuration against the
//! routed replica's free KV. This module adapts the fleet itself. An
//! [`Autoscaler`] is a pure policy evaluated on the run's event timeline
//! (under both the simulated and realtime drivers): every
//! `eval_interval_nanos` it reads two load signals — cluster queue depth
//! and the worst per-replica preemption pressure — and decides to add a
//! replica, drain one, or hold.
//!
//! Two mechanisms keep it from flapping:
//!
//! * **Hysteresis band** — scale-up triggers at
//!   `queue_depth >= scale_up_queue_depth`, scale-down only at
//!   `queue_depth <= scale_down_queue_depth`, with the up threshold
//!   strictly above the down threshold. Loads inside the band hold.
//! * **Cooldown** — after any scale action the policy holds for
//!   `cooldown_nanos`, long enough for the last action's effect (a warm-up,
//!   a drain) to show up in the signals it reads.
//!
//! The policy itself owns no fleet state; the runner applies its decisions
//! through [`Driver::add_replica`](metis_engine::Driver::add_replica) and
//! [`Driver::drain_replica`](metis_engine::Driver::drain_replica), and the
//! mutable evaluation state lives in a separate [`AutoscalerState`] so the
//! same policy value can parameterize many runs.

use metis_llm::Nanos;

/// What one evaluation decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleAction {
    /// Add one replica.
    Up,
    /// Drain one replica.
    Down,
    /// Do nothing this tick.
    Hold,
}

/// Mutable evaluation state: when the last scale action happened.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoscalerState {
    last_action_at: Option<Nanos>,
}

/// A queue-driven scale-up/down policy with hysteresis and cooldown.
///
/// # Examples
///
/// The policy is a plain value; [`evaluate`](Autoscaler::evaluate) is pure
/// given its state, so the hysteresis band is directly testable:
///
/// ```
/// use metis_core::{Autoscaler, AutoscalerState, ScaleAction};
///
/// let policy = Autoscaler::default();
/// let mut state = AutoscalerState::default();
/// // A deep queue on a small fleet scales up...
/// let depth = policy.scale_up_queue_depth;
/// assert_eq!(
///     policy.evaluate(0, 2, depth, 0.0, &mut state),
///     ScaleAction::Up
/// );
/// // ...and the cooldown holds the very next tick, even at the same depth.
/// assert_eq!(
///     policy.evaluate(1, 3, depth, 0.0, &mut state),
///     ScaleAction::Hold
/// );
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Autoscaler {
    /// Never drain below this many routable replicas.
    pub min_replicas: usize,
    /// Never grow beyond this many routable replicas.
    pub max_replicas: usize,
    /// Queue depth at or above which the fleet scales up.
    pub scale_up_queue_depth: u64,
    /// Queue depth at or below which the fleet may scale down (must be
    /// strictly below `scale_up_queue_depth` — the gap is the hysteresis
    /// band).
    pub scale_down_queue_depth: u64,
    /// Worst per-replica preemption pressure (preemptions per submission)
    /// at or above which the fleet scales up even with a shallow queue —
    /// KV thrashing is capacity starvation the queue depth can miss.
    pub scale_up_pressure: f64,
    /// How often the policy is evaluated on the run timeline.
    pub eval_interval_nanos: Nanos,
    /// Minimum time between scale actions.
    pub cooldown_nanos: Nanos,
    /// Warm-up charged to every replica this policy adds (its slot bills
    /// replica-seconds from spawn, but takes no routed work until warm).
    pub warmup_nanos: Nanos,
}

impl Default for Autoscaler {
    /// One to eight replicas; up at a queue of 8 (or preemption pressure
    /// 0.5), down at an empty queue; 1 s evaluation, 10 s cooldown, 5 s
    /// warm-up — roughly a vLLM-style engine start with weights already
    /// resident.
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 8,
            scale_up_queue_depth: 8,
            scale_down_queue_depth: 0,
            scale_up_pressure: 0.5,
            eval_interval_nanos: 1_000_000_000,
            cooldown_nanos: 10_000_000_000,
            warmup_nanos: 5_000_000_000,
        }
    }
}

impl Autoscaler {
    /// Decides the action for the tick at `now`, given `active` routable
    /// replicas, the cluster `queue_depth`, and the worst per-replica
    /// preemption `pressure`. Records `now` in `state` when (and only
    /// when) the decision is not [`ScaleAction::Hold`].
    ///
    /// # Panics
    ///
    /// Panics if the policy is malformed: zero `min_replicas`,
    /// `max_replicas < min_replicas`, or a hysteresis band of zero or
    /// negative width.
    pub fn evaluate(
        &self,
        now: Nanos,
        active: usize,
        queue_depth: u64,
        pressure: f64,
        state: &mut AutoscalerState,
    ) -> ScaleAction {
        assert!(self.min_replicas >= 1, "min_replicas must be at least 1");
        assert!(
            self.max_replicas >= self.min_replicas,
            "max_replicas must be >= min_replicas"
        );
        assert!(
            self.scale_up_queue_depth > self.scale_down_queue_depth,
            "the hysteresis band must have positive width \
             (scale_up_queue_depth > scale_down_queue_depth)"
        );
        if let Some(last) = state.last_action_at {
            if now.saturating_sub(last) < self.cooldown_nanos {
                return ScaleAction::Hold;
            }
        }
        let overloaded =
            queue_depth >= self.scale_up_queue_depth || pressure >= self.scale_up_pressure;
        if overloaded && active < self.max_replicas {
            state.last_action_at = Some(now);
            return ScaleAction::Up;
        }
        let idle = queue_depth <= self.scale_down_queue_depth && pressure < self.scale_up_pressure;
        if idle && active > self.min_replicas {
            state.last_action_at = Some(now);
            return ScaleAction::Down;
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Autoscaler {
        Autoscaler {
            min_replicas: 1,
            max_replicas: 4,
            scale_up_queue_depth: 6,
            scale_down_queue_depth: 1,
            scale_up_pressure: 0.5,
            eval_interval_nanos: 1,
            cooldown_nanos: 10,
            warmup_nanos: 0,
        }
    }

    #[test]
    fn deep_queue_scales_up_until_the_cap() {
        let p = quick();
        let mut s = AutoscalerState::default();
        assert_eq!(p.evaluate(0, 1, 10, 0.0, &mut s), ScaleAction::Up);
        assert_eq!(p.evaluate(20, 2, 10, 0.0, &mut s), ScaleAction::Up);
        // At the cap, an arbitrarily deep queue holds.
        assert_eq!(p.evaluate(40, 4, 1_000, 0.0, &mut s), ScaleAction::Hold);
    }

    #[test]
    fn empty_queue_scales_down_to_the_floor() {
        let p = quick();
        let mut s = AutoscalerState::default();
        assert_eq!(p.evaluate(0, 3, 0, 0.0, &mut s), ScaleAction::Down);
        assert_eq!(p.evaluate(20, 2, 0, 0.0, &mut s), ScaleAction::Down);
        assert_eq!(p.evaluate(40, 1, 0, 0.0, &mut s), ScaleAction::Hold);
    }

    #[test]
    fn loads_inside_the_hysteresis_band_hold() {
        let p = quick();
        let mut s = AutoscalerState::default();
        for depth in (p.scale_down_queue_depth + 1)..p.scale_up_queue_depth {
            assert_eq!(
                p.evaluate(0, 2, depth, 0.0, &mut s),
                ScaleAction::Hold,
                "depth {depth} is inside the band"
            );
        }
        assert!(s.last_action_at.is_none(), "holds never start a cooldown");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let p = quick();
        let mut s = AutoscalerState::default();
        assert_eq!(p.evaluate(0, 1, 10, 0.0, &mut s), ScaleAction::Up);
        // Cooldown swallows both directions, even a would-be scale-down.
        assert_eq!(p.evaluate(5, 2, 10, 0.0, &mut s), ScaleAction::Hold);
        assert_eq!(p.evaluate(9, 2, 0, 0.0, &mut s), ScaleAction::Hold);
        // Once the cooldown has elapsed, actions flow again.
        assert_eq!(p.evaluate(10, 2, 10, 0.0, &mut s), ScaleAction::Up);
    }

    #[test]
    fn preemption_pressure_alone_scales_up() {
        let p = quick();
        let mut s = AutoscalerState::default();
        // Shallow queue, but replicas thrash their KV pools.
        assert_eq!(p.evaluate(0, 2, 0, 0.9, &mut s), ScaleAction::Up);
        // The same pressure also vetoes scale-down at an empty queue.
        let mut s2 = AutoscalerState::default();
        assert_eq!(p.evaluate(0, 3, 0, 0.6, &mut s2), ScaleAction::Up);
    }

    #[test]
    fn square_wave_arrivals_do_not_flap() {
        // A square wave alternating between a deep queue (high phase) and
        // an empty queue (low phase) faster than the cooldown: the fleet
        // must not oscillate every tick. Count direction changes over a
        // simulated day of ticks.
        let p = Autoscaler {
            cooldown_nanos: 8,
            ..quick()
        };
        let mut s = AutoscalerState::default();
        let mut active: usize = 2;
        let mut flips = 0u32;
        let mut last_dir: Option<ScaleAction> = None;
        for tick in 0..200u64 {
            // Period-4 square wave: 2 ticks deep, 2 ticks empty.
            let depth = if (tick / 2) % 2 == 0 { 10 } else { 0 };
            let action = p.evaluate(tick, active, depth, 0.0, &mut s);
            match action {
                ScaleAction::Up => active += 1,
                ScaleAction::Down => active -= 1,
                ScaleAction::Hold => {}
            }
            if action != ScaleAction::Hold {
                if last_dir.is_some_and(|d| d != action) {
                    flips += 1;
                }
                last_dir = Some(action);
            }
        }
        // The cooldown admits at most one action per 8 ticks; a flapping
        // policy would reverse direction on nearly every action (~25
        // actions → ~24 flips). Requiring far fewer reversals pins the
        // damping without overfitting the exact sequence.
        assert!(
            flips <= 13,
            "fleet flapped {flips} direction changes on a square wave"
        );
        assert!((1..=4).contains(&active), "fleet stayed inside its bounds");
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_thresholds_are_rejected() {
        let p = Autoscaler {
            scale_up_queue_depth: 1,
            scale_down_queue_depth: 3,
            ..quick()
        };
        let mut s = AutoscalerState::default();
        p.evaluate(0, 1, 0, 0.0, &mut s);
    }
}
