//! Pluggable time sources: the `Clock` trait and its two implementations.
//!
//! Everything in the stack — engine iterations, arrival pacing, the
//! runner's Profile → Decide → Retrieve → Submit event chain — reasons in
//! virtual [`Nanos`]. What varies between the deterministic simulator and
//! live serving is only *who makes virtual time pass*:
//!
//! * [`VirtualClock`] — an owned counter that jumps instantly to any
//!   requested instant. The discrete-event driver advances it by exactly
//!   the durations the latency model emits, which is what makes simulated
//!   runs bit-for-bit reproducible.
//! * [`WallClock`] — reads the machine's monotonic clock, scaled by a
//!   `time_scale` factor so a two-hour diurnal trace replays in seconds
//!   (virtual time passes `time_scale`× faster than wall time). It cannot
//!   jump; waiting for an instant means actually sleeping. The realtime
//!   driver only sleeps on it: engines keep their virtual clocks, so a
//!   paced run produces the simulator's timestamps exactly.
//!
//! Both clocks speak the same `Nanos` timeline, so a wall reading and a
//! virtual timestamp compare directly.

#![expect(
    clippy::disallowed_types,
    reason = "WallClock is the workspace's one sanctioned reader of the wall clock \
              (module-wide: its derives repeat the `Instant` field type)"
)]

use std::time::{Duration, Instant};

use crate::time::Nanos;

/// A source of virtual time.
///
/// `now` is monotone non-decreasing. `advance_to` moves time forward
/// without waiting where the clock allows it (virtual time); `sleep_until`
/// blocks until the clock reads at least the target instant (a virtual
/// clock "blocks" by jumping).
///
/// ```
/// use metis_llm::{Clock, VirtualClock};
///
/// let mut clock = VirtualClock::at(0);
/// clock.advance_to(5_000);
/// assert_eq!(clock.now(), 5_000);
/// // A virtual clock "sleeps" by jumping: no wall time passes.
/// clock.sleep_until(7_000);
/// assert_eq!(clock.now(), 7_000);
/// // Time never runs backwards.
/// clock.advance_to(6_000);
/// assert_eq!(clock.now(), 7_000);
/// ```
pub trait Clock: Send {
    /// The current virtual instant.
    fn now(&self) -> Nanos;

    /// Moves the clock forward to `t` if it can do so without waiting.
    /// Instants in the past are ignored (time never goes backwards). Wall
    /// clocks cannot jump; for them this is a no-op and time passes on its
    /// own.
    fn advance_to(&mut self, t: Nanos);

    /// Blocks until `now() >= t` and returns the new reading. A virtual
    /// clock jumps instantly; a wall clock sleeps for the scaled wall
    /// duration.
    fn sleep_until(&mut self, t: Nanos) -> Nanos;
}

/// Deterministic owned virtual time: the simulator's clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: Nanos,
}

impl VirtualClock {
    /// A virtual clock starting at instant `start`.
    pub fn at(start: Nanos) -> Self {
        Self { now: start }
    }

    /// Advances by a duration (the engine's per-iteration tick).
    pub fn advance_by(&mut self, dt: Nanos) {
        self.now = self.now.saturating_add(dt);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Nanos {
        self.now
    }

    fn advance_to(&mut self, t: Nanos) {
        self.now = self.now.max(t);
    }

    fn sleep_until(&mut self, t: Nanos) -> Nanos {
        self.advance_to(t);
        self.now
    }
}

/// Scaled wall-clock time: the live driver's clock.
///
/// Virtual `Nanos` are wall nanoseconds since the clock's epoch multiplied
/// by `time_scale`. Clones share the epoch (an [`Instant`] is `Copy`), so
/// they read one common timeline.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
    time_scale: f64,
}

/// Below this wall-duration, `sleep_until` spins instead of sleeping:
/// `thread::sleep` wakes late by scheduler quanta, and at high time scales
/// that lateness is multiplied into visible virtual-time jitter.
const SPIN_THRESHOLD_WALL_NANOS: u64 = 200_000;

impl WallClock {
    /// A wall clock whose virtual time starts at 0 *now* and passes
    /// `time_scale`× faster than wall time.
    ///
    /// # Panics
    ///
    /// Panics unless `time_scale` is finite and positive.
    #[expect(clippy::disallowed_methods, reason = "the sanctioned wall-clock site")]
    pub fn new(time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be finite and positive, got {time_scale}"
        );
        Self {
            epoch: Instant::now(),
            time_scale,
        }
    }

    /// Wall nanoseconds a virtual duration takes to pass.
    fn wall_nanos(&self, virtual_nanos: Nanos) -> u64 {
        (virtual_nanos as f64 / self.time_scale).ceil() as u64
    }
}

impl Clock for WallClock {
    fn now(&self) -> Nanos {
        let wall = self.epoch.elapsed().as_nanos() as f64;
        (wall * self.time_scale) as Nanos
    }

    fn advance_to(&mut self, _t: Nanos) {
        // Wall time cannot jump; it passes on its own.
    }

    fn sleep_until(&mut self, t: Nanos) -> Nanos {
        loop {
            let now = self.now();
            if now >= t {
                return now;
            }
            let wall = self.wall_nanos(t - now);
            if wall > SPIN_THRESHOLD_WALL_NANOS {
                // Sleep most of the way, finish with a tighter pass.
                #[expect(clippy::disallowed_methods, reason = "the sanctioned wall-clock site")]
                std::thread::sleep(Duration::from_nanos(wall - SPIN_THRESHOLD_WALL_NANOS / 2));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_jumps_and_never_rewinds() {
        let mut c = VirtualClock::at(100);
        assert_eq!(c.now(), 100);
        c.advance_to(50);
        assert_eq!(c.now(), 100, "time never goes backwards");
        c.advance_to(250);
        assert_eq!(c.now(), 250);
        c.advance_by(10);
        assert_eq!(c.now(), 260);
        assert_eq!(c.sleep_until(1_000), 1_000);
        assert_eq!(c.now(), 1_000);
    }

    #[test]
    fn wall_clock_scales_and_sleeps() {
        // 1e6× scale: 1 wall µs = 1 virtual ms, so the test stays fast.
        let mut c = WallClock::new(1_000_000.0);
        let t0 = c.now();
        // advance_to cannot jump a wall clock.
        c.advance_to(t0 + 60_000_000_000_000);
        assert!(c.now() < t0 + 60_000_000_000_000);
        let target = c.now() + 5_000_000_000; // 5 virtual s = 5 wall µs.
        let reached = c.sleep_until(target);
        assert!(reached >= target && c.now() >= target);
        // Clones share the epoch and therefore the timeline.
        let c2 = c;
        let (a, b) = (c.now(), c2.now());
        assert!(a.abs_diff(b) < 2_000_000_000, "clones read one timeline");
    }

    #[test]
    #[should_panic(expected = "time_scale must be finite and positive")]
    fn zero_time_scale_is_rejected() {
        let _ = WallClock::new(0.0);
    }
}
