//! The scaled wall clock that paces realtime serving.
//!
//! Everything in the stack — engine iterations, arrival pacing, the
//! runner's Profile → Decide → Retrieve → Submit event chain — reasons in
//! virtual [`Nanos`], and each engine keeps its own virtual clock that
//! advances only by the durations the latency model emits, which is what
//! makes runs bit-for-bit reproducible. A [`WallClock`] reads the machine's
//! monotonic clock, scaled by a `time_scale` factor so a two-hour diurnal
//! trace replays in seconds (virtual time passes `time_scale`× faster than
//! wall time). It cannot jump; waiting for an instant means actually
//! sleeping. The realtime driver only sleeps on it, so a paced run produces
//! the simulator's timestamps exactly, and a wall reading and a virtual
//! timestamp compare directly.

#![expect(
    clippy::disallowed_types,
    reason = "WallClock is the workspace's one sanctioned reader of the wall clock \
              (module-wide: its derives repeat the `Instant` field type)"
)]

use std::time::{Duration, Instant};

use crate::time::Nanos;

/// Scaled wall-clock time: the realtime driver's pace.
///
/// Virtual `Nanos` are wall nanoseconds since the clock's epoch multiplied
/// by `time_scale`.
#[derive(Debug)]
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

    /// The current virtual instant; monotone non-decreasing.
    pub fn now(&self) -> Nanos {
        let wall = self.epoch.elapsed().as_nanos() as f64;
        (wall * self.time_scale) as Nanos
    }

    /// Blocks until `now() >= t` and returns the new reading, sleeping for
    /// the scaled wall duration.
    pub fn sleep_until(&self, t: Nanos) -> Nanos {
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
    fn wall_clock_scales_and_sleeps() {
        // 1e6× scale: 1 wall µs = 1 virtual ms, so the test stays fast.
        let c = WallClock::new(1_000_000.0);
        let target = c.now() + 5_000_000_000; // 5 virtual s = 5 wall µs.
        let reached = c.sleep_until(target);
        assert!(reached >= target && c.now() >= target);
        // A target already passed returns at once.
        assert!(c.sleep_until(0) >= reached);
    }

    #[test]
    #[should_panic(expected = "time_scale must be finite and positive")]
    fn zero_time_scale_is_rejected() {
        let _ = WallClock::new(0.0);
    }
}
