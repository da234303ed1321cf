//! Virtual-time units.
//!
//! The whole reproduction reasons in virtual time; how virtual time passes
//! (deterministic jumps, or paced by a scaled [`crate::WallClock`]) is the
//! driver's choice. Durations and instants are 64-bit nanosecond counts,
//! which keeps event ordering exact (no float comparison issues) and gives
//! ~584 years of simulated range.

/// A duration or instant in virtual nanoseconds.
pub type Nanos = u64;

/// Converts (non-negative, finite) seconds to [`Nanos`], saturating.
///
/// # Panics
///
/// Panics if `secs` is negative or not finite — a latency model emitting
/// such a value is a bug worth failing loudly on.
#[inline]
pub fn secs_to_nanos(secs: f64) -> Nanos {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "invalid duration: {secs} s"
    );
    (secs * 1e9).min(u64::MAX as f64) as Nanos
}

/// Converts [`Nanos`] to seconds.
#[inline]
pub fn nanos_to_secs(n: Nanos) -> f64 {
    n as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_close() {
        let n = secs_to_nanos(1.5);
        assert_eq!(n, 1_500_000_000);
        assert!((nanos_to_secs(n) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = secs_to_nanos(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn nan_duration_panics() {
        let _ = secs_to_nanos(f64::NAN);
    }
}
