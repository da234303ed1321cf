//! Arrival-process generators.
//!
//! The paper's open-loop workload sends 200 queries per dataset with Poisson
//! arrivals at an average rate of 2/s (§7.1); the low-load experiment
//! (Fig. 19) sends queries sequentially. Real serving traffic is rarely
//! that tame, so this module also provides an arrival-process *family* for
//! stress scenarios: on/off bursts ([`burst_arrivals`]), heavy-tailed
//! renewal processes with CV > 1 ([`gamma_arrivals`]), and a
//! sinusoidally-modulated diurnal pattern ([`diurnal_arrivals`]) — the
//! workloads under which head-of-line blocking and preemption policy
//! actually matter. [`ArrivalProcess`] names the family for CLI/bench use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metis_llm::{secs_to_nanos, Nanos};

/// Expected arrivals per on/off burst period in [`burst_arrivals`]: the
/// period is `BURST_PERIOD_ARRIVALS / rate_qps` seconds, so a burst holds a
/// queue-filling clump of work at every rate.
const BURST_PERIOD_ARRIVALS: f64 = 16.0;

/// Relative amplitude of the [`diurnal_arrivals`] rate modulation.
const DIURNAL_AMPLITUDE: f64 = 0.75;

/// Number of full diurnal cycles across the expected span of the run.
const DIURNAL_CYCLES: f64 = 2.0;

/// Poisson arrival times for `n` queries at `rate_qps` queries/second.
///
/// # Panics
///
/// Panics if `rate_qps` is not positive and finite.
pub fn poisson_arrivals(seed: u64, rate_qps: f64, n: usize) -> Vec<Nanos> {
    assert!(
        rate_qps.is_finite() && rate_qps > 0.0,
        "rate must be positive, got {rate_qps}"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A22_17A1);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_qps;
            secs_to_nanos(t)
        })
        .collect()
}

fn assert_rate(rate_qps: f64) {
    assert!(
        rate_qps.is_finite() && rate_qps > 0.0,
        "rate must be positive, got {rate_qps}"
    );
}

/// On/off bursty arrivals averaging `rate_qps`: within each period a
/// fraction `1 / burst_factor` of the time is "on" at `burst_factor ×
/// rate_qps` (Poisson), the rest is silent — so the long-run rate matches
/// `rate_qps` while work lands in clumps `burst_factor` times denser than
/// the average. `burst_factor = 1` degenerates to plain Poisson.
///
/// # Panics
///
/// Panics if `rate_qps` is not positive and finite or `burst_factor < 1`.
pub fn burst_arrivals(seed: u64, rate_qps: f64, burst_factor: f64, n: usize) -> Vec<Nanos> {
    assert_rate(rate_qps);
    assert!(
        burst_factor.is_finite() && burst_factor >= 1.0,
        "burst factor must be >= 1, got {burst_factor}"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB5_57A1);
    let period = BURST_PERIOD_ARRIVALS / rate_qps;
    let on_secs = period / burst_factor;
    let on_rate = rate_qps * burst_factor;
    // Homogeneous Poisson on "on-time", mapped to wall time by skipping the
    // off windows: the t-th second of on-time falls in period t / on_secs.
    let mut t_on = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t_on += -u.ln() / on_rate;
            let full_periods = (t_on / on_secs).floor();
            secs_to_nanos(full_periods * period + (t_on - full_periods * on_secs))
        })
        .collect()
}

/// One standard-normal sample (Box–Muller over the shim RNG's uniforms).
fn normal_sample(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One Gamma(shape, 1) sample via Marsaglia–Tsang, with the `U^{1/shape}`
/// boost for shape < 1.
fn gamma_sample(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal_sample(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Heavy-tailed renewal arrivals averaging `rate_qps`: inter-arrival gaps
/// are Gamma-distributed with coefficient of variation `cv` (shape
/// `1 / cv²`, mean `1 / rate_qps`). `cv = 1` is exponential (Poisson);
/// `cv > 1` produces the over-dispersed, clustered gaps of real traffic
/// traces.
///
/// # Panics
///
/// Panics if `rate_qps` or `cv` is not positive and finite.
pub fn gamma_arrivals(seed: u64, rate_qps: f64, cv: f64, n: usize) -> Vec<Nanos> {
    assert_rate(rate_qps);
    assert!(cv.is_finite() && cv > 0.0, "CV must be positive, got {cv}");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A_33A1);
    let shape = 1.0 / (cv * cv);
    let scale = cv * cv / rate_qps; // shape × scale = 1 / rate.
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += gamma_sample(&mut rng, shape) * scale;
            secs_to_nanos(t)
        })
        .collect()
}

/// Diurnally modulated Poisson arrivals averaging `rate_qps`: the
/// instantaneous rate follows `rate × (1 + 0.75 sin(2πt / period))` with
/// two full cycles over the run's expected span (thinning construction), so
/// the run sweeps through peak and trough load like a compressed day.
///
/// # Panics
///
/// Panics if `rate_qps` is not positive and finite.
pub fn diurnal_arrivals(seed: u64, rate_qps: f64, n: usize) -> Vec<Nanos> {
    assert_rate(rate_qps);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1_42A1);
    let span = n.max(1) as f64 / rate_qps;
    let period = span / DIURNAL_CYCLES;
    let max_rate = rate_qps * (1.0 + DIURNAL_AMPLITUDE);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / max_rate;
        let rate_t =
            rate_qps * (1.0 + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * t / period).sin());
        let accept: f64 = rng.gen_range(0.0..1.0);
        if accept < rate_t / max_rate {
            out.push(secs_to_nanos(t));
        }
    }
    out
}

/// An arrival-process family member, for CLI flags and bench sweeps.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ArrivalProcess {
    /// Plain Poisson at the configured rate (the paper's workload).
    #[default]
    Poisson,
    /// On/off bursts at `factor ×` the average rate ([`burst_arrivals`]).
    Burst {
        /// Burst density relative to the average rate (≥ 1).
        factor: f64,
    },
    /// Gamma renewal process with heavy-tailed gaps ([`gamma_arrivals`]).
    Gamma {
        /// Coefficient of variation of the inter-arrival gaps (> 0;
        /// CV > 1 is over-dispersed).
        cv: f64,
    },
    /// Sinusoidal day-cycle modulation ([`diurnal_arrivals`]).
    Diurnal,
}

impl ArrivalProcess {
    /// Short stable name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Burst { .. } => "burst",
            ArrivalProcess::Gamma { .. } => "gamma",
            ArrivalProcess::Diurnal => "diurnal",
        }
    }

    /// Generates `n` arrival times averaging `rate_qps`.
    pub fn arrivals(self, seed: u64, rate_qps: f64, n: usize) -> Vec<Nanos> {
        match self {
            ArrivalProcess::Poisson => poisson_arrivals(seed, rate_qps, n),
            ArrivalProcess::Burst { factor } => burst_arrivals(seed, rate_qps, factor, n),
            ArrivalProcess::Gamma { cv } => gamma_arrivals(seed, rate_qps, cv, n),
            ArrivalProcess::Diurnal => diurnal_arrivals(seed, rate_qps, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_increasing() {
        let a = poisson_arrivals(1, 2.0, 100);
        let b = poisson_arrivals(1, 2.0, 100);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn poisson_rate_is_roughly_respected() {
        let a = poisson_arrivals(7, 2.0, 2_000);
        let span_secs = *a.last().unwrap() as f64 / 1e9;
        let rate = 2_000.0 / span_secs;
        assert!((1.6..=2.4).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(poisson_arrivals(1, 2.0, 10), poisson_arrivals(2, 2.0, 10));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = poisson_arrivals(0, 0.0, 1);
    }

    fn empirical_rate(arrivals: &[Nanos]) -> f64 {
        arrivals.len() as f64 / (*arrivals.last().unwrap() as f64 / 1e9)
    }

    /// Coefficient of variation of the inter-arrival gaps.
    fn gap_cv(arrivals: &[Nanos]) -> f64 {
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        var.sqrt() / mean
    }

    #[test]
    fn burst_is_deterministic_increasing_and_rate_preserving() {
        let a = burst_arrivals(3, 0.5, 4.0, 1_000);
        assert_eq!(a, burst_arrivals(3, 0.5, 4.0, 1_000));
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
        let rate = empirical_rate(&a);
        assert!((0.38..=0.65).contains(&rate), "empirical rate {rate}");
        // Factor 1 degenerates to plain Poisson-like smoothness; factor 8
        // clumps arrivals far harder.
        let smooth = burst_arrivals(3, 0.5, 1.0, 1_000);
        assert!(gap_cv(&a) > gap_cv(&smooth) * 1.5);
        let denser = burst_arrivals(3, 0.5, 8.0, 1_000);
        assert!(gap_cv(&denser) > gap_cv(&smooth) * 2.0);
    }

    #[test]
    fn burst_on_windows_hold_the_configured_density() {
        // Within a burst the local rate is factor × the average: the median
        // gap is ~1/(factor·rate), far below the mean gap of 1/rate.
        let a = burst_arrivals(11, 1.0, 8.0, 2_000);
        let mut gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median_secs = gaps[gaps.len() / 2] as f64 / 1e9;
        assert!(median_secs < 0.4, "median gap {median_secs}s not bursty");
    }

    #[test]
    fn gamma_matches_rate_and_dispersion() {
        let a = gamma_arrivals(5, 2.0, 2.5, 4_000);
        assert_eq!(a, gamma_arrivals(5, 2.0, 2.5, 4_000));
        for w in a.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let rate = empirical_rate(&a);
        assert!((1.6..=2.4).contains(&rate), "empirical rate {rate}");
        let cv = gap_cv(&a);
        assert!((1.9..=3.1).contains(&cv), "empirical CV {cv}");
        // CV = 1 reduces to the exponential gaps of a Poisson process.
        let poissonish = gap_cv(&gamma_arrivals(5, 2.0, 1.0, 4_000));
        assert!(
            (0.85..=1.15).contains(&poissonish),
            "CV=1 gave {poissonish}"
        );
    }

    #[test]
    fn diurnal_sweeps_between_peak_and_trough() {
        let n = 2_000;
        let a = diurnal_arrivals(9, 2.0, n);
        assert_eq!(a, diurnal_arrivals(9, 2.0, n));
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
        let rate = empirical_rate(&a);
        assert!((1.5..=2.6).contains(&rate), "empirical rate {rate}");
        // Count arrivals per expected quarter-cycle: the first quarter
        // (rising toward peak) must far out-pace the third (trough).
        let span = *a.last().unwrap() as f64;
        let quarter = |k: u64| {
            a.iter()
                .filter(|&&t| {
                    let frac = t as f64 / span * 8.0; // 2 cycles × 4 quarters.
                    (frac as u64) % 4 == k
                })
                .count() as f64
        };
        assert!(
            quarter(0) > quarter(2) * 1.5,
            "no diurnal modulation: peak {} vs trough {}",
            quarter(0),
            quarter(2)
        );
    }

    #[test]
    fn arrival_process_dispatch_matches_the_free_functions() {
        assert_eq!(
            ArrivalProcess::Poisson.arrivals(1, 2.0, 50),
            poisson_arrivals(1, 2.0, 50)
        );
        assert_eq!(
            ArrivalProcess::Burst { factor: 4.0 }.arrivals(1, 2.0, 50),
            burst_arrivals(1, 2.0, 4.0, 50)
        );
        assert_eq!(
            ArrivalProcess::Gamma { cv: 2.0 }.arrivals(1, 2.0, 50),
            gamma_arrivals(1, 2.0, 2.0, 50)
        );
        assert_eq!(
            ArrivalProcess::Diurnal.arrivals(1, 2.0, 50),
            diurnal_arrivals(1, 2.0, 50)
        );
        assert_eq!(ArrivalProcess::default().name(), "poisson");
        assert_eq!(ArrivalProcess::Burst { factor: 2.0 }.name(), "burst");
        assert_eq!(ArrivalProcess::Gamma { cv: 2.0 }.name(), "gamma");
        assert_eq!(ArrivalProcess::Diurnal.name(), "diurnal");
    }

    #[test]
    #[should_panic(expected = "burst factor must be >= 1")]
    fn sub_unit_burst_factor_panics() {
        let _ = burst_arrivals(0, 1.0, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "CV must be positive")]
    fn non_positive_cv_panics() {
        let _ = gamma_arrivals(0, 1.0, 0.0, 1);
    }
}
