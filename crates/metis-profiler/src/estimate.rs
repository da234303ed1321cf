//! Estimated query profiles.

use metis_datasets::{Complexity, TrueProfile};

/// The profiler LLM's estimate of a query's profile, with its confidence.
#[derive(Clone, Copy, Debug)]
pub struct EstimatedProfile {
    /// Estimated complexity ("High/Low", §4.1).
    pub complexity: Complexity,
    /// Estimated joint-reasoning requirement ("Yes/No").
    pub joint: bool,
    /// Estimated pieces of information (1–10).
    pub pieces: u32,
    /// Estimated summarization length range (tokens).
    pub summary_range: (u32, u32),
    /// Confidence score in `[0, 1]`, derived from output log-probs.
    pub confidence: f64,
}

impl EstimatedProfile {
    /// An estimate that exactly matches the truth with full confidence.
    #[cfg(test)]
    pub(crate) fn oracle(truth: &TrueProfile) -> Self {
        Self {
            complexity: truth.complexity,
            joint: truth.joint,
            pieces: truth.pieces,
            summary_range: truth.summary_range,
            confidence: 1.0,
        }
    }

    /// Number of categorical/numeric disagreements with the truth, used to
    /// evaluate profiler accuracy (Fig. 9's good/bad profile split).
    #[cfg(test)]
    pub(crate) fn error_score(&self, truth: &TrueProfile) -> f64 {
        let mut err = 0.0;
        if self.complexity != truth.complexity {
            err += 1.0;
        }
        if self.joint != truth.joint {
            err += 1.0;
        }
        err += (f64::from(self.pieces) - f64::from(truth.pieces)).abs() / 2.0;
        let (lo_e, hi_e) = self.summary_range;
        let (lo_t, hi_t) = truth.summary_range;
        let span = f64::from(hi_t.max(1));
        err += (f64::from(lo_e) - f64::from(lo_t)).abs() / span / 2.0;
        err += (f64::from(hi_e) - f64::from(hi_t)).abs() / span / 2.0;
        err
    }

    /// Whether the estimate is "good" in the Fig. 9 sense: close enough to
    /// the truth that the rule-based mapping yields a high-quality pruned
    /// space (categoricals right, pieces within ±1).
    pub fn is_good(&self, truth: &TrueProfile) -> bool {
        self.complexity == truth.complexity
            && self.joint == truth.joint
            && (i64::from(self.pieces) - i64::from(truth.pieces)).abs() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> TrueProfile {
        TrueProfile {
            complexity: Complexity::High,
            joint: true,
            pieces: 4,
            summary_range: (20, 90),
        }
    }

    #[test]
    fn oracle_has_zero_error_and_is_good() {
        let t = truth();
        let e = EstimatedProfile::oracle(&t);
        assert_eq!(e.error_score(&t), 0.0);
        assert!(e.is_good(&t));
        assert_eq!(e.confidence, 1.0);
    }

    #[test]
    fn flips_count_as_errors() {
        let t = truth();
        let mut e = EstimatedProfile::oracle(&t);
        e.joint = false;
        assert!(e.error_score(&t) >= 1.0);
        assert!(!e.is_good(&t));
    }

    #[test]
    fn small_pieces_error_is_tolerated_by_is_good() {
        let t = truth();
        let mut e = EstimatedProfile::oracle(&t);
        e.pieces = 5;
        assert!(e.is_good(&t));
        e.pieces = 7;
        assert!(!e.is_good(&t));
    }
}
