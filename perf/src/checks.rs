//! Output checks: the benchmark verifies what it measures.
//!
//! An *operation* is one query, one engine call or one index search issued
//! inside a measured pass. An operation that fails, is lost, or is answered
//! twice counts as failed. A *requirement* is a property of a whole pass
//! (determinism, parity bands, recall floors). Any failed operation or
//! requirement makes the run incorrect and the process exit non-zero.

use std::collections::BTreeMap;

/// Tally of operations and requirement violations.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    /// Violation message → how often it fired.
    violations: BTreeMap<&'static str, u64>,
}

impl Checks {
    /// Counts one attempted operation; `ok = false` counts it as failed.
    pub fn op(&mut self, ok: bool, what: &'static str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.violations.entry(what).or_default() += 1;
        }
    }

    /// Records a pass-level requirement.
    pub fn require(&mut self, ok: bool, what: &'static str) {
        if !ok {
            *self.violations.entry(what).or_default() += 1;
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every operation and requirement held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violated checks with their counts.
    pub fn violations(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.violations.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_and_requirements_make_the_run_incorrect() {
        let mut c = Checks::default();
        c.op(true, "op");
        c.require(true, "req");
        assert!(c.correct());
        assert_eq!((c.attempted(), c.failed()), (1, 0));
        c.op(false, "op");
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        assert!(!c.correct());
        let mut d = Checks::default();
        d.require(false, "req");
        d.require(false, "req");
        assert!(!d.correct());
        assert_eq!(d.failed(), 0);
        assert_eq!(d.violations().collect::<Vec<_>>(), vec![("req", 2)]);
    }
}
