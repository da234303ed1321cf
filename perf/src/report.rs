//! Collected readings and their two renderings: a table for people (every
//! metric by name with unit, sample count, quartiles, direction and bound)
//! and the one-line JSON result the driver reads.

use metis_metrics::Json;

use crate::checks::Checks;
use crate::spec::{self, Metric};
use crate::stats;

/// One measured metric.
pub struct Reading {
    /// Metric name (must be in the spec table).
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// First and third quartile across samples, for wall metrics measured
    /// over several passes.
    pub quartiles: Option<(f64, f64)>,
    /// Free-form sample accounting (what the samples are, extra context).
    pub note: String,
}

/// The readings of one run.
#[derive(Default)]
pub struct Readings {
    items: Vec<Reading>,
}

impl Readings {
    /// Records a single-valued reading over `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        self.items.push(Reading {
            name,
            value,
            n,
            quartiles: None,
            note: note.into(),
        });
    }

    /// Records the median of `samples` with its quartiles.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64], note: impl Into<String>) {
        self.items.push(Reading {
            name,
            value: stats::median(samples),
            n: samples.len(),
            quartiles: Some(stats::quartiles(samples)),
            note: note.into(),
        });
    }

    /// Records `value` next to the quartiles of the `samples` it condenses.
    pub fn set_with_quartiles(
        &mut self,
        name: &'static str,
        value: f64,
        samples: &[f64],
        note: impl Into<String>,
    ) {
        self.items.push(Reading {
            name,
            value,
            n: samples.len(),
            quartiles: Some(stats::quartiles(samples)),
            note: note.into(),
        });
    }

    /// Checks that exactly the metrics of `expected` were recorded, each
    /// once and finite (and non-zero where a bound applies).
    pub fn verify(&self, expected: &[Metric], checks: &mut Checks) {
        for m in expected {
            let found: Vec<&Reading> = self.items.iter().filter(|r| r.name == m.name).collect();
            checks.require(
                found.len() == 1,
                "every metric of the spec is emitted exactly once",
            );
            for r in found {
                checks.require(r.value.is_finite(), "every reading is finite");
                if m.bound.is_some() {
                    checks.require(r.value != 0.0, "end-to-end metrics are never 0");
                }
            }
        }
        for r in &self.items {
            checks.require(
                expected.iter().any(|m| m.name == r.name),
                "no metric is emitted that the spec does not list",
            );
        }
    }

    /// The human-readable table.
    pub fn table(&self, expected: &[Metric]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<42} {:>16} {:<8} {:>6}  {:<31} {:<7} {:<6}  {}\n",
            "metric", "value", "unit", "n", "quartiles (q1 .. q3)", "better", "bound", "samples"
        ));
        for m in expected {
            let Some(r) = self.items.iter().find(|r| r.name == m.name) else {
                out.push_str(&format!("  {:<42} MISSING\n", m.name));
                continue;
            };
            let quartiles = r.quartiles.map_or_else(
                || "-".to_owned(),
                |(a, b)| format!("{} .. {}", fmt(a), fmt(b)),
            );
            let bound = m
                .bound
                .map_or_else(|| "-".to_owned(), |b| format!("{:.1}%", b * 100.0));
            out.push_str(&format!(
                "  {:<42} {:>16} {:<8} {:>6}  {:<31} {:<7} {:<6}  {}\n",
                m.name,
                fmt(r.value),
                m.unit,
                r.n,
                quartiles,
                m.better.name(),
                bound,
                r.note
            ));
        }
        out
    }

    /// The driver's result line.
    pub fn result_line(&self, expected: &[Metric], checks: &Checks) -> String {
        let metrics = expected
            .iter()
            .filter_map(|m| {
                let r = self.items.iter().find(|r| r.name == m.name)?;
                Some((
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(r.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                ))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(checks.correct())),
            (
                "attempted".to_owned(),
                Json::UInt(checks.attempted().max(1)),
            ),
            ("failed".to_owned(), Json::UInt(checks.failed())),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Six significant digits, plain notation.
fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".to_owned();
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// Prints the header line of a run.
pub fn header(workload: &spec::Workload, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "== {} (seed {seed}, {seconds} s, {}) — {}\n",
        workload.name,
        if trace { "traced" } else { "untraced" },
        workload.why
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Readings::default();
        let mut checks = Checks::default();
        checks.op(true, "op");
        for m in &spec::END_TO_END {
            r.set(m.name, 1.25, 3, "");
        }
        r.verify(&spec::END_TO_END, &mut checks);
        assert!(checks.correct());
        let line = r.result_line(&spec::END_TO_END, &checks);
        let Json::Obj(fields) = Json::parse(&line).expect("valid JSON") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn verify_flags_missing_extra_and_zero_readings() {
        let mut r = Readings::default();
        r.set("not_in_spec", 1.0, 1, "");
        let mut checks = Checks::default();
        r.verify(&spec::END_TO_END, &mut checks);
        assert!(!checks.correct());

        let mut r = Readings::default();
        for m in &spec::END_TO_END {
            r.set(m.name, 0.0, 1, "");
        }
        let mut checks = Checks::default();
        r.verify(&spec::END_TO_END, &mut checks);
        assert!(!checks.correct(), "a zero end-to-end reading is refused");
    }

    #[test]
    fn six_significant_digits() {
        assert_eq!(fmt(1234.5678), "1234.57");
        assert_eq!(fmt(0.00123456789), "0.00123457");
        assert_eq!(fmt(2_500_000.0), "2500000");
        assert_eq!(fmt(0.0), "0");
    }
}
