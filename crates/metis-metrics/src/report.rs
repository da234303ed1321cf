//! Machine-readable benchmark reports (the perf-history schema).
//!
//! Every bench target and CLI run can emit a [`BenchReport`]: one JSON
//! document per experiment holding a [`CellReport`] per (config × seed ×
//! load) cell — experiment knobs, per-cell F1, full latency / queue-wait /
//! retrieval percentile vectors, per-stage delay breakdown, throughput,
//! preemptions, and cost. CI compares these byte-for-byte against committed
//! baselines, so the schema is deliberately explicit:
//!
//! * [`SCHEMA_VERSION`] is bumped on breaking field changes, and
//!   [`BenchReport::from_json`] fails loudly (naming the field) on any
//!   missing or mistyped field — an accidental rename cannot parse as an
//!   empty metric.
//! * Serialization is hand-rolled over [`Json`] (the
//!   vendored dependency set has no serde) and round-trips exactly:
//!   `parse(render(r)) == r` for every finite report, including `u64`
//!   seeds beyond 2⁵³.
//!
//! ## Percentile estimator
//!
//! All percentile vectors come from [`LatencySummary`]'s *nearest-rank*
//! estimator (see its docs): with `n` samples, every percentile above
//! `100·(n−1)/n` equals the maximum. Reports therefore always carry the
//! sample `count` next to each summary — a p99 over 8 samples *is* the max.

use crate::json::{Json, JsonError};
use crate::latency::LatencySummary;

/// Version stamped into every report; bump on breaking schema changes.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// The percentile grid every summary materializes (in percent).
const PERCENTILE_GRID: [f64; 9] = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];

/// One-line description of the percentile estimator, embedded in every
/// report so a consumer never has to guess how the vectors were computed.
const PERCENTILE_ESTIMATOR: &str = "nearest-rank: value at ceil(p/100*count) of the sorted \
     samples (p=0 -> minimum); with count samples every p > 100*(count-1)/count equals max";

/// Distribution summary of one metric: count, mean, min/max, and the value
/// at every percentile of the grid (p0, p10, p25, p50, p75, p90, p95, p99,
/// p100).
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryStats {
    /// Number of samples (0 when the metric did not apply; all other
    /// fields are then 0). Consumers MUST read tail percentiles in light
    /// of this — see the report's `percentile_estimator` field.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// `(percentile, value)` pairs on the percentile grid.
    pub percentiles: Vec<(f64, f64)>,
}

impl SummaryStats {
    /// Summarizes a latency distribution on the standard grid.
    pub fn of(summary: &LatencySummary) -> Self {
        Self {
            count: summary.len() as u64,
            mean: summary.mean(),
            min: summary.min(),
            max: summary.max(),
            percentiles: PERCENTILE_GRID
                .iter()
                .map(|&p| (p, summary.percentile(p)))
                .collect(),
        }
    }

    /// An all-zero summary for metrics that did not apply.
    pub fn empty() -> Self {
        Self::of(&LatencySummary::new(Vec::new()))
    }

    /// The value at percentile `p`, if `p` is on the materialized grid.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.percentiles
            .iter()
            .find(|(grid_p, _)| *grid_p == p)
            .map(|(_, v)| *v)
    }

    /// Median convenience accessor.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }

    /// Tail convenience accessor (the report's `percentile_estimator` field
    /// says what it means at small `count`).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0).unwrap_or(0.0)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("mean".into(), Json::Num(self.mean)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            (
                "percentiles".into(),
                Json::Arr(
                    self.percentiles
                        .iter()
                        .map(|&(p, v)| Json::Arr(vec![Json::Num(p), Json::Num(v)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json, at: &str) -> Result<Self, SchemaError> {
        Ok(Self {
            count: req_u64(v, "count", at)?,
            mean: req_f64(v, "mean", at)?,
            min: req_f64(v, "min", at)?,
            max: req_f64(v, "max", at)?,
            percentiles: req_arr(v, "percentiles", at)?
                .iter()
                .map(|pair| -> Result<(f64, f64), SchemaError> {
                    let items = pair.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                        SchemaError::new(format!("{at}.percentiles"), "expected [p, value] pair")
                    })?;
                    let p = items[0].as_f64().ok_or_else(|| {
                        SchemaError::new(format!("{at}.percentiles"), "non-numeric percentile")
                    })?;
                    let val = items[1].as_f64().ok_or_else(|| {
                        SchemaError::new(format!("{at}.percentiles"), "non-numeric value")
                    })?;
                    Ok((p, val))
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One experiment cell: a single run at one configuration point.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Unique cell id within the report (e.g. `"musique/metis/2.00x"`).
    pub id: String,
    /// Cell-level configuration knobs, as `(name, value)` strings.
    pub knobs: Vec<(String, String)>,
    /// The seed the cell ran with.
    pub seed: u64,
    /// Queries the cell served.
    pub queries: u64,
    /// Mean token F1.
    pub f1: f64,
    /// End-to-end delay distribution (seconds).
    pub latency: SummaryStats,
    /// Engine queue-wait distribution (seconds).
    pub queue_wait: SummaryStats,
    /// Retrieval-latency distribution (seconds).
    pub retrieval: SummaryStats,
    /// Mean seconds per pipeline stage (`profile`/`decide`/`retrieve`/
    /// `queue_wait`/`prefill`/`decode`), empty when not applicable.
    pub stages: Vec<(String, f64)>,
    /// Completed queries per second over the makespan.
    pub throughput_qps: f64,
    /// Preemptions across all replicas.
    pub preemptions: u64,
    /// GPU busy seconds summed across replicas.
    pub gpu_busy_secs: f64,
    /// API dollars spent.
    pub api_cost_usd: f64,
    /// Mean ground-truth retrieval recall.
    pub retrieval_recall: f64,
    /// Bench-specific scalar metrics (micro medians, recall@k, …).
    pub extra: Vec<(String, f64)>,
}

impl CellReport {
    /// An all-zero cell with `id` and `seed` — benches fill what applies.
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        Self {
            id: id.into(),
            knobs: Vec::new(),
            seed,
            queries: 0,
            f1: 0.0,
            latency: SummaryStats::empty(),
            queue_wait: SummaryStats::empty(),
            retrieval: SummaryStats::empty(),
            stages: Vec::new(),
            throughput_qps: 0.0,
            preemptions: 0,
            gpu_busy_secs: 0.0,
            api_cost_usd: 0.0,
            retrieval_recall: 0.0,
            extra: Vec::new(),
        }
    }

    /// Adds one cell-level knob (builder-style).
    pub fn knob(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.knobs.push((name.into(), value.to_string()));
        self
    }

    /// Adds one bench-specific scalar metric (builder-style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.extra.push((name.into(), value));
        self
    }

    /// Looks up a bench-specific scalar by name.
    pub fn extra_metric(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a cell-level knob by name (e.g. `knob_value("driver")` to
    /// tell realtime cells from simulated ones).
    pub fn knob_value(&self, name: &str) -> Option<&str> {
        self.knobs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("knobs".into(), knobs_to_json(&self.knobs)),
            ("seed".into(), Json::UInt(self.seed)),
            ("queries".into(), Json::UInt(self.queries)),
            ("f1".into(), Json::Num(self.f1)),
            ("latency".into(), self.latency.to_json()),
            ("queue_wait".into(), self.queue_wait.to_json()),
            ("retrieval".into(), self.retrieval.to_json()),
            (
                "stages".into(),
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("throughput_qps".into(), Json::Num(self.throughput_qps)),
            ("preemptions".into(), Json::UInt(self.preemptions)),
            ("gpu_busy_secs".into(), Json::Num(self.gpu_busy_secs)),
            ("api_cost_usd".into(), Json::Num(self.api_cost_usd)),
            ("retrieval_recall".into(), Json::Num(self.retrieval_recall)),
            (
                "extra".into(),
                Json::Obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let id = req_str(v, "id", "cell")?;
        let at = format!("cell[{id}]");
        Ok(Self {
            knobs: knobs_from_json(req_field(v, "knobs", &at)?, &at)?,
            seed: req_u64(v, "seed", &at)?,
            queries: req_u64(v, "queries", &at)?,
            f1: req_f64(v, "f1", &at)?,
            latency: SummaryStats::from_json(req_field(v, "latency", &at)?, &at)?,
            queue_wait: SummaryStats::from_json(req_field(v, "queue_wait", &at)?, &at)?,
            retrieval: SummaryStats::from_json(req_field(v, "retrieval", &at)?, &at)?,
            stages: named_f64s(req_field(v, "stages", &at)?, &at)?,
            throughput_qps: req_f64(v, "throughput_qps", &at)?,
            preemptions: req_u64(v, "preemptions", &at)?,
            gpu_busy_secs: req_f64(v, "gpu_busy_secs", &at)?,
            api_cost_usd: req_f64(v, "api_cost_usd", &at)?,
            retrieval_recall: req_f64(v, "retrieval_recall", &at)?,
            extra: named_f64s(req_field(v, "extra", &at)?, &at)?,
            id,
        })
    }
}

/// A whole experiment: metadata plus one [`CellReport`] per cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Experiment name — also the emitted file stem (e.g.
    /// `"fig11_throughput"`).
    pub experiment: String,
    /// Human-readable one-liner.
    pub title: String,
    /// Experiment-level knobs (dataset sizes, env overrides, …).
    pub knobs: Vec<(String, String)>,
    /// Seed used for dataset construction.
    pub dataset_seed: u64,
    /// Base seed for run stochasticity (cells derive their own from it).
    pub run_seed: u64,
    /// The cells, in deterministic sweep order.
    pub cells: Vec<CellReport>,
}

impl BenchReport {
    /// An empty report for `experiment`.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            experiment: experiment.into(),
            title: title.into(),
            knobs: Vec::new(),
            dataset_seed: 0,
            run_seed: 0,
            cells: Vec::new(),
        }
    }

    /// Adds one experiment-level knob (builder-style).
    pub fn knob(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.knobs.push((name.into(), value.to_string()));
        self
    }

    /// Renders the full report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = self.to_json().render_pretty(2);
        out.push('\n');
        out
    }

    /// Parses a rendered report, failing loudly on schema drift.
    pub fn parse(text: &str) -> Result<Self, SchemaError> {
        let v = Json::parse(text).map_err(SchemaError::from)?;
        Self::from_json(&v)
    }

    /// Lowers the report to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::UInt(SCHEMA_VERSION)),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            (
                "percentile_estimator".into(),
                Json::Str(PERCENTILE_ESTIMATOR.into()),
            ),
            ("knobs".into(), knobs_to_json(&self.knobs)),
            ("dataset_seed".into(), Json::UInt(self.dataset_seed)),
            ("run_seed".into(), Json::UInt(self.run_seed)),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
    }

    /// Raises a JSON value back into a report.
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let version = req_u64(v, "schema_version", "report")?;
        if version != SCHEMA_VERSION {
            return Err(SchemaError::new(
                "report.schema_version",
                format!("unsupported version {version} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        Ok(Self {
            experiment: req_str(v, "experiment", "report")?,
            title: req_str(v, "title", "report")?,
            knobs: knobs_from_json(req_field(v, "knobs", "report")?, "report")?,
            dataset_seed: req_u64(v, "dataset_seed", "report")?,
            run_seed: req_u64(v, "run_seed", "report")?,
            cells: req_arr(v, "cells", "report")?
                .iter()
                .map(CellReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// A report that did not match the schema: which field, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct SchemaError {
    /// Dotted path of the offending field.
    pub field: String,
    /// What went wrong.
    pub message: String,
}

impl SchemaError {
    fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for SchemaError {}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> Self {
        SchemaError::new("document", e.to_string())
    }
}

fn knobs_to_json(knobs: &[(String, String)]) -> Json {
    Json::Obj(
        knobs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn knobs_from_json(v: &Json, at: &str) -> Result<Vec<(String, String)>, SchemaError> {
    let Json::Obj(fields) = v else {
        return Err(SchemaError::new(format!("{at}.knobs"), "expected object"));
    };
    fields
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_owned()))
                .ok_or_else(|| SchemaError::new(format!("{at}.knobs.{k}"), "expected string"))
        })
        .collect()
}

fn named_f64s(v: &Json, at: &str) -> Result<Vec<(String, f64)>, SchemaError> {
    let Json::Obj(fields) = v else {
        return Err(SchemaError::new(at.to_owned(), "expected object"));
    };
    fields
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|x| (k.clone(), x))
                .ok_or_else(|| SchemaError::new(format!("{at}.{k}"), "expected number"))
        })
        .collect()
}

fn req_field<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a Json, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError::new(format!("{at}.{key}"), "missing field"))
}

fn req_u64(v: &Json, key: &str, at: &str) -> Result<u64, SchemaError> {
    req_field(v, key, at)?
        .as_u64()
        .ok_or_else(|| SchemaError::new(format!("{at}.{key}"), "expected unsigned integer"))
}

fn req_f64(v: &Json, key: &str, at: &str) -> Result<f64, SchemaError> {
    req_field(v, key, at)?
        .as_f64()
        .ok_or_else(|| SchemaError::new(format!("{at}.{key}"), "expected number"))
}

fn req_str(v: &Json, key: &str, at: &str) -> Result<String, SchemaError> {
    req_field(v, key, at)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| SchemaError::new(format!("{at}.{key}"), "expected string"))
}

fn req_arr<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a [Json], SchemaError> {
    req_field(v, key, at)?
        .as_arr()
        .ok_or_else(|| SchemaError::new(format!("{at}.{key}"), "expected array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let lat = LatencySummary::new(vec![1.0, 2.0, 3.5, 0.25]);
        let mut report = BenchReport::new("unit_test", "a synthetic report")
            .knob("dataset", "musique")
            .knob("queries", 4);
        report.dataset_seed = 20_241_016;
        report.run_seed = u64::MAX; // Exercises exact u64 round-trip.
        let cell = CellReport {
            queries: 4,
            f1: 0.625,
            latency: SummaryStats::of(&lat),
            queue_wait: SummaryStats::empty(),
            retrieval: SummaryStats::of(&LatencySummary::new(vec![0.01, 0.02])),
            stages: vec![("profile".into(), 0.2), ("decode".into(), 1.1)],
            throughput_qps: 1.5,
            preemptions: 3,
            gpu_busy_secs: 12.25,
            api_cost_usd: 0.004,
            retrieval_recall: 0.9,
            ..CellReport::new("musique/metis/1.00x", 99)
        }
        .knob("system", "metis")
        .metric("chunk_recall_at_8", 0.97);
        report.cells.push(cell);
        report.cells.push(CellReport::new("empty/cell", 7));
        report
    }

    #[test]
    fn report_round_trips_exactly() {
        let report = sample_report();
        let parsed = BenchReport::parse(&report.render()).expect("round-trip parse");
        assert_eq!(parsed, report);
    }

    #[test]
    fn summary_stats_match_the_latency_summary() {
        let lat = LatencySummary::new(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        let s = SummaryStats::of(&lat);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.p99(), 5.0, "p99 over 5 samples is the max");
        assert_eq!(s.percentile(0.0), Some(1.0), "p0 is the minimum");
        assert_eq!(s.percentiles.len(), PERCENTILE_GRID.len());
    }

    #[test]
    fn missing_fields_fail_loudly_with_the_field_name() {
        let report = sample_report();
        let mut v = report.to_json();
        // Simulate an accidental rename of a cell metric.
        if let Json::Obj(fields) = &mut v {
            let cells = fields
                .iter_mut()
                .find(|(k, _)| k == "cells")
                .map(|(_, v)| v)
                .expect("cells field");
            if let Json::Arr(items) = cells {
                if let Json::Obj(cell) = &mut items[0] {
                    for (k, _) in cell.iter_mut() {
                        if k == "throughput_qps" {
                            *k = "thruput_qps".into();
                        }
                    }
                }
            }
        }
        let e = BenchReport::from_json(&v).expect_err("rename must not parse");
        assert!(
            e.to_string().contains("throughput_qps"),
            "error names the missing field: {e}"
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut v = sample_report().to_json();
        if let Json::Obj(fields) = &mut v {
            fields[0].1 = Json::UInt(SCHEMA_VERSION + 1);
        }
        let e = BenchReport::from_json(&v).expect_err("future version must not parse");
        assert!(e.to_string().contains("unsupported version"), "got: {e}");
    }

    #[test]
    fn estimator_note_is_embedded() {
        let text = sample_report().render();
        assert!(text.contains("nearest-rank"), "estimator note missing");
        assert!(
            text.contains("\"count\""),
            "counts must accompany summaries"
        );
    }
}
