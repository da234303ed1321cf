//! Evaluation metrics for the METIS reproduction.
//!
//! * Token-level F1 (§2's response-quality metric, SQuAD-style).
//! * Latency distributions (mean/percentiles) and throughput.
//! * The dollar-cost model behind the paper's Fig. 13.
//! * Machine-readable benchmark reports ([`BenchReport`]) over a hand-rolled,
//!   dependency-free JSON writer/parser ([`Json`]) — the schema the bench
//!   harness emits; CI compares five of those files byte-for-byte with
//!   `baselines/`.

#![warn(unreachable_pub)]

mod cost;
mod f1;
mod json;
mod latency;
mod report;

pub use cost::{CostModel, RunCost};
pub use f1::f1_score;
pub use json::{Json, JsonError};
pub use latency::{LatencySummary, ThroughputSummary};
pub use report::{BenchReport, CellReport, SchemaError, SummaryStats};
