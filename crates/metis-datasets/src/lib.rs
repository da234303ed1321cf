//! Synthetic RAG-QA workload generators.
//!
//! The paper evaluates on four public datasets whose *roles* in the
//! evaluation are their query-profile mixes and token-length scales
//! (Table 1):
//!
//! | Dataset | Task | Input | Output |
//! |---|---|---|---|
//! | Squad | single-hop QA | 0.4K–2K | 5–10 |
//! | Musique | multi-hop QA | 1K–5K | 5–20 |
//! | KG RAG FinSec | doc-level QA | 4K–10K | 20–40 |
//! | QMSUM | summarization QA | 4K–12K | 20–60 |
//!
//! The generators in this crate produce corpora and query sets with those
//! distributions *and* exact ground truth: every query knows which planted
//! facts it needs, which conclusions require joint reasoning, its gold
//! answer tokens, and its true profile (the quantity METIS's LLM profiler
//! estimates). That ground truth is what lets the reproduction *measure*
//! profiler accuracy and answer F1 instead of assuming them.

#![warn(unreachable_pub)]

mod ann;
mod dataset;
mod generator;
mod kinds;
mod profile;
mod query;
mod workload;

pub use ann::{AnnConfig, AnnCorpus, AnnQuery};
pub use dataset::{Dataset, Table1Row};
pub use generator::{
    build_dataset, build_dataset_with_embedder, build_dataset_with_index, build_dataset_with_spec,
};
pub use kinds::{DatasetKind, GenParams};
pub use profile::{Complexity, TrueProfile};
pub use query::{QueryId, QuerySpec};
pub use workload::{
    burst_arrivals, diurnal_arrivals, gamma_arrivals, poisson_arrivals, ArrivalProcess,
};
