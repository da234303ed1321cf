//! # METIS — fast quality-aware RAG serving with configuration adaptation
//!
//! A from-scratch Rust reproduction of *METIS: Fast Quality-Aware RAG
//! Systems with Configuration Adaptation* (SOSP 2025). METIS is a RAG
//! controller that (1) prunes the per-query configuration space with an LLM
//! profiler and a rule-based mapping, and (2) jointly picks the
//! configuration and schedules it against the currently free GPU memory,
//! cutting response delay 1.6–2.5× at equal or better answer quality.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`text`] — tokenizer, chunker, fact-annotated synthetic text.
//! * [`embed`] — deterministic embedding models.
//! * [`vectordb`] — flat-L2 / IVF / HNSW vector indexes, sq8 scalar
//!   quantization, and the memory-tiered chunk store.
//! * [`llm`] — model specs, the A40 latency model, and the fact-extraction
//!   generation (quality) model.
//! * [`engine`] — vLLM-like continuous-batching discrete-event engine, plus
//!   the multi-replica `Cluster` with pluggable routing.
//! * [`datasets`] — the four synthetic evaluation workloads.
//! * [`profiler`] — the simulated LLM query profiler with confidence and
//!   feedback.
//! * [`metrics`] — token F1, latency/throughput summaries, dollar cost.
//! * [`core`] — Algorithm 1, the best-fit joint scheduler, the trait-based
//!   configuration controllers (METIS and the baselines), and the
//!   system-agnostic workload runner.
//!
//! ## Quickstart
//!
//! ```
//! use metis::prelude::*;
//!
//! // Build a small Musique-like workload and serve it with METIS.
//! let dataset = build_dataset(DatasetKind::Musique, 20, 7);
//! let arrivals = poisson_arrivals(1, 0.5, 20);
//! let run = Runner::new(
//!     &dataset,
//!     RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 42),
//! )
//! .run();
//! assert_eq!(run.per_query.len(), 20);
//! println!("mean F1 {:.3}, mean delay {:.2}s", run.mean_f1(), run.mean_delay_secs());
//! ```

pub use metis_core as core;
pub use metis_datasets as datasets;
pub use metis_embed as embed;
pub use metis_engine as engine;
pub use metis_llm as llm;
pub use metis_metrics as metrics;
pub use metis_profiler as profiler;
pub use metis_text as text;
pub use metis_vectordb as vectordb;

/// The most commonly used items, for `use metis::prelude::*`.
pub mod prelude {
    pub use metis_core::{
        choose_config, choose_config_with_slo, map_profile, plan_synthesis, BestFitInputs,
        LatencySlo, MetisOptions, PickPolicy, PrunedSpace, RagConfig, RetrievalModel, RunConfig,
        RunResult, Runner, SloTier, SynthesisMethod, SystemKind,
    };
    pub use metis_datasets::{
        build_dataset, build_dataset_with_index, build_dataset_with_spec, burst_arrivals,
        diurnal_arrivals, gamma_arrivals, poisson_arrivals, AnnConfig, AnnCorpus, ArrivalProcess,
        Complexity, Dataset, DatasetKind, QuerySpec, TrueProfile,
    };
    pub use metis_engine::{
        Cluster, Engine, EngineConfig, Priority, ReplicaId, RouterPolicy, SchedPolicy,
    };
    pub use metis_llm::{
        FleetSpec, GenModelConfig, GenerationModel, GpuCluster, LatencyModel, ModelSpec,
    };
    pub use metis_metrics::{f1_score, CostModel, LatencySummary};
    pub use metis_profiler::{EstimatedProfile, LlmProfiler, ProfilerKind};
    pub use metis_vectordb::{HnswConfig, IndexMeta, IndexSpec, Quantization, SearchWork};
}
