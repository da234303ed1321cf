//! METIS: the RAG controller (the paper's primary contribution).
//!
//! METIS is the first RAG system that adapts multiple configuration knobs on
//! a per-query basis *and* makes configuration and scheduling decisions
//! jointly. The controller has two stages (§4, Fig. 6/7):
//!
//! 1. **Configuration-space pruning** — an LLM profiler estimates each
//!    query's profile (`metis-profiler`); Algorithm 1 ([`map_profile`]) maps the
//!    profile to a *pruned space*: a set of candidate synthesis methods, a
//!    `num_chunks` range of `[n, 3n]`, and an `intermediate_length` range —
//!    a 50–100× reduction of the full combinatorial space while keeping
//!    quality high.
//! 2. **Joint configuration/scheduling** — the best-fit scheduler ([`choose_config`]) picks,
//!    from the pruned space, the configuration with the highest memory
//!    requirement *that fits the currently free GPU memory* (with a 2%
//!    safety buffer), falling back to a cheaper fitting configuration when
//!    nothing in the pruned space fits (§4.3).
//!
//! The crate also implements the three baselines the paper compares against
//! (vLLM with fixed configurations, Parrot\*, AdaptiveRAG\*). Like §7.1,
//! it builds them from METIS's own parts: one [`Controller`] serves all
//! four systems, told apart by a [`PickPolicy`] and an admission policy.
//! It also implements the workload runner ([`Runner`]) — a system- and
//! driver-agnostic event loop over the controller and an engine
//! [`Driver`](metis_engine::Driver) — that executes full workloads over the
//! serving engines (deterministic simulation, or the same paced by the wall
//! clock, per [`RunConfig::driver`]), producing measured F1, delay,
//! throughput, and cost.

#![warn(unreachable_pub)]

mod autoscaler;
mod baselines;
mod bestfit;
mod config;
mod controllers;
mod mapping;
mod memory;
mod retrieval;
mod runner;
mod slo;
pub mod synthesis;

pub use autoscaler::{Autoscaler, AutoscalerState, ScaleAction};
pub use baselines::fixed_config_grid;
pub use bestfit::{choose_config, BestFitInputs};
pub use config::{PrunedSpace, RagConfig, SynthesisMethod};
pub use controllers::{Controller, Decision, MetisOptions, PickPolicy, SystemKind};
pub use mapping::map_profile;
pub use memory::PlanDemand;
pub use metis_engine::DriverSpec;
pub use retrieval::RetrievalModel;
pub use runner::{QueryResult, RunConfig, RunResult, Runner, StageBreakdown, StageMeans};
pub use slo::{choose_config_with_slo, estimate_exec_secs, LatencySlo, SloTier};
pub use synthesis::{plan_synthesis, PlannedCall, SynthesisPlan};
