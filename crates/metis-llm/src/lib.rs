//! LLM inference simulator for the METIS reproduction.
//!
//! This crate replaces the paper's GPU testbed (AWQ-quantized Mistral-7B-v3 /
//! Llama-3.1-70B served by vLLM on NVIDIA A40s) with an analytical model that
//! preserves the three quantities METIS's decisions depend on:
//!
//! 1. **Memory** — KV-cache bytes per token, model weight footprint, and the
//!    per-request KV requirement the joint scheduler best-fits against (§4.3).
//! 2. **Latency** — FLOPs-bound prefill and bandwidth-bound decode as
//!    functions of token counts and batch composition, so queueing and
//!    batching dynamics reproduce the serving behaviour of the testbed.
//! 3. **Quality** — a *fact-extraction generation model*: an LLM call over a
//!    context extracts the facts planted in it with probabilities shaped by
//!    lost-in-the-middle position decay and context dilution, performs joint
//!    reasoning to derive cross-chunk conclusions, and emits a real token
//!    sequence that is scored with token-level F1 downstream.
//!
//! All randomness is drawn from per-call seeds, making every simulated
//! inference reproducible.

#![warn(unreachable_pub)]

mod clock;
mod generation;
mod hardware;
mod latency;
mod spec;
mod time;

pub use clock::WallClock;
pub use generation::{
    BaseFact, DerivedFact, GenModelConfig, GenOutput, GenerationModel, QueryTruth, SummaryOutput,
};
pub use hardware::{FleetSpec, GpuCluster, GpuSpec, ReplicaSpec};
pub use latency::LatencyModel;
pub use spec::{ModelKind, ModelSpec, Quantization};
pub use time::{nanos_to_secs, secs_to_nanos, Nanos};
