//! LLM query profiler simulation (§4.1, §5).
//!
//! METIS asks a profiler LLM (GPT-4o or Llama-3.1-70B) four questions about
//! each query: its complexity, whether joint reasoning is required, how many
//! pieces of information are needed, and how long chunk summaries should be.
//! The profiler sees only the query text and the database metadata — inputs
//! orders of magnitude shorter than the RAG context — so profiling is fast
//! (~1/10 of the end-to-end delay, Fig. 18) but *noisy*.
//!
//! This crate models the profiler at exactly that level: the estimate is the
//! ground-truth profile corrupted by model-dependent noise, accompanied by a
//! calibrated confidence score (the paper derives one from output
//! log-probs, Fig. 9) and priced/timed as an API call. The feedback loop of
//! §5 (one golden-config feedback prompt every 30 queries, keeping the last
//! four) shrinks the noise over time (Fig. 14).

#![warn(unreachable_pub)]

mod estimate;
mod profiler;

pub use estimate::EstimatedProfile;
pub use profiler::{LlmProfiler, ProfilerKind, ProfilerOutput};
