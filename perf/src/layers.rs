//! Layer replay of a serving pass.
//!
//! The untraced `Runner::run` yields each query's decisions; this module
//! re-issues, for the same queries in the same order, each layer's public
//! call with the arguments the run used — `profile` → `map_profile` →
//! `choose_config` → `retrieve_counted` (and beside it its parts: `embed`,
//! the index's `search_counted`, `store().get`) → `plan_synthesis` →
//! `f1_score` — recording one span per call. Because the replay sits
//! outside the program, anything it derives about the runner itself
//! (`core.runner_self_*`) is an attribution *estimate*: whole-pass wall
//! minus the replayed layers.

use metis_core::synthesis::SynthesisInputs;
use metis_core::{
    choose_config, map_profile, plan_synthesis, BestFitInputs, RetrievalModel, RunResult,
};
use metis_datasets::Dataset;
use metis_engine::Engine;
use metis_llm::{GenerationModel, LatencyModel};
use metis_metrics::f1_score;
use metis_profiler::{LlmProfiler, ProfilerKind};
use metis_text::ChunkId;
use metis_vectordb::{ChunkStore, FlatIndex, VectorIndex};

use crate::checks::Checks;
use crate::scenario::{plan_seed, Scenario};
use crate::trace::{Recorder, NONE};

/// The layer calls whose spans partition a query's replayed work. Their
/// summed duration is what a pass's wall time is attributed to.
pub const LAYER_CALLS: [&str; 6] = [
    "profiler.profile",
    "core.map_profile",
    "core.choose_config",
    "vectordb.retrieve_counted",
    "core.plan_synthesis",
    "metrics.f1_score",
];

/// A harness-owned copy of one dataset's index and chunk store, so the
/// parts of `retrieve_counted` can be timed on their own without touching
/// the database's tier counters or hot tier.
pub struct Shadow {
    index: FlatIndex,
    store: ChunkStore,
}

/// Builds the shadow of `d`: re-embeds every chunk into a flat f32 index
/// (what `VectorDb::build` does) over a clone of the cold store.
pub fn shadow(d: &Dataset) -> Shadow {
    let store = d.db.store().clone();
    let embedder = d.db.embedder();
    let mut index = FlatIndex::new(embedder.dim());
    for i in 0..store.len() {
        let id = ChunkId(i as u32);
        let text = store.get(id).expect("dense chunk ids");
        index.add(id, &embedder.embed(text.tokens()));
    }
    // A fresh clone again: the build above warmed the first one's hot tier.
    Shadow {
        index,
        store: d.db.store().clone(),
    }
}

/// Deterministic counts gathered by one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Queries replayed.
    pub queries: u64,
    /// Vectors the shadow flat scans scored.
    pub flat_vectors: u64,
    /// Chunks fetched from the shadow store.
    pub chunks: u64,
    /// `RetrievalModel::nanos` of every replayed retrieval, summed — the
    /// virtual time the model charges for the measured work.
    pub model_nanos: u64,
}

/// Expected final-answer tokens the METIS controller sizes memory with.
const EXPECTED_OUTPUT: u64 = 48;
/// §4.3's base safety buffer.
const BASE_BUFFER_FRAC: f64 = 0.02;

/// Replays every query of `results` layer by layer.
///
/// `choose_config` is sized against an *idle* replica's free KV (the
/// run's decision-time snapshot is not observable from outside); every
/// later layer uses the configuration the run actually executed, so
/// retrieval, synthesis and scoring repeat the run's work exactly — the
/// replayed F1 must equal the run's, and the shadow index must return the
/// database's hits.
pub fn replay(
    sc: &Scenario,
    results: &[RunResult],
    shadows: &[Shadow],
    rec: &mut Recorder,
    checks: &mut Checks,
) -> LayerCounts {
    let mut counts = LayerCounts::default();
    let model = RetrievalModel::default();
    let mut qid = 0u32;
    for (run, res) in sc.runs.iter().zip(results) {
        let d = &sc.datasets[run.dataset];
        let sh = &shadows[run.dataset];
        let cfg = &run.cfg;
        let gen = GenerationModel::new(&cfg.model, cfg.gen);
        let latency = LatencyModel::new(cfg.model.clone(), cfg.cluster);
        let free_kv_tokens = Engine::new(latency, cfg.engine).free_kv_tokens();
        let mut profiler = LlmProfiler::new(ProfilerKind::Gpt4o);
        let metadata = d.db.metadata();
        for q in &res.per_query {
            let query = &d.queries[q.query_index];
            let root = rec.open("query", NONE, qid);
            let prof = rec.span("profiler.profile", root, qid, || {
                profiler.profile(query, metadata, cfg.seed ^ 0xF0F1)
            });
            let space = rec.span("core.map_profile", root, qid, || {
                map_profile(&prof.estimate)
            });
            let chosen = rec.span("core.choose_config", root, qid, || {
                choose_config(
                    &space,
                    prof.estimate.joint,
                    &BestFitInputs {
                        free_kv_tokens,
                        chunk_size: metadata.chunk_size as u64,
                        query_tokens: query.tokens.len() as u64,
                        expected_output: EXPECTED_OUTPUT,
                        buffer_frac: BASE_BUFFER_FRAC,
                    },
                )
            });
            std::hint::black_box(chosen);

            let top_k = q.config.effective_chunks(d.db.len());
            let got = rec.span("vectordb.retrieve_counted", root, qid, || {
                d.db.retrieve_counted(&query.tokens, top_k)
            });
            let span = rec.last();
            rec.count(span, "vectors_scored", got.work.vectors_scored as u64);
            rec.count(span, "chunks", got.results.len() as u64);
            counts.model_nanos += model.nanos(&got.work, got.embed_units);

            // The same retrieval, part by part, on the shadow copy.
            let parts = rec.open("vectordb.retrieve_parts", root, qid);
            let qv = rec.span("embed.embed", parts, qid, || {
                d.db.embedder().embed(&query.tokens)
            });
            let found = rec.span("vectordb.flat.search_counted", parts, qid, || {
                sh.index.search_counted(&qv, top_k)
            });
            counts.flat_vectors += found.work.vectors_scored as u64;
            for hit in &found.hits {
                let text = rec.span("vectordb.store.get", parts, qid, || sh.store.get(hit.chunk));
                std::hint::black_box(text);
                counts.chunks += 1;
            }
            rec.close(parts);
            checks.require(
                found
                    .hits
                    .iter()
                    .map(|h| h.chunk)
                    .eq(got.results.iter().map(|r| r.hit.chunk)),
                "the shadow flat index returns the database's hits",
            );

            let plan = rec.span("core.plan_synthesis", root, qid, || {
                plan_synthesis(
                    &SynthesisInputs {
                        gen: &gen,
                        truth: &query.truth,
                        query_tokens: &query.tokens,
                        boilerplate: &d.boilerplate,
                    },
                    &q.config,
                    &got.results,
                    plan_seed(cfg.seed, q.query_index),
                )
            });
            let f1 = rec.span("metrics.f1_score", root, qid, || {
                f1_score(&plan.answer, &query.gold_answer())
            });
            rec.close(root);
            checks.require(f1 == q.f1, "the layer replay reproduces each query's F1");
            counts.queries += 1;
            qid += 1;
        }
    }
    counts
}
