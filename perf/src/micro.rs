//! Per-layer micro-measurements: each hot operation exposed as a small
//! function that runs a fixed number of iterations and **returns its own
//! cost** (the `performance_counter` idiom). Nanosecond figures are the
//! minimum over [`BATCHES`] batches, not a mean, so a pre-empted batch
//! does not leak into the number. Only the traced run calls these.

use std::hint::black_box;
use std::time::Instant;

use metis_core::{Autoscaler, AutoscalerState, RunResult};
use metis_datasets::{build_dataset, poisson_arrivals, Dataset, DatasetKind};
use metis_engine::{KvAllocator, PrefixCache, RequestId};
use metis_llm::{GenerationModel, GpuCluster, LatencyModel, ModelSpec};
use metis_metrics::BenchReport;
use metis_text::{AnnotatedText, ChunkId, Chunker, ChunkerConfig, Tokenizer};
use metis_vectordb::ScalarQuantizer;

use crate::alloc;

/// Batches each measurement repeats; the minimum is reported.
pub const BATCHES: usize = 5;

/// Nanoseconds per unit of the fastest of [`BATCHES`] runs of `batch`,
/// which must do `units` units of work per call.
fn min_ns_per_unit(units: u64, mut batch: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best / units.max(1) as f64
}

/// A document of up to `chunks` consecutive chunks of `d`'s corpus.
fn document(d: &Dataset, chunks: usize) -> AnnotatedText {
    let mut doc = AnnotatedText::new();
    for i in 0..chunks.min(d.db.len()) {
        let text =
            d.db.store()
                .get(ChunkId(i as u32))
                .expect("dense chunk ids");
        doc.push_text(&text);
    }
    doc
}

/// `Tokenizer::encode` on corpus text, ns per token produced.
pub fn text_encode_ns_per_token(d: &Dataset) -> f64 {
    let doc = document(d, 32);
    let text = d.tokenizer.decode(doc.tokens());
    let tokens = doc.len() as u64;
    min_ns_per_unit(tokens, || {
        let mut tokenizer = Tokenizer::new();
        black_box(tokenizer.encode(black_box(&text)));
    })
}

/// `Chunker::split` at the dataset's chunk size, ns per input token.
pub fn text_chunk_ns_per_token(d: &Dataset) -> f64 {
    let doc = document(d, 32);
    let chunker = Chunker::new(ChunkerConfig::with_size(d.db.metadata().chunk_size));
    min_ns_per_unit(doc.len() as u64, || {
        black_box(chunker.split(black_box(&doc)));
    })
}

/// `Embedder::embed` over whole chunks: (ns per token, allocations per call).
pub fn embed_chunk(d: &Dataset) -> (f64, f64) {
    let n = 64.min(d.db.len());
    let chunks: Vec<AnnotatedText> = (0..n)
        .map(|i| {
            d.db.store()
                .get(ChunkId(i as u32))
                .expect("dense chunk ids")
        })
        .collect();
    let tokens: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    let embedder = d.db.embedder();
    let ns = min_ns_per_unit(tokens, || {
        for c in &chunks {
            black_box(embedder.embed(black_box(c.tokens())));
        }
    });
    let ((), allocs) = alloc::counted(|| {
        for c in &chunks {
            black_box(embedder.embed(black_box(c.tokens())));
        }
    });
    (ns, allocs as f64 / n.max(1) as f64)
}

/// `LatencyModel::iteration_time` over a spread of batch shapes, ns per call.
pub fn llm_iteration_time_ns() -> f64 {
    let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
    const CALLS: u64 = 200_000;
    min_ns_per_unit(CALLS, || {
        let mut acc = 0u64;
        for i in 0..CALLS {
            acc = acc.wrapping_add(lat.iteration_time(
                black_box(i % 2048),
                black_box(i % 8192),
                black_box(i % 64),
                black_box((i * 37) % 200_000),
            ));
        }
        black_box(acc);
    })
}

/// `GenerationModel::answer` over stuffed contexts of up to 8 chunks, ns
/// per call.
pub fn llm_answer_ns(d: &Dataset) -> f64 {
    let gen = GenerationModel::from_spec(&ModelSpec::mistral_7b_awq());
    let queries = &d.queries[..d.queries.len().min(64)];
    let contexts: Vec<(AnnotatedText, usize)> = queries
        .iter()
        .map(|q| {
            let got = d.db.retrieve(&q.tokens, 8);
            let mut ctx = AnnotatedText::new();
            for r in &got {
                ctx.push_text(&r.text);
            }
            ctx.push_tokens(&q.tokens);
            (ctx, got.len().max(1))
        })
        .collect();
    min_ns_per_unit(queries.len() as u64, || {
        for (i, (q, (ctx, segments))) in queries.iter().zip(&contexts).enumerate() {
            black_box(gen.answer(i as u64, &q.truth, ctx, &d.boilerplate, *segments));
        }
    })
}

/// One `KvAllocator` alloc → grow → free cycle, ns.
pub fn engine_kv_alloc_grow_free_ns() -> f64 {
    const CYCLES: u64 = 100_000;
    min_ns_per_unit(CYCLES, || {
        let mut kv = KvAllocator::new(1 << 20, 16);
        for i in 0..CYCLES {
            let seq = RequestId(i);
            kv.alloc(seq, 1_000 + i % 512).expect("pool has room");
            kv.grow(seq, 16).expect("pool has room");
            kv.free(seq).expect("allocated above");
        }
        black_box(kv.free_tokens());
    })
}

/// `PrefixCache::lookup_or_insert` over a working set twice the cache, ns
/// per lookup (hits, misses and evictions all occur).
pub fn engine_prefix_lookup_ns() -> f64 {
    const LOOKUPS: u64 = 100_000;
    min_ns_per_unit(LOOKUPS, || {
        let mut cache = PrefixCache::new(512 * 256);
        let mut acc = 0u64;
        for i in 0..LOOKUPS {
            let chunk = ChunkId(((i * 7) % 1024) as u32);
            acc += cache.lookup_or_insert(chunk, 512);
        }
        black_box(acc);
    })
}

/// `build_dataset` (Musique), seconds per thousand queries.
pub fn datasets_build_s_per_kquery(seed: u64) -> f64 {
    const QUERIES: usize = 100;
    let t = Instant::now();
    black_box(build_dataset(DatasetKind::Musique, QUERIES, seed));
    t.elapsed().as_secs_f64() * 1_000.0 / QUERIES as f64
}

/// `poisson_arrivals`, ns per generated arrival.
pub fn datasets_arrivals_ns_per_query(seed: u64) -> f64 {
    const N: usize = 100_000;
    min_ns_per_unit(N as u64, || {
        black_box(poisson_arrivals(black_box(seed), 1.0, N));
    })
}

/// `Autoscaler::evaluate` over a sweep of signals, ns per tick.
pub fn core_autoscale_eval_ns() -> f64 {
    const TICKS: u64 = 200_000;
    let policy = Autoscaler::default();
    min_ns_per_unit(TICKS, || {
        let mut state = AutoscalerState::default();
        for i in 0..TICKS {
            black_box(policy.evaluate(
                black_box(i * 1_000_000_000),
                black_box(1 + (i % 8) as usize),
                black_box(i % 16),
                black_box((i % 10) as f64 / 10.0),
                &mut state,
            ));
        }
    })
}

/// Report I/O costs of one run's result.
pub struct ReportCosts {
    /// `RunResult::cell_report`, ns per call.
    pub cell_report_ns: f64,
    /// `BenchReport::render`, ns per KiB rendered.
    pub render_ns_per_kb: f64,
    /// `BenchReport::parse`, ns per KiB parsed.
    pub parse_ns_per_kb: f64,
}

/// Builds, renders and parses a 16-cell report of `res`.
pub fn metrics_report(res: &RunResult) -> ReportCosts {
    const CELLS: u64 = 16;
    let cell_report_ns = min_ns_per_unit(CELLS, || {
        for i in 0..CELLS {
            black_box(res.cell_report(format!("cell-{i}"), i));
        }
    });
    let mut report = BenchReport::new("perf", "report I/O guard");
    for i in 0..CELLS {
        report.cells.push(res.cell_report(format!("cell-{i}"), i));
    }
    let text = report.render();
    let kb = text.len() as f64 / 1024.0;
    let render = min_ns_per_unit(1, || {
        black_box(report.render());
    });
    let parse = min_ns_per_unit(1, || {
        black_box(BenchReport::parse(black_box(&text)).expect("rendered report parses"));
    });
    ReportCosts {
        cell_report_ns,
        render_ns_per_kb: render / kb,
        parse_ns_per_kb: parse / kb,
    }
}

/// sq8 costs on the ANN corpus.
pub struct Sq8Costs {
    /// `ScalarQuantizer::train` + `encode` of every vector, seconds.
    pub train_encode_s: f64,
    /// `ScalarQuantizer::lut` for one query, ns.
    pub lut_build_ns: f64,
}

/// Trains the quantizer on `items`, encodes them all, and builds one
/// lookup table per query.
pub fn sq8(dim: usize, items: &[(ChunkId, Vec<f32>)], queries: &[Vec<f32>]) -> Sq8Costs {
    let t = Instant::now();
    let quantizer = ScalarQuantizer::train(dim, items.iter().map(|(_, v)| v.as_slice()));
    let mut codes = Vec::with_capacity(items.len() * dim);
    for (_, v) in items {
        quantizer.encode_into(v, &mut codes);
    }
    black_box(&codes);
    let train_encode_s = t.elapsed().as_secs_f64();
    let lut_build_ns = min_ns_per_unit(queries.len() as u64, || {
        for q in queries {
            black_box(quantizer.lut(black_box(q)));
        }
    });
    Sq8Costs {
        train_encode_s,
        lut_build_ns,
    }
}
