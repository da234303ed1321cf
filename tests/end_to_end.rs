//! End-to-end integration tests spanning every crate: datasets → retrieval →
//! profiling → Algorithm 1 → best-fit → synthesis → engine → metrics.

use metis::prelude::*;

fn qps_for(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Squad => 1.6,
        DatasetKind::Musique => 0.55,
        DatasetKind::FinSec => 0.20,
        DatasetKind::Qmsum => 0.17,
    }
}

#[test]
fn metis_serves_every_dataset() {
    for kind in DatasetKind::all() {
        let dataset = build_dataset(kind, 25, 1234);
        let arrivals = poisson_arrivals(5, qps_for(kind), 25);
        let run = Runner::new(
            &dataset,
            RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 42),
        )
        .run();
        assert_eq!(run.per_query.len(), 25, "{kind:?}: lost queries");
        assert!(run.mean_f1() > 0.15, "{kind:?}: F1 {:.3}", run.mean_f1());
        assert!(
            run.mean_delay_secs() > 0.05 && run.mean_delay_secs() < 120.0,
            "{kind:?}: delay {:.2}",
            run.mean_delay_secs()
        );
    }
}

#[test]
fn per_query_adaptation_tracks_query_profiles() {
    // Simple single-piece queries should get cheap configs; complex
    // multi-piece ones should get deeper retrieval.
    let dataset = build_dataset(DatasetKind::FinSec, 40, 9);
    let arrivals = poisson_arrivals(3, 0.1, 40);
    let run = Runner::new(
        &dataset,
        RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 7),
    )
    .run();
    let mut small_pieces_chunks = Vec::new();
    let mut large_pieces_chunks = Vec::new();
    for r in &run.per_query {
        let pieces = dataset.queries[r.query_index].profile.pieces;
        if pieces <= 2 {
            small_pieces_chunks.push(r.config.num_chunks);
        } else if pieces >= 5 {
            large_pieces_chunks.push(r.config.num_chunks);
        }
    }
    if !small_pieces_chunks.is_empty() && !large_pieces_chunks.is_empty() {
        let mean = |v: &[u32]| v.iter().sum::<u32>() as f64 / v.len() as f64;
        assert!(
            mean(&large_pieces_chunks) > mean(&small_pieces_chunks),
            "deep queries should retrieve more: {:?} vs {:?}",
            large_pieces_chunks,
            small_pieces_chunks
        );
    }
}

#[test]
fn quality_comes_from_retrieval_not_luck() {
    // Break retrieval (query tokens unrelated to the corpus) and quality
    // must collapse: the pipeline's F1 is grounded in retrieved evidence.
    let dataset = build_dataset(DatasetKind::Squad, 15, 77);
    let genmodel = GenerationModel::from_spec(&ModelSpec::mistral_7b_awq());
    let mut good = 0.0;
    let mut broken = 0.0;
    for (i, q) in dataset.queries.iter().enumerate() {
        let inputs = metis::core::synthesis::SynthesisInputs {
            gen: &genmodel,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &dataset.boilerplate,
        };
        let cfg = RagConfig::stuff(3);
        let hit = dataset.db.retrieve(&q.tokens, 3);
        let miss = dataset
            .db
            .retrieve(&dataset.queries[(i + 7) % 15].tokens, 3);
        good += f1_score(
            &metis::core::plan_synthesis(&inputs, &cfg, &hit, i as u64).answer,
            &q.gold_answer(),
        );
        broken += f1_score(
            &metis::core::plan_synthesis(&inputs, &cfg, &miss, i as u64).answer,
            &q.gold_answer(),
        );
    }
    assert!(
        good > broken * 2.0 + 1.0,
        "retrieval not load-bearing: good {good:.2} vs broken {broken:.2}"
    );
}

#[test]
fn engine_accounting_is_conserved_across_a_full_run() {
    let dataset = build_dataset(DatasetKind::Musique, 30, 5);
    let arrivals = poisson_arrivals(2, 0.55, 30);
    let run = Runner::new(
        &dataset,
        RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 3),
    )
    .run();
    // Makespan bounds every per-query delay; finish times are plausible.
    for r in &run.per_query {
        assert!(r.finish_secs >= r.arrival_secs);
        assert!(r.delay_secs <= run.makespan_secs + 1e-6);
        assert!(r.profiler_secs < r.delay_secs);
    }
    // GPU can't be busy longer than the span of the run.
    assert!(run.gpu_busy_secs <= run.makespan_secs * 1.01 + 1.0);
}

#[test]
fn confidence_fallback_handles_forced_bad_profiles() {
    // With the noisier Llama profiler, low-confidence profiles appear; the
    // run must still complete with reasonable quality (§5 fallback).
    let dataset = build_dataset(DatasetKind::Musique, 40, 21);
    let mut opts = MetisOptions::full();
    opts.profiler = ProfilerKind::Llama70b;
    let arrivals = poisson_arrivals(4, 0.55, 40);
    let run = Runner::new(
        &dataset,
        RunConfig::standard(SystemKind::Metis(opts), arrivals, 13),
    )
    .run();
    assert_eq!(run.per_query.len(), 40);
    assert!(run.mean_f1() > 0.15, "F1 {:.3}", run.mean_f1());
}

#[test]
fn memory_starvation_exercises_the_fallback_path() {
    // Shrink the KV pool until the pruned space cannot fit: METIS must fall
    // back (§4.3) rather than queue or deadlock.
    let dataset = build_dataset(DatasetKind::FinSec, 20, 31);
    let mut cfg = RunConfig::standard(
        SystemKind::Metis(MetisOptions::full()),
        poisson_arrivals(2, 0.1, 20),
        5,
    );
    cfg.engine.kv_pool_bytes_cap = Some(600 * 1024 * 1024); // 0.6 GB ≈ 4.8k tokens.
    let run = Runner::new(&dataset, cfg).run();
    assert_eq!(run.per_query.len(), 20, "queries lost under starvation");
    let fallbacks = run.per_query.iter().filter(|q| q.fallback).count();
    assert!(fallbacks > 0, "starvation never triggered the fallback");
    // Fallback configs are genuinely small.
    for r in run.per_query.iter().filter(|q| q.fallback) {
        assert!(r.config.num_chunks <= 4, "fallback too big: {:?}", r.config);
    }
}

#[test]
fn gold_answers_are_recoverable_at_the_oracle_config() {
    // With the oracle profile and generous resources, METIS-style synthesis
    // should reach materially higher F1 than the worst configuration.
    let dataset = build_dataset(DatasetKind::Qmsum, 20, 55);
    let genmodel = GenerationModel::from_spec(&ModelSpec::mistral_7b_awq());
    let mut best = 0.0;
    let mut worst = 0.0;
    for (i, q) in dataset.queries.iter().enumerate() {
        let inputs = metis::core::synthesis::SynthesisInputs {
            gen: &genmodel,
            truth: &q.truth,
            query_tokens: &q.tokens,
            boilerplate: &dataset.boilerplate,
        };
        let k = q.profile.pieces * 2;
        let good_cfg = RagConfig::map_reduce(k, q.profile.summary_range.1);
        let bad_cfg = RagConfig::map_rerank(1);
        let retrieved = dataset.db.retrieve(&q.tokens, k as usize);
        best += f1_score(
            &metis::core::plan_synthesis(&inputs, &good_cfg, &retrieved, i as u64).answer,
            &q.gold_answer(),
        );
        worst += f1_score(
            &metis::core::plan_synthesis(&inputs, &bad_cfg, &retrieved[..1], i as u64).answer,
            &q.gold_answer(),
        );
    }
    assert!(
        best > worst + 4.0,
        "config choice not load-bearing: best {best:.1} worst {worst:.1} over 20 queries"
    );
}

const GIB: f64 = (1u64 << 30) as f64;

fn median_pick() -> SystemKind {
    let mut opts = MetisOptions::full();
    opts.pick = PickPolicy::Median;
    SystemKind::Metis(opts)
}

/// The median pick on FinSec with a 1 GiB KV pool (8 192 tokens) plans calls
/// that no replica of that size could ever admit. Submitted, such a call
/// waited forever and the run panicked ("replica 0 stuck: queued=1
/// running=0 free_kv=8192"); now its query is rejected before anything of
/// it is submitted, and the rest of the run is served.
#[test]
fn a_query_no_kv_pool_can_hold_is_rejected_instead_of_panicking() {
    let dataset = build_dataset(DatasetKind::FinSec, 40, 20_241_016);
    let mut cfg = RunConfig::standard(median_pick(), poisson_arrivals(99, 0.2, 40), 99);
    cfg.engine.kv_pool_bytes_cap = Some(1 << 30);
    let run = Runner::new(&dataset, cfg).run();
    assert!(run.rejected > 0, "the cap must reject some median picks");
    assert!(
        !run.per_query.is_empty(),
        "the cap must admit some median picks"
    );
    assert_eq!(run.per_query.len() + run.rejected, 40);
    let cell = run.cell_report("finsec-median-1gib", 99);
    assert_eq!(cell.queries as usize, run.per_query.len());
    assert_eq!(cell.extra_metric("rejected"), Some(run.rejected as f64));

    // The §5 golden feedback run, due at the 30th query: its reduce call
    // needs 150 KV blocks of a 256 MiB pool's 128, so it is never submitted
    // (submitted, it would stall its replica's queue for good).
    let mut feedback = MetisOptions::full();
    feedback.feedback = true;
    let mut cfg = RunConfig::standard(
        SystemKind::Metis(feedback),
        poisson_arrivals(99, 0.2, 40),
        99,
    );
    cfg.engine.kv_pool_bytes_cap = Some(1 << 28);
    let run = Runner::new(&dataset, cfg).run();
    assert_eq!(run.per_query.len() + run.rejected, 40);
}

/// Every system on every dataset under KV caps from 0.5 to 12 GiB, with all
/// queries arriving at once, so that free KV is far below capacity while
/// they contend: every run ends, and each query is answered or rejected.
/// Rejection depends on the pool's capacity, never on what is free: at the
/// default 12 GiB, which holds any one call, nothing is rejected, and a
/// fixed configuration, whose plans do not depend on load, rejects the same
/// queries served all at once as one at a time.
#[test]
fn every_system_answers_or_rejects_every_query_under_every_kv_cap() {
    const QUERIES: usize = 8;
    let systems = [
        SystemKind::Metis(MetisOptions::full()),
        median_pick(),
        SystemKind::VllmFixed {
            config: RagConfig::stuff(12),
        },
        SystemKind::Parrot {
            config: RagConfig::map_reduce(8, 100),
        },
        SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Gpt4o,
        },
    ];
    let mut rejected = 0;
    for kind in DatasetKind::all() {
        let dataset = build_dataset(kind, QUERIES, 20_241_016);
        for system in systems {
            for cap_gib in [0.5, 1.0, 2.0, 4.0, 12.0] {
                let serve = |closed_loop| {
                    let mut cfg = RunConfig::standard(system, vec![0; QUERIES], 99);
                    cfg.engine.kv_pool_bytes_cap = Some((cap_gib * GIB) as u64);
                    cfg.closed_loop = closed_loop;
                    Runner::new(&dataset, cfg).run()
                };
                let run = serve(false);
                let cell = format!("{kind:?} / {system:?} at {cap_gib} GiB");
                assert_eq!(run.per_query.len() + run.rejected, QUERIES, "{cell}");
                if cap_gib == 12.0 {
                    assert_eq!(run.rejected, 0, "{cell}");
                }
                if matches!(
                    system,
                    SystemKind::VllmFixed { .. } | SystemKind::Parrot { .. }
                ) {
                    assert_eq!(serve(true).rejected, run.rejected, "{cell}, one at a time");
                }
                rejected += run.rejected;
            }
        }
    }
    assert!(rejected > 0, "the small caps must reject something");
}

/// Prefix-aware routing re-routes each query, once its chunks are
/// retrieved, to the routable replica whose chunk-KV cache holds the most of
/// the chunks it reads. With repeated chunk access across queries it must
/// not lose cache hits against memory-only routing. Then an elastic fleet
/// over one-token chunks, so that one cached token is a whole overlap: a
/// burst that grows the fleet past one replica, then a trickle after it has
/// shrunk back. While the replica a chunk was first served on takes routes,
/// every repeat of that chunk goes there; once the fleet is its first
/// replica again (a scale-down drains the newest slot), every query goes
/// there, even one whose chunk only a drained replica's cache holds.
#[test]
fn prefix_aware_routing_beats_least_kv_on_cache_hits() {
    use metis::engine::RouterPolicy;
    let n = 36;
    let d = build_dataset(DatasetKind::Squad, n, 2024);
    let go = |router: RouterPolicy| {
        let arrivals = poisson_arrivals(7, qps_for(DatasetKind::Squad), n);
        let mut cfg = RunConfig::standard(SystemKind::Metis(MetisOptions::full()), arrivals, 99)
            .replicated(3, router);
        cfg.prefix_cache_bytes = Some(1 << 30);
        Runner::new(&d, cfg).run()
    };
    let aware = go(RouterPolicy::PrefixAware);
    let least = go(RouterPolicy::LeastKvLoad);
    assert_eq!(aware.per_query.len(), n);
    assert!(aware.prefix_hit_rate > 0.0, "repeats must hit the cache");
    assert!(
        aware.prefix_hit_rate >= least.prefix_hit_rate,
        "prefix-aware hit rate {:.3} < least-kv {:.3}",
        aware.prefix_hit_rate,
        least.prefix_hit_rate
    );
    // Routing changes placement, never answers.
    assert!((aware.mean_f1() - least.mean_f1()).abs() < 0.05);

    // Eight one-token chunks. The burst reads chunks 0-3, then 4-7 once
    // the fleet has grown; the trickle, two minutes on, reads all eight.
    let (burst, trickle) = (96, 16);
    let mut d = build_dataset(DatasetKind::Squad, burst + trickle, 2024);
    let mut words: Vec<_> = d.queries.iter().flat_map(|q| q.tokens.clone()).collect();
    words.sort_unstable();
    words.dedup();
    words.truncate(8);
    let mut doc = metis::text::AnnotatedText::new();
    doc.push_tokens(&words);
    let chunks = metis::text::Chunker::new(metis::text::ChunkerConfig::with_size(1)).split(&doc);
    let embedder = std::sync::Arc::new(metis::embed::HashEmbed::default());
    d.db = metis::vectordb::VectorDb::build(&chunks, embedder, "one-token chunks", 1);
    let chunk_of = |i: usize| match i {
        _ if i < burst / 2 => i % 4,
        _ if i < burst => 4 + i % 4,
        _ => (i - burst) % 8,
    };
    for (i, q) in d.queries.iter_mut().enumerate() {
        q.tokens = vec![words[chunk_of(i)]];
    }
    let mut arrivals: Vec<u64> = (0..burst as u64).map(|i| i * 10_000_000).collect();
    arrivals.extend((0..trickle as u64).map(|i| 120_000_000_000 + i * 10_000_000_000));
    let mut cfg = RunConfig::standard(
        SystemKind::VllmFixed {
            config: RagConfig::stuff(1),
        },
        arrivals,
        99,
    )
    .with_autoscale(metis::core::Autoscaler {
        max_replicas: 3,
        scale_up_queue_depth: 2,
        eval_interval_nanos: 250_000_000,
        cooldown_nanos: 1_000_000_000,
        warmup_nanos: 250_000_000,
        ..metis::core::Autoscaler::default()
    });
    cfg.router = RouterPolicy::PrefixAware;
    cfg.engine.max_batch_seqs = 1;
    cfg.prefix_cache_bytes = Some(1 << 30);
    let run = Runner::new(&d, cfg).run();
    assert_eq!(run.per_query.len(), burst + trickle);
    let mut home = [None; 8];
    for q in &run.per_query[..burst] {
        let chunk = chunk_of(q.query_index);
        let first = *home[chunk].get_or_insert(q.replica);
        assert_eq!(
            q.replica, first,
            "query {} left chunk {chunk}'s replica",
            q.query_index
        );
    }
    assert!(
        home.iter().any(|&r| r > Some(0)),
        "no chunk was first served off replica 0"
    );
    for q in &run.per_query[burst..] {
        assert_eq!(
            q.replica, 0,
            "query {} after the fleet shrank",
            q.query_index
        );
    }
}
