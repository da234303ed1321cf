//! Property-based tests (proptest) on the core data structures and
//! invariants.

use proptest::prelude::*;

use metis::core::{
    choose_config, BestFitInputs, PlanDemand, PrunedSpace, RagConfig, SynthesisMethod,
};
use metis::datasets::Complexity;
use metis::datasets::{AnnConfig, AnnCorpus};
use metis::engine::{
    Engine, EngineConfig, GroupId, KvAllocator, LlmRequest, Priority, RequestId, Stage,
};
use metis::llm::{GenerationModel, GpuCluster, LatencyModel, ModelSpec};
use metis::metrics::f1_score;
use metis::text::{AnnotatedText, Chunker, ChunkerConfig, TokenId};
use metis::vectordb::{
    ChunkStore, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization,
    ScalarQuantizer, VectorIndex,
};

fn tokens(ids: &[u32]) -> Vec<TokenId> {
    ids.iter().map(|&i| TokenId(i)).collect()
}

proptest! {
    /// F1 is always in [0, 1] and symmetric.
    #[test]
    fn f1_bounded_and_symmetric(a in prop::collection::vec(0u32..50, 0..40),
                                b in prop::collection::vec(0u32..50, 0..40)) {
        let (ta, tb) = (tokens(&a), tokens(&b));
        let f = f1_score(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((f - f1_score(&tb, &ta)).abs() < 1e-12);
        // Identity gives a perfect score.
        prop_assert_eq!(f1_score(&ta, &ta), 1.0);
    }

    /// The chunker partitions documents exactly when overlap is zero:
    /// every token appears once, in order.
    #[test]
    fn chunker_partitions_exactly(n in 1usize..2000, size in 1usize..300) {
        let mut doc = AnnotatedText::new();
        doc.push_tokens(&(0..n as u32).map(TokenId).collect::<Vec<_>>());
        let chunks = Chunker::new(ChunkerConfig::with_size(size)).split(&doc);
        let mut rebuilt = Vec::new();
        for c in &chunks {
            rebuilt.extend_from_slice(c.text.tokens());
        }
        prop_assert_eq!(rebuilt, doc.tokens().to_vec());
        // All chunks except the last are exactly `size` tokens.
        for c in &chunks[..chunks.len() - 1] {
            prop_assert_eq!(c.text.len(), size);
        }
    }

    /// KV allocator conservation: after any interleaving of allocs and
    /// frees, used + free equals capacity and nothing is lost.
    #[test]
    fn kv_allocator_conserves_blocks(ops in prop::collection::vec((0u64..20, 1u64..2000), 1..60)) {
        let mut alloc = KvAllocator::new(10_000, 16);
        let capacity = alloc.capacity_tokens();
        let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (seq, toks) in ops {
            if live.contains(&seq) {
                prop_assert!(alloc.free(RequestId(seq)).is_ok());
                live.remove(&seq);
            } else if alloc.alloc(RequestId(seq), toks).is_ok() {
                live.insert(seq);
            }
            prop_assert_eq!(alloc.used_tokens() + alloc.free_tokens(), capacity);
        }
        for seq in live {
            prop_assert!(alloc.free(RequestId(seq)).is_ok());
        }
        prop_assert_eq!(alloc.free_tokens(), capacity);
    }

    /// Flat index top-k equals brute force on arbitrary data.
    #[test]
    fn flat_index_matches_brute_force(
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 4), 1..60),
        q in prop::collection::vec(-10.0f32..10.0, 4),
        k in 1usize..10,
    ) {
        let mut idx = FlatIndex::new(4);
        for (i, r) in rows.iter().enumerate() {
            idx.add(metis::text::ChunkId(i as u32), r);
        }
        let hits = idx.search(&q, k);
        let mut brute: Vec<(f32, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let d: f32 = r.iter().zip(&q).map(|(x, y)| (x - y) * (x - y)).sum();
                (d.sqrt(), i as u32)
            })
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(hits.len(), k.min(rows.len()));
        let brute_of = |id: u32| brute.iter().find(|b| b.1 == id).map(|b| b.0);
        let mut ids: Vec<u32> = hits.iter().map(|h| h.chunk.0).collect();
        for (h, (d, id)) in hits.iter().zip(&brute) {
            prop_assert!((h.distance - d).abs() < 1e-4);
            // The kernel sums in another order than `brute`, so two ids may
            // only swap when their distances tie to within rounding.
            let swapped_tie = brute_of(h.chunk.0).is_some_and(|b| (b - d).abs() < 1e-4);
            prop_assert!(h.chunk.0 == *id || swapped_tie, "{:?} at {} vs {}", h.chunk, d, id);
        }
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len());
    }

    /// IVF recall@k against the exact flat index is monotone non-decreasing
    /// in `nprobe` (probing more lists only grows the candidate set),
    /// reaches exactly 1.0 at `nprobe == nlist` (every list probed = the
    /// full scan under the same tie-break order), and the probed search
    /// work never exceeds the full-scan work of the same query.
    #[test]
    fn ivf_recall_monotone_in_nprobe(
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 4), 8..64),
        q in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        let k = 5usize;
        let items: Vec<(metis::text::ChunkId, Vec<f32>)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (metis::text::ChunkId(i as u32), r.clone()))
            .collect();
        let mut flat = FlatIndex::new(4);
        for (id, v) in &items {
            flat.add(*id, v);
        }
        let gold: std::collections::HashSet<_> =
            flat.search(&q, k).into_iter().map(|h| h.chunk).collect();
        let nlist = 4usize;
        let mut prev = 0.0f64;
        for nprobe in 1..=nlist {
            // Same items and training schedule → identical centroids; only
            // the probe depth differs between the builds.
            let idx = IvfIndex::build(4, IvfConfig { nlist, nprobe, train_iters: 4 }, &items);
            let out = idx.search_counted(&q, k);
            let hit = out.hits.iter().filter(|h| gold.contains(&h.chunk)).count();
            let recall = hit as f64 / gold.len() as f64;
            prop_assert!(
                recall >= prev - 1e-12,
                "recall dropped from {prev:.3} to {recall:.3} at nprobe {nprobe}"
            );
            prev = recall;
            prop_assert!(out.work.vectors_scored <= items.len());
            prop_assert!(out.work.lists_probed == nprobe);
            if nprobe == nlist {
                prop_assert!((recall - 1.0).abs() < 1e-12, "full probe recall {recall}");
                prop_assert_eq!(out.work.vectors_scored, items.len());
            }
        }
    }

    /// Best-fit never selects a non-fallback configuration whose scheduling
    /// footprint exceeds the usable free memory.
    #[test]
    fn best_fit_respects_memory(free in 0u64..80_000,
                                lo in 1u32..8, span in 0u32..10,
                                slo in 10u32..100, sspan in 0u32..100,
                                joint in any::<bool>()) {
        let space = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (lo, lo + span),
            intermediate_length: (slo, slo + sspan),
        };
        let inputs = BestFitInputs {
            free_kv_tokens: free,
            chunk_size: 512,
            query_tokens: 40,
            expected_output: 48,
            buffer_frac: 0.02,
        };
        let chosen = choose_config(&space, joint, &inputs);
        if !chosen.fallback {
            prop_assert!(space.contains(&chosen.config));
            let d = PlanDemand::estimate(&chosen.config, 512, 40, 48);
            prop_assert!(d.sched_tokens <= inputs.usable());
        }
        prop_assert!(chosen.config.num_chunks >= 1);
    }

    /// Pruned-space candidate enumeration only yields members of the space.
    #[test]
    fn candidates_are_members(lo in 1u32..10, span in 0u32..8,
                              slo in 1u32..150, sspan in 0u32..150) {
        let space = PrunedSpace {
            methods: vec![
                SynthesisMethod::MapRerank,
                SynthesisMethod::Stuff,
                SynthesisMethod::MapReduce,
            ],
            num_chunks: (lo, lo + span),
            intermediate_length: (slo, slo + sspan),
        };
        for c in space.candidates() {
            prop_assert!(space.contains(&c), "{c:?} outside {space:?}");
        }
    }

    /// Engine: any batch of requests drains completely, the clock is
    /// monotone, and KV returns to full.
    #[test]
    fn engine_drains_any_workload(reqs in prop::collection::vec(
        (1u64..4000, 1u64..40, 0u64..2_000_000_000u64), 1..25)) {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let mut engine = Engine::new(lat, EngineConfig::default());
        let capacity = engine.kv_capacity_tokens();
        for (i, (prompt, out, arrival)) in reqs.iter().enumerate() {
            engine.submit(LlmRequest {
                id: RequestId(i as u64),
                group: GroupId(i as u64),
                stage: Stage::Single,
                prompt_tokens: *prompt,
                output_tokens: *out,
                cached_prompt_tokens: 0,
                arrival: *arrival,
                priority: Priority::Standard,
            });
        }
        let done = engine.run_until_idle();
        prop_assert_eq!(done.len(), reqs.len());
        prop_assert_eq!(engine.free_kv_tokens(), capacity);
        let mut last = 0;
        for c in &done {
            prop_assert!(c.finish >= last);
            last = c.finish;
            prop_assert!(c.finish > c.arrival);
        }
    }

    /// Plan demand is monotone in chunks for every method.
    #[test]
    fn demand_monotone_in_chunks(k in 1u32..34, ilen in 1u32..300) {
        for method in SynthesisMethod::all() {
            let a = PlanDemand::estimate(
                &RagConfig { num_chunks: k, synthesis: method, intermediate_length: ilen },
                512, 40, 48);
            let b = PlanDemand::estimate(
                &RagConfig { num_chunks: k + 1, synthesis: method, intermediate_length: ilen },
                512, 40, 48);
            prop_assert!(b.total_tokens > a.total_tokens);
            prop_assert!(b.sched_tokens >= a.sched_tokens);
        }
    }
}

/// Chunk, query and answer tokens of the best-fit grid. One `map_rerank`
/// call costs two chunks, so `map_rerank(k)` ties `stuff(2k - 1)` in
/// `total_tokens`.
const GRID_TOKENS: (u64, u64, u64) = (120, 40, 48);

/// A candidate of the grid with its demand and estimated seconds.
type GridCandidate = (RagConfig, PlanDemand, f64);

fn grid_demand(config: &RagConfig) -> PlanDemand {
    let (chunk, query, output) = GRID_TOKENS;
    PlanDemand::estimate(config, chunk, query, output)
}

/// The decision best-fit must make, by brute force over a space's
/// candidates (in their order), and whether its maximum is tied.
fn brute_force_best_fit(
    cands: &[GridCandidate],
    max_chunks: u32,
    joint: bool,
    usable: u64,
    budget: Option<f64>,
) -> ((RagConfig, bool), bool) {
    let meets = |secs: f64| budget.is_none_or(|b| secs <= b);
    if !cands.iter().any(|c| meets(c.2)) {
        // An infeasible budget: the first of the cheapest estimates.
        let cheapest = cands.iter().reduce(|a, b| if b.2 < a.2 { b } else { a });
        return ((cheapest.expect("non-empty space").0, true), false);
    }
    let eligible: Vec<&GridCandidate> = cands
        .iter()
        .filter(|(_, d, secs)| meets(*secs) && d.sched_tokens <= usable)
        .collect();
    if let Some(top) = eligible.iter().map(|c| c.1.total_tokens).max() {
        let mut best = eligible.iter().filter(|c| c.1.total_tokens == top);
        let first = best.next().expect("a maximum").0;
        return ((first, false), best.next().is_some());
    }
    // §4.3's fallback: the most chunks up to the range's top whose whole plan
    // fits, else one; so it fits whenever its one-chunk plan does.
    let method: fn(u32) -> RagConfig = if joint {
        RagConfig::stuff
    } else {
        RagConfig::map_rerank
    };
    let k = (1..=max_chunks)
        .rev()
        .find(|&k| grid_demand(&method(k)).total_tokens <= usable);
    ((method(k.unwrap_or(1)), true), false)
}

/// Every decision the best-fit chooser can make over a small grid, against
/// the brute-force oracle: each `PrunedSpace` over one or two methods (both
/// orders), chunk ranges inside 1..=6 and two summary ranges; free KV at and
/// one token either side of every candidate's `sched_tokens / 0.98`; no
/// budget, a zero budget and a budget at every candidate's estimate; both
/// `joint_required` values.
#[test]
fn best_fit_is_the_first_argmax_of_what_fits_and_meets_the_budget() {
    use metis::core::{choose_config_with_slo, estimate_exec_secs, LatencySlo};
    let (chunk, query, output) = GRID_TOKENS;
    let latency = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
    let all = [
        SynthesisMethod::Stuff,
        SynthesisMethod::MapRerank,
        SynthesisMethod::MapReduce,
    ];
    let mut method_lists: Vec<Vec<SynthesisMethod>> = all.iter().map(|&m| vec![m]).collect();
    for a in all {
        method_lists.extend(all.iter().filter(|&&b| b != a).map(|&b| vec![a, b]));
    }
    let mut spaces = Vec::new();
    for methods in &method_lists {
        for (lo, hi) in (1..=6).flat_map(|lo| (lo..=6).map(move |hi| (lo, hi))) {
            for lengths in [(16, 16), (40, 200)] {
                spaces.push(PrunedSpace {
                    methods: methods.clone(),
                    num_chunks: (lo, hi),
                    intermediate_length: lengths,
                });
            }
        }
    }
    let (mut decisions, mut ties) = (0usize, 0usize);
    for space in &spaces {
        let cands: Vec<GridCandidate> = space
            .candidates()
            .into_iter()
            .map(|c| {
                let secs = estimate_exec_secs(&c, &latency, chunk, query, output);
                (c, grid_demand(&c), secs)
            })
            .collect();
        let mut frees = vec![0];
        for (_, d, _) in &cands {
            let f = (d.sched_tokens as f64 / 0.98) as u64;
            frees.extend([f - 1, f, f + 1]);
        }
        frees.sort_unstable();
        frees.dedup();
        let mut estimates: Vec<f64> = cands.iter().map(|c| c.2).collect();
        estimates.sort_by(f64::total_cmp);
        estimates.dedup();
        let budgets: Vec<Option<f64>> = [None, Some(0.0)]
            .into_iter()
            .chain(estimates.into_iter().map(Some))
            .collect();
        for (joint, budget) in [false, true]
            .into_iter()
            .flat_map(|joint| budgets.iter().map(move |&budget| (joint, budget)))
        {
            let mut last_total = 0;
            for &free in &frees {
                let inputs = BestFitInputs {
                    free_kv_tokens: free,
                    chunk_size: chunk,
                    query_tokens: query,
                    expected_output: output,
                    buffer_frac: 0.02,
                };
                let got = match budget {
                    None => choose_config(space, joint, &inputs),
                    Some(b) => {
                        choose_config_with_slo(space, joint, &inputs, &latency, LatencySlo(b))
                    }
                };
                let usable = (free as f64 * 0.98) as u64;
                let (want, tied) =
                    brute_force_best_fit(&cands, space.num_chunks.1, joint, usable, budget);
                assert_eq!(
                    (got.config, got.fallback),
                    want,
                    "{space:?} joint {joint} free {free} budget {budget:?}"
                );
                // More memory never buys a cheaper plan.
                let total = grid_demand(&got.config).total_tokens;
                assert!(
                    total >= last_total,
                    "{space:?} joint {joint} free {free} budget {budget:?}: {total} < {last_total}"
                );
                last_total = total;
                decisions += 1;
                ties += usize::from(tied);
            }
        }
    }
    eprintln!("{decisions} decisions, {ties} with tied maxima");
    assert!(ties > 0, "the grid must exercise the tie-break");
}

proptest! {
    /// The prefix cache never exceeds capacity and conserves accounting
    /// across arbitrary lookup sequences.
    #[test]
    fn prefix_cache_respects_capacity(cap in 100u64..5_000,
                                      ops in prop::collection::vec(0u32..30, 1..80)) {
        let mut cache = metis::engine::PrefixCache::new(cap);
        for chunk in ops {
            // A chunk's token count is a stable property of the chunk.
            let toks = 50 + u64::from(chunk) * 17;
            let cached = cache.lookup_or_insert(metis::text::ChunkId(chunk), toks);
            prop_assert!(cached == 0 || cached == toks);
            prop_assert!(cache.used_tokens() <= cap);
        }
        let rate = cache.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
    }

    /// Requests with cached prefixes finish no later than cold ones.
    #[test]
    fn cached_prefix_never_slows_a_request(prompt in 500u64..8_000, frac in 0u64..100) {
        let mk = |cached: u64| {
            let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
            let mut e = Engine::new(lat, EngineConfig::default());
            e.submit(LlmRequest {
                id: RequestId(1),
                group: GroupId(1),
                stage: Stage::Single,
                prompt_tokens: prompt,
                output_tokens: 5,
                cached_prompt_tokens: cached,
                arrival: 0,
                priority: Priority::Standard,
            });
            e.run_until_idle()[0].finish
        };
        let cold = mk(0);
        let warm = mk(prompt * frac / 100);
        prop_assert!(warm <= cold, "warm {warm} > cold {cold}");
    }

    /// Summaries never exceed their budget, whatever the budget.
    #[test]
    fn summary_budget_is_hard(budget in 1usize..300, pad in 0usize..2_000, seed in 0u64..50) {
        use metis::llm::{BaseFact, QueryTruth};
        use metis::text::FactId;
        let gen = GenerationModel::from_spec(&ModelSpec::mistral_7b_awq());
        let mut chunk = AnnotatedText::new();
        chunk.push_tokens(&vec![TokenId(1); pad / 2]);
        chunk.push_fact(FactId(1), &[TokenId(2), TokenId(3), TokenId(4)]);
        chunk.push_tokens(&vec![TokenId(1); pad / 2]);
        let truth = QueryTruth {
            base: vec![BaseFact { id: FactId(1), answer: vec![TokenId(2)], in_answer: true }],
            derived: vec![],
        };
        let out = gen.summarize(seed, &truth, &chunk, budget);
        prop_assert!(out.text.len() <= budget, "summary {} > budget {budget}", out.text.len());
    }

    /// HNSW recall@k on the planted ANN corpus is monotone non-decreasing
    /// in `ef_search` — layer-0 expansion order is `ef`-independent, so
    /// the candidate pools at growing budgets nest, and since the gold set
    /// is the exact global top-k no newcomer can displace a gold hit — and
    /// at equal (or IVF-favoring) reported distance work, HNSW recall is
    /// at least IVF's.
    #[test]
    fn hnsw_recall_monotone_in_ef_and_at_least_ivf_at_equal_work(
        n in 240usize..600, seed in 0u64..10_000,
    ) {
        let corpus = AnnCorpus::generate(AnnConfig {
            num_queries: 4,
            ..AnnConfig::at_scale(n, seed)
        });
        let k = corpus.config.k;
        let hnsw = HnswIndex::build(
            corpus.config.dim,
            HnswConfig::default(),
            Quantization::F32,
            &corpus.items,
        );
        let mut hnsw_work = 0usize;
        let mut hnsw_recall = 0.0f64;
        for q in &corpus.queries {
            let mut prev = 0.0f64;
            for ef in [4usize, 16, 64] {
                let out = hnsw.search_with_ef(&q.vector, k, ef);
                let ids: Vec<_> = out.hits.iter().map(|h| h.chunk).collect();
                let recall = AnnCorpus::recall(&q.gold, &ids);
                prop_assert!(
                    recall >= prev - 1e-12,
                    "recall fell {prev:.3} → {recall:.3} raising ef to {ef}"
                );
                prev = recall;
                if ef == 64 {
                    hnsw_work += out.work.distances();
                    hnsw_recall += recall;
                }
            }
        }
        // Walk IVF's work curve up to the first probe depth whose reported
        // distance work matches or exceeds HNSW's: same total budget (or
        // more, favoring IVF), HNSW must not recall less.
        let nlist = 16usize;
        let mut ivf_recall = 0.0f64;
        for nprobe in 1..=nlist {
            let ivf = IvfIndex::build(
                corpus.config.dim,
                IvfConfig { nlist, nprobe, train_iters: 4 },
                &corpus.items,
            );
            let mut work = 0usize;
            ivf_recall = 0.0;
            for q in &corpus.queries {
                let out = ivf.search_counted(&q.vector, k);
                let ids: Vec<_> = out.hits.iter().map(|h| h.chunk).collect();
                ivf_recall += AnnCorpus::recall(&q.gold, &ids);
                work += out.work.distances();
            }
            if work >= hnsw_work {
                break;
            }
        }
        prop_assert!(
            hnsw_recall >= ivf_recall - 1e-9,
            "HNSW recall {hnsw_recall:.3} below IVF {ivf_recall:.3} at equal work"
        );
    }

    /// sq8 round-trip: `decode(encode(x))` is within half a quantization
    /// step of `x` on every dimension, for any corpus the quantizer was
    /// trained on (degenerate constant dims reconstruct exactly).
    #[test]
    fn sq8_roundtrip_error_bounded_by_step(
        rows in prop::collection::vec(prop::collection::vec(-8.0f32..8.0, 6), 2..40),
    ) {
        let quantizer = ScalarQuantizer::train(6, rows.iter().map(|r| r.as_slice()));
        for row in &rows {
            let decoded = quantizer.decode(&quantizer.encode(row));
            for (d, (x, y)) in row.iter().zip(&decoded).enumerate() {
                let bound = quantizer.step(d) * 0.5 + 1e-5;
                prop_assert!(
                    (x - y).abs() <= bound,
                    "dim {d}: |{x} - {y}| exceeds step/2 = {bound}"
                );
            }
        }
    }

    /// Tiered chunk store conservation and victim choice, against a
    /// reference LRU (a list of chunk ids, least recently used first):
    /// every `get` returns the chunk's exact tokens, hits exactly when the
    /// reference holds the chunk, and leaves every counter and the hot
    /// occupancy equal to the reference's; hot + cold always sums to the
    /// corpus size. Capacities 0, 1 and 2 run in every case.
    #[test]
    fn tiered_store_conserves_chunks_and_counters(
        cap in 3usize..12, nchunks in 1usize..40,
        ops in prop::collection::vec(0usize..40, 1..120),
    ) {
        let texts: Vec<AnnotatedText> = (0..nchunks)
            .map(|i| {
                let mut t = AnnotatedText::new();
                t.push_tokens(&(0..=(i % 7) as u32).map(TokenId).collect::<Vec<_>>());
                if i % 3 == 0 {
                    t.push_fact(metis::text::FactId(i as u64), &[TokenId(100), TokenId(101)]);
                }
                t
            })
            .collect();
        for cap in [0, 1, 2, cap] {
            let mut store = ChunkStore::with_hot_capacity(cap);
            for t in &texts {
                store.push(t);
            }
            let mut lru: Vec<usize> = Vec::new();
            let (mut gets, mut hits, mut promotions, mut evictions) = (0u64, 0, 0, 0);
            let mut get = |i: usize, lru: &mut Vec<usize>| {
                let got = store.get(metis::text::ChunkId(i as u32));
                assert!(got.is_some(), "chunk {i} not retrievable");
                assert_eq!(got.unwrap().tokens(), texts[i].tokens());
                gets += 1;
                if let Some(at) = lru.iter().position(|&c| c == i) {
                    lru.remove(at);
                    hits += 1;
                } else if cap > 0 {
                    if lru.len() == cap {
                        lru.remove(0);
                        evictions += 1;
                    }
                    promotions += 1;
                }
                if cap > 0 {
                    lru.push(i);
                }
                let s = store.stats();
                assert_eq!(
                    (s.accesses, s.hot_hits, s.promotions, s.evictions),
                    (gets, hits, promotions, evictions),
                    "capacity {cap}, get {gets} (chunk {i}) against the reference {lru:?}"
                );
                assert_eq!(s.hot_chunks, lru.len());
                assert_eq!(s.hot_chunks + s.cold_chunks, nchunks);
            };
            for &op in &ops {
                get(op % nchunks, &mut lru);
                // The hot set is the reference's: each chunk it holds, read
                // least recently used first, hits, which leaves the order
                // as it was.
                for i in lru.clone() {
                    get(i, &mut lru);
                }
            }
        }
    }

    /// Algorithm 1 always produces a well-formed pruned space from any
    /// profile the profiler can emit.
    #[test]
    fn mapping_output_is_well_formed(pieces in 1u32..10, joint in any::<bool>(),
                                     high in any::<bool>(), lo in 1u32..295, span in 0u32..100) {
        use metis::profiler::EstimatedProfile;
        let est = EstimatedProfile {
            complexity: if high { Complexity::High } else { Complexity::Low },
            joint,
            pieces,
            summary_range: (lo, (lo + span).min(300)),
            confidence: 0.95,
        };
        let space = metis::core::map_profile(&est);
        prop_assert!(!space.methods.is_empty());
        prop_assert!(space.num_chunks.0 >= 1);
        prop_assert!(space.num_chunks.0 <= space.num_chunks.1);
        prop_assert!(space.num_chunks.1 <= 35);
        prop_assert!(space.num_chunks.0 == pieces.min(space.num_chunks.0));
        prop_assert!(!space.candidates().is_empty());
    }
}
