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

    /// Tiered chunk store conservation: every chunk stays retrievable with
    /// its exact tokens, hot + cold occupancy always sums to the corpus
    /// size, the hot tier never exceeds its capacity, and the access
    /// counters account for every `get` (each is a hot hit or a promotion;
    /// promotions minus evictions is the current hot occupancy).
    #[test]
    fn tiered_store_conserves_chunks_and_counters(
        cap in 1usize..12, nchunks in 1usize..40,
        ops in prop::collection::vec(0usize..40, 1..120),
    ) {
        let mut store = ChunkStore::with_hot_capacity(cap);
        let mut texts = Vec::new();
        for i in 0..nchunks {
            let mut t = AnnotatedText::new();
            t.push_tokens(&(0..=(i % 7) as u32).map(TokenId).collect::<Vec<_>>());
            if i % 3 == 0 {
                t.push_fact(metis::text::FactId(i as u64), &[TokenId(100), TokenId(101)]);
            }
            store.push(&t);
            texts.push(t);
        }
        let mut gets = 0u64;
        for op in ops {
            let pick = op % nchunks;
            let got = store.get(metis::text::ChunkId(pick as u32));
            prop_assert!(got.is_some(), "chunk {pick} not retrievable");
            prop_assert_eq!(got.unwrap().tokens(), texts[pick].tokens());
            gets += 1;
            let s = store.stats();
            prop_assert_eq!(s.accesses, gets);
            prop_assert_eq!(s.hot_chunks + s.cold_chunks, nchunks);
            prop_assert!(s.hot_chunks <= cap);
            prop_assert_eq!(s.hot_hits + s.promotions, gets);
            prop_assert_eq!(s.promotions - s.evictions, s.hot_chunks as u64);
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
