//! Property-based tests (proptest) on the core data structures and
//! invariants.

use std::collections::{BTreeMap, HashMap, HashSet};

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
use metis::text::{AnnotatedText, ChunkId, Chunker, ChunkerConfig, TokenId};
use metis::vectordb::{
    ChunkStore, FlatIndex, Hit, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization,
    ScalarQuantizer, SearchOutcome, SearchWork, SqFlatIndex, SqIvfIndex, VectorIndex,
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

/// SplitMix64: the stream the index oracle draws its shapes from.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

type Items = Vec<(ChunkId, Vec<f32>)>;

/// `n` rows drawn from `seed` on the integer grid `{0, …, side - 1}^dim`,
/// ids in row order. A small `side` leaves far more rows than grid points,
/// so duplicate rows and tied distances are the common case; a side of 2²⁰
/// is as good as continuous.
fn grid_items(n: usize, dim: usize, side: u64, seed: u64) -> Items {
    let mut state = seed;
    let mut coordinate = || {
        state = splitmix64(state);
        (state % side) as f32
    };
    (0..n as u32)
        .map(|i| (ChunkId(i), (0..dim).map(|_| coordinate()).collect()))
        .collect()
}

/// A corpus, its queries and the index shapes drawn from `seed`: HNSW with
/// m 2..=16 and ef_construction 3..=80, IVF with 1..=16 lists. One seed in
/// eight holds 0–4 rows (an empty index, and k > n), the others 8..=`max_n`
/// (skewed small). Four seeds in five put 1–8 dims on a grid 2–5 points a
/// side, every fifth spreads 16–64 dims uniformly. The last query repeats a
/// row, so one distance is zero.
fn index_shape(seed: u64, max_n: usize) -> (usize, HnswConfig, usize, Items, Items) {
    let mut state = seed;
    let mut draw = |lo: usize, hi: usize| {
        state = splitmix64(state);
        lo + (state % (hi - lo + 1) as u64) as usize
    };
    let (m, ef_construction, nlist) = (draw(2, 16), draw(3, 80), draw(1, 16));
    let hnsw = HnswConfig {
        m,
        ef_construction,
        ..HnswConfig::default()
    };
    let n = if seed.is_multiple_of(8) {
        (seed / 8 % 5) as usize
    } else {
        let u = draw(0, 999) as f64 / 1e3;
        (8.0 * (max_n as f64 / 8.0).powf(u * u)) as usize
    };
    let (dim, side) = if seed.is_multiple_of(5) {
        (draw(16, 64), 1 << 20)
    } else {
        (draw(1, 8), draw(2, 5) as u64)
    };
    let items = grid_items(n, dim, side, !seed);
    let mut queries = grid_items(4, dim, side, seed ^ 0x5EED);
    queries.extend(items.last().cloned());
    (dim, hnsw, nlist, items, queries)
}

/// One effort level of one index family: the family, whether it scores
/// every row (IVF probing every list, HNSW at `ef ≥ n`), its sq8 re-rank
/// depth (`None` in f32), and its search.
type Rung<'a> = (&'static str, bool, Option<usize>, Search<'a>);
type Search<'a> = Box<dyn Fn(&[f32], usize) -> SearchOutcome + 'a>;

fn scan(index: &dyn VectorIndex) -> Search<'_> {
    Box::new(|q, k| index.search_counted(q, k))
}

fn beam(graph: &HnswIndex, ef: usize) -> Search<'_> {
    Box::new(move |q, k| graph.search_with_ef(q, k, ef))
}

/// What the index sweep met; it refuses to pass without each, and without
/// every family at full and at partial effort.
#[derive(Debug, Default)]
struct Met {
    tied_distances: usize,
    duplicate_rows: usize,
    k_zero: usize,
    k_above_n: usize,
    empty: usize,
    /// Shapes where some query's HNSW traversal could not reach every node.
    unreachable_shapes: usize,
    /// Per family: rungs checked at full effort, and below it.
    efforts: BTreeMap<&'static str, [usize; 2]>,
}

/// `FlatIndex` against a brute-force f64 scan: each hit at its own row's
/// distance, and the i-th hit at the i-th least distance (to rounding).
fn assert_flat_is_brute_force(items: &Items, q: &[f32], k: usize, hits: &[Hit]) {
    let d2 = |(_, v): &(ChunkId, Vec<f32>)| -> f64 {
        let deltas = v.iter().zip(q).map(|(x, y)| f64::from(*x) - f64::from(*y));
        deltas.map(|d| d * d).sum()
    };
    let mut brute: Vec<f64> = items.iter().map(d2).collect();
    brute.sort_by(f64::total_cmp);
    assert_eq!(hits.len(), k.min(items.len()));
    for (h, least) in hits.iter().zip(brute) {
        let (got, own) = (
            f64::from(h.distance).powi(2),
            d2(&items[h.chunk.0 as usize]),
        );
        let close = |d: f64| (got - d).abs() <= 1e-5 * d.max(1.0);
        assert!(
            close(own) && close(least),
            "{h:?}: {got} against {own} and {least}"
        );
    }
}

/// The one contract of every vector index, checked against `FlatIndex` (and
/// `FlatIndex` against brute force) over the shapes of `seeds`, every query
/// at k = 0, 1, 3, 10 and n + 1, for the `families` named in sorted order:
///
/// - at most k distinct hits in ascending distance; k = 0 or an empty index
///   returns nothing and reports no work;
/// - every f32 or re-ranked hit carries `FlatIndex`'s distance bits for its
///   id (`squared_l2` is the one exact kernel);
/// - along each family's effort ladder, recall@k against `FlatIndex` and the
///   reported distance work never fall: the candidate sets nest, because
///   lists are probed in one centroid order, HNSW's layer-0 expansion order
///   does not depend on `ef`, and a deeper re-rank re-scores a superset;
/// - at full effort (IVF at `nprobe = nlist`, HNSW at `ef ≥ n`, sq8 at
///   `rerank·k ≥ n`) the hits are `FlatIndex`'s ids and distance bits. Hits
///   at one distance may come in any order: HNSW ranks them by squared
///   distance, and `sqrt` can round two of those to one. An HNSW traversal
///   that cannot reach every node (its own search at k = n returns fewer)
///   is counted and held to the bits alone;
/// - graph hops only in HNSW, quantized evals only in sq8, every centroid
///   and `nprobe` lists only in IVF, exact re-rank evals between the hits
///   and `rerank·k` (`min(rerank·k, n)` when every row is reached), every
///   row once in a scan of them all, and `min(k, n)` hits from a family
///   that reaches every row.
fn sweep_indexes(seeds: std::ops::Range<u64>, max_n: usize, families: &[&str]) {
    let mut met = Met::default();
    for seed in seeds {
        let (dim, hnsw, nlist, items, queries) = index_shape(seed, max_n);
        let n = items.len();
        let mut flat = FlatIndex::new(dim);
        items.iter().for_each(|(id, v)| flat.add(*id, v));
        let rows: HashSet<Vec<u32>> = items
            .iter()
            .map(|(_, v)| v.iter().map(|x| x.to_bits()).collect())
            .collect();
        met.duplicate_rows += usize::from(rows.len() < n);
        met.empty += usize::from(n == 0);

        let config = IvfConfig {
            nlist,
            nprobe: 1,
            train_iters: 4,
        };
        let ivf_at = |nprobe| IvfIndex::build(dim, IvfConfig { nprobe, ..config }, &items);
        let ivfs: Vec<IvfIndex> = (1..=nlist).map(ivf_at).collect();
        for (nprobe, ivf) in (1..).zip(&ivfs) {
            let (lists, config) = (nlist.min(n.max(1)), ivf.config());
            let clamped = (config.nlist, config.nprobe) == (lists, nprobe.min(lists));
            assert!(clamped, "seed {seed}: {config:?}");
        }
        let every = n.max(1);
        let reranks = [0, 1, 2, every];
        let sq8 = |rerank| Quantization::Sq8 { rerank };
        let quants = std::iter::once(Quantization::F32).chain(reranks.map(sq8));
        let graphs: Vec<HnswIndex> = quants
            .map(|quant| HnswIndex::build(dim, hnsw, quant, &items))
            .collect();
        let sq_flats = reranks.map(|rerank| SqFlatIndex::build(dim, rerank, &items));
        let sq_ivfs = reranks.map(|rerank| SqIvfIndex::from_ivf(&ivfs[nlist - 1], rerank));
        let sq_probed: Vec<SqIvfIndex> = ivfs
            .iter()
            .map(|ivf| SqIvfIndex::from_ivf(ivf, every))
            .collect();
        // Ladders by probe depth, by ef, and by re-rank depth.
        let mut ladders: [Vec<Rung>; 7] = Default::default();
        for (ivf, sq) in ivfs.iter().zip(&sq_probed) {
            let full = ivf.config().nprobe == ivf.config().nlist;
            ladders[0].push(("ivf", full, None, scan(ivf)));
            ladders[1].push(("sq-ivf", full, Some(every), scan(sq)));
        }
        for ef in (0..).map(|i| 1 << i).take_while(|&ef| ef < 2 * every) {
            ladders[2].push(("hnsw", ef >= n, None, beam(&graphs[0], ef)));
            ladders[3].push(("hnsw-sq8", ef >= n, Some(every), beam(&graphs[4], ef)));
        }
        for (i, &rerank) in reranks.iter().enumerate() {
            ladders[4].push(("sq-flat", true, Some(rerank), scan(&sq_flats[i])));
            ladders[5].push(("sq-ivf", true, Some(rerank), scan(&sq_ivfs[i])));
            ladders[6].push(("hnsw-sq8", true, Some(rerank), beam(&graphs[1 + i], every)));
        }

        let mut unreachable = false;
        for (qi, (_, q)) in queries.iter().enumerate() {
            let bits = |hits: &[Hit]| -> Vec<(u32, ChunkId)> {
                let mut bits: Vec<_> = hits
                    .iter()
                    .map(|h| (h.distance.to_bits(), h.chunk))
                    .collect();
                bits.sort_unstable();
                bits
            };
            let all = flat.search(q, n);
            let exact: HashMap<ChunkId, u32> = all
                .iter()
                .map(|h| (h.chunk, h.distance.to_bits()))
                .collect();
            met.tied_distances +=
                usize::from(all.windows(2).any(|w| w[0].distance == w[1].distance));
            for k in [0, 1, 3, 10, n + 1] {
                let want = flat.search(q, k);
                assert_flat_is_brute_force(&items, q, k, &want);
                assert_eq!(want, all[..k.min(n)], "seed {seed}: k {k}");
                let gold: HashSet<ChunkId> = want.iter().map(|h| h.chunk).collect();
                met.k_zero += usize::from(k == 0);
                met.k_above_n += usize::from(k > n);
                let mut floor = (0, 0);
                let rungs = ladders.iter().flat_map(|l| l.iter().enumerate());
                let rungs = rungs.filter(|(_, rung)| families.contains(&rung.0));
                for (step, &(family, scans_all, rerank, ref search)) in rungs {
                    let at = format!("seed {seed}, {family} rung {step}, k {k}, query {qi}");
                    let SearchOutcome { hits, work } = search(q, k);
                    let ids: HashSet<ChunkId> = hits.iter().map(|h| h.chunk).collect();
                    let ascending = hits.windows(2).all(|w| w[0].distance <= w[1].distance);
                    assert!(
                        ascending && ids.len() == hits.len() && ids.len() <= k,
                        "{at}: {hits:?}"
                    );
                    if k == 0 || n == 0 {
                        assert!(hits.is_empty() && work == SearchWork::default(), "{at}");
                        continue;
                    }
                    if rerank != Some(0) {
                        for h in &hits {
                            assert_eq!(
                                exact.get(&h.chunk),
                                Some(&h.distance.to_bits()),
                                "{at}: {h:?}"
                            );
                        }
                    }
                    let reached = scans_all && search(q, n).hits.len() == n;
                    let (hnsw, quantized) = (family.starts_with("hnsw"), rerank.is_some());
                    let domains = (work.graph_hops > 0, work.quantized_scored > 0);
                    assert_eq!(domains, (hnsw, quantized), "{at}: {work:?}");
                    if let Some(rerank) = rerank {
                        let (evals, depth) = (work.vectors_scored, rerank.saturating_mul(k));
                        let bounded = evals <= depth && (rerank == 0 || evals >= hits.len());
                        let all = !reached || evals == depth.min(n);
                        assert!(bounded && all, "{at}: {work:?}");
                    }
                    // IVF ranks every centroid and probes `nprobe` lists: step + 1
                    // on a probe ladder, all of them in a scan of every row.
                    let lists = usize::from(family.ends_with("ivf")) * nlist.min(n);
                    let probed = if scans_all {
                        lists
                    } else {
                        (step + 1).min(lists)
                    };
                    let coarse = (work.centroids_scored, work.lists_probed);
                    assert_eq!(coarse, (lists, probed), "{at}: {work:?}");
                    if scans_all && !hnsw {
                        let scored = if quantized {
                            work.quantized_scored
                        } else {
                            work.vectors_scored
                        };
                        assert_eq!(scored, n, "{at}: {work:?}");
                    }
                    // Recall and work never fall along a ladder; step 0 starts one.
                    let now = (ids.intersection(&gold).count(), work.distances());
                    if step == 0 {
                        floor = (0, 0);
                    }
                    assert!(
                        now.0 >= floor.0 && now.1 >= floor.1,
                        "{at}: {now:?} after {floor:?}"
                    );
                    floor = now;
                    assert!(reached || !scans_all || hnsw, "{at}: a row went unscored");
                    unreachable |= scans_all && !reached;
                    let deep = rerank.is_none_or(|x| x > 0 && x.saturating_mul(k) >= n);
                    if reached {
                        assert_eq!(hits.len(), k.min(n), "{at}");
                    }
                    let effort = met.efforts.entry(family).or_default();
                    if reached && deep {
                        assert_eq!(bits(&hits), bits(&want), "{at}");
                        effort[0] += 1;
                    } else if !(scans_all && deep) {
                        effort[1] += 1;
                    }
                }
            }
        }
        met.unreachable_shapes += usize::from(unreachable);
    }
    let efforts = met.efforts.keys().eq(families) && met.efforts.values().flatten().all(|&c| c > 0);
    let cases = [
        met.tied_distances,
        met.duplicate_rows,
        met.k_zero,
        met.k_above_n,
        met.empty,
    ];
    assert!(
        efforts && !cases.contains(&0),
        "the sweep skipped a case: {met:?}"
    );
}

/// HNSW at its default ef recalls at least what IVF recalls at the first
/// probe depth whose reported distance work matches or exceeds HNSW's, on a
/// planted ANN corpus of `n` vectors.
fn assert_hnsw_recalls_at_least_ivf_at_equal_work(n: usize, seed: u64) {
    let corpus = AnnCorpus::generate(AnnConfig {
        num_queries: 4,
        ..AnnConfig::at_scale(n, seed)
    });
    let (dim, k) = (corpus.config.dim, corpus.config.k);
    let recall_and_work = |index: &dyn VectorIndex| {
        corpus.queries.iter().fold((0.0, 0), |(recall, work), q| {
            let out = index.search_counted(&q.vector, k);
            let ids: Vec<ChunkId> = out.hits.iter().map(|h| h.chunk).collect();
            (
                recall + AnnCorpus::recall(&q.gold, &ids),
                work + out.work.distances(),
            )
        })
    };
    let hnsw = HnswIndex::build(dim, HnswConfig::default(), Quantization::F32, &corpus.items);
    let (hnsw_recall, hnsw_work) = recall_and_work(&hnsw);
    let config = IvfConfig {
        nlist: 16,
        nprobe: 1,
        train_iters: 4,
    };
    let ivf_at = |nprobe| {
        recall_and_work(&IvfIndex::build(
            dim,
            IvfConfig { nprobe, ..config },
            &corpus.items,
        ))
    };
    let ivf = (1..=16).map(ivf_at).find(|&(_, work)| work >= hnsw_work);
    let (ivf_recall, _) = ivf.unwrap_or_else(|| ivf_at(16));
    assert!(
        hnsw_recall >= ivf_recall - 1e-9,
        "n {n}, seed {seed}: HNSW recall {hnsw_recall:.3} below IVF {ivf_recall:.3} at equal work"
    );
}

/// The flat scans: `FlatIndex` against brute force, `SqFlatIndex` against it.
#[test]
fn flat_index_matches_brute_force() {
    sweep_indexes(0..48, 400, &["sq-flat"]);
}

#[test]
fn ivf_recall_monotone_in_nprobe() {
    sweep_indexes(0..48, 400, &["ivf", "sq-ivf"]);
}

#[test]
fn hnsw_recall_monotone_in_ef_and_at_least_ivf_at_equal_work() {
    sweep_indexes(0..48, 400, &["hnsw", "hnsw-sq8"]);
    for seed in 0..6 {
        assert_hnsw_recalls_at_least_ivf_at_equal_work(240 + 60 * seed as usize, seed);
    }
}

/// The long sweep, for a release build (CI runs it with `--ignored`).
#[test]
#[ignore = "a minute in a debug build; CI runs it in release"]
fn every_index_agrees_with_the_flat_scan_long_sweep() {
    let families = ["hnsw", "hnsw-sq8", "ivf", "sq-flat", "sq-ivf"];
    sweep_indexes(1_000..1_600, 2_000, &families);
    for seed in 100..148 {
        assert_hnsw_recalls_at_least_ivf_at_equal_work(240 + 7 * seed as usize % 360, seed);
    }
}
