//! HNSW: hierarchical navigable small-world graph index.
//!
//! A layered proximity graph: every vector lands on layer 0, and each node
//! is promoted to higher layers with geometrically decaying probability
//! (deterministically derived from its insertion order, so builds are
//! reproducible). Search greedily descends the sparse upper layers to a
//! good entry point, then runs a bounded best-first expansion on layer 0.
//! Per-query cost is a handful of graph hops plus the distance evals they
//! trigger — `O(log n)`-ish instead of the flat scan's `O(n)` — and both
//! quantities are reported through [`SearchWork`] so the retrieval model
//! prices them.
//!
//! The layer-0 expansion is budgeted by `ef_search`: expansion *order* is
//! independent of the budget, so a larger `ef_search` visits a strict
//! superset of the nodes a smaller one does. That makes recall@k provably
//! non-decreasing in `ef_search` (the property `tests/properties.rs` pins),
//! while behaving like the classic ef-bounded beam in practice.
//!
//! Vectors are stored exactly ([`Quantization::F32`]) or as sq8 codes
//! decoded on the fly, with optional exact re-rank
//! ([`Quantization::Sq8`]); graph construction always runs at full
//! precision.
//!
//! Adjacency is one flat `u32` array, and a traversal's working memory is a
//! `SearchScratch` that `build` owns and searches reuse per thread, so a
//! steady-state search allocates only the hits it returns. A search hop
//! first collects the unvisited neighbors of the node it expands, then scores
//! them together (sq8 code rows a group at a time, see [`crate::quant`]),
//! then offers them to the frontier — each pass in neighbor-list order, so
//! the traversal is the one-neighbor-at-a-time one, kept as the test oracle
//! (`traverse_classic`).
//!
//! The graph is a pure function of the data and the configuration, at any
//! thread count — [`HnswIndex::graph_digest`] is pinned in the search
//! goldens — and `build` reaches it in a working set (`Builder`) that is
//! gone when it returns:
//!
//! * **Frozen-graph batches.** From node `i` on, nodes are inserted
//!   `clamp(i / 32, 1, 64)` at a time. Every member of a batch is *planned*
//!   on a worker thread against the graph as the batch found it, with exact
//!   distances to the batch's earlier members among its candidates; then
//!   the links are *applied*, every list taking its newcomers in id order,
//!   the workers on disjoint runs of lists. A plan reads nothing another
//!   writes and a list's evolution depends only on its own newcomers, so
//!   the graph does not depend on the worker count. A batch of one is
//!   sequential insertion, the path the oracle (`classic`) checks.
//! * **The reuse rule.** In the neighbor-selection heuristic a candidate's
//!   verdict depends only on the kept members *closer* than it. A selected
//!   list is therefore stored as `K ascending ++ R ascending` (kept, then
//!   backfilling rejects) with each slot's squared distance to the owner
//!   cached, and a full list taking one more neighbor walks the merged
//!   order re-testing only what the newcomer can have changed: nothing
//!   before it, one test against it for a stored keep after it, the full
//!   test only from the first stored keep it evicts (`Reuse`, `select`,
//!   `link`).
//! * **The tie corner.** The construction beam is one ascending array with a
//!   cursor instead of a candidate heap beside a result heap. The heaps'
//!   one observable corner is kept: a candidate pushed off the end of the
//!   beam unexpanded is still expanded later if its distance *equals* the
//!   beam's worst, because the classic stop rule is strict (`search_layer`).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::atomic::{self, AtomicUsize};

use metis_text::ChunkId;

use crate::quant::{keep_for, Quantization, QueryLut, ScalarQuantizer};
use crate::{assert_row, sort_hits, squared_l2, Hit, SearchOutcome, SearchWork, VectorIndex};

/// HNSW build/search parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on upper layers (layer 0 allows `2m`); also
    /// sets the layer-promotion decay `1/ln(m)`.
    pub m: usize,
    /// Beam width while inserting — larger builds a better graph, slower.
    pub ef_construction: usize,
    /// Layer-0 expansion budget at query time — the recall/latency knob.
    pub ef_search: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 80,
            ef_search: 64,
        }
    }
}

/// Hard cap on layer height; `u8` storage and `1/ln(m)` decay keep real
/// corpora far below it.
const MAX_LEVEL: usize = 24;

/// A scored node with a total order (distance, then id) so every ranking
/// is deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Scored {
    d: f32,
    node: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d
            .total_cmp(&other.d)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What a traversal measures distances from: the raw query against exact
/// rows, or the query prepared against sq8 code rows.
enum Scorer<'a> {
    Exact(&'a [f32]),
    Sq8(QueryLut<'a>),
}

/// Working memory of one traversal, reused by the next: `build` owns one
/// outright, searches share one per thread.
#[derive(Debug, Default)]
struct SearchScratch {
    /// `stamps[node] == epoch` ⇔ the current traversal has visited `node`;
    /// bumping `epoch` un-visits everything at once.
    stamps: Vec<u32>,
    epoch: u32,
    /// Layer-0 candidates that can still be expanded within the budget,
    /// worst first (the best pops off the end).
    frontier: Vec<Scored>,
    /// Every node the traversal scored — the pool the final top-k is
    /// selected from.
    scored: Vec<Scored>,
    /// The unvisited neighbors of the node being expanded, in list order: a
    /// hop collects them all before it scores any, so the scorer sees them
    /// together. As long as the longest list met; only a prefix is live.
    fresh: Vec<u32>,
    /// Every `(unvisited, list length)` a hop met: the search oracle test
    /// refuses to pass on a sweep that skipped a group shape.
    #[cfg(test)]
    fresh_lens: std::collections::BTreeSet<(usize, usize)>,
}

impl SearchScratch {
    /// Starts a traversal over `n` nodes with nothing visited.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps left by the traversal 2³² ago would read as
            // visited, so forget them all.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
        self.scored.clear();
    }

    /// Marks `node` visited; `true` the first time in this traversal.
    fn visit(&mut self, node: u32) -> bool {
        let stamp = &mut self.stamps[node as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }

    /// Copies the unvisited members of `neighbors` to the front of `fresh`,
    /// in order, marks them visited and returns how many there are. No
    /// branch on the test's outcome: every member is stored, and the cursor
    /// moves past the ones that were fresh.
    fn collect_fresh(&mut self, neighbors: &[u32]) -> usize {
        if self.fresh.len() < neighbors.len() {
            self.fresh.resize(neighbors.len(), 0);
        }
        let mut len = 0;
        for &nb in neighbors {
            self.fresh[len] = nb;
            len += usize::from(self.visit(nb));
        }
        #[cfg(test)]
        self.fresh_lens.insert((len, neighbors.len()));
        len
    }

    /// Offers `s` to the frontier when only `room` more expansions remain:
    /// a candidate outside the best `room` can never be popped (later
    /// arrivals only push it further back), so it is dropped now and the
    /// expansion order is exactly the unbounded frontier's.
    fn admit(&mut self, s: Scored, room: usize) {
        let frontier = &mut self.frontier;
        let full = frontier.len() == room;
        if full && (room == 0 || s > frontier[0]) {
            return;
        }
        let at = frontier.partition_point(|c| *c > s);
        if full {
            frontier.copy_within(1..at, 0);
            frontier[at - 1] = s;
        } else {
            frontier.insert(at, s);
        }
    }
}

thread_local! {
    /// The searching thread's scratch: no lock, no cross-thread sharing.
    static SCRATCH: RefCell<SearchScratch> = RefCell::default();
}

/// The layered-graph index.
#[derive(Clone, Debug)]
pub struct HnswIndex {
    dim: usize,
    config: HnswConfig,
    quant: Quantization,
    ids: Vec<ChunkId>,
    /// Exact rows: always present under f32; retained under sq8 only while
    /// `rerank > 0` needs them at query time.
    rows: Vec<f32>,
    /// sq8 code rows (empty under f32).
    codes: Vec<u8>,
    sq: Option<ScalarQuantizer>,
    /// Every neighbor list, as `[len, slot…]` blocks in insertion order.
    /// Layer 0 comes first at a fixed stride — node `i` owns `2m` slots at
    /// `i · (2m + 1)` — then each promoted node's upper layers, one
    /// `m`-slot block per level from 1 up.
    links: Vec<u32>,
    /// `(node, offset of its level-1 block in links)` for the ~1/m nodes
    /// promoted above layer 0, ascending by node.
    upper_at: Vec<(u32, usize)>,
    entry: u32,
    max_level: usize,
    /// Exact distance evaluations `build` performed.
    build_evals: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl HnswIndex {
    /// Builds the graph over `(id, vector)` pairs, inserting them in
    /// batches planned on every core the host offers; the graph is the same
    /// at any core count (see the module doc).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, `m < 2`, `ef_construction` or `ef_search`
    /// is zero, or any vector disagrees on dimension or has a non-finite
    /// component.
    pub fn build(
        dim: usize,
        config: HnswConfig,
        quant: Quantization,
        items: &[(ChunkId, Vec<f32>)],
    ) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let index = Self::empty(dim, config, quant, items);
        let mut index = Builder::run(index, items, workers, MAX_BATCH).finish();
        if let Quantization::Sq8 { rerank } = quant {
            let sq = ScalarQuantizer::train(dim, items.iter().map(|(_, v)| v.as_slice()));
            index.codes = sq.encode_rows(items.iter().map(|(_, v)| v.as_slice()));
            index.sq = Some(sq);
            if rerank == 0 {
                // Scoring never leaves the quantized domain — drop the
                // exact rows and keep only the 1-byte codes.
                index.rows = Vec::new();
            }
        }
        index
    }

    /// The validated, still edgeless index `items` will be inserted into.
    fn empty(
        dim: usize,
        config: HnswConfig,
        quant: Quantization,
        items: &[(ChunkId, Vec<f32>)],
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(config.m >= 2, "m must be at least 2");
        assert!(
            config.ef_construction > 0,
            "ef_construction must be positive"
        );
        assert!(config.ef_search > 0, "ef_search must be positive");
        for (_, v) in items {
            // The build also reuses verdicts on the strength of distances
            // being totally ordered.
            assert_row(v, dim);
        }
        let n = items.len();
        Self {
            dim,
            config,
            quant,
            ids: Vec::with_capacity(n),
            rows: Vec::with_capacity(n * dim),
            codes: Vec::new(),
            sq: None,
            links: vec![0; n * (2 * config.m + 1)],
            upper_at: Vec::new(),
            entry: 0,
            max_level: 0,
            build_evals: 0,
        }
    }

    /// Deterministic layer draw: geometric with mean `ml`, hashed from the
    /// insertion order so identical inputs build identical graphs.
    fn level_for(i: u64, ml: f64) -> usize {
        let bits = splitmix64(i ^ 0x48_4E_53_57); // "HNSW"
        let u = ((bits >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
        ((-u.ln() * ml) as usize).min(MAX_LEVEL)
    }

    fn exact_row(&self, node: u32) -> &[f32] {
        &self.rows[node as usize * self.dim..][..self.dim]
    }

    fn code_row(&self, node: u32) -> &[u8] {
        &self.codes[node as usize * self.dim..][..self.dim]
    }

    /// `node`'s distance from the scorer's query, in the scorer's domain.
    #[inline]
    fn score(&self, q: &Scorer<'_>, node: u32) -> Scored {
        let d = match q {
            Scorer::Exact(q) => squared_l2(q, self.exact_row(node)),
            Scorer::Sq8(lut) => lut.dist2(self.code_row(node)),
        };
        Scored { d, node }
    }

    /// [`score`](Self::score) of every one of `nodes`, pushed onto `scored`
    /// in `nodes` order. Code rows are scored a group at a time — the same
    /// bits, without waiting out one row's add chain before starting the
    /// next; exact rows one by one (two or four per pass spill the 16-lane
    /// accumulators and measured 1.5× and 2× slower — ROADMAP item 2).
    #[inline]
    fn score_all(&self, q: &Scorer<'_>, nodes: &[u32], scored: &mut Vec<Scored>) {
        match q {
            Scorer::Exact(_) => scored.extend(nodes.iter().map(|&nb| self.score(q, nb))),
            Scorer::Sq8(lut) => lut.dist2_each(
                nodes.len(),
                |i| self.code_row(nodes[i]),
                |i, d| scored.push(Scored { d, node: nodes[i] }),
            ),
        }
    }

    /// Where `node`'s level-`lvl` block starts in `links`, and how many
    /// slots follow its length word.
    fn block(&self, node: u32, lvl: usize) -> (usize, usize) {
        let m = self.config.m;
        if lvl == 0 {
            return (node as usize * (2 * m + 1), 2 * m);
        }
        let i = self
            .upper_at
            .binary_search_by_key(&node, |&(n, _)| n)
            .expect("a node linked above layer 0 was promoted");
        (self.upper_at[i].1 + (lvl - 1) * (m + 1), m)
    }

    fn neighbors(&self, node: u32, lvl: usize) -> &[u32] {
        let (at, _) = self.block(node, lvl);
        &self.links[at + 1..][..self.links[at] as usize]
    }

    /// One greedy descent through level `lvl`: walk to strictly closer
    /// neighbors until a local minimum. Every node scored on the way is
    /// pushed onto `scored`; also returns the nodes expanded.
    fn greedy_step(
        &self,
        q: &Scorer<'_>,
        mut cur: Scored,
        lvl: usize,
        scored: &mut Vec<Scored>,
    ) -> (Scored, usize) {
        let mut hops = 0;
        loop {
            hops += 1;
            let from = scored.len();
            self.score_all(q, self.neighbors(cur.node, lvl), scored);
            let mut improved = false;
            for &s in &scored[from..] {
                if s.d < cur.d {
                    cur = s;
                    improved = true;
                }
            }
            if !improved {
                return (cur, hops);
            }
        }
    }

    /// Exact distance evaluations `build` performed — the write path's
    /// deterministic cost, fixed by the data and the configuration.
    pub fn build_evals(&self) -> u64 {
        self.build_evals
    }

    /// FNV-1a over the graph — `links`, `upper_at`, `entry`, `max_level`, as
    /// little-endian bytes in that order. The graph is a pure function of
    /// the data and the configuration, whatever the thread count; the search
    /// goldens pin this digest, so a faster build must produce the same
    /// bytes, and one that does not is a declared re-baseline.
    #[doc(hidden)]
    pub fn graph_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for w in &self.links {
            fold(&w.to_le_bytes());
        }
        for &(node, at) in &self.upper_at {
            fold(&node.to_le_bytes());
            fold(&(at as u64).to_le_bytes());
        }
        fold(&self.entry.to_le_bytes());
        fold(&(self.max_level as u64).to_le_bytes());
        h
    }

    /// Searches with an explicit layer-0 expansion budget instead of the
    /// configured `ef_search` — the handle the recall-monotonicity
    /// property tests and sweeps turn.
    pub fn search_with_ef(&self, query: &[f32], k: usize, ef: usize) -> SearchOutcome {
        self.search_by(query, k, ef, Self::traverse)
    }

    /// The search around `traverse`, which leaves every node it scored in
    /// `scratch.scored` and returns `(graph hops, rescorable)`; the tests
    /// run it over the one-neighbor-at-a-time traversal too.
    fn search_by(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        traverse: impl Fn(&Self, &Scorer<'_>, usize, &mut SearchScratch) -> (usize, usize),
    ) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.ids.is_empty() || ef == 0 {
            return SearchOutcome::default();
        }
        SCRATCH.with_borrow_mut(|scratch| {
            let q = match &self.sq {
                Some(sq) => Scorer::Sq8(sq.lut(query)),
                None => Scorer::Exact(query),
            };
            let (graph_hops, rescorable) = traverse(self, &q, ef, scratch);
            let mut work = SearchWork {
                graph_hops,
                ..SearchWork::default()
            };
            // Every node scored anywhere is a candidate for the final top-k
            // (the set only grows with `ef`). The best are selected, not the
            // pool sorted: a rescore repeats the identical distance, so
            // duplicates sort adjacent, and fewer than `rescorable` exist.
            let scored = &mut scratch.scored;
            let evals = scored.len();
            let rerank = self.quant.rerank();
            let keep = keep_for(rerank, k);
            let cut = keep.saturating_add(rescorable);
            if cut < scored.len() {
                scored.select_nth_unstable(cut);
                scored.truncate(cut);
            }
            scored.sort_unstable();
            scored.dedup_by_key(|s| s.node);
            scored.truncate(keep);
            let mut hits: Vec<Hit> = scored
                .iter()
                .map(|s| Hit {
                    chunk: self.ids[s.node as usize],
                    distance: if rerank > 0 {
                        squared_l2(query, self.exact_row(s.node)).sqrt()
                    } else {
                        s.d.sqrt()
                    },
                })
                .collect();
            if rerank > 0 {
                work.vectors_scored = hits.len();
                sort_hits(&mut hits);
                hits.truncate(k);
            }
            match q {
                Scorer::Exact(_) => work.vectors_scored += evals,
                Scorer::Sq8(_) => work.quantized_scored += evals,
            }
            SearchOutcome { hits, work }
        })
    }

    /// Greedy descent over the upper layers, then the budgeted best-first
    /// expansion on layer 0. Returns the nodes expanded and how many
    /// entries of `scratch.scored` may be a node's second.
    fn traverse(&self, q: &Scorer<'_>, ef: usize, scratch: &mut SearchScratch) -> (usize, usize) {
        let mut hops = 0;
        scratch.begin(self.ids.len());
        // Greedy descent over the upper layers (budget-independent).
        let mut cur = self.score(q, self.entry);
        scratch.scored.push(cur);
        for lvl in (1..=self.max_level).rev() {
            let (at, level_hops) = self.greedy_step(q, cur, lvl, &mut scratch.scored);
            cur = at;
            hops += level_hops;
        }
        // Only an upper-layer eval can score a node a second time.
        let rescorable = scratch.scored.len();
        // Budgeted best-first expansion on layer 0. The frontier evolves
        // identically for every `ef`; the budget only decides how many
        // nodes get expanded, so visited sets nest as `ef` grows.
        scratch.visit(cur.node);
        scratch.frontier.push(cur);
        for expanded in 1..=ef {
            let Some(c) = scratch.frontier.pop() else {
                break;
            };
            hops += 1;
            // A hop in three passes — collect the unvisited neighbors,
            // score them together, offer them to the frontier — each in
            // neighbor-list order, so `scored` and the frontier are what
            // scoring and offering them one at a time leaves.
            let fresh = scratch.collect_fresh(self.neighbors(c.node, 0));
            let from = scratch.scored.len();
            self.score_all(q, &scratch.fresh[..fresh], &mut scratch.scored);
            for at in from..scratch.scored.len() {
                scratch.admit(scratch.scored[at], ef - expanded);
            }
        }
        (hops, rescorable)
    }
}

/// One entry of the construction beam.
#[derive(Clone, Copy, Debug)]
struct BeamEntry {
    s: Scored,
    /// Its neighbor list has been scanned.
    expanded: bool,
}

/// What a selection walk may take from the block's stored state instead of
/// evaluating it — the reuse rule. A candidate's verdict depends only on
/// the kept members *closer* than it, so a verdict stands for as long as
/// that set is what it was.
#[derive(Clone, Copy, Debug)]
enum Reuse {
    /// Nothing is stored, or a stored keep has been evicted: every
    /// candidate takes the full test against the kept set.
    Nothing,
    /// The newcomer is not behind the walk (or was rejected, and a reject
    /// influences nobody): stored verdicts stand; the newcomer itself takes
    /// the full test.
    Verdicts(Scored),
    /// The newcomer was kept and has evicted nobody yet, so the kept set is
    /// the stored one plus the newcomer: a stored keep needs the one test
    /// against the newcomer, a stored reject is still rejected by whoever
    /// rejected it.
    VersusNew(Scored),
}

/// How often a build met the corners its exactness argument turns on; the
/// oracle test refuses to pass on a run that exercised none of them.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct Corners {
    /// Evicted, unexpanded beam candidates expanded from the side list
    /// because they tied the beam's worst distance.
    tie_expansions: u64,
    /// Re-selections in which a kept newcomer evicted a stored keep.
    flips: u64,
    /// Full blocks selected for the first time, with no stored state.
    first_selections: u64,
}

/// A link a plan asks for: `(block, planner, newcomer)`, the newcomer
/// joining the list whose block starts at word `block` of `links`. A stable
/// sort on `(block, planner)` hands every list its newcomers in the order
/// sequential insertion meets them: by the member that planned them, then
/// in that member's pick order.
type Link = (usize, u32, Scored);

/// One worker's working set: everything a plan or an apply writes besides
/// the lists themselves. Cache-line aligned, so no two workers' fields
/// share a line: each bumps its own `evals` on every distance.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Work {
    scratch: SearchScratch,
    /// The construction beam: the closest `≤ ef_construction` nodes found
    /// so far, ascending.
    beam: Vec<BeamEntry>,
    /// Unexpanded candidates pushed off the beam's end at the very distance
    /// of the entry that became its worst, farthest first.
    ties: Vec<Scored>,
    /// The planned member scored against each earlier member of its batch,
    /// with that member's level.
    mates: Vec<(Scored, usize)>,
    /// Selection input, ascending: each candidate with its stored verdict.
    cands: Vec<(Scored, bool)>,
    /// Selection output: kept and (once truncated to the spare slots)
    /// backfilling candidates, each ascending.
    kept: Vec<Scored>,
    rejected: Vec<Scored>,
    /// The links this worker's plans ask for, in plan order.
    links: Vec<Link>,
    evals: u64,
    #[cfg(test)]
    corners: Corners,
}

impl Work {
    /// Plans member `batch[at]` against the graph as its batch found it:
    /// descent, beam and selection at every level it joins, with the
    /// batch's earlier members scored exactly and merged into the
    /// candidates at every level they reach. Appends the links it asks for,
    /// both directions, to `links`.
    fn plan(&mut self, index: &HnswIndex, batch: &[(u32, usize)], at: usize) {
        let (node, level) = batch[at];
        let q = Scorer::Exact(index.exact_row(node));
        let mates = batch[..at]
            .iter()
            .map(|&(w, lvl)| (index.score(&q, w), lvl));
        self.mates.clear();
        self.mates.extend(mates);
        self.evals += at as u64;
        // Before the batch's first node lies the graph it found: no list
        // there reaches a member, and `entry` and `max_level` are its own.
        // Only node 0 finds no graph.
        let (grown, top) = (batch[0].0 > 0, index.max_level);
        self.beam.clear();
        if grown {
            // Greedy-descend the layers above the member's top level.
            let mut cur = index.score(&q, index.entry);
            self.scratch.scored.clear();
            for lvl in (level + 1..=top).rev() {
                cur = index.greedy_step(&q, cur, lvl, &mut self.scratch.scored).0;
            }
            self.evals += 1 + self.scratch.scored.len() as u64;
            self.beam.push(BeamEntry {
                s: cur,
                expanded: false,
            });
        }
        // Beam-search each level the member joins — every level's result
        // is the next one's entry set — and pick a diverse neighbor set (not
        // simply the closest m — see `select`) from the closest
        // `ef_construction` of the beam and the mates: the beam the member
        // would have met had its mates been in the graph.
        for lvl in (0..=level).rev() {
            self.cands.clear();
            if grown && lvl <= top {
                self.search_layer(index, &q, lvl);
                self.cands.extend(self.beam.iter().map(|e| (e.s, false)));
            }
            let mates = self.mates.iter().filter(|w| w.1 >= lvl);
            self.cands.extend(mates.map(|w| (w.0, false)));
            self.cands.sort_unstable_by_key(|c| c.0);
            self.cands.truncate(index.config.ef_construction);
            self.select(index, index.config.m, Reuse::Nothing);
            // `squared_l2` is bitwise symmetric, so the back link takes the
            // distance as measured.
            let own = index.block(node, lvl).0;
            for &new in self.kept.iter().chain(&self.rejected) {
                self.links.push((own, node, new));
                let back = Scored { d: new.d, node };
                self.links.push((index.block(new.node, lvl).0, node, back));
            }
        }
    }

    /// The ef-bounded beam at one level: on entry `beam` holds the entry
    /// set, on return the up to `ef_construction` closest nodes found, both
    /// ascending.
    ///
    /// This is the classic two-heap loop (a min-heap of candidates, a
    /// max-heap of the best `ef`) in one array: every unexpanded entry of
    /// the beam is a candidate, and `cursor` — nothing before it is
    /// unexpanded — finds the closest. What the candidate heap held beyond
    /// that are entries since pushed off the beam's end. Each was the worst
    /// of a full beam and everything admitted later is strictly closer than
    /// the worst of its time, so such an entry sorts after the whole beam:
    /// it comes up only once the beam has nothing left to expand, and then
    /// the classic stop rule (`candidate > worst`, *strictly*) ends the
    /// search — unless its distance equals the current worst's. The worst
    /// only improves, so that needs a tie already at the moment it was
    /// pushed off; exactly those entries go to `ties`, which successive
    /// evictions fill farthest-first: the closest is always the last.
    fn search_layer(&mut self, index: &HnswIndex, q: &Scorer<'_>, lvl: usize) {
        let Self {
            scratch,
            beam,
            ties,
            evals,
            ..
        } = self;
        let ef = index.config.ef_construction;
        scratch.begin(index.ids.len());
        for e in beam.iter_mut() {
            e.expanded = false;
            scratch.visit(e.s.node);
        }
        ties.clear();
        let mut cursor = 0;
        loop {
            while beam.get(cursor).is_some_and(|e| e.expanded) {
                cursor += 1;
            }
            let c = if let Some(e) = beam.get_mut(cursor) {
                e.expanded = true;
                e.s
            } else {
                match (ties.pop(), beam.last()) {
                    (Some(t), Some(worst)) if t.d <= worst.s.d => {
                        #[cfg(test)]
                        {
                            self.corners.tie_expansions += 1;
                        }
                        t
                    }
                    _ => break,
                }
            };
            for &nb in index.neighbors(c.node, lvl) {
                if !scratch.visit(nb) {
                    continue;
                }
                let s = index.score(q, nb);
                *evals += 1;
                let entry = BeamEntry { s, expanded: false };
                let at = if beam.len() < ef {
                    let at = beam.partition_point(|e| e.s < s);
                    beam.insert(at, entry);
                    at
                } else {
                    let out = beam[ef - 1];
                    if s.d >= out.s.d {
                        continue;
                    }
                    let at = beam.partition_point(|e| e.s < s);
                    beam.copy_within(at..ef - 1, at + 1);
                    beam[at] = entry;
                    if !out.expanded && out.s.d == beam[ef - 1].s.d {
                        ties.push(out.s);
                    }
                    at
                };
                cursor = cursor.min(at);
            }
        }
    }

    /// The HNSW paper's neighbor-selection heuristic (Algorithm 4): walk
    /// `cands` (ascending by distance to the anchor, carried in
    /// `Scored::d`) and keep a node only if it is closer to the anchor than
    /// to every neighbor already kept, then backfill spare slots with the
    /// closest rejects. Plain closest-`cap` selection collapses tight
    /// clusters into cliques — their members fill each other's lists and
    /// evict every long-range edge, leaving the cluster unreachable by a
    /// bounded search beam. The diversity test keeps those outbound bridges
    /// alive.
    ///
    /// Leaves the selection in `kept` and `rejected`; `reuse` says which
    /// verdicts are read off `cands` instead of evaluated.
    fn select(&mut self, index: &HnswIndex, cap: usize, mut reuse: Reuse) {
        let Self {
            cands,
            kept,
            rejected,
            evals,
            ..
        } = self;
        let mut diverse = |c: Scored, kept: &[Scored]| {
            let row = index.exact_row(c.node);
            kept.iter().all(|k| {
                *evals += 1;
                squared_l2(row, index.exact_row(k.node)) > c.d
            })
        };
        kept.clear();
        rejected.clear();
        for &(c, stored) in cands.iter() {
            if kept.len() == cap {
                break;
            }
            let keep = match reuse {
                Reuse::Nothing => diverse(c, kept),
                Reuse::Verdicts(new) if c.node == new.node => {
                    let keep = diverse(c, kept);
                    if keep {
                        reuse = Reuse::VersusNew(new);
                    }
                    keep
                }
                Reuse::Verdicts(_) => stored,
                Reuse::VersusNew(new) => {
                    let keep = stored && diverse(c, &[new]);
                    if keep != stored {
                        // Evicted by the newcomer: whoever it alone
                        // rejected may now pass.
                        reuse = Reuse::Nothing;
                        #[cfg(test)]
                        {
                            self.corners.flips += 1;
                        }
                    }
                    keep
                }
            };
            if keep {
                kept.push(c);
            } else {
                rejected.push(c);
            }
        }
        rejected.truncate(cap - kept.len());
    }

    /// Appends `new` (scored against the block's owner) to the block
    /// `[len, slot…]` in `links`, with `state` the block's words of
    /// `Builder::state`; a full block is instead re-selected from its slots
    /// plus `new` by the diversity heuristic and rewritten in place.
    /// Whichever slot that drops — the farthest reject, else the farthest
    /// candidate — influenced no verdict, so the stored state stays exact.
    fn link(&mut self, index: &HnswIndex, links: &mut [u32], state: &mut [u32], new: Scored) {
        let cap = links.len() - 1;
        let len = links[0] as usize;
        if len < cap {
            links[0] += 1;
            links[1 + len] = new.node;
            state[1 + len] = new.d.to_bits();
            return;
        }
        let slot = |i: usize| Scored {
            d: f32::from_bits(state[1 + i]),
            node: links[1 + i],
        };
        let cands = &mut self.cands;
        cands.clear();
        let k = state[0] as usize;
        let reuse = if k == 0 {
            // Filled by appends, in arrival order: today's full selection,
            // once.
            #[cfg(test)]
            {
                self.corners.first_selections += 1;
            }
            cands.extend((0..cap).map(|i| (slot(i), false)));
            cands.push((new, false));
            cands.sort_unstable_by_key(|c| c.0);
            Reuse::Nothing
        } else {
            // Merge the K run, the R run and the newcomer.
            let (mut i, mut j) = (0, k);
            let mut pending = Some(new);
            while i < k || j < cap {
                let from_kept = j == cap || (i < k && slot(i) < slot(j));
                let next = if from_kept { &mut i } else { &mut j };
                let s = slot(*next);
                *next += 1;
                if let Some(n) = pending.take_if(|n| *n < s) {
                    cands.push((n, false));
                }
                cands.push((s, from_kept));
            }
            cands.extend(pending.map(|n| (n, false)));
            Reuse::Verdicts(new)
        };
        self.select(index, cap, reuse);
        links[0] = (self.kept.len() + self.rejected.len()) as u32;
        state[0] = self.kept.len() as u32;
        for (i, s) in self.kept.iter().chain(&self.rejected).enumerate() {
            links[1 + i] = s.node;
            state[1 + i] = s.d.to_bits();
        }
    }
}

/// Cuts the first `len` words off `rest`.
fn cut<'a>(rest: &mut &'a mut [u32], len: usize) -> &'a mut [u32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Runs `run` on every job, the first on this thread and each other on a
/// scoped thread of its own. A worker that panics re-raises its own panic
/// here, not the scope's "a scoped thread panicked".
fn fan_out<T: Send>(jobs: impl IntoIterator<Item = T>, run: impl Fn(T) + Sync) {
    let run = &run;
    std::thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let workers: Vec<_> = jobs.map(|job| s.spawn(move || run(job))).collect();
        first.map(run);
        for worker in workers {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// Largest insertion batch. Batches of `clamp(i / 32, 1, MAX_BATCH)` from
/// node `i` on leave out of a member's frozen graph at most a 32nd of the
/// nodes before it; batches of up to 256 and 512 measured +9 % and +17 %
/// build evals, and built slower.
const MAX_BATCH: usize = 64;

/// `build`'s working set: the index under construction plus everything only
/// construction needs, dropped when `build` returns. Each batch is appended,
/// planned (`plan`) and linked (`apply`); see the module doc.
///
/// A selected block is always `K ascending ++ R ascending` — the members
/// the diversity heuristic kept, then the rejects that backfilled the spare
/// slots — with each slot's squared distance to the block's owner cached
/// beside it, so a full block taking one more neighbor re-derives only the
/// verdicts that neighbor can have changed (see [`Reuse`]).
struct Builder {
    index: HnswIndex,
    /// One word per word of `index.links`. Beside a slot: the bits of that
    /// neighbor's squared distance to the block's owner. Beside a length
    /// word: `|K|`, how many leading slots the heuristic kept — 0 while the
    /// block has only ever been appended to (a selection keeps at least its
    /// closest candidate).
    state: Vec<u32>,
    works: Vec<Work>,
    /// Every link the batch's plans ask for, sorted by key.
    links: Vec<Link>,
}

impl Builder {
    /// Inserts every item into `index` in id order, in batches of at most
    /// `max_batch` planned on up to `workers` threads.
    fn run(
        index: HnswIndex,
        items: &[(ChunkId, Vec<f32>)],
        workers: usize,
        max_batch: usize,
    ) -> Self {
        let ml = 1.0 / (index.config.m as f64).ln();
        let mut builder = Self {
            state: vec![0; index.links.len()],
            index,
            works: (0..workers.clamp(1, max_batch))
                .map(|_| Work::default())
                .collect(),
            links: Vec::new(),
        };
        let (mut batch, mut start) = (Vec::new(), 0);
        while start < items.len() {
            let end = items.len().min(start + (start / 32).clamp(1, max_batch));
            batch.clear();
            for ((id, v), i) in items[start..end].iter().zip(start as u64..) {
                let level = HnswIndex::level_for(i, ml);
                batch.push((builder.append(*id, v, level), level));
            }
            builder.plan(&batch);
            builder.apply(batch.len());
            let index = &mut builder.index;
            for &(node, level) in &batch {
                if level > index.max_level {
                    index.max_level = level;
                    index.entry = node;
                }
            }
            start = end;
        }
        builder
    }

    /// The finished index; the working set ends here.
    fn finish(self) -> HnswIndex {
        let mut index = self.index;
        index.build_evals = self.works.iter().map(|w| w.evals).sum();
        index
    }

    /// Gives a new node its id, row and (still empty) upper blocks.
    fn append(&mut self, id: ChunkId, v: &[f32], level: usize) -> u32 {
        let index = &mut self.index;
        let node = index.ids.len() as u32;
        index.ids.push(id);
        index.rows.extend_from_slice(v);
        if level > 0 {
            index.upper_at.push((node, index.links.len()));
            let slots = level * (index.config.m + 1);
            index.links.resize(index.links.len() + slots, 0);
            self.state.resize(index.links.len(), 0);
        }
        node
    }

    /// Plans every member of `batch`, each on whichever worker is free
    /// next, and gathers their links in the order `apply` takes them.
    fn plan(&mut self, batch: &[(u32, usize)]) {
        let (index, next) = (&self.index, AtomicUsize::new(0));
        let workers = batch.len().min(self.works.len());
        let works = &mut self.works[..workers];
        fan_out(works.iter_mut(), |work| {
            work.links.clear();
            let ats = std::iter::repeat_with(|| next.fetch_add(1, atomic::Ordering::Relaxed));
            for at in ats.take_while(|&at| at < batch.len()) {
                work.plan(index, batch, at);
            }
        });
        self.links.clear();
        self.links.extend(works.iter().flat_map(|w| &w.links));
        self.links.sort_by_key(|l| (l.0, l.1));
    }

    /// Applies the batch's links on up to `members` workers, each owning a
    /// run of whole blocks; `split_at_mut` hands out the runs.
    fn apply(&mut self, members: usize) {
        let Self {
            index,
            state,
            works,
            links: batch,
        } = self;
        let mut links = std::mem::take(&mut index.links);
        let (graph, len) = (&*index, links.len());
        let parts = works.len().min(members);
        let (mut rest, mut rest_state) = (&mut links[..], &mut state[..]);
        // The runs share out the back links: the ones a planner asks of
        // another node's list, which re-select a full list where a forward
        // link only fills the planner's own. A run ends at the block of the
        // first back link of the next share.
        let back: Vec<usize> = (0..batch.len())
            .filter(|&i| batch[i].2.node == batch[i].1)
            .collect();
        let (mut from, mut done, mut jobs) = (0, 0, Vec::with_capacity(parts));
        for (k, work) in works.iter_mut().take(parts).enumerate() {
            let to = back.get((k + 1) * back.len() / parts);
            let to = to.map_or(len, |&i| batch[i].0);
            let end = batch.partition_point(|l| l.0 < to);
            let run = (cut(&mut rest, to - from), cut(&mut rest_state, to - from));
            jobs.push((work, from, &batch[done..end], run));
            (from, done) = (to, end);
        }
        // Layer 0 comes first, at `2m` slots a block; `m` above.
        let m = graph.config.m;
        let l0 = graph.upper_at.first().map_or(len, |u| u.1);
        fan_out(jobs, |(work, base, mine, (links, state))| {
            for &(at, _, new) in mine {
                let cap = if at < l0 { 2 * m } else { m };
                let block = at - base..=at - base + cap;
                work.link(graph, &mut links[block.clone()], &mut state[block], new);
            }
        });
        index.links = links;
    }
}

impl VectorIndex for HnswIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        self.search_with_ef(query, k, self.config.ef_search)
    }
}

/// The build this module had before it reused anything — a min-heap and a
/// max-heap in the beam, every full list re-scored and re-selected from
/// scratch on every link — kept verbatim as the oracle `build` must equal
/// graph for graph.
#[cfg(test)]
mod classic {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// Exact distance evaluations of a classic build: all of them, and the
    /// share spent inside `link`.
    #[derive(Clone, Copy, Debug, Default)]
    pub(super) struct ClassicEvals {
        pub(super) total: u64,
        pub(super) link: u64,
    }

    impl HnswIndex {
        /// The f32 index `build` must reproduce, with what it cost.
        pub(super) fn build_classic(
            dim: usize,
            config: HnswConfig,
            items: &[(ChunkId, Vec<f32>)],
        ) -> (Self, ClassicEvals) {
            let mut index = Self::empty(dim, config, Quantization::F32, items);
            let ml = 1.0 / (config.m as f64).ln();
            let mut scratch = SearchScratch::default();
            let mut evals = ClassicEvals::default();
            for (i, (id, v)) in items.iter().enumerate() {
                let level = Self::level_for(i as u64, ml);
                index.insert_classic(*id, v, level, &mut scratch, &mut evals);
            }
            index.build_evals = evals.total;
            (index, evals)
        }

        fn insert_classic(
            &mut self,
            id: ChunkId,
            v: &[f32],
            level: usize,
            scratch: &mut SearchScratch,
            evals: &mut ClassicEvals,
        ) {
            let node = self.ids.len() as u32;
            self.ids.push(id);
            self.rows.extend_from_slice(v);
            if level > 0 {
                self.upper_at.push((node, self.links.len()));
                let slots = level * (self.config.m + 1);
                self.links.resize(self.links.len() + slots, 0);
            }
            if node == 0 {
                self.max_level = level;
                return;
            }
            let q = Scorer::Exact(v);
            let mut cur = self.score(&q, self.entry);
            scratch.scored.clear();
            for lvl in (level + 1..=self.max_level).rev() {
                cur = self.greedy_step(&q, cur, lvl, &mut scratch.scored).0;
            }
            evals.total += 1 + scratch.scored.len() as u64;
            let mut entries = vec![cur];
            for lvl in (0..=level.min(self.max_level)).rev() {
                let found = self.search_layer_classic(&q, &entries, lvl, scratch, &mut evals.total);
                for nb in self.select_neighbors_classic(&found, self.config.m, &mut evals.total) {
                    let before = evals.total;
                    self.link_classic(node, lvl, nb, &mut evals.total);
                    self.link_classic(nb, lvl, node, &mut evals.total);
                    evals.link += evals.total - before;
                }
                entries = found;
            }
            if level > self.max_level {
                self.max_level = level;
                self.entry = node;
            }
        }

        fn select_neighbors_classic(
            &self,
            cand: &[Scored],
            cap: usize,
            evals: &mut u64,
        ) -> Vec<u32> {
            let mut kept: Vec<u32> = Vec::with_capacity(cap);
            let mut rejected: Vec<u32> = Vec::new();
            for &c in cand {
                if kept.len() == cap {
                    break;
                }
                let row = self.exact_row(c.node);
                let diverse = kept.iter().all(|&k| {
                    *evals += 1;
                    squared_l2(row, self.exact_row(k)) > c.d
                });
                if diverse {
                    kept.push(c.node);
                } else {
                    rejected.push(c.node);
                }
            }
            let spare = cap - kept.len();
            kept.extend(rejected.into_iter().take(spare));
            kept
        }

        fn link_classic(&mut self, node: u32, lvl: usize, new: u32, evals: &mut u64) {
            let (at, cap) = self.block(node, lvl);
            let len = self.links[at] as usize;
            if len < cap {
                self.links[at] += 1;
                self.links[at + 1 + len] = new;
                return;
            }
            let anchor = Scorer::Exact(self.exact_row(node));
            let slots = self.links[at + 1..=at + cap].iter().chain([&new]);
            let mut scored: Vec<Scored> = slots.map(|&nb| self.score(&anchor, nb)).collect();
            *evals += scored.len() as u64;
            scored.sort_unstable();
            let picked = self.select_neighbors_classic(&scored, cap, evals);
            self.links[at] = picked.len() as u32;
            self.links[at + 1..][..picked.len()].copy_from_slice(&picked);
        }

        /// The traversal searches ran before a hop scored its neighbors
        /// together — visit, score, record and admit one neighbor at a time,
        /// the descent likewise — kept as the oracle `traverse` must equal
        /// frontier for frontier.
        pub(super) fn traverse_classic(
            &self,
            q: &Scorer<'_>,
            ef: usize,
            scratch: &mut SearchScratch,
        ) -> (usize, usize) {
            let mut hops = 0;
            scratch.begin(self.ids.len());
            let mut cur = self.score(q, self.entry);
            scratch.scored.push(cur);
            for lvl in (1..=self.max_level).rev() {
                loop {
                    hops += 1;
                    let mut improved = false;
                    for &nb in self.neighbors(cur.node, lvl) {
                        let s = self.score(q, nb);
                        scratch.scored.push(s);
                        if s.d < cur.d {
                            cur = s;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            let rescorable = scratch.scored.len();
            scratch.visit(cur.node);
            scratch.frontier.push(cur);
            for expanded in 1..=ef {
                let Some(c) = scratch.frontier.pop() else {
                    break;
                };
                hops += 1;
                for &nb in self.neighbors(c.node, 0) {
                    if scratch.visit(nb) {
                        let s = self.score(q, nb);
                        scratch.scored.push(s);
                        scratch.admit(s, ef - expanded);
                    }
                }
            }
            (hops, rescorable)
        }

        fn search_layer_classic(
            &self,
            q: &Scorer<'_>,
            entries: &[Scored],
            lvl: usize,
            scratch: &mut SearchScratch,
            evals: &mut u64,
        ) -> Vec<Scored> {
            let ef = self.config.ef_construction;
            scratch.begin(self.ids.len());
            for e in entries {
                scratch.visit(e.node);
            }
            let mut cand: BinaryHeap<Reverse<Scored>> =
                entries.iter().map(|&s| Reverse(s)).collect();
            let mut best: BinaryHeap<Scored> = entries.iter().copied().collect();
            while let Some(Reverse(c)) = cand.pop() {
                let worst = best.peek().map_or(f32::INFINITY, |w| w.d);
                if best.len() >= ef && c.d > worst {
                    break;
                }
                for &nb in self.neighbors(c.node, lvl) {
                    if !scratch.visit(nb) {
                        continue;
                    }
                    let s = self.score(q, nb);
                    *evals += 1;
                    let worst = best.peek().map_or(f32::INFINITY, |w| w.d);
                    if best.len() < ef || s.d < worst {
                        cand.push(Reverse(s));
                        best.push(s);
                        if best.len() > ef {
                            best.pop();
                        }
                    }
                }
            }
            best.into_sorted_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    /// `n` points scattered over `[0, 10)^dim`, two decimals each.
    fn ring_items(n: u32, dim: usize) -> Items {
        let scaled = |(id, v): (ChunkId, Vec<f32>)| (id, v.iter().map(|x| x / 100.0).collect());
        grid_items(n as usize, dim, 1000, 31)
            .into_iter()
            .map(scaled)
            .collect()
    }

    type Items = Vec<(ChunkId, Vec<f32>)>;

    /// `n` points drawn from `seed` on the integer grid `{0, …, side - 1}^dim`.
    /// A small `side` leaves far more vectors than grid points, so duplicates
    /// and tied distances are the common case; [`UNIFORM`] is as good as
    /// continuous.
    fn grid_items(n: usize, dim: usize, side: u64, seed: u64) -> Items {
        let mut state = seed;
        (0..n as u32)
            .map(|i| {
                let v = (0..dim)
                    .map(|_| {
                        state = splitmix64(state);
                        (state % side) as f32
                    })
                    .collect();
                (ChunkId(i), v)
            })
            .collect()
    }

    /// Grid side at which [`grid_items`] is a uniform draw from a cube.
    const UNIFORM: u64 = 1 << 20;

    /// A corpus and a configuration drawn from `seed`: m 2..=16,
    /// ef_construction 3..=80, n 100..=`max_n` (skewed small: half the draws
    /// stay in the lowest eighth of the log range, one in ten reaches the
    /// top quarter). Four seeds in five put 1–8 dims on a grid 2–5 points a
    /// side, every fifth spreads 16–64 dims uniformly. Either way some
    /// nodes are promoted, so `cap = m` blocks re-select too.
    fn shape(seed: u64, max_n: usize) -> (usize, HnswConfig, Items) {
        let mut state = seed;
        let mut draw = |lo: usize, hi: usize| {
            state = splitmix64(state);
            lo + (state % (hi - lo + 1) as u64) as usize
        };
        let config = HnswConfig {
            m: draw(2, 16),
            ef_construction: draw(3, 80),
            ..HnswConfig::default()
        };
        let u = draw(0, 999) as f64 / 1e3;
        let n = (100.0 * (max_n as f64 / 100.0).powf(u * u * u)) as usize;
        let (dim, side) = if seed.is_multiple_of(5) {
            (draw(16, 64), UNIFORM)
        } else {
            (draw(1, 8), draw(2, 5) as u64)
        };
        (dim, config, grid_items(n, dim, side, !seed))
    }

    /// An f32 build on `workers` threads in batches of at most `max_batch`.
    fn build_on(
        dim: usize,
        config: HnswConfig,
        items: &Items,
        workers: usize,
        max_batch: usize,
    ) -> Builder {
        let index = HnswIndex::empty(dim, config, Quantization::F32, items);
        Builder::run(index, items, workers, max_batch)
    }

    /// Builds `shape(seed, max_n)` both ways, demands the same graph, and
    /// returns the corners the fast build met with both eval counts.
    fn matches_classic(
        (dim, config, items): (usize, HnswConfig, Items),
    ) -> (Corners, u64, classic::ClassicEvals) {
        let builder = build_on(dim, config, &items, 1, 1);
        let corners = builder.works[0].corners;
        let fast = builder.finish();
        let (classic, evals) = HnswIndex::build_classic(dim, config, &items);
        // The digest is what the goldens pin; the fields are what it folds.
        fn graph(i: &HnswIndex) -> (&[u32], &[(u32, usize)], u32, usize) {
            (&i.links, &i.upper_at, i.entry, i.max_level)
        }
        assert!(
            graph(&fast) == graph(&classic) && fast.graph_digest() == classic.graph_digest(),
            "another graph at {} x {dim}, {config:?}",
            items.len()
        );
        (corners, fast.build_evals, evals)
    }

    /// Sweeps `seeds` through [`matches_classic`] and insists the sweep
    /// exercised every corner the exactness argument turns on: a test that
    /// never met a tie would pass without the side list.
    fn sweep_matches_classic(seeds: std::ops::Range<u64>, max_n: usize) {
        let mut met = Corners::default();
        for seed in seeds {
            let (corners, _, _) = matches_classic(shape(seed, max_n));
            met.tie_expansions += corners.tie_expansions;
            met.flips += corners.flips;
            met.first_selections += corners.first_selections;
        }
        assert!(
            met.tie_expansions > 0 && met.flips > 0 && met.first_selections > 0,
            "the sweep skipped a corner: {met:?}"
        );
    }

    #[test]
    fn build_matches_classic_on_random_shapes() {
        sweep_matches_classic(0..200, 2_000);
    }

    /// The long sweep, for a release build (CI runs it with `--ignored`):
    /// deeper corpora, then the benchmark's own shape.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn build_matches_classic_long_sweep() {
        sweep_matches_classic(1_000..2_000, 10_000);
        let items = grid_items(8_192, 64, UNIFORM, 7);
        let (_, fast, classic) = matches_classic((64, HnswConfig::default(), items));
        // Everything outside `link` is the same work in both builds, and
        // `link` is where the reuse is: it keeps under a quarter of its.
        let link = fast - (classic.total - classic.link);
        assert!(
            link * 4 <= classic.link,
            "link spends {link} evals, the classic build's {}",
            classic.link
        );
    }

    /// The deterministic side of the build-time claim, on the search
    /// golden's shape: at least 40 % of the classic build's distance
    /// evaluations are gone, on any host.
    #[test]
    fn build_spends_at_most_six_tenths_of_the_classic_evals() {
        let items = grid_items(2_000, 32, UNIFORM, 7);
        let (_, fast, classic) = matches_classic((32, HnswConfig::default(), items));
        assert!(
            fast * 10 <= classic.total * 6,
            "{fast} evals against the classic build's {}",
            classic.total
        );
    }

    /// Scoring a hop's neighbors in groups changes nothing a search returns
    /// or reports: over random shapes (ties and duplicates everywhere), all
    /// three storage modes and budgets from one hop up, hits, distance bits
    /// and `SearchWork` equal the one-at-a-time traversal's — and the sweep
    /// met every group shape: no unvisited neighbor, a remainder alone
    /// (1, 2, 3), a group plus a remainder (5), and a full layer-0 list.
    #[test]
    fn search_matches_the_one_at_a_time_traversal_on_random_shapes() {
        let (mut unvisited, mut full_lists) = (std::collections::BTreeSet::new(), 0);
        for seed in 0..60 {
            SCRATCH.with_borrow_mut(|s| s.fresh_lens.clear());
            let (dim, config, items) = shape(seed, 1_500);
            let queries = grid_items(6, dim, 5, seed ^ 0x5EED);
            for quant in [
                Quantization::F32,
                Quantization::Sq8 { rerank: 0 },
                Quantization::Sq8 { rerank: 4 },
            ] {
                let idx = HnswIndex::build(dim, config, quant, &items);
                for (i, (_, q)) in queries.iter().enumerate() {
                    let (k, ef) = ([1, 3, 10][i % 3], [1, 2, 7, 40, 64, 300][i]);
                    let got = idx.search_by(q, k, ef, HnswIndex::traverse);
                    let want = idx.search_by(q, k, ef, HnswIndex::traverse_classic);
                    let bits = |o: &SearchOutcome| -> Vec<(ChunkId, u32)> {
                        let hit = |h: &Hit| (h.chunk, h.distance.to_bits());
                        o.hits.iter().map(hit).collect()
                    };
                    assert!(
                        bits(&got) == bits(&want) && got.work == want.work,
                        "seed {seed}, {quant:?}, k {k}, ef {ef}: {got:?} vs {want:?}"
                    );
                }
            }
            SCRATCH.with_borrow(|s| {
                let full = (2 * config.m, 2 * config.m);
                full_lists += usize::from(s.fresh_lens.contains(&full));
                unvisited.extend(s.fresh_lens.iter().map(|&(fresh, _)| fresh));
            });
        }
        assert!(
            [0, 1, 2, 3, 5].iter().all(|n| unvisited.contains(n)) && full_lists > 0,
            "the sweep skipped a group shape: {unvisited:?}, {full_lists} full lists"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_row_is_refused_at_build() {
        let mut items = ring_items(10, 3);
        items[7].1[1] = f32::NAN;
        HnswIndex::build(3, HnswConfig::default(), Quantization::F32, &items);
    }

    #[test]
    fn epoch_wrap_forgets_stale_stamps_and_changes_no_answer() {
        let mut scratch = SearchScratch::default();
        scratch.begin(4);
        assert!(scratch.visit(2));
        assert!(!scratch.visit(2), "second visit in one traversal");
        // Node 2 now carries stamp 1. Run the epoch up to the wrap: the
        // traversal after it is numbered 1 again, and must not inherit it.
        scratch.epoch = u32::MAX - 1;
        scratch.begin(4);
        assert!(scratch.visit(3));
        scratch.begin(4);
        assert_eq!(
            scratch.epoch, 1,
            "epoch 0 is skipped: it is the cleared stamp"
        );
        assert!(
            scratch.visit(2),
            "a stamp from before the wrap reads unvisited"
        );
        assert!(scratch.visit(3));

        // End to end, on this thread's own scratch: searches straddling the
        // wrap return what they returned before it.
        let items = ring_items(300, 4);
        let idx = HnswIndex::build(4, HnswConfig::default(), Quantization::sq8(), &items);
        let q = [2.0, 7.0, 1.0, 8.0];
        let before = idx.search_counted(&q, 6);
        SCRATCH.with_borrow_mut(|s| s.epoch = u32::MAX - 1);
        for _ in 0..3 {
            let after = idx.search_counted(&q, 6);
            assert_eq!(after.hits, before.hits);
            assert_eq!(after.work, before.work);
        }
    }

    /// The graph and its cost are a function of the data alone: one, two
    /// and three workers build the same bytes with the same evals, on the
    /// search golden's shape and both of its grid shapes.
    #[test]
    fn worker_count_changes_neither_the_graph_nor_its_cost() {
        let tight = HnswConfig {
            m: 6,
            ef_construction: 10,
            ..HnswConfig::default()
        };
        for (dim, config, items) in [
            (32, HnswConfig::default(), grid_items(2_000, 32, UNIFORM, 7)),
            (3, tight, grid_items(1_500, 3, 4, 7)),
            (8, HnswConfig::default(), grid_items(1_000, 8, 2, 7)),
        ] {
            let built = |workers| {
                let index = build_on(dim, config, &items, workers, MAX_BATCH).finish();
                (index.graph_digest(), index.build_evals)
            };
            let one = built(1);
            for workers in [2, 3] {
                assert_eq!(built(workers), one, "{workers} workers at {dim} dims");
            }
        }
    }

    /// Batching costs the graph nothing a search sees: on the search
    /// golden's shape the batched graph finds at least the true neighbors
    /// the batch-of-one graph finds, spending at most 2 % more evals.
    #[test]
    fn batches_search_as_well_as_sequential_insertion() {
        let items = grid_items(2_000, 32, UNIFORM, 7);
        let flat = FlatIndex::over(32, &items);
        let queries = grid_items(200, 32, UNIFORM, 8);
        let quality = |max_batch| {
            let index = build_on(32, HnswConfig::default(), &items, 2, max_batch).finish();
            let (mut found, mut evals) = (0, 0);
            for (_, q) in &queries {
                let gold: Vec<_> = flat.search(q, 10).iter().map(|h| h.chunk).collect();
                let out = index.search_counted(q, 10);
                found += out.hits.iter().filter(|h| gold.contains(&h.chunk)).count();
                evals += out.work.distances();
            }
            (found, evals)
        };
        let (batched, single) = (quality(MAX_BATCH), quality(1));
        assert!(
            batched.0 >= single.0 && batched.1 * 100 <= single.1 * 102,
            "batched (found, evals) {batched:?}, batch of one {single:?}"
        );
    }

    #[test]
    #[should_panic(expected = "job 2 failed")]
    fn a_worker_panic_keeps_its_message() {
        fan_out(0..3, |job| assert!(job != 2, "job {job} failed"));
    }
}
