//! Inverted-file (IVF) approximate index.
//!
//! A small k-means coarse quantizer assigns each vector to its nearest
//! centroid; search probes the `nprobe` nearest lists and scores only their
//! members, so the work per query is `nlist` centroid distances plus the
//! probed lists' sizes instead of the whole corpus. Real deployments at the
//! paper's corpus scale use IVF for exactly this sub-linear scan; the
//! recall-vs-latency sensitivity it introduces is the retrieval ablation
//! axis (`fig_retrieval`). The paper's own evaluation uses the exact flat
//! index ([`crate::FlatIndex`]), which remains the default everywhere.

use std::sync::Mutex;

use metis_text::ChunkId;

use crate::{
    assert_row, hit_rank, sort_hits, squared_l2, Hit, SearchOutcome, SearchWork, VectorIndex,
};

/// K-means trains on at most this many vectors (deterministically strided
/// from the corpus); the final list assignment still covers every vector.
/// Corpora at or below the cap train exactly as before, so small builds
/// are bit-identical with earlier versions.
const TRAIN_SAMPLE_CAP: usize = 32_768;

/// IVF build/search parameters.
#[derive(Clone, Copy, Debug)]
pub struct IvfConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Number of lists probed at search time.
    pub nprobe: usize,
    /// K-means refinement iterations.
    pub train_iters: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 16,
            nprobe: 4,
            train_iters: 8,
        }
    }
}

/// One inverted-list member: (id, exact row).
pub(crate) type ListEntry = (ChunkId, Vec<f32>);

/// IVF index with exact scoring inside the probed lists.
#[derive(Debug)]
pub struct IvfIndex {
    dim: usize,
    config: IvfConfig,
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<ListEntry>>,
    len: usize,
    /// Per-query working memory, reused across `search_counted` calls so
    /// the hot loop performs no per-probe allocation (the trait takes
    /// `&self`, hence the lock; searches are short, contention is the
    /// caller's concurrency, and a poisoned lock is unreachable because
    /// the critical sections don't panic).
    scratch: Mutex<IvfScratch>,
}

#[derive(Debug, Default)]
struct IvfScratch {
    /// `(distance², centroid)` ranking buffer.
    order: Vec<(f32, usize)>,
    /// Candidate hits from the probed lists, before truncation to `k`.
    hits: Vec<Hit>,
}

/// Deterministic strided seeds, skipping vectors identical to an
/// already-chosen seed: duplicate seeds would collapse two centroids onto
/// one point and permanently orphan a list. When the corpus has fewer
/// distinct vectors than `nlist`, the stride pick is reused as-is
/// (duplicates are then unavoidable).
fn seed_centroids(items: &[(ChunkId, Vec<f32>)], nlist: usize) -> Vec<Vec<f32>> {
    let mut seeds: Vec<Vec<f32>> = Vec::with_capacity(nlist);
    let mut taken = vec![false; items.len()];
    for i in 0..nlist {
        let start = i * items.len() / nlist;
        let pick = (0..items.len())
            .map(|o| (start + o) % items.len())
            .find(|&j| !taken[j] && !seeds.iter().any(|s| s == &items[j].1));
        let j = pick.unwrap_or(start);
        taken[j] = true;
        seeds.push(items[j].1.clone());
    }
    seeds
}

/// Leaves in `order` every centroid as `(distance², index)`, nearest first
/// and ties to the lower index: the order lists are probed in.
pub(crate) fn probe_order(centroids: &[Vec<f32>], query: &[f32], order: &mut Vec<(f32, usize)>) {
    order.clear();
    order.extend(centroids.iter().map(|c| squared_l2(c, query)).zip(0..));
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

impl IvfIndex {
    /// Builds the index from `(id, vector)` pairs.
    ///
    /// Whenever `items.len() >= nlist` every inverted list is guaranteed
    /// non-empty: empty clusters are re-seeded during training from the
    /// largest cluster's farthest member, and a final repair pass moves
    /// outliers into any list that still ended up empty.
    ///
    /// # Panics
    ///
    /// Panics if vectors disagree on dimension or have a non-finite
    /// component, or `nprobe > nlist`, or `nlist` is zero.
    pub fn build(dim: usize, config: IvfConfig, items: &[(ChunkId, Vec<f32>)]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(config.nlist > 0, "nlist must be positive");
        assert!(config.nprobe <= config.nlist, "nprobe must be <= nlist");
        items.iter().for_each(|(_, v)| assert_row(v, dim));
        let nlist = config.nlist.min(items.len().max(1));
        let mut centroids: Vec<Vec<f32>> = if items.is_empty() {
            vec![vec![0.0; dim]; nlist]
        } else {
            seed_centroids(items, nlist)
        };
        // K-means trains on a bounded, deterministically strided sample so
        // million-vector builds stay tractable; at or below the cap the
        // sample is the whole corpus and training is unchanged.
        let sample = items.len().min(TRAIN_SAMPLE_CAP);
        let train: Vec<usize> = (0..sample).map(|i| i * items.len() / sample).collect();
        // Lloyd iterations with empty-cluster repair.
        for _ in 0..config.train_iters {
            let assign: Vec<usize> = train
                .iter()
                .map(|&i| Self::nearest_centroid(&centroids, &items[i].1))
                .collect();
            let mut sums = vec![vec![0.0f64; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (&c, &i) in assign.iter().zip(&train) {
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(&items[i].1) {
                    *s += f64::from(*x);
                }
            }
            for (c, centroid) in centroids.iter_mut().enumerate() {
                if counts[c] > 0 {
                    for (dst, s) in centroid.iter_mut().zip(&sums[c]) {
                        *dst = (*s / counts[c] as f64) as f32;
                    }
                }
            }
            // A cluster that attracted no members would otherwise keep its
            // stale centroid forever, silently wasting the list: re-seed it
            // on the farthest member of the currently largest cluster.
            let mut stolen = vec![false; train.len()];
            for c in 0..nlist {
                if counts[c] > 0 {
                    continue;
                }
                let Some(donor) = (0..nlist)
                    .filter(|&d| counts[d] > 1)
                    .max_by_key(|&d| counts[d])
                else {
                    continue;
                };
                let far = (0..train.len())
                    .filter(|&p| assign[p] == donor && !stolen[p])
                    .max_by(|&a, &b| {
                        squared_l2(&items[train[a]].1, &centroids[donor])
                            .total_cmp(&squared_l2(&items[train[b]].1, &centroids[donor]))
                    });
                if let Some(p) = far {
                    centroids[c] = items[train[p]].1.clone();
                    stolen[p] = true;
                    counts[donor] -= 1;
                    counts[c] += 1;
                }
            }
        }
        let mut lists = vec![Vec::new(); nlist];
        for (id, v) in items {
            let c = Self::nearest_centroid(&centroids, v);
            lists[c].push((*id, v.clone()));
        }
        // Final repair: as long as one list is empty while another holds
        // more than one member, hand the donor's farthest outlier to the
        // empty list (always satisfiable when `items.len() >= nlist`).
        while let Some(empty) = lists.iter().position(Vec::is_empty) {
            let Some(donor) = (0..nlist)
                .filter(|&d| lists[d].len() > 1)
                .max_by_key(|&d| lists[d].len())
            else {
                break;
            };
            let far = (0..lists[donor].len())
                .max_by(|&a, &b| {
                    squared_l2(&lists[donor][a].1, &centroids[donor])
                        .total_cmp(&squared_l2(&lists[donor][b].1, &centroids[donor]))
                })
                .expect("donor list is non-empty");
            let (id, v) = lists[donor].swap_remove(far);
            centroids[empty] = v.clone();
            lists[empty].push((id, v));
        }
        Self {
            dim,
            config: IvfConfig {
                nlist,
                nprobe: config.nprobe.min(nlist),
                train_iters: config.train_iters,
            },
            centroids,
            lists,
            len: items.len(),
            scratch: Mutex::new(IvfScratch::default()),
        }
    }

    fn nearest_centroid(centroids: &[Vec<f32>], v: &[f32]) -> usize {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = squared_l2(c, v);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// The effective configuration (after clamping to the data size).
    pub fn config(&self) -> IvfConfig {
        self.config
    }

    /// Size of every inverted list, in list order.
    #[cfg(test)]
    pub(crate) fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Internal structure for sibling indexes in this crate (the sq8
    /// conversion in [`crate::quant`] re-encodes these lists).
    pub(crate) fn raw(&self) -> (usize, &[Vec<f32>], &[Vec<ListEntry>]) {
        (self.dim, &self.centroids, &self.lists)
    }
}

impl VectorIndex for IvfIndex {
    fn len(&self) -> usize {
        self.len
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.len == 0 {
            return SearchOutcome::default();
        }
        // Rank centroids by distance, probe the nearest `nprobe` lists.
        // Both buffers live in the reused scratch: after warm-up the probe
        // loop allocates nothing.
        let mut scratch = self.scratch.lock().expect("ivf scratch lock");
        let IvfScratch { order, hits } = &mut *scratch;
        probe_order(&self.centroids, query, order);
        hits.clear();
        let mut work = SearchWork {
            centroids_scored: self.centroids.len(),
            ..SearchWork::default()
        };
        for &(_, list) in order.iter().take(self.config.nprobe) {
            work.lists_probed += 1;
            work.vectors_scored += self.lists[list].len();
            for (id, v) in &self.lists[list] {
                hits.push(Hit {
                    chunk: *id,
                    distance: squared_l2(v, query).sqrt(),
                });
            }
        }
        // Select the best `k`, then sort only those: the order is strict and
        // total, so the hits are the ones sorting every member would give.
        if k < hits.len() {
            hits.select_nth_unstable_by(k, hit_rank);
            hits.truncate(k);
        }
        sort_hits(hits);
        SearchOutcome {
            hits: hits.clone(),
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    /// A 2-dimensional index over `items`.
    fn built(items: &[(ChunkId, Vec<f32>)], nlist: usize, nprobe: usize, iters: usize) -> IvfIndex {
        let config = IvfConfig {
            nlist,
            nprobe,
            train_iters: iters,
        };
        IvfIndex::build(2, config, items)
    }

    fn clustered_data() -> Vec<(ChunkId, Vec<f32>)> {
        // Two well-separated clusters around (0,0) and (10,10).
        let mut items = Vec::new();
        for i in 0..20u32 {
            let off = (i % 5) as f32 * 0.1;
            items.push((ChunkId(i), vec![off, -off]));
            items.push((ChunkId(100 + i), vec![10.0 + off, 10.0 - off]));
        }
        items
    }

    /// See `quant::tests::one_infinite_component_…`: an IVF index holding
    /// such a row is what `SqIvfIndex::from_ivf` would have quantized.
    #[test]
    #[should_panic(expected = "non-finite embedding component")]
    fn non_finite_row_is_refused_at_build() {
        let mut items = clustered_data();
        items[3].1[0] = f32::INFINITY;
        IvfIndex::build(2, IvfConfig::default(), &items);
    }

    #[test]
    fn finds_neighbours_in_probed_cluster() {
        let idx = built(&clustered_data(), 2, 1, 10);
        let hits = idx.search(&[10.0, 10.0], 5);
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert!(h.chunk.0 >= 100, "wrong cluster: {:?}", h.chunk);
        }
    }

    #[test]
    fn full_probe_matches_flat_index() {
        let items = clustered_data();
        let ivf = built(&items, 4, 4, 5);
        let flat = FlatIndex::over(2, &items);
        let q = [5.0, 5.0];
        let a = ivf.search(&q, 10);
        let b = flat.search(&q, 10);
        let ids_a: Vec<_> = a.iter().map(|h| h.chunk).collect();
        let ids_b: Vec<_> = b.iter().map(|h| h.chunk).collect();
        assert_eq!(ids_a, ids_b);
    }

    /// The kernel's summation order must not decide a ranking: centroid
    /// probe order and the top-k inside the probed lists, recomputed with
    /// the plain sequential sum over the same built lists, name the same
    /// chunks in the same order.
    #[test]
    fn rankings_match_the_sequential_sum_oracle() {
        use crate::test_oracle::{sequential_l2, values};
        let dim = 32;
        let items: Vec<(ChunkId, Vec<f32>)> = (0..600u32)
            .map(|i| (ChunkId(i), values(dim, u64::from(i))))
            .collect();
        let idx = IvfIndex::build(dim, IvfConfig::default(), &items);
        let (_, centroids, lists) = idx.raw();
        for q in 0..64u64 {
            let query = values(dim, 10_000 + q);
            let mut order: Vec<(f32, usize)> = centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (sequential_l2(c, &query), i))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut oracle: Vec<(f32, ChunkId)> = order
                .iter()
                .take(idx.config().nprobe)
                .flat_map(|&(_, list)| &lists[list])
                .map(|(id, v)| (sequential_l2(v, &query), *id))
                .collect();
            oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let hits = idx.search(&query, 10);
            assert_eq!(hits.len(), 10);
            for (rank, (hit, (d2, id))) in hits.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    hit.chunk,
                    *id,
                    "query {q} rank {rank}: library {:e}, sequential oracle {:e}",
                    hit.distance,
                    d2.sqrt()
                );
            }
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = IvfIndex::build(3, IvfConfig::default(), &[]);
        assert!(idx.search(&[0.0, 0.0, 0.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn nlist_clamped_to_data_size() {
        let items = vec![(ChunkId(0), vec![1.0])];
        let idx = IvfIndex::build(1, IvfConfig::default(), &items);
        assert_eq!(idx.config().nlist, 1);
        assert_eq!(idx.search(&[1.0], 1).len(), 1);
    }

    #[test]
    fn duplicate_seeds_do_not_orphan_lists() {
        // The strided seeds (positions 0, 2, 4, 6 for nlist = 4 over 8
        // items) land on duplicate vectors: without de-duplication two
        // centroids coincide and one list stays empty forever.
        let items: Vec<(ChunkId, Vec<f32>)> = vec![
            (ChunkId(0), vec![0.0, 0.0]),
            (ChunkId(1), vec![0.0, 0.0]),
            (ChunkId(2), vec![0.0, 0.0]),
            (ChunkId(3), vec![0.0, 0.1]),
            (ChunkId(4), vec![10.0, 10.0]),
            (ChunkId(5), vec![10.0, 10.1]),
            (ChunkId(6), vec![20.0, 20.0]),
            (ChunkId(7), vec![20.0, 20.1]),
        ];
        let idx = built(&items, 4, 4, 6);
        let sizes = idx.list_sizes();
        assert!(
            sizes.iter().all(|&s| s > 0),
            "empty list despite items.len() >= nlist: {sizes:?}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn no_empty_lists_when_items_cover_nlist() {
        // Two tight natural clusters but nlist = 4: naive Lloyd leaves two
        // stale centroids empty; re-seeding + repair must reclaim them.
        let items = clustered_data();
        for nlist in [2usize, 4, 8, 16] {
            let idx = built(&items, nlist, 1, 8);
            let sizes = idx.list_sizes();
            assert!(
                sizes.iter().all(|&s| s > 0),
                "nlist={nlist}: empty list: {sizes:?}"
            );
            assert_eq!(sizes.iter().sum::<usize>(), items.len());
        }
    }

    #[test]
    fn search_work_counts_probed_lists_only() {
        let items = clustered_data();
        let idx = built(&items, 4, 2, 5);
        let out = idx.search_counted(&[0.0, 0.0], 5);
        assert_eq!(out.work.lists_probed, 2);
        assert_eq!(out.work.centroids_scored, 4);
        let sizes = idx.list_sizes();
        assert!(out.work.vectors_scored < items.len());
        assert!(out.work.vectors_scored >= *sizes.iter().min().unwrap());
        // Full probe scores exactly the whole corpus.
        let full = built(&items, 4, 4, 5);
        assert_eq!(
            full.search_counted(&[0.0, 0.0], 5).work.vectors_scored,
            items.len()
        );
    }
}
