//! Exact flat L2 index — the equivalent of FAISS `IndexFlatL2`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use metis_text::ChunkId;

use crate::{assert_row, sort_hits, squared_l2, Hit, SearchOutcome, SearchWork, VectorIndex};

/// Candidate ordered so that the *worst* (largest-distance) hit is at the top
/// of a max-heap, letting us keep only the best `k`.
#[derive(PartialEq)]
struct HeapEntry {
    /// *Squared* L2 distance during the scan (the monotone transform is
    /// square-rooted only when hits are emitted).
    distance: f32,
    chunk: ChunkId,
}

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp gives a total order even for NaN (which sorts after
        // +inf), ties broken by chunk id for determinism.
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.chunk.cmp(&other.chunk))
    }
}

/// The top-`k` admission of an exact scan, shared by both flat indexes.
///
/// `rows` yields `(chunk, d2)`, the squared distance of each row offered,
/// in row order. The first `k` are admitted. After that a row displaces the
/// worst admitted one iff `d2 < worst`, so a row tied with the worst does
/// not displace it and a NaN distance neither displaces an entry nor is
/// displaced; ties inside the heap pop the larger chunk id. Returns the
/// admitted rows as hits in ascending distance.
///
/// **Lemma.** Let `W` be the final worst of a run over every row. A run over
/// any subsequence that keeps every row with `d2 ≤ W` returns the same hits
/// (distances not NaN). Call those rows good and the rest bad. Step by
/// step, the subsequence's heap holds exactly the good rows of the full
/// run's heap:
/// - a bad row enters the full heap only into a free slot or by displacing
///   a worst above its own `d2 > W`, itself bad, so the good rows stay put;
/// - a good row enters both heaps alike: while the full heap holds a bad
///   row, its worst is above `W ≥ d2`, so the good row displaces it (a bad
///   row) there and takes a free slot in the subsequence's heap; once the
///   full heap holds no bad row, the two heaps are equal and decide alike.
///
/// The full run ends holding good rows only (its worst is `W`), so both
/// runs end equal. A row tied *at* `W` must be kept: it may hold its slot
/// against a later row of the same distance, which then does not displace
/// it (`flat::tests::dropping_a_row_tied_at_the_worst_can_change_the_hits`).
pub(crate) fn admit_top_k(k: usize, rows: impl IntoIterator<Item = (ChunkId, f32)>) -> Vec<Hit> {
    let mut rows = rows.into_iter();
    let mut heap = BinaryHeap::with_capacity(k.min(rows.size_hint().1.unwrap_or(k)));
    heap.extend(
        rows.by_ref()
            .take(k)
            .map(|(chunk, distance)| HeapEntry { distance, chunk }),
    );
    if let Some(top) = heap.peek() {
        // The full heap's largest squared distance, kept in a local so a
        // rejected row costs one compare.
        let mut worst = top.distance;
        for (chunk, distance) in rows {
            if distance < worst {
                heap.pop();
                heap.push(HeapEntry { distance, chunk });
                worst = heap.peek().expect("k > 0").distance;
            }
        }
    }
    let mut hits: Vec<Hit> = heap
        .into_iter()
        .map(|e| Hit {
            chunk: e.chunk,
            distance: e.distance.sqrt(),
        })
        .collect();
    sort_hits(&mut hits);
    hits
}

/// Exact (brute-force) L2 nearest-neighbour index.
///
/// Vectors are stored contiguously; search scans all of them and keeps the
/// best `k` in a bounded max-heap — `O(n · d)` distance work plus
/// `O(log k)` per row that beats the current worst (one compare per row
/// that does not), identical in results to FAISS `IndexFlatL2`. The rows
/// stay one contiguous array read front to back and scored one at a time:
/// two or four rows per pass, blocking and prefetching each measured slower
/// (ROADMAP item 2). A [`crate::VectorDb`] serves its embeddings from a
/// sparse index with the same answers instead (docs/retrieval.md); this one
/// holds raw vectors and is that index's test oracle.
///
/// # Examples
///
/// ```
/// use metis_vectordb::{FlatIndex, VectorIndex};
/// use metis_text::ChunkId;
///
/// let mut idx = FlatIndex::new(2);
/// idx.add(ChunkId(0), &[0.0, 1.0]);
/// idx.add(ChunkId(1), &[1.0, 0.0]);
/// let hits = idx.search(&[0.9, 0.1], 1);
/// assert_eq!(hits[0].chunk, ChunkId(1));
/// ```
#[derive(Clone, Debug)]
pub struct FlatIndex {
    dim: usize,
    data: Vec<f32>,
    ids: Vec<ChunkId>,
}

impl FlatIndex {
    /// Creates an empty index for `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Adds a vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `vector` has the wrong dimension or non-finite components.
    pub fn add(&mut self, id: ChunkId, vector: &[f32]) {
        assert_row(vector, self.dim);
        self.data.extend_from_slice(vector);
        self.ids.push(id);
    }
}

#[cfg(test)]
impl FlatIndex {
    /// The exact oracle over `items`, for the other indexes' tests.
    pub(crate) fn over(dim: usize, items: &[(ChunkId, Vec<f32>)]) -> Self {
        let mut flat = Self::new(dim);
        items.iter().for_each(|(id, v)| flat.add(*id, v));
        flat
    }
}

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.ids.is_empty() {
            return SearchOutcome::default();
        }
        let scored = self
            .data
            .chunks_exact(self.dim)
            .map(|v| squared_l2(v, query));
        let hits = admit_top_k(k, self.ids.iter().copied().zip(scored));
        SearchOutcome {
            hits,
            work: SearchWork::full_scan(self.ids.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> FlatIndex {
        let mut idx = FlatIndex::new(2);
        // Points at integer coordinates 0..5 on the x axis.
        for i in 0..5u32 {
            idx.add(ChunkId(i), &[i as f32, 0.0]);
        }
        idx
    }

    /// Regression for the NaN-ordering invariant: stored vectors are
    /// asserted finite, but a *query* may carry a NaN (upstream embedding
    /// bug, poisoned arithmetic), making every distance NaN. The old
    /// `partial_cmp(..).unwrap_or(Equal)` comparators turned that into an
    /// inconsistent sort; `total_cmp` keeps the search total and
    /// deterministic — NaN sorts after every finite distance, ties fall
    /// back to chunk id — instead of panicking a worker thread.
    #[test]
    fn nan_query_does_not_panic_and_orders_deterministically() {
        let idx = grid_index();
        let hits = idx.search(&[f32::NAN, 0.0], 3);
        assert_eq!(hits.len(), 3);
        let a: Vec<_> = hits.iter().map(|h| h.chunk).collect();
        let b: Vec<_> = idx
            .search(&[f32::NAN, 0.0], 3)
            .iter()
            .map(|h| h.chunk)
            .collect();
        assert_eq!(a, b, "NaN-distance ordering is deterministic");
        assert!(hits.iter().all(|h| h.distance.is_nan()));
    }

    /// A NaN-distance entry in the comparator itself (the bounded max-heap)
    /// keeps a total order: sorting a score list containing NaN must not
    /// panic and must place NaN last.
    #[test]
    fn heap_entry_comparator_is_total_over_nan() {
        let mut entries =
            [(f32::NAN, 0), (1.0, 1), (f32::NAN, 2), (0.5, 3)].map(|(d, c)| HeapEntry {
                distance: d,
                chunk: ChunkId(c),
            });
        entries.sort(); // would panic under an inconsistent comparator
        let order: Vec<_> = entries.iter().map(|e| e.chunk).collect();
        assert_eq!(order, vec![ChunkId(3), ChunkId(1), ChunkId(0), ChunkId(2)]);
    }

    #[test]
    fn nearest_neighbour_is_exact() {
        let idx = grid_index();
        let hits = idx.search(&[2.2, 0.0], 3);
        assert_eq!(hits[0].chunk, ChunkId(2));
        assert_eq!(hits[1].chunk, ChunkId(3));
        assert_eq!(hits[2].chunk, ChunkId(1));
    }

    #[test]
    fn distances_are_ascending_and_correct() {
        let idx = grid_index();
        let hits = idx.search(&[0.0, 0.0], 5);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        assert!((hits[1].distance - 1.0).abs() < 1e-6);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let idx = grid_index();
        assert_eq!(idx.search(&[0.0, 0.0], 100).len(), 5);
    }

    #[test]
    fn k_zero_returns_empty() {
        let idx = grid_index();
        assert!(idx.search(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_chunk_id() {
        let mut idx = FlatIndex::new(1);
        idx.add(ChunkId(7), &[1.0]);
        idx.add(ChunkId(3), &[1.0]);
        let hits = idx.search(&[0.0], 2);
        assert_eq!(hits[0].chunk, ChunkId(3));
        assert_eq!(hits[1].chunk, ChunkId(7));
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        use crate::test_oracle::values;
        use metis_embed::l2_distance;
        let items: Vec<_> = (0..200)
            .map(|i| (ChunkId(i), values(8, 42 + u64::from(i))))
            .collect();
        let q = values(8, 7);
        let hits = FlatIndex::over(8, &items).search(&q, 10);
        let mut brute: Vec<_> = items
            .iter()
            .map(|(id, r)| (l2_distance(r, &q), *id))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (hit, (d, id)) in hits.iter().zip(&brute) {
            assert_eq!(hit.chunk, *id);
            assert!((hit.distance - d).abs() < 1e-5);
        }
    }

    /// The lemma of [`admit_top_k`], on seeded distance lists: few distinct
    /// values (heavy ties, `+∞` among them), distinct chunk ids in an order
    /// unrelated to row order, and a random subset of the rows beyond the
    /// full run's final worst removed.
    #[test]
    fn dropping_rows_beyond_the_final_worst_keeps_the_hits() {
        let mut state = 0xAD_1117u64;
        let mut next = move |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        let palette = [0.0, 0.25, 1.0, 1.0, 2.0, 3.5, f32::INFINITY];
        for _ in 0..2_000 {
            // Distinct chunk ids (`· 32 + row`) in random order.
            let n = 1 + next(24);
            let rows: Vec<(ChunkId, f32)> = (0..n)
                .map(|i| (ChunkId((next(1 << 16) * 32 + i) as u32), palette[next(7)]))
                .collect();
            for k in [1, 2, 3, n] {
                let hits = admit_top_k(k, rows.iter().copied());
                let last = hits.last().expect("k ≥ 1").chunk;
                let worst = rows.iter().find(|row| row.0 == last).expect("a row").1;
                let kept = rows.iter().filter(|&&(_, d2)| d2 <= worst || next(2) == 0);
                assert_eq!(admit_top_k(k, kept.copied()), hits, "{rows:?}, k {k}");
            }
        }
    }

    /// Why the served index drops a row only when its bound is *above* the
    /// cap, never when it equals it: a row tied at the final worst holds its
    /// slot against a later tie, so removing it changes the answer.
    #[test]
    fn dropping_a_row_tied_at_the_worst_can_change_the_hits() {
        let rows = [(ChunkId(5), 1.0), (ChunkId(3), 1.0)];
        let hit = |rows: &[(ChunkId, f32)]| admit_top_k(1, rows.iter().copied())[0].chunk;
        assert_eq!(hit(&rows), ChunkId(5));
        assert_eq!(hit(&rows[1..]), ChunkId(3));
    }

    #[test]
    fn work_accounting_reports_the_full_scan() {
        let idx = grid_index();
        let out = idx.search_counted(&[1.0, 0.0], 2);
        assert_eq!(out.hits.len(), 2);
        assert_eq!(out.work, SearchWork::full_scan(5));
        assert_eq!(out.work.distances(), 5);
        // A k = 0 search does no work at all.
        let none = idx.search_counted(&[1.0, 0.0], 0);
        assert_eq!(none.work, SearchWork::default());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_add_panics() {
        let mut idx = FlatIndex::new(2);
        idx.add(ChunkId(0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_add_panics() {
        let mut idx = FlatIndex::new(1);
        idx.add(ChunkId(0), &[f32::NAN]);
    }
}
