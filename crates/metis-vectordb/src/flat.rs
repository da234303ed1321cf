//! Exact flat L2 index — the equivalent of FAISS `IndexFlatL2`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use metis_text::ChunkId;

use crate::{assert_finite, sort_hits, squared_l2, Hit, SearchOutcome, SearchWork, VectorIndex};

/// Candidate ordered so that the *worst* (largest-distance) hit is at the top
/// of a max-heap, letting us keep only the best `k`.
struct HeapEntry {
    /// *Squared* L2 distance during the scan (the monotone transform is
    /// square-rooted only when hits are emitted).
    distance: f32,
    chunk: ChunkId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.distance == other.distance && self.chunk == other.chunk
    }
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
/// Rows `0..ids.len()` are offered in row order. The first `k` are admitted
/// with their squared distance `d2(row)`. After that a row displaces the
/// worst admitted one iff `d2(row) < worst`, so a row tied with the worst
/// does not displace it and a NaN distance neither displaces an entry nor is
/// displaced.
/// `skip(row, worst)` may answer `true` only for a row whose `d2(row)` is
/// provably `>= worst`: such a row would fail the compare anyway, so it is
/// not scored. Returns the admitted rows as hits in ascending distance.
pub(crate) fn admit_top_k(
    ids: &[ChunkId],
    k: usize,
    mut skip: impl FnMut(usize, f32) -> bool,
    mut d2: impl FnMut(usize) -> f32,
) -> Vec<Hit> {
    let k = k.min(ids.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = (0..k)
        .map(|row| HeapEntry {
            distance: d2(row),
            chunk: ids[row],
        })
        .collect();
    // The full heap's largest squared distance, kept in a local so a
    // rejected row costs one compare.
    let worst_of = |heap: &BinaryHeap<HeapEntry>| heap.peek().expect("k > 0").distance;
    let mut worst = worst_of(&heap);
    for (row, &chunk) in ids.iter().enumerate().skip(k) {
        if skip(row, worst) {
            continue;
        }
        let d2 = d2(row);
        if d2 < worst {
            heap.pop();
            heap.push(HeapEntry {
                distance: d2,
                chunk,
            });
            worst = worst_of(&heap);
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

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds a vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `vector` has the wrong dimension or non-finite components.
    pub fn add(&mut self, id: ChunkId, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        assert_finite(vector);
        self.data.extend_from_slice(vector);
        self.ids.push(id);
    }
}

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.ids.is_empty() {
            return SearchOutcome {
                hits: Vec::new(),
                work: SearchWork::default(),
            };
        }
        let dim = self.dim;
        let hits = admit_top_k(
            &self.ids,
            k,
            |_, _| false,
            |row| squared_l2(&self.data[row * dim..][..dim], query),
        );
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
        let mut entries = [
            HeapEntry {
                distance: f32::NAN,
                chunk: ChunkId(0),
            },
            HeapEntry {
                distance: 1.0,
                chunk: ChunkId(1),
            },
            HeapEntry {
                distance: f32::NAN,
                chunk: ChunkId(2),
            },
            HeapEntry {
                distance: 0.5,
                chunk: ChunkId(3),
            },
        ];
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
        use metis_embed::l2_distance;
        // Deterministic pseudo-random data without pulling in rand here.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
        };
        let dim = 8;
        let n = 200;
        let mut idx = FlatIndex::new(dim);
        let mut rows = Vec::new();
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            idx.add(ChunkId(i as u32), &v);
            rows.push(v);
        }
        let q: Vec<f32> = (0..dim).map(|_| next()).collect();
        let hits = idx.search(&q, 10);
        let mut brute: Vec<(f32, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (l2_distance(r, &q), i as u32))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (hit, (d, i)) in hits.iter().zip(brute.iter().take(10)) {
            assert_eq!(hit.chunk, ChunkId(*i));
            assert!((hit.distance - d).abs() < 1e-5);
        }
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
