//! Vector database substrate for the METIS reproduction.
//!
//! Reproduces the retrieval layer the paper builds from FAISS: an exact
//! flat-L2 index (`IndexFlatL2` + `index.search(query_embedding, top_k)`),
//! plus an IVF variant for completeness, a compact chunk store, and the
//! database metadata object that METIS's profiler consumes (§4.1: a one-line
//! description of the corpus plus its `chunk_size`).

#![warn(unreachable_pub)]

mod db;
mod flat;
mod hnsw;
mod ivf;
mod quant;
mod sparse;
mod store;

pub use db::{DbMetadata, IndexMeta, IndexSpec, RetrievalOutcome, RetrievalResult, VectorDb};
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfConfig, IvfIndex};
pub use quant::{Quantization, ScalarQuantizer, SqFlatIndex, SqIvfIndex};
pub use store::{ChunkStore, StoreStats};

use metis_text::ChunkId;

/// Accumulator lanes of [`squared_l2`]. A constant, not a parameter: the
/// lane count is part of the rounding, and the search goldens pin the bits.
const LANES: usize = 16;

/// Squared L2 distance — the one exact kernel behind every index, so equal
/// inputs give equal bits everywhere.
///
/// The order of additions is fixed by this source, not by the host:
///
/// 1. `LANES` independent accumulators run over `chunks_exact(LANES)`: lane
///    `l` sums `(a[i] - b[i])²` for `i ≡ l (mod LANES)`, in index order
///    (`accumulate`);
/// 2. a pairwise tree folds them 16 → 8 → 4 → 2 → 1 (`lane[l] += lane[l +
///    half]`);
/// 3. the fewer-than-`LANES` tail elements are added to that sum
///    sequentially.
///
/// Independent lanes break the single add chain that made the sequential
/// sum latency-bound, and each lane sees the same operands in the same order
/// at any vector width, so the result is bit-identical on every host. That
/// is why `mul_add`/FMA (one rounding instead of two, and only where the
/// hardware has it), `std::arch` and `target-cpu` flags are banned here:
/// they would make the pinned bits depend on where the code was built.
///
/// Which width the compiler picks is *not* fixed by the source. With steps 1
/// and 2 in one function LLVM's SLP vectoriser carries the 2-wide end of the
/// fold back through the loop: eight `<2 x float>` accumulators fed by
/// 8-byte `movsd` loads, ≈ 190 ns per L1-resident 1 024-dim eval — how this
/// kernel ran, every test green, from PR 14 to PR 22. Step 1 is therefore a
/// function of its own that is never inlined: alone it compiles to four
/// 16-byte accumulators (one `movups`/`subps`/`mulps`/`addps` each per 16
/// floats; ≈ 100 ns, the same bits), and `tests/codegen/kernel-width.sh`
/// fails the lint job when it stops doing so.
///
/// # Panics
///
/// Panics if the slices differ in length — scoring the common prefix would
/// silently rank on a truncated vector.
#[inline]
pub(crate) fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut lanes = accumulate(a, b);
    let mut half = LANES / 2;
    while half > 0 {
        let (lo, hi) = lanes.split_at_mut(half);
        for (l, h) in lo.iter_mut().zip(hi) {
            *l += *h;
        }
        half /= 2;
    }
    let (a_tail, b_tail) = (
        a.chunks_exact(LANES).remainder(),
        b.chunks_exact(LANES).remainder(),
    );
    let mut sum = lanes[0];
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Step 1 of [`squared_l2`], over the whole `LANES`-blocks of two slices of
/// one length. Out of line so that nothing downstream of the accumulators
/// shapes how the loop is vectorised (see there).
#[inline(never)]
fn accumulate(a: &[f32], b: &[f32]) -> [f32; LANES] {
    let mut lanes = [0.0f32; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for ((lane, x), y) in lanes.iter_mut().zip(ca).zip(cb) {
            let d = x - y;
            *lane += d * d;
        }
    }
    lanes
}

/// A search hit: chunk id plus L2 distance (smaller is more similar).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The matching chunk.
    pub chunk: ChunkId,
    /// L2 distance between query and chunk embeddings.
    pub distance: f32,
}

/// The order hits are returned in: ascending distance (NaN last), ties on
/// chunk id — strict and total over distinct chunks.
pub(crate) fn hit_rank(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then_with(|| a.chunk.cmp(&b.chunk))
}

pub(crate) fn sort_hits(hits: &mut [Hit]) {
    hits.sort_by(hit_rank);
}

/// Refuses a vector no index of dimension `dim` can hold. A NaN component
/// scores NaN against everything, so the row is linked or listed
/// arbitrarily and never returned; an infinite one does worse under sq8,
/// where it makes that dimension's step infinite and every *other* row
/// decode to NaN.
///
/// # Panics
///
/// Panics if `vector` is not `dim` long, or any component is NaN or
/// infinite.
pub(crate) fn assert_row(vector: &[f32], dim: usize) {
    assert_eq!(vector.len(), dim, "dimension mismatch");
    assert!(
        vector.iter().all(|x| x.is_finite()),
        "non-finite embedding component"
    );
}

/// Work performed by one index search, in units of distance computations —
/// the measured quantity a retrieval latency model converts into time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Corpus vectors scored against the query in exact f32: the whole
    /// corpus for a flat scan, the members of the probed lists for IVF,
    /// the re-rank candidates under sq8. This is the work of the modelled
    /// system, not of this implementation: the flat index a [`VectorDb`]
    /// serves from proves most rows out of reach by a bound and never reads
    /// them, yet reports the whole corpus, because the retrieval model
    /// prices FAISS's exhaustive scan on the paper's hardware.
    pub vectors_scored: usize,
    /// Corpus vectors scored in the quantized (sq8) domain — each 1-byte
    /// code decoded on the fly against the f32 query; counted apart from
    /// exact f32 evals because the retrieval model prices them apart.
    pub quantized_scored: usize,
    /// Coarse-quantizer centroids scored (IVF ranks every centroid before
    /// probing; 0 for flat).
    pub centroids_scored: usize,
    /// Inverted lists visited (IVF: the effective `nprobe`; flat scans one
    /// contiguous array and reports 0).
    pub lists_probed: usize,
    /// Graph nodes expanded while navigating an HNSW index (0 for flat and
    /// IVF): each hop is a pointer chase plus a neighbor-list scan, priced
    /// separately from the distance evals it triggers.
    pub graph_hops: usize,
}

impl SearchWork {
    /// The work of an exact full scan over `n` vectors.
    pub fn full_scan(n: usize) -> Self {
        Self {
            vectors_scored: n,
            ..Self::default()
        }
    }

    /// Total distance computations (exact + quantized corpus vectors +
    /// centroids).
    pub fn distances(&self) -> usize {
        self.vectors_scored + self.quantized_scored + self.centroids_scored
    }

    /// Component-wise sum — used to aggregate per-query work into run
    /// totals.
    pub fn add(&mut self, other: &SearchWork) {
        self.vectors_scored += other.vectors_scored;
        self.quantized_scored += other.quantized_scored;
        self.centroids_scored += other.centroids_scored;
        self.lists_probed += other.lists_probed;
        self.graph_hops += other.graph_hops;
    }
}

/// Hits plus the measured work that produced them; the default is the
/// empty answer of a search that did no work.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// The `k` nearest chunks, in ascending distance order.
    pub hits: Vec<Hit>,
    /// Work accounting for this search.
    pub work: SearchWork,
}

/// Common interface over the index variants.
///
/// ```
/// use metis_text::ChunkId;
/// use metis_vectordb::{FlatIndex, VectorIndex};
///
/// let mut index = FlatIndex::new(2);
/// index.add(ChunkId(0), &[0.0, 1.0]);
/// index.add(ChunkId(1), &[1.0, 0.0]);
///
/// let outcome = index.search_counted(&[0.9, 0.1], 1);
/// assert_eq!(outcome.hits[0].chunk, ChunkId(1));
/// // A flat index scores the whole corpus — and says so.
/// assert_eq!(outcome.work.vectors_scored, 2);
/// ```
pub trait VectorIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Returns `true` when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the `k` nearest chunks plus the work the search performed.
    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome;

    /// Returns the `k` nearest chunks to `query` in ascending distance
    /// order (for callers that don't need work accounting).
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.search_counted(query, k).hits
    }
}

#[cfg(test)]
pub(crate) mod test_oracle {
    //! Reference sums and inputs the unit tests compare the kernel against.

    /// The plain sequential sum the library used before the lane kernel:
    /// same values, different rounding — the ranking oracle.
    pub(crate) fn sequential_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// `n` deterministic values in `[-1, 1)`, a different stream per `seed`.
    pub(crate) fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 2.0 - 1.0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_oracle::values;
    use super::*;

    fn lengths() -> impl Iterator<Item = usize> {
        (0..=70).chain([1_023, 1_024, 1_025])
    }

    /// The documented order, spelled out with indexes: lane `i % 16` over
    /// the whole 16-blocks, the 16 → 8 → 4 → 2 → 1 fold, then the tail.
    fn documented_order(a: &[f32], b: &[f32]) -> f32 {
        let sq = |i: usize| (a[i] - b[i]) * (a[i] - b[i]);
        let blocked = a.len() / 16 * 16;
        let mut lane = [0.0f32; 16];
        for i in 0..blocked {
            lane[i % 16] += sq(i);
        }
        for half in [8, 4, 2, 1] {
            for l in 0..half {
                lane[l] += lane[l + half];
            }
        }
        (blocked..a.len()).fold(lane[0], |sum, i| sum + sq(i))
    }

    #[test]
    fn kernel_follows_the_documented_order_bit_for_bit() {
        for n in lengths() {
            let (a, b) = (values(n, 1), values(n, 2));
            assert_eq!(
                squared_l2(&a, &b).to_bits(),
                documented_order(&a, &b).to_bits(),
                "length {n}"
            );
        }
    }

    #[test]
    fn kernel_is_within_rounding_of_an_f64_sum() {
        for n in lengths() {
            let (a, b) = (values(n, 3), values(n, 4));
            let exact: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (f64::from(*x) - f64::from(*y)).powi(2))
                .sum();
            let got = f64::from(squared_l2(&a, &b));
            assert!(
                (got - exact).abs() <= 1e-5 * exact,
                "length {n}: {got} vs {exact}"
            );
        }
    }

    /// Same values at another slice offset give the same bits: nothing in
    /// the kernel may peel an alignment prologue off the front.
    #[test]
    fn kernel_does_not_depend_on_slice_alignment() {
        for n in lengths() {
            let (a, b) = (values(n, 5), values(n, 6));
            let want = squared_l2(&a, &b).to_bits();
            for (off_a, off_b) in [(1, 0), (0, 3), (5, 7)] {
                let (mut pa, mut pb) = (vec![9.0; off_a], vec![-9.0; off_b]);
                pa.extend_from_slice(&a);
                pb.extend_from_slice(&b);
                assert_eq!(
                    squared_l2(&pa[off_a..], &pb[off_b..]).to_bits(),
                    want,
                    "length {n}, offsets {off_a}/{off_b}"
                );
            }
        }
    }

    /// `(x - y)²` and `(y - x)²` are the same float, term by term, so the
    /// sum is too: the HNSW build caches `d(a, b)` and reads it as `d(b, a)`.
    #[test]
    fn kernel_is_bitwise_symmetric() {
        for n in 1..=1_100 {
            let (a, b) = (values(n, 7 + n as u64), values(n, 7_000 + n as u64));
            assert_eq!(
                squared_l2(&a, &b).to_bits(),
                squared_l2(&b, &a).to_bits(),
                "length {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn kernel_refuses_slices_of_different_lengths() {
        squared_l2(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }
}
