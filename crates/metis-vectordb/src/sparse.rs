//! The exact flat index a [`crate::VectorDb`] serves its embeddings from:
//! [`crate::FlatIndex`]'s answers, bit for bit, without reading most rows.
//!
//! The built-in feature-hash embeddings are sparse: 18–27 % of a chunk
//! row's coordinates are non-zero, 5–8 % of a query's. The index keeps each
//! row's non-zero coordinates and its squared norm, plus one posting list
//! per dimension. A search scatters the query's non-zero coordinates over
//! their posting lists, which yields every row's dot product with the
//! query and from it a lower bound on the row's distance. Rows are then
//! offered to the same top-`k` admission the dense scan uses
//! ([`admit_top_k`]); a row whose bound is already at least the admitted
//! worst is skipped unread, and every other row is densified and scored by
//! the one exact kernel, [`squared_l2`], so every distance it returns has
//! the dense scan's bits. See docs/retrieval.md for the measured survivors.

use std::cell::RefCell;

use metis_text::ChunkId;

use crate::flat::admit_top_k;
use crate::{assert_finite, squared_l2, SearchOutcome, SearchWork, VectorIndex};

/// Largest dimension a `u16` column can address.
const MAX_DIM: usize = 1 << 16;

/// `2^-24`, the unit roundoff of f32.
const F32_UNIT: f64 = 1.0 / (1u64 << 24) as f64;

/// Half the smallest positive subnormal f32, `2^-150`: the most one f32
/// operation in the subnormal range can lose.
const F32_SUBNORMAL_HALF_STEP: f64 = f32::MIN_POSITIVE as f64 / (1u64 << 24) as f64;

/// How far below `‖r‖² + ‖q‖² − 2 r·q`, evaluated in f64, [`squared_l2`]
/// can land at dimension `dim`: `margin = slope · (‖r‖² + ‖q‖²) + floor`.
///
/// Write `E = Σ (r_i − q_i)²` in exact arithmetic over the stored f32
/// values. Every `r_i q_i` and `r_i²` is exact in f64 (24 + 24 significant
/// bits), so the f64 bound differs from `E` only by the rounding of its
/// sums, at most `(2 dim + 8) · 2^-53 · (‖r‖² + ‖q‖²)`. The kernel rounds
/// each `r_i − q_i` once (a factor `(1 − u)²` on the square, `u = 2^-24`)
/// and the square once more, and each term then passes through at most
/// `dim + 15` additions (the kernel makes no more: `dim` into the lanes and
/// the tail, 15 in the 16 → 1 fold), each a relative error of at most `u`
/// on non-negative operands. So it returns at least `(1 − (dim + 18) u) E`,
/// less `2^-150` per square that underflowed to a subnormal. With
/// `E ≤ 2 (‖r‖² + ‖q‖²)`:
///
/// `squared_l2 ≥ bound − (2 dim + 36) u (‖r‖² + ‖q‖²) − dim · 2^-150`.
///
/// The slope below takes `2 dim + 64` instead of `2 dim + 36`; the spare
/// `28 u` dominates the f64 rounding of the bound and of this margin many
/// times over. The floor doubles the subnormal loss. An overflowing kernel
/// returns `+∞`, above any finite bound.
fn margin(dim: usize) -> (f64, f64) {
    let dim = dim as f64;
    (
        (2.0 * dim + 64.0) * F32_UNIT,
        dim * 2.0 * F32_SUBNORMAL_HALF_STEP,
    )
}

/// Per-thread search memory, reused by the next search on the thread.
#[derive(Default)]
struct Scratch {
    /// `bounds[row]`: a lower bound on the row's squared distance.
    bounds: Vec<f64>,
    /// One row densified for the kernel; all zeros between scorings of a
    /// search.
    row: Vec<f32>,
}

thread_local! {
    /// The searching thread's scratch: no lock, no cross-thread sharing.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Exact L2 index over sparse vectors: the same hits, distance bits and
/// [`SearchWork`] as a [`crate::FlatIndex`] over the same vectors.
pub(crate) struct SparseFlatIndex {
    dim: usize,
    ids: Vec<ChunkId>,
    /// Row `r`'s non-zero coordinates are `cols[starts[r]..starts[r + 1]]`
    /// (ascending) with the values at the same positions of `vals`.
    starts: Vec<usize>,
    cols: Vec<u16>,
    vals: Vec<f32>,
    /// `‖r‖²` in f64, per row.
    norms: Vec<f64>,
    /// Dimension `j`'s posting list, `(row, value)` in ascending row, is
    /// `postings[list_starts[j]..list_starts[j + 1]]`.
    list_starts: Vec<usize>,
    postings: Vec<(u32, f32)>,
}

impl SparseFlatIndex {
    /// Builds the index in one pass over `rows`, keeping only each
    /// vector's non-zero coordinates, then lays out the posting lists by a
    /// counting sort over those.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or above 65 536 (a column is a `u16`), or if
    /// a vector has the wrong dimension or non-finite components.
    pub(crate) fn build(dim: usize, rows: impl IntoIterator<Item = (ChunkId, Vec<f32>)>) -> Self {
        assert!(
            (1..=MAX_DIM).contains(&dim),
            "sparse flat index: dimension {dim} outside 1..=65536 (columns are u16)"
        );
        let (mut ids, mut starts, mut cols, mut vals, mut norms) =
            (Vec::new(), vec![0], Vec::new(), Vec::new(), Vec::new());
        let mut list_lens = vec![0usize; dim];
        let (mut row_cols, mut row_vals) = (vec![0u16; dim], vec![0.0f32; dim]);
        for (id, v) in rows {
            assert_eq!(v.len(), dim, "dimension mismatch");
            assert_finite(&v);
            // Branch-free compaction: every coordinate is written, and the
            // cursor moves past the non-zero ones only.
            let mut nnz = 0;
            for (j, &x) in v.iter().enumerate() {
                row_cols[nnz] = j as u16;
                row_vals[nnz] = x;
                nnz += usize::from(x != 0.0);
            }
            let (row_cols, row_vals) = (&row_cols[..nnz], &row_vals[..nnz]);
            for &c in row_cols {
                list_lens[usize::from(c)] += 1;
            }
            ids.push(id);
            norms.push(row_vals.iter().map(|&x| f64::from(x) * f64::from(x)).sum());
            cols.extend_from_slice(row_cols);
            vals.extend_from_slice(row_vals);
            starts.push(cols.len());
        }
        assert!(u32::try_from(ids.len()).is_ok(), "more than u32::MAX rows");
        let mut list_starts = Vec::with_capacity(dim + 1);
        list_starts.push(0);
        for len in &list_lens {
            list_starts.push(list_starts.last().expect("starts at 0") + len);
        }
        // Counting sort: each list's cursor walks from its start, and rows
        // arrive in ascending order.
        let mut cursor = list_starts[..dim].to_vec();
        let mut postings = vec![(0u32, 0.0f32); cols.len()];
        for (row, span) in starts.windows(2).enumerate() {
            for (&c, &x) in cols[span[0]..span[1]].iter().zip(&vals[span[0]..span[1]]) {
                let at = &mut cursor[usize::from(c)];
                postings[*at] = (row as u32, x);
                *at += 1;
            }
        }
        Self {
            dim,
            ids,
            starts,
            cols,
            vals,
            norms,
            list_starts,
            postings,
        }
    }

    /// Sets `bounds[row]`, for every row, to a lower bound on
    /// `squared_l2(row, query)`: `‖r‖² + ‖q‖² − 2 r·q − margin`, with `r·q`
    /// scattered from the query's non-zero coordinates over their posting
    /// lists and summed in f64 in ascending dimension.
    fn lower_bounds(&self, query: &[f32], bounds: &mut Vec<f64>) {
        bounds.clear();
        let q_norm: f64 = query.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        // Finite f32 squares cannot overflow an f64 sum of 65 536 of them,
        // so the norm is finite iff the query is. A non-finite query has no
        // finite bound: every row is scored.
        if !q_norm.is_finite() {
            bounds.resize(self.ids.len(), f64::NEG_INFINITY);
            return;
        }
        bounds.resize(self.ids.len(), 0.0);
        for (j, &x) in query.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let x = f64::from(x);
            for &(row, v) in &self.postings[self.list_starts[j]..self.list_starts[j + 1]] {
                bounds[row as usize] += f64::from(v) * x;
            }
        }
        let (slope, floor) = margin(self.dim);
        for (b, &r_norm) in bounds.iter_mut().zip(&self.norms) {
            let norms = r_norm + q_norm;
            *b = norms - 2.0 * *b - (slope * norms + floor);
        }
    }

    /// `squared_l2(row, query)` with `row` densified into `dense`, which is
    /// all zeros before and after.
    fn score(&self, row: usize, query: &[f32], dense: &mut [f32]) -> f32 {
        let span = self.starts[row]..self.starts[row + 1];
        for (&c, &x) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
            dense[usize::from(c)] = x;
        }
        let d2 = squared_l2(dense, query);
        dense.fill(0.0);
        d2
    }
}

impl VectorIndex for SparseFlatIndex {
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
        let hits = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let Scratch { bounds, row } = &mut *scratch;
            self.lower_bounds(query, bounds);
            row.clear();
            row.resize(self.dim, 0.0);
            admit_top_k(
                &self.ids,
                k,
                |r, worst| bounds[r] >= f64::from(worst),
                |r| self.score(r, query, row),
            )
        });
        SearchOutcome {
            hits,
            work: SearchWork::full_scan(self.ids.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    /// A seeded stream of the inputs the sweeps draw from.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f32 {
            (self.next() >> 7) as f32 / (1u64 << 24) as f32
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }

        /// A non-zero component: mostly ordinary, sometimes subnormal or
        /// within a factor of two of `f32::MAX`.
        fn component(&mut self) -> f32 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            let magnitude = match self.below(20) {
                0 => f32::from_bits(1 + self.below(0x007f_ffff) as u32),
                1 => f32::MAX * (0.5 + self.unit() / 2.0),
                _ => self.unit() + 1e-3,
            };
            sign * magnitude
        }

        /// A `dim`-vector whose components are non-zero with probability
        /// `density`.
        fn vector(&mut self, dim: usize, density: f32) -> Vec<f32> {
            (0..dim)
                .map(|_| {
                    if self.unit() < density {
                        self.component()
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }

    /// Both indexes over `rows`, ids in reverse row order so that chunk id
    /// and row order disagree on ties.
    fn both(dim: usize, rows: &[Vec<f32>]) -> (FlatIndex, SparseFlatIndex) {
        let items: Vec<(ChunkId, Vec<f32>)> = rows
            .iter()
            .enumerate()
            .map(|(i, v)| (ChunkId((rows.len() - i) as u32 * 3), v.clone()))
            .collect();
        let mut flat = FlatIndex::new(dim);
        for (id, v) in &items {
            flat.add(*id, v);
        }
        (flat, SparseFlatIndex::build(dim, items))
    }

    /// Chunk ids, distance bits and work: everything a search returns.
    fn answer(out: &SearchOutcome) -> (Vec<(ChunkId, u32)>, SearchWork) {
        let hits = out.hits.iter().map(|h| (h.chunk, h.distance.to_bits()));
        (hits.collect(), out.work)
    }

    /// One random case: a corpus with duplicate rows, queries that are
    /// random, a stored row, a row one ulp off, all zeros or NaN, each at
    /// `k ∈ {0, 1, 3, n, n + 5}`. Returns the queries searched.
    fn differential_case(rng: &mut Lcg) -> usize {
        let dim = rng.pick(&[1, 15, 16, 17, 64, 1024]);
        let n = 1 + rng.below(if dim > 64 { 48 } else { 120 });
        let density = rng.pick(&[0.01, 0.05, 0.2, 0.5, 1.0]);
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let row = if !rows.is_empty() && rng.below(6) == 0 {
                rows[rng.below(rows.len())].clone()
            } else {
                rng.vector(dim, density)
            };
            rows.push(row);
        }
        let (flat, sparse) = both(dim, &rows);
        let query_density = rng.pick(&[0.01, 0.05, 0.2, 1.0]);
        let mut queries = vec![
            rng.vector(dim, query_density),
            rows[rng.below(n)].clone(),
            vec![0.0; dim],
        ];
        let mut nudged = rows[rng.below(n)].clone();
        let at = rng.below(dim);
        nudged[at] = f32::from_bits(nudged[at].to_bits() ^ 1);
        queries.push(nudged);
        let mut poisoned = rng.vector(dim, density);
        poisoned[rng.below(dim)] = f32::NAN;
        queries.push(poisoned);
        for q in &queries {
            for k in [0, 1, 3, n, n + 5] {
                assert_eq!(
                    answer(&sparse.search_counted(q, k)),
                    answer(&flat.search_counted(q, k)),
                    "dim {dim}, n {n}, density {density}, k {k}"
                );
            }
        }
        queries.len()
    }

    /// Searches at least `queries` queries through [`differential_case`].
    fn differential_sweep(seed: u64, queries: usize) {
        let mut rng = Lcg(seed);
        let mut searched = 0;
        while searched < queries {
            searched += differential_case(&mut rng);
        }
    }

    #[test]
    fn equals_the_dense_flat_index_bit_for_bit() {
        differential_sweep(0x5EA2C4, 1_500);
    }

    /// The long sweep, 10⁴ queries (CI runs it in release with `--ignored`).
    #[test]
    #[ignore = "the long sweep; CI runs it in release"]
    fn equals_the_dense_flat_index_long_sweep() {
        differential_sweep(0xD1FF, 10_000);
    }

    /// The row's bound and margin for one `(row, query)` pair.
    fn bound_and_margin(row: &[f32], query: &[f32]) -> (f64, f64) {
        let index = SparseFlatIndex::build(row.len(), [(ChunkId(0), row.to_vec())]);
        let mut bounds = Vec::new();
        index.lower_bounds(query, &mut bounds);
        let norms: f64 = row.iter().chain(query).map(|&x| f64::from(x).powi(2)).sum();
        let (slope, floor) = margin(row.len());
        (bounds[0], slope * norms + floor)
    }

    /// Adversarial pairs: a row one ulp from the query in every component
    /// (total cancellation), subnormal rows and queries, magnitudes near
    /// `f32::MAX` that overflow the kernel or cancel exactly, and one large
    /// term beside many squares the kernel's lanes round away.
    #[test]
    fn the_bound_never_exceeds_the_kernel() {
        let mut rng = Lcg(0xB0B);
        // `by` ulps away from zero (or towards it, below 0); zero stays.
        let ulp = |x: f32, by: i32| {
            if x == 0.0 {
                x
            } else {
                f32::from_bits(x.to_bits().wrapping_add_signed(by))
            }
        };
        for case in 0..3_000 {
            let dim = rng.pick(&[1, 2, 15, 16, 17, 64, 100, 1024]);
            let (row, query): (Vec<f32>, Vec<f32>) = match case % 6 {
                0 => {
                    let r = rng.vector(dim, 0.5);
                    let q = r.iter().map(|&x| ulp(x, rng.below(3) as i32 - 1)).collect();
                    (r, q)
                }
                1 => {
                    let sub = |rng: &mut Lcg| f32::from_bits(rng.below(0x0080_0000) as u32);
                    let r = (0..dim).map(|_| sub(&mut rng)).collect();
                    let q = (0..dim).map(|_| -sub(&mut rng)).collect();
                    (r, q)
                }
                2 => {
                    let r: Vec<f32> = (0..dim).map(|_| f32::MAX * rng.unit()).collect();
                    let sign = if case % 12 == 2 { -1.0 } else { 1.0 };
                    let q = r.iter().map(|&x| sign * ulp(x, 1)).collect();
                    (r, q)
                }
                3 => {
                    let mut r = vec![0.0; dim];
                    r[0] = 1.0;
                    let tiny = (0.99 * f32::EPSILON / 4.0).sqrt();
                    (r, vec![tiny; dim])
                }
                _ => (rng.vector(dim, 0.3), rng.vector(dim, 0.3)),
            };
            let (bound, margin) = bound_and_margin(&row, &query);
            let d2 = f64::from(squared_l2(&row, &query));
            assert!(
                bound <= d2,
                "case {case}, dim {dim}: bound {bound:e} > {d2:e}"
            );
            // And the bound is tight: it prunes as it should.
            assert!(
                d2.is_infinite() || d2 - bound <= 2.0 * margin,
                "case {case}, dim {dim}: bound {bound:e} loose under {d2:e}"
            );
        }
    }

    #[test]
    fn a_non_finite_query_bounds_nothing() {
        for q in [
            [f32::NAN, 0.0],
            [f32::INFINITY, 1.0],
            [0.0, f32::NEG_INFINITY],
        ] {
            let (bound, _) = bound_and_margin(&[1.0, 2.0], &q);
            assert_eq!(bound, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn stores_only_the_non_zero_coordinates() {
        let rows = [
            vec![0.0, 2.0, 0.0, -1.0],
            vec![0.0; 4],
            vec![3.0, 0.0, 0.0, 0.0],
        ];
        let index = SparseFlatIndex::build(4, rows.iter().cloned().map(|v| (ChunkId(9), v)));
        assert_eq!(index.starts, [0, 2, 2, 3]);
        assert_eq!(index.cols, [1, 3, 0]);
        assert_eq!(index.vals, [2.0, -1.0, 3.0]);
        assert_eq!(index.norms, [5.0, 0.0, 9.0]);
        assert_eq!(index.list_starts, [0, 1, 2, 2, 3]);
        assert_eq!(index.postings, [(2, 3.0), (0, 2.0), (0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "dimension 65537 outside 1..=65536")]
    fn refuses_a_dimension_a_u16_cannot_address() {
        SparseFlatIndex::build(MAX_DIM + 1, []);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_a_non_finite_row() {
        SparseFlatIndex::build(1, [(ChunkId(0), vec![f32::INFINITY])]);
    }
}
