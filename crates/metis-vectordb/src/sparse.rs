//! The exact flat index a [`crate::VectorDb`] serves its embeddings from:
//! [`crate::FlatIndex`]'s answers, bit for bit, without reading most rows.
//!
//! The built-in feature-hash embeddings are sparse: 18–27 % of a chunk
//! row's coordinates are non-zero, 5–8 % of a query's. The index keeps each
//! row's non-zero coordinates and its squared norm, plus one posting list
//! per dimension over blocks of four consecutive rows, which hold each row's
//! values again as 16-bit codes under a per-row power-of-two scale. A search
//! scatters the query's non-zero coordinates over their posting lists, four
//! rows per vector op, which yields every row's dot product with the query
//! to within the coding error and from it a lower bound on the row's
//! distance. It then scores the `k` rows of least bound; the largest of
//! those distances, the cap, is at least the final worst `W` of a dense scan
//! (among any `k` rows one is at least the `k`-th smallest), so a row whose
//! bound is above the cap is above `W`.
//! The other rows, about `k` of them, are offered in row order to the top-`k`
//! admission the dense scan uses, [`admit_top_k`], whose lemma says that
//! dropping rows above `W` changes no hit. Each is scored by the one exact
//! kernel, [`squared_l2`], so every distance it returns has the dense scan's
//! bits. See docs/retrieval.md for the rows scored per search.

use std::cell::RefCell;
use std::cmp::Ordering::Greater;
use std::collections::BinaryHeap;

use metis_text::ChunkId;

use crate::flat::admit_top_k;
use crate::{assert_row, squared_l2, SearchOutcome, SearchWork, VectorIndex};

/// Largest dimension a `u16` column can address.
const MAX_DIM: usize = 1 << 16;

/// `2^-24`, the unit roundoff of f32.
const F32_UNIT: f64 = 1.0 / (1u64 << 24) as f64;

/// Half the smallest positive subnormal f32, `2^-150`: the most one f32
/// operation in the subnormal range can lose.
const F32_SUBNORMAL_HALF_STEP: f64 = f32::MIN_POSITIVE as f64 / (1u64 << 24) as f64;

/// The least code scale, the smallest positive subnormal f32 `2^-149`.
const MIN_SCALE: f32 = f32::from_bits(1);

/// The code scale of a row whose largest magnitude is `max`: the least power
/// of two `s ≥ 2^-149` with `max ≤ 32 767 s`. Each value `x` of the row is
/// coded as `round(x / s)`: the quotient is exact (a power-of-two scaling
/// that stays in f32's normal range) or below `2^-126`, so the code is at
/// most 32 767 in magnitude and within `s / 2` of `x / s`.
fn code_scale(max: f32) -> f32 {
    // `max / 32 767` in f64 is within `2^-53` relative of the exact
    // quotient, which is a power of two or at least `2^-24` relative from
    // one (a 24-bit over a 15-bit integer), so rounding its significand up
    // gives the least power of two at or above it.
    let significand = (1u64 << 52) - 1;
    let t = f64::from(max) / f64::from(i16::MAX);
    let s = f64::from_bits((t.to_bits() + significand) & !significand);
    (s as f32).max(MIN_SCALE)
}

/// The largest magnitude in `values`, 0 if there are none.
fn max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0, |m, x| x.abs().max(m))
}

/// `x`'s code under `scale`, see [`code_scale`].
fn encode(x: f32, scale: f32) -> i16 {
    (x / scale).round() as i16
}

/// How far below `‖r‖² + ‖q‖² − 2 s L`, with `L` the f32 lane sum of
/// [`SparseFlatIndex::scatter`] over the row's codes, `s` its scale and the
/// rest in f64, [`squared_l2`] can land at dimension `dim`:
/// `margin = slope · (‖r‖² + ‖q‖²) + (1 + s) · floor + s · coding · ‖q‖₁`.
///
/// Write `E = Σ (r_i − q_i)²` in exact arithmetic over the stored f32
/// values, and `u = 2^-24`. The kernel rounds each `r_i − q_i` once (a
/// factor `(1 − u)²` on the square) and the square once more, and each term
/// then passes through at most `dim + 15` additions (the kernel makes no
/// more: `dim` into the lanes and the tail, 15 in the 16 → 1 fold), each a
/// relative error of at most `u` on non-negative operands. So it returns at
/// least `(1 − (dim + 18) u) E`, less `2^-150` per square that underflowed
/// to a subnormal; with `E ≤ 2 (‖r‖² + ‖q‖²)`, at least
/// `E − (2 dim + 36) u (‖r‖² + ‖q‖²) − dim · 2^-150`.
///
/// The row's codes `c_i` are within `s / 2` of `r_i / s` ([`code_scale`]),
/// so `|r_i − s c_i| ≤ s / 2` and `s |c_i| ≤ |r_i| + s / 2`. Its lane sums
/// at most `dim` products `c_i q_i`, in ascending `i`, each product and each
/// sum rounded once: it is within `γ Σ |c_i q_i|` of `Σ c_i q_i`,
/// `γ = dim u / (1 − dim u)`, plus `(1 + γ) 2^-150` per product that
/// underflowed. So `|r·q − s L|` is at most
/// `Σ |r_i − s c_i| |q_i| + γ s Σ |c_i q_i| + (1 + γ) s dim 2^-150`, which
/// is at most `(s / 2) ‖q‖₁ + γ (Σ |r_i q_i| + (s / 2) ‖q‖₁)` plus that
/// underflow term; with `Σ |r_i q_i| ≤ (‖r‖² + ‖q‖²) / 2`,
///
/// `2 r·q ≤ 2 s L + γ (‖r‖² + ‖q‖²) + (1 + γ) s ‖q‖₁ + 2 (1 + γ) s dim 2^-150`.
///
/// Every `r_i²` and `q_i²` is exact in f64 (24 + 24 significant bits), so the
/// f64 rest is within `(2 dim + 8) · 2^-53 · (‖r‖² + ‖q‖²)` of exact, and
/// `s L` is exact (a power-of-two multiple of an f32). So
///
/// `squared_l2 ≥ bound − ((2 dim + 36) u + γ) (‖r‖² + ‖q‖²) − (1 + γ) s ‖q‖₁
///  − dim 2^-150 − 2 (1 + γ) s dim 2^-150`,
///
/// to within the f64 rounding. The slope below takes `2 dim + 64` for
/// `2 dim + 36`; the spare `28 u` dominates the f64 rounding of the bound
/// and of this margin many times over (above the clamp,
/// `s < max |r_i| / 16 383`, so `s ‖q‖₁ < √dim (‖r‖² + ‖q‖²) / 32 766`).
/// The floor, `8 dim · 2^-150`, is each underflow loss doubled and rounded
/// up, and `coding` is `1 + γ`. A lane that overflows bounds nothing
/// (`−∞`); an overflowing kernel returns `+∞`, above any finite bound.
fn margin(dim: usize) -> (f64, f64, f64) {
    let dim = dim as f64;
    let gamma = dim * F32_UNIT / (1.0 - dim * F32_UNIT);
    (
        (2.0 * dim + 64.0) * F32_UNIT + gamma,
        dim * 8.0 * F32_SUBNORMAL_HALF_STEP,
        1.0 + gamma,
    )
}

/// Per-thread search memory, reused by the next search on the thread.
#[derive(Default)]
struct Scratch {
    /// The dot product of row `r`'s codes with the query at
    /// `lanes[r / 4][r % 4]`; once the row is scored ahead of the admission,
    /// its squared distance.
    lanes: Vec<[f32; 4]>,
    /// `bounds[row]`: a lower bound on the row's squared distance, never
    /// NaN; NaN once the row is scored ahead.
    bounds: Vec<f64>,
    /// The rows of least bound, `(bound in total order, row)`, the greatest
    /// on top.
    least: BinaryHeap<(i64, u32)>,
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
    /// Row `r`'s code scale, [`code_scale`] of its largest magnitude.
    scales: Vec<f32>,
    /// Dimension `j`'s posting list is
    /// `postings[list_starts[j]..list_starts[j + 1]]`: one entry
    /// `(block, codes)` per block of rows `4 block .. 4 block + 4` with a
    /// non-zero in column `j`, in ascending block, `codes[i]` being row
    /// `4 block + i`'s value coded under its scale (zero where it has none).
    list_starts: Vec<usize>,
    postings: Vec<(u32, [i16; 4])>,
}

impl SparseFlatIndex {
    /// Builds the index in one pass over `rows`, keeping only each
    /// vector's non-zero coordinates and counting each list's blocks, then
    /// lays out the posting lists by a counting sort over those.
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
        // Per list, its entries so far and the block of the newest one.
        let (mut list_lens, mut newest) = (vec![0usize; dim], vec![usize::MAX; dim]);
        let (mut row_cols, mut row_vals) = (vec![0u16; dim], vec![0.0f32; dim]);
        for (id, v) in rows {
            assert_row(&v, dim);
            // Branch-free compaction: every coordinate is written, and the
            // cursor moves past the non-zero ones only.
            let mut nnz = 0;
            for (j, &x) in v.iter().enumerate() {
                row_cols[nnz] = j as u16;
                row_vals[nnz] = x;
                nnz += usize::from(x != 0.0);
            }
            let (row_cols, row_vals) = (&row_cols[..nnz], &row_vals[..nnz]);
            let block = ids.len() / 4;
            for &c in row_cols {
                let c = usize::from(c);
                list_lens[c] += usize::from(newest[c] != block);
                newest[c] = block;
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
        let scales: Vec<f32> = starts
            .windows(2)
            .map(|span| code_scale(max_abs(&vals[span[0]..span[1]])))
            .collect();
        // Counting sort, each list's end advancing from its start: rows, and
        // so blocks, arrive in ascending order, so a value either joins the
        // list's newest entry or opens the next one.
        let mut ends = list_starts[..dim].to_vec();
        let mut postings = vec![(0, [0i16; 4]); list_starts[dim]];
        for (row, span) in starts.windows(2).enumerate() {
            let block = (row / 4) as u32;
            for (&c, &x) in cols[span[0]..span[1]].iter().zip(&vals[span[0]..span[1]]) {
                let c = usize::from(c);
                if ends[c] == list_starts[c] || postings[ends[c] - 1].0 != block {
                    postings[ends[c]].0 = block;
                    ends[c] += 1;
                }
                postings[ends[c] - 1].1[row % 4] = encode(x, scales[row]);
            }
        }
        Self {
            dim,
            ids,
            starts,
            cols,
            vals,
            norms,
            scales,
            list_starts,
            postings,
        }
    }

    /// Sets `bounds[row]`, for every row, to a lower bound on
    /// `squared_l2(row, query)`: `‖r‖² + ‖q‖² − 2 s L − margin`, with the
    /// codes' dot `L` summed into `lanes` by [`Self::scatter`], times the
    /// row's scale `s`, and the rest in f64.
    fn lower_bounds(&self, query: &[f32], lanes: &mut Vec<[f32; 4]>, bounds: &mut Vec<f64>) {
        lanes.clear();
        lanes.resize(self.ids.len().div_ceil(4), [0.0; 4]);
        bounds.clear();
        let q_norm: f64 = query.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        // Finite f32 squares cannot overflow an f64 sum of 65 536 of them,
        // so the norm is finite iff the query is. A non-finite query has no
        // finite bound: every row is scored.
        if !q_norm.is_finite() {
            bounds.resize(self.ids.len(), f64::NEG_INFINITY);
            return;
        }
        let q_l1: f64 = query.iter().map(|&x| f64::from(x.abs())).sum();
        self.scatter(query, lanes);
        let (slope, floor, coding) = margin(self.dim);
        let per_scale = floor + coding * q_l1;
        let rows = self.norms.iter().zip(&self.scales);
        let dots = lanes.as_flattened().iter().zip(rows);
        bounds.extend(dots.map(|(&dot, (&r_norm, &scale))| {
            let (norms, scale) = (r_norm + q_norm, f64::from(scale));
            if dot.is_finite() {
                norms - 2.0 * scale * f64::from(dot) - (slope * norms + floor + scale * per_scale)
            } else {
                f64::NEG_INFINITY
            }
        }));
    }

    /// Adds `Σ c_j q_j` into every row's lane, `c` the row's codes: for each
    /// non-zero `q_j`, in ascending `j`, each entry of list `j` widens its
    /// four codes to f32 and adds them times `q_j` to its block's four lanes
    /// in one vector multiply and add. Never inlined, so that the loop
    /// compiles alike wherever it is called and
    /// `tests/codegen/kernel-width.sh` can read it.
    #[inline(never)]
    fn scatter(&self, query: &[f32], lanes: &mut [[f32; 4]]) {
        for (j, &x) in query.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for &(block, codes) in &self.postings[self.list_starts[j]..self.list_starts[j + 1]] {
                for (lane, c) in lanes[block as usize].iter_mut().zip(codes) {
                    *lane += f32::from(c) * x;
                }
            }
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

/// Fills `least` with the `k ≥ 1` rows of least bound, in `f64::total_cmp`
/// order and ties to the earlier row, in `O(n log k)`.
fn least_bounded(bounds: &[f64], k: usize, least: &mut BinaryHeap<(i64, u32)>) {
    least.clear();
    for (row, &bound) in bounds.iter().enumerate() {
        // `f64::total_cmp` as an integer order.
        let bits = bound.to_bits() as i64;
        let entry = (bits ^ (((bits >> 63) as u64) >> 1) as i64, row as u32);
        if least.len() < k {
            least.push(entry);
        } else if let Some(mut greatest) = least.peek_mut() {
            if entry < *greatest {
                *greatest = entry;
            }
        }
    }
}

impl VectorIndex for SparseFlatIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let n = self.ids.len();
        if k == 0 || n == 0 {
            return SearchOutcome::default();
        }
        let k = k.min(n);
        let hits = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let Scratch {
                lanes,
                bounds,
                least,
                row,
            } = &mut *scratch;
            self.lower_bounds(query, lanes, bounds);
            row.clear();
            row.resize(self.dim, 0.0);
            // Score the k rows of least bound ahead, each distance kept in
            // its lane and the row marked by a NaN bound.
            least_bounded(bounds, k, least);
            let dists = lanes.as_flattened_mut();
            for &(_, r) in least.iter() {
                let r = r as usize;
                dists[r] = self.score(r, query, row);
                bounds[r] = f64::NAN;
            }
            let cap = least.iter().map(|&(_, r)| dists[r as usize]);
            let cap = f64::from(cap.max_by(f32::total_cmp).expect("k ≥ 1"));
            // Only a bound above the cap drops its row: the NaN bound of a row
            // scored ahead, or a NaN cap (a non-finite query), drops none.
            let candidates = (0..n).filter(|&r| bounds[r].partial_cmp(&cap) != Some(Greater));
            admit_top_k(
                k,
                candidates.map(|r| {
                    let d2 = if bounds[r].is_nan() {
                        dists[r]
                    } else {
                        self.score(r, query, row)
                    };
                    (self.ids[r], d2)
                }),
            )
        });
        SearchOutcome {
            hits,
            work: SearchWork::full_scan(n),
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
        let flat = FlatIndex::over(dim, &items);
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

    /// The row's bound and whole margin, coding term included, for one
    /// `(row, query)` pair, the row in lane `at` of its block behind copies
    /// of the query.
    fn bound_and_margin(row: &[f32], query: &[f32], at: usize) -> (f64, f64) {
        let rows = (0..at).map(|_| query.to_vec()).chain([row.to_vec()]);
        let index = SparseFlatIndex::build(row.len(), rows.map(|v| (ChunkId(0), v)));
        let (mut lanes, mut bounds) = (Vec::new(), Vec::new());
        index.lower_bounds(query, &mut lanes, &mut bounds);
        let norms: f64 = row.iter().chain(query).map(|&x| f64::from(x).powi(2)).sum();
        let q_l1: f64 = query.iter().map(|&x| f64::from(x).abs()).sum();
        let (slope, floor, coding) = margin(row.len());
        let s = f64::from(index.scales[at]);
        let margin = slope * norms + (1.0 + s) * floor + s * coding * q_l1;
        (bounds[at], margin)
    }

    /// Adversarial pairs: a row one ulp from the query in every component
    /// (total cancellation), subnormal rows and queries, magnitudes near
    /// `f32::MAX` that overflow the kernel or cancel exactly, one large
    /// term beside many squares the kernel's lanes round away, and the
    /// lane dot at its longest: 1 024 non-zero query coordinates, and 1 024
    /// same-sign products in one lane a few ulps from cancelling. And rows
    /// the codes fit worst: values over many binades, whose small ones code
    /// to 0; rows within `32 767 · 2^-149`, at the clamp, coded exactly; and
    /// rows near `f32::MAX`, at scale `2^113`.
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
        for case in 0..5_500 {
            let dim = rng.pick(&[1, 2, 15, 16, 17, 64, 100, 1024]);
            let (row, query): (Vec<f32>, Vec<f32>) = match case % 11 {
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
                    let sign = rng.pick(&[-1.0, 1.0]);
                    let q = r.iter().map(|&x| sign * ulp(x, 1)).collect();
                    (r, q)
                }
                3 => {
                    let mut r = vec![0.0; dim];
                    r[0] = 1.0;
                    let tiny = (0.99 * f32::EPSILON / 4.0).sqrt();
                    (r, vec![tiny; dim])
                }
                6 => {
                    let signed = |rng: &mut Lcg| (rng.unit() + 1e-3) * rng.pick(&[-1.0, 1.0]);
                    let density = rng.pick(&[0.05, 0.3, 1.0]);
                    let r = (0..1024)
                        .map(|_| f32::from(u8::from(rng.unit() < density)) * signed(&mut rng))
                        .collect();
                    (r, (0..1024).map(|_| signed(&mut rng)).collect())
                }
                7 => {
                    let r: Vec<f32> = (0..1024).map(|_| 1.0 + rng.unit()).collect();
                    let q = r.iter().map(|&x| ulp(x, rng.below(5) as i32 - 2)).collect();
                    (r, q)
                }
                8 => {
                    let value = |rng: &mut Lcg| {
                        let binade = 2f32.powi(rng.below(120) as i32 - 60);
                        rng.pick(&[-1.0, 1.0]) * (1.0 + rng.unit()) * binade
                    };
                    let r: Vec<f32> = (0..dim).map(|_| value(&mut rng)).collect();
                    let q = if rng.below(2) == 0 {
                        r.iter().map(|&x| ulp(x, rng.below(3) as i32 - 1)).collect()
                    } else {
                        (0..dim).map(|_| value(&mut rng)).collect()
                    };
                    (r, q)
                }
                9 => {
                    let sign = |rng: &mut Lcg| rng.pick(&[-1.0, 1.0]);
                    let r: Vec<f32> = (0..dim)
                        .map(|_| sign(&mut rng) * f32::from_bits(rng.below(32_768) as u32))
                        .collect();
                    assert_eq!(code_scale(max_abs(&r)), MIN_SCALE, "case {case}");
                    (r, rng.vector(dim, 0.5))
                }
                10 => {
                    let r: Vec<f32> = (0..dim)
                        .map(|_| rng.component().signum() * f32::MAX * (0.5 + rng.unit() / 2.1))
                        .collect();
                    assert_eq!(code_scale(max_abs(&r)), 2f32.powi(113), "case {case}");
                    (r, rng.vector(dim, 0.5))
                }
                _ => (rng.vector(dim, 0.3), rng.vector(dim, 0.3)),
            };
            let (bound, margin) = bound_and_margin(&row, &query, case % 4);
            let d2 = f64::from(squared_l2(&row, &query));
            assert!(bound <= d2, "case {case}: bound {bound:e} > {d2:e}");
            // And the bound is tight: it prunes as it should, within the
            // coding term `(1 + γ) s ‖q‖₁` once more. Except where a product
            // of a code or the lane's sum overflows: that row has no bound
            // (−∞) and is simply scored.
            let s = code_scale(max_abs(&row));
            let lane = row.iter().zip(&query);
            let lane = lane.fold(0.0, |l, (&r, q)| l + f32::from(encode(r, s)) * q);
            if lane.is_finite() {
                let tight = d2.is_infinite() || d2 - bound <= 2.0 * margin;
                assert!(tight, "case {case}: bound {bound:e} loose under {d2:e}");
            } else {
                assert_eq!(bound, f64::NEG_INFINITY, "case {case}");
            }
        }
    }

    #[test]
    fn a_non_finite_query_bounds_nothing() {
        for q in [
            [f32::NAN, 0.0],
            [f32::INFINITY, 1.0],
            [0.0, f32::NEG_INFINITY],
        ] {
            let (bound, _) = bound_and_margin(&[1.0, 2.0], &q, 0);
            assert_eq!(bound, f64::NEG_INFINITY);
        }
    }

    /// Five rows, so the last block holds one row; row 1 is empty.
    #[test]
    fn stores_only_the_non_zero_coordinates() {
        let rows = [
            vec![0.0, 2.0, 0.0, -1.0],
            vec![0.0; 4],
            vec![3.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 5.0],
            vec![0.0, 7.0, 0.0, 0.0],
        ];
        let index = SparseFlatIndex::build(4, rows.iter().cloned().map(|v| (ChunkId(9), v)));
        assert_eq!(index.starts, [0, 2, 2, 3, 4, 5]);
        assert_eq!(index.cols, [1, 3, 0, 3, 1]);
        assert_eq!(index.vals, [2.0, -1.0, 3.0, 5.0, 7.0]);
        assert_eq!(index.norms, [5.0, 0.0, 9.0, 25.0, 49.0]);
        // 2 and 3 fit 32 767 · 2^-13, not 32 767 · 2^-14; 5 and 7 need 2^-12.
        let pow = |e| 2f32.powi(e);
        let scales = [pow(-13), MIN_SCALE, pow(-13), pow(-12), pow(-12)];
        assert_eq!(index.scales, scales);
        assert_eq!(index.list_starts, [0, 1, 3, 3, 4]);
        assert_eq!(
            index.postings,
            [
                (0, [0, 0, 24_576, 0]),
                (0, [16_384, 0, 0, 0]),
                (1, [28_672, 0, 0, 0]),
                (0, [-8_192, 0, 0, 20_480]),
            ]
        );
    }

    /// Over seeded maxima, ordinary, subnormal and near `f32::MAX`, and each
    /// power of two with its neighbours: the scale is a power of two, at
    /// least `2^-149`, the least one with `max ≤ 32 767 s`, and codes every
    /// value up to `max` within `s / 2`, at most 32 767 in magnitude.
    #[test]
    fn code_scale_is_the_least_power_of_two_that_fits() {
        let mut rng = Lcg(0x5CA1E);
        let powers = (-149..128).map(|e| 2f64.powi(e) as f32);
        let neighbours = powers.flat_map(|p| [p.to_bits() - 1, p.to_bits(), p.to_bits() + 1]);
        let seeded: Vec<u32> = (0..20_000)
            .map(|_| rng.component().abs().to_bits())
            .collect();
        for max in neighbours.chain(seeded).map(f32::from_bits) {
            let s = code_scale(max);
            let (s64, max64) = (f64::from(s), f64::from(max));
            assert_eq!(s64.log2().fract(), 0.0, "{max:e}: scale {s:e}");
            assert!(
                s >= MIN_SCALE && max64 <= 32_767.0 * s64,
                "{max:e}: scale {s:e}"
            );
            assert!(
                s == MIN_SCALE || max64 > 32_767.0 * s64 / 2.0,
                "{max:e}: scale {s:e}"
            );
            for x in [
                max,
                -max,
                max * rng.unit(),
                max * 2f32.powi(-(rng.below(40) as i32)),
            ] {
                let code = encode(x, s);
                let error = (f64::from(x) - s64 * f64::from(code)).abs();
                assert!(code.unsigned_abs() <= 32_767, "{x:e}: code {code}");
                assert!(error <= s64 / 2.0, "{x:e}: code {code} under {s:e}");
            }
        }
        assert_eq!(code_scale(0.0), MIN_SCALE);
        assert_eq!(code_scale(1.0), 2f32.powi(-14));
        assert_eq!(code_scale(f32::MAX * 0.99), 2f32.powi(113));
        assert_eq!(code_scale(f32::MAX), 2f32.powi(114));
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
