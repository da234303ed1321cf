//! Scalar quantization (sq8): one `u8` per dimension against a trained
//! per-dim `[min, max]` range, scored by decoding each code on the fly.
//!
//! A quantized index stores 4× less per vector and scores a candidate
//! asymmetrically: the query stays f32, each code is decoded in registers
//! (`min[d] + step[d] · code[d]`) and the squared deltas are summed in index
//! order. Nothing is precomputed per query — a 64-dim code row is one cache
//! line and the query and ranges stay in L1, where a `dim × 256` table of
//! the same values would not. That sum is one chain of adds, each waiting on
//! the one before, so every index scores its code rows a few at a time
//! (`QueryLut::dist2_rows`): the rows' chains are independent and run side
//! by side, while each row's own sum stays sequential — a distance has the
//! same bits whether its row is scored alone or in a group, and in whichever
//! slot. The approximation is optionally repaired by
//! an exact re-rank of the top candidates (the `rerank` knob, a multiple of
//! `k`), for which the original f32 rows are retained. Every quantized eval is
//! reported separately from exact evals through
//! [`SearchWork::quantized_scored`](crate::SearchWork), so the retrieval
//! latency model prices the two domains differently.

use metis_text::ChunkId;

use crate::{
    assert_row,
    ivf::{probe_order, IvfIndex},
    sort_hits, squared_l2, Hit, IvfConfig, SearchOutcome, SearchWork, VectorIndex,
};

/// How vectors are stored and scored inside an index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Quantization {
    /// Exact f32 storage — every distance eval is exact.
    #[default]
    F32,
    /// Scalar 8-bit quantization: candidates are scored in the quantized
    /// domain, then the best `rerank * k` are re-scored exactly
    /// (`rerank = 0` disables the repair pass and returns quantized
    /// distances as-is).
    Sq8 {
        /// Exact re-rank depth as a multiple of the requested `k`.
        rerank: usize,
    },
}

impl Quantization {
    /// Default sq8 configuration: re-rank the top `4k` candidates exactly.
    pub fn sq8() -> Self {
        Self::Sq8 { rerank: 4 }
    }

    /// Short scheme name (`"f32"` / `"sq8"`), used by CLI flags and report
    /// knobs.
    pub fn name(&self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Sq8 { .. } => "sq8",
        }
    }

    /// Whether candidate scoring happens in the quantized domain.
    pub fn is_quantized(&self) -> bool {
        matches!(self, Self::Sq8 { .. })
    }

    /// The exact re-rank depth multiplier (0 under [`Quantization::F32`]:
    /// every eval is already exact).
    pub fn rerank(&self) -> usize {
        match self {
            Self::F32 => 0,
            Self::Sq8 { rerank } => *rerank,
        }
    }
}

/// Per-dimension affine quantizer: `code = round((x - min) / step)` with
/// `step = (max - min) / 255`, trained on the corpus min/max of each dim.
#[derive(Clone, Debug)]
pub struct ScalarQuantizer {
    min: Vec<f32>,
    step: Vec<f32>,
}

impl ScalarQuantizer {
    /// Trains per-dim ranges over `rows` (one pass; degenerate dims whose
    /// min equals max get step 0 and decode exactly).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or any row disagrees on dimension.
    pub fn train<'a>(dim: usize, rows: impl Iterator<Item = &'a [f32]>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        let mut seen = false;
        for row in rows {
            assert_eq!(row.len(), dim, "dimension mismatch");
            seen = true;
            for (d, &x) in row.iter().enumerate() {
                min[d] = min[d].min(x);
                max[d] = max[d].max(x);
            }
        }
        if !seen {
            min.iter_mut().for_each(|m| *m = 0.0);
            max.iter_mut().for_each(|m| *m = 0.0);
        }
        let step = min
            .iter()
            .zip(&max)
            .map(|(lo, hi)| (hi - lo) / 255.0)
            .collect();
        Self { min, step }
    }

    /// Dimensionality the quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// The quantization step of dimension `d` — the error bound unit.
    pub fn step(&self, d: usize) -> f32 {
        self.step[d]
    }

    /// Encodes one vector into `out` (cleared first).
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        assert_eq!(v.len(), self.dim(), "dimension mismatch");
        out.clear();
        out.extend(v.iter().enumerate().map(|(d, &x)| {
            if self.step[d] <= 0.0 {
                0u8
            } else {
                (((x - self.min[d]) / self.step[d]).round().clamp(0.0, 255.0)) as u8
            }
        }));
    }

    /// Encodes one vector to a fresh code row.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(v.len());
        self.encode_into(v, &mut out);
        out
    }

    /// Every one of `rows`, encoded, back to back.
    pub(crate) fn encode_rows<'a>(&self, rows: impl Iterator<Item = &'a [f32]>) -> Vec<u8> {
        rows.flat_map(|v| self.encode(v)).collect()
    }

    /// Reconstructs the vector a code row represents; the per-dim error of
    /// `decode(encode(x))` is at most `step(d) / 2` for in-range `x`.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.dim(), "dimension mismatch");
        codes
            .iter()
            .enumerate()
            .map(|(d, &c)| self.min[d] + self.step[d] * f32::from(c))
            .collect()
    }

    /// Prepares `query` for asymmetric scoring against code rows. Free: the
    /// prepared query only borrows the query and the trained ranges.
    pub fn lut<'a>(&'a self, query: &'a [f32]) -> QueryLut<'a> {
        assert_eq!(query.len(), self.dim(), "dimension mismatch");
        QueryLut {
            query,
            min: &self.min,
            step: &self.step,
        }
    }
}

/// One query prepared for scoring sq8 code rows (see
/// [`ScalarQuantizer::lut`]); despite the name, no table is built.
#[derive(Clone, Copy, Debug)]
pub struct QueryLut<'a> {
    query: &'a [f32],
    min: &'a [f32],
    step: &'a [f32],
}

/// Code rows [`QueryLut::dist2_each`] scores per pass. Measured on the
/// HNSW-sq8 search: 2 is within noise of 4, 8 a fifth slower (its 128 live
/// squares no longer fit the registers).
const GROUP: usize = 4;

/// Dimensions [`QueryLut::dist2_rows`] decodes and squares at a time.
const BLOCK: usize = 16;

impl QueryLut<'_> {
    /// Squared distance between the query and the vector a code row
    /// decodes to, summed sequentially in index order.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not exactly one row of the quantizer's
    /// dimension.
    #[inline]
    pub fn dist2(&self, codes: &[u8]) -> f32 {
        self.dist2_rows([codes])[0]
    }

    /// [`dist2`](Self::dist2) of `N` code rows in one pass, each bit for bit
    /// what it is alone.
    ///
    /// Decoding and squaring is element-wise, so a block of it vectorizes;
    /// only the adds are order-sensitive, and every row's stay one
    /// sequential chain. One chain waits out the adder's latency on every
    /// term; `N` of them are independent and take turns in it.
    ///
    /// # Panics
    ///
    /// Panics if any row is not exactly one row of the quantizer's
    /// dimension.
    #[inline]
    pub fn dist2_rows<const N: usize>(&self, rows: [&[u8]; N]) -> [f32; N] {
        let dim = self.query.len();
        for row in rows {
            assert_eq!(row.len(), dim, "code row length mismatch");
        }
        let mut sums = [0.0f32; N];
        let whole = dim - dim % BLOCK;
        for at in (0..whole).step_by(BLOCK) {
            self.add_block(at, BLOCK, &rows, &mut sums);
        }
        self.add_block(whole, dim - whole, &rows, &mut sums);
        sums
    }

    /// Adds dimensions `at..at + len` (`len ≤ BLOCK`) of every row to its
    /// sum. Inlined so that the whole blocks see `len` as a constant.
    #[inline(always)]
    fn add_block<const N: usize>(
        &self,
        at: usize,
        len: usize,
        rows: &[&[u8]; N],
        sums: &mut [f32; N],
    ) {
        let (query, min, step) = (
            &self.query[at..][..len],
            &self.min[at..][..len],
            &self.step[at..][..len],
        );
        let mut squares = [[0.0f32; BLOCK]; N];
        for (squares, row) in squares.iter_mut().zip(rows) {
            let dims = row[at..][..len].iter().zip(query).zip(min.iter().zip(step));
            for (sq, ((&c, q), (lo, step))) in squares.iter_mut().zip(dims) {
                let delta = q - (lo + step * f32::from(c));
                *sq = delta * delta;
            }
        }
        for i in 0..len {
            for (sum, squares) in sums.iter_mut().zip(&squares) {
                *sum += squares[i];
            }
        }
    }

    /// Scores code rows `row(0)` … `row(n - 1)` — [`GROUP`] per pass, the
    /// stragglers one by one — and hands each `(position, dist2)` to `each`
    /// in order.
    pub(crate) fn dist2_each<'r>(
        &self,
        n: usize,
        row: impl Fn(usize) -> &'r [u8],
        mut each: impl FnMut(usize, f32),
    ) {
        let grouped = n - n % GROUP;
        for at in (0..grouped).step_by(GROUP) {
            let rows: [&[u8]; GROUP] = std::array::from_fn(|i| row(at + i));
            for (i, d2) in self.dist2_rows(rows).into_iter().enumerate() {
                each(at + i, d2);
            }
        }
        for at in grouped..n {
            each(at, self.dist2(row(at)));
        }
    }
}

/// Keeps the `keep` smallest `(dist2, position)` candidates in ascending
/// order: a selection, then a sort of the survivors only. The order is
/// strict and total, so the result equals sorting everything.
fn take_top<P: Ord + Copy>(cands: &mut Vec<(f32, P)>, keep: usize) {
    let by_rank = |a: &(f32, P), b: &(f32, P)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
    if keep < cands.len() {
        cands.select_nth_unstable_by(keep, by_rank);
        cands.truncate(keep);
    }
    cands.sort_unstable_by(by_rank);
}

/// Candidates a quantized search carries into ranking: `rerank · k` when an
/// exact repair pass follows, else just `k`.
pub(crate) fn keep_for(rerank: usize, k: usize) -> usize {
    rerank.saturating_mul(k).max(k)
}

/// The hits of a quantized search over `cands` (`(dist2, position)`): the
/// `keep_for(rerank, k)` best, re-scored by `exact` when `rerank > 0`
/// (counted in `work`), then ranked and cut to `k`.
fn rank<P: Ord + Copy>(
    mut cands: Vec<(f32, P)>,
    (k, rerank): (usize, usize),
    id: impl Fn(P) -> ChunkId,
    exact: impl Fn(P) -> f32,
    work: &mut SearchWork,
) -> Vec<Hit> {
    take_top(&mut cands, keep_for(rerank, k));
    let mut hits: Vec<Hit> = cands
        .into_iter()
        .map(|(d2, at)| {
            let d2 = if rerank > 0 {
                work.vectors_scored += 1;
                exact(at)
            } else {
                d2
            };
            Hit {
                chunk: id(at),
                distance: d2.sqrt(),
            }
        })
        .collect();
    sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

/// Exact-storage flat scan's quantized sibling: scores the whole corpus
/// in the quantized domain, then re-ranks the top `rerank * k` exactly.
#[derive(Clone, Debug)]
pub struct SqFlatIndex {
    dim: usize,
    sq: ScalarQuantizer,
    codes: Vec<u8>,
    rows: Vec<f32>,
    ids: Vec<ChunkId>,
    rerank: usize,
}

impl SqFlatIndex {
    /// Builds the index, training the quantizer on `items`. Original rows
    /// are retained only when `rerank > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, or any vector disagrees on dimension or has
    /// a non-finite component.
    pub fn build(dim: usize, rerank: usize, items: &[(ChunkId, Vec<f32>)]) -> Self {
        items.iter().for_each(|(_, v)| assert_row(v, dim));
        let rows = || items.iter().map(|(_, v)| v.as_slice());
        let sq = ScalarQuantizer::train(dim, rows());
        let exact = if rerank > 0 {
            rows().flatten().copied().collect()
        } else {
            Vec::new()
        };
        Self {
            dim,
            codes: sq.encode_rows(rows()),
            sq,
            rows: exact,
            ids: items.iter().map(|(id, _)| *id).collect(),
            rerank,
        }
    }

    fn code_row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    fn exact_row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }
}

impl VectorIndex for SqFlatIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.ids.is_empty() {
            return SearchOutcome::default();
        }
        let lut = self.sq.lut(query);
        let mut work = SearchWork {
            quantized_scored: self.ids.len(),
            ..SearchWork::default()
        };
        let mut cands: Vec<(f32, usize)> = Vec::with_capacity(self.ids.len());
        lut.dist2_each(
            self.ids.len(),
            |i| self.code_row(i),
            |i, d2| cands.push((d2, i)),
        );
        let exact = |i| squared_l2(self.exact_row(i), query);
        let hits = rank(cands, (k, self.rerank), |i| self.ids[i], exact, &mut work);
        SearchOutcome { hits, work }
    }
}

/// One quantized inverted-list member: (id, code row, exact row — the
/// exact row is empty when `rerank == 0`).
type SqListEntry = (ChunkId, Vec<u8>, Vec<f32>);

/// IVF with quantized inverted lists: centroids are ranked exactly, probed
/// list members are scored in the quantized domain, and the best `rerank * k`
/// candidates are re-scored exactly.
///
/// Built by converting a trained [`IvfIndex`] — k-means runs at full
/// precision, then list members are encoded.
#[derive(Clone, Debug)]
pub struct SqIvfIndex {
    dim: usize,
    config: IvfConfig,
    sq: ScalarQuantizer,
    centroids: Vec<Vec<f32>>,
    /// Per list: [`SqListEntry`] members.
    lists: Vec<Vec<SqListEntry>>,
    rerank: usize,
    len: usize,
}

impl SqIvfIndex {
    /// Quantizes a trained IVF index's lists.
    pub fn from_ivf(ivf: &IvfIndex, rerank: usize) -> Self {
        let (dim, centroids, lists) = ivf.raw();
        let sq = ScalarQuantizer::train(
            dim,
            lists
                .iter()
                .flat_map(|l| l.iter().map(|(_, v)| v.as_slice())),
        );
        let q_lists: Vec<Vec<SqListEntry>> = lists
            .iter()
            .map(|l| {
                l.iter()
                    .map(|(id, v)| {
                        let exact = if rerank > 0 { v.clone() } else { Vec::new() };
                        (*id, sq.encode(v), exact)
                    })
                    .collect()
            })
            .collect();
        Self {
            dim,
            config: ivf.config(),
            sq,
            centroids: centroids.to_vec(),
            lists: q_lists,
            rerank,
            len: ivf.len(),
        }
    }
}

impl VectorIndex for SqIvfIndex {
    fn len(&self) -> usize {
        self.len
    }

    fn search_counted(&self, query: &[f32], k: usize) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.len == 0 {
            return SearchOutcome::default();
        }
        let mut order = Vec::with_capacity(self.centroids.len());
        probe_order(&self.centroids, query, &mut order);
        let lut = self.sq.lut(query);
        let mut work = SearchWork {
            centroids_scored: self.centroids.len(),
            ..SearchWork::default()
        };
        // (dist2, (list, slot)) candidates from the probed lists.
        let mut cands: Vec<(f32, (usize, usize))> = Vec::new();
        for &(_, list) in order.iter().take(self.config.nprobe) {
            work.lists_probed += 1;
            work.quantized_scored += self.lists[list].len();
            let members = &self.lists[list];
            lut.dist2_each(
                members.len(),
                |slot| &members[slot].1,
                |slot, d2| cands.push((d2, (list, slot))),
            );
        }
        let member = |(list, slot): (usize, usize)| &self.lists[list][slot];
        let exact = |at| squared_l2(&member(at).2, query);
        let hits = rank(cands, (k, self.rerank), |at| member(at).0, exact, &mut work);
        SearchOutcome { hits, work }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    fn grid_items(n: u32, dim: usize) -> Vec<(ChunkId, Vec<f32>)> {
        (0..n)
            .map(|i| {
                let v = (0..dim)
                    .map(|d| ((i as usize * 7 + d * 13) % 29) as f32 * 0.5 - 7.0)
                    .collect();
                (ChunkId(i), v)
            })
            .collect()
    }

    /// Regression for the NaN-ordering invariant: a hit list containing
    /// NaN distances sorts without panicking, NaN last, ties on chunk id.
    #[test]
    fn nan_containing_hit_list_sorts_without_panicking() {
        let mut hits = [(5, f32::NAN), (1, 2.0), (9, f32::NAN), (2, 0.0)].map(|(c, d)| Hit {
            chunk: ChunkId(c),
            distance: d,
        });
        sort_hits(&mut hits);
        let order: Vec<_> = hits.iter().map(|h| h.chunk).collect();
        assert_eq!(order, vec![ChunkId(2), ChunkId(1), ChunkId(5), ChunkId(9)]);
    }

    #[test]
    fn roundtrip_error_is_within_half_a_step() {
        let items = grid_items(64, 6);
        let sq = ScalarQuantizer::train(6, items.iter().map(|(_, v)| v.as_slice()));
        for (_, v) in &items {
            let back = sq.decode(&sq.encode(v));
            for (d, (&x, y)) in v.iter().zip(&back).enumerate() {
                assert!(
                    (x - y).abs() <= sq.step(d) / 2.0 + 1e-6,
                    "dim {d}: |{x} - {y}| > step/2 = {}",
                    sq.step(d) / 2.0
                );
            }
        }
    }

    #[test]
    fn degenerate_dims_decode_exactly() {
        let items = [(ChunkId(0), vec![3.0, 1.0]), (ChunkId(1), vec![3.0, 2.0])];
        let sq = ScalarQuantizer::train(2, items.iter().map(|(_, v)| v.as_slice()));
        assert_eq!(sq.step(0), 0.0);
        assert_eq!(sq.decode(&sq.encode(&[3.0, 1.5]))[0], 3.0);
    }

    /// The chunked scorer is the plain decode-square-sum loop, bit for bit,
    /// at every row length around its chunk size.
    #[test]
    fn dist2_equals_the_sequential_reference_bitwise() {
        for dim in (1..=40).chain([64, 100]) {
            let items = grid_items(50, dim);
            let sq = ScalarQuantizer::train(dim, items.iter().map(|(_, v)| v.as_slice()));
            let q: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.37).sin() * 6.0).collect();
            let lut = sq.lut(&q);
            for (_, v) in &items {
                let codes = sq.encode(v);
                let reference: f32 = (0..dim)
                    .map(|d| {
                        let delta = q[d] - (sq.min[d] + sq.step[d] * f32::from(codes[d]));
                        delta * delta
                    })
                    .sum();
                assert_eq!(
                    lut.dist2(&codes).to_bits(),
                    reference.to_bits(),
                    "dim {dim}"
                );
            }
        }
    }

    /// `dist2_rows::<N>` is `dist2` of each row, bit for bit: at every
    /// dimension around the block size, with the rows of a group taken from
    /// unaligned offsets of one buffer, and with one row sitting in a group
    /// twice.
    #[test]
    fn dist2_rows_equals_dist2_of_each_row_bitwise() {
        use crate::test_oracle::values;
        fn check<const N: usize>(lut: &QueryLut<'_>, codes: &[u8], dim: usize) {
            // Rows start at 0, dim + 1, 2 dim + 2, …; the last slot repeats
            // the first row.
            let row = |i: usize| &codes[(i % (N - 1).max(1)) * (dim + 1)..][..dim];
            let rows: [&[u8]; N] = std::array::from_fn(row);
            let got = lut.dist2_rows(rows);
            for (slot, row) in rows.iter().enumerate() {
                assert_eq!(
                    got[slot].to_bits(),
                    lut.dist2(row).to_bits(),
                    "dim {dim}, slot {slot} of {N}"
                );
            }
        }
        for dim in (0..=70).chain([1_023, 1_024, 1_025]) {
            let (min, step) = (values(dim, 11), values(dim, 12));
            let step = step.iter().map(|s| s.abs() / 64.0).collect();
            let sq = ScalarQuantizer { min, step };
            let query = values(dim, 13);
            let lut = sq.lut(&query);
            let bytes = values(8 * (dim + 1), 14 + dim as u64);
            let codes: Vec<u8> = bytes.iter().map(|x| (x * 128.0 + 128.0) as u8).collect();
            check::<1>(&lut, &codes, dim);
            check::<2>(&lut, &codes, dim);
            check::<4>(&lut, &codes, dim);
            check::<8>(&lut, &codes, dim);
        }
    }

    /// A code row of the wrong length is refused whichever slot of the
    /// group it sits in.
    #[test]
    fn dist2_rows_rejects_a_wrong_length_row_in_any_slot() {
        let items = grid_items(8, 4);
        let sq = ScalarQuantizer::train(4, items.iter().map(|(_, v)| v.as_slice()));
        for bad in [&[1u8, 2, 3][..], &[1, 2, 3, 4, 5]] {
            for slot in 0..4 {
                let mut rows = [&[9u8, 9, 9, 9][..]; 4];
                rows[slot] = bad;
                let panic = std::panic::catch_unwind(|| sq.lut(&[0.0; 4]).dist2_rows(rows));
                let message = *panic.unwrap_err().downcast::<String>().unwrap();
                assert!(
                    message.contains("code row length mismatch"),
                    "slot {slot}: {message}"
                );
            }
            let alone = std::panic::catch_unwind(|| sq.lut(&[0.0; 4]).dist2(bad));
            assert!(alone.is_err(), "a lone row of {} codes", bad.len());
        }
    }

    /// What one infinite component used to do to a quantized index, shown
    /// on the quantizer the builders train: the dimension's step becomes
    /// infinite, every *other* row encodes to code 0 there and decodes to
    /// `min + inf · 0 = NaN`, so every distance in the index is NaN and a
    /// search returns chunk-id order with no error. `SqFlatIndex::build` and
    /// `IvfIndex::build` (hence `SqIvfIndex::from_ivf`) accepted such a
    /// corpus; they now refuse it like `FlatIndex::add` and
    /// `HnswIndex::build` always did.
    #[test]
    fn one_infinite_component_turns_every_quantized_distance_into_nan() {
        let mut items = grid_items(16, 4);
        items[5].1[2] = f32::INFINITY;
        let sq = ScalarQuantizer::train(4, items.iter().map(|(_, v)| v.as_slice()));
        assert_eq!(sq.step(2), f32::INFINITY);
        let lut = sq.lut(&[0.0; 4]);
        for (id, v) in &items {
            assert!(lut.dist2(&sq.encode(v)).is_nan(), "row {id:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite embedding component")]
    fn sq_flat_refuses_a_non_finite_row() {
        let mut items = grid_items(16, 4);
        items[5].1[2] = f32::INFINITY;
        SqFlatIndex::build(4, 2, &items);
    }

    #[test]
    fn lut_distance_matches_decoded_distance() {
        let items = grid_items(32, 4);
        let sq = ScalarQuantizer::train(4, items.iter().map(|(_, v)| v.as_slice()));
        let q = [0.25, -1.5, 3.0, 0.0];
        let lut = sq.lut(&q);
        for (_, v) in &items {
            let codes = sq.encode(v);
            let via_lut = lut.dist2(&codes);
            let via_decode = squared_l2(&sq.decode(&codes), &q);
            assert!(
                (via_lut - via_decode).abs() < 1e-3,
                "{via_lut} vs {via_decode}"
            );
        }
    }

    #[test]
    fn sq_flat_with_rerank_matches_exact_flat_ranking() {
        let items = grid_items(128, 8);
        let flat = FlatIndex::over(8, &items);
        let idx = SqFlatIndex::build(8, 4, &items);
        let q: Vec<f32> = vec![0.1, -0.2, 0.3, 0.0, 1.0, -1.0, 0.5, 0.25];
        let exact: Vec<_> = flat.search(&q, 5).iter().map(|h| h.chunk).collect();
        let approx: Vec<_> = idx.search(&q, 5).iter().map(|h| h.chunk).collect();
        assert_eq!(exact, approx);
    }

    #[test]
    fn sq_flat_work_reports_quantized_and_rerank_evals() {
        let items = grid_items(100, 4);
        let idx = SqFlatIndex::build(4, 3, &items);
        let out = idx.search_counted(&[0.0; 4], 4);
        assert_eq!(out.work.quantized_scored, 100);
        assert_eq!(out.work.vectors_scored, 12, "rerank * k exact evals");
        assert_eq!(out.work.graph_hops, 0);
        assert_eq!(out.hits.len(), 4);
        // Without re-rank no exact eval happens at all.
        let cheap = SqFlatIndex::build(4, 0, &items);
        let out = cheap.search_counted(&[0.0; 4], 4);
        assert_eq!(out.work.vectors_scored, 0);
        assert_eq!(out.work.quantized_scored, 100);
    }

    #[test]
    fn sq_ivf_probes_and_reranks() {
        let items = grid_items(120, 4);
        let ivf = IvfIndex::build(
            4,
            IvfConfig {
                nlist: 6,
                nprobe: 3,
                train_iters: 6,
            },
            &items,
        );
        let idx = SqIvfIndex::from_ivf(&ivf, 2);
        let out = idx.search_counted(&[0.0; 4], 5);
        assert_eq!(out.hits.len(), 5);
        assert_eq!(out.work.centroids_scored, 6);
        assert_eq!(out.work.lists_probed, 3);
        assert!(out.work.quantized_scored > 0);
        assert_eq!(out.work.vectors_scored, 10, "rerank * k exact evals");
        // The top hit agrees with the plain IVF top hit on this corpus.
        let exact_top = ivf.search(&[0.0; 4], 1)[0].chunk;
        assert_eq!(out.hits[0].chunk, exact_top);
    }
}
