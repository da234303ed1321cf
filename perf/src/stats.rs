//! Sample arithmetic: percentiles, quartiles, best-of-rounds.
//!
//! Every number the harness prints goes through one of these, so their
//! definitions are part of the benchmark: percentiles are nearest-rank (the
//! p99 of 1 024 samples is the 1 014th smallest, leaving 10 beyond it),
//! the median of an even count averages the two middle samples, and
//! quartiles follow Python's `statistics.quantiles(v, n=4)` — the same
//! arithmetic the driver uses to judge run-to-run spread.

/// Sorts a copy of `v` ascending (total order, so NaN cannot panic).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(v), p)
}

/// Median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(v, n=4)` computes them
/// (the "exclusive" method). A single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (s[0], s[0]);
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Fastest timing of every item across rounds: `rounds[r][i]` is item
/// `i`'s timing in round `r`; the result holds one minimum per item.
///
/// Best-of-N is the harness's estimator for every wall metric. The hosts it
/// runs on are shared: for a quarter of the time, in bursts of 0.1-3 s, the
/// same code runs ~1.7x slower. A median over rounds moves with how many of
/// them a burst hit; the fastest round of each item is the machine's quiet
/// state and repeats to a few percent. Rounds are spread over the whole run
/// so that no burst covers all of them, and an item that is slow in every
/// round (a hard query) stays slow.
///
/// # Panics
///
/// Panics if there are no rounds or the rounds differ in length.
pub fn per_item_min(rounds: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rounds.is_empty(), "no rounds");
    let n = rounds[0].len();
    assert!(rounds.iter().all(|r| r.len() == n), "ragged rounds");
    (0..n)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The smallest sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "minimum of an empty sample");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 1 024 samples: p99 is the 1 014th, so 10 samples lie beyond it.
        let w: Vec<f64> = (1..=1024).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 1014.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn per_item_min_keeps_the_quiet_round_of_each_item() {
        let rounds = vec![
            vec![10.0, 100.0],
            vec![11.0, 170.0], // item 1 ran inside a slow burst here
            vec![17.0, 99.0],  // item 0 did here
        ];
        assert_eq!(per_item_min(&rounds), vec![10.0, 99.0]);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }
}
