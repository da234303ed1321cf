//! Token-level F1 score.
//!
//! The harmonic mean of precision (# correctly generated words / # generated
//! words) and recall (# correct words generated / # gold words), computed on
//! token multisets as in the SQuAD evaluation script — the metric the paper
//! adopts for all four datasets (§2, §7.1).

use std::cmp::Ordering;

use metis_text::TokenId;

/// Size of the multiset intersection of two token bags: sorts a copy of
/// each and merges them, so a token shared `m` and `n` times counts
/// `min(m, n)`. Two flat buffers cost two allocations, where maps of
/// per-token counts cost one node per distinct token. The result is one
/// count and no container is iterated in a hash order, so every emitted
/// artifact stays reproducible (this crate's clippy.toml bans the hash
/// containers for that reason).
fn matched(predicted: &[TokenId], gold: &[TokenId]) -> u32 {
    let (mut p, mut g) = (predicted.to_vec(), gold.to_vec());
    p.sort_unstable();
    g.sort_unstable();
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < p.len() && j < g.len() {
        match p[i].cmp(&g[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Computes token-level F1 of `predicted` against `gold`.
///
/// Both empty: 1.0 (exact agreement). One empty: 0.0.
///
/// # Examples
///
/// ```
/// use metis_metrics::f1_score;
/// use metis_text::TokenId;
///
/// let gold = [TokenId(1), TokenId(2)];
/// let pred = [TokenId(1), TokenId(3)];
/// // Precision 1/2, recall 1/2 → F1 = 0.5.
/// assert!((f1_score(&pred, &gold) - 0.5).abs() < 1e-9);
/// ```
pub fn f1_score(predicted: &[TokenId], gold: &[TokenId]) -> f64 {
    if predicted.is_empty() && gold.is_empty() {
        return 1.0;
    }
    if predicted.is_empty() || gold.is_empty() {
        return 0.0;
    }
    let matched = matched(predicted, gold);
    if matched == 0 {
        return 0.0;
    }
    let precision = f64::from(matched) / predicted.len() as f64;
    let recall = f64::from(matched) / gold.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    /// The reference: F1 over maps of per-token counts.
    fn f1_by_counts(predicted: &[TokenId], gold: &[TokenId]) -> f64 {
        if predicted.is_empty() && gold.is_empty() {
            return 1.0;
        }
        if predicted.is_empty() || gold.is_empty() {
            return 0.0;
        }
        let counts = |tokens: &[TokenId]| {
            let mut m = BTreeMap::new();
            for &t in tokens {
                *m.entry(t).or_insert(0u32) += 1;
            }
            m
        };
        let gc = counts(gold);
        let mut matched: u32 = 0;
        for (t, &n) in &counts(predicted) {
            if let Some(&g) = gc.get(t) {
                matched += n.min(g);
            }
        }
        if matched == 0 {
            return 0.0;
        }
        let precision = f64::from(matched) / predicted.len() as f64;
        let recall = f64::from(matched) / gold.len() as f64;
        2.0 * precision * recall / (precision + recall)
    }

    proptest! {
        /// Small alphabets make duplicates common; lengths from 0 make
        /// empty sides common.
        #[test]
        fn sort_merge_equals_the_count_map_oracle(
            p in prop::collection::vec(0u32..5, 0..12),
            g in prop::collection::vec(0u32..5, 0..12),
        ) {
            let (p, g) = (toks(&p), toks(&g));
            prop_assert_eq!(f1_score(&p, &g).to_bits(), f1_by_counts(&p, &g).to_bits());
        }
    }

    #[test]
    fn exact_match_is_one() {
        let a = toks(&[1, 2, 3]);
        assert_eq!(f1_score(&a, &a), 1.0);
    }

    #[test]
    fn order_does_not_matter() {
        assert_eq!(f1_score(&toks(&[1, 2, 3]), &toks(&[3, 1, 2])), 1.0);
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(f1_score(&toks(&[1, 2]), &toks(&[3, 4])), 0.0);
    }

    #[test]
    fn multiplicity_is_respected() {
        // Gold has two 1s; predicting one 1 gives matched=1.
        let f1 = f1_score(&toks(&[1]), &toks(&[1, 1]));
        // p=1, r=0.5 → 2/3.
        assert!((f1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn boilerplate_lowers_precision_only() {
        let gold = toks(&[1, 2, 3, 4]);
        let clean = toks(&[1, 2, 3, 4]);
        let padded = toks(&[1, 2, 3, 4, 9, 9, 9, 9]);
        assert_eq!(f1_score(&clean, &gold), 1.0);
        // p=0.5, r=1 → 2/3.
        assert!((f1_score(&padded, &gold) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(f1_score(&[], &[]), 1.0);
        assert_eq!(f1_score(&toks(&[1]), &[]), 0.0);
        assert_eq!(f1_score(&[], &toks(&[1])), 0.0);
    }

    #[test]
    fn f1_is_symmetric() {
        let a = toks(&[1, 2, 3, 5, 5]);
        let b = toks(&[2, 3, 4]);
        assert!((f1_score(&a, &b) - f1_score(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn f1_in_unit_interval() {
        let a = toks(&[1, 1, 2, 7]);
        let b = toks(&[1, 2, 2, 9, 9]);
        let f = f1_score(&a, &b);
        assert!((0.0..=1.0).contains(&f));
    }
}
