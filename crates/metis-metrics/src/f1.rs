//! Token-level F1 score.
//!
//! The harmonic mean of precision (# correctly generated words / # generated
//! words) and recall (# correct words generated / # gold words), computed on
//! token multisets as in the SQuAD evaluation script — the metric the paper
//! adopts for all four datasets (§2, §7.1).

use std::collections::BTreeMap;

use metis_text::TokenId;

// BTreeMap (not HashMap): this crate feeds reports, and its clippy.toml
// bans the hash containers so every iteration order — and thus every
// emitted artifact — is reproducible.
fn counts(tokens: &[TokenId]) -> BTreeMap<TokenId, u32> {
    let mut m = BTreeMap::new();
    for &t in tokens {
        *m.entry(t).or_insert(0) += 1;
    }
    m
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
    let pc = counts(predicted);
    let gc = counts(gold);
    let mut matched: u32 = 0;
    for (t, &n) in &pc {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
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
