//! Vector similarity primitives.

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L2 (Euclidean) distance: the square root of the summed squared
/// component differences.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity; returns 0 for zero vectors.
#[cfg(test)]
pub(crate) fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Normalizes `v` to unit L2 norm in place; zero vectors are left unchanged.
#[inline]
pub(crate) fn l2_normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_l2_basics() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert_eq!(dot(&a, &b), 0.0);
        assert!((l2_distance(&a, &b) - std::f32::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((dot(&v, &v).sqrt() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_is_noop() {
        let mut v = vec![0.0, 0.0];
        l2_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn l2_distance_relates_to_cosine_for_unit_vectors() {
        // For unit vectors, d^2 = 2 - 2 cos, so smaller distance = higher cosine.
        let mut a = vec![0.9, 0.1, 0.3];
        let mut b = vec![0.8, 0.2, 0.1];
        let mut c = vec![-0.9, 0.4, 0.2];
        l2_normalize(&mut a);
        l2_normalize(&mut b);
        l2_normalize(&mut c);
        assert!(l2_distance(&a, &b) < l2_distance(&a, &c));
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
