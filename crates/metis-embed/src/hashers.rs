//! Deterministic integer hashing used by the feature-hashing embedders.
//!
//! We use the SplitMix64 finalizer: fast, well-distributed, stable across
//! platforms, and dependency-free. Each embedder seeds it differently so the
//! three models land tokens in uncorrelated buckets.

/// SplitMix64 finalizer: maps a 64-bit input to a well-mixed 64-bit output.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes two values into one hash (order-sensitive).
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.wrapping_mul(0xff51_afd7_ed55_8ccd))
}

/// Derives a bucket index in `0..dim` and a sign in `{-1.0, +1.0}` for a
/// feature hash, the standard signed feature-hashing construction.
#[inline]
pub(crate) fn bucket_and_sign(hash: u64, dim: usize) -> (usize, f32) {
    debug_assert!(dim > 0);
    let bucket = (hash % dim as u64) as usize;
    let sign = if (hash >> 63) == 0 { 1.0 } else { -1.0 };
    (bucket, sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Adjacent inputs should differ in many bits.
        let d = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn mix2_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }

    #[test]
    fn bucket_in_range_and_signs_balanced() {
        let dim = 64;
        let mut pos = 0;
        for i in 0..1000u64 {
            let (b, s) = bucket_and_sign(splitmix64(i), dim);
            assert!(b < dim);
            if s > 0.0 {
                pos += 1;
            }
        }
        assert!((400..600).contains(&pos), "sign imbalance: {pos}/1000");
    }
}
