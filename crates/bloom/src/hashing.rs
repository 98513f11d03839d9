//! Hashing primitives used by the Bloom filter.
//!
//! The digests in P3Q are built over small fixed-width keys (item
//! identifiers), so a fast integer mixer is sufficient. We use the
//! SplitMix64 finalizer — a well-studied 64-bit avalanche function — seeded
//! twice with independent constants to obtain the two hash values required by
//! Kirsch–Mitzenmacher double hashing.

/// SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
///
/// Every input bit affects every output bit with probability close to 1/2,
/// which is what Bloom filters need from their hash family.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the `(h1, h2)` pair used for double hashing from a 64-bit key.
///
/// `h2` is forced to be odd so that, for power-of-two table sizes, the probe
/// sequence `h1 + i·h2` visits distinct slots; for arbitrary sizes it simply
/// avoids the degenerate `h2 = 0` case.
#[inline]
pub fn hash_pair(key: u64) -> (u64, u64) {
    let h1 = mix64(key);
    let h2 = mix64(key ^ 0xA5A5_A5A5_5A5A_5A5A) | 1;
    (h1, h2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn mix64_zero_is_not_zero() {
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn hash_pair_second_hash_is_odd() {
        for key in 0..1000u64 {
            let (_, h2) = hash_pair(key);
            assert_eq!(h2 & 1, 1, "h2 must be odd for key {key}");
        }
    }

    #[test]
    fn mix64_has_few_collisions_on_small_domain() {
        let hashes: HashSet<u64> = (0..100_000u64).map(mix64).collect();
        assert_eq!(hashes.len(), 100_000, "mix64 collided on a tiny domain");
    }

    #[test]
    fn low_bits_are_well_distributed() {
        // Bucket sequential keys into 64 buckets by the low 6 bits of the hash
        // and check no bucket is pathologically over-full.
        let mut buckets = [0u32; 64];
        let n = 64_000u64;
        for key in 0..n {
            buckets[(mix64(key) & 63) as usize] += 1;
        }
        let expected = (n / 64) as f64;
        for (i, &count) in buckets.iter().enumerate() {
            let ratio = count as f64 / expected;
            assert!(
                (0.9..1.1).contains(&ratio),
                "bucket {i} has skewed load factor {ratio}"
            );
        }
    }
}
