//! Sizing helper: derive Bloom-filter geometry from capacity and target
//! false-positive rate.

use crate::BloomFilter;

/// Builds [`BloomFilter`]s sized for an expected number of keys and a target
/// false-positive rate, using the textbook optimum
/// `m = -n·ln(p) / (ln 2)^2` and `k = (m/n)·ln 2`.
///
/// P3Q users may tune the digest size against their bandwidth budget; the
/// paper's 20 Kbit / 0.1% point is one instance of this trade-off. No
/// benchmark sweeps the others; the `bloom_props` suite checks the derived
/// geometry against the target rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloomBuilder {
    expected_keys: usize,
    target_fpr: f64,
}

impl BloomBuilder {
    /// Creates a builder for `expected_keys` keys at `target_fpr`
    /// false-positive rate.
    ///
    /// # Panics
    /// Panics if `expected_keys` is zero or `target_fpr` is outside `(0, 1)`.
    pub fn new(expected_keys: usize, target_fpr: f64) -> Self {
        assert!(expected_keys > 0, "expected_keys must be positive");
        assert!(
            target_fpr > 0.0 && target_fpr < 1.0,
            "target_fpr must be in (0, 1)"
        );
        Self {
            expected_keys,
            target_fpr,
        }
    }

    /// Optimal number of bits for the requested capacity and rate.
    pub fn optimal_bits(&self) -> usize {
        let n = self.expected_keys as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = -n * self.target_fpr.ln() / (ln2 * ln2);
        m.ceil().max(8.0) as usize
    }

    /// Optimal number of hash functions for the requested capacity and rate.
    pub fn optimal_hashes(&self) -> u32 {
        let m = self.optimal_bits() as f64;
        let n = self.expected_keys as f64;
        ((m / n) * std::f64::consts::LN_2).round().max(1.0) as u32
    }

    /// Expected false-positive rate of the built filter once `expected_keys`
    /// keys have been inserted.
    pub fn expected_fpr(&self) -> f64 {
        let m = self.optimal_bits() as f64;
        let n = self.expected_keys as f64;
        let k = self.optimal_hashes() as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Builds an empty filter with the derived geometry.
    pub fn build(&self) -> BloomFilter {
        BloomFilter::new(self.optimal_bits(), self.optimal_hashes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_hits_target_rate() {
        let b = BloomBuilder::new(249, 0.001);
        assert!(b.expected_fpr() <= 0.0015, "fpr {}", b.expected_fpr());
        let f = b.build();
        assert!(f.bit_len() >= 249);
    }

    #[test]
    fn more_keys_need_more_bits() {
        let small = BloomBuilder::new(100, 0.01).optimal_bits();
        let large = BloomBuilder::new(10_000, 0.01).optimal_bits();
        assert!(large > small);
    }

    #[test]
    fn tighter_rate_needs_more_bits() {
        let loose = BloomBuilder::new(1000, 0.05).optimal_bits();
        let tight = BloomBuilder::new(1000, 0.0001).optimal_bits();
        assert!(tight > loose);
    }

    #[test]
    fn hashes_at_least_one() {
        assert!(BloomBuilder::new(1_000_000, 0.5).optimal_hashes() >= 1);
    }

    #[test]
    fn empirical_rate_matches_prediction() {
        let b = BloomBuilder::new(500, 0.01);
        let mut f = b.build();
        for k in 0..500u64 {
            f.insert(k);
        }
        let mut fp = 0;
        let probes = 50_000u64;
        for k in 10_000_000..10_000_000 + probes {
            if f.contains(k) {
                fp += 1;
            }
        }
        let measured = fp as f64 / probes as f64;
        assert!(
            measured < 0.02,
            "measured fpr {measured} far above target 0.01"
        );
    }

    #[test]
    #[should_panic(expected = "target_fpr")]
    fn rejects_invalid_rate() {
        let _ = BloomBuilder::new(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "expected_keys")]
    fn rejects_zero_keys() {
        let _ = BloomBuilder::new(0, 0.01);
    }
}
