//! Storage scenarios: how many neighbour profiles each user stores.
//!
//! Every user stores the full profiles of only the `c` most similar
//! neighbours of her personal network. The paper (Section 3.1.2 and Table 1)
//! evaluates
//!
//! * **uniform** systems where every user has the same `c ∈ {10, 20, 50,
//!   100, 200, 500, 1000}`, and
//! * two **heterogeneous** systems where `c` is drawn from a Poisson
//!   distribution over those seven buckets — `λ = 1` models a population of
//!   storage-poor devices (73% of users store only 10 or 20 profiles) and
//!   `λ = 4` a population of storage-rich desktops.

use rand::Rng;

/// The seven storage buckets of Table 1, as fractions of the personal
/// network size `s = 1000` used by the paper.
pub const PAPER_STORAGE_BUCKETS: [usize; 7] = [10, 20, 50, 100, 200, 500, 1000];

/// A storage scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageDistribution {
    /// Every user stores exactly `c` profiles.
    Uniform(usize),
    /// `c` is drawn from a Poisson(λ) distribution truncated to the seven
    /// buckets of Table 1 (bucket index = Poisson outcome, capped at 6).
    Poisson {
        /// The Poisson parameter λ (the paper uses 1 and 4).
        lambda: f64,
    },
}

impl StorageDistribution {
    /// The λ = 1 heterogeneous scenario of the paper ("mobile phones with
    /// limited memory").
    pub fn poisson_lambda_1() -> Self {
        Self::Poisson { lambda: 1.0 }
    }

    /// The λ = 4 heterogeneous scenario of the paper (storage-rich desktops).
    pub fn poisson_lambda_4() -> Self {
        Self::Poisson { lambda: 4.0 }
    }

    /// Probability of each bucket of Table 1 under this scenario.
    ///
    /// For the Poisson scenarios the probabilities are the Poisson(λ)
    /// probability mass over outcomes `0..=6`, renormalised to sum to one —
    /// which reproduces the percentages printed in Table 1 (e.g. 36.79% /
    /// 36.79% / 18.39% / … for λ = 1).
    pub fn bucket_probabilities(&self) -> [f64; 7] {
        match *self {
            StorageDistribution::Uniform(c) => {
                let mut probs = [0.0; 7];
                // Place the whole mass on the closest bucket (exact match for
                // the paper's seven values).
                let idx = PAPER_STORAGE_BUCKETS
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &b)| b.abs_diff(c))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                probs[idx] = 1.0;
                probs
            }
            StorageDistribution::Poisson { lambda } => {
                let mut probs = [0.0; 7];
                let mut pmf = 1.0f64 * (-lambda).exp(); // P(X = 0)
                let mut total = 0.0;
                for (k, slot) in probs.iter_mut().enumerate() {
                    *slot = pmf;
                    total += pmf;
                    pmf *= lambda / (k as f64 + 1.0);
                }
                for slot in &mut probs {
                    *slot /= total;
                }
                probs
            }
        }
    }

    /// Draws the storage budget of one user, expressed in the paper's
    /// absolute buckets (10..1000 profiles for `s = 1000`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            StorageDistribution::Uniform(c) => c,
            StorageDistribution::Poisson { .. } => {
                let probs = self.bucket_probabilities();
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for (idx, &p) in probs.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return PAPER_STORAGE_BUCKETS[idx];
                    }
                }
                PAPER_STORAGE_BUCKETS[6]
            }
        }
    }

    /// Assigns a storage budget to every user, scaled to a personal-network
    /// size `s`.
    ///
    /// The paper's buckets are defined relative to `s = 1000`; for smaller
    /// simulations (`s = 100` at laptop scale) the same proportions are kept
    /// by scaling each bucket by `s / 1000` (minimum 1 profile). With
    /// `s = 1000` the buckets are exactly those of Table 1.
    pub(crate) fn assign<R: Rng + ?Sized>(
        &self,
        num_users: usize,
        personal_network_size: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        (0..num_users)
            .map(|_| {
                let bucket = self.sample(rng);
                scale_bucket(bucket, personal_network_size)
            })
            .collect()
    }

    /// Human-readable label used in experiment output.
    pub fn label(&self) -> String {
        match *self {
            StorageDistribution::Uniform(c) => format!("uniform c={c}"),
            StorageDistribution::Poisson { lambda } => format!("poisson λ={lambda}"),
        }
    }
}

/// Scales one of the paper's absolute buckets (relative to `s = 1000`) to a
/// personal network of size `s`, never below one profile and never above `s`.
pub fn scale_bucket(bucket: usize, personal_network_size: usize) -> usize {
    let scaled = (bucket as f64 * personal_network_size as f64 / 1000.0).round() as usize;
    scaled.clamp(1, personal_network_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_lambda_1_matches_table_1() {
        let probs = StorageDistribution::poisson_lambda_1().bucket_probabilities();
        let expected = [0.3679, 0.3679, 0.1839, 0.0613, 0.0153, 0.0031, 0.0006];
        for (got, want) in probs.iter().zip(expected.iter()) {
            assert!(
                (got - want).abs() < 0.002,
                "λ=1 probabilities {probs:?} deviate from Table 1"
            );
        }
    }

    #[test]
    fn poisson_lambda_4_matches_table_1() {
        let probs = StorageDistribution::poisson_lambda_4().bucket_probabilities();
        let expected = [0.0206, 0.0825, 0.1649, 0.2199, 0.2199, 0.1759, 0.1173];
        for (got, want) in probs.iter().zip(expected.iter()) {
            assert!(
                (got - want).abs() < 0.002,
                "λ=4 probabilities {probs:?} deviate from Table 1"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        for dist in [
            StorageDistribution::Uniform(50),
            StorageDistribution::poisson_lambda_1(),
            StorageDistribution::poisson_lambda_4(),
        ] {
            let total: f64 = dist.bucket_probabilities().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{dist:?} sums to {total}");
        }
    }

    #[test]
    fn uniform_sampling_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let dist = StorageDistribution::Uniform(200);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 200);
        }
    }

    #[test]
    fn poisson_sampling_matches_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = StorageDistribution::poisson_lambda_1();
        let n = 100_000;
        let mut counts = [0usize; 7];
        for _ in 0..n {
            let c = dist.sample(&mut rng);
            let idx = PAPER_STORAGE_BUCKETS.iter().position(|&b| b == c).unwrap();
            counts[idx] += 1;
        }
        let probs = dist.bucket_probabilities();
        for (idx, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            assert!(
                (observed - probs[idx]).abs() < 0.01,
                "bucket {idx}: observed {observed} expected {}",
                probs[idx]
            );
        }
    }

    #[test]
    fn assign_scales_buckets_to_network_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let budgets = StorageDistribution::Uniform(10).assign(5, 100, &mut rng);
        assert_eq!(budgets, vec![1, 1, 1, 1, 1]);
        let budgets = StorageDistribution::Uniform(1000).assign(3, 100, &mut rng);
        assert_eq!(budgets, vec![100, 100, 100]);
    }

    #[test]
    fn scale_bucket_bounds() {
        assert_eq!(scale_bucket(10, 1000), 10);
        assert_eq!(scale_bucket(1000, 1000), 1000);
        assert_eq!(scale_bucket(10, 100), 1);
        assert_eq!(scale_bucket(500, 100), 50);
        assert_eq!(scale_bucket(2000, 100), 100, "never exceeds s");
        assert_eq!(scale_bucket(1, 100), 1, "never below one profile");
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(StorageDistribution::Uniform(10).label(), "uniform c=10");
        assert!(StorageDistribution::poisson_lambda_4()
            .label()
            .contains("λ=4"));
    }
}
