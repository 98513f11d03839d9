//! Bloom-filter profile digests for the P3Q protocol.
//!
//! In P3Q (Bai et al., EDBT 2010) every user stores, for each neighbour in her
//! personal network and random view, a *digest* of that neighbour's profile:
//! a Bloom filter over the **items** the neighbour has tagged (Section 2.1 of
//! the paper). Digests are exchanged during lazy-mode gossip to cheaply decide
//! whether two users share at least one item before any profile data is
//! transferred (step 1 of Algorithm 1).
//!
//! The paper sizes the filter at 20 Kbit per user, which for the observed
//! average of 249 tagged items per user yields a false-positive rate of about
//! 0.1%. [`PAPER_FILTER_BITS`] and [`PAPER_FILTER_HASHES`] give that
//! configuration. The protocol's configuration picks the geometry of its
//! digests; the laptop-scale runs use 4 Kbit.
//!
//! The implementation is self-contained (no third-party hashing crates): it
//! uses the SplitMix64 finalizer as the hash family and the standard
//! Kirsch–Mitzenmacher double-hashing scheme `g_i(x) = h1(x) + i·h2(x)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod hashing;

pub use filter::{BloomFilter, ProbeSet};
pub use hashing::hash_pair;

/// A reference-counted, immutably shared Bloom filter.
///
/// A paper-geometry digest is 20 Kbit (2.5 KB of bit blocks); the gossip
/// stack used to deep-copy one per view entry, per offer and per shuffle.
/// Sharing digests as `Arc<BloomFilter>` turns those copies into reference
/// bumps — a digest is immutable from the moment it is taken.
pub type SharedFilter = std::sync::Arc<BloomFilter>;

/// Default filter size used by the paper's evaluation: 20 Kbit.
pub const PAPER_FILTER_BITS: usize = 20 * 1024;

/// Number of hash functions paired with [`PAPER_FILTER_BITS`].
///
/// The paper targets a 0.1% false-positive rate for profiles of up to 2000
/// items (the 99th-percentile profile size reported in Section 3.3.1); `k = 7`
/// achieves that with a 20 Kbit filter.
pub const PAPER_FILTER_HASHES: u32 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_are_consistent() {
        let f = BloomFilter::new(PAPER_FILTER_BITS, PAPER_FILTER_HASHES);
        assert_eq!(f.bit_len(), PAPER_FILTER_BITS);
        assert_eq!(f.num_hashes(), PAPER_FILTER_HASHES);
        // 20 Kbit == 2560 bytes, held in whole words.
        assert_eq!(f.heap_bytes(), PAPER_FILTER_BITS / 8);
    }
}
