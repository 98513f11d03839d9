//! The Bloom filter proper.

use crate::hashing::hash_pair;

/// A fixed-size Bloom filter over 64-bit keys.
///
/// P3Q inserts item identifiers into the filter; membership queries answer
/// "might this user have tagged this item?" with no false negatives and a
/// false-positive rate governed by the filter size and the number of inserted
/// items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Stored as `u32` (filters are tens of kilobits; the simulator holds
    /// one per node, so the struct stays at 32 bytes instead of 48).
    bit_len: u32,
    num_hashes: u32,
    inserted: u32,
}

impl BloomFilter {
    /// Creates an empty filter with `bit_len` bits and `num_hashes` hash
    /// functions.
    ///
    /// # Panics
    /// Panics if `bit_len` is zero or `num_hashes` is zero.
    pub fn new(bit_len: usize, num_hashes: u32) -> Self {
        assert!(bit_len > 0, "a Bloom filter needs at least one bit");
        assert!(num_hashes > 0, "a Bloom filter needs at least one hash");
        let words = bit_len.div_ceil(64);
        Self {
            bits: vec![0; words],
            bit_len: u32::try_from(bit_len).expect("filters are at most 2^32 - 1 bits"),
            num_hashes,
            inserted: 0,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.num_hashes {
            let idx = slot(self.bit_len, h1, h2, i);
            self.bits[idx / 64] |= 1 << (idx % 64);
        }
        self.inserted += 1;
    }

    /// Returns `true` if the key *might* have been inserted, `false` if it
    /// definitely has not.
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = hash_pair(key);
        (0..self.num_hashes).all(|i| self.bit(slot(self.bit_len, h1, h2, i)))
    }

    /// Returns `true` if any key of `probes` *might* have been inserted:
    /// exactly `keys.any(|k| self.contains(k))` over the keys the set was
    /// built from, false positives included.
    ///
    /// Each key is screened with one bit test on its first slot; the other
    /// `k − 1` probes run only for the keys that pass, so a miss — the
    /// common case for a digest of an unrelated profile — costs no hashing
    /// and no division.
    ///
    /// # Panics
    /// Panics if `probes` was hashed for a different geometry.
    pub fn contains_any(&self, probes: &ProbeSet) -> bool {
        self.assert_geometry(probes.bit_len, probes.num_hashes);
        match &probes.column {
            ProbeColumn::Strided(keys) => {
                let mask = self.bit_len - 1;
                keys.iter().any(|&(first, stride)| {
                    let mut at = u32::from(first);
                    self.bit(at as usize)
                        && (1..self.num_hashes).all(|_| {
                            at = (at + u32::from(stride)) & mask;
                            self.bit(at as usize)
                        })
                })
            }
            ProbeColumn::Hashed {
                first_slots,
                hashes,
            } => first_slots
                .iter()
                .zip(hashes.iter())
                .any(|(&first, &(h1, h2))| {
                    self.bit(first as usize)
                        && (1..self.num_hashes).all(|i| self.bit(slot(self.bit_len, h1, h2, i)))
                }),
        }
    }

    /// Returns `true` if no key was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Number of `insert` calls performed (counting duplicates).
    pub fn inserted_keys(&self) -> usize {
        self.inserted as usize
    }

    /// Capacity of the filter in bits.
    pub fn bit_len(&self) -> usize {
        self.bit_len as usize
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Resident heap bytes of the in-memory bit array (whole `u64` words,
    /// so usually slightly above the `bit_len / 8` bytes a digest costs on
    /// the wire).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }

    /// Builds a filter of the given geometry from an iterator of keys.
    pub fn from_keys<I: IntoIterator<Item = u64>>(
        bit_len: usize,
        num_hashes: u32,
        keys: I,
    ) -> Self {
        let mut f = Self::new(bit_len, num_hashes);
        for k in keys {
            f.insert(k);
        }
        f
    }

    #[inline]
    fn bit(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    fn assert_geometry(&self, bit_len: u32, num_hashes: u32) {
        assert_eq!(
            (self.bit_len, self.num_hashes),
            (bit_len, num_hashes),
            "Bloom filters must share the same geometry"
        );
    }
}

/// The `i`-th probe position of a key hashed to `(h1, h2)` in a filter of
/// `bit_len` bits — the one place the double-hashing scheme is spelled out,
/// shared by [`BloomFilter`] and [`ProbeSet`].
#[inline]
fn slot(bit_len: u32, h1: u64, h2: u64, i: u32) -> usize {
    (h1.wrapping_add((i as u64).wrapping_mul(h2)) % bit_len as u64) as usize
}

/// A set of keys hashed once for one filter geometry, to be tested against
/// many filters of that geometry with [`BloomFilter::contains_any`].
///
/// A P3Q node asks "does any of my items hit this digest?" of every digest
/// in its random view and of every offer it receives; its items and the
/// digest geometry are the same each time, so the hashing is done here,
/// once, and each test is left with bit lookups.
///
/// For a power-of-two `bit_len = 2^k ≤ 2^16` a key is kept as the two
/// residues `(h1 mod 2^k, h2 mod 2^k)`, 4 bytes: probe `i` is
/// `(h1 + i·h2 mod 2^64) mod 2^k`, and because `2^k` divides `2^64` the
/// wrap of the 64-bit sum is invisible to the residue, so the probe sequence
/// is `at ← (at + h2 mod 2^k) & (2^k − 1)` from `at = h1 mod 2^k` — no
/// division and nothing of the 64-bit hashes needed. Every other geometry
/// (a bit length that is not a power of two, such as the paper's 20 Kbit,
/// or one wider than `u16`) cannot drop the high bits and keeps the first
/// slot and the full `(h1, h2)` of every key, 20 bytes. The choice follows
/// from the geometry alone; both forms answer exactly what per-key
/// [`BloomFilter::contains`] answers.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    bit_len: u32,
    num_hashes: u32,
    column: ProbeColumn,
}

/// Widest bit length whose residues fit the strided column's `u16`s.
const STRIDED_MAX_BITS: u32 = 1 << 16;

#[derive(Debug, Clone)]
enum ProbeColumn {
    /// `(h1 mod bit_len, h2 mod bit_len)` of every key.
    Strided(Box<[(u16, u16)]>),
    /// Probe 0 of every key — the only column a miss reads — and the
    /// `(h1, h2)` from which probes `1..k` are derived.
    Hashed {
        first_slots: Box<[u32]>,
        hashes: Box<[(u64, u64)]>,
    },
}

impl ProbeSet {
    /// Hashes `keys` for filters of `bit_len` bits and `num_hashes` hash
    /// functions.
    ///
    /// # Panics
    /// Panics if `bit_len` is zero or does not fit a filter (`u32`).
    pub fn new<I: IntoIterator<Item = u64>>(bit_len: usize, num_hashes: u32, keys: I) -> Self {
        assert!(bit_len > 0, "a Bloom filter needs at least one bit");
        let bit_len = u32::try_from(bit_len).expect("filters are at most 2^32 - 1 bits");
        let hashes = keys.into_iter().map(hash_pair);
        let column = if bit_len.is_power_of_two() && bit_len <= STRIDED_MAX_BITS {
            let mask = u64::from(bit_len - 1);
            // The mask keeps each residue below 2^16, so `as u16` drops
            // nothing.
            ProbeColumn::Strided(
                hashes
                    .map(|(h1, h2)| ((h1 & mask) as u16, (h2 & mask) as u16))
                    .collect(),
            )
        } else {
            let hashes: Box<[(u64, u64)]> = hashes.collect();
            ProbeColumn::Hashed {
                first_slots: hashes
                    .iter()
                    .map(|&(h1, h2)| slot(bit_len, h1, h2, 0) as u32)
                    .collect(),
                hashes,
            }
        };
        Self {
            bit_len,
            num_hashes,
            column,
        }
    }

    /// Resident heap bytes of the key columns (each allocated at its exact
    /// length): 4 bytes a key in the strided form, 20 otherwise.
    pub fn heap_bytes(&self) -> usize {
        match &self.column {
            ProbeColumn::Strided(keys) => std::mem::size_of_val(&**keys),
            ProbeColumn::Hashed {
                first_slots,
                hashes,
            } => std::mem::size_of_val(&**first_slots) + std::mem::size_of_val(&**hashes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PAPER_FILTER_BITS, PAPER_FILTER_HASHES};

    fn paper_filter() -> BloomFilter {
        BloomFilter::new(PAPER_FILTER_BITS, PAPER_FILTER_HASHES)
    }

    /// Share of `probes` keys never inserted that `f` reports as present.
    fn measured_false_positives(f: &BloomFilter, probes: u64) -> f64 {
        let absent = 1_000_000..1_000_000 + probes;
        absent.filter(|&k| f.contains(k)).count() as f64 / probes as f64
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1 << 12, 5);
        for k in 0..500u64 {
            f.insert(k * 7);
        }
        for k in 0..500u64 {
            assert!(f.contains(k * 7), "inserted key {} missing", k * 7);
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 3);
        assert!(f.is_empty());
        for k in 0..1000u64 {
            assert!(!f.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_paper_parameters() {
        let mut f = paper_filter();
        // Average delicious profile: 249 items.
        for k in 0..249u64 {
            f.insert(k);
        }
        let rate = measured_false_positives(&f, 100_000);
        assert!(
            rate < 0.001,
            "paper claims ~0.1% false positives, measured {rate}"
        );
    }

    #[test]
    fn false_positive_rate_stays_reasonable_for_large_profiles() {
        let mut f = paper_filter();
        // 99th-percentile delicious profile: 2000 items.
        for k in 0..2000u64 {
            f.insert(k);
        }
        assert!(measured_false_positives(&f, 100_000) < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 3);
    }

    #[test]
    fn from_keys_matches_incremental_inserts() {
        let keys = [3u64, 17, 99, 4242];
        let a = BloomFilter::from_keys(1024, 4, keys.iter().copied());
        let mut b = BloomFilter::new(1024, 4);
        for &k in &keys {
            b.insert(k);
        }
        assert_eq!(a, b);
    }
}
