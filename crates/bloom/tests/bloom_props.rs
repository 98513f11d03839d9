//! Property-based tests for the Bloom filter digests.

use p3q_bloom::{
    hash_pair, BloomBuilder, BloomFilter, ProbeSet, PAPER_FILTER_BITS, PAPER_FILTER_HASHES,
};
use proptest::prelude::*;

/// The geometries `contains_any` is pinned on, each with several hashes and
/// with `k = 1` (where the first-slot screen is the whole probe). Powers of
/// two up to 2^16 take `ProbeSet`'s strided residue column (1 bit is the
/// one size whose `h2` residue is 0); the paper's 20 Kbit, 1000 bits and
/// 2^17 bits — a power of two, but wider than `u16` — take the hashed one.
const GEOMETRIES: [(usize, u32); 16] = [
    (1, 3),
    (64, 3),
    (64, 1),
    (2048, 4),
    (2048, 1),
    (4096, 4),
    (4096, 1),
    (65_536, 5),
    (65_536, 1),
    (PAPER_FILTER_BITS, PAPER_FILTER_HASHES),
    (PAPER_FILTER_BITS, 1),
    (1000, 3),
    (1000, 1),
    (131_072, 4),
    (131_072, 1),
    (131_072, 9),
];

/// `contains_any` must be `any(contains)`, bit for bit.
fn check_contains_any(filter: &BloomFilter, keys: &[u64]) -> Result<(), TestCaseError> {
    let probes = ProbeSet::new(filter.bit_len(), filter.num_hashes(), keys.iter().copied());
    prop_assert_eq!(
        filter.contains_any(&probes),
        keys.iter().any(|&k| filter.contains(k)),
        "{} bits, k = {}, {} inserted, {} probed",
        filter.bit_len(),
        filter.num_hashes(),
        filter.inserted_keys(),
        keys.len()
    );
    Ok(())
}

#[test]
fn contains_any_on_present_absent_and_false_positive_keys() {
    for (bits, hashes) in GEOMETRIES {
        if bits == 1 {
            // Every key probes the one bit: no key is absent from a filter
            // that holds one. The property test below covers this size.
            continue;
        }
        // ~40 % fill: first-slot hits that later probes reject are common,
        // and so are genuine false positives.
        let inserted = bits as u64 / (2 * u64::from(hashes));
        let filter = BloomFilter::from_keys(bits, hashes, 0..inserted);
        let outside = || 1_000_000..2_000_000u64;
        let false_positive = outside().find(|&k| filter.contains(k)).unwrap();
        let absent: Vec<u64> = outside()
            .filter(|&k| !filter.contains(k))
            .take(200)
            .collect();
        let any =
            |keys: &[u64]| filter.contains_any(&ProbeSet::new(bits, hashes, keys.iter().copied()));

        assert!(!any(&[]), "the empty set hits nothing");
        assert!(!any(&absent));
        assert!(any(&[3]), "an inserted key");
        assert!(any(&[false_positive]), "false positives are kept");
        for hit in [3, false_positive] {
            let mut keys = absent.clone();
            keys.push(hit);
            assert!(any(&keys), "a hit after 200 misses");
            keys.rotate_right(1);
            assert!(any(&keys), "a hit before 200 misses");
        }
        assert!(!BloomFilter::new(bits, hashes).contains_any(&ProbeSet::new(bits, hashes, 0..100)));
    }
}

/// The strided column steps `at ← (at + h2 mod m) & (m − 1)`: pin it on the
/// keys whose stride is the extreme residues — `m − 1` (every step wraps)
/// and 1, the smallest an odd `h2` leaves for `m ≥ 2` — and whose start is
/// the last slot, alone and among keys that miss.
#[test]
fn contains_any_on_extreme_strides() {
    for (bits, hashes) in GEOMETRIES {
        let m = bits as u64;
        if !bits.is_power_of_two() || bits < 2 {
            continue;
        }
        let key_where = |pred: &dyn Fn(u64, u64) -> bool| {
            (0..u64::MAX)
                .find(|&k| {
                    let (h1, h2) = hash_pair(k);
                    pred(h1 % m, h2 % m)
                })
                .unwrap()
        };
        // At 2^16 and above a given residue is one key in tens of
        // thousands; the search stays well under a second.
        let extremes = [
            key_where(&|_, stride| stride == m - 1),
            key_where(&|_, stride| stride == 1),
            key_where(&|first, _| first == m - 1),
        ];
        let filter = BloomFilter::from_keys(bits, hashes, (0..m / 8).map(|k| k * 3 + 7));
        for key in extremes {
            check_contains_any(&filter, &[key]).unwrap();
            let with: Vec<u64> = (5_000_000..5_000_050).chain([key]).collect();
            check_contains_any(&filter, &with).unwrap();
            let holding = BloomFilter::from_keys(bits, hashes, [key]);
            check_contains_any(&holding, &[key]).unwrap();
            check_contains_any(&holding, &with).unwrap();
            assert!(holding.contains_any(&ProbeSet::new(bits, hashes, [key])));
        }
    }
}

/// What a node pays to keep the column: 4 bytes a key where the residues
/// fit, 20 otherwise, nothing for no keys.
#[test]
fn heap_bytes_follow_the_column_form() {
    for (bits, per_key) in [
        (4096, 4),
        (65_536, 4),
        (PAPER_FILTER_BITS, 20),
        (131_072, 20),
    ] {
        assert_eq!(ProbeSet::new(bits, 4, 0..100).heap_bytes(), 100 * per_key);
        assert_eq!(ProbeSet::new(bits, 4, []).heap_bytes(), 0);
    }
}

#[test]
#[should_panic(expected = "same geometry")]
fn contains_any_rejects_a_different_bit_length() {
    BloomFilter::new(4096, 4).contains_any(&ProbeSet::new(PAPER_FILTER_BITS, 4, [1, 2]));
}

#[test]
#[should_panic(expected = "same geometry")]
fn contains_any_rejects_a_different_hash_count() {
    BloomFilter::new(4096, 4).contains_any(&ProbeSet::new(4096, 5, [1, 2]));
}

proptest! {
    /// Inserted keys are always reported as present (no false negatives).
    #[test]
    fn prop_no_false_negatives(keys in prop::collection::hash_set(any::<u64>(), 1..300)) {
        let mut f = BloomFilter::new(1 << 13, 5);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Union behaves like inserting the concatenation of both key sets.
    #[test]
    fn prop_union_is_superset(
        left in prop::collection::vec(any::<u64>(), 0..200),
        right in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut a = BloomFilter::new(1 << 12, 4);
        let mut b = BloomFilter::new(1 << 12, 4);
        for &k in &left {
            a.insert(k);
        }
        for &k in &right {
            b.insert(k);
        }
        let mut u = a.clone();
        u.union_with(&b);
        for &k in left.iter().chain(right.iter()) {
            prop_assert!(u.contains(k));
        }
        prop_assert!(u.ones() >= a.ones().max(b.ones()));
    }

    /// The fill ratio never exceeds 1 and is monotone in the number of
    /// insertions.
    #[test]
    fn prop_fill_ratio_monotone(keys in prop::collection::vec(any::<u64>(), 1..500)) {
        let mut f = BloomFilter::new(4096, 3);
        let mut previous = 0.0f64;
        for &k in &keys {
            f.insert(k);
            let ratio = f.fill_ratio();
            prop_assert!(ratio >= previous);
            prop_assert!(ratio <= 1.0);
            previous = ratio;
        }
    }

    /// `intersects` never misses a genuinely shared key.
    #[test]
    fn prop_intersects_is_sound(
        shared in any::<u64>(),
        left in prop::collection::vec(any::<u64>(), 0..100),
        right in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut a = BloomFilter::new(1 << 12, 4);
        let mut b = BloomFilter::new(1 << 12, 4);
        for &k in &left {
            a.insert(k);
        }
        for &k in &right {
            b.insert(k);
        }
        a.insert(shared);
        b.insert(shared);
        prop_assert!(a.intersects(&b));
    }

    /// `contains_any` equals `any(contains)` for random filters — from empty
    /// to nearly full, so misses, first-slot hits that later probes reject,
    /// false positives and true members all occur — and random key sets
    /// that may or may not share a key with the filter.
    #[test]
    fn prop_contains_any_matches_any_contains(
        inserted in prop::collection::vec(any::<u64>(), 0..3000),
        keys in prop::collection::vec(any::<u64>(), 0..150),
        shared in prop::collection::vec(any::<u64>(), 0..2),
    ) {
        for (bits, hashes) in GEOMETRIES {
            let filter = BloomFilter::from_keys(
                bits,
                hashes,
                inserted.iter().chain(&shared).copied(),
            );
            check_contains_any(&filter, &keys)?;
            let with_shared: Vec<u64> = keys.iter().chain(&shared).copied().collect();
            check_contains_any(&filter, &with_shared)?;
        }
    }

    /// Builder-derived geometry always accommodates the requested capacity
    /// with a measured false-positive rate not wildly above the target.
    #[test]
    fn prop_builder_respects_target(
        n in 10usize..2000,
        // target rates between 0.1% and 10%
        rate_millis in 1u32..100,
    ) {
        let target = rate_millis as f64 / 1000.0;
        let b = BloomBuilder::new(n, target);
        prop_assert!(b.optimal_bits() > 0);
        prop_assert!(b.optimal_hashes() >= 1);
        // The analytical expected rate should be within 2x of the target
        // (rounding of k causes slight deviations).
        prop_assert!(b.expected_fpr() <= target * 2.0 + 1e-9);
    }
}
