//! Property suite for the posting-run codec — `[first: LEB128][deltas:
//! group-varint]`, written by `encode_sorted_u32s_grouped` and read by the
//! padded kernel alone — with the input as the oracle, plus random-access
//! equivalence of the LEB128-block [`SortedKeyStore`].
//!
//! Run under `P3Q_THREADS ∈ {1, 3, 8}` in CI's determinism matrix: the
//! codec itself is thread-free, so identical output across the matrix
//! certifies that no decode path picks up thread-dependent state.

use p3q_trace::codec::{
    encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded, group_value_len, read_varint,
    varint_len, SortedKeyStore, GROUP_DECODE_SLACK, GROUP_SIZE,
};
use proptest::prelude::*;

/// Shapes a raw delta into one of five byte-width classes picked by `sel`,
/// so the generated runs stress every group shape: all-one-byte groups
/// (control byte 0), each control-byte length class, and arbitrary widths.
/// Deltas are at least 1 — posting runs are strictly ascending.
fn shape_delta(sel: u8, raw: u32) -> u32 {
    let bound = match sel % 5 {
        0 => 1 << 8,
        1 => 1 << 16,
        2 => 1 << 24,
        3 => 1 << 26,
        _ => 16,
    };
    raw % bound + 1
}

/// A strictly ascending run built as the prefix sums of shaped deltas from
/// a shaped first value; the run stops before it would overflow `u32`.
fn arb_shaped_run() -> impl Strategy<Value = Vec<u32>> {
    (
        any::<u32>(),
        any::<u8>(),
        prop::collection::vec((any::<u8>(), any::<u32>()), 0..40),
    )
        .prop_map(|(first, sel, raw)| {
            let mut value = if sel % 2 == 0 { first % 1000 } else { first };
            let mut run = vec![value];
            for (s, d) in raw {
                match value.checked_add(shape_delta(s, d)) {
                    Some(next) => value = next,
                    None => break,
                }
                run.push(value);
            }
            run
        })
}

fn arb_sorted_u32s() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..50).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn arb_sorted_u64s() -> impl Strategy<Value = Vec<u64>> {
    // Mix dense local keys with full-width jumps so narrow and wide deltas
    // share blocks.
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..120).prop_map(|raw| {
        let mut keys: Vec<u64> = raw
            .into_iter()
            .map(|(s, v)| if s % 2 == 0 { v % 10_000 } else { v })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    })
}

/// Action-shaped keys `(item << 32) | tag`: items advance by 0–3 from one
/// action to the next and tags stay below 2^16, the block mix of a real
/// dictionary (many actions per item, small item gaps).
fn arb_action_keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..4, 0u64..65_536), 0..200).prop_map(|raw| {
        let mut item = 0u64;
        let mut keys: Vec<u64> = raw
            .into_iter()
            .map(|(gap, tag)| {
                item += gap;
                (item << 32) | tag
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    })
}

/// Encodes `values` as one posting run and decodes it back through the
/// padded kernel, with `slack_byte` filling the mandatory slack.
fn round_trip(values: &[u32], slack_byte: u8) -> (Vec<u8>, Vec<u32>) {
    let mut buf = Vec::new();
    encode_sorted_u32s_grouped(values, &mut buf);
    let run_len = buf.len();
    buf.resize(run_len + GROUP_DECODE_SLACK, slack_byte);
    let mut decoded = Vec::new();
    for_each_sorted_u32_grouped_padded(&buf, run_len, |v| decoded.push(v));
    buf.truncate(run_len);
    (buf, decoded)
}

/// Asserts that every access path of `store` — rank→key, key→rank, full
/// iteration — agrees with the sorted vector it was built from.
fn assert_store_matches(store: &SortedKeyStore, keys: &[u64]) {
    assert_eq!(store.len(), keys.len());
    for (rank, &key) in keys.iter().enumerate() {
        assert_eq!(store.get(rank), key, "rank {rank}");
        assert_eq!(store.rank_of(key), Some(rank), "key {key}");
    }
    assert_eq!(store.iter().collect::<Vec<u64>>(), keys);
}

proptest! {
    /// Runs of shaped deltas decode losslessly, and the run's byte length
    /// is its LEB128 head plus every delta's group width plus one control
    /// byte per (possibly partial) group of deltas.
    #[test]
    fn group_run_round_trips(values in arb_shaped_run(), slack_byte in any::<u8>()) {
        let (buf, decoded) = round_trip(&values, slack_byte);
        prop_assert_eq!(&decoded, &values);
        let head = values.first().map_or(0, |&v| varint_len(u64::from(v)));
        let payload: usize = values.windows(2).map(|w| group_value_len(w[1] - w[0])).sum();
        let controls = values.len().saturating_sub(1).div_ceil(GROUP_SIZE);
        prop_assert_eq!(buf.len(), head + payload + controls);
    }

    /// Runs encoded back to back in one blob, the layout of a posting
    /// shard, each decode in place: a run's slack is the bytes of the runs
    /// after it, and no byte of a neighbour reaches a decoded value.
    #[test]
    fn chunked_group_decode_matches(
        runs in prop::collection::vec(arb_shaped_run(), 1..6),
        slack_byte in any::<u8>(),
    ) {
        let mut blob = Vec::new();
        let mut bounds = Vec::new();
        for run in &runs {
            let start = blob.len();
            encode_sorted_u32s_grouped(run, &mut blob);
            bounds.push((start, blob.len() - start));
        }
        blob.resize(blob.len() + GROUP_DECODE_SLACK, slack_byte);
        for (run, &(start, len)) in runs.iter().zip(&bounds) {
            let mut decoded = Vec::new();
            for_each_sorted_u32_grouped_padded(&blob[start..], len, |v| decoded.push(v));
            prop_assert_eq!(&decoded, run);
        }
    }

    /// The posting-run head is the LEB128 encoding of the run's first
    /// value, and the whole run decodes back to its input.
    #[test]
    fn grouped_run_matches_leb128_oracle(values in arb_shaped_run()) {
        let (buf, decoded) = round_trip(&values, 0);
        prop_assert_eq!(&decoded, &values);
        if let Some(&first) = values.first() {
            let mut pos = 0usize;
            prop_assert_eq!(read_varint(&buf, &mut pos), u64::from(first));
            prop_assert_eq!(pos, varint_len(u64::from(first)));
        }
    }

    /// The fused padded kernel (the counting-sweep decode path) visits
    /// exactly the run's values — even when the mandatory decode slack
    /// holds arbitrary garbage, which the length masks and the logical
    /// `run_len` end condition must keep out of every decoded value.
    #[test]
    fn padded_kernel_matches_oracle(values in arb_sorted_u32s(), slack_byte in any::<u8>()) {
        let (_, decoded) = round_trip(&values, slack_byte);
        prop_assert_eq!(&decoded, &values);
    }

    /// Singleton runs must not regress in size versus LEB128: the grouped
    /// format's head is plain LEB128, so one-element postings (the dominant
    /// population at trace scale) carry zero control-byte overhead.
    #[test]
    fn singleton_runs_carry_no_group_overhead(v in any::<u32>()) {
        let mut grouped = Vec::new();
        encode_sorted_u32s_grouped(&[v], &mut grouped);
        prop_assert_eq!(grouped.len(), varint_len(u64::from(v)));
    }

    /// Every key store access path — rank→key, key→rank, full iteration —
    /// agrees with the plain sorted vector it was built from, across
    /// narrow and full-width deltas and block boundaries.
    #[test]
    fn key_store_random_access_matches_oracle(keys in arb_sorted_u64s()) {
        let store = SortedKeyStore::from_sorted(&keys);
        assert_store_matches(&store, &keys);
        // Probes around present keys must not produce false ranks.
        for &key in keys.iter().take(16) {
            if keys.binary_search(&key.wrapping_add(1)).is_err() {
                prop_assert_eq!(store.rank_of(key.wrapping_add(1)), None);
            }
        }
    }

    /// On action-shaped keys — the dictionary's real block mix — every
    /// access path equals the sorted vector, and every probe strictly
    /// between two present keys, or past either end, returns `None`.
    #[test]
    fn key_store_matches_oracle_on_action_shaped_keys(keys in arb_action_keys()) {
        let store = SortedKeyStore::from_sorted(&keys);
        assert_store_matches(&store, &keys);
        for pair in keys.windows(2) {
            for probe in [pair[0] + 1, pair[0] + (pair[1] - pair[0]) / 2, pair[1] - 1] {
                if probe > pair[0] && probe < pair[1] {
                    prop_assert_eq!(store.rank_of(probe), None);
                }
            }
        }
        if let (Some(&lo), Some(&hi)) = (keys.first(), keys.last()) {
            if lo > 0 {
                prop_assert_eq!(store.rank_of(lo - 1), None);
            }
            prop_assert_eq!(store.rank_of(hi + 1), None);
        }
    }
}

/// Directed adversarial runs the generators only hit with low probability:
/// long all-one-byte runs, runs of maximal 4-byte deltas, alternating
/// widths, and every trailing-group length 1–3 under each width class.
#[test]
fn directed_adversarial_group_shapes() {
    let prefix_sums = |first: u32, deltas: &[u32]| -> Vec<u32> {
        let rest = deltas.iter().scan(first, |acc, &d| {
            *acc += d;
            Some(*acc)
        });
        std::iter::once(first).chain(rest).collect()
    };
    let mut cases: Vec<Vec<u32>> = vec![
        vec![],
        vec![1],
        vec![0, u32::MAX],
        prefix_sums(0, &[1; 23]),
        prefix_sums(0, &[0xFF_FFFF + 1; 9]),
        prefix_sums(5, &[1, 0x100_0000, 1, 0x100_0000, 1]),
        prefix_sums(0, &[255, 256, 65_535, 65_536, 16_777_215, 16_777_216, 1]),
    ];
    for width in [1u32, 0x100, 0x1_0000, 0x100_0000] {
        for tail in 1..GROUP_SIZE {
            cases.push(prefix_sums(u32::MAX / 2, &vec![width; GROUP_SIZE + tail]));
        }
    }
    for values in &cases {
        let (_, decoded) = round_trip(values, 0xFF);
        assert_eq!(&decoded, values, "case {values:?}");
    }
}

/// Heads at the 4-byte fast-path boundary of the padded kernel: values at
/// and past 2^28 take a 5-byte LEB128 head and must fall back to the
/// generic byte loop, with garbage slack never reaching a decoded value.
#[test]
fn padded_kernel_handles_wide_heads_and_garbage_slack() {
    let cases: [Vec<u32>; 6] = [
        vec![42],
        vec![(1 << 28) - 1],
        vec![1 << 28],
        vec![u32::MAX],
        vec![1 << 28, (1 << 28) + 1, u32::MAX - 1, u32::MAX],
        vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
    ];
    for values in &cases {
        let (_, decoded) = round_trip(values, 0xAB);
        assert_eq!(&decoded, values, "case {values:?}");
    }
}

/// Narrow in-item deltas and multi-item jumps past `u32` side by side in
/// one store, in one block form: a dense block, then a block with wide
/// jumps up to the top of the key space.
#[test]
fn mixed_block_codecs_coexist() {
    let mut keys: Vec<u64> = (0..40u64).collect();
    keys.extend([1 << 33, (1 << 33) + 1, u64::MAX - 5, u64::MAX]);
    let store = SortedKeyStore::from_sorted(&keys);
    assert_store_matches(&store, &keys);
}
