//! Property suite for the group-varint codec against the retained LEB128
//! oracle, plus random-access equivalence of the flag-dispatched
//! [`SortedKeyStore`] blocks.
//!
//! The group-varint kernels carry every posting/profile hot path since the
//! decode-tax PR; LEB128 stays in the tree as length prefixes, run heads,
//! wide-block fallback — and as the oracle these properties pin the new
//! codec to. Run under `P3Q_THREADS ∈ {1, 3, 8}` in CI's determinism
//! matrix: the codec itself is thread-free, so identical output across the
//! matrix certifies that no decode path picks up thread-dependent state.

use p3q_trace::codec::{
    decode_group, decode_sorted_u32s_grouped, decode_sorted_u64s, encode_group_u32s,
    encode_sorted_u32s, encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded,
    group_value_len, varint_len, GroupReader, SortedKeyStore, GROUP_DECODE_SLACK, GROUP_SIZE,
};
use p3q_trace::{PackedProfile, Profile};
use proptest::prelude::*;

/// Shapes a raw value into one of six byte-width classes picked by `sel`,
/// so the generated mixes stress every group shape: all-zero groups,
/// u32::MAX runs, each control-byte length class, and arbitrary values.
fn shape_value(sel: u8, raw: u32) -> u32 {
    match sel % 6 {
        0 => 0,
        1 => u32::MAX,
        2 => raw % 256,
        3 => raw % 65_536,
        4 => raw % 16_777_216,
        _ => raw,
    }
}

fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec((any::<u8>(), any::<u32>()), 0..40)
        .prop_map(|raw| raw.into_iter().map(|(s, v)| shape_value(s, v)).collect())
}

fn arb_sorted_u32s() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..50).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn arb_sorted_u64s() -> impl Strategy<Value = Vec<u64>> {
    // Mix dense local keys with full-width jumps so both block codecs
    // (grouped and the LEB128 fallback) appear in one store.
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

proptest! {
    /// Raw group encode/decode is lossless for any value mix, and the
    /// stream's byte length matches the sum of per-value widths plus one
    /// control byte per (possibly partial) group.
    #[test]
    fn group_run_round_trips(values in arb_values()) {
        let mut buf = Vec::new();
        encode_group_u32s(&values, &mut buf);
        let decoded: Vec<u32> = GroupReader::new(&buf).collect();
        prop_assert_eq!(&decoded, &values);
        let payload: usize = values.iter().map(|&v| group_value_len(v)).sum();
        let controls = values.len().div_ceil(GROUP_SIZE);
        prop_assert_eq!(buf.len(), payload + controls);
    }

    /// Chunked decoding through `decode_group` visits exactly the encoded
    /// values: full groups come back 4 at a time, the tail remainder
    /// shorter, and the stream ends with a 0-length group.
    #[test]
    fn chunked_group_decode_matches(values in arb_values()) {
        let mut buf = Vec::new();
        encode_group_u32s(&values, &mut buf);
        let mut pos = 0usize;
        let mut out = [0u32; GROUP_SIZE];
        let mut decoded = Vec::new();
        loop {
            let n = decode_group(&buf, &mut pos, &mut out);
            if n == 0 {
                break;
            }
            decoded.extend_from_slice(&out[..n]);
        }
        prop_assert_eq!(&decoded, &values);
        prop_assert_eq!(pos, buf.len());
    }

    /// The grouped sorted-run codec decodes to exactly the values the
    /// retained LEB128 delta codec decodes to — the posting-run oracle.
    #[test]
    fn grouped_run_matches_leb128_oracle(values in arb_sorted_u32s()) {
        let mut leb = Vec::new();
        encode_sorted_u32s(&values, &mut leb);
        let oracle: Vec<u32> = decode_sorted_u64s(&leb).map(|v| v as u32).collect();

        let mut grouped = Vec::new();
        encode_sorted_u32s_grouped(&values, &mut grouped);
        let decoded: Vec<u32> = decode_sorted_u32s_grouped(&grouped).collect();

        prop_assert_eq!(&oracle, &values);
        prop_assert_eq!(&decoded, &values);
    }

    /// The fused padded kernel (the counting-sweep decode path) visits
    /// exactly the run's values — even when the mandatory decode slack
    /// holds arbitrary garbage, which the length masks and the logical
    /// `run_len` end condition must keep out of every decoded value.
    #[test]
    fn padded_kernel_matches_oracle(values in arb_sorted_u32s(), slack_byte in any::<u8>()) {
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(&values, &mut buf);
        let run_len = buf.len();
        buf.resize(run_len + GROUP_DECODE_SLACK, slack_byte);
        let mut decoded = Vec::new();
        for_each_sorted_u32_grouped_padded(&buf, run_len, |v| decoded.push(v));
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
    /// agrees with the plain sorted vector it was built from, across block
    /// codecs (grouped and the wide-delta LEB128 fallback) and block
    /// boundaries.
    #[test]
    fn key_store_random_access_matches_oracle(keys in arb_sorted_u64s()) {
        let store = SortedKeyStore::from_sorted(&keys);
        prop_assert_eq!(store.len(), keys.len());
        for (rank, &key) in keys.iter().enumerate() {
            prop_assert_eq!(store.get(rank), key);
            prop_assert_eq!(store.rank_of(key), Some(rank));
        }
        let all: Vec<u64> = store.iter().collect();
        prop_assert_eq!(&all, &keys);
        // Probes around present keys must not produce false ranks.
        for &key in keys.iter().take(16) {
            if keys.binary_search(&key.wrapping_add(1)).is_err() {
                prop_assert_eq!(store.rank_of(key.wrapping_add(1)), None);
            }
        }
    }

    /// The packed profile's decode-on-the-fly iterator yields exactly the
    /// unpacked profile's actions.
    #[test]
    fn packed_actions_iterator_matches_unpack(
        raw in prop::collection::vec((0u32..5_000, 0u32..200), 0..60)
    ) {
        let profile = Profile::from_actions(
            raw.into_iter()
                .map(|(i, t)| p3q_trace::TaggingAction::new(p3q_trace::ItemId(i), p3q_trace::TagId(t))),
        );
        let packed = PackedProfile::pack(&profile);
        let streamed: Vec<_> = packed.actions().collect();
        let unpacked: Vec<_> = packed.unpack().iter().copied().collect();
        prop_assert_eq!(&streamed, &unpacked);
        prop_assert_eq!(streamed.len(), profile.len());
        prop_assert_eq!(packed.actions().len(), profile.len());
    }
}

/// Directed adversarial cases the generators only hit with low probability:
/// long all-zero runs, u32::MAX-heavy groups, and every tail remainder.
#[test]
fn directed_adversarial_group_shapes() {
    let cases: [Vec<u32>; 7] = [
        vec![],
        vec![0; 23],
        vec![u32::MAX; 9],
        vec![0, u32::MAX, 0, u32::MAX, 0],
        vec![1],
        vec![1, 2],
        vec![255, 256, 65_535, 65_536, 16_777_215, 16_777_216, u32::MAX],
    ];
    for values in &cases {
        let mut buf = Vec::new();
        encode_group_u32s(values, &mut buf);
        let decoded: Vec<u32> = GroupReader::new(&buf).collect();
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
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(values, &mut buf);
        let run_len = buf.len();
        buf.resize(run_len + GROUP_DECODE_SLACK, 0xAB);
        let mut decoded = Vec::new();
        for_each_sorted_u32_grouped_padded(&buf, run_len, |v| decoded.push(v));
        assert_eq!(&decoded, values, "case {values:?}");
    }
}

/// Keys engineered to put grouped and LEB128 blocks side by side in one
/// store: a dense block, then a block with a multi-item jump past u32.
#[test]
fn mixed_block_codecs_coexist() {
    let mut keys: Vec<u64> = (0..40u64).collect();
    keys.extend([1 << 33, (1 << 33) + 1, u64::MAX - 5, u64::MAX]);
    let store = SortedKeyStore::from_sorted(&keys);
    for (rank, &key) in keys.iter().enumerate() {
        assert_eq!(store.get(rank), key, "rank {rank}");
        assert_eq!(store.rank_of(key), Some(rank), "key {key}");
    }
    assert_eq!(store.iter().collect::<Vec<u64>>(), keys);
}
