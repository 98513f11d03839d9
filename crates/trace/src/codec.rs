//! Variable-length integer codecs — the byte-level substrate of the
//! compressed columnar storage layer. One format per job, and one decoder
//! per format:
//!
//! * **LEB128** scalars ([`write_varint`], [`read_varint`],
//!   [`varint_len`]; 7 payload bits per byte, high bit = continuation)
//!   carry the byte-length prefixes in front of posting runs, the first
//!   value of every posting run, the [`SortedKeyStore`] key blocks behind
//!   [`crate::dict::ActionDictionary`] (one `u64` delta run per block) and
//!   the [`crate::profile::PackedProfile`] at-rest stream.
//! * **Posting runs** — the ascending user ids of one posting list of the
//!   similarity engine's `ActionIndex`, ~1–3 bytes per posting instead of
//!   4 — are written by [`encode_sorted_u32s_grouped`] as `[first value:
//!   LEB128][deltas: group-varint]` and read back by
//!   [`for_each_sorted_u32_grouped_padded`] alone.
//!
//! ## Group-varint posting deltas
//!
//! Deltas are packed four to a *group*: one control byte whose four 2-bit
//! fields give each value's byte length (1–4, little-endian payload bytes),
//! followed by exactly those payload bytes. The decoder looks the four
//! lengths up in a 256-entry table and assembles four values with no
//! per-byte continuation branches — the branch misprediction per encoded
//! byte that makes LEB128 slow to decode is amortized to one dispatch per
//! four values. A trailing group simply runs out of payload bytes: the
//! encoder writes only the bytes of the values present, so the run's byte
//! length is its only delimiter. The LEB128 head keeps the very common
//! singleton posting free of control-byte overhead.
//!
//! Every value is read with one unaligned 4-byte load masked down to its
//! length, which may read up to three bytes past the run. The backing
//! slice must therefore extend [`GROUP_DECODE_SLACK`] readable bytes past
//! the run (posting blobs append them at encode time), and the decoder
//! asserts it before the first load.

/// Appends one LEB128 varint to `out`.
#[inline]
pub fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads one LEB128 varint at `*pos`, advancing the cursor.
///
/// # Panics
/// Panics (via slice indexing) if the stream is truncated.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Number of bytes the varint encoding of `value` takes.
#[inline]
pub fn varint_len(value: u64) -> usize {
    (1 + (63_u32.saturating_sub(value.leading_zeros())) / 7) as usize
}

/// Values per group-varint control byte.
pub const GROUP_SIZE: usize = 4;

/// Maximum payload bytes of one full group (four 4-byte values).
const MAX_GROUP_PAYLOAD: usize = GROUP_SIZE * 4;

/// Bytes the group-varint encoding of `v` occupies (1–4, excluding its two
/// control bits).
#[inline]
pub fn group_value_len(v: u32) -> usize {
    // Bytes needed for the highest set bit; `| 1` makes zero take one byte.
    4 - (v | 1).leading_zeros() as usize / 8
}

/// One control byte's worth of decode dispatch: the four value lengths,
/// their sum, and the low-byte masks matching each length — everything the
/// decode kernel needs from one table lookup, precomputed for all 256
/// control bytes (masks inline keep the kernel free of a second,
/// bounds-checked mask-table access).
#[derive(Clone, Copy)]
struct GroupEntry {
    lens: [u8; GROUP_SIZE],
    masks: [u32; GROUP_SIZE],
    total: u8,
}

/// The table-driven length dispatch: control byte → value lengths.
static GROUP_TABLE: [GroupEntry; 256] = build_group_table();

const fn build_group_table() -> [GroupEntry; 256] {
    let mut table = [GroupEntry {
        lens: [0; GROUP_SIZE],
        masks: [0; GROUP_SIZE],
        total: 0,
    }; 256];
    let mut ctrl = 0usize;
    while ctrl < 256 {
        let mut lens = [0u8; GROUP_SIZE];
        let mut masks = [0u32; GROUP_SIZE];
        let mut total = 0u8;
        let mut j = 0usize;
        while j < GROUP_SIZE {
            let len = ((ctrl >> (2 * j)) & 0b11) as u8 + 1;
            lens[j] = len;
            masks[j] = u32::MAX >> (32 - 8 * len as u32);
            total += len;
            j += 1;
        }
        table[ctrl] = GroupEntry { lens, masks, total };
        ctrl += 1;
    }
    table
}

/// Appends `values` (at most [`GROUP_SIZE`]) as one group: a control byte
/// of four 2-bit little-endian length fields, then each value's low bytes.
/// A trailing partial group writes a full control byte but only the
/// present values' bytes.
fn encode_group_u32s(values: &[u32], out: &mut Vec<u8>) {
    debug_assert!(values.len() <= GROUP_SIZE);
    let mut ctrl = 0u8;
    for (j, &v) in values.iter().enumerate() {
        ctrl |= ((group_value_len(v) - 1) as u8) << (2 * j);
    }
    out.push(ctrl);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes()[..group_value_len(v)]);
    }
}

/// Bounds-check-free unaligned little-endian 4-byte load — the single
/// `deny(unsafe_code)` exemption of this crate, reached only from
/// [`for_each_sorted_u32_grouped_padded`] after its slack assert. Callers
/// must have established `p + 4 <= bytes.len()`.
#[allow(unsafe_code)]
#[inline]
fn load_word_unchecked(bytes: &[u8], p: usize) -> u32 {
    debug_assert!(p + 4 <= bytes.len());
    // SAFETY: the caller established `p + 4 <= bytes.len()`, so this
    // unaligned 4-byte read never leaves the slice. Bytes past the value
    // being decoded belong to the following value or to decode slack; the
    // caller masks them off.
    let word = unsafe { (bytes.as_ptr().add(p) as *const u32).read_unaligned() };
    u32::from_le(word)
}

/// The full-group body of the padded kernel: four unaligned
/// 4-byte loads masked down to their encoded lengths. Callers must have
/// established `p + MAX_GROUP_PAYLOAD <= bytes.len()` — value `j` starts at
/// most 3 × 4 = 12 bytes past `p` (three predecessors of at most 4 bytes
/// each), so every load ends at or before `p + MAX_GROUP_PAYLOAD`.
#[inline]
fn decode_full_group_unchecked(
    bytes: &[u8],
    p: usize,
    entry: &GroupEntry,
    out: &mut [u32; GROUP_SIZE],
) {
    debug_assert!(p + MAX_GROUP_PAYLOAD <= bytes.len());
    let mut off = p;
    let mut j = 0usize;
    while j < GROUP_SIZE {
        out[j] = load_word_unchecked(bytes, off) & entry.masks[j];
        off += entry.lens[j] as usize;
        j += 1;
    }
}

/// Reads one LEB128 varint known to fit `u32` from a slice with at least 4
/// readable bytes at `*pos` — the branch-free head decode of the padded
/// posting kernel. One unaligned load finds the terminator byte via the
/// continuation-bit mask and gathers the four 7-bit fields with shifts; the
/// rare 5-byte encoding (value ≥ 2^28) falls back to the generic byte loop.
#[inline]
fn read_varint_u32_padded(bytes: &[u8], pos: &mut usize) -> u32 {
    let p = *pos;
    let word = load_word_unchecked(bytes, p);
    let stops = !word & 0x8080_8080;
    if stops == 0 {
        // All four continuation bits set: a ≥ 5-byte varint (value ≥ 2^28).
        return read_varint(bytes, pos) as u32;
    }
    let len = (stops.trailing_zeros() >> 3) + 1;
    *pos = p + len as usize;
    // Keep only the encoding's own bytes, then gather the 7-bit fields.
    let w = word & (u32::MAX >> (32 - 8 * len)) & 0x7F7F_7F7F;
    (w & 0x7F) | ((w >> 1) & 0x3F80) | ((w >> 2) & 0x001F_C000) | ((w >> 3) & 0x0FE0_0000)
}

/// Encodes a strictly ascending `u32` run as `[first value: LEB128][deltas:
/// group-varint]`, appending to `out` — the posting-run format. The LEB128
/// head keeps singleton runs free of control-byte overhead; the grouped
/// deltas make the long runs cheap to decode. The caller is responsible for
/// remembering the run's byte length.
pub fn encode_sorted_u32s_grouped(values: &[u32], out: &mut Vec<u8>) {
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    write_varint(u64::from(first), out);
    // Deltas of a strictly ascending u32 run always fit u32 themselves;
    // staging one group at a time keeps the encoder allocation-free (it
    // runs once per posting during index builds and once per rewritten
    // posting when a shard is patched).
    let mut prev = first;
    let mut chunk = [0u32; GROUP_SIZE];
    let mut n = 0usize;
    for &v in rest {
        debug_assert!(v > prev, "delta runs need strictly ascending input");
        chunk[n] = v - prev;
        prev = v;
        n += 1;
        if n == GROUP_SIZE {
            encode_group_u32s(&chunk, out);
            n = 0;
        }
    }
    if n > 0 {
        encode_group_u32s(&chunk[..n], out);
    }
}

/// Readable slack a padded run's backing slice must extend past the
/// logical run end for [`for_each_sorted_u32_grouped_padded`]: with this
/// many spare bytes, *every* group — including the trailing partial one —
/// decodes through the bounds-check-free kernel (the over-read lands in the
/// slack or a following run; the masks discard it).
pub const GROUP_DECODE_SLACK: usize = MAX_GROUP_PAYLOAD;

/// Streams every value of a `[first: LEB128][deltas: group-varint]` run
/// (the [`encode_sorted_u32s_grouped`] format) into `f` in ascending order
/// — the fused decode kernel of the counting-sweep hot paths.
///
/// The run occupies `bytes[..run_len]`; the slice must extend at least
/// [`GROUP_DECODE_SLACK`] bytes further (posting blobs append that much
/// zero slack at encode time), which lets every per-value load skip bounds
/// checks. The full-group bodies unroll to exactly [`GROUP_SIZE`] callback
/// invocations, and all-one-byte groups (the dominant shape of dense
/// posting runs) are walked directly over the payload bytes.
///
/// # Panics
/// Panics if the slice does not carry the required slack.
#[inline]
pub fn for_each_sorted_u32_grouped_padded(bytes: &[u8], run_len: usize, mut f: impl FnMut(u32)) {
    assert!(
        run_len + GROUP_DECODE_SLACK <= bytes.len(),
        "padded group decode needs {GROUP_DECODE_SLACK} readable bytes past the run"
    );
    if run_len == 0 {
        return;
    }
    let mut pos = 0usize;
    let mut value = read_varint_u32_padded(bytes, &mut pos);
    f(value);
    while pos < run_len {
        let ctrl = bytes[pos];
        pos += 1;
        if ctrl == 0 {
            // All-one-byte group: the deltas are the payload bytes.
            let n = (run_len - pos).min(GROUP_SIZE);
            if n == GROUP_SIZE {
                value += u32::from(bytes[pos]);
                f(value);
                value += u32::from(bytes[pos + 1]);
                f(value);
                value += u32::from(bytes[pos + 2]);
                f(value);
                value += u32::from(bytes[pos + 3]);
                f(value);
            } else {
                // Trailing partial group — the run ends with its payload.
                for &byte in &bytes[pos..pos + n] {
                    value += u32::from(byte);
                    f(value);
                }
            }
            pos += n;
            continue;
        }
        let entry = &GROUP_TABLE[ctrl as usize];
        let total = entry.total as usize;
        if pos + total <= run_len {
            let mut group = [0u32; GROUP_SIZE];
            // The unchecked kernel's precondition holds for every group of
            // the run: `pos <= run_len` and the slice carries
            // GROUP_DECODE_SLACK bytes past `run_len`.
            decode_full_group_unchecked(bytes, pos, entry, &mut group);
            value += group[0];
            f(value);
            value += group[1];
            f(value);
            value += group[2];
            f(value);
            value += group[3];
            f(value);
            pos += total;
        } else {
            // Trailing partial group: decode exactly the values whose
            // payload lies inside the run, one masked slack-covered load
            // each (a well-formed partial group's payload ends exactly at
            // `run_len`, so `off` lands on `avail` and `j` stays below
            // GROUP_SIZE).
            let avail = run_len - pos;
            let mut off = 0usize;
            let mut j = 0usize;
            while off < avail {
                value += load_word_unchecked(bytes, pos + off) & entry.masks[j];
                f(value);
                off += entry.lens[j] as usize;
                j += 1;
            }
            pos += off;
        }
    }
}

/// How many keys one skip block of a [`SortedKeyStore`] covers. Lookups
/// binary-search the per-block sample directory and then decode at most one
/// block, so the constant trades lookup cost against directory size
/// (8 + 4 bytes per block, i.e. 0.75 bytes per key at 16). 16 keeps the
/// per-lookup decode short enough for the counting-sweep hot path.
const KEYS_PER_BLOCK: usize = 16;

/// An immutable, compressed store of strictly ascending `u64` keys with
/// random access by rank and rank lookup by key.
///
/// Layout: keys are split into blocks of `KEYS_PER_BLOCK` (16); a block's
/// first key lives in the directory only, and the blob holds the block's
/// following keys as one LEB128 run of `u64` deltas. The directory holds
/// every block's first key (`samples`) and byte offset (`block_offsets`),
/// so both directions cost one binary search over the directory plus one
/// block decode:
///
/// * [`Self::get`] — rank → key;
/// * [`Self::rank_of`] — key → rank (exact match only).
///
/// On the paper-shaped trace at 50k users this stores about 3.4 bytes per
/// key, directory included, against the 8 bytes of a plain `Vec<u64>`.
#[derive(Debug, Clone, Default)]
pub struct SortedKeyStore {
    /// Every `ROOT_FANOUT`-th sample: a small, cache-resident first search
    /// level that narrows the sample binary search to one fan-out window.
    root: Vec<u64>,
    samples: Vec<u64>,
    block_offsets: Vec<u32>,
    blob: Vec<u8>,
    len: usize,
}

/// Samples per root directory entry.
const ROOT_FANOUT: usize = 64;

impl SortedKeyStore {
    /// Builds the store from strictly ascending keys.
    ///
    /// # Panics
    /// Panics (debug) if the input is not strictly ascending.
    pub fn from_sorted(keys: &[u64]) -> Self {
        let mut samples = Vec::with_capacity(keys.len().div_ceil(KEYS_PER_BLOCK));
        let mut block_offsets = Vec::with_capacity(samples.capacity());
        let mut blob = Vec::new();
        for block in keys.chunks(KEYS_PER_BLOCK) {
            samples.push(block[0]);
            block_offsets.push(u32::try_from(blob.len()).expect("key blob exceeds 4 GiB"));
            for pair in block.windows(2) {
                debug_assert!(pair[0] < pair[1], "keys must be strictly ascending");
                write_varint(pair[1] - pair[0], &mut blob);
            }
        }
        let root = samples.iter().step_by(ROOT_FANOUT).copied().collect();
        Self {
            root,
            samples,
            block_offsets,
            blob,
            len: keys.len(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blob from the start of `block`'s delta run; the run holds
    /// `block_len(block) - 1` varints.
    fn block_bytes(&self, block: usize) -> &[u8] {
        &self.blob[self.block_offsets[block] as usize..]
    }

    fn block_len(&self, block: usize) -> usize {
        let start = block * KEYS_PER_BLOCK;
        (self.len - start).min(KEYS_PER_BLOCK)
    }

    /// The key at `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= len()`.
    pub fn get(&self, rank: usize) -> u64 {
        assert!(rank < self.len, "key rank {rank} out of bounds");
        let block = rank / KEYS_PER_BLOCK;
        let bytes = self.block_bytes(block);
        let mut pos = 0usize;
        (0..rank % KEYS_PER_BLOCK)
            .fold(self.samples[block], |k, _| k + read_varint(bytes, &mut pos))
    }

    /// The rank of `key`, or `None` if absent.
    pub fn rank_of(&self, key: u64) -> Option<usize> {
        // Two-level search: the root directory stays cache-resident and
        // narrows the sample binary search to one ROOT_FANOUT window.
        let window = self.root.partition_point(|&s| s <= key).checked_sub(1)?;
        let lo = window * ROOT_FANOUT;
        let hi = (lo + ROOT_FANOUT).min(self.samples.len());
        let block = lo + self.samples[lo..hi].partition_point(|&s| s <= key) - 1;
        let mut k = self.samples[block];
        if k == key {
            return Some(block * KEYS_PER_BLOCK);
        }
        let bytes = self.block_bytes(block);
        let mut pos = 0usize;
        for i in 1..self.block_len(block) {
            k += read_varint(bytes, &mut pos);
            if k >= key {
                return (k == key).then_some(block * KEYS_PER_BLOCK + i);
            }
        }
        None
    }

    /// Iterates over all keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples
            .iter()
            .enumerate()
            .flat_map(move |(block, &first)| {
                let bytes = self.block_bytes(block);
                let mut pos = 0usize;
                let rest = (1..self.block_len(block)).scan(first, move |k, _| {
                    *k += read_varint(bytes, &mut pos);
                    Some(*k)
                });
                std::iter::once(first).chain(rest)
            })
    }

    /// Resident heap bytes of the store.
    pub fn heap_bytes(&self) -> usize {
        (self.root.len() + self.samples.len()) * std::mem::size_of::<u64>()
            + self.block_offsets.len() * std::mem::size_of::<u32>()
            + self.blob.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `values` as a posting run and decodes it back through the
    /// padded kernel, with garbage in the mandatory slack.
    fn round_trip(values: &[u32]) -> Vec<u32> {
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(values, &mut buf);
        let run_len = buf.len();
        buf.resize(run_len + GROUP_DECODE_SLACK, 0xA5);
        let mut decoded = Vec::new();
        for_each_sorted_u32_grouped_padded(&buf, run_len, |v| decoded.push(v));
        decoded
    }

    /// The ascending run `first, first + d0, first + d0 + d1, …`.
    fn prefix_sums(first: u32, deltas: &[u32]) -> Vec<u32> {
        let rest = deltas.iter().scan(first, |acc, &d| {
            *acc += d;
            Some(*acc)
        });
        std::iter::once(first).chain(rest).collect()
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(varint_len(v), buf.len(), "value {v}");
        }
    }

    #[test]
    fn delta_run_round_trips() {
        let values: Vec<u32> = vec![0, 1, 5, 100, 101, 70_000, 4_000_000_000];
        assert_eq!(round_trip(&values), values);
    }

    #[test]
    fn empty_delta_run_is_empty() {
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(&[], &mut buf);
        assert!(buf.is_empty());
        assert!(round_trip(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "readable bytes past the run")]
    fn padded_decode_rejects_a_slice_without_slack() {
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(&[1, 2, 3, 4, 5], &mut buf);
        let run_len = buf.len();
        buf.resize(run_len + GROUP_DECODE_SLACK - 1, 0);
        for_each_sorted_u32_grouped_padded(&buf, run_len, |_| {});
    }

    #[test]
    fn key_store_round_trips_across_blocks() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * i + 7).collect();
        let store = SortedKeyStore::from_sorted(&keys);
        assert_eq!(store.len(), keys.len());
        for (rank, &key) in keys.iter().enumerate() {
            assert_eq!(store.get(rank), key, "rank {rank}");
            assert_eq!(store.rank_of(key), Some(rank), "key {key}");
        }
        let all: Vec<u64> = store.iter().collect();
        assert_eq!(all, keys);
    }

    #[test]
    fn key_store_rejects_absent_keys() {
        let store = SortedKeyStore::from_sorted(&[10, 20, 30]);
        assert_eq!(store.rank_of(9), None);
        assert_eq!(store.rank_of(15), None);
        assert_eq!(store.rank_of(31), None);
        assert_eq!(store.rank_of(u64::MAX), None);
    }

    #[test]
    fn empty_key_store_is_sane() {
        let store = SortedKeyStore::from_sorted(&[]);
        assert!(store.is_empty());
        assert_eq!(store.rank_of(0), None);
        assert_eq!(store.iter().count(), 0);
        assert_eq!(store.heap_bytes(), 0);
    }

    #[test]
    fn key_store_compresses_dense_keys() {
        // Densely packed keys: ~1 byte per delta plus the directory, far
        // below the 8 bytes per key of a plain vector.
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
        let store = SortedKeyStore::from_sorted(&keys);
        assert!(
            store.heap_bytes() < keys.len() * 8 / 3,
            "expected < 1/3 of the plain layout, got {} of {}",
            store.heap_bytes(),
            keys.len() * 8
        );
    }

    #[test]
    fn key_store_handles_sparse_jumps() {
        let keys = vec![0, 1, u32::MAX as u64, 1 << 40, u64::MAX - 1, u64::MAX];
        let store = SortedKeyStore::from_sorted(&keys);
        for (rank, &key) in keys.iter().enumerate() {
            assert_eq!(store.get(rank), key);
            assert_eq!(store.rank_of(key), Some(rank));
        }
    }

    #[test]
    fn group_value_len_matches_byte_width() {
        assert_eq!(group_value_len(0), 1);
        assert_eq!(group_value_len(0xFF), 1);
        assert_eq!(group_value_len(0x100), 2);
        assert_eq!(group_value_len(0xFFFF), 2);
        assert_eq!(group_value_len(0x1_0000), 3);
        assert_eq!(group_value_len(0xFF_FFFF), 3);
        assert_eq!(group_value_len(0x100_0000), 4);
        assert_eq!(group_value_len(u32::MAX), 4);
    }

    #[test]
    fn group_round_trips_adversarial_values() {
        let cases: Vec<Vec<u32>> = vec![
            // All-one-byte groups: two full, then trailing groups of 1–3.
            prefix_sums(0, &[1; 9]),
            prefix_sums(7, &[255; 10]),
            prefix_sums(0, &[1; 11]),
            // Every width class in every lane of a group.
            prefix_sums(0, &[1, 0x100, 0x1_0000, 0x100_0000, 0x100_0000, 1, 0x100]),
            prefix_sums(0, &[0x100_0000; 7]),
            // One delta spanning the whole u32 range.
            vec![0, u32::MAX],
            prefix_sums(
                3,
                &(1..100u32)
                    .map(|i| i.wrapping_mul(2_654_435_761) % 0x3F_FFFF + 1)
                    .collect::<Vec<_>>(),
            ),
        ];
        for values in cases {
            assert_eq!(round_trip(&values), values, "values {values:?}");
        }
    }

    #[test]
    fn decode_group_covers_fast_and_tail_paths() {
        // Deltas: a full 4-byte group (the table-driven full-group path),
        // a full all-one-byte group, then a trailing one-byte group of 2
        // and, in the second run, a trailing table-driven group of 3.
        let full = [0x100_0000, 0x100_0000, 0x100_0000, 0x100_0000];
        let mut deltas = full.to_vec();
        deltas.extend([1, 2, 3, 4, 5, 6]);
        let values = prefix_sums(9, &deltas);
        let mut buf = Vec::new();
        encode_sorted_u32s_grouped(&values, &mut buf);
        assert_eq!(buf.len(), 1 + (1 + 16) + (1 + 4) + (1 + 2));
        assert_eq!(round_trip(&values), values);

        let values = prefix_sums(9, &[1, 2, 3, 4, 0x100, 0x1_0000, 0x100_0000]);
        assert_eq!(round_trip(&values), values);
    }

    #[test]
    fn grouped_sorted_run_round_trips() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![42],
            vec![0, 1, 5, 100, 101, 70_000, 4_000_000_000],
            (0..97u32).map(|i| i * i).collect(),
            vec![0, u32::MAX],
        ];
        for values in cases {
            assert_eq!(round_trip(&values), values, "values {values:?}");
        }
    }

    #[test]
    fn grouped_singleton_run_matches_leb128_size() {
        // The posting-run format exists to keep singleton runs free of
        // control-byte overhead: one value must cost exactly its LEB128
        // width, same as the old format.
        for v in [0u32, 127, 128, 300_000, u32::MAX] {
            let mut grouped = Vec::new();
            encode_sorted_u32s_grouped(&[v], &mut grouped);
            assert_eq!(grouped.len(), varint_len(u64::from(v)), "value {v}");
        }
    }
}
