//! Variable-length integer and delta-stream codecs — the byte-level
//! substrate of the compressed columnar storage layer.
//!
//! Three users share these primitives:
//!
//! * the [`crate::dict::ActionDictionary`] stores its sorted distinct
//!   `(item, tag)` keys as a [`SortedKeyStore`] (delta blocks with a
//!   skip-sample directory, ~2–3 bytes per key instead of 8);
//! * the similarity engine's `ActionIndex` stores each posting list as a
//!   compressed run of ascending user ids ([`encode_sorted_u32s_grouped`] /
//!   [`decode_sorted_u32s_grouped`], with [`decode_group`] driving the
//!   hot-path decode), ~1–3 bytes per posting instead of 4;
//! * [`crate::profile::PackedProfile`] stores a whole profile as one
//!   delta-varint key stream.
//!
//! ## Storage formats: group-varint on the hot paths, LEB128 elsewhere
//!
//! Two wire formats coexist, chosen per stream by decode cost:
//!
//! **Group-varint** (the hot-path format). Values are packed four to a
//! *group*: one control byte whose four 2-bit fields give each value's byte
//! length (1–4, little-endian payload bytes), followed by exactly those
//! payload bytes. The decoder reads one control byte, looks the four
//! lengths up in a 256-entry table ([`decode_group`]) and assembles four
//! values with no per-byte continuation branches — the branch misprediction
//! per encoded byte that makes LEB128 slow to decode is amortized to one
//! dispatch per four values. A trailing group simply runs out of payload
//! bytes: the encoder writes only the bytes of the values present, so the
//! decoder stops when the stream ends (no count prefix needed). Group
//! streams are decoded by [`decode_group`] (the unrolled kernel, with a
//! bounds-check-free inner loop once at least [`MAX_GROUP_PAYLOAD`] bytes
//! remain) or the buffered [`GroupReader`] iterator.
//!
//! **LEB128** (the standard varint: 7 payload bits per byte, high bit =
//! continuation) remains where decode is not hot or values exceed 32 bits:
//! byte-length prefixes in front of posting runs, the *first* value of a
//! sorted run (see below), [`SortedKeyStore`] blocks whose `u64` deltas
//! overflow `u32` (rare multi-item jumps), [`crate::profile::PackedProfile`]
//! streams (tiny per-action deltas where LEB128 is the denser form), and
//! every trace/transport stream.
//!
//! Delta streams store the first value verbatim and every subsequent value
//! as the difference to its predecessor, which for *strictly ascending*
//! inputs keeps most deltas in one or two bytes. A grouped sorted run
//! ([`encode_sorted_u32s_grouped`]) writes the first value as LEB128 and
//! only the deltas as group-varint: the very common singleton posting then
//! carries zero control-byte overhead and the group format only pays its
//! quarter-byte-per-value dispatch cost where it also buys decode speed.

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

/// Encodes a strictly ascending `u32` run as first-value + deltas, appending
/// to `out`. The caller is responsible for remembering the run length.
pub fn encode_sorted_u32s(values: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let v = u64::from(v);
        if i == 0 {
            write_varint(v, out);
        } else {
            debug_assert!(v > prev, "delta runs need strictly ascending input");
            write_varint(v - prev, out);
        }
        prev = v;
    }
}

/// Streaming varint reader over a byte slice. Walks the slice with an
/// iterator (no per-byte bounds checks in release builds), which is what
/// keeps the decode loops on the counting-sweep hot path cheap.
#[derive(Debug, Clone)]
pub struct VarintReader<'a> {
    iter: std::slice::Iter<'a, u8>,
}

impl<'a> VarintReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { iter: bytes.iter() }
    }

    /// Reads the next varint, or `None` at end of input.
    #[inline]
    pub fn next_varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self.iter.next()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return Some(value);
            }
            shift += 7;
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.iter.len()
    }

    /// Skips `n` raw bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.iter = self.iter.as_slice()[n..].iter();
    }
}

/// Decodes a whole delta run written by [`encode_sorted_u32s`] back into
/// the ascending values it encoded, consuming `bytes` to the end — the
/// single shared decoder behind posting lists and packed runs.
pub fn decode_sorted_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let mut reader = VarintReader::new(bytes);
    let mut prev = 0u64;
    let mut first = true;
    std::iter::from_fn(move || {
        let raw = reader.next_varint()?;
        prev = if first { raw } else { prev + raw };
        first = false;
        Some(prev)
    })
}

/// Values per group-varint control byte.
pub const GROUP_SIZE: usize = 4;

/// Maximum payload bytes of one full group (four 4-byte values). Once this
/// many bytes remain, [`decode_group`] may take its bounds-check-free path.
pub(crate) const MAX_GROUP_PAYLOAD: usize = GROUP_SIZE * 4;

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

/// Appends `values` as group-varint to `out`: per chunk of [`GROUP_SIZE`]
/// values one control byte (four 2-bit little-endian length fields), then
/// each value's low bytes. A final partial chunk writes a full control byte
/// but only the present values' bytes — the decoder detects the end of the
/// run by payload exhaustion, so the caller only needs to remember the byte
/// length (or delimit the stream), never the value count.
pub fn encode_group_u32s(values: &[u32], out: &mut Vec<u8>) {
    for chunk in values.chunks(GROUP_SIZE) {
        let mut ctrl = 0u8;
        for (j, &v) in chunk.iter().enumerate() {
            ctrl |= ((group_value_len(v) - 1) as u8) << (2 * j);
        }
        out.push(ctrl);
        for &v in chunk {
            out.extend_from_slice(&v.to_le_bytes()[..group_value_len(v)]);
        }
    }
}

/// Decodes the next group of a [`encode_group_u32s`] run into `out`,
/// advancing `*pos`. Returns how many values were decoded: [`GROUP_SIZE`]
/// for a full group, less for the trailing partial group, `0` at end of
/// input. `bytes` must span exactly one encoded run (the end-of-run
/// condition is payload exhaustion).
///
/// This is the unrolled decode kernel of the counting-sweep hot paths: one
/// table lookup dispatches all four lengths, and once at least
/// [`MAX_GROUP_PAYLOAD`] bytes remain the per-value loads skip bounds
/// checks entirely (see `decode_full_group_unchecked`).
///
/// # Panics
/// Panics (via slice indexing) if the run is truncated mid-value.
#[inline]
pub fn decode_group(bytes: &[u8], pos: &mut usize, out: &mut [u32; GROUP_SIZE]) -> usize {
    let mut p = *pos;
    if p >= bytes.len() {
        return 0;
    }
    let ctrl = bytes[p];
    p += 1;
    let remaining = bytes.len() - p;
    if ctrl == 0 {
        // All-one-byte group — the dominant shape of dense posting runs
        // (small ascending deltas): the values *are* the payload bytes, no
        // dispatch table, no masking. `remaining` caps a trailing partial
        // group (payload exhaustion is the end-of-run condition).
        let n = remaining.min(GROUP_SIZE);
        for (slot, &byte) in out.iter_mut().zip(&bytes[p..p + n]) {
            *slot = u32::from(byte);
        }
        *pos = p + n;
        return n;
    }
    let entry = &GROUP_TABLE[ctrl as usize];
    if remaining >= MAX_GROUP_PAYLOAD {
        // At least one full group's worth of payload remains, so this group
        // is complete (a trailing partial group is followed by nothing and
        // carries at most MAX_GROUP_PAYLOAD - 1 bytes).
        decode_full_group_unchecked(bytes, p, entry, out);
        *pos = p + entry.total as usize;
        return GROUP_SIZE;
    }
    // Safe tail path: stage the trailing payload (at most
    // MAX_GROUP_PAYLOAD - 1 bytes) in a zero-filled pad sized so every
    // value decodes with the same masked 4-byte load as the unchecked
    // kernel — no data-dependent per-byte loop, and the only bounds checks
    // are against the pad's constant size.
    let mut pad = [0u8; MAX_GROUP_PAYLOAD + 3];
    pad[..remaining].copy_from_slice(&bytes[p..]);
    let mut n = 0usize;
    let mut off = 0usize;
    while n < GROUP_SIZE && off < remaining {
        let word = u32::from_le_bytes(pad[off..off + 4].try_into().expect("pad window is 4 bytes"));
        out[n] = word & entry.masks[n];
        off += entry.lens[n] as usize;
        n += 1;
    }
    *pos = p + off;
    n
}

/// Bounds-check-free unaligned little-endian 4-byte load — the single
/// `deny(unsafe_code)` exemption of this crate, shared by every unchecked
/// decode kernel. Callers must have established `p + 4 <= bytes.len()`.
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

/// The bounds-check-free inner loop of [`decode_group`]: four unaligned
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

/// Buffered iterator over one [`encode_group_u32s`] run: yields the raw
/// `u32` values one at a time (decoding a group per refill). The
/// convenience counterpart of [`decode_group`] for the non-hot paths.
#[derive(Debug, Clone)]
pub struct GroupReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    buf: [u32; GROUP_SIZE],
    buf_len: u8,
    buf_pos: u8,
}

impl<'a> GroupReader<'a> {
    /// Starts reading at the beginning of `bytes` (exactly one encoded run).
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            buf: [0; GROUP_SIZE],
            buf_len: 0,
            buf_pos: 0,
        }
    }
}

impl Iterator for GroupReader<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.buf_pos == self.buf_len {
            self.buf_len = decode_group(self.bytes, &mut self.pos, &mut self.buf) as u8;
            self.buf_pos = 0;
            if self.buf_len == 0 {
                return None;
            }
        }
        let v = self.buf[self.buf_pos as usize];
        self.buf_pos += 1;
        Some(v)
    }
}

/// One [`SortedKeyStore`] block's delta stream, dispatched on its flag byte:
/// the grouped hot-path decoder or the full-width LEB128 fallback.
enum BlockDeltas<'a> {
    Grouped(GroupReader<'a>),
    Leb(VarintReader<'a>),
}

impl Iterator for BlockDeltas<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match self {
            BlockDeltas::Grouped(r) => r.next().map(u64::from),
            BlockDeltas::Leb(r) => r.next_varint(),
        }
    }
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
/// checks: unlike driving [`decode_group`] in a caller-side loop, the
/// fused form pays no terminal probe call, no safe-tail staging, unrolls
/// the full-group bodies to exactly [`GROUP_SIZE`] callback invocations,
/// and walks all-one-byte groups (the dominant shape of dense posting
/// runs) directly over the payload bytes.
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

/// Decodes a whole run written by [`encode_sorted_u32s_grouped`] back into
/// its ascending values, consuming `bytes` to the end.
pub fn decode_sorted_u32s_grouped(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let mut pos = 0usize;
    let mut prev = 0u32;
    let mut first = true;
    let mut buf = [0u32; GROUP_SIZE];
    let mut buf_len = 0usize;
    let mut buf_pos = 0usize;
    std::iter::from_fn(move || {
        if first {
            if bytes.is_empty() {
                return None;
            }
            first = false;
            prev = read_varint(bytes, &mut pos) as u32;
            return Some(prev);
        }
        if buf_pos == buf_len {
            buf_len = decode_group(bytes, &mut pos, &mut buf);
            buf_pos = 0;
            if buf_len == 0 {
                return None;
            }
        }
        prev += buf[buf_pos];
        buf_pos += 1;
        Some(prev)
    })
}

/// How many keys one skip block of a [`SortedKeyStore`] covers. Lookups
/// binary-search the per-block sample directory and then decode at most one
/// block, so the constant trades lookup cost against directory size
/// (8 + 4 bytes per block, i.e. 0.75 bytes per key at 16). 16 keeps the
/// per-lookup decode short enough for the counting-sweep hot path.
pub(crate) const KEYS_PER_BLOCK: usize = 16;

/// Per-block codec flag: the block's deltas all fit `u32` and are stored as
/// one group-varint run (the common case — within one item and across
/// single-item boundaries the `u64` key delta stays below `2^32`).
const BLOCK_GROUPED: u8 = 0;
/// Per-block codec flag: at least one delta exceeds `u32` (a multi-item
/// jump), so the block keeps the full-width LEB128 delta run.
const BLOCK_LEB128: u8 = 1;

/// An immutable, compressed store of strictly ascending `u64` keys with
/// random access by rank and rank lookup by key.
///
/// Layout: keys are split into blocks of [`KEYS_PER_BLOCK`]; each block is
/// one flag byte ([`BLOCK_GROUPED`] / [`BLOCK_LEB128`]) followed by its
/// delta run — group-varint whenever every delta fits `u32` (the hot-path
/// decode), LEB128 for the rare blocks with wider jumps. A directory holds
/// every block's first key (`samples`) and byte offset (`block_offsets`),
/// so both directions cost one binary search over the directory plus one
/// block decode:
///
/// * [`Self::get`] — rank → key;
/// * [`Self::rank_of`] — key → rank (exact match only).
///
/// For ~6M distinct action keys of a 100k-user trace this stores ~2.3 bytes
/// per key against the 8 bytes of a plain `Vec<u64>`.
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
        let mut deltas: Vec<u64> = Vec::with_capacity(KEYS_PER_BLOCK - 1);
        for block in keys.chunks(KEYS_PER_BLOCK) {
            // The block's first key lives only in the sample directory —
            // the blob holds just the following deltas, seeded from it.
            samples.push(block[0]);
            block_offsets.push(u32::try_from(blob.len()).expect("key blob exceeds 4 GiB"));
            deltas.clear();
            let mut prev = block[0];
            for &k in &block[1..] {
                debug_assert!(k > prev, "SortedKeyStore needs strictly ascending keys");
                deltas.push(k - prev);
                prev = k;
            }
            if deltas.iter().all(|&d| d <= u64::from(u32::MAX)) {
                blob.push(BLOCK_GROUPED);
                let mut chunk = [0u32; GROUP_SIZE];
                for group in deltas.chunks(GROUP_SIZE) {
                    for (j, &d) in group.iter().enumerate() {
                        chunk[j] = d as u32;
                    }
                    encode_group_u32s(&chunk[..group.len()], &mut blob);
                }
            } else {
                blob.push(BLOCK_LEB128);
                for &d in &deltas {
                    write_varint(d, &mut blob);
                }
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

    fn block_bytes(&self, block: usize) -> &[u8] {
        let start = self.block_offsets[block] as usize;
        let end = self
            .block_offsets
            .get(block + 1)
            .map_or(self.blob.len(), |&o| o as usize);
        &self.blob[start..end]
    }

    /// The flag-dispatched delta stream of one block (the flag byte chooses
    /// the grouped hot-path decoder or the LEB128 fallback).
    fn block_deltas(&self, block: usize) -> BlockDeltas<'_> {
        let bytes = self.block_bytes(block);
        match bytes[0] {
            BLOCK_GROUPED => BlockDeltas::Grouped(GroupReader::new(&bytes[1..])),
            _ => BlockDeltas::Leb(VarintReader::new(&bytes[1..])),
        }
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
        let mut k = self.samples[block];
        let mut deltas = self.block_deltas(block);
        for _ in 0..rank % KEYS_PER_BLOCK {
            k += deltas.next().expect("rank is inside the block");
        }
        k
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
        let mut deltas = self.block_deltas(block);
        for i in 1..self.block_len(block) {
            k += deltas.next()?;
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
                let mut deltas = self.block_deltas(block);
                let rest = (1..self.block_len(block)).scan(first, move |k, _| {
                    *k += deltas.next()?;
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
        let mut buf = Vec::new();
        encode_sorted_u32s(&values, &mut buf);
        let decoded: Vec<u64> = decode_sorted_u64s(&buf).collect();
        assert_eq!(
            decoded,
            values.iter().map(|&v| u64::from(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_delta_run_is_empty() {
        assert_eq!(decode_sorted_u64s(&[]).count(), 0);
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
            vec![],
            vec![0],
            vec![0, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![u32::MAX; 7],
            vec![1, 0x100, 0x1_0000, 0x100_0000, u32::MAX, 0, 42],
            (0..100u32).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
        ];
        for values in cases {
            let mut buf = Vec::new();
            encode_group_u32s(&values, &mut buf);
            let decoded: Vec<u32> = GroupReader::new(&buf).collect();
            assert_eq!(decoded, values, "values {values:?}");
        }
    }

    #[test]
    fn decode_group_covers_fast_and_tail_paths() {
        // 5 values: the first group of 4 has >= MAX_GROUP_PAYLOAD bytes of
        // payload after it (the unchecked fast path); the trailing single
        // value takes the byte-at-a-time tail path.
        let values = [u32::MAX, u32::MAX, u32::MAX, u32::MAX, 7u32];
        let mut buf = Vec::new();
        encode_group_u32s(&values, &mut buf);
        let mut pos = 0;
        let mut out = [0u32; GROUP_SIZE];
        assert_eq!(decode_group(&buf, &mut pos, &mut out), GROUP_SIZE);
        assert_eq!(out, [u32::MAX; 4]);
        assert_eq!(decode_group(&buf, &mut pos, &mut out), 1);
        assert_eq!(out[0], 7);
        assert_eq!(decode_group(&buf, &mut pos, &mut out), 0);
        assert_eq!(pos, buf.len());
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
            let mut buf = Vec::new();
            encode_sorted_u32s_grouped(&values, &mut buf);
            let decoded: Vec<u32> = decode_sorted_u32s_grouped(&buf).collect();
            assert_eq!(decoded, values, "values {values:?}");
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
