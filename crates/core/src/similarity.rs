//! The similarity engine: counting-based, dictionary-keyed computation of
//! the paper's profile-similarity score at population scale — with
//! incremental maintenance under profile dynamics and delta-varint
//! compressed storage.
//!
//! `Score_{u}(v) = |Profile(u) ∩ Profile(v)|` is evaluated everywhere in the
//! P3Q evaluation: once per candidate pair when building the ideal personal
//! networks (Section 3.2.1) and once per offer on every gossip exchange.
//! The naive route — a linear merge of the two sorted profiles per pair —
//! costs `O(|P_u| + |P_v|)` even when the intersection is empty, which is
//! what capped trace sizes before this module existed.
//!
//! [`ActionIndex`] inverts the dataset once: for every distinct tagging
//! action it stores the posting list of users whose profile contains it.
//! Scoring one user against *everyone* then becomes a counting sweep: walk
//! her actions, and for each action bump a dense per-user accumulator for
//! every other user on that posting list. The total work is proportional to
//! the number of *actually shared* actions — the intersection mass —
//! instead of the sum of profile lengths over all candidate pairs.
//!
//! ## Storage model: interned keys, compressed postings
//!
//! Since the columnar-storage refactor the index is keyed by the **interned
//! action dictionary** ([`p3q_trace::ActionDictionary`]): every distinct
//! `(item, tag)` action is a dense [`p3q_trace::ActionId`] (`u32`), assigned
//! in key order at build time, so
//!
//! * the key column is the dictionary itself — LEB128 delta blocks, about
//!   3.4 bytes per key with its directory at 50k users, instead of the
//!   8-byte packed `u64`s of the first index generation;
//! * posting lookup is *positional*: an action id maps straight to its slot
//!   in an id-range shard, no per-action key search;
//! * each posting list is stored as a **group-varint run** of ascending
//!   user ids (`[byte-length][first id: LEB128][deltas: group-varint]`,
//!   four deltas per control byte — see `p3q_trace::codec`), ~1–3 bytes
//!   per posting instead of 4, decoded four at a time by the one padded
//!   kernel, `p3q_trace::codec::for_each_sorted_u32_grouped_padded`;
//! * random access goes through a two-level **group offset directory**:
//!   one absolute `u32` anchor every `GROUPS_PER_ANCHOR` groups (= 64
//!   posting slots) plus a `u16` anchor-relative delta per group —
//!   ~0.31 bytes per key against the 0.5 of the previous absolute-`u32`
//!   directory, with a per-shard wide fallback for blobs whose 64-slot
//!   windows outgrow `u16`.
//!
//! [`ActionIndex::memory`] reports the resident bytes of this layout next
//! to what the uncompressed CSR equivalent would take; the benchmark
//! harness (`bench_similarity`) tracks both.
//!
//! ## Sharding and the delta-apply cost model
//!
//! The id space is split into contiguous **shards** (about
//! `TARGET_KEYS_PER_SHARD` ids each). Profile dynamics (Section 3.4.1:
//! users keep tagging) no longer force a rebuild, and a write costs the
//! batch, not the index. Every write goes through one streaming patcher
//! per touched shard: it decodes, rewrites and re-encodes **only the
//! touched posting lists**, copies the byte spans between them verbatim
//! out of the old blob, and shifts the group directory by the bytes each
//! rewritten list gained or lost — the result is byte for byte what
//! encoding the patched lists from scratch would produce, and no list the
//! batch does not name is ever decoded.
//!
//! * [`ActionIndex::apply_deltas`] interns any genuinely new actions into
//!   the dictionary tail, sorts the batch's `(id, user)` pairs and patches
//!   each shard that holds one. A batch of `D` new actions costs
//!   `O(D log D + Σ |touched posting| + memcpy(touched shard bytes))`; a
//!   paper-day batch (≈ 15 % of the users, ≈ 8 actions each) lands in
//!   every shard, so the last term is one copy of the blob column —
//!   untouched shards are never read.
//! * [`ActionIndex::remove_user`] handles churn (departures) through the
//!   same patcher: only the departed profile's own posting lists are
//!   rewritten, and the **dirty set** (everyone who shared an action with
//!   the departed user) comes back to be evicted by
//!   [`crate::resolver::OnDemandNetworks::apply_departures`].
//! * [`ActionIndex::apply_deltas`] goes further and returns a
//!   [`DeltaOutcome`]: the changing users plus the exact `(affected,
//!   changed)` pairs whose score grew. Because additions only *increase*
//!   scores, [`crate::resolver::OnDemandNetworks::apply_delta_outcome`]
//!   can patch a lightly affected user's network from a few pair merges
//!   and evict the changing users for a full counting sweep — provably
//!   matching a from-scratch
//!   [`crate::baseline::IdealNetworks::compute`]. Those pairs number the
//!   touched posting lengths times their gainers (≈ 1.1 M for a paper-day
//!   batch at 50k users), so emitting, sorting and deduplicating them is
//!   what a batch pays for beyond the patch when every user is wanted. A
//!   consumer that holds only a few users — the
//!   [`crate::resolver::OnDemandNetworks`] cache — names them to the
//!   crate-private `ActionIndex::apply_deltas_where`, and only their pairs
//!   are ever emitted; what is left of a batch is interning the delta
//!   actions, sorting them, and the shard patch.
//!
//! ## Bulk path and point path
//!
//! One counting loop (`ActionIndex::accumulate_ids`) scores an interned
//! profile against everyone, in two passes: resolve every id's posting
//! run, then decode the runs and count (see [`SimilarityScratch`]). The two
//! paths differ only in where the profile's action ids come from.
//!
//! * The **point path** ([`ActionIndex::accumulate`] /
//!   [`ActionIndex::top_similar`], and through them every resolution of
//!   [`crate::resolver::OnDemandNetworks`], `into_ideal` included) interns
//!   the profile through the dictionary: one key search per action, a few
//!   hundred nanoseconds each — about a third of a sweep.
//! * The **bulk path** ([`crate::baseline::IdealNetworks::compute`] and its
//!   `_with_*` forms) interns nothing. The index already *is* the
//!   `(id → users)` relation, so `ActionIndex::transpose_into` reads it
//!   the other way round: two sequential passes over the posting column
//!   (count, then fill) yield the ascending ids of every user of a
//!   contiguous range as one CSR — what the dictionary would have returned
//!   for each of them, dictionary-tail ids included.
//!
//! A transposition costs the whole posting column's decode whatever the
//! range (≈ 12 ns a posting slot, so tens of milliseconds at 50k users),
//! plus 4 bytes per action of the range while the block is alive. The bulk
//! compute therefore walks each worker's users in blocks of a fixed size:
//! large enough that the pass is a few per cent of the sweeps it feeds,
//! small enough that the transient ids stay in the megabytes. A dirty set
//! after a delta batch or a departure is sparse — its users are scattered
//! over the whole population, so every one of them would fall into a
//! different block — and cannot amortise a pass; it stays on the point
//! path.
//!
//! The per-user sweeps are embarrassingly parallel and fan out through
//! [`p3q_sim::parallel_map_chunks`]; output is identical for every
//! worker-thread count (set `P3Q_THREADS=1` to pin).
//!
//! ## On-demand resolution: one user, one sweep
//!
//! When only the users who actually issue queries matter, the point path is
//! the whole answer: [`ActionIndex::top_similar`] scores one user with one
//! counting sweep over her posting lists and ranks her network with the
//! same threshold selection as the bulk path, byte for byte what
//! [`crate::baseline::IdealNetworks::compute`] holds for her.
//! [`crate::resolver::OnDemandNetworks`] owns one [`SimilarityScratch`] for
//! its misses and adds per-user memoization with exact
//! [`DeltaOutcome`]-driven invalidation on top. The sweep reads every
//! posting of the profile — nothing stops it early: a counter bump costs a
//! few nanoseconds, while merging the postings in user order to prove an
//! early stop costs a heap operation per entry, and on paper-shaped
//! profiles the proof arrives too late to skip more than a handful.

use p3q_trace::codec::{
    encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded, read_varint, varint_len,
    write_varint, GROUP_DECODE_SLACK,
};
use p3q_trace::{ActionDictionary, Dataset, Profile, TaggingAction, UserId};

/// Distinct action ids a shard aims to hold when the shard count is derived
/// from the dataset size ([`ActionIndex::build`]).
const TARGET_KEYS_PER_SHARD: usize = 1024;

/// Upper bound on the number of shards, so shard routing stays cheap even
/// for very large traces.
const MAX_SHARDS: usize = 1024;

/// Posting slots per offset-directory group: random access decodes at most
/// this many byte-length prefixes before reaching its posting. 8 trades a
/// few extra varint reads per lookup against directory size.
const IDS_PER_GROUP: usize = 8;

/// Groups per directory anchor in the [`GroupDirectory::Compact`] layout:
/// one absolute `u32` anchor every 8 groups (= 64 posting slots), `u16`
/// anchor-relative deltas in between — 2.5 bytes per group (~0.31 per key)
/// against the 4 of an absolute-`u32`-per-group directory.
const GROUPS_PER_ANCHOR: usize = 8;

/// Per-key bound on `|affected members| × |gainers|` pair emission in
/// [`ActionIndex::apply_deltas`] (affected members = posting-list members
/// that are not themselves gainers of the key). A very popular gained
/// action would emit a quadratic number of `(member, gainer)` pairs;
/// beyond this bound its posting members go to [`DeltaOutcome::resweep`]
/// (full re-score) instead, which costs only the posting length. The
/// product counts every affected member before the consumer's interest
/// filter of `ActionIndex::apply_deltas_where` drops any, so whether a key
/// is capped — and so `resweep` — does not depend on who asks.
const PAIR_EMISSION_CAP: usize = 4096;

/// Buckets of [`ActionIndex::collect_top`]'s score histogram: one per score
/// below `SCORE_BUCKETS - 1`, the last one open above. Similarity scores of
/// a personal network's weakest member sit far below this on every trace
/// shape; beyond it the selection merely ranks more candidates.
const SCORE_BUCKETS: usize = 64;

/// Scratch space for one scoring sweep, reused from sweep to sweep.
///
/// The counting kernel (`ActionIndex::accumulate_ids`) runs in two passes
/// over these buffers:
///
/// * `runs` — pass 1 resolves each of the profile's action ids to its
///   posting run (shard, byte offset, run length). The lookups do not wait
///   on one another, so the directory walks overlap instead of each one
///   queuing behind the previous posting's decode.
/// * `counts` and `touched` — pass 2 decodes the runs and bumps a dense
///   per-user counter. Every entry writes its user to `touched[num_touched]`
///   and advances `num_touched` only on a counter's first touch, so the
///   first-touch test is arithmetic, not a branch. `touched` therefore has
///   one slot more than there are users, and its first `num_touched` slots
///   list the touched users in first-touch order; clearing costs
///   `O(touched)`.
///
/// Besides, `ids` holds the profile being scored (point path only — the
/// bulk path reads its ids from a `TransposedIds` block), and
/// `candidates` the packed keys [`ActionIndex::collect_top`] ranks.
#[derive(Debug, Clone)]
pub struct SimilarityScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
    num_touched: usize,
    runs: Vec<PostingRef>,
    ids: Vec<u32>,
    candidates: Vec<u64>,
}

/// Where pass 1 of the counting kernel found one posting run: the shard,
/// the byte offset of the run in that shard's blob, and its byte length.
#[derive(Debug, Clone, Copy)]
struct PostingRef {
    shard: u32,
    at: u32,
    len: u32,
}

impl SimilarityScratch {
    /// Creates scratch space for a population of `num_users`.
    pub fn new(num_users: usize) -> Self {
        Self {
            counts: vec![0; num_users],
            touched: vec![0; num_users + 1],
            num_touched: 0,
            runs: Vec::new(),
            ids: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The users the last sweep touched, in first-touch order.
    fn touched(&self) -> &[u32] {
        &self.touched[..self.num_touched]
    }

    /// Posting entries the last sweep read, its owner's own excluded: each
    /// of them bumped one counter by one, so the touched counters sum to it.
    pub(crate) fn entries_read(&self) -> usize {
        self.touched()
            .iter()
            .map(|&user| self.counts[user as usize] as usize)
            .sum()
    }
}

/// The exact effect of one delta batch on pairwise similarity scores,
/// returned by [`ActionIndex::apply_deltas`].
///
/// Additions can only increase scores, so this is a complete description of
/// what moved: a changing user's score may have grown against anyone, while
/// a non-changing user's score grew only against the partners listed for
/// her in `pairs` — which is what lets
/// [`crate::resolver::OnDemandNetworks::apply_delta_outcome`] patch most
/// networks from a few exact pair merges instead of full sweeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Users that genuinely gained at least one new action, sorted by id.
    pub changed: Vec<UserId>,
    /// `(affected, changed)` pairs whose similarity score increased, sorted
    /// and deduplicated. Pairs whose affected side is itself a changing
    /// user are omitted — changing users are fully re-swept anyway.
    pub pairs: Vec<(UserId, UserId)>,
    /// Users affected through a *very popular* gained action (posting list
    /// × gainers beyond `PAIR_EMISSION_CAP`), reported for full
    /// re-scoring instead of per-pair emission — this bounds the outcome's
    /// size by the touched posting mass rather than its square. Sorted and
    /// deduplicated.
    pub resweep: Vec<UserId>,
}

impl DeltaOutcome {
    /// Every user whose similarity score against someone changed (the
    /// changing users plus every affected partner), sorted by id. These are
    /// exactly the users whose ideal personal network may differ from
    /// before the batch.
    pub fn dirty_users(&self) -> Vec<UserId> {
        let mut dirty: Vec<UserId> = self
            .changed
            .iter()
            .copied()
            .chain(self.resweep.iter().copied())
            .chain(self.pairs.iter().map(|&(affected, _)| affected))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Returns `true` if the batch changed nothing (every delta action was
    /// already present).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

/// Resident-byte report of one [`ActionIndex`], split by column, next to
/// the uncompressed CSR layout the first index generation used (plain
/// `u64` keys, `u32` offsets, `u32` posting entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMemory {
    /// Bytes of the interned dictionary (compressed keys + dynamics tail).
    pub dictionary_bytes: usize,
    /// Bytes of the per-shard group offset directories.
    pub directory_bytes: usize,
    /// Bytes of the compressed posting blobs (length prefixes + delta runs).
    pub postings_bytes: usize,
    /// Total resident bytes of the index.
    pub total_bytes: usize,
    /// Bytes the same content would take in the uncompressed CSR layout:
    /// 8 per distinct key, 4 per key of offsets, 4 per posting entry.
    pub csr_equivalent_bytes: usize,
    /// Number of posting entries (total actions indexed).
    pub postings: usize,
    /// Number of distinct actions with a non-empty posting list.
    pub distinct_actions: usize,
}

/// The per-shard group offset directory: byte offset of posting slot
/// `g * IDS_PER_GROUP` for every group `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GroupDirectory {
    /// Anchored layout (the common case): `anchors[a]` is the absolute byte
    /// offset of group `a * GROUPS_PER_ANCHOR`, `deltas[g]` the `u16`
    /// offset of group `g` relative to its window's anchor. Fits whenever
    /// no [`GROUPS_PER_ANCHOR`]-group window spans more than `u16::MAX`
    /// blob bytes.
    Compact { anchors: Vec<u32>, deltas: Vec<u16> },
    /// Absolute `u32` per group, for the rare shard whose very popular
    /// postings overflow a `u16` window; keeps lookups O(1) either way.
    Wide(Vec<u32>),
}

impl Default for GroupDirectory {
    fn default() -> Self {
        GroupDirectory::Compact {
            anchors: Vec::new(),
            deltas: Vec::new(),
        }
    }
}

impl GroupDirectory {
    /// Compacts absolute per-group offsets, falling back to the wide layout
    /// when any anchor-relative delta overflows `u16`.
    fn from_offsets(offsets: Vec<u32>) -> Self {
        let mut anchors = Vec::with_capacity(offsets.len().div_ceil(GROUPS_PER_ANCHOR));
        let mut deltas = Vec::with_capacity(offsets.len());
        for (g, &off) in offsets.iter().enumerate() {
            if g % GROUPS_PER_ANCHOR == 0 {
                anchors.push(off);
            }
            let anchor = *anchors.last().expect("anchor pushed for window start");
            match u16::try_from(off - anchor) {
                Ok(d) => deltas.push(d),
                Err(_) => return GroupDirectory::Wide(offsets),
            }
        }
        GroupDirectory::Compact { anchors, deltas }
    }

    /// Absolute byte offset of group `group`.
    #[inline]
    fn offset(&self, group: usize) -> usize {
        match self {
            GroupDirectory::Compact { anchors, deltas } => {
                anchors[group / GROUPS_PER_ANCHOR] as usize + deltas[group] as usize
            }
            GroupDirectory::Wide(offsets) => offsets[group] as usize,
        }
    }

    /// Resident heap bytes of the directory.
    fn heap_bytes(&self) -> usize {
        match self {
            GroupDirectory::Compact { anchors, deltas } => {
                anchors.len() * std::mem::size_of::<u32>()
                    + deltas.len() * std::mem::size_of::<u16>()
            }
            GroupDirectory::Wide(offsets) => offsets.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// One id-range shard: a compressed posting block over the contiguous
/// action-id run `start_id .. start_id + num_ids`.
///
/// `blob` holds, per id in order, `[byte-length varint][first id: LEB128]
/// [deltas: group-varint]` (length 0 = empty posting); `directory` maps
/// group `g` to the byte offset of slot `g * IDS_PER_GROUP`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PostingShard {
    start_id: usize,
    num_ids: usize,
    directory: GroupDirectory,
    blob: Vec<u8>,
}

impl PostingShard {
    /// Builds a shard from its postings in slot order, each an ascending
    /// run of user ids (empty runs allowed), encoded one after the other
    /// straight into the blob.
    fn encode<'a>(start_id: usize, postings: impl ExactSizeIterator<Item = &'a [u32]>) -> Self {
        let num_ids = postings.len();
        let mut offsets = Vec::with_capacity(num_ids.div_ceil(IDS_PER_GROUP));
        let mut blob = Vec::new();
        let mut run = Vec::new();
        for (rel, posting) in postings.enumerate() {
            if rel % IDS_PER_GROUP == 0 {
                offsets.push(group_offset(blob.len()));
            }
            push_slot(posting, &mut run, &mut blob);
        }
        // Decode slack: the padded kernel, the only posting decoder, asserts
        // GROUP_DECODE_SLACK readable bytes past every run it decodes; these
        // trailing bytes give the last run its slack (every other run's
        // slack is the slots after it).
        blob.resize(blob.len() + GROUP_DECODE_SLACK, 0);
        Self {
            start_id,
            num_ids,
            directory: GroupDirectory::from_offsets(offsets),
            blob,
        }
    }

    /// The posting at relative slot `rel` as a padded run: the backing
    /// slice reaches to the end of the blob (whose trailing
    /// [`GROUP_DECODE_SLACK`] zero bytes guarantee the fused kernel's slack
    /// invariant for every run, including the last), plus the run's logical
    /// byte length. Walks at most `IDS_PER_GROUP - 1` length prefixes from
    /// the group start.
    fn posting_run(&self, rel: usize) -> (&[u8], usize) {
        debug_assert!(rel < self.num_ids);
        let mut pos = self.directory.offset(rel / IDS_PER_GROUP);
        for _ in 0..rel % IDS_PER_GROUP {
            let len = read_varint(&self.blob, &mut pos) as usize;
            pos += len;
        }
        let len = read_varint(&self.blob, &mut pos) as usize;
        (&self.blob[pos..], len)
    }

    /// Every posting slot in blob order, each as the padded run
    /// [`Self::posting_run`] would return for it: the sequential walk over
    /// `[len varint][run]`, one length prefix per slot and no directory.
    fn posting_runs(&self) -> impl Iterator<Item = (&[u8], usize)> + '_ {
        let mut pos = 0usize;
        (0..self.num_ids).map(move |_| {
            let len = read_varint(&self.blob, &mut pos) as usize;
            let run = &self.blob[pos..];
            pos += len;
            (run, len)
        })
    }

    /// Decodes the posting at relative slot `rel`.
    fn posting(&self, rel: usize) -> Vec<u32> {
        let (bytes, len) = self.posting_run(rel);
        let mut users = Vec::new();
        for_each_sorted_u32_grouped_padded(bytes, len, |user| users.push(user));
        users
    }

    /// The streaming patcher — the only write path into a built shard.
    ///
    /// `touched` is sorted by id (`id_of`), every id at or above `start_id`;
    /// each run of equal ids names one posting slot. `rewrite(run, old, new)`
    /// sees that slot's decoded posting and either fills `new` (ascending)
    /// and returns `true`, or returns `false` to leave the slot as it is.
    ///
    /// Only the touched postings are decoded and re-encoded. Everything
    /// between two rewritten slots — `[len varint][run]` of every slot in
    /// between — is one `extend_from_slice` from the old blob, and the new
    /// directory is the old one shifted by the bytes the rewritten slots
    /// before each group gained or lost. Ids past `num_ids` (dictionary-tail
    /// ids routed into the open-above last shard) grow the shard, the gap up
    /// to them filled with empty slots. The result is byte for byte what
    /// [`Self::encode`] builds from the patched lists; a patch in which no
    /// slot is rewritten and nothing grows leaves the shard untouched.
    fn patch<T>(
        &mut self,
        touched: &[T],
        id_of: impl Fn(&T) -> u32,
        mut rewrite: impl FnMut(&[T], &[u32], &mut Vec<u32>) -> bool,
    ) {
        let rel_of = |t: &T| id_of(t) as usize - self.start_id;
        let old_end = self.blob.len().saturating_sub(GROUP_DECODE_SLACK);
        let num_ids = self
            .num_ids
            .max(touched.last().map_or(0, |t| rel_of(t) + 1));
        let mut offsets = Vec::with_capacity(num_ids.div_ceil(IDS_PER_GROUP));
        let mut blob = Vec::with_capacity(self.blob.len() + 4 * touched.len());
        let (mut old, mut new, mut run) = (Vec::new(), Vec::new(), Vec::new());
        // `blob` always holds the patched form of `self.blob[..copied]`, so a
        // group that starts at an old offset `>= copied` keeps its distance
        // to `copied` from the end of `blob`.
        let mut copied = 0usize;
        let shifted = |group: usize, copied: usize, blob: &[u8]| {
            group_offset(self.directory.offset(group) - copied + blob.len())
        };
        let mut slots = touched.chunk_by(|a, b| id_of(a) == id_of(b)).peekable();

        while let Some(delta) = slots.next_if(|delta| rel_of(&delta[0]) < self.num_ids) {
            let rel = rel_of(&delta[0]);
            let (bytes, len) = self.posting_run(rel);
            old.clear();
            for_each_sorted_u32_grouped_padded(bytes, len, |user| old.push(user));
            new.clear();
            if !rewrite(delta, &old, &mut new) {
                continue;
            }
            let from = offsets.len();
            offsets.extend((from..=rel / IDS_PER_GROUP).map(|g| shifted(g, copied, &blob)));
            let run_start = self.blob.len() - bytes.len();
            blob.extend_from_slice(&self.blob[copied..run_start - varint_len(len as u64)]);
            push_slot(&new, &mut run, &mut blob);
            copied = run_start + len;
        }
        if copied == 0 && num_ids == self.num_ids {
            return;
        }
        let old_groups = self.num_ids.div_ceil(IDS_PER_GROUP);
        let from = offsets.len();
        offsets.extend((from..old_groups).map(|g| shifted(g, copied, &blob)));
        blob.extend_from_slice(&self.blob[copied..old_end]);

        // Growth of the open-above last shard: every slot from the old end
        // to the largest touched id is new, empty unless a delta names it.
        for rel in self.num_ids..num_ids {
            if rel % IDS_PER_GROUP == 0 {
                offsets.push(group_offset(blob.len()));
            }
            new.clear();
            if let Some(delta) = slots.next_if(|delta| rel_of(&delta[0]) == rel) {
                if !rewrite(delta, &[], &mut new) {
                    new.clear();
                }
            }
            push_slot(&new, &mut run, &mut blob);
        }
        blob.resize(blob.len() + GROUP_DECODE_SLACK, 0);
        self.num_ids = num_ids;
        self.directory = GroupDirectory::from_offsets(offsets);
        self.blob = blob;
    }
}

/// A directory entry for a group starting at blob byte `at`.
fn group_offset(at: usize) -> u32 {
    u32::try_from(at).expect("shard blob exceeds 4 GiB")
}

/// Appends one posting slot — `[byte-length varint][run]`, length 0 for an
/// empty posting — to `blob`, staging the run's bytes in `run`.
fn push_slot(posting: &[u32], run: &mut Vec<u8>, blob: &mut Vec<u8>) {
    run.clear();
    encode_sorted_u32s_grouped(posting, run);
    write_varint(run.len() as u64, blob);
    blob.extend_from_slice(run);
}

/// The action ids of a contiguous user range, read back off the index by
/// [`ActionIndex::transpose_into`]: one CSR over the range, user `rel`
/// (relative to the range start) owning `ids[offsets[rel]..offsets[rel + 1]]`
/// in ascending id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct TransposedIds {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl TransposedIds {
    /// The ascending action ids of the `rel`-th user of the transposed
    /// range — what [`ActionDictionary::ids_of_profile_into`] returns for
    /// her profile.
    pub(crate) fn of(&self, rel: usize) -> &[u32] {
        &self.ids[self.offsets[rel] as usize..self.offsets[rel + 1] as usize]
    }
}

/// A counting inverted index over every distinct tagging action of a
/// dataset: dictionary-keyed, sharded by id range, postings delta-varint
/// compressed (see the module docs for the storage model).
///
/// Building the index costs one counting pass keyed by item — `O(A + I)`
/// for `A` total actions over `I` item ids, plus a small sort inside each
/// item's bucket — and, while it runs, about 12 transient bytes per action,
/// 12 per distinct action and 4 per item id. After that, profile dynamics
/// are absorbed by [`Self::apply_deltas`] / [`Self::remove_user`] at the
/// cost of rewriting only the affected posting lists.
#[derive(Debug, Clone)]
pub struct ActionIndex {
    dict: ActionDictionary,
    shards: Vec<PostingShard>,
    /// Ids per shard, frozen at build time; the last shard absorbs ids
    /// interned later (dictionary tail).
    span: usize,
    num_users: usize,
    /// Number of ids with a non-empty posting list (removals leave empty
    /// slots behind, which a fresh build would not contain).
    live_keys: usize,
    /// Total posting entries, maintained across mutations so the memory
    /// report never has to decode the blobs.
    num_postings: usize,
}

impl ActionIndex {
    /// Builds the index over every profile of the dataset, interning the
    /// action dictionary and choosing the shard count from the number of
    /// distinct actions (about `TARGET_KEYS_PER_SHARD` ids per shard, at
    /// most `MAX_SHARDS`).
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_shards(dataset, 0)
    }

    /// [`Self::build`] with an explicit shard count (`0` derives it from the
    /// dataset size). Exposed for tests and tuning; the shard count changes
    /// only the incremental-update granularity, never any query result.
    pub fn build_with_shards(dataset: &Dataset, num_shards: usize) -> Self {
        // A counting pass keyed by item orders the actions: `ItemId`s are
        // dense, so one bucket per item id up to the largest one present
        // holds every action, and a prefix sum of the per-item counts
        // places the buckets. Each action is scattered into its item's
        // bucket as one packed `tag << 32 | user` word (8 transient bytes
        // an action).
        let total = u32::try_from(dataset.total_actions()).expect("posting count overflow");
        let items = dataset
            .iter()
            .filter_map(|(_, profile)| profile.actions().last())
            .map(|action| action.item.index() + 1)
            .max()
            .unwrap_or(0);
        let mut bucket_end = vec![0u32; items + 1];
        for (_, profile) in dataset.iter() {
            for action in profile.iter() {
                bucket_end[action.item.index() + 1] += 1;
            }
        }
        for item in 1..=items {
            bucket_end[item] += bucket_end[item - 1];
        }
        // `bucket_end[item]` starts as the bucket's start and is its fill
        // cursor, so it ends as the bucket's end.
        let mut packed = vec![0u64; total as usize];
        for (user, profile) in dataset.iter() {
            for action in profile.iter() {
                let at = &mut bucket_end[action.item.index()];
                packed[*at as usize] = u64::from(action.tag.0) << 32 | u64::from(user.0);
                *at += 1;
            }
        }

        // Users arrive in ascending order, so a small sort per bucket puts
        // it in (tag, user) order. Walking the buckets in item order then
        // yields the distinct keys ascending — they *are* the dictionary,
        // rank = id — and each (item, tag) run's users ascending: the run
        // is that id's posting, `users[run_start[id]..run_start[id + 1]]`
        // (4 more transient bytes an action, 12 a distinct key with its
        // run start). The walk also fixes the distinct count, and with it
        // the shard span, so each run is then encoded straight into its
        // shard's blob.
        let mut keys: Vec<u64> = Vec::new();
        let mut run_start: Vec<u32> = Vec::new();
        let mut users: Vec<u32> = Vec::with_capacity(total as usize);
        let mut start = 0usize;
        for (item, &end) in bucket_end[..items].iter().enumerate() {
            let bucket = &mut packed[start..end as usize];
            bucket.sort_unstable();
            for &entry in bucket.iter() {
                let key = (item as u64) << 32 | entry >> 32;
                if keys.last() != Some(&key) {
                    keys.push(key);
                    run_start.push(users.len() as u32);
                }
                users.push(entry as u32);
            }
            start = end as usize;
        }
        run_start.push(total);
        drop(packed);
        let dict = ActionDictionary::from_sorted_keys(&keys);
        let distinct = dict.len();

        let requested = if num_shards > 0 {
            num_shards
        } else {
            distinct
                .div_ceil(TARGET_KEYS_PER_SHARD)
                .clamp(1, MAX_SHARDS)
        };
        let span = distinct.div_ceil(requested).max(1);
        let shard_count = distinct.div_ceil(span).max(1);

        let shards = (0..shard_count)
            .map(|s| {
                let lo = (s * span).min(distinct);
                let hi = ((s + 1) * span).min(distinct);
                let runs = run_start[lo..=hi]
                    .windows(2)
                    .map(|run| &users[run[0] as usize..run[1] as usize]);
                PostingShard::encode(lo, runs)
            })
            .collect();
        Self {
            dict,
            shards,
            span,
            num_users: dataset.num_users(),
            live_keys: distinct,
            num_postings: total as usize,
        }
    }

    /// Number of users covered by the index.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of distinct tagging actions with a non-empty posting list —
    /// exactly what a fresh build over the current profiles would contain.
    pub fn distinct_actions(&self) -> usize {
        self.live_keys
    }

    /// Number of id-range shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The interned action dictionary backing the index.
    pub fn dictionary(&self) -> &ActionDictionary {
        &self.dict
    }

    /// The shard an action id routes to (the last shard is open above, so
    /// dictionary-tail ids always have a home).
    fn shard_of(&self, id: usize) -> usize {
        (id / self.span).min(self.shards.len() - 1)
    }

    /// The users whose profile contains `action`, in ascending order.
    pub fn taggers_of(&self, action: &TaggingAction) -> Vec<u32> {
        let Some(id) = self.dict.id_of(action) else {
            return Vec::new();
        };
        let shard = &self.shards[self.shard_of(id.index())];
        let rel = id.index() - shard.start_id;
        if rel >= shard.num_ids {
            return Vec::new();
        }
        shard.posting(rel)
    }

    /// Patches the index with a batch of profile additions: for every
    /// `(user, new_actions)` pair the user is inserted into the posting
    /// lists of her new actions (genuinely new actions are interned into
    /// the dictionary tail first). Actions the user already has in the
    /// index are skipped (set semantics, matching [`Profile::extend`]), so
    /// the deltas may safely repeat existing actions.
    ///
    /// Only the posting lists that gain a tagger are decoded and
    /// re-encoded; the rest of a touched shard is copied byte for byte
    /// (see `PostingShard::patch`) and untouched shards are never read,
    /// so the batch costs `O(D log D + Σ |touched posting| +
    /// memcpy(touched shard bytes) + P log P)` for `D` delta actions and
    /// `P` emitted `(affected, changed)` pairs — and `P`, the old posting
    /// lengths times their gainers, is what a paper-day batch is largest
    /// in (≈ 1.1 M pairs at 50k users).
    ///
    /// Returns a [`DeltaOutcome`] describing exactly which pairwise scores
    /// changed: the changing users themselves (every one of their scores
    /// may have moved) and, for everyone else, the `(affected, changed)`
    /// pairs whose overlap grew. Since additions can only *increase*
    /// scores, that is all the information needed to update the ideal
    /// networks exactly — see
    /// [`crate::resolver::OnDemandNetworks::apply_delta_outcome`].
    ///
    /// # Panics
    /// Panics if a delta names a user outside the indexed population.
    pub fn apply_deltas<'a, I>(&mut self, deltas: I) -> DeltaOutcome
    where
        I: IntoIterator<Item = (UserId, &'a [TaggingAction])>,
    {
        self.apply_deltas_where(deltas, |_| true)
    }

    /// [`Self::apply_deltas`] for a consumer that acts only on some users:
    /// a pair is emitted only if `interested(affected)` holds, so `P` above
    /// shrinks to the pairs the consumer keeps before any is sorted. The
    /// index is patched exactly as by [`Self::apply_deltas`], and `changed`
    /// and `resweep` do not depend on `interested` (the
    /// [`PAIR_EMISSION_CAP`] test counts the whole old posting).
    pub(crate) fn apply_deltas_where<'a, I>(
        &mut self,
        deltas: I,
        interested: impl Fn(u32) -> bool,
    ) -> DeltaOutcome
    where
        I: IntoIterator<Item = (UserId, &'a [TaggingAction])>,
    {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (user, actions) in deltas {
            assert!(
                user.index() < self.num_users,
                "delta for unknown user {user}"
            );
            for action in actions {
                let id = self.dict.intern(action);
                pairs.push((id.0, user.0));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            return DeltaOutcome::default();
        }

        let mut changed: Vec<u32> = Vec::new();
        let mut score_pairs: Vec<(u32, u32)> = Vec::new();
        let mut resweep: Vec<u32> = Vec::new();
        let mut start = 0usize;
        while start < pairs.len() {
            let sidx = self.shard_of(pairs[start].0 as usize);
            let last = sidx == self.shards.len() - 1;
            let shard = &mut self.shards[sidx];
            // The last shard is open above: freshly interned tail ids route
            // into it and the patch grows it with empty slots as it goes.
            let shard_end = if last {
                usize::MAX
            } else {
                shard.start_id + shard.num_ids
            };
            let end = start + pairs[start..].partition_point(|&(id, _)| (id as usize) < shard_end);
            debug_assert!(end > start, "every delta id routes into its shard");
            let entries_before = changed.len();
            let gained = merge_into_shard(
                shard,
                &pairs[start..end],
                &interested,
                &mut changed,
                &mut score_pairs,
                &mut resweep,
            );
            self.live_keys += gained;
            // Every gainer reported by the merge is exactly one new posting
            // entry (duplicate delta actions never reach `changed`).
            self.num_postings += changed.len() - entries_before;
            start = end;
        }
        changed.sort_unstable();
        changed.dedup();
        // The per-key emission already skips members that gained the same
        // key; drop the pairs whose affected side changed via *another* key
        // too — changing users are fully re-swept downstream regardless. A
        // dense flag per user makes this one load per pair (a paper-day
        // batch emits over a million of them to a consumer interested in
        // everyone); it costs the bytes of one shard copy.
        let mut is_changed = vec![false; self.num_users];
        for &user in &changed {
            is_changed[user as usize] = true;
        }
        score_pairs.retain(|&(affected, _)| !is_changed[affected as usize]);
        score_pairs.sort_unstable();
        score_pairs.dedup();
        resweep.sort_unstable();
        resweep.dedup();
        DeltaOutcome {
            changed: changed.into_iter().map(UserId).collect(),
            pairs: score_pairs
                .into_iter()
                .map(|(v, u)| (UserId(v), UserId(u)))
                .collect(),
            resweep: resweep.into_iter().map(UserId).collect(),
        }
    }

    /// Removes a departed user from the index (churn). `profile` must be the
    /// profile the index currently holds for her — her posting entries are
    /// deleted from exactly those actions' lists. Only those lists are
    /// decoded and re-encoded, the rest of each shard they sit in is
    /// copied byte for byte (the same patcher as [`Self::apply_deltas`]);
    /// an emptied posting list stops counting as a distinct action (a
    /// from-scratch build would not contain it).
    ///
    /// Returns the dirty users: everyone who shared an action with her (her
    /// score against each of them drops), plus the user herself.
    pub fn remove_user(&mut self, user: UserId, profile: &Profile) -> Vec<UserId> {
        let mut ids = Vec::new();
        self.dict.ids_of_profile_into(profile, &mut ids);
        if ids.is_empty() {
            return Vec::new();
        }
        let mut dirty: Vec<u32> = Vec::new();
        let mut start = 0usize;
        while start < ids.len() {
            let sidx = self.shard_of(ids[start] as usize);
            let shard = &mut self.shards[sidx];
            let shard_end = shard.start_id + shard.num_ids;
            let end = start + ids[start..].partition_point(|&id| (id as usize) < shard_end);
            debug_assert!(end > start, "every profile id routes into its shard");
            let (emptied, removed) =
                strip_user_from_shard(shard, &ids[start..end], user.0, &mut dirty);
            self.live_keys -= emptied;
            self.num_postings -= removed;
            start = end;
        }
        finish_dirty(dirty)
    }

    /// Streams every `(action id, user)` posting entry whose user falls in
    /// `users` into `f(id, user - users.start)`: one sequential pass over
    /// every shard in id order, so each user sees her ids ascending. Costs
    /// the whole index's decode whatever the range — a pass is worth it
    /// only when the range amortises it (see the module docs).
    fn for_each_posting_of(&self, users: &std::ops::Range<usize>, mut f: impl FnMut(u32, usize)) {
        let (start, width) = (users.start as u32, users.len() as u32);
        for shard in &self.shards {
            for (rel, (bytes, run_len)) in shard.posting_runs().enumerate() {
                let id = (shard.start_id + rel) as u32;
                for_each_sorted_u32_grouped_padded(bytes, run_len, |user| {
                    // One compare for both ends: users below `start` wrap.
                    let at = user.wrapping_sub(start);
                    if at < width {
                        f(id, at as usize);
                    }
                });
            }
        }
    }

    /// Transposes the index over the user range `users`: afterwards
    /// `out.of(rel)` holds the ascending action ids of user
    /// `users.start + rel` (dictionary-tail ids included) — exactly what
    /// [`ActionDictionary::ids_of_profile_into`] returns for the profile the
    /// index holds for her, with no dictionary lookup: the index *is* the
    /// `(id → users)` relation, read here the other way round.
    ///
    /// Two passes over the posting column (count, then fill), each
    /// `O(postings)` whatever the range; `out` keeps its allocations.
    pub(crate) fn transpose_into(&self, users: std::ops::Range<usize>, out: &mut TransposedIds) {
        assert!(users.end <= self.num_users, "user range outside the index");
        out.offsets.clear();
        out.offsets.resize(users.len() + 1, 0);
        self.for_each_posting_of(&users, |_, at| out.offsets[at + 1] += 1);
        for at in 0..users.len() {
            out.offsets[at + 1] += out.offsets[at];
        }
        out.ids.clear();
        out.ids.resize(out.offsets[users.len()] as usize, 0);
        let mut next = out.offsets.clone();
        self.for_each_posting_of(&users, |id, at| {
            out.ids[next[at] as usize] = id;
            next[at] += 1;
        });
    }

    /// Scores `profile` against every indexed user in one counting sweep.
    ///
    /// After the call, `scratch.counts[v]` holds `|profile ∩ Profile(v)|`
    /// for every user `v` the sweep touched (every other counter is zero).
    /// `exclude` removes one user (the profile's owner) from the result.
    /// The caller must drain the scratch through [`Self::collect_top`] or
    /// clear it via the next `accumulate` call — the sweep starts by
    /// resetting only previously touched slots.
    ///
    /// This is the point path: it interns the profile through the
    /// dictionary (one lookup per action) and hands the ids to
    /// `accumulate_ids`, where the counting happens.
    ///
    /// # Panics
    /// Panics if `scratch` was built for another population than the index.
    pub fn accumulate(&self, profile: &Profile, exclude: UserId, scratch: &mut SimilarityScratch) {
        let mut ids = std::mem::take(&mut scratch.ids);
        self.dict.ids_of_profile_into(profile, &mut ids);
        self.accumulate_ids(&ids, exclude, scratch);
        scratch.ids = ids;
    }

    /// The counting sweep over an already interned profile: `ids` are the
    /// profile's action ids (from the dictionary on the point path, from
    /// [`Self::transpose_into`] on the bulk path), and the scratch contract
    /// is [`Self::accumulate`]'s.
    ///
    /// Two passes (see [`SimilarityScratch`]). Pass 1 resolves every id
    /// positionally — shard by id range, slot by offset — into
    /// `scratch.runs`; an id past its shard's slots has no posting. Pass 2
    /// decodes the runs and counts, with a branch only for `exclude`: the
    /// first-touch test is folded into the `touched` cursor.
    ///
    /// # Panics
    /// Panics if `scratch` was built for another population than the index.
    pub(crate) fn accumulate_ids(
        &self,
        ids: &[u32],
        exclude: UserId,
        scratch: &mut SimilarityScratch,
    ) {
        let SimilarityScratch {
            counts,
            touched,
            num_touched,
            runs,
            ..
        } = scratch;
        assert!(
            counts.len() == self.num_users,
            "a similarity scratch for {} users cannot sweep an index of {} users",
            counts.len(),
            self.num_users
        );
        for &user in &touched[..*num_touched] {
            counts[user as usize] = 0;
        }

        runs.clear();
        for &id in ids {
            let shard_idx = self.shard_of(id as usize);
            let shard = &self.shards[shard_idx];
            let rel = id as usize - shard.start_id;
            if rel >= shard.num_ids {
                continue;
            }
            let (bytes, len) = shard.posting_run(rel);
            runs.push(PostingRef {
                shard: shard_idx as u32,
                at: group_offset(shard.blob.len() - bytes.len()),
                len: len as u32,
            });
        }

        let mut n = 0usize;
        for run in runs.iter() {
            // Fused group-varint decode, four posting deltas per control
            // byte, every load bounds-check-free thanks to the blob's
            // decode slack.
            let bytes = &self.shards[run.shard as usize].blob[run.at as usize..];
            for_each_sorted_u32_grouped_padded(bytes, run.len as usize, |user| {
                if user == exclude.0 {
                    return;
                }
                let count = &mut counts[user as usize];
                touched[n] = user;
                n += usize::from(*count == 0);
                *count += 1;
            });
        }
        *num_touched = n;
    }

    /// Extracts the top-`network_size` scored users from a finished sweep:
    /// `(user, score)` pairs with positive scores, in descending score order
    /// with ties broken by ascending user id — exactly the ideal
    /// personal-network ordering of [`crate::baseline::IdealNetworks`].
    ///
    /// A sweep touches hundreds to thousands of users to keep a hundred,
    /// so the selection ranks as few of them as it can: a small score
    /// histogram (last bucket open above) yields the score of the
    /// `network_size`-th best user, only users at or above it stay
    /// candidates, and the candidates are ranked in a scratch buffer. The
    /// returned network is allocated at its own length.
    pub fn collect_top(
        &self,
        network_size: usize,
        scratch: &mut SimilarityScratch,
    ) -> Vec<(UserId, u64)> {
        if network_size == 0 {
            return Vec::new();
        }
        // One pass over the touched set reads every score once: it fills
        // the histogram and stages each user as a packed rank key — inverted
        // score above the user id, so ascending key order is the network
        // order, and plain `u64`s sort several times faster than pairs
        // under a comparator.
        let counts = &scratch.counts;
        let candidates = &mut scratch.candidates;
        let mut histogram = [0u32; SCORE_BUCKETS];
        candidates.clear();
        candidates.extend(scratch.touched[..scratch.num_touched].iter().map(|&user| {
            let count = counts[user as usize];
            histogram[(count as usize).min(SCORE_BUCKETS - 1)] += 1;
            u64::from(!count) << 32 | u64::from(user)
        }));
        // The lowest score a top-`network_size` user can have: walk the
        // buckets from the best score down until they hold enough users. A
        // threshold in the open last bucket admits every score at or beyond
        // it; one that is never reached admits every touched user.
        let mut at_or_above = 0usize;
        let threshold = (1..SCORE_BUCKETS)
            .rev()
            .find(|&score| {
                at_or_above += histogram[score] as usize;
                at_or_above >= network_size
            })
            .unwrap_or(1) as u32;
        // Compact the keys at or above the threshold to the front, without
        // a branch: most users sit below it, in no predictable pattern.
        let weakest = u64::from(!threshold) << 32 | u64::from(u32::MAX);
        let mut kept = 0usize;
        for at in 0..candidates.len() {
            let key = candidates[at];
            candidates[kept] = key;
            kept += usize::from(key <= weakest);
        }
        candidates.truncate(kept);
        if candidates.len() > network_size {
            // Partial selection: only the retained prefix needs a full sort.
            candidates.select_nth_unstable(network_size - 1);
            candidates.truncate(network_size);
        }
        candidates.sort_unstable();
        candidates
            .iter()
            .map(|&key| (UserId(key as u32), u64::from(!((key >> 32) as u32))))
            .collect()
    }

    /// Convenience wrapper: the top-`network_size` most similar users to
    /// `user`, using (and resetting) `scratch`.
    pub fn top_similar(
        &self,
        dataset: &Dataset,
        user: UserId,
        network_size: usize,
        scratch: &mut SimilarityScratch,
    ) -> Vec<(UserId, u64)> {
        self.accumulate(dataset.profile(user), user, scratch);
        self.collect_top(network_size, scratch)
    }

    /// Resident-byte report of the compressed layout, next to the
    /// uncompressed CSR equivalent (see [`IndexMemory`]).
    pub fn memory(&self) -> IndexMemory {
        let directory_bytes: usize = self.shards.iter().map(|s| s.directory.heap_bytes()).sum();
        let postings_bytes: usize = self.shards.iter().map(|s| s.blob.len()).sum();
        let postings = self.num_postings;
        let dictionary_bytes = self.dict.heap_bytes();
        let csr_equivalent_bytes = self.live_keys
            * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + postings * std::mem::size_of::<u32>();
        IndexMemory {
            dictionary_bytes,
            directory_bytes,
            postings_bytes,
            total_bytes: dictionary_bytes + directory_bytes + postings_bytes,
            csr_equivalent_bytes,
            postings,
            distinct_actions: self.live_keys,
        }
    }
}

/// Sorts, dedups and wraps a raw dirty-user accumulation.
fn finish_dirty(mut dirty: Vec<u32>) -> Vec<UserId> {
    dirty.sort_unstable();
    dirty.dedup();
    dirty.into_iter().map(UserId).collect()
}

/// Merges sorted, deduplicated delta `(id, user)` pairs into one shard (all
/// ids fall in its range, or past its end for the open-above last shard)
/// through [`PostingShard::patch`]: a posting is rewritten only if it
/// genuinely gains a tagger. Every such id reports its gainers into
/// `changed` and the `(posting member, gainer)` pairs whose score grew into
/// `score_pairs`, for the members `interested` accepts — unless the id is
/// so popular that the pair product exceeds [`PAIR_EMISSION_CAP`], in
/// which case its posting members go to `resweep` instead. Returns how many
/// previously empty postings became non-empty (the live-key delta).
fn merge_into_shard(
    shard: &mut PostingShard,
    pairs: &[(u32, u32)],
    interested: &impl Fn(u32) -> bool,
    changed: &mut Vec<u32>,
    score_pairs: &mut Vec<(u32, u32)>,
    resweep: &mut Vec<u32>,
) -> usize {
    let mut went_live = 0usize;
    let mut gainers: Vec<u32> = Vec::new();
    shard.patch(
        pairs,
        |&(id, _)| id,
        |delta, posting, merged| {
            // Union of the old posting list and the delta users, both
            // ascending; a delta user already present is a duplicate action
            // and adds nothing.
            gainers.clear();
            let mut delta = delta.iter().map(|&(_, user)| user).peekable();
            for &member in posting {
                while let Some(gainer) = delta.next_if(|&user| user < member) {
                    merged.push(gainer);
                    gainers.push(gainer);
                }
                delta.next_if_eq(&member);
                merged.push(member);
            }
            for gainer in delta {
                merged.push(gainer);
                gainers.push(gainer);
            }
            if gainers.is_empty() {
                return false;
            }
            went_live += usize::from(posting.is_empty());
            changed.extend_from_slice(&gainers);
            // Everyone on the final posting list now overlaps each gainer
            // on this key; their pairwise scores grew by one. Pairs whose
            // affected side is itself a gainer are skipped — gainers get a
            // full sweep downstream anyway — so they neither bloat the
            // outcome nor count toward the emission cap: the affected
            // members are exactly the old posting. The cap counts all of
            // them, interested or not, so `resweep` is the same for every
            // consumer.
            if posting.len().saturating_mul(gainers.len()) > PAIR_EMISSION_CAP {
                resweep.extend_from_slice(merged);
            } else {
                for &member in posting.iter().filter(|&&member| interested(member)) {
                    score_pairs.extend(gainers.iter().map(|&gainer| (member, gainer)));
                }
            }
            true
        },
    );
    went_live
}

/// Removes `user` from the posting lists of `ids` (sorted, all inside this
/// shard's range) through [`PostingShard::patch`]: only the lists she is
/// actually on are rewritten, and each contributes its pre-removal members
/// to `dirty`. Returns `(emptied postings, removed entries)` — the live-key
/// and posting-count deltas.
fn strip_user_from_shard(
    shard: &mut PostingShard,
    ids: &[u32],
    user: u32,
    dirty: &mut Vec<u32>,
) -> (usize, usize) {
    let (mut emptied, mut removed) = (0usize, 0usize);
    shard.patch(
        ids,
        |&id| id,
        |_, posting, stripped| {
            let Ok(at) = posting.binary_search(&user) else {
                return false;
            };
            dirty.extend_from_slice(posting);
            stripped.extend_from_slice(&posting[..at]);
            stripped.extend_from_slice(&posting[at + 1..]);
            removed += 1;
            emptied += usize::from(stripped.is_empty());
            true
        },
    );
    (emptied, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::{ItemId, TagId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn dataset() -> Dataset {
        let p0 = Profile::from_actions(vec![act(1, 1), act(2, 2), act(3, 3)]);
        let p1 = Profile::from_actions(vec![act(1, 1), act(2, 2)]);
        let p2 = Profile::from_actions(vec![act(3, 3), act(9, 9)]);
        let p3 = Profile::from_actions(vec![act(100, 100)]);
        Dataset::new(vec![p0, p1, p2, p3], 200, 200)
    }

    /// Semantic equality with a freshly built index, independent of shard
    /// layout: same distinct actions and same posting list per action.
    fn assert_matches_fresh_build(index: &ActionIndex, dataset: &Dataset) {
        let fresh = ActionIndex::build(dataset);
        assert_eq!(index.distinct_actions(), fresh.distinct_actions());
        assert_eq!(index.memory().postings, fresh.memory().postings);
        assert_eq!(
            index.memory().csr_equivalent_bytes,
            fresh.memory().csr_equivalent_bytes
        );
        for (_, profile) in dataset.iter() {
            for action in profile.iter() {
                assert_eq!(
                    index.taggers_of(action),
                    fresh.taggers_of(action),
                    "posting list diverged for {action}"
                );
            }
        }
    }

    #[test]
    fn taggers_lists_are_sorted_and_complete() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        assert_eq!(index.num_users(), 4);
        assert_eq!(index.distinct_actions(), 5);
        assert_eq!(index.taggers_of(&act(1, 1)), vec![0, 1]);
        assert_eq!(index.taggers_of(&act(3, 3)), vec![0, 2]);
        assert_eq!(index.taggers_of(&act(100, 100)), vec![3]);
        assert!(index.taggers_of(&act(42, 42)).is_empty());
    }

    #[test]
    fn sharded_build_answers_identically() {
        let d = dataset();
        for shards in 1..=6 {
            let index = ActionIndex::build_with_shards(&d, shards);
            assert!((1..=shards).contains(&index.num_shards()));
            assert_eq!(index.distinct_actions(), 5);
            assert_eq!(index.taggers_of(&act(1, 1)), vec![0, 1]);
            assert_eq!(index.taggers_of(&act(100, 100)), vec![3]);
            assert!(index.taggers_of(&act(0, 0)).is_empty());
            assert!(index.taggers_of(&act(150, 150)).is_empty());
        }
    }

    #[test]
    fn counting_sweep_matches_pairwise_merge() {
        let d = dataset();
        for shards in [1, 3] {
            let index = ActionIndex::build_with_shards(&d, shards);
            let mut scratch = SimilarityScratch::new(d.num_users());
            for (user, profile) in d.iter() {
                index.accumulate(profile, user, &mut scratch);
                for (other, other_profile) in d.iter() {
                    let expected = if other == user {
                        0
                    } else {
                        profile.common_actions(other_profile) as u32
                    };
                    assert_eq!(
                        scratch.counts[other.index()],
                        expected,
                        "user {user} vs {other} ({shards} shards)"
                    );
                }
            }
        }
    }

    #[test]
    fn collect_top_orders_by_score_then_id() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        let mut scratch = SimilarityScratch::new(d.num_users());
        let top = index.top_similar(&d, UserId(0), 10, &mut scratch);
        assert_eq!(top, vec![(UserId(1), 2), (UserId(2), 1)]);
        let top1 = index.top_similar(&d, UserId(0), 1, &mut scratch);
        assert_eq!(top1, vec![(UserId(1), 2)]);
    }

    #[test]
    fn zero_network_size_yields_empty_networks() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        let mut scratch = SimilarityScratch::new(d.num_users());
        assert!(index.top_similar(&d, UserId(0), 0, &mut scratch).is_empty());
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_sweeps() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        let mut scratch = SimilarityScratch::new(d.num_users());
        let first = index.top_similar(&d, UserId(0), 10, &mut scratch);
        let isolated = index.top_similar(&d, UserId(3), 10, &mut scratch);
        assert!(isolated.is_empty());
        let again = index.top_similar(&d, UserId(0), 10, &mut scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn apply_delta_patches_postings_and_reports_dirty() {
        let mut d = dataset();
        for shards in [1, 2, 4] {
            let mut index = ActionIndex::build_with_shards(&d, shards);
            // User 3 adds an action user 2 already has, plus a brand-new key.
            let delta = [act(9, 9), act(50, 50)];
            let outcome = index.apply_deltas([(UserId(3), &delta[..])]);
            d.profile_mut(UserId(3)).extend(delta);
            assert_eq!(outcome.changed, vec![UserId(3)]);
            // u2's score against u3 grew via act(9,9); act(50,50) is hers
            // alone and affects nobody else.
            assert_eq!(outcome.pairs, vec![(UserId(2), UserId(3))]);
            assert_eq!(outcome.dirty_users(), vec![UserId(2), UserId(3)]);
            assert_eq!(index.taggers_of(&act(9, 9)), vec![2, 3]);
            assert_eq!(index.taggers_of(&act(50, 50)), vec![3]);
            assert_matches_fresh_build(&index, &d);
            // Reset for the next shard count.
            d = dataset();
        }
    }

    #[test]
    fn duplicate_deltas_are_noops_with_empty_dirty_set() {
        let d = dataset();
        let mut index = ActionIndex::build(&d);
        // Every action already in the profile: nothing changes.
        let outcome = index.apply_deltas([(UserId(0), &[act(1, 1), act(2, 2)][..])]);
        assert!(outcome.is_empty());
        assert!(outcome.dirty_users().is_empty());
        assert_matches_fresh_build(&index, &d);
        assert!(index.apply_deltas([(UserId(1), &[][..])]).is_empty());
    }

    #[test]
    fn batched_deltas_touch_multiple_users_and_shards() {
        let mut d = dataset();
        let mut index = ActionIndex::build_with_shards(&d, 3);
        let d0 = [act(9, 9)];
        let d3 = [act(1, 1), act(200, 5)];
        let outcome = index.apply_deltas(vec![(UserId(0), &d0[..]), (UserId(3), &d3[..])]);
        d.profile_mut(UserId(0)).extend(d0);
        d.profile_mut(UserId(3)).extend(d3);
        // act(9,9) gains u0 (affecting u2); act(1,1) gains u3 (affecting
        // u0 and u1); act(200,5) is brand new and affects nobody. The
        // (u0, u3) pair is omitted: u0 is itself a changing user.
        assert_eq!(outcome.changed, vec![UserId(0), UserId(3)]);
        assert_eq!(
            outcome.pairs,
            vec![(UserId(1), UserId(3)), (UserId(2), UserId(0))]
        );
        assert_eq!(
            outcome.dirty_users(),
            vec![UserId(0), UserId(1), UserId(2), UserId(3)]
        );
        assert_matches_fresh_build(&index, &d);
    }

    #[test]
    fn remove_user_strips_postings_and_drops_empty_keys() {
        let mut d = dataset();
        for shards in [1, 2, 5] {
            let mut index = ActionIndex::build_with_shards(&d, shards);
            let old = d.profile(UserId(2)).clone();
            let dirty = index.remove_user(UserId(2), &old);
            *d.profile_mut(UserId(2)) = Profile::new();
            // u2 shared act(3,3) with u0; act(9,9) was hers alone.
            assert_eq!(dirty, vec![UserId(0), UserId(2)]);
            assert_eq!(index.taggers_of(&act(3, 3)), vec![0]);
            assert!(index.taggers_of(&act(9, 9)).is_empty());
            assert_matches_fresh_build(&index, &d);
            d = dataset();
        }
    }

    #[test]
    fn remove_then_re_add_round_trips() {
        let d = dataset();
        let mut index = ActionIndex::build_with_shards(&d, 2);
        let profile = d.profile(UserId(0)).clone();
        let actions: Vec<TaggingAction> = profile.iter().copied().collect();
        index.remove_user(UserId(0), &profile);
        let outcome = index.apply_deltas([(UserId(0), &actions[..])]);
        assert_eq!(outcome.changed, vec![UserId(0)]);
        assert!(outcome.dirty_users().contains(&UserId(0)));
        assert_matches_fresh_build(&index, &d);
    }

    #[test]
    fn very_popular_gained_keys_use_resweep_instead_of_pairs() {
        // 130 users already share act(1,1); 65 more add it in one batch, so
        // affected members × gainers = 130 × 65 far exceeds
        // PAIR_EMISSION_CAP and pair emission must give way to a resweep
        // report.
        let profiles: Vec<Profile> = (0..195u32)
            .map(|i| {
                let mut actions = vec![act(200 + i, 1)];
                if i < 130 {
                    actions.push(act(1, 1));
                }
                Profile::from_actions(actions)
            })
            .collect();
        let mut d = Dataset::new(profiles, 400, 10);
        let mut index = ActionIndex::build(&d);
        let ideal = crate::baseline::IdealNetworks::compute_with_threads(&d, 5, 1);

        let deltas: Vec<(UserId, Vec<TaggingAction>)> =
            (130..195).map(|i| (UserId(i), vec![act(1, 1)])).collect();
        let outcome = index.apply_deltas(deltas.iter().map(|(u, a)| (*u, a.as_slice())));
        for (u, a) in &deltas {
            d.profile_mut(*u).extend(a.iter().copied());
        }
        assert_eq!(outcome.changed.len(), 65);
        assert!(
            outcome.pairs.is_empty(),
            "the capped key must not emit pairs"
        );
        assert_eq!(outcome.resweep.len(), 195);
        assert_matches_fresh_build(&index, &d);

        // The resweep path still reproduces a from-scratch compute.
        let mut resolver = crate::resolver::OnDemandNetworks::from(ideal);
        resolver.apply_delta_outcome(&d, &outcome, 1);
        let ideal = resolver.into_ideal(&d, &index, 1);
        let oracle = crate::baseline::IdealNetworks::compute_with_threads(&d, 5, 1);
        for user in d.users() {
            assert_eq!(ideal.network_of(user), oracle.network_of(user), "{user}");
        }
    }

    /// A random dataset over a small key space (items `< 40`, tags `< 6`),
    /// so shared actions, empty profiles and long postings all occur.
    fn random_dataset(rng: &mut StdRng, users: u32) -> Dataset {
        let profiles: Vec<Profile> = (0..users)
            .map(|_| {
                let n = rng.gen_range(0..25usize);
                Profile::from_actions(
                    (0..n).map(|_| act(rng.gen_range(0..40u32), rng.gen_range(0..6u32))),
                )
            })
            .collect();
        Dataset::new(profiles, 400, 10)
    }

    /// Holds the transposition of every given user range to the
    /// dictionary's interning of each profile, one reused block throughout.
    fn assert_transposes_to_interned_ids(index: &ActionIndex, d: &Dataset, case: &str) {
        let n = d.num_users();
        let mut block = TransposedIds::default();
        let mut interned = Vec::new();
        for users in [0..n, n / 3..n - n / 4, n / 2..n / 2 + 1, n / 2..n / 2, n..n] {
            index.transpose_into(users.clone(), &mut block);
            assert_eq!(block.offsets.len(), users.len() + 1, "{case}, {users:?}");
            for (rel, idx) in users.clone().enumerate() {
                let profile = d.profile(UserId::from_index(idx));
                index
                    .dictionary()
                    .ids_of_profile_into(profile, &mut interned);
                assert_eq!(
                    block.of(rel),
                    interned.as_slice(),
                    "{case}, users {users:?}, user {idx}"
                );
                assert_eq!(
                    interned.len(),
                    profile.len(),
                    "{case}: every action is indexed"
                );
            }
        }
    }

    #[test]
    fn transposed_ids_equal_the_interned_profiles() {
        let mut rng = StdRng::seed_from_u64(0x7E4A);
        for round in 0..40 {
            let users = rng.gen_range(1..70u32);
            let mut d = random_dataset(&mut rng, users);
            let shards = [1usize, 3, 16][round % 3];
            let mut index = ActionIndex::build_with_shards(&d, shards);
            let case = format!("round {round}, {shards} shards");
            assert_transposes_to_interned_ids(&index, &d, &format!("{case}, fresh build"));

            // Additions that intern dictionary-tail ids (items >= 40 are
            // unknown to the build) and so grow the open-above last shard.
            let deltas: Vec<(UserId, Vec<TaggingAction>)> = (0..rng.gen_range(1..8usize))
                .map(|_| {
                    let user = UserId(rng.gen_range(0..users));
                    let actions = (0..rng.gen_range(1..9usize))
                        .map(|_| act(rng.gen_range(0..60u32), rng.gen_range(0..6u32)))
                        .chain([act(40 + round as u32, 1)])
                        .collect();
                    (user, actions)
                })
                .collect();
            index.apply_deltas(deltas.iter().map(|(u, a)| (*u, a.as_slice())));
            for (user, actions) in &deltas {
                d.profile_mut(*user).extend(actions.iter().copied());
            }
            assert!(index.dictionary().len() > index.dictionary().frozen_len());
            assert_transposes_to_interned_ids(&index, &d, &format!("{case}, after deltas"));

            // Departures: her postings lose her, some of them their last
            // tagger, and her own slice must come back empty.
            for _ in 0..rng.gen_range(1..4usize) {
                let user = UserId(rng.gen_range(0..users));
                let profile = std::mem::take(d.profile_mut(user));
                index.remove_user(user, &profile);
            }
            assert_transposes_to_interned_ids(&index, &d, &format!("{case}, after departures"));
        }
    }

    #[test]
    fn transposition_of_an_empty_index_is_empty() {
        let index = ActionIndex::build(&Dataset::default());
        let mut block = TransposedIds::default();
        index.transpose_into(0..0, &mut block);
        assert_eq!(block.offsets, vec![0]);
        assert!(block.ids.is_empty());
    }

    /// The gather-everything selection [`ActionIndex::collect_top`] replaced
    /// — every touched user materialised as a pair, then ranked under the
    /// comparator — kept as the oracle the threshold selection is held to.
    fn collect_top_gathering_all(
        network_size: usize,
        scratch: &SimilarityScratch,
    ) -> Vec<(UserId, u64)> {
        if network_size == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(UserId, u64)> = scratch
            .touched()
            .iter()
            .map(|&user| (UserId(user), u64::from(scratch.counts[user as usize])))
            .collect();
        let by_rank = |a: &(UserId, u64), b: &(UserId, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > network_size {
            scored.select_nth_unstable_by(network_size - 1, by_rank);
            scored.truncate(network_size);
        }
        scored.sort_unstable_by(by_rank);
        scored
    }

    /// Loads `scores` into the scratch the way a sweep would leave them
    /// (clearing what the previous sweep touched), in the given order.
    fn load_scores(scratch: &mut SimilarityScratch, scores: &[(u32, u32)]) {
        for &slot in &scratch.touched[..scratch.num_touched] {
            scratch.counts[slot as usize] = 0;
        }
        for (at, &(user, score)) in scores.iter().enumerate() {
            assert!(score > 0 && scratch.counts[user as usize] == 0);
            scratch.counts[user as usize] = score;
            scratch.touched[at] = user;
        }
        scratch.num_touched = scores.len();
    }

    #[test]
    fn threshold_selection_matches_gathering_everything() {
        let index = ActionIndex::build(&dataset());
        let last = SCORE_BUCKETS as u32 - 1;
        let mut rng = StdRng::seed_from_u64(0xC011);
        // One scratch throughout: every case is also a reuse of the last.
        let mut scratch = SimilarityScratch::new(4000);
        let mut cases: Vec<(&str, Vec<(u32, u32)>)> = vec![
            ("nobody touched", Vec::new()),
            ("one user", vec![(7, 3)]),
            (
                "ties at the threshold straddle the cut, ids descending",
                (0..40u32)
                    .rev()
                    .map(|u| (u, if u % 4 == 0 { 9 } else { 2 }))
                    .collect(),
            ),
            ("everyone tied", (0..300u32).map(|u| (299 - u, 1)).collect()),
            (
                "scores beyond the last bucket",
                (0..200u32).map(|u| (u, last - 3 + u % 40)).collect(),
            ),
            (
                "only the open bucket",
                (0..90u32).map(|u| (u * 3, last + (u * 7) % 500)).collect(),
            ),
            (
                "the cut falls just under the open bucket",
                (0..30u32)
                    .map(|u| (u, last + u))
                    .chain((30..200).map(|u| (u, last - 1 - u % 2)))
                    .collect(),
            ),
        ];
        for _ in 0..60 {
            let touched = rng.gen_range(0..400usize);
            let spread = [2u32, 6, 70, 900][rng.gen_range(0..4usize)];
            let mut users: Vec<u32> = (0..4000).collect();
            for i in 0..touched {
                users.swap(i, rng.gen_range(i..4000usize));
            }
            let scores = users[..touched]
                .iter()
                .map(|&u| (u, rng.gen_range(1..=spread)))
                .collect();
            cases.push(("random", scores));
        }
        for (case, scores) in &cases {
            // 0, sizes around every tie group's edge, touched - 1, touched,
            // touched + 1 and far beyond.
            let n = scores.len();
            for network_size in [
                0,
                1,
                2,
                10,
                11,
                29,
                30,
                31,
                100,
                n.saturating_sub(1),
                n,
                n + 1,
                5000,
            ] {
                load_scores(&mut scratch, scores);
                let oracle = collect_top_gathering_all(network_size, &scratch);
                let top = index.collect_top(network_size, &mut scratch);
                assert_eq!(top, oracle, "{case}, {n} touched, s = {network_size}");
                assert_eq!(top.len(), n.min(network_size), "{case}, s = {network_size}");
                assert!(
                    top.capacity() <= 2 * top.len(),
                    "{case}, s = {network_size}: the network is held at its own size"
                );
            }
        }
    }

    #[test]
    fn threshold_selection_matches_the_oracle_after_real_sweeps() {
        // 150 users who all share 70 actions (scores beyond the last
        // bucket) plus a tail of weaker overlaps, swept back to back on one
        // scratch.
        let profiles: Vec<Profile> = (0..260u32)
            .map(|u| {
                let shared = if u < 150 { 70 } else { u % 9 };
                Profile::from_actions((0..shared).map(|i| act(i, 1)).chain([act(1000 + u, 2)]))
            })
            .collect();
        let d = Dataset::new(profiles, 2000, 10);
        let index = ActionIndex::build(&d);
        let mut scratch = SimilarityScratch::new(d.num_users());
        for network_size in [0usize, 5, 100, 149, 150, 400] {
            for (user, profile) in d.iter() {
                index.accumulate(profile, user, &mut scratch);
                let oracle = collect_top_gathering_all(network_size, &scratch);
                let top = index.collect_top(network_size, &mut scratch);
                assert_eq!(top, oracle, "user {user}, s = {network_size}");
            }
        }
    }

    /// Encodes a shard from owned posting lists.
    fn encode_lists(start_id: usize, lists: &[Vec<u32>]) -> PostingShard {
        PostingShard::encode(start_id, lists.iter().map(Vec::as_slice))
    }

    /// Decodes every posting list of a shard into owned vectors — what the
    /// write path did before the streaming patcher, kept as the oracle the
    /// patcher is held to (no shipped code decodes a whole shard).
    fn decode_all(shard: &PostingShard) -> Vec<Vec<u32>> {
        shard
            .posting_runs()
            .map(|(bytes, len)| {
                let mut users = Vec::new();
                for_each_sorted_u32_grouped_padded(bytes, len, |user| users.push(user));
                users
            })
            .collect()
    }

    /// What the decode-everything write path built for a delta merge:
    /// every list decoded, the union taken per id, the whole shard encoded
    /// again. Returns the shard, the went-live count and the gainers.
    fn merge_by_re_encoding(
        shard: &PostingShard,
        pairs: &[(u32, u32)],
    ) -> (PostingShard, usize, Vec<u32>) {
        let mut lists = decode_all(shard);
        let (mut went_live, mut gainers) = (0usize, Vec::new());
        for &(id, user) in pairs {
            let rel = id as usize - shard.start_id;
            if rel >= lists.len() {
                lists.resize(rel + 1, Vec::new());
            }
            if let Err(at) = lists[rel].binary_search(&user) {
                went_live += usize::from(lists[rel].is_empty());
                lists[rel].insert(at, user);
                gainers.push(user);
            }
        }
        let encoded = encode_lists(shard.start_id, &lists);
        (encoded, went_live, gainers)
    }

    /// The same oracle for a departure: `(shard, emptied, removed)`.
    fn strip_by_re_encoding(
        shard: &PostingShard,
        ids: &[u32],
        user: u32,
    ) -> (PostingShard, usize, usize) {
        let mut lists = decode_all(shard);
        let (mut emptied, mut removed) = (0usize, 0usize);
        for &id in ids {
            let list = &mut lists[id as usize - shard.start_id];
            if let Ok(at) = list.binary_search(&user) {
                list.remove(at);
                removed += 1;
                emptied += usize::from(list.is_empty());
            }
        }
        let encoded = encode_lists(shard.start_id, &lists);
        (encoded, emptied, removed)
    }

    /// Patches a copy of `shard` with `pairs` (sorted, deduplicated) and
    /// holds blob, directory, slot count, went-live count and gainers to
    /// the re-encoding oracle, byte for byte. Returns the patched shard.
    fn assert_merge_is_byte_identical(
        shard: &PostingShard,
        pairs: &[(u32, u32)],
        case: &str,
    ) -> PostingShard {
        let (oracle, oracle_live, oracle_gainers) = merge_by_re_encoding(shard, pairs);
        let mut patched = shard.clone();
        let (mut changed, mut score_pairs, mut resweep) = (Vec::new(), Vec::new(), Vec::new());
        let went_live = merge_into_shard(
            &mut patched,
            pairs,
            &|_| true,
            &mut changed,
            &mut score_pairs,
            &mut resweep,
        );
        assert_eq!(patched.blob, oracle.blob, "{case}: blob");
        assert_eq!(patched.directory, oracle.directory, "{case}: directory");
        assert_eq!(patched, oracle, "{case}: shard");
        assert_eq!(went_live, oracle_live, "{case}: went live");
        assert_eq!(changed, oracle_gainers, "{case}: gainers");
        patched
    }

    /// The departure counterpart of [`assert_merge_is_byte_identical`].
    fn assert_strip_is_byte_identical(
        shard: &PostingShard,
        ids: &[u32],
        user: u32,
        case: &str,
    ) -> PostingShard {
        let (oracle, oracle_emptied, oracle_removed) = strip_by_re_encoding(shard, ids, user);
        let mut patched = shard.clone();
        let mut dirty = Vec::new();
        let (emptied, removed) = strip_user_from_shard(&mut patched, ids, user, &mut dirty);
        assert_eq!(patched.blob, oracle.blob, "{case}: blob");
        assert_eq!(patched.directory, oracle.directory, "{case}: directory");
        assert_eq!(patched, oracle, "{case}: shard");
        assert_eq!(
            (emptied, removed),
            (oracle_emptied, oracle_removed),
            "{case}: emptied / removed"
        );
        patched
    }

    /// A shard of `slots` postings over users `< population`: about one
    /// slot in five empty, most lists short, a few long ones with wide gaps
    /// (multi-byte deltas, multi-byte length prefixes).
    fn random_shard(
        rng: &mut StdRng,
        start_id: usize,
        slots: usize,
        population: u32,
    ) -> PostingShard {
        let lists: Vec<Vec<u32>> = (0..slots)
            .map(|_| {
                let len = match rng.gen_range(0..10u32) {
                    0 | 1 => 0,
                    2..=7 => rng.gen_range(1..6usize),
                    8 => rng.gen_range(6..40usize),
                    _ => rng.gen_range(40..300usize),
                };
                let mut list: Vec<u32> = (0..len).map(|_| rng.gen_range(0..population)).collect();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        encode_lists(start_id, &lists)
    }

    /// Sorted, deduplicated `(id, user)` pairs over the given relative slots.
    fn pairs_on(shard: &PostingShard, rels: &[usize], users: &[u32]) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = rels
            .iter()
            .flat_map(|&rel| {
                users
                    .iter()
                    .map(move |&user| ((shard.start_id + rel) as u32, user))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    #[test]
    fn patch_is_byte_identical_on_the_edge_slots() {
        let mut rng = StdRng::seed_from_u64(0x5A4D);
        // Users 0..5000 on the lists, gainers from 5000.. so that every
        // delta below genuinely gains unless the case says otherwise.
        let shard = random_shard(&mut rng, 700, 83, 5000);
        let last = shard.num_ids - 1;
        let gainers = [5001u32, 6000, 70_000];
        for (case, rels) in [
            ("slot 0", vec![0]),
            ("last slot", vec![last]),
            (
                "slot 0 and last slot, ten untouched groups between",
                vec![0, last],
            ),
            ("rel % 8 == 0", vec![8, 16, 64]),
            ("rel % 8 == 7", vec![7, 15, 79]),
            ("a group boundary from both sides", vec![7, 8, 15, 16]),
            ("every slot of one group", (24..32).collect()),
            ("one slot in each of several groups", vec![3, 33, 34, 61]),
            ("every slot", (0..=last).collect()),
        ] {
            let pairs = pairs_on(&shard, &rels, &gainers);
            let patched = assert_merge_is_byte_identical(&shard, &pairs, case);
            assert_ne!(patched.blob, shard.blob, "{case}: something was merged");
            // Merging the same pairs again gains nothing: the patch must
            // hand the shard back as it is.
            let again = assert_merge_is_byte_identical(&patched, &pairs, case);
            assert_eq!(again, patched, "{case}: duplicate-only delta");
        }
        // A delta user below, between and above the members of one list.
        let members = shard.posting(8);
        let mut users = vec![members[0], members[members.len() - 1] + 1, 0];
        users.extend(
            members
                .windows(2)
                .filter(|w| w[1] - w[0] > 1)
                .map(|w| w[0] + 1),
        );
        let pairs = pairs_on(&shard, &[8], &users);
        assert_merge_is_byte_identical(&shard, &pairs, "interleaved gainers");
    }

    #[test]
    fn patch_strips_byte_identically_and_empties_postings() {
        let user = 77u32;
        let lists: Vec<Vec<u32>> = (0..40usize)
            .map(|rel| match rel % 5 {
                0 => vec![user],
                1 => vec![3, user, 900],
                2 => vec![user, 78, 79, 80, 81, 4000, 70_000],
                3 => vec![1, 2, 3],
                _ => Vec::new(),
            })
            .collect();
        let shard = encode_lists(120, &lists);
        let all: Vec<u32> = (120..160).collect();
        let patched = assert_strip_is_byte_identical(&shard, &all, user, "whole profile");
        assert_eq!(
            patched.posting(0).len(),
            0,
            "a singleton posting is emptied"
        );
        assert_eq!(patched.posting(1), vec![3, 900]);
        // She is gone: stripping again rewrites nothing.
        let again = assert_strip_is_byte_identical(&patched, &all, user, "already stripped");
        assert_eq!(again, patched);
        for (case, ids) in [
            ("slot 0", vec![120u32]),
            ("last slot she is on", vec![157]),
            ("rel % 8 in {0, 7}", vec![127, 128, 135, 136]),
            ("only lists she is not on", vec![123, 124]),
        ] {
            assert_strip_is_byte_identical(&shard, &ids, user, case);
        }
        // Re-adding her to some of her lists restores exactly those.
        let back = [0usize, 1, 2, 5, 36, 37];
        let pairs = pairs_on(&patched, &back, &[user]);
        let restored = assert_merge_is_byte_identical(&patched, &pairs, "re-add");
        let mut expected = lists.clone();
        for (rel, list) in expected.iter_mut().enumerate() {
            if !back.contains(&rel) {
                list.retain(|&member| member != user);
            }
        }
        assert_eq!(restored, encode_lists(120, &expected));
    }

    #[test]
    fn patch_grows_the_open_above_shard_with_empty_slots() {
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for slots in [0usize, 1, 7, 8, 9, 30] {
            let shard = random_shard(&mut rng, 50, slots, 300);
            for (case, rels) in [
                ("the next slot", vec![slots]),
                ("a gap of empty slots", vec![slots + 13]),
                ("a gap that crosses several groups", vec![slots + 41]),
                (
                    "two tail ids with a gap between",
                    vec![slots + 2, slots + 19],
                ),
                ("an old slot and a far tail id", vec![slots / 2, slots + 9]),
                ("a run of tail ids", (slots..slots + 17).collect()),
            ] {
                let case = format!("{slots} slots, {case}");
                let pairs = pairs_on(&shard, &rels, &[4, 301]);
                let patched = assert_merge_is_byte_identical(&shard, &pairs, &case);
                assert_eq!(patched.num_ids, rels[rels.len() - 1] + 1, "{case}");
            }
        }
        // A `Default` shard has no blob at all, not even the decode slack.
        let empty = PostingShard::default();
        assert!(empty.blob.is_empty());
        let pairs = pairs_on(&empty, &[0, 11], &[9]);
        let patched = assert_merge_is_byte_identical(&empty, &pairs, "default shard");
        assert_eq!(patched.posting(11), vec![9]);
        let mut untouched = PostingShard::default();
        untouched.patch(&[] as &[u32], |&id| id, |_, _, _| true);
        assert_eq!(untouched, PostingShard::default());
    }

    #[test]
    fn patch_keeps_and_crosses_the_wide_directory() {
        // 70 slots × 1500 sequential users: every 64-slot window outgrows
        // u16, so the shard sits in the wide fallback before and after.
        let everyone: Vec<u32> = (0..1500).collect();
        let wide = encode_lists(0, &vec![everyone.clone(); 70]);
        assert!(matches!(wide.directory, GroupDirectory::Wide(_)));
        for (case, rels) in [
            ("slot 0", vec![0usize]),
            ("last slot", vec![69]),
            ("both windows", vec![5, 63, 64, 69]),
        ] {
            let pairs = pairs_on(&wide, &rels, &[1500, 9000]);
            let patched = assert_merge_is_byte_identical(&wide, &pairs, case);
            assert!(matches!(patched.directory, GroupDirectory::Wide(_)));
            let ids: Vec<u32> = rels.iter().map(|&rel| rel as u32).collect();
            assert_strip_is_byte_identical(&patched, &ids, 700, case);
        }
        // Compact → wide and back on one posting entry: slot 3 holds the
        // longest list (3-byte deltas) that still keeps group 1 within u16
        // of its anchor, so one more tagger tips the directory over and her
        // departure tips it back.
        let lists = |taggers: u32| {
            let mut lists = vec![vec![1u32]; 70];
            lists[3] = (0..taggers).map(|u| u * 70_000).collect();
            lists
        };
        let is_compact =
            |shard: &PostingShard| matches!(shard.directory, GroupDirectory::Compact { .. });
        let mut taggers = 20_100u32;
        assert!(is_compact(&encode_lists(0, &lists(taggers))));
        while is_compact(&encode_lists(0, &lists(taggers + 1))) {
            taggers += 1;
        }
        let compact = encode_lists(0, &lists(taggers));
        let pairs = [(3u32, taggers * 70_000)];
        let grown = assert_merge_is_byte_identical(&compact, &pairs, "compact to wide");
        assert!(!is_compact(&grown));
        let shrunk = assert_strip_is_byte_identical(&grown, &[3], pairs[0].1, "wide to compact");
        assert_eq!(shrunk, compact);
    }

    #[test]
    fn random_patches_are_byte_identical_to_a_re_encode() {
        let mut rng = StdRng::seed_from_u64(0xB17E);
        for round in 0..300 {
            let slots = rng.gen_range(0..90usize);
            let start_id = rng.gen_range(0..5000usize);
            let population = rng.gen_range(2..4000u32);
            let shard = random_shard(&mut rng, start_id, slots, population);
            // Deltas over the covered slots and — one round in three — past
            // them, with users drawn from the same range as the members so
            // that duplicates, gainers and no-op slots all occur.
            let reach = if round % 3 == 0 { slots + 25 } else { slots };
            let mut pairs: Vec<(u32, u32)> = (0..rng.gen_range(0..60usize))
                .filter(|_| reach > 0)
                .map(|_| {
                    let rel = rng.gen_range(0..reach);
                    ((start_id + rel) as u32, rng.gen_range(0..population))
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let case = format!("round {round}");
            let merged = if pairs.is_empty() {
                shard.clone()
            } else {
                assert_merge_is_byte_identical(&shard, &pairs, &case)
            };
            // One departure over a random ascending id subset.
            let user = rng.gen_range(0..population);
            let ids: Vec<u32> = (0..merged.num_ids)
                .filter(|_| rng.gen_bool(0.4))
                .map(|rel| (start_id + rel) as u32)
                .collect();
            assert_strip_is_byte_identical(&merged, &ids, user, &case);
        }
    }

    #[test]
    fn delta_departure_re_add_round_trips_match_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(0x0D0E);
        let users = 60u32;
        let mut d = random_dataset(&mut rng, users);
        for shards in [1usize, 3, 16] {
            let mut index = ActionIndex::build_with_shards(&d, shards);
            for _ in 0..12 {
                // A batch of additions: known actions, new keys (items
                // ≥ 40 are dictionary-tail ids) and repeats.
                let deltas: Vec<(UserId, Vec<TaggingAction>)> = (0..rng.gen_range(1..8usize))
                    .map(|_| {
                        let user = UserId(rng.gen_range(0..users));
                        let actions = (0..rng.gen_range(1..9usize))
                            .map(|_| act(rng.gen_range(0..60u32), rng.gen_range(0..6u32)))
                            .collect();
                        (user, actions)
                    })
                    .collect();
                index.apply_deltas(deltas.iter().map(|(u, a)| (*u, a.as_slice())));
                for (user, actions) in &deltas {
                    d.profile_mut(*user).extend(actions.iter().copied());
                }
                assert_matches_fresh_build(&index, &d);

                // A departure, checked while she is gone, then her return.
                let user = UserId(rng.gen_range(0..users));
                let profile = std::mem::take(d.profile_mut(user));
                index.remove_user(user, &profile);
                assert_matches_fresh_build(&index, &d);
                let actions: Vec<TaggingAction> = profile.iter().copied().collect();
                index.apply_deltas([(user, &actions[..])]);
                *d.profile_mut(user) = profile;
                assert_matches_fresh_build(&index, &d);
            }
        }
    }

    #[test]
    fn interest_filters_the_emitted_pairs_and_nothing_else() {
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        let users = 260u32;
        // About 100 users a round gain this key, so from the second round
        // on its old posting × gainers outgrows PAIR_EMISSION_CAP.
        let popular = act(500, 1);
        let (mut capped, mut dropped) = (0usize, 0usize);
        for shards in 1..=5usize {
            let mut d = random_dataset(&mut rng, users);
            let mut index = ActionIndex::build_with_shards(&d, shards);
            for round in 0..5 {
                // Known keys, dictionary-tail keys (items ≥ 40), one action
                // the user already has, and often the popular key.
                let mut deltas: Vec<(UserId, Vec<TaggingAction>)> = Vec::new();
                for user in (0..users).map(UserId) {
                    if rng.gen_bool(0.5) {
                        continue;
                    }
                    let mut actions: Vec<TaggingAction> = (0..rng.gen_range(0..4usize))
                        .map(|_| act(rng.gen_range(0..60u32), rng.gen_range(0..6u32)))
                        .collect();
                    actions.extend(d.profile(user).iter().next().copied());
                    if rng.gen_bool(0.8) {
                        actions.push(popular);
                    }
                    deltas.push((user, actions));
                }
                let batch = || deltas.iter().map(|(u, a)| (*u, a.as_slice()));
                let mut full = index.clone();
                let expected = full.apply_deltas(batch());
                let random: Vec<bool> = (0..users).map(|_| rng.gen_bool(0.3)).collect();
                for (mask, kind) in [
                    (vec![false; users as usize], "all-false"),
                    (vec![true; users as usize], "all-true"),
                    (random, "random"),
                ] {
                    let case = format!("{shards} shards, round {round}, {kind} mask");
                    let mut filtered = index.clone();
                    let outcome = filtered.apply_deltas_where(batch(), |u| mask[u as usize]);
                    assert_eq!(outcome.changed, expected.changed, "{case}: changed");
                    assert_eq!(outcome.resweep, expected.resweep, "{case}: resweep");
                    let kept: Vec<(UserId, UserId)> = expected
                        .pairs
                        .iter()
                        .copied()
                        .filter(|(affected, _)| mask[affected.index()])
                        .collect();
                    assert_eq!(outcome.pairs, kept, "{case}: pairs");
                    assert_eq!(filtered.shards, full.shards, "{case}: shards");
                    assert_eq!(filtered.live_keys, full.live_keys, "{case}: live keys");
                    assert_eq!(filtered.num_postings, full.num_postings, "{case}: postings");
                    assert_eq!(filtered.memory(), full.memory(), "{case}: memory");
                    dropped += expected.pairs.len() - kept.len();
                }
                capped += usize::from(!expected.resweep.is_empty());
                for (user, actions) in &deltas {
                    d.profile_mut(*user).extend(actions.iter().copied());
                }
                index = full;
            }
        }
        assert!(capped > 0, "the popular key never hit the emission cap");
        assert!(dropped > 0, "no mask ever dropped a pair");
    }

    /// The comparison-sort build the item-bucket counting pass replaced:
    /// one global sort of the `(key, user)` pairs, the running key rank as
    /// the id, and every posting staged as an owned list before encoding —
    /// kept as the oracle [`ActionIndex::build_with_shards`] is held to.
    fn build_by_sorting(dataset: &Dataset, num_shards: usize) -> ActionIndex {
        let mut key_pairs: Vec<(u64, u32)> = Vec::new();
        for (user, profile) in dataset.iter() {
            for action in profile.iter() {
                key_pairs.push((p3q_trace::action_key(action), user.0));
            }
        }
        key_pairs.sort_unstable();
        let mut keys: Vec<u64> = Vec::new();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for &(key, user) in &key_pairs {
            if keys.last() != Some(&key) {
                keys.push(key);
                lists.push(Vec::new());
            }
            lists
                .last_mut()
                .expect("list pushed with its key")
                .push(user);
        }
        let distinct = keys.len();
        let requested = if num_shards > 0 {
            num_shards
        } else {
            distinct
                .div_ceil(TARGET_KEYS_PER_SHARD)
                .clamp(1, MAX_SHARDS)
        };
        let span = distinct.div_ceil(requested).max(1);
        let shards = (0..distinct.div_ceil(span).max(1))
            .map(|s| {
                let lo = (s * span).min(distinct);
                let hi = ((s + 1) * span).min(distinct);
                encode_lists(lo, &lists[lo..hi])
            })
            .collect();
        ActionIndex {
            dict: ActionDictionary::from_sorted_keys(&keys),
            shards,
            span,
            num_users: dataset.num_users(),
            live_keys: distinct,
            num_postings: key_pairs.len(),
        }
    }

    /// Holds `built` to `oracle` field by field.
    fn assert_same_index(built: &ActionIndex, oracle: &ActionIndex, case: &str) {
        let keys = |index: &ActionIndex| -> Vec<TaggingAction> {
            (0..index.dict.len())
                .map(|id| index.dict.resolve(p3q_trace::ActionId::from_index(id)))
                .collect()
        };
        assert_eq!(keys(built), keys(oracle), "{case}: dictionary keys");
        assert_eq!(
            built.dict.frozen_len(),
            oracle.dict.frozen_len(),
            "{case}: frozen keys"
        );
        assert_eq!(built.shards, oracle.shards, "{case}: shards");
        assert_eq!(built.span, oracle.span, "{case}: span");
        assert_eq!(built.live_keys, oracle.live_keys, "{case}: live keys");
        assert_eq!(built.num_postings, oracle.num_postings, "{case}: postings");
        assert_eq!(built.memory(), oracle.memory(), "{case}: memory");
    }

    #[test]
    fn counting_build_equals_the_sorting_build() {
        let mut rng = StdRng::seed_from_u64(0xB0C7);
        let far = 1u32 << 20;
        let mut cases: Vec<(String, Dataset)> = vec![
            ("no users".into(), Dataset::default()),
            (
                "only empty profiles".into(),
                Dataset::new(vec![Profile::new(); 5], 10, 10),
            ),
            (
                "a single user".into(),
                Dataset::new(
                    vec![Profile::from_actions([act(5, 2), act(5, 0), act(far, 3)])],
                    10,
                    10,
                ),
            ),
        ];
        for round in 0..10 {
            let users = rng.gen_range(1..80u32);
            cases.push((
                format!("dense round {round}"),
                random_dataset(&mut rng, users),
            ));
            // A few dozen items scattered up to `far` (always including
            // it), every third profile empty.
            let pool: Vec<u32> = (0..30)
                .map(|_| rng.gen_range(0..far))
                .chain([far])
                .collect();
            let profiles = (0..users)
                .map(|u| {
                    let n = if u % 3 == 0 {
                        0
                    } else {
                        rng.gen_range(1..12usize)
                    };
                    Profile::from_actions(
                        (0..n)
                            .map(|_| act(pool[rng.gen_range(0..pool.len())], rng.gen_range(0..4))),
                    )
                })
                .collect();
            cases.push((
                format!("sparse round {round}"),
                Dataset::new(profiles, 10, 4),
            ));
        }
        for (case, d) in &cases {
            for shards in 0..=5usize {
                let case = format!("{case}, {shards} shards");
                let mut built = ActionIndex::build_with_shards(d, shards);
                let mut oracle = build_by_sorting(d, shards);
                assert_same_index(&built, &oracle, &format!("{case}, build"));
                if d.num_users() == 0 {
                    continue;
                }
                // Known keys, keys past every item of the build, repeats.
                let mut d = d.clone();
                let deltas: Vec<(UserId, Vec<TaggingAction>)> = (0..rng.gen_range(1..6usize))
                    .map(|_| {
                        let user = UserId(rng.gen_range(0..d.num_users() as u32));
                        let actions = (0..rng.gen_range(1..6usize))
                            .map(|_| act(rng.gen_range(0..50u32), rng.gen_range(0..6u32)))
                            .chain([act(far + 1, 0)])
                            .collect();
                        (user, actions)
                    })
                    .collect();
                let batch = || deltas.iter().map(|(u, a)| (*u, a.as_slice()));
                assert_eq!(built.apply_deltas(batch()), oracle.apply_deltas(batch()));
                for (user, actions) in &deltas {
                    d.profile_mut(*user).extend(actions.iter().copied());
                }
                assert_same_index(&built, &oracle, &format!("{case}, after deltas"));
                let user = deltas[0].0;
                let profile = std::mem::take(d.profile_mut(user));
                assert_eq!(
                    built.remove_user(user, &profile),
                    oracle.remove_user(user, &profile)
                );
                assert_same_index(&built, &oracle, &format!("{case}, after a departure"));
            }
        }
    }

    #[test]
    fn ids_past_their_shard_have_no_posting() {
        let d = dataset();
        for shards in [1, 3] {
            let index = ActionIndex::build_with_shards(&d, shards);
            let mut scratch = SimilarityScratch::new(d.num_users());
            let mut ids = Vec::new();
            index
                .dictionary()
                .ids_of_profile_into(d.profile(UserId(0)), &mut ids);
            index.accumulate_ids(&ids, UserId(0), &mut scratch);
            let (entries, top) = (scratch.entries_read(), index.collect_top(10, &mut scratch));
            // Ids the last shard has no slot for, and nothing at all.
            let past = index.dictionary().len() as u32;
            ids.extend([past, past + 7, past + 1000]);
            index.accumulate_ids(&ids, UserId(0), &mut scratch);
            assert_eq!(scratch.entries_read(), entries, "{shards} shards");
            assert_eq!(index.collect_top(10, &mut scratch), top, "{shards} shards");
            index.accumulate_ids(&[past], UserId(0), &mut scratch);
            assert!(scratch.touched().is_empty(), "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "a similarity scratch for 3 users cannot sweep an index of 4 users")]
    fn a_scratch_for_a_smaller_population_is_rejected() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        // User 0 shares actions only with users 1 and 2, so nothing but the
        // size check can fail here.
        let mut scratch = SimilarityScratch::new(3);
        index.top_similar(&d, UserId(0), 10, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn delta_for_out_of_range_user_is_rejected() {
        let d = dataset();
        let mut index = ActionIndex::build(&d);
        let _ = index.apply_deltas([(UserId(99), &[act(1, 1)][..])]);
    }

    #[test]
    fn empty_dataset_builds_an_empty_index() {
        let d = Dataset::default();
        let mut index = ActionIndex::build(&d);
        assert_eq!(index.distinct_actions(), 0);
        assert_eq!(index.num_shards(), 1);
        assert!(index.taggers_of(&act(1, 1)).is_empty());
        assert!(index.apply_deltas(std::iter::empty()).is_empty());
    }

    #[test]
    fn dictionary_tail_ids_route_into_the_last_shard() {
        let d = dataset();
        let mut index = ActionIndex::build_with_shards(&d, 3);
        let frozen = index.dictionary().frozen_len();
        // act(0,0) sorts before every frozen key: it must become a tail id
        // and still land in a shard.
        let outcome = index.apply_deltas([(UserId(1), &[act(0, 0)][..])]);
        assert_eq!(outcome.changed, vec![UserId(1)]);
        assert_eq!(index.dictionary().frozen_len(), frozen);
        assert_eq!(index.dictionary().len(), frozen + 1);
        assert_eq!(index.taggers_of(&act(0, 0)), vec![1]);
        let mut d2 = d.clone();
        d2.profile_mut(UserId(1)).insert(act(0, 0));
        // Posting-level equality with a fresh build still holds even though
        // the id assignment differs (tail vs frozen).
        for (_, profile) in d2.iter() {
            for action in profile.iter() {
                assert_eq!(
                    index.taggers_of(action),
                    ActionIndex::build(&d2).taggers_of(action),
                    "{action}"
                );
            }
        }
        assert_eq!(
            index.distinct_actions(),
            ActionIndex::build(&d2).distinct_actions()
        );
    }

    #[test]
    fn resolve_reflects_deltas_and_departures() {
        // A patched index resolves every user as a fresh build over the
        // changed profiles does, and a departed user leaves every network.
        let mut d = dataset();
        let mut index = ActionIndex::build_with_shards(&d, 2);
        let delta = [act(9, 9), act(3, 3)];
        index.apply_deltas([(UserId(1), &delta[..])]);
        d.profile_mut(UserId(1)).extend(delta);
        let old = d.profile(UserId(2)).clone();
        index.remove_user(UserId(2), &old);
        *d.profile_mut(UserId(2)) = Profile::new();
        let fresh = ActionIndex::build(&d);
        let mut scratch = SimilarityScratch::new(d.num_users());
        for user in d.users() {
            let resolved = index.top_similar(&d, user, 10, &mut scratch);
            assert_eq!(
                resolved,
                fresh.top_similar(&d, user, 10, &mut scratch),
                "{user}"
            );
            assert!(!resolved.iter().any(|&(peer, _)| peer == UserId(2)));
        }
        assert_eq!(
            index.top_similar(&d, UserId(1), 10, &mut scratch),
            vec![(UserId(0), 3)]
        );
    }

    #[test]
    fn wide_directory_fallback_preserves_random_access() {
        // One shard, 70 distinct actions, each tagged by 1500 users: any
        // 64-slot directory window spans far more than u16::MAX blob bytes,
        // forcing the per-shard Wide fallback. Random access and the
        // counting sweep must be unaffected.
        let num_users = 1500u32;
        let profiles: Vec<Profile> = (0..num_users)
            .map(|_| Profile::from_actions((0..70u32).map(|i| act(i, 1))))
            .collect();
        let d = Dataset::new(profiles, 100, 10);
        let index = ActionIndex::build_with_shards(&d, 1);
        let all: Vec<u32> = (0..num_users).collect();
        for i in (0..70u32).step_by(13) {
            assert_eq!(index.taggers_of(&act(i, 1)), all, "action {i}");
        }
        let memory = index.memory();
        // The wide fallback pays 4 bytes per group, i.e. 0.5 per slot.
        assert_eq!(
            memory.directory_bytes,
            70usize.div_ceil(IDS_PER_GROUP) * 4,
            "expected the absolute-u32 fallback directory"
        );
        let mut scratch = SimilarityScratch::new(d.num_users());
        let swept = index.top_similar(&d, UserId(0), 5, &mut scratch);
        assert_eq!(swept.len(), 5);
        assert_eq!(swept[0], (UserId(1), 70), "full overlap with every peer");
    }

    #[test]
    fn compact_directory_beats_absolute_u32_layout() {
        // Paper-shaped sparse postings keep every 64-slot window narrow, so
        // the anchored u16 directory must engage and undercut the 4-bytes-
        // per-group absolute layout.
        let profiles: Vec<Profile> = (0..300u32)
            .map(|u| Profile::from_actions((0..5u32).map(|i| act(u * 5 + i, 1))))
            .collect();
        let d = Dataset::new(profiles, 2000, 10);
        let index = ActionIndex::build_with_shards(&d, 1);
        let memory = index.memory();
        let groups = 1500usize.div_ceil(IDS_PER_GROUP);
        assert!(
            memory.directory_bytes < groups * 4,
            "compact directory ({}) must undercut the absolute-u32 layout ({})",
            memory.directory_bytes,
            groups * 4
        );
    }

    #[test]
    fn rebuild_checksums_are_identical_across_shard_layouts() {
        // The posting content of the index is a pure function of the
        // dataset: any shard layout must produce byte-identical posting
        // runs per action (the shard split moves only blob boundaries).
        let d = dataset();
        let actions: Vec<TaggingAction> = d.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let reference: Vec<Vec<u32>> = {
            let index = ActionIndex::build_with_shards(&d, 1);
            actions.iter().map(|a| index.taggers_of(a)).collect()
        };
        for shards in [2, 3, 4, 6] {
            let index = ActionIndex::build_with_shards(&d, shards);
            for (action, taggers) in actions.iter().zip(&reference) {
                assert_eq!(
                    index.taggers_of(action),
                    *taggers,
                    "{action}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn memory_report_accounts_all_columns() {
        let d = dataset();
        let index = ActionIndex::build(&d);
        let memory = index.memory();
        assert_eq!(memory.distinct_actions, 5);
        assert_eq!(memory.postings, 8);
        assert_eq!(
            memory.total_bytes,
            memory.dictionary_bytes + memory.directory_bytes + memory.postings_bytes
        );
        assert_eq!(memory.csr_equivalent_bytes, 5 * 12 + 8 * 4);
        assert!(memory.total_bytes > 0);
    }
}
