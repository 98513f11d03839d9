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
//! * the key column is the dictionary itself — delta-varint compressed,
//!   ~2–3 bytes per key instead of the 8-byte packed `u64`s of the first
//!   index generation;
//! * posting lookup is *positional*: an action id maps straight to its slot
//!   in an id-range shard, no per-action key search;
//! * each posting list is stored as a **group-varint run** of ascending
//!   user ids (`[byte-length][first id: LEB128][deltas: group-varint]`,
//!   four deltas per control byte — see `p3q_trace::codec`), ~1–3 bytes
//!   per posting instead of 4, decoded four-at-a-time on the hot paths;
//! * random access goes through a two-level **group offset directory**:
//!   one absolute `u32` anchor every [`GROUPS_PER_ANCHOR`] groups (= 64
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
//! [`TARGET_KEYS_PER_SHARD`] ids each). Profile dynamics (Section 3.4.1:
//! users keep tagging) no longer force a rebuild:
//!
//! * [`ActionIndex::apply_deltas`] interns any genuinely new actions into
//!   the dictionary tail, then decodes, patches and **recompresses only the
//!   shards containing the touched ids**. A batch of `D` new actions costs
//!   `O(D log D + Σ |touched shard|)` — untouched shards are never read.
//! * [`ActionIndex::remove_user`] handles churn (departures) the same way:
//!   only the shards holding the departed profile's ids are recompressed,
//!   and the **dirty set** (everyone who shared an action with the departed
//!   user) comes back for re-scoring through
//!   [`crate::baseline::IdealNetworks::recompute_dirty`].
//! * [`ActionIndex::apply_deltas`] goes further and returns a
//!   [`DeltaOutcome`]: the changing users plus the exact `(affected,
//!   changed)` pairs whose score grew. Because additions only *increase*
//!   scores, [`crate::baseline::IdealNetworks::apply_change_batch`] can
//!   patch a lightly affected user's network from a few pair merges and
//!   reserve full counting sweeps for the changing users — provably
//!   matching a from-scratch
//!   [`crate::baseline::IdealNetworks::compute`].
//!
//! The per-user loop is embarrassingly parallel and runs through
//! [`p3q_sim::parallel_map_chunks`], which guarantees output identical for
//! every worker-thread count (set `P3Q_THREADS=1` to pin).
//!
//! ## On-demand resolution: one user, straight off the shards
//!
//! The dense sweep above is the right shape when *every* network is needed
//! (a global [`crate::baseline::IdealNetworks::compute`]). When only the
//! users who actually issue queries matter, [`ActionIndex::resolve_top_similar`]
//! answers a single "top-k most similar peers of `u`" without any dense
//! per-population state: it opens one [`PostingCursor`] per action of `u`'s
//! profile — each lazily delta-varint-decoding its compressed posting run in
//! ascending user-id order — and drives `p3q_topk::streaming_count_topk`
//! over them, Fagin-style threshold termination included. Users sharing
//! nothing with `u` are never touched, and the scan stops early once the
//! threshold bound proves the top-k final. The result is byte-identical to
//! the [`Self::top_similar`] sweep; [`crate::resolver::OnDemandNetworks`]
//! adds per-user memoization with exact [`DeltaOutcome`]-driven
//! invalidation on top.

use p3q_trace::codec::{
    decode_group, encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded, read_varint,
    write_varint, VarintReader, GROUP_DECODE_SLACK, GROUP_SIZE,
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
/// (full re-score) instead, which costs only the posting length.
const PAIR_EMISSION_CAP: usize = 4096;

/// Scratch space for one scoring sweep: a dense per-user counter, the list
/// of touched slots so that clearing costs `O(touched)`, and a reusable
/// action-id buffer for the profile being scored.
#[derive(Debug, Clone)]
pub struct SimilarityScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
    ids: Vec<u32>,
}

impl SimilarityScratch {
    /// Creates scratch space for a population of `num_users`.
    pub fn new(num_users: usize) -> Self {
        Self {
            counts: vec![0; num_users],
            touched: Vec::new(),
            ids: Vec::new(),
        }
    }
}

/// The exact effect of one delta batch on pairwise similarity scores,
/// returned by [`ActionIndex::apply_deltas`].
///
/// Additions can only increase scores, so this is a complete description of
/// what moved: a changing user's score may have grown against anyone, while
/// a non-changing user's score grew only against the partners listed for
/// her in `pairs` — which is what lets
/// [`crate::baseline::IdealNetworks::apply_change_batch`] patch most
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
    /// × gainers beyond [`PAIR_EMISSION_CAP`]), reported for full
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Default)]
struct PostingShard {
    start_id: usize,
    num_ids: usize,
    directory: GroupDirectory,
    blob: Vec<u8>,
}

impl PostingShard {
    /// Builds a shard from decoded posting lists (empty lists allowed).
    fn encode(start_id: usize, postings: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(postings.len().div_ceil(IDS_PER_GROUP));
        let mut blob = Vec::new();
        let mut run = Vec::new();
        for (rel, posting) in postings.iter().enumerate() {
            if rel % IDS_PER_GROUP == 0 {
                offsets.push(u32::try_from(blob.len()).expect("shard blob exceeds 4 GiB"));
            }
            run.clear();
            encode_sorted_u32s_grouped(posting, &mut run);
            write_varint(run.len() as u64, &mut blob);
            blob.extend_from_slice(&run);
        }
        // Decode slack: every run's backing slice reaches this far past its
        // logical end, so the counting sweep's fused kernel never needs a
        // bounds-checked tail path (see `for_each_sorted_u32_grouped_padded`).
        blob.resize(blob.len() + GROUP_DECODE_SLACK, 0);
        Self {
            start_id,
            num_ids: postings.len(),
            directory: GroupDirectory::from_offsets(offsets),
            blob,
        }
    }

    /// Byte range of the posting at relative slot `rel`, plus nothing else:
    /// walks at most `IDS_PER_GROUP - 1` length prefixes from the group
    /// start.
    fn posting_bytes(&self, rel: usize) -> &[u8] {
        let (bytes, len) = self.posting_run(rel);
        &bytes[..len]
    }

    /// The posting at relative slot `rel` as a padded run: the backing
    /// slice reaches to the end of the blob (whose trailing
    /// [`GROUP_DECODE_SLACK`] zero bytes guarantee the fused kernel's slack
    /// invariant for every run, including the last), plus the run's logical
    /// byte length.
    fn posting_run(&self, rel: usize) -> (&[u8], usize) {
        debug_assert!(rel < self.num_ids);
        let group_start = self.directory.offset(rel / IDS_PER_GROUP);
        let mut reader = VarintReader::new(&self.blob[group_start..]);
        for _ in 0..rel % IDS_PER_GROUP {
            let len = reader.next_varint().expect("slot inside the shard") as usize;
            reader.skip(len);
        }
        let len = reader.next_varint().expect("slot inside the shard") as usize;
        let pos = self.blob.len() - reader.remaining();
        (&self.blob[pos..], len)
    }

    /// Decodes the posting at relative slot `rel`.
    fn posting(&self, rel: usize) -> impl Iterator<Item = u32> + '_ {
        let bytes = self.posting_bytes(rel);
        decode_run(bytes)
    }

    /// Decodes every posting list into owned vectors (the mutation path).
    fn decode_all(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::with_capacity(self.num_ids);
        let mut pos = 0usize;
        for _ in 0..self.num_ids {
            let len = read_varint(&self.blob, &mut pos) as usize;
            out.push(decode_run(&self.blob[pos..pos + len]).collect());
            pos += len;
        }
        out
    }
}

/// Decodes one posting run (the byte-length prefix already consumed) into
/// ascending user ids — the shared grouped-codec decoder.
fn decode_run(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    p3q_trace::codec::decode_sorted_u32s_grouped(bytes)
}

/// A counting inverted index over every distinct tagging action of a
/// dataset: dictionary-keyed, sharded by id range, postings delta-varint
/// compressed (see the module docs for the storage model).
///
/// Building the index costs one sort of the `(action, user)` pairs —
/// `O(A log A)` for `A` total actions — after which profile dynamics are
/// absorbed by [`Self::apply_deltas`] / [`Self::remove_user`] at the cost
/// of recompressing only the affected shards.
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
    /// distinct actions (about [`TARGET_KEYS_PER_SHARD`] ids per shard, at
    /// most [`MAX_SHARDS`]).
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_shards(dataset, 0)
    }

    /// [`Self::build`] with an explicit shard count (`0` derives it from the
    /// dataset size). Exposed for tests and tuning; the shard count changes
    /// only the incremental-update granularity, never any query result.
    pub fn build_with_shards(dataset: &Dataset, num_shards: usize) -> Self {
        // One sort of the (key, user) pairs yields everything at once: the
        // sorted distinct keys *are* the dictionary (rank = id), and
        // replacing each key by its running rank turns the pairs into
        // (id, user) postings — no per-action dictionary lookups.
        let total: usize = dataset.iter().map(|(_, p)| p.len()).sum();
        let mut key_pairs: Vec<(u64, u32)> = Vec::with_capacity(total);
        for (user, profile) in dataset.iter() {
            for action in profile.iter() {
                key_pairs.push((p3q_trace::action_key(action), user.0));
            }
        }
        key_pairs.sort_unstable();

        let mut keys: Vec<u64> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(key_pairs.len());
        for (key, user) in key_pairs {
            if keys.last() != Some(&key) {
                keys.push(key);
            }
            pairs.push((u32::try_from(keys.len() - 1).expect("id overflow"), user));
        }
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

        let mut shards = Vec::with_capacity(shard_count);
        let mut cursor = 0usize;
        for s in 0..shard_count {
            let lo = (s * span).min(distinct);
            let hi = ((s + 1) * span).min(distinct);
            let mut postings: Vec<Vec<u32>> = vec![Vec::new(); hi - lo];
            while cursor < pairs.len() && (pairs[cursor].0 as usize) < hi {
                let (id, user) = pairs[cursor];
                postings[id as usize - lo].push(user);
                cursor += 1;
            }
            shards.push(PostingShard::encode(lo, &postings));
        }
        Self {
            dict,
            shards,
            span,
            num_users: dataset.num_users(),
            live_keys: distinct,
            num_postings: pairs.len(),
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
        shard.posting(rel).collect()
    }

    /// Patches the index with one user's newly added tagging actions and
    /// returns the effects (see [`Self::apply_deltas`]).
    pub fn apply_delta(&mut self, user: UserId, new_actions: &[TaggingAction]) -> DeltaOutcome {
        self.apply_deltas(std::iter::once((user, new_actions)))
    }

    /// Patches the index with a batch of profile additions: for every
    /// `(user, new_actions)` pair the user is inserted into the posting
    /// lists of her new actions (genuinely new actions are interned into
    /// the dictionary tail first). Actions the user already has in the
    /// index are skipped (set semantics, matching [`Profile::extend`]), so
    /// the deltas may safely repeat existing actions.
    ///
    /// Only the shards whose id range contains a delta are decoded and
    /// recompressed; untouched shards are never read.
    ///
    /// Returns a [`DeltaOutcome`] describing exactly which pairwise scores
    /// changed: the changing users themselves (every one of their scores
    /// may have moved) and, for everyone else, the `(affected, changed)`
    /// pairs whose overlap grew. Since additions can only *increase*
    /// scores, that is all the information needed to update the ideal
    /// networks exactly — see
    /// [`crate::baseline::IdealNetworks::apply_change_batch`].
    ///
    /// # Panics
    /// Panics if a delta names a user outside the indexed population.
    pub fn apply_deltas<'a, I>(&mut self, deltas: I) -> DeltaOutcome
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
            // into it and merge_into_shard grows it with empty slots during
            // the same recompression pass.
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
        // too — changing users are fully re-swept downstream regardless.
        score_pairs.retain(|&(affected, _)| changed.binary_search(&affected).is_err());
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
    /// deleted from exactly those actions' lists. Only the shards covering
    /// her ids are recompressed; an emptied posting list stops counting as
    /// a distinct action (a from-scratch build would not contain it).
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

    /// Scores `profile` against every indexed user in one counting sweep.
    ///
    /// After the call, `scratch.counts[v]` holds `|profile ∩ Profile(v)|`
    /// for every user `v` in `scratch.touched` (slots outside `touched` are
    /// zero). `exclude` removes one user (the profile's owner) from the
    /// result. The caller must drain the scratch through
    /// [`Self::collect_top`] or clear it via the next `accumulate` call —
    /// the sweep starts by resetting only previously touched slots.
    pub fn accumulate(&self, profile: &Profile, exclude: UserId, scratch: &mut SimilarityScratch) {
        // Intern the profile once (sorted dense ids), then every posting
        // lookup is positional: shard by id range, slot by offset — no
        // per-action key search.
        self.dict.ids_of_profile_into(profile, &mut scratch.ids);

        debug_assert_eq!(scratch.counts.len(), self.num_users);
        for &slot in &scratch.touched {
            scratch.counts[slot as usize] = 0;
        }
        scratch.touched.clear();

        let counts = &mut scratch.counts;
        let touched = &mut scratch.touched;
        for &id in &scratch.ids {
            let shard = &self.shards[self.shard_of(id as usize)];
            let rel = id as usize - shard.start_id;
            if rel >= shard.num_ids {
                continue;
            }
            // Fused group-varint decode, four posting deltas per control
            // byte, every load bounds-check-free thanks to the blob's
            // decode slack — this loop carries the whole counting sweep.
            let (bytes, run_len) = shard.posting_run(rel);
            for_each_sorted_u32_grouped_padded(bytes, run_len, |user| {
                bump_count(counts, touched, exclude.0, user);
            });
        }
    }

    /// Extracts the top-`network_size` scored users from a finished sweep:
    /// `(user, score)` pairs with positive scores, in descending score order
    /// with ties broken by ascending user id — exactly the ideal
    /// personal-network ordering of [`crate::baseline::IdealNetworks`].
    pub fn collect_top(
        &self,
        network_size: usize,
        scratch: &mut SimilarityScratch,
    ) -> Vec<(UserId, u64)> {
        if network_size == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(UserId, u64)> = scratch
            .touched
            .iter()
            .map(|&user| (UserId(user), u64::from(scratch.counts[user as usize])))
            .collect();
        let by_rank = |a: &(UserId, u64), b: &(UserId, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > network_size {
            // Partial selection: only the retained prefix needs a full sort.
            scored.select_nth_unstable_by(network_size - 1, by_rank);
            scored.truncate(network_size);
        }
        scored.sort_unstable_by(by_rank);
        scored
    }

    /// Resolves the top-`network_size` most similar users to `user` **on
    /// demand**, without the dense per-population accumulator: one
    /// [`PostingCursor`] per profile action streams its compressed posting
    /// run into `p3q_topk::streaming_count_topk`, which merges the cursors
    /// in ascending user-id order and early-terminates once the threshold
    /// bound proves the top-k final.
    ///
    /// The ranking is byte-identical to [`Self::top_similar`] (score
    /// descending, ties by ascending id, positive scores only, truncated to
    /// `network_size`); the returned [`ResolveProbe`] reports how much
    /// posting mass the threshold actually had to scan.
    pub fn resolve_top_similar(
        &self,
        dataset: &Dataset,
        user: UserId,
        network_size: usize,
    ) -> (Vec<(UserId, u64)>, ResolveProbe) {
        let mut ids = Vec::new();
        self.dict
            .ids_of_profile_into(dataset.profile(user), &mut ids);
        let sources: Vec<PostingCursor<'_>> = ids
            .iter()
            .filter_map(|&id| {
                let shard = &self.shards[self.shard_of(id as usize)];
                let rel = id as usize - shard.start_id;
                (rel < shard.num_ids).then(|| PostingCursor::new(shard.posting_bytes(rel), user.0))
            })
            .collect();
        let outcome = p3q_topk::streaming_count_topk(sources, network_size);
        let probe = ResolveProbe {
            positions_scanned: outcome.positions_scanned,
            early_terminated: outcome.early_terminated,
        };
        let ranking = outcome
            .ranking
            .into_iter()
            .map(|(raw, count)| (UserId(raw), count))
            .collect();
        (ranking, probe)
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

/// Scan accounting of one [`ActionIndex::resolve_top_similar`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveProbe {
    /// Posting entries decoded across all of the profile's cursors.
    pub positions_scanned: usize,
    /// `true` when the threshold bound stopped the merge before the posting
    /// runs were exhausted.
    pub early_terminated: bool,
}

/// A lazily decoding cursor over one compressed posting run: yields the
/// ascending user ids of the `[first: LEB128][deltas: group-varint]` bytes
/// one at a time (buffering one decoded group), skipping `exclude` (the
/// profile's owner) — the sorted-access source
/// [`ActionIndex::resolve_top_similar`] feeds into
/// `p3q_topk::streaming_count_topk`. Decoding is incremental, so an
/// early-terminated merge never pays for the posting tail.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    buf: [u32; GROUP_SIZE],
    buf_len: u8,
    buf_pos: u8,
    prev: u32,
    first: bool,
    exclude: u32,
}

impl<'a> PostingCursor<'a> {
    /// Opens a cursor over one posting's run bytes (the byte-length prefix
    /// already consumed, as returned by `posting_bytes`).
    fn new(bytes: &'a [u8], exclude: u32) -> Self {
        Self {
            bytes,
            pos: 0,
            buf: [0; GROUP_SIZE],
            buf_len: 0,
            buf_pos: 0,
            prev: 0,
            first: true,
            exclude,
        }
    }
}

impl Iterator for PostingCursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.first {
                if self.bytes.is_empty() {
                    return None;
                }
                self.first = false;
                self.prev = read_varint(self.bytes, &mut self.pos) as u32;
            } else {
                if self.buf_pos == self.buf_len {
                    self.buf_len = decode_group(self.bytes, &mut self.pos, &mut self.buf) as u8;
                    self.buf_pos = 0;
                    if self.buf_len == 0 {
                        return None;
                    }
                }
                self.prev += self.buf[self.buf_pos as usize];
                self.buf_pos += 1;
            }
            if self.prev != self.exclude {
                return Some(self.prev);
            }
        }
    }
}

/// Bumps one posting member's sweep counter, tracking first touches.
#[inline]
fn bump_count(counts: &mut [u32], touched: &mut Vec<u32>, exclude: u32, user: u32) {
    if user == exclude {
        return;
    }
    let slot = &mut counts[user as usize];
    if *slot == 0 {
        touched.push(user);
    }
    *slot += 1;
}

/// Sorts, dedups and wraps a raw dirty-user accumulation.
fn finish_dirty(mut dirty: Vec<u32>) -> Vec<UserId> {
    dirty.sort_unstable();
    dirty.dedup();
    dirty.into_iter().map(UserId).collect()
}

/// Merges sorted, deduplicated delta `(id, user)` pairs into one shard (all
/// ids must fall in its range) by decoding, patching and recompressing it.
/// Every id that genuinely gains a tagger reports its gainers into
/// `changed` and the `(posting member, gainer)` pairs whose score grew into
/// `score_pairs` — unless the id is so popular that the pair product
/// exceeds [`PAIR_EMISSION_CAP`], in which case its posting members go to
/// `resweep` instead. Returns how many previously empty postings became
/// non-empty (the live-key delta).
fn merge_into_shard(
    shard: &mut PostingShard,
    pairs: &[(u32, u32)],
    changed: &mut Vec<u32>,
    score_pairs: &mut Vec<(u32, u32)>,
    resweep: &mut Vec<u32>,
) -> usize {
    let mut postings = shard.decode_all();
    // Tail ids interned by this batch may reach past the (open-above) last
    // shard's current coverage: grow it with empty slots in the same
    // recompression pass.
    let max_rel = pairs.last().expect("merge called with deltas").0 as usize - shard.start_id;
    if max_rel >= postings.len() {
        postings.resize(max_rel + 1, Vec::new());
    }
    let mut went_live = 0usize;
    let mut gainers: Vec<u32> = Vec::new();

    let mut j = 0usize;
    while j < pairs.len() {
        let id = pairs[j].0;
        let rel = id as usize - shard.start_id;
        let delta_lo = j;
        while j < pairs.len() && pairs[j].0 == id {
            j += 1;
        }
        let delta = &pairs[delta_lo..j];
        let posting = &mut postings[rel];
        let was_empty = posting.is_empty();

        // Two-pointer union of the old posting list and the delta users;
        // a delta user already present is a duplicate action and adds
        // nothing.
        gainers.clear();
        let mut merged = Vec::with_capacity(posting.len() + delta.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < posting.len() || b < delta.len() {
            match (
                (a < posting.len()).then(|| posting[a]),
                (b < delta.len()).then(|| delta[b].1),
            ) {
                (Some(x), Some(y)) if x < y => {
                    merged.push(x);
                    a += 1;
                }
                (Some(x), Some(y)) if x > y => {
                    merged.push(y);
                    b += 1;
                    gainers.push(y);
                }
                (Some(x), Some(_)) => {
                    merged.push(x);
                    a += 1;
                    b += 1;
                }
                (Some(x), None) => {
                    merged.push(x);
                    a += 1;
                }
                (None, Some(y)) => {
                    merged.push(y);
                    b += 1;
                    gainers.push(y);
                }
                (None, None) => unreachable!("loop condition guarantees a side"),
            }
        }
        *posting = merged;
        if was_empty && !posting.is_empty() {
            went_live += 1;
        }
        if !gainers.is_empty() {
            changed.extend_from_slice(&gainers);
            // Everyone on the final posting list now overlaps each gainer
            // on this key; their pairwise scores grew by one. Pairs whose
            // affected side is itself a gainer are skipped — gainers get a
            // full sweep downstream anyway — so they neither bloat the
            // outcome nor count toward the emission cap.
            let affected_members = posting.len() - gainers.len();
            if affected_members.saturating_mul(gainers.len()) > PAIR_EMISSION_CAP {
                resweep.extend_from_slice(posting);
            } else {
                for &member in posting.iter() {
                    // `gainers` is in ascending user order (it follows the
                    // sorted delta pairs), so membership is a binary search.
                    if gainers.binary_search(&member).is_ok() {
                        continue;
                    }
                    for &gainer in &gainers {
                        score_pairs.push((member, gainer));
                    }
                }
            }
        }
    }
    *shard = PostingShard::encode(shard.start_id, &postings);
    went_live
}

/// Removes `user` from the posting lists of `ids` (sorted, all inside this
/// shard's range) by decoding, stripping and recompressing the shard. Every
/// posting list the user was actually on contributes its pre-removal
/// members to `dirty`. Returns `(emptied postings, removed entries)` — the
/// live-key and posting-count deltas.
fn strip_user_from_shard(
    shard: &mut PostingShard,
    ids: &[u32],
    user: u32,
    dirty: &mut Vec<u32>,
) -> (usize, usize) {
    let mut postings = shard.decode_all();
    let mut emptied = 0usize;
    let mut removed = 0usize;
    for &id in ids {
        let rel = id as usize - shard.start_id;
        let posting = &mut postings[rel];
        if let Ok(pos) = posting.binary_search(&user) {
            dirty.extend_from_slice(posting);
            posting.remove(pos);
            removed += 1;
            if posting.is_empty() {
                emptied += 1;
            }
        }
    }
    *shard = PostingShard::encode(shard.start_id, &postings);
    (emptied, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::{ItemId, TagId};

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
            let outcome = index.apply_delta(UserId(3), &delta);
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
        let outcome = index.apply_delta(UserId(0), &[act(1, 1), act(2, 2)]);
        assert!(outcome.is_empty());
        assert!(outcome.dirty_users().is_empty());
        assert_matches_fresh_build(&index, &d);
        assert!(index.apply_delta(UserId(1), &[]).is_empty());
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
        let outcome = index.apply_delta(UserId(0), &actions);
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
        let mut ideal = crate::baseline::IdealNetworks::compute_with_threads(&d, 5, 1);

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
        ideal.apply_delta_outcome(&d, &index, &outcome, 1);
        let oracle = crate::baseline::IdealNetworks::compute_with_threads(&d, 5, 1);
        for user in d.users() {
            assert_eq!(ideal.network_of(user), oracle.network_of(user), "{user}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn delta_for_out_of_range_user_is_rejected() {
        let d = dataset();
        let mut index = ActionIndex::build(&d);
        let _ = index.apply_delta(UserId(99), &[act(1, 1)]);
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
        let outcome = index.apply_delta(UserId(1), &[act(0, 0)]);
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
    fn resolve_top_similar_matches_the_dense_sweep() {
        let d = dataset();
        for shards in [1, 2, 4] {
            let index = ActionIndex::build_with_shards(&d, shards);
            let mut scratch = SimilarityScratch::new(d.num_users());
            for user in d.users() {
                for k in [0, 1, 3, 10] {
                    let swept = index.top_similar(&d, user, k, &mut scratch);
                    let (resolved, probe) = index.resolve_top_similar(&d, user, k);
                    assert_eq!(resolved, swept, "user {user}, k {k}, {shards} shards");
                    if k > 0 && !swept.is_empty() {
                        assert!(probe.positions_scanned > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_reflects_deltas_and_departures() {
        let mut d = dataset();
        let mut index = ActionIndex::build_with_shards(&d, 2);
        let delta = [act(9, 9), act(3, 3)];
        index.apply_delta(UserId(1), &delta);
        d.profile_mut(UserId(1)).extend(delta);
        let (resolved, _) = index.resolve_top_similar(&d, UserId(1), 10);
        let mut scratch = SimilarityScratch::new(d.num_users());
        assert_eq!(resolved, index.top_similar(&d, UserId(1), 10, &mut scratch));

        let old = d.profile(UserId(2)).clone();
        index.remove_user(UserId(2), &old);
        *d.profile_mut(UserId(2)) = Profile::new();
        for user in d.users() {
            let (resolved, _) = index.resolve_top_similar(&d, user, 10);
            assert_eq!(
                resolved,
                index.top_similar(&d, user, 10, &mut scratch),
                "{user}"
            );
            assert!(!resolved.iter().any(|&(peer, _)| peer == UserId(2)));
        }
    }

    #[test]
    fn wide_directory_fallback_preserves_random_access() {
        // One shard, 70 distinct actions, each tagged by 1500 users: any
        // 64-slot directory window spans far more than u16::MAX blob bytes,
        // forcing the per-shard Wide fallback. Random access, the counting
        // sweep and on-demand resolution must be unaffected.
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
        let (resolved, _) = index.resolve_top_similar(&d, UserId(0), 5);
        assert_eq!(resolved, swept);
        assert_eq!(swept[0].1, 70, "full overlap with every peer");
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
