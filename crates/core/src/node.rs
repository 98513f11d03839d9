//! Per-user protocol state: own profile, personal network, random view and
//! bounded profile storage.
//!
//! A peer enters or moves in the personal network through one door,
//! `P3qNode::admit`: gossip offers, random-view probes and the
//! ideal-network install all score the peer first and then hand it over
//! with its offer. Admission applies the storage rule too, so only the `c`
//! most similar neighbours hold a full profile copy.
//!
//! Profiles and digests are held as [`SharedProfile`] / [`SharedFilter`]
//! handles: every copy that travels between nodes inside the simulator is a
//! reference bump, and the wire-cost accounting stays a separate concern of
//! the bandwidth model.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use p3q_bloom::{BloomFilter, ProbeSet, SharedFilter};
use p3q_gossip::{AgedView, ScoredView};
use p3q_sim::{Fingerprint, Fnv};
use p3q_trace::{ItemId, Profile, SharedProfile, TaggingAction, UserId};

use crate::lazy::ProfileOffer;
use crate::query::{QuerierState, QueryId, RemainingTask};

/// Digest metadata carried by random-view entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestInfo {
    /// The peer's profile digest (Bloom filter over its items).
    pub digest: SharedFilter,
    /// Version of the peer's profile when the digest was taken.
    pub version: u64,
}

/// Narrows a protocol-level `u64` profile version to the compact `u32` the
/// view entries store. Versions bump once per profile-dynamics batch, so
/// `u32` is ample; fail loudly rather than silently wrapping.
#[inline]
fn compact_version(version: u64) -> u32 {
    u32::try_from(version).expect("profile versions are bounded by dynamics batches (u32)")
}

/// A `HashMap` that allocates only on first write.
///
/// Query state (`querier_states`, `tasks`) is empty on the overwhelming
/// majority of nodes at any instant — a plain `HashMap` still costs 48
/// bytes of struct per map per node. `LazyMap` boxes the map behind an
/// `Option` (8 bytes when empty) and exposes the `HashMap` subset the
/// query drivers use, so the call sites read exactly like before.
#[derive(Debug, Clone, Default)]
pub struct LazyMap<K, V> {
    // The Box is deliberate: Option<HashMap> would keep the full 48-byte
    // map struct inline in every node; the pointer keeps the empty (and
    // overwhelmingly common) case at 8 bytes.
    #[allow(clippy::box_collection)]
    inner: Option<Box<HashMap<K, V>>>,
}

impl<K: std::hash::Hash + Eq, V> LazyMap<K, V> {
    /// Creates an empty map (no allocation).
    pub fn new() -> Self {
        Self { inner: None }
    }

    fn force(&mut self) -> &mut HashMap<K, V> {
        self.inner.get_or_insert_with(Box::default)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.len())
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.force().insert(key, value)
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.as_ref()?.get(key)
    }

    /// Mutable value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.as_mut()?.get_mut(key)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.as_mut()?.remove(key)
    }

    /// Returns `true` if `key` is present.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.inner.as_ref().is_some_and(|m| m.contains_key(key))
    }

    /// Iterates over `(key, value)` pairs (arbitrary order, like `HashMap`).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        // p3q-allow: hash-iter — LazyMap deliberately forwards HashMap's
        // arbitrary order; plan/commit call sites must sort or annotate.
        self.inner.iter().flat_map(|m| m.iter())
    }

    /// Iterates over the keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over the values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over the values, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        // p3q-allow: hash-iter — LazyMap deliberately forwards HashMap's
        // arbitrary order; plan/commit call sites must sort or annotate.
        self.inner.iter_mut().flat_map(|m| m.values_mut())
    }

    /// The entry API of the underlying map (allocates it if needed).
    pub fn entry(&mut self, key: K) -> std::collections::hash_map::Entry<'_, K, V> {
        self.force().entry(key)
    }

    /// Keeps only the entries `pred` approves.
    pub fn retain(&mut self, pred: impl FnMut(&K, &mut V) -> bool) {
        if let Some(m) = self.inner.as_mut() {
            m.retain(pred);
        }
    }

    /// Resident bytes: the boxed map's entry array (approximated by the
    /// entry count) when allocated, nothing otherwise.
    pub fn storage_bytes(&self) -> usize {
        match &self.inner {
            Some(m) => {
                std::mem::size_of::<HashMap<K, V>>() + m.len() * std::mem::size_of::<(K, V)>()
            }
            None => 0,
        }
    }
}

impl<'a, K: std::hash::Hash + Eq, V> IntoIterator for &'a LazyMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::FlatMap<
        std::option::Iter<'a, Box<HashMap<K, V>>>,
        std::collections::hash_map::Iter<'a, K, V>,
        fn(&'a Box<HashMap<K, V>>) -> std::collections::hash_map::Iter<'a, K, V>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        // p3q-allow: hash-iter — LazyMap deliberately forwards HashMap's
        // arbitrary order; plan/commit call sites must sort or annotate.
        self.inner.iter().flat_map(|m| m.iter())
    }
}

impl<K: std::hash::Hash + Eq, V> std::ops::Index<&K> for LazyMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

/// Metadata attached to every personal-network neighbour.
///
/// The cached profile copy and the digest may legitimately sit at different
/// versions: gossip refreshes digests (cheap, every exchange) more often
/// than full profiles (step 3 of Algorithm 1, budget-gated). A copy whose
/// `profile_version` lags `digest_version` is **stale** — it is kept for
/// refresh accounting (Table 2, the AUR metric) and as gossip payload, but
/// query scoring must not silently treat it as current; use
/// `has_fresh_profile` to tell the two states apart.
///
/// Versions are stored as `u32` (they bump once per dynamics batch), which
/// packs one personal-network entry into 40 bytes instead of the 48 of the
/// previous `u64` layout — at `s = 1000` paper scale that is the dominant
/// term of a node's protocol-state footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighbourInfo {
    /// The neighbour's profile digest.
    pub digest: SharedFilter,
    /// Version of the neighbour's profile when the digest was taken.
    pub digest_version: u32,
    /// Cached copy of the neighbour's full profile, present only for the `c`
    /// most similar neighbours (the node's storage budget).
    pub profile: Option<SharedProfile>,
    /// Version of the neighbour's profile when the cached copy was taken.
    pub profile_version: u32,
}

impl NeighbourInfo {
    /// Metadata for a neighbour known only by digest.
    pub fn digest_only(digest: impl Into<SharedFilter>, version: u64) -> Self {
        Self {
            digest: digest.into(),
            digest_version: compact_version(version),
            profile: None,
            profile_version: 0,
        }
    }

    /// Drops the cached profile copy, if any.
    fn drop_profile(&mut self) {
        self.profile = None;
        self.profile_version = 0;
    }

    /// Returns `true` if a full profile copy is cached **and** it is at
    /// least as new as the freshest digest seen for this neighbour — i.e.
    /// the copy is safe to score queries against.
    pub(crate) fn has_fresh_profile(&self) -> bool {
        self.profile.is_some() && self.profile_version >= self.digest_version
    }
}

/// What [`P3qNode::admit`] did with a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The personal network is full of better neighbours.
    Rejected,
    /// The peer is in the personal network; no profile was stored.
    Kept,
    /// The peer is in the personal network and its offered profile was
    /// stored.
    Stored,
}

/// The complete local state of one P3Q user (Figure 1 of the paper).
#[derive(Debug, Clone)]
pub struct P3qNode {
    /// The user this node belongs to.
    pub id: UserId,
    profile: SharedProfile,
    /// Stored compact (`u32`): versions bump once per dynamics batch.
    profile_version: u32,
    /// Lazily (re)built digest: profile dynamics only clear this cell, and
    /// the next read rebuilds it — a batch of `add_tagging_actions` calls
    /// costs one Bloom construction instead of one per call.
    digest: OnceLock<SharedFilter>,
    /// The profile's distinct items hashed for the digest geometry — like
    /// `digest` a function of the profile alone, built on first use and
    /// cleared wherever `digest` is.
    probes: OnceLock<Arc<ProbeSet>>,
    digest_bits: u32,
    digest_hashes: u32,
    storage_budget: u32,
    /// The personal network: up to `s` most similar neighbours.
    pub personal_network: ScoredView<UserId, NeighbourInfo>,
    /// The random view maintained by the peer-sampling layer.
    pub random_view: AgedView<UserId, DigestInfo>,
    /// Queries this node issued and is still collecting results for
    /// (allocated on first query — empty on most nodes at any instant).
    pub querier_states: LazyMap<QueryId, QuerierState>,
    /// Remaining-list shares this node took over for other users' queries.
    pub tasks: LazyMap<QueryId, RemainingTask>,
}

/// A placeholder, not a user: what [`std::mem::take`] leaves in a slot while
/// its node is moved elsewhere (a transport shard lending a node to a commit
/// on another shard). It owns no heap memory — the empty profile is one
/// shared allocation — and nothing may read protocol state from it.
impl Default for P3qNode {
    fn default() -> Self {
        static EMPTY: OnceLock<SharedProfile> = OnceLock::new();
        Self {
            id: UserId(0),
            profile: EMPTY.get_or_init(SharedProfile::default).clone(),
            profile_version: 0,
            digest: OnceLock::new(),
            probes: OnceLock::new(),
            digest_bits: 0,
            digest_hashes: 0,
            storage_budget: 1,
            personal_network: ScoredView::new(1),
            random_view: AgedView::new(1),
            querier_states: LazyMap::new(),
            tasks: LazyMap::new(),
        }
    }
}

impl P3qNode {
    /// Creates a node.
    ///
    /// * `personal_network_size` — the `s` parameter;
    /// * `random_view_size` — the `r` parameter;
    /// * `storage_budget` — the `c` parameter (how many full profiles this
    ///   user is willing to store);
    /// * `digest_bits` / `digest_hashes` — Bloom-filter geometry of profile
    ///   digests.
    ///
    /// `profile` accepts either an owned [`Profile`] or an already shared
    /// handle; simulator construction passes the dataset's shared handles so
    /// no profile bytes are copied.
    pub fn new(
        id: UserId,
        profile: impl Into<SharedProfile>,
        personal_network_size: usize,
        random_view_size: usize,
        storage_budget: usize,
        digest_bits: usize,
        digest_hashes: u32,
    ) -> Self {
        let profile: SharedProfile = profile.into();
        Self {
            id,
            profile,
            profile_version: 1,
            digest: OnceLock::new(),
            probes: OnceLock::new(),
            digest_bits: u32::try_from(digest_bits).expect("digest size fits u32"),
            digest_hashes,
            storage_budget: u32::try_from(storage_budget.max(1)).expect("storage budget fits u32"),
            personal_network: ScoredView::new(personal_network_size.max(1)),
            random_view: AgedView::new(random_view_size.max(1)),
            querier_states: LazyMap::new(),
            tasks: LazyMap::new(),
        }
    }

    /// The node's own profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The node's own profile as a shareable handle (what gossip exchanges
    /// clone).
    pub fn shared_profile(&self) -> &SharedProfile {
        &self.profile
    }

    /// Monotonically increasing version of the node's own profile.
    pub fn profile_version(&self) -> u64 {
        u64::from(self.profile_version)
    }

    /// The node's own profile digest (always in sync with the profile: a
    /// read after profile dynamics rebuilds it on demand).
    pub fn digest(&self) -> &BloomFilter {
        self.shared_digest()
    }

    /// The node's own digest as a shareable handle. Like [`Self::digest`],
    /// rebuilds lazily after profile dynamics invalidated it.
    pub fn shared_digest(&self) -> &SharedFilter {
        self.digest.get_or_init(|| {
            Arc::new(
                self.profile
                    .digest(self.digest_bits as usize, self.digest_hashes),
            )
        })
    }

    /// The node's distinct items hashed for its digest geometry: the probe
    /// side of "does any of my items hit this digest?" (Algorithm 1, lines
    /// 10–11), to be tested against digests with
    /// [`BloomFilter::contains_any`]. Built on the first call after
    /// construction or after profile dynamics and kept beside the digest —
    /// every plan, offer batch and piggybacked exchange of one profile
    /// version reads the same column, and a cloned node shares it.
    pub(crate) fn item_probes(&self) -> &ProbeSet {
        self.probes.get_or_init(|| {
            Arc::new(ProbeSet::new(
                self.digest_bits as usize,
                self.digest_hashes,
                self.profile.items().map(ItemId::as_key),
            ))
        })
    }

    /// The node's storage budget `c`.
    pub fn storage_budget(&self) -> usize {
        self.storage_budget as usize
    }

    /// Adds new tagging actions to the node's own profile (profile dynamics),
    /// bumping its version and invalidating the digest (rebuilt lazily on
    /// the next read, so a batch of calls pays for one rebuild). Returns the
    /// number of genuinely new actions.
    ///
    /// If the profile is currently shared (e.g. cached by a neighbour), the
    /// copy-on-write in [`Arc::make_mut`] detaches this node's copy first,
    /// leaving the cached snapshots at their recorded versions.
    pub fn add_tagging_actions<I: IntoIterator<Item = TaggingAction>>(
        &mut self,
        actions: I,
    ) -> usize {
        let added = Arc::make_mut(&mut self.profile).extend(actions);
        if added > 0 {
            // Checked like `compact_version`: a wrapped version would make
            // this fresh profile look older than every cached copy.
            self.profile_version = self
                .profile_version
                .checked_add(1)
                .expect("profile versions are bounded by dynamics batches (u32)");
            self.digest.take();
            self.probes.take();
        }
        added
    }

    /// The node's own digest and version: what the peer-sampling layer
    /// carries for it.
    pub(crate) fn descriptor(&self) -> DigestInfo {
        DigestInfo {
            digest: self.shared_digest().clone(),
            version: self.profile_version(),
        }
    }

    /// The node's own profile as an offer, digest and copy both at its
    /// current version: what it proposes for itself in gossip, what a probe
    /// reads of it, and what the ideal-network install admits.
    pub(crate) fn own_offer(&self) -> ProfileOffer {
        ProfileOffer {
            user: self.id,
            digest: self.shared_digest().clone(),
            digest_version: self.profile_version(),
            version: self.profile_version(),
            profile: self.profile.clone(),
        }
    }

    /// Admits a peer whose exact similarity `score` is known into the
    /// personal network: steps 2–3 of Algorithm 1 after the score, for
    /// every path a peer arrives by. One scan of the view
    /// ([`ScoredView::upsert_with`]) inserts the peer or moves it to its new
    /// rank, and its metadata is merged on the way:
    ///
    /// * The digest never regresses. An offer relayed through a third party
    ///   may carry an *older* digest than the recorded one, and accepting
    ///   it would whitewash a known-stale cached copy back to fresh; such
    ///   an offer still refreshes the score.
    /// * A cached copy carries over with its own `profile_version`. If the
    ///   recorded digest is newer, the copy is **stale** and stops counting
    ///   as fresh for query scoring ([`NeighbourInfo::has_fresh_profile`])
    ///   until a newer profile is stored. It is deliberately kept: stale
    ///   copies are what the refresh metrics (Table 2, AUR) measure, and
    ///   they still feed lazy gossip.
    /// * The offered profile is stored if the peer ranks within the storage
    ///   budget `c` and the offer improves on the copy: there is none, or
    ///   it is older. A copy at the same version as a stale cache is not
    ///   re-fetched, since it would not make the cache any fresher. After a
    ///   store the storage rule runs ([`Self::enforce_storage_budget`]).
    /// * A peer that lands at rank `c` or lower keeps no copy. A relayed
    ///   older copy can score lower than the one stored and move its owner
    ///   down; that is the one way a copy crosses rank `c` without a store.
    ///
    /// So after every admission at most `c` copies are held, all ranked
    /// within `c`.
    pub(crate) fn admit(&mut self, offer: &ProfileOffer, score: u64) -> Admission {
        let c = self.storage_budget as usize;
        let digest_version = compact_version(offer.digest_version);
        let mut stored = false;
        let rank = self
            .personal_network
            .upsert_with(offer.user, score, |old, rank| {
                let mut meta = match old {
                    Some(old) if old.digest_version > digest_version => old,
                    Some(old) => NeighbourInfo {
                        digest: offer.digest.clone(),
                        digest_version,
                        ..old
                    },
                    None => NeighbourInfo::digest_only(offer.digest.clone(), offer.digest_version),
                };
                if rank >= c {
                    meta.drop_profile();
                } else if meta.profile.is_none() || u64::from(meta.profile_version) < offer.version
                {
                    meta.profile = Some(offer.profile.clone());
                    meta.profile_version = compact_version(offer.version);
                    stored = true;
                }
                meta
            });
        match rank {
            None => Admission::Rejected,
            Some(_) if stored => {
                self.enforce_storage_budget();
                Admission::Stored
            }
            Some(_) => Admission::Kept,
        }
    }

    /// Applies the storage rule: only the `c` most similar neighbours keep a
    /// cached profile copy. The view is ordered by (score descending, peer
    /// ascending), so those are its first `c` entries, and every entry from
    /// rank `c` on drops its copy.
    pub(crate) fn enforce_storage_budget(&mut self) {
        let c = self.storage_budget as usize;
        self.personal_network
            .meta_mut_from_rank(c)
            .for_each(NeighbourInfo::drop_profile);
    }

    /// Iterates over `(peer, cached profile, cached version)` for every
    /// stored neighbour profile.
    pub fn stored_profiles(&self) -> impl Iterator<Item = (UserId, &Profile, u64)> {
        self.personal_network.iter().filter_map(|e| {
            e.meta
                .profile
                .as_deref()
                .map(|p| (e.peer, p, u64::from(e.meta.profile_version)))
        })
    }

    /// Number of stored neighbour profiles.
    pub fn stored_profile_count(&self) -> usize {
        self.stored_profiles().count()
    }

    /// Like [`Self::stored_profiles`], but yielding only **fresh** copies
    /// (at least as new as the freshest digest seen for their owner) — the
    /// set query scoring is allowed to resolve from — as shareable handles.
    pub(crate) fn shared_fresh_stored_profiles(
        &self,
    ) -> impl Iterator<Item = (UserId, &SharedProfile, u64)> {
        self.personal_network.iter().filter_map(|e| {
            if !e.meta.has_fresh_profile() {
                return None;
            }
            e.meta
                .profile
                .as_ref()
                .map(|p| (e.peer, p, u64::from(e.meta.profile_version)))
        })
    }

    /// Personal-network neighbours whose profiles are *not* stored locally —
    /// the initial remaining list of any query this node issues.
    pub fn unstored_network_peers(&self) -> Vec<UserId> {
        self.personal_network
            .iter()
            .filter(|e| e.meta.profile.is_none())
            .map(|e| e.peer)
            .collect()
    }

    /// Personal-network neighbours without a *fresh* stored profile copy:
    /// the unstored ones plus those whose cached copy went stale after the
    /// owner's profile dynamics. This is the remaining list of a query
    /// issued after dynamics — a stale copy must be re-fetched, not silently
    /// scored.
    pub(crate) fn peers_missing_fresh_profile(&self) -> Vec<UserId> {
        self.personal_network
            .iter()
            .filter(|e| !e.meta.has_fresh_profile())
            .map(|e| e.peer)
            .collect()
    }

    /// All personal-network neighbours (descending similarity).
    pub fn network_peers(&self) -> Vec<UserId> {
        self.personal_network.peers().collect()
    }

    /// Crashes the node: every piece of **volatile** state is lost — the
    /// personal network and random view (in-memory routing state), the
    /// query books (in-flight queries and delegated shares), the unflushed
    /// digest and the probe column. What survives is the **at-rest** state
    /// a real node would recover from disk: its own profile (and version),
    /// the digest geometry and the storage budget. Called by the protocols'
    /// `on_crash` hooks when a fault schedule crashes the node; after
    /// `Membership::rejoin` the node re-bootstraps its views through the
    /// lazy protocol's re-bootstrap step.
    pub fn crash_volatile(&mut self) {
        self.personal_network = ScoredView::new(self.personal_network.capacity());
        self.random_view = AgedView::new(self.random_view.capacity());
        self.querier_states = LazyMap::new();
        self.tasks = LazyMap::new();
        self.digest.take();
        self.probes.take();
    }

    /// Resident bytes of this node's protocol state: the struct itself, the
    /// materialized own digest and probe column, the personal-network /
    /// random-view entries
    /// and any allocated query books. Shared payloads behind `Arc` handles
    /// (profiles, neighbour digests) are *not* counted — they are
    /// deduplicated across the whole simulation and accounted once at
    /// their owner.
    pub fn storage_bytes(&self) -> usize {
        let digest = self
            .digest
            .get()
            .map(|d| d.heap_bytes() + std::mem::size_of::<BloomFilter>())
            .unwrap_or(0);
        let probes = self
            .probes
            .get()
            .map(|p| p.heap_bytes() + std::mem::size_of::<ProbeSet>())
            .unwrap_or(0);
        std::mem::size_of::<Self>()
            + digest
            + probes
            + self.personal_network.len()
                * std::mem::size_of::<p3q_gossip::ScoredEntry<UserId, NeighbourInfo>>()
            + self.random_view.len()
                * std::mem::size_of::<p3q_gossip::AgedEntry<UserId, DigestInfo>>()
            + self.querier_states.storage_bytes()
            + self.tasks.storage_bytes()
    }
}

/// Folds a profile's actions (in stored order) into a fingerprint.
fn fold_profile(profile: &Profile, h: &mut Fnv) {
    h.write_u64(profile.actions().len() as u64);
    for action in profile.actions() {
        h.write_u64(u64::from(action.item.0));
        h.write_u64(u64::from(action.tag.0));
    }
}

impl Fingerprint for P3qNode {
    /// Folds the node's complete observable protocol state — own profile
    /// and version, storage budget, both views (entry order is Vec-backed
    /// and deterministic), and both query books (hash-backed, iterated
    /// through sorted key lists). This is the per-node witness behind the
    /// transport runtime's oracle-equality checks and the byte-identity
    /// property suites: two nodes with equal fingerprints are treated as
    /// byte-identical.
    fn fold(&self, h: &mut Fnv) {
        h.write_u64(u64::from(self.id.0));
        h.write_u64(self.profile_version());
        fold_profile(self.profile(), h);
        h.write_u64(self.storage_budget() as u64);

        h.write_u64(self.personal_network.len() as u64);
        for entry in self.personal_network.iter() {
            h.write_u64(u64::from(entry.peer.0));
            h.write_u64(entry.score);
            h.write_u64(u64::from(entry.staleness));
            h.write_u64(u64::from(entry.meta.digest_version));
            h.write_u64(u64::from(entry.meta.profile_version));
            match &entry.meta.profile {
                Some(profile) => fold_profile(profile, h),
                None => h.write_u64(u64::MAX),
            }
        }
        h.write_u64(self.random_view.len() as u64);
        for entry in self.random_view.iter() {
            h.write_u64(u64::from(entry.peer.0));
            h.write_u64(u64::from(entry.age));
            h.write_u64(entry.meta.version);
        }

        // p3q-allow: hash-iter — keys are collected and sorted before folding.
        let mut query_ids: Vec<QueryId> = self.querier_states.keys().copied().collect();
        query_ids.sort_unstable();
        h.write_u64(query_ids.len() as u64);
        for qid in query_ids {
            let state = &self.querier_states[&qid];
            h.write_u64(qid.0);
            h.write_u64(u64::from(state.query.querier.0));
            h.write_all(state.query.tags.iter().map(|t| u64::from(t.0)));
            h.write_u64(u64::from(state.query.source_item.0));
            h.write_all(state.remaining.iter().map(|u| u64::from(u.0)));
            h.write_all(state.target_profiles.iter().map(|u| u64::from(u.0)));
            // p3q-allow: hash-iter — collected and sorted before folding.
            let mut used: Vec<UserId> = state.used_profiles.iter().copied().collect();
            used.sort_unstable();
            h.write_all(used.into_iter().map(|u| u64::from(u.0)));
            // p3q-allow: hash-iter — collected and sorted before folding.
            let mut sorted_reached: Vec<UserId> = state.reached_users.iter().copied().collect();
            sorted_reached.sort_unstable();
            h.write_all(sorted_reached.into_iter().map(|u| u64::from(u.0)));
            h.write_u64(state.started_cycle);
            h.write_u64(state.completed_cycle.map_or(u64::MAX, |c| c));
            h.write_u64(state.deadline_cycle);
            h.write_u64(state.progress_marker as u64);
            h.write_u64(state.last_progress_cycle);
            h.write_u64(u64::from(state.retries));
            h.write_u64(state.nra.list_count() as u64);
            h.write_u64(state.traffic.partial_results);
            h.write_u64(state.traffic.returned_remaining);
            h.write_u64(state.traffic.forwarded_remaining);
            h.write_u64(state.traffic.partial_result_messages);
            h.write_u64(state.traffic.users_reached);
        }
        // p3q-allow: hash-iter — keys are collected and sorted before folding.
        let mut task_ids: Vec<QueryId> = self.tasks.keys().copied().collect();
        task_ids.sort_unstable();
        h.write_u64(task_ids.len() as u64);
        for qid in task_ids {
            let task = &self.tasks[&qid];
            h.write_u64(qid.0);
            h.write_u64(u64::from(task.querier.0));
            h.write_all(task.remaining.iter().map(|u| u64::from(u.0)));
            h.write_u64(task.expires_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::TagId;

    impl P3qNode {
        /// The cached profile of `peer`, if stored.
        pub(crate) fn stored_profile(&self, peer: &UserId) -> Option<&Profile> {
            self.personal_network
                .get(peer)
                .and_then(|e| e.meta.profile.as_deref())
        }

        /// Returns `true` if a fresh (non-stale) profile copy of `peer` is
        /// stored locally.
        pub(crate) fn has_fresh_stored_profile(&self, peer: &UserId) -> bool {
            self.personal_network
                .get(peer)
                .is_some_and(|e| e.meta.has_fresh_profile())
        }

        /// The storage rule as first written: collect the top `c` peers,
        /// then drop every stored profile whose owner is not among them.
        /// The oracle of [`P3qNode::enforce_storage_budget`].
        fn enforce_storage_budget_reference(&mut self) {
            let keep: Vec<UserId> = self
                .personal_network
                .top_peers(self.storage_budget as usize);
            let drop_peers: Vec<UserId> = self
                .personal_network
                .iter()
                .filter(|e| e.meta.profile.is_some() && !keep.contains(&e.peer))
                .map(|e| e.peer)
                .collect();
            for peer in drop_peers {
                if let Some(entry) = self.personal_network.get_mut(&peer) {
                    entry.meta.profile = None;
                    entry.meta.profile_version = 0;
                }
            }
        }
    }

    fn profile(actions: &[(u32, u32)]) -> Profile {
        Profile::from_actions(
            actions
                .iter()
                .map(|&(i, t)| TaggingAction::new(ItemId(i), TagId(t))),
        )
    }

    fn node(c: usize) -> P3qNode {
        P3qNode::new(UserId(0), profile(&[(1, 1), (2, 2)]), 5, 3, c, 1024, 4)
    }

    /// What `peer` offers of itself: its digest and profile `p`, both at
    /// `version`.
    fn offer(peer: u32, p: impl Into<SharedProfile>, version: u64) -> ProfileOffer {
        let profile: SharedProfile = p.into();
        ProfileOffer {
            user: UserId(peer),
            digest: Arc::new(profile.digest(1024, 4)),
            digest_version: version,
            version,
            profile,
        }
    }

    #[test]
    fn digest_tracks_own_profile() {
        let mut n = node(2);
        assert!(n.digest().contains(ItemId(1).as_key()));
        assert!(!n.digest().contains(ItemId(9).as_key()));
        let v0 = n.profile_version();
        let added = n.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(1))]);
        assert_eq!(added, 1);
        assert_eq!(n.profile_version(), v0 + 1);
        assert!(n.digest().contains(ItemId(9).as_key()));
        // Re-adding the same action changes nothing.
        assert_eq!(
            n.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(1))]),
            0
        );
        assert_eq!(n.profile_version(), v0 + 1);
    }

    #[test]
    #[should_panic(expected = "profile versions are bounded")]
    fn profile_version_overflow_fails_loudly() {
        let mut n = node(2);
        n.profile_version = u32::MAX;
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(1))]);
    }

    #[test]
    fn record_neighbour_preserves_cached_profile() {
        let mut n = node(2);
        let first = offer(1, profile(&[(5, 5)]), 1);
        assert_eq!(n.admit(&first, 3), Admission::Stored);
        // Refreshing the score and the digest must not drop the stored
        // profile: the offered copy is no newer, so it is not fetched again.
        let newer_digest = ProfileOffer {
            digest_version: 2,
            ..first
        };
        assert_eq!(n.admit(&newer_digest, 7), Admission::Kept);
        assert_eq!(n.stored_profile(&UserId(1)).unwrap().len(), 1);
    }

    #[test]
    fn storage_budget_keeps_only_top_c_profiles() {
        let mut n = node(2);
        for (peer, score) in [(1u32, 10u64), (2, 20), (3, 30)] {
            let admitted = n.admit(&offer(peer, profile(&[(peer, peer)]), 1), score);
            assert_eq!(admitted, Admission::Stored, "each lands at rank 0");
        }
        // Only the two best-scored neighbours (3 and 2) may keep a profile.
        assert_eq!(n.stored_profile_count(), 2);
        assert!(n.stored_profile(&UserId(3)).is_some());
        assert!(n.stored_profile(&UserId(2)).is_some());
        assert!(n.stored_profile(&UserId(1)).is_none());
        assert_eq!(n.unstored_network_peers(), vec![UserId(1)]);
    }

    #[test]
    fn a_stored_neighbour_that_sinks_past_c_loses_its_copy() {
        let mut n = node(2);
        for (peer, score) in [(1u32, 30u64), (2, 20), (3, 10)] {
            n.admit(&offer(peer, profile(&[(peer, peer)]), 1), score);
        }
        assert_eq!(n.stored_profile_count(), 2, "peers 1 and 2 hold copies");
        // A relayed copy of peer 1 scores lower and moves it to rank 2. No
        // store happens, yet only the two best neighbours may keep a copy.
        let relayed = offer(1, profile(&[(1, 1)]), 1);
        assert_eq!(n.admit(&relayed, 5), Admission::Kept);
        assert_eq!(n.personal_network.rank_of(&UserId(1)), Some(2));
        assert!(n.stored_profile(&UserId(1)).is_none());
        assert_eq!(n.stored_profile_count(), 1);
        let entry = n.personal_network.get(&UserId(1)).unwrap();
        assert_eq!(entry.meta.profile_version, 0);
    }

    #[test]
    fn shrinking_the_budget_evicts_profiles() {
        let mut n = node(3);
        for (peer, score) in [(1u32, 10u64), (2, 20), (3, 30)] {
            n.admit(&offer(peer, profile(&[(peer, peer)]), 1), score);
        }
        assert_eq!(n.stored_profile_count(), 3);
        n.storage_budget = 1;
        n.enforce_storage_budget();
        assert_eq!(n.stored_profile_count(), 1);
        assert!(n.stored_profile(&UserId(3)).is_some());
    }

    /// The admission sequence as first written, the oracle of
    /// [`P3qNode::admit`]: record the neighbour (the digest never
    /// regresses, a cached copy carries over), look its rank up, and store
    /// the offered profile under the reference storage rule if it ranks
    /// within `c` and improves on the copy.
    fn admit_reference(n: &mut P3qNode, offer: &ProfileOffer, score: u64) -> Admission {
        let mut digest = offer.digest.clone();
        let mut digest_version = compact_version(offer.digest_version);
        let (profile, profile_version) = match n.personal_network.get(&offer.user) {
            Some(entry) => {
                if entry.meta.digest_version > digest_version {
                    digest = entry.meta.digest.clone();
                    digest_version = entry.meta.digest_version;
                }
                (entry.meta.profile.clone(), entry.meta.profile_version)
            }
            None => (None, 0),
        };
        let meta = NeighbourInfo {
            digest,
            digest_version,
            profile,
            profile_version,
        };
        if !n.personal_network.upsert(offer.user, score, meta) {
            return Admission::Rejected;
        }
        let rank = n.personal_network.rank_of(&offer.user).unwrap();
        let c = n.storage_budget();
        let meta = &mut n.personal_network.get_mut(&offer.user).unwrap().meta;
        if rank >= c {
            // The sink rule: a copy does not survive below rank `c`.
            meta.profile = None;
            meta.profile_version = 0;
            return Admission::Kept;
        }
        if meta.profile.is_some() && u64::from(meta.profile_version) >= offer.version {
            return Admission::Kept;
        }
        meta.profile = Some(offer.profile.clone());
        meta.profile_version = compact_version(offer.version);
        n.enforce_storage_budget_reference();
        Admission::Stored
    }

    #[test]
    fn one_pass_storage_rule_matches_the_reference_on_random_sequences() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Twin nodes, one admitting through `admit`, one through the
        // reference sequence. Twelve peers against at most eight slots and
        // six scores make full views, ties and score drops common; digest
        // and copy versions drawn apart make stale copies, older digests
        // and not-newer offers common.
        let mut rng = StdRng::seed_from_u64(0x0570_7A6E);
        for case in 0..300 {
            let s = rng.gen_range(1..=8usize);
            let c = rng.gen_range(1..=s + 1);
            let mut fast = P3qNode::new(UserId(0), profile(&[(1, 1)]), s, 3, c, 1024, 4);
            let mut reference = fast.clone();
            for step in 0..40u32 {
                let peer = rng.gen_range(1..=12u32);
                let score = rng.gen_range(0..6u64);
                let p = profile(&[(peer, step)]);
                let offer = ProfileOffer {
                    user: UserId(peer),
                    digest: Arc::new(p.digest(64, 2)),
                    digest_version: rng.gen_range(0..4u64),
                    version: rng.gen_range(0..4u64),
                    profile: Arc::new(p),
                };
                assert_eq!(
                    fast.admit(&offer, score),
                    admit_reference(&mut reference, &offer, score),
                    "case {case}, step {step}"
                );
                assert_eq!(
                    fast.personal_network, reference.personal_network,
                    "case {case} (s = {s}, c = {c}), step {step}"
                );
            }
        }
    }

    #[test]
    fn network_capacity_is_bounded_by_s() {
        let mut n = node(3);
        for peer in 1..=10u32 {
            n.admit(&offer(peer, profile(&[(peer, peer)]), 1), peer as u64);
        }
        // s = 5 in the fixture.
        assert_eq!(n.network_peers().len(), 5);
        assert_eq!(n.network_peers()[0], UserId(10));
        // A peer worse than all five is turned away and stores nothing.
        let worse = offer(11, profile(&[(11, 11)]), 1);
        assert_eq!(n.admit(&worse, 0), Admission::Rejected);
        assert!(!n.personal_network.contains(&UserId(11)));
        assert_eq!(n.stored_profile_count(), 3);
    }

    #[test]
    fn stored_profiles_share_storage_with_their_source() {
        let mut n = node(2);
        let p: SharedProfile = Arc::new(profile(&[(5, 5), (6, 6)]));
        n.admit(&offer(1, p.clone(), 1), 3);
        let stored = n.personal_network.get(&UserId(1)).unwrap();
        assert!(
            Arc::ptr_eq(stored.meta.profile.as_ref().unwrap(), &p),
            "storing a shared profile must not deep-copy it"
        );
    }

    #[test]
    fn digest_rebuild_is_batched_across_adds() {
        let mut n = node(2);
        let before = n.shared_digest().clone();
        // Two adds without an intervening read: the digest cell stays cold
        // (no rebuild per call) …
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(7), TagId(7))]);
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(8), TagId(8))]);
        // … and the next read sees both actions at once.
        assert!(n.digest().contains(ItemId(7).as_key()));
        assert!(n.digest().contains(ItemId(8).as_key()));
        assert!(
            !Arc::ptr_eq(n.shared_digest(), &before),
            "the digest must be a fresh filter after dynamics"
        );
        let current = n.shared_digest().clone();
        assert!(
            Arc::ptr_eq(n.shared_digest(), &current),
            "reading a current digest must not rebuild it"
        );
    }

    #[test]
    fn item_probes_track_the_profile_version() {
        let mut n = node(2);
        let theirs = profile(&[(9, 9)]).digest(1024, 4);
        assert!(!theirs.contains_any(n.item_probes()));
        let built = Arc::clone(n.probes.get().expect("built by the first call"));
        assert!(
            std::ptr::eq(n.item_probes(), &*built),
            "a second call reads the kept column"
        );

        // A clone answers from the same column; nothing is rebuilt.
        let copy = n.clone();
        assert!(std::ptr::eq(copy.item_probes(), &*built));
        let cold_bytes = node(2).storage_bytes();
        assert_eq!(
            n.storage_bytes(),
            cold_bytes + std::mem::size_of::<ProbeSet>() + built.heap_bytes(),
            "a materialised column is accounted"
        );

        // Re-adding a known action is no new version: the column stays.
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(1), TagId(1))]);
        assert!(std::ptr::eq(n.item_probes(), &*built));
        // Adding item 9 is: a stale column would still miss the digest.
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(9))]);
        assert!(theirs.contains_any(n.item_probes()));
        assert!(
            !theirs.contains_any(copy.item_probes()),
            "the clone is as it was"
        );

        n.crash_volatile();
        assert!(n.probes.get().is_none(), "volatile state is lost");
        assert!(theirs.contains_any(n.item_probes()));
    }

    #[test]
    fn newer_digest_version_marks_cached_profile_stale() {
        let mut n = node(2);
        let v1 = offer(1, profile(&[(5, 5)]), 1);
        n.admit(&v1, 3);
        assert!(n.has_fresh_stored_profile(&UserId(1)));
        assert!(n.peers_missing_fresh_profile().is_empty());

        // The owner changed her profile: a newer digest arrives, relayed
        // beside the old copy. The copy is kept (refresh accounting needs
        // it) but no longer counts as fresh.
        let v2 = offer(1, profile(&[(5, 5), (6, 6)]), 2);
        let relayed = ProfileOffer {
            digest: v2.digest.clone(),
            digest_version: 2,
            ..v1.clone()
        };
        assert_eq!(n.admit(&relayed, 4), Admission::Kept);
        assert!(n.stored_profile(&UserId(1)).is_some());
        assert!(!n.has_fresh_stored_profile(&UserId(1)));
        assert_eq!(n.shared_fresh_stored_profiles().count(), 0);
        assert_eq!(n.peers_missing_fresh_profile(), vec![UserId(1)]);

        // A relayed offer carrying the *old* digest must not whitewash the
        // stale copy back to fresh: the recorded digest never regresses.
        n.admit(&v1, 5);
        assert!(!n.has_fresh_stored_profile(&UserId(1)));
        let entry = n.personal_network.get(&UserId(1)).unwrap();
        assert_eq!(entry.meta.digest_version, 2);
        assert!(Arc::ptr_eq(&entry.meta.digest, &v2.digest));
        assert_eq!(entry.score, 5, "an older digest still refreshes the score");

        // Storing the refreshed copy makes it fresh again.
        assert_eq!(n.admit(&v2, 5), Admission::Stored);
        assert!(n.has_fresh_stored_profile(&UserId(1)));
        assert_eq!(n.shared_fresh_stored_profiles().count(), 1);
    }

    #[test]
    fn crash_loses_volatile_state_and_keeps_the_profile_at_rest() {
        let mut n = node(2);
        n.admit(&offer(1, profile(&[(5, 5)]), 1), 3);
        n.random_view.insert(
            UserId(2),
            crate::node::DigestInfo {
                digest: Arc::new(profile(&[(2, 2)]).digest(1024, 4)),
                version: 1,
            },
        );
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(9))]);
        let version = n.profile_version();
        let own = n.profile().clone();

        n.crash_volatile();
        assert!(n.personal_network.is_empty());
        assert!(n.random_view.is_empty());
        assert!(n.querier_states.is_empty() && n.tasks.is_empty());
        // Capacities (the s and r parameters) are preserved.
        assert_eq!(n.personal_network.capacity(), 5);
        assert_eq!(n.random_view.capacity(), 3);
        // The at-rest profile survives, and the digest rebuilds lazily
        // from it.
        assert_eq!(n.profile(), &own);
        assert_eq!(n.profile_version(), version);
        assert!(n.digest().contains(ItemId(9).as_key()));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let make = || {
            let mut n = node(2);
            n.admit(&offer(1, profile(&[(5, 5)]), 1), 3);
            n
        };
        assert_eq!(make().fingerprint(), make().fingerprint());
        let mut changed = make();
        changed.add_tagging_actions(vec![TaggingAction::new(ItemId(9), TagId(9))]);
        assert_ne!(make().fingerprint(), changed.fingerprint());
        let mut staler = make();
        staler.personal_network.tick();
        assert_ne!(make().fingerprint(), staler.fingerprint());
    }

    #[test]
    fn dynamics_detach_shared_own_profile() {
        let shared: SharedProfile = Arc::new(profile(&[(1, 1)]));
        let mut n = P3qNode::new(UserId(0), shared.clone(), 5, 3, 2, 1024, 4);
        assert!(Arc::ptr_eq(n.shared_profile(), &shared));
        n.add_tagging_actions(vec![TaggingAction::new(ItemId(2), TagId(2))]);
        // The node's copy grew; the original shared handle is untouched.
        assert_eq!(n.profile().len(), 2);
        assert_eq!(shared.len(), 1);
        assert!(!Arc::ptr_eq(n.shared_profile(), &shared));
    }
}
