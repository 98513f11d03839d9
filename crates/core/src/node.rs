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

use std::sync::{Arc, OnceLock};

use p3q_bloom::{BloomFilter, ProbeSet, SharedFilter};
use p3q_gossip::peer_sampling::Versioned;
use p3q_gossip::{reserve_within, AgedView, ScoredEntry, ScoredView};
use p3q_sim::{Fingerprint, Fnv};
use p3q_trace::{ItemId, Profile, SharedProfile, TaggingAction, UserId};

use crate::lazy::{Offer, ProfileOffer};
use crate::query::{QuerierState, QueryBook, RemainingTask};

/// Digest metadata carried by random-view entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestInfo {
    /// The peer's profile digest (Bloom filter over its items).
    pub digest: SharedFilter,
    /// Version of the peer's profile when the digest was taken.
    pub version: u64,
}

/// A digest is a function of its owner's profile version, so a shuffle
/// pulls a random-view digest only where it holds none at that version.
impl Versioned for DigestInfo {
    fn version(&self) -> u64 {
        self.version
    }
}

/// Narrows a protocol-level `u64` profile version to the compact `u32` the
/// view entries store. Versions bump once per profile-dynamics batch, so
/// `u32` is ample; fail loudly rather than silently wrapping.
#[inline]
fn compact_version(version: u64) -> u32 {
    u32::try_from(version).expect("profile versions are bounded by dynamics batches (u32)")
}

/// Narrows a similarity score (a count of common tagging actions) to the
/// `u32` the personal network stores. A profile holds far fewer than 2^32
/// actions; fail loudly rather than silently wrapping.
#[inline]
pub(crate) fn compact_score(score: u64) -> u32 {
    u32::try_from(score).expect("similarity scores count common actions (u32)")
}

/// Metadata attached to every personal-network neighbour: its digest and
/// the version it was taken at.
///
/// With the peer, score and staleness columns of the view this makes one
/// personal-network entry 28 bytes (versions are `u32`: they bump once per
/// dynamics batch). The stored profile copy, which only the top `c`
/// neighbours hold, lives in the node's copy column instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighbourInfo {
    /// The neighbour's profile digest.
    pub digest: SharedFilter,
    /// Version of the neighbour's profile when the digest was taken.
    pub digest_version: u32,
}

impl NeighbourInfo {
    /// Metadata for a neighbour known only by digest.
    pub fn digest_only(digest: impl Into<SharedFilter>, version: u64) -> Self {
        Self {
            digest: digest.into(),
            digest_version: compact_version(version),
        }
    }
}

/// A stored copy of a neighbour's full profile and the version it was
/// taken at, as read from the copy column.
///
/// The copy and the neighbour's digest may legitimately sit at different
/// versions: gossip refreshes digests (cheap, every exchange) more often
/// than full profiles (step 3 of Algorithm 1, budget-gated). A copy whose
/// version lags the digest's is **stale** — it is kept for refresh
/// accounting (Table 2, the AUR metric) and as gossip payload, but query
/// scoring must not silently treat it as current; `is_fresh_for` tells
/// the two states apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StoredCopy<'a> {
    pub(crate) profile: &'a SharedProfile,
    pub(crate) version: u32,
}

impl StoredCopy<'_> {
    /// Whether the copy is at least as new as the freshest digest seen for
    /// its owner — i.e. safe to score queries against.
    fn is_fresh_for(&self, info: &NeighbourInfo) -> bool {
        self.version >= info.digest_version
    }
}

/// The stored profile copies, aligned with the personal network's ranks:
/// slot `i` belongs to the neighbour at rank `i`, and `P3qNode` keeps one
/// slot per rank below `c` (the storage budget), so no copy is ever held
/// past rank `c`. A slot is a copy and its version in two columns, 12
/// bytes a slot.
#[derive(Debug, Clone, Default)]
struct CopyColumn {
    profiles: Vec<Option<SharedProfile>>,
    /// The version each copy was taken at; 0 in an empty slot.
    versions: Vec<u32>,
}

impl CopyColumn {
    fn len(&self) -> usize {
        self.profiles.len()
    }

    fn get(&self, rank: usize) -> Option<StoredCopy<'_>> {
        let profile = self.profiles.get(rank)?.as_ref()?;
        let version = self.versions[rank];
        Some(StoredCopy { profile, version })
    }

    /// Every slot in rank order.
    fn iter(&self) -> impl Iterator<Item = Option<StoredCopy<'_>>> {
        let slots = self.profiles.iter().zip(&self.versions);
        slots.map(|(profile, &version)| {
            profile
                .as_ref()
                .map(|profile| StoredCopy { profile, version })
        })
    }

    /// Takes the slot at `rank` out; the slots below it move up a rank.
    fn remove(&mut self, rank: usize) -> Option<(SharedProfile, u32)> {
        let version = self.versions.remove(rank);
        self.profiles.remove(rank).map(|profile| (profile, version))
    }

    /// Inserts a slot at `rank`, growing the columns within `c` slots.
    fn insert(&mut self, rank: usize, slot: Option<(SharedProfile, u32)>, c: usize) {
        let (profile, version) =
            slot.map_or((None, 0), |(profile, version)| (Some(profile), version));
        reserve_within(&mut self.profiles, c);
        reserve_within(&mut self.versions, c);
        self.profiles.insert(rank, profile);
        self.versions.insert(rank, version);
    }

    fn truncate(&mut self, len: usize) {
        self.profiles.truncate(len);
        self.versions.truncate(len);
    }

    /// Slots the larger column has allocated.
    fn allocated(&self) -> usize {
        self.profiles.capacity().max(self.versions.capacity())
    }

    fn heap_bytes(&self) -> usize {
        self.profiles.capacity() * std::mem::size_of::<Option<SharedProfile>>()
            + self.versions.capacity() * std::mem::size_of::<u32>()
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
    /// The stored profile copies, one slot per rank below `c`. Only
    /// `admit` and `crash_volatile` change it.
    copies: CopyColumn,
    /// The random view maintained by the peer-sampling layer.
    pub random_view: AgedView<UserId, DigestInfo>,
    /// Queries this node issued and is still collecting results for
    /// (allocated on first query — empty on most nodes at any instant).
    pub querier_states: QueryBook<QuerierState>,
    /// Remaining-list shares this node took over for other users' queries.
    pub tasks: QueryBook<RemainingTask>,
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
            copies: CopyColumn::default(),
            random_view: AgedView::new(1),
            querier_states: QueryBook::default(),
            tasks: QueryBook::default(),
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
            copies: CopyColumn::default(),
            random_view: AgedView::new(random_view_size.max(1)),
            querier_states: QueryBook::default(),
            tasks: QueryBook::default(),
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
        Offer::own(self).into()
    }

    /// Admits a peer whose exact similarity `score` is known into the
    /// personal network: steps 2–3 of Algorithm 1 after the score, for
    /// every path a peer arrives by. One scan of the view
    /// ([`ScoredView::upsert_with`]) inserts the peer or moves it to its new
    /// rank, and its metadata and copy slot move with it:
    ///
    /// * The digest never regresses. An offer relayed through a third party
    ///   may carry an *older* digest than the recorded one, and accepting
    ///   it would whitewash a known-stale cached copy back to fresh; such
    ///   an offer still refreshes the score. An offer at the recorded
    ///   digest version carries the same digest bytes, so the recorded
    ///   handle is kept too.
    /// * A cached copy carries over with its own version. If the recorded
    ///   digest is newer, the copy is **stale** and stops counting as fresh
    ///   for query scoring until a newer profile is stored. It is
    ///   deliberately kept: stale copies are what the refresh metrics
    ///   (Table 2, AUR) measure, and they still feed lazy gossip.
    /// * The offered profile is stored if the peer ranks within the storage
    ///   budget `c` and the offer improves on the copy: there is none, or
    ///   it is older. A copy at the same version as a stale cache is not
    ///   re-fetched, since it would not make the cache any fresher.
    /// * A peer that lands at rank `c` or lower keeps no copy. A relayed
    ///   older copy can score lower than the one stored and move its owner
    ///   down; that is the one way a copy crosses rank `c` without a store.
    ///
    /// A landing rank below `c` inserts a slot into the copy column, and
    /// the column is then cut back to the top `c` ranks
    /// ([`Self::enforce_storage_budget`]), so after every admission at most
    /// `c` copies are held, all ranked within `c`. The offer is read in
    /// place; its digest and copy are cloned only where they are stored.
    pub(crate) fn admit<'a>(&mut self, offer: impl Into<Offer<'a>>, score: u64) -> Admission {
        let offer = offer.into();
        let c = self.storage_budget as usize;
        let copies = &mut self.copies;
        let mut stored = false;
        let score = compact_score(score);
        let rank = self
            .personal_network
            .upsert_with(offer.user, score, |old, rank| {
                let (old_rank, old) = old.unzip();
                let copy = old_rank
                    .filter(|&r| r < copies.len())
                    .and_then(|r| copies.remove(r));
                if rank < c {
                    let copy = copy
                        .filter(|&(_, version)| u64::from(version) >= offer.version)
                        .unwrap_or_else(|| {
                            stored = true;
                            (offer.profile.clone(), compact_version(offer.version))
                        });
                    // The slot at rank `c - 1`, if any, is pushed past `c`.
                    copies.truncate(c - 1);
                    copies.insert(rank, Some(copy), c);
                }
                match old {
                    Some(old) if old.digest_version >= compact_version(offer.digest_version) => old,
                    _ => NeighbourInfo::digest_only(offer.digest.clone(), offer.digest_version),
                }
            });
        self.enforce_storage_budget();
        self.check_network();
        match rank {
            None => Admission::Rejected,
            Some(_) if stored => Admission::Stored,
            Some(_) => Admission::Kept,
        }
    }

    /// Applies the storage rule: only the `c` most similar neighbours keep a
    /// cached profile copy. The copy column is cut to one slot per rank
    /// below `c`, so a copy pushed to rank `c` by an insertion goes; a
    /// neighbour moved up into rank `c - 1` by a removal gets an empty slot.
    pub(crate) fn enforce_storage_budget(&mut self) {
        let c = self.storage_budget as usize;
        let slots = c.min(self.personal_network.len());
        self.copies.truncate(slots);
        while self.copies.len() < slots {
            self.copies.insert(self.copies.len(), None, c);
        }
    }

    /// The personal-network invariants, checked after every change to the
    /// network in debug builds: at most `s` entries, in (score descending,
    /// peer ascending) order, no peer twice; one copy slot per rank below
    /// `c`; and no column allocated past its bound.
    fn check_network(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let view = &self.personal_network;
        let c = self.storage_budget as usize;
        assert!(
            view.len() <= view.capacity(),
            "personal network holds more than s entries"
        );
        assert!(
            view.iter()
                .zip(view.iter().skip(1))
                .all(|(a, b)| a.score > b.score || (a.score == b.score && a.peer < b.peer)),
            "personal network out of (score descending, peer ascending) order"
        );
        let mut peers: Vec<UserId> = view.peers().collect();
        peers.sort_unstable();
        assert!(
            peers.windows(2).all(|w| w[0] != w[1]),
            "personal network holds a peer twice"
        );
        assert_eq!(
            self.copies.len(),
            c.min(view.len()),
            "the copy column holds one slot per rank below c"
        );
        assert!(
            view.heap_bytes() <= view.capacity() * ScoredView::<UserId, NeighbourInfo>::ENTRY_BYTES,
            "a personal-network column is allocated past s"
        );
        assert!(
            self.copies.allocated() <= c,
            "the copy column is allocated past c"
        );
    }

    /// The neighbour at `rank` and its stored copy, if it holds one.
    pub(crate) fn neighbour_at(
        &self,
        rank: usize,
    ) -> (ScoredEntry<UserId, &NeighbourInfo>, Option<StoredCopy<'_>>) {
        (self.personal_network.entry(rank), self.copies.get(rank))
    }

    /// Every neighbour with its stored copy, if it holds one, in rank
    /// order.
    pub(crate) fn neighbours(
        &self,
    ) -> impl Iterator<Item = (ScoredEntry<UserId, &NeighbourInfo>, Option<StoredCopy<'_>>)> {
        let copies = self.copies.iter().chain(std::iter::repeat(None));
        self.personal_network.iter().zip(copies)
    }

    /// The ranks that hold a stored copy, ascending.
    pub(crate) fn copy_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.copies
            .iter()
            .enumerate()
            .filter_map(|(rank, copy)| copy.map(|_| rank))
    }

    /// The stored copies with their owners, in rank order.
    fn stored_copies(
        &self,
    ) -> impl Iterator<Item = (ScoredEntry<UserId, &NeighbourInfo>, StoredCopy<'_>)> {
        self.neighbours()
            .take(self.copies.len())
            .filter_map(|(entry, copy)| Some((entry, copy?)))
    }

    /// Iterates over `(peer, cached profile, cached version)` for every
    /// stored neighbour profile.
    pub fn stored_profiles(&self) -> impl Iterator<Item = (UserId, &Profile, u64)> {
        self.stored_copies()
            .map(|(e, copy)| (e.peer, &**copy.profile, u64::from(copy.version)))
    }

    /// Number of stored neighbour profiles.
    pub fn stored_profile_count(&self) -> usize {
        self.copy_ranks().count()
    }

    /// Like [`Self::stored_profiles`], but yielding only **fresh** copies
    /// (at least as new as the freshest digest seen for their owner) — the
    /// set query scoring is allowed to resolve from — as shareable handles.
    pub(crate) fn shared_fresh_stored_profiles(
        &self,
    ) -> impl Iterator<Item = (UserId, &SharedProfile, u64)> {
        self.stored_copies()
            .filter(|(e, copy)| copy.is_fresh_for(e.meta))
            .map(|(e, copy)| (e.peer, copy.profile, u64::from(copy.version)))
    }

    /// Personal-network neighbours whose profiles are *not* stored locally —
    /// the initial remaining list of any query this node issues.
    pub fn unstored_network_peers(&self) -> Vec<UserId> {
        self.neighbours()
            .filter(|(_, copy)| copy.is_none())
            .map(|(e, _)| e.peer)
            .collect()
    }

    /// Personal-network neighbours without a *fresh* stored profile copy:
    /// the unstored ones plus those whose cached copy went stale after the
    /// owner's profile dynamics. This is the remaining list of a query
    /// issued after dynamics — a stale copy must be re-fetched, not silently
    /// scored.
    pub(crate) fn peers_missing_fresh_profile(&self) -> Vec<UserId> {
        self.neighbours()
            .filter(|(e, copy)| !copy.is_some_and(|copy| copy.is_fresh_for(e.meta)))
            .map(|(e, _)| e.peer)
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
        self.copies = CopyColumn::default();
        self.random_view = AgedView::new(self.random_view.capacity());
        self.querier_states = QueryBook::default();
        self.tasks = QueryBook::default();
        self.digest.take();
        self.probes.take();
        self.check_network();
    }

    /// Resident bytes of this node's protocol state: the struct itself, the
    /// materialized own digest and probe column, the slots the
    /// personal-network columns, the copy column and the random view have
    /// allocated, and any allocated query books. Shared payloads behind `Arc` handles
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
            + self.personal_network.heap_bytes()
            + self.copies.heap_bytes()
            + self.random_view.heap_bytes()
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
    /// and version, storage budget, both views and both query books, each
    /// in its stored (deterministic) order. This is the per-node witness
    /// behind the transport runtime's oracle-equality checks and the
    /// byte-identity property suites: two nodes with equal fingerprints are
    /// treated as byte-identical.
    fn fold(&self, h: &mut Fnv) {
        h.write_u64(u64::from(self.id.0));
        h.write_u64(self.profile_version());
        fold_profile(self.profile(), h);
        h.write_u64(self.storage_budget() as u64);

        h.write_u64(self.personal_network.len() as u64);
        for (entry, copy) in self.neighbours() {
            h.write_u64(u64::from(entry.peer.0));
            h.write_u64(u64::from(entry.score));
            h.write_u64(u64::from(entry.staleness));
            h.write_u64(u64::from(entry.meta.digest_version));
            // An unstored entry folds version 0 and no profile.
            h.write_u64(copy.map_or(0, |copy| u64::from(copy.version)));
            match copy {
                Some(copy) => fold_profile(copy.profile, h),
                None => h.write_u64(u64::MAX),
            }
        }
        h.write_u64(self.random_view.len() as u64);
        for entry in self.random_view.iter() {
            h.write_u64(u64::from(entry.peer.0));
            h.write_u64(u64::from(entry.age));
            h.write_u64(entry.meta.version);
        }

        h.write_u64(self.querier_states.len() as u64);
        for (qid, state) in self.querier_states.iter() {
            h.write_u64(qid.0);
            h.write_u64(u64::from(state.query.querier.0));
            h.write_all(state.query.tags.iter().map(|t| u64::from(t.0)));
            h.write_u64(u64::from(state.query.source_item.0));
            h.write_all(state.remaining.iter().map(|u| u64::from(u.0)));
            h.write_all(state.target_profiles.iter().map(|u| u64::from(u.0)));
            h.write_all(state.used_profiles.iter().map(|u| u64::from(u.0)));
            h.write_all(state.reached_users.iter().map(|u| u64::from(u.0)));
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
            h.write_u64(state.reached_users.len() as u64);
        }
        h.write_u64(self.tasks.len() as u64);
        for (qid, task) in self.tasks.iter() {
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
        /// The stored copy of `peer`, if any.
        fn stored_copy(&self, peer: &UserId) -> Option<StoredCopy<'_>> {
            let rank = self.personal_network.rank_of(peer)?;
            self.neighbour_at(rank).1
        }

        /// The cached profile of `peer`, if stored.
        pub(crate) fn stored_profile(&self, peer: &UserId) -> Option<&Profile> {
            self.stored_copy(peer).map(|copy| &**copy.profile)
        }

        /// Returns `true` if a fresh (non-stale) profile copy of `peer` is
        /// stored locally.
        pub(crate) fn has_fresh_stored_profile(&self, peer: &UserId) -> bool {
            self.personal_network.get(peer).is_some_and(|e| {
                self.stored_copy(peer)
                    .is_some_and(|copy| copy.is_fresh_for(e.meta))
            })
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
    fn readmission_at_the_same_digest_version_keeps_the_recorded_handle() {
        let mut n = node(2);
        let first = offer(1, profile(&[(5, 5)]), 1);
        n.admit(&first, 3);
        // The same digest bytes behind another handle, as a relayed offer
        // of the same version carries them.
        let again = ProfileOffer {
            digest: Arc::new((*first.digest).clone()),
            ..first.clone()
        };
        assert_eq!(again.digest, first.digest);
        assert_eq!(n.admit(&again, 4), Admission::Kept);
        let entry = n.personal_network.get(&UserId(1)).unwrap();
        assert!(Arc::ptr_eq(&entry.meta.digest, &first.digest));
        assert_eq!(entry.score, 4);
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
        assert!(n.neighbour_at(2).1.is_none(), "rank 2 holds no copy slot");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one slot per rank below c")]
    fn the_network_check_catches_a_copy_past_c() {
        let mut n = node(2);
        for (peer, score) in [(1u32, 10u64), (2, 20), (3, 30)] {
            n.admit(&offer(peer, profile(&[(peer, peer)]), 1), score);
        }
        // The budget shrinks without the storage rule running: rank 1
        // still holds its copy.
        n.storage_budget = 1;
        n.check_network();
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

    /// A node as first written: every personal-network entry carried its
    /// own copy, so a copy went wherever its entry went.
    struct ReferenceNode {
        network: ScoredView<UserId, NeighbourInfo>,
        /// `(owner, copy, version)`.
        copies: Vec<(UserId, SharedProfile, u32)>,
        c: usize,
    }

    impl ReferenceNode {
        fn copy(&self, peer: UserId) -> Option<(&Profile, u32)> {
            let (_, profile, version) = self.copies.iter().find(|(p, _, _)| *p == peer)?;
            Some((profile, *version))
        }

        /// The stored copies in rank order, as [`P3qNode::stored_profiles`]
        /// lists them.
        fn stored(&self) -> Vec<(UserId, &Profile, u64)> {
            self.network
                .peers()
                .filter_map(|peer| {
                    self.copy(peer)
                        .map(|(profile, version)| (peer, profile, u64::from(version)))
                })
                .collect()
        }
    }

    /// The admission sequence as first written, the oracle of
    /// [`P3qNode::admit`]: record the neighbour (the digest never
    /// regresses and is kept at an equal version, a cached copy carries
    /// over), look its rank up, and store the offered profile if it ranks
    /// within `c` and improves on the copy; then collect the top `c` peers
    /// and drop every copy whose owner is not among them.
    fn admit_reference(n: &mut ReferenceNode, offer: &ProfileOffer, score: u64) -> Admission {
        let mut digest = offer.digest.clone();
        let mut digest_version = compact_version(offer.digest_version);
        if let Some(entry) = n.network.get(&offer.user) {
            if entry.meta.digest_version >= digest_version {
                digest = entry.meta.digest.clone();
                digest_version = entry.meta.digest_version;
            }
        }
        let meta = NeighbourInfo {
            digest,
            digest_version,
        };
        let kept = n.network.upsert(offer.user, compact_score(score), meta);
        // An evicted entry took its copy with it.
        let network = &n.network;
        n.copies.retain(|(peer, _, _)| network.contains(peer));
        if !kept {
            return Admission::Rejected;
        }
        let rank = n.network.rank_of(&offer.user).unwrap();
        if rank >= n.c {
            // The sink rule: a copy does not survive below rank `c`.
            n.copies.retain(|(peer, _, _)| *peer != offer.user);
            return Admission::Kept;
        }
        if n.copy(offer.user)
            .is_some_and(|(_, version)| u64::from(version) >= offer.version)
        {
            return Admission::Kept;
        }
        n.copies.retain(|(peer, _, _)| *peer != offer.user);
        n.copies.push((
            offer.user,
            offer.profile.clone(),
            compact_version(offer.version),
        ));
        let keep = n.network.top_peers(n.c);
        n.copies.retain(|(peer, _, _)| keep.contains(peer));
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
            let mut reference = ReferenceNode {
                network: ScoredView::new(s),
                copies: Vec::new(),
                c,
            };
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
                    fast.personal_network, reference.network,
                    "case {case} (s = {s}, c = {c}), step {step}"
                );
                assert_eq!(
                    fast.stored_profiles().collect::<Vec<_>>(),
                    reference.stored(),
                    "case {case} (s = {s}, c = {c}), step {step}"
                );
            }
        }
    }

    #[test]
    fn a_neighbour_takes_at_most_28_bytes() {
        assert_eq!(ScoredView::<UserId, NeighbourInfo>::ENTRY_BYTES, 28);
        // A copy slot, held by the top `c` ranks only: the copy and its
        // version.
        assert_eq!(
            std::mem::size_of::<Option<SharedProfile>>() + std::mem::size_of::<u32>(),
            12
        );
        let mut n = node(2);
        for peer in 1..=5u32 {
            n.admit(&offer(peer, profile(&[(peer, peer)]), 1), u64::from(peer));
        }
        // s = 5 in the fixture: a full network allocates s entries, no more,
        // and the copy column c = 2 slots.
        assert_eq!(
            n.personal_network.heap_bytes(),
            5 * ScoredView::<UserId, NeighbourInfo>::ENTRY_BYTES
        );
        assert_eq!(n.copies.heap_bytes(), 2 * 12);
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
        let stored = n.stored_copy(&UserId(1)).unwrap();
        assert!(
            Arc::ptr_eq(stored.profile, &p),
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
