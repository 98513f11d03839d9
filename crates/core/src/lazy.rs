//! The lazy gossip mode: personal-network maintenance (Section 2.2.1,
//! Algorithm 1), expressed as a plan/commit [`GossipProtocol`].
//!
//! Every lazy cycle a node runs two layers in parallel:
//!
//! * the **bottom layer** (random peer sampling) shuffles its random view
//!   with a uniformly random member of that view, keeping the overlay
//!   connected and exposing fresh candidate neighbours;
//! * the **top layer** gossips with the alive personal-network neighbour it
//!   has not contacted for the longest time and exchanges a random subset of
//!   its stored profiles, following the 3-step protocol of Algorithm 1
//!   (digests → tagging actions on common items → full profiles for the
//!   top-`c` neighbours), and probes the random-view members whose digest
//!   reveals a shared item.
//!
//! Step 1 runs **versions first**, the pull side of anti-entropy (Demers
//! et al., PODC 1987): an offer opens with a 12-byte header (user, digest
//! version, profile version), and its digest travels only when the header
//! does not settle the drop test: the peer is unknown, or its recorded
//! digest is at another version. A digest is a function of its owner's
//! profile version, so equal versions mean equal digest bytes, and every
//! admission decides exactly as if each digest had travelled (the paper's
//! accounting, which `summary_bandwidth` prints beside this one). The
//! receiver reads the offers in place from the proposer's personal
//! network and clones a digest or a profile only where it stores one.
//!
//! The shuffle runs **descriptors first** the same way (see
//! [`peer_sampling`]): each side receives the partner's 12-byte
//! `(user, age, profile version)` descriptors, chooses its new random view
//! on them exactly as if the digests had travelled, and pulls the digest
//! of a kept descriptor only where it holds none at that version. A side
//! is billed the partner's descriptors, the partner's pull request and the
//! digests it pulled; the paper's accounting ships the r digests each way.
//!
//! [`LazyProtocol`] splits each of those into the engine's phases: partner
//! choices and probe reads happen in the read-only **plan** phase against
//! the cycle-start snapshot; view mutations, offer exchanges and profile
//! stores happen in the **commit** phase, which touches only the planned
//! pair (or, for probes, only the probing node). Timer ticks live in the
//! per-node **prepare** phase. The engine batches the resulting plans
//! conflict-free and commits them in parallel with byte-identical output
//! for every thread count — the parallel drive and the sequential oracle
//! mode (`RunOptions::oracle`) are interchangeable.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use p3q_bloom::SharedFilter;
use p3q_gossip::{peer_sampling, ScoredEntry};
use p3q_sim::{
    stream_seed, Category, CommitOutcome, CycleContext, ExchangePlan, GossipProtocol, Simulator,
};
use p3q_trace::{SharedProfile, UserId};

use crate::bandwidth::{
    category, digest_bytes, tagging_actions_bytes, OFFER_HEADER_BYTES, SHUFFLE_DESCRIPTOR_BYTES,
    USER_ID_BYTES,
};
use crate::config::P3qConfig;
use crate::node::{compact_score, Admission, DigestInfo, NeighbourInfo, P3qNode, StoredCopy};

/// One profile proposed during a gossip exchange, owned: the owner, her
/// digest and the proposer's stored copy of her profile. What a probe plan
/// snapshots of a random-view member, and what tests build offers from;
/// gossip reads its offers in place as `Offer`s instead.
///
/// The digest and the profile copy are versioned *separately*: a proposer
/// may know a newer digest (refreshed every exchange) than the profile copy
/// it stores (refreshed only within the storage budget). Advertising both
/// versions honestly lets the receiver record the digest at its true
/// version and still mark the older profile payload as stale.
///
/// Both payloads are shared handles: assembling and cloning an offer costs
/// two reference bumps, never a profile or digest copy. The byte counts the
/// *network* would pay are still charged by the bandwidth model.
#[derive(Debug, Clone)]
pub struct ProfileOffer {
    /// The user the profile belongs to.
    pub user: UserId,
    /// The proposer's digest for the user.
    pub digest: SharedFilter,
    /// Version of the owner's profile when `digest` was taken.
    pub digest_version: u64,
    /// Version of the offered profile copy (may lag `digest_version`).
    pub version: u64,
    /// The profile copy itself (available on request in steps 2–3).
    pub profile: SharedProfile,
}

/// A [`ProfileOffer`] read in place: the same fields, borrowed from the
/// proposer (or from an owned offer). Nothing is cloned until the receiver
/// stores the digest or the copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Offer<'a> {
    pub(crate) user: UserId,
    pub(crate) digest: &'a SharedFilter,
    pub(crate) digest_version: u64,
    pub(crate) version: u64,
    pub(crate) profile: &'a SharedProfile,
}

impl<'a> Offer<'a> {
    /// What `node` proposes of itself: its digest and profile, both at its
    /// current version.
    pub(crate) fn own(node: &'a P3qNode) -> Self {
        Self {
            user: node.id,
            digest: node.shared_digest(),
            digest_version: node.profile_version(),
            version: node.profile_version(),
            profile: node.shared_profile(),
        }
    }

    /// A personal-network entry with the copy it stores.
    fn stored(entry: ScoredEntry<UserId, &'a NeighbourInfo>, copy: StoredCopy<'a>) -> Self {
        Self {
            user: entry.peer,
            digest: &entry.meta.digest,
            digest_version: u64::from(entry.meta.digest_version),
            version: u64::from(copy.version),
            profile: copy.profile,
        }
    }
}

impl<'a> From<&'a ProfileOffer> for Offer<'a> {
    fn from(offer: &'a ProfileOffer) -> Self {
        Self {
            user: offer.user,
            digest: &offer.digest,
            digest_version: offer.digest_version,
            version: offer.version,
            profile: &offer.profile,
        }
    }
}

impl From<Offer<'_>> for ProfileOffer {
    fn from(offer: Offer<'_>) -> Self {
        Self {
            user: offer.user,
            digest: offer.digest.clone(),
            digest_version: offer.digest_version,
            version: offer.version,
            profile: offer.profile.clone(),
        }
    }
}

/// Byte counts of one side of a gossip exchange, split by protocol step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Bytes of offer headers received (step 1): one
    /// [`OFFER_HEADER_BYTES`] per offer about someone else.
    pub header_bytes: usize,
    /// Bytes of profile digests received (step 1): only those the headers
    /// did not settle.
    pub digest_bytes: usize,
    /// Bytes of tagging actions on common items received (step 2).
    pub common_bytes: usize,
    /// Bytes of full profiles received for storage (step 3).
    pub profile_bytes: usize,
    /// Number of candidates whose score was computed.
    pub candidates_scored: usize,
    /// Number of profiles newly stored or refreshed.
    pub profiles_stored: usize,
}

impl ExchangeStats {
    /// Bills this side of an exchange to `node`: its offer headers and its
    /// digests always, its common items and its profiles only when any
    /// travelled, under `[digests, common, profiles]`.
    pub(crate) fn charge<E>(
        &self,
        node: usize,
        outcome: &mut CommitOutcome<E>,
        [digests, common, profiles]: [Category; 3],
    ) {
        outcome.charge(node, category::OFFER_HEADERS, self.header_bytes);
        outcome.charge(node, digests, self.digest_bytes);
        if self.common_bytes > 0 {
            outcome.charge(node, common, self.common_bytes);
        }
        if self.profile_bytes > 0 {
            outcome.charge(node, profiles, self.profile_bytes);
        }
    }
}

/// The offers a node proposes in one gossip exchange, by position: the
/// ranks of a random subset of at most `limit` of its stored copies, in the
/// order drawn, then its own profile.
struct OfferSelection {
    ranks: Vec<usize>,
}

impl OfferSelection {
    /// Draws the selection from `node`'s stored copies.
    fn draw(node: &P3qNode, limit: usize, rng: &mut StdRng) -> Self {
        let mut ranks: Vec<usize> = node.copy_ranks().collect();
        ranks.shuffle(rng);
        ranks.truncate(limit);
        Self { ranks }
    }

    /// The selected offers, read in place from `node`, which must be the
    /// node they were drawn from and unchanged since.
    fn offers<'a>(&'a self, node: &'a P3qNode) -> impl Iterator<Item = Offer<'a>> {
        self.ranks
            .iter()
            .map(|&rank| match node.neighbour_at(rank) {
                (entry, Some(copy)) => Offer::stored(entry, copy),
                (_, None) => unreachable!("a drawn rank holds a stored copy"),
            })
            .chain(std::iter::once(Offer::own(node)))
    }
}

/// Processes the profiles received in a gossip exchange, following the
/// 3-step protocol of Algorithm 1, and returns the byte counts incurred.
///
/// `before_first_write` sees the node just before the first admission that
/// changes its personal network, if any: the moment its own offers, read in
/// place, would stop being what it proposed.
pub(crate) fn process_offers<'a>(
    node: &mut P3qNode,
    offers: impl IntoIterator<Item = Offer<'a>>,
    cfg: &P3qConfig,
    before_first_write: impl FnOnce(&P3qNode),
) -> ExchangeStats {
    let mut before_first_write = Some(before_first_write);
    let mut stats = ExchangeStats::default();
    for offer in offers {
        if offer.user == node.id {
            continue;
        }
        // Step 1, versions first: the header (user, digest version, profile
        // version) always travels, the digest only when the versions leave
        // the drop test below open: the peer is unknown, or its recorded
        // digest is at another version. A digest is a function of its
        // profile version, so an equal version means equal digest bytes;
        // a stale copy upgraded at that version stores equal bytes too.
        stats.header_bytes += OFFER_HEADER_BYTES;
        let known = node
            .personal_network
            .rank_of(&offer.user)
            .map(|rank| node.neighbour_at(rank));
        let same_version =
            known.is_some_and(|(e, _)| u64::from(e.meta.digest_version) == offer.digest_version);
        if !same_version {
            stats.digest_bytes += digest_bytes(cfg.digest_bits);
        }

        // Lines 4–9: known neighbour with an unchanged digest → drop. The
        // digest bytes alone are not enough: a profile change whose actions
        // collide with already-set Bloom bits leaves the digest bytes
        // identical, and a stale stored copy is refreshed by a newer
        // *payload* under the same digest. So an offer also passes when it
        // advances the recorded digest version, or carries a newer profile
        // payload than a copy we store.
        if let Some((entry, copy)) = known {
            debug_assert!(
                !same_version || entry.meta.digest == *offer.digest,
                "one digest per (user, version)"
            );
            let same_digest = same_version
                || Arc::ptr_eq(&entry.meta.digest, offer.digest)
                || entry.meta.digest == *offer.digest;
            let advances_digest = offer.digest_version > u64::from(entry.meta.digest_version);
            let upgrades_copy = copy.is_some_and(|copy| offer.version > u64::from(copy.version));
            if same_digest && !advances_digest && !upgrades_copy {
                continue;
            }
        }
        // Lines 10–11: no common item → drop. The digest is the only
        // information available at this point, so the check uses it (false
        // positives are possible and simply cost a step-2 exchange).
        if known.is_none() && !offer.digest.contains_any(node.item_probes()) {
            continue;
        }

        // Step 2 (lines 16–26): fetch the tagging actions for the common
        // items and compute the exact similarity score.
        let common = node.profile().common_actions(offer.profile);
        stats.common_bytes += tagging_actions_bytes(common);
        stats.candidates_scored += 1;
        if common == 0 {
            // The digest check was a false positive; nothing to add.
            continue;
        }
        // A stranger ranked past a full network is turned away by
        // `P3qNode::admit` without a change, so it is not asked.
        let score = common as u64;
        if known.is_none()
            && !node
                .personal_network
                .would_admit(offer.user, compact_score(score))
        {
            continue;
        }
        if let Some(hook) = before_first_write.take() {
            hook(node);
        }
        // Step 3 (lines 27–31): the rest of the profile travels only if
        // admission stored it (see `P3qNode::admit` for when).
        match node.admit(offer, score) {
            Admission::Stored => {
                let rest = offer.profile.len().saturating_sub(common);
                stats.profile_bytes += tagging_actions_bytes(rest);
                stats.profiles_stored += 1;
            }
            Admission::Kept => {}
            Admission::Rejected => unreachable!("a known peer or one with room is admitted"),
        }
    }
    stats
}

/// Performs a symmetric profile-gossip exchange between two nodes: both
/// sides draw offers and process the other side's, as if both had sent
/// theirs before either read. Returns the byte counts each side incurred.
/// Used by the lazy top layer and by the maintenance piggybacked on eager
/// gossip — always from a commit, where both `&mut` sides are available.
///
/// Offers are read in place. `b` is untouched until `a` is done, so `a`
/// reads `b`'s offers from `b`. `b` reads `a`'s from `a` as well, unless `a`
/// changed while reading: then `a`'s offers were copied out just before its
/// first write.
pub(crate) fn exchange_profiles(
    a: &mut P3qNode,
    b: &mut P3qNode,
    cfg: &P3qConfig,
    rng: &mut StdRng,
) -> (ExchangeStats, ExchangeStats) {
    let from_a = OfferSelection::draw(a, cfg.profiles_per_gossip, rng);
    let from_b = OfferSelection::draw(b, cfg.profiles_per_gossip, rng);
    let mut sent_by_a: Option<Vec<ProfileOffer>> = None;
    let a_stats = process_offers(a, from_b.offers(b), cfg, |a| {
        sent_by_a = Some(from_a.offers(a).map(ProfileOffer::from).collect());
    });
    let b_stats = match &sent_by_a {
        Some(offers) => process_offers(b, offers.iter().map(Offer::from), cfg, |_| {}),
        None => process_offers(b, from_a.offers(a), cfg, |_| {}),
    };
    (a_stats, b_stats)
}

/// One planned lazy step.
#[derive(Debug, Clone)]
pub enum LazyStep {
    /// Bottom layer: symmetric random-view shuffle with the destination.
    Shuffle,
    /// Top layer: Algorithm 1 profile gossip with the destination (the
    /// stalest alive personal-network neighbour).
    NetworkGossip,
    /// Solo step: probe the random-view members whose digest shares an item
    /// with the initiator. Each member's own offer is snapshotted at plan
    /// time, so the commit stores a profile consistent with its digest.
    Probe(Vec<ProfileOffer>),
    /// Solo recovery step: a node whose random view is empty (it just
    /// restarted after a crash and lost all volatile state) re-seeds the
    /// view with uniformly random alive peers, snapshotted at plan time —
    /// the cycle-level equivalent of re-contacting the peer-sampling
    /// service. Solo plans are immune to delivery faults, mirroring that
    /// bootstrap traffic goes through infrastructure, not gossip.
    Rebootstrap(Vec<(UserId, DigestInfo)>),
}

/// The lazy mode as a plan/commit protocol. Hand it to a runtime's `drive`
/// entry; [`P3qConfig::lazy`] is the usual constructor.
#[derive(Debug, Clone)]
pub struct LazyProtocol {
    cfg: P3qConfig,
}

impl LazyProtocol {
    /// Creates the protocol over a configuration.
    pub fn new(cfg: P3qConfig) -> Self {
        Self { cfg }
    }
}

impl GossipProtocol for LazyProtocol {
    type Node = P3qNode;
    type Payload = LazyStep;
    type Effect = ();
    type Scratch = ();

    fn scratch(&self) {}

    fn prepare(&self, node: &mut P3qNode, _cycle: u64) {
        // Timers advance once per cycle per alive node ("other neighbours
        // increment their timestamps by 1").
        node.random_view.tick();
        node.personal_network.tick();
    }

    fn on_crash(&self, node: &mut P3qNode, _cycle: u64) {
        node.crash_volatile();
    }

    fn plan(
        &self,
        world: &CycleContext<'_, P3qNode>,
        idx: usize,
        rng: &mut StdRng,
        out: &mut Vec<ExchangePlan<LazyStep>>,
    ) {
        let node = world.node(idx);
        let valid_partner = |peer: UserId| peer.index() != idx && world.is_alive(peer.index());

        // Recovery: a restarted node lost its views with its volatile
        // state; re-seed the random view before anything else (this cycle's
        // shuffle and probe see the empty view, the next cycle gossips
        // normally). The branch never fires for a node with a live view, so
        // fault-free cycles draw exactly the same RNG stream as before.
        if node.random_view.is_empty() {
            let picks = sample_alive_peers(world, idx, self.cfg.random_view_size, rng);
            if !picks.is_empty() {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: None,
                    payload: LazyStep::Rebootstrap(picks),
                });
            }
        }

        // Bottom layer: one uniformly random member of the random view.
        if let Some(partner) = peer_sampling::pick_partner(&node.random_view, rng) {
            if valid_partner(partner) {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner.index()),
                    payload: LazyStep::Shuffle,
                });
            }
        }

        // Top layer: the stalest *alive* personal-network neighbour (the
        // staleness reset is deferred to the commit).
        let top = node
            .personal_network
            .oldest_matching(|e| valid_partner(e.peer));
        if let Some(partner) = top {
            out.push(ExchangePlan {
                initiator: idx,
                destination: Some(partner.index()),
                payload: LazyStep::NetworkGossip,
            });
        }

        // Probe: random-view members whose digest reveals a shared item.
        // All peer reads happen here, against the snapshot, so the commit
        // only touches the probing node.
        let probes = node.item_probes();
        let offers: Vec<ProfileOffer> = node
            .random_view
            .iter()
            .filter(|e| valid_partner(e.peer) && e.meta.digest.contains_any(probes))
            .map(|e| world.node(e.peer.index()).own_offer())
            .collect();
        if !offers.is_empty() {
            out.push(ExchangePlan {
                initiator: idx,
                destination: None,
                payload: LazyStep::Probe(offers),
            });
        }
    }

    fn commit(
        &self,
        _cycle: u64,
        plan: &ExchangePlan<LazyStep>,
        initiator: &mut P3qNode,
        destination: Option<&mut P3qNode>,
        rng: &mut StdRng,
        _scratch: &mut (),
    ) -> CommitOutcome<()> {
        let cfg = &self.cfg;
        let mut outcome = CommitOutcome::empty();
        match &plan.payload {
            LazyStep::Shuffle => {
                let dest_idx = plan.destination.expect("shuffles are pairwise");
                let b = destination.expect("shuffles are pairwise");
                let a = initiator;
                let (a_info, b_info) = (a.descriptor(), b.descriptor());
                let (a_got, b_got) = peer_sampling::shuffle(
                    a.id,
                    &mut a.random_view,
                    b.id,
                    &mut b.random_view,
                    a_info,
                    b_info,
                    rng,
                );
                // Each side receives the partner's descriptors and its pull
                // request, and the digests it pulled itself (the paper ships
                // "10 profile digests of 25K bytes" each way instead).
                let digest = digest_bytes(cfg.digest_bits);
                for (idx, got, partner) in
                    [(plan.initiator, a_got, b_got), (dest_idx, b_got, a_got)]
                {
                    let descriptors = got.view_descriptors * SHUFFLE_DESCRIPTOR_BYTES;
                    let control = SHUFFLE_DESCRIPTOR_BYTES + partner.pulled * USER_ID_BYTES;
                    outcome.charge(idx, category::RPS_DESCRIPTORS, descriptors);
                    outcome.charge(idx, category::RPS_CONTROL, control);
                    outcome.charge(idx, category::RPS_DIGESTS, got.pulled * digest);
                }
            }
            LazyStep::NetworkGossip => {
                let dest_idx = plan.destination.expect("network gossip is pairwise");
                let b = destination.expect("network gossip is pairwise");
                initiator.personal_network.reset_staleness(&b.id);
                let (a_stats, b_stats) = exchange_profiles(initiator, b, cfg, rng);
                let categories = [
                    category::LAZY_DIGESTS,
                    category::LAZY_COMMON,
                    category::LAZY_PROFILES,
                ];
                a_stats.charge(plan.initiator, &mut outcome, categories);
                b_stats.charge(dest_idx, &mut outcome, categories);
            }
            LazyStep::Probe(offers) => {
                for offer in offers {
                    probe_candidate(initiator, plan.initiator, offer, &mut outcome);
                }
            }
            LazyStep::Rebootstrap(picks) => {
                for (user, info) in picks {
                    initiator.random_view.insert(*user, info.clone());
                }
                // Re-fetching r digests costs what a bootstrap contact
                // does: one digest per re-seeded view slot.
                let payload = picks.len() * digest_bytes(cfg.digest_bits);
                outcome.charge(plan.initiator, category::RPS_REBOOTSTRAP, payload);
            }
        }
        outcome
    }
}

/// Applies one snapshotted probe to the probing node (Section 2.2.1: any
/// random-view member whose digest shares an item is contacted directly for
/// her profile and considered as a personal-network candidate).
fn probe_candidate(
    me: &mut P3qNode,
    my_idx: usize,
    candidate: &ProfileOffer,
    outcome: &mut CommitOutcome<()>,
) {
    let common = me.profile().common_actions(&candidate.profile);
    let stored = common > 0 && me.admit(candidate, common as u64) == Admission::Stored;
    // The step-2 exchange happened whatever its outcome. Like an offer's, it
    // bills the tagging actions on common items: none for a digest false
    // positive.
    outcome.charge(my_idx, category::LAZY_COMMON, tagging_actions_bytes(common));
    let rest = candidate.profile.len().saturating_sub(common);
    if stored && rest > 0 {
        outcome.charge(my_idx, category::LAZY_PROFILES, tagging_actions_bytes(rest));
    }
}

/// Seeds every node's random view with `r` uniformly random alive peers (the
/// paper assumes users first discover arbitrary contacts through the peer
/// sampling service).
///
/// Each node's picks come from a private RNG stream derived from one master
/// seed drawn from `rng`, and the view fill fans out over the default
/// worker-thread count (`P3Q_THREADS` override) — output is byte-identical
/// for every thread count (oracle: [`bootstrap_random_views_reference`]).
pub fn bootstrap_random_views(sim: &mut Simulator<P3qNode>, cfg: &P3qConfig, rng: &mut StdRng) {
    bootstrap_random_views_with_threads(sim, cfg, rng, p3q_sim::default_threads());
}

/// [`bootstrap_random_views`] with an explicit worker-thread count.
pub fn bootstrap_random_views_with_threads(
    sim: &mut Simulator<P3qNode>,
    cfg: &P3qConfig,
    rng: &mut StdRng,
    threads: usize,
) {
    let master: u64 = rng.gen();
    // Read-only phase: every node's picks and the digest snapshots of the
    // picked peers, from per-node streams of the master seed.
    let picks = {
        let sim = &*sim;
        p3q_sim::parallel_map(
            0..sim.num_nodes(),
            threads,
            || (),
            |idx, ()| bootstrap_node_picks(sim, cfg, master, idx),
        )
    };
    // Write phase: each node only touches its own view, so the fill is
    // trivially conflict-free.
    sim.for_each_node_mut(threads, |idx, node| {
        for (user, info) in &picks[idx] {
            node.random_view.insert(*user, info.clone());
        }
    });
}

/// The retained sequential oracle for [`bootstrap_random_views`]: a plain
/// loop over nodes with the same per-node streams, no fork-join machinery.
pub fn bootstrap_random_views_reference(
    sim: &mut Simulator<P3qNode>,
    cfg: &P3qConfig,
    rng: &mut StdRng,
) {
    let master: u64 = rng.gen();
    for idx in 0..sim.num_nodes() {
        let picks = bootstrap_node_picks(sim, cfg, master, idx);
        for (user, info) in picks {
            sim.node_mut(idx).random_view.insert(user, info);
        }
    }
}

/// One node's bootstrap contacts, drawn from the node's private stream of
/// `master`: depends only on the master seed and the node index, never on
/// visit order.
fn bootstrap_node_picks(
    sim: &Simulator<P3qNode>,
    cfg: &P3qConfig,
    master: u64,
    idx: usize,
) -> Vec<(UserId, DigestInfo)> {
    if !sim.is_alive(idx) {
        return Vec::new();
    }
    let world = CycleContext::new(sim.nodes(), sim.membership(), sim.cycle());
    let mut rng = StdRng::seed_from_u64(stream_seed(master, idx as u64));
    sample_alive_peers(&world, idx, cfg.random_view_size, &mut rng)
}

/// What a random view is seeded with, at bootstrap and after a crash: `r`
/// distinct uniformly random alive peers other than node `idx`, drawn by
/// rejection from `rng` and snapshotted as `(user, descriptor)` pairs.
fn sample_alive_peers(
    world: &CycleContext<'_, P3qNode>,
    idx: usize,
    r: usize,
    rng: &mut StdRng,
) -> Vec<(UserId, DigestInfo)> {
    let n = world.num_nodes();
    // The view can hold at most every *other alive* peer — without this
    // bound the rejection sampling below would spin forever on a heavily
    // churned population (fewer alive peers than the view size).
    let alive_others = world.membership().alive_count().saturating_sub(1);
    let target = r.min(n.saturating_sub(1)).min(alive_others);
    let mut picked = Vec::new();
    while picked.len() < target {
        let other = rng.gen_range(0..n);
        if other != idx && !picked.contains(&other) && world.is_alive(other) {
            picked.push(other);
        }
    }
    picked
        .into_iter()
        .map(|other| (UserId::from_index(other), world.node(other).descriptor()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::IdealNetworks;
    use crate::experiment::{apply_profile_changes, build_simulator};
    use crate::metrics::average_success_ratio;
    use crate::storage::StorageDistribution;
    use p3q_sim::{FaultPlan, Fingerprint, RunEvent, RunOptions};
    use p3q_trace::{
        DynamicsConfig, DynamicsGenerator, TagId, TaggingAction, TraceConfig, TraceGenerator,
    };
    use rand::SeedableRng;

    /// What a node proposed before offers were read in place: owned copies
    /// of a random subset of its stored copies (all `s` ranks walked), then
    /// its own offer. The reference of [`OfferSelection`].
    fn collect_offers(node: &P3qNode, limit: usize, rng: &mut StdRng) -> Vec<ProfileOffer> {
        let mut stored: Vec<ProfileOffer> = node
            .neighbours()
            .filter_map(|(entry, copy)| Some(Offer::stored(entry, copy?).into()))
            .collect();
        stored.shuffle(rng);
        stored.truncate(limit);
        stored.push(node.own_offer());
        stored
    }

    /// [`process_offers`] as first written: the drop test compares digest
    /// bytes, and every scored offer goes through `P3qNode::admit`.
    fn process_offers_reference(
        node: &mut P3qNode,
        offers: &[ProfileOffer],
        cfg: &P3qConfig,
    ) -> ExchangeStats {
        let mut stats = ExchangeStats::default();
        for offer in offers {
            if offer.user == node.id {
                continue;
            }
            stats.header_bytes += OFFER_HEADER_BYTES;
            let known = node
                .personal_network
                .rank_of(&offer.user)
                .map(|rank| node.neighbour_at(rank));
            if known.is_none_or(|(e, _)| u64::from(e.meta.digest_version) != offer.digest_version) {
                stats.digest_bytes += digest_bytes(cfg.digest_bits);
            }
            if let Some((entry, copy)) = known {
                let same_digest = entry.meta.digest == offer.digest;
                let advances_digest = offer.digest_version > u64::from(entry.meta.digest_version);
                let upgrades_copy =
                    copy.is_some_and(|copy| offer.version > u64::from(copy.version));
                if same_digest && !advances_digest && !upgrades_copy {
                    continue;
                }
            }
            if known.is_none() && !offer.digest.contains_any(node.item_probes()) {
                continue;
            }
            let common = node.profile().common_actions(&offer.profile);
            stats.common_bytes += tagging_actions_bytes(common);
            stats.candidates_scored += 1;
            if common == 0 {
                continue;
            }
            if node.admit(offer, common as u64) == Admission::Stored {
                let rest = offer.profile.len().saturating_sub(common);
                stats.profile_bytes += tagging_actions_bytes(rest);
                stats.profiles_stored += 1;
            }
        }
        stats
    }

    /// [`exchange_profiles`] as first written: both sides copy their offers
    /// out before either reads.
    fn exchange_profiles_reference(
        a: &mut P3qNode,
        b: &mut P3qNode,
        cfg: &P3qConfig,
        rng: &mut StdRng,
    ) -> (ExchangeStats, ExchangeStats) {
        let offers_from_a = collect_offers(a, cfg.profiles_per_gossip, rng);
        let offers_from_b = collect_offers(b, cfg.profiles_per_gossip, rng);
        let a_stats = process_offers_reference(a, &offers_from_b, cfg);
        let b_stats = process_offers_reference(b, &offers_from_a, cfg);
        (a_stats, b_stats)
    }

    /// `node` receives owned `offers`.
    fn receive(node: &mut P3qNode, offers: &[ProfileOffer], cfg: &P3qConfig) -> ExchangeStats {
        process_offers(node, offers.iter().map(Offer::from), cfg, |_| {})
    }

    fn small_sim() -> (Simulator<P3qNode>, P3qConfig, p3q_trace::Dataset) {
        let trace = TraceGenerator::new(TraceConfig::tiny(17)).generate();
        let cfg = P3qConfig::tiny();
        let sim = build_simulator(
            &trace.dataset,
            &cfg,
            &StorageDistribution::Uniform(1000),
            99,
        );
        (sim, cfg, trace.dataset)
    }

    #[test]
    fn bootstrap_survives_a_starved_population() {
        // More view slots than alive peers: the fill must cap at the alive
        // population instead of spinning forever in rejection sampling.
        let (mut sim, cfg, _) = small_sim();
        sim.mass_departure(0.95);
        let alive = sim.membership().alive_count();
        assert!(alive > 0, "departure must leave someone alive");
        assert!(
            alive.saturating_sub(1) < cfg.random_view_size,
            "the scenario must actually starve the view"
        );
        let mut rng = StdRng::seed_from_u64(9);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        for idx in 0..sim.num_nodes() {
            if !sim.is_alive(idx) {
                continue;
            }
            let view: Vec<_> = sim.node(idx).random_view.iter().collect();
            assert_eq!(view.len(), alive - 1, "node {idx}");
            for entry in view {
                assert!(sim.is_alive(entry.peer.index()));
                assert_ne!(entry.peer.index(), idx);
            }
        }
    }

    #[test]
    fn collect_offers_includes_own_profile_and_respects_limit() {
        let (sim, _cfg, _) = small_sim();
        let mut rng = StdRng::seed_from_u64(0);
        let selection = OfferSelection::draw(sim.node(0), 3, &mut rng);
        let offers: Vec<Offer<'_>> = selection.offers(sim.node(0)).collect();
        assert_eq!(offers.last().map(|o| o.user), Some(sim.node(0).id));
        assert!(offers.len() <= 4);
    }

    #[test]
    fn in_place_exchanges_match_the_snapshot_first_reference() {
        // A lazy run with a paper day of profile dynamics in its middle
        // leaves networks with stale copies, relayed older digests and room
        // to admit. Random pairs of its nodes then exchange, once in place
        // and once through the reference, from equal copies and RNG seeds.
        let trace = TraceGenerator::new(TraceConfig {
            num_users: 80,
            ..TraceConfig::tiny(23)
        })
        .generate();
        let cfg = P3qConfig::tiny();
        let storage = StorageDistribution::Uniform(4);
        let mut sim = build_simulator(&trace.dataset, &cfg, &storage, 5);
        bootstrap_random_views(&mut sim, &cfg, &mut StdRng::seed_from_u64(6));
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(7)).generate(&trace);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut a_changed, mut a_unchanged) = (0, 0);
        for round in 0..6 {
            sim.drive(&cfg.lazy(), RunOptions::cycles(1), |_, _| {});
            if round == 2 {
                apply_profile_changes(&mut sim, &batch);
            }
            for pair in 0..150 {
                let i = rng.gen_range(0..sim.num_nodes());
                let j = rng.gen_range(0..sim.num_nodes());
                if i == j {
                    continue;
                }
                let seed: u64 = rng.gen();
                let (mut a, mut b) = (sim.node(i).clone(), sim.node(j).clone());
                let (mut ref_a, mut ref_b) = (a.clone(), b.clone());
                let before = a.fingerprint();
                let stats =
                    exchange_profiles(&mut a, &mut b, &cfg, &mut StdRng::seed_from_u64(seed));
                let expected = exchange_profiles_reference(
                    &mut ref_a,
                    &mut ref_b,
                    &cfg,
                    &mut StdRng::seed_from_u64(seed),
                );
                let at = format!("round {round}, pair {pair} ({i}, {j})");
                assert_eq!(stats, expected, "{at}");
                assert_eq!(a.fingerprint(), ref_a.fingerprint(), "{at}");
                assert_eq!(b.fingerprint(), ref_b.fingerprint(), "{at}");
                assert_eq!(a.personal_network, ref_a.personal_network, "{at}");
                assert_eq!(b.personal_network, ref_b.personal_network, "{at}");
                if a.fingerprint() == before {
                    a_unchanged += 1;
                } else {
                    a_changed += 1;
                }
            }
        }
        // Both of `b`'s reads ran: from `a` in place, and from the copy
        // taken before `a`'s first write.
        assert!(
            a_changed > 0 && a_unchanged > 0,
            "{a_changed} / {a_unchanged}"
        );
    }

    #[test]
    fn process_offers_adds_similar_neighbours() {
        let (mut sim, cfg, dataset) = small_sim();
        // Offer node 0 the profile of a user that certainly shares something:
        // its own strongest ideal neighbour.
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, score)) = ideal.network_of(UserId(0)).first() else {
            return; // degenerate trace; nothing to assert
        };
        let offer = sim.node(best.index()).own_offer();
        let stats = receive(sim.node_mut(0), &[offer], &cfg);
        assert_eq!(stats.candidates_scored, 1);
        assert!(stats.digest_bytes > 0);
        assert!(sim.node(0).personal_network.contains(&best));
        assert_eq!(
            u64::from(sim.node(0).personal_network.get(&best).unwrap().score),
            score
        );
    }

    #[test]
    fn unchanged_digest_is_dropped_without_rescoring() {
        let (mut sim, cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, _)) = ideal.network_of(UserId(0)).first() else {
            return;
        };
        let offer = sim.node(best.index()).own_offer();
        let first = receive(sim.node_mut(0), std::slice::from_ref(&offer), &cfg);
        assert_eq!(first.candidates_scored, 1);
        // Re-offering the identical digest must be dropped at step 1.
        let second = receive(sim.node_mut(0), &[offer], &cfg);
        assert_eq!(second.candidates_scored, 0);
        assert_eq!(second.common_bytes, 0);
    }

    #[test]
    fn each_offer_class_is_charged_its_own_bytes() {
        use p3q_trace::{ItemId, Profile, TagId, TaggingAction};
        let cfg = P3qConfig::tiny();
        let tagged = |items: &[u32]| {
            Profile::from_actions(
                items
                    .iter()
                    .map(|&i| TaggingAction::new(ItemId(i), TagId(1))),
            )
        };
        let node = |id: u32, items: &[u32]| {
            P3qNode::new(
                UserId(id),
                tagged(items),
                10,
                5,
                3,
                cfg.digest_bits,
                cfg.digest_hashes,
            )
        };
        // (header, digest, step-2) bytes of one offer received by `me`.
        let charged = |me: &mut P3qNode, offer: ProfileOffer| {
            let stats = receive(me, &[offer], &cfg);
            (stats.header_bytes, stats.digest_bytes, stats.common_bytes)
        };
        let (header, digest) = (OFFER_HEADER_BYTES, digest_bytes(cfg.digest_bits));
        let mut me = node(0, &[1, 2, 3]);
        let mut friend = node(1, &[1, 2]);

        // About the receiver: nothing.
        let own = me.own_offer();
        assert_eq!(charged(&mut me, own), (0, 0, 0));
        // Unknown: header and digest, then step 2 on the two common items.
        let v1 = friend.own_offer();
        assert_eq!(
            charged(&mut me, v1.clone()),
            (header, digest, tagging_actions_bytes(2))
        );
        // Known at the same digest version: the header settles the drop.
        assert_eq!(charged(&mut me, v1), (header, 0, 0));
        // Known at another version: the digest travels.
        friend.add_tagging_actions([TaggingAction::new(ItemId(3), TagId(1))]);
        assert_eq!(
            charged(&mut me, friend.own_offer()),
            (header, digest, tagging_actions_bytes(3))
        );
        // A digest false positive: a stranger whose digest hits my items
        // but who shares none pays header and digest, and no step-2 bytes.
        let stranger = ProfileOffer {
            user: UserId(2),
            digest: me.shared_digest().clone(),
            digest_version: 1,
            version: 1,
            profile: Arc::new(tagged(&[7, 8])),
        };
        let stats = receive(&mut me, &[stranger], &cfg);
        assert_eq!((stats.header_bytes, stats.digest_bytes), (header, digest));
        assert_eq!((stats.candidates_scored, stats.common_bytes), (1, 0));
        assert!(!me.personal_network.contains(&UserId(2)));
    }

    #[test]
    fn digest_false_positives_are_probed_and_scored_like_real_hits() {
        use p3q_trace::{ItemId, Profile, TagId, TaggingAction};
        // Node 0 shares no item with anyone. A 64-bit digest makes some of
        // the others false-positive against its items; the digest check
        // must let through exactly those that the per-item test would.
        let cfg = P3qConfig {
            digest_bits: 64,
            digest_hashes: 2,
            ..P3qConfig::tiny()
        };
        let node_with_items = |id: u32, items: std::ops::Range<u32>| {
            let profile =
                Profile::from_actions(items.map(|i| TaggingAction::new(ItemId(i), TagId(1))));
            P3qNode::new(
                UserId(id),
                profile,
                10,
                5,
                3,
                cfg.digest_bits,
                cfg.digest_hashes,
            )
        };
        let mut nodes = vec![node_with_items(0, 0..3)];
        nodes.extend((1..=5).map(|id| node_with_items(id, id * 100..id * 100 + 16)));
        let hits_per_item = |peer: &P3qNode| {
            nodes[0]
                .profile()
                .items()
                .any(|item| peer.digest().contains(item.as_key()))
        };
        let expected: Vec<UserId> = nodes[1..]
            .iter()
            .filter(|peer| hits_per_item(peer))
            .map(|peer| peer.id)
            .collect();
        assert!(
            !expected.is_empty() && expected.len() < 5,
            "the fixture needs a false positive and a miss, got {expected:?}"
        );

        let offers: Vec<ProfileOffer> = nodes[1..]
            .iter()
            .map(|peer| ProfileOffer {
                user: peer.id,
                digest: peer.shared_digest().clone(),
                digest_version: 1,
                version: 1,
                profile: peer.shared_profile().clone(),
            })
            .collect();

        // The plan probes the false positives and nobody else.
        for offer in &offers {
            let info = DigestInfo {
                digest: offer.digest.clone(),
                version: 1,
            };
            nodes[0].random_view.insert(offer.user, info);
        }
        let mut sim = Simulator::new(nodes, 1);
        let world = CycleContext::new(sim.nodes(), sim.membership(), 0);
        let mut plans = Vec::new();
        cfg.lazy()
            .plan(&world, 0, &mut StdRng::seed_from_u64(2), &mut plans);
        let probed: Vec<UserId> = plans
            .iter()
            .find_map(|plan| match &plan.payload {
                LazyStep::Probe(offers) => Some(offers.iter().map(|c| c.user).collect()),
                _ => None,
            })
            .expect("a false positive is a probe candidate");
        assert_eq!(probed, expected);

        // Committed, each probe bills its step-2 exchange as an offer does:
        // the actions on common items, none for a false positive.
        let probe = plans
            .iter()
            .find(|plan| matches!(plan.payload, LazyStep::Probe(_)))
            .expect("planned above");
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = cfg
            .lazy()
            .commit(0, probe, sim.node_mut(0), None, &mut rng, &mut ());
        let step2: Vec<usize> = outcome
            .charges
            .iter()
            .filter(|charge| charge.category == category::LAZY_COMMON)
            .map(|charge| charge.bytes)
            .collect();
        assert_eq!(step2, vec![0; expected.len()]);
        assert!(sim.node(0).personal_network.is_empty());

        // So does an offer batch: every digest travels, the false positives
        // pay for a step-2 exchange that finds nothing, nobody is recorded.
        let stats = receive(sim.node_mut(0), &offers, &cfg);
        assert_eq!(stats.digest_bytes, offers.len() * digest_bytes(64));
        assert_eq!(stats.candidates_scored, expected.len());
        assert_eq!((stats.common_bytes, stats.profile_bytes), (0, 0));
        assert!(sim.node(0).personal_network.is_empty());
    }

    #[test]
    fn stale_copy_is_marked_and_refreshed_only_by_a_newer_profile() {
        use p3q_trace::{ItemId, TagId, TaggingAction};
        let (mut sim, cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, _)) = ideal.network_of(UserId(0)).first() else {
            return;
        };
        // Step 0: a direct offer stores the peer's profile (fresh, v1).
        let direct = |sim: &Simulator<P3qNode>| sim.node(best.index()).own_offer();
        let old_offer = direct(&sim);
        receive(sim.node_mut(0), std::slice::from_ref(&old_offer), &cfg);
        assert!(sim.node(0).has_fresh_stored_profile(&best));

        // The owner changes her profile (v2).
        sim.node_mut(best.index())
            .add_tagging_actions(vec![TaggingAction::new(ItemId(3), TagId(1))]);
        let fresh_offer = direct(&sim);
        assert_eq!(fresh_offer.version, 2);

        // A relayed offer pairing the *new* digest with the *old* profile
        // payload marks the copy stale but wastes no profile fetch.
        let relayed = ProfileOffer {
            digest: fresh_offer.digest.clone(),
            digest_version: fresh_offer.digest_version,
            ..old_offer.clone()
        };
        let stats = receive(sim.node_mut(0), &[relayed], &cfg);
        assert_eq!(stats.profile_bytes, 0, "an old payload must not be fetched");
        assert!(sim.node(0).stored_profile(&best).is_some());
        assert!(!sim.node(0).has_fresh_stored_profile(&best));

        // A later relay with the old digest must not whitewash the copy.
        let old_relay = old_offer.clone();
        receive(sim.node_mut(0), &[old_relay], &cfg);
        assert!(!sim.node(0).has_fresh_stored_profile(&best));

        // Only the owner's direct offer — unchanged digest but a newer
        // profile payload — refreshes the copy.
        let stats = receive(sim.node_mut(0), std::slice::from_ref(&fresh_offer), &cfg);
        assert!(stats.profile_bytes > 0);
        assert!(sim.node(0).has_fresh_stored_profile(&best));
        assert_eq!(
            sim.node(0).stored_profile(&best).unwrap(),
            sim.node(best.index()).profile()
        );
    }

    #[test]
    fn digest_version_advances_even_when_bloom_bytes_collide() {
        // A profile change whose new actions only hit already-set Bloom
        // bits leaves the digest bytes identical; the offer's digest
        // version must still get through and mark the cached copy stale.
        let (mut sim, cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, _)) = ideal.network_of(UserId(0)).first() else {
            return;
        };
        let offer_v1 = {
            let peer = sim.node(best.index());
            ProfileOffer {
                user: peer.id,
                digest: peer.shared_digest().clone(),
                digest_version: 1,
                version: 1,
                profile: peer.shared_profile().clone(),
            }
        };
        receive(sim.node_mut(0), std::slice::from_ref(&offer_v1), &cfg);
        assert!(sim.node(0).has_fresh_stored_profile(&best));

        // Same digest bytes (same Arc, even), but the owner is at v2 now.
        let collided = ProfileOffer {
            digest_version: 2,
            ..offer_v1.clone()
        };
        receive(sim.node_mut(0), &[collided], &cfg);
        let entry = sim.node(0).personal_network.get(&best).unwrap();
        assert_eq!(entry.meta.digest_version, 2);
        assert!(!sim.node(0).has_fresh_stored_profile(&best));
    }

    #[test]
    fn lazy_cycles_grow_personal_networks_towards_ideal() {
        let (mut sim, cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, cfg.personal_network_size);
        let mut rng = StdRng::seed_from_u64(5);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        let before = average_success_ratio(sim.nodes().iter(), &ideal);
        sim.drive(&cfg.lazy(), RunOptions::cycles(15), |_, _| {});
        let after = average_success_ratio(sim.nodes().iter(), &ideal);
        assert!(
            after > before,
            "success ratio did not improve: {before} -> {after}"
        );
        assert!(after > 0.3, "convergence too slow: {after}");
    }

    #[test]
    fn lazy_cycles_record_bandwidth() {
        let (mut sim, cfg, _) = small_sim();
        let mut rng = StdRng::seed_from_u64(5);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        sim.drive(&cfg.lazy(), RunOptions::cycles(3), |_, _| {});
        let (bytes, messages) = sim.bandwidth.totals();
        assert!(bytes > 0);
        assert!(messages > 0);
        assert!(sim.bandwidth.category_bytes(category::RPS_DIGESTS) > 0);
    }

    #[test]
    fn parallel_lazy_cycles_match_the_sequential_reference() {
        for threads in [2, 3, 8] {
            let build = || {
                let (mut sim, cfg, _) = small_sim();
                let mut rng = StdRng::seed_from_u64(5);
                bootstrap_random_views(&mut sim, &cfg, &mut rng);
                (sim, cfg)
            };
            let (mut reference, cfg) = build();
            let (mut parallel, _) = build();
            for _ in 0..4 {
                let r = reference
                    .drive(&cfg.lazy(), RunOptions::cycles(1).oracle(), |_, _| {})
                    .report;
                let p = parallel
                    .drive(
                        &cfg.lazy(),
                        RunOptions::cycles(1).threads(threads),
                        |_, _| {},
                    )
                    .report;
                assert_eq!(r, p, "cycle reports diverged at {threads} threads");
            }
            for idx in 0..reference.num_nodes() {
                let (a, b) = (reference.node(idx), parallel.node(idx));
                assert_eq!(a.personal_network, b.personal_network, "node {idx}");
                assert_eq!(a.random_view, b.random_view, "node {idx}");
            }
            assert_eq!(reference.bandwidth.totals(), parallel.bandwidth.totals());
        }
    }

    #[test]
    fn zero_fault_lazy_cycles_match_the_faultless_engine() {
        let build = || {
            let (mut sim, cfg, _) = small_sim();
            let mut rng = StdRng::seed_from_u64(5);
            bootstrap_random_views(&mut sim, &cfg, &mut rng);
            (sim, cfg)
        };
        let (mut plain, cfg) = build();
        let (mut faulted, _) = build();
        let mut faults = FaultPlan::new(p3q_sim::FaultConfig::none());
        for _ in 0..4 {
            let a = plain
                .drive(&cfg.lazy(), RunOptions::cycles(1), |_, _| {})
                .report;
            let b = faulted
                .drive(
                    &cfg.lazy(),
                    RunOptions::cycles(1).faulted(&mut faults),
                    |_, _| {},
                )
                .report;
            assert_eq!(a, b);
        }
        for idx in 0..plain.num_nodes() {
            assert_eq!(
                plain.node(idx).personal_network,
                faulted.node(idx).personal_network,
                "node {idx}"
            );
            assert_eq!(
                plain.node(idx).random_view,
                faulted.node(idx).random_view,
                "node {idx}"
            );
        }
        assert_eq!(plain.bandwidth.totals(), faulted.bandwidth.totals());
        assert_eq!(faults.stats(), p3q_sim::FaultStats::default());
    }

    #[test]
    fn shuffles_bill_descriptors_requests_and_pulled_digests() {
        let (mut sim, cfg, _) = small_sim();
        bootstrap_random_views(&mut sim, &cfg, &mut StdRng::seed_from_u64(5));
        sim.drive(&cfg.lazy(), RunOptions::cycles(2), |_, _| {});
        // A newer profile version on a few nodes: the copies others hold of
        // them are stale, and a younger descriptor must be pulled.
        for idx in (0..sim.num_nodes()).step_by(3) {
            let node = sim.node_mut(idx);
            let action = node.profile().actions()[0];
            node.add_tagging_actions([TaggingAction::new(action.item, TagId(u32::MAX))]);
        }
        let digest = digest_bytes(cfg.digest_bits);
        let (mut pulled_total, mut new_peers) = (0, 0);
        for a_idx in 0..sim.num_nodes() {
            let b_idx = sim.node(a_idx).random_view.peers().next().unwrap().index();
            let (mut a, mut b) = (sim.node(a_idx).clone(), sim.node(b_idx).clone());
            let held = |node: &P3qNode| -> Vec<(UserId, u64)> {
                node.random_view
                    .iter()
                    .map(|e| (e.peer, e.meta.version))
                    .collect()
            };
            let (a_held, b_held) = (held(&a), held(&b));
            let (a_len, b_len) = (a.random_view.len(), b.random_view.len());
            let plan = ExchangePlan {
                initiator: a_idx,
                destination: Some(b_idx),
                payload: LazyStep::Shuffle,
            };
            let mut rng = StdRng::seed_from_u64(a_idx as u64);
            let outcome = cfg
                .lazy()
                .commit(0, &plan, &mut a, Some(&mut b), &mut rng, &mut ());
            // Pulled: a kept entry whose (peer, version) the side did not
            // hold; a refreshed copy keeps its version.
            let pulled = |node: &P3qNode, before: &[(UserId, u64)]| {
                let new = held(node);
                let unknown = new
                    .iter()
                    .filter(|e| !before.iter().any(|h| h.0 == e.0))
                    .count();
                (new.iter().filter(|e| !before.contains(e)).count(), unknown)
            };
            let ((a_pulled, a_new), (b_pulled, b_new)) = (pulled(&a, &a_held), pulled(&b, &b_held));
            let bill = |idx| -> usize {
                outcome
                    .charges
                    .iter()
                    .filter(|c| c.node == idx)
                    .map(|c| c.bytes)
                    .sum()
            };
            assert_eq!(
                bill(a_idx),
                (b_len + 1) * 12 + a_pulled * digest + b_pulled * 4
            );
            assert_eq!(
                bill(b_idx),
                (a_len + 1) * 12 + b_pulled * digest + a_pulled * 4
            );
            pulled_total += a_pulled + b_pulled;
            new_peers += a_new + b_new;
        }
        assert!(pulled_total > new_peers, "no stale copy was pulled");
        assert!(
            pulled_total < sim.num_nodes() * 2 * cfg.random_view_size,
            "no digest was saved against the paper's r per side"
        );
    }

    #[test]
    fn random_view_invariants_hold_through_crashes_and_restarts() {
        // Every shuffle checks both views in debug builds (at most
        // `capacity` entries, none for the owner, no peer twice); here the
        // views it leaves are checked too, cycle by cycle, while crashed
        // nodes lose their views and re-bootstrap them.
        let (mut sim, cfg, _) = small_sim();
        bootstrap_random_views(&mut sim, &cfg, &mut StdRng::seed_from_u64(5));
        let mut faults = FaultPlan::new(p3q_sim::FaultConfig::crash_restart(0.3, 1, 11));
        let mut cycles = 0;
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(12).faulted(&mut faults),
            |sim, event| {
                if !matches!(event, RunEvent::CycleEnd(_)) {
                    return;
                }
                cycles += 1;
                for idx in 0..sim.num_nodes() {
                    let view = &sim.node(idx).random_view;
                    let mut peers: Vec<UserId> = view.peers().collect();
                    assert!(peers.len() <= view.capacity(), "node {idx} over capacity");
                    assert!(
                        !view.contains(&UserId::from_index(idx)),
                        "node {idx} holds itself"
                    );
                    peers.sort_unstable();
                    peers.dedup();
                    assert_eq!(peers.len(), view.len(), "node {idx} holds a peer twice");
                }
            },
        );
        assert_eq!(cycles, 12);
        let stats = faults.stats();
        assert!(
            stats.crashes > 0 && stats.restarts > 0,
            "fixture must crash and restart"
        );
    }

    #[test]
    fn personal_network_invariants_hold_through_crashes_and_restarts() {
        // Every admission and every crash checks the personal network in
        // debug builds (at most `s` entries in (score, peer) order, no peer
        // twice, one copy slot per rank below `c`, no column past its
        // bound); c = 3 of s = 10 here, so copies are cut at rank `c` while
        // crashed nodes lose their networks and rebuild them.
        let trace = TraceGenerator::new(TraceConfig::tiny(17)).generate();
        let cfg = P3qConfig::tiny();
        let storage = StorageDistribution::Uniform(300);
        let mut sim = build_simulator(&trace.dataset, &cfg, &storage, 99);
        bootstrap_random_views(&mut sim, &cfg, &mut StdRng::seed_from_u64(5));
        let mut faults = FaultPlan::new(p3q_sim::FaultConfig::crash_restart(0.3, 1, 11));
        let mut stored = 0;
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(12).faulted(&mut faults),
            |sim, event| {
                if !matches!(event, RunEvent::CycleEnd(_)) {
                    return;
                }
                for node in sim.nodes() {
                    let c = node.storage_budget();
                    assert!(c < cfg.personal_network_size, "c below s");
                    for (peer, _, _) in node.stored_profiles() {
                        assert!(node.personal_network.rank_of(&peer).is_some_and(|r| r < c));
                    }
                    stored += node.stored_profile_count();
                }
            },
        );
        let stats = faults.stats();
        assert!(
            stats.crashes > 0 && stats.restarts > 0 && stored > 0,
            "fixture must crash, restart and store copies"
        );
    }

    #[test]
    fn restarted_nodes_rebootstrap_their_random_views() {
        let (mut sim, cfg, _) = small_sim();
        let mut rng = StdRng::seed_from_u64(5);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        // Crash aggressively for a few cycles, then let the dust settle.
        let mut faults = FaultPlan::new(p3q_sim::FaultConfig::crash_restart(0.4, 1, 7));
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(6).faulted(&mut faults),
            |_, _| {},
        );
        assert!(faults.stats().crashes > 0, "fixture must actually crash");
        let mut calm = FaultPlan::new(p3q_sim::FaultConfig::none());
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(3).faulted(&mut calm),
            |_, _| {},
        );
        // Every alive node is back in the overlay: a non-empty random view
        // seeded by the Rebootstrap step, pointing only at current peers.
        for idx in 0..sim.num_nodes() {
            if !sim.is_alive(idx) {
                continue;
            }
            let view: Vec<_> = sim.node(idx).random_view.iter().collect();
            assert!(!view.is_empty(), "node {idx} never re-bootstrapped");
            for entry in &view {
                assert_ne!(entry.peer.index(), idx);
            }
        }
    }

    #[test]
    fn bootstrap_fills_random_views() {
        let (mut sim, cfg, _) = small_sim();
        let mut rng = StdRng::seed_from_u64(1);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        for idx in 0..sim.num_nodes() {
            assert!(
                sim.node(idx).random_view.len() >= cfg.random_view_size.min(sim.num_nodes() - 1),
                "random view of node {idx} not filled"
            );
            assert!(!sim.node(idx).random_view.contains(&UserId::from_index(idx)));
        }
    }
}
