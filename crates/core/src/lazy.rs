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
use p3q_gossip::peer_sampling;
use p3q_sim::{stream_seed, CommitOutcome, CycleContext, ExchangePlan, GossipProtocol, Simulator};
use p3q_trace::{SharedProfile, UserId};

use crate::bandwidth::{category, digest_bytes, tagging_actions_bytes};
use crate::config::P3qConfig;
use crate::node::{Admission, DigestInfo, P3qNode};

/// One profile proposed during a gossip exchange: the owner, her digest and
/// the proposer's stored copy of her profile.
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

/// Byte counts of one side of a gossip exchange, split by protocol step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Bytes of profile digests received (step 1).
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
    /// Total bytes across the three steps.
    pub fn total_bytes(&self) -> usize {
        self.digest_bytes + self.common_bytes + self.profile_bytes
    }
}

/// Collects the profiles a node proposes in one gossip exchange: a random
/// subset of at most `limit` stored profiles, plus the node's own profile.
pub(crate) fn collect_offers(node: &P3qNode, limit: usize, rng: &mut StdRng) -> Vec<ProfileOffer> {
    let mut stored: Vec<ProfileOffer> = node
        .personal_network
        .iter()
        .filter_map(|entry| {
            let profile = entry.meta.profile.as_ref()?;
            Some(ProfileOffer {
                user: entry.peer,
                digest: entry.meta.digest.clone(),
                digest_version: u64::from(entry.meta.digest_version),
                version: u64::from(entry.meta.profile_version),
                profile: profile.clone(),
            })
        })
        .collect();
    stored.shuffle(rng);
    stored.truncate(limit);
    stored.push(node.own_offer());
    stored
}

/// Processes the profiles received in a gossip exchange, following the
/// 3-step protocol of Algorithm 1, and returns the byte counts incurred.
pub(crate) fn process_offers(node: &mut P3qNode, offers: &[ProfileOffer]) -> ExchangeStats {
    let mut stats = ExchangeStats::default();
    for offer in offers {
        if offer.user == node.id {
            continue;
        }
        // Step 1: the digest always travels.
        stats.digest_bytes += offer.digest.size_bytes();

        // Lines 4–9: known neighbour with an unchanged digest → drop.
        // Shared handles make the common case a pointer comparison. The
        // digest bytes alone are not enough, though: a profile change whose
        // actions collide with already-set Bloom bits leaves the digest
        // bytes identical, and a stale stored copy is refreshed by a newer
        // *payload* under the same digest. So an offer also passes when it
        // advances the recorded digest version, or carries a newer profile
        // payload than a copy we store.
        let known = node.personal_network.get(&offer.user);
        if let Some(entry) = known {
            let same_digest =
                Arc::ptr_eq(&entry.meta.digest, &offer.digest) || entry.meta.digest == offer.digest;
            let advances_digest = offer.digest_version > u64::from(entry.meta.digest_version);
            let upgrades_copy = entry.meta.profile.is_some()
                && offer.version > u64::from(entry.meta.profile_version);
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
        let common = node.profile().common_actions(&offer.profile);
        stats.common_bytes += tagging_actions_bytes(common);
        stats.candidates_scored += 1;
        if common == 0 {
            // The digest check was a false positive; nothing to add.
            continue;
        }
        // Step 3 (lines 27–31): the rest of the profile travels only if
        // admission stored it (see `P3qNode::admit` for when).
        if node.admit(offer, common as u64) == Admission::Stored {
            let rest = offer.profile.len().saturating_sub(common);
            stats.profile_bytes += tagging_actions_bytes(rest);
            stats.profiles_stored += 1;
        }
    }
    stats
}

/// Performs a symmetric profile-gossip exchange between two nodes: both
/// sides collect offers and process the other side's. Returns the byte
/// counts each side incurred. Used by the lazy top layer and by the
/// maintenance piggybacked on eager gossip — always from a commit, where
/// both `&mut` sides are available.
pub(crate) fn exchange_profiles(
    a: &mut P3qNode,
    b: &mut P3qNode,
    cfg: &P3qConfig,
    rng: &mut StdRng,
) -> (ExchangeStats, ExchangeStats) {
    let offers_from_a = collect_offers(a, cfg.profiles_per_gossip, rng);
    let offers_from_b = collect_offers(b, cfg.profiles_per_gossip, rng);
    let a_stats = process_offers(a, &offers_from_b);
    let b_stats = process_offers(b, &offers_from_a);
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
        let candidates: Vec<ProfileOffer> = node
            .random_view
            .iter()
            .filter(|e| valid_partner(e.peer) && e.meta.digest.contains_any(probes))
            .map(|e| world.node(e.peer.index()).own_offer())
            .collect();
        if !candidates.is_empty() {
            out.push(ExchangePlan {
                initiator: idx,
                destination: None,
                payload: LazyStep::Probe(candidates),
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
                peer_sampling::shuffle(
                    a.id,
                    &mut a.random_view,
                    b.id,
                    &mut b.random_view,
                    a_info,
                    b_info,
                    rng,
                );
                // Each side ships r digests (paper: "10 profile digests of
                // 25K bytes").
                let payload = cfg.random_view_size * digest_bytes(cfg.digest_bits);
                outcome.charge(plan.initiator, category::RPS_DIGESTS, payload);
                outcome.charge(dest_idx, category::RPS_DIGESTS, payload);
            }
            LazyStep::NetworkGossip => {
                let dest_idx = plan.destination.expect("network gossip is pairwise");
                let b = destination.expect("network gossip is pairwise");
                initiator.personal_network.reset_staleness(&b.id);
                let (a_stats, b_stats) = exchange_profiles(initiator, b, cfg, rng);
                for (node_idx, stats) in [(plan.initiator, a_stats), (dest_idx, b_stats)] {
                    outcome.charge(node_idx, category::LAZY_DIGESTS, stats.digest_bytes);
                    if stats.common_bytes > 0 {
                        outcome.charge(node_idx, category::LAZY_COMMON, stats.common_bytes);
                    }
                    if stats.profile_bytes > 0 {
                        outcome.charge(node_idx, category::LAZY_PROFILES, stats.profile_bytes);
                    }
                }
            }
            LazyStep::Probe(candidates) => {
                // p3q-allow: hash-iter — this `candidates` is the plan's
                // `Vec<ProfileOffer>` (snapshotted in plan order), not the
                // hash-typed field of the same name elsewhere.
                for candidate in candidates {
                    probe_candidate(initiator, plan.initiator, candidate, &mut outcome);
                }
            }
            LazyStep::Rebootstrap(picks) => {
                for (user, info) in picks {
                    initiator.random_view.insert(*user, info.clone());
                }
                // Re-fetching r digests costs what a bootstrap contact
                // does: one digest per re-seeded view slot.
                let payload = picks.len() * digest_bytes(cfg.digest_bits);
                outcome.charge(plan.initiator, category::RPS_DIGESTS, payload);
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
    let mut common_bytes = tagging_actions_bytes(common);
    let mut profile_bytes = 0usize;
    let admission = if common == 0 {
        Admission::Rejected
    } else {
        me.admit(candidate, common as u64)
    };
    match admission {
        Admission::Stored => {
            profile_bytes = tagging_actions_bytes(candidate.profile.len().saturating_sub(common));
        }
        Admission::Kept => {}
        // No common item (the digest matched falsely) or no room among
        // better neighbours: the step-2 exchange still happened, and is
        // charged at least one action.
        Admission::Rejected => common_bytes = common_bytes.max(tagging_actions_bytes(1)),
    }
    outcome.charge(my_idx, category::LAZY_COMMON, common_bytes);
    if profile_bytes > 0 {
        outcome.charge(my_idx, category::LAZY_PROFILES, profile_bytes);
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
    use crate::experiment::build_simulator;
    use crate::metrics::average_success_ratio;
    use crate::storage::StorageDistribution;
    use p3q_sim::{FaultPlan, RunOptions};
    use p3q_trace::{TraceConfig, TraceGenerator};
    use rand::SeedableRng;

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
        let offers = collect_offers(sim.node(0), 3, &mut rng);
        assert!(offers.iter().any(|o| o.user == sim.node(0).id));
        assert!(offers.len() <= 4);
    }

    #[test]
    fn process_offers_adds_similar_neighbours() {
        let (mut sim, _cfg, dataset) = small_sim();
        // Offer node 0 the profile of a user that certainly shares something:
        // its own strongest ideal neighbour.
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, score)) = ideal.network_of(UserId(0)).first() else {
            return; // degenerate trace; nothing to assert
        };
        let offer = sim.node(best.index()).own_offer();
        let stats = process_offers(sim.node_mut(0), &[offer]);
        assert_eq!(stats.candidates_scored, 1);
        assert!(stats.digest_bytes > 0);
        assert!(sim.node(0).personal_network.contains(&best));
        assert_eq!(
            sim.node(0).personal_network.get(&best).unwrap().score,
            score
        );
    }

    #[test]
    fn unchanged_digest_is_dropped_without_rescoring() {
        let (mut sim, _cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, _)) = ideal.network_of(UserId(0)).first() else {
            return;
        };
        let offer = sim.node(best.index()).own_offer();
        let first = process_offers(sim.node_mut(0), std::slice::from_ref(&offer));
        assert_eq!(first.candidates_scored, 1);
        // Re-offering the identical digest must be dropped at step 1.
        let second = process_offers(sim.node_mut(0), &[offer]);
        assert_eq!(second.candidates_scored, 0);
        assert_eq!(second.common_bytes, 0);
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
                LazyStep::Probe(candidates) => Some(candidates.iter().map(|c| c.user).collect()),
                _ => None,
            })
            .expect("a false positive is a probe candidate");
        assert_eq!(probed, expected);

        // So does an offer batch: every digest travels, the false positives
        // pay for a step-2 exchange that finds nothing, nobody is recorded.
        let stats = process_offers(sim.node_mut(0), &offers);
        assert_eq!(stats.digest_bytes, offers.len() * digest_bytes(64));
        assert_eq!(stats.candidates_scored, expected.len());
        assert_eq!((stats.common_bytes, stats.profile_bytes), (0, 0));
        assert!(sim.node(0).personal_network.is_empty());
    }

    #[test]
    fn stale_copy_is_marked_and_refreshed_only_by_a_newer_profile() {
        use p3q_trace::{ItemId, TagId, TaggingAction};
        let (mut sim, _cfg, dataset) = small_sim();
        let ideal = IdealNetworks::compute(&dataset, 10);
        let Some(&(best, _)) = ideal.network_of(UserId(0)).first() else {
            return;
        };
        // Step 0: a direct offer stores the peer's profile (fresh, v1).
        let direct = |sim: &Simulator<P3qNode>| sim.node(best.index()).own_offer();
        let old_offer = direct(&sim);
        process_offers(sim.node_mut(0), std::slice::from_ref(&old_offer));
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
        let stats = process_offers(sim.node_mut(0), &[relayed]);
        assert_eq!(stats.profile_bytes, 0, "an old payload must not be fetched");
        assert!(sim.node(0).stored_profile(&best).is_some());
        assert!(!sim.node(0).has_fresh_stored_profile(&best));

        // A later relay with the old digest must not whitewash the copy.
        let old_relay = old_offer.clone();
        process_offers(sim.node_mut(0), &[old_relay]);
        assert!(!sim.node(0).has_fresh_stored_profile(&best));

        // Only the owner's direct offer — unchanged digest but a newer
        // profile payload — refreshes the copy.
        let stats = process_offers(sim.node_mut(0), std::slice::from_ref(&fresh_offer));
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
        let (mut sim, _cfg, dataset) = small_sim();
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
        process_offers(sim.node_mut(0), std::slice::from_ref(&offer_v1));
        assert!(sim.node(0).has_fresh_stored_profile(&best));

        // Same digest bytes (same Arc, even), but the owner is at v2 now.
        let collided = ProfileOffer {
            digest_version: 2,
            ..offer_v1.clone()
        };
        process_offers(sim.node_mut(0), &[collided]);
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
                assert_eq!(
                    a.random_view.snapshot(),
                    b.random_view.snapshot(),
                    "node {idx}"
                );
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
                plain.node(idx).random_view.snapshot(),
                faulted.node(idx).random_view.snapshot(),
                "node {idx}"
            );
        }
        assert_eq!(plain.bandwidth.totals(), faulted.bandwidth.totals());
        assert_eq!(faults.stats(), p3q_sim::FaultStats::default());
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
