//! The eager gossip mode: collaborative query processing (Section 2.2.2,
//! Algorithms 2 and 3), expressed as a plan/commit [`GossipProtocol`].
//!
//! The querier first answers her query locally from the profiles she stores,
//! then gossips the query together with her **remaining list** (the
//! personal-network members whose profiles she does not store) along the
//! personal network. Every reached user
//!
//! 1. removes from the received remaining list the users whose profiles she
//!    stores (including her own, if requested),
//! 2. computes her share of the query over those profiles and sends the
//!    partial result list straight to the querier,
//! 3. keeps a `(1 − α)` fraction of the updated remaining list for herself
//!    and returns the remaining `α` fraction to the gossip initiator,
//! 4. piggybacks a lazy-style profile exchange with the initiator, which is
//!    what refreshes the personal networks of the users reached by queries
//!    (Section 3.4.1, Figure 9).
//!
//! [`EagerProtocol`] maps this onto the engine's phases: destination
//! selection (Algorithm 3, lines 4–9) happens in the read-only **plan**
//! phase; the remaining-list split, task updates and the piggybacked profile
//! exchange happen in the pairwise **commit**; the partial-result delivery
//! to the querier — a third party — travels as a deferred **effect**,
//! applied in deterministic plan order after each conflict-free batch. One
//! gossip hop therefore takes exactly one cycle, matching the synchronous
//! rounds of the paper's analysis (Section 2.4), and the cycle is
//! byte-identical for every worker-thread count.
//!
//! The process continues, cycle after cycle, until no reached user has a
//! non-empty remaining list; the querier merges the asynchronously arriving
//! partial result lists with the incremental NRA and can display a top-k at
//! the end of every cycle. [`EagerProtocol`] implements the engine's
//! run-loop hooks so a runtime's `drive` entry runs that loop directly:
//! `finish_cycle` updates querier completion status after every cycle, and
//! `wants_more` keeps a faulted until-idle run alive while backed-off
//! retries may still re-ignite gossip. It needs no `begin_run`: no
//! configuration is unsound for an eager-only run.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use p3q_sim::{
    CommitOutcome, CycleContext, EffectContext, ExchangePlan, GossipProtocol, Simulator,
};
use p3q_topk::PartialResultList;
use p3q_trace::{ItemId, Profile, Query, SharedProfile, UserId};

use crate::bandwidth::{category, partial_result_bytes, remaining_list_bytes};
use crate::config::P3qConfig;
use crate::lazy::exchange_profiles;
use crate::node::P3qNode;
use crate::query::{QuerierState, QueryId, RemainingTask};
use crate::scoring::{partial_result_list_buffered, ScoreBuffer};

/// Issues a query at the given node (Algorithm 2, lines 3–7).
///
/// The querier processes the query over the profiles she stores, initialises
/// her remaining list with the personal-network members whose profiles she
/// lacks, and records the querier-side state under `query_id`.
///
/// Returns the number of profiles used by the local computation.
pub fn issue_query(
    sim: &mut Simulator<P3qNode>,
    querier_idx: usize,
    query_id: QueryId,
    query: Query,
    cfg: &P3qConfig,
) -> usize {
    let cycle = sim.cycle();
    let node = sim.node_mut(querier_idx);
    let target_profiles = node.network_peers();
    let mut state = QuerierState::new(query.clone(), target_profiles, cycle);
    if cfg.query_ttl_cycles > 0 {
        state.deadline_cycle = cycle + cfg.query_ttl_cycles;
    }

    // Local processing over the *fresh* stored profiles (all of them belong
    // to the personal network, so they count towards the target set; copies
    // gone stale after their owner's dynamics are re-fetched via the
    // remaining list instead of being silently scored). Cloning the handles
    // is reference counting, not profile copying.
    let stored: Vec<(UserId, SharedProfile)> = node
        .shared_fresh_stored_profiles()
        .map(|(peer, profile, _)| (peer, profile.clone()))
        .collect();
    let used: Vec<UserId> = stored.iter().map(|(peer, _)| *peer).collect();
    let mut scratch = ScoreBuffer::default();
    let list =
        partial_result_list_buffered(stored.iter().map(|(_, p)| p.as_ref()), &query, &mut scratch);
    state.absorb_partial_result(list, &used);

    // Remaining list: personal-network members without a fresh stored
    // profile (unstored, or stored but stale).
    state.remaining = node.peers_missing_fresh_profile();
    state.mark_complete_if_done(cycle);
    let used_count = used.len();
    node.querier_states.insert(query_id, state);
    used_count
}

/// One planned eager exchange: which query context the initiator gossips
/// for, and how the destination was selected. The remaining list itself is
/// *not* snapshotted — the commit re-reads the context's current list so
/// that shares delegated by earlier batches of the same cycle are never
/// lost.
#[derive(Debug, Clone)]
pub struct EagerTask {
    /// The query being gossiped.
    pub query_id: QueryId,
    /// The user who issued it (partial results are delivered to her).
    pub querier: UserId,
    /// The query itself.
    pub query: Query,
    /// `true` if the initiator gossips its own querier-side state,
    /// `false` for a delegated task.
    pub is_querier: bool,
    /// `true` if the destination was picked as a personal-network member
    /// (its staleness timestamp is reset at commit, Algorithm 3 line 6).
    pub via_network: bool,
}

/// A partial-result delivery to the querier — the one mutation of an eager
/// exchange that crosses the committed pair, deferred as an engine effect.
#[derive(Debug, Clone)]
pub struct EagerDelivery {
    query_id: QueryId,
    querier: UserId,
    /// The destination that processed the query.
    dest: UserId,
    partial: PartialResultList<ItemId>,
    found: Vec<UserId>,
    forwarded_bytes: u64,
    returned_bytes: u64,
    partial_bytes: u64,
}

/// Result of destination-side processing (Algorithm 3, lines 16–25).
struct DestinationOutcome {
    partial: PartialResultList<ItemId>,
    found: Vec<UserId>,
    dest_share: Vec<UserId>,
    initiator_share: Vec<UserId>,
}

/// Snapshot of a node's active gossip contexts (non-empty remaining lists),
/// used by the plan phase.
struct GossipContext {
    query_id: QueryId,
    querier: UserId,
    query: Query,
    remaining: Vec<UserId>,
    is_querier: bool,
}

fn collect_contexts(node: &P3qNode, cycle: u64) -> Vec<GossipContext> {
    let mut contexts = Vec::new();
    // p3q-allow: hash-iter — order-insensitive collection; contexts are
    // sorted by query_id before being returned.
    for (&query_id, state) in &node.querier_states {
        // An expired query (deadline passed, still incomplete) is no
        // longer gossiped; its state stays around for the loss metrics.
        if state.is_expired(cycle) {
            continue;
        }
        if !state.remaining.is_empty() {
            contexts.push(GossipContext {
                query_id,
                querier: node.id,
                query: state.query.clone(),
                remaining: state.remaining.clone(),
                is_querier: true,
            });
        }
    }
    // p3q-allow: hash-iter — order-insensitive collection; contexts are
    // sorted by query_id before being returned.
    for (&query_id, task) in &node.tasks {
        if !task.is_done() {
            contexts.push(GossipContext {
                query_id,
                querier: task.querier,
                query: task.query.clone(),
                remaining: task.remaining.clone(),
                is_querier: false,
            });
        }
    }
    contexts.sort_by_key(|c| c.query_id);
    contexts
}

/// The eager mode as a plan/commit protocol. Hand it to a runtime's `drive`
/// entry; [`P3qConfig::eager`] is the usual constructor.
#[derive(Debug, Clone)]
pub struct EagerProtocol {
    cfg: P3qConfig,
}

impl EagerProtocol {
    /// Creates the protocol over a configuration.
    pub fn new(cfg: P3qConfig) -> Self {
        Self { cfg }
    }
}

impl GossipProtocol for EagerProtocol {
    type Node = P3qNode;
    type Payload = EagerTask;
    type Effect = EagerDelivery;
    type Scratch = ScoreBuffer;

    fn scratch(&self) -> ScoreBuffer {
        ScoreBuffer::default()
    }

    fn prepare(&self, node: &mut P3qNode, cycle: u64) {
        // Both mechanisms are fault-hardening knobs defaulting to 0:
        // with the paper's idealized network none of this runs and eager
        // cycles are byte-identical to the pre-fault engine.
        let cfg = &self.cfg;
        if cfg.query_ttl_cycles > 0 {
            // Shed delegated shares whose TTL lapsed: their querier has
            // given up (or died) and the work would never be billed.
            // p3q-allow: hash-iter — per-entry predicate; which entries
            // survive does not depend on visit order.
            node.tasks.retain(|_, task| !task.is_expired(cycle));
        }
        if cfg.retry_backoff_cycles > 0 {
            // p3q-allow: hash-iter — independent per-entry update; no
            // cross-entry state, so visit order cannot leak.
            for state in node.querier_states.values_mut() {
                state.maybe_retry(cycle, cfg.retry_backoff_cycles);
            }
        }
    }

    fn on_crash(&self, node: &mut P3qNode, _cycle: u64) {
        node.crash_volatile();
    }

    fn plan(
        &self,
        world: &CycleContext<'_, P3qNode>,
        idx: usize,
        rng: &mut StdRng,
        out: &mut Vec<ExchangePlan<EagerTask>>,
    ) {
        let node = world.node(idx);
        let contexts = collect_contexts(node, world.cycle());
        if contexts.is_empty() {
            return;
        }
        // One node may gossip several contexts in one cycle. The plan phase
        // sees one immutable snapshot, so the staleness resets the commits
        // will apply are emulated with a local overlay: a peer picked for an
        // earlier context counts as staleness 0 for the later ones.
        let mut locally_reset: HashSet<UserId> = HashSet::new();
        for ctx in contexts {
            let alive_remaining: Vec<UserId> = ctx
                .remaining
                .iter()
                .copied()
                .filter(|u| u.index() != idx && world.is_alive(u.index()))
                .collect();

            // Preferred (Algorithm 3, lines 4–6): the remaining-list member
            // of the personal network with the oldest timestamp — the
            // view's own selection order, with the overlay supplying the
            // pending resets.
            let from_network = node.personal_network.oldest_matching_with(
                |e| alive_remaining.contains(&e.peer),
                |e| {
                    if locally_reset.contains(&e.peer) {
                        0
                    } else {
                        e.staleness
                    }
                },
            );

            let (destination, via_network) = if let Some(peer) = from_network {
                (Some(peer), true)
            } else if let Some(peer) = alive_remaining.choose(rng) {
                // Otherwise: any alive remaining-list member.
                (Some(*peer), false)
            } else {
                // Fallback under churn: an alive personal-network neighbour
                // that may hold replicas of the departed users' profiles.
                let alive_neighbours: Vec<UserId> = node
                    .network_peers()
                    .into_iter()
                    .filter(|u| u.index() != idx && world.is_alive(u.index()))
                    .collect();
                (alive_neighbours.choose(rng).copied(), false)
            };
            let Some(destination) = destination else {
                continue;
            };
            if via_network {
                locally_reset.insert(destination);
            }
            out.push(ExchangePlan {
                initiator: idx,
                destination: Some(destination.index()),
                payload: EagerTask {
                    query_id: ctx.query_id,
                    querier: ctx.querier,
                    query: ctx.query,
                    is_querier: ctx.is_querier,
                    via_network,
                },
            });
        }
    }

    fn commit(
        &self,
        cycle: u64,
        plan: &ExchangePlan<EagerTask>,
        initiator: &mut P3qNode,
        destination: Option<&mut P3qNode>,
        rng: &mut StdRng,
        scratch: &mut ScoreBuffer,
    ) -> CommitOutcome<EagerDelivery> {
        let cfg = &self.cfg;
        let task = &plan.payload;
        let dest_idx = plan.destination.expect("eager plans are pairwise");
        let dest = destination.expect("eager plans are pairwise");
        let mut outcome = CommitOutcome::empty();

        // Re-read the context's *current* remaining list: an earlier batch
        // of this cycle may have delegated more users to this node, and a
        // snapshot would silently drop them. Note the list cannot have
        // *shrunk* since planning — each (node, query) context commits at
        // most once per cycle and mid-cycle updates only append — so a plan
        // always commits a real exchange and the early return below is pure
        // defence (it keeps `CycleReport::pair_exchanges` an exact count of
        // performed exchanges).
        let remaining: Vec<UserId> = if task.is_querier {
            initiator
                .querier_states
                .get(&task.query_id)
                .map(|s| s.remaining.clone())
                .unwrap_or_default()
        } else {
            initiator
                .tasks
                .get(&task.query_id)
                .map(|t| t.remaining.clone())
                .unwrap_or_default()
        };
        if remaining.is_empty() {
            return outcome;
        }
        if task.via_network {
            initiator.personal_network.reset_staleness(&dest.id);
        }

        // Destination-side processing (Algorithm 3, destination).
        let processed = destination_process(dest, &task.query, &remaining, cfg, rng, scratch);

        // Traffic: forwarded remaining list (initiator pays), returned
        // remaining list (destination pays), partial results to the querier
        // (destination pays).
        let forwarded = remaining_list_bytes(remaining.len());
        outcome.charge(plan.initiator, category::EAGER_FORWARDED, forwarded);
        let returned = remaining_list_bytes(processed.initiator_share.len());
        outcome.charge(dest_idx, category::EAGER_RETURNED, returned);
        let partial_bytes = if processed.found.is_empty() {
            0
        } else {
            partial_result_bytes(processed.partial.len(), processed.found.len())
        };
        if partial_bytes > 0 {
            outcome.charge(dest_idx, category::EAGER_PARTIAL_RESULTS, partial_bytes);
        }

        // Update the destination's task (merge with an existing share if it
        // already helps this query).
        if !processed.dest_share.is_empty() || dest.tasks.contains_key(&task.query_id) {
            let expires_cycle = if cfg.query_ttl_cycles > 0 {
                cycle + cfg.query_ttl_cycles
            } else {
                0
            };
            let dest_task = dest
                .tasks
                .entry(task.query_id)
                .or_insert_with(|| RemainingTask {
                    query_id: task.query_id,
                    querier: task.querier,
                    query: task.query.clone(),
                    remaining: Vec::new(),
                    expires_cycle,
                });
            // A fresh share of the same query renews the lease: only work
            // nobody has touched for a full TTL is dead.
            dest_task.expires_cycle = dest_task.expires_cycle.max(expires_cycle);
            for user in &processed.dest_share {
                if !dest_task.remaining.contains(user) {
                    dest_task.remaining.push(*user);
                }
            }
        }

        // Update the initiator's context with the returned remaining list.
        if task.is_querier {
            if let Some(state) = initiator.querier_states.get_mut(&task.query_id) {
                state.remaining = processed.initiator_share.clone();
            }
        } else if let Some(t) = initiator.tasks.get_mut(&task.query_id) {
            t.remaining = processed.initiator_share.clone();
        }

        // The delivery to the querier (possibly a third node) is deferred:
        // the engine applies it in plan order after this batch commits.
        outcome.effect(EagerDelivery {
            query_id: task.query_id,
            querier: task.querier,
            dest: dest.id,
            partial: processed.partial,
            found: processed.found,
            forwarded_bytes: forwarded as u64,
            returned_bytes: returned as u64,
            partial_bytes: partial_bytes as u64,
        });

        // Piggybacked personal-network maintenance between initiator and
        // destination (the "maintain personal network as in lazy mode" lines
        // of Algorithm 3).
        let (a_stats, b_stats) = exchange_profiles(initiator, dest, cfg, rng);
        for (node_idx, stats) in [(plan.initiator, a_stats), (dest_idx, b_stats)] {
            outcome.charge(node_idx, category::EAGER_MAINTENANCE, stats.digest_bytes);
            if stats.common_bytes > 0 {
                outcome.charge(node_idx, category::EAGER_MAINTENANCE, stats.common_bytes);
            }
            if stats.profile_bytes > 0 {
                outcome.charge(node_idx, category::EAGER_MAINTENANCE, stats.profile_bytes);
            }
        }
        outcome
    }

    fn apply_effect(&self, world: &mut EffectContext<'_, P3qNode>, delivery: EagerDelivery) {
        let querier_node = world.node_mut(delivery.querier.index());
        let Some(state) = querier_node.querier_states.get_mut(&delivery.query_id) else {
            return;
        };
        state.reached_users.insert(delivery.dest);
        if !delivery.found.is_empty() {
            state.absorb_partial_result(delivery.partial, &delivery.found);
            state.traffic.partial_results += delivery.partial_bytes;
            state.traffic.partial_result_messages += 1;
        }
        // Remaining-list traffic of every hop belongs to this query's bill
        // (Figure 6 sums over all users reached by the query).
        state.traffic.forwarded_remaining += delivery.forwarded_bytes;
        state.traffic.returned_remaining += delivery.returned_bytes;
        state.traffic.users_reached = state.reached_users.len() as u64;
    }

    fn finish_cycle(&self, node: &mut P3qNode, cycle: u64) {
        // End-of-cycle bookkeeping on every node: the queriers update their
        // completion status.
        // p3q-allow: hash-iter — independent per-entry update; no
        // cross-entry state, so visit order cannot leak.
        for state in node.querier_states.values_mut() {
            state.mark_complete_if_done(cycle);
        }
    }

    fn wants_more(&self, node: &P3qNode, cycle: u64) -> bool {
        // A quiet cycle is not the end while the retry machinery still has
        // live queries: a backed-off retry may re-ignite gossip several
        // cycles from now. Queries with a lapsed deadline do not count —
        // they will never gossip again.
        self.cfg.retry_backoff_cycles > 0
            && node
                .querier_states
                .values()
                .any(|s| !s.is_complete() && !s.is_expired(cycle))
    }

    fn effect_target(&self, effect: &EagerDelivery) -> Option<usize> {
        // The delivery mutates exactly the querier's node — the routing fact
        // a sharded runtime needs to apply effects actor-locally.
        Some(effect.querier.index())
    }
}

/// Destination-side processing of a received query + remaining list
/// (Algorithm 3, lines 16–23).
fn destination_process(
    dest: &P3qNode,
    query: &Query,
    remaining: &[UserId],
    cfg: &P3qConfig,
    rng: &mut impl Rng,
    scratch: &mut ScoreBuffer,
) -> DestinationOutcome {
    // Profiles the destination can resolve: its own (if requested) and the
    // fresh stored copies of requested users — a stale copy is not an
    // answer, the query keeps looking for the owner or a fresh replica.
    // At most c + 1 lookups in a list of at most s users: a scan of the
    // slice beats hashing it into a set first.
    let mut found: Vec<UserId> = Vec::new();
    let mut profiles: Vec<&Profile> = Vec::new();
    if remaining.contains(&dest.id) {
        found.push(dest.id);
        profiles.push(dest.profile());
    }
    for (peer, profile, _) in dest.shared_fresh_stored_profiles() {
        if remaining.contains(&peer) {
            found.push(peer);
            profiles.push(profile.as_ref());
        }
    }

    let partial = partial_result_list_buffered(profiles.iter().copied(), query, scratch);

    // Updated remaining list, split by α: the destination keeps a (1 − α)
    // share, the initiator gets the rest back.
    let mut updated: Vec<UserId> = remaining
        .iter()
        .copied()
        .filter(|u| !found.contains(u))
        .collect();
    updated.shuffle(rng);
    let dest_count = ((1.0 - cfg.alpha) * updated.len() as f64).floor() as usize;
    let dest_share: Vec<UserId> = updated[..dest_count].to_vec();
    let initiator_share: Vec<UserId> = updated[dest_count..].to_vec();

    DestinationOutcome {
        partial,
        found,
        dest_share,
        initiator_share,
    }
}

/// Convenience accessor: the querier-side state of a query, if the node at
/// `querier_idx` issued it.
pub fn querier_state(
    sim: &Simulator<P3qNode>,
    querier_idx: usize,
    query_id: QueryId,
) -> Option<&QuerierState> {
    sim.node(querier_idx).querier_states.get(&query_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{centralized_topk, IdealNetworks};
    use crate::experiment::{build_simulator_with_budgets, init_ideal_networks};
    use crate::metrics::recall_at_k;
    use p3q_sim::RunOptions;
    use p3q_trace::{ItemId, QueryGenerator, TraceConfig, TraceGenerator};

    struct Fixture {
        sim: Simulator<P3qNode>,
        cfg: P3qConfig,
        dataset: p3q_trace::Dataset,
        ideal: IdealNetworks,
        queries: Vec<Query>,
    }

    fn fixture(storage_budget: usize) -> Fixture {
        let trace = TraceGenerator::new(TraceConfig::tiny(31)).generate();
        let cfg = P3qConfig::tiny();
        let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
        let budgets = vec![storage_budget; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 41);
        init_ideal_networks(&mut sim, &ideal);
        let queries = QueryGenerator::new(7).one_query_per_user(&trace.dataset);
        Fixture {
            sim,
            cfg,
            dataset: trace.dataset,
            ideal,
            queries,
        }
    }

    #[test]
    fn full_storage_queries_complete_immediately_with_recall_one() {
        // Storage budget ≥ s: every profile of the personal network is
        // stored, so the local result is already exact (Algorithm 2 line 4).
        let mut fx = fixture(1000);
        let query = fx.queries[0].clone();
        let querier = query.querier.index();
        issue_query(&mut fx.sim, querier, QueryId(1), query.clone(), &fx.cfg);
        let state = querier_state(&fx.sim, querier, QueryId(1)).unwrap();
        assert!(state.is_complete());
        assert!(state.remaining.is_empty());

        let reference = centralized_topk(&fx.dataset, &fx.ideal, &query, fx.cfg.top_k);
        let mut state = fx
            .sim
            .node_mut(querier)
            .querier_states
            .remove(&QueryId(1))
            .unwrap();
        let items: Vec<ItemId> = state
            .current_topk(fx.cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        assert_eq!(recall_at_k(&items, &reference), 1.0);
    }

    #[test]
    fn limited_storage_reaches_recall_one_within_few_cycles() {
        let mut fx = fixture(2);
        // Issue queries for the first few users.
        let sample: Vec<Query> = fx.queries.iter().take(8).cloned().collect();
        for (i, query) in sample.iter().enumerate() {
            issue_query(
                &mut fx.sim,
                query.querier.index(),
                QueryId(i as u64),
                query.clone(),
                &fx.cfg,
            );
        }
        let cycles = fx
            .sim
            .drive(&fx.cfg.eager(), RunOptions::until_complete(30), |_, _| {})
            .cycles_run;
        assert!(cycles <= 30);

        for (i, query) in sample.iter().enumerate() {
            let querier = query.querier.index();
            let reference = centralized_topk(&fx.dataset, &fx.ideal, query, fx.cfg.top_k);
            let mut state = fx
                .sim
                .node_mut(querier)
                .querier_states
                .remove(&QueryId(i as u64))
                .unwrap();
            assert!(
                state.is_complete(),
                "query {i} did not complete: coverage {}",
                state.coverage()
            );
            let items: Vec<ItemId> = state
                .nra
                .topk_exhaustive(fx.cfg.top_k)
                .iter()
                .map(|r| r.item)
                .collect();
            let recall = recall_at_k(&items, &reference);
            assert!(
                (recall - 1.0).abs() < 1e-9,
                "query {i} recall {recall} < 1 after completion"
            );
        }
    }

    #[test]
    fn remaining_lists_shrink_monotonically_overall() {
        let mut fx = fixture(1);
        let query = fx.queries[0].clone();
        let querier = query.querier.index();
        issue_query(&mut fx.sim, querier, QueryId(9), query, &fx.cfg);
        let initial = querier_state(&fx.sim, querier, QueryId(9))
            .unwrap()
            .remaining
            .len();
        if initial == 0 {
            return; // degenerate: the querier had nothing to fetch
        }
        let mut last_total = usize::MAX;
        for _ in 0..20 {
            fx.sim
                .drive(&fx.cfg.eager(), RunOptions::cycles(1), |_, _| {});
            // Total outstanding work across all nodes for this query.
            let mut total = 0usize;
            for idx in 0..fx.sim.num_nodes() {
                let node = fx.sim.node(idx);
                if let Some(s) = node.querier_states.get(&QueryId(9)) {
                    total += s.remaining.len();
                }
                if let Some(t) = node.tasks.get(&QueryId(9)) {
                    total += t.remaining.len();
                }
            }
            assert!(total <= last_total.max(initial));
            last_total = total;
            if total == 0 {
                break;
            }
        }
        assert_eq!(last_total, 0, "query never drained its remaining lists");
    }

    #[test]
    fn partial_results_and_traffic_are_accounted() {
        let mut fx = fixture(1);
        let query = fx.queries[1].clone();
        let querier = query.querier.index();
        issue_query(&mut fx.sim, querier, QueryId(3), query, &fx.cfg);
        fx.sim
            .drive(&fx.cfg.eager(), RunOptions::until_complete(30), |_, _| {});
        let state = querier_state(&fx.sim, querier, QueryId(3)).unwrap();
        if state.target_profiles.len() <= state.used_profiles.len()
            && !state.target_profiles.is_empty()
            && state.reached_users.is_empty()
        {
            // Everything was stored locally — nothing to assert about gossip.
            return;
        }
        assert!(state.traffic.forwarded_remaining > 0 || state.reached_users.is_empty());
        assert_eq!(
            state.traffic.users_reached,
            state.reached_users.len() as u64
        );
        // Simulator-level categories must be consistent with per-query sums.
        let total_partial = fx
            .sim
            .bandwidth
            .category_bytes(category::EAGER_PARTIAL_RESULTS);
        assert!(total_partial >= state.traffic.partial_results);
    }

    #[test]
    fn parallel_eager_cycles_match_the_sequential_reference() {
        for threads in [2, 3, 8] {
            let issue_all = |fx: &mut Fixture| {
                let sample: Vec<Query> = fx.queries.iter().take(6).cloned().collect();
                for (i, query) in sample.iter().enumerate() {
                    issue_query(
                        &mut fx.sim,
                        query.querier.index(),
                        QueryId(i as u64),
                        query.clone(),
                        &fx.cfg,
                    );
                }
            };
            let mut reference = fixture(1);
            let mut parallel = fixture(1);
            issue_all(&mut reference);
            issue_all(&mut parallel);
            for cycle in 0..8 {
                let r = reference
                    .sim
                    .drive(
                        &reference.cfg.eager(),
                        RunOptions::cycles(1).oracle(),
                        |_, _| {},
                    )
                    .exchanges();
                let p = parallel
                    .sim
                    .drive(
                        &parallel.cfg.eager(),
                        RunOptions::cycles(1).threads(threads),
                        |_, _| {},
                    )
                    .exchanges();
                assert_eq!(r, p, "exchange counts diverged at cycle {cycle}");
            }
            for idx in 0..reference.sim.num_nodes() {
                let (a, b) = (reference.sim.node(idx), parallel.sim.node(idx));
                assert_eq!(a.personal_network, b.personal_network, "node {idx}");
                for (qid, state) in &a.querier_states {
                    let other = &b.querier_states[qid];
                    assert_eq!(state.remaining, other.remaining);
                    assert_eq!(state.used_profiles, other.used_profiles);
                    assert_eq!(state.reached_users, other.reached_users);
                    assert_eq!(state.completed_cycle, other.completed_cycle);
                }
            }
            assert_eq!(
                reference.sim.bandwidth.totals(),
                parallel.sim.bandwidth.totals()
            );
        }
    }

    #[test]
    fn queries_survive_mass_departure_with_degraded_latency() {
        let mut fx = fixture(2);
        fx.sim.mass_departure(0.5);
        let alive_queriers: Vec<Query> = fx
            .queries
            .iter()
            .filter(|q| fx.sim.is_alive(q.querier.index()))
            .take(5)
            .cloned()
            .collect();
        for (i, query) in alive_queriers.iter().enumerate() {
            issue_query(
                &mut fx.sim,
                query.querier.index(),
                QueryId(100 + i as u64),
                query.clone(),
                &fx.cfg,
            );
        }
        fx.sim
            .drive(&fx.cfg.eager(), RunOptions::until_complete(15), |_, _| {});
        // Queries cannot crash the protocol; recall may be below 1 but some
        // results must have been produced for queriers with a target set.
        for (i, query) in alive_queriers.iter().enumerate() {
            let state = querier_state(&fx.sim, query.querier.index(), QueryId(100 + i as u64))
                .expect("state must survive churn");
            assert!(state.coverage() >= 0.0);
        }
    }
}
