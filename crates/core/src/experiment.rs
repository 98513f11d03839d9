//! Reusable experiment plumbing: building a simulator from a dataset,
//! initialising personal networks, and measuring storage.
//!
//! The benchmark harness (the `paper_figures` binary, one `--figure` per
//! paper figure) and the examples are thin layers over these helpers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q_sim::Simulator;
use p3q_trace::{ChangeBatch, Dataset, UserId};

use crate::baseline::IdealNetworks;
use crate::config::P3qConfig;
use crate::node::P3qNode;
use crate::storage::StorageDistribution;

/// Builds one [`P3qNode`] per user of the dataset and wraps them in a
/// [`Simulator`]. Storage budgets are drawn from `storage` (scaled to the
/// configured personal-network size) with a seed derived from `seed`.
pub fn build_simulator(
    dataset: &Dataset,
    cfg: &P3qConfig,
    storage: &StorageDistribution,
    seed: u64,
) -> Simulator<P3qNode> {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let budgets = storage.assign(dataset.num_users(), cfg.personal_network_size, &mut rng);
    build_simulator_with_budgets(dataset, cfg, &budgets, seed)
}

/// Like [`build_simulator`] but with explicit per-user storage budgets
/// (expressed in numbers of profiles, already scaled).
pub fn build_simulator_with_budgets(
    dataset: &Dataset,
    cfg: &P3qConfig,
    budgets: &[usize],
    seed: u64,
) -> Simulator<P3qNode> {
    assert_eq!(
        budgets.len(),
        dataset.num_users(),
        "one storage budget per user is required"
    );
    let nodes: Vec<P3qNode> = dataset
        .users()
        .map(|user| {
            P3qNode::new(
                user,
                dataset.shared_profile(user).clone(),
                cfg.personal_network_size,
                cfg.random_view_size,
                budgets[user.index()],
                cfg.digest_bits,
                cfg.digest_hashes,
            )
        })
        .collect();
    Simulator::new(nodes, seed)
}

/// Initialises every node's personal network with its *ideal* content: the
/// top-`s` most similar users, with the top-`c` profiles stored locally.
///
/// The paper's eager-mode experiments (Figures 3, 4, 6, 8, 11) evaluate the
/// query protocol on personal networks that have already been built; this
/// helper produces exactly that starting point without having to run
/// hundreds of lazy cycles first.
///
/// Every ideal neighbour is admitted (`P3qNode::admit`) with its own
/// offer, in the ideal network's order (score descending, then peer
/// ascending), which is the view's order: each lands below the ones before
/// it, so the first `c` store their profiles and nothing moves afterwards.
///
/// Precondition: every personal network is empty, as [`build_simulator`]
/// leaves it (checked in debug builds).
pub fn init_ideal_networks(sim: &mut Simulator<P3qNode>, ideal: &IdealNetworks) {
    for idx in 0..sim.num_nodes() {
        debug_assert!(
            sim.node(idx).personal_network.is_empty(),
            "init_ideal_networks starts from empty personal networks"
        );
        for &(peer, score) in ideal.network_of(UserId::from_index(idx)) {
            let offer = sim.node(peer.index()).own_offer();
            sim.node_mut(idx).admit(&offer, score);
        }
    }
}

/// Applies one batch of profile changes to the owners' nodes (profile
/// dynamics): every changing user's own profile grows and its version
/// bumps, turning the copies cached in other users' personal networks stale.
///
/// This is the "one day of activity happens" step of the dynamics
/// experiments (Figures 7, 9, 10, Table 2): call it between drives, or from
/// a `drive` observer at the cycle it is due. Returns the number of
/// genuinely new actions applied.
pub fn apply_profile_changes(sim: &mut Simulator<P3qNode>, batch: &ChangeBatch) -> usize {
    let mut added = 0;
    for change in &batch.changes {
        added += sim
            .node_mut(change.user.index())
            .add_tagging_actions(change.new_actions.iter().copied());
    }
    added
}

/// Per-user storage requirement (Figure 5): total length, in tagging
/// actions, of the profiles stored in each user's personal network. Returned
/// in user-id order.
pub fn storage_requirements(sim: &Simulator<P3qNode>) -> Vec<usize> {
    sim.nodes()
        .iter()
        .map(|node| node.stored_profiles().map(|(_, p, _)| p.len()).sum())
        .collect()
}

/// Total length, in tagging actions, of *all* profiles of each user's
/// personal network (stored or not) — the 100% reference the paper compares
/// the per-`c` storage against ("storing 10 profiles requires only 6.8% of
/// the space required to store all profiles in the personal network").
pub fn full_network_requirements(sim: &Simulator<P3qNode>, dataset: &Dataset) -> Vec<usize> {
    sim.nodes()
        .iter()
        .map(|node| {
            node.network_peers()
                .iter()
                .map(|peer| dataset.profile(*peer).len())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::{TraceConfig, TraceGenerator};

    fn setup() -> (Dataset, P3qConfig) {
        let trace = TraceGenerator::new(TraceConfig::tiny(23)).generate();
        (trace.dataset, P3qConfig::tiny())
    }

    #[test]
    fn build_simulator_creates_one_node_per_user() {
        let (dataset, cfg) = setup();
        let sim = build_simulator(&dataset, &cfg, &StorageDistribution::Uniform(100), 1);
        assert_eq!(sim.num_nodes(), dataset.num_users());
        for idx in 0..sim.num_nodes() {
            assert_eq!(sim.node(idx).id, UserId::from_index(idx));
            assert_eq!(
                sim.node(idx).profile(),
                dataset.profile(UserId::from_index(idx))
            );
        }
    }

    #[test]
    fn budgets_are_scaled_to_network_size() {
        let (dataset, cfg) = setup();
        // Uniform 100 out of 1000 → 1/10 of s = 10 → scaled to s=10 → 1.
        let sim = build_simulator(&dataset, &cfg, &StorageDistribution::Uniform(100), 1);
        for idx in 0..sim.num_nodes() {
            assert_eq!(sim.node(idx).storage_budget(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "one storage budget per user")]
    fn mismatched_budget_length_rejected() {
        let (dataset, cfg) = setup();
        let _ = build_simulator_with_budgets(&dataset, &cfg, &[1, 2, 3], 0);
    }

    #[test]
    fn ideal_initialisation_fills_networks_and_respects_storage() {
        let (dataset, cfg) = setup();
        let ideal = IdealNetworks::compute(&dataset, cfg.personal_network_size);
        let budgets = vec![3usize; dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&dataset, &cfg, &budgets, 7);
        init_ideal_networks(&mut sim, &ideal);
        for idx in 0..sim.num_nodes() {
            let node = sim.node(idx);
            let expected = ideal.neighbours_of(UserId::from_index(idx));
            let expected_len = expected.len().min(cfg.personal_network_size);
            assert_eq!(node.network_peers().len(), expected_len);
            assert!(node.stored_profile_count() <= 3);
            // Stored copies must match the owners' actual profiles.
            for (peer, profile, _) in node.stored_profiles() {
                assert_eq!(profile, dataset.profile(peer));
            }
            // Every top-c neighbour has a stored profile.
            for peer in node.personal_network.top_peers(node.storage_budget()) {
                assert!(node.stored_profile(&peer).is_some());
            }
        }
    }

    #[test]
    fn storage_requirements_grow_with_budget() {
        let (dataset, cfg) = setup();
        let ideal = IdealNetworks::compute(&dataset, cfg.personal_network_size);

        let mut small =
            build_simulator_with_budgets(&dataset, &cfg, &vec![1usize; dataset.num_users()], 7);
        init_ideal_networks(&mut small, &ideal);
        let mut large =
            build_simulator_with_budgets(&dataset, &cfg, &vec![8usize; dataset.num_users()], 7);
        init_ideal_networks(&mut large, &ideal);

        let small_total: usize = storage_requirements(&small).iter().sum();
        let large_total: usize = storage_requirements(&large).iter().sum();
        let full_total: usize = full_network_requirements(&large, &dataset).iter().sum();
        assert!(small_total < large_total);
        assert!(large_total <= full_total);
    }
}
