//! Cross-crate property tests: protocol invariants that must hold for any
//! seed.

use std::collections::HashSet;

use p3q::prelude::*;
use proptest::prelude::*;

fn small_world(seed: u64) -> (p3q_trace::SyntheticTrace, P3qConfig, IdealNetworks) {
    let mut trace_cfg = TraceConfig::tiny(seed);
    trace_cfg.num_users = 60;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::tiny();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    (trace, cfg, ideal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the seed and storage budget, a completed query has recall 1
    /// against the centralized reference over the querier's ideal network.
    #[test]
    fn prop_completed_queries_reach_recall_one(seed in 0u64..200, budget in 1usize..6) {
        let (trace, cfg, ideal) = small_world(seed);
        let budgets = vec![budget; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, seed);
        init_ideal_networks(&mut sim, &ideal);
        let queries: Vec<Query> = QueryGenerator::new(seed)
            .one_query_per_user(&trace.dataset)
            .into_iter()
            .filter(|q| !ideal.network_of(q.querier).is_empty())
            .take(4)
            .collect();
        for (i, query) in queries.iter().enumerate() {
            issue_query(&mut sim, query.querier.index(), QueryId(i as u64), query.clone(), &cfg);
        }
        sim.drive(&cfg.eager(), RunOptions::until_complete(60), |_, _| {});
        for (i, query) in queries.iter().enumerate() {
            let reference = centralized_topk(&trace.dataset, &ideal, query, cfg.top_k);
            let state = sim
                .node_mut(query.querier.index())
                .querier_states
                .get_mut(&QueryId(i as u64))
                .unwrap();
            prop_assert!(state.is_complete());
            let items: Vec<ItemId> = state
                .nra
                .topk_exhaustive(cfg.top_k)
                .iter()
                .map(|r| r.item)
                .collect();
            prop_assert!((recall_at_k(&items, &reference) - 1.0).abs() < 1e-9);
        }
    }

    /// The storage rule is an invariant: at no point does any node store more
    /// profiles than its budget, and stored profiles always belong to the
    /// node's personal network.
    #[test]
    fn prop_storage_budget_is_never_exceeded(seed in 0u64..200, budget in 1usize..5) {
        let (trace, cfg, _ideal) = small_world(seed);
        let budgets = vec![budget; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        for _ in 0..6 {
            sim.drive(&cfg.lazy(), RunOptions::cycles(1), |_, _| {});
            for idx in 0..sim.num_nodes() {
                let node = sim.node(idx);
                prop_assert!(node.stored_profile_count() <= budget);
                prop_assert!(node.network_peers().len() <= cfg.personal_network_size);
                let peers: HashSet<UserId> = node.network_peers().into_iter().collect();
                for (peer, _, _) in node.stored_profiles() {
                    prop_assert!(peers.contains(&peer));
                }
                // A node never lists itself as its own neighbour.
                prop_assert!(!peers.contains(&node.id));
            }
        }
    }

    /// Personal-network scores always equal the true similarity between the
    /// two users' *current* profiles at insertion time; since profiles are
    /// static in this scenario, they must match the global similarity.
    #[test]
    fn prop_network_scores_match_true_similarity(seed in 0u64..200) {
        let (trace, cfg, _ideal) = small_world(seed);
        let mut sim = build_simulator(&trace.dataset, &cfg, &StorageDistribution::Uniform(20), seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 1);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        sim.drive(&cfg.lazy(), RunOptions::cycles(5), |_, _| {});
        for idx in 0..sim.num_nodes() {
            let node = sim.node(idx);
            for entry in node.personal_network.iter() {
                let expected = p3q::scoring::similarity(
                    trace.dataset.profile(node.id),
                    trace.dataset.profile(entry.peer),
                );
                prop_assert_eq!(u64::from(entry.score), expected);
                prop_assert!(entry.score > 0, "zero-similarity neighbours must not be kept");
            }
        }
    }

    /// The success ratio never exceeds 1 and ideal-initialised networks score
    /// exactly 1.
    #[test]
    fn prop_success_ratio_bounds(seed in 0u64..200) {
        let (trace, cfg, ideal) = small_world(seed);
        let mut sim = build_simulator(&trace.dataset, &cfg, &StorageDistribution::Uniform(20), seed);
        for idx in 0..sim.num_nodes() {
            let ratio = success_ratio(sim.node(idx), &ideal);
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
        init_ideal_networks(&mut sim, &ideal);
        let avg = average_success_ratio(sim.nodes().iter(), &ideal);
        prop_assert!((avg - 1.0).abs() < 1e-9);
    }
}
