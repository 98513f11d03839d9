//! Profile dynamics and churn: the Section 3.4 behaviours.

use std::collections::HashSet;

use p3q::prelude::*;
use p3q_bench::{issue_queries, query_state, HarnessArgs, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (p3q_trace::SyntheticTrace, P3qConfig, IdealNetworks) {
    let mut trace_cfg = TraceConfig::tiny(55);
    trace_cfg.num_users = 120;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::tiny();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    (trace, cfg, ideal)
}

#[test]
fn lazy_gossip_propagates_profile_changes() {
    let (trace, cfg, ideal) = world();
    let mut sim = build_simulator(&trace.dataset, &cfg, &StorageDistribution::Uniform(20), 1);
    init_ideal_networks(&mut sim, &ideal);
    let mut rng = StdRng::seed_from_u64(2);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);

    // Everyone changes simultaneously (the stress case of Section 3.5).
    let batch = DynamicsGenerator::new(DynamicsConfig::all_users(3)).generate(&trace);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    for change in &batch.changes {
        sim.node_mut(change.user.index())
            .add_tagging_actions(change.new_actions.iter().copied());
    }
    let versions: Vec<u64> = (0..sim.num_nodes())
        .map(|i| sim.node(i).profile_version())
        .collect();

    let before = average_update_rate(sim.nodes().iter(), &changed, &versions);
    sim.drive(&cfg.lazy(), RunOptions::cycles(25), |_, _| {});
    let after = average_update_rate(sim.nodes().iter(), &changed, &versions);
    assert!(
        after > before,
        "lazy gossip must refresh stale replicas ({before} -> {after})"
    );
    assert!(
        after > 0.5,
        "after 25 cycles a majority of the stale copies should be refreshed (got {after})"
    );
}

#[test]
fn small_storage_refreshes_faster_than_large_storage() {
    let (trace, cfg, ideal) = world();
    let aur_after = |budget: usize| {
        let budgets = vec![budget; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 4);
        init_ideal_networks(&mut sim, &ideal);
        let mut rng = StdRng::seed_from_u64(5);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);
        let batch = DynamicsGenerator::new(DynamicsConfig::all_users(6)).generate(&trace);
        let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
        for change in &batch.changes {
            sim.node_mut(change.user.index())
                .add_tagging_actions(change.new_actions.iter().copied());
        }
        let versions: Vec<u64> = (0..sim.num_nodes())
            .map(|i| sim.node(i).profile_version())
            .collect();
        sim.drive(&cfg.lazy(), RunOptions::cycles(10), |_, _| {});
        average_update_rate(sim.nodes().iter(), &changed, &versions)
    };
    let small = aur_after(2);
    let large = aur_after(10);
    assert!(
        small >= large - 0.05,
        "fewer stored profiles should be at least as easy to keep fresh \
         (c=2: {small}, c=10: {large})"
    );
}

#[test]
fn eager_gossip_refreshes_the_users_it_reaches() {
    let (trace, cfg, ideal) = world();
    let budgets = vec![2usize; trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 7);
    init_ideal_networks(&mut sim, &ideal);

    let batch = DynamicsGenerator::new(DynamicsConfig::all_users(8)).generate(&trace);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    for change in &batch.changes {
        sim.node_mut(change.user.index())
            .add_tagging_actions(change.new_actions.iter().copied());
    }
    let versions: Vec<u64> = (0..sim.num_nodes())
        .map(|i| sim.node(i).profile_version())
        .collect();

    // No lazy cycle runs: only the eager mode's piggybacked maintenance can
    // refresh anything.
    let querier = trace
        .dataset
        .users()
        .find(|u| !ideal.network_of(*u).is_empty())
        .unwrap();
    let burst = QueryGenerator::new(9).burst_for_user(&trace.dataset, querier, 5);
    let mut reached: HashSet<UserId> = HashSet::new();
    for (i, query) in burst.into_iter().enumerate() {
        issue_query(&mut sim, querier.index(), QueryId(i as u64), query, &cfg);
        sim.drive(&cfg.eager(), RunOptions::until_complete(20), |_, _| {});
        reached.extend(
            sim.node(querier.index())
                .querier_states
                .get(&QueryId(i as u64))
                .unwrap()
                .reached_users
                .iter()
                .copied(),
        );
    }
    if reached.is_empty() {
        return; // degenerate network; nothing to compare
    }
    let reached_nodes: Vec<&P3qNode> = reached.iter().map(|u| sim.node(u.index())).collect();
    let aur_reached = average_update_rate(reached_nodes, &changed, &versions);
    let aur_global = average_update_rate(sim.nodes().iter(), &changed, &versions);
    assert!(
        aur_reached >= aur_global,
        "users reached by queries must be at least as fresh as the population \
         (reached {aur_reached}, global {aur_global})"
    );
}

#[test]
fn recall_degrades_gracefully_under_churn() {
    let (trace, cfg, ideal) = world();
    let queries: Vec<Query> = QueryGenerator::new(10)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(15)
        .collect();

    let mean_recall_at_departure = |fraction: f64| {
        let budgets = vec![3usize; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 11);
        init_ideal_networks(&mut sim, &ideal);
        if fraction > 0.0 {
            sim.mass_departure(fraction);
        }
        let survivors: Vec<(usize, &Query)> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| sim.is_alive(q.querier.index()))
            .collect();
        for (i, query) in &survivors {
            issue_query(
                &mut sim,
                query.querier.index(),
                QueryId(*i as u64),
                (*query).clone(),
                &cfg,
            );
        }
        sim.drive(&cfg.eager(), RunOptions::until_complete(15), |_, _| {});
        let mut total = 0.0;
        for (i, query) in &survivors {
            let reference = centralized_topk(&trace.dataset, &ideal, query, cfg.top_k);
            let state = sim
                .node_mut(query.querier.index())
                .querier_states
                .get_mut(&QueryId(*i as u64))
                .unwrap();
            let items: Vec<ItemId> = state
                .nra
                .topk_exhaustive(cfg.top_k)
                .iter()
                .map(|r| r.item)
                .collect();
            total += recall_at_k(&items, &reference);
        }
        total / survivors.len().max(1) as f64
    };

    let baseline = mean_recall_at_departure(0.0);
    let half = mean_recall_at_departure(0.5);
    let ninety = mean_recall_at_departure(0.9);
    assert!((baseline - 1.0).abs() < 1e-9, "no churn must give recall 1");
    assert!(
        half >= 0.5,
        "50% departures should keep a reasonable recall (got {half})"
    );
    assert!(
        half + 1e-9 >= ninety,
        "more departures must not improve recall (p=50%: {half}, p=90%: {ninety})"
    );
}

#[test]
fn departed_users_stop_participating_in_gossip() {
    let (trace, cfg, ideal) = world();
    let mut sim = build_simulator(&trace.dataset, &cfg, &StorageDistribution::Uniform(20), 13);
    init_ideal_networks(&mut sim, &ideal);
    let mut rng = StdRng::seed_from_u64(14);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);
    let departed = sim.mass_departure(0.5);
    sim.drive(&cfg.lazy(), RunOptions::cycles(5), |_, _| {});
    for idx in departed {
        assert_eq!(
            sim.bandwidth.node_total_bytes(idx),
            0,
            "departed node {idx} still produced traffic"
        );
    }
}

/// End-to-end churn through the harness's entry point (`HarnessArgs` →
/// `World::build`): eager queries in flight while a third of the
/// population departs in escalating waves, made by the `drive` observer at
/// the end of the cycles they follow.
#[test]
fn eager_queries_survive_a_churn_heavy_scenario() {
    let args = HarnessArgs {
        users: 150,
        seed: 23,
        cycles: 9,
        queries: 10,
        paper_scale: false,
    };
    let world = World::build(&args);
    let queries = world.sample_queries(6);
    assert!(!queries.is_empty());

    let mut sim = build_simulator(
        &world.trace.dataset,
        &world.cfg,
        &StorageDistribution::Uniform(500),
        args.seed,
    );
    init_ideal_networks(&mut sim, &world.ideal);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &world.cfg, &mut rng);

    // Escalating departures of 10, 20 and 30 % of the alive nodes at the
    // end of cycles 2, 4 and 6 of 9, so they hit queries in flight.
    let departures = [(2, 0.10), (4, 0.20), (6, 0.30)];

    let cfg = &world.cfg;
    let references: Vec<Vec<(ItemId, u32)>> = queries
        .iter()
        .map(|q| centralized_topk(&world.trace.dataset, &world.ideal, q, cfg.top_k))
        .collect();
    issue_queries(&mut sim, &queries, cfg);
    let average_recall = |sim: &mut Simulator<P3qNode>| -> f64 {
        let mut total = 0.0;
        for (i, reference) in references.iter().enumerate() {
            let items: Vec<ItemId> = query_state(sim, &queries, i)
                .current_topk(cfg.top_k)
                .iter()
                .map(|r| r.item)
                .collect();
            total += recall_at_k(&items, reference);
        }
        total / queries.len() as f64
    };
    let mut recall_per_cycle = vec![average_recall(&mut sim)];
    sim.drive(
        &cfg.eager(),
        RunOptions::cycles(args.cycles),
        |sim, event| {
            if let RunEvent::CycleEnd(cycle) = event {
                recall_per_cycle.push(average_recall(sim));
                if let Some(&(_, fraction)) = departures.iter().find(|&&(at, _)| at == cycle) {
                    sim.mass_departure(fraction);
                }
            }
        },
    );

    assert_eq!(recall_per_cycle.len(), args.cycles as usize + 1);
    let last = *recall_per_cycle.last().unwrap();
    assert!(
        last > 0.3,
        "recall should partially survive heavy churn, got {last}"
    );
    assert!(
        sim.membership().alive_count() < sim.num_nodes(),
        "the churn events must have fired"
    );
}
