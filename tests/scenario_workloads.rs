//! End-to-end churn coverage through the harness's entry point
//! (`HarnessArgs` → `World::build`): eager queries in flight while a third
//! of the population departs in escalating waves, driven through
//! `RunOptions::events` the way the churn figure drives its departures.

use p3q::prelude::*;
use p3q_bench::{issue_queries, query_state, HarnessArgs, World};
use rand::SeedableRng;

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
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &world.cfg, &mut rng);

    // Escalating departures of 10, 20 and 30 % of the alive nodes, each
    // before the eager gossip of cycles 2, 4 and 6 of 9, so they hit
    // queries in flight.
    let mut events = EventQueue::new();
    events.schedule(2, 0.10);
    events.schedule(4, 0.20);
    events.schedule(6, 0.30);

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
        RunOptions::cycles(args.cycles).events(&mut events),
        |sim, event| match event {
            RunEvent::Scheduled(fraction) => {
                sim.mass_departure(fraction);
            }
            RunEvent::CycleEnd(_) => recall_per_cycle.push(average_recall(sim)),
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
