//! Quickstart: build a small P3Q network, issue one personalized query and
//! watch the top-k converge to the centralized reference, cycle by cycle.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example quickstart
//! ```

use p3q::prelude::*;

fn main() {
    // 1. A synthetic delicious-like trace: 300 users, topic communities,
    //    Zipf-popular items, log-normal profile sizes.
    let mut trace_cfg = TraceConfig::laptop_scale(42);
    trace_cfg.num_users = 300;
    trace_cfg.num_items = 4_000;
    trace_cfg.num_tags = 1_200;
    let trace = TraceGenerator::new(trace_cfg).generate();
    println!(
        "generated trace: {} users, {} items, {} tagging actions",
        trace.dataset.num_users(),
        trace.dataset.num_items(),
        trace.dataset.total_actions()
    );
    println!();

    // 2. Protocol configuration: personal network of 100 neighbours, but each
    //    user stores only 5 full profiles (c = 5 << s = 100).
    let cfg = P3qConfig::laptop_scale();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let budgets = vec![5usize; trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 7);
    init_ideal_networks(&mut sim, &ideal);

    // 3. One user issues the query built from her own tagging behaviour.
    let query = QueryGenerator::new(1)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .find(|q| !ideal.network_of(q.querier).is_empty())
        .expect("at least one user has a non-empty personal network");
    let querier = query.querier.index();
    println!(
        "querier {} asks for tags {:?} (personal network: {} users, {} profiles stored)",
        query.querier,
        query.tags,
        sim.node(querier).network_peers().len(),
        sim.node(querier).stored_profile_count(),
    );

    let reference = centralized_topk(&trace.dataset, &ideal, &query, cfg.top_k);
    println!(
        "centralized reference top-{}: {:?}",
        cfg.top_k,
        reference.iter().map(|(i, s)| (i.0, *s)).collect::<Vec<_>>()
    );
    println!();

    // 4. Issue the query and gossip it in eager mode, printing the recall at
    //    the end of every cycle — the user sees her results improve live.
    issue_query(&mut sim, querier, QueryId(0), query.clone(), &cfg);
    let initial_items: Vec<ItemId> = sim
        .node_mut(querier)
        .querier_states
        .get_mut(&QueryId(0))
        .unwrap()
        .current_topk(cfg.top_k)
        .iter()
        .map(|r| r.item)
        .collect();
    println!(
        "cycle 0 (local only): recall {:.2}",
        recall_at_k(&initial_items, &reference)
    );

    let mut cycle_count = 0u64;
    sim.drive(
        &cfg.eager(),
        RunOptions::until_complete(30),
        |sim, event| {
            let RunEvent::CycleEnd(cycle) = event else {
                return;
            };
            cycle_count = cycle;
            let state = sim
                .node_mut(querier)
                .querier_states
                .get_mut(&QueryId(0))
                .unwrap();
            let items: Vec<ItemId> = state.current_topk(10).iter().map(|r| r.item).collect();
            println!(
                "cycle {cycle}: recall {:.2}, coverage {:.0}%, users reached {}",
                recall_at_k(&items, &reference),
                state.coverage() * 100.0,
                state.reached_users.len()
            );
        },
    );

    // 5. Final answer.
    let state = sim
        .node_mut(querier)
        .querier_states
        .get_mut(&QueryId(0))
        .unwrap();
    let final_items: Vec<ItemId> = state
        .nra
        .topk_exhaustive(cfg.top_k)
        .iter()
        .map(|r| r.item)
        .collect();
    println!();
    println!(
        "final recall after {cycle_count} eager cycles: {:.2}",
        recall_at_k(&final_items, &reference)
    );
    println!(
        "per-query traffic: {} bytes of partial results, {} bytes of remaining lists",
        state.traffic.partial_results,
        state.traffic.forwarded_remaining + state.traffic.returned_remaining
    );
}
