//! Churn and profile dynamics: how P3Q keeps working while users keep
//! tagging and leaving (Section 3.4 of the paper).
//!
//! The example runs three phases on one simulated network:
//!
//! 1. **Profile dynamics** — a paper-style "day of activity" is applied (a
//!    fraction of users add new tagging actions); lazy gossip then propagates
//!    the changes and the average update rate (AUR) is printed per cycle.
//! 2. **Eager refresh** — a burst of consecutive queries from one user shows
//!    how eager gossip refreshes the reached users' stored profiles much
//!    faster than the lazy mode alone.
//! 3. **Mass departure** — half of the users leave simultaneously and the
//!    example measures how query recall degrades (gracefully).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example churn_and_dynamics
//! ```

use std::collections::HashSet;

use p3q::prelude::*;

fn main() {
    let mut trace_cfg = TraceConfig::laptop_scale(7);
    trace_cfg.num_users = 300;
    trace_cfg.num_items = 4_000;
    trace_cfg.num_tags = 1_200;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::laptop_scale();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let budgets = vec![5usize; trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 3);
    init_ideal_networks(&mut sim, &ideal);

    // ---------------------------------------------------------------- phase 1
    println!("=== phase 1: a day of profile changes, propagated by lazy gossip ===");
    let dynamics = DynamicsGenerator::new(DynamicsConfig::paper_day(11)).generate(&trace);
    println!(
        "{} users change their profiles ({:.1} new actions on average, {} max)",
        dynamics.len(),
        dynamics.mean_new_actions(),
        dynamics.max_new_actions()
    );
    let changed: HashSet<UserId> = dynamics.changed_users().into_iter().collect();
    for change in &dynamics.changes {
        sim.node_mut(change.user.index())
            .add_tagging_actions(change.new_actions.iter().copied());
    }
    let versions: Vec<u64> = (0..sim.num_nodes())
        .map(|i| sim.node(i).profile_version())
        .collect();
    let aur0 = average_update_rate(sim.nodes().iter(), &changed, &versions);
    println!("cycle  0: AUR = {aur0:.2}");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);
    for batch in 1..=4u64 {
        sim.drive(&cfg.lazy(), RunOptions::cycles(5), |_, _| {});
        let aur = average_update_rate(sim.nodes().iter(), &changed, &versions);
        println!("cycle {:>2}: AUR = {aur:.2}", batch * 5);
    }

    // ---------------------------------------------------------------- phase 2
    println!();
    println!("=== phase 2: eager gossip refreshes the users reached by queries ===");
    let burst_user = trace
        .dataset
        .users()
        .find(|u| !ideal.network_of(*u).is_empty())
        .expect("some user has neighbours");
    let burst = QueryGenerator::new(9).burst_for_user(&trace.dataset, burst_user, 5);
    for (i, query) in burst.into_iter().enumerate() {
        issue_query(
            &mut sim,
            burst_user.index(),
            QueryId(1000 + i as u64),
            query,
            &cfg,
        );
        sim.drive(&cfg.eager(), RunOptions::until_complete(20), |_, _| {});
        // AUR restricted to the users this query reached.
        let reached: Vec<&P3qNode> = {
            let state = sim
                .node(burst_user.index())
                .querier_states
                .get(&QueryId(1000 + i as u64))
                .unwrap();
            state
                .reached_users
                .iter()
                .map(|u| sim.node(u.index()))
                .collect()
        };
        let aur = average_update_rate(reached, &changed, &versions);
        println!("after query {}: AUR over reached users = {aur:.2}", i + 1);
    }

    // ---------------------------------------------------------------- phase 3
    println!();
    println!("=== phase 3: 50% of the users leave simultaneously ===");
    let departed = sim.mass_departure(0.5);
    println!("{} users departed", departed.len());
    let queries: Vec<Query> = QueryGenerator::new(21)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| sim.is_alive(q.querier.index()))
        .take(40)
        .collect();
    let mut recalls = Vec::new();
    let mut incomplete = 0usize;
    for (i, query) in queries.iter().enumerate() {
        let qid = QueryId(5000 + i as u64);
        issue_query(&mut sim, query.querier.index(), qid, query.clone(), &cfg);
        sim.drive(&cfg.eager(), RunOptions::until_complete(10), |_, _| {});
        let reference = centralized_topk(&trace.dataset, &ideal, query, cfg.top_k);
        let state = sim
            .node_mut(query.querier.index())
            .querier_states
            .get_mut(&qid)
            .unwrap();
        if !state.is_complete() {
            incomplete += 1;
        }
        let items: Vec<ItemId> = state
            .nra
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        recalls.push(recall_at_k(&items, &reference));
    }
    let mean_recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
    println!(
        "average recall over {} surviving queriers after 10 eager cycles: {mean_recall:.2}",
        recalls.len()
    );
    println!(
        "{} of {} queries could not cover their whole personal network (replicas lost)",
        incomplete,
        recalls.len()
    );
    println!();
    println!(
        "profiles are replicated at similar users, so even a massive departure only \
         degrades the results instead of breaking the system."
    );
}
