//! Figure 8 — Number of users reached by a query, for the two heterogeneous
//! storage scenarios.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin fig8_users_reached -- --users 1000 --queries 200
//! ```

use p3q::prelude::*;
use p3q_bench::{fmt, issue_queries, print_table, HarnessArgs, World};
use p3q_sim::DistributionSummary;

fn reached_per_query(
    world: &World,
    storage: StorageDistribution,
    queries: &[Query],
    seed: u64,
    max_cycles: u64,
) -> Vec<f64> {
    let cfg = &world.cfg;
    let mut sim = build_simulator(&world.trace.dataset, cfg, &storage, seed);
    init_ideal_networks(&mut sim, &world.ideal);
    issue_queries(&mut sim, queries, cfg);
    sim.drive(
        &cfg.eager(),
        RunOptions::until_complete(max_cycles),
        |_, _| {},
    );
    queries
        .iter()
        .enumerate()
        .map(|(i, query)| {
            sim.node(query.querier.index())
                .querier_states
                .get(&QueryId(i as u64))
                .map(|s| s.reached_users.len() as f64)
                .unwrap_or(0.0)
        })
        .collect()
}

fn main() {
    let args = HarnessArgs::parse(40);
    println!("=== Figure 8: number of users reached by a query ===");
    let world = World::build(&args);
    let queries = world.sample_queries(args.queries);
    println!("users {}, tracked queries {}", args.users, queries.len());

    let mut rows = Vec::new();
    let mut distributions = Vec::new();
    for storage in [
        StorageDistribution::poisson_lambda_1(),
        StorageDistribution::poisson_lambda_4(),
    ] {
        eprintln!("  running {} …", storage.label());
        let reached = reached_per_query(&world, storage, &queries, args.seed, args.cycles);
        let summary = DistributionSummary::of(&reached);
        rows.push(vec![
            storage.label(),
            fmt(summary.mean),
            fmt(summary.median),
            fmt(summary.p90),
            fmt(summary.max),
        ]);
        distributions.push((storage.label(), reached));
    }
    print_table(&["scenario", "mean", "median", "p90", "max"], &rows);

    println!();
    println!("per-query profile (ranked by users reached, descending):");
    let header = ["rank", "λ=1", "λ=4"];
    let mut sorted: Vec<Vec<f64>> = distributions
        .iter()
        .map(|(_, values)| {
            let mut v = values.clone();
            v.sort_by(|a, b| b.partial_cmp(a).unwrap());
            v
        })
        .collect();
    if sorted.len() < 2 {
        sorted.resize(2, Vec::new());
    }
    let len = sorted[0].len();
    let rows: Vec<Vec<String>> = (0..len)
        .step_by((len / 20).max(1))
        .map(|rank| {
            vec![
                rank.to_string(),
                fmt(sorted[0].get(rank).copied().unwrap_or(0.0)),
                fmt(sorted[1].get(rank).copied().unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table(&header, &rows);

    println!();
    println!(
        "paper shape: queries reach far fewer users when storage is plentiful (paper: 256 \
         users on average for λ=1 vs 75 for λ=4), because each reached user resolves more \
         of the remaining list at once."
    );
}
