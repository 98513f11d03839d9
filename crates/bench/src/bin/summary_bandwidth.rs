//! Section 3.5 summary — bandwidth figures in bits per second.
//!
//! The paper concludes that, with one lazy cycle per minute and one eager
//! cycle every 5 seconds, maintaining the personal network costs about
//! 13.4 Kbps of background traffic, answering a query costs about 91 Kbps at
//! the querier and eager gossip can push a participant to about 121 Kbps.
//! This binary measures the same three quantities on the simulated system.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin summary_bandwidth -- --users 1000 --queries 100
//! ```

use p3q::bandwidth::{bits_per_second, category};
use p3q::prelude::*;
use p3q_bench::{fmt, issue_queries, print_table, HarnessArgs, World};
use p3q_sim::DistributionSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(20);
    println!("=== Section 3.5 summary: bandwidth in bits per second ===");
    let world = World::build(&args);
    let cfg = &world.cfg;
    println!(
        "users {}, lazy cycle {} s, eager cycle {} s",
        args.users, cfg.lazy_cycle_seconds, cfg.eager_cycle_seconds
    );

    // ---------------------------------------------------------------- lazy
    let storage = StorageDistribution::poisson_lambda_1();
    let mut sim = build_simulator(&world.trace.dataset, cfg, &storage, args.seed);
    init_ideal_networks(&mut sim, &world.ideal);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x35);
    bootstrap_random_views(&mut sim, cfg, &mut rng);
    sim.drive(&cfg.lazy(), RunOptions::cycles(args.cycles), |_, _| {});
    let lazy_cycles = args.cycles;
    let per_node_lazy: Vec<f64> = (0..sim.num_nodes())
        .map(|idx| {
            sim.bandwidth
                .node_bits_per_second(idx, lazy_cycles, cfg.lazy_cycle_seconds)
        })
        .collect();
    let lazy_summary = DistributionSummary::of(&per_node_lazy);

    // ---------------------------------------------------------------- eager
    let queries = world.sample_queries(args.queries);
    let eager_bandwidth_before = sim.bandwidth.totals().0;
    let cycle_before = sim.cycle();
    issue_queries(&mut sim, &queries, cfg);
    sim.drive(&cfg.eager(), RunOptions::until_complete(40), |_, _| {});
    let eager_cycles = sim.cycle() - cycle_before;
    let eager_bytes = sim.bandwidth.totals().0 - eager_bandwidth_before;

    // Per-query figure: bytes billed to a query divided by the time it took.
    let mut per_query_bps = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        let state = sim
            .node(query.querier.index())
            .querier_states
            .get(&QueryId(i as u64))
            .expect("query state");
        let cycles = state.completion_latency().unwrap_or(eager_cycles).max(1);
        per_query_bps.push(bits_per_second(
            state.traffic.total_bytes(),
            cycles,
            cfg.eager_cycle_seconds,
        ));
    }
    let query_summary = DistributionSummary::of(&per_query_bps);

    // Peak per-participant eager traffic (maintenance included).
    let per_node_eager: Vec<f64> = (0..sim.num_nodes())
        .map(|idx| {
            let maintenance = sim.bandwidth.node_bytes(idx, category::EAGER_MAINTENANCE)
                + sim.bandwidth.node_bytes(idx, category::EAGER_FORWARDED)
                + sim.bandwidth.node_bytes(idx, category::EAGER_RETURNED)
                + sim
                    .bandwidth
                    .node_bytes(idx, category::EAGER_PARTIAL_RESULTS);
            bits_per_second(maintenance, eager_cycles.max(1), cfg.eager_cycle_seconds)
        })
        .collect();
    let eager_summary = DistributionSummary::of(&per_node_eager);

    println!();
    let rows = vec![
        vec![
            "lazy maintenance (per node)".to_string(),
            fmt(lazy_summary.mean / 1000.0),
            fmt(lazy_summary.p90 / 1000.0),
            "13.4".to_string(),
        ],
        vec![
            "query processing (per query)".to_string(),
            fmt(query_summary.mean / 1000.0),
            fmt(query_summary.p90 / 1000.0),
            "91".to_string(),
        ],
        vec![
            "eager gossip (per participant)".to_string(),
            fmt(eager_summary.mean / 1000.0),
            fmt(eager_summary.p90 / 1000.0),
            "121".to_string(),
        ],
    ];
    print_table(
        &[
            "traffic class",
            "measured mean (Kbps)",
            "measured p90 (Kbps)",
            "paper (Kbps)",
        ],
        &rows,
    );

    println!();
    println!(
        "total eager traffic: {} bytes over {} eager cycles; lazy traffic {} bytes over {} \
         lazy cycles.",
        eager_bytes, eager_cycles, eager_bandwidth_before, lazy_cycles
    );
    println!(
        "absolute numbers depend on the synthetic trace's profile sizes; the claim to check \
         is the ordering lazy ≪ query ≈ eager and the order of magnitude (tens of Kbps)."
    );
}
