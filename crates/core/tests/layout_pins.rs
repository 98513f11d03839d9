//! Pins the observable node state to recorded fingerprints, so that a
//! change in how a node holds its state (the personal network's layout,
//! where stored copies live) cannot move what the protocol does.
//!
//! On the tiny trace, seeds 42 and 7: 12 lazy cycles from bootstrapped
//! random views, then one eager burst over the networks they grew. Every
//! node's `Fingerprint` is folded, in index order, after each phase. The
//! values were recorded with the array-of-entries personal network that
//! the column layout replaced.

use p3q::prelude::*;
use rand::SeedableRng;

/// (after 12 lazy cycles, after the eager burst), per seed.
const RECORDED: [(u64, (u64, u64)); 2] = [
    (42, (13_465_512_994_418_764_267, 12_827_735_966_123_730_291)),
    (7, (5_311_461_101_373_342_137, 17_024_549_703_730_141_933)),
];

fn node_chain(sim: &Simulator<P3qNode>) -> u64 {
    fingerprint_chain(sim.nodes())
}

fn run(seed: u64) -> (u64, u64) {
    let trace = TraceGenerator::new(TraceConfig::tiny(seed)).generate();
    let cfg = P3qConfig::tiny();
    // c = 3 of s = 10: copies sit in the top ranks only.
    let mut sim = build_simulator(
        &trace.dataset,
        &cfg,
        &StorageDistribution::Uniform(300),
        seed,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);
    sim.drive(&cfg.lazy(), RunOptions::cycles(12), |_, _| {});
    let lazy = node_chain(&sim);

    let queries: Vec<Query> = QueryGenerator::new(seed ^ 0xABCD)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !sim.node(q.querier.index()).personal_network.is_empty())
        .take(40)
        .collect();
    assert!(!queries.is_empty(), "seed {seed}: no querier has a network");
    for (i, query) in queries.iter().enumerate() {
        let querier = query.querier.index();
        issue_query(&mut sim, querier, QueryId(i as u64), query.clone(), &cfg);
    }
    sim.drive(&cfg.eager(), RunOptions::until_complete(30), |_, _| {});
    (lazy, node_chain(&sim))
}

#[test]
fn node_fingerprints_match_the_recorded_ones() {
    for (seed, recorded) in RECORDED {
        assert_eq!(run(seed), recorded, "seed {seed}");
    }
}
