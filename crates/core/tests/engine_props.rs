//! Property tests pinning the parallel plan/commit cycle engine to its
//! sequential oracle: lazy and eager drives executed with *any*
//! worker-thread count must leave the whole simulation — personal
//! networks, random views, stored profiles, querier states, task shares
//! and every bandwidth counter — byte-identical to the oracle mode
//! (`RunOptions::oracle`), including under profile dynamics, churned
//! membership and mid-run departures. The lazy planner — the one that
//! reads *remote* nodes — must also emit the same plans whether it observes
//! the population as one slice or shard by shard (`CycleContext::sharded`,
//! the transport actors' view).
//!
//! Same shape as `similarity_props.rs`: random scenarios via proptest, a
//! deliberately thorough fingerprint instead of spot checks.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use p3q::prelude::*;
use p3q_sim::exchange::plan_range;
use p3q_sim::{CycleContext, ExchangePlan};

/// Fingerprint of the whole simulation: every node plus the whole
/// bandwidth recorder.
fn sim_fingerprint(sim: &Simulator<P3qNode>) -> u64 {
    let mut h = DefaultHasher::new();
    sim.cycle().hash(&mut h);
    sim.membership().alive_count().hash(&mut h);
    for idx in 0..sim.num_nodes() {
        sim.is_alive(idx).hash(&mut h);
        sim.node(idx).fingerprint().hash(&mut h);
    }
    sim.bandwidth.hash(&mut h);
    h.finish()
}

struct World {
    trace: p3q_trace::SyntheticTrace,
    cfg: P3qConfig,
    ideal: IdealNetworks,
    queries: Vec<Query>,
}

fn world(seed: u64) -> World {
    let mut trace_cfg = TraceConfig::tiny(seed);
    trace_cfg.num_users = 80;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::tiny();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let queries: Vec<Query> = QueryGenerator::new(seed ^ 0xABCD)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(6)
        .collect();
    World {
        trace,
        cfg,
        ideal,
        queries,
    }
}

fn lazy_sim(world: &World, seed: u64) -> Simulator<P3qNode> {
    let mut sim = build_simulator(
        &world.trace.dataset,
        &world.cfg,
        &StorageDistribution::Uniform(300),
        seed,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &world.cfg, &mut rng);
    sim
}

fn eager_sim(world: &World, seed: u64) -> Simulator<P3qNode> {
    let budgets = vec![1usize; world.trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&world.trace.dataset, &world.cfg, &budgets, seed);
    init_ideal_networks(&mut sim, &world.ideal);
    for (i, query) in world.queries.iter().enumerate() {
        issue_query(
            &mut sim,
            query.querier.index(),
            QueryId(i as u64),
            query.clone(),
            &world.cfg,
        );
    }
    sim
}

use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lazy mode: a run interleaving profile dynamics and a mass departure
    /// is byte-identical between the parallel engine (arbitrary thread
    /// count) and the sequential reference.
    #[test]
    fn lazy_parallel_equals_reference_under_dynamics_and_churn(
        seed in 0u64..1000,
        threads in 1usize..9,
        departure in 0u32..4,
    ) {
        let w = world(seed);
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(seed ^ 0xDA7))
            .generate(&w.trace);
        let fraction = departure as f64 / 10.0;

        let mut reference = lazy_sim(&w, seed);
        let mut parallel = lazy_sim(&w, seed);
        for phase in 0..3 {
            for _ in 0..2 {
                reference.drive(&w.cfg.lazy(), RunOptions::cycles(1).oracle(), |_, _| {});
                parallel.drive(&w.cfg.lazy(), RunOptions::cycles(1).threads(threads), |_, _| {});
            }
            match phase {
                // Mid-run profile dynamics: owners change, copies go stale.
                0 => {
                    apply_profile_changes(&mut reference, &batch);
                    apply_profile_changes(&mut parallel, &batch);
                }
                // Mid-run departures (same RNG stream on both sides, so the
                // same nodes leave).
                1 => {
                    let a = reference.mass_departure(fraction);
                    let b = parallel.mass_departure(fraction);
                    prop_assert_eq!(a, b, "divergent departures mean divergent RNG streams");
                }
                _ => {}
            }
        }
        prop_assert_eq!(
            sim_fingerprint(&reference),
            sim_fingerprint(&parallel),
            "lazy run diverged (seed {}, threads {}, departure {}%)",
            seed, threads, departure * 10
        );
    }

    /// Eager mode: concurrent queries with mid-run departures are
    /// byte-identical between the parallel engine and the reference —
    /// including the per-query traffic bills and completion cycles.
    #[test]
    fn eager_parallel_equals_reference_with_mid_run_departures(
        seed in 0u64..1000,
        threads in 1usize..9,
        departure in 0u32..5,
    ) {
        let w = world(seed ^ 0x5A5A);
        let fraction = departure as f64 / 10.0;

        let mut reference = eager_sim(&w, seed);
        let mut parallel = eager_sim(&w, seed);
        let mut reference_exchanges = Vec::new();
        let mut parallel_exchanges = Vec::new();
        for cycle in 0..10 {
            if cycle == 3 {
                let a = reference.mass_departure(fraction);
                let b = parallel.mass_departure(fraction);
                prop_assert_eq!(a, b);
            }
            reference_exchanges.push(
                reference
                    .drive(&w.cfg.eager(), RunOptions::cycles(1).oracle(), |_, _| {})
                    .exchanges(),
            );
            parallel_exchanges.push(
                parallel
                    .drive(&w.cfg.eager(), RunOptions::cycles(1).threads(threads), |_, _| {})
                    .exchanges(),
            );
        }
        prop_assert_eq!(reference_exchanges, parallel_exchanges);
        prop_assert_eq!(
            sim_fingerprint(&reference),
            sim_fingerprint(&parallel),
            "eager run diverged (seed {}, threads {})",
            seed, threads
        );
    }

    /// Mixed schedule through the *default* drive (no thread override),
    /// whose worker count comes from `P3Q_THREADS` / available parallelism:
    /// whatever the environment chooses must match the reference. CI runs
    /// this whole suite under P3Q_THREADS ∈ {1, 3, 8}.
    #[test]
    fn default_thread_count_matches_reference_on_mixed_schedules(
        seed in 0u64..1000,
    ) {
        let w = world(seed ^ 0x3C3C);
        let mut reference = eager_sim(&w, seed);
        let mut parallel = eager_sim(&w, seed);
        for round in 0..4 {
            reference.drive(&w.cfg.lazy(), RunOptions::cycles(1).oracle(), |_, _| {});
            parallel.drive(&w.cfg.lazy(), RunOptions::cycles(1), |_, _| {});
            let a = reference
                .drive(&w.cfg.eager(), RunOptions::cycles(1).oracle(), |_, _| {})
                .exchanges();
            let b = parallel
                .drive(&w.cfg.eager(), RunOptions::cycles(1), |_, _| {})
                .exchanges();
            prop_assert_eq!(a, b, "exchange counts diverged in round {}", round);
        }
        prop_assert_eq!(sim_fingerprint(&reference), sim_fingerprint(&parallel));
    }
}

/// What a lazy plan says, down to *which* shared digest and profile handles
/// its remote reads captured.
fn lazy_plan_key(plan: &ExchangePlan<LazyStep>) -> (usize, Option<usize>, u8, Vec<[usize; 4]>) {
    let ptr = |digest: &p3q_bloom::SharedFilter| std::sync::Arc::as_ptr(digest) as usize;
    let (kind, reads) = match &plan.payload {
        LazyStep::Shuffle => (0, Vec::new()),
        LazyStep::NetworkGossip => (1, Vec::new()),
        LazyStep::Probe(candidates) => {
            let read = |c: &p3q::lazy::ProfileOffer| {
                let profile = std::sync::Arc::as_ptr(&c.profile) as usize;
                [c.user.index(), c.version as usize, ptr(&c.digest), profile]
            };
            (2, candidates.iter().map(read).collect())
        }
        LazyStep::Rebootstrap(picks) => {
            let read = |(peer, info): &(UserId, p3q::node::DigestInfo)| {
                [peer.index(), info.version as usize, ptr(&info.digest), 0]
            };
            (3, picks.iter().map(read).collect())
        }
    };
    (plan.initiator, plan.destination, kind, reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `LazyProtocol::plan` reads other nodes in two places — the probe
    /// (a random-view member's digest, profile and version) and the
    /// re-bootstrap of a node that lost its views in a crash (the digests
    /// of random alive peers). Both must capture the very same handles
    /// from a sharded context, ragged last shard and departed nodes
    /// included, as from the contiguous one.
    #[test]
    fn lazy_plans_are_identical_from_a_sharded_context(
        seed in 0u64..1000,
        shard_size in 1usize..40,
        cycle_seed in 0u64..u64::MAX,
    ) {
        let w = world(seed);
        let mut sim = lazy_sim(&w, seed);
        sim.drive(&w.cfg.lazy(), RunOptions::cycles(2), |_, _| {});
        let n = sim.num_nodes();
        // Every seventh node departs; every fifth of the rest comes back
        // from a crash with empty views.
        for idx in 0..n {
            if idx % 7 == 3 {
                sim.membership_mut().depart(idx);
            } else if idx % 5 == 1 {
                sim.node_mut(idx).crash_volatile();
            }
        }

        let proto = w.cfg.lazy();
        let shards: Vec<&[P3qNode]> = sim.nodes().chunks(shard_size).collect();
        let contiguous = CycleContext::new(sim.nodes(), sim.membership(), sim.cycle());
        let sharded = CycleContext::sharded(&shards, shard_size, sim.membership(), sim.cycle());
        let expected = plan_range(&proto, &contiguous, cycle_seed, 0..n);
        let plans = plan_range(&proto, &sharded, cycle_seed, 0..n);
        let keys = |plans: &[ExchangePlan<LazyStep>]| -> Vec<_> {
            plans.iter().map(lazy_plan_key).collect()
        };
        prop_assert_eq!(keys(&plans), keys(&expected));
        for kind in [2, 3] {
            prop_assert!(
                expected.iter().any(|plan| lazy_plan_key(plan).2 == kind),
                "no plan of kind {} — the remote reads went unexercised", kind
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bootstrap is thread-count independent: filling the random views with
    /// any worker-thread count leaves the whole simulation byte-identical
    /// to the sequential reference — including over churned membership
    /// (departed nodes are skipped, alive picks unchanged) — and the
    /// resulting state is a valid base for identical gossip cycles.
    #[test]
    fn bootstrap_parallel_equals_reference(
        seed in 0u64..1000,
        threads in 1usize..9,
        departed in 0u32..3,
    ) {
        let w = world(seed ^ 0xB0075);
        let build = |which: u32| {
            let mut sim = build_simulator(
                &w.trace.dataset,
                &w.cfg,
                &StorageDistribution::Uniform(300),
                seed,
            );
            if departed > 0 {
                sim.mass_departure(departed as f64 * 0.1);
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB007);
            match which {
                0 => bootstrap_random_views_reference(&mut sim, &w.cfg, &mut rng),
                _ => bootstrap_random_views_with_threads(&mut sim, &w.cfg, &mut rng, threads),
            }
            sim
        };
        let mut reference = build(0);
        let mut parallel = build(1);
        prop_assert_eq!(
            sim_fingerprint(&reference),
            sim_fingerprint(&parallel),
            "bootstrap diverged with {} threads", threads
        );
        // And the bootstrapped states behave identically under gossip.
        reference.drive(&w.cfg.lazy(), RunOptions::cycles(1).oracle(), |_, _| {});
        parallel.drive(&w.cfg.lazy(), RunOptions::cycles(1), |_, _| {});
        prop_assert_eq!(sim_fingerprint(&reference), sim_fingerprint(&parallel));
    }
}

/// Stored profile copies held at rank `c` or lower, or of a peer not in
/// the personal network, over every node.
fn copies_past_the_budget(sim: &Simulator<P3qNode>) -> usize {
    sim.nodes()
        .iter()
        .map(|node| {
            node.stored_profiles()
                .filter(|(peer, _, _)| {
                    node.personal_network
                        .rank_of(peer)
                        .is_none_or(|rank| rank >= node.storage_budget())
                })
                .count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Only the `c` most similar neighbours keep a full profile, after
    /// every lazy cycle, across a paper day of profile dynamics. After the
    /// day a third party can relay an older copy of a known neighbour: it
    /// scores lower and moves the neighbour down, and the neighbour's
    /// stored copy must not go along past rank `c`.
    #[test]
    fn no_copy_is_held_past_the_storage_budget_under_dynamics(seed in 0u64..1000) {
        let w = world(seed);
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(seed ^ 0xDA7))
            .generate(&w.trace);
        let mut sim = lazy_sim(&w, seed);
        for cycle in 0..12 {
            if cycle == 4 {
                apply_profile_changes(&mut sim, &batch);
            }
            sim.drive(&w.cfg.lazy(), RunOptions::cycles(1), |_, _| {});
            prop_assert_eq!(
                copies_past_the_budget(&sim), 0,
                "seed {}, after cycle {}", seed, cycle
            );
        }
    }
}

/// Folds every digest the population holds into `seen`, keyed by `(user,
/// digest version)`: each node's own, and every personal-network and
/// random-view entry, relayed copies included. Returns the first key whose
/// bytes differ from the bytes first seen under it.
fn first_digest_mismatch(
    sim: &Simulator<P3qNode>,
    seen: &mut std::collections::HashMap<(UserId, u64), p3q_bloom::SharedFilter>,
) -> Option<(UserId, u64)> {
    for node in sim.nodes() {
        let own = std::iter::once((node.id, node.profile_version(), node.shared_digest()));
        let network = node
            .personal_network
            .iter()
            .map(|e| (e.peer, u64::from(e.meta.digest_version), &e.meta.digest));
        let view = node
            .random_view
            .iter()
            .map(|e| (e.peer, e.meta.version, &e.meta.digest));
        for (user, version, digest) in own.chain(network).chain(view) {
            let first = seen
                .entry((user, version))
                .or_insert_with(|| digest.clone());
            if first != digest {
                return Some((user, version));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// What versions-first gossip rests on: a digest is a function of its
    /// owner's profile version, so every holder of a user's digest at one
    /// version (the user, a personal network, a random view, through any
    /// relay) holds the same bytes, across a lazy run with a paper day of
    /// profile dynamics.
    #[test]
    fn one_digest_per_user_and_version_under_dynamics(seed in 0u64..1000) {
        let w = world(seed);
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(seed ^ 0xDA7))
            .generate(&w.trace);
        let mut sim = lazy_sim(&w, seed);
        let mut seen = std::collections::HashMap::new();
        for cycle in 0..10 {
            if cycle == 3 {
                apply_profile_changes(&mut sim, &batch);
            }
            sim.drive(&w.cfg.lazy(), RunOptions::cycles(1), |_, _| {});
            prop_assert_eq!(
                first_digest_mismatch(&sim, &mut seen), None,
                "seed {}, after cycle {}", seed, cycle
            );
        }
        prop_assert!(
            seen.keys().any(|&(_, version)| version > 1),
            "the dynamics must have made a second version"
        );
    }
}
