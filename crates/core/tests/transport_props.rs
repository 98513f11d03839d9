//! Property tests pinning the message-passing transport runtime
//! (`p3q_transport::TransportRuntime`) to its oracle, the deterministic
//! simulator:
//!
//! * a transport run is **byte-identical** to `Simulator::drive` for the
//!   same seed — node states (via the `Fingerprint` chain), every bandwidth
//!   counter and the run reports all agree, for both protocols (lazy
//!   maintenance, eager query processing), across shard layouts of 1 / 3 /
//!   8 actors;
//! * the equality survives a **composite fault mix** (loss + delay +
//!   duplication + crash/restart) reinterpreted as transport faults, with
//!   identical fault schedules and statistics;
//! * **mailbox traffic is bounded by shards × batches**, never by plans, and
//!   repeats exactly for the same run;
//! * the end-to-end **recall** of a query gossiped over the transport
//!   equals the simulator's (and the centralized reference's, where the
//!   ideal-network run achieves it).
//!
//! Same shape as `fault_props.rs`: random scenarios via proptest and
//! deliberately thorough state fingerprints instead of spot checks.

use proptest::prelude::*;
use rand::SeedableRng;

use p3q::prelude::*;
use p3q_transport::{DeliverySchedule, TransportRuntime};

/// Shard layouts exercised everywhere: the degenerate single actor, an
/// uneven split and more actors than the CI host has cores.
const ACTOR_COUNTS: [usize; 3] = [1, 3, 8];

/// A stable digest of a full run state: cycle, alive flags, every node
/// (via its [`Fingerprint`] impl) and every bandwidth counter.
fn state_fingerprint(
    cycle: u64,
    alive: impl Iterator<Item = bool>,
    nodes: &[&P3qNode],
    bandwidth: &p3q_sim::BandwidthRecorder,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(cycle);
    for flag in alive {
        h.write_u64(flag as u64);
    }
    h.write_u64(fingerprint_chain(nodes.iter().copied()));
    h.write_u64(bandwidth.totals().0);
    h.write_u64(bandwidth.totals().1);
    for category in bandwidth.categories() {
        h.write_all(category.bytes().map(u64::from));
        h.write_u64(bandwidth.category_bytes(category));
        for idx in 0..nodes.len() {
            h.write_u64(bandwidth.node_bytes(idx, category));
        }
    }
    h.finish()
}

fn sim_state(sim: &Simulator<P3qNode>) -> u64 {
    let nodes: Vec<&P3qNode> = sim.nodes().iter().collect();
    state_fingerprint(
        sim.cycle(),
        (0..sim.num_nodes()).map(|idx| sim.is_alive(idx)),
        &nodes,
        &sim.bandwidth,
    )
}

fn transport_state(rt: &TransportRuntime<P3qNode>) -> u64 {
    let nodes: Vec<&P3qNode> = rt.nodes().collect();
    state_fingerprint(
        rt.cycle(),
        (0..rt.num_nodes()).map(|idx| rt.membership().is_alive(idx)),
        &nodes,
        &rt.bandwidth,
    )
}

struct World {
    trace: p3q_trace::SyntheticTrace,
    cfg: P3qConfig,
    ideal: IdealNetworks,
    queries: Vec<Query>,
}

fn world(seed: u64) -> World {
    let mut trace_cfg = TraceConfig::tiny(seed);
    trace_cfg.num_users = 60;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::tiny();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let queries: Vec<Query> = QueryGenerator::new(seed ^ 0xFA17)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(5)
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

fn eager_sim(world: &World, cfg: &P3qConfig, seed: u64) -> Simulator<P3qNode> {
    let budgets = vec![1usize; world.trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&world.trace.dataset, cfg, &budgets, seed);
    init_ideal_networks(&mut sim, &world.ideal);
    for (i, query) in world.queries.iter().enumerate() {
        issue_query(
            &mut sim,
            query.querier.index(),
            QueryId(i as u64),
            query.clone(),
            cfg,
        );
    }
    sim
}

/// A composite fault mix exercising every fault kind at once.
fn composite_faults(fault_seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::lossy(0.2, fault_seed);
    cfg.duplicate_rate = 0.1;
    cfg.crash_rate = 0.05;
    cfg.downtime_cycles = 1;
    cfg.validate();
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ISSUE acceptance: under the canonical schedule a transport run is
    /// byte-identical to the simulator for the same seed, for both
    /// protocols and every shard layout.
    #[test]
    fn canonical_transport_matches_the_simulator_across_layouts(
        seed in 0u64..1000,
    ) {
        let w = world(seed);
        let cfg = w.cfg.clone();

        // Lazy mode: 4 maintenance cycles.
        let mut reference = lazy_sim(&w, seed);
        reference.drive(&cfg.lazy(), RunOptions::cycles(4), |_, _| {});
        for actors in ACTOR_COUNTS {
            let mut rt =
                TransportRuntime::from_simulator(&mut lazy_sim(&w, seed), actors, DeliverySchedule::canonical());
            rt.drive(&cfg.lazy(), RunOptions::cycles(4));
            prop_assert_eq!(
                sim_state(&reference),
                transport_state(&rt),
                "lazy transport run diverged (seed {}, actors {})",
                seed, actors
            );
        }

        // Eager mode: 6 query cycles, comparing the per-cycle reports too.
        let mut reference = eager_sim(&w, &cfg, seed);
        let mut exchanges = Vec::new();
        for _ in 0..6 {
            exchanges.push(
                reference
                    .drive(&cfg.eager(), RunOptions::cycles(1), |_, _| {})
                    .exchanges(),
            );
        }
        for actors in ACTOR_COUNTS {
            let mut rt = TransportRuntime::from_simulator(
                &mut eager_sim(&w, &cfg, seed),
                actors,
                DeliverySchedule::canonical(),
            );
            let mut rt_exchanges = Vec::new();
            for _ in 0..6 {
                rt_exchanges.push(rt.drive(&cfg.eager(), RunOptions::cycles(1)).exchanges());
            }
            prop_assert_eq!(&exchanges, &rt_exchanges, "exchange counts diverged");
            prop_assert_eq!(
                sim_state(&reference),
                transport_state(&rt),
                "eager transport run diverged (seed {}, actors {})",
                seed, actors
            );
        }
    }

    /// The byte-equality survives a composite fault mix — drops, delays,
    /// duplicates and node crash/restarts, reinterpreted as transport
    /// faults — with identical fault schedules and statistics.
    #[test]
    fn faulted_transport_matches_the_simulator(
        seed in 0u64..1000,
    ) {
        let w = world(seed ^ 0x0FF);
        let cfg = w.cfg.clone().with_fault_tolerance(20, 4);
        let fault_cfg = composite_faults(seed ^ 0xFA01);

        // Lazy mode.
        let mut reference = lazy_sim(&w, seed);
        let mut ref_faults = FaultPlan::new(fault_cfg);
        reference.drive(
            &cfg.lazy(),
            RunOptions::cycles(6).faulted(&mut ref_faults),
            |_, _| {},
        );
        for actors in ACTOR_COUNTS {
            let mut rt =
                TransportRuntime::from_simulator(&mut lazy_sim(&w, seed), actors, DeliverySchedule::canonical());
            let mut rt_faults = FaultPlan::new(fault_cfg);
            rt.drive(&cfg.lazy(), RunOptions::cycles(6).faulted(&mut rt_faults));
            prop_assert_eq!(ref_faults.fingerprint(), rt_faults.fingerprint());
            prop_assert_eq!(ref_faults.stats(), rt_faults.stats());
            prop_assert_eq!(
                sim_state(&reference),
                transport_state(&rt),
                "faulted lazy transport run diverged (seed {}, actors {})",
                seed, actors
            );
        }

        // Eager mode.
        let mut reference = eager_sim(&w, &cfg, seed);
        let mut ref_faults = FaultPlan::new(fault_cfg);
        reference.drive(
            &cfg.eager(),
            RunOptions::cycles(8).faulted(&mut ref_faults),
            |_, _| {},
        );
        for actors in ACTOR_COUNTS {
            let mut rt = TransportRuntime::from_simulator(
                &mut eager_sim(&w, &cfg, seed),
                actors,
                DeliverySchedule::canonical(),
            );
            let mut rt_faults = FaultPlan::new(fault_cfg);
            rt.drive(&cfg.eager(), RunOptions::cycles(8).faulted(&mut rt_faults));
            prop_assert_eq!(ref_faults.fingerprint(), rt_faults.fingerprint());
            prop_assert_eq!(ref_faults.stats(), rt_faults.stats());
            prop_assert_eq!(
                sim_state(&reference),
                transport_state(&rt),
                "faulted eager transport run diverged (seed {}, actors {})",
                seed, actors
            );
        }
    }
}

/// Mailbox traffic is bounded by shards × batches, never by plans — per
/// cycle and actor at most `Transitions`, `Prepare`, `Plan`, `FinishCycle`
/// plus `Lend`, `Commit`, `Restore`, `Effects` per batch, answered by at
/// most `Prepared`, `Plans`, `WantsMore` plus `Guests`, `Outcomes` per batch
/// — and is a pure function of the run, on lazy gossip as on the runtime's
/// own ring fixture.
#[test]
fn mailbox_traffic_of_a_lazy_run_is_bounded_and_repeatable() {
    let w = world(11);
    let cfg = w.cfg.clone();
    let run = |actors: usize| {
        let mut rt = TransportRuntime::from_simulator(
            &mut lazy_sim(&w, 11),
            actors,
            DeliverySchedule::canonical(),
        );
        let actors = rt.num_actors() as u64;
        let mut per_cycle = Vec::new();
        for _ in 0..4 {
            let before = rt.traffic();
            let report = rt.drive(&cfg.lazy(), RunOptions::cycles(1)).report;
            let after = rt.traffic();
            let batches = report.batches as u64;
            // Every drive ends with one `Stop` per actor.
            let commands = after.commands - before.commands - actors;
            let replies = after.replies - before.replies;
            assert!(
                report.plans as u64 > 4 + 4 * batches,
                "a cycle worth bounding"
            );
            assert!(
                commands <= actors * (4 + 4 * batches),
                "{commands} commands"
            );
            assert!(replies <= actors * (3 + 2 * batches), "{replies} replies");
            per_cycle.push(after);
        }
        per_cycle
    };
    for actors in ACTOR_COUNTS {
        let traffic = run(actors);
        assert_eq!(traffic, run(actors), "actors {actors}");
        assert_eq!(traffic[3].guests_lent > 0, actors > 1, "actors {actors}");
    }
}

/// End-to-end acceptance: a query gossiped to completion over the transport
/// reaches exactly the simulator's recall — and, with ideal networks and
/// enough budget, the centralized reference's.
#[test]
fn transport_recall_matches_the_simulator() {
    let trace = TraceGenerator::new(TraceConfig::tiny(42)).generate();
    let cfg = P3qConfig::tiny();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let budgets = vec![2usize; trace.dataset.num_users()];

    let build = || {
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 7);
        init_ideal_networks(&mut sim, &ideal);
        let query = QueryGenerator::new(1)
            .one_query_per_user(&trace.dataset)
            .into_iter()
            .find(|q| !ideal.network_of(q.querier).is_empty())
            .unwrap();
        issue_query(
            &mut sim,
            query.querier.index(),
            QueryId(0),
            query.clone(),
            &cfg,
        );
        (sim, query)
    };

    let recall_of = |node: &P3qNode, query: &Query| {
        let mut node = node.clone();
        let state = node.querier_states.get_mut(&QueryId(0)).unwrap();
        let items: Vec<_> = state
            .nra
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        let reference = centralized_topk(&trace.dataset, &ideal, query, cfg.top_k);
        recall_at_k(&items, &reference)
    };

    let (mut reference, query) = build();
    let ref_report = reference.drive(&cfg.eager(), RunOptions::until_complete(50), |_, _| {});
    let ref_recall = recall_of(reference.node(query.querier.index()), &query);
    assert_eq!(
        ref_recall, 1.0,
        "the ideal-network run must reach full recall"
    );

    for actors in ACTOR_COUNTS {
        let (mut seeded, _) = build();
        let mut rt =
            TransportRuntime::from_simulator(&mut seeded, actors, DeliverySchedule::canonical());
        let rt_report = rt.drive(&cfg.eager(), RunOptions::until_complete(50));
        assert_eq!(
            ref_report, rt_report,
            "run reports diverged (actors {actors})"
        );
        let rt_recall = recall_of(rt.node(query.querier.index()), &query);
        assert_eq!(ref_recall, rt_recall, "recall diverged (actors {actors})");
        assert_eq!(
            sim_state(&reference),
            transport_state(&rt),
            "end state diverged (actors {actors})"
        );
    }
}
