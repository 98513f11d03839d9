//! Property tests pinning the fault-injection layer and the hardened
//! protocols to the determinism contract of the plan/commit engine:
//!
//! * a **zero-fault** `FaultPlan` is a no-op — a drive with
//!   `RunOptions::faulted` and `FaultConfig::none()` leaves the whole
//!   simulation byte-identical to the faultless engine, for every
//!   worker-thread count;
//! * a **fault schedule is a pure function of `(seed, FaultConfig)`** —
//!   re-running the same faulted scenario reproduces every drop, delay,
//!   duplicate, crash and restart (same plan fingerprint, same end state),
//!   while a different fault seed diverges;
//! * the faulted engine keeps its **parallel == reference** guarantee under
//!   a composite fault mix (loss + delay + duplication + crash/restart);
//! * crash/restart round-trips through `Membership` **never double-count**
//!   alive nodes: the alive counter always equals the number of alive
//!   flags, and restarts of already-alive nodes are refused.
//!
//! Same shape as `engine_props.rs`: random scenarios via proptest and a
//! deliberately thorough state fingerprint instead of spot checks.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use rand::SeedableRng;

use p3q::prelude::*;

/// Fingerprint of the whole simulation: membership, every node, the whole
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

/// Membership invariant: the alive counter equals the number of alive
/// flags — a crash/restart round-trip that double-counted a node would
/// break this immediately.
fn assert_membership_consistent(sim: &Simulator<P3qNode>) -> Result<(), TestCaseError> {
    let flags = (0..sim.num_nodes())
        .filter(|&idx| sim.is_alive(idx))
        .count();
    prop_assert_eq!(
        sim.membership().alive_count(),
        flags,
        "membership alive_count diverged from alive flags at cycle {}",
        sim.cycle()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ISSUE property (a): a zero-fault `FaultPlan` produces runs
    /// byte-identical to the faultless engine, across thread counts
    /// 1 / 3 / 8, for both protocols and with hardening knobs both off
    /// and on (with no faults the machinery must never fire).
    #[test]
    fn zero_fault_runs_match_the_faultless_engine_across_threads(
        seed in 0u64..1000,
        hardened in 0u32..2,
    ) {
        let mut w = world(seed);
        let hardened = hardened == 1;
        if hardened {
            w.cfg = w.cfg.with_fault_tolerance(20, 4);
        }
        let cfg = w.cfg.clone();

        // Lazy mode.
        let mut faultless = lazy_sim(&w, seed);
        faultless.drive(&cfg.lazy(), RunOptions::cycles(4).oracle(), |_, _| {});
        for threads in [1usize, 3, 8] {
            let mut faulted = lazy_sim(&w, seed);
            let mut faults = FaultPlan::new(FaultConfig::none());
            faulted.drive(
                &cfg.lazy(),
                RunOptions::cycles(4).threads(threads).faulted(&mut faults),
                |_, _| {},
            );
            prop_assert_eq!(faults.stats(), FaultStats::default());
            prop_assert_eq!(
                sim_fingerprint(&faultless),
                sim_fingerprint(&faulted),
                "zero-fault lazy run diverged (seed {}, threads {}, hardened {})",
                seed, threads, hardened
            );
        }

        // Eager mode.
        let mut faultless = eager_sim(&w, &cfg, seed);
        let mut exchanges = Vec::new();
        for _ in 0..6 {
            exchanges.push(
                faultless
                    .drive(&cfg.eager(), RunOptions::cycles(1).oracle(), |_, _| {})
                    .exchanges(),
            );
        }
        for threads in [1usize, 3, 8] {
            let mut faulted = eager_sim(&w, &cfg, seed);
            let mut faults = FaultPlan::new(FaultConfig::none());
            let mut faulted_exchanges = Vec::new();
            for _ in 0..6 {
                faulted_exchanges.push(
                    faulted
                        .drive(
                            &cfg.eager(),
                            RunOptions::cycles(1).threads(threads).faulted(&mut faults),
                            |_, _| {},
                        )
                        .exchanges(),
                );
            }
            prop_assert_eq!(faults.stats(), FaultStats::default());
            prop_assert_eq!(&exchanges, &faulted_exchanges);
            prop_assert_eq!(
                sim_fingerprint(&faultless),
                sim_fingerprint(&faulted),
                "zero-fault eager run diverged (seed {}, threads {}, hardened {})",
                seed, threads, hardened
            );
        }
    }

    /// ISSUE property (b): the fault schedule is a pure function of
    /// `(seed, FaultConfig)` — two runs with the same pair agree on the
    /// fault-plan fingerprint, the fault statistics and the complete end
    /// state; flipping the fault seed diverges the schedule.
    #[test]
    fn fault_schedules_are_deterministic_in_seed_and_config(
        seed in 0u64..1000,
        fault_seed in 0u64..1000,
    ) {
        let w = world(seed);
        let cfg = w.cfg.clone().with_fault_tolerance(20, 4);

        let run = |fault_seed: u64| {
            let mut sim = eager_sim(&w, &cfg, seed);
            let mut faults = FaultPlan::new(composite_faults(fault_seed));
            sim.drive(
                &cfg.eager(),
                RunOptions::cycles(8).faulted(&mut faults),
                |_, _| {},
            );
            (faults.fingerprint(), faults.stats(), sim_fingerprint(&sim))
        };

        let (fp_a, stats_a, state_a) = run(fault_seed);
        let (fp_b, stats_b, state_b) = run(fault_seed);
        prop_assert_eq!(fp_a, fp_b, "same (seed, FaultConfig) gave different schedules");
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(state_a, state_b, "same fault schedule gave different end states");

        let (fp_c, _, _) = run(fault_seed ^ 0xDEAD_BEEF);
        // Independent fault seeds must not collide on the schedule.
        prop_assert_ne!(fp_a, fp_c);
    }

    /// The faulted engine keeps the parallel == reference guarantee under
    /// a composite fault mix, for both protocols and any thread count.
    #[test]
    fn faulted_parallel_equals_reference_under_composite_faults(
        seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let w = world(seed ^ 0x0FF);
        let cfg = w.cfg.clone().with_fault_tolerance(20, 4);
        let fault_cfg = composite_faults(seed ^ 0xFA01);

        // Lazy mode.
        let mut reference = lazy_sim(&w, seed);
        let mut parallel = lazy_sim(&w, seed);
        let mut ref_faults = FaultPlan::new(fault_cfg);
        let mut par_faults = FaultPlan::new(fault_cfg);
        for _ in 0..6 {
            reference.drive(
                &cfg.lazy(),
                RunOptions::cycles(1).oracle().faulted(&mut ref_faults),
                |_, _| {},
            );
            parallel.drive(
                &cfg.lazy(),
                RunOptions::cycles(1).threads(threads).faulted(&mut par_faults),
                |_, _| {},
            );
        }
        prop_assert_eq!(ref_faults.fingerprint(), par_faults.fingerprint());
        prop_assert_eq!(ref_faults.stats(), par_faults.stats());
        prop_assert_eq!(
            sim_fingerprint(&reference),
            sim_fingerprint(&parallel),
            "faulted lazy run diverged (seed {}, threads {})",
            seed, threads
        );

        // Eager mode.
        let mut reference = eager_sim(&w, &cfg, seed);
        let mut parallel = eager_sim(&w, &cfg, seed);
        let mut ref_faults = FaultPlan::new(fault_cfg);
        let mut par_faults = FaultPlan::new(fault_cfg);
        for _ in 0..8 {
            let a = reference
                .drive(
                    &cfg.eager(),
                    RunOptions::cycles(1).oracle().faulted(&mut ref_faults),
                    |_, _| {},
                )
                .exchanges();
            let b = parallel
                .drive(
                    &cfg.eager(),
                    RunOptions::cycles(1).threads(threads).faulted(&mut par_faults),
                    |_, _| {},
                )
                .exchanges();
            prop_assert_eq!(a, b, "exchange counts diverged");
        }
        prop_assert_eq!(ref_faults.fingerprint(), par_faults.fingerprint());
        prop_assert_eq!(ref_faults.stats(), par_faults.stats());
        prop_assert_eq!(
            sim_fingerprint(&reference),
            sim_fingerprint(&parallel),
            "faulted eager run diverged (seed {}, threads {})",
            seed, threads
        );
    }

    /// ISSUE property (c): crash/restart round-trips through `Membership`
    /// never double-count alive nodes. After every faulted cycle the alive
    /// counter equals the number of alive flags, never exceeds the
    /// population, and once all pending restarts have drained under a
    /// zero-fault tail every node is alive exactly once.
    #[test]
    fn crash_restart_round_trips_never_double_count_alive_nodes(
        seed in 0u64..1000,
        crash in 1u32..5,
        downtime in 0u64..4,
    ) {
        let w = world(seed ^ 0xC0A5);
        let cfg = w.cfg.clone();
        let mut sim = lazy_sim(&w, seed);
        let mut faults = FaultPlan::new(FaultConfig::crash_restart(
            crash as f64 / 10.0,
            downtime,
            seed ^ 0xC0A57,
        ));
        for _ in 0..8 {
            sim.drive(
                &cfg.lazy(),
                RunOptions::cycles(1).faulted(&mut faults),
                |_, _| {},
            );
            assert_membership_consistent(&sim)?;
            prop_assert!(sim.membership().alive_count() <= sim.num_nodes());
        }
        let stats = faults.stats();
        prop_assert!(stats.restarts <= stats.crashes, "more restarts than crashes");

        // Round-trip the survivors by hand: `rejoin` must accept every dead
        // node exactly once and refuse every alive one, landing the counter
        // exactly on the population — a double-count would overshoot.
        let n = sim.num_nodes();
        for idx in 0..n {
            let was_dead = !sim.is_alive(idx);
            prop_assert_eq!(
                sim.membership_mut().rejoin(idx),
                was_dead,
                "rejoin disagreed with the alive flag of node {}",
                idx
            );
        }
        assert_membership_consistent(&sim)?;
        prop_assert_eq!(
            sim.membership().alive_count(),
            n,
            "a crash/restart round-trip lost or duplicated a node"
        );
        // A second rejoin sweep is a no-op: nobody is counted twice.
        for idx in 0..n {
            prop_assert!(!sim.membership_mut().rejoin(idx));
        }
        prop_assert_eq!(sim.membership().alive_count(), n);
    }
}
