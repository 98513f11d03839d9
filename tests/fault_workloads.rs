//! Cross-crate integration of the fault axes: the scenario layer's fault
//! recommendations (`p3q-trace`), the seeded fault plan (`p3q-sim`), the
//! hardened protocols (`p3q`) and the harness world (`p3q-bench`) working
//! together the way `bench_faults` and the examples consume them.

use p3q::prelude::*;
use p3q_bench::{HarnessArgs, World};
use p3q_trace::Scenario;

fn args_for(scenario: Scenario) -> HarnessArgs {
    HarnessArgs {
        users: 150,
        seed: 23,
        cycles: 12,
        queries: 10,
        paper_scale: false,
        scenario,
    }
}

/// Runs a faulted lazy warmup plus a faulted eager query phase on a world
/// built through the harness entry point, and returns the measured loss
/// metrics plus the run's determinism witnesses.
fn run_faulted(
    scenario: Scenario,
    hardened: bool,
) -> (RecallUnderLoss, FaultStats, (u64, u64), usize) {
    let args = args_for(scenario);
    let world = World::build(&args);
    let cfg = if hardened {
        world.cfg.clone().with_fault_tolerance(args.cycles, 2)
    } else {
        world.cfg.clone()
    };
    let faults = scenario.fault_config(args.seed);

    let budgets = vec![4usize; world.trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&world.trace.dataset, &cfg, &budgets, args.seed);
    init_ideal_networks(&mut sim, &world.ideal);

    let mut lazy_faults: FaultPlan<LazyStep> = FaultPlan::new(faults);
    sim.drive(
        &cfg.lazy(),
        RunOptions::cycles(3).faulted(&mut lazy_faults),
        |_, _| {},
    );

    let queries = world.sample_queries(args.queries);
    let references: Vec<Vec<(ItemId, u32)>> = queries
        .iter()
        .map(|q| centralized_topk(&world.trace.dataset, &world.ideal, q, cfg.top_k))
        .collect();
    for (i, query) in queries.iter().enumerate() {
        issue_query(
            &mut sim,
            query.querier.index(),
            QueryId(i as u64),
            query.clone(),
            &cfg,
        );
    }
    let mut eager_faults: FaultPlan<EagerTask> = FaultPlan::new(faults);
    sim.drive(
        &cfg.eager(),
        RunOptions::cycles(args.cycles).faulted(&mut eager_faults),
        |_, _| {},
    );

    // Membership stays consistent under whatever the fault mix did.
    let alive_flags = (0..sim.num_nodes()).filter(|&i| sim.is_alive(i)).count();
    assert_eq!(sim.membership().alive_count(), alive_flags);

    let mut loss = RecallUnderLoss::default();
    for (i, query) in queries.iter().enumerate() {
        match sim
            .node_mut(query.querier.index())
            .querier_states
            .get_mut(&QueryId(i as u64))
        {
            None => loss.record_lost(),
            Some(state) => {
                let items: Vec<ItemId> = state
                    .current_topk(cfg.top_k)
                    .iter()
                    .map(|r| r.item)
                    .collect();
                loss.record_query(
                    recall_at_k(&items, &references[i]),
                    state.completion_latency(),
                );
            }
        }
    }
    loss.total_bytes = sim.bandwidth.totals().0;

    let stats = {
        let (a, b) = (lazy_faults.stats(), eager_faults.stats());
        FaultStats {
            dropped: a.dropped + b.dropped,
            delayed: a.delayed + b.delayed,
            duplicated: a.duplicated + b.duplicated,
            expired: a.expired + b.expired,
            crashes: a.crashes + b.crashes,
            restarts: a.restarts + b.restarts,
        }
    };
    (loss, stats, sim.bandwidth.totals(), alive_flags)
}

#[test]
fn only_the_fault_axes_recommend_faults() {
    for scenario in Scenario::ALL {
        let faults = scenario.fault_config(23);
        match scenario {
            Scenario::LossyNetwork | Scenario::CrashRestart => {
                assert!(!faults.is_none(), "{} must inject faults", scenario.name())
            }
            _ => assert!(
                faults.is_none(),
                "{} must not inject faults",
                scenario.name()
            ),
        }
    }
}

#[test]
fn lossy_network_workload_degrades_gracefully() {
    let (loss, stats, _, alive) = run_faulted(Scenario::LossyNetwork, true);
    assert!(stats.dropped > 0, "a 5% loss run must drop something");
    assert_eq!(stats.crashes, 0, "the lossy axis injects no crashes");
    assert_eq!(alive, 150, "delivery faults never kill nodes");
    assert_eq!(
        loss.lost_queries, 0,
        "without crashes no query book is lost"
    );
    assert!(
        loss.average_recall() > 0.7,
        "recall collapsed under 5% loss: {}",
        loss.average_recall()
    );
}

#[test]
fn crash_restart_workload_loses_only_crashed_queriers() {
    let (loss, stats, _, _) = run_faulted(Scenario::CrashRestart, true);
    assert!(stats.crashes > 0, "the crash axis must crash somebody");
    assert!(
        stats.restarts <= stats.crashes,
        "restarts cannot outnumber crashes"
    );
    // Lost queries can only come from crashed queriers; everything else
    // still gets scored.
    assert_eq!(loss.queries, 10);
    assert!(
        loss.queries - loss.lost_queries > 0,
        "some queries must survive"
    );
}

#[test]
fn faulted_workloads_replay_byte_identically() {
    for scenario in [Scenario::LossyNetwork, Scenario::CrashRestart] {
        let (loss_a, stats_a, checksum_a, _) = run_faulted(scenario, true);
        let (loss_b, stats_b, checksum_b, _) = run_faulted(scenario, true);
        assert_eq!(
            stats_a,
            stats_b,
            "{} fault schedule diverged",
            scenario.name()
        );
        assert_eq!(
            checksum_a,
            checksum_b,
            "{} traffic diverged",
            scenario.name()
        );
        assert_eq!(loss_a, loss_b, "{} metrics diverged", scenario.name());
    }
}

#[test]
fn hardening_never_hurts_recall_on_the_fault_axes() {
    for scenario in [Scenario::LossyNetwork, Scenario::CrashRestart] {
        let (hardened, _, _, _) = run_faulted(scenario, true);
        let (plain, _, _, _) = run_faulted(scenario, false);
        assert!(
            hardened.average_recall() >= plain.average_recall() - 1e-9,
            "{}: hardened recall {} below plain {}",
            scenario.name(),
            hardened.average_recall(),
            plain.average_recall()
        );
    }
}
