//! End-to-end scenario coverage: every preset builds through the harness's
//! single entry point (`HarnessArgs::scenario_config` → `World::build`) and
//! runs its full event schedule — change batches and mass departures —
//! through real lazy gossip cycles, exactly the way the paper figures
//! consume it.

use p3q::prelude::*;
use p3q_bench::{HarnessArgs, World};
use p3q_trace::{Scenario, ScenarioEvent};
use rand::SeedableRng;

fn args_for(scenario: Scenario) -> HarnessArgs {
    HarnessArgs {
        users: 150,
        seed: 23,
        cycles: 9,
        queries: 10,
        paper_scale: false,
        scenario,
    }
}

/// Builds the world, bootstraps a simulator and drives the scenario's whole
/// schedule through an event-carrying lazy drive. Returns the world and
/// the finished simulator.
fn run_preset(scenario: Scenario) -> (World, Simulator<P3qNode>) {
    let args = args_for(scenario);
    let world = World::build(&args);
    assert_eq!(world.trace.dataset.num_users(), args.users);

    let mut sim = build_simulator(
        &world.trace.dataset,
        &world.cfg,
        &StorageDistribution::Uniform(500),
        args.seed,
    );
    init_ideal_networks(&mut sim, &world.ideal);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &world.cfg, &mut rng);

    let mut events: EventQueue<ScenarioEvent> = world.schedule.iter().cloned().collect();
    assert_eq!(events.len(), world.schedule.len());
    sim.drive(
        &world.cfg.lazy(),
        RunOptions::cycles(args.cycles).events(&mut events),
        |sim, event| {
            if let RunEvent::Scheduled(event) = event {
                p3q_bench::apply_sim_event(sim, &event);
            }
        },
    );
    assert!(events.is_empty(), "all scheduled events must have fired");
    (world, sim)
}

#[test]
fn every_preset_runs_end_to_end_through_the_harness() {
    for scenario in Scenario::ALL {
        let (world, sim) = run_preset(scenario);

        // The network survived the scenario: gossip kept running, nobody's
        // state was corrupted.
        assert_eq!(sim.cycle(), 9, "{}", scenario.name());
        assert!(
            sim.membership().alive_count() > 0,
            "{} left nobody alive",
            scenario.name()
        );

        let scheduled_changes: usize = world
            .schedule
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::ProfileChanges(_)))
            .count();
        let scheduled_departures = world.schedule.len() - scheduled_changes;

        // Scheduled change batches really hit the owners' nodes: their
        // profile versions moved past the initial value.
        if scheduled_changes > 0 {
            let bumped = world
                .schedule
                .iter()
                .filter_map(|(_, e)| match e {
                    ScenarioEvent::ProfileChanges(batch) => Some(batch),
                    _ => None,
                })
                .flat_map(|batch| &batch.changes)
                .filter(|change| sim.node(change.user.index()).profile_version() > 1)
                .count();
            assert!(
                bumped > 0,
                "{}: no changed user's profile version moved",
                scenario.name()
            );
        }

        // Scheduled departures really shrank the population.
        if scheduled_departures > 0 {
            assert!(
                sim.membership().alive_count() < sim.num_nodes(),
                "{}: departures scheduled but everyone is still alive",
                scenario.name()
            );
        }
    }
}

#[test]
fn scenarios_produce_distinct_workloads() {
    // Signature of a workload: the trace volume, the recommended fault mix,
    // the querier schedule and the full event schedule content (several
    // presets deliberately share the same base trace and differ only in
    // what happens on the cycle axis — lossy-network shares even the
    // schedule with paper-delicious, differing *only* in its fault
    // recommendation, and query-hotspot differs *only* in its Zipf-skewed
    // querier schedule).
    fn signature(world: &World, scenario: Scenario) -> (usize, u64, usize, Vec<(u64, String)>) {
        let queried: usize = args_for(scenario)
            .scenario_config()
            .querier_schedule()
            .iter()
            .map(Vec::len)
            .sum();
        let events = world
            .schedule
            .iter()
            .map(|(cycle, event)| {
                let tag = match event {
                    ScenarioEvent::MassDeparture(f) => format!("departure:{f}"),
                    ScenarioEvent::ProfileChanges(batch) => {
                        let actions: usize =
                            batch.changes.iter().map(|c| c.new_actions.len()).sum();
                        let first = batch
                            .changes
                            .first()
                            .map(|c| (c.user, c.new_actions.clone()));
                        format!("changes:{}:{}:{:?}", batch.len(), actions, first)
                    }
                };
                (*cycle, tag)
            })
            .collect();
        (
            world.trace.dataset.total_actions(),
            scenario.fault_config(23).fingerprint(),
            queried,
            events,
        )
    }
    let worlds: Vec<(Scenario, World)> = Scenario::ALL
        .iter()
        .map(|&s| (s, World::build(&args_for(s))))
        .collect();
    for (i, (sa, a)) in worlds.iter().enumerate() {
        for (sb, b) in &worlds[i + 1..] {
            assert_ne!(
                signature(a, *sa),
                signature(b, *sb),
                "presets {} and {} produced indistinguishable workloads",
                sa.name(),
                sb.name()
            );
        }
    }
}

#[test]
fn eager_queries_survive_a_churn_heavy_scenario() {
    let args = args_for(Scenario::ChurnHeavy);
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

    // Only the departures — profile changes would shift the centralized
    // reference the recall is measured against.
    let mut events = world
        .schedule
        .iter()
        .filter(|(_, event)| matches!(event, ScenarioEvent::MassDeparture(_)))
        .cloned()
        .collect();
    let outcome =
        p3q_bench::run_recall_experiment(&mut sim, &world, &queries, args.cycles, &mut events);
    assert_eq!(outcome.recall_per_cycle.len(), args.cycles as usize + 1);
    let last = *outcome.recall_per_cycle.last().unwrap();
    assert!(
        last > 0.3,
        "recall should partially survive heavy churn, got {last}"
    );
    assert!(
        sim.membership().alive_count() < sim.num_nodes(),
        "the churn events must have fired"
    );
}
