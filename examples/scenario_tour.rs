//! A tour of the scenario presets: the same protocol under five different
//! workload shapes.
//!
//! The paper evaluates P3Q on one trace (the delicious crawl). The scenario
//! layer opens the workload axis: every preset is one `ScenarioConfig` that
//! materializes into a trace and a concrete event schedule — this example
//! builds each preset at toy scale, prints the structure its trace actually
//! exhibits, then drives the full schedule (change batches, mass
//! departures) through lazy gossip cycles and reports how the network
//! fares.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example scenario_tour
//! ```

use p3q::prelude::*;
use p3q_trace::{DatasetStats, Scenario, ScenarioConfig, ScenarioEvent};

fn main() {
    for scenario in Scenario::ALL {
        let config = ScenarioConfig::new(scenario, 250, 17).with_horizon(12);
        let workload = config.build();
        let trace = &workload.trace;
        let stats = DatasetStats::compute(&trace.dataset);

        println!("=== {} ===", scenario.name());
        println!("    {}", scenario.description());
        println!(
            "    trace: {} users, {} actions, top-decile item load {:.0}%, p99 profile {} items",
            stats.users,
            stats.total_actions,
            stats.top_decile_item_share * 100.0,
            stats.p99_items_per_user
        );
        let batches = workload
            .schedule
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::ProfileChanges(_)))
            .count();
        let departures = workload.schedule.len() - batches;
        println!(
            "    schedule: {batches} change batch(es) ({} new actions), {departures} departure(s)",
            workload.scheduled_actions()
        );

        // Drive the whole schedule through lazy gossip.
        let cfg = P3qConfig::laptop_scale();
        let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
        let mut sim = build_simulator(
            &trace.dataset,
            &cfg,
            &StorageDistribution::Uniform(500),
            config.seed,
        );
        init_ideal_networks(&mut sim, &ideal);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(config.seed);
        bootstrap_random_views(&mut sim, &cfg, &mut rng);

        let mut events: EventQueue<_> = workload.schedule.iter().cloned().collect();
        let report = sim
            .drive(
                &cfg.lazy(),
                RunOptions::cycles(config.horizon).events(&mut events),
                |sim, event| match event {
                    RunEvent::Scheduled(ScenarioEvent::ProfileChanges(batch)) => {
                        apply_profile_changes(sim, &batch);
                    }
                    RunEvent::Scheduled(ScenarioEvent::MassDeparture(fraction)) => {
                        sim.mass_departure(fraction);
                    }
                    RunEvent::CycleEnd(_) => {}
                },
            )
            .report;
        println!(
            "    after {} cycles: {} of {} nodes alive, {} pairwise exchanges in total",
            config.horizon,
            sim.membership().alive_count(),
            sim.num_nodes(),
            report.pair_exchanges
        );
        println!();
    }
}
