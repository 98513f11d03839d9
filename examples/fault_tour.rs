//! A tour of the fault-injection layer: the same protocol run faultlessly,
//! over a lossy network, and under crash/restart churn.
//!
//! Faults are part of the *simulation*, not the protocol: a seeded
//! [`FaultPlan`] interposes between the engine's plan and commit phases and
//! drops, delays or duplicates planned exchanges and crashes/restarts
//! nodes, all from RNG streams derived from one fault seed. The same
//! `(seed, FaultConfig)` pair replays the exact fault schedule — and a
//! zero-fault plan is byte-identical to the faultless engine.
//!
//! This example runs two fault mixes (a lossy network, crash/restart churn)
//! next to a faultless control, with the hardening knobs
//! (query TTL, retry-with-backoff) switched on, and prints what each fault
//! mix did and what it cost in recall.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example fault_tour
//! ```

use p3q::prelude::*;
use p3q_trace::{Scenario, ScenarioConfig};

fn main() {
    let users = 250;
    let seed = 17;
    let lazy_cycles = 4;
    let eager_cycles = 15;

    // One world for all three runs: the fault mix is the only difference.
    let trace = TraceGenerator::new(
        ScenarioConfig::new(Scenario::PaperDelicious, users, seed).trace_config(),
    )
    .generate();
    let cfg = P3qConfig::laptop_scale().with_fault_tolerance(eager_cycles, 2);
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let queries: Vec<Query> = QueryGenerator::new(seed ^ 0x5EED)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(40)
        .collect();

    let axes = [
        ("faultless control", FaultConfig::none()),
        ("lossy-network", FaultConfig::lossy(0.05, seed)),
        ("crash-restart", FaultConfig::crash_restart(0.02, 2, seed)),
    ];

    let mut baseline_recall = None;
    for (label, faults) in axes {
        // Build, warm up with faulted lazy gossip, then process the query
        // workload with faulted eager gossip.
        let budgets = vec![4usize; trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, seed);
        init_ideal_networks(&mut sim, &ideal);

        let mut lazy_faults: FaultPlan<LazyStep> = FaultPlan::new(faults);
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(lazy_cycles).faulted(&mut lazy_faults),
            |_, _| {},
        );

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
            RunOptions::cycles(eager_cycles).faulted(&mut eager_faults),
            |_, _| {},
        );

        // Score the queries against the centralized reference. A querier
        // whose node crashed mid-run lost its query book: that query is
        // *lost*, which is exactly what `RecallUnderLoss` accounts for.
        let mut loss = RecallUnderLoss::default();
        for (i, query) in queries.iter().enumerate() {
            let reference = centralized_topk(&trace.dataset, &ideal, query, cfg.top_k);
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
                    loss.record_query(recall_at_k(&items, &reference), state.completion_latency());
                }
            }
        }

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
        println!("=== {label} ===");
        println!(
            "    faults: {} dropped, {} delayed, {} duplicated, {} crashes, {} restarts",
            stats.dropped, stats.delayed, stats.duplicated, stats.crashes, stats.restarts
        );
        println!(
            "    queries: recall {:.3}, {:.0}% completed, {} of {} lost{}",
            loss.average_recall(),
            loss.completion_rate() * 100.0,
            loss.lost_queries,
            loss.queries,
            match loss.average_latency_cycles() {
                Some(latency) => format!(", mean completion latency {latency:.1} cycles"),
                None => String::new(),
            }
        );
        println!(
            "    alive at the end: {} of {} nodes",
            sim.membership().alive_count(),
            sim.num_nodes()
        );
        match baseline_recall {
            None => {
                baseline_recall = Some(loss.average_recall());
                // The control run doubles as a determinism check: a
                // zero-fault plan must never record a single fault.
                assert_eq!(stats, FaultStats::default());
            }
            Some(base) => println!(
                "    degradation vs faultless control: {:.1}%",
                100.0 * (1.0 - loss.average_recall() / base)
            ),
        }
        println!();
    }
}
