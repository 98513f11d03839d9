//! Mobile vs. desktop populations: the paper's two heterogeneous storage
//! scenarios side by side.
//!
//! The Poisson(λ=1) scenario models a population dominated by storage-poor
//! devices (73% of users store only the smallest budgets), the Poisson(λ=4)
//! scenario a population of storage-rich desktops (Table 1). This example
//! builds both systems on the same trace and compares
//!
//! * the per-user storage requirement,
//! * how many users a query reaches and how long it takes to complete,
//! * the per-query bandwidth,
//!
//! reproducing the qualitative trade-off of Sections 3.3 and 3.4: richer
//! storage means fewer hops, fewer reached users and less traffic per query,
//! at the price of more local space and staler replicas.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example mobile_vs_desktop
//! ```

use p3q::prelude::*;
use p3q_sim::DistributionSummary;

struct ScenarioReport {
    label: String,
    storage: DistributionSummary,
    users_reached: DistributionSummary,
    completion_cycles: DistributionSummary,
    query_bytes: DistributionSummary,
    mean_recall: f64,
}

fn run_scenario(
    trace: &p3q_trace::SyntheticTrace,
    ideal: &IdealNetworks,
    cfg: &P3qConfig,
    storage: StorageDistribution,
    seed: u64,
    queries: &[Query],
) -> ScenarioReport {
    let mut sim = build_simulator(&trace.dataset, cfg, &storage, seed);
    init_ideal_networks(&mut sim, ideal);

    let storage_summary = DistributionSummary::of(
        &storage_requirements(&sim)
            .iter()
            .map(|&v| v as f64)
            .collect::<Vec<_>>(),
    );

    for (i, query) in queries.iter().enumerate() {
        issue_query(
            &mut sim,
            query.querier.index(),
            QueryId(i as u64),
            query.clone(),
            cfg,
        );
    }
    sim.drive(&cfg.eager(), RunOptions::until_complete(40), |_, _| {});

    let mut reached = Vec::new();
    let mut cycles = Vec::new();
    let mut bytes = Vec::new();
    let mut recalls = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        let reference = centralized_topk(&trace.dataset, ideal, query, cfg.top_k);
        let state = sim
            .node_mut(query.querier.index())
            .querier_states
            .get_mut(&QueryId(i as u64))
            .unwrap();
        reached.push(state.reached_users.len() as f64);
        if let Some(latency) = state.completion_latency() {
            cycles.push(latency as f64);
        }
        bytes.push(state.traffic.total_bytes() as f64);
        let items: Vec<ItemId> = state
            .nra
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        recalls.push(recall_at_k(&items, &reference));
    }

    ScenarioReport {
        label: storage.label(),
        storage: storage_summary,
        users_reached: DistributionSummary::of(&reached),
        completion_cycles: DistributionSummary::of(&cycles),
        query_bytes: DistributionSummary::of(&bytes),
        mean_recall: recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
    }
}

fn main() {
    let mut trace_cfg = TraceConfig::laptop_scale(13);
    trace_cfg.num_users = 400;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::laptop_scale();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
    let queries: Vec<Query> = QueryGenerator::new(5)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(60)
        .collect();

    println!("running the mobile-heavy population (Poisson λ=1)…");
    let mobile = run_scenario(
        &trace,
        &ideal,
        &cfg,
        StorageDistribution::poisson_lambda_1(),
        101,
        &queries,
    );
    println!("running the desktop-heavy population (Poisson λ=4)…");
    let desktop = run_scenario(
        &trace,
        &ideal,
        &cfg,
        StorageDistribution::poisson_lambda_4(),
        101,
        &queries,
    );

    println!();
    println!(
        "{:<28} {:>18} {:>18}",
        "metric", mobile.label, desktop.label
    );
    println!(
        "{:<28} {:>18.0} {:>18.0}",
        "stored actions per user (mean)", mobile.storage.mean, desktop.storage.mean
    );
    println!(
        "{:<28} {:>18.1} {:>18.1}",
        "users reached per query (mean)", mobile.users_reached.mean, desktop.users_reached.mean
    );
    println!(
        "{:<28} {:>18.1} {:>18.1}",
        "cycles to complete (mean)", mobile.completion_cycles.mean, desktop.completion_cycles.mean
    );
    println!(
        "{:<28} {:>18.0} {:>18.0}",
        "bytes per query (mean)", mobile.query_bytes.mean, desktop.query_bytes.mean
    );
    println!(
        "{:<28} {:>18.2} {:>18.2}",
        "final recall (mean)", mobile.mean_recall, desktop.mean_recall
    );
    println!();
    println!(
        "storage-rich users resolve more of a query locally: fewer users are reached, \
         completion is faster and less data moves — the trade-off quantified in \
         Sections 3.3–3.4 of the paper."
    );
}
