//! Figure 3 — Average recall evolution for different values of α (c = 10).
//!
//! All tracked queries are issued simultaneously on ideal personal networks
//! with the smallest storage budget; the eager mode runs for `--cycles`
//! cycles and the average recall against the centralized reference is
//! reported per cycle, for α ∈ {0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin fig3_alpha -- --users 1000 --queries 200
//! ```

use p3q::prelude::*;
use p3q::storage::scale_bucket;
use p3q_bench::{fmt, print_table, run_recall_experiment, HarnessArgs, World};

fn main() {
    let args = HarnessArgs::parse(20);
    println!("=== Figure 3: average recall vs cycles for different α (c = 10) ===");
    let mut world = World::build(&args);
    let base_cfg = world.cfg.clone();
    let c = scale_bucket(10, base_cfg.personal_network_size);
    let queries = world.sample_queries(args.queries);
    println!(
        "users {}, tracked queries {}, c = 10/1000 of s → {} stored profiles",
        args.users,
        queries.len(),
        c
    );

    let alphas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let mut results = Vec::new();
    for &alpha in &alphas {
        // Only α differs; the trace, index and ideal networks are shared.
        world.cfg = base_cfg.clone().with_alpha(alpha);
        let budgets = vec![c; world.trace.dataset.num_users()];
        let mut sim =
            build_simulator_with_budgets(&world.trace.dataset, &world.cfg, &budgets, args.seed);
        init_ideal_networks(&mut sim, &world.ideal);
        let outcome = run_recall_experiment(&mut sim, &world, &queries, args.cycles);
        eprintln!(
            "  α={alpha:<4}: recall cycle0 {:.3} → final {:.3}",
            outcome.recall_per_cycle[0],
            outcome.recall_per_cycle.last().copied().unwrap_or(0.0)
        );
        results.push((alpha, outcome));
    }

    let header: Vec<String> = std::iter::once("cycle".to_string())
        .chain(alphas.iter().map(|a| format!("a={a}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> =
        (0..=args.cycles as usize)
            .map(|cycle| {
                std::iter::once(cycle.to_string())
                    .chain(results.iter().map(|(_, r)| {
                        fmt(r.recall_per_cycle[cycle.min(r.recall_per_cycle.len() - 1)])
                    }))
                    .collect()
            })
            .collect();
    println!();
    print_table(&header_refs, &rows);

    // The cycle at which each α first reaches 99% recall — the latency
    // ordering Theorem 2.2 predicts (minimum at α = 0.5).
    println!();
    let mut latency_rows = Vec::new();
    for (alpha, outcome) in &results {
        let cycle = outcome
            .recall_per_cycle
            .iter()
            .position(|&r| r >= 0.99)
            .map(|c| c.to_string())
            .unwrap_or_else(|| format!(">{}", args.cycles));
        latency_rows.push(vec![alpha.to_string(), cycle]);
    }
    print_table(&["alpha", "cycles to recall ≥ 0.99"], &latency_rows);
    println!();
    println!(
        "paper shape: α = 0.5 converges fastest; the closer α is to 0.5, the faster \
         the top-10 results approach the centralized reference (Theorem 2.2)."
    );
}
