//! The paper's evaluation (Section 3), one figure per `--figure NAME`:
//! Tables 1–2, Figures 2–11, the Section 3.5 bandwidth summary and the
//! analytical model of Theorems 2.1–2.4.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin paper_figures -- --figure fig2_convergence --users 1000
//! cargo run --release -p p3q-bench --bin paper_figures -- --help
//! ```
//!
//! `--help` lists the figures with their default `--cycles`;
//! `ci/figure_answers.sh` pins every figure's stdout at smoke size.

use std::collections::{BTreeSet, HashSet};

use p3q::analysis::{
    cycles_to_completion, max_partial_results, max_users_involved, simulate_recurrence,
};
use p3q::bandwidth::{
    bits_per_second, category, EAGER_CYCLE_SECONDS, LAZY_CYCLE_SECONDS, TAGGING_ACTION_BYTES,
};
use p3q::metrics::update_counts;
use p3q::prelude::*;
use p3q::storage::{scale_bucket, PAPER_STORAGE_BUCKETS};
use p3q_bench::{
    fmt, issue_queries, print_table, query_state, run_recall_experiment, Figure, HarnessArgs,
    RecallExperiment, World,
};
use p3q_sim::{DistributionSummary, SeriesRecorder};
use p3q_trace::ChangeBatch;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    Figure { name: "fig2_convergence",            default_cycles: 100, run: fig2_convergence },
    Figure { name: "fig3_alpha",                  default_cycles: 20,  run: fig3_alpha },
    Figure { name: "fig4_storage_recall",         default_cycles: 10,  run: fig4_storage_recall },
    Figure { name: "fig5_space",                  default_cycles: 0,   run: fig5_space },
    Figure { name: "fig6_query_bandwidth",        default_cycles: 40,  run: fig6_query_bandwidth },
    Figure { name: "fig7_aur_lazy",               default_cycles: 60,  run: fig7_aur_lazy },
    Figure { name: "fig8_users_reached",          default_cycles: 40,  run: fig8_users_reached },
    Figure { name: "fig9_aur_eager",              default_cycles: 20,  run: fig9_aur_eager },
    Figure { name: "fig10_network_evolution",     default_cycles: 100, run: fig10_network_evolution },
    Figure { name: "fig11_churn",                 default_cycles: 10,  run: fig11_churn },
    Figure { name: "table1_storage_distribution", default_cycles: 0,   run: table1_storage_distribution },
    Figure { name: "table2_profile_changes",      default_cycles: 0,   run: table2_profile_changes },
    Figure { name: "summary_bandwidth",           default_cycles: 20,  run: summary_bandwidth },
    Figure { name: "theory_validation",           default_cycles: 40,  run: theory_validation },
];

fn main() {
    let (figure, args) = HarnessArgs::parse_figure(FIGURES);
    (figure.run)(&args);
}

/// Figure 2 — Convergence speed of the personal-network construction.
///
/// Every user starts with an empty personal network and a bootstrapped random
/// view; the lazy mode runs for `--cycles` cycles and the average success
/// ratio against the ideal personal networks is sampled periodically, for
/// each uniform storage scenario `c ∈ {10, 20, 50, 100, 200, 500, 1000}`
/// (scaled to the configured personal-network size).
///
/// ```text
/// paper_figures --figure fig2_convergence --users 1000 --cycles 100
/// ```
fn fig2_convergence(args: &HarnessArgs) {
    println!("=== Figure 2: personal-network convergence (average success ratio) ===");
    println!(
        "users {}, cycles {}, s {}, seed {}",
        args.users,
        args.cycles,
        args.protocol_config().personal_network_size,
        args.seed
    );
    let world = World::build(args);
    let cfg = &world.cfg;

    let mut recorder = SeriesRecorder::new();
    for &bucket in &PAPER_STORAGE_BUCKETS {
        let c = scale_bucket(bucket, cfg.personal_network_size);
        let series = format!("c={bucket}");
        let storage = StorageDistribution::Uniform(bucket);
        let mut sim = build_simulator(&world.trace.dataset, cfg, &storage, args.seed);
        let mut rng = StdRng::seed_from_u64(args.seed ^ bucket as u64);
        bootstrap_random_views(&mut sim, cfg, &mut rng);
        sample_lazy(
            &mut sim,
            cfg,
            args.cycles,
            &mut recorder,
            &series,
            |nodes| average_success_ratio(nodes, &world.ideal),
        );
        eprintln!(
            "  c={bucket:<5} ({c:>4} profiles stored): final success ratio {:.3}",
            recorder.last(&series).unwrap_or(0.0)
        );
    }

    print_series(&recorder);
    println!("csv:");
    print!("{}", recorder.to_csv());
    println!();
    println!(
        "paper shape: the more profiles are stored, the faster the personal networks \
         converge; with c=10 roughly 68% of the neighbours are found by cycle 200, \
         with large c more than 90% are found within 50 cycles."
    );
}

/// Figure 3 — Average recall evolution for different values of α (c = 10).
///
/// All tracked queries are issued simultaneously on ideal personal networks
/// with the smallest storage budget; the eager mode runs for `--cycles`
/// cycles and the average recall against the centralized reference is
/// reported per cycle, for α ∈ {0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}.
///
/// ```text
/// paper_figures --figure fig3_alpha --users 1000 --queries 200
/// ```
fn fig3_alpha(args: &HarnessArgs) {
    println!("=== Figure 3: average recall vs cycles for different α (c = 10) ===");
    let mut world = World::build(args);
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
    let no_events = &mut EventQueue::new();
    for &alpha in &alphas {
        // Only α differs; the trace, index and ideal networks are shared.
        world.cfg = base_cfg.clone().with_alpha(alpha);
        let mut sim = world.simulator(&StorageDistribution::Uniform(10), args.seed);
        let outcome = run_recall_experiment(&mut sim, &world, &queries, args.cycles, no_events);
        eprintln!(
            "  α={alpha:<4}: recall cycle0 {:.3} → final {:.3}",
            outcome.recall_per_cycle[0],
            outcome.recall_per_cycle.last().copied().unwrap_or(0.0)
        );
        results.push((alpha, outcome));
    }

    println!();
    print_recall_table(
        results.iter().map(|(alpha, r)| (format!("a={alpha}"), r)),
        args.cycles,
    );

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

/// Figure 4 — Average recall evolution for different storage budgets
/// (α = 0.5).
///
/// Same workload as Figure 3, but α is fixed at its optimum and the uniform
/// storage budget varies over the paper's buckets {10, 20, 50, 100, 200,
/// 500}.
///
/// ```text
/// paper_figures --figure fig4_storage_recall --users 1000
/// ```
fn fig4_storage_recall(args: &HarnessArgs) {
    println!("=== Figure 4: average recall vs cycles for different c (α = 0.5) ===");
    let world = World::build(args);
    let queries = world.sample_queries(args.queries);
    println!(
        "users {}, tracked queries {}, s {}",
        args.users,
        queries.len(),
        world.cfg.personal_network_size
    );

    let buckets = [10usize, 20, 50, 100, 200, 500];
    let mut results = Vec::new();
    let no_events = &mut EventQueue::new();
    for &bucket in &buckets {
        let mut sim = world.simulator(&StorageDistribution::Uniform(bucket), args.seed);
        let outcome = run_recall_experiment(&mut sim, &world, &queries, args.cycles, no_events);
        eprintln!(
            "  c={bucket:<4}: recall cycle0 {:.3} → final {:.3} (users reached/query {:.1})",
            outcome.recall_per_cycle[0],
            outcome.recall_per_cycle.last().copied().unwrap_or(0.0),
            outcome.mean_users_reached
        );
        results.push((bucket, outcome));
    }

    println!();
    print_recall_table(
        results.iter().map(|(bucket, r)| (format!("c={bucket}"), r)),
        args.cycles,
    );

    println!();
    println!(
        "paper shape: with only 10 stored profiles more than 4 of the 10 relevant items \
         are returned before any gossip; every scenario reaches recall 1 by cycle 10, \
         and the first cycle brings the largest improvement."
    );
}

/// Figure 5 — Per-user storage requirement for different storage budgets.
///
/// For every uniform scenario `c ∈ {10, …, 1000}` the personal networks are
/// initialised to their ideal content and the total length (in tagging
/// actions) of the profiles each user stores is measured; the figure reports
/// the per-user distribution and the fraction of the space a full
/// personal-network replication would need.
///
/// ```text
/// paper_figures --figure fig5_space --users 1000
/// ```
fn fig5_space(args: &HarnessArgs) {
    println!("=== Figure 5: per-user storage requirement (profile lengths stored) ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    println!("users {}, s {}", args.users, cfg.personal_network_size);
    println!();

    let mut rows = Vec::new();
    let mut full_reference: Option<f64> = None;
    for &bucket in &PAPER_STORAGE_BUCKETS {
        let c = scale_bucket(bucket, cfg.personal_network_size);
        let sim = world.simulator(&StorageDistribution::Uniform(bucket), args.seed);

        let per_user: Vec<f64> = storage_requirements(&sim)
            .iter()
            .map(|&v| v as f64)
            .collect();
        let full: Vec<f64> = full_network_requirements(&sim, &world.trace.dataset)
            .iter()
            .map(|&v| v as f64)
            .collect();
        let summary = DistributionSummary::of(&per_user);
        let total: f64 = per_user.iter().sum();
        let full_total: f64 = full.iter().sum();
        if bucket == 1000 {
            full_reference = Some(total);
        }
        rows.push(vec![
            bucket.to_string(),
            c.to_string(),
            fmt(summary.mean),
            fmt(summary.median),
            fmt(summary.max),
            fmt(summary.mean * TAGGING_ACTION_BYTES as f64 / 1024.0),
            fmt(total * 100.0 / full_total.max(1.0)),
        ]);
    }
    print_table(
        &[
            "c (paper)",
            "profiles stored",
            "mean actions",
            "median",
            "max",
            "mean KiB",
            "% of full network",
        ],
        &rows,
    );

    if let Some(reference) = full_reference {
        println!();
        println!(
            "storing every profile of the personal network would take {:.1} MiB across all \
             users ({} bytes/action).",
            reference * TAGGING_ACTION_BYTES as f64 / (1024.0 * 1024.0),
            TAGGING_ACTION_BYTES
        );
    }
    println!();
    println!(
        "paper shape: storage grows with c but strongly sub-linearly at the small end \
         (10 profiles ≈ 6.8% of the full personal network, 500 profiles ≈ 73.6%); users \
         without enough similar neighbours stay cheap regardless of their budget."
    );
}

/// Figure 6 — Bandwidth consumed to answer a query, split into partial
/// result lists, returned remaining lists and forwarded remaining lists
/// (Poisson λ=1 storage; λ=4 is reported for comparison as in the running
/// text of Section 3.3.2).
///
/// ```text
/// paper_figures --figure fig6_query_bandwidth --users 1000 --queries 100
/// ```
fn fig6_query_bandwidth(args: &HarnessArgs) {
    println!("=== Figure 6: per-query bandwidth breakdown ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    let queries = world.sample_queries(args.queries);
    println!("users {}, tracked queries {}", args.users, queries.len());

    let mut outcomes = Vec::new();
    for storage in [
        StorageDistribution::poisson_lambda_1(),
        StorageDistribution::poisson_lambda_4(),
    ] {
        eprintln!("  running {} …", storage.label());
        let mut sim = world.simulator(&storage, args.seed);
        issue_queries(&mut sim, &queries, cfg);
        sim.drive(
            &cfg.eager(),
            RunOptions::until_complete(args.cycles),
            |_, _| {},
        );
        // (partial, returned, forwarded) bytes, and partial-result messages.
        let mut per_query = Vec::new();
        let mut messages = Vec::new();
        for i in 0..queries.len() {
            let traffic = &query_state(&mut sim, &queries, i).traffic;
            per_query.push((
                traffic.partial_results,
                traffic.returned_remaining,
                traffic.forwarded_remaining,
            ));
            messages.push(traffic.partial_result_messages as f64);
        }
        outcomes.push((storage.label(), per_query, messages));
    }

    for (label, per_query, messages) in &outcomes {
        println!();
        println!("--- {label} ---");
        let column = |pick: fn(&(u64, u64, u64)) -> u64| -> Vec<f64> {
            per_query.iter().map(|t| pick(t) as f64).collect()
        };
        let categories = [
            ("partial result lists", column(|t| t.0)),
            ("returned remaining lists", column(|t| t.1)),
            ("forwarded remaining lists", column(|t| t.2)),
            ("total", column(|t| t.0 + t.1 + t.2)),
        ];
        let rows: Vec<Vec<String>> = categories
            .iter()
            .map(|(name, values)| {
                let summary = DistributionSummary::of(values);
                vec![name.to_string(), fmt(summary.mean), fmt(summary.max)]
            })
            .collect();
        print_table(&["category (bytes/query)", "mean", "max"], &rows);
        println!(
            "partial-result messages per query: {}",
            DistributionSummary::of(messages)
        );

        // The per-query profile of Figure 6: queries ranked by the volume of
        // partial result lists (the dominating component), first 20 shown.
        let mut ranked = per_query.clone();
        ranked.sort_by_key(|t| t.0);
        println!("per-query sample (ranked by partial-result bytes):");
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .enumerate()
            .step_by((ranked.len() / 20).max(1))
            .map(|(rank, t)| {
                vec![
                    rank.to_string(),
                    t.0.to_string(),
                    t.1.to_string(),
                    t.2.to_string(),
                ]
            })
            .collect();
        print_table(&["query rank", "partial", "returned", "forwarded"], &rows);
    }

    println!();
    println!(
        "paper shape: partial result lists dominate the per-query traffic; the λ=4 system \
         moves less data per query than λ=1 (storage-rich users resolve several profiles \
         in one hop) and needs far fewer partial-result messages (paper: 228 vs 70)."
    );
}

/// Figure 7 — Average update rate (AUR) under the lazy mode after a batch of
/// simultaneous profile changes: (a) uniform storage budgets, (b) the two
/// Poisson scenarios.
///
/// ```text
/// paper_figures --figure fig7_aur_lazy --users 1000 --cycles 60
/// ```
fn fig7_aur_lazy(args: &HarnessArgs) {
    println!("=== Figure 7: average update rate in lazy mode ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    println!("users {}, cycles {}", args.users, args.cycles);

    // One day of profile changes, applied simultaneously.
    let batch = world.paper_day(args.seed);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    // (a) uniform budgets, then (b) heterogeneous budgets.
    let scenarios = PAPER_STORAGE_BUCKETS
        .iter()
        .map(|&bucket| (format!("c={bucket}"), StorageDistribution::Uniform(bucket)))
        .chain([
            (
                "poisson λ=1".into(),
                StorageDistribution::poisson_lambda_1(),
            ),
            (
                "poisson λ=4".into(),
                StorageDistribution::poisson_lambda_4(),
            ),
        ]);
    let mut recorder = SeriesRecorder::new();
    for (label, storage) in scenarios {
        let mut sim = world.simulator(&storage, args.seed);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF167);
        bootstrap_random_views(&mut sim, cfg, &mut rng);
        apply_profile_changes(&mut sim, &batch);
        let versions = profile_versions(&sim);
        sample_lazy(&mut sim, cfg, args.cycles, &mut recorder, &label, |nodes| {
            average_update_rate(nodes, &changed, &versions)
        });
        eprintln!(
            "  {label}: AUR {:.3} → {:.3}",
            recorder.get(&label, 0).unwrap_or(0.0),
            recorder.last(&label).unwrap_or(0.0)
        );
    }

    print_series(&recorder);
    println!("csv:");
    print!("{}", recorder.to_csv());
    println!();
    println!(
        "paper shape: small storage budgets stay fresh (c=10/20 exceed 95% AUR within ~30 \
         cycles) while large budgets lag far behind (c=500/1000 around 40% after 100 \
         cycles); the λ=1 population therefore refreshes faster than λ=4."
    );
}

/// Figure 8 — Number of users reached by a query, for the two heterogeneous
/// storage scenarios.
///
/// ```text
/// paper_figures --figure fig8_users_reached --users 1000 --queries 200
/// ```
fn fig8_users_reached(args: &HarnessArgs) {
    println!("=== Figure 8: number of users reached by a query ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    let queries = world.sample_queries(args.queries);
    println!("users {}, tracked queries {}", args.users, queries.len());

    let mut rows = Vec::new();
    // Users reached per query, one vector per scenario, descending.
    let mut sorted = Vec::new();
    for storage in [
        StorageDistribution::poisson_lambda_1(),
        StorageDistribution::poisson_lambda_4(),
    ] {
        eprintln!("  running {} …", storage.label());
        let mut sim = world.simulator(&storage, args.seed);
        issue_queries(&mut sim, &queries, cfg);
        sim.drive(
            &cfg.eager(),
            RunOptions::until_complete(args.cycles),
            |_, _| {},
        );
        let mut reached: Vec<f64> = (0..queries.len())
            .map(|i| query_state(&mut sim, &queries, i).reached_users.len() as f64)
            .collect();
        let summary = DistributionSummary::of(&reached);
        rows.push(vec![
            storage.label(),
            fmt(summary.mean),
            fmt(summary.median),
            fmt(summary.p90),
            fmt(summary.max),
        ]);
        reached.sort_by(|a, b| b.partial_cmp(a).unwrap());
        sorted.push(reached);
    }
    print_table(&["scenario", "mean", "median", "p90", "max"], &rows);

    println!();
    println!("per-query profile (ranked by users reached, descending):");
    let len = queries.len();
    let rows: Vec<Vec<String>> = (0..len)
        .step_by((len / 20).max(1))
        .map(|rank| vec![rank.to_string(), fmt(sorted[0][rank]), fmt(sorted[1][rank])])
        .collect();
    print_table(&["rank", "λ=1", "λ=4"], &rows);

    println!();
    println!(
        "paper shape: queries reach far fewer users when storage is plentiful (paper: 256 \
         users on average for λ=1 vs 75 for λ=4), because each reached user resolves more \
         of the remaining list at once."
    );
}

/// Figure 9 — Freshness effect of the eager mode: AUR over the users reached
/// by a burst of consecutive queries issued before the next lazy cycle.
///
/// ```text
/// paper_figures --figure fig9_aur_eager --users 1000 --queries 200
/// ```
fn fig9_aur_eager(args: &HarnessArgs) {
    println!("=== Figure 9: AUR of the users reached by consecutive queries (eager mode) ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    println!("users {}, consecutive queries {}", args.users, args.queries);

    // The λ=1 population (small storage) is the scenario where the paper
    // observes the strongest acceleration.
    let mut sim = world.simulator(&StorageDistribution::poisson_lambda_1(), args.seed);

    // Every user changes their profile; no lazy cycle will run, so only the
    // eager-mode piggybacked maintenance can propagate the changes.
    let batch =
        DynamicsGenerator::new(DynamicsConfig::all_users(args.seed ^ 0xA11)).generate(&world.trace);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    apply_profile_changes(&mut sim, &batch);
    let versions = profile_versions(&sim);

    // A single user issues consecutive queries; after each one we measure the
    // AUR restricted to the users reached so far.
    let querier = world.queries[0].querier;
    let burst = QueryGenerator::new(args.seed ^ 0xB1).burst_for_user(
        &world.trace.dataset,
        querier,
        args.queries,
    );
    // Ordered by user id: the order of the AUR's floating-point sum must not
    // depend on a hash seed.
    let mut reached_so_far: BTreeSet<UserId> = BTreeSet::new();
    let mut rows = Vec::new();
    let sample_every = (args.queries / 20).max(1);
    for (i, query) in burst.into_iter().enumerate() {
        let qid = QueryId(i as u64);
        issue_query(&mut sim, querier.index(), qid, query, cfg);
        sim.drive(&cfg.eager(), RunOptions::until_complete(30), |_, _| {});
        let state = querier_state(&sim, querier.index(), qid).expect("query state exists");
        reached_so_far.extend(state.reached_users.iter().copied());
        if (i + 1) % sample_every == 0 || i == 0 {
            let reached_nodes: Vec<&P3qNode> =
                reached_so_far.iter().map(|u| sim.node(u.index())).collect();
            let aur = average_update_rate(reached_nodes, &changed, &versions);
            rows.push(vec![
                (i + 1).to_string(),
                reached_so_far.len().to_string(),
                fmt(aur),
            ]);
        }
    }
    print_table(
        &[
            "queries issued",
            "distinct users reached",
            "AUR over reached users",
        ],
        &rows,
    );

    // Reference: AUR over the whole population (no lazy gossip ran, so only
    // reached users were refreshed).
    let global_aur = average_update_rate(sim.nodes(), &changed, &versions);
    println!();
    println!(
        "AUR over the whole population (no lazy cycle ran): {}",
        fmt(global_aur)
    );
    println!();
    println!(
        "paper shape: a single query already refreshes a noticeable share of the reached \
         users' stored profiles (~24% in the paper) and ten consecutive queries push the \
         reached users above 60%, while users never reached by a query stay stale until \
         the next lazy cycle."
    );
}

/// Figure 10 — Personal-network evolution under the lazy mode: the fraction
/// of users (among those whose ideal network changed) that have discovered
/// *all* of their new ideal neighbours, per lazy cycle.
///
/// ```text
/// paper_figures --figure fig10_network_evolution --users 1000 --cycles 100
/// ```
fn fig10_network_evolution(args: &HarnessArgs) {
    /// Everything this figure does on the cycle axis, as scheduled events:
    /// the day of profile changes lands at cycle 0, and the refresh ratio is
    /// sampled at fixed cycles — no hand-rolled "if cycle % n == 0" logic in
    /// the run loop.
    enum Fig10Event<'a> {
        ApplyChanges(&'a ChangeBatch),
        Sample,
    }

    println!("=== Figure 10: discovery of new ideal neighbours in lazy mode ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    println!("users {}, cycles {}", args.users, args.cycles);

    // A day of profile changes shifts some users' ideal networks. The new
    // ideal state is derived incrementally: patch the action index with the
    // batch's deltas and re-score only the affected users, instead of
    // recomputing every personal network from scratch.
    let batch = world.paper_day(args.seed);
    let (new_ideal, dirty) = world.incremental_ideal_after(&batch);
    println!(
        "incremental ideal-network refresh: {} of {} users re-scored",
        dirty.len(),
        args.users
    );

    // How many users does the change actually affect?
    let affected = world
        .trace
        .dataset
        .users()
        .filter(|&u| {
            let old: HashSet<UserId> = world.ideal.neighbours_of(u).into_iter().collect();
            new_ideal.neighbours_of(u).iter().any(|n| !old.contains(n))
        })
        .count();
    println!(
        "{} changing users cause {} users to need new personal-network neighbours",
        batch.len(),
        affected
    );

    let mut recorder = SeriesRecorder::new();
    for storage in [
        StorageDistribution::poisson_lambda_1(),
        StorageDistribution::poisson_lambda_4(),
    ] {
        let label = storage.label();
        // Personal networks start at the *old* ideal state (converged before
        // the changes happen).
        let mut sim = world.simulator(&storage, args.seed);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x10_10);
        bootstrap_random_views(&mut sim, cfg, &mut rng);

        let sample_every = (args.cycles / 20).max(1);
        let mut events = EventQueue::new();
        // The change batch fires before the first cycle; the cycle-0 sample
        // is scheduled after it (FIFO within a cycle), so it sees the
        // post-change, pre-gossip state, exactly like the paper's
        // measurement.
        events.schedule(0, Fig10Event::ApplyChanges(&batch));
        for cycle in (0..=args.cycles).step_by(sample_every as usize) {
            events.schedule(cycle, Fig10Event::Sample);
        }
        if !args.cycles.is_multiple_of(sample_every) {
            events.schedule(args.cycles, Fig10Event::Sample);
        }
        sim.drive(
            &cfg.lazy(),
            RunOptions::cycles(args.cycles).events(&mut events),
            |sim, event| match event {
                RunEvent::Scheduled(Fig10Event::ApplyChanges(batch)) => {
                    apply_profile_changes(sim, batch);
                }
                RunEvent::Scheduled(Fig10Event::Sample) => recorder.record(
                    &label,
                    sim.cycle(),
                    network_refresh_ratio(sim.nodes(), &world.ideal, &new_ideal) * 100.0,
                ),
                RunEvent::CycleEnd(_) => {}
            },
        );
        eprintln!(
            "  {label}: {:.1}% of affected users fully refreshed after {} cycles",
            recorder.last(&label).unwrap_or(0.0),
            args.cycles
        );
    }

    print_series(&recorder);
    println!(
        "paper shape: the metric is strict (a user only counts once her network is fully \
         refreshed) yet about half of the affected users are done after 30 cycles and \
         ~80% after 100 cycles, with λ=1 and λ=4 behaving similarly."
    );
}

/// Figure 11 — Impact of massive simultaneous departures on the top-k
/// quality: recall per cycle for p ∈ {0, 10, 30, 50, 70, 90}% departed users
/// under the two heterogeneous storage scenarios, and the fraction of queries
/// that can never reach recall 1 (Figure 11(c)).
///
/// ```text
/// paper_figures --figure fig11_churn --users 1000 --queries 150
/// ```
fn fig11_churn(args: &HarnessArgs) {
    println!("=== Figure 11: impact of user departures on top-k processing ===");
    let world = World::build(args);
    println!(
        "users {}, tracked queries {}, eager cycles {}",
        args.users, args.queries, args.cycles
    );

    let departure_fractions = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9];
    let no_events = &mut EventQueue::new();
    let mut incomplete_rows = Vec::new();
    for storage in [
        StorageDistribution::poisson_lambda_1(),
        StorageDistribution::poisson_lambda_4(),
    ] {
        println!();
        println!("--- {} ---", storage.label());
        let mut per_p = Vec::new();
        for &p in &departure_fractions {
            let mut sim = world.simulator(&storage, args.seed);
            // The paper's departures happen at cycle 0, before queries are
            // issued: survivors query survivors.
            if p > 0.0 {
                sim.mass_departure(p);
            }
            let queries: Vec<Query> = world
                .sample_queries(args.queries)
                .into_iter()
                .filter(|q| sim.is_alive(q.querier.index()))
                .collect();

            // How much ideal-network quality did the departures destroy?
            // Strip the departed users from a clone of the index, evict
            // every network that could mention them from a fully cached
            // resolver (the incremental churn path), then count the
            // queriers whose re-resolved ideal network differs.
            let departed: Vec<UserId> = (0..sim.num_nodes())
                .filter(|&i| !sim.is_alive(i))
                .map(UserId::from_index)
                .collect();
            let damaged_queriers = if departed.is_empty() {
                0
            } else {
                let mut survivors_dataset = world.trace.dataset.clone();
                let old_profiles: Vec<(UserId, Profile)> = departed
                    .iter()
                    .map(|&u| (u, survivors_dataset.profile(u).clone()))
                    .collect();
                for &u in &departed {
                    *survivors_dataset.profile_mut(u) = Profile::new();
                }
                let mut index = world.index.clone();
                let mut survivors = OnDemandNetworks::from(world.ideal.clone());
                survivors.apply_departures(&mut index, old_profiles.iter().map(|(u, p)| (*u, p)));
                queries
                    .iter()
                    .filter(|q| {
                        survivors.resolve(&survivors_dataset, &index, q.querier)
                            != world.ideal.network_of(q.querier)
                    })
                    .count()
            };

            let outcome = run_recall_experiment(&mut sim, &world, &queries, args.cycles, no_events);
            eprintln!(
                "  p={:>3.0}%: recall cycle0 {:.3} → final {:.3}, {:.1}% of queries incomplete, \
                 {}/{} queriers lost ideal neighbours",
                p * 100.0,
                outcome.recall_per_cycle[0],
                outcome.recall_per_cycle.last().copied().unwrap_or(0.0),
                outcome.incomplete_fraction * 100.0,
                damaged_queriers,
                queries.len()
            );
            per_p.push((p, outcome, queries.len()));
        }

        // (a)/(b): recall per cycle, one column per departure fraction.
        print_recall_table(
            per_p
                .iter()
                .map(|(p, outcome, _)| (format!("p={:.0}%", p * 100.0), outcome)),
            args.cycles,
        );

        // (c): queries unable to reach recall 1 (their personal network can
        // no longer be fully covered).
        for (p, outcome, tracked) in &per_p {
            incomplete_rows.push(vec![
                storage.label(),
                format!("{:.0}", p * 100.0),
                tracked.to_string(),
                fmt(outcome.incomplete_fraction * 100.0),
            ]);
        }
    }

    println!();
    println!("--- Figure 11(c): queries unable to cover their personal network ---");
    print_table(
        &["scenario", "% departed", "tracked queries", "% incomplete"],
        &incomplete_rows,
    );
    println!();
    println!(
        "paper shape: recall degrades gracefully (50% departures cost ≈10% of quality), the \
         λ=4 population is more robust thanks to more replicas, and the share of queries \
         that can never reach recall 1 grows with the departure fraction (≤5% at 50% \
         departures for λ=4)."
    );
}

/// Table 1 — Distribution of the storage budget `c` under the two
/// heterogeneous scenarios (Poisson λ=1 and λ=4).
///
/// Prints the analytical bucket probabilities (which must match the
/// percentages of Table 1) and an empirical sample over the simulated
/// population.
///
/// ```text
/// paper_figures --figure table1_storage_distribution
/// ```
fn table1_storage_distribution(args: &HarnessArgs) {
    println!("=== Table 1: distribution of c (personal-network profiles stored) ===");
    println!("population: {} users, seed {}", args.users, args.seed);
    println!();

    let scenarios = [
        ("λ=1", StorageDistribution::poisson_lambda_1()),
        ("λ=4", StorageDistribution::poisson_lambda_4()),
    ];

    let header: Vec<String> = std::iter::once("c".to_string())
        .chain(PAPER_STORAGE_BUCKETS.iter().map(|b| b.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for (label, dist) in &scenarios {
        // Analytical probabilities (the numbers printed in the paper).
        let probs = dist.bucket_probabilities();
        let mut row = vec![format!("{label} (analytic %)")];
        row.extend(probs.iter().map(|p| fmt(p * 100.0)));
        rows.push(row);

        // Empirical sample over the requested population size.
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut counts = [0usize; 7];
        for _ in 0..args.users {
            let c = dist.sample(&mut rng);
            let idx = PAPER_STORAGE_BUCKETS.iter().position(|&b| b == c).unwrap();
            counts[idx] += 1;
        }
        let mut row = vec![format!("{label} (sampled %)")];
        row.extend(
            counts
                .iter()
                .map(|&c| fmt(c as f64 * 100.0 / args.users as f64)),
        );
        rows.push(row);
    }
    print_table(&header_refs, &rows);

    println!();
    println!("paper Table 1 reference:");
    println!("  λ=1: 36.79 36.79 18.39  6.13  1.53  0.31  0.06");
    println!("  λ=4:  2.06  8.25 16.49 21.99 21.99 17.59 11.73");
}

/// Table 2 — Influence of one day of profile changes for each uniform
/// storage budget: the fraction of users that have at least one stored
/// profile to refresh and the average / maximum number of stored profiles to
/// refresh.
///
/// ```text
/// paper_figures --figure table2_profile_changes --users 1000
/// ```
fn table2_profile_changes(args: &HarnessArgs) {
    println!("=== Table 2: influence of one day of profile changes ===");
    let world = World::build(args);
    let cfg = &world.cfg;

    let batch = world.paper_day(args.seed);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    println!(
        "users {}, changing users {} ({:.1}%), avg new actions {:.1}, max {}",
        args.users,
        batch.len(),
        batch.len() as f64 * 100.0 / args.users as f64,
        batch.mean_new_actions(),
        batch.max_new_actions()
    );

    // How far do the ideal networks themselves shift under the day's
    // changes? Derived incrementally: patch the action index with the
    // batch and re-score only the affected users.
    let (new_ideal, dirty) = world.incremental_ideal_after(&batch);
    let shifted = world
        .trace
        .dataset
        .users()
        .filter(|&u| new_ideal.network_of(u) != world.ideal.network_of(u))
        .count();
    println!(
        "ideal networks: {} users re-scored incrementally, {} networks shift ({:.1}%)",
        dirty.len(),
        shifted,
        shifted as f64 * 100.0 / args.users as f64
    );
    println!();

    let mut rows = Vec::new();
    for &bucket in &PAPER_STORAGE_BUCKETS {
        let c = scale_bucket(bucket, cfg.personal_network_size);
        let mut sim = world.simulator(&StorageDistribution::Uniform(bucket), args.seed);
        // The table measures the stale copies right after the changes,
        // before any gossip can refresh them: the owners' profiles grow and
        // their versions bump; the cached copies in other users' personal
        // networks become stale.
        apply_profile_changes(&mut sim, &batch);
        let versions = profile_versions(&sim);

        let mut users_affected = 0usize;
        let mut to_update = Vec::new();
        for node in sim.nodes() {
            let counts = update_counts(node, &changed, &versions);
            if counts.owing_update > 0 {
                users_affected += 1;
                to_update.push(counts.owing_update as f64);
            }
        }
        let avg = to_update.iter().sum::<f64>() / to_update.len().max(1) as f64;
        let max = to_update.iter().cloned().fold(0.0f64, f64::max);
        rows.push(vec![
            bucket.to_string(),
            c.to_string(),
            fmt(users_affected as f64 * 100.0 / args.users as f64),
            fmt(avg),
            fmt(max),
        ]);
    }
    print_table(
        &[
            "c (paper)",
            "profiles stored",
            "% users having to update",
            "avg profiles to update",
            "max profiles to update",
        ],
        &rows,
    );

    println!();
    println!(
        "paper shape (Table 2): the share of affected users saturates around 88% once c is \
         large enough, while the number of stale copies to refresh grows with c (4 on \
         average at c=10, 105 at c=1000)."
    );
}

/// Section 3.5 summary — bandwidth figures in bits per second.
///
/// The paper concludes that, with one lazy cycle per minute and one eager
/// cycle every 5 seconds, maintaining the personal network costs about
/// 13.4 Kbps of background traffic, answering a query costs about 91 Kbps at
/// the querier and eager gossip can push a participant to about 121 Kbps.
/// This figure measures the same three quantities on the simulated system.
///
/// ```text
/// paper_figures --figure summary_bandwidth --users 1000 --queries 100
/// ```
fn summary_bandwidth(args: &HarnessArgs) {
    println!("=== Section 3.5 summary: bandwidth in bits per second ===");
    let world = World::build(args);
    let cfg = &world.cfg;
    println!(
        "users {}, lazy cycle {LAZY_CYCLE_SECONDS} s, eager cycle {EAGER_CYCLE_SECONDS} s",
        args.users
    );

    // ---------------------------------------------------------------- lazy
    let mut sim = world.simulator(&StorageDistribution::poisson_lambda_1(), args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x35);
    bootstrap_random_views(&mut sim, cfg, &mut rng);
    sim.drive(&cfg.lazy(), RunOptions::cycles(args.cycles), |_, _| {});
    let lazy_cycles = args.cycles;
    let per_node_lazy: Vec<f64> = (0..sim.num_nodes())
        .map(|idx| {
            bits_per_second(
                sim.bandwidth.node_total_bytes(idx),
                lazy_cycles,
                LAZY_CYCLE_SECONDS,
            )
        })
        .collect();
    let lazy_summary = DistributionSummary::of(&per_node_lazy);

    // ---------------------------------------------------------------- eager
    let queries = world.sample_queries(args.queries);
    let eager_bandwidth_before = sim.bandwidth.totals().0;
    let cycle_before = sim.cycle();
    issue_queries(&mut sim, &queries, cfg);
    sim.drive(&cfg.eager(), RunOptions::until_complete(40), |_, _| {});
    let eager_cycles = sim.cycle() - cycle_before;
    let eager_bytes = sim.bandwidth.totals().0 - eager_bandwidth_before;

    // Per-query figure: bytes billed to a query divided by the time it took.
    let mut per_query_bps = Vec::new();
    for i in 0..queries.len() {
        let state = query_state(&mut sim, &queries, i);
        let cycles = state.completion_latency().unwrap_or(eager_cycles).max(1);
        per_query_bps.push(bits_per_second(
            state.traffic.total_bytes(),
            cycles,
            EAGER_CYCLE_SECONDS,
        ));
    }
    let query_summary = DistributionSummary::of(&per_query_bps);

    // Peak per-participant eager traffic (maintenance included).
    let per_node_eager: Vec<f64> = (0..sim.num_nodes())
        .map(|idx| {
            let maintenance = sim.bandwidth.node_bytes(idx, category::EAGER_MAINTENANCE)
                + sim.bandwidth.node_bytes(idx, category::EAGER_FORWARDED)
                + sim.bandwidth.node_bytes(idx, category::EAGER_RETURNED)
                + sim
                    .bandwidth
                    .node_bytes(idx, category::EAGER_PARTIAL_RESULTS);
            bits_per_second(maintenance, eager_cycles.max(1), EAGER_CYCLE_SECONDS)
        })
        .collect();
    let eager_summary = DistributionSummary::of(&per_node_eager);

    println!();
    let rows = vec![
        vec![
            "lazy maintenance (per node)".to_string(),
            fmt(lazy_summary.mean / 1000.0),
            fmt(lazy_summary.p90 / 1000.0),
            "13.4".to_string(),
        ],
        vec![
            "query processing (per query)".to_string(),
            fmt(query_summary.mean / 1000.0),
            fmt(query_summary.p90 / 1000.0),
            "91".to_string(),
        ],
        vec![
            "eager gossip (per participant)".to_string(),
            fmt(eager_summary.mean / 1000.0),
            fmt(eager_summary.p90 / 1000.0),
            "121".to_string(),
        ],
    ];
    print_table(
        &[
            "traffic class",
            "measured mean (Kbps)",
            "measured p90 (Kbps)",
            "paper (Kbps)",
        ],
        &rows,
    );

    println!();
    println!(
        "total eager traffic: {} bytes over {} eager cycles; lazy traffic {} bytes over {} \
         lazy cycles.",
        eager_bytes, eager_cycles, eager_bandwidth_before, lazy_cycles
    );
    println!(
        "absolute numbers depend on the synthetic trace's profile sizes; the claim to check \
         is the ordering lazy ≪ query ≈ eager and the order of magnitude (tens of Kbps)."
    );
}

/// Analytical model validation — Theorems 2.1 to 2.4.
///
/// Compares, for several values of α,
///
/// * the closed-form `R(α)` of Theorem 2.1,
/// * the deterministic recurrence it approximates,
/// * the measured number of eager cycles the simulated protocol needs, and
/// * the measured number of users reached / partial-result messages against
///   the bounds of Theorems 2.3–2.4.
///
/// ```text
/// paper_figures --figure theory_validation --users 1000 --queries 100
/// ```
fn theory_validation(args: &HarnessArgs) {
    println!("=== Theorems 2.1–2.4: analytical model vs simulation ===");
    let mut world = World::build(args);
    let base_cfg = world.cfg.clone();
    let c = scale_bucket(10, base_cfg.personal_network_size);
    let queries = world.sample_queries(args.queries);
    println!(
        "users {}, tracked queries {}, c = {} stored profiles, s = {}",
        args.users,
        queries.len(),
        c,
        base_cfg.personal_network_size
    );
    println!();

    let alphas = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut rows = Vec::new();
    for &alpha in &alphas {
        world.cfg = base_cfg.clone().with_alpha(alpha);
        let cfg = &world.cfg;
        let mut sim = world.simulator(&StorageDistribution::Uniform(10), args.seed);

        // Model parameters: L = the querier's initial remaining list, X = the
        // number of profiles found per hop ≈ c (every reached user stores c
        // profiles, plus their own).
        let mean_l: f64 = queries
            .iter()
            .map(|q| sim.node(q.querier.index()).unstored_network_peers().len() as f64)
            .sum::<f64>()
            / queries.len().max(1) as f64;
        let x = (c + 1) as f64;

        issue_queries(&mut sim, &queries, cfg);
        sim.drive(
            &cfg.eager(),
            RunOptions::until_complete(args.cycles),
            |_, _| {},
        );

        let mut latencies = Vec::new();
        let mut reached = Vec::new();
        let mut messages = Vec::new();
        for i in 0..queries.len() {
            let state = query_state(&mut sim, &queries, i);
            if let Some(latency) = state.completion_latency() {
                latencies.push(latency as f64);
            }
            reached.push(state.reached_users.len() as f64);
            messages.push(state.traffic.partial_result_messages as f64);
        }
        let closed = cycles_to_completion(alpha, mean_l, x);
        let recurrence = simulate_recurrence(alpha, mean_l, x, 10_000);
        let [completed, mean, max, users_bound, messages_bound] =
            completion_columns(&latencies, queries.len(), args.cycles, args.users);
        eprintln!(
            "  α={alpha}: R_closed {closed:.1}, R_recurrence {recurrence}, measured mean {mean} \
             ({completed} completed)"
        );
        rows.push(vec![
            alpha.to_string(),
            fmt(mean_l),
            fmt(closed),
            recurrence.to_string(),
            completed,
            mean,
            max,
            fmt(DistributionSummary::of(&reached).mean),
            users_bound,
            fmt(DistributionSummary::of(&messages).mean),
            messages_bound,
        ]);
    }

    print_table(
        &[
            "alpha",
            "mean L",
            "R(α) closed",
            "R(α) recurrence",
            "completed",
            "measured cycles (mean)",
            "measured (max)",
            "users reached (mean)",
            "bound 2^R_measured",
            "partial msgs (mean)",
            "bound 2^R−1 (capped at n)",
        ],
        &rows,
    );

    println!();
    println!(
        "expected: the measured completion time is minimal near α = 0.5 and grows towards \
         both extremes (Theorem 2.2); measured users reached and partial-result messages \
         stay below the 2^R(α) and 2^R(α)−1 bounds (Theorems 2.3–2.4)."
    );
}

/// The measured columns of one `theory_validation` row, from the
/// completion times of the `latencies.len()` queries, of `tracked`, that
/// completed within `cycles`: `completed` (k / tracked), the mean and max
/// completion cycles, and the bounds of Theorems 2.3–2.4 (2^R users and
/// 2^R − 1 messages, capped at `users`). Those bound the run of each query,
/// so they are evaluated at the measured mean R. With k = 0 there is no
/// completion time: the measured columns read `>{cycles}`, as in
/// `fig3_alpha`, and the bounds `n/a`.
fn completion_columns(latencies: &[f64], tracked: usize, cycles: u64, users: usize) -> [String; 5] {
    let completed = format!("{}/{tracked}", latencies.len());
    if latencies.is_empty() {
        let never = format!(">{cycles}");
        return [completed, never.clone(), never, "n/a".into(), "n/a".into()];
    }
    let measured = DistributionSummary::of(latencies);
    let capped = |bound: f64| fmt(bound.min(users as f64));
    [
        completed,
        fmt(measured.mean),
        fmt(measured.max),
        capped(max_users_involved(measured.mean)),
        capped(max_partial_results(measured.mean)),
    ]
}

/// Runs `cycles` lazy cycles and records `metric` of the population under
/// `series` at cycle 0, every `cycles / 20` cycles and at the last cycle.
fn sample_lazy(
    sim: &mut Simulator<P3qNode>,
    cfg: &P3qConfig,
    cycles: u64,
    recorder: &mut SeriesRecorder,
    series: &str,
    metric: impl Fn(&[P3qNode]) -> f64,
) {
    let sample_every = (cycles / 20).max(1);
    recorder.record(series, 0, metric(sim.nodes()));
    sim.drive(&cfg.lazy(), RunOptions::cycles(cycles), |sim, event| {
        if let RunEvent::CycleEnd(cycle) = event {
            if cycle % sample_every == 0 || cycle == cycles {
                recorder.record(series, cycle, metric(sim.nodes()));
            }
        }
    });
}

/// Every node's profile version, in user-id order.
fn profile_versions(sim: &Simulator<P3qNode>) -> Vec<u64> {
    sim.nodes().iter().map(P3qNode::profile_version).collect()
}

/// Prints the recorded series side by side — one row per sampled cycle, one
/// column per series — between two blank lines.
fn print_series(recorder: &SeriesRecorder) {
    let names = recorder.names();
    let header: Vec<&str> = std::iter::once("cycle")
        .chain(names.iter().copied())
        .collect();
    let xs: Vec<u64> = recorder.points(names[0]).iter().map(|&(x, _)| x).collect();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            std::iter::once(x.to_string())
                .chain(
                    names
                        .iter()
                        .map(|n| recorder.get(n, x).map(fmt).unwrap_or_default()),
                )
                .collect()
        })
        .collect();
    println!();
    print_table(&header, &rows);
    println!();
}

/// Prints one recall column per labelled experiment, for cycles 0 to
/// `cycles` (an experiment that ran fewer cycles repeats its last value).
fn print_recall_table<'a>(
    columns: impl IntoIterator<Item = (String, &'a RecallExperiment)>,
    cycles: u64,
) {
    let (labels, outcomes): (Vec<String>, Vec<&RecallExperiment>) = columns.into_iter().unzip();
    let header: Vec<&str> = std::iter::once("cycle")
        .chain(labels.iter().map(String::as_str))
        .collect();
    let rows: Vec<Vec<String>> = (0..=cycles as usize)
        .map(|cycle| {
            std::iter::once(cycle.to_string())
                .chain(
                    outcomes
                        .iter()
                        .map(|r| fmt(r.recall_per_cycle[cycle.min(r.recall_per_cycle.len() - 1)])),
                )
                .collect()
        })
        .collect();
    print_table(&header, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_columns_for_none_some_and_all_queries_completed() {
        // k = 0: no completion time, so no bound either.
        assert_eq!(
            completion_columns(&[], 3, 5, 300),
            ["0/3", ">5", ">5", "n/a", "n/a"]
        );
        // 0 < k < n: the completed queries' times; bounds at their mean.
        assert_eq!(
            completion_columns(&[2.0, 4.0], 3, 5, 300),
            ["2/3", "3.000", "4.000", "8.000", "7.000"]
        );
        // k = n, with both bounds capped at the population.
        assert_eq!(
            completion_columns(&[10.0, 10.0], 2, 40, 300),
            ["2/2", "10.000", "10.000", "300.000", "300.000"]
        );
    }
}
