//! Figure 7 — Average update rate (AUR) under the lazy mode after a batch of
//! simultaneous profile changes: (a) uniform storage budgets, (b) the two
//! Poisson scenarios.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin fig7_aur_lazy -- --users 1000 --cycles 60
//! ```

use std::collections::HashSet;

use p3q::prelude::*;
use p3q::storage::PAPER_STORAGE_BUCKETS;
use p3q_bench::{fmt, print_table, HarnessArgs, World};
use p3q_sim::SeriesRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_scenario(
    world: &World,
    label: &str,
    storage: StorageDistribution,
    args: &HarnessArgs,
    recorder: &mut SeriesRecorder,
) {
    let cfg = &world.cfg;
    let mut sim = build_simulator(&world.trace.dataset, cfg, &storage, args.seed);
    init_ideal_networks(&mut sim, &world.ideal);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF167);
    bootstrap_random_views(&mut sim, cfg, &mut rng);

    // One day of profile changes, applied simultaneously.
    let batch =
        DynamicsGenerator::new(DynamicsConfig::paper_day(args.seed ^ 0xDA7)).generate(&world.trace);
    let changed: HashSet<UserId> = batch.changed_users().into_iter().collect();
    for change in &batch.changes {
        sim.node_mut(change.user.index())
            .add_tagging_actions(change.new_actions.iter().copied());
    }
    let versions: Vec<u64> = (0..sim.num_nodes())
        .map(|i| sim.node(i).profile_version())
        .collect();

    let sample_every = (args.cycles / 20).max(1);
    recorder.record(
        label,
        0,
        average_update_rate(sim.nodes().iter(), &changed, &versions),
    );
    sim.drive(
        &cfg.lazy(),
        RunOptions::cycles(args.cycles),
        |sim, event| {
            if let RunEvent::CycleEnd(cycle) = event {
                if cycle % sample_every == 0 || cycle == args.cycles {
                    recorder.record(
                        label,
                        cycle,
                        average_update_rate(sim.nodes().iter(), &changed, &versions),
                    );
                }
            }
        },
    );
    eprintln!(
        "  {label}: AUR {:.3} → {:.3}",
        recorder.get(label, 0).unwrap_or(0.0),
        recorder.last(label).unwrap_or(0.0)
    );
}

fn main() {
    let args = HarnessArgs::parse(60);
    println!("=== Figure 7: average update rate in lazy mode ===");
    let world = World::build(&args);
    println!("users {}, cycles {}", args.users, args.cycles);

    let mut recorder = SeriesRecorder::new();
    // (a) uniform budgets.
    for &bucket in &PAPER_STORAGE_BUCKETS {
        run_scenario(
            &world,
            &format!("c={bucket}"),
            StorageDistribution::Uniform(bucket),
            &args,
            &mut recorder,
        );
    }
    // (b) heterogeneous budgets.
    run_scenario(
        &world,
        "poisson λ=1",
        StorageDistribution::poisson_lambda_1(),
        &args,
        &mut recorder,
    );
    run_scenario(
        &world,
        "poisson λ=4",
        StorageDistribution::poisson_lambda_4(),
        &args,
        &mut recorder,
    );

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
    println!("csv:");
    print!("{}", recorder.to_csv());
    println!();
    println!(
        "paper shape: small storage budgets stay fresh (c=10/20 exceed 95% AUR within ~30 \
         cycles) while large budgets lag far behind (c=500/1000 around 40% after 100 \
         cycles); the λ=1 population therefore refreshes faster than λ=4."
    );
}
