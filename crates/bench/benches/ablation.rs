//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **α sweep** — end-to-end eager cycles needed per α (Theorem 2.2 says
//!   α = 0.5 is optimal);
//! * **digest pre-filtering** — the "do we share an item?" decision with the
//!   Bloom digest (step 1 of Algorithm 1) vs. a full profile intersection;
//! * **Bloom-filter size** — digest construction cost and false-positive
//!   rate for several filter sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use p3q::baseline::IdealNetworks;
use p3q::config::P3qConfig;
use p3q::eager::issue_query;
use p3q::experiment::{build_simulator_with_budgets, init_ideal_networks};
use p3q::query::QueryId;
use p3q_bloom::{BloomFilter, ProbeSet};
use p3q_sim::RunOptions;
use p3q_trace::{QueryGenerator, TraceConfig, TraceGenerator, UserId};

/// Small world shared by the end-to-end ablations.
struct SmallWorld {
    trace: p3q_trace::SyntheticTrace,
    ideal: IdealNetworks,
    queries: Vec<p3q_trace::Query>,
}

fn small_world() -> SmallWorld {
    let mut cfg = TraceConfig::tiny(11);
    cfg.num_users = 120;
    let trace = TraceGenerator::new(cfg).generate();
    let ideal = IdealNetworks::compute(&trace.dataset, 50);
    let queries = QueryGenerator::new(1)
        .one_query_per_user(&trace.dataset)
        .into_iter()
        .filter(|q| !ideal.network_of(q.querier).is_empty())
        .take(10)
        .collect();
    SmallWorld {
        trace,
        ideal,
        queries,
    }
}

fn alpha_sweep(c: &mut Criterion) {
    let world = small_world();
    let mut group = c.benchmark_group("ablation/alpha_sweep");
    group.sample_size(10);
    for alpha in [0.1f64, 0.5, 0.9] {
        group.bench_with_input(
            BenchmarkId::from_parameter(alpha),
            &alpha,
            |bencher, &alpha| {
                bencher.iter(|| {
                    let mut cfg = P3qConfig::tiny().with_alpha(alpha);
                    cfg.personal_network_size = 50;
                    let budgets = vec![2usize; world.trace.dataset.num_users()];
                    let mut sim =
                        build_simulator_with_budgets(&world.trace.dataset, &cfg, &budgets, 3);
                    init_ideal_networks(&mut sim, &world.ideal);
                    for (i, query) in world.queries.iter().enumerate() {
                        issue_query(
                            &mut sim,
                            query.querier.index(),
                            QueryId(i as u64),
                            query.clone(),
                            &cfg,
                        );
                    }
                    black_box(sim.drive(&cfg.eager(), RunOptions::until_complete(40), |_, _| {}))
                })
            },
        );
    }
    group.finish();
}

fn digest_prefilter(c: &mut Criterion) {
    // Compare the cost of deciding "do these two users share an item?" with
    // the Bloom digest (step 1 of Algorithm 1) against a full profile
    // intersection — the saving that justifies shipping digests instead of
    // profiles.
    let trace = TraceGenerator::new(TraceConfig::laptop_scale(5)).generate();
    let a = trace.dataset.profile(UserId(0));
    let b = trace.dataset.profile(UserId(1));
    let digest_b = b.paper_digest();
    // A node hashes its items once per exchange and tests the set against
    // every digest of that exchange, so the hashing stays outside the loop.
    let probes_a = ProbeSet::new(
        digest_b.bit_len(),
        digest_b.num_hashes(),
        a.items().map(|i| i.as_key()),
    );
    let mut group = c.benchmark_group("ablation/digest_prefilter");
    group.bench_function("bloom_probe", |bencher| {
        bencher.iter(|| black_box(&digest_b).contains_any(black_box(&probes_a)))
    });
    group.bench_function("full_intersection", |bencher| {
        bencher.iter(|| black_box(a.shares_item_with(b)))
    });
    group.finish();
}

fn bloom_sizes(c: &mut Criterion) {
    let trace = TraceGenerator::new(TraceConfig::laptop_scale(6)).generate();
    let profile = trace.dataset.profile(UserId(0));
    let mut group = c.benchmark_group("ablation/bloom_size");
    for bits in [2 * 1024usize, 8 * 1024, 20 * 1024] {
        group.bench_with_input(
            BenchmarkId::from_parameter(bits),
            &bits,
            |bencher, &bits| {
                bencher.iter(|| {
                    let filter =
                        BloomFilter::from_keys(bits, 7, profile.items().map(|i| i.as_key()));
                    black_box(filter.false_positive_rate())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, alpha_sweep, digest_prefilter, bloom_sizes);
criterion_main!(benches);
