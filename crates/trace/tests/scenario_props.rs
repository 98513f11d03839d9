//! Structure tests for the paper preset: its generated trace must actually
//! exhibit the workload shape it advertises — Zipf popularity tail,
//! interest-community overlap, skewed profile sizes — and the vocabulary
//! rules must scale the way they say.

use p3q_trace::{Scenario, ScenarioConfig, SyntheticTrace, TraceGenerator, TraceShape};
use proptest::prelude::*;

/// Least-squares slope of `ln(count)` over `ln(rank)` for the most-used
/// `window` items — the empirical Zipf tail exponent (negated: a Zipf law
/// with exponent `s` shows up as slope ≈ `-s`).
fn popularity_slope(trace: &SyntheticTrace, window: usize) -> f64 {
    let mut counts: Vec<usize> = trace.dataset.item_user_counts().values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.truncate(window.min(counts.len()));
    assert!(counts.len() >= 10, "not enough used items to fit a slope");
    let points: Vec<(f64, f64)> = counts
        .iter()
        .enumerate()
        .map(|(rank, &count)| (((rank + 1) as f64).ln(), (count.max(1) as f64).ln()))
        .collect();
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    cov / var
}

/// Mean pairwise profile overlap over a deterministic user sample — the
/// community-structure indicator (topic communities force shared actions).
fn mean_pair_overlap(trace: &SyntheticTrace, sample: usize) -> f64 {
    let users: Vec<_> = trace.dataset.users().collect();
    let stride = (users.len() / sample).max(1);
    let picked: Vec<_> = users.into_iter().step_by(stride).take(sample).collect();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for (i, &a) in picked.iter().enumerate() {
        for &b in &picked[i + 1..] {
            total += trace
                .dataset
                .profile(a)
                .common_actions(trace.dataset.profile(b));
            pairs += 1;
        }
    }
    total as f64 / pairs.max(1) as f64
}

#[test]
fn paper_delicious_has_zipf_tail_and_communities_and_skewed_profiles() {
    // A deterministic mid-size instance (600 users keeps the statistics
    // stable while the whole suite stays in test-time budget).
    let trace =
        TraceGenerator::new(ScenarioConfig::new(Scenario::PaperDelicious, 600, 77).trace_config())
            .generate();

    // Zipf popularity: a clearly negative log-log slope and a heavy head.
    // The window spans enough ranks to see past the mixed per-topic heads
    // (the trace is a mixture of per-topic Zipf laws, which flattens the
    // very top of the combined ranking).
    let slope = popularity_slope(&trace, 1000);
    assert!(
        slope < -0.45,
        "paper preset should have a Zipf popularity tail, slope = {slope:.3}"
    );
    let mut usage: Vec<usize> = trace.dataset.item_user_counts().values().copied().collect();
    usage.sort_unstable_by(|a, b| b.cmp(a));
    let top_decile_item_share = usage[..(usage.len() / 10).max(1)].iter().sum::<usize>() as f64
        / usage.iter().sum::<usize>() as f64;
    assert!(
        top_decile_item_share > 0.3,
        "top decile should carry the load, got {top_decile_item_share:.3}"
    );

    // Interest communities: users overlap far more than independent uniform
    // tagging would allow.
    assert!(
        mean_pair_overlap(&trace, 40) > 0.3,
        "expected community-driven overlap"
    );

    // Skewed profile sizes: the log-normal tail puts the 99th percentile
    // well above the mean, below the hard cap.
    let mut items_per_user: Vec<usize> = trace
        .dataset
        .iter()
        .map(|(_, profile)| profile.items().count())
        .collect();
    items_per_user.sort_unstable();
    let users = items_per_user.len();
    let p99_items_per_user = items_per_user[(users * 99).div_ceil(100) - 1];
    let mean_items_per_user = items_per_user.iter().sum::<usize>() as f64 / users as f64;
    assert!(
        p99_items_per_user as f64 > 2.0 * mean_items_per_user,
        "p99 {p99_items_per_user} should dwarf the mean {mean_items_per_user:.1}"
    );
    assert!(p99_items_per_user <= trace.config.max_items_per_user);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The fixed shapes keep the vocabulary constant across populations;
    /// the density-scaled shape grows it.
    #[test]
    fn prop_shapes_are_consistent(users in 50usize..400) {
        let fixed = ScenarioConfig::new(Scenario::PaperDelicious, users, 1)
            .with_shape(TraceShape::FixedLaptop)
            .trace_config();
        prop_assert_eq!(fixed.num_items, 12_000);
        prop_assert_eq!(fixed.num_users, users);
        let scaled = ScenarioConfig::new(Scenario::PaperDelicious, users, 1).trace_config();
        prop_assert_eq!(scaled.num_items, users * 12);
    }
}
