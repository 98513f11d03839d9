//! Structure tests for the scenario presets: each preset's generated trace
//! must actually exhibit the workload shape it advertises — Zipf popularity
//! tail, interest-community overlap, skewed profile sizes, flash-crowd
//! concentration, topic drift, churn schedule — and materializing a preset
//! must be byte-identical for every worker-thread count.

use p3q_trace::{
    DatasetStats, Scenario, ScenarioConfig, ScenarioEvent, SyntheticTrace, TraceShape,
};
use proptest::prelude::*;

/// A deterministic mid-size instance of a preset (600 users keeps the
/// statistics stable while the whole suite stays in test-time budget).
fn workload(scenario: Scenario) -> p3q_trace::ScenarioWorkload {
    ScenarioConfig::new(scenario, 600, 77)
        .with_horizon(30)
        .build()
}

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
    let workload = workload(Scenario::PaperDelicious);
    let stats = DatasetStats::compute(&workload.trace.dataset);

    // Zipf popularity: a clearly negative log-log slope and a heavy head.
    // The window spans enough ranks to see past the mixed per-topic heads
    // (the trace is a mixture of per-topic Zipf laws, which flattens the
    // very top of the combined ranking).
    let slope = popularity_slope(&workload.trace, 1000);
    assert!(
        slope < -0.45,
        "paper preset should have a Zipf popularity tail, slope = {slope:.3}"
    );
    assert!(
        stats.top_decile_item_share > 0.3,
        "top decile should carry the load, got {:.3}",
        stats.top_decile_item_share
    );

    // Interest communities: users overlap far more than independent uniform
    // tagging would allow.
    assert!(
        mean_pair_overlap(&workload.trace, 40) > 0.3,
        "expected community-driven overlap"
    );

    // Skewed profile sizes: the log-normal tail puts the 99th percentile
    // well above the mean, below the hard cap.
    assert!(
        stats.p99_items_per_user as f64 > 2.0 * stats.mean_items_per_user,
        "p99 {} should dwarf the mean {:.1}",
        stats.p99_items_per_user,
        stats.mean_items_per_user
    );
    assert!(stats.p99_items_per_user <= workload.trace.config.max_items_per_user);

    // Organic dynamics are scheduled, no departures.
    assert!(workload.scheduled_actions() > 0);
    assert!(workload
        .schedule
        .iter()
        .all(|(_, e)| matches!(e, ScenarioEvent::ProfileChanges(_))));
}

#[test]
fn uniform_control_is_flat_and_communityless() {
    let control = workload(Scenario::UniformControl);
    let paper = workload(Scenario::PaperDelicious);

    let control_slope = popularity_slope(&control.trace, 1000);
    assert!(
        control_slope > -0.25,
        "uniform control should have no popularity tail, slope = {control_slope:.3}"
    );

    let control_stats = DatasetStats::compute(&control.trace.dataset);
    let paper_stats = DatasetStats::compute(&paper.trace.dataset);
    assert!(
        control_stats.top_decile_item_share < paper_stats.top_decile_item_share / 2.0,
        "control head share {:.3} should be far below paper {:.3}",
        control_stats.top_decile_item_share,
        paper_stats.top_decile_item_share
    );
    assert!(
        mean_pair_overlap(&control.trace, 40) < mean_pair_overlap(&paper.trace, 40),
        "one global topic must overlap less than focused communities"
    );
    assert!(control.schedule.is_empty());
}

#[test]
fn flash_crowd_bursts_concentrate_on_few_items() {
    let workload = workload(Scenario::FlashCrowd);
    let mut burst_actions = 0usize;
    let mut per_item = std::collections::HashMap::new();
    for (_, event) in &workload.schedule {
        let ScenarioEvent::ProfileChanges(batch) = event else {
            panic!("flash crowd schedules only change batches");
        };
        for change in &batch.changes {
            for action in &change.new_actions {
                *per_item.entry(action.item).or_insert(0usize) += 1;
                burst_actions += 1;
            }
        }
    }
    assert!(burst_actions > 0, "the burst must contain actions");
    let mut counts: Vec<usize> = per_item.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    // The preset's hot-set size for this population.
    let hot_cap = (workload.config.num_users / 100).clamp(5, 50);
    let hot: usize = counts.iter().take(hot_cap).sum();
    assert!(
        hot as f64 / burst_actions as f64 > 0.7,
        "the hot set should dominate the burst: {hot}/{burst_actions}"
    );
}

#[test]
fn topic_drift_moves_users_outside_their_topics() {
    let workload = workload(Scenario::TopicDrift);
    let world = &workload.trace.world;
    let mut outside = 0usize;
    let mut total = 0usize;
    for (_, event) in &workload.schedule {
        let ScenarioEvent::ProfileChanges(batch) = event else {
            panic!("topic drift schedules only change batches");
        };
        for change in &batch.changes {
            let topics = &world.user_topics[change.user.index()];
            for action in &change.new_actions {
                total += 1;
                if !topics.contains(&world.item_topic[action.item.index()]) {
                    outside += 1;
                }
            }
        }
    }
    assert!(total > 0);
    assert!(
        outside as f64 / total as f64 > 0.5,
        "drifted batches should mostly leave the original topics: {outside}/{total}"
    );
}

#[test]
fn churn_heavy_interleaves_departures_and_changes() {
    let workload = workload(Scenario::ChurnHeavy);
    let mut fractions = Vec::new();
    let mut change_batches = 0usize;
    let mut last_cycle = 0u64;
    for (cycle, event) in &workload.schedule {
        assert!(*cycle >= last_cycle, "schedule must be cycle-ordered");
        last_cycle = *cycle;
        match event {
            ScenarioEvent::MassDeparture(f) => fractions.push(*f),
            ScenarioEvent::ProfileChanges(_) => change_batches += 1,
        }
    }
    assert_eq!(fractions.len(), 3);
    assert!(
        fractions.windows(2).all(|w| w[0] < w[1]),
        "escalating churn"
    );
    assert!(fractions.iter().all(|f| (0.0..=0.5).contains(f)));
    assert_eq!(change_batches, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Materializing any preset is byte-identical for every thread count —
    /// trace bytes and every scheduled batch.
    #[test]
    fn prop_scenario_build_thread_independent(seed in 0u64..1_000) {
        for scenario in Scenario::ALL {
            let cfg = ScenarioConfig::new(scenario, 90, seed).with_horizon(12);
            let reference = cfg.build_with_threads(1);
            for threads in [3, 8] {
                let parallel = cfg.build_with_threads(threads);
                prop_assert_eq!(
                    &parallel.schedule, &reference.schedule,
                    "schedule diverged: {} threads {}", scenario.name(), threads
                );
                for user in reference.trace.dataset.users() {
                    prop_assert_eq!(
                        parallel.trace.dataset.profile(user),
                        reference.trace.dataset.profile(user),
                        "profile diverged: {} threads {}", scenario.name(), threads
                    );
                }
            }
        }
    }

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
        let control = ScenarioConfig::new(Scenario::UniformControl, users, 1).trace_config();
        prop_assert_eq!(control.num_topics, 1);
        prop_assert_eq!(control.item_zipf_exponent, 0.0);
    }
}
