//! Property-based tests for the trace substrate.

use p3q_trace::{ItemId, Profile, TagId, TaggingAction, TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn arb_action() -> impl Strategy<Value = TaggingAction> {
    (0u32..200, 0u32..50).prop_map(|(i, t)| TaggingAction::new(ItemId(i), TagId(t)))
}

fn arb_profile(max: usize) -> impl Strategy<Value = Profile> {
    prop::collection::vec(arb_action(), 0..max).prop_map(Profile::from_actions)
}

proptest! {
    /// Similarity is symmetric: |A ∩ B| = |B ∩ A|.
    #[test]
    fn prop_similarity_symmetric(a in arb_profile(120), b in arb_profile(120)) {
        prop_assert_eq!(a.common_actions(&b), b.common_actions(&a));
    }

    /// Similarity is bounded by both profile lengths and equals the length on
    /// self-comparison.
    #[test]
    fn prop_similarity_bounds(a in arb_profile(120), b in arb_profile(120)) {
        let s = a.common_actions(&b);
        prop_assert!(s <= a.len());
        prop_assert!(s <= b.len());
        prop_assert_eq!(a.common_actions(&a), a.len());
    }

    /// The similarity score counts exactly the actions that belong to both
    /// profiles.
    #[test]
    fn prop_common_actions_counts_shared_actions(a in arb_profile(100), b in arb_profile(100)) {
        let shared = a.iter().filter(|action| b.contains(action)).count();
        prop_assert_eq!(a.common_actions(&b), shared);
    }

    /// A profile digest never produces a false negative on the profile's own
    /// items: when two profiles share an item, at least one of `b`'s items
    /// probes positive in `a`'s digest.
    #[test]
    fn prop_digest_soundness(a in arb_profile(100), b in arb_profile(100)) {
        let da = a.digest(1 << 12, 5);
        for item in a.items() {
            prop_assert!(da.contains(item.as_key()));
        }
        if b.items().any(|i| a.has_item(i)) {
            // At least one of b's items must probe positive in a's digest.
            prop_assert!(b.items().any(|i| da.contains(i.as_key())));
        }
    }

    /// Insert preserves sortedness and set semantics.
    #[test]
    fn prop_insert_keeps_invariants(actions in prop::collection::vec(arb_action(), 0..200)) {
        let mut p = Profile::new();
        for a in &actions {
            p.insert(*a);
        }
        // Sorted and unique.
        let slice = p.actions();
        for w in slice.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Same content as bulk construction.
        prop_assert_eq!(p, Profile::from_actions(actions));
    }

    /// Queries built from a profile only contain tags the querier actually
    /// used on the source item.
    #[test]
    fn prop_query_tags_belong_to_querier(seed in 0u64..32) {
        let trace = TraceGenerator::new(TraceConfig::tiny(seed)).generate();
        let queries = p3q_trace::QueryGenerator::new(seed).one_query_per_user(&trace.dataset);
        for q in queries {
            let profile = trace.dataset.profile(q.querier);
            for &tag in &q.tags {
                prop_assert!(profile.tagged(q.source_item, tag));
            }
        }
    }
}

/// Asserts two traces are byte-identical: same latent world, same profile
/// bytes for every user.
fn assert_traces_identical(
    a: &p3q_trace::SyntheticTrace,
    b: &p3q_trace::SyntheticTrace,
    context: &str,
) {
    assert_eq!(a.world.item_topic, b.world.item_topic, "{context}");
    assert_eq!(a.world.item_tags, b.world.item_tags, "{context}");
    assert_eq!(a.world.user_topics, b.world.user_topics, "{context}");
    assert_eq!(a.world.topic_items, b.world.topic_items, "{context}");
    assert_eq!(a.world.topic_tags, b.world.topic_tags, "{context}");
    assert_eq!(a.dataset.num_users(), b.dataset.num_users(), "{context}");
    for user in a.dataset.users() {
        assert_eq!(
            a.dataset.profile(user),
            b.dataset.profile(user),
            "{context}, user = {user}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The parallel generator is byte-identical to the retained sequential
    /// reference for every thread count, across random seeds and populations
    /// — the determinism contract of the trace layer.
    #[test]
    fn prop_parallel_generation_matches_reference(seed in 0u64..10_000, users in 30usize..120) {
        let mut cfg = TraceConfig::tiny(seed);
        cfg.num_users = users;
        let generator = TraceGenerator::new(cfg);
        let reference = generator.generate_reference();
        for threads in [1, 3, 8] {
            let parallel = generator.generate_with_threads(threads);
            assert_traces_identical(&parallel, &reference, &format!("threads = {threads}"));
        }
    }

    /// Parallel dynamics batches are byte-identical to the sequential
    /// reference for every thread count, for both batch shapes.
    #[test]
    fn prop_parallel_dynamics_matches_reference(seed in 0u64..10_000) {
        use p3q_trace::{DynamicsConfig, DynamicsGenerator};
        let trace = TraceGenerator::new(TraceConfig::tiny(seed)).generate();
        for cfg in [
            DynamicsConfig::paper_day(seed ^ 1),
            DynamicsConfig::all_users(seed ^ 2),
        ] {
            let generator = DynamicsGenerator::new(cfg);
            let reference = generator.generate_reference(&trace);
            for threads in [1, 3, 8] {
                let parallel = generator.generate_with_threads(&trace, threads);
                prop_assert_eq!(&parallel, &reference, "threads = {}", threads);
            }
        }
    }
}
