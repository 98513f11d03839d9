//! Property tests pinning the demand-driven resolver to the global oracle:
//! every network `OnDemandNetworks` ever serves — freshly resolved,
//! memoized, patched in place, or re-resolved after invalidation — must be
//! byte-identical to `IdealNetworks::compute` over the current dataset, on
//! random traces, under random delta batches and churn, for every shard
//! layout and worker-thread count (`P3Q_THREADS ∈ {1, 3, 8}`) — and the
//! cache-filtered write path must leave what the unfiltered one leaves.

use proptest::prelude::*;

use p3q::baseline::IdealNetworks;
use p3q::resolver::{OnDemandNetworks, ResolveStats};
use p3q::similarity::ActionIndex;
use p3q_trace::{
    ChangeBatch, Dataset, ItemId, Profile, ProfileChange, TagId, TaggingAction, UserId,
};

/// Same dense random-dataset shape as `similarity_props`: collisions
/// (shared actions, ties, popular items) are common.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec((0u32..12, 0u32..6), 0..30), 2..14).prop_map(
        |users| {
            let profiles: Vec<Profile> = users
                .into_iter()
                .map(|actions| {
                    Profile::from_actions(
                        actions
                            .into_iter()
                            .map(|(i, t)| TaggingAction::new(ItemId(i), TagId(t))),
                    )
                })
                .collect();
            Dataset::new(profiles, 12, 6)
        },
    )
}

type RawBatch = Vec<(usize, Vec<(u32, u32)>)>;

fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    prop::collection::vec(
        prop::collection::vec(
            (0usize..64, prop::collection::vec((0u32..12, 0u32..6), 0..8)),
            1..5,
        ),
        1..4,
    )
}

fn change_batch(raw: &RawBatch, num_users: usize) -> ChangeBatch {
    let mut changes: Vec<ProfileChange> = Vec::new();
    for &(user_sel, ref actions) in raw {
        let user = UserId::from_index(user_sel % num_users);
        let new_actions: Vec<TaggingAction> = actions
            .iter()
            .map(|&(i, t)| TaggingAction::new(ItemId(i), TagId(t)))
            .collect();
        match changes.iter_mut().find(|c| c.user == user) {
            Some(change) => change.new_actions.extend(new_actions),
            None => changes.push(ProfileChange { user, new_actions }),
        }
    }
    ChangeBatch { changes }
}

/// Queried users: a selector-driven subset so some users are queried
/// repeatedly (hitting the memo) and others never (never resolved).
fn queried(selectors: &[usize], num_users: usize) -> Vec<UserId> {
    selectors
        .iter()
        .map(|&sel| UserId::from_index(sel % num_users))
        .collect()
}

proptest! {
    /// Lazy resolution equals the global oracle on every queried user, for
    /// every shard layout, and untouched users are never resolved.
    #[test]
    fn resolution_matches_the_global_oracle(
        dataset in arb_dataset(),
        queries in prop::collection::vec(0usize..64, 1..12),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let index = ActionIndex::build_with_shards(&dataset, shards);
        let oracle = IdealNetworks::compute(&dataset, s);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), s);
        let queriers = queried(&queries, dataset.num_users());
        for &user in &queriers {
            prop_assert_eq!(
                resolver.resolve(&dataset, &index, user),
                oracle.network_of(user),
                "user {} ({} shards)", user, shards
            );
        }
        let mut unique = queriers.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(resolver.cached_count(), unique.len());
        prop_assert_eq!(resolver.stats().resolutions, unique.len());
        prop_assert_eq!(
            resolver.stats().cache_hits,
            queriers.len() - unique.len(),
            "repeat queries must hit the memo"
        );
    }

    /// Under interleaved delta batches, memoized-then-invalidated (or
    /// patched-in-place) entries stay byte-equal to a from-scratch oracle
    /// over the mutated dataset — the exact-invalidation contract.
    #[test]
    fn invalidation_keeps_queried_users_oracle_equal(
        dataset in arb_dataset(),
        batches in arb_batches(),
        queries in prop::collection::vec(0usize..64, 1..10),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), s);
        let queriers = queried(&queries, dataset.num_users());
        // Warm the memo before any dynamics, so the delta path hits cached
        // entries (evict and patch both exercised).
        resolver.resolve_many(&dataset, &index, &queriers, 2);
        for (step, raw) in batches.iter().enumerate() {
            let batch = change_batch(raw, dataset.num_users());
            batch.apply(&mut dataset);
            resolver.apply_change_batch(&dataset, &mut index, &batch);
            let oracle = IdealNetworks::compute(&dataset, s);
            // Surviving cached entries must already be fresh (patched or
            // untouched) without re-resolution...
            for user in dataset.users() {
                if let Some(cached) = resolver.cached(user) {
                    prop_assert_eq!(
                        cached, oracle.network_of(user),
                        "stale cache at step {} for {} ({} shards)", step, user, shards
                    );
                }
            }
            // ...and every queried user (evicted ones re-resolve) matches.
            for &user in &queriers {
                prop_assert_eq!(
                    resolver.resolve(&dataset, &index, user),
                    oracle.network_of(user),
                    "step {}, user {} ({} shards)", step, user, shards
                );
            }
        }
    }

    /// Churn: after departures strip the index, every cached survivor is
    /// still oracle-equal and departed users resolve to empty networks.
    #[test]
    fn churn_invalidation_matches_the_oracle(
        dataset in arb_dataset(),
        raw in arb_batches(),
        queries in prop::collection::vec(0usize..64, 1..10),
        departures in prop::collection::vec(0usize..64, 1..5),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), s);
        let queriers = queried(&queries, dataset.num_users());
        resolver.resolve_many(&dataset, &index, &queriers, 2);

        // One change batch first, so departures hit freshly patched state.
        let batch = change_batch(&raw[0], dataset.num_users());
        batch.apply(&mut dataset);
        resolver.apply_change_batch(&dataset, &mut index, &batch);

        let mut departed: Vec<UserId> = departures
            .iter()
            .map(|&sel| UserId::from_index(sel % dataset.num_users()))
            .collect();
        departed.sort_unstable();
        departed.dedup();
        let old_profiles: Vec<(UserId, Profile)> = departed
            .iter()
            .map(|&u| (u, dataset.profile(u).clone()))
            .collect();
        for &u in &departed {
            *dataset.profile_mut(u) = Profile::new();
        }
        resolver.apply_departures(&mut index, old_profiles.iter().map(|(u, p)| (*u, p)));

        let oracle = IdealNetworks::compute(&dataset, s);
        for user in dataset.users() {
            if let Some(cached) = resolver.cached(user) {
                prop_assert_eq!(cached, oracle.network_of(user), "stale cache for {}", user);
            }
        }
        for &user in &queriers {
            prop_assert_eq!(
                resolver.resolve(&dataset, &index, user),
                oracle.network_of(user),
                "{}", user
            );
        }
        for &u in &departed {
            prop_assert!(resolver.resolve(&dataset, &index, u).is_empty());
        }
    }

    /// The served write path has the index emit pairs only for cached
    /// users. Its twin takes the unfiltered route (`apply_deltas` +
    /// `apply_delta_outcome`, what the benchmarks time): after every batch
    /// both hold the same cache and counters, and the served outcome is
    /// the unfiltered one with `pairs` kept for the users cached before the
    /// call.
    #[test]
    fn cache_filtered_writes_match_the_unfiltered_route(
        dataset in arb_dataset(),
        batches in arb_batches(),
        queries in prop::collection::vec(0usize..64, 1..10),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let threads = p3q_sim::default_threads();
        let mut dataset = dataset;
        let mut served_index = ActionIndex::build_with_shards(&dataset, shards);
        let mut twin_index = served_index.clone();
        let mut served = OnDemandNetworks::new(dataset.num_users(), s);
        let queriers = queried(&queries, dataset.num_users());
        served.resolve_many(&dataset, &served_index, &queriers, threads);
        let mut twin = served.clone();
        for (step, raw) in batches.iter().enumerate() {
            let batch = change_batch(raw, dataset.num_users());
            batch.apply(&mut dataset);
            let cached_before: Vec<bool> =
                dataset.users().map(|u| served.cached(u).is_some()).collect();
            let outcome = served.apply_change_batch_with_threads(
                &dataset, &mut served_index, &batch, threads,
            );
            let mut full = twin_index.apply_deltas(
                batch.changes.iter().map(|c| (c.user, c.new_actions.as_slice())),
            );
            twin.apply_delta_outcome(&dataset, &full, threads);
            for user in dataset.users() {
                prop_assert_eq!(
                    served.cached(user), twin.cached(user),
                    "step {}, user {} ({} shards)", step, user, shards
                );
            }
            prop_assert_eq!(served.stats(), twin.stats(), "step {} ({} shards)", step, shards);
            full.pairs.retain(|(affected, _)| cached_before[affected.index()]);
            prop_assert_eq!(&outcome, &full, "step {} ({} shards)", step, shards);
            // Re-warm half the queriers, alternating, so the next batch
            // meets a different partly warmed cache.
            let warm: Vec<UserId> = queriers.iter().copied().skip(step % 2).step_by(2).collect();
            served.resolve_many(&dataset, &served_index, &warm, threads);
            twin.resolve_many(&dataset, &twin_index, &warm, threads);
        }
    }

    /// The full resolve → invalidate → re-resolve cycle is byte-identical
    /// for every worker-thread count: cache contents AND work counters.
    #[test]
    fn resolution_is_thread_count_independent(
        dataset in arb_dataset(),
        batches in arb_batches(),
        queries in prop::collection::vec(0usize..64, 1..10),
        s in 1usize..6,
    ) {
        let queriers = queried(&queries, dataset.num_users());
        type CacheSnapshot = Vec<Option<Vec<(UserId, u64)>>>;
        let run = |threads: usize| -> (CacheSnapshot, ResolveStats) {
            let mut dataset = dataset.clone();
            let mut index = ActionIndex::build(&dataset);
            let mut resolver = OnDemandNetworks::new(dataset.num_users(), s);
            resolver.resolve_many(&dataset, &index, &queriers, threads);
            for raw in &batches {
                let batch = change_batch(raw, dataset.num_users());
                batch.apply(&mut dataset);
                resolver.apply_change_batch_with_threads(&dataset, &mut index, &batch, threads);
                resolver.resolve_many(&dataset, &index, &queriers, threads);
            }
            let cache = dataset
                .users()
                .map(|u| resolver.cached(u).map(<[(UserId, u64)]>::to_vec))
                .collect();
            (cache, resolver.stats())
        };
        let reference = run(1);
        for threads in [3, 8] {
            prop_assert_eq!(&run(threads), &reference, "threads = {}", threads);
        }
    }
}
