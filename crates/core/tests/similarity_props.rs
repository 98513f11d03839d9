//! Property tests pinning the counting-index similarity engine to a naive
//! O(n²) reference: `IdealNetworks::compute` must be byte-identical to
//! brute force on random traces — scores, ordering and tie-breaking
//! included — for every network size and worker-thread count. The
//! incremental path (a fully cached `OnDemandNetworks` made from the
//! networks absorbs `ActionIndex::apply_deltas` / `remove_user`, then
//! `into_ideal` re-sweeps what it evicted) is pinned the same way: after
//! any sequence of random profile-change batches and departures it must
//! equal a from-scratch `compute` over the mutated dataset, for every
//! shard layout and worker-thread count. The counting kernel itself is
//! held to a naive per-pair counter sweep by sweep, on delta-grown indexes.

use proptest::prelude::*;

use p3q::baseline::IdealNetworks;
use p3q::resolver::OnDemandNetworks;
use p3q::similarity::{ActionIndex, SimilarityScratch};
use p3q_sim::default_threads;
use p3q_trace::{
    ChangeBatch, Dataset, ItemId, Profile, ProfileChange, TagId, TaggingAction, TraceConfig,
    TraceGenerator, UserId,
};

/// Brute force with no index at all: every ordered pair, one merge each.
/// Deliberately independent of both production implementations.
fn brute_force(dataset: &Dataset, network_size: usize) -> Vec<Vec<(u32, u64)>> {
    dataset
        .iter()
        .map(|(user, profile)| {
            naive_sweep(dataset, profile, user)
                .into_iter()
                .take(network_size)
                .map(|(other, score)| (other.0, score))
                .collect()
        })
        .collect()
}

/// What a naive per-pair counter says one sweep must leave behind: every
/// user but `exclude` with a positive overlap, ranked by score then id.
fn naive_sweep(dataset: &Dataset, profile: &Profile, exclude: UserId) -> Vec<(UserId, u64)> {
    let mut scored: Vec<(UserId, u64)> = dataset
        .iter()
        .filter(|&(other, _)| other != exclude)
        .map(|(other, other_profile)| (other, profile.common_actions(other_profile) as u64))
        .filter(|&(_, score)| score > 0)
        .collect();
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
}

fn networks_as_vec(ideal: &IdealNetworks, num_users: usize) -> Vec<Vec<(u32, u64)>> {
    (0..num_users)
        .map(|idx| {
            ideal
                .network_of(p3q_trace::UserId::from_index(idx))
                .iter()
                .map(|&(u, s)| (u.0, s))
                .collect()
        })
        .collect()
}

/// A small random dataset: dense ids so collisions (shared actions, shared
/// items with different tags, full ties) are common.
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

proptest! {
    /// The counting engine equals brute force — including tie-breaking —
    /// on random datasets, for several network sizes.
    #[test]
    fn counting_engine_matches_brute_force(dataset in arb_dataset(), s in 1usize..8) {
        let expected = brute_force(&dataset, s);
        let got = networks_as_vec(&IdealNetworks::compute(&dataset, s), dataset.num_users());
        prop_assert_eq!(got, expected);
    }

    /// The counting engine equals the retained per-pair-merge reference
    /// implementation (the pre-index production code path).
    #[test]
    fn counting_engine_matches_reference_implementation(
        dataset in arb_dataset(),
        s in 1usize..8,
    ) {
        let reference = networks_as_vec(
            &IdealNetworks::compute_reference(&dataset, s),
            dataset.num_users(),
        );
        let got = networks_as_vec(&IdealNetworks::compute(&dataset, s), dataset.num_users());
        prop_assert_eq!(got, reference);
    }

    /// Thread count must never change the output — chunked parallelism with
    /// in-order reassembly is the determinism contract of the engine.
    #[test]
    fn output_is_identical_across_thread_counts(dataset in arb_dataset(), s in 1usize..6) {
        let single = networks_as_vec(
            &IdealNetworks::compute_with_threads(&dataset, s, 1),
            dataset.num_users(),
        );
        for threads in [2, 3, 8] {
            let multi = networks_as_vec(
                &IdealNetworks::compute_with_threads(&dataset, s, threads),
                dataset.num_users(),
            );
            prop_assert_eq!(&multi, &single, "threads = {}", threads);
        }
    }

    /// The raw accumulator agrees with the pairwise merge count for every
    /// (user, other) pair — a finer-grained check than the top-s networks.
    #[test]
    fn accumulator_counts_match_pairwise_merges(dataset in arb_dataset()) {
        let index = ActionIndex::build(&dataset);
        let mut scratch = SimilarityScratch::new(dataset.num_users());
        for (user, profile) in dataset.iter() {
            index.accumulate(profile, user, &mut scratch);
            let top = index.collect_top(dataset.num_users(), &mut scratch);
            for (other, other_profile) in dataset.iter() {
                let expected = if other == user {
                    0
                } else {
                    profile.common_actions(other_profile) as u64
                };
                let got = top
                    .iter()
                    .find(|&&(u, _)| u == other)
                    .map(|&(_, s)| s)
                    .unwrap_or(0);
                prop_assert_eq!(got, expected, "user {} vs {}", user, other);
            }
        }
    }
}

/// Raw material for one random dynamics step: either a profile-change batch
/// (user selectors + new actions) or the departure of one user.
type RawBatch = Vec<(usize, Vec<(u32, u32)>)>;

/// A sequence of 1–3 random change batches. User indices are selectors to be
/// reduced modulo the population; actions use the same dense id space as
/// `arb_dataset` so deltas frequently duplicate existing actions (exercising
/// the set semantics of `apply_deltas`).
fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    prop::collection::vec(
        prop::collection::vec(
            (0usize..64, prop::collection::vec((0u32..12, 0u32..6), 0..8)),
            1..5,
        ),
        1..4,
    )
}

/// One incremental step: `ideal` becomes a fully cached resolver, absorbs
/// `batch` (already applied to `dataset`) into `index`, and resolves back
/// into networks on `threads` workers. Returns the networks and the batch's
/// dirty users.
fn absorb(
    ideal: IdealNetworks,
    dataset: &Dataset,
    index: &mut ActionIndex,
    batch: &ChangeBatch,
    threads: usize,
) -> (IdealNetworks, Vec<UserId>) {
    let mut resolver = OnDemandNetworks::from(ideal);
    let outcome = resolver.apply_change_batch_with_threads(dataset, index, batch, threads);
    (
        resolver.into_ideal(dataset, index, threads),
        outcome.dirty_users(),
    )
}

/// Reduces a raw batch to a `ChangeBatch` with at most one entry per user.
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

proptest! {
    /// The incremental path — patch the index, re-score only the dirty
    /// users — equals a from-scratch `compute` over the mutated dataset
    /// after every batch, for several shard layouts.
    #[test]
    fn incremental_recompute_matches_from_scratch_oracle(
        dataset in arb_dataset(),
        batches in arb_batches(),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        let mut ideal = IdealNetworks::compute(&dataset, s);
        for (step, raw) in batches.iter().enumerate() {
            let batch = change_batch(raw, dataset.num_users());
            batch.apply(&mut dataset);
            ideal = absorb(ideal, &dataset, &mut index, &batch, default_threads()).0;
            let oracle = IdealNetworks::compute(&dataset, s);
            prop_assert_eq!(
                networks_as_vec(&ideal, dataset.num_users()),
                networks_as_vec(&oracle, dataset.num_users()),
                "diverged at step {} ({} shards)", step, shards
            );
        }
    }

    /// Churn: removing users from the index (and emptying their profiles)
    /// equals a from-scratch `compute` over the post-departure dataset,
    /// with departures and change batches interleaved.
    #[test]
    fn incremental_churn_matches_from_scratch_oracle(
        dataset in arb_dataset(),
        raw in arb_batches(),
        departures in prop::collection::vec(0usize..64, 1..5),
        s in 1usize..6,
        shards in 1usize..5,
    ) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        let ideal = IdealNetworks::compute(&dataset, s);

        // One change batch first, so departures hit freshly patched shards.
        let batch = change_batch(&raw[0], dataset.num_users());
        batch.apply(&mut dataset);
        let (ideal, _) = absorb(ideal, &dataset, &mut index, &batch, default_threads());

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
        let mut resolver = OnDemandNetworks::from(ideal);
        resolver.apply_departures(&mut index, old_profiles.iter().map(|(u, p)| (*u, p)));
        let ideal = resolver.into_ideal(&dataset, &index, default_threads());

        let oracle = IdealNetworks::compute(&dataset, s);
        prop_assert_eq!(
            networks_as_vec(&ideal, dataset.num_users()),
            networks_as_vec(&oracle, dataset.num_users())
        );
        for &u in &departed {
            prop_assert!(ideal.network_of(u).is_empty());
        }
    }

    /// The incremental path shares the determinism contract of the full
    /// computation: the worker-thread count must never change the output.
    #[test]
    fn incremental_recompute_is_thread_count_independent(
        dataset in arb_dataset(),
        raw in arb_batches(),
        s in 1usize..6,
    ) {
        let mut single_dataset = dataset.clone();
        let mut single_index = ActionIndex::build(&single_dataset);
        let mut single = IdealNetworks::compute_with_threads(&single_dataset, s, 1);
        let mut dirty_per_step = Vec::new();
        for raw_batch in &raw {
            let batch = change_batch(raw_batch, single_dataset.num_users());
            batch.apply(&mut single_dataset);
            let (networks, dirty) = absorb(single, &single_dataset, &mut single_index, &batch, 1);
            single = networks;
            dirty_per_step.push(dirty);
        }
        for threads in [2, 3, 8] {
            let mut multi_dataset = dataset.clone();
            let mut multi_index = ActionIndex::build(&multi_dataset);
            let mut multi = IdealNetworks::compute_with_threads(&multi_dataset, s, threads);
            for (raw_batch, expected_dirty) in raw.iter().zip(&dirty_per_step) {
                let batch = change_batch(raw_batch, multi_dataset.num_users());
                batch.apply(&mut multi_dataset);
                let (networks, dirty) =
                    absorb(multi, &multi_dataset, &mut multi_index, &batch, threads);
                multi = networks;
                prop_assert_eq!(&dirty, expected_dirty, "dirty sets must be deterministic");
            }
            prop_assert_eq!(
                networks_as_vec(&multi, dataset.num_users()),
                networks_as_vec(&single, dataset.num_users()),
                "threads = {}", threads
            );
        }
    }
}

proptest! {
    /// The two-pass counting kernel equals a naive per-pair counter on an
    /// index grown by deltas (dictionary-tail ids included), for every
    /// shard layout: the networks, the posting entries a sweep reads (the
    /// touched scores sum to them) and the resolver's `positions_scanned`.
    /// One scratch serves every sweep, and the sweeps alternate between
    /// touching nobody, a few users and everyone.
    #[test]
    fn counting_kernel_matches_a_naive_pair_counter(
        dataset in arb_dataset(),
        raw in arb_batches(),
        s in 1usize..8,
        shards in 1usize..6,
    ) {
        let mut dataset = dataset;
        let n = dataset.num_users();
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        for (step, raw_batch) in raw.iter().enumerate() {
            // Every change also adds an item the build never saw, so the
            // dictionary tail and the open-above last shard grow.
            let mut batch = change_batch(raw_batch, n);
            for change in &mut batch.changes {
                change.new_actions.push(TaggingAction::new(ItemId(12 + step as u32), TagId(0)));
            }
            batch.apply(&mut dataset);
            index.apply_deltas(batch.changes.iter().map(|c| (c.user, c.new_actions.as_slice())));
        }

        let everything = Profile::from_actions(
            dataset.iter().flat_map(|(_, p)| p.iter().copied()),
        );
        let empty = Profile::new();
        let nobody = UserId::from_index(n);
        let mut sweeps: Vec<(&Profile, UserId)> = Vec::new();
        for (user, profile) in dataset.iter() {
            sweeps.push((profile, user));
            sweeps.push((&everything, [UserId(0), UserId::from_index(n - 1), nobody][user.index() % 3]));
            sweeps.push((&empty, user));
        }
        let mut scratch = SimilarityScratch::new(n);
        for (profile, exclude) in sweeps {
            let expected = naive_sweep(&dataset, profile, exclude);
            index.accumulate(profile, exclude, &mut scratch);
            let all = index.collect_top(n, &mut scratch);
            prop_assert_eq!(&all, &expected, "exclude {}", exclude);
            let mut top = expected;
            top.truncate(s);
            prop_assert_eq!(index.collect_top(s, &mut scratch), top, "exclude {}", exclude);
        }

        let mut resolver = OnDemandNetworks::new(n, s);
        let mut entries = 0u64;
        for (user, profile) in dataset.iter() {
            let mut expected = naive_sweep(&dataset, profile, user);
            entries += expected.iter().map(|&(_, score)| score).sum::<u64>();
            expected.truncate(s);
            prop_assert_eq!(resolver.resolve(&dataset, &index, user), expected.as_slice());
        }
        prop_assert_eq!(resolver.stats().positions_scanned as u64, entries);
    }
}

/// One structured (non-random) cross-check on a generated trace, where the
/// community structure produces realistic overlap patterns.
#[test]
fn counting_engine_matches_reference_on_generated_trace() {
    let trace = TraceGenerator::new(TraceConfig::tiny(11)).generate();
    for s in [1, 3, 20] {
        let fast = IdealNetworks::compute(&trace.dataset, s);
        let reference = IdealNetworks::compute_reference(&trace.dataset, s);
        assert_eq!(
            networks_as_vec(&fast, trace.dataset.num_users()),
            networks_as_vec(&reference, trace.dataset.num_users()),
            "network size {s}"
        );
    }
}
