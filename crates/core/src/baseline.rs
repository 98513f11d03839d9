//! The centralized reference P3Q is evaluated against.
//!
//! Two pieces of global knowledge are computed offline:
//!
//! * the **ideal personal network** of every user — the `s` users with the
//!   highest (positive) similarity score, computed from all profiles
//!   (Section 3.2.1 uses it as the target of the convergence experiment);
//! * the **centralized top-k** of every query — the result a centralized
//!   implementation of the protocol would return using the querier's ideal
//!   personal network (Section 3.2.2 uses it as the reference for the recall
//!   metric).

use std::collections::HashMap;

use p3q_sim::{default_threads, parallel_map};
use p3q_trace::{Dataset, ItemId, Query, UserId};

use crate::scoring::{full_relevance_scores, similarity};
use crate::similarity::{ActionIndex, SimilarityScratch, TransposedIds};

/// Users per transposition block of the bulk sweep
/// ([`IdealNetworks::compute_with_index_threads`]). A block costs one
/// two-pass read of the whole posting column and holds its users' action
/// ids (4 bytes each — ≈ 7.7 MB at the paper's ≈ 118 actions a user), so
/// the size trades passes against transient bytes; at 16 384 a 50k-user
/// sweep pays four transpositions for the ≈ 5.9 M dictionary lookups they
/// replace.
const SWEEP_BLOCK_USERS: usize = 16_384;

/// The ideal personal networks of every user, computed from global
/// knowledge.
///
/// The networks are read-only here. To keep them current under profile
/// changes or departures, convert them into a fully cached
/// [`OnDemandNetworks`](crate::resolver::OnDemandNetworks) (a move), write
/// through it, and take the networks back with
/// [`OnDemandNetworks::into_ideal`](crate::resolver::OnDemandNetworks::into_ideal).
#[derive(Debug, Clone)]
pub struct IdealNetworks {
    pub(crate) per_user: Vec<Vec<(UserId, u64)>>,
    pub(crate) network_size: usize,
}

impl IdealNetworks {
    /// Computes the ideal personal network (top-`s` most similar users with a
    /// positive score) of every user.
    ///
    /// The computation runs on the counting [`ActionIndex`]: one inverted
    /// index over all `(item, tag)` actions, then a single counting sweep
    /// per user whose cost is proportional to the shared-action mass instead
    /// of the candidate profile lengths. The users fan out over all
    /// available cores in contiguous ranges (override with the
    /// `P3Q_THREADS` environment variable); results are identical for every
    /// thread count.
    pub fn compute(dataset: &Dataset, network_size: usize) -> Self {
        Self::compute_with_threads(dataset, network_size, default_threads())
    }

    /// [`Self::compute`] with an explicit worker-thread count. Output is a
    /// pure function of the dataset and `network_size`; `threads` only
    /// changes the wall-clock time.
    pub fn compute_with_threads(dataset: &Dataset, network_size: usize, threads: usize) -> Self {
        let index = ActionIndex::build(dataset);
        Self::compute_with_index_threads(dataset, network_size, &index, threads)
    }

    /// [`Self::compute`] over an already-built index (which must cover
    /// exactly `dataset`), saving the build — an `O(A + I)` counting pass
    /// over `A` actions and `I` item ids, with about 12 transient bytes an
    /// action — when the caller keeps the index around, the usual case on
    /// the incremental path.
    pub fn compute_with_index(dataset: &Dataset, network_size: usize, index: &ActionIndex) -> Self {
        Self::compute_with_index_threads(dataset, network_size, index, default_threads())
    }

    /// [`Self::compute_with_index`] with an explicit worker-thread count.
    ///
    /// This is the bulk path (see the [`crate::similarity`] module docs): no
    /// profile is interned. Each worker takes one contiguous user range and
    /// walks it in fixed-size blocks — one transposition of the index reads
    /// the block's action ids back off the posting column, then every user
    /// of the block is swept from her slice. `dataset` only fixes the
    /// population here; the networks are those of the profiles the index
    /// holds. Output is independent of `threads`.
    pub fn compute_with_index_threads(
        dataset: &Dataset,
        network_size: usize,
        index: &ActionIndex,
        threads: usize,
    ) -> Self {
        Self::compute_in_blocks(dataset, network_size, index, threads, SWEEP_BLOCK_USERS)
    }

    /// [`Self::compute_with_index_threads`] with the transposition block
    /// size spelled out, so tests can force many small blocks; neither
    /// `threads` nor `block_users` changes the output.
    fn compute_in_blocks(
        dataset: &Dataset,
        network_size: usize,
        index: &ActionIndex,
        threads: usize,
        block_users: usize,
    ) -> Self {
        let num_users = dataset.num_users();
        assert_eq!(
            index.num_users(),
            num_users,
            "index and dataset cover different populations"
        );
        // One contiguous user range per worker (`parallel_map` hands each
        // worker exactly one range index), blocks inside the range.
        let workers = threads.clamp(1, num_users.max(1));
        let range_users = num_users.div_ceil(workers);
        let per_range = parallel_map(
            0..workers,
            workers,
            || (SimilarityScratch::new(num_users), TransposedIds::default()),
            |worker, (scratch, ids)| {
                let end = ((worker + 1) * range_users).min(num_users);
                let mut block_start = (worker * range_users).min(end);
                let mut networks = Vec::with_capacity(end - block_start);
                while block_start < end {
                    let block_end = (block_start + block_users).min(end);
                    index.transpose_into(block_start..block_end, ids);
                    for idx in block_start..block_end {
                        let user = UserId::from_index(idx);
                        index.accumulate_ids(ids.of(idx - block_start), user, scratch);
                        networks.push(index.collect_top(network_size, scratch));
                    }
                    block_start = block_end;
                }
                networks
            },
        );
        Self {
            per_user: per_range.into_iter().flatten().collect(),
            network_size,
        }
    }

    /// The pre-index reference implementation: an item → users candidate
    /// index plus one full `O(|P_a| + |P_b|)` sorted-profile merge per
    /// candidate pair.
    ///
    /// Kept as the correctness oracle for the property tests and as the
    /// baseline the similarity benchmarks measure the counting engine
    /// against. Produces byte-identical results to [`Self::compute`].
    pub fn compute_reference(dataset: &Dataset, network_size: usize) -> Self {
        // Inverted index: item -> users that tagged it.
        let mut item_users: HashMap<ItemId, Vec<UserId>> = HashMap::new();
        for (user, profile) in dataset.iter() {
            for item in profile.items() {
                item_users.entry(item).or_default().push(user);
            }
        }

        let mut per_user = Vec::with_capacity(dataset.num_users());
        for (user, profile) in dataset.iter() {
            // Candidate users sharing at least one item.
            let mut candidates: Vec<UserId> = profile
                .items()
                .filter_map(|item| item_users.get(&item))
                .flatten()
                .copied()
                .filter(|&other| other != user)
                .collect();
            candidates.sort_unstable();
            candidates.dedup();

            let mut scored: Vec<(UserId, u64)> = candidates
                .into_iter()
                .map(|other| (other, similarity(profile, dataset.profile(other))))
                .filter(|&(_, score)| score > 0)
                .collect();
            scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            scored.truncate(network_size);
            per_user.push(scored);
        }
        Self {
            per_user,
            network_size,
        }
    }

    /// The requested personal-network size `s`.
    pub fn network_size(&self) -> usize {
        self.network_size
    }

    /// The ideal personal network of one user: `(neighbour, score)` pairs in
    /// descending score order (at most `s`, possibly fewer if not enough
    /// users share anything with her).
    pub fn network_of(&self, user: UserId) -> &[(UserId, u64)] {
        &self.per_user[user.index()]
    }

    /// The ideal neighbours of one user, without scores.
    pub fn neighbours_of(&self, user: UserId) -> Vec<UserId> {
        self.per_user[user.index()]
            .iter()
            .map(|&(u, _)| u)
            .collect()
    }

    /// Number of users covered.
    pub fn num_users(&self) -> usize {
        self.per_user.len()
    }
}

/// The centralized reference result of a query: the exact top-`k` computed
/// over the profiles of the querier's ideal personal network.
pub fn centralized_topk(
    dataset: &Dataset,
    ideal: &IdealNetworks,
    query: &Query,
    k: usize,
) -> Vec<(ItemId, u32)> {
    let profiles = ideal
        .network_of(query.querier)
        .iter()
        .map(|&(user, _)| dataset.profile(user));
    let mut scores = full_relevance_scores(profiles, query);
    scores.truncate(k);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::OnDemandNetworks;
    use p3q_trace::{Profile, QueryGenerator, TagId, TaggingAction, TraceConfig, TraceGenerator};

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn tiny_dataset() -> Dataset {
        // u0 and u1 share two actions; u2 shares one with u0; u3 is isolated.
        let p0 = Profile::from_actions(vec![act(1, 1), act(2, 2), act(3, 3)]);
        let p1 = Profile::from_actions(vec![act(1, 1), act(2, 2)]);
        let p2 = Profile::from_actions(vec![act(3, 3), act(9, 9)]);
        let p3 = Profile::from_actions(vec![act(100, 100)]);
        Dataset::new(vec![p0, p1, p2, p3], 200, 200)
    }

    #[test]
    fn ideal_networks_rank_by_similarity() {
        let d = tiny_dataset();
        let ideal = IdealNetworks::compute(&d, 10);
        assert_eq!(
            ideal.network_of(UserId(0)),
            &[(UserId(1), 2), (UserId(2), 1)]
        );
        assert_eq!(ideal.neighbours_of(UserId(1)), vec![UserId(0)]);
        assert!(ideal.network_of(UserId(3)).is_empty());
        assert_eq!(ideal.num_users(), 4);
    }

    #[test]
    fn network_size_truncates() {
        let d = tiny_dataset();
        let ideal = IdealNetworks::compute(&d, 1);
        assert_eq!(ideal.network_of(UserId(0)).len(), 1);
        assert_eq!(ideal.network_of(UserId(0))[0].0, UserId(1));
    }

    #[test]
    fn zero_score_pairs_are_excluded() {
        let d = tiny_dataset();
        let ideal = IdealNetworks::compute(&d, 10);
        // u3 shares nothing with anyone: excluded everywhere.
        for user in d.users() {
            assert!(!ideal.neighbours_of(user).contains(&UserId(3)));
        }
    }

    #[test]
    fn centralized_topk_scores_over_ideal_network() {
        let d = tiny_dataset();
        let ideal = IdealNetworks::compute(&d, 10);
        // u0 queries for tags 1 and 2: her network is {u1, u2}; u1 tagged
        // item 1 with tag 1 and item 2 with tag 2; u2 contributes nothing.
        let q = Query::new(UserId(0), vec![TagId(1), TagId(2)], ItemId(1));
        let top = centralized_topk(&d, &ideal, &q, 10);
        assert_eq!(top, vec![(ItemId(1), 1), (ItemId(2), 1)]);
    }

    #[test]
    fn ideal_networks_on_generated_trace_are_symmetric_in_score() {
        let trace = TraceGenerator::new(TraceConfig::tiny(3)).generate();
        let ideal = IdealNetworks::compute(&trace.dataset, 20);
        // Similarity is symmetric, so if b is a's strongest neighbour with
        // score x, then a must appear in b's network with the same score
        // (as long as b's network is not full of better neighbours).
        for user in trace.dataset.users() {
            for &(other, score) in ideal.network_of(user) {
                let back = ideal.network_of(other).iter().find(|&&(u, _)| u == user);
                if let Some(&(_, back_score)) = back {
                    assert_eq!(score, back_score);
                }
            }
        }
    }

    #[test]
    fn bulk_compute_equals_the_one_user_sweep_for_every_block_and_thread_count() {
        let trace = TraceGenerator::new(TraceConfig::tiny(11)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let mut scratch = SimilarityScratch::new(dataset.num_users());
        let one_by_one: Vec<Vec<(UserId, u64)>> = dataset
            .users()
            .map(|user| index.top_similar(dataset, user, 10, &mut scratch))
            .collect();
        for threads in [1usize, 3, 8] {
            for block_users in [1usize, 7, SWEEP_BLOCK_USERS] {
                let bulk =
                    IdealNetworks::compute_in_blocks(dataset, 10, &index, threads, block_users);
                assert_eq!(
                    bulk.per_user, one_by_one,
                    "{threads} threads, blocks of {block_users}"
                );
            }
        }
        // More workers than users, and nobody at all.
        let few = Dataset::new(
            dataset.iter().take(3).map(|(_, p)| p.clone()).collect(),
            200,
            200,
        );
        let bulk =
            IdealNetworks::compute_with_index_threads(&few, 10, &ActionIndex::build(&few), 8);
        assert_eq!(
            bulk.per_user,
            IdealNetworks::compute_reference(&few, 10).per_user
        );
        let nobody = Dataset::default();
        let bulk =
            IdealNetworks::compute_with_index_threads(&nobody, 10, &ActionIndex::build(&nobody), 3);
        assert_eq!(bulk.num_users(), 0);
    }

    #[test]
    fn networks_are_held_at_their_own_size() {
        // Every sweep touches far more users than it keeps; a network must
        // not carry the touched set's capacity — not out of the bulk
        // compute, and not after the point path rewrote it.
        let held = |ideal: &IdealNetworks| {
            let length: usize = ideal.per_user.iter().map(Vec::len).sum();
            let capacity: usize = ideal.per_user.iter().map(Vec::capacity).sum();
            assert!(length > 0);
            assert!(
                capacity <= 2 * length,
                "{capacity} pairs of capacity for {length} pairs of network"
            );
        };
        let config = TraceConfig {
            num_users: 300,
            ..TraceConfig::tiny(17)
        };
        let trace = TraceGenerator::new(config).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let ideal = IdealNetworks::compute_with_index(dataset, 5, &index);
        // The bound bites: a sweep touches several times what it keeps.
        let touched = IdealNetworks::compute_with_index(dataset, usize::MAX, &index);
        let kept: usize = ideal.per_user.iter().map(Vec::len).sum();
        assert!(touched.per_user.iter().map(Vec::len).sum::<usize>() > 4 * kept);
        held(&ideal);
        let mut resolver = OnDemandNetworks::from(ideal);
        resolver.invalidate(dataset.users());
        let ideal = resolver.into_ideal(dataset, &index, 2);
        held(&ideal);
    }

    #[test]
    fn incremental_change_batches_match_from_scratch_compute() {
        use p3q_trace::{DynamicsConfig, DynamicsGenerator};
        let trace = TraceGenerator::new(TraceConfig::tiny(7)).generate();
        let mut dataset = trace.dataset.clone();
        let mut index = ActionIndex::build(&dataset);
        let mut ideal = IdealNetworks::compute(&dataset, 10);
        for day in 0..3u64 {
            let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(day)).generate(&trace);
            batch.apply(&mut dataset);
            let mut resolver = OnDemandNetworks::from(ideal);
            let outcome = resolver.apply_change_batch(&dataset, &mut index, &batch);
            assert!(
                batch.is_empty() || !outcome.dirty_users().is_empty(),
                "a non-empty batch must dirty at least the changing users"
            );
            ideal = resolver.into_ideal(&dataset, &index, 2);
            let oracle = IdealNetworks::compute(&dataset, 10);
            for user in dataset.users() {
                assert_eq!(
                    ideal.network_of(user),
                    oracle.network_of(user),
                    "day {day}, user {user}"
                );
            }
        }
    }

    #[test]
    fn incremental_departures_match_from_scratch_compute() {
        let trace = TraceGenerator::new(TraceConfig::tiny(13)).generate();
        let mut dataset = trace.dataset.clone();
        let mut index = ActionIndex::build(&dataset);
        let mut resolver = OnDemandNetworks::from(IdealNetworks::compute(&dataset, 10));
        let departed: Vec<UserId> = dataset.users().step_by(3).collect();
        let old_profiles: Vec<(UserId, Profile)> = departed
            .iter()
            .map(|&u| (u, dataset.profile(u).clone()))
            .collect();
        for &u in &departed {
            *dataset.profile_mut(u) = Profile::new();
        }
        resolver.apply_departures(&mut index, old_profiles.iter().map(|(u, p)| (*u, p)));
        let ideal = resolver.into_ideal(&dataset, &index, 2);
        let oracle = IdealNetworks::compute(&dataset, 10);
        for user in dataset.users() {
            assert_eq!(ideal.network_of(user), oracle.network_of(user), "{user}");
        }
        for &u in &departed {
            assert!(ideal.network_of(u).is_empty());
        }
    }

    #[test]
    fn an_empty_resolver_resolves_into_the_full_compute() {
        let trace = TraceGenerator::new(TraceConfig::tiny(9)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let oracle = IdealNetworks::compute(dataset, 10);
        for threads in [1, 3] {
            let ideal =
                OnDemandNetworks::new(dataset.num_users(), 10).into_ideal(dataset, &index, threads);
            assert_eq!(ideal.network_size(), 10);
            assert_eq!(ideal.per_user, oracle.per_user, "threads={threads}");
        }
    }

    #[test]
    fn centralized_results_respect_k_and_ordering() {
        let trace = TraceGenerator::new(TraceConfig::tiny(5)).generate();
        let ideal = IdealNetworks::compute(&trace.dataset, 20);
        let queries = QueryGenerator::new(1).one_query_per_user(&trace.dataset);
        for q in queries.iter().take(10) {
            let top = centralized_topk(&trace.dataset, &ideal, q, 5);
            assert!(top.len() <= 5);
            for pair in top.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
        }
    }
}
