//! Demand-driven personal-network resolution with memoization and exact
//! delta invalidation.
//!
//! [`IdealNetworks`] answers "who are the `s` most similar peers of user
//! `u`?" by sweeping **every** user up front — the right shape for an
//! oracle, the wrong one for a serving path where queries are heavily
//! skewed and only a sliver of the population asks per cycle.
//! [`OnDemandNetworks`] inverts the cost model:
//!
//! * **Resolve lazily.** A user's network is computed the first time it is
//!   requested, by one counting sweep over her posting lists
//!   ([`ActionIndex::top_similar`], the point path of the oracle itself)
//!   into a scratch the resolver owns. Users nobody queries are never
//!   touched.
//! * **Memoize exactly.** Resolved networks live in a per-user cache whose
//!   invariant is byte-equality with the oracle over the *current* dataset.
//! * **Invalidate surgically.** A [`DeltaOutcome`] from
//!   [`ActionIndex::apply_deltas`] names every pair whose score moved:
//!   changing/resweep users are evicted (their whole row may have moved),
//!   while each *affected* cached entry is patched in place by re-merging
//!   only the listed partners (additions only raise scores, so re-merging
//!   the listed pairs is exact). The index emits pairs only for users the
//!   cache holds, so a write pays for the cache it invalidates, not for
//!   the population. Departures evict the dirty set returned by
//!   [`ActionIndex::remove_user`]; a departed user can only appear in the
//!   cached network of someone who shared an action with her, and sharing
//!   an action is precisely what puts a survivor in that dirty set, so
//!   eviction is complete.
//!
//! Bulk resolution ([`OnDemandNetworks::resolve_many`]) fans the cache
//! misses out over [`p3q_sim::parallel_map_chunks`], one sweep scratch per
//! worker; each miss is a pure function of `(dataset, index, user)`, so the
//! output is byte-identical for every `P3Q_THREADS` value.
//!
//! This is also the one way to keep *every* network current. A resolver
//! made by `OnDemandNetworks::from(ideal)` holds every entry, so its writes
//! see the unfiltered outcome and evict exactly the users whose networks
//! need a full sweep; [`OnDemandNetworks::into_ideal`] re-sweeps them in
//! one [`OnDemandNetworks::resolve_many`] and hands the networks back, byte
//! for byte what [`IdealNetworks::compute`] returns over the changed
//! dataset.

use p3q_sim::{default_threads, parallel_map_chunks};
use p3q_trace::{ChangeBatch, Dataset, ItemId, Profile, Query, UserId};

use crate::baseline::IdealNetworks;
use crate::scoring::full_relevance_scores;
use crate::similarity::{ActionIndex, DeltaOutcome, SimilarityScratch};

/// Above this many patch partners, evicting the entry and re-resolving it
/// with one counting sweep is cheaper than merging every pair (same
/// result). Measured optimum on the 1k–20k synthetic traces: 8 and 78 are
/// both ~25–50% slower at 20k users.
const PATCH_EVICT_THRESHOLD: usize = 16;

/// Counters describing the work a resolver instance has done — the
/// observable half of the "cost proportional to queries, not users" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Networks computed from the posting shards (cache misses).
    pub resolutions: usize,
    /// Requests answered straight from the cache.
    pub cache_hits: usize,
    /// Posting entries the resolutions' counting sweeps read: per miss, the
    /// summed posting lengths of the user's actions minus her own entries.
    /// Deterministic, and the same for every thread count.
    pub positions_scanned: usize,
    /// Always 0: a counting sweep reads every posting of the profile, so no
    /// resolution stops early. Kept for the benchmarks that report it.
    pub early_terminations: usize,
    /// Cached entries updated in place by pairwise patching.
    pub patched: usize,
    /// Cached entries dropped by invalidation.
    pub evicted: usize,
}

/// A lazily-resolved, memoized view of the ideal personal networks.
///
/// Every entry this cache ever serves is byte-identical to
/// [`IdealNetworks::compute`] over the same dataset — resolution is the
/// oracle's own counting sweep and invalidation follows the exact
/// [`DeltaOutcome`] of every write.
///
/// The resolver does not own the [`ActionIndex`]; callers pass the index
/// alongside the dataset and are responsible for keeping the two in sync.
#[derive(Debug, Clone)]
pub struct OnDemandNetworks {
    cache: Vec<Option<Vec<(UserId, u64)>>>,
    network_size: usize,
    stats: ResolveStats,
    /// The counting sweep's per-user counters, reused by every miss of
    /// [`Self::resolve`].
    scratch: SimilarityScratch,
}

impl OnDemandNetworks {
    /// An empty cache for `num_users` users and network size `s`.
    pub fn new(num_users: usize, network_size: usize) -> Self {
        Self {
            cache: vec![None; num_users],
            network_size,
            stats: ResolveStats::default(),
            scratch: SimilarityScratch::new(num_users),
        }
    }

    /// Panics unless the cache, `dataset` and, where given, `index` cover
    /// one population. O(1).
    fn assert_population(&self, dataset: &Dataset, index: Option<&ActionIndex>) {
        let (cached, users) = (self.cache.len(), dataset.num_users());
        assert!(
            cached == users,
            "the resolver covers {cached} users but the dataset {users}"
        );
        if let Some(index) = index {
            let indexed = index.num_users();
            assert!(
                indexed == users,
                "the index covers {indexed} users but the dataset {users}"
            );
        }
    }

    /// The personal-network size `s` entries are resolved at.
    pub fn network_size(&self) -> usize {
        self.network_size
    }

    /// Number of users covered (resolved or not).
    pub fn num_users(&self) -> usize {
        self.cache.len()
    }

    /// Number of currently memoized networks.
    pub fn cached_count(&self) -> usize {
        self.cache.iter().filter(|e| e.is_some()).count()
    }

    /// The memoized network of `user`, if one is cached.
    pub fn cached(&self, user: UserId) -> Option<&[(UserId, u64)]> {
        self.cache[user.index()].as_deref()
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> ResolveStats {
        self.stats
    }

    /// The personal network of `user`: the memoized one, or on a miss one
    /// counting sweep over her posting lists ([`ActionIndex::top_similar`]
    /// into the resolver's own scratch), memoized. `index` must cover
    /// exactly `dataset`.
    pub fn resolve(
        &mut self,
        dataset: &Dataset,
        index: &ActionIndex,
        user: UserId,
    ) -> &[(UserId, u64)] {
        self.assert_population(dataset, Some(index));
        if self.cache[user.index()].is_some() {
            self.stats.cache_hits += 1;
        } else {
            let network = index.top_similar(dataset, user, self.network_size, &mut self.scratch);
            self.stats.resolutions += 1;
            self.stats.positions_scanned += self.scratch.entries_read();
            self.cache[user.index()] = Some(network);
        }
        self.cache[user.index()].as_deref().expect("just resolved")
    }

    /// Resolves every user in `users` (duplicates welcome), fanning the
    /// cache misses out over `threads` workers. Byte-identical cache state
    /// and stats for every thread count.
    pub fn resolve_many(
        &mut self,
        dataset: &Dataset,
        index: &ActionIndex,
        users: &[UserId],
        threads: usize,
    ) {
        self.assert_population(dataset, Some(index));
        let mut misses: Vec<UserId> = Vec::new();
        for &user in users {
            if self.cache[user.index()].is_some() {
                self.stats.cache_hits += 1;
            } else {
                misses.push(user);
            }
        }
        misses.sort_unstable();
        misses.dedup();
        // A duplicated miss is one resolution but every extra occurrence is
        // served from the (about-to-be-filled) cache.
        self.stats.cache_hits += users
            .iter()
            .filter(|u| misses.binary_search(u).is_ok())
            .count()
            - misses.len();

        let network_size = self.network_size;
        let resolved = parallel_map_chunks(
            misses.len(),
            threads,
            || SimilarityScratch::new(dataset.num_users()),
            |i, scratch| {
                let network = index.top_similar(dataset, misses[i], network_size, scratch);
                (network, scratch.entries_read())
            },
        );
        for (user, (network, entries_read)) in misses.iter().zip(resolved) {
            self.stats.resolutions += 1;
            self.stats.positions_scanned += entries_read;
            self.cache[user.index()] = Some(network);
        }
    }

    /// Resolves every uncached entry with one [`Self::resolve_many`] over
    /// `threads` workers and hands the networks back, moved, as
    /// [`IdealNetworks`] — the way back from `OnDemandNetworks::from`.
    /// `index` must cover exactly `dataset`; the result is what
    /// [`IdealNetworks::compute`] returns over it, for every `threads`.
    pub fn into_ideal(
        mut self,
        dataset: &Dataset,
        index: &ActionIndex,
        threads: usize,
    ) -> IdealNetworks {
        self.assert_population(dataset, Some(index));
        let uncached: Vec<UserId> = (0..self.cache.len())
            .filter(|&idx| self.cache[idx].is_none())
            .map(UserId::from_index)
            .collect();
        self.resolve_many(dataset, index, &uncached, threads);
        IdealNetworks {
            per_user: self
                .cache
                .into_iter()
                .map(|entry| entry.expect("every entry was just resolved"))
                .collect(),
            network_size: self.network_size,
        }
    }

    /// Drops the cached entries of `users` (missing entries are fine).
    pub(crate) fn invalidate<I: IntoIterator<Item = UserId>>(&mut self, users: I) {
        for user in users {
            if self.cache[user.index()].take().is_some() {
                self.stats.evicted += 1;
            }
        }
    }

    /// Absorbs one batch of profile changes: patches `index` with the
    /// batch's new actions and invalidates/patches exactly the affected
    /// cached entries. Call after [`ChangeBatch::apply`] updated `dataset`.
    ///
    /// Returns the batch's delta outcome as the cache saw it: `changed` and
    /// `resweep` are complete, but `pairs` names only affected users that
    /// were cached when the call began — the index emitted no pair for
    /// anyone else.
    pub fn apply_change_batch(
        &mut self,
        dataset: &Dataset,
        index: &mut ActionIndex,
        batch: &ChangeBatch,
    ) -> DeltaOutcome {
        self.apply_change_batch_with_threads(dataset, index, batch, default_threads())
    }

    /// [`Self::apply_change_batch`] with an explicit worker-thread count.
    pub fn apply_change_batch_with_threads(
        &mut self,
        dataset: &Dataset,
        index: &mut ActionIndex,
        batch: &ChangeBatch,
        threads: usize,
    ) -> DeltaOutcome {
        let outcome = index.apply_deltas_where(
            batch
                .changes
                .iter()
                .map(|c| (c.user, c.new_actions.as_slice())),
            |user| self.cache[user as usize].is_some(),
        );
        self.apply_delta_outcome(dataset, &outcome, threads);
        outcome
    }

    /// Re-establishes the cache invariant after a [`DeltaOutcome`]:
    ///
    /// * **changing and resweep users** are evicted — any of their scores
    ///   may have moved, so their next resolution starts fresh;
    /// * every other *affected* user with a cached entry gets an **exact
    ///   pairwise patch**: her scores moved only against the partners the
    ///   outcome lists for her, and only upwards, so re-merging those pairs
    ///   and re-ranking reproduces a fresh resolution byte-for-byte — a
    ///   user outside her old top-`s` that gained nothing still has at
    ///   least `s` users ranked above her. Entries with
    ///   `PATCH_EVICT_THRESHOLD` or more partners are evicted instead —
    ///   one re-resolution is cheaper than that many profile merges.
    ///
    /// `dataset` must already reflect the batch the outcome came from. Any
    /// outcome for that batch works: the full one of
    /// [`ActionIndex::apply_deltas`], or one whose `pairs` keep at least
    /// the currently cached affected users — pairs of uncached users are
    /// skipped here either way.
    ///
    /// Uncached users cost nothing, which is the point: through
    /// [`Self::apply_change_batch`] the index asks the cache whose pairs to
    /// emit before it emits any, so the pairs this walks — and the pairs
    /// the index emitted, sorted and deduplicated — are the *cached∩dirty*
    /// overlap, not the dirty set.
    pub fn apply_delta_outcome(
        &mut self,
        dataset: &Dataset,
        outcome: &DeltaOutcome,
        threads: usize,
    ) {
        self.assert_population(dataset, None);
        // p3q-allow: hash-iter — this `changed` is the outcome's sorted
        // `Vec<UserId>`, and eviction does not depend on visit order.
        self.invalidate(outcome.changed.iter().chain(&outcome.resweep).copied());

        // Group pairs by affected user (outcome.pairs is sorted by it),
        // keeping only cached entries — everyone else, the users just
        // evicted included, re-resolves lazily.
        let mut patches: Vec<(UserId, Vec<UserId>)> = Vec::new();
        for &(affected, partner) in &outcome.pairs {
            if self.cache[affected.index()].is_none() {
                continue;
            }
            match patches.last_mut() {
                Some((user, partners)) if *user == affected => partners.push(partner),
                _ => patches.push((affected, vec![partner])),
            }
        }
        patches.retain(|(user, partners)| {
            if partners.len() >= PATCH_EVICT_THRESHOLD {
                self.invalidate([*user]);
                false
            } else {
                true
            }
        });

        let network_size = self.network_size;
        let cache = &self.cache;
        let by_rank = |a: &(UserId, u64), b: &(UserId, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let patched = parallel_map_chunks(
            patches.len(),
            threads,
            || (),
            |i, ()| {
                let (user, partners) = &patches[i];
                let mut network = cache[user.index()]
                    .clone()
                    .expect("patch targets are cached");
                let profile = dataset.profile(*user);
                for &partner in partners {
                    let score = profile.common_actions(dataset.profile(partner)) as u64;
                    debug_assert!(score > 0, "affected pairs share at least the gained action");
                    match network.iter_mut().find(|e| e.0 == partner) {
                        Some(entry) => entry.1 = score,
                        None => network.push((partner, score)),
                    }
                }
                network.sort_unstable_by(by_rank);
                network.truncate(network_size);
                network
            },
        );
        self.stats.patched += patches.len();
        for ((user, _), network) in patches.iter().zip(patched) {
            self.cache[user.index()] = Some(network);
        }
    }

    /// Absorbs a batch of departures: strips every `(user, old_profile)`
    /// pair from `index` and evicts every cached entry that could mention a
    /// departed user — exactly the dirty survivors [`ActionIndex::remove_user`]
    /// reports (a cached network can only contain a departed user if its
    /// owner shared an action with her, which is what makes the owner
    /// dirty), plus the departed users themselves.
    ///
    /// `dataset` must already hold an empty profile for each departed user.
    /// Returns the evicted user set, sorted and deduplicated.
    pub fn apply_departures<'a, I>(&mut self, index: &mut ActionIndex, departed: I) -> Vec<UserId>
    where
        I: IntoIterator<Item = (UserId, &'a Profile)>,
    {
        let mut dirty: Vec<UserId> = Vec::new();
        for (user, old_profile) in departed {
            dirty.extend(index.remove_user(user, old_profile));
            dirty.push(user);
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.invalidate(dirty.iter().copied());
        dirty
    }
}

impl From<IdealNetworks> for OnDemandNetworks {
    /// A resolver with every network of `ideal` cached. The networks are
    /// moved in, not cloned.
    fn from(ideal: IdealNetworks) -> Self {
        let num_users = ideal.per_user.len();
        Self {
            cache: ideal.per_user.into_iter().map(Some).collect(),
            network_size: ideal.network_size,
            stats: ResolveStats::default(),
            scratch: SimilarityScratch::new(num_users),
        }
    }
}

/// The centralized top-`k` of a query, resolving the querier's personal
/// network on demand — the serving-path counterpart of
/// [`centralized_topk`](crate::baseline::centralized_topk), which requires
/// the full [`IdealNetworks`] sweep.
pub fn on_demand_topk(
    dataset: &Dataset,
    index: &ActionIndex,
    resolver: &mut OnDemandNetworks,
    query: &Query,
    k: usize,
) -> Vec<(ItemId, u32)> {
    let network: Vec<UserId> = resolver
        .resolve(dataset, index, query.querier)
        .iter()
        .map(|&(user, _)| user)
        .collect();
    let profiles = network.iter().map(|&user| dataset.profile(user));
    let mut scores = full_relevance_scores(profiles, query);
    scores.truncate(k);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::centralized_topk;
    use p3q_trace::{
        DynamicsConfig, DynamicsGenerator, QueryGenerator, TraceConfig, TraceGenerator,
    };

    #[test]
    fn resolve_matches_the_oracle_and_memoizes() {
        let trace = TraceGenerator::new(TraceConfig::tiny(11)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let oracle = IdealNetworks::compute(dataset, 10);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 10);
        for user in dataset.users() {
            assert_eq!(
                resolver.resolve(dataset, &index, user),
                oracle.network_of(user)
            );
        }
        let stats = resolver.stats();
        assert_eq!(stats.resolutions, dataset.num_users());
        assert_eq!(stats.cache_hits, 0);
        // Second pass: all hits, no new work.
        for user in dataset.users() {
            let _ = resolver.resolve(dataset, &index, user);
        }
        assert_eq!(resolver.stats().resolutions, dataset.num_users());
        assert_eq!(resolver.stats().cache_hits, dataset.num_users());
        assert_eq!(resolver.cached_count(), dataset.num_users());
    }

    #[test]
    fn a_miss_counts_the_posting_entries_its_sweep_read() {
        let trace = TraceGenerator::new(TraceConfig::tiny(3)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 10);
        let mut total = 0usize;
        for user in dataset.users() {
            let profile = dataset.profile(user);
            // She is on the posting of each of her own actions once.
            let postings: usize = profile.iter().map(|a| index.taggers_of(a).len()).sum();
            let read = postings - profile.len();
            total += read;
            let _ = resolver.resolve(dataset, &index, user);
            assert_eq!(resolver.stats().positions_scanned, total, "miss of {user}");
            let _ = resolver.resolve(dataset, &index, user);
            assert_eq!(resolver.stats().positions_scanned, total, "hit of {user}");
        }
        assert!(total > 0);
        assert_eq!(resolver.stats().early_terminations, 0);
        let all: Vec<UserId> = dataset.users().collect();
        for threads in [1, 3] {
            let mut many = OnDemandNetworks::new(dataset.num_users(), 10);
            many.resolve_many(dataset, &index, &all, threads);
            assert_eq!(many.stats().positions_scanned, total, "threads={threads}");
        }
    }

    #[test]
    fn resolve_many_is_thread_count_invariant() {
        let trace = TraceGenerator::new(TraceConfig::tiny(4)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let users: Vec<UserId> = dataset.users().step_by(2).collect();
        type CacheSnapshot = Vec<Option<Vec<(UserId, u64)>>>;
        let mut reference: Option<(CacheSnapshot, ResolveStats)> = None;
        for threads in [1usize, 3, 8] {
            let mut resolver = OnDemandNetworks::new(dataset.num_users(), 5);
            resolver.resolve_many(dataset, &index, &users, threads);
            let snapshot = (resolver.cache.clone(), resolver.stats());
            match &reference {
                None => reference = Some(snapshot),
                Some(r) => assert_eq!(*r, snapshot, "threads={threads}"),
            }
        }
    }

    #[test]
    fn resolve_many_counts_duplicates_as_hits() {
        let trace = TraceGenerator::new(TraceConfig::tiny(2)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 5);
        let u = UserId(0);
        resolver.resolve_many(dataset, &index, &[u, u, u], 2);
        assert_eq!(resolver.stats().resolutions, 1);
        assert_eq!(resolver.stats().cache_hits, 2);
        resolver.resolve_many(dataset, &index, &[u], 2);
        assert_eq!(resolver.stats().cache_hits, 3);
    }

    #[test]
    fn delta_invalidation_keeps_cached_entries_oracle_equal() {
        let trace = TraceGenerator::new(TraceConfig::tiny(7)).generate();
        let mut dataset = trace.dataset.clone();
        let mut index = ActionIndex::build(&dataset);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 10);
        // Warm the whole cache so every delta path (evict, patch, untouched)
        // is exercised against memoized state.
        let all: Vec<UserId> = dataset.users().collect();
        resolver.resolve_many(&dataset, &index, &all, 2);
        for day in 0..3u64 {
            let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(day)).generate(&trace);
            batch.apply(&mut dataset);
            resolver.apply_change_batch_with_threads(&dataset, &mut index, &batch, 2);
            let oracle = IdealNetworks::compute(&dataset, 10);
            for user in dataset.users() {
                // Surviving cached entries must already be fresh...
                if let Some(cached) = resolver.cached(user) {
                    assert_eq!(cached, oracle.network_of(user), "day {day}, cached {user}");
                }
                // ...and evicted ones re-resolve to the oracle.
                assert_eq!(
                    resolver.resolve(&dataset, &index, user),
                    oracle.network_of(user),
                    "day {day}, user {user}"
                );
            }
        }
        let stats = resolver.stats();
        assert!(stats.evicted > 0, "dynamics must evict changing users");
    }

    #[test]
    fn departures_evict_every_entry_that_could_mention_them() {
        let trace = TraceGenerator::new(TraceConfig::tiny(13)).generate();
        let mut dataset = trace.dataset.clone();
        let mut index = ActionIndex::build(&dataset);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 10);
        let all: Vec<UserId> = dataset.users().collect();
        resolver.resolve_many(&dataset, &index, &all, 2);

        let departed: Vec<UserId> = dataset.users().step_by(3).collect();
        let old_profiles: Vec<(UserId, Profile)> = departed
            .iter()
            .map(|&u| (u, dataset.profile(u).clone()))
            .collect();
        for &u in &departed {
            *dataset.profile_mut(u) = Profile::new();
        }
        resolver.apply_departures(&mut index, old_profiles.iter().map(|(u, p)| (*u, p)));

        let oracle = IdealNetworks::compute(&dataset, 10);
        for user in dataset.users() {
            if let Some(cached) = resolver.cached(user) {
                assert_eq!(cached, oracle.network_of(user), "cached {user}");
            }
            assert_eq!(
                resolver.resolve(&dataset, &index, user),
                oracle.network_of(user),
                "{user}"
            );
        }
        for &u in &departed {
            assert!(resolver.resolve(&dataset, &index, u).is_empty());
        }
    }

    #[test]
    fn on_demand_topk_matches_centralized_topk() {
        let trace = TraceGenerator::new(TraceConfig::tiny(5)).generate();
        let dataset = &trace.dataset;
        let index = ActionIndex::build(dataset);
        let ideal = IdealNetworks::compute(dataset, 20);
        let mut resolver = OnDemandNetworks::new(dataset.num_users(), 20);
        let queries = QueryGenerator::new(1).one_query_per_user(dataset);
        for q in queries.iter().take(15) {
            assert_eq!(
                on_demand_topk(dataset, &index, &mut resolver, q, 5),
                centralized_topk(dataset, &ideal, q, 5),
            );
        }
        // Only queriers were resolved.
        assert_eq!(resolver.stats().resolutions, resolver.cached_count());
        assert!(resolver.cached_count() <= 15);
    }

    #[test]
    #[should_panic(expected = "the resolver covers 40 users but the dataset 0")]
    fn a_dataset_of_another_size_is_refused() {
        let nobody = Dataset::default();
        let resolver = OnDemandNetworks::new(40, 5);
        let _ = resolver.into_ideal(&nobody, &ActionIndex::build(&nobody), 1);
    }
}
