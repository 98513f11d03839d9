//! Query-side state: what the querier and every helping user keep while a
//! query is being processed in eager mode.

use p3q_topk::{IncrementalNra, PartialResultList, RankedItem};
use p3q_trace::{ItemId, Query, UserId};

use crate::bandwidth::QueryTraffic;

/// Identifier of a query instance (unique within one simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// One node's per-query state, kept sorted by query id: the querier's own
/// queries or the remaining-list shares it took over.
///
/// The book is empty on the overwhelming majority of nodes at any instant,
/// so the entries are boxed on first insert: an empty book is one null
/// pointer (8 bytes) in the node. Lookups are binary searches, and every
/// walk visits the entries in ascending id order, so no plan or commit
/// depends on a hash seed.
#[derive(Debug, Clone)]
pub struct QueryBook<V> {
    // The Box is deliberate: an inline `Vec` would cost 24 bytes in every
    // node, while the pointer keeps the common empty case at 8.
    #[allow(clippy::box_collection)]
    entries: Option<Box<Vec<(QueryId, V)>>>,
}

impl<V> Default for QueryBook<V> {
    fn default() -> Self {
        Self { entries: None }
    }
}

impl<V> QueryBook<V> {
    /// The entries, sorted by id (empty if none was ever inserted).
    fn entries(&self) -> &[(QueryId, V)] {
        self.entries.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The slot of `id`: `Ok` where it is, `Err` where it would go.
    fn slot(&self, id: QueryId) -> Result<usize, usize> {
        self.entries().binary_search_by_key(&id, |(key, _)| *key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Returns `true` if the book holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The state of query `id`, if present.
    pub fn get(&self, id: &QueryId) -> Option<&V> {
        let at = self.slot(*id).ok()?;
        Some(&self.entries()[at].1)
    }

    /// The state of query `id`, mutably, if present.
    pub fn get_mut(&mut self, id: &QueryId) -> Option<&mut V> {
        let at = self.slot(*id).ok()?;
        Some(self.value_at(at))
    }

    /// Records `value` under `id`, replacing any state recorded before.
    pub fn insert(&mut self, id: QueryId, value: V) {
        match self.slot(id) {
            Ok(at) => *self.value_at(at) = value,
            Err(at) => self.insert_at(at, id, value),
        }
    }

    /// The state of query `id`, first recording `make()` under it if absent.
    pub(crate) fn get_or_insert_with(&mut self, id: QueryId, make: impl FnOnce() -> V) -> &mut V {
        let at = self.slot(id).unwrap_or_else(|at| {
            self.insert_at(at, id, make());
            at
        });
        self.value_at(at)
    }

    /// Removes the state of query `id`, if present; the book frees its
    /// entries once the last one goes.
    pub(crate) fn remove(&mut self, id: &QueryId) {
        if let (Ok(at), Some(entries)) = (self.slot(*id), self.entries.as_mut()) {
            entries.remove(at);
            if entries.is_empty() {
                self.entries = None;
            }
        }
    }

    fn value_at(&mut self, at: usize) -> &mut V {
        &mut self.entries.as_mut().expect("a found slot is allocated")[at].1
    }

    fn insert_at(&mut self, at: usize, id: QueryId, value: V) {
        self.entries
            .get_or_insert_with(Box::default)
            .insert(at, (id, value));
    }

    /// Keeps only the states `keep` approves; like `remove`, frees the
    /// entries once none is left.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        if let Some(entries) = self.entries.as_mut() {
            entries.retain(|(_, value)| keep(value));
            if entries.is_empty() {
                self.entries = None;
            }
        }
    }

    /// The `(id, state)` entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &V)> {
        self.entries().iter().map(|(id, value)| (*id, value))
    }

    /// The states in ascending id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries
            .iter_mut()
            .flat_map(|entries| entries.iter_mut().map(|(_, value)| value))
    }

    /// Resident bytes: the boxed entry vector once allocated (approximated
    /// by the entry count), nothing before.
    pub fn storage_bytes(&self) -> usize {
        self.entries.as_ref().map_or(0, |entries| {
            std::mem::size_of::<Vec<(QueryId, V)>>()
                + entries.len() * std::mem::size_of::<(QueryId, V)>()
        })
    }
}

/// Adds `user` to an ascending, distinct user list, if it is not there yet.
pub(crate) fn insert_sorted(users: &mut Vec<UserId>, user: UserId) {
    if let Err(at) = users.binary_search(&user) {
        users.insert(at, user);
    }
}

/// The querier's bookkeeping for one of her own queries (Algorithm 2).
#[derive(Debug, Clone)]
pub struct QuerierState {
    /// The query being processed.
    pub query: Query,
    /// The incremental NRA instance merging partial result lists.
    pub nra: IncrementalNra<ItemId>,
    /// Users whose profiles have been used so far, ascending and distinct
    /// (the querier estimates the result quality from this set).
    pub used_profiles: Vec<UserId>,
    /// Users that processed the query (gossip destinations), excluding the
    /// querier herself, ascending and distinct — the population measured by
    /// Figure 8.
    pub reached_users: Vec<UserId>,
    /// The querier's own remaining list `L_Q(u_i)`.
    pub remaining: Vec<UserId>,
    /// The personal network at query time: the target set of profiles the
    /// query should eventually cover.
    pub target_profiles: Vec<UserId>,
    /// Cycle at which the query was issued.
    pub started_cycle: u64,
    /// Cycle at which the query reached its best possible result, if it did.
    pub completed_cycle: Option<u64>,
    /// Per-query traffic accounting (Figure 6).
    pub traffic: QueryTraffic,
    /// Fault-hardening: cycle after which an incomplete query is abandoned
    /// (`0` = no deadline). Set from `P3qConfig::query_ttl_cycles` at issue
    /// time.
    pub deadline_cycle: u64,
    /// Fault-hardening: `used_profiles` count at the last progress check —
    /// the retry machinery's notion of "something arrived since".
    pub progress_marker: usize,
    /// Fault-hardening: last cycle at which the query made progress (or
    /// retried). Seeds the backoff clock.
    pub last_progress_cycle: u64,
    /// Fault-hardening: number of retries fired so far (doubles the
    /// backoff).
    pub retries: u32,
}

impl QuerierState {
    /// Creates the state for a freshly issued query.
    pub fn new(query: Query, target_profiles: Vec<UserId>, started_cycle: u64) -> Self {
        Self {
            query,
            nra: IncrementalNra::new(),
            used_profiles: Vec::new(),
            reached_users: Vec::new(),
            remaining: Vec::new(),
            target_profiles,
            started_cycle,
            completed_cycle: None,
            traffic: QueryTraffic::default(),
            deadline_cycle: 0,
            progress_marker: 0,
            last_progress_cycle: started_cycle,
            retries: 0,
        }
    }

    /// Feeds one partial result list (plus the set of profiles it was built
    /// from) into the querier's NRA.
    pub(crate) fn absorb_partial_result(
        &mut self,
        list: PartialResultList<ItemId>,
        used: &[UserId],
    ) {
        for &user in used {
            insert_sorted(&mut self.used_profiles, user);
        }
        if !list.is_empty() {
            self.nra.push_list(list);
        }
    }

    /// The current top-k estimate with the information received so far.
    pub fn current_topk(&mut self, k: usize) -> Vec<RankedItem<ItemId>> {
        self.nra.topk(k)
    }

    /// Fraction of the target profiles already used for the computation —
    /// the quality estimator the paper lets the user consult.
    pub fn coverage(&self) -> f64 {
        if self.target_profiles.is_empty() {
            return 1.0;
        }
        let covered = self
            .target_profiles
            .iter()
            .filter(|u| self.used_profiles.binary_search(u).is_ok())
            .count();
        covered as f64 / self.target_profiles.len() as f64
    }

    /// Returns `true` once every target profile has been used — the point at
    /// which the querier "stops waiting for incoming partial result lists".
    pub fn is_complete(&self) -> bool {
        self.target_profiles
            .iter()
            .all(|u| self.used_profiles.binary_search(u).is_ok())
    }

    /// Marks the completion cycle the first time the query becomes complete.
    pub(crate) fn mark_complete_if_done(&mut self, cycle: u64) {
        if self.completed_cycle.is_none() && self.is_complete() {
            self.completed_cycle = Some(cycle);
        }
    }

    /// Number of cycles from issue to completion, if the query completed.
    pub fn completion_latency(&self) -> Option<u64> {
        self.completed_cycle.map(|c| c - self.started_cycle)
    }

    /// Returns `true` if the query has a deadline, the deadline has passed
    /// and the query is still incomplete — the querier stops re-gossiping
    /// it (its latency is reported as "lost" by the loss metrics).
    pub(crate) fn is_expired(&self, cycle: u64) -> bool {
        self.deadline_cycle != 0 && cycle >= self.deadline_cycle && !self.is_complete()
    }

    /// Retry-with-backoff step, run once per cycle by the eager prepare
    /// phase when `retry_backoff_cycles > 0`.
    ///
    /// A dropped or crashed carrier leaves no trace at the querier: some
    /// share of the remaining list simply never reports back. Progress is
    /// therefore measured by `used_profiles` growth; once
    /// `backoff · 2^retries` cycles pass without any, the still-uncovered
    /// target profiles are re-added to the querier's own remaining list and
    /// re-delegated by the next plan phase. Duplicate deliveries caused by
    /// a retried target that was merely *slow* are idempotent —
    /// `used_profiles` is a set — so a spurious retry costs bandwidth, not
    /// correctness.
    ///
    /// Returns `true` if a retry fired.
    pub(crate) fn maybe_retry(&mut self, cycle: u64, backoff_cycles: u64) -> bool {
        if self.is_complete() || self.is_expired(cycle) {
            return false;
        }
        let used = self.used_profiles.len();
        if used > self.progress_marker {
            self.progress_marker = used;
            self.last_progress_cycle = cycle;
            return false;
        }
        // Cap the shift: beyond a handful of doublings the wait exceeds any
        // realistic deadline anyway, and 2^63 would overflow.
        let wait = backoff_cycles.saturating_mul(1u64 << self.retries.min(16));
        if cycle.saturating_sub(self.last_progress_cycle) < wait {
            return false;
        }
        let mut added = false;
        // Iterate targets in their recorded (deterministic) order so the
        // rebuilt remaining list is identical across thread counts.
        for idx in 0..self.target_profiles.len() {
            let user = self.target_profiles[idx];
            if self.used_profiles.binary_search(&user).is_err() && !self.remaining.contains(&user) {
                self.remaining.push(user);
                added = true;
            }
        }
        self.retries += 1;
        self.last_progress_cycle = cycle;
        added
    }
}

/// The share of a query's remaining list a non-querier node took over
/// (Algorithm 3, gossip-destination side).
#[derive(Debug, Clone)]
pub struct RemainingTask {
    /// The user who issued the query (partial results are sent to her).
    pub querier: UserId,
    /// The query itself.
    pub query: Query,
    /// This node's remaining list `L_Q(u_dest)`.
    pub remaining: Vec<UserId>,
    /// Fault-hardening: cycle at which this share expires and is shed by
    /// the prepare phase (`0` = never). Refreshed whenever a new share of
    /// the same query is merged in, so only genuinely dead work is dropped.
    pub expires_cycle: u64,
}

impl RemainingTask {
    /// Returns `true` if this share has a TTL and it has lapsed.
    pub(crate) fn is_expired(&self, cycle: u64) -> bool {
        self.expires_cycle != 0 && cycle >= self.expires_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::TagId;

    fn query() -> Query {
        Query::new(UserId(0), vec![TagId(1), TagId(2)], ItemId(5))
    }

    fn list(pairs: &[(u32, u32)]) -> PartialResultList<ItemId> {
        PartialResultList::from_scores(pairs.iter().map(|&(i, s)| (ItemId(i), s)))
    }

    #[test]
    fn coverage_and_completion_track_used_profiles() {
        let targets = vec![UserId(1), UserId(2), UserId(3), UserId(4)];
        let mut st = QuerierState::new(query(), targets, 0);
        assert_eq!(st.coverage(), 0.0);
        assert!(!st.is_complete());

        st.absorb_partial_result(list(&[(1, 3)]), &[UserId(1), UserId(2)]);
        assert!((st.coverage() - 0.5).abs() < 1e-12);

        // A duplicate delivery (a retried target that was merely slow) adds
        // nothing: the used profiles stay ascending and distinct.
        st.absorb_partial_result(list(&[(1, 3)]), &[UserId(2), UserId(1)]);
        assert_eq!(st.used_profiles, vec![UserId(1), UserId(2)]);

        st.absorb_partial_result(list(&[(2, 1)]), &[UserId(4), UserId(3)]);
        assert_eq!(
            st.used_profiles,
            vec![UserId(1), UserId(2), UserId(3), UserId(4)]
        );
        assert!(st.is_complete());
        st.mark_complete_if_done(7);
        assert_eq!(st.completed_cycle, Some(7));
        assert_eq!(st.completion_latency(), Some(7));
        // A later call must not overwrite the completion cycle.
        st.mark_complete_if_done(9);
        assert_eq!(st.completed_cycle, Some(7));
    }

    #[test]
    fn absorbed_lists_feed_the_nra() {
        let mut st = QuerierState::new(query(), vec![UserId(1)], 0);
        st.absorb_partial_result(list(&[(10, 5), (11, 2)]), &[UserId(1)]);
        st.absorb_partial_result(list(&[(11, 4)]), &[UserId(1)]);
        // The per-cycle top-k only guarantees the item set; the exact
        // aggregated scores are available once the lists are fully scanned.
        let top = st.current_topk(2);
        assert_eq!(top.len(), 2);
        let exhaustive = st.nra.topk_exhaustive(2);
        assert_eq!(exhaustive[0].item, ItemId(11));
        assert_eq!(exhaustive[0].worst, 6);
    }

    #[test]
    fn empty_lists_are_not_pushed() {
        let mut st = QuerierState::new(query(), vec![UserId(1)], 0);
        st.absorb_partial_result(PartialResultList::empty(), &[UserId(1)]);
        assert_eq!(st.nra.list_count(), 0);
        assert!(st.is_complete(), "profile counted even with empty results");
    }

    #[test]
    fn empty_target_set_is_trivially_complete() {
        let st = QuerierState::new(query(), vec![], 0);
        assert_eq!(st.coverage(), 1.0);
        assert!(st.is_complete());
    }

    #[test]
    fn remaining_task_done_flag() {
        let t = RemainingTask {
            querier: UserId(0),
            query: query(),
            remaining: vec![UserId(5)],
            expires_cycle: 0,
        };
        assert!(!t.is_expired(u64::MAX), "0 means no TTL");
        let done = RemainingTask {
            remaining: vec![],
            ..t
        };
        assert!(
            !done.is_expired(u64::MAX),
            "a drained share has no TTL either"
        );
    }

    #[test]
    fn remaining_task_ttl_lapses() {
        let t = RemainingTask {
            querier: UserId(0),
            query: query(),
            remaining: vec![UserId(5)],
            expires_cycle: 10,
        };
        assert!(!t.is_expired(9));
        assert!(t.is_expired(10));
    }

    #[test]
    fn query_book_iterates_in_ascending_id_order() {
        let mut book = QueryBook::default();
        for id in [7u64, 2, 9, 4] {
            book.insert(QueryId(id), id * 10);
        }
        book.insert(QueryId(2), 21);
        let entries: Vec<(QueryId, u64)> = book.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(
            entries,
            [(2, 21), (4, 40), (7, 70), (9, 90)].map(|(id, v)| (QueryId(id), v))
        );
        assert_eq!(book.get(&QueryId(4)), Some(&40));
        assert_eq!(book.get(&QueryId(5)), None);
        book.retain(|v| v % 20 != 0);
        assert_eq!(
            book.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            [QueryId(2), QueryId(7), QueryId(9)]
        );
    }

    #[test]
    fn get_or_insert_with_returns_the_existing_state() {
        let mut book = QueryBook::default();
        *book.get_or_insert_with(QueryId(3), || 1u32) += 1;
        let state = book.get_or_insert_with(QueryId(3), || unreachable!("state exists"));
        assert_eq!(*state, 2);
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn a_book_emptied_by_retain_owns_nothing() {
        let mut book = QueryBook::default();
        book.insert(QueryId(1), 10u64);
        book.insert(QueryId(2), 20);
        book.retain(|_| false);
        assert!(book.is_empty());
        assert_eq!(book.storage_bytes(), 0);
    }

    #[test]
    fn an_empty_book_is_one_pointer_and_owns_nothing() {
        let book: QueryBook<QuerierState> = QueryBook::default();
        assert!(book.is_empty());
        assert_eq!(book.storage_bytes(), 0);
        // The node layout behind the cycle benchmark's `bytes_nodes`.
        assert_eq!(
            std::mem::size_of::<QueryBook<QuerierState>>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn retry_fires_after_backoff_and_doubles() {
        let targets = vec![UserId(1), UserId(2), UserId(3)];
        let mut st = QuerierState::new(query(), targets, 0);
        st.absorb_partial_result(list(&[(1, 3)]), &[UserId(1)]);

        // Cycle 1: progress is noticed (marker catches up), no retry.
        assert!(!st.maybe_retry(1, 2));
        assert_eq!(st.retries, 0);
        // Cycle 2: only 1 cycle since progress < backoff 2 → still waiting.
        assert!(!st.maybe_retry(2, 2));
        // Cycle 3: 2 cycles without progress → retry re-adds the uncovered
        // targets, in target order.
        assert!(st.maybe_retry(3, 2));
        assert_eq!(st.remaining, vec![UserId(2), UserId(3)]);
        assert_eq!(st.retries, 1);
        // The second retry needs 2·2 = 4 quiet cycles; re-added targets are
        // deduplicated against the live remaining list.
        assert!(!st.maybe_retry(5, 2));
        st.remaining.clear();
        assert!(st.maybe_retry(7, 2));
        assert_eq!(st.remaining, vec![UserId(2), UserId(3)]);
        assert_eq!(st.retries, 2);
    }

    #[test]
    fn retry_respects_completion_and_deadline() {
        let mut st = QuerierState::new(query(), vec![UserId(1)], 0);
        st.deadline_cycle = 5;
        assert!(!st.is_expired(4));
        assert!(st.is_expired(5));
        // An expired query never retries.
        assert!(!st.maybe_retry(100, 1));
        // A completed query neither expires nor retries.
        st.absorb_partial_result(list(&[(1, 1)]), &[UserId(1)]);
        assert!(st.is_complete());
        assert!(!st.is_expired(100));
        assert!(!st.maybe_retry(100, 1));
    }
}
