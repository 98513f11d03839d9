//! Bounded gossip views.
//!
//! P3Q nodes maintain two views (Section 2.1 of the paper):
//!
//! * the **personal network** — the `s` peers with the highest similarity
//!   score, each carrying a score, a profile digest and a gossip timestamp
//!   ("for how many cycles she has not been gossiped with");
//! * the **random view** — `r` peers selected uniformly at random by the
//!   peer-sampling layer, each carrying an age used by the shuffle.
//!
//! [`ScoredView`] implements the former's mechanics (bounded, score-ordered,
//! timestamp-driven partner selection), [`AgedView`] the latter's. Both are
//! generic over the peer identifier and per-entry metadata so that the P3Q
//! crate can attach digests, profiles or anything else without this crate
//! knowing about the tagging data model.

use std::hash::Hash;

/// An entry of a [`ScoredView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredEntry<P, M> {
    /// The peer.
    pub peer: P,
    /// Its similarity score with the view owner.
    pub score: u64,
    /// Cycles since the owner last gossiped with this peer.
    pub staleness: u32,
    /// Application metadata (digest, cached profile, …).
    pub meta: M,
}

/// A bounded view keeping the `capacity` peers with the highest scores.
///
/// Ties are broken by peer identifier (ascending) so that view contents are
/// deterministic for a given input sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredView<P, M> {
    capacity: usize,
    entries: Vec<ScoredEntry<P, M>>,
}

impl<P: Copy + Eq + Hash + Ord, M> ScoredView<P, M> {
    /// Creates an empty view bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a view needs a positive capacity");
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `peer` is in the view.
    pub fn contains(&self, peer: &P) -> bool {
        self.entries.iter().any(|e| e.peer == *peer)
    }

    /// The entry for `peer`, if any.
    pub fn get(&self, peer: &P) -> Option<&ScoredEntry<P, M>> {
        self.entries.iter().find(|e| e.peer == *peer)
    }

    /// Mutable entry for `peer`, if any.
    pub fn get_mut(&mut self, peer: &P) -> Option<&mut ScoredEntry<P, M>> {
        self.entries.iter_mut().find(|e| e.peer == *peer)
    }

    /// Iterates over entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = &ScoredEntry<P, M>> {
        self.entries.iter()
    }

    /// The peers in descending score order.
    pub fn peers(&self) -> impl Iterator<Item = P> + '_ {
        self.entries.iter().map(|e| e.peer)
    }

    /// The `n` best peers (descending score).
    pub fn top_peers(&self, n: usize) -> Vec<P> {
        self.entries.iter().take(n).map(|e| e.peer).collect()
    }

    /// Mutable metadata of every entry ranked `n` or lower (0 = highest
    /// score), in rank order. Peers, scores and staleness stay read-only,
    /// so the ordering cannot break.
    pub fn meta_mut_from_rank(&mut self, n: usize) -> impl Iterator<Item = &mut M> {
        self.entries.iter_mut().skip(n).map(|e| &mut e.meta)
    }

    /// Rank of a peer in the view (0 = highest score), if present.
    pub fn rank_of(&self, peer: &P) -> Option<usize> {
        self.entries.iter().position(|e| e.peer == *peer)
    }

    /// Inserts or updates a peer.
    ///
    /// * If the peer is already present its score and metadata are replaced
    ///   (the staleness timestamp is preserved).
    /// * Otherwise the peer is inserted with staleness 0; if the view is
    ///   over capacity the lowest-scored entry is evicted.
    ///
    /// Returns `true` if the peer is in the view after the call.
    pub fn upsert(&mut self, peer: P, score: u64, meta: M) -> bool {
        self.upsert_with(peer, score, |_, _| meta).is_some()
    }

    /// [`Self::upsert`] with the metadata computed from what it replaces, in
    /// one scan of the view.
    ///
    /// `f` receives the peer's old metadata (`None` if it was absent) and
    /// the rank the peer lands at, and returns the metadata to store. It is
    /// not called when the peer is rejected, which only happens to an
    /// absent peer: a present one always finds room, since its own slot is
    /// free. The staleness of a present peer is preserved.
    ///
    /// Returns the rank of the peer after the call, or `None` if it was
    /// rejected.
    pub fn upsert_with(
        &mut self,
        peer: P,
        score: u64,
        f: impl FnOnce(Option<M>, usize) -> M,
    ) -> Option<usize> {
        let (old, staleness) = match self.rank_of(&peer) {
            Some(rank) => {
                let entry = self.entries.remove(rank);
                (Some(entry.meta), entry.staleness)
            }
            None => (None, 0),
        };
        // Where the entry belongs in (score descending, peer ascending).
        let rank = self
            .entries
            .partition_point(|e| e.score > score || (e.score == score && e.peer < peer));
        if rank >= self.capacity {
            return None;
        }
        // Evict before inserting: a full view never asks its buffer for one
        // slot more than `capacity`.
        self.entries.truncate(self.capacity - 1);
        let meta = f(old, rank);
        self.entries.insert(
            rank,
            ScoredEntry {
                peer,
                score,
                staleness,
                meta,
            },
        );
        Some(rank)
    }

    /// Increments every entry's staleness by one — called once per gossip
    /// cycle ("other neighbours increment their timestamps by 1").
    pub fn tick(&mut self) {
        for entry in &mut self.entries {
            entry.staleness = entry.staleness.saturating_add(1);
        }
    }

    /// Read-only peek at the stalest entry satisfying `pred` (e.g. "is an
    /// alive remaining-list member") — the plan phase of a plan/commit
    /// protocol step, where partner choice happens against immutable state
    /// and the staleness reset is deferred to the commit
    /// ([`Self::reset_staleness`]). Returns `None` if nothing matches.
    pub fn oldest_matching(&self, pred: impl Fn(&ScoredEntry<P, M>) -> bool) -> Option<P> {
        self.oldest_matching_with(pred, |e| e.staleness)
    }

    /// Like [`Self::oldest_matching`], but with the staleness of each entry
    /// supplied by `staleness_of` instead of read from the entry — the hook
    /// for plan phases that must overlay pending (not yet committed)
    /// staleness resets on an immutable view. Ties follow the same
    /// deterministic order as every other selection: score (higher first),
    /// then peer id (smaller first).
    pub fn oldest_matching_with(
        &self,
        pred: impl Fn(&ScoredEntry<P, M>) -> bool,
        staleness_of: impl Fn(&ScoredEntry<P, M>) -> u32,
    ) -> Option<P> {
        self.entries
            .iter()
            .filter(|e| pred(e))
            .max_by(|a, b| {
                staleness_of(a)
                    .cmp(&staleness_of(b))
                    .then(a.score.cmp(&b.score))
                    .then(b.peer.cmp(&a.peer))
            })
            .map(|e| e.peer)
    }

    /// Resets a peer's staleness to zero (the commit half of a partner
    /// selection planned via [`Self::oldest_matching`]). Returns `true` if the peer
    /// was present.
    pub fn reset_staleness(&mut self, peer: &P) -> bool {
        match self.get_mut(peer) {
            Some(entry) => {
                entry.staleness = 0;
                true
            }
            None => false,
        }
    }
}

/// An entry of an [`AgedView`] (random view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgedEntry<P, M> {
    /// The peer.
    pub peer: P,
    /// Age in cycles since the entry was created by its original owner.
    pub age: u32,
    /// Application metadata (profile digest in P3Q).
    pub meta: M,
}

/// A bounded view of uniformly random peers, maintained by the peer-sampling
/// shuffle ([`crate::peer_sampling`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgedView<P, M> {
    capacity: usize,
    entries: Vec<AgedEntry<P, M>>,
}

impl<P: Copy + Eq + Hash + Ord, M: Clone> AgedView<P, M> {
    /// Creates an empty view bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a view needs a positive capacity");
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `peer` is in the view.
    pub fn contains(&self, peer: &P) -> bool {
        self.entries.iter().any(|e| e.peer == *peer)
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &AgedEntry<P, M>> {
        self.entries.iter()
    }

    /// The peers currently in the view.
    pub fn peers(&self) -> impl Iterator<Item = P> + '_ {
        self.entries.iter().map(|e| e.peer)
    }

    /// Adds a peer (no-op if present), evicting the oldest entry when over
    /// capacity.
    pub fn insert(&mut self, peer: P, meta: M) {
        if self.contains(&peer) {
            return;
        }
        self.entries.push(AgedEntry { peer, age: 0, meta });
        if self.entries.len() > self.capacity {
            // Evict the oldest entry.
            if let Some((idx, _)) = self.entries.iter().enumerate().max_by_key(|(_, e)| e.age) {
                self.entries.remove(idx);
            }
        }
    }

    /// Increments every entry's age.
    pub fn tick(&mut self) {
        for entry in &mut self.entries {
            entry.age = entry.age.saturating_add(1);
        }
    }

    /// Moves the entries out, leaving the view empty (the shuffle merges
    /// them with the received payload and hands the survivors back through
    /// [`Self::replace_with`]).
    pub(crate) fn take_entries(&mut self) -> Vec<AgedEntry<P, M>> {
        std::mem::take(&mut self.entries)
    }

    /// Replaces the whole content (used by the shuffle). Truncates to
    /// capacity if needed, and gives back the buffer's slack: the shuffle
    /// hands over its 2r + 1-slot merge pool, and a view that kept it would
    /// hold twice its r entries' worth of memory on every node.
    pub(crate) fn replace_with(&mut self, mut entries: Vec<AgedEntry<P, M>>) {
        entries.truncate(self.capacity);
        entries.shrink_to_fit();
        self.entries = entries;
    }

    /// Clones the current entries (the payload a shuffle sends to the other
    /// side).
    pub fn snapshot(&self) -> Vec<AgedEntry<P, M>> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type V = ScoredView<u32, ()>;

    #[test]
    fn upsert_keeps_best_scores_up_to_capacity() {
        let mut v = V::new(3);
        for (peer, score) in [(1u32, 10u64), (2, 30), (3, 20), (4, 5), (5, 40)] {
            v.upsert(peer, score, ());
        }
        assert_eq!(v.len(), 3);
        let peers: Vec<u32> = v.peers().collect();
        assert_eq!(peers, vec![5, 2, 3]);
        assert_eq!(v.iter().last().map(|e| e.score), Some(20));
        assert!(!v.contains(&4));
    }

    #[test]
    fn upsert_rejects_worse_than_minimum_when_full() {
        let mut v = V::new(2);
        v.upsert(1, 10, ());
        v.upsert(2, 20, ());
        assert!(!v.upsert(3, 5, ()));
        assert_eq!(v.len(), 2);
        assert!(!v.contains(&3));
    }

    #[test]
    fn upsert_updates_existing_score_in_place() {
        let mut v = V::new(2);
        v.upsert(1, 10, ());
        v.upsert(2, 20, ());
        v.upsert(1, 30, ());
        assert_eq!(v.len(), 2);
        assert_eq!(v.rank_of(&1), Some(0));
    }

    #[test]
    fn upsert_on_a_full_view_keeps_the_buffer_at_capacity() {
        let mut full = V::new(4);
        for peer in 0..4u32 {
            full.upsert(peer, 10 + u64::from(peer), ());
        }
        // A clone allocates exactly `len` slots: the buffer has no slack.
        let mut v = full.clone();
        assert_eq!(v.entries.capacity(), 4);
        assert!(!v.upsert(9, 1, ()), "worse than the minimum");
        assert!(!v.upsert(9, 10, ()), "ties with the minimum, larger id");
        assert_eq!(v, full);
        assert!(v.upsert(9, 12, ()), "evicts the minimum");
        assert!(v.upsert(2, 50, ()), "moves a present peer");
        assert_eq!(v.peers().collect::<Vec<_>>(), vec![2, 3, 9, 1]);
        assert_eq!(v.entries.capacity(), 4);
    }

    #[test]
    fn upsert_matches_push_sort_pop() {
        // The definition upsert replaces: update or push, sort by (score
        // descending, peer ascending), drop what exceeds the capacity.
        fn model(entries: &mut Vec<ScoredEntry<u32, u64>>, cap: usize, peer: u32, score: u64) {
            match entries.iter_mut().find(|e| e.peer == peer) {
                Some(e) => (e.score, e.meta) = (score, score),
                None => entries.push(ScoredEntry {
                    peer,
                    score,
                    staleness: 0,
                    meta: score,
                }),
            }
            entries.sort_by(|a, b| b.score.cmp(&a.score).then(a.peer.cmp(&b.peer)));
            entries.truncate(cap);
        }
        let mut v: ScoredView<u32, u64> = ScoredView::new(5);
        let mut expected = Vec::new();
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..2000 {
            // Few peers and few scores: updates, ties and rejections are
            // all common.
            let (peer, score) = (rng.gen_range(0..12u32), rng.gen_range(0..6u64));
            model(&mut expected, 5, peer, score);
            let kept = v.upsert(peer, score, score);
            assert_eq!(kept, expected.iter().any(|e| e.peer == peer), "step {step}");
            if step % 7 == 0 {
                v.tick();
                expected.iter_mut().for_each(|e| e.staleness += 1);
            }
            assert_eq!(v.entries, expected, "step {step}");
        }
    }

    #[test]
    fn tick_and_oldest_selection_round_robin() {
        let mut v = V::new(3);
        v.upsert(1, 10, ());
        v.upsert(2, 20, ());
        v.upsert(3, 30, ());
        // After several tick/select rounds every peer must have been selected.
        let mut selected = Vec::new();
        for _ in 0..3 {
            v.tick();
            let peer = v.oldest_matching(|_| true).unwrap();
            assert!(v.reset_staleness(&peer));
            selected.push(peer);
        }
        selected.sort_unstable();
        assert_eq!(
            selected,
            vec![1, 2, 3],
            "selection must rotate over all peers"
        );
    }

    #[test]
    fn select_among_candidates_only() {
        let mut v = V::new(3);
        v.upsert(1, 10, ());
        v.upsert(2, 20, ());
        v.tick();
        assert_eq!(v.oldest_matching(|e| [2, 9].contains(&e.peer)), Some(2));
        assert_eq!(v.oldest_matching(|e| e.peer == 9), None);
    }

    #[test]
    fn meta_mut_from_rank_reaches_exactly_the_tail() {
        let mut v: ScoredView<u32, u32> = ScoredView::new(4);
        for (peer, score) in [(1, 10), (2, 30), (3, 20), (4, 20)] {
            v.upsert(peer, score, 0);
        }
        for meta in v.meta_mut_from_rank(2) {
            *meta = 1;
        }
        let marked: Vec<(u32, u32)> = v.iter().map(|e| (e.peer, e.meta)).collect();
        assert_eq!(marked, [(2, 0), (3, 0), (4, 1), (1, 1)]);
        assert_eq!(v.meta_mut_from_rank(4).count(), 0);
    }

    #[test]
    fn top_peers_truncates() {
        let mut v = V::new(5);
        for p in 0..5u32 {
            v.upsert(p, p as u64, ());
        }
        assert_eq!(v.top_peers(2), vec![4, 3]);
        assert_eq!(v.top_peers(10).len(), 5);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = V::new(0);
    }

    #[test]
    fn aged_view_insert_and_evict() {
        let mut v: AgedView<u32, ()> = AgedView::new(2);
        v.insert(1, ());
        v.tick();
        v.insert(2, ());
        v.insert(3, ()); // evicts the oldest (peer 1, age 1)
        assert_eq!(v.len(), 2);
        assert!(!v.contains(&1));
        assert!(v.contains(&2) && v.contains(&3));
    }

    #[test]
    fn aged_view_insert_is_idempotent() {
        let mut v: AgedView<u32, ()> = AgedView::new(3);
        v.insert(1, ());
        v.insert(1, ());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn aged_view_replace_truncates_to_capacity() {
        let mut v: AgedView<u32, ()> = AgedView::new(2);
        v.replace_with(vec![
            AgedEntry {
                peer: 1,
                age: 0,
                meta: (),
            },
            AgedEntry {
                peer: 2,
                age: 0,
                meta: (),
            },
            AgedEntry {
                peer: 3,
                age: 0,
                meta: (),
            },
        ]);
        assert_eq!(v.len(), 2);
    }
}
