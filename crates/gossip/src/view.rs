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

/// An entry of a [`ScoredView`], read by value: [`ScoredView::iter`] and
/// [`ScoredView::get`] yield `ScoredEntry<P, &M>`, assembled from the
/// view's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredEntry<P, M> {
    /// The peer.
    pub peer: P,
    /// Its similarity score with the view owner.
    pub score: u32,
    /// Cycles since the owner last gossiped with this peer.
    pub staleness: u32,
    /// Application metadata (digest, …).
    pub meta: M,
}

/// A bounded view keeping the `capacity` peers with the highest scores.
///
/// Ties are broken by peer identifier (ascending) so that view contents are
/// deterministic for a given input sequence.
///
/// The entries are held as rank-aligned columns: a dense peer column that
/// lookups scan, score and staleness columns, and the metadata column. An
/// entry costs `size_of::<P>() + 8 + size_of::<M>()` bytes
/// ([`Self::ENTRY_BYTES`]), and no column grows past `capacity` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredView<P, M> {
    capacity: usize,
    peers: Vec<P>,
    scores: Vec<u32>,
    staleness: Vec<u32>,
    metas: Vec<M>,
}

/// Makes room for one more element in a column bounded to `capacity`
/// elements: the buffer doubles as `Vec` would, but never past `capacity`
/// slots while the column holds fewer than `capacity`.
pub fn reserve_within<T>(column: &mut Vec<T>, capacity: usize) {
    if column.len() == column.capacity() {
        let target = (column.len() * 2)
            .max(4)
            .min(capacity)
            .max(column.len() + 1);
        column.reserve_exact(target - column.len());
    }
}

/// Moves the element at `from` to `to`, shifting those between by one.
fn shift<T>(column: &mut [T], from: usize, to: usize) {
    if to < from {
        column[to..=from].rotate_right(1);
    } else {
        column[from..=to].rotate_left(1);
    }
}

impl<P: Copy + Eq + Hash + Ord, M> ScoredView<P, M> {
    /// Bytes one entry occupies across the columns.
    pub const ENTRY_BYTES: usize =
        std::mem::size_of::<P>() + 2 * std::mem::size_of::<u32>() + std::mem::size_of::<M>();

    /// Creates an empty view bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a view needs a positive capacity");
        Self {
            capacity,
            peers: Vec::new(),
            scores: Vec::new(),
            staleness: Vec::new(),
            metas: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Returns `true` if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Heap bytes the columns have allocated (their capacities, not their
    /// lengths).
    pub fn heap_bytes(&self) -> usize {
        self.peers.capacity() * std::mem::size_of::<P>()
            + (self.scores.capacity() + self.staleness.capacity()) * std::mem::size_of::<u32>()
            + self.metas.capacity() * std::mem::size_of::<M>()
    }

    /// Returns `true` if `peer` is in the view.
    pub fn contains(&self, peer: &P) -> bool {
        self.peers.contains(peer)
    }

    /// The entry at `rank` (0 = highest score).
    ///
    /// # Panics
    /// Panics if `rank` is not below [`Self::len`].
    pub fn entry(&self, rank: usize) -> ScoredEntry<P, &M> {
        ScoredEntry {
            peer: self.peers[rank],
            score: self.scores[rank],
            staleness: self.staleness[rank],
            meta: &self.metas[rank],
        }
    }

    /// The entry for `peer`, if any.
    pub fn get(&self, peer: &P) -> Option<ScoredEntry<P, &M>> {
        self.rank_of(peer).map(|rank| self.entry(rank))
    }

    /// Iterates over entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = ScoredEntry<P, &M>> + '_ {
        let ranked = self.peers.iter().zip(&self.scores).zip(&self.staleness);
        ranked
            .zip(&self.metas)
            .map(|(((&peer, &score), &staleness), meta)| ScoredEntry {
                peer,
                score,
                staleness,
                meta,
            })
    }

    /// The peers in descending score order.
    pub fn peers(&self) -> impl Iterator<Item = P> + '_ {
        self.peers.iter().copied()
    }

    /// The `n` best peers (descending score).
    pub fn top_peers(&self, n: usize) -> Vec<P> {
        self.peers.iter().take(n).copied().collect()
    }

    /// Rank of a peer in the view (0 = highest score), if present.
    pub fn rank_of(&self, peer: &P) -> Option<usize> {
        self.peers.iter().position(|p| p == peer)
    }

    /// Whether [`Self::upsert`] would find room for `peer`, absent from the
    /// view, at `score`: the test `upsert_with` makes before it changes
    /// anything, so `false` means an upsert would leave the view as it is.
    pub fn would_admit(&self, peer: P, score: u32) -> bool {
        self.insertion_rank(peer, score) < self.capacity
    }

    /// Where an entry for `peer` at `score` belongs among the entries, in
    /// (score descending, peer ascending) order.
    fn insertion_rank(&self, peer: P, score: u32) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let before =
                self.scores[mid] > score || (self.scores[mid] == score && self.peers[mid] < peer);
            if before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Inserts or updates a peer.
    ///
    /// * If the peer is already present its score and metadata are replaced
    ///   (the staleness timestamp is preserved).
    /// * Otherwise the peer is inserted with staleness 0; if the view is
    ///   over capacity the lowest-scored entry is evicted.
    ///
    /// Returns `true` if the peer is in the view after the call.
    pub fn upsert(&mut self, peer: P, score: u32, meta: M) -> bool {
        self.upsert_with(peer, score, |_, _| meta).is_some()
    }

    /// [`Self::upsert`] with the metadata computed from what it replaces, in
    /// one scan of the view.
    ///
    /// `f` receives the peer's old rank and metadata (`None` if it was
    /// absent) and the rank the peer lands at, and returns the metadata to
    /// store. It is not called when the peer is rejected, which only
    /// happens to an absent peer: a present one always finds room, since
    /// its own slot is free. The staleness of a present peer is preserved.
    ///
    /// Returns the rank of the peer after the call, or `None` if it was
    /// rejected.
    pub fn upsert_with(
        &mut self,
        peer: P,
        score: u32,
        f: impl FnOnce(Option<(usize, M)>, usize) -> M,
    ) -> Option<usize> {
        let (old, rank) = match self.rank_of(&peer) {
            Some(old_rank) => {
                // The peer's own entry sorts before the new key only if it
                // scored higher; without it the key lands at `rank`. Peer,
                // score and staleness shift by the distance moved, which is
                // mostly zero: a refresh at an unchanged score.
                let rank =
                    self.insertion_rank(peer, score) - usize::from(self.scores[old_rank] > score);
                shift(&mut self.peers, old_rank, rank);
                shift(&mut self.scores, old_rank, rank);
                shift(&mut self.staleness, old_rank, rank);
                self.scores[rank] = score;
                (Some((old_rank, self.metas.remove(old_rank))), rank)
            }
            None => {
                let rank = self.insertion_rank(peer, score);
                if rank >= self.capacity {
                    return None;
                }
                // Evict before inserting: a full view never asks a column
                // for one slot more than `capacity`.
                let (keep, capacity) = (self.capacity - 1, self.capacity);
                self.peers.truncate(keep);
                self.scores.truncate(keep);
                self.staleness.truncate(keep);
                self.metas.truncate(keep);
                reserve_within(&mut self.peers, capacity);
                reserve_within(&mut self.scores, capacity);
                reserve_within(&mut self.staleness, capacity);
                self.peers.insert(rank, peer);
                self.scores.insert(rank, score);
                self.staleness.insert(rank, 0);
                (None, rank)
            }
        };
        let meta = f(old, rank);
        reserve_within(&mut self.metas, self.capacity);
        self.metas.insert(rank, meta);
        Some(rank)
    }

    /// Increments every entry's staleness by one — called once per gossip
    /// cycle ("other neighbours increment their timestamps by 1").
    pub fn tick(&mut self) {
        for staleness in &mut self.staleness {
            *staleness = staleness.saturating_add(1);
        }
    }

    /// Read-only peek at the stalest entry satisfying `pred` (e.g. "is an
    /// alive remaining-list member") — the plan phase of a plan/commit
    /// protocol step, where partner choice happens against immutable state
    /// and the staleness reset is deferred to the commit
    /// ([`Self::reset_staleness`]). Returns `None` if nothing matches.
    pub fn oldest_matching(&self, pred: impl Fn(ScoredEntry<P, &M>) -> bool) -> Option<P> {
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
        pred: impl Fn(ScoredEntry<P, &M>) -> bool,
        staleness_of: impl Fn(ScoredEntry<P, &M>) -> u32,
    ) -> Option<P> {
        self.iter()
            .filter(|&e| pred(e))
            .max_by(|&a, &b| {
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
        match self.rank_of(peer) {
            Some(rank) => {
                self.staleness[rank] = 0;
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
    /// The shuffle replaces it with a buffer holding exactly the kept
    /// entries.
    pub(crate) entries: Vec<AgedEntry<P, M>>,
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

    /// Heap bytes the entry buffer has allocated.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<AgedEntry<P, M>>()
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
    ///
    /// The new entry is the youngest (age 0), and of equally old entries the
    /// last one goes. So a full view whose entries are all of age 0 evicts
    /// the newcomer: the insert changes nothing.
    pub fn insert(&mut self, peer: P, meta: M) {
        if self.contains(&peer) {
            return;
        }
        if self.entries.len() >= self.capacity {
            // Evict the oldest entry, before pushing: the buffer never
            // holds more than `capacity` slots.
            match self.entries.iter().enumerate().max_by_key(|(_, e)| e.age) {
                Some((idx, e)) if e.age > 0 => {
                    self.entries.remove(idx);
                }
                _ => return,
            }
        }
        reserve_within(&mut self.entries, self.capacity);
        self.entries.push(AgedEntry { peer, age: 0, meta });
    }

    /// Increments every entry's age.
    pub fn tick(&mut self) {
        for entry in &mut self.entries {
            entry.age = entry.age.saturating_add(1);
        }
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
        for (peer, score) in [(1u32, 10u32), (2, 30), (3, 20), (4, 5), (5, 40)] {
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

    /// The most slots any column of `v` has allocated.
    fn slots<M>(v: &ScoredView<u32, M>) -> usize {
        [
            v.peers.capacity(),
            v.scores.capacity(),
            v.staleness.capacity(),
            v.metas.capacity(),
        ]
        .into_iter()
        .max()
        .unwrap()
    }

    #[test]
    fn upsert_on_a_full_view_keeps_the_buffer_at_capacity() {
        let mut full: ScoredView<u32, u64> = ScoredView::new(4);
        for peer in 0..4u32 {
            full.upsert(peer, 10 + peer, 0);
        }
        // A clone allocates exactly `len` slots: the buffer has no slack.
        let mut v = full.clone();
        assert_eq!(slots(&v), 4);
        assert!(!v.upsert(9, 1, 0), "worse than the minimum");
        assert!(!v.upsert(9, 10, 0), "ties with the minimum, larger id");
        assert_eq!(v, full);
        assert!(v.upsert(9, 12, 0), "evicts the minimum");
        assert!(v.upsert(2, 50, 0), "moves a present peer");
        assert_eq!(v.peers().collect::<Vec<_>>(), vec![2, 3, 9, 1]);
        assert_eq!(slots(&v), 4);
    }

    #[test]
    fn columns_grow_to_the_capacity_and_no_further() {
        // Doubling would reach 128 slots for 100 entries.
        let mut v: ScoredView<u32, u64> = ScoredView::new(100);
        for peer in 0..100u32 {
            v.upsert(peer, 1000 - peer, u64::from(peer));
            assert!(slots(&v) <= 100, "after {} entries", peer + 1);
        }
        assert_eq!(slots(&v), 100);
        assert_eq!(v.heap_bytes(), 100 * ScoredView::<u32, u64>::ENTRY_BYTES);
        // A capacity below the first doubling step allocates exactly it.
        let mut small: ScoredView<u32, u64> = ScoredView::new(3);
        for peer in 0..5u32 {
            small.upsert(peer, peer, 0);
        }
        assert_eq!(slots(&small), 3);
    }

    #[test]
    fn upsert_matches_push_sort_pop() {
        // The definition upsert replaces: update or push, sort by (score
        // descending, peer ascending), drop what exceeds the capacity.
        fn model(entries: &mut Vec<ScoredEntry<u32, u64>>, cap: usize, peer: u32, score: u32) {
            match entries.iter_mut().find(|e| e.peer == peer) {
                Some(e) => (e.score, e.meta) = (score, u64::from(score)),
                None => entries.push(ScoredEntry {
                    peer,
                    score,
                    staleness: 0,
                    meta: u64::from(score),
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
            let (peer, score) = (rng.gen_range(0..12u32), rng.gen_range(0..6u32));
            model(&mut expected, 5, peer, score);
            let absent = !v.contains(&peer);
            let room = v.would_admit(peer, score);
            let kept = v.upsert(peer, score, u64::from(score));
            assert_eq!(kept, expected.iter().any(|e| e.peer == peer), "step {step}");
            if absent {
                assert_eq!(room, kept, "would_admit at step {step}");
            }
            if step % 7 == 0 {
                v.tick();
                expected.iter_mut().for_each(|e| e.staleness += 1);
            }
            let entries: Vec<ScoredEntry<u32, u64>> = v
                .iter()
                .map(|e| ScoredEntry {
                    peer: e.peer,
                    score: e.score,
                    staleness: e.staleness,
                    meta: *e.meta,
                })
                .collect();
            assert_eq!(entries, expected, "step {step}");
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
    fn top_peers_truncates() {
        let mut v = V::new(5);
        for p in 0..5u32 {
            v.upsert(p, p, ());
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
    fn aged_view_buffer_stays_within_capacity() {
        let mut v: AgedView<u32, ()> = AgedView::new(10);
        for peer in 0..10u32 {
            v.insert(peer, ());
        }
        assert_eq!(v.entries.capacity(), 10, "doubling would reach 16");
        v.tick();
        v.insert(99, ());
        assert_eq!((v.len(), v.entries.capacity()), (10, 10));
        // A full view of age-0 entries turns the newcomer away.
        let mut fresh: AgedView<u32, ()> = AgedView::new(2);
        fresh.insert(1, ());
        fresh.insert(2, ());
        fresh.insert(3, ());
        assert_eq!(fresh.peers().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn aged_view_insert_is_idempotent() {
        let mut v: AgedView<u32, ()> = AgedView::new(3);
        v.insert(1, ());
        v.insert(1, ());
        assert_eq!(v.len(), 1);
    }
}
