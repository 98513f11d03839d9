//! The querier-side incremental NRA of P3Q (Algorithm 4).
//!
//! Classical NRA (Fagin's "No Random Access" algorithm) assumes the complete
//! set of score-ordered lists is known up front. In P3Q the partial result
//! lists arrive asynchronously, one gossip cycle at a time, so the querier
//! keeps a persistent candidate heap across cycles: whenever new lists arrive
//! it resumes scanning — new lists from position 0, previously known lists
//! from wherever their cursor stopped — until the usual NRA termination
//! condition holds for the information available *so far*. Each partial
//! result list is scanned at most once over the whole query lifetime.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::list::PartialResultList;

/// State of one partial result list inside the incremental NRA.
#[derive(Debug, Clone)]
struct ListState<I> {
    list: PartialResultList<I>,
    /// Next position to scan (also the number of entries consumed).
    pos: usize,
}

impl<I: Copy + Eq + Hash + Ord> ListState<I> {
    /// Upper bound on the score this list can still contribute to an item
    /// that has not been seen in it: the score at the cursor (lists are
    /// sorted descending), or zero once exhausted.
    fn bound(&self) -> u32 {
        self.list.get(self.pos).map(|(_, s)| s).unwrap_or(0)
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.list.len()
    }
}

/// Candidate bookkeeping: worst-case score plus the set of lists the item has
/// been seen in.
#[derive(Debug, Clone, Default)]
struct Candidate {
    worst: u32,
    seen_in: HashSet<usize>,
}

/// A ranked result entry with its NRA score interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedItem<I> {
    /// The item.
    pub item: I,
    /// Worst-case (guaranteed) score: sum of the scores seen so far.
    pub worst: u32,
    /// Best-case score: worst plus the bounds of every list the item has not
    /// been seen in yet.
    pub best: u32,
}

/// Incremental, per-cycle NRA over asynchronously arriving partial result
/// lists.
#[derive(Debug, Clone)]
pub struct IncrementalNra<I> {
    lists: Vec<ListState<I>>,
    candidates: HashMap<I, Candidate>,
    positions_scanned: usize,
}

impl<I: Copy + Eq + Hash + Ord> Default for IncrementalNra<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Copy + Eq + Hash + Ord> IncrementalNra<I> {
    /// Creates an empty instance (no lists, no candidates).
    pub fn new() -> Self {
        Self {
            lists: Vec::new(),
            candidates: HashMap::new(),
            positions_scanned: 0,
        }
    }

    /// Registers a newly arrived partial result list. It will start being
    /// scanned at the next [`topk`](Self::topk) call.
    pub fn push_list(&mut self, list: PartialResultList<I>) {
        self.lists.push(ListState { list, pos: 0 });
    }

    /// Number of partial result lists received so far.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Total number of list positions consumed since the beginning of the
    /// query (each position is read at most once).
    pub fn positions_scanned(&self) -> usize {
        self.positions_scanned
    }

    /// Returns `true` if every received list has been fully scanned, i.e. the
    /// current ranking is exact for the information received so far.
    pub(crate) fn all_lists_exhausted(&self) -> bool {
        self.lists.iter().all(ListState::exhausted)
    }

    /// Computes the current top-`k` with the information received so far,
    /// scanning as little additional data as the NRA termination condition
    /// allows.
    ///
    /// Items are ranked by worst-case score, ties broken by best-case score
    /// and then by ascending item identifier (the paper ranks equal
    /// worst-case scores by best-case score).
    pub fn topk(&mut self, k: usize) -> Vec<RankedItem<I>> {
        if k == 0 {
            return Vec::new();
        }
        loop {
            if self.termination_reached(k) {
                break;
            }
            if !self.advance_one_round() {
                break;
            }
        }
        self.ranking(k)
    }

    /// Runs the scan to exhaustion (used by tests and by queriers that want
    /// the exact result regardless of cost).
    pub fn topk_exhaustive(&mut self, k: usize) -> Vec<RankedItem<I>> {
        while self.advance_one_round() {}
        self.ranking(k)
    }

    /// Reads one more position from every non-exhausted list. Returns `false`
    /// if every list was already exhausted.
    fn advance_one_round(&mut self) -> bool {
        let mut advanced = false;
        for idx in 0..self.lists.len() {
            if self.lists[idx].exhausted() {
                continue;
            }
            let pos = self.lists[idx].pos;
            let (item, score) = self.lists[idx]
                .list
                .get(pos)
                .expect("non-exhausted list must have an entry at the cursor");
            self.lists[idx].pos += 1;
            self.positions_scanned += 1;
            advanced = true;
            let candidate = self.candidates.entry(item).or_default();
            // A list never contains the same item twice, so `seen_in` insert
            // always succeeds; guard anyway to keep the invariant obvious.
            if candidate.seen_in.insert(idx) {
                candidate.worst += score;
            }
        }
        advanced
    }

    /// Best-case score of a candidate given the current bounds.
    fn best_of(&self, candidate: &Candidate) -> u32 {
        let unseen_bound: u32 = self
            .lists
            .iter()
            .enumerate()
            .filter(|(idx, _)| !candidate.seen_in.contains(idx))
            .map(|(_, l)| l.bound())
            .sum();
        candidate.worst + unseen_bound
    }

    /// Upper bound on the score of an item that has never been seen in any
    /// scanned prefix.
    fn unseen_item_bound(&self) -> u32 {
        self.lists.iter().map(ListState::bound).sum()
    }

    /// NRA termination: the k-th worst-case score is at least the best-case
    /// score of every candidate outside the current top-k *and* of any
    /// entirely unseen item.
    fn termination_reached(&self, k: usize) -> bool {
        if self.all_lists_exhausted() {
            return true;
        }
        if self.candidates.len() < k {
            return false;
        }
        let mut worsts: Vec<u32> = self.candidates.values().map(|c| c.worst).collect();
        worsts.sort_unstable_by(|a, b| b.cmp(a));
        let kth_worst = worsts[k - 1];

        if self.unseen_item_bound() > kth_worst {
            return false;
        }

        // Identify the current top-k item set (by worst score, deterministic
        // tie-break) and check every outsider's best-case score.
        let topk: HashSet<I> = {
            let mut entries: Vec<(&I, &Candidate)> = self.candidates.iter().collect();
            entries.sort_unstable_by(|a, b| {
                b.1.worst
                    .cmp(&a.1.worst)
                    .then_with(|| self.best_of(b.1).cmp(&self.best_of(a.1)))
                    .then(a.0.cmp(b.0))
            });
            entries.iter().take(k).map(|(i, _)| **i).collect()
        };
        self.candidates
            .iter()
            .filter(|(item, _)| !topk.contains(item))
            .all(|(_, c)| self.best_of(c) <= kth_worst)
    }

    /// Current ranking (top-`k` by worst score, ties by best score then item).
    fn ranking(&self, k: usize) -> Vec<RankedItem<I>> {
        let mut entries: Vec<RankedItem<I>> = self
            .candidates
            .iter()
            .map(|(&item, c)| RankedItem {
                item,
                worst: c.worst,
                best: self.best_of(c),
            })
            .collect();
        entries.sort_unstable_by(|a, b| {
            b.worst
                .cmp(&a.worst)
                .then(b.best.cmp(&a.best))
                .then(a.item.cmp(&b.item))
        });
        entries.truncate(k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_topk;

    fn list(pairs: &[(u32, u32)]) -> PartialResultList<u32> {
        PartialResultList::from_scores(pairs.iter().copied())
    }

    /// Multiset of true total scores of the returned items, computed from the
    /// full lists — used to compare against exact top-k independently of tie
    /// resolution.
    fn true_scores(items: &[RankedItem<u32>], lists: &[PartialResultList<u32>]) -> Vec<u32> {
        let mut scores: Vec<u32> = items
            .iter()
            .map(|r| lists.iter().filter_map(|l| l.score_of(&r.item)).sum())
            .collect();
        scores.sort_unstable();
        scores
    }

    #[test]
    fn single_list_topk_is_its_prefix() {
        let mut nra = IncrementalNra::new();
        nra.push_list(list(&[(1, 10), (2, 5), (3, 1)]));
        let top = nra.topk(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].item, 1);
        assert_eq!(top[0].worst, 10);
        assert_eq!(top[1].item, 2);
    }

    #[test]
    fn matches_exact_aggregation_when_all_lists_arrive() {
        let lists = vec![
            list(&[(1, 3), (2, 7), (5, 2)]),
            list(&[(2, 1), (3, 9)]),
            list(&[(1, 4), (5, 5), (7, 1)]),
        ];
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let got = nra.topk_exhaustive(3);
        let expected = exact_topk(&lists, 3);
        let expected_scores: Vec<u32> = {
            let mut v: Vec<u32> = expected.iter().map(|&(_, s)| s).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(true_scores(&got, &lists), expected_scores);
    }

    #[test]
    fn incremental_delivery_converges_to_exact() {
        let lists = vec![
            list(&[(10, 8), (11, 3), (12, 1)]),
            list(&[(10, 2), (13, 6)]),
            list(&[(14, 9), (11, 4)]),
            list(&[(12, 7), (13, 2), (15, 5)]),
        ];
        let mut nra = IncrementalNra::new();
        // Lists arrive over four "cycles"; the top-k is recomputed each time.
        for l in &lists {
            nra.push_list(l.clone());
            let _ = nra.topk(2);
        }
        let final_top = nra.topk_exhaustive(2);
        let expected = exact_topk(&lists, 2);
        let expected_scores: Vec<u32> = {
            let mut v: Vec<u32> = expected.iter().map(|&(_, s)| s).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(true_scores(&final_top, &lists), expected_scores);
    }

    #[test]
    fn early_termination_scans_less_than_everything() {
        // One list has a clear, large-gap top-2; NRA should not need to read
        // the long tail of the other list.
        let head: Vec<(u32, u32)> = vec![(1, 1000), (2, 999)];
        let tail: Vec<(u32, u32)> = (10..500u32).map(|i| (i, 1)).collect();
        let lists = vec![list(&head), list(&tail)];
        let total_positions: usize = lists.iter().map(|l| l.len()).sum();
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let top = nra.topk(2);
        assert_eq!(top[0].item, 1);
        assert_eq!(top[1].item, 2);
        assert!(
            nra.positions_scanned() < total_positions / 2,
            "scanned {} of {} positions",
            nra.positions_scanned(),
            total_positions
        );
    }

    #[test]
    fn worst_never_exceeds_best() {
        let lists = vec![list(&[(1, 5), (2, 4)]), list(&[(2, 2), (3, 6)])];
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        for r in nra.topk(3) {
            assert!(r.worst <= r.best);
        }
    }

    #[test]
    fn empty_instance_returns_empty() {
        let mut nra: IncrementalNra<u32> = IncrementalNra::new();
        assert!(nra.topk(10).is_empty());
        assert!(nra.all_lists_exhausted());
    }

    #[test]
    fn k_zero_returns_empty_without_scanning() {
        let mut nra = IncrementalNra::new();
        nra.push_list(list(&[(1, 1)]));
        assert!(nra.topk(0).is_empty());
        assert_eq!(nra.positions_scanned(), 0);
    }

    #[test]
    fn lists_are_scanned_at_most_once() {
        let lists = vec![list(&[(1, 3), (2, 2), (3, 1)]), list(&[(4, 5)])];
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let _ = nra.topk_exhaustive(2);
        let scanned_after_first = nra.positions_scanned();
        // Re-running cannot scan anything new.
        let _ = nra.topk_exhaustive(2);
        assert_eq!(nra.positions_scanned(), scanned_after_first);
        let total: usize = lists.iter().map(|l| l.len()).sum();
        assert_eq!(scanned_after_first, total);
    }

    #[test]
    fn counters_are_exposed() {
        let mut nra = IncrementalNra::new();
        nra.push_list(list(&[(1, 1), (2, 2)]));
        nra.push_list(list(&[(3, 3)]));
        let _ = nra.topk(1);
        assert_eq!(nra.list_count(), 2);
    }
}
