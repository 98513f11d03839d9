//! Classical NRA (No Random Access) over a fixed set of score-ordered lists.
//!
//! P3Q adapts NRA to asynchronously arriving lists (see
//! [`crate::IncrementalNra`]); this module provides the classical batch
//! variant — all lists known up front — which is what the original algorithm
//! of Fagin et al. computes and what a centralized deployment would run. It
//! is primarily used as a correctness oracle and to measure how much sorted
//! access the early-termination condition saves.

use std::hash::Hash;

use crate::incremental::{IncrementalNra, RankedItem};
use crate::list::PartialResultList;

/// Result of a batch NRA run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NraOutcome<I> {
    /// The top-k items with their score intervals.
    pub topk: Vec<RankedItem<I>>,
    /// Number of sorted accesses performed.
    pub sorted_accesses: usize,
    /// Total number of entries across all input lists.
    pub total_entries: usize,
}

/// Runs classical NRA over `lists` and returns the top-`k` items together
/// with access statistics.
pub fn nra_topk<I: Copy + Eq + Hash + Ord>(
    lists: &[PartialResultList<I>],
    k: usize,
) -> NraOutcome<I> {
    let total_entries = lists.iter().map(PartialResultList::len).sum();
    let mut nra = IncrementalNra::new();
    for list in lists {
        nra.push_list(list.clone());
    }
    let topk = nra.topk(k);
    NraOutcome {
        topk,
        sorted_accesses: nra.positions_scanned(),
        total_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_topk, recall};

    fn list(pairs: &[(u32, u32)]) -> PartialResultList<u32> {
        PartialResultList::from_scores(pairs.iter().copied())
    }

    #[test]
    fn nra_finds_the_exact_top_items() {
        let lists = vec![
            list(&[(1, 9), (2, 8), (3, 1)]),
            list(&[(4, 10), (1, 2)]),
            list(&[(2, 3), (5, 5)]),
        ];
        let outcome = nra_topk(&lists, 3);
        let expected = exact_topk(&lists, 3);
        let got: Vec<(u32, u32)> = outcome.topk.iter().map(|r| (r.item, r.worst)).collect();
        // With unique totals the item sets must coincide exactly.
        let expected_items: Vec<u32> = expected.iter().map(|&(i, _)| i).collect();
        let got_items: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(recall(&got, &expected), 1.0);
        assert_eq!(got_items.len(), expected_items.len());
    }

    #[test]
    fn savings_reported() {
        let head: Vec<(u32, u32)> = vec![(1, 100), (2, 99)];
        let tail: Vec<(u32, u32)> = (10..200u32).map(|i| (i, 1)).collect();
        let outcome = nra_topk(&[list(&head), list(&tail)], 2);
        assert!(outcome.sorted_accesses < outcome.total_entries);
    }

    #[test]
    fn empty_lists_give_empty_outcome() {
        let outcome = nra_topk(&[] as &[PartialResultList<u32>], 5);
        assert!(outcome.topk.is_empty());
        assert_eq!((outcome.sorted_accesses, outcome.total_entries), (0, 0));
    }
}
