//! Property-based tests: the incremental NRA must agree with exact
//! aggregation no matter how the lists are sliced across cycles.

use p3q_topk::{exact_topk, IncrementalNra, PartialResultList};
use proptest::prelude::*;

fn arb_list() -> impl Strategy<Value = PartialResultList<u32>> {
    prop::collection::vec((0u32..60, 1u32..30), 0..40).prop_map(PartialResultList::from_scores)
}

fn arb_lists() -> impl Strategy<Value = Vec<PartialResultList<u32>>> {
    prop::collection::vec(arb_list(), 0..8)
}

/// Multiset of true total scores of a set of items — the tie-insensitive way
/// to compare two top-k answers.
fn score_multiset(items: &[u32], lists: &[PartialResultList<u32>]) -> Vec<u32> {
    let mut scores: Vec<u32> = items
        .iter()
        .map(|i| lists.iter().filter_map(|l| l.score_of(i)).sum())
        .collect();
    scores.sort_unstable();
    scores
}

proptest! {
    /// Exhaustive incremental NRA equals exact aggregation (up to ties).
    #[test]
    fn prop_incremental_matches_exact(lists in arb_lists(), k in 1usize..12) {
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let got: Vec<u32> = nra.topk_exhaustive(k).iter().map(|r| r.item).collect();
        let expected: Vec<u32> = exact_topk(&lists, k).iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(got.len(), expected.len());
        prop_assert_eq!(score_multiset(&got, &lists), score_multiset(&expected, &lists));
    }

    /// The early-terminating scan of `topk` returns the same score
    /// multiset as exact aggregation (the guarantee NRA provides).
    #[test]
    fn prop_early_termination_is_correct(lists in arb_lists(), k in 1usize..12) {
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let got: Vec<u32> = nra.topk(k).iter().map(|r| r.item).collect();
        let expected: Vec<u32> = exact_topk(&lists, k).iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(got.len(), expected.len());
        prop_assert_eq!(score_multiset(&got, &lists), score_multiset(&expected, &lists));
    }

    /// The final result does not depend on how lists are interleaved with
    /// per-cycle top-k recomputations.
    #[test]
    fn prop_arrival_order_is_irrelevant(lists in arb_lists(), k in 1usize..10) {
        let mut one_shot = IncrementalNra::new();
        for l in &lists {
            one_shot.push_list(l.clone());
        }
        let a: Vec<u32> = one_shot.topk_exhaustive(k).iter().map(|r| r.item).collect();

        let mut cycle_by_cycle = IncrementalNra::new();
        for l in &lists {
            cycle_by_cycle.push_list(l.clone());
            let _ = cycle_by_cycle.topk(k);
        }
        let b: Vec<u32> = cycle_by_cycle.topk_exhaustive(k).iter().map(|r| r.item).collect();
        prop_assert_eq!(score_multiset(&a, &lists), score_multiset(&b, &lists));
    }

    /// Worst-case scores never exceed best-case scores and rankings are
    /// sorted by worst-case score.
    #[test]
    fn prop_score_intervals_are_sane(lists in arb_lists(), k in 1usize..10) {
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
        }
        let ranking = nra.topk(k);
        for r in &ranking {
            prop_assert!(r.worst <= r.best);
        }
        for pair in ranking.windows(2) {
            prop_assert!(pair[0].worst >= pair[1].worst);
        }
    }

    /// Scanning statistics: positions scanned never exceed the total number
    /// of entries, even across repeated recomputations.
    #[test]
    fn prop_each_position_read_once(lists in arb_lists()) {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut nra = IncrementalNra::new();
        for l in &lists {
            nra.push_list(l.clone());
            let _ = nra.topk(5);
        }
        let _ = nra.topk_exhaustive(5);
        let _ = nra.topk(3);
        prop_assert!(nra.positions_scanned() <= total);
    }
}
