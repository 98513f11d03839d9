//! Exact top-k by full aggregation — the reference the NRA variants are
//! checked against, and the building block of the paper's centralized
//! baseline ("we run a top-10 processing in a centralized implementation of
//! our protocol and take the 10 returned items as relevant items").

use std::collections::HashMap;
use std::hash::Hash;

use crate::list::PartialResultList;

/// Aggregates a set of partial result lists by summing scores per item and
/// returns the `k` items with the highest total score.
///
/// Ties are broken by ascending item identifier so results are deterministic
/// and comparable across implementations.
pub fn exact_topk<I: Copy + Eq + Hash + Ord>(
    lists: &[PartialResultList<I>],
    k: usize,
) -> Vec<(I, u32)> {
    let mut totals: HashMap<I, u32> = HashMap::new();
    for list in lists {
        for (item, score) in list.iter() {
            *totals.entry(item).or_insert(0) += score;
        }
    }
    topk_of_totals(totals, k)
}

/// Returns the `k` best entries of an item → total-score map, ordered by
/// descending score then ascending item.
pub(crate) fn topk_of_totals<I: Copy + Eq + Hash + Ord>(
    totals: HashMap<I, u32>,
    k: usize,
) -> Vec<(I, u32)> {
    let mut entries: Vec<(I, u32)> = totals.into_iter().filter(|&(_, s)| s > 0).collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

/// Recall of a result set against a reference set: the fraction of reference
/// items that appear in the result (Section 3.2.2 of the paper).
///
/// Only item identity matters, not rank or score — this matches the paper's
/// `R_k = |retrieved ∩ relevant| / |relevant|` definition.
pub fn recall<I: Copy + Eq + Hash + Ord>(result: &[(I, u32)], reference: &[(I, u32)]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let reference_items: std::collections::HashSet<I> = reference.iter().map(|&(i, _)| i).collect();
    let hits = result
        .iter()
        .filter(|(i, _)| reference_items.contains(i))
        .count();
    hits as f64 / reference_items.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(pairs: &[(u32, u32)]) -> PartialResultList<u32> {
        PartialResultList::from_scores(pairs.iter().copied())
    }

    #[test]
    fn aggregation_sums_across_lists() {
        let lists = vec![list(&[(1, 3), (2, 1)]), list(&[(1, 2), (3, 4)])];
        let top = exact_topk(&lists, 2);
        assert_eq!(top, vec![(1, 5), (3, 4)]);
    }

    #[test]
    fn k_larger_than_items_returns_all() {
        let lists = vec![list(&[(1, 1)])];
        assert_eq!(exact_topk(&lists, 10), vec![(1, 1)]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let lists: Vec<PartialResultList<u32>> = vec![];
        assert!(exact_topk(&lists, 5).is_empty());
    }

    #[test]
    fn ties_are_deterministic() {
        let lists = vec![list(&[(5, 2), (1, 2), (9, 2)])];
        assert_eq!(exact_topk(&lists, 2), vec![(1, 2), (5, 2)]);
    }

    #[test]
    fn recall_matches_paper_definition() {
        let reference = vec![(1u32, 10), (2, 9), (3, 8), (4, 7)];
        let result = vec![(2u32, 100), (9, 50), (3, 1)];
        assert!((recall(&result, &reference) - 0.5).abs() < 1e-12);
        assert_eq!(recall(&result, &[]), 1.0);
        assert_eq!(recall(&[], &reference), 0.0);
    }

    #[test]
    fn recall_ignores_rank_and_score() {
        let reference = vec![(1u32, 10), (2, 9)];
        let reversed = vec![(2u32, 1), (1, 1)];
        assert_eq!(recall(&reversed, &reference), 1.0);
    }
}
