//! Partial result lists: score-ordered lists of items produced by each user
//! reached by a query.

/// A score-ordered partial result list.
///
/// In P3Q every user reached by a query computes, from the profiles she
/// stores, a *partial relevance score* for each item and returns "a list
/// containing all the items having positive partial relevance scores […]
/// ranked in descending order of their scores" (Section 2.3). These lists are
/// what the querier's NRA instance consumes.
///
/// The list type is generic over the item identifier so the top-k machinery
/// is reusable outside the P3Q data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialResultList<I> {
    entries: Vec<(I, u32)>,
}

impl<I: Copy + Ord> PartialResultList<I> {
    /// Builds a list from unordered `(item, score)` pairs, dropping
    /// zero-score entries, summing duplicate items (saturating at
    /// `u32::MAX`) and sorting by descending score (ties broken by
    /// ascending item for determinism) — [`Self::from_scores_buffer`] over
    /// the collected pairs.
    pub fn from_scores<It: IntoIterator<Item = (I, u32)>>(scores: It) -> Self {
        Self::from_scores_buffer(&mut scores.into_iter().collect())
    }

    /// Builds a list by draining `pairs`, leaving its capacity behind for
    /// the caller to reuse.
    ///
    /// Duplicates are summed (saturating at `u32::MAX`), zero totals
    /// dropped and the result ranked by descending score with
    /// ascending-item tie-breaks. The aggregation happens in place: one sort
    /// by item, one in-place run-summing pass, one sort by rank — no hash
    /// map, and the only allocation is the exact-size entry vector of the
    /// result.
    pub fn from_scores_buffer(pairs: &mut Vec<(I, u32)>) -> Self {
        pairs.sort_unstable_by_key(|&(item, _)| item);
        let mut write = 0usize;
        let mut read = 0usize;
        while read < pairs.len() {
            let (item, mut total) = pairs[read];
            read += 1;
            while read < pairs.len() && pairs[read].0 == item {
                total = total.saturating_add(pairs[read].1);
                read += 1;
            }
            if total > 0 {
                pairs[write] = (item, total);
                write += 1;
            }
        }
        pairs.truncate(write);
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut entries = Vec::with_capacity(pairs.len());
        entries.append(pairs);
        Self { entries }
    }

    /// Builds an empty list.
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry at a scan position (0 = highest score).
    pub fn get(&self, pos: usize) -> Option<(I, u32)> {
        self.entries.get(pos).copied()
    }

    /// Iterates over `(item, score)` pairs in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = (I, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Score of the item if present.
    pub fn score_of(&self, item: &I) -> Option<u32> {
        self.entries
            .iter()
            .find(|(i, _)| i == item)
            .map(|&(_, s)| s)
    }
}

impl<I: Copy + Ord> FromIterator<(I, u32)> for PartialResultList<I> {
    fn from_iter<T: IntoIterator<Item = (I, u32)>>(iter: T) -> Self {
        Self::from_scores(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_scores_sorts_descending() {
        let list = PartialResultList::from_scores(vec![(1u32, 2), (2, 5), (3, 3)]);
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![(2, 5), (3, 3), (1, 2)]);
    }

    #[test]
    fn zero_scores_are_dropped_and_duplicates_summed() {
        let list = PartialResultList::from_scores(vec![(1u32, 0), (2, 1), (2, 3)]);
        assert_eq!(list.len(), 1);
        assert_eq!(list.score_of(&2), Some(4));
        assert_eq!(list.score_of(&1), None);
    }

    #[test]
    fn ties_break_by_item_id() {
        let list = PartialResultList::from_scores(vec![(9u32, 2), (1, 2), (5, 2)]);
        let order: Vec<_> = list.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![1, 5, 9]);
    }

    #[test]
    fn get_is_positional() {
        let list = PartialResultList::from_scores(vec![(1u32, 10), (2, 20)]);
        assert_eq!(list.get(0), Some((2, 20)));
        assert_eq!(list.get(1), Some((1, 10)));
        assert_eq!(list.get(2), None);
    }

    #[test]
    fn from_scores_buffer_matches_from_scores_and_keeps_capacity() {
        let pairs = vec![(1u32, 0), (2, 1), (2, 3), (9, 2), (1, 2), (5, 2)];
        let mut buffer = pairs.clone();
        buffer.reserve(100);
        let capacity = buffer.capacity();
        let from_buffer = PartialResultList::from_scores_buffer(&mut buffer);
        assert_eq!(from_buffer, PartialResultList::from_scores(pairs));
        assert!(buffer.is_empty(), "buffer must be drained");
        assert_eq!(buffer.capacity(), capacity, "capacity must survive");
    }

    #[test]
    fn duplicate_scores_saturate_instead_of_wrapping() {
        // 2^32 - 1 + 1 wraps to 0 under `+=`: the item would then be kept at
        // score 0 in release builds and panic in debug ones.
        let pairs = vec![(1u32, u32::MAX), (1, 1), (2, 3)];
        let expected = vec![(1, u32::MAX), (2, 3)];
        let list = PartialResultList::from_scores(pairs.clone());
        assert_eq!(list.iter().collect::<Vec<_>>(), expected);
        let from_buffer = PartialResultList::from_scores_buffer(&mut pairs.clone());
        assert_eq!(from_buffer.iter().collect::<Vec<_>>(), expected);
        let collected: PartialResultList<u32> = pairs.into_iter().collect();
        assert_eq!(collected, list);
    }

    #[test]
    fn empty_list_behaviour() {
        let list = PartialResultList::<u32>::empty();
        assert!(list.is_empty());
        assert_eq!(list.get(0), None);
        assert_eq!(list.iter().count(), 0);
    }
}
