//! Similarity and relevance scoring (Sections 2.1 and 2.3 of the paper).

use p3q_topk::PartialResultList;
use p3q_trace::{ItemId, Profile, Query};

/// `Score_{u_i}(u_j) = |Profile(u_i) ∩ Profile(u_j)|`: the number of common
/// tagging actions, i.e. the similarity used to build personal networks.
///
/// The metric counts *(item, tag)* pairs, so it captures agreement on both
/// the objects and the vocabulary used to describe them. P3Q is generic in
/// this respect — any other similarity could be plugged in — but the paper's
/// evaluation uses exactly this one.
pub fn similarity(a: &Profile, b: &Profile) -> u64 {
    a.common_actions(b) as u64
}

/// `Score_{u_j, Q}(i)`: the number of query tags that user `u_j` used to
/// annotate item `i`.
pub fn item_score_for_profile(profile: &Profile, query: &Query, item: ItemId) -> u32 {
    profile
        .tags_for_item(item)
        .filter(|tag| query.contains_tag(*tag))
        .count() as u32
}

/// Computes the partial relevance scores contributed by one profile: every
/// item of the profile that carries at least one query tag, with its
/// `Score_{u_j, Q}(i)`.
pub fn profile_contribution(profile: &Profile, query: &Query) -> Vec<(ItemId, u32)> {
    let mut out = Vec::new();
    profile_contribution_into(profile, query, &mut out);
    out
}

/// Appends one profile's contribution to `out` without allocating.
///
/// This is the buffer-reusing core of [`profile_contribution`]: a single
/// pass over the profile's item-major action list, counting query-tag
/// matches per item run — no per-item binary searches and no intermediate
/// vector. Eager query resolution calls this once per stored profile per
/// cycle, so the allocation and the extra `O(log n)` factor both matter.
pub fn profile_contribution_into(profile: &Profile, query: &Query, out: &mut Vec<(ItemId, u32)>) {
    let mut actions = profile.iter().peekable();
    while let Some(first) = actions.next() {
        let item = first.item;
        let mut score = u32::from(query.contains_tag(first.tag));
        while let Some(next) = actions.peek() {
            if next.item != item {
                break;
            }
            score += u32::from(query.contains_tag(next.tag));
            actions.next();
        }
        if score > 0 {
            out.push((item, score));
        }
    }
}

/// Builds the partial result list of a user who holds `profiles`
/// (`GoodProfiles(u_j, Q)` in the paper): for each item, the sum of
/// `Score_{u_l, Q}(i)` over the held profiles, restricted to items with a
/// positive score and sorted by descending score (Section 2.3).
pub fn partial_result_list<'a, I>(profiles: I, query: &Query) -> PartialResultList<ItemId>
where
    I: IntoIterator<Item = &'a Profile>,
{
    let mut scratch = ScoreBuffer::default();
    partial_result_list_buffered(profiles, query, &mut scratch)
}

/// Reusable scratch space for [`partial_result_list_buffered`].
///
/// One buffer serves any number of calls; the accumulated capacity tracks
/// the largest contribution seen, so steady-state query resolution runs
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScoreBuffer {
    pairs: Vec<(ItemId, u32)>,
}

/// [`partial_result_list`] with caller-owned scratch space: per-profile
/// contributions accumulate into `scratch` and the final aggregation happens
/// in place, leaving `scratch` empty but with its capacity intact.
pub fn partial_result_list_buffered<'a, I>(
    profiles: I,
    query: &Query,
    scratch: &mut ScoreBuffer,
) -> PartialResultList<ItemId>
where
    I: IntoIterator<Item = &'a Profile>,
{
    scratch.pairs.clear();
    for profile in profiles {
        profile_contribution_into(profile, query, &mut scratch.pairs);
    }
    PartialResultList::from_scores_buffer(&mut scratch.pairs)
}

/// The exact relevance score `Score(Q, i)` of every item over a set of
/// profiles — the full aggregation a centralized deployment would compute.
pub fn full_relevance_scores<'a, I>(profiles: I, query: &Query) -> Vec<(ItemId, u32)>
where
    I: IntoIterator<Item = &'a Profile>,
{
    use std::collections::HashMap;
    let mut totals: HashMap<ItemId, u32> = HashMap::new();
    for profile in profiles {
        for (item, score) in profile_contribution(profile, query) {
            *totals.entry(item).or_insert(0) += score;
        }
    }
    let mut entries: Vec<(ItemId, u32)> = totals.into_iter().collect();
    entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::{TagId, TaggingAction, UserId};

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn query(tags: &[u32]) -> Query {
        Query::new(
            UserId(0),
            tags.iter().map(|&t| TagId(t)).collect(),
            ItemId(0),
        )
    }

    #[test]
    fn similarity_counts_common_actions() {
        let a = Profile::from_actions(vec![act(1, 1), act(2, 2), act(3, 3)]);
        let b = Profile::from_actions(vec![act(1, 1), act(2, 9), act(3, 3)]);
        assert_eq!(similarity(&a, &b), 2);
        assert_eq!(similarity(&a, &a), 3);
        assert_eq!(similarity(&a, &Profile::new()), 0);
    }

    #[test]
    fn item_score_counts_matching_query_tags() {
        let p = Profile::from_actions(vec![act(7, 1), act(7, 2), act(7, 3), act(8, 1)]);
        let q = query(&[1, 3, 9]);
        assert_eq!(item_score_for_profile(&p, &q, ItemId(7)), 2);
        assert_eq!(item_score_for_profile(&p, &q, ItemId(8)), 1);
        assert_eq!(item_score_for_profile(&p, &q, ItemId(99)), 0);
    }

    #[test]
    fn profile_contribution_skips_zero_scores() {
        let p = Profile::from_actions(vec![act(1, 1), act(2, 9)]);
        let q = query(&[1]);
        let contribution = profile_contribution(&p, &q);
        assert_eq!(contribution, vec![(ItemId(1), 1)]);
    }

    #[test]
    fn partial_result_list_sums_over_profiles() {
        let p1 = Profile::from_actions(vec![act(1, 1), act(2, 1)]);
        let p2 = Profile::from_actions(vec![act(1, 1), act(1, 2)]);
        let q = query(&[1, 2]);
        let list = partial_result_list([&p1, &p2], &q);
        // item 1: 1 (p1) + 2 (p2) = 3; item 2: 1.
        assert_eq!(list.score_of(&ItemId(1)), Some(3));
        assert_eq!(list.score_of(&ItemId(2)), Some(1));
        assert_eq!(list.get(0), Some((ItemId(1), 3)));
    }

    #[test]
    fn full_relevance_matches_partial_on_same_profiles() {
        let p1 = Profile::from_actions(vec![act(1, 1), act(2, 1), act(3, 5)]);
        let p2 = Profile::from_actions(vec![act(2, 1), act(2, 2)]);
        let q = query(&[1, 2]);
        let full = full_relevance_scores([&p1, &p2], &q);
        let partial = partial_result_list([&p1, &p2], &q);
        for &(item, score) in &full {
            assert_eq!(partial.score_of(&item), Some(score));
        }
    }

    #[test]
    fn empty_query_scores_nothing() {
        let p = Profile::from_actions(vec![act(1, 1)]);
        let q = query(&[]);
        assert!(profile_contribution(&p, &q).is_empty());
        assert!(partial_result_list([&p], &q).is_empty());
    }
}
