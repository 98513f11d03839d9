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
/// `Score_{u_j, Q}(i)`, in ascending item order.
pub fn profile_contribution(profile: &Profile, query: &Query) -> Vec<(ItemId, u32)> {
    let mut out = Vec::new();
    push_item_scores(profile, query, tag_screen(query), &mut out);
    out
}

/// The query's tags as a one-word screen: bit `tag & 63` is set for every
/// query tag. A tag whose bit is clear cannot be a query tag, so the screen
/// never rejects a real match; a set bit still needs the exact search.
fn tag_screen(query: &Query) -> u64 {
    query
        .tags
        .iter()
        .fold(0, |screen, tag| screen | 1 << (tag.0 & 63))
}

/// The scoring kernel: one pass over `profile`'s item-major actions, each
/// tag tested against `screen` (see [`tag_screen`]) before the exact
/// `binary_search`, appending `(item, 1)` for an item's first matching tag
/// and counting further matches into that entry. An entry continues the
/// last one of `out` when the item is the same — also across profiles,
/// which only sums earlier what the aggregation would sum anyway.
fn push_item_scores(profile: &Profile, query: &Query, screen: u64, out: &mut Vec<(ItemId, u32)>) {
    for action in profile.actions() {
        if (screen >> (action.tag.0 & 63)) & 1 == 0 || !query.contains_tag(action.tag) {
            continue;
        }
        match out.last_mut() {
            Some((item, score)) if *item == action.item => *score += 1,
            _ => out.push((action.item, 1)),
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
    score_profiles(profiles, query, &mut scratch.pairs);
    PartialResultList::from_scores_buffer(&mut scratch.pairs)
}

/// The exact relevance score `Score(Q, i)` of every item over a set of
/// profiles — the full aggregation a centralized deployment would compute,
/// ranked by descending score with ties by ascending item.
pub fn full_relevance_scores<'a, I>(profiles: I, query: &Query) -> Vec<(ItemId, u32)>
where
    I: IntoIterator<Item = &'a Profile>,
{
    let mut pairs = Vec::new();
    score_profiles(profiles, query, &mut pairs);
    PartialResultList::from_scores_buffer(&mut pairs)
        .iter()
        .collect()
}

/// Replaces `pairs` with the kernel's `(item, score)` entries of every
/// profile, the query's screen built once for all of them.
fn score_profiles<'a, I>(profiles: I, query: &Query, pairs: &mut Vec<(ItemId, u32)>)
where
    I: IntoIterator<Item = &'a Profile>,
{
    pairs.clear();
    let screen = tag_screen(query);
    for profile in profiles {
        push_item_scores(profile, query, screen, pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_trace::{TagId, TaggingAction, UserId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

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
        // item 2: 1 + 2; item 1: 1; item 3 carries no query tag.
        assert_eq!(full, vec![(ItemId(2), 3), (ItemId(1), 1)]);
        assert_eq!(partial.iter().collect::<Vec<_>>(), full);
    }

    #[test]
    fn empty_query_scores_nothing() {
        let p = Profile::from_actions(vec![act(1, 1)]);
        let q = query(&[]);
        assert!(profile_contribution(&p, &q).is_empty());
        assert!(partial_result_list([&p], &q).is_empty());
    }

    /// The per-item kernel the screened one replaced: one run per item,
    /// every tag through `contains_tag`.
    fn contribution_per_item(profile: &Profile, query: &Query, out: &mut Vec<(ItemId, u32)>) {
        let mut actions = profile.iter().peekable();
        while let Some(first) = actions.next() {
            let mut score = u32::from(query.contains_tag(first.tag));
            while let Some(next) = actions.next_if(|next| next.item == first.item) {
                score += u32::from(query.contains_tag(next.tag));
            }
            if score > 0 {
                out.push((first.item, score));
            }
        }
    }

    /// The old body of [`partial_result_list_buffered`]: per-item
    /// contributions, then the same in-place aggregation.
    fn partial_list_per_item(profiles: &[Profile], query: &Query) -> PartialResultList<ItemId> {
        let mut pairs = Vec::new();
        for profile in profiles {
            contribution_per_item(profile, query, &mut pairs);
        }
        PartialResultList::from_scores_buffer(&mut pairs)
    }

    /// The old body of [`full_relevance_scores`]: a per-profile vector per
    /// profile, every hit summed in a `HashMap`, then ranked.
    fn full_relevance_by_map(profiles: &[Profile], query: &Query) -> Vec<(ItemId, u32)> {
        let mut totals: HashMap<ItemId, u32> = HashMap::new();
        for profile in profiles {
            let mut contribution = Vec::new();
            contribution_per_item(profile, query, &mut contribution);
            for (item, score) in contribution {
                *totals.entry(item).or_insert(0) += score;
            }
        }
        let mut entries: Vec<(ItemId, u32)> = totals.into_iter().collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
    }

    #[test]
    fn screened_scoring_equals_the_per_item_and_map_oracles() {
        let mut rng = StdRng::seed_from_u64(0x5C0E);
        // Tags 0..6 plus their aliases mod 64 (64.., 128..): query tags and
        // profile tags collide in the screen without being equal.
        let tag = |rng: &mut StdRng| TagId(rng.gen_range(0..6u32) + 64 * rng.gen_range(0..3u32));
        let mut buffer = ScoreBuffer::default();
        for round in 0..400 {
            let profiles: Vec<Profile> =
                (0..rng.gen_range(0..8usize))
                    .map(|_| {
                        // Few items, so an item often carries several tags.
                        let n = rng.gen_range(0..30usize);
                        Profile::from_actions((0..n).map(|_| {
                            TaggingAction::new(ItemId(rng.gen_range(0..12)), tag(&mut rng))
                        }))
                    })
                    .collect();
            let mut tags: Vec<TagId> = (0..rng.gen_range(0..5usize))
                .map(|_| tag(&mut rng))
                .collect();
            let q = match round % 4 {
                // Tags that no profile uses, each aliasing used ones.
                0 => query(&[2 + 192, 5 + 256, 1 + 320]),
                // Duplicate tags, kept: `Query::new` would drop them.
                1 => {
                    tags.extend(tags.clone());
                    tags.sort_unstable();
                    Query {
                        querier: UserId(0),
                        tags,
                        source_item: ItemId(0),
                    }
                }
                _ => Query::new(UserId(0), tags, ItemId(0)),
            };
            let case = format!("round {round}, query {:?}", q.tags);
            let expected = partial_list_per_item(&profiles, &q);
            // One buffer across every call, as eager mode holds it.
            assert_eq!(
                partial_result_list_buffered(&profiles, &q, &mut buffer),
                expected,
                "{case}"
            );
            assert_eq!(
                full_relevance_scores(&profiles, &q),
                full_relevance_by_map(&profiles, &q),
                "{case}"
            );
            assert_eq!(
                expected.iter().collect::<Vec<_>>(),
                full_relevance_scores(&profiles, &q),
                "{case}"
            );
            for profile in &profiles {
                let mut per_item = Vec::new();
                contribution_per_item(profile, &q, &mut per_item);
                assert_eq!(profile_contribution(profile, &q), per_item, "{case}");
            }
        }
    }

    #[test]
    fn an_item_with_several_query_tags_scores_each() {
        // Tags 1 and 65 share a screen bit; 65 is not a query tag.
        let p = Profile::from_actions(vec![
            act(4, 1),
            act(4, 2),
            act(4, 65),
            act(4, 3),
            act(5, 65),
        ]);
        let q = query(&[1, 2, 3]);
        assert_eq!(full_relevance_scores([&p], &q), vec![(ItemId(4), 3)]);
        assert_eq!(
            full_relevance_scores([&p], &query(&[65, 66])),
            vec![(ItemId(4), 1), (ItemId(5), 1)]
        );
        assert!(full_relevance_scores([&p], &query(&[9, 73])).is_empty());
        assert!(full_relevance_scores([&p], &query(&[])).is_empty());
    }
}
