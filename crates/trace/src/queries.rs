//! Query generation.
//!
//! The paper's workload (Section 3.1.1): every user issues exactly one query,
//! built by picking a random item from her profile and using the tags *she*
//! applied to that item as the query terms — "the tags used by a user to tag
//! an item are precisely those she would use to search for that particular
//! item".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::ids::{ItemId, TagId, UserId};

/// A personalized top-k query `Q = {u_i, t_1, ..., t_n}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The user issuing the query.
    pub querier: UserId,
    /// The query tags.
    pub tags: Vec<TagId>,
    /// The profile item the query was generated from (kept for analysis; the
    /// protocol itself never looks at it).
    pub source_item: ItemId,
}

impl Query {
    /// Creates a query, deduplicating tags.
    pub fn new(querier: UserId, mut tags: Vec<TagId>, source_item: ItemId) -> Self {
        tags.sort_unstable();
        tags.dedup();
        Self {
            querier,
            tags,
            source_item,
        }
    }

    /// Returns `true` if `tag` is one of the query terms.
    pub fn contains_tag(&self, tag: TagId) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Wire size of the query itself: a 4-byte querier id plus one 16-byte
    /// tag string per term (the paper's byte model).
    pub fn wire_bytes(&self) -> usize {
        4 + 16 * self.tags.len()
    }
}

/// Generates the paper's one-query-per-user workload.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    seed: u64,
}

impl QueryGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Builds the query of a single user, or `None` if her profile is empty.
    pub(crate) fn query_for_user<R: Rng + ?Sized>(
        dataset: &Dataset,
        user: UserId,
        rng: &mut R,
    ) -> Option<Query> {
        let profile = dataset.profile(user);
        if profile.is_empty() {
            return None;
        }
        let items: Vec<ItemId> = profile.items().collect();
        let item = items[rng.gen_range(0..items.len())];
        let tags: Vec<TagId> = profile.tags_for_item(item).collect();
        Some(Query::new(user, tags, item))
    }

    /// Builds one query per user (skipping users with empty profiles), in
    /// user-id order.
    pub fn one_query_per_user(&self, dataset: &Dataset) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        dataset
            .users()
            .filter_map(|u| Self::query_for_user(dataset, u, &mut rng))
            .collect()
    }

    /// Builds `count` consecutive queries for the same user (the Figure 9
    /// workload, where one querier issues a burst of queries between two lazy
    /// cycles). Queries may repeat items if the profile is small.
    pub fn burst_for_user(&self, dataset: &Dataset, user: UserId, count: usize) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ user.as_key());
        (0..count)
            .filter_map(|_| Self::query_for_user(dataset, user, &mut rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::TaggingAction;
    use crate::profile::Profile;

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn dataset() -> Dataset {
        let p0 = Profile::from_actions(vec![act(1, 1), act(1, 2), act(2, 3)]);
        let p1 = Profile::from_actions(vec![act(2, 3), act(2, 4)]);
        let p2 = Profile::new();
        Dataset::new(vec![p0, p1, p2], 10, 10)
    }

    #[test]
    fn query_tags_come_from_the_source_item() {
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let q = QueryGenerator::query_for_user(&d, UserId(0), &mut rng).unwrap();
            let expected: Vec<TagId> = d.profile(UserId(0)).tags_for_item(q.source_item).collect();
            assert_eq!(q.tags, expected);
            assert!(!q.tags.is_empty());
        }
    }

    #[test]
    fn empty_profile_yields_no_query() {
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(QueryGenerator::query_for_user(&d, UserId(2), &mut rng).is_none());
    }

    #[test]
    fn one_query_per_user_skips_empty_profiles() {
        let d = dataset();
        let queries = QueryGenerator::new(7).one_query_per_user(&d);
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].querier, UserId(0));
        assert_eq!(queries[1].querier, UserId(1));
    }

    #[test]
    fn workload_is_deterministic() {
        let d = dataset();
        let a = QueryGenerator::new(3).one_query_per_user(&d);
        let b = QueryGenerator::new(3).one_query_per_user(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn burst_generates_requested_count() {
        let d = dataset();
        let burst = QueryGenerator::new(1).burst_for_user(&d, UserId(0), 5);
        assert_eq!(burst.len(), 5);
        assert!(burst.iter().all(|q| q.querier == UserId(0)));
    }

    #[test]
    fn query_deduplicates_tags_and_reports_sizes() {
        let q = Query::new(UserId(1), vec![TagId(5), TagId(5), TagId(2)], ItemId(9));
        assert_eq!(q.tags, [TagId(2), TagId(5)]);
        assert!(q.contains_tag(TagId(5)));
        assert!(!q.contains_tag(TagId(9)));
        assert_eq!(q.wire_bytes(), 4 + 32);
    }
}
