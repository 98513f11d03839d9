//! The collaborative-tagging dataset: one profile per user plus global
//! vocabulary sizes.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dict::ActionDictionary;
use crate::ids::{ItemId, TagId, UserId};
use crate::profile::{PackedProfile, Profile, SharedProfile};

/// A complete collaborative-tagging dataset.
///
/// This is the in-memory equivalent of the paper's delicious crawl: the set
/// `U` of users, the set `I` of items, the set `T` of tags and, for every
/// user, her profile `{Tagged_u(i, t)}`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    profiles: Vec<SharedProfile>,
    num_items: usize,
    num_tags: usize,
}

impl Dataset {
    /// Builds a dataset from per-user profiles and the vocabulary sizes.
    pub fn new(profiles: Vec<Profile>, num_items: usize, num_tags: usize) -> Self {
        Self {
            profiles: profiles.into_iter().map(Arc::new).collect(),
            num_items,
            num_tags,
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.profiles.len()
    }

    /// Number of distinct items in the vocabulary (upper bound on item ids).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of distinct tags in the vocabulary (upper bound on tag ids).
    pub fn num_tags(&self) -> usize {
        self.num_tags
    }

    /// Total number of tagging actions across all users.
    pub fn total_actions(&self) -> usize {
        self.profiles.iter().map(|p| p.len()).sum()
    }

    /// The profile of `user`.
    ///
    /// # Panics
    /// Panics if the user does not exist.
    pub fn profile(&self, user: UserId) -> &Profile {
        &self.profiles[user.index()]
    }

    /// The profile of `user` as a shareable handle; cloning the result is a
    /// reference bump, not a deep copy. Simulator construction hands these
    /// to the per-user nodes.
    ///
    /// # Panics
    /// Panics if the user does not exist.
    pub fn shared_profile(&self, user: UserId) -> &SharedProfile {
        &self.profiles[user.index()]
    }

    /// Mutable access to the profile of `user` (used by the dynamics
    /// experiments that add new tagging actions). Clones the underlying
    /// storage only if the profile is currently shared.
    pub fn profile_mut(&mut self, user: UserId) -> &mut Profile {
        Arc::make_mut(&mut self.profiles[user.index()])
    }

    /// Iterates over `(user, profile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Profile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (UserId::from_index(i), p.as_ref()))
    }

    /// All user identifiers.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.profiles.len()).map(UserId::from_index)
    }

    /// Number of distinct users that tagged each item.
    pub fn item_user_counts(&self) -> HashMap<ItemId, usize> {
        let mut counts = HashMap::new();
        for profile in &self.profiles {
            for item in profile.items() {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Number of distinct users that used each tag.
    pub(crate) fn tag_user_counts(&self) -> HashMap<TagId, usize> {
        let mut counts = HashMap::new();
        for profile in &self.profiles {
            let mut seen: Vec<TagId> = profile.iter().map(|a| a.tag).collect();
            seen.sort_unstable();
            seen.dedup();
            for tag in seen {
                *counts.entry(tag).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Builds the interned action dictionary over every distinct
    /// `(item, tag)` action currently in the dataset — the trace-build-time
    /// interning step of the compressed storage stack.
    ///
    /// Deterministic: the id assignment depends only on the set of actions.
    /// Callers that keep mutating the dataset afterwards (profile dynamics)
    /// absorb genuinely new actions through
    /// [`ActionDictionary::intern`] on their own copy.
    pub fn action_dictionary(&self) -> ActionDictionary {
        ActionDictionary::from_profiles(self.profiles.iter().map(|p| p.as_ref()))
    }

    /// Resident heap bytes of the decoded profiles (8 bytes per action plus
    /// the per-profile vector headers).
    pub fn profile_heap_bytes(&self) -> usize {
        self.profiles
            .iter()
            .map(|p| p.heap_bytes() + std::mem::size_of::<Profile>())
            .sum()
    }

    /// Heap bytes the same profiles take in the packed columnar form
    /// ([`PackedProfile`]) — what a storage-bound deployment would hold at
    /// rest.
    pub fn packed_profile_bytes(&self) -> usize {
        self.profiles
            .iter()
            .map(|p| PackedProfile::pack(p).heap_bytes() + std::mem::size_of::<PackedProfile>())
            .sum()
    }

    /// Largest profile length.
    pub(crate) fn max_profile_len(&self) -> usize {
        self.profiles.iter().map(|p| p.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::TaggingAction;

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn tiny_dataset() -> Dataset {
        // Three users; item 1 and tag 1 are shared by all, item 9/tag 9 are
        // used by a single user.
        let p0 = Profile::from_actions(vec![act(1, 1), act(2, 1)]);
        let p1 = Profile::from_actions(vec![act(1, 1), act(2, 2)]);
        let p2 = Profile::from_actions(vec![act(1, 1), act(9, 9)]);
        Dataset::new(vec![p0, p1, p2], 10, 10)
    }

    #[test]
    fn basic_accessors() {
        let d = tiny_dataset();
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.total_actions(), 6);
        assert_eq!(d.profile(UserId(0)).len(), 2);
        assert_eq!(d.users().count(), 3);
        assert_eq!(d.max_profile_len(), 2);
    }

    #[test]
    fn item_and_tag_counts_count_distinct_users() {
        let d = tiny_dataset();
        let items = d.item_user_counts();
        assert_eq!(items[&ItemId(1)], 3);
        assert_eq!(items[&ItemId(2)], 2);
        assert_eq!(items[&ItemId(9)], 1);
        let tags = d.tag_user_counts();
        assert_eq!(tags[&TagId(1)], 3);
        assert_eq!(tags[&TagId(2)], 1);
    }

    #[test]
    fn profile_mut_allows_dynamics() {
        let mut d = tiny_dataset();
        d.profile_mut(UserId(0)).insert(act(5, 5));
        assert_eq!(d.profile(UserId(0)).len(), 3);
    }

    #[test]
    fn empty_dataset_is_sane() {
        let d = Dataset::default();
        assert_eq!(d.num_users(), 0);
        assert_eq!(d.total_actions(), 0);
        assert_eq!(d.max_profile_len(), 0);
    }
}
