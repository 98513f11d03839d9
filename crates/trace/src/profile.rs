//! User profiles: sorted sets of tagging actions with the intersection
//! operations P3Q's similarity metric and query scoring need.

use std::sync::Arc;

use p3q_bloom::BloomFilter;

use crate::action::TaggingAction;
use crate::ids::{ItemId, TagId};

/// A reference-counted, immutably shared profile.
///
/// Profiles are the dominant payload of the gossip stack: every exchange
/// proposes them, every node caches them, and the simulator holds one per
/// user. Sharing them as `Arc<Profile>` turns the deep per-exchange copies
/// into reference bumps; mutation sites (profile dynamics) go through
/// [`Arc::make_mut`], which clones only when a profile is actually shared.
pub type SharedProfile = Arc<Profile>;

/// The profile of a user: the set of her tagging actions.
///
/// Internally stored as a sorted, deduplicated `Vec<TaggingAction>` (item
/// major) so that
/// * intersections (`common_actions`, the similarity score) run as linear
///   merges,
/// * per-item tag lookups (`tags_for_item`, query scoring) are a binary
///   search plus a short scan, and
/// * the memory footprint stays close to the 8 bytes per action a simulation
///   with ~10 million actions requires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    actions: Vec<TaggingAction>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from an arbitrary collection of actions, sorting and
    /// deduplicating them.
    pub fn from_actions<I: IntoIterator<Item = TaggingAction>>(actions: I) -> Self {
        let mut actions: Vec<TaggingAction> = actions.into_iter().collect();
        actions.sort_unstable();
        actions.dedup();
        Self { actions }
    }

    /// Adds one tagging action; returns `true` if it was not already present.
    pub fn insert(&mut self, action: TaggingAction) -> bool {
        match self.actions.binary_search(&action) {
            Ok(_) => false,
            Err(pos) => {
                self.actions.insert(pos, action);
                true
            }
        }
    }

    /// Adds many actions at once (more efficient than repeated [`insert`]
    /// calls for large batches).
    ///
    /// Only the incoming batch is sorted; it is then merged into the
    /// existing sorted actions in one backwards in-place pass, so a batch of
    /// `b` actions against a profile of `n` costs `O(b log b + n)` instead
    /// of the `O((n + b) log (n + b))` full re-sort (or the `O(n · b)` of
    /// repeated [`insert`]s) — this is the profile-dynamics hot path.
    ///
    /// Returns the number of genuinely new actions.
    ///
    /// [`insert`]: Profile::insert
    pub fn extend<I: IntoIterator<Item = TaggingAction>>(&mut self, actions: I) -> usize {
        let mut incoming: Vec<TaggingAction> = actions.into_iter().collect();
        incoming.sort_unstable();
        incoming.dedup();
        incoming.retain(|a| !self.contains(a));
        if incoming.is_empty() {
            return 0;
        }
        let added = incoming.len();
        if self.actions.is_empty() {
            self.actions = incoming;
            return added;
        }
        // Backwards merge: grow once, then write the larger of the two tails
        // into the gap until the incoming run is exhausted.
        let old_len = self.actions.len();
        self.actions.resize(
            old_len + added,
            *incoming.last().expect("incoming checked non-empty"),
        );
        let (mut read, mut write) = (old_len, old_len + added);
        let mut pending = added;
        while pending > 0 {
            if read > 0 && self.actions[read - 1] > incoming[pending - 1] {
                self.actions[write - 1] = self.actions[read - 1];
                read -= 1;
            } else {
                self.actions[write - 1] = incoming[pending - 1];
                pending -= 1;
            }
            write -= 1;
        }
        added
    }

    /// Returns `true` if the profile contains the given action.
    pub fn contains(&self, action: &TaggingAction) -> bool {
        self.actions.binary_search(action).is_ok()
    }

    /// Returns `true` if the user tagged `item` with `tag`
    /// (`Tagged_u(i, t)` in the paper's notation).
    pub fn tagged(&self, item: ItemId, tag: TagId) -> bool {
        self.contains(&TaggingAction::new(item, tag))
    }

    /// Number of tagging actions — the "length" of the profile, used by the
    /// paper's storage accounting (Figure 5).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the profile holds no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Iterates over the actions in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &TaggingAction> {
        self.actions.iter()
    }

    /// The actions as a sorted slice.
    pub fn actions(&self) -> &[TaggingAction] {
        &self.actions
    }

    /// Iterates over the distinct items the user tagged, in ascending order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        DistinctItems {
            actions: &self.actions,
            pos: 0,
        }
    }

    /// Number of distinct items the user tagged.
    pub(crate) fn item_count(&self) -> usize {
        self.items().count()
    }

    /// Returns `true` if the user tagged `item` with any tag.
    pub fn has_item(&self, item: ItemId) -> bool {
        let probe = TaggingAction::new(item, TagId(0));
        match self.actions.binary_search(&probe) {
            Ok(_) => true,
            Err(pos) => self.actions.get(pos).is_some_and(|a| a.item == item),
        }
    }

    /// All tags the user applied to `item`, in ascending tag order.
    pub fn tags_for_item(&self, item: ItemId) -> impl Iterator<Item = TagId> + '_ {
        let start = self.actions.partition_point(|a| a.item < item);
        self.actions[start..]
            .iter()
            .take_while(move |a| a.item == item)
            .map(|a| a.tag)
    }

    /// `Score_u(v) = |Profile(u) ∩ Profile(v)|`: the number of common tagging
    /// actions, i.e. the similarity score of Section 2.1.
    pub fn common_actions(&self, other: &Profile) -> usize {
        merge_count(&self.actions, &other.actions)
    }

    /// Builds the Bloom-filter digest of this profile: the filter contains
    /// only the *items* tagged by the user (Section 2.1).
    pub fn digest(&self, bits: usize, hashes: u32) -> BloomFilter {
        BloomFilter::from_keys(bits, hashes, self.items().map(ItemId::as_key))
    }

    /// Wire size of the full profile under the paper's 36-bytes-per-action
    /// accounting.
    pub fn wire_bytes(&self) -> usize {
        self.len() * TaggingAction::WIRE_BYTES
    }

    /// Resident heap bytes of the in-memory (decoded) layout.
    pub fn heap_bytes(&self) -> usize {
        self.actions.len() * std::mem::size_of::<TaggingAction>()
    }
}

/// A profile stored as one delta-varint compressed key stream — the
/// columnar at-rest form of a profile.
///
/// [`Profile`] keeps its actions as a plain sorted `Vec<TaggingAction>`
/// (8 bytes per action) because the gossip hot paths live on linear merges
/// and binary searches over that layout. `PackedProfile` is the compressed
/// counterpart for bulk storage: the sorted `(item, tag)` keys are encoded
/// as item-delta + tag varints, which lands around 3–5 bytes per action on
/// the paper-shaped traces. Round-trips losslessly through
/// [`Self::unpack`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedProfile {
    bytes: Vec<u8>,
    len: u32,
}

impl PackedProfile {
    /// Packs a profile.
    pub fn pack(profile: &Profile) -> Self {
        let mut bytes = Vec::new();
        let mut prev_item = 0u32;
        for action in profile.iter() {
            // Item-delta first (0 = same item as the predecessor), then the
            // tag verbatim. Both stay small on real profiles: items repeat
            // and tag ids are dense.
            crate::codec::write_varint(u64::from(action.item.0 - prev_item), &mut bytes);
            crate::codec::write_varint(u64::from(action.tag.0), &mut bytes);
            prev_item = action.item.0;
        }
        Self {
            bytes,
            len: u32::try_from(profile.len()).expect("profile length overflow"),
        }
    }

    /// Number of packed actions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if no actions are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident heap bytes of the packed form.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes back into a [`Profile`].
    pub fn unpack(&self) -> Profile {
        let mut actions = Vec::with_capacity(self.len as usize);
        actions.extend(self.actions());
        Profile { actions }
    }

    /// Iterates the packed actions in sorted order, decoding on the fly.
    /// Profiles are held and served decoded; this is the decoder behind
    /// [`Self::unpack`].
    pub fn actions(&self) -> PackedActions<'_> {
        PackedActions {
            bytes: &self.bytes,
            pos: 0,
            remaining: self.len,
            item: 0,
        }
    }
}

/// Decode-on-the-fly iterator over a [`PackedProfile`]'s actions (see
/// [`PackedProfile::actions`]).
#[derive(Debug, Clone)]
pub struct PackedActions<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: u32,
    item: u32,
}

impl Iterator for PackedActions<'_> {
    type Item = TaggingAction;

    #[inline]
    fn next(&mut self) -> Option<TaggingAction> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.item += crate::codec::read_varint(self.bytes, &mut self.pos) as u32;
        let tag = crate::codec::read_varint(self.bytes, &mut self.pos) as u32;
        Some(TaggingAction::new(ItemId(self.item), TagId(tag)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PackedActions<'_> {}

impl From<&Profile> for PackedProfile {
    fn from(profile: &Profile) -> Self {
        Self::pack(profile)
    }
}

impl FromIterator<TaggingAction> for Profile {
    fn from_iter<I: IntoIterator<Item = TaggingAction>>(iter: I) -> Self {
        Self::from_actions(iter)
    }
}

impl<'a> IntoIterator for &'a Profile {
    type Item = &'a TaggingAction;
    type IntoIter = std::slice::Iter<'a, TaggingAction>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

/// Iterator over distinct items of a sorted action list.
struct DistinctItems<'a> {
    actions: &'a [TaggingAction],
    pos: usize,
}

impl Iterator for DistinctItems<'_> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        let current = self.actions.get(self.pos)?.item;
        while self
            .actions
            .get(self.pos)
            .is_some_and(|a| a.item == current)
        {
            self.pos += 1;
        }
        Some(current)
    }
}

/// Counts the size of the intersection of two sorted, deduplicated slices.
fn merge_count(a: &[TaggingAction], b: &[TaggingAction]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    #[test]
    fn insert_deduplicates() {
        let mut p = Profile::new();
        assert!(p.insert(act(1, 1)));
        assert!(!p.insert(act(1, 1)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn from_actions_sorts_and_dedups() {
        let p = Profile::from_actions(vec![act(3, 1), act(1, 2), act(3, 1), act(1, 1)]);
        assert_eq!(p.len(), 3);
        let actions: Vec<_> = p.iter().copied().collect();
        assert_eq!(actions, vec![act(1, 1), act(1, 2), act(3, 1)]);
    }

    #[test]
    fn common_actions_matches_paper_definition() {
        let a = Profile::from_actions(vec![act(1, 1), act(1, 2), act(2, 5), act(9, 9)]);
        let b = Profile::from_actions(vec![act(1, 2), act(2, 5), act(2, 6), act(8, 1)]);
        // Shared (item, tag) pairs: (1,2) and (2,5).
        assert_eq!(a.common_actions(&b), 2);
        assert_eq!(b.common_actions(&a), 2);
    }

    #[test]
    fn common_actions_with_self_is_len() {
        let a = Profile::from_actions(vec![act(1, 1), act(2, 2), act(3, 3)]);
        assert_eq!(a.common_actions(&a), a.len());
    }

    #[test]
    fn items_are_distinct_and_sorted() {
        let p = Profile::from_actions(vec![act(5, 1), act(1, 1), act(1, 2), act(5, 9)]);
        let items: Vec<_> = p.items().collect();
        assert_eq!(items, vec![ItemId(1), ItemId(5)]);
        assert_eq!(p.item_count(), 2);
    }

    #[test]
    fn tags_for_item_returns_all_tags() {
        let p = Profile::from_actions(vec![act(4, 7), act(4, 2), act(5, 1)]);
        let tags: Vec<_> = p.tags_for_item(ItemId(4)).collect();
        assert_eq!(tags, vec![TagId(2), TagId(7)]);
        assert_eq!(p.tags_for_item(ItemId(99)).count(), 0);
    }

    #[test]
    fn has_item_does_not_depend_on_tag_zero() {
        let p = Profile::from_actions(vec![act(4, 7)]);
        assert!(p.has_item(ItemId(4)));
        assert!(!p.has_item(ItemId(3)));
        assert!(!p.has_item(ItemId(5)));
    }

    #[test]
    fn digest_contains_all_items() {
        let p = Profile::from_actions(vec![act(10, 1), act(20, 2), act(30, 3)]);
        let d = p.digest(4096, 5);
        for item in p.items() {
            assert!(d.contains(item.as_key()));
        }
    }

    #[test]
    fn wire_bytes_is_36_per_action() {
        let p = Profile::from_actions(vec![act(1, 1), act(2, 2)]);
        assert_eq!(p.wire_bytes(), 72);
    }

    #[test]
    fn extend_reports_new_actions_only() {
        let mut p = Profile::from_actions(vec![act(1, 1)]);
        let added = p.extend(vec![act(1, 1), act(2, 2), act(3, 3)]);
        assert_eq!(added, 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn extend_merges_interleaved_batches_in_order() {
        let mut p = Profile::from_actions(vec![act(2, 0), act(4, 0), act(6, 0)]);
        // New actions land before, between and after the existing ones, with
        // one duplicate mixed in.
        let added = p.extend(vec![act(7, 0), act(1, 0), act(4, 0), act(3, 0), act(5, 0)]);
        assert_eq!(added, 4);
        let expected = Profile::from_actions((1..=7).map(|i| act(i, 0)));
        assert_eq!(p, expected);
    }

    #[test]
    fn extend_into_empty_profile() {
        let mut p = Profile::new();
        assert_eq!(p.extend(vec![act(3, 1), act(1, 1), act(3, 1)]), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.extend(Vec::new()), 0);
    }

    #[test]
    fn packed_profile_round_trips() {
        let p = Profile::from_actions(vec![act(1, 3), act(1, 9), act(2, 0), act(900, 44)]);
        let packed = PackedProfile::pack(&p);
        assert_eq!(packed.len(), p.len());
        assert_eq!(packed.unpack(), p);
        let empty = PackedProfile::pack(&Profile::new());
        assert!(empty.is_empty());
        assert_eq!(empty.unpack(), Profile::new());
    }

    #[test]
    fn packed_profile_is_smaller_than_decoded() {
        // A paper-shaped profile: ~100 items with small gaps, 1–2 tags each.
        let p = Profile::from_actions((0..200u32).map(|i| act(1000 + i * 7, i % 50)));
        let packed = PackedProfile::pack(&p);
        assert!(
            packed.heap_bytes() * 2 <= p.heap_bytes(),
            "expected at least 2x: packed {} vs decoded {}",
            packed.heap_bytes(),
            p.heap_bytes()
        );
    }

    #[test]
    fn empty_profile_behaviour() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.common_actions(&p), 0);
        assert_eq!(p.items().count(), 0);
        assert_eq!(p.wire_bytes(), 0);
    }
}
