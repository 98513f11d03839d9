//! The interned action dictionary: dense `u32` identifiers for distinct
//! `(item, tag)` tagging actions.
//!
//! Every layer that stores per-action data at population scale — the
//! similarity engine's inverted index, packed profiles, posting lists —
//! wants a key that is *dense* (array-indexable) and *small* (4 bytes)
//! rather than the packed `(item << 32) | tag` `u64` the first index
//! generation used. [`ActionDictionary`] provides exactly that mapping:
//!
//! * at **trace build time** every distinct action of the dataset is
//!   interned in ascending key order, so for this *frozen* range the
//!   numeric order of [`ActionId`]s equals the `(item, tag)` order of the
//!   actions they name — a sorted profile resolves to an already-sorted id
//!   run, no re-sort needed
//!   ([`ActionDictionary::ids_of_profile_into`]);
//! * actions that appear **later** (profile dynamics introduce genuinely
//!   new `(item, tag)` pairs) are appended to a small *tail* in arrival
//!   order via [`ActionDictionary::intern`]. Tail ids keep every
//!   dictionary guarantee except order-isomorphism with the key space,
//!   which only the frozen range promises ([`ActionDictionary::frozen_len`]).
//!
//! The frozen keys are held as LEB128 delta blocks
//! ([`crate::codec::SortedKeyStore`], about 3.4 bytes per key with its
//! directory on the 50k-user paper-shaped trace), so the
//! dictionary *is* the compressed key column of the storage stack rather
//! than a second copy of it.

use std::collections::HashMap;

use crate::action::TaggingAction;
use crate::codec::SortedKeyStore;
use crate::ids::{ItemId, TagId};
use crate::profile::Profile;

/// A dense identifier for one distinct `(item, tag)` tagging action,
/// assigned by an [`ActionDictionary`].
///
/// Ids from the dictionary's frozen range are order-isomorphic to the
/// actions they name (smaller id ⇔ smaller `(item, tag)` key); appended
/// tail ids are ordered by arrival instead. Id *equality* always coincides
/// with action equality, which is all the counting/merging layers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a dense index.
    ///
    /// # Panics
    /// Panics if the index does not fit in 32 bits.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("action id overflow"))
    }
}

impl std::fmt::Display for ActionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Packs an action into the canonical sortable `u64` key (item major, tag
/// minor — the same order [`Profile`] keeps its actions in).
#[inline]
pub fn action_key(action: &TaggingAction) -> u64 {
    (u64::from(action.item.0) << 32) | u64::from(action.tag.0)
}

/// Unpacks the canonical `u64` key back into an action.
#[inline]
pub fn key_action(key: u64) -> TaggingAction {
    TaggingAction::new(ItemId((key >> 32) as u32), TagId(key as u32))
}

/// A bidirectional mapping between distinct tagging actions and dense
/// [`ActionId`]s (see the module docs for the frozen/tail split).
#[derive(Debug, Clone, Default)]
pub struct ActionDictionary {
    /// Compressed, sorted distinct keys; rank = id for ids `< frozen_len`.
    frozen: SortedKeyStore,
    /// Keys interned after the freeze, in arrival order
    /// (id = `frozen_len + position`).
    tail: Vec<u64>,
    /// Lookup for the tail (small: only dynamics-introduced actions).
    tail_ranks: HashMap<u64, u32>,
}

impl ActionDictionary {
    /// Builds the dictionary over every distinct action of the given
    /// profiles — the trace-build-time interning step. Deterministic: the
    /// id assignment depends only on the *set* of actions, never on
    /// iteration or thread order.
    pub(crate) fn from_profiles<'a, I>(profiles: I) -> Self
    where
        I: IntoIterator<Item = &'a Profile>,
    {
        let mut keys: Vec<u64> = profiles
            .into_iter()
            .flat_map(|p| p.iter().map(action_key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        Self::from_sorted_keys(&keys)
    }

    /// Builds the dictionary from already sorted, deduplicated keys.
    pub fn from_sorted_keys(keys: &[u64]) -> Self {
        Self {
            frozen: SortedKeyStore::from_sorted(keys),
            tail: Vec::new(),
            tail_ranks: HashMap::new(),
        }
    }

    /// Number of interned actions (frozen + tail).
    pub fn len(&self) -> usize {
        self.frozen.len() + self.tail.len()
    }

    /// Returns `true` if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the frozen (order-isomorphic) id range.
    pub fn frozen_len(&self) -> usize {
        self.frozen.len()
    }

    /// The id of `action`, if interned.
    pub fn id_of(&self, action: &TaggingAction) -> Option<ActionId> {
        let key = action_key(action);
        if let Some(rank) = self.frozen.rank_of(key) {
            return Some(ActionId::from_index(rank));
        }
        self.tail_ranks
            .get(&key)
            .map(|&r| ActionId::from_index(self.frozen.len() + r as usize))
    }

    /// Interns `action`, appending it to the tail if it is new. Returns its
    /// id either way.
    pub fn intern(&mut self, action: &TaggingAction) -> ActionId {
        if let Some(id) = self.id_of(action) {
            return id;
        }
        let key = action_key(action);
        let rank = u32::try_from(self.tail.len()).expect("dictionary tail overflow");
        self.tail.push(key);
        self.tail_ranks.insert(key, rank);
        ActionId::from_index(self.frozen.len() + rank as usize)
    }

    /// The action named by `id`.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn resolve(&self, id: ActionId) -> TaggingAction {
        let idx = id.index();
        if idx < self.frozen.len() {
            key_action(self.frozen.get(idx))
        } else {
            key_action(self.tail[idx - self.frozen.len()])
        }
    }

    /// Resolves every action of a sorted profile into `out` (cleared
    /// first), producing the ids in **ascending id order**.
    ///
    /// Each action costs one [`Self::id_of`] lookup (two-level directory
    /// search plus at most one block decode). Frozen ids come out of the
    /// item-major profile walk already sorted (order isomorphism); the
    /// handful of tail ids are merged in by a final sort only when present.
    pub fn ids_of_profile_into(&self, profile: &Profile, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(profile.len());
        let mut tail_seen = false;
        for action in profile.iter() {
            if let Some(id) = self.id_of(action) {
                tail_seen |= id.index() >= self.frozen.len();
                out.push(id.0);
            }
        }
        if tail_seen {
            out.sort_unstable();
        }
    }

    /// Resident heap bytes of the dictionary (compressed keys + tail).
    pub fn heap_bytes(&self) -> usize {
        self.frozen.heap_bytes()
            + self.tail.len() * std::mem::size_of::<u64>()
            // HashMap entries: key + value + bucket metadata (approximate).
            + self.tail_ranks.len() * (std::mem::size_of::<(u64, u32)>() + 8)
    }

    /// Bytes the same mapping would take as a plain sorted `Vec<u64>` — the
    /// layout the first-generation index stored per shard. Used by the
    /// benchmark memory accounting as the uncompressed equivalent.
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(item: u32, tag: u32) -> TaggingAction {
        TaggingAction::new(ItemId(item), TagId(tag))
    }

    fn profile(actions: &[(u32, u32)]) -> Profile {
        Profile::from_actions(actions.iter().map(|&(i, t)| act(i, t)))
    }

    #[test]
    fn key_packing_round_trips_and_orders_item_major() {
        let a = act(1, 9);
        let b = act(2, 0);
        assert!(action_key(&a) < action_key(&b), "item-major order");
        assert_eq!(key_action(action_key(&a)), a);
        assert_eq!(key_action(action_key(&act(u32::MAX, u32::MAX))), {
            act(u32::MAX, u32::MAX)
        });
    }

    #[test]
    fn frozen_ids_are_order_isomorphic() {
        let p0 = profile(&[(3, 1), (1, 2), (7, 7)]);
        let p1 = profile(&[(1, 2), (5, 0)]);
        let dict = ActionDictionary::from_profiles([&p0, &p1]);
        assert_eq!(dict.len(), 4);
        assert_eq!(dict.frozen_len(), 4);
        // Ids ascend with the (item, tag) key.
        let ordered = [act(1, 2), act(3, 1), act(5, 0), act(7, 7)];
        for pair in ordered.windows(2) {
            assert!(dict.id_of(&pair[0]).unwrap() < dict.id_of(&pair[1]).unwrap());
        }
    }

    #[test]
    fn resolve_inverts_id_of() {
        let p = profile(&[(10, 1), (20, 2), (30, 3)]);
        let dict = ActionDictionary::from_profiles([&p]);
        for action in p.iter() {
            let id = dict.id_of(action).unwrap();
            assert_eq!(dict.resolve(id), *action);
        }
        assert_eq!(dict.id_of(&act(99, 99)), None);
    }

    #[test]
    fn intern_appends_new_actions_to_the_tail() {
        let p = profile(&[(1, 1), (2, 2)]);
        let mut dict = ActionDictionary::from_profiles([&p]);
        let existing = dict.intern(&act(1, 1));
        assert_eq!(existing, dict.id_of(&act(1, 1)).unwrap());
        assert_eq!(dict.len(), 2, "re-interning is a no-op");

        let fresh = dict.intern(&act(0, 0));
        assert_eq!(fresh.index(), 2, "tail ids start after the frozen range");
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.frozen_len(), 2);
        assert_eq!(dict.resolve(fresh), act(0, 0));
        assert_eq!(dict.id_of(&act(0, 0)), Some(fresh));
        assert_eq!(dict.intern(&act(0, 0)), fresh, "tail interning idempotent");
    }

    #[test]
    fn profile_ids_come_out_sorted_even_with_tail_ids() {
        let p = profile(&[(5, 5), (9, 9)]);
        let mut dict = ActionDictionary::from_profiles([&p]);
        // A tail action whose key sorts *before* every frozen key.
        dict.intern(&act(1, 1));
        let grown = profile(&[(1, 1), (5, 5), (9, 9)]);
        let mut ids = Vec::new();
        dict.ids_of_profile_into(&grown, &mut ids);
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
    }

    #[test]
    fn unknown_profile_actions_are_skipped() {
        let p = profile(&[(1, 1)]);
        let dict = ActionDictionary::from_profiles([&p]);
        let other = profile(&[(1, 1), (2, 2)]);
        let mut ids = Vec::new();
        dict.ids_of_profile_into(&other, &mut ids);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn empty_dictionary_is_sane() {
        let dict = ActionDictionary::default();
        assert!(dict.is_empty());
        assert_eq!(dict.id_of(&act(1, 1)), None);
        assert_eq!(dict.uncompressed_bytes(), 0);
    }

    #[test]
    fn dictionary_compresses_against_plain_keys() {
        let p = Profile::from_actions((0..5000u32).map(|i| act(i / 4, i % 4)));
        let dict = ActionDictionary::from_profiles([&p]);
        assert!(
            dict.heap_bytes() * 2 < dict.uncompressed_bytes(),
            "expected better than 2x compression: {} vs {}",
            dict.heap_bytes(),
            dict.uncompressed_bytes()
        );
    }
}
