//! Tagging actions: the atomic unit of a user profile.

use std::fmt;

use crate::ids::{ItemId, TagId};

/// One tagging action `Tagged_u(i, t)`: the owning user annotated item `i`
/// with tag `t`.
///
/// A user profile is a *set* of tagging actions, and the similarity between
/// two users is the size of the intersection of their profiles (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaggingAction {
    /// The annotated item.
    pub item: ItemId,
    /// The keyword applied to the item.
    pub tag: TagId,
}

impl TaggingAction {
    /// Creates a tagging action.
    #[inline]
    pub fn new(item: ItemId, tag: TagId) -> Self {
        Self { item, tag }
    }

    /// Wire size of one tagging action under the paper's accounting
    /// (Section 3.3.1): a 128-bit item hash (16 bytes), a 16-byte tag string
    /// and the 4-byte user identifier it belongs to — 36 bytes in total.
    pub(crate) const WIRE_BYTES: usize = 36;
}

impl fmt::Display for TaggingAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.item, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_item_major() {
        let a = TaggingAction::new(ItemId(1), TagId(9));
        let b = TaggingAction::new(ItemId(2), TagId(0));
        assert!(a < b, "actions must sort by item first");
        let c = TaggingAction::new(ItemId(1), TagId(10));
        assert!(a < c, "ties broken by tag");
    }

    #[test]
    fn wire_size_matches_paper() {
        assert_eq!(TaggingAction::WIRE_BYTES, 36);
    }

    #[test]
    fn display_shows_both_components() {
        assert_eq!(
            TaggingAction::new(ItemId(3), TagId(4)).to_string(),
            "(i3, t4)"
        );
    }
}
