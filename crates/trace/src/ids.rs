//! Strongly-typed identifiers for users, items and tags.
//!
//! The paper models delicious URLs (items) by their 128-bit MD4 hash and
//! users by 4-byte identifiers. Inside the simulation we only need opaque,
//! dense identifiers; the wire-size accounting in `p3q::bandwidth` charges the
//! paper's byte widths regardless of the in-memory representation.
//!
//! Dense is a contract, not a hint: the similarity index build
//! (`p3q::similarity::ActionIndex::build`) sizes one counting bucket per
//! [`ItemId`] up to the largest one present, so item ids should number the
//! items from 0 without wide gaps.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
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
                Self(u32::try_from(index).expect("identifier overflow"))
            }

            /// A 64-bit key suitable for hashing (e.g. Bloom-filter
            /// insertion).
            #[inline]
            pub fn as_key(self) -> u64 {
                u64::from(self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// A user (and, interchangeably in the paper, the machine she runs).
    UserId,
    "u"
);
id_type!(
    /// A tagged item (a URL in the delicious trace).
    ItemId,
    "i"
);
id_type!(
    /// A tag (free-form keyword).
    TagId,
    "t"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_index() {
        for raw in [0usize, 1, 42, 9_999] {
            assert_eq!(UserId::from_index(raw).index(), raw);
            assert_eq!(ItemId::from_index(raw).index(), raw);
            assert_eq!(TagId::from_index(raw).index(), raw);
        }
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(UserId(7).to_string(), "u7");
        assert_eq!(ItemId(7).to_string(), "i7");
        assert_eq!(TagId(7).to_string(), "t7");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(UserId(1) < UserId(2));
        assert!(ItemId(10) > ItemId(9));
    }

    #[test]
    #[should_panic(expected = "identifier overflow")]
    fn from_index_rejects_overflow() {
        let _ = UserId::from_index(usize::MAX);
    }

    #[test]
    fn as_key_is_injective_on_u32() {
        assert_ne!(ItemId(1).as_key(), ItemId(2).as_key());
        assert_eq!(ItemId(5).as_key(), 5u64);
    }
}
