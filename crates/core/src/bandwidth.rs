//! The paper's wire-size model and the traffic categories of the cost
//! analysis (Section 3.3).
//!
//! Absolute sizes follow Section 3.3.1/3.3.2 exactly:
//!
//! * an item (URL) is identified by its 128-bit MD4 hash → 16 bytes;
//! * a user identifier is 4 bytes;
//! * a tag is a 16-byte string;
//! * one tagging action therefore weighs 36 bytes;
//! * a partial-result entry is an item identifier plus a 4-byte integer
//!   score → 20 bytes;
//! * a remaining-list entry is a 4-byte user identifier;
//! * a profile digest is the configured Bloom filter (20 Kbit = 2,560 bytes
//!   at paper scale).

/// Bytes of a user identifier on the wire.
pub(crate) const USER_ID_BYTES: usize = 4;
/// Bytes of an item identifier (128-bit hash) on the wire.
pub(crate) const ITEM_ID_BYTES: usize = 16;
/// Bytes of a tag string on the wire.
pub(crate) const TAG_BYTES: usize = 16;
/// Bytes of one tagging action (item + tag + owning user).
pub const TAGGING_ACTION_BYTES: usize = ITEM_ID_BYTES + TAG_BYTES + USER_ID_BYTES;
/// Bytes of one partial-result entry (item + integer score).
pub(crate) const RESULT_ENTRY_BYTES: usize = ITEM_ID_BYTES + 4;

/// Traffic categories used by the bandwidth recorder. Keeping them in one
/// place makes the per-figure breakdowns (Figure 6, Section 3.3.2)
/// consistent across the protocol code and the harness.
pub mod category {
    /// Profile digests exchanged by the peer-sampling (bottom) layer.
    pub const RPS_DIGESTS: &str = "rps_digests";
    /// Profile digests exchanged by the similarity (top) layer.
    pub const LAZY_DIGESTS: &str = "lazy_digests";
    /// Common items and their tags exchanged to compute similarity scores
    /// (step 2 of Algorithm 1).
    pub(crate) const LAZY_COMMON: &str = "lazy_common_items";
    /// Full profiles transferred for storage (step 3 of Algorithm 1).
    pub(crate) const LAZY_PROFILES: &str = "lazy_profiles";
    /// Remaining lists forwarded from gossip initiator to destination.
    pub const EAGER_FORWARDED: &str = "eager_forwarded_remaining";
    /// Remaining lists returned from destination to initiator.
    pub const EAGER_RETURNED: &str = "eager_returned_remaining";
    /// Partial result lists sent to the querier.
    pub const EAGER_PARTIAL_RESULTS: &str = "eager_partial_results";
    /// Digest/profile maintenance piggybacked on eager gossip.
    pub const EAGER_MAINTENANCE: &str = "eager_maintenance";
}

/// Wire size of a remaining list of `len` user identifiers.
pub(crate) fn remaining_list_bytes(len: usize) -> usize {
    len * USER_ID_BYTES
}

/// Wire size of a partial result list of `entries` items, including the list
/// of users whose profiles were used (`used_profiles` identifiers), which the
/// paper sends in the same message.
pub(crate) fn partial_result_bytes(entries: usize, used_profiles: usize) -> usize {
    entries * RESULT_ENTRY_BYTES + used_profiles * USER_ID_BYTES
}

/// Wire size of a batch of tagging actions (common items with their tags, or
/// a full profile).
pub(crate) fn tagging_actions_bytes(actions: usize) -> usize {
    actions * TAGGING_ACTION_BYTES
}

/// Wire size of a profile digest with the given Bloom-filter size.
pub fn digest_bytes(digest_bits: usize) -> usize {
    digest_bits.div_ceil(8)
}

/// Wall-clock seconds per lazy-mode cycle: the paper's summary (Section
/// 3.5) assumes one lazy cycle a minute. Used only to turn byte counts into
/// bits per second.
pub const LAZY_CYCLE_SECONDS: f64 = 60.0;
/// Wall-clock seconds per eager-mode cycle: one every 5 s (Section 3.5).
pub const EAGER_CYCLE_SECONDS: f64 = 5.0;

/// Converts a byte count over a number of cycles into the bits-per-second
/// figure the paper's summary quotes.
pub fn bits_per_second(bytes: u64, cycles: u64, seconds_per_cycle: f64) -> f64 {
    if cycles == 0 || seconds_per_cycle <= 0.0 {
        return 0.0;
    }
    (bytes * 8) as f64 / (cycles as f64 * seconds_per_cycle)
}

/// A per-query traffic breakdown in the three categories of Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTraffic {
    /// Bytes of partial result lists returned to the querier.
    pub partial_results: u64,
    /// Bytes of remaining lists returned by gossip destinations.
    pub returned_remaining: u64,
    /// Bytes of remaining lists forwarded by gossip initiators.
    pub forwarded_remaining: u64,
    /// Number of partial-result messages sent to the querier.
    pub partial_result_messages: u64,
    /// Number of users reached by the query (excluding the querier).
    pub users_reached: u64,
}

impl QueryTraffic {
    /// Total bytes across the three categories.
    pub fn total_bytes(&self) -> u64 {
        self.partial_results + self.returned_remaining + self.forwarded_remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::storage_requirements;
    use crate::node::P3qNode;
    use p3q_sim::Simulator;
    use p3q_trace::{ItemId, Profile, TagId, TaggingAction, UserId};

    #[test]
    fn constants_match_the_paper() {
        assert_eq!(USER_ID_BYTES, 4);
        assert_eq!(ITEM_ID_BYTES, 16);
        assert_eq!(TAG_BYTES, 16);
        assert_eq!(TAGGING_ACTION_BYTES, 36);
        assert_eq!(RESULT_ENTRY_BYTES, 20);
        assert_eq!(digest_bytes(20 * 1024), 2560);
    }

    #[test]
    fn helper_sizes() {
        assert_eq!(remaining_list_bytes(100), 400);
        assert_eq!(partial_result_bytes(10, 3), 212);
        assert_eq!(tagging_actions_bytes(5), 180);
        assert_eq!(digest_bytes(9), 2);
    }

    #[test]
    fn bits_per_second_matches_paper_style_numbers() {
        // 2560-byte digest + small payloads per 60-second lazy cycle is in
        // the tens of Kbps, matching the paper's 13.4 Kbps order of
        // magnitude.
        let bytes_per_cycle = 100_000u64;
        let bps = bits_per_second(bytes_per_cycle, 1, 60.0);
        assert!((bps - 13_333.3).abs() < 1.0);
        assert_eq!(bits_per_second(100, 0, 60.0), 0.0);
    }

    #[test]
    fn storage_requirement_sums_profile_lengths() {
        let p1 = Profile::from_actions(vec![
            TaggingAction::new(ItemId(1), TagId(1)),
            TaggingAction::new(ItemId(2), TagId(1)),
        ]);
        let p2 = Profile::from_actions(vec![TaggingAction::new(ItemId(3), TagId(2))]);
        // Figure 5's per-user storage requirement, converted to bytes with
        // the paper's 36-byte action model.
        let mut node = P3qNode::new(UserId(0), p2.clone(), 5, 3, 2, 1024, 4);
        for (peer, p) in [(1, p1), (2, p2)] {
            let offer = P3qNode::new(UserId(peer), p, 5, 3, 2, 1024, 4).own_offer();
            node.admit(&offer, 1);
        }
        let actions = storage_requirements(&Simulator::new(vec![node], 0));
        assert_eq!(actions, [3]);
        assert_eq!(actions[0] * TAGGING_ACTION_BYTES, 108);
    }

    #[test]
    fn query_traffic_total() {
        let t = QueryTraffic {
            partial_results: 100,
            returned_remaining: 20,
            forwarded_remaining: 30,
            partial_result_messages: 4,
            users_reached: 7,
        };
        assert_eq!(t.total_bytes(), 150);
    }
}
