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
//!   at paper scale);
//! * a gossip offer opens with a 12-byte header: the user's 4-byte
//!   identifier and two 4-byte versions (digest and profile copy, the `u32`
//!   widths the views store). Its digest travels only when the versions
//!   leave the receiver's drop test open (see `crate::lazy`). The paper
//!   has no header and ships every offer's digest;
//! * a random-view shuffle runs descriptors first (see
//!   `p3q_gossip::peer_sampling`). Each side receives the partner's r + 1
//!   descriptors of 12 bytes each (user identifier, 4-byte age, 4-byte
//!   profile version): its view's and its own. It sends back a pull
//!   request of one user identifier per digest it keeps and does not hold
//!   at that version, and receives those digests. The paper ships the r
//!   digests each way.

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
/// Bytes of a profile version on the wire.
const VERSION_BYTES: usize = 4;
/// Bytes of one gossip offer's header (user + digest version + profile
/// version).
pub const OFFER_HEADER_BYTES: usize = USER_ID_BYTES + 2 * VERSION_BYTES;
/// Bytes of a random-view entry's age on the wire.
const AGE_BYTES: usize = 4;
/// Bytes of one random-view descriptor a shuffle sends (user + age +
/// profile version).
pub const SHUFFLE_DESCRIPTOR_BYTES: usize = USER_ID_BYTES + AGE_BYTES + VERSION_BYTES;

/// Traffic categories used by the bandwidth recorder. Keeping them in one
/// place makes the per-figure breakdowns (Figure 6, Section 3.3.2)
/// consistent across the protocol code and the harness.
pub mod category {
    /// Profile digests the peer-sampling (bottom) layer pulls in its
    /// shuffles: only those of kept descriptors the side does not hold at
    /// their version.
    pub const RPS_DIGESTS: &str = "rps_digests";
    /// Descriptors of the partner's random-view entries a shuffle side
    /// receives, [`super::SHUFFLE_DESCRIPTOR_BYTES`] each: r per side with
    /// full views, one for each digest the paper ships.
    pub const RPS_DESCRIPTORS: &str = "rps_descriptors";
    /// The rest of what a shuffle side receives: the partner's own
    /// descriptor and its pull request, one user identifier per digest
    /// it pulls.
    pub const RPS_CONTROL: &str = "rps_control";
    /// Digests a restarted node fetches to re-seed its empty random view.
    pub(crate) const RPS_REBOOTSTRAP: &str = "rps_rebootstrap";
    /// Profile digests exchanged by the similarity (top) layer: only those
    /// the offer headers did not settle.
    pub const LAZY_DIGESTS: &str = "lazy_digests";
    /// Offer headers of profile gossip, lazy and piggybacked on eager
    /// gossip alike: [`super::OFFER_HEADER_BYTES`] per offer.
    pub const OFFER_HEADERS: &str = "offer_headers";
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
        assert_eq!(OFFER_HEADER_BYTES, 12);
        assert_eq!(SHUFFLE_DESCRIPTOR_BYTES, 12);
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
        };
        assert_eq!(t.total_bytes(), 150);
    }
}
