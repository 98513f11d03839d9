//! Random peer sampling: the bottom gossip layer of P3Q.
//!
//! "The bottom layer, also known as the random peer sampling protocol,
//! maintains the random view of a user: at each cycle, a user u_i sends the r
//! digests to a neighbour v_j picked uniformly at random from her random view
//! and receives r digests from v_j. Then r digests among the 2r digests are
//! randomly selected to form the new random view of u_i. v_j follows the same
//! algorithm." (Section 2.2.1, after Jelasity et al., *Gossip-based peer
//! sampling*.)
//!
//! This layer keeps the overlay connected even when personal networks would
//! otherwise fragment into disjoint interest groups, and continuously exposes
//! fresh candidate neighbours to the similarity layer.

use rand::seq::SliceRandom;
use rand::Rng;
use std::hash::Hash;

use crate::view::{AgedEntry, AgedView};

/// Picks a uniformly random gossip partner from a random view.
///
/// Returns `None` if the view is empty.
pub fn pick_partner<P, M, R>(view: &AgedView<P, M>, rng: &mut R) -> Option<P>
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
    R: Rng + ?Sized,
{
    if view.is_empty() {
        return None;
    }
    // The draw `SliceRandom::choose` makes, without collecting the peers.
    view.peers().nth(rng.gen_range(0..view.len()))
}

/// Builds the payload one side ships in a shuffle: its current view entries
/// plus a fresh (age 0) descriptor of itself.
///
/// This is the *plan* half of a plan/commit shuffle — it only reads the
/// view, so it can run against shared immutable state.
pub(crate) fn shuffle_payload<P, M>(
    view: &AgedView<P, M>,
    self_id: P,
    self_meta: M,
) -> Vec<AgedEntry<P, M>>
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
{
    let mut payload = view.snapshot();
    payload.push(AgedEntry {
        peer: self_id,
        age: 0,
        meta: self_meta,
    });
    payload
}

/// Absorbs a received shuffle payload into a view: merges it with the
/// current entries, strips self-references and duplicates (keeping the
/// youngest copy) and keeps a uniformly random subset of at most `capacity`
/// entries. The *commit* half of a plan/commit shuffle.
///
/// Both the view's entries and the payload are moved into the merge pool,
/// never cloned: the only copies a shuffle makes are the two payloads.
pub(crate) fn absorb_shuffle<P, M, R>(
    view: &mut AgedView<P, M>,
    self_id: P,
    received: Vec<AgedEntry<P, M>>,
    rng: &mut R,
) where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
    R: Rng + ?Sized,
{
    let capacity = view.capacity();
    let merged = select_random_subset(view.take_entries(), received, self_id, capacity, rng);
    view.replace_with(merged);
}

/// Performs one symmetric peer-sampling exchange between the views of two
/// live nodes.
///
/// Both sides contribute a fresh descriptor of themselves (`a_self`,
/// `b_self`), receive the other side's current entries and keep a uniformly
/// random subset of the union (minus themselves, minus duplicates), exactly
/// as in the paper's description. Entry ages are incremented by the caller
/// ([`AgedView::tick`]) once per cycle, not here. Composed from
/// `shuffle_payload` and `absorb_shuffle`.
pub fn shuffle<P, M, R>(
    a_id: P,
    a_view: &mut AgedView<P, M>,
    b_id: P,
    b_view: &mut AgedView<P, M>,
    a_self: M,
    b_self: M,
    rng: &mut R,
) where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
    R: Rng + ?Sized,
{
    let a_payload = shuffle_payload(a_view, a_id, a_self);
    let b_payload = shuffle_payload(b_view, b_id, b_self);
    absorb_shuffle(a_view, a_id, b_payload, rng);
    absorb_shuffle(b_view, b_id, a_payload, rng);
}

/// Merges own entries with the received payload, removes self-references and
/// duplicates (keeping the youngest copy, the own one on equal age), and
/// keeps a uniformly random subset of at most `capacity` entries.
fn select_random_subset<P, M, R>(
    own: Vec<AgedEntry<P, M>>,
    received: Vec<AgedEntry<P, M>>,
    self_id: P,
    capacity: usize,
    rng: &mut R,
) -> Vec<AgedEntry<P, M>>
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
    R: Rng + ?Sized,
{
    let mut pool: Vec<AgedEntry<P, M>> = own;
    pool.extend(received);
    pool.retain(|e| e.peer != self_id);
    // Deduplicate, keeping the youngest descriptor of each peer. The sort
    // is stable and own entries come first in the pool, so on equal
    // `(peer, age)` the own descriptor is the one kept.
    pool.sort_by(|a, b| a.peer.cmp(&b.peer).then(a.age.cmp(&b.age)));
    pool.dedup_by(|later, earlier| later.peer == earlier.peer);
    pool.shuffle(rng);
    pool.truncate(capacity);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view_with(capacity: usize, peers: &[u32]) -> AgedView<u32, ()> {
        let mut v = AgedView::new(capacity);
        for &p in peers {
            v.insert(p, ());
        }
        v
    }

    #[test]
    fn pick_partner_from_empty_view_is_none() {
        let v: AgedView<u32, ()> = AgedView::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(pick_partner(&v, &mut rng).is_none());
    }

    #[test]
    fn pick_partner_returns_a_member() {
        let v = view_with(4, &[1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let p = pick_partner(&v, &mut rng).unwrap();
            assert!(v.contains(&p));
        }
    }

    #[test]
    fn pick_partner_draws_like_slice_choose() {
        let v = view_with(8, &[4, 9, 2, 7, 5]);
        let peers: Vec<u32> = v.peers().collect();
        let (mut a, mut b) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        for _ in 0..50 {
            assert_eq!(pick_partner(&v, &mut a), peers.choose(&mut b).copied());
        }
    }

    #[test]
    fn absorb_keeps_the_own_descriptor_on_equal_age() {
        let mut view: AgedView<u32, &str> = AgedView::new(4);
        view.insert(5, "own");
        view.insert(6, "own");
        view.tick();
        let received = vec![
            AgedEntry {
                peer: 5,
                age: 1,
                meta: "received",
            },
            AgedEntry {
                peer: 6,
                age: 0,
                meta: "received",
            },
        ];
        absorb_shuffle(&mut view, 1, received, &mut StdRng::seed_from_u64(3));
        let meta_of = |peer| view.iter().find(|e| e.peer == peer).map(|e| e.meta);
        assert_eq!(meta_of(5), Some("own"), "equal age keeps the own entry");
        assert_eq!(meta_of(6), Some("received"), "a younger copy still wins");
    }

    #[test]
    fn shuffle_never_inserts_self() {
        let mut a = view_with(3, &[2, 3]);
        let mut b = view_with(3, &[1, 4]);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            shuffle(1u32, &mut a, 2u32, &mut b, (), (), &mut rng);
            assert!(!a.contains(&1), "a must never contain itself");
            assert!(!b.contains(&2), "b must never contain itself");
            assert!(a.len() <= a.capacity());
            assert!(b.len() <= b.capacity());
        }
    }

    #[test]
    fn shuffle_spreads_descriptors_both_ways() {
        let mut a = view_with(4, &[10, 11]);
        let mut b = view_with(4, &[20, 21]);
        let mut rng = StdRng::seed_from_u64(1);
        shuffle(1u32, &mut a, 2u32, &mut b, (), (), &mut rng);
        // With capacity 4 and a pool of at most 5 candidates, each side keeps
        // almost everything: both must have learned something from the other.
        let a_peers: Vec<u32> = a.peers().collect();
        let b_peers: Vec<u32> = b.peers().collect();
        assert!(
            a_peers.iter().any(|p| [2, 20, 21].contains(p)),
            "a learned nothing: {a_peers:?}"
        );
        assert!(
            b_peers.iter().any(|p| [1, 10, 11].contains(p)),
            "b learned nothing: {b_peers:?}"
        );
    }

    #[test]
    fn shuffle_deduplicates_shared_peers() {
        let mut a = view_with(6, &[5, 6]);
        let mut b = view_with(6, &[5, 6]);
        let mut rng = StdRng::seed_from_u64(2);
        shuffle(1u32, &mut a, 2u32, &mut b, (), (), &mut rng);
        let mut a_peers: Vec<u32> = a.peers().collect();
        a_peers.sort_unstable();
        let before = a_peers.len();
        a_peers.dedup();
        assert_eq!(a_peers.len(), before, "views must not contain duplicates");
    }

    #[test]
    fn repeated_shuffles_keep_views_full() {
        // In a 4-node clique the views must stay at capacity.
        let mut views: Vec<AgedView<u32, ()>> =
            (0..4u32).map(|i| view_with(2, &[(i + 1) % 4])).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..30 {
            let a = (round % 4) as usize;
            let partner = pick_partner(&views[a], &mut rng).unwrap_or(((a + 1) % 4) as u32);
            let b = partner as usize;
            if a == b {
                continue;
            }
            let (left, right) = if a < b {
                let (l, r) = views.split_at_mut(b);
                (&mut l[a], &mut r[0])
            } else {
                let (l, r) = views.split_at_mut(a);
                (&mut r[0], &mut l[b])
            };
            shuffle(a as u32, left, b as u32, right, (), (), &mut rng);
        }
        for (i, v) in views.iter().enumerate() {
            assert!(!v.is_empty(), "view {i} starved");
        }
    }
}
