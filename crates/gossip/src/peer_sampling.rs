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
//!
//! The exchange runs **descriptors first**. Each side receives the
//! partner's `(peer, age, version)` descriptors, one per entry of its view
//! and one of the partner itself, and runs the selection above over them: the same pool order, stable
//! sort, deduplication, random shuffle and truncation, so the random draws
//! and the resulting views are those of an exchange that ships every
//! digest. It then pulls the metadata (in P3Q, the digest) of each kept
//! partner descriptor, except where it already held that peer at the same
//! version: a version names its content, so that copy serves at the
//! partner's age. [`shuffle`] reports per side how many descriptors it
//! received and how many it pulled ([`ShuffleReceipt`]); the caller bills
//! them.

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

/// Metadata a shuffle pulls only where it is needed. Its version names its
/// content: two copies of one peer's metadata at the same version are
/// interchangeable, so a side that already holds one never pulls the other.
pub trait Versioned {
    /// The version of the peer's state the metadata was taken at.
    fn version(&self) -> u64;
}

/// Metadata without content: every copy is at version 0.
impl Versioned for () {
    fn version(&self) -> u64 {
        0
    }
}

/// What one side of a shuffle received, for the caller's wire model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleReceipt {
    /// Descriptors of the partner's view entries. The partner's own
    /// descriptor comes on top of them.
    pub view_descriptors: usize,
    /// Metadata pulled: kept partner descriptors that displaced no own copy
    /// at the same version.
    pub pulled: usize,
}

/// Performs one symmetric peer-sampling exchange between the views of two
/// live nodes.
///
/// Both sides contribute a fresh descriptor of themselves (`a_self`,
/// `b_self`), receive the other side's current descriptors and keep a
/// uniformly random subset of the union (minus themselves, minus
/// duplicates), exactly as in the paper's description. Entry ages are
/// incremented by the caller ([`AgedView::tick`]) once per cycle, not here.
///
/// Each side chooses on descriptors first (peer, age, version) and then
/// pulls the metadata of the partner descriptors it kept, except where it
/// already held that peer at the same version: that copy moves to the
/// partner's age instead. Own entries move; only pulled metadata is cloned.
/// Returns what `a` and `b` received, in that order.
pub fn shuffle<P, M, R>(
    a_id: P,
    a_view: &mut AgedView<P, M>,
    b_id: P,
    b_view: &mut AgedView<P, M>,
    a_self: M,
    b_self: M,
    rng: &mut R,
) -> (ShuffleReceipt, ShuffleReceipt)
where
    P: Copy + Eq + Hash + Ord,
    M: Clone + Versioned,
    R: Rng + ?Sized,
{
    check_view(a_view, a_id);
    check_view(b_view, b_id);
    let a_kept = select(a_id, a_view, b_id, b_view, b_self.version(), rng);
    let b_kept = select(b_id, b_view, a_id, a_view, a_self.version(), rng);
    let a_pulled = pull(&a_kept, b_view, b_self);
    let b_pulled = pull(&b_kept, a_view, a_self);
    let receipts = (
        ShuffleReceipt {
            view_descriptors: b_view.len(),
            pulled: a_pulled.len(),
        },
        ShuffleReceipt {
            view_descriptors: a_view.len(),
            pulled: b_pulled.len(),
        },
    );
    install(a_view, a_kept, a_pulled);
    install(b_view, b_kept, b_pulled);
    check_view(a_view, a_id);
    check_view(b_view, b_id);
    receipts
}

/// Where a descriptor of one side's merge pool came from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Entry `i` of the side's own view.
    Own(usize),
    /// Entry `j` of the partner's view; `j` = the partner view's length is
    /// the partner's own descriptor.
    Partner(usize),
    /// A partner descriptor that displaced own entry `i` at the same
    /// version: entry `i` stays, at the partner's age.
    Refreshed(usize),
}

/// One descriptor of a merge pool.
#[derive(Debug, Clone, Copy)]
struct Candidate<P> {
    peer: P,
    age: u32,
    version: u64,
    source: Source,
}

/// Merges the own descriptors with the partner's (its view, then its own
/// descriptor), removes self-references and duplicates (keeping the
/// youngest copy, the own one on equal age), and keeps a uniformly random
/// subset of at most `capacity` descriptors, in their new view order.
fn select<P, M, R>(
    self_id: P,
    own: &AgedView<P, M>,
    partner_id: P,
    partner: &AgedView<P, M>,
    partner_version: u64,
    rng: &mut R,
) -> Vec<Candidate<P>>
where
    P: Copy + Eq + Hash + Ord,
    M: Clone + Versioned,
    R: Rng + ?Sized,
{
    let candidate = |e: &AgedEntry<P, M>, source| Candidate {
        peer: e.peer,
        age: e.age,
        version: e.meta.version(),
        source,
    };
    let mut pool = Vec::with_capacity(own.len() + partner.len() + 1);
    pool.extend(
        own.iter()
            .enumerate()
            .map(|(i, e)| candidate(e, Source::Own(i))),
    );
    pool.extend(
        partner
            .iter()
            .enumerate()
            .map(|(j, e)| candidate(e, Source::Partner(j))),
    );
    pool.push(Candidate {
        peer: partner_id,
        age: 0,
        version: partner_version,
        source: Source::Partner(partner.len()),
    });
    pool.retain(|c| c.peer != self_id);
    // Deduplicate, keeping the youngest descriptor of each peer. The sort
    // is stable and own descriptors come first in the pool, so on equal
    // `(peer, age)` the own descriptor is the one kept. A younger partner
    // descriptor at the version of the own copy it displaces needs no pull.
    pool.sort_by(|a, b| a.peer.cmp(&b.peer).then(a.age.cmp(&b.age)));
    pool.dedup_by(|later, kept| {
        if later.peer != kept.peer {
            return false;
        }
        if let (Source::Own(i), Source::Partner(_)) = (later.source, kept.source) {
            if later.version == kept.version {
                kept.source = Source::Refreshed(i);
            }
        }
        true
    });
    pool.shuffle(rng);
    pool.truncate(own.capacity());
    pool
}

/// Clones, in view order, the metadata of every kept descriptor that needs
/// a pull from `partner`; the partner's own metadata moves.
fn pull<P, M>(kept: &[Candidate<P>], partner: &AgedView<P, M>, partner_self: M) -> Vec<M>
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
{
    let mut partner_self = Some(partner_self);
    kept.iter()
        .filter_map(|c| match c.source {
            Source::Partner(j) => Some(match partner.entries.get(j) {
                Some(entry) => entry.meta.clone(),
                None => partner_self.take().expect("one own descriptor per partner"),
            }),
            Source::Own(_) | Source::Refreshed(_) => None,
        })
        .collect()
}

/// Replaces the view with the kept descriptors: own entries move into
/// their new slots, and `pulled` fills the partner's in order.
fn install<P, M>(view: &mut AgedView<P, M>, kept: Vec<Candidate<P>>, pulled: Vec<M>)
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
{
    let mut own: Vec<Option<AgedEntry<P, M>>> = std::mem::take(&mut view.entries)
        .into_iter()
        .map(Some)
        .collect();
    let mut pulled = pulled.into_iter();
    let mut entries = Vec::with_capacity(kept.len());
    for c in kept {
        let meta = match c.source {
            Source::Own(i) | Source::Refreshed(i) => {
                own[i]
                    .take()
                    .expect("an own entry is kept at most once")
                    .meta
            }
            Source::Partner(_) => pulled.next().expect("one pull per kept partner descriptor"),
        };
        entries.push(AgedEntry {
            peer: c.peer,
            age: c.age,
            meta,
        });
    }
    view.entries = entries;
}

/// The random view's invariants, checked on both sides of every shuffle in
/// debug builds: at most `capacity` entries, none for the owner, no peer
/// twice.
fn check_view<P, M>(view: &AgedView<P, M>, self_id: P)
where
    P: Copy + Eq + Hash + Ord,
    M: Clone,
{
    if cfg!(debug_assertions) {
        assert!(view.len() <= view.capacity(), "random view over capacity");
        assert!(!view.contains(&self_id), "random view holds its owner");
        let mut peers: Vec<P> = view.peers().collect();
        peers.sort_unstable();
        assert!(
            peers.windows(2).all(|w| w[0] != w[1]),
            "random view holds a peer twice"
        );
    }
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

    /// Metadata tagged with the view that held it before the shuffle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tagged {
        version: u64,
        holder: &'static str,
    }

    impl Versioned for Tagged {
        fn version(&self) -> u64 {
            self.version
        }
    }

    #[test]
    fn absorb_keeps_the_own_descriptor_on_equal_age() {
        let (own, partner) = (
            |version| Tagged {
                version,
                holder: "own",
            },
            |version| Tagged {
                version,
                holder: "partner",
            },
        );
        let mut a: AgedView<u32, Tagged> = AgedView::new(6);
        for peer in [5, 6, 7] {
            a.insert(peer, own(1));
        }
        a.tick();
        let mut b: AgedView<u32, Tagged> = AgedView::new(6);
        b.insert(5, partner(2));
        b.tick();
        b.insert(6, partner(1));
        b.insert(7, partner(2));
        let (got, sent) = shuffle(
            1,
            &mut a,
            2,
            &mut b,
            own(1),
            partner(1),
            &mut StdRng::seed_from_u64(3),
        );
        let entry_of = |peer| a.iter().find(|e| e.peer == peer).map(|e| (e.age, e.meta));
        assert_eq!(
            entry_of(5),
            Some((1, own(1))),
            "equal age keeps the own entry"
        );
        assert_eq!(
            entry_of(6),
            Some((0, own(1))),
            "a younger copy at the same version refreshes the own entry's age"
        );
        assert_eq!(
            entry_of(7),
            Some((0, partner(2))),
            "a younger version is pulled"
        );
        assert_eq!(
            entry_of(2),
            Some((0, partner(1))),
            "the partner's own descriptor"
        );
        assert_eq!(
            got,
            ShuffleReceipt {
                view_descriptors: 3,
                pulled: 2
            }
        );
        assert_eq!(sent.view_descriptors, 3);
    }

    #[test]
    fn shuffle_keeps_at_most_capacity_entries() {
        let mut a = view_with(2, &[3, 4]);
        let mut b = view_with(3, &[5, 6, 7]);
        let (got, _) = shuffle(
            1u32,
            &mut a,
            2u32,
            &mut b,
            (),
            (),
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.entries.capacity(),
            2,
            "the view keeps no merge-pool slack"
        );
        assert_eq!(got.view_descriptors, 3);
        let from_b = a.peers().filter(|p| [2, 5, 6, 7].contains(p)).count();
        assert_eq!(
            got.pulled, from_b,
            "every kept partner descriptor is new to a"
        );
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
