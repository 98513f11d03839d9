//! Property-based tests of the gossip views and the peer-sampling shuffle.

use std::collections::HashMap;

use p3q_gossip::peer_sampling::{self, Versioned};
use p3q_gossip::{AgedEntry, AgedView, ScoredView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shuffle metadata: a version, and the view that held it before the
/// shuffle, so a test can tell pulled metadata from own metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tagged {
    version: u64,
    holder: u32,
}

impl Versioned for Tagged {
    fn version(&self) -> u64 {
        self.version
    }
}

type Entries = Vec<AgedEntry<u32, Tagged>>;

/// The clone-everything shuffle the descriptors-first one replaced, kept to
/// pin it: each side ships a full copy of its view plus a fresh descriptor
/// of itself, and keeps a random subset of its entries and the payload.
fn reference_shuffle(
    (a_id, a, a_capacity): (u32, Entries, usize),
    (b_id, b, b_capacity): (u32, Entries, usize),
    rng: &mut StdRng,
) -> (Entries, Entries) {
    let payload = |view: &Entries, peer, holder| {
        let mut payload = view.clone();
        payload.push(AgedEntry {
            peer,
            age: 0,
            meta: Tagged {
                version: u64::from(peer) % 3,
                holder,
            },
        });
        payload
    };
    let (a_payload, b_payload) = (payload(&a, a_id, a_id), payload(&b, b_id, b_id));
    let mut absorb = |mut pool: Entries, received: Entries, self_id, capacity| {
        pool.extend(received);
        pool.retain(|e| e.peer != self_id);
        pool.sort_by(|x, y| x.peer.cmp(&y.peer).then(x.age.cmp(&y.age)));
        pool.dedup_by(|later, earlier| later.peer == earlier.peer);
        pool.shuffle(rng);
        pool.truncate(capacity);
        pool
    };
    let a_new = absorb(a, b_payload, a_id, a_capacity);
    let b_new = absorb(b, a_payload, b_id, b_capacity);
    (a_new, b_new)
}

/// A view of `capacity` holding `by_peer` (peer → (age, version)), built
/// through the public API: oldest first, one tick between age classes.
fn aged_view(
    capacity: usize,
    holder: u32,
    by_peer: &HashMap<u32, (u32, u64)>,
) -> AgedView<u32, Tagged> {
    let mut sorted: Vec<(u32, u32, u64)> =
        by_peer.iter().map(|(&p, &(age, v))| (p, age, v)).collect();
    sorted.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    let mut view = AgedView::new(capacity);
    let mut age = sorted.first().map_or(0, |e| e.1);
    for (peer, entry_age, version) in sorted {
        while age > entry_age {
            view.tick();
            age -= 1;
        }
        view.insert(peer, Tagged { version, holder });
    }
    for _ in 0..age {
        view.tick();
    }
    view
}

fn descriptors(entries: &[AgedEntry<u32, Tagged>]) -> Vec<(u32, u32, u64)> {
    entries
        .iter()
        .map(|e| (e.peer, e.age, e.meta.version))
        .collect()
}

/// One entry of [`ArrayView`].
#[derive(Debug, Clone, PartialEq)]
struct ArrayEntry {
    peer: u32,
    score: u64,
    staleness: u32,
    meta: u64,
}

/// The scored view as an array of entries, as it was before the column
/// layout replaced it, kept to pin the columns to: every operation below is
/// the array version's code, with peer `u32` and metadata `u64`.
#[derive(Debug, Clone)]
struct ArrayView {
    capacity: usize,
    entries: Vec<ArrayEntry>,
}

impl ArrayView {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    fn rank_of(&self, peer: &u32) -> Option<usize> {
        self.entries.iter().position(|e| e.peer == *peer)
    }

    fn would_admit(&self, peer: u32, score: u64) -> bool {
        self.insertion_rank(peer, score) < self.capacity
    }

    fn insertion_rank(&self, peer: u32, score: u64) -> usize {
        self.entries
            .partition_point(|e| e.score > score || (e.score == score && e.peer < peer))
    }

    fn upsert_with(
        &mut self,
        peer: u32,
        score: u64,
        f: impl FnOnce(Option<u64>, usize) -> u64,
    ) -> Option<usize> {
        let (old, staleness) = match self.rank_of(&peer) {
            Some(rank) => {
                let entry = self.entries.remove(rank);
                (Some(entry.meta), entry.staleness)
            }
            None => (None, 0),
        };
        let rank = self.insertion_rank(peer, score);
        if rank >= self.capacity {
            return None;
        }
        self.entries.truncate(self.capacity - 1);
        let meta = f(old, rank);
        self.entries.insert(
            rank,
            ArrayEntry {
                peer,
                score,
                staleness,
                meta,
            },
        );
        Some(rank)
    }

    fn tick(&mut self) {
        for entry in &mut self.entries {
            entry.staleness = entry.staleness.saturating_add(1);
        }
    }

    fn oldest_matching_with(
        &self,
        pred: impl Fn(&ArrayEntry) -> bool,
        staleness_of: impl Fn(&ArrayEntry) -> u32,
    ) -> Option<u32> {
        self.entries
            .iter()
            .filter(|e| pred(e))
            .max_by(|a, b| {
                staleness_of(a)
                    .cmp(&staleness_of(b))
                    .then(a.score.cmp(&b.score))
                    .then(b.peer.cmp(&a.peer))
            })
            .map(|e| e.peer)
    }

    fn reset_staleness(&mut self, peer: &u32) -> bool {
        match self.entries.iter_mut().find(|e| e.peer == *peer) {
            Some(entry) => {
                entry.staleness = 0;
                true
            }
            None => false,
        }
    }
}

/// One step of `prop_columns_match_the_array_of_entries`.
#[derive(Debug, Clone)]
enum ViewOp {
    Upsert(u32, u32),
    UpsertWith(u32, u32),
    Tick,
    Reset(u32),
    WouldAdmit(u32, u32),
    /// Peers with `peer % 3 != residue` match; those with `peer % 4 ==
    /// residue` count as staleness 0.
    Oldest(u32),
}

fn view_op() -> impl Strategy<Value = ViewOp> {
    (0u32..6, 0u32..14, 0u32..6).prop_map(|(kind, peer, score)| match kind {
        0 => ViewOp::Upsert(peer, score),
        1 => ViewOp::UpsertWith(peer, score),
        2 => ViewOp::Tick,
        3 => ViewOp::Reset(peer),
        4 => ViewOp::WouldAdmit(peer, score),
        _ => ViewOp::Oldest(peer % 4),
    })
}

proptest! {
    /// A scored view never exceeds its capacity and stays sorted by
    /// descending score, whatever the insertion/update sequence.
    #[test]
    fn prop_scored_view_bounded_and_sorted(
        capacity in 1usize..12,
        inserts in prop::collection::vec((0u32..64, 0u32..1000), 0..100),
    ) {
        let mut view: ScoredView<u32, ()> = ScoredView::new(capacity);
        for &(peer, score) in &inserts {
            view.upsert(peer, score, ());
        }
        prop_assert!(view.len() <= capacity);
        let scores: Vec<u32> = view.iter().map(|e| e.score).collect();
        for pair in scores.windows(2) {
            prop_assert!(pair[0] >= pair[1]);
        }
    }

    /// When every peer is inserted exactly once (scores never downgraded —
    /// the P3Q case, where similarity only grows), the view retains exactly
    /// the `capacity` best-scored peers.
    #[test]
    fn prop_scored_view_keeps_the_best_of_unique_inserts(
        capacity in 1usize..12,
        inserts in prop::collection::hash_map(0u32..64, 1u32..1000, 0..40),
    ) {
        let mut view: ScoredView<u32, ()> = ScoredView::new(capacity);
        for (&peer, &score) in &inserts {
            view.upsert(peer, score, ());
        }
        prop_assert!(view.len() <= capacity);
        if view.len() == capacity {
            let retained: std::collections::HashSet<u32> = view.peers().collect();
            let min_retained = view.iter().last().map_or(0, |e| e.score);
            for (&peer, &score) in &inserts {
                if !retained.contains(&peer) {
                    prop_assert!(score <= min_retained);
                }
            }
        }
    }

    /// `upsert_with` hands its closure the peer's old rank and metadata and
    /// the rank it lands at, returns that rank (the one `rank_of` then
    /// reports), keeps a present peer's staleness, and leaves the view
    /// untouched when it rejects a peer — which only happens to an absent
    /// one.
    #[test]
    fn prop_upsert_with_reports_the_landing_rank(
        capacity in 1usize..8,
        steps in prop::collection::vec((0u32..16, 0u32..6, any::<bool>()), 0..120),
    ) {
        let mut view: ScoredView<u32, usize> = ScoredView::new(capacity);
        for (step, &(peer, score, tick)) in steps.iter().enumerate() {
            if tick {
                view.tick();
            }
            let before = view.clone();
            let old = view
                .rank_of(&peer)
                .map(|rank| ((rank, *view.entry(rank).meta), view.entry(rank).staleness));
            let mut seen = None;
            let landed = view.upsert_with(peer, score, |meta, rank| {
                seen = Some((meta, rank));
                step
            });
            prop_assert_eq!(landed, view.rank_of(&peer), "step {}", step);
            match landed {
                Some(rank) => {
                    prop_assert_eq!(seen, Some((old.map(|(meta, _)| meta), rank)));
                    let entry = view.get(&peer).unwrap();
                    prop_assert_eq!((entry.score, *entry.meta), (score, step));
                    prop_assert_eq!(entry.staleness, old.map_or(0, |(_, staleness)| staleness));
                }
                None => {
                    prop_assert!(old.is_none(), "a present peer is never dropped");
                    prop_assert_eq!(seen, None);
                    prop_assert_eq!(&view, &before);
                }
            }
        }
    }

    /// Repeated tick/select cycles visit every peer of a scored view
    /// (fair, timestamp-driven partner selection): the stalest peer is
    /// planned with `oldest_matching` and reset on commit, as the lazy
    /// mode does.
    #[test]
    fn prop_oldest_selection_is_fair(peers in prop::collection::hash_set(0u32..50, 1..10)) {
        let peers: Vec<u32> = peers.into_iter().collect();
        let mut view: ScoredView<u32, ()> = ScoredView::new(peers.len());
        for &p in &peers {
            view.upsert(p, 10, ());
        }
        let mut selected = Vec::new();
        for _ in 0..peers.len() {
            view.tick();
            let peer = view.oldest_matching(|_| true).unwrap();
            prop_assert!(view.reset_staleness(&peer));
            selected.push(peer);
        }
        selected.sort_unstable();
        let mut expected = peers.clone();
        expected.sort_unstable();
        prop_assert_eq!(selected, expected);
    }

    /// The peer-sampling shuffle never introduces self-references or
    /// duplicates and never exceeds the view capacity.
    #[test]
    fn prop_shuffle_invariants(
        seed in 0u64..1000,
        a_peers in prop::collection::hash_set(2u32..40, 0..8),
        b_peers in prop::collection::hash_set(2u32..40, 0..8),
        rounds in 1usize..8,
    ) {
        let mut a: AgedView<u32, ()> = AgedView::new(5);
        let mut b: AgedView<u32, ()> = AgedView::new(5);
        for p in a_peers {
            a.insert(p, ());
        }
        for p in b_peers {
            b.insert(p, ());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rounds {
            a.tick();
            b.tick();
            peer_sampling::shuffle(0u32, &mut a, 1u32, &mut b, (), (), &mut rng);
            for (view, own) in [(&a, 0u32), (&b, 1u32)] {
                prop_assert!(view.len() <= view.capacity());
                prop_assert!(!view.contains(&own));
                let mut peers: Vec<u32> = view.peers().collect();
                let before = peers.len();
                peers.sort_unstable();
                peers.dedup();
                prop_assert_eq!(peers.len(), before, "duplicate peers after shuffle");
            }
        }
        // After at least one shuffle with a non-empty counterpart, each side
        // knows the other (they exchanged fresh self-descriptors) unless its
        // view filled up with other peers.
        if a.len() < a.capacity() {
            prop_assert!(a.contains(&1) || b.is_empty());
        }
    }

    /// The descriptors-first shuffle chooses exactly what the
    /// clone-everything one does, draws the same random numbers, and pulls
    /// exactly the kept partner descriptors that displaced no own copy at
    /// the same version. Small peer, age and version ranges make equal ages
    /// at different versions common; `b` may hold `a` (the partner in the
    /// own view, self in the partner's view) and either view may be short
    /// or empty.
    #[test]
    fn prop_descriptors_first_matches_the_clone_everything_shuffle(
        seed in 0u64..1000,
        capacities in (1usize..7, 1usize..7),
        a_entries in prop::collection::hash_map(1u32..12, (0u32..3, 0u64..3), 0..7),
        b_entries in prop::collection::hash_map(0u32..12, (0u32..3, 0u64..3), 0..7),
    ) {
        let (a_id, b_id) = (0u32, 1u32);
        let b_entries: HashMap<u32, (u32, u64)> =
            b_entries.into_iter().filter(|&(peer, _)| peer != b_id).collect();
        let mut a = aged_view(capacities.0, a_id, &a_entries);
        let mut b = aged_view(capacities.1, b_id, &b_entries);
        let (a_old, b_old): (Entries, Entries) = (a.iter().cloned().collect(), b.iter().cloned().collect());
        let self_meta = |id: u32| Tagged { version: u64::from(id) % 3, holder: id };

        let mut reference_rng = StdRng::seed_from_u64(seed);
        let (a_want, b_want) = reference_shuffle(
            (a_id, a_old.clone(), capacities.0),
            (b_id, b_old.clone(), capacities.1),
            &mut reference_rng,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let (a_got, b_got) =
            peer_sampling::shuffle(a_id, &mut a, b_id, &mut b, self_meta(a_id), self_meta(b_id), &mut rng);
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG state diverged");

        for (id, partner, view, old, partner_old, want, got) in [
            (a_id, b_id, &a, &a_old, &b_old, &a_want, a_got),
            (b_id, a_id, &b, &b_old, &a_old, &b_want, b_got),
        ] {
            let entries: Entries = view.iter().cloned().collect();
            prop_assert_eq!(descriptors(&entries), descriptors(want));
            prop_assert_eq!(got.view_descriptors, partner_old.len());
            // Kept partner descriptors that displaced no own copy at the same
            // version: the only ones whose metadata the reference took from
            // the partner and the new shuffle must pull.
            let held = |e: &AgedEntry<u32, Tagged>| {
                old.iter().any(|o| o.peer == e.peer && o.meta.version == e.meta.version)
            };
            let must_pull: Vec<u32> = want
                .iter()
                .filter(|e| e.meta.holder == partner && !held(e))
                .map(|e| e.peer)
                .collect();
            let pulled: Vec<u32> = entries
                .iter()
                .filter(|e| e.meta.holder == partner)
                .map(|e| e.peer)
                .collect();
            prop_assert_eq!(&pulled, &must_pull, "side {}", id);
            prop_assert_eq!(got.pulled, must_pull.len());
        }
    }

    /// The column layout behaves as the array of entries it replaced: the
    /// same returns from every operation, the same landing ranks and old
    /// metadata handed to `upsert_with`, and after every step the same
    /// entries in the same `iter()` order with the same `rank_of` for every
    /// peer. Few peers and scores make ties, moves, evictions and
    /// rejections common.
    #[test]
    fn prop_columns_match_the_array_of_entries(
        capacity in 1usize..9,
        ops in prop::collection::vec(view_op(), 0..150),
    ) {
        let mut columns: ScoredView<u32, u64> = ScoredView::new(capacity);
        let mut array = ArrayView::new(capacity);
        for (step, op) in ops.iter().enumerate() {
            let meta = step as u64;
            match *op {
                ViewOp::Upsert(peer, score) => {
                    let kept = array.upsert_with(peer, u64::from(score), |_, _| meta).is_some();
                    prop_assert_eq!(columns.upsert(peer, score, meta), kept, "step {}", step);
                }
                ViewOp::UpsertWith(peer, score) => {
                    let old_rank = array.rank_of(&peer);
                    let mut want = None;
                    let landed = array.upsert_with(peer, u64::from(score), |old, rank| {
                        want = Some((old_rank.zip(old), rank));
                        meta
                    });
                    let mut got = None;
                    let columns_landed = columns.upsert_with(peer, score, |old, rank| {
                        got = Some((old, rank));
                        meta
                    });
                    prop_assert_eq!(columns_landed, landed, "step {}", step);
                    prop_assert_eq!(got, want, "step {}", step);
                }
                ViewOp::Tick => {
                    array.tick();
                    columns.tick();
                }
                ViewOp::Reset(peer) => {
                    prop_assert_eq!(
                        columns.reset_staleness(&peer),
                        array.reset_staleness(&peer),
                        "step {}", step
                    );
                }
                ViewOp::WouldAdmit(peer, score) => {
                    if array.rank_of(&peer).is_none() {
                        prop_assert_eq!(
                            columns.would_admit(peer, score),
                            array.would_admit(peer, u64::from(score)),
                            "step {}", step
                        );
                    }
                }
                ViewOp::Oldest(residue) => {
                    let want = array.oldest_matching_with(
                        |e| e.peer % 3 != residue,
                        |e| if e.peer % 4 == residue { 0 } else { e.staleness },
                    );
                    let got = columns.oldest_matching_with(
                        |e| e.peer % 3 != residue,
                        |e| if e.peer % 4 == residue { 0 } else { e.staleness },
                    );
                    prop_assert_eq!(got, want, "step {}", step);
                }
            }
            let entries: Vec<ArrayEntry> = columns
                .iter()
                .map(|e| ArrayEntry {
                    peer: e.peer,
                    score: u64::from(e.score),
                    staleness: e.staleness,
                    meta: *e.meta,
                })
                .collect();
            prop_assert_eq!(&entries, &array.entries, "step {}", step);
            for peer in 0..14u32 {
                prop_assert_eq!(columns.rank_of(&peer), array.rank_of(&peer));
                prop_assert_eq!(columns.contains(&peer), array.rank_of(&peer).is_some());
            }
            prop_assert!(columns.heap_bytes() <= capacity * ScoredView::<u32, u64>::ENTRY_BYTES);
        }
    }
}
