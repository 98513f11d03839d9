//! Property-based tests of the gossip views and the peer-sampling shuffle.

use p3q_gossip::{peer_sampling, AgedView, ScoredView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// A scored view never exceeds its capacity and stays sorted by
    /// descending score, whatever the insertion/update sequence.
    #[test]
    fn prop_scored_view_bounded_and_sorted(
        capacity in 1usize..12,
        inserts in prop::collection::vec((0u32..64, 0u64..1000), 0..100),
    ) {
        let mut view: ScoredView<u32, ()> = ScoredView::new(capacity);
        for &(peer, score) in &inserts {
            view.upsert(peer, score, ());
        }
        prop_assert!(view.len() <= capacity);
        let scores: Vec<u64> = view.iter().map(|e| e.score).collect();
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
        inserts in prop::collection::hash_map(0u32..64, 1u64..1000, 0..40),
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

    /// `upsert_with` hands its closure the peer's old metadata and the rank
    /// it lands at, returns that rank (the one `rank_of` then reports), keeps
    /// a present peer's staleness, and leaves the view untouched when it
    /// rejects a peer — which only happens to an absent one.
    #[test]
    fn prop_upsert_with_reports_the_landing_rank(
        capacity in 1usize..8,
        steps in prop::collection::vec((0u32..16, 0u64..6, any::<bool>()), 0..120),
    ) {
        let mut view: ScoredView<u32, usize> = ScoredView::new(capacity);
        for (step, &(peer, score, tick)) in steps.iter().enumerate() {
            if tick {
                view.tick();
            }
            let before = view.clone();
            let old = view.get(&peer).map(|e| (e.meta, e.staleness));
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
                    prop_assert_eq!((entry.score, entry.meta), (score, step));
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
}
