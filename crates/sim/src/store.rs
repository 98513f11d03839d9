//! Node storage for the cycle engine.
//!
//! A [`NodeStore`] holds every node's protocol state in one contiguous
//! allocation, so the plan phase's read-only snapshot is a plain slice and
//! per-node *prepare* work fans out in contiguous chunks, one per worker.
//! The conflict-free commit batches take their `&mut` borrows through
//! [`NodeStore::disjoint_muts`] / [`NodeStore::pair_mut`], and a transport
//! shard moves nodes out and back with [`NodeStore::lend`] /
//! [`NodeStore::restore`]; a debug-build sanitizer polices both.
//!
//! None of this may change behaviour: a [`NodeStore`] is observationally a
//! `Vec<N>` with stable indices, and the fan-out visits every node exactly
//! once with its own index, so cycle output stays byte-identical for every
//! thread count.

use crate::parallel::{disjoint_muts, parallel_map};

/// Debug-build aliasing sanitizer state (see
/// [`NodeStore::begin_commit_batch`]).
///
/// The commit phase's safety story is "within one conflict-free batch, no
/// node is mutably borrowed twice". The type system enforces it for the
/// slice-splitting accessors themselves, but not for the *batch
/// construction* feeding them, nor across a mixed sequence of
/// [`NodeStore::get_mut`] / [`NodeStore::pair_mut`] /
/// [`NodeStore::disjoint_muts`] calls inside one batch (the sequential
/// oracles and bespoke drivers do exactly that). The ledger stamps every
/// node index handed out while a batch is active and panics on a re-borrow
/// — an in-process race detector for the invariant.
///
/// It polices loans the same way: a slot whose node was moved out by
/// [`NodeStore::lend`] holds a placeholder until [`NodeStore::restore`], and
/// every access that could observe or overwrite the placeholder — a mutable
/// borrow of the slot, a second `lend`, or a view of the whole store —
/// panics, inside a batch window or not. The whole mechanism is compiled
/// out in release builds.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Default)]
struct AliasLedger {
    /// Per-node stamp: `stamps[i] == epoch` means node `i` was already
    /// borrowed in the active batch, [`LENT`] that it is out on loan. Epoch
    /// stamping avoids clearing the vector between batches.
    stamps: Vec<u64>,
    /// Epoch of the current batch; bumped by every `begin_commit_batch`.
    epoch: u64,
    /// Whether a commit batch is currently active.
    active: bool,
    /// Number of slots currently out on loan.
    on_loan: usize,
}

/// The [`AliasLedger`] stamp of a slot whose node is out on loan (no epoch
/// ever reaches it).
#[cfg(debug_assertions)]
const LENT: u64 = u64::MAX;

/// Contiguous storage of per-node protocol state.
#[derive(Debug, Clone)]
pub struct NodeStore<N> {
    nodes: Vec<N>,
    #[cfg(debug_assertions)]
    ledger: AliasLedger,
}

impl<N> NodeStore<N> {
    /// Wraps the given nodes.
    pub fn new(nodes: Vec<N>) -> Self {
        Self {
            nodes,
            #[cfg(debug_assertions)]
            ledger: AliasLedger::default(),
        }
    }

    /// Opens an aliasing-sanitizer window for one conflict-free commit
    /// batch: until [`Self::end_commit_batch`], every node index handed out
    /// by [`Self::get_mut`] / [`Self::pair_mut`] / [`Self::disjoint_muts`]
    /// is recorded, and a second mutable borrow of the same node panics.
    /// Debug builds only; a no-op (and zero-cost) in release.
    ///
    /// # Panics
    /// Panics (debug builds) if a batch window is already open — commit
    /// batches are a flat sequence, never nested.
    #[inline]
    pub(crate) fn begin_commit_batch(&mut self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.ledger.active,
                "p3q aliasing sanitizer: commit batch windows cannot nest"
            );
            self.ledger.active = true;
            self.ledger.epoch += 1;
            self.ledger.stamps.resize(self.nodes.len(), 0);
        }
    }

    /// Closes the aliasing-sanitizer window opened by
    /// [`Self::begin_commit_batch`].
    ///
    /// # Panics
    /// Panics (debug builds) if no batch window is open.
    #[inline]
    pub(crate) fn end_commit_batch(&mut self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.ledger.active,
                "p3q aliasing sanitizer: end_commit_batch without a matching begin"
            );
            self.ledger.active = false;
        }
    }

    /// Records a mutable borrow of node `idx`: panics if the node is out on
    /// loan, and — against the active batch window, if any — on a
    /// same-batch re-borrow.
    #[cfg(debug_assertions)]
    fn record_batch_borrow(&mut self, idx: usize) {
        self.assert_not_lent(idx);
        if !self.ledger.active {
            return;
        }
        let stamp = &mut self.ledger.stamps[idx];
        assert!(
            *stamp != self.ledger.epoch,
            "p3q aliasing sanitizer: node {idx} mutably borrowed twice within one commit batch"
        );
        *stamp = self.ledger.epoch;
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn record_batch_borrow(&mut self, _idx: usize) {}

    /// Panics (debug builds) if node `idx` is out on loan: its slot holds a
    /// placeholder.
    #[cfg(debug_assertions)]
    fn assert_not_lent(&self, idx: usize) {
        assert!(
            self.ledger.stamps.get(idx) != Some(&LENT),
            "p3q aliasing sanitizer: node {idx} touched while out on loan"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn assert_not_lent(&self, _idx: usize) {}

    /// Panics (debug builds) if any node is out on loan: a view of the
    /// whole store would show — or let the caller overwrite — a placeholder.
    #[inline]
    fn assert_none_on_loan(&self) {
        #[cfg(debug_assertions)]
        assert!(
            self.ledger.on_loan == 0,
            "p3q aliasing sanitizer: the whole store viewed while {} node(s) are out on loan",
            self.ledger.on_loan
        );
    }

    /// Moves node `idx` out of the store, leaving a placeholder in its slot
    /// until [`Self::restore`] — how a transport shard hands a node to a
    /// commit running on another shard without copying it. Until then the
    /// slot must not be touched (debug builds: the sanitizer panics on a
    /// mutable borrow of it, a second `lend`, or a whole-store view).
    pub fn lend(&mut self, idx: usize) -> N
    where
        N: Default,
    {
        #[cfg(debug_assertions)]
        {
            self.ledger.stamps.resize(self.nodes.len(), 0);
            assert!(
                self.ledger.stamps[idx] != LENT,
                "p3q aliasing sanitizer: node {idx} lent twice without a restore"
            );
            self.ledger.stamps[idx] = LENT;
            self.ledger.on_loan += 1;
        }
        std::mem::take(&mut self.nodes[idx])
    }

    /// Moves a node lent by [`Self::lend`] back into its slot.
    ///
    /// # Panics
    /// Panics (debug builds) if node `idx` is not out on loan.
    pub fn restore(&mut self, idx: usize, node: N) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.ledger.stamps.get(idx) == Some(&LENT),
                "p3q aliasing sanitizer: node {idx} restored without being on loan"
            );
            self.ledger.stamps[idx] = 0;
            self.ledger.on_loan -= 1;
        }
        self.nodes[idx] = node;
    }

    /// Moves the nodes out (none may be on loan).
    pub(crate) fn into_nodes(self) -> Vec<N> {
        self.assert_none_on_loan();
        self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the store holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// One node.
    pub fn get(&self, idx: usize) -> &N {
        self.assert_not_lent(idx);
        &self.nodes[idx]
    }

    /// One node, mutable.
    pub fn get_mut(&mut self, idx: usize) -> &mut N {
        self.record_batch_borrow(idx);
        &mut self.nodes[idx]
    }

    /// All nodes as one contiguous slice (the read-only snapshot the plan
    /// phase observes).
    pub fn as_slice(&self) -> &[N] {
        self.assert_none_on_loan();
        &self.nodes
    }

    /// All nodes as one contiguous mutable slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [N] {
        self.assert_none_on_loan();
        &mut self.nodes
    }

    /// Simultaneous mutable references to the nodes at `sorted_unique`
    /// positions (strictly increasing, in bounds) — the shape of a
    /// conflict-free commit batch.
    ///
    /// # Panics
    /// Panics if the indices are not strictly increasing or out of bounds.
    pub(crate) fn disjoint_muts(&mut self, sorted_unique: &[usize]) -> Vec<&mut N> {
        for &idx in sorted_unique {
            self.record_batch_borrow(idx);
        }
        disjoint_muts(&mut self.nodes, sorted_unique)
    }

    /// Simultaneous mutable access to two distinct nodes — the shape of a
    /// pairwise gossip exchange.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of bounds.
    pub(crate) fn pair_mut(&mut self, a: usize, b: usize) -> (&mut N, &mut N) {
        assert!(a != b, "a gossip exchange needs two distinct nodes");
        self.record_batch_borrow(a);
        self.record_batch_borrow(b);
        if a < b {
            let (left, right) = self.nodes.split_at_mut(b);
            (&mut left[a], &mut right[0])
        } else {
            let (left, right) = self.nodes.split_at_mut(a);
            (&mut right[0], &mut left[b])
        }
    }

    /// Resident bytes of the node column: the contiguous node array plus
    /// whatever each node reports for its owned heap through `node_bytes`.
    pub fn storage_bytes(&self, node_bytes: impl Fn(&N) -> usize) -> usize {
        self.nodes.iter().map(node_bytes).sum()
    }
}

impl<N: Send> NodeStore<N> {
    /// Applies `f` to every node (as `f(index, &mut node)`), fanning
    /// contiguous chunks out to `threads` workers.
    ///
    /// Every node is visited exactly once with its own index, so the final
    /// state is independent of `threads`.
    pub(crate) fn for_each_mut<F>(&mut self, threads: usize, f: F)
    where
        F: Fn(usize, &mut N) + Sync,
    {
        parallel_map(
            self.nodes.iter_mut().enumerate(),
            threads,
            || (),
            |(idx, node), ()| f(idx, node),
        );
    }
}

impl<N> From<Vec<N>> for NodeStore<N> {
    fn from(nodes: Vec<N>) -> Self {
        Self::new(nodes)
    }
}

impl<N> From<NodeStore<N>> for Vec<N> {
    fn from(store: NodeStore<N>) -> Self {
        store.assert_none_on_loan();
        store.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_for_each_matches_sequential_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 50] {
            let mut store = NodeStore::new((0..777usize).collect());
            store.for_each_mut(threads, |i, node| {
                assert_eq!(*node, i);
                *node += 1000;
            });
            assert!(
                store
                    .as_slice()
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == i + 1000),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn disjoint_and_pair_access_work_across_shards() {
        let mut store = NodeStore::new((0..100u32).collect());
        {
            let refs = store.disjoint_muts(&[1, 8, 64, 99]);
            assert_eq!(refs.iter().map(|r| **r).collect::<Vec<_>>(), [1, 8, 64, 99]);
        }
        let (a, b) = store.pair_mut(70, 7);
        assert_eq!((*a, *b), (70, 7));
        *a = 1;
        *b = 2;
        assert_eq!(*store.get(70), 1);
        assert_eq!(*store.get(7), 2);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn pair_mut_rejects_same_index() {
        let mut store: NodeStore<u8> = NodeStore::new(vec![0, 1]);
        let _ = store.pair_mut(1, 1);
    }

    #[test]
    fn storage_bytes_sums_the_node_estimator() {
        let store: NodeStore<u64> = NodeStore::new(vec![0; 10]);
        assert_eq!(store.storage_bytes(|_| 3), 30);
    }

    #[test]
    fn lend_moves_the_node_out_and_restore_moves_it_back() {
        let mut store: NodeStore<String> = NodeStore::new(vec!["a".into(), "b".into()]);
        let mut guest = store.lend(1);
        assert_eq!(guest, "b");
        guest.push('!');
        *store.get_mut(0) = "c".into();
        store.restore(1, guest);
        assert_eq!(store.as_slice(), ["c", "b!"]);
    }

    #[test]
    fn empty_store_is_sane() {
        let mut store: NodeStore<u8> = NodeStore::new(Vec::new());
        assert!(store.is_empty());
        store.for_each_mut(4, |_, _| unreachable!());
    }

    /// Aliasing-sanitizer behaviour: debug builds only (the whole ledger is
    /// compiled out in release).
    #[cfg(debug_assertions)]
    mod sanitizer {
        use super::*;

        #[test]
        #[should_panic(expected = "borrowed twice within one commit batch")]
        fn repeated_get_mut_in_one_batch_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 8]);
            store.begin_commit_batch();
            let _ = store.get_mut(3);
            let _ = store.get_mut(3);
        }

        #[test]
        #[should_panic(expected = "borrowed twice within one commit batch")]
        fn pair_overlapping_an_earlier_disjoint_borrow_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 8]);
            store.begin_commit_batch();
            let _ = store.disjoint_muts(&[1, 4, 6]);
            let _ = store.pair_mut(4, 7);
        }

        #[test]
        #[should_panic(expected = "borrowed twice within one commit batch")]
        fn solo_commit_overlapping_a_pair_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 8]);
            store.begin_commit_batch();
            let _ = store.pair_mut(2, 5);
            let _ = store.get_mut(5);
        }

        #[test]
        fn disjoint_borrows_within_and_across_batches_pass() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 8]);
            for _ in 0..3 {
                // The same indices are fine again once a new batch starts.
                store.begin_commit_batch();
                let _ = store.disjoint_muts(&[0, 2, 5]);
                let _ = store.pair_mut(1, 7);
                let _ = store.get_mut(6);
                store.end_commit_batch();
            }
        }

        #[test]
        fn borrows_outside_a_batch_window_are_unrestricted() {
            // prepare / apply-effect phases re-borrow freely; only the
            // commit window is policed.
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            let _ = store.get_mut(1);
            let _ = store.get_mut(1);
            store.begin_commit_batch();
            let _ = store.get_mut(1);
            store.end_commit_batch();
            let _ = store.get_mut(1);
        }

        #[test]
        #[should_panic(expected = "node 2 lent twice")]
        fn double_lend_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            let _ = store.lend(2);
            let _ = store.lend(2);
        }

        #[test]
        #[should_panic(expected = "node 2 touched while out on loan")]
        fn mutable_borrow_of_a_lent_node_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            let _ = store.lend(2);
            let _ = store.pair_mut(1, 2);
        }

        #[test]
        #[should_panic(expected = "whole store viewed while 1 node(s) are out on loan")]
        fn whole_store_view_with_a_node_on_loan_panics() {
            // The shape of an effect applied before its batch's restores:
            // `Shard::effects` windows the whole store.
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            let _ = store.lend(2);
            let _ = store.as_mut_slice();
        }

        #[test]
        #[should_panic(expected = "node 2 restored without being on loan")]
        fn restore_without_a_loan_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            store.restore(2, 7);
        }

        #[test]
        fn a_restored_node_is_borrowable_again() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            let guest = store.lend(2);
            store.begin_commit_batch();
            let _ = store.pair_mut(0, 1);
            store.end_commit_batch();
            store.restore(2, guest + 1);
            store.begin_commit_batch();
            assert_eq!(*store.get_mut(2), 1);
            store.end_commit_batch();
            let _ = store.lend(2);
        }

        #[test]
        #[should_panic(expected = "cannot nest")]
        fn nested_batch_windows_panic() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            store.begin_commit_batch();
            store.begin_commit_batch();
        }

        #[test]
        #[should_panic(expected = "without a matching begin")]
        fn end_without_begin_panics() {
            let mut store: NodeStore<u8> = NodeStore::new(vec![0; 4]);
            store.end_commit_batch();
        }
    }
}
