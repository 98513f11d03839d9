//! Property tests pinning the compressed columnar storage stack.
//!
//! The [`ActionIndex`] stores its keys in the interned action dictionary
//! (delta-varint blocks) and its posting lists as delta-varint runs; none
//! of that may be observable. This suite pins:
//!
//! * every posting list of a compressed index equal to an independently
//!   built **uncompressed** reference (a plain `HashMap<action, Vec<user>>`)
//!   on random traces, through random delta batches and churn removals,
//!   for several shard layouts;
//! * [`IdealNetworks::compute`] over the compressed index byte-identical
//!   across worker-thread counts 1/3/8 (the counts CI replays the suite
//!   under via `P3Q_THREADS`);
//! * dictionary round-trip (`intern`/`id_of`/`resolve`) and the
//!   order-isomorphism of frozen ids;
//! * the [`ActionIndex::memory`] report: internally consistent, and the
//!   compressed layout strictly below the uncompressed CSR equivalent on
//!   non-trivial traces.

use std::collections::HashMap;

use proptest::prelude::*;

use p3q::baseline::IdealNetworks;
use p3q::similarity::ActionIndex;
use p3q_trace::{
    action_key, Dataset, ItemId, Profile, TagId, TaggingAction, TraceConfig, TraceGenerator, UserId,
};

fn act(item: u32, tag: u32) -> TaggingAction {
    TaggingAction::new(ItemId(item), TagId(tag))
}

/// A small random dataset with dense ids so shared actions are common.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec((0u32..14, 0u32..7), 0..28), 2..14).prop_map(
        |users| {
            let profiles: Vec<Profile> = users
                .into_iter()
                .map(|actions| Profile::from_actions(actions.into_iter().map(|(i, t)| act(i, t))))
                .collect();
            Dataset::new(profiles, 14, 7)
        },
    )
}

/// The uncompressed oracle: a plain hash-map inverted index, built with no
/// shared code paths (no dictionary, no varints, no shards).
#[derive(Debug, Default, Clone)]
struct UncompressedIndex {
    postings: HashMap<TaggingAction, Vec<u32>>,
}

impl UncompressedIndex {
    fn build(dataset: &Dataset) -> Self {
        let mut postings: HashMap<TaggingAction, Vec<u32>> = HashMap::new();
        for (user, profile) in dataset.iter() {
            for action in profile.iter() {
                postings.entry(*action).or_default().push(user.0);
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable();
        }
        Self { postings }
    }

    fn taggers_of(&self, action: &TaggingAction) -> Vec<u32> {
        self.postings.get(action).cloned().unwrap_or_default()
    }

    fn distinct_actions(&self) -> usize {
        self.postings.len()
    }
}

/// Asserts compressed and uncompressed agree on every probed action: all
/// indexed actions plus a grid of absent ones. Also pins the memory
/// report's incrementally maintained posting counter to the oracle's
/// ground truth (it is updated across delta batches and churn, never
/// recounted).
fn assert_indexes_agree(index: &ActionIndex, oracle: &UncompressedIndex) {
    assert_eq!(index.distinct_actions(), oracle.distinct_actions());
    assert_eq!(
        index.memory().postings,
        oracle.postings.values().map(Vec::len).sum::<usize>(),
        "posting counter diverged from ground truth"
    );
    for (action, expected) in &oracle.postings {
        assert_eq!(&index.taggers_of(action), expected, "{action}");
    }
    for item in 0..16u32 {
        for tag in 0..8u32 {
            let probe = act(item, tag);
            assert_eq!(
                index.taggers_of(&probe),
                oracle.taggers_of(&probe),
                "probe {probe}"
            );
        }
    }
}

proptest! {
    /// Compressed postings equal the uncompressed oracle on fresh builds,
    /// for every shard layout.
    #[test]
    fn compressed_build_matches_uncompressed(dataset in arb_dataset(), shards in 1usize..6) {
        let index = ActionIndex::build_with_shards(&dataset, shards);
        let oracle = UncompressedIndex::build(&dataset);
        assert_indexes_agree(&index, &oracle);
    }

    /// Compressed postings stay equal to an uncompressed rebuild through
    /// random delta batches (only touched shards are recompressed).
    #[test]
    fn compressed_index_survives_delta_batches(
        dataset in arb_dataset(),
        shards in 1usize..5,
        batches in prop::collection::vec(
            prop::collection::vec((0usize..14, 0u32..16, 0u32..8), 1..6),
            1..4,
        ),
    ) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build_with_shards(&dataset, shards);
        for batch in batches {
            let deltas: Vec<(UserId, Vec<TaggingAction>)> = batch
                .into_iter()
                .map(|(user, item, tag)| {
                    let user = UserId::from_index(user % dataset.num_users());
                    (user, vec![act(item, tag)])
                })
                .collect();
            let outcome = index.apply_deltas(deltas.iter().map(|(u, a)| (*u, a.as_slice())));
            let mut changed: Vec<UserId> = Vec::new();
            for (user, actions) in &deltas {
                if dataset.profile_mut(*user).extend(actions.iter().copied()) > 0 {
                    changed.push(*user);
                }
            }
            changed.sort_unstable();
            changed.dedup();
            prop_assert_eq!(&outcome.changed, &changed, "changing users diverged");
            assert_indexes_agree(&index, &UncompressedIndex::build(&dataset));
        }
    }

    /// Compressed postings stay equal to an uncompressed rebuild through
    /// churn: departed users are stripped shard-locally.
    #[test]
    fn compressed_index_survives_churn(dataset in arb_dataset(), step in 1usize..4) {
        let mut dataset = dataset;
        let mut index = ActionIndex::build(&dataset);
        let departed: Vec<UserId> = dataset.users().step_by(step).collect();
        for user in departed {
            let old = dataset.profile(user).clone();
            index.remove_user(user, &old);
            *dataset.profile_mut(user) = Profile::new();
            assert_indexes_agree(&index, &UncompressedIndex::build(&dataset));
        }
    }

    /// Ideal networks over the compressed index are byte-identical for
    /// worker-thread counts 1, 3 and 8.
    #[test]
    fn compute_is_thread_count_independent(dataset in arb_dataset(), s in 1usize..8) {
        let one = IdealNetworks::compute_with_threads(&dataset, s, 1);
        for threads in [3usize, 8] {
            let other = IdealNetworks::compute_with_threads(&dataset, s, threads);
            for user in dataset.users() {
                prop_assert_eq!(
                    one.network_of(user),
                    other.network_of(user),
                    "threads {} diverged for {}", threads, user
                );
            }
        }
    }

    /// Dictionary round-trip: `id_of` inverts `intern`/build assignment,
    /// `resolve` inverts `id_of`, and frozen ids are order-isomorphic to
    /// the `(item, tag)` key order.
    #[test]
    fn dictionary_round_trips_and_orders(dataset in arb_dataset()) {
        let dict = dataset.action_dictionary();
        let mut keys: Vec<u64> = Vec::new();
        for (_, profile) in dataset.iter() {
            for action in profile.iter() {
                let id = dict.id_of(action).expect("dataset actions are interned");
                prop_assert_eq!(dict.resolve(id), *action);
                keys.push(action_key(action));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(dict.len(), keys.len());
        prop_assert_eq!(dict.frozen_len(), keys.len());
        // Order isomorphism over the frozen range: rank in key order == id.
        for (rank, &key) in keys.iter().enumerate() {
            let action = p3q_trace::key_action(key);
            prop_assert_eq!(dict.id_of(&action).map(|id| id.index()), Some(rank));
        }
    }

    /// Late interning appends to the tail without disturbing frozen ids,
    /// and stays idempotent.
    #[test]
    fn dictionary_tail_interning_is_stable(dataset in arb_dataset(), extra in prop::collection::vec((20u32..40, 0u32..8), 1..6)) {
        let mut dict = dataset.action_dictionary();
        let frozen = dict.frozen_len();
        let before: Vec<Option<p3q_trace::ActionId>> = dataset
            .iter()
            .flat_map(|(_, p)| p.iter().map(|a| dict.id_of(a)).collect::<Vec<_>>())
            .collect();
        let mut tail_ids = Vec::new();
        for (item, tag) in extra {
            let action = act(item, tag);
            let id = dict.intern(&action);
            prop_assert_eq!(dict.intern(&action), id, "interning must be idempotent");
            prop_assert_eq!(dict.resolve(id), action);
            tail_ids.push(id);
        }
        prop_assert_eq!(dict.frozen_len(), frozen, "the frozen range never moves");
        let after: Vec<Option<p3q_trace::ActionId>> = dataset
            .iter()
            .flat_map(|(_, p)| p.iter().map(|a| dict.id_of(a)).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(before, after, "frozen ids must be undisturbed");
    }

    /// The memory report is internally consistent after arbitrary builds.
    #[test]
    fn memory_report_is_consistent(dataset in arb_dataset(), shards in 1usize..5) {
        let index = ActionIndex::build_with_shards(&dataset, shards);
        let memory = index.memory();
        prop_assert_eq!(memory.distinct_actions, index.distinct_actions());
        prop_assert_eq!(memory.postings, dataset.total_actions());
        prop_assert_eq!(
            memory.total_bytes,
            memory.dictionary_bytes + memory.directory_bytes + memory.postings_bytes
        );
        prop_assert_eq!(
            memory.csr_equivalent_bytes,
            memory.distinct_actions * 12 + memory.postings * 4
        );
    }
}

/// On a generated (paper-shaped) trace the compressed layout must beat the
/// uncompressed CSR equivalent by a wide margin — the point of the whole
/// refactor. Deterministic, not property-driven: one representative trace.
#[test]
fn compressed_layout_beats_csr_on_generated_traces() {
    let trace = TraceGenerator::new(TraceConfig::tiny(11)).generate();
    let index = ActionIndex::build(&trace.dataset);
    let memory = index.memory();
    assert!(
        memory.total_bytes * 10 <= memory.csr_equivalent_bytes * 8,
        "expected >= 20% reduction on a tiny trace, got {} vs {}",
        memory.total_bytes,
        memory.csr_equivalent_bytes
    );

    // The dictionary alone must at least halve the 8-byte key column.
    let dict = trace.dataset.action_dictionary();
    assert!(dict.heap_bytes() * 2 <= dict.uncompressed_bytes());

    // And the full pipeline still agrees with the uncompressed oracle.
    let oracle = UncompressedIndex::build(&trace.dataset);
    assert_eq!(index.distinct_actions(), oracle.distinct_actions());
    for (action, expected) in &oracle.postings {
        assert_eq!(&index.taggers_of(action), expected, "{action}");
    }
}
