//! # P3Q — Gossiping Personalized Queries
//!
//! A from-scratch Rust reproduction of **"Gossiping Personalized Queries"**
//! (Xiao Bai, Marin Bertier, Rachid Guerraoui, Anne-Marie Kermarrec, Vincent
//! Leroy — EDBT 2010): a fully decentralized, gossip-based protocol for
//! personalized top-k query processing in collaborative tagging systems.
//!
//! ## Protocol in one paragraph
//!
//! Every user maintains a **personal network** of the `s` users with the most
//! similar tagging behaviour (similarity = number of common `(item, tag)`
//! actions) but stores the full profiles of only the `c` most similar ones; a
//! **random view** maintained by a peer-sampling layer keeps the overlay
//! connected. A **lazy** gossip mode (low frequency) discovers and refreshes
//! the personal network with a 3-step digest → common-items → full-profile
//! exchange; an **eager** mode (on demand, high frequency) processes queries
//! by gossiping a *remaining list* of still-needed profiles along the
//! personal network, with every reached user resolving what she stores,
//! sending a partial result list straight to the querier and splitting the
//! rest with a parameter `α`. The querier merges the asynchronously arriving
//! lists with an incremental NRA and refreshes its top-k every cycle.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`config`] | 2.1, 3.1.2 | protocol parameters (`s`, `r`, `c`, `α`, …) |
//! | [`storage`] | 3.1.2, Table 1 | uniform / Poisson storage scenarios |
//! | [`node`] | 2.1, Figure 1 | per-user state (profile, personal network, random view) |
//! | [`scoring`] | 2.1, 2.3 | similarity and relevance scores (with buffer-reusing variants) |
//! | [`similarity`] | 2.1, 3.2.1 | counting inverted index: population-scale similarity sweeps |
//! | [`lazy`] | 2.2.1, Algorithm 1 | personal-network maintenance |
//! | [`eager`] | 2.2.2, Algorithms 2–3 | collaborative query processing |
//! | [`query`] | 2.2.2, 2.3 | querier-side state, remaining lists |
//! | [`baseline`] | 3.2 | ideal networks and the centralized reference |
//! | [`resolver`] | 3.2.1 | demand-driven network resolution with memoization |
//! | [`metrics`] | 3.2, 3.4 | success ratio, recall, AUR, network refresh |
//! | [`bandwidth`] | 3.3 | the paper's wire-size model and traffic categories |
//! | [`analysis`] | 2.4 | Theorems 2.1–2.4 in closed form |
//! | [`experiment`] | 3.1 | simulator construction and initialisation helpers |
//!
//! ## Performance architecture
//!
//! Seven structural decisions keep the hot paths fast:
//!
//! * **Plan/commit cycle engine** — gossip cycles no longer mutate the
//!   simulator through a sequential callback: [`lazy::LazyProtocol`] and
//!   [`eager::EagerProtocol`] express every protocol step as a read-only
//!   *plan* (partner choice, probe reads against the cycle-start snapshot)
//!   plus a pairwise *commit* (view updates, offer exchanges), with
//!   cross-pair mutations (partial-result deliveries to queriers) deferred
//!   as effects. The engine batches plans conflict-free and commits each
//!   batch across all cores — **byte-identical output for every
//!   `P3Q_THREADS`**, pinned against the sequential oracle mode
//!   (`RunOptions::oracle`) by the `engine_props` property suite. All runs
//!   go through one driver entry, `Simulator::drive`, configured by a
//!   [`p3q_sim::RunOptions`] builder. One gossip hop per cycle matches
//!   the synchronous rounds of the paper's Section 2.4 analysis.
//! * **Counting similarity engine** — [`similarity::ActionIndex`] inverts
//!   the dataset once ((item, tag) → taggers) and scores one user against
//!   the whole population in a single dense counting sweep;
//!   [`baseline::IdealNetworks::compute`] fans the per-user sweeps out over
//!   all cores with deterministic, thread-count-independent output
//!   (measured: ~6× over the per-pair-merge reference single-threaded on a
//!   20k-user trace, before parallel speedup). The index is sharded by id
//!   range: profile dynamics rewrite only the touched posting lists
//!   ([`similarity::ActionIndex::apply_deltas`], churn via
//!   [`similarity::ActionIndex::remove_user`]), and the resolver below
//!   re-scores only the affected users — provably identical to a
//!   from-scratch recompute at 2–3× less cost for a paper-day change batch.
//! * **Compressed columnar storage** — every distinct action is interned
//!   to a dense [`p3q_trace::ActionId`] by the
//!   [`p3q_trace::ActionDictionary`] (delta-compressed key blocks, assigned
//!   in key order at trace build time); the index stores posting lists as
//!   group-varint delta runs behind its CSR-style API
//!   ([`similarity::ActionIndex::memory`] reports ~46% of the uncompressed
//!   layout at 100k users), node state is compacted (a personal-network
//!   entry is 28 bytes across the columns of a [`p3q_gossip::ScoredView`]:
//!   peer, `u32` score and staleness, [`node::NeighbourInfo`] with a `u32`
//!   digest version; stored profile copies sit in a column of at most `c`
//!   slots; query books are allocated on first insert
//!   ([`query::QueryBook`]); [`node::P3qNode::storage_bytes`] counts what
//!   the columns allocate)
//!   and the simulator keeps its nodes in one contiguous
//!   [`p3q_sim::NodeStore`]. The `compression_props` property suite pins
//!   all of it observationally identical to an uncompressed oracle.
//! * **Demand-driven similarity resolution** —
//!   [`resolver::OnDemandNetworks`] answers "top-`s` peers of user `u`"
//!   lazily: one counting sweep over her posting lists
//!   ([`similarity::ActionIndex::top_similar`], the oracle's own point
//!   path) into a scratch the resolver keeps. Results are memoized per
//!   user and kept provably fresh under dynamics by exact
//!   [`similarity::DeltaOutcome`] invalidation (evict changing users,
//!   patch affected cached pairs), so per-cycle similarity cost is
//!   proportional to *queries*, not *users* —
//!   the query-skew path toward the 1M-user target, with
//!   [`baseline::IdealNetworks`] kept as the global oracle. It is also the
//!   one incremental path for the whole population: a resolver made from
//!   an `IdealNetworks` holds every entry, absorbs the write, and
//!   [`resolver::OnDemandNetworks::into_ideal`] re-sweeps what it evicted.
//! * **Group-varint decode kernel** — the byte-level
//!   decode tax of the compression above is clawed back by
//!   [`p3q_trace::codec`]'s group-varint posting runs: one control byte
//!   dispatches four delta lengths through a 256-entry table, posting
//!   blobs carry [`p3q_trace::codec::GROUP_DECODE_SLACK`] readable bytes
//!   past every run, and the fused
//!   [`p3q_trace::codec::for_each_sorted_u32_grouped_padded`] kernel runs
//!   the counting sweep entirely on bounds-check-free masked 4-byte loads
//!   (measured 1.3–1.4× over LEB128 decode at 20k/100k users; the gated
//!   `decode` columns: `ci/baselines/BENCH_similarity_smoke.json`). The posting
//!   directory stores group-relative `u16` offsets anchored every 64
//!   slots (~1 MiB smaller at 100k users). Profiles are held and served
//!   decoded; [`p3q_trace::Dataset::packed_profile_bytes`] is the size
//!   they would take packed at rest.
//!   Output is byte-identical to the LEB128 era; the `codec_props` suite
//!   round-trips every group shape through the one padded kernel,
//!   including garbage-slack discard.
//! * **Zero-copy gossip payloads** — profiles and digests travel as
//!   [`p3q_trace::SharedProfile`] / [`p3q_bloom::SharedFilter`] handles
//!   (`Arc`s): offers, view entries, stored copies and simulator
//!   construction all share one allocation per profile; profile dynamics
//!   detach via copy-on-write.
//! * **Buffer-reusing scoring** — [`scoring::partial_result_list_buffered`]
//!   resolves queries through a caller-owned [`scoring::ScoreBuffer`], so
//!   steady-state eager cycles allocate nothing per profile.
//!
//! ## Quick start
//!
//! ```
//! use p3q::prelude::*;
//!
//! // 1. A small synthetic delicious-like trace.
//! let trace = TraceGenerator::new(TraceConfig::tiny(42)).generate();
//! let cfg = P3qConfig::tiny();
//!
//! // 2. Build the simulated P3Q network, with every user storing at most
//! //    two neighbour profiles, and give every user her ideal personal
//! //    network (as after lazy-mode convergence).
//! let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
//! let budgets = vec![2; trace.dataset.num_users()];
//! let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 7);
//! init_ideal_networks(&mut sim, &ideal);
//!
//! // 3. Issue one user's query and gossip it to completion.
//! let query = QueryGenerator::new(1)
//!     .one_query_per_user(&trace.dataset)
//!     .into_iter()
//!     .next()
//!     .unwrap();
//! let querier = query.querier.index();
//! issue_query(&mut sim, querier, QueryId(0), query.clone(), &cfg);
//! sim.drive(&cfg.eager(), RunOptions::until_complete(50), |_, _| {});
//!
//! // 4. The decentralized result matches the centralized reference.
//! let reference = centralized_topk(&trace.dataset, &ideal, &query, cfg.top_k);
//! let state = sim.node_mut(querier).querier_states.get_mut(&QueryId(0)).unwrap();
//! let items: Vec<_> = state.nra.topk_exhaustive(cfg.top_k).iter().map(|r| r.item).collect();
//! assert_eq!(p3q::metrics::recall_at_k(&items, &reference), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bandwidth;
pub mod baseline;
pub mod config;
pub mod eager;
pub mod experiment;
pub mod lazy;
pub mod metrics;
pub mod node;
pub mod query;
pub mod resolver;
pub mod scoring;
pub mod similarity;
pub mod storage;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::analysis::cycles_to_completion;
    pub use crate::baseline::{centralized_topk, IdealNetworks};
    pub use crate::config::P3qConfig;
    pub use crate::eager::{issue_query, querier_state, EagerProtocol, EagerTask};
    pub use crate::experiment::{
        apply_profile_changes, build_simulator, build_simulator_with_budgets,
        full_network_requirements, init_ideal_networks, storage_requirements,
    };
    pub use crate::lazy::{
        bootstrap_random_views, bootstrap_random_views_reference,
        bootstrap_random_views_with_threads, LazyProtocol, LazyStep,
    };
    pub use crate::metrics::{
        average_success_ratio, average_update_rate, network_refresh_ratio, recall_at_k,
        success_ratio, RecallUnderLoss,
    };
    pub use crate::node::P3qNode;
    pub use crate::query::{QuerierState, QueryId};
    pub use crate::resolver::{on_demand_topk, OnDemandNetworks, ResolveStats};
    pub use crate::similarity::{ActionIndex, DeltaOutcome, SimilarityScratch};
    pub use crate::storage::StorageDistribution;
    pub use p3q_sim::{
        fingerprint_chain, FaultConfig, FaultPlan, FaultStats, Fingerprint, Fnv, RunEvent,
        RunOptions, RunReport, Simulator,
    };
    pub use p3q_trace::{
        Dataset, DynamicsConfig, DynamicsGenerator, ItemId, Profile, Query, QueryGenerator,
        SharedProfile, TagId, TaggingAction, TraceConfig, TraceGenerator, UserId,
    };
}
