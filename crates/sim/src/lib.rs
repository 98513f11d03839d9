//! A cycle-driven peer-to-peer simulator: the PeerSim substitute used by the
//! P3Q reproduction.
//!
//! The paper (Bai et al., EDBT 2010, Section 3.1.1) evaluates P3Q in PeerSim,
//! using its cycle-driven execution model: in every gossip cycle each alive
//! node runs one protocol step and pairwise gossip exchanges complete within
//! the cycle. This crate implements that model from scratch, with a twist:
//! cycles execute in a **plan/commit** architecture that makes them parallel
//! *and* deterministic:
//!
//! * [`Sequencer`] — the one copy of the plan/commit cycle (phase order,
//!   fault interposition, conflict-free batching, apply order, stop rule),
//!   executed through a [`Substrate`] by every runtime: the simulator's
//!   worker threads, the sequential [`Shard`] (the oracle mode, and the
//!   body of `p3q_transport`'s shard actors), the transport's mailboxes;
//! * [`Simulator`] — the engine: per-node protocol state, seeded
//!   determinism, and the in-process parallel substrate. All runs go
//!   through the one driver entry [`Simulator::drive`], configured by a
//!   [`RunOptions`] builder (worker threads, fault plan, until-idle mode,
//!   sequential oracle mode), whose observer is where an experiment acts
//!   between cycles — byte-identical output for any `P3Q_THREADS`;
//! * [`exchange`] — the [`GossipProtocol`] contract (prepare / plan /
//!   commit / effects / run-loop hooks), [`ExchangePlan`]s and the
//!   deterministic greedy conflict-free batching;
//! * [`fault`] — deterministic fault injection: a [`FaultPlan`] built from
//!   a replayable [`FaultConfig`] drops/delays/duplicates planned exchanges
//!   and crashes/restarts nodes ([`RunOptions::faulted`]), with a
//!   zero-fault plan byte-identical to the faultless engine;
//! * [`fingerprint`] — the workspace's one checksum vocabulary: the
//!   [`Fingerprint`] trait, the [`Fnv`] accumulator and the
//!   [`fingerprint_chain`] combinator behind every byte-identity witness;
//! * [`Membership`] — alive/departed bookkeeping with the paper's "p% of
//!   users leave simultaneously" churn model (O(1) alive count);
//! * [`BandwidthRecorder`] — bytes per node and per category plus the
//!   run's byte and message totals, a pure function of the commit
//!   [`Charge`]s (the basis of the paper's cost analysis);
//! * [`SeriesRecorder`] / [`DistributionSummary`] — per-cycle series and
//!   per-entity distributions, the two shapes every figure in the paper
//!   takes;
//! * [`NodeStore`] — node storage: one contiguous allocation that the
//!   engine fans out over in contiguous chunks, with a debug-build
//!   sanitizer on commit borrows and transport loans;
//! * [`parallel`] — the one deterministic fork-join primitive,
//!   [`parallel_map`], shared by the cycle engine and the offline phases
//!   (trace generation, index building, baseline computation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod cycle;
mod driver;
mod engine;
pub mod exchange;
pub mod fault;
pub mod fingerprint;
mod membership;
mod metrics;
pub mod parallel;
mod shard;
mod store;

pub use bandwidth::{BandwidthRecorder, Category};
pub use cycle::{RunState, Sequencer, Substrate};
pub use driver::{RunEvent, RunOptions, RunReport};
pub use engine::{CycleReport, Simulator};
pub use exchange::{
    conflict_free_batches, Charge, CommitOutcome, CycleContext, EffectContext, ExchangePlan,
    GossipProtocol,
};
pub use fault::{FaultConfig, FaultPlan, FaultStats, FaultTransitions};
pub use fingerprint::{fingerprint_chain, Fingerprint, Fnv};
pub use membership::Membership;
pub use metrics::{DistributionSummary, SeriesRecorder};
pub use parallel::{default_threads, parallel_map, stream_seed};
pub use shard::Shard;
pub use store::NodeStore;
