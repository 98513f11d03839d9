//! Top-k query processing machinery for the P3Q reproduction.
//!
//! The P3Q querier (Bai et al., EDBT 2010, Section 2.3) merges partial result
//! lists that arrive asynchronously, one gossip cycle at a time, with an
//! adaptation of Fagin's NRA (No Random Access) algorithm. This crate
//! provides:
//!
//! * [`PartialResultList`] — the score-ordered lists every reached user sends
//!   back to the querier;
//! * [`IncrementalNra`] — the querier-side, per-cycle NRA with a persistent
//!   candidate heap (Algorithm 4 of the paper);
//! * [`nra_topk`] — classical batch NRA over a fixed set of lists, used as an
//!   oracle and to quantify early-termination savings;
//! * [`exact_topk`] / [`recall`] — full-aggregation ground truth and the
//!   recall metric the paper reports (R_k).
//!
//! Everything is generic over the item identifier type so the crate has no
//! dependency on the tagging data model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod incremental;
mod list;
mod nra;

pub use exact::{exact_topk, recall};
pub use incremental::{IncrementalNra, RankedItem};
pub use list::PartialResultList;
pub use nra::{nra_topk, NraOutcome};
