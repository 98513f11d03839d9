//! Generic gossip substrate for the P3Q reproduction.
//!
//! P3Q (Bai et al., EDBT 2010) is built on two classic gossip building
//! blocks: bounded peer views and a random peer-sampling layer. This crate
//! provides both, independent of the tagging data model:
//!
//! * [`ScoredView`] — a bounded, score-ordered view with per-entry staleness
//!   timestamps; the mechanics of P3Q's *personal network* (keep the `s` most
//!   similar peers, gossip with the one not contacted for the longest time);
//! * [`AgedView`] + [`peer_sampling`] — the *random view* and the symmetric
//!   shuffle that maintains it, keeping the overlay connected and feeding
//!   fresh candidates to the similarity layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod peer_sampling;
mod view;

pub use view::{reserve_within, AgedEntry, AgedView, ScoredEntry, ScoredView};
