//! Synthetic collaborative-tagging traces for the P3Q reproduction.
//!
//! The paper "Gossiping Personalized Queries" (Bai et al., EDBT 2010)
//! evaluates the P3Q protocol on a delicious crawl. This crate provides the
//! data substrate the reproduction runs on:
//!
//! * the **data model** — [`UserId`], [`ItemId`], [`TagId`],
//!   [`TaggingAction`], [`Profile`] and [`Dataset`];
//! * a **synthetic trace generator** ([`TraceGenerator`]) that reproduces the
//!   structural properties of the crawl (interest communities, Zipf
//!   popularity, log-normal profile sizes, consistent item tags) because the
//!   original crawl is not redistributable — generation is **parallel and
//!   deterministic**: every user, item and topic set draws from its own RNG
//!   stream derived from the master seed, so the output is byte-identical
//!   for every worker-thread count (`P3Q_THREADS`), pinned against the
//!   retained sequential oracle [`TraceGenerator::generate_reference`];
//! * the **query workload** of the paper ([`QueryGenerator`]) — one query per
//!   user, built from a random item of her own profile;
//! * **profile dynamics** ([`DynamicsGenerator`]) — batches of new tagging
//!   actions mirroring the weekly activity analysed in Section 3.4.1 (the
//!   paper's day, [`DynamicsConfig::paper_day`], and every user at once,
//!   [`DynamicsConfig::all_users`]) — also parallel with a sequential oracle;
//! * the **scenario layer** ([`Scenario`], [`ScenarioConfig`]) — the trace
//!   configuration of the paper's workload under a vocabulary rule
//!   ([`TraceShape`]), and the Zipf-skewed querier schedule of the
//!   query-hotspot probe ([`querier_schedule`]);
//! * the **compressed columnar storage substrate** — the interned action
//!   dictionary ([`ActionDictionary`], [`ActionId`]: dense `u32` ids for
//!   distinct `(item, tag)` actions, assigned in key order at trace build
//!   time) and the varint codecs ([`codec`]) the similarity index is built
//!   on.

// `deny`, not `forbid`: the padded posting-run decode kernel in [`codec`]
// is the sole, explicitly `#[allow]`-ed exemption (a bounds-check-free
// unaligned load with a `// SAFETY:` justification); everything else stays
// safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod codec;
mod dataset;
mod dict;
mod dynamics;
mod generator;
mod ids;
mod profile;
mod queries;
mod scenario;
mod zipf;

pub use action::TaggingAction;
pub use dataset::Dataset;
pub use dict::{action_key, key_action, ActionDictionary, ActionId};
pub use dynamics::{ChangeBatch, DynamicsConfig, DynamicsGenerator, ProfileChange};
pub use generator::{SyntheticTrace, TraceConfig, TraceGenerator, World};
pub use ids::{ItemId, TagId, UserId};
pub use profile::{Profile, SharedProfile};
pub use queries::{Query, QueryGenerator};
pub use scenario::{querier_schedule, Scenario, ScenarioConfig, TraceShape};
pub use zipf::ZipfSampler;
