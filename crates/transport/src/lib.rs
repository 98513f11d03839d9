//! A message-passing transport runtime for
//! [`GossipProtocol`](p3q_sim::GossipProtocol)s — shard actors over
//! mailboxes, byte-identical to the deterministic simulator.
//!
//! The paper's protocols run in a cycle-driven simulator
//! ([`p3q_sim::Simulator`]); this crate runs the *same* protocols the way a
//! deployment would — as communicating processes — without giving up the
//! simulator's reproducibility. Three pieces:
//!
//! * [`mailbox`] — the pluggable substrate: a [`Transport`] mints FIFO,
//!   reliable, typed mailboxes; [`InProcess`] backs them with
//!   `std::sync::mpsc` channels and thread-per-shard actors, and a socket
//!   backend can slot in behind the same two traits.
//! * [`DeliverySchedule`] — a seeded total order on message delivery. The
//!   canonical schedule reproduces the simulator's plan order exactly; a
//!   seeded one replays a different (but fixed) per-cycle arrival
//!   permutation, so runs are always a pure function of
//!   `(run seed, schedule)`.
//! * [`TransportRuntime`] — partitions a simulator's node population into
//!   contiguous shards, runs each shard as an actor behind a command
//!   mailbox, and executes the simulator's own cycle
//!   [`Sequencer`](p3q_sim::Sequencer) over them: every phase of the cycle
//!   is the sends and receives that make the actors run it.
//!
//! # The actor model
//!
//! Every shard actor owns `nodes[base .. base + len]` of the global
//! population — as a sequential [`Shard`](p3q_sim::Shard), the same code
//! that is the simulator's oracle mode — and *only* communicates: commands
//! in through one mailbox, replies out through another. The sequencer is
//! the single sender on every command mailbox, so each actor observes
//! commands in exactly the order the sequencer issued them — the whole
//! coordination story is "FIFO per mailbox, single writer", no locks, no
//! shared state. Cross-shard exchanges move node state as *values*: the
//! destination's shard lends a guest copy, the initiator's shard commits
//! against it, and the sequencer routes the mutated guest home before
//! anything else may observe it.
//!
//! # Determinism
//!
//! A transport run under the canonical schedule is byte-identical to the
//! simulator for the same seed — node states, bandwidth accounting, cycle
//! counts, fault stream consumption. Plan order, fault filtering, batching
//! and apply order are the simulator's because the sequencer is; what the
//! mailbox substrate itself must keep — RNG streams by index, guest
//! isolation, FIFO restore-before-effect, commutative recorder merge — is
//! spelled out at the runtime's module docs, and the property suites in
//! `crates/core` pin the equality across protocols, shard layouts, fault
//! mixes and `P3Q_THREADS` settings. Failure of an actor (a scheduled
//! stop-and-respawn, see [`TransportRuntime::schedule_actor_restart`]) is
//! an infrastructure fault: shard state survives the hop, so protocol
//! output is unaffected — protocol-level faults (lost messages, node
//! crashes) stay where they were, in [`p3q_sim::FaultPlan`], reinterpreted
//! over the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod mailbox;
mod runtime;
mod schedule;

pub use mailbox::{InProcess, MailboxClosed, MailboxReceiver, MailboxSender, Transport};
pub use runtime::TransportRuntime;
pub use schedule::DeliverySchedule;
