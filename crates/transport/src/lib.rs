//! A message-passing transport runtime for
//! [`GossipProtocol`](p3q_sim::GossipProtocol)s — shard actors over
//! mailboxes, byte-identical to the deterministic simulator.
//!
//! The paper's protocols run in a cycle-driven simulator
//! ([`p3q_sim::Simulator`]); this crate runs the *same* protocols the way a
//! deployment would — as communicating processes — without giving up the
//! simulator's reproducibility. Three pieces:
//!
//! * [`mailbox`] — the substrate: a [`Transport`] mints FIFO, reliable,
//!   typed mailboxes; [`InProcess`], the one backend, backs them with
//!   `std::sync::mpsc` channels between thread-per-shard actors.
//! * [`DeliverySchedule`] — the one order on message delivery: ascending
//!   shards, which reproduces the simulator's plan order exactly.
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
//! coordination story is "FIFO per mailbox, single writer", no locks.
//!
//! Messages are per shard and phase, never per exchange — P3Q's own gossip
//! is batched the same way, one message carrying `r` digests or a whole
//! remaining list. A cycle is `Transitions` → `Prepare` → `Plan`, then per
//! conflict-free batch `Lend` → `Commit` → `Restore` → `Effects`, then
//! `FinishCycle`: at most one command of each kind per shard, so a cycle
//! costs at most `actors × (4 + 4 × batches)` commands and
//! `actors × (3 + 2 × batches)` replies however many plans it holds
//! ([`TransportRuntime::traffic`] counts them, and the suites pin the
//! bound). Cross-shard exchanges move node state as *values*, by move: the
//! destination's shard lends the node itself, the initiator's shard commits
//! against it, and the sequencer routes it home before anything else may
//! observe it — nothing is copied and nothing is dropped on the commit
//! path.
//!
//! The one thing actors share is read access during planning. A lazy
//! planner reads other nodes (it probes, and re-bootstraps after a crash),
//! so every shard plans against every shard's post-prepare state. Each
//! actor answers `Prepare` with a *lease* — a shared handle on its node
//! store — the sequencer hands all leases to all actors with `Plan`, and
//! every handle is dropped before the first mutating command of the cycle
//! is sent; an actor that finds a lease still out when it is asked to
//! mutate panics. The lease is the in-process form of a read-only
//! snapshot: a backend whose actors do not share an address space would
//! ship the bytes a plan reads instead, behind the same two commands.
//!
//! # Determinism
//!
//! A transport run is byte-identical to the simulator for the same seed —
//! node states, bandwidth accounting, cycle counts, fault stream
//! consumption. Plan order, fault filtering, batching and apply order are
//! the simulator's because the sequencer is; what the mailbox substrate
//! itself must keep — RNG streams by index, guest isolation (by move, and
//! checked by the node store's debug sanitizer), FIFO
//! restore-before-effect and effect-before-next-lend, leases returned
//! before the first write, commutative recorder merge — is spelled out at
//! the runtime's module docs, and the property suites in `crates/core` pin
//! the equality across protocols, shard layouts, fault mixes and
//! `P3Q_THREADS` settings. Faults are protocol-level (lost messages, node
//! crashes) and stay where they were, in [`p3q_sim::FaultPlan`],
//! reinterpreted over the wire; like the paper's simulator, the runtime
//! models no infrastructure faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod mailbox;
mod runtime;
mod schedule;

pub use mailbox::{InProcess, MailboxClosed, MailboxReceiver, MailboxSender, Transport};
pub use runtime::{MailboxTraffic, TransportRuntime};
pub use schedule::DeliverySchedule;
