//! The shard actor: one thread owning one contiguous slice of the node
//! population, driven entirely by messages.
//!
//! An actor holds `nodes[base .. base + len]` of the global population —
//! as a [`Shard`], the sequential substrate that is also the simulator's
//! oracle mode, so every mutating phase below is one call into it — and
//! never writes anything else. All coordination flows through two FIFO
//! mailboxes (see [`crate::mailbox`]): commands arrive from the sequencer as
//! [`ToShard`] messages, replies go back as [`FromShard`]. The actor has a
//! single sender (the sequencer), so the order it observes commands in *is*
//! the sequencer's send order — the runtime leans on that to guarantee, for
//! example, that a batch's [`ToShard::Restore`] lands before the
//! [`ToShard::Effects`] that may touch the restored nodes.
//!
//! Every command carries a whole phase's (or a whole batch's) work for this
//! shard, so a cycle costs a number of messages proportional to the number
//! of shards and batches, never to the number of plans. Per cycle, in the
//! order the sequencer sends it:
//!
//! * `Transitions` — crash/restart hooks, only to shards that own a
//!   transitioned node;
//! * `Prepare` — per-node bookkeeping; replies with a [`Lease`] on the
//!   shard's post-prepare nodes;
//! * `Plan` — read-only planning of the shard's own range against every
//!   shard's lease; replies with the shard's plans *after* dropping the
//!   leases it was sent;
//! * per conflict-free batch: `Lend` (move out the locals that are
//!   destinations of commits on other shards; replies with them) →
//!   `Commit` (execute the plans whose initiator is local, guests standing
//!   in for remote destinations; replies with outcomes and the mutated
//!   guests) → `Restore` (move the shard's own lent nodes back in) →
//!   `Effects` (apply the batch's third-party effects routed here; they
//!   only change nodes, since the sequencer bills the batch's bytes from
//!   the outcomes' charges) — each only to the shards that have such work,
//!   at most once per batch;
//! * `FinishCycle` — end-of-cycle hooks; replies whether any alive local
//!   wants more;
//!
//! and eventually `Stop`, returning the shard's nodes to the sequencer.
//!
//! # The plan-phase read lease
//!
//! Planning reads *remote* state (a lazy planner probes and re-bootstraps
//! from other nodes), so every shard must see every other shard's
//! post-prepare nodes. The actor keeps its [`NodeStore`] in an [`Arc`] and a
//! [`Lease`] is a clone of that handle: the in-process form of a read-only
//! snapshot, valid because nothing mutates between `Prepare` and the last
//! `Plans` reply. (A socket backend would ship the bytes a plan reads
//! instead; nothing else in this protocol shares memory.) Every mutating
//! command re-takes exclusive access with [`Arc::get_mut`] and panics,
//! naming the command, if a lease is still out — so "all leases are back
//! before the first write" is checked on every write, not assumed.

use std::sync::Arc;

use p3q_sim::exchange::plan_range;
use p3q_sim::{
    CommitOutcome, CycleContext, ExchangePlan, FaultTransitions, GossipProtocol, Membership,
    NodeStore, Shard, Substrate,
};

use crate::mailbox::{MailboxReceiver, MailboxSender};

/// Read access to one shard's nodes for the plan phase (see the module
/// docs); must be dropped before the shard's next mutating command.
pub type Lease<N> = Arc<NodeStore<N>>;

/// One commit assigned to the initiator's shard: the plan, its index in the
/// cycle's global plan order (fixing its RNG stream), and — when the
/// destination lives on another shard — the destination node itself, lent
/// by its owner via [`ToShard::Lend`].
#[derive(Debug)]
pub struct CommitJob<N, Pl> {
    /// The planned exchange to execute.
    pub plan: ExchangePlan<Pl>,
    /// Position in the cycle's global plan order.
    pub plan_idx: usize,
    /// The remote destination, if the destination is not local to the
    /// committing shard.
    pub guest: Option<N>,
}

/// What one executed [`CommitJob`] produced: the protocol outcome plus the
/// mutated guest (tagged with its global index) for the sequencer to route
/// home via [`ToShard::Restore`].
#[derive(Debug)]
pub struct JobOutcome<N, E> {
    /// Position in the cycle's global plan order.
    pub plan_idx: usize,
    /// Deferred charges and effects returned by the commit.
    pub outcome: CommitOutcome<E>,
    /// The mutated guest node and its global index, if the job had one.
    pub guest: Option<(usize, N)>,
}

/// Commands the sequencer sends a shard actor (see the module docs for the
/// per-cycle protocol).
#[derive(Debug)]
pub enum ToShard<N, Pl, E> {
    /// Run the fault-transition hooks on the listed local nodes (restarts
    /// first, then crashes — engine order).
    Transitions {
        /// The executing cycle.
        cycle: u64,
        /// The local nodes that just rejoined or crashed.
        transitions: FaultTransitions,
    },
    /// Run per-node preparation on alive locals, then reply with a
    /// [`FromShard::Prepared`] lease on the shard's post-prepare state.
    Prepare {
        /// The executing cycle.
        cycle: u64,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Plan all alive locals against the whole post-prepare population;
    /// drop `world`, then reply with [`FromShard::Plans`].
    Plan {
        /// The executing cycle.
        cycle: u64,
        /// The cycle seed all per-node plan RNGs derive from.
        cycle_seed: u64,
        /// Every shard's lease, in ascending shard order.
        world: Vec<Lease<N>>,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Move the local nodes at these global indices out (each is about to
    /// be the destination of a commit on another shard); reply with
    /// [`FromShard::Guests`].
    Lend {
        /// Global indices of the nodes to lend, in batch order.
        nodes: Vec<usize>,
    },
    /// Execute the given jobs (all initiators local, in ascending plan
    /// order); reply with [`FromShard::Outcomes`].
    Commit {
        /// The executing (pre-increment) cycle.
        cycle: u64,
        /// The cycle seed all per-plan commit RNGs derive from.
        cycle_seed: u64,
        /// The jobs to run, ascending by `plan_idx`.
        jobs: Vec<CommitJob<N, Pl>>,
    },
    /// Move back the local nodes lent for this batch, each in its
    /// post-commit state, by global index.
    Restore(Vec<(usize, N)>),
    /// Apply one batch's third-party effects routed to this shard (their
    /// targets are local), in the order given. Effects only change nodes:
    /// the bytes they stand for were billed as their commits' charges.
    Effects(Vec<E>),
    /// Run end-of-cycle bookkeeping on **all** locals (departed included);
    /// reply with [`FromShard::WantsMore`] over the alive ones.
    FinishCycle {
        /// The now-completed (post-increment) cycle.
        cycle: u64,
        /// Who is alive.
        membership: Arc<Membership>,
    },
    /// Shut down: the actor returns its nodes.
    Stop,
}

/// Replies a shard actor sends the sequencer.
#[derive(Debug)]
pub enum FromShard<N, Pl, E> {
    /// Reply to [`ToShard::Prepare`]: a lease on the shard's post-prepare
    /// nodes.
    Prepared(Lease<N>),
    /// Reply to [`ToShard::Plan`]: plans of the shard's alive locals, in
    /// ascending initiator order. Sent after the actor dropped every lease
    /// the command carried.
    Plans(Vec<ExchangePlan<Pl>>),
    /// Reply to [`ToShard::Lend`]: the requested nodes, in request order.
    Guests(Vec<N>),
    /// Reply to [`ToShard::Commit`]: one outcome per job, ascending by
    /// `plan_idx`.
    Outcomes(Vec<JobOutcome<N, E>>),
    /// Reply to [`ToShard::FinishCycle`]: whether any alive local's state
    /// could still re-ignite gossip.
    WantsMore(bool),
}

/// [`ToShard`] as protocol `P`'s actors receive it.
pub(crate) type Command<P> = ToShard<
    <P as GossipProtocol>::Node,
    <P as GossipProtocol>::Payload,
    <P as GossipProtocol>::Effect,
>;

/// [`FromShard`] as protocol `P`'s actors send it.
pub(crate) type Reply<P> = FromShard<
    <P as GossipProtocol>::Node,
    <P as GossipProtocol>::Payload,
    <P as GossipProtocol>::Effect,
>;

/// Exclusive access to the actor's store for the mutating `command`.
///
/// # Panics
/// Panics if a plan-phase [`Lease`] on the store is still out.
fn exclusive<'a, N>(store: &'a mut Lease<N>, command: &str) -> &'a mut NodeStore<N> {
    Arc::get_mut(store)
        .unwrap_or_else(|| panic!("{command} reached a shard whose plan-phase lease is still out"))
}

/// The shard actor body: a [`Shard`] over the actor's nodes — shard `s` of
/// a population split into runs of `shard_size` — driven by commands until
/// [`ToShard::Stop`] (or a hangup); then returns the node states for the
/// sequencer to reassemble.
pub(crate) fn run_actor<P>(
    proto: &P,
    s: usize,
    shard_size: usize,
    nodes: Vec<P::Node>,
    rx: impl MailboxReceiver<Command<P>>,
    tx: impl MailboxSender<Reply<P>>,
) -> Vec<P::Node>
where
    P: GossipProtocol,
    P::Node: Default,
{
    let base = s * shard_size;
    let mut store: Lease<P::Node> = Arc::new(NodeStore::new(nodes));
    while let Ok(msg) = rx.recv() {
        let reply = match msg {
            ToShard::Transitions { cycle, transitions } => {
                let mut shard = Shard::new(base, exclusive(&mut store, "Transitions"));
                shard.transitions(proto, cycle, &transitions);
                continue;
            }
            ToShard::Prepare { cycle, membership } => {
                let mut shard = Shard::new(base, exclusive(&mut store, "Prepare"));
                shard.prepare(proto, cycle, &membership);
                FromShard::Prepared(store.clone())
            }
            ToShard::Plan {
                cycle,
                cycle_seed,
                world,
                membership,
            } => {
                let shards: Vec<&[P::Node]> = world.iter().map(|lease| lease.as_slice()).collect();
                let context = CycleContext::sharded(&shards, shard_size, &membership, cycle);
                let range = base..base + store.len();
                let plans = plan_range(proto, &context, cycle_seed, range);
                // Back before the reply, so that once the sequencer holds
                // every shard's `Plans` no actor holds a lease.
                drop(world);
                FromShard::Plans(plans)
            }
            ToShard::Lend { nodes } => {
                let store = exclusive(&mut store, "Lend");
                FromShard::Guests(nodes.iter().map(|&idx| store.lend(idx - base)).collect())
            }
            ToShard::Commit {
                cycle,
                cycle_seed,
                mut jobs,
            } => {
                let mut shard = Shard::new(base, exclusive(&mut store, "Commit"));
                let work = jobs
                    .iter_mut()
                    .map(|job| (job.plan_idx, &job.plan, job.guest.as_mut()));
                let outcomes = shard.commit(proto, cycle, cycle_seed, work);
                let done = jobs
                    .into_iter()
                    .zip(outcomes)
                    .map(|(job, outcome)| JobOutcome {
                        plan_idx: job.plan_idx,
                        outcome,
                        guest: job.plan.destination.zip(job.guest),
                    });
                FromShard::Outcomes(done.collect())
            }
            ToShard::Restore(guests) => {
                let store = exclusive(&mut store, "Restore");
                for (idx, node) in guests {
                    store.restore(idx - base, node);
                }
                continue;
            }
            ToShard::Effects(effects) => {
                let mut shard = Shard::new(base, exclusive(&mut store, "Effects"));
                shard.effects(proto, effects);
                continue;
            }
            ToShard::FinishCycle { cycle, membership } => {
                let mut shard = Shard::new(base, exclusive(&mut store, "FinishCycle"));
                FromShard::WantsMore(shard.finish(proto, cycle, Some(&membership)))
            }
            ToShard::Stop => break,
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
    let store =
        Arc::into_inner(store).expect("a shard stopped with its plan-phase lease still out");
    store.into()
}
