//! The shard actor: one thread owning one contiguous slice of the node
//! population, driven entirely by messages.
//!
//! An actor holds `nodes[base .. base + len]` of the global population —
//! as a [`Shard`], the sequential substrate that is also the simulator's
//! oracle mode, so every phase below is one call into it — and never
//! touches anything else. All coordination flows through two FIFO
//! mailboxes (see [`crate::mailbox`]): commands arrive from the sequencer as
//! [`ToShard`] messages, replies go back as [`FromShard`]. The actor has a
//! single sender (the sequencer), so the order it observes commands in *is*
//! the sequencer's send order — the runtime leans on that to guarantee, for
//! example, that a guest node's [`ToShard::Restore`] lands before any
//! [`ToShard::Effect`] of a later plan reads it.
//!
//! The protocol per cycle, in the order the sequencer sends it:
//! `Transitions` (crash/restart hooks) → `Prepare` (per-node bookkeeping,
//! replies with a state snapshot) → `Plan` (read-only planning against the
//! assembled world, replies with the shard's plans) → per batch: `Extract`
//! (lend a guest copy of a node to a remote initiator) / `Commit` (execute
//! plans whose initiator is local) / `Restore` (write back a mutated guest)
//! / `Effect` (apply a routed third-party effect) → `FinishCycle`
//! (end-of-cycle hooks, replies whether any alive local wants more) →
//! eventually `Stop`, returning the shard's state to the sequencer.

use std::sync::Arc;

use p3q_sim::{
    BandwidthRecorder, CommitOutcome, CycleContext, ExchangePlan, FaultTransitions, GossipProtocol,
    Membership, NodeStore, Shard, Substrate,
};

use crate::mailbox::{MailboxReceiver, MailboxSender};

/// One commit assigned to the initiator's shard: the plan, its index in the
/// cycle's global plan order (fixing its RNG stream), and — when the
/// destination lives on another shard — a guest copy of the destination
/// node, extracted by the sequencer via [`ToShard::Extract`].
#[derive(Debug)]
pub struct CommitJob<N, Pl> {
    /// The planned exchange to execute.
    pub plan: ExchangePlan<Pl>,
    /// Position in the cycle's global plan order.
    pub plan_idx: usize,
    /// Guest copy of the remote destination, if the destination is not
    /// local to the committing shard.
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
        /// Local nodes that just rejoined.
        restarted: Vec<usize>,
        /// Local nodes that just crashed.
        crashed: Vec<usize>,
    },
    /// Run per-node preparation on alive locals, then reply with a
    /// [`FromShard::Snapshot`] of the shard's post-prepare state.
    Prepare {
        /// The executing cycle.
        cycle: u64,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Plan all alive locals against the assembled world snapshot; reply
    /// with [`FromShard::Plans`].
    Plan {
        /// The executing cycle.
        cycle: u64,
        /// The cycle seed all per-node plan RNGs derive from.
        cycle_seed: u64,
        /// Post-prepare snapshot of the entire population.
        world: Arc<Vec<N>>,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Reply with a [`FromShard::Guest`] copy of the local node at this
    /// global index (it is about to be a remote commit's destination).
    Extract {
        /// Global index of the node to copy out.
        node: usize,
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
    /// Write back the post-commit state of a local node that served as a
    /// remote commit's guest.
    Restore {
        /// Global index of the node to overwrite.
        node: usize,
        /// Its post-commit state.
        state: N,
    },
    /// Apply one third-party effect routed to this shard (its target is
    /// local); bandwidth it records lands in the shard's local recorder.
    Effect {
        /// The committing (pre-increment) cycle.
        cycle: u64,
        /// The effect to apply.
        effect: E,
    },
    /// Run end-of-cycle bookkeeping on **all** locals (departed included);
    /// reply with [`FromShard::WantsMore`] over the alive ones.
    FinishCycle {
        /// The now-completed (post-increment) cycle.
        cycle: u64,
        /// Who is alive.
        membership: Arc<Membership>,
    },
    /// Shut down: the actor returns its nodes and bandwidth recorder.
    Stop,
}

/// Replies a shard actor sends the sequencer.
#[derive(Debug)]
pub enum FromShard<N, Pl, E> {
    /// Reply to [`ToShard::Prepare`]: the shard's post-prepare node states.
    Snapshot(Vec<N>),
    /// Reply to [`ToShard::Plan`]: plans of the shard's alive locals, in
    /// ascending initiator order.
    Plans(Vec<ExchangePlan<Pl>>),
    /// Reply to [`ToShard::Extract`]: a copy of the requested node.
    Guest(N),
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

/// The shard actor body: a [`Shard`] over the actor's nodes, driven by
/// commands until [`ToShard::Stop`] (or a hangup); then returns the node
/// states and the shard-local bandwidth recorder for the sequencer to
/// reassemble and merge.
pub(crate) fn run_actor<P>(
    proto: &P,
    base: usize,
    nodes: Vec<P::Node>,
    rx: impl MailboxReceiver<Command<P>>,
    tx: impl MailboxSender<Reply<P>>,
) -> (Vec<P::Node>, BandwidthRecorder)
where
    P: GossipProtocol,
    P::Node: Clone,
{
    let mut store = NodeStore::new(nodes);
    let mut bandwidth = BandwidthRecorder::new();
    while let Ok(msg) = rx.recv() {
        let mut shard = Shard::new(base, &mut store);
        let reply = match msg {
            ToShard::Transitions {
                cycle,
                restarted,
                crashed,
            } => {
                let transitions = FaultTransitions { crashed, restarted };
                shard.transitions(proto, cycle, &transitions);
                continue;
            }
            ToShard::Prepare { cycle, membership } => {
                shard.prepare(proto, cycle, &membership);
                FromShard::Snapshot(store.as_slice().to_vec())
            }
            ToShard::Plan {
                cycle,
                cycle_seed,
                world,
                membership,
            } => {
                let world = CycleContext::new(&world, &membership, cycle);
                FromShard::Plans(shard.plan_against(proto, &world, cycle_seed))
            }
            ToShard::Extract { node } => FromShard::Guest(store.get(node - base).clone()),
            ToShard::Commit {
                cycle,
                cycle_seed,
                mut jobs,
            } => {
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
            ToShard::Restore { node, state } => {
                *store.get_mut(node - base) = state;
                continue;
            }
            ToShard::Effect { cycle, effect } => {
                shard.effects(proto, cycle, [effect], &mut bandwidth);
                continue;
            }
            ToShard::FinishCycle { cycle, membership } => {
                FromShard::WantsMore(shard.finish(proto, cycle, Some(&membership)))
            }
            ToShard::Stop => break,
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
    (store.into(), bandwidth)
}
