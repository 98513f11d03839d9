//! The transport runtime: the cycle sequencer driving shard actors over
//! in-process mailboxes, byte-identical to [`Simulator`].
//!
//! The cycle itself — phase order, fault filtering on the ordered plan
//! list, conflict-free batching, charges and effects in plan order, the
//! stop rule — is [`p3q_sim::Sequencer`], the same code the simulator
//! executes, and every actor body is the simulator oracle's sequential
//! [`Shard`](p3q_sim::Shard). What this module adds is the mailbox
//! [`Substrate`]: each phase as the sends and receives that make the
//! actors run it — one command per shard per phase (per batch, inside the
//! commit phase), never one per plan; [`MailboxTraffic`] counts them.
//!
//! # What is still an argument
//!
//! Sharing the sequencer makes most of "byte-identical to the simulator"
//! hold by construction. Five properties remain the mailbox substrate's
//! own to keep:
//!
//! * **RNG streams by index** — the runtime owns a clone of the
//!   simulator's master RNG, from which the sequencer draws the one seed
//!   per cycle; per-node plan RNGs and per-plan commit RNGs derive from
//!   that seed by *index*, so where a computation runs (which actor, which
//!   thread) can never touch a stream. Shards own contiguous node ranges
//!   and plan their alive locals in ascending order, so gathering
//!   announcements in ascending shard order concatenates into the
//!   simulator's plan list.
//! * **Guest isolation, by move** — a cross-shard destination is not
//!   copied: its owner moves it out of its slot
//!   ([`NodeStore::lend`](p3q_sim::NodeStore::lend)), the initiator's shard
//!   commits against it, and the owner moves it back in
//!   ([`NodeStore::restore`](p3q_sim::NodeStore::restore)). There is only
//!   ever one version of the node, and that nothing touches the vacated
//!   slot in between is not argued but checked: in debug builds the store's
//!   aliasing sanitizer panics on a borrow of a lent slot, a second lend, or
//!   an effect applied while anything is still on loan. What stays an
//!   argument is why the checks never fire: within a conflict-free batch no
//!   node appears twice, and the per-mailbox order below.
//! * **FIFO restore-before-effect, effect-before-next-lend** — every shard
//!   sees, per batch, `Lend` → `Commit` → `Restore` → `Effects`, each at
//!   most once. A batch's `Restore`s are all sent before `commit_batch`
//!   returns, i.e. before the sequencer routes any of the batch's effects;
//!   those are buffered per target shard and flushed before the next
//!   batch's first `Lend` (and before `FinishCycle`). Per-shard mailboxes
//!   are FIFO with one sender, so send order is the order a shard acts in.
//! * **Leases are returned before the first mutating command is *sent*** —
//!   planning reads every shard's nodes through a [`Lease`] (see
//!   [`crate::actor`]): actors drop the handles they were sent before
//!   replying `Plans`, and the sequencer drops its own after gathering
//!   every shard's reply, so when the cycle's first `Lend`/`Commit` (or
//!   `FinishCycle`) goes out no handle but each owner's exists. An actor
//!   checks exactly that on every mutating command and panics otherwise.
//! * **Commutative recorder merge** — commit charges land in the master
//!   recorder at the committing cycle; effect-recorded bandwidth lands in
//!   shard-local recorders merged in when an actor stops. Recorder merge
//!   is addition over the same `(node, cycle, category, bytes)` records
//!   the simulator makes, so every aggregate matches.

use std::sync::{mpsc, Arc};
use std::thread;

use p3q_sim::{
    BandwidthRecorder, CommitOutcome, ExchangePlan, FaultTransitions, GossipProtocol, Membership,
    RunOptions, RunReport, RunState, Sequencer, Simulator, Substrate,
};

use crate::actor::{run_actor, Command, CommitJob, FromShard, JobOutcome, Lease, Reply, ToShard};
use crate::mailbox::{InProcess, Transport};
use crate::schedule::DeliverySchedule;

/// Sequencer-side panic message when a shard actor's mailbox hangs up.
const ACTOR_GONE: &str = "shard actor hung up (it panicked or was stopped)";

/// How many messages a runtime has exchanged with its shard actors, counted
/// where the sequencer sends and receives them. A pure function of the run
/// — seed, population, actor count, options — and of nothing the host
/// does, so a test can bound it: every phase costs a number of messages
/// proportional to the number of shards, not of plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxTraffic {
    /// Commands sent to shard actors, each `Stop` included.
    pub commands: u64,
    /// Replies received from shard actors.
    pub replies: u64,
    /// Nodes moved to another shard for one commit and back.
    pub guests_lent: u64,
}

/// One live shard actor, sequencer side: its command mailbox, its reply
/// mailbox and the handle that returns its state on shutdown.
struct ActorHandle<'scope, P: GossipProtocol> {
    tx: mpsc::Sender<Command<P>>,
    reply: mpsc::Receiver<Reply<P>>,
    join: thread::ScopedJoinHandle<'scope, (Vec<P::Node>, BandwidthRecorder)>,
}

/// The mailbox substrate: every phase of the cycle as the messages that
/// make the shard actors run it (the per-cycle message sequence is in
/// [`crate::actor`]'s module docs).
struct Mailboxes<'scope, P: GossipProtocol> {
    /// Actor `s` owns the nodes with `idx / shard_size == s`.
    actors: Vec<ActorHandle<'scope, P>>,
    shard_size: usize,
    /// The membership as the actors share it: a copy of the run's, made
    /// again only after fault transitions changed who is alive.
    alive: Arc<Membership>,
    alive_is_stale: bool,
    /// Every shard's post-prepare lease, gathered by `prepare` for `plan`
    /// to hand round.
    leases: Vec<Lease<P::Node>>,
    /// The last committed batch's effects by target shard, in plan order,
    /// until `flush_effects` sends them, and the cycle they belong to.
    outbox: Vec<Vec<P::Effect>>,
    outbox_cycle: u64,
    traffic: MailboxTraffic,
}

impl<P: GossipProtocol> Mailboxes<'_, P> {
    fn send(&mut self, s: usize, command: Command<P>) {
        self.traffic.commands += 1;
        self.actors[s].tx.send(command).expect(ACTOR_GONE);
    }

    fn recv(&mut self, s: usize) -> Reply<P> {
        self.traffic.replies += 1;
        self.actors[s].reply.recv().expect(ACTOR_GONE)
    }

    /// Sends each `(shard, command)` — all of them before waiting on any,
    /// so the shards work concurrently — then gathers one reply per
    /// command, in the order sent.
    fn round_trip(
        &mut self,
        commands: impl IntoIterator<Item = (usize, Command<P>)>,
    ) -> Vec<(usize, Reply<P>)> {
        let mut asked = Vec::new();
        for (s, command) in commands {
            self.send(s, command);
            asked.push(s);
        }
        asked.into_iter().map(|s| (s, self.recv(s))).collect()
    }

    /// Sends every shard the buffered effects that target it, as one
    /// command each.
    fn flush_effects(&mut self) {
        for s in 0..self.outbox.len() {
            if !self.outbox[s].is_empty() {
                let effects = std::mem::take(&mut self.outbox[s]);
                let cycle = self.outbox_cycle;
                self.send(s, ToShard::Effects { cycle, effects });
            }
        }
    }

    /// Stops an actor (already taken out of `actors`) and takes back its
    /// nodes and shard-local recorder.
    fn stop(&mut self, actor: ActorHandle<'_, P>) -> (Vec<P::Node>, BandwidthRecorder) {
        self.traffic.commands += 1;
        actor.tx.send(ToShard::Stop).expect(ACTOR_GONE);
        actor.join.join().expect("shard actor panicked")
    }
}

impl<P> Substrate<P> for Mailboxes<'_, P>
where
    P: GossipProtocol,
    P::Payload: Clone,
{
    /// Sends every shard the transitions of its own nodes; hooks run
    /// in-shard, restarts before crashes.
    fn transitions(&mut self, _proto: &P, cycle: u64, transitions: &FaultTransitions) {
        let mut local = vec![FaultTransitions::default(); self.actors.len()];
        for &idx in &transitions.restarted {
            local[idx / self.shard_size].restarted.push(idx);
        }
        for &idx in &transitions.crashed {
            local[idx / self.shard_size].crashed.push(idx);
        }
        for (s, transitions) in local.into_iter().enumerate() {
            if transitions != FaultTransitions::default() {
                self.alive_is_stale = true;
                self.send(s, ToShard::Transitions { cycle, transitions });
            }
        }
    }

    /// Prepares everywhere and collects a lease on every shard's
    /// post-prepare nodes (ascending shard order = global node order) for
    /// `plan`: lazy planners read *remote* state (probe and re-bootstrap
    /// inspect other nodes), so every shard plans against all of them.
    fn prepare(&mut self, _proto: &P, cycle: u64, membership: &Membership) {
        if std::mem::take(&mut self.alive_is_stale) {
            self.alive = Arc::new(membership.clone());
        }
        debug_assert!(
            *self.alive == *membership,
            "membership moved outside a transition"
        );
        let alive = self.alive.clone();
        let prepare = |s| {
            let membership = alive.clone();
            (s, ToShard::Prepare { cycle, membership })
        };
        let prepared = self.round_trip((0..self.actors.len()).map(prepare));
        let lease = |(_, reply)| {
            let FromShard::Prepared(lease) = reply else {
                panic!("protocol violation: expected a prepare lease");
            };
            lease
        };
        self.leases = prepared.into_iter().map(lease).collect();
    }

    /// Plans everywhere; gathers announcements in ascending shard order,
    /// which is the simulator's plan list.
    fn plan(
        &mut self,
        _proto: &P,
        cycle: u64,
        cycle_seed: u64,
        _membership: &Membership,
    ) -> Vec<ExchangePlan<P::Payload>> {
        let world = std::mem::take(&mut self.leases);
        for s in 0..self.actors.len() {
            let (world, membership) = (world.clone(), self.alive.clone());
            self.send(
                s,
                ToShard::Plan {
                    cycle,
                    cycle_seed,
                    world,
                    membership,
                },
            );
        }
        let mut plans = Vec::new();
        for s in 0..self.actors.len() {
            let FromShard::Plans(announced) = self.recv(s) else {
                panic!("protocol violation: expected a plan announcement");
            };
            plans.extend(announced);
        }
        // Every actor dropped its handles before replying; with these gone
        // too, no lease is out when the next command is sent.
        drop(world);
        plans
    }

    fn commit_batch(
        &mut self,
        _proto: &P,
        cycle: u64,
        cycle_seed: u64,
        plans: &[ExchangePlan<P::Payload>],
        batch: &[usize],
    ) -> Vec<CommitOutcome<P::Effect>> {
        // The previous batch's effects first: per-shard FIFO then applies
        // them before this batch's `Lend` can move a target away.
        self.flush_effects();
        let (shards, shard_size) = (self.actors.len(), self.shard_size);
        let shard_of = |idx: usize| idx / shard_size;
        let remote_destination = |plan: &ExchangePlan<P::Payload>| {
            let home = shard_of(plan.initiator);
            plan.destination.filter(|&dest| shard_of(dest) != home)
        };

        // Borrow every cross-shard destination of the batch, one request
        // per owning shard. A guest can leave its slot: within a
        // conflict-free batch it appears in no other plan, and per-shard
        // FIFO has already landed every earlier restore and effect.
        let mut wanted = vec![Vec::new(); shards];
        for &plan_idx in batch {
            if let Some(dest) = remote_destination(&plans[plan_idx]) {
                wanted[shard_of(dest)].push(dest);
            }
        }
        self.traffic.guests_lent += wanted.iter().map(|nodes| nodes.len() as u64).sum::<u64>();
        let lends = wanted.into_iter().enumerate();
        let lends = lends.filter(|(_, nodes)| !nodes.is_empty());
        let lent = self.round_trip(lends.map(|(s, nodes)| (s, ToShard::Lend { nodes })));
        let mut guests: Vec<_> = (0..shards).map(|_| Vec::new().into_iter()).collect();
        for (s, reply) in lent {
            let FromShard::Guests(nodes) = reply else {
                panic!("protocol violation: expected the lent guests");
            };
            guests[s] = nodes.into_iter();
        }

        // Group the batch's jobs by the initiator's shard, preserving
        // ascending plan order; each owner lent its nodes in that order.
        let mut jobs_by: Vec<Vec<CommitJob<P::Node, P::Payload>>> =
            (0..shards).map(|_| Vec::new()).collect();
        for &plan_idx in batch {
            let plan = &plans[plan_idx];
            let guest = remote_destination(plan).map(|dest| {
                let lent = guests[shard_of(dest)].next();
                lent.expect("the owner lent every node it was asked for")
            });
            jobs_by[shard_of(plan.initiator)].push(CommitJob {
                plan: plan.clone(),
                plan_idx,
                guest,
            });
        }

        // Fan the batch out to every shard with jobs, then gather; commits
        // run concurrently across shards. The sort restores global plan
        // order (commit RNGs never depended on it — they key off plan_idx).
        let commits = jobs_by.into_iter().enumerate();
        let commits = commits
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(s, jobs)| {
                let commit = ToShard::Commit {
                    cycle,
                    cycle_seed,
                    jobs,
                };
                (s, commit)
            });
        let mut outcomes: Vec<JobOutcome<P::Node, P::Effect>> = Vec::new();
        for (_, reply) in self.round_trip(commits) {
            let FromShard::Outcomes(done) = reply else {
                panic!("protocol violation: expected commit outcomes");
            };
            outcomes.extend(done);
        }
        outcomes.sort_by_key(|o| o.plan_idx);

        // All guests go home before any effect applies: the sequencer
        // applies outcomes only after the whole batch committed, so an
        // early plan's effect must observe a later plan's post-commit
        // destination. FIFO per shard turns this send order into that
        // guarantee.
        let mut homeward: Vec<Vec<(usize, P::Node)>> = (0..shards).map(|_| Vec::new()).collect();
        let restore = |o: JobOutcome<P::Node, P::Effect>| {
            if let Some((node, state)) = o.guest {
                homeward[shard_of(node)].push((node, state));
            }
            o.outcome
        };
        let outcomes = outcomes.into_iter().map(restore).collect();
        for (s, guests) in homeward.into_iter().enumerate() {
            if !guests.is_empty() {
                self.send(s, ToShard::Restore(guests));
            }
        }
        outcomes
    }

    /// Buffers each effect for the shard owning its declared target, where
    /// the bandwidth it records lands in the shard-local recorder.
    fn effects(
        &mut self,
        proto: &P,
        cycle: u64,
        effects: impl IntoIterator<Item = P::Effect>,
        _bandwidth: &mut BandwidthRecorder,
    ) {
        self.outbox_cycle = cycle;
        for effect in effects {
            let target = proto
                .effect_target(&effect)
                .expect("a sharded transport needs GossipProtocol::effect_target to route effects");
            self.outbox[target / self.shard_size].push(effect);
        }
    }

    /// End-of-cycle bookkeeping plus the until-idle re-ignition probe, one
    /// round-trip per shard (the shards always answer the probe).
    fn finish(&mut self, _proto: &P, cycle: u64, _probe: Option<&Membership>) -> bool {
        self.flush_effects();
        let alive = self.alive.clone();
        let finish = |s| {
            let membership = alive.clone();
            (s, ToShard::FinishCycle { cycle, membership })
        };
        let mut wants_more = false;
        for (_, reply) in self.round_trip((0..self.actors.len()).map(finish)) {
            let FromShard::WantsMore(wants) = reply else {
                panic!("protocol violation: expected a wants-more probe");
            };
            wants_more |= wants;
        }
        wants_more
    }
}

/// A message-passing runtime executing [`GossipProtocol`]s over shard
/// actors, oracle-equal to [`Simulator`] (see the module docs).
///
/// Constructed from a simulator snapshot
/// ([`from_simulator`](Self::from_simulator)); between
/// [`drive`](Self::drive) calls the runtime owns the node states,
/// membership, RNG position and bandwidth totals, so state can be
/// inspected (or churned) exactly where a simulator's could. During a drive the states live inside the actors —
/// which is why, unlike `Simulator::drive`, the transport drive takes no
/// observer closure: observe between drives instead.
#[derive(Debug)]
pub struct TransportRuntime<N> {
    /// Contiguous node shards of `shard_size` nodes (the last may be
    /// shorter): `shards[s][0]` has global index `s * shard_size`.
    shards: Vec<Vec<N>>,
    shard_size: usize,
    run: RunState,
    traffic: MailboxTraffic,
    /// Bandwidth and message accounting for the whole run.
    pub bandwidth: BandwidthRecorder,
}

impl<N: Send + Sync> TransportRuntime<N> {
    /// Snapshots a simulator into a runtime over `num_actors` in-process
    /// shard actors (clamped to `1..=num_nodes`; the contiguous equal-size
    /// partition may round the actual actor count down — see
    /// [`num_actors`](Self::num_actors)). There is one delivery order, so
    /// the [`DeliverySchedule`] marker carries nothing.
    ///
    /// Takes `&mut` only to clone the simulator's RNG position; the
    /// simulator is otherwise untouched and can keep running as the
    /// reference for oracle-equality checks.
    pub fn from_simulator(
        sim: &mut Simulator<N>,
        num_actors: usize,
        _schedule: DeliverySchedule,
    ) -> Self
    where
        N: Clone,
    {
        let n = sim.num_nodes();
        let actors = num_actors.clamp(1, n.max(1));
        let shard_size = n.div_ceil(actors).max(1);
        let mut shards: Vec<Vec<N>> = sim.nodes().chunks(shard_size).map(<[N]>::to_vec).collect();
        if shards.is_empty() {
            shards.push(Vec::new());
        }
        let run = RunState {
            membership: sim.membership().clone(),
            cycle: sim.cycle(),
            rng: sim.rng().clone(),
        };
        Self {
            shards,
            shard_size,
            run,
            traffic: MailboxTraffic::default(),
            bandwidth: sim.bandwidth.clone(),
        }
    }

    /// Number of nodes (alive or departed).
    pub fn num_nodes(&self) -> usize {
        self.run.membership.len()
    }

    /// Number of shard actors the population is partitioned over.
    pub fn num_actors(&self) -> usize {
        self.shards.len()
    }

    /// Current cycle (number of completed cycles driven so far).
    pub fn cycle(&self) -> u64 {
        self.run.cycle
    }

    /// The membership (who is alive).
    pub fn membership(&self) -> &Membership {
        &self.run.membership
    }

    /// Mutable membership, e.g. to inject churn **between** drives.
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.run.membership
    }

    /// One node's state, by global index (between drives).
    pub fn node(&self, idx: usize) -> &N {
        &self.shards[idx / self.shard_size][idx % self.shard_size]
    }

    /// All node states in ascending global order (between drives).
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.shards.iter().flatten()
    }

    /// The messages exchanged with shard actors over every drive so far
    /// (deliberately not part of [`RunReport`], which is what a transport
    /// run has in common with the simulator's).
    pub fn traffic(&self) -> MailboxTraffic {
        self.traffic
    }

    /// The one run-loop entry: executes cycles of `proto` under the given
    /// [`RunOptions`] — the same options shape `Simulator::drive` takes.
    ///
    /// Three option axes don't exist on a transport runtime and panic if
    /// requested: an event queue ([`RunOptions::events`]; inspect and
    /// mutate state between drives instead), oracle mode
    /// ([`RunOptions::oracle`]; the transport's oracle *is* the simulator),
    /// and a thread override ([`RunOptions::threads`]; parallelism is the
    /// actor count, fixed at construction). Fault schedules and both loop
    /// shapes (fixed cycles, until-idle) behave exactly as on the
    /// simulator.
    ///
    /// # Panics
    /// Panics on the options above, if a shard actor dies mid-run, or if
    /// the protocol emits an effect whose
    /// [`effect_target`](GossipProtocol::effect_target) is `None` — a
    /// sharded runtime cannot route an unconstrained effect.
    pub fn drive<P>(&mut self, proto: &P, opts: RunOptions<'_, P::Payload>) -> RunReport
    where
        P: GossipProtocol<Node = N>,
        P::Payload: Clone + 'static,
        P::Effect: 'static,
        N: Default + 'static,
    {
        assert!(
            opts.threads.is_none(),
            "a transport runtime's parallelism is its actor count, fixed at construction"
        );
        assert!(
            !opts.oracle,
            "a transport runtime has no oracle mode — the oracle is the simulator itself"
        );
        assert!(
            opts.events.is_none(),
            "transport runs have no scheduled-event axis — act between drives instead"
        );
        let mut sequencer = Sequencer::begin(proto, opts.faults, opts.until_idle);
        thread::scope(|scope| {
            // One shard actor thread owning `nodes` (global indices from
            // `s * shard_size`), wired to the sequencer through two fresh
            // mailboxes.
            let shard_size = self.shard_size;
            let spawn = |s: usize, nodes: Vec<N>| -> ActorHandle<'_, P> {
                let (tx, commands) = InProcess.mailbox();
                let (replies, reply) = InProcess.mailbox();
                let actor = move || run_actor(proto, s, shard_size, nodes, commands, replies);
                let join = scope.spawn(actor);
                ActorHandle { tx, reply, join }
            };
            let shards = self.shards.iter_mut().map(std::mem::take).enumerate();
            let mut mailboxes = Mailboxes {
                actors: shards.map(|(s, nodes)| spawn(s, nodes)).collect(),
                shard_size,
                alive: Arc::new(self.run.membership.clone()),
                alive_is_stale: false,
                leases: Vec::new(),
                outbox: self.shards.iter().map(|_| Vec::new()).collect(),
                outbox_cycle: self.run.cycle,
                traffic: self.traffic,
            };

            for _ in 0..opts.cycles {
                if sequencer.run_cycle(&mut mailboxes, &mut self.run, &mut self.bandwidth) {
                    break;
                }
            }

            // Stop every actor and reassemble: node states return to their
            // slots, shard-local (effect-recorded) bandwidth merges into
            // the master in ascending shard order.
            let actors = std::mem::take(&mut mailboxes.actors);
            for (shard, actor) in self.shards.iter_mut().zip(actors) {
                let (nodes, recorder) = mailboxes.stop(actor);
                self.bandwidth.merge(&recorder);
                *shard = nodes;
            }
            self.traffic = mailboxes.traffic;
        });
        sequencer.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_sim::{CommitOutcome, CycleContext, EffectContext, FaultConfig, FaultPlan, RunOptions};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// The engine's toy ring protocol, with a routable effect: every alive
    /// node gossips with the next alive node (cyclically), both sides count
    /// the exchange, a charge is recorded and an effect increments a
    /// counter on node 0. Every hook also appends `(hook, cycle)` to the
    /// log of the node it runs on.
    struct RingProtocol;

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Counter {
        initiated: u64,
        received: u64,
        effects: u64,
        prepared: u64,
        finished: u64,
        crashes: u64,
        restarts: u64,
        log: Vec<(&'static str, u64)>,
        clones: CloneCount,
    }

    /// How often a node of one population was cloned: every clone bumps the
    /// count and shares it, so the nodes [`counters`] makes (clones of one
    /// default) and every copy made of them since all report to one place.
    /// Invisible to equality.
    #[derive(Debug, Default)]
    struct CloneCount(Arc<AtomicUsize>);

    impl Clone for CloneCount {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Relaxed);
            Self(self.0.clone())
        }
    }

    impl PartialEq for CloneCount {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }

    impl Eq for CloneCount {}

    impl GossipProtocol for RingProtocol {
        type Node = Counter;
        type Payload = ();
        type Effect = usize;
        type Scratch = ();

        fn scratch(&self) {}

        fn prepare(&self, node: &mut Counter, cycle: u64) {
            node.prepared += 1;
            node.log.push(("prepare", cycle));
        }

        fn plan(
            &self,
            world: &CycleContext<'_, Counter>,
            idx: usize,
            _rng: &mut rand::rngs::StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            let n = world.num_nodes();
            let partner = (1..n).map(|d| (idx + d) % n).find(|&p| world.is_alive(p));
            if let Some(partner) = partner {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: (),
                });
            }
        }

        fn commit(
            &self,
            cycle: u64,
            plan: &ExchangePlan<()>,
            initiator: &mut Counter,
            destination: Option<&mut Counter>,
            _rng: &mut rand::rngs::StdRng,
            _scratch: &mut (),
        ) -> CommitOutcome<usize> {
            let destination = destination.expect("ring plans are pairwise");
            initiator.initiated += 1;
            initiator.log.push(("commit as initiator", cycle));
            destination.received += 1;
            destination.log.push(("commit as destination", cycle));
            let mut outcome = CommitOutcome::empty();
            outcome.charge(plan.initiator, "ring", 10);
            outcome.effect(0);
            outcome
        }

        fn apply_effect(&self, world: &mut EffectContext<'_, Counter>, target: usize) {
            let cycle = world.cycle();
            world.node_mut(target).effects += 1;
            world.node_mut(target).log.push(("apply_effect", cycle));
            world.record_bandwidth(target, "ring-effect", 1);
        }

        fn effect_target(&self, effect: &usize) -> Option<usize> {
            Some(*effect)
        }

        fn finish_cycle(&self, node: &mut Counter, cycle: u64) {
            node.finished += 1;
            node.log.push(("finish_cycle", cycle));
        }

        fn on_crash(&self, node: &mut Counter, cycle: u64) {
            node.initiated = 0;
            node.received = 0;
            node.crashes += 1;
            node.log.push(("on_crash", cycle));
        }

        fn on_restart(&self, node: &mut Counter, cycle: u64) {
            node.restarts += 1;
            node.log.push(("on_restart", cycle));
        }
    }

    fn counters(n: usize, seed: u64) -> Simulator<Counter> {
        Simulator::new(vec![Counter::default(); n], seed)
    }

    fn assert_matches_simulator(
        sim: &Simulator<Counter>,
        transport: &TransportRuntime<Counter>,
        label: &str,
    ) {
        let sim_nodes: Vec<&Counter> = sim.nodes().iter().collect();
        let rt_nodes: Vec<&Counter> = transport.nodes().collect();
        assert_eq!(sim_nodes, rt_nodes, "{label}: node states diverged");
        assert_eq!(
            sim.bandwidth.totals(),
            transport.bandwidth.totals(),
            "{label}: bandwidth diverged"
        );
        assert_eq!(sim.cycle(), transport.cycle(), "{label}: cycle diverged");
    }

    #[test]
    fn canonical_schedule_matches_the_simulator_for_every_actor_count() {
        for num_actors in [1, 2, 3, 8, 23] {
            let mut sim = counters(23, 7);
            let mut reference = counters(23, 7);
            let mut transport = TransportRuntime::from_simulator(
                &mut sim,
                num_actors,
                DeliverySchedule::canonical(),
            );
            for _ in 0..3 {
                reference.drive(&RingProtocol, RunOptions::cycles(1), |_, _| {});
                transport.drive(&RingProtocol, RunOptions::cycles(1));
            }
            assert_matches_simulator(&reference, &transport, &format!("actors = {num_actors}"));
        }
    }

    /// Every fault kind at once: drops, delays, duplicates, crashes that
    /// restart a cycle later.
    const COMPOSITE: FaultConfig = FaultConfig {
        drop_rate: 0.2,
        delay_rate: 0.2,
        duplicate_rate: 0.1,
        max_delay_cycles: 2,
        crash_rate: 0.05,
        downtime_cycles: 1,
        fault_seed: 99,
    };

    #[test]
    fn faulted_runs_match_the_simulator() {
        let cfg = COMPOSITE;
        for num_actors in [1, 3, 8] {
            let mut seeded = counters(23, 7);
            let mut reference = counters(23, 7);
            let mut ref_faults: FaultPlan<()> = FaultPlan::new(cfg);
            let mut rt_faults: FaultPlan<()> = FaultPlan::new(cfg);
            let mut transport = TransportRuntime::from_simulator(
                &mut seeded,
                num_actors,
                DeliverySchedule::canonical(),
            );
            for _ in 0..8 {
                reference.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).faulted(&mut ref_faults),
                    |_, _| {},
                );
                transport.drive(&RingProtocol, RunOptions::cycles(1).faulted(&mut rt_faults));
            }
            assert_matches_simulator(&reference, &transport, &format!("actors = {num_actors}"));
            assert_eq!(ref_faults.fingerprint(), rt_faults.fingerprint());
            assert_eq!(ref_faults.stats(), rt_faults.stats());
        }
    }

    #[test]
    fn until_complete_stops_with_the_simulator() {
        // The ring never quiets, so cap at the cycle budget; both drivers
        // must agree on cycles_run.
        let mut sim = counters(6, 13);
        let mut reference = counters(6, 13);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 3, DeliverySchedule::canonical());
        let ref_run = reference.drive(&RingProtocol, RunOptions::until_complete(5), |_, _| {});
        let rt_run = transport.drive(&RingProtocol, RunOptions::until_complete(5));
        assert_eq!(ref_run, rt_run);
        assert_matches_simulator(&reference, &transport, "until-complete");
    }

    #[test]
    #[should_panic(expected = "actor count")]
    fn thread_override_is_rejected() {
        let mut sim = counters(4, 1);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 2, DeliverySchedule::canonical());
        transport.drive(&RingProtocol, RunOptions::cycles(1).threads(2));
    }

    #[test]
    #[should_panic(expected = "oracle")]
    fn oracle_mode_is_rejected() {
        let mut sim = counters(4, 1);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 2, DeliverySchedule::canonical());
        transport.drive(&RingProtocol, RunOptions::cycles(1).oracle());
    }

    #[test]
    fn partitioning_covers_the_population() {
        let mut sim = counters(10, 3);
        let transport =
            TransportRuntime::from_simulator(&mut sim, 4, DeliverySchedule::canonical());
        assert_eq!(transport.num_nodes(), 10);
        // ceil(10/4) = 3 per shard → 4 shards: 3+3+3+1.
        assert_eq!(transport.num_actors(), 4);
        assert_eq!(transport.nodes().count(), 10);
        for idx in 0..10 {
            assert_eq!(transport.node(idx), sim.node(idx));
        }
    }

    #[test]
    fn no_node_is_cloned_inside_a_drive() {
        // Guests cross shards by move and the plan phase reads through a
        // lease, so after `from_simulator` copied the population in, a
        // drive — faulted or not — copies nothing.
        for num_actors in [1, 3, 8] {
            for faults in [None, Some(COMPOSITE)] {
                let mut sim = counters(23, 7);
                let mut transport = TransportRuntime::from_simulator(
                    &mut sim,
                    num_actors,
                    DeliverySchedule::canonical(),
                );
                let clones = sim.node(0).clones.0.clone();
                let before = clones.load(Relaxed);
                let mut plan = faults.map(FaultPlan::new);
                let opts = RunOptions::cycles(6);
                let report = match plan.as_mut() {
                    Some(plan) => transport.drive(&RingProtocol, opts.faulted(plan)),
                    None => transport.drive(&RingProtocol, opts),
                };
                assert!(report.exchanges() > 0);
                assert_eq!(transport.traffic().guests_lent > 0, num_actors > 1);
                assert_eq!(
                    clones.load(Relaxed),
                    before,
                    "actors = {num_actors}, faults {faults:?}"
                );
            }
        }
    }

    #[test]
    fn messages_per_cycle_are_bounded_by_shards_and_batches() {
        let run = |num_actors: usize, faults: Option<FaultConfig>| {
            let mut sim = counters(600, 7);
            let mut transport = TransportRuntime::from_simulator(
                &mut sim,
                num_actors,
                DeliverySchedule::canonical(),
            );
            let actors = transport.num_actors() as u64;
            let mut plan = faults.map(FaultPlan::new);
            let mut per_cycle = Vec::new();
            for cycle in 0..5 {
                let before = transport.traffic();
                let opts = RunOptions::cycles(1);
                let report = match plan.as_mut() {
                    Some(plan) => transport.drive(&RingProtocol, opts.faulted(plan)),
                    None => transport.drive(&RingProtocol, opts),
                };
                let after = transport.traffic();
                // Each one-cycle drive ends with one `Stop` per actor.
                let spent = MailboxTraffic {
                    commands: after.commands - before.commands - actors,
                    replies: after.replies - before.replies,
                    guests_lent: after.guests_lent - before.guests_lent,
                };
                let label = format!("actors = {num_actors}, faults {faults:?}, cycle {cycle}");
                // Every phase costs each actor at most one command —
                // `Transitions`, `Prepare`, `Plan`, `FinishCycle` per cycle;
                // `Lend`, `Commit`, `Restore`, `Effects` per batch — and at
                // most one reply (`Prepared`, `Plans`, `WantsMore`; `Guests`,
                // `Outcomes`).
                let batches = report.report.batches as u64;
                assert!(
                    spent.commands <= actors * (4 + 4 * batches),
                    "{label}: {spent:?}"
                );
                assert!(
                    spent.replies <= actors * (3 + 2 * batches),
                    "{label}: {spent:?}"
                );
                if num_actors == 1 && faults.is_none() {
                    // One shard, every batch committing and sending node 0
                    // its effects: nothing but `Prepare`, `Plan`,
                    // `FinishCycle`, a `Commit` and an `Effects` per batch —
                    // which also pins the single `Stop` subtracted above.
                    let expected = MailboxTraffic {
                        commands: 3 + 2 * batches,
                        replies: 3 + batches,
                        guests_lent: 0,
                    };
                    assert_eq!(spent, expected, "{label}");
                }
                per_cycle.push(spent);
            }
            per_cycle
        };
        for num_actors in [1, 3, 8] {
            for faults in [None, Some(COMPOSITE)] {
                let first = run(num_actors, faults);
                assert_eq!(first, run(num_actors, faults), "actors = {num_actors}");
                // 600 ring exchanges: far more plans than messages.
                let lent: u64 = first.iter().map(|spent| spent.guests_lent).sum();
                assert_eq!(lent > 0, num_actors > 1, "actors = {num_actors}");
            }
        }
    }

    #[test]
    fn a_mutating_command_with_a_lease_out_panics_naming_itself() {
        let mut transport = InProcess;
        let (tx, commands) = transport.mailbox::<Command<RingProtocol>>();
        let (replies, reply) = transport.mailbox::<Reply<RingProtocol>>();
        let nodes = vec![Counter::default(); 4];
        let actor = thread::spawn(move || run_actor(&RingProtocol, 0, 4, nodes, commands, replies));
        let membership = Arc::new(Membership::all_alive(4));
        let prepare = ToShard::Prepare {
            cycle: 0,
            membership: membership.clone(),
        };
        tx.send(prepare).unwrap();
        let Ok(FromShard::Prepared(lease)) = reply.recv() else {
            panic!("expected a prepare lease");
        };
        tx.send(ToShard::FinishCycle {
            cycle: 1,
            membership,
        })
        .unwrap();
        let panic = actor
            .join()
            .expect_err("the sequencer still holds the lease");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            message,
            "FinishCycle reached a shard whose plan-phase lease is still out"
        );
        assert_eq!(lease.len(), 4);
    }

    /// One node's `(hook, cycle)` log.
    type HookLog = Vec<(&'static str, u64)>;

    /// The per-node hook logs of the same run on every substrate: the
    /// simulator at 1 and 3 worker threads, its sequential oracle, and the
    /// transport on 1, 3 and 8 actors. 600 nodes split into three worker
    /// chunks of 200, so the worker substrate really fans out.
    fn hook_logs(faults: Option<FaultConfig>) -> Vec<(String, Vec<HookLog>)> {
        type Drive<'d> = &'d dyn Fn(&mut Simulator<Counter>, RunOptions<'_, ()>) -> Vec<Counter>;
        let mut runs = Vec::new();
        let mut run = |label: String, drive: Drive<'_>| {
            let mut sim = counters(600, 7);
            let mut plan = faults.map(FaultPlan::new);
            let opts = RunOptions::until_complete(6);
            let nodes = match plan.as_mut() {
                Some(plan) => drive(&mut sim, opts.faulted(plan)),
                None => drive(&mut sim, opts),
            };
            runs.push((label, nodes.into_iter().map(|node| node.log).collect()));
        };
        for threads in [1, 3] {
            run(format!("simulator, {threads} thread(s)"), &|sim, opts| {
                sim.drive(&RingProtocol, opts.threads(threads), |_, _| {});
                sim.nodes().to_vec()
            });
        }
        run("oracle".to_string(), &|sim, opts| {
            sim.drive(&RingProtocol, opts.oracle(), |_, _| {});
            sim.nodes().to_vec()
        });
        for actors in [1, 3, 8] {
            run(format!("{actors} actor(s)"), &|sim, opts| {
                let mut transport =
                    TransportRuntime::from_simulator(sim, actors, DeliverySchedule::canonical());
                transport.drive(&RingProtocol, opts);
                transport.nodes().cloned().collect()
            });
        }
        runs
    }

    #[test]
    fn hooks_fire_in_the_same_order_on_every_substrate() {
        let count = |log: &[(&str, u64)], hook: &str| log.iter().filter(|e| e.0 == hook).count();
        for faults in [None, Some(COMPOSITE)] {
            let mut runs = hook_logs(faults).into_iter();
            let (_, reference) = runs.next().expect("the 1-thread simulator run");
            for (label, logs) in runs {
                for (node, (log, expected)) in logs.iter().zip(&reference).enumerate() {
                    assert_eq!(log, expected, "{label}, faults {faults:?}: node {node}");
                }
            }

            // What the reference itself must show, or the equality above
            // pins nothing about these orderings.
            if faults.is_none() {
                // A batch's restores land before its effects: node 0 is
                // every effect's target and (for node 599) a cross-shard
                // destination in the second batch; an effect applied before
                // the restore would be overwritten by it.
                assert_eq!(count(&reference[0], "apply_effect"), 600 * 6);
                assert_eq!(count(&reference[0], "commit as destination"), 6);
                continue;
            }
            // Restarts run before crashes: some node does both in one cycle.
            let same_cycle = |log: &[(&str, u64)], first: &str, then: &str| {
                log.windows(2)
                    .any(|w| w[0].0 == first && w[1].0 == then && w[0].1 == w[1].1)
            };
            assert!(reference
                .iter()
                .any(|log| same_cycle(log, "on_restart", "on_crash")));
            assert!(!reference
                .iter()
                .any(|log| same_cycle(log, "on_crash", "on_restart")));
            // `finish_cycle` reaches departed nodes: everyone logs it every
            // cycle, including the nodes that sat some cycles out.
            assert!(reference.iter().all(|log| count(log, "finish_cycle") == 6));
            assert!(reference.iter().any(|log| count(log, "prepare") < 6));
        }
    }
}
