//! The transport runtime: the cycle sequencer driving shard actors over
//! mailboxes, byte-identical to [`Simulator`] under the canonical
//! [`DeliverySchedule`].
//!
//! The cycle itself — phase order, fault filtering on the ordered plan
//! list, conflict-free batching, charges and effects in plan order, the
//! stop rule — is [`p3q_sim::Sequencer`], the same code the simulator
//! executes, and every actor body is the simulator oracle's sequential
//! [`Shard`](p3q_sim::Shard). What this module adds is the mailbox
//! [`Substrate`]: each phase as the sends and receives that make the
//! actors run it.
//!
//! # What is still an argument
//!
//! Sharing the sequencer makes most of "byte-identical to the simulator"
//! hold by construction. Four properties remain the mailbox substrate's
//! own to keep:
//!
//! * **RNG streams by index** — the runtime owns a clone of the
//!   simulator's master RNG, from which the sequencer draws the one seed
//!   per cycle; per-node plan RNGs and per-plan commit RNGs derive from
//!   that seed by *index*, so where a computation runs (which actor, which
//!   thread) can never touch a stream. Shards own contiguous node ranges
//!   and plan their alive locals in ascending order, so gathering
//!   announcements in ascending shard order (the canonical schedule)
//!   concatenates into the simulator's plan list.
//! * **Guest isolation** — within a batch no node appears twice, so a
//!   cross-shard destination can travel as a *guest* value (extract →
//!   commit → restore) which nothing else observes until it is restored.
//! * **FIFO restore-before-effect** — all of a batch's guests are sent
//!   home before `commit_batch` returns, i.e. before the sequencer routes
//!   any of the batch's effects. Per-shard mailboxes are FIFO with one
//!   sender, so a shard always sees restore-before-effect and
//!   effect-before-next-batch-extract.
//! * **Commutative recorder merge** — commit charges land in the master
//!   recorder at the committing cycle; effect-recorded bandwidth lands in
//!   shard-local recorders merged in when an actor stops. Recorder merge
//!   is addition over the same `(node, cycle, category, bytes)` records
//!   the simulator makes, so every aggregate matches.
//!
//! A seeded schedule replays a *different* (but fixed) arrival permutation
//! per cycle: runs remain fully deterministic in `(seed, schedule)`, and
//! only the canonical schedule additionally equals the simulator.

use std::sync::Arc;
use std::thread;

use p3q_sim::{
    BandwidthRecorder, CommitOutcome, EventQueue, ExchangePlan, FaultTransitions, GossipProtocol,
    Membership, RunOptions, RunReport, RunState, Sequencer, Simulator, Substrate,
};

use crate::actor::{run_actor, Command, CommitJob, FromShard, JobOutcome, Reply, ToShard};
use crate::mailbox::{InProcess, MailboxReceiver, MailboxSender, Transport};
use crate::schedule::DeliverySchedule;

/// Sequencer-side panic message when a shard actor's mailbox hangs up.
const ACTOR_GONE: &str = "shard actor hung up (it panicked or was stopped)";

/// One live shard actor, sequencer side: its command mailbox, its reply
/// mailbox and the handle that returns its state on shutdown.
struct ActorHandle<'scope, P: GossipProtocol, T: Transport> {
    tx: T::Sender<Command<P>>,
    reply: T::Receiver<Reply<P>>,
    join: thread::ScopedJoinHandle<'scope, (Vec<P::Node>, BandwidthRecorder)>,
}

impl<P: GossipProtocol, T: Transport> ActorHandle<'_, P, T> {
    fn send(&self, msg: Command<P>) {
        self.tx.send(msg).expect(ACTOR_GONE);
    }

    fn recv(&self) -> Reply<P> {
        self.reply.recv().expect(ACTOR_GONE)
    }

    /// Stops the actor and takes back its nodes and shard-local recorder.
    fn stop(self) -> (Vec<P::Node>, BandwidthRecorder) {
        self.send(ToShard::Stop);
        self.join.join().expect("shard actor panicked")
    }
}

/// The mailbox substrate: every phase of the cycle as the messages that
/// make the shard actors run it (the per-cycle message sequence is in
/// [`crate::actor`]'s module docs).
struct Mailboxes<'scope, P: GossipProtocol, T: Transport> {
    /// Actor `s` owns the nodes with `idx / shard_size == s`.
    actors: Vec<ActorHandle<'scope, P, T>>,
    shard_size: usize,
    schedule: DeliverySchedule,
    /// The cycle's membership, frozen after its fault transitions.
    alive: Arc<Membership>,
    /// The post-prepare snapshot of the whole population, assembled by
    /// `prepare` for `plan` to broadcast.
    world: Arc<Vec<P::Node>>,
}

impl<P, T> Substrate<P> for Mailboxes<'_, P, T>
where
    P: GossipProtocol,
    P::Payload: Clone,
    T: Transport,
{
    /// Sends every shard the transitions of its own nodes; hooks run
    /// in-shard, restarts before crashes.
    fn transitions(&mut self, _proto: &P, cycle: u64, transitions: &FaultTransitions) {
        for (s, actor) in self.actors.iter().enumerate() {
            let local = |nodes: &[usize]| -> Vec<usize> {
                let owned = nodes.iter().filter(|&&idx| idx / self.shard_size == s);
                owned.copied().collect()
            };
            let restarted = local(&transitions.restarted);
            let crashed = local(&transitions.crashed);
            if !(restarted.is_empty() && crashed.is_empty()) {
                actor.send(ToShard::Transitions {
                    cycle,
                    restarted,
                    crashed,
                });
            }
        }
    }

    /// Prepares everywhere, then assembles the post-prepare world from the
    /// shard replies (ascending shard order = global node order). Lazy
    /// planners read *remote* state from this snapshot (probe and
    /// re-bootstrap inspect other nodes), which is why the full world
    /// broadcasts every cycle.
    fn prepare(&mut self, _proto: &P, cycle: u64, membership: &Membership) {
        self.alive = Arc::new(membership.clone());
        for actor in &self.actors {
            actor.send(ToShard::Prepare {
                cycle,
                membership: self.alive.clone(),
            });
        }
        let mut world = Vec::with_capacity(membership.len());
        for actor in &self.actors {
            let FromShard::Snapshot(snapshot) = actor.recv() else {
                panic!("protocol violation: expected a prepare snapshot");
            };
            world.extend(snapshot);
        }
        self.world = Arc::new(world);
    }

    /// Plans everywhere; gathers announcements in the delivery schedule's
    /// order. Canonical = ascending shards = the simulator's plan list.
    fn plan(
        &mut self,
        _proto: &P,
        cycle: u64,
        cycle_seed: u64,
        _membership: &Membership,
    ) -> Vec<ExchangePlan<P::Payload>> {
        let world = std::mem::take(&mut self.world);
        for actor in &self.actors {
            actor.send(ToShard::Plan {
                cycle,
                cycle_seed,
                world: world.clone(),
                membership: self.alive.clone(),
            });
        }
        let mut plans = Vec::new();
        for s in self.schedule.gather_order(self.actors.len(), cycle) {
            let FromShard::Plans(announced) = self.actors[s].recv() else {
                panic!("protocol violation: expected a plan announcement");
            };
            plans.extend(announced);
        }
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
        let shard_of = |idx: usize| idx / self.shard_size;
        // Extract guests for cross-shard destinations and group the batch's
        // jobs by the initiator's shard, preserving ascending plan order.
        // Guests are safe to copy out: within a conflict-free batch the
        // destination appears in no other plan, and per-shard FIFO ordering
        // guarantees all prior restores/effects already landed.
        let mut jobs_by: Vec<Vec<CommitJob<P::Node, P::Payload>>> =
            self.actors.iter().map(|_| Vec::new()).collect();
        for &plan_idx in batch {
            let plan = &plans[plan_idx];
            let home = shard_of(plan.initiator);
            let remote = plan.destination.filter(|&dest| shard_of(dest) != home);
            let guest = remote.map(|dest| {
                let owner = &self.actors[shard_of(dest)];
                owner.send(ToShard::Extract { node: dest });
                let FromShard::Guest(guest) = owner.recv() else {
                    panic!("protocol violation: expected a guest extraction");
                };
                guest
            });
            jobs_by[home].push(CommitJob {
                plan: plan.clone(),
                plan_idx,
                guest,
            });
        }

        // Fan the batch out to every shard with jobs, then gather; commits
        // run concurrently across shards. The sort restores global plan
        // order (commit RNGs never depended on it — they key off plan_idx).
        let mut committing = Vec::new();
        for (actor, jobs) in self.actors.iter().zip(jobs_by) {
            if !jobs.is_empty() {
                actor.send(ToShard::Commit {
                    cycle,
                    cycle_seed,
                    jobs,
                });
                committing.push(actor);
            }
        }
        let mut outcomes: Vec<JobOutcome<P::Node, P::Effect>> = Vec::new();
        for actor in committing {
            let FromShard::Outcomes(done) = actor.recv() else {
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
        let restore = |o: JobOutcome<P::Node, P::Effect>| {
            if let Some((node, state)) = o.guest {
                self.actors[shard_of(node)].send(ToShard::Restore { node, state });
            }
            o.outcome
        };
        outcomes.into_iter().map(restore).collect()
    }

    /// Routes each effect to the shard owning its declared target, where
    /// the bandwidth it records lands in the shard-local recorder.
    fn effects(
        &mut self,
        proto: &P,
        cycle: u64,
        effects: impl IntoIterator<Item = P::Effect>,
        _bandwidth: &mut BandwidthRecorder,
    ) {
        for effect in effects {
            let target = proto
                .effect_target(&effect)
                .expect("a sharded transport needs GossipProtocol::effect_target to route effects");
            self.actors[target / self.shard_size].send(ToShard::Effect { cycle, effect });
        }
    }

    /// End-of-cycle bookkeeping plus the until-idle re-ignition probe, one
    /// round-trip per shard (the shards always answer the probe).
    fn finish(&mut self, _proto: &P, cycle: u64, _probe: Option<&Membership>) -> bool {
        for actor in &self.actors {
            actor.send(ToShard::FinishCycle {
                cycle,
                membership: self.alive.clone(),
            });
        }
        let mut wants_more = false;
        for actor in &self.actors {
            let FromShard::WantsMore(wants) = actor.recv() else {
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
/// Constructed from a simulator snapshot ([`from_simulator`]
/// (Self::from_simulator)); between [`drive`](Self::drive) calls the
/// runtime owns the node states, membership, RNG position and bandwidth
/// totals, so state can be inspected (or churned) exactly where a
/// simulator's could. During a drive the states live inside the actors —
/// which is why, unlike `Simulator::drive`, the transport drive takes no
/// observer closure: observe between drives instead.
#[derive(Debug)]
pub struct TransportRuntime<N, T: Transport = InProcess> {
    /// Contiguous node shards of `shard_size` nodes (the last may be
    /// shorter): `shards[s][0]` has global index `s * shard_size`.
    shards: Vec<Vec<N>>,
    shard_size: usize,
    run: RunState,
    schedule: DeliverySchedule,
    /// Scheduled infrastructure faults: actor ids to stop-and-respawn at
    /// the start of the given cycle.
    restarts: EventQueue<usize>,
    transport: T,
    /// Bandwidth and message accounting for the whole run.
    pub bandwidth: BandwidthRecorder,
}

impl<N: Send + Sync> TransportRuntime<N, InProcess> {
    /// Snapshots a simulator into a runtime over `num_actors` in-process
    /// shard actors (clamped to `1..=num_nodes`; the contiguous equal-size
    /// partition may round the actual actor count down — see
    /// [`num_actors`](Self::num_actors)).
    ///
    /// Takes `&mut` only to clone the simulator's RNG position; the
    /// simulator is otherwise untouched and can keep running as the
    /// reference for oracle-equality checks.
    pub fn from_simulator(
        sim: &mut Simulator<N>,
        num_actors: usize,
        schedule: DeliverySchedule,
    ) -> Self
    where
        N: Clone,
    {
        Self::with_transport(sim, num_actors, schedule, InProcess)
    }
}

impl<N: Send + Sync, T: Transport> TransportRuntime<N, T> {
    /// [`from_simulator`](TransportRuntime::from_simulator) over an explicit
    /// transport backend.
    pub fn with_transport(
        sim: &mut Simulator<N>,
        num_actors: usize,
        schedule: DeliverySchedule,
        transport: T,
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
            schedule,
            restarts: EventQueue::new(),
            transport,
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

    /// The delivery schedule this runtime replays.
    pub fn schedule(&self) -> DeliverySchedule {
        self.schedule
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

    /// Schedules an *infrastructure* fault: at the start of `at_cycle` the
    /// given actor is stopped, joined and respawned on its recovered shard
    /// state. Protocol output is unaffected by construction (the shard's
    /// nodes and accounting survive the hop) — which is exactly the
    /// property the crash/restart suites pin. Restarts falling beyond a
    /// drive stay queued for the next one.
    ///
    /// # Panics
    /// Panics if `actor >= self.num_actors()`.
    pub fn schedule_actor_restart(&mut self, at_cycle: u64, actor: usize) {
        assert!(actor < self.shards.len(), "actor index out of range");
        self.restarts.schedule(at_cycle, actor);
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
        N: Clone + 'static,
        T::Sender<FromShard<N, P::Payload, P::Effect>>: 'static,
        T::Receiver<ToShard<N, P::Payload, P::Effect>>: 'static,
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
            let (shard_size, transport) = (self.shard_size, &mut self.transport);
            let mut spawn = |s: usize, nodes: Vec<N>| -> ActorHandle<'_, P, T> {
                let (tx, commands) = transport.mailbox();
                let (replies, reply) = transport.mailbox();
                let actor = move || run_actor(proto, s * shard_size, nodes, commands, replies);
                let join = scope.spawn(actor);
                ActorHandle { tx, reply, join }
            };
            let shards = self.shards.iter_mut().map(std::mem::take).enumerate();
            let mut mailboxes = Mailboxes {
                actors: shards.map(|(s, nodes)| spawn(s, nodes)).collect(),
                shard_size,
                schedule: self.schedule,
                alive: Arc::new(self.run.membership.clone()),
                world: Arc::default(),
            };

            for _ in 0..opts.cycles {
                // Infrastructure faults first: stop, join and respawn due
                // actors on their recovered state. The dead actor's local
                // bandwidth merges into the master immediately so nothing
                // is lost across the hop.
                for s in self.restarts.pop_due(self.run.cycle) {
                    let (nodes, recorder) = mailboxes.actors.remove(s).stop();
                    self.bandwidth.merge(&recorder);
                    mailboxes.actors.insert(s, spawn(s, nodes));
                }
                if sequencer.run_cycle(&mut mailboxes, &mut self.run, &mut self.bandwidth) {
                    break;
                }
            }

            // Stop every actor and reassemble: node states return to their
            // slots, shard-local (effect-recorded) bandwidth merges into
            // the master in ascending shard order.
            for (shard, actor) in self.shards.iter_mut().zip(mailboxes.actors) {
                let (nodes, recorder) = actor.stop();
                self.bandwidth.merge(&recorder);
                *shard = nodes;
            }
        });
        sequencer.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_sim::{CommitOutcome, CycleContext, EffectContext, FaultConfig, FaultPlan, RunOptions};

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
    }

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
    fn actor_restarts_leave_the_run_byte_identical() {
        let mut sim = counters(23, 7);
        let mut reference = counters(23, 7);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 4, DeliverySchedule::canonical());
        transport.schedule_actor_restart(1, 0);
        transport.schedule_actor_restart(1, 3);
        transport.schedule_actor_restart(2, 2);
        reference.drive(&RingProtocol, RunOptions::cycles(4), |_, _| {});
        transport.drive(&RingProtocol, RunOptions::cycles(4));
        assert_matches_simulator(&reference, &transport, "with actor restarts");
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let run = |schedule: DeliverySchedule| {
            let mut sim = counters(23, 7);
            let mut transport = TransportRuntime::from_simulator(&mut sim, 4, schedule);
            let report = transport.drive(&RingProtocol, RunOptions::cycles(3));
            let nodes: Vec<Counter> = transport.nodes().cloned().collect();
            (nodes, transport.bandwidth.totals(), report)
        };
        assert_eq!(
            run(DeliverySchedule::seeded(42)),
            run(DeliverySchedule::seeded(42)),
            "same (seed, schedule) must be byte-identical"
        );
        // A seeded schedule still commits the same exchanges (the ring plan
        // list is a permutation), just in a different total order.
        let (_, totals, report) = run(DeliverySchedule::seeded(42));
        let (_, canonical_totals, canonical_report) = run(DeliverySchedule::canonical());
        assert_eq!(report.exchanges(), canonical_report.exchanges());
        assert_eq!(totals, canonical_totals);
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

    /// One node's `(hook, cycle)` log.
    type HookLog = Vec<(&'static str, u64)>;

    /// The per-node hook logs of the same run on every substrate: the
    /// simulator at 1 and 3 worker threads, its sequential oracle, and the
    /// transport on 1, 3 and 8 actors. 600 nodes span three store shards, so
    /// the worker substrate really fans out.
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
